//! `net_mixed` — writes beside reads through the front door: the same
//! server/core/index code used as a hot cache, as a cold renderer and as a
//! write path at once, so a gain for one that costs another shows.
//!
//! One `QueryService` with a WAL on disk (default `GroupCommit`), one
//! `NetServer` on loopback, two client threads each with its own `Client`
//! (one connection, depth 1, closed loop). Per thread, from its own
//! sub-seed: 80% reads of `taxi` drawn Zipf(1.1) from a pool of 64 small
//! queries (result-cache hits after warm-up: wire + admission + cache
//! probe), 10% reads of `live` from a pool of 16 (mostly misses — every
//! write bumps the dataset version and invalidates its entries — these cold
//! renders are the p95 mode), 10% writes of `live` (two inserts of fresh ids
//! for every delete of an earlier one), and a `Flush` every 500 operations so
//! several compaction + checkpoint cycles complete inside the run (the
//! default `compact_trigger_bytes` never fires on point inserts this short).

use super::{point_request, square, NYC};
use crate::catalog::Values;
use crate::micro;
use crate::mix::{below, class_cycle, Zipf};
use crate::run::{
    closed_loop, dir_bytes, insert_disk_metrics, insert_service_metrics, repeat_setup, untimed,
    Class, ClientLog, Clock, Ctx, OpRecord, Outcome, Scratch,
};
use crate::spans::SpanLog;
use spade_client::{Client, ClientConfig};
use spade_core::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade_core::query::{QueryResult, SelectQuery};
use spade_datagen::{urban, Rng, StdRng};
use spade_geometry::{Geometry, Point};
use spade_index::GridIndex;
use spade_net::{NetServer, NetServerConfig};
use spade_server::{QueryRequest, QueryResponse, QueryService, ServiceConfig};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 2;
const TAXI_POINTS: usize = 1_200_000;
const LIVE_POINTS: usize = 200_000;
const HOTSPOTS: usize = 8;
const CELL_BUDGET: u64 = 2 << 20;
const HOT_POOL: usize = 64;
const LIVE_POOL: usize = 16;
const ZIPF_S: f64 = 1.1;
/// One cycle of 20 operations per thread.
const HOT_READS: usize = 16;
const LIVE_READS: usize = 2;
const WRITES: usize = 2;
const FLUSH_EVERY: usize = 500;
/// Per thread; ≈6× what the reference container completes.
const OPS_PER_SECOND: f64 = 2_000.0;
const COUNT_PREFIX: usize = 1_000;

/// Record tags: which part of the mix an operation belongs to.
const TAG_HOT: u8 = 0;
const TAG_LIVE: u8 = 1;
const TAG_WRITE: u8 = 2;
const TAG_FLUSH: u8 = 3;

/// Pre-built read requests with their classes.
type Pool = Vec<(Class, QueryRequest)>;

/// One planned operation: reads point into a shared pool, writes own their
/// request. `Client::query` takes a reference, so nothing is cloned or
/// built inside the timed loop.
enum Planned {
    Hot(usize),
    Live(usize),
    Own(QueryRequest),
}

struct Env {
    clients: Vec<Client>,
    server: NetServer,
    taxi_grid: Arc<GridIndex>,
    hot: Pool,
    live: Pool,
    plans: Vec<Vec<(Class, u8, Planned)>>,
    read_your_writes: bool,
    user_bytes: u64,
    gen_s: f64,
    build_s: f64,
    // Dropped last: server and service above use its files.
    scratch: Scratch,
}

fn read(dataset: &str, query: SelectQuery) -> (Class, QueryRequest) {
    let request = QueryRequest::Select {
        dataset: dataset.into(),
        query,
    };
    (Class::of(&request), request)
}

/// A pool of small queries on `dataset`: three ranges for every polygon.
fn pool(
    r: &mut StdRng,
    dataset: &str,
    n: usize,
    half: (f64, f64),
    frac: f64,
) -> Vec<(Class, QueryRequest)> {
    (0..n)
        .map(|i| {
            if i % 4 == 3 {
                let p = urban::constraint_polygons(1, &NYC, frac, 16, r.next_u64())
                    .pop()
                    .expect("one polygon");
                read(dataset, SelectQuery::Intersects(p))
            } else {
                let h = half.0 + (half.1 - half.0) * r.gen::<f64>();
                read(
                    dataset,
                    SelectQuery::Range(square(point_request(r, &NYC), h)),
                )
            }
        })
        .collect()
}

fn insert(id: u32, p: Point) -> QueryRequest {
    QueryRequest::Insert {
        dataset: "live".into(),
        id,
        geometry: Geometry::Point(p),
    }
}

fn delete(id: u32) -> QueryRequest {
    QueryRequest::Delete {
        dataset: "live".into(),
        id,
    }
}

/// Ids a thread inserts: disjoint from the base data and from other threads.
fn first_id(thread: usize) -> u32 {
    10_000_000 * (thread as u32 + 1)
}

fn plan(seed: u64, thread: usize, n: usize, pools: (&Pool, &Pool)) -> Vec<(Class, u8, Planned)> {
    let (hot, live) = pools;
    let mut r = spade_datagen::rng(seed);
    let zipf = Zipf::new(hot.len(), ZIPF_S);
    let cycle = class_cycle(
        &[
            (TAG_HOT, HOT_READS),
            (TAG_LIVE, LIVE_READS),
            (TAG_WRITE, WRITES),
        ],
        &mut r,
    );
    let (mut next_id, mut oldest, mut writes) = (first_id(thread), first_id(thread), 0usize);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if i % FLUSH_EVERY == FLUSH_EVERY - 1 {
            let flush = QueryRequest::Flush {
                dataset: "live".into(),
            };
            out.push((Class::Flush, TAG_FLUSH, Planned::Own(flush)));
            continue;
        }
        out.push(match cycle[i % cycle.len()] {
            TAG_HOT => {
                let i = zipf.sample(&mut r);
                (hot[i].0, TAG_HOT, Planned::Hot(i))
            }
            TAG_LIVE => {
                let i = below(&mut r, live.len());
                (live[i].0, TAG_LIVE, Planned::Live(i))
            }
            _ => {
                writes += 1;
                if writes % 3 == 0 {
                    oldest += 1;
                    (Class::Delete, TAG_WRITE, Planned::Own(delete(oldest - 1)))
                } else {
                    next_id += 1;
                    let p = point_request(&mut r, &NYC);
                    (
                        Class::Insert,
                        TAG_WRITE,
                        Planned::Own(insert(next_id - 1, p)),
                    )
                }
            }
        });
    }
    out
}

fn disk_grid(dir: &Path, name: &str, points: Vec<Point>) -> (IndexedDataset, u64) {
    let data = Dataset::from_points(name, points);
    let bytes = data.byte_size() as u64;
    let cell = GridIndex::cell_size_for_budget(&data.extent, bytes, CELL_BUDGET);
    let grid = GridIndex::build(Some(dir.to_path_buf()), &data.objects, cell)
        .expect("build a grid on disk");
    // Generation 0's manifest, so the dataset can be reopened from disk.
    grid.save_manifest(0).expect("write the first manifest");
    (IndexedDataset::new(name, DatasetKind::Points, grid), bytes)
}

fn ids_of(reply: &QueryResponse) -> BTreeSet<u32> {
    match reply.payload.query() {
        Some(QueryResult::Ids(v)) => v.iter().copied().collect(),
        _ => BTreeSet::new(),
    }
}

fn setup(ctx: &Ctx) -> Env {
    let t = Instant::now();
    let mut r = spade_datagen::rng(ctx.seed);
    let taxi_points = urban::clustered_points(TAXI_POINTS, &NYC, HOTSPOTS, r.next_u64());
    let live_points = urban::clustered_points(LIVE_POINTS, &NYC, HOTSPOTS, r.next_u64());
    // Hot queries are tiny, so every hit costs the same whatever the seed
    // put under it; live queries are large enough to be real renders.
    let hot = pool(&mut r, "taxi", HOT_POOL, (0.001, 0.002), 0.004);
    let live = pool(&mut r, "live", LIVE_POOL, (0.02, 0.05), 0.06);
    let n = (ctx.seconds * OPS_PER_SECOND) as usize;
    let plans = (0..CLIENTS)
        .map(|t| plan(r.next_u64(), t, n, (&hot, &live)))
        .collect();
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let scratch = Scratch::new("net");
    let (taxi, taxi_bytes) = disk_grid(&scratch.join("taxi"), "taxi", taxi_points);
    let (live_ds, live_bytes) = disk_grid(&scratch.join("live"), "live", live_points);
    let build_s = t.elapsed().as_secs_f64();
    let taxi_grid = taxi.grid();

    let service = Arc::new(QueryService::new(ServiceConfig {
        wal_dir: Some(scratch.join("wal")),
        ..ServiceConfig::default()
    }));
    service.register_indexed("taxi", taxi);
    service.register_indexed("live", live_ds);
    let server = NetServer::serve(service, "127.0.0.1:0", NetServerConfig::default())
        .expect("listen on loopback");
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(server.addr(), ClientConfig::default()).expect("connect"))
        .collect();

    // Warm-up over the wire: every pool query once (fills the result cache
    // and the optimizer's statistics), then one write of each kind with the
    // read-your-writes check, then a flush so compaction has run once.
    let c = &clients[0];
    let ask = |req: &QueryRequest| {
        untimed(|| c.query(req).map_err(|e| e.to_string())).expect("warm-up request")
    };
    for (_, req) in hot.iter().chain(&live) {
        ask(req);
    }
    let probe_id = first_id(CLIENTS);
    let probe_at = point_request(&mut r, &NYC);
    let around = read("live", SelectQuery::Range(square(probe_at, 0.001))).1;
    ask(&insert(probe_id, probe_at));
    let seen_after_insert = ids_of(&ask(&around)).contains(&probe_id);
    ask(&delete(probe_id));
    let gone_after_delete = !ids_of(&ask(&around)).contains(&probe_id);
    ask(&QueryRequest::Flush {
        dataset: "live".into(),
    });

    Env {
        clients,
        server,
        taxi_grid,
        hot,
        live,
        plans,
        read_your_writes: seen_after_insert && gone_after_delete,
        user_bytes: taxi_bytes + live_bytes,
        gen_s,
        build_s,
        scratch,
    }
}

/// After the run: reopen the service from the WAL directory and the
/// manifests alone; every acknowledged insert not later deleted must be
/// there, every acknowledged delete gone, and nothing else changed.
fn durable(scratch: &Scratch, plans: &[Vec<(Class, u8, Planned)>], records: &[OpRecord]) -> bool {
    let mut want = BTreeSet::new();
    let mut gone = BTreeSet::new();
    for (t, plan) in plans.iter().enumerate() {
        let mine = records.iter().filter(|r| r.client as usize == t);
        for (op, rec) in plan.iter().zip(mine) {
            if rec.reply.as_ref().and_then(|f| f.ack).is_none() {
                continue;
            }
            match &op.2 {
                Planned::Own(QueryRequest::Insert { id, .. }) => {
                    want.insert(*id);
                }
                Planned::Own(QueryRequest::Delete { id, .. }) => {
                    want.remove(id);
                    gone.insert(*id);
                }
                _ => {}
            }
        }
    }
    let service = QueryService::new(ServiceConfig {
        wal_dir: Some(scratch.join("wal")),
        ..ServiceConfig::default()
    });
    let reopened = match IndexedDataset::open("live", DatasetKind::Points, scratch.join("live")) {
        Ok((data, _)) => data,
        Err(e) => {
            eprintln!("net_mixed: cannot reopen 'live' from its manifest: {e}");
            return false;
        }
    };
    service.register_indexed("live", reopened);
    let everything = read("live", SelectQuery::Range(NYC.inflate(1.0))).1;
    let Ok(reply) = untimed(|| {
        service
            .session()
            .submit(everything)
            .wait()
            .map_err(|e| e.to_string())
    }) else {
        return false;
    };
    let have = ids_of(&reply);
    let missing = want.difference(&have).count();
    let resurrected = gone.intersection(&have).count();
    let size_ok = have.len() == LIVE_POINTS + want.len();
    if missing > 0 || resurrected > 0 || !size_ok {
        eprintln!(
            "net_mixed: after reopen {missing} acked insert(s) missing, {resurrected} deleted id(s) back, {} objects (want {})",
            have.len(),
            LIVE_POINTS + want.len()
        );
        return false;
    }
    true
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (env, setup_s) = repeat_setup(|| setup(ctx));
    let mut correct = env.read_your_writes;
    if !correct {
        eprintln!("net_mixed: a range around an acked insert did not return it (or returned a deleted id)");
    }

    let clock = Clock::starting_now(ctx.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = env
            .clients
            .iter()
            .zip(&env.plans)
            .enumerate()
            .map(|(t, (client, plan))| {
                let (hot, live) = (&env.hot, &env.live);
                s.spawn(move || {
                    let ops = plan.iter().map(|(class, tag, op)| (*class, *tag, op));
                    closed_loop(clock, t as u8, ctx.trace, ops, |op| {
                        let request = match op {
                            Planned::Hot(i) => &hot[*i].1,
                            Planned::Live(i) => &live[*i].1,
                            Planned::Own(request) => request,
                        };
                        client.query(request).map_err(|e| e.to_string())
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let timed_wall_s = clock.epoch.elapsed().as_secs_f64();
    // Client by client, each in the order it was sent.
    let mut records = Vec::new();
    let mut spans = SpanLog::default();
    for log in logs {
        records.extend(log.records);
        spans.extend(log.spans);
    }

    let mut values = Values::new();
    values.insert("datagen.gen_s", env.gen_s);
    values.insert("index.build_s", env.build_s);
    let hot_reads = records
        .iter()
        .filter(|r| r.tag == TAG_HOT)
        .filter_map(|r| r.reply.as_ref());
    let served = hot_reads
        .clone()
        .filter(|f| f.stats.result_cache.served_from_cache())
        .count();
    values.insert(
        "core.result_cache_hit_ratio",
        served as f64 / hot_reads.count().max(1) as f64,
    );
    insert_service_metrics(&mut values, env.server.service());
    let (frames, flushes) = env
        .clients
        .iter()
        .map(Client::batching_stats)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    values.insert(
        "client.frames_per_flush",
        frames as f64 / flushes.max(1) as f64,
    );
    if ctx.trace {
        let requests: Vec<QueryRequest> = env.hot.iter().map(|(_, q)| q.clone()).collect();
        let replies = requests
            .iter()
            .filter_map(|q| untimed(|| env.clients[0].query(q).map_err(|e| e.to_string())).ok())
            .collect();
        let (encode_us, decode_us, reply_bytes) = micro::codec(&requests, replies);
        values.insert("net.encode_request_us", encode_us);
        values.insert("net.decode_reply_us", decode_us);
        values.insert("net.reply_bytes", reply_bytes);
        values.insert("index.load_cell_ms", micro::load_cell_ms(&env.taxi_grid));
        values.insert(
            "storage.wal_append_us",
            micro::wal_append_us(&env.scratch.join("wal-micro")),
        );
        values.insert("gpu.draw_ms", micro::draw_ms());
    }

    // Stop the server (drains, then flushes the WAL tail), measure what is
    // on disk, and reopen from disk alone.
    let Env {
        clients,
        server,
        taxi_grid,
        plans,
        user_bytes,
        scratch,
        ..
    } = env;
    drop(clients);
    server.stop();
    drop(server);
    drop(taxi_grid);
    let on_disk = dir_bytes(scratch.path()) - dir_bytes(&scratch.join("wal-micro"));
    insert_disk_metrics(&mut values, on_disk, user_bytes);
    correct &= durable(&scratch, &plans, &records);

    Outcome {
        correct,
        setup_s,
        records,
        spans,
        timed_wall_s,
        over_tcp: true,
        count_prefix: COUNT_PREFIX,
        values,
    }
}
