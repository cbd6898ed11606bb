//! `cluster_join` — the only workload where `spade-cluster` does anything;
//! ROADMAP item 5 (speed-up > 1 or delete it) is decided on these numbers.
//!
//! Three `NetServer` workers on loopback, each its own `QueryService`
//! holding the full data, one `ClusterClient`, one client thread. The data
//! is cell-skewed on purpose (gaussian points and boxes pile into the
//! central cells), because skew is what the byte-balanced shard map and the
//! pair router exist for. The result cache is off: shard partials bypass it
//! anyway, and this keeps the single-node reference honest.

use crate::catalog::Values;
use crate::micro;
use crate::mix::class_cycle;
use crate::run::{closed_loop, repeat_setup, untimed, Class, ClientLog, Clock, Ctx, Outcome};
use crate::stats;
use spade_client::{Client, ClientConfig};
use spade_cluster::{ClusterClient, ClusterConfig, ShardMap};
use spade_core::dataset::{DatasetKind, IndexedDataset};
use spade_core::query::{JoinQuery, SelectQuery};
use spade_core::EngineConfig;
use spade_datagen::{spider, Rng};
use spade_geometry::{BBox, Geometry, Point, Polygon};
use spade_index::GridIndex;
use spade_net::{NetServer, NetServerConfig};
use spade_server::{QueryRequest, QueryResponse, QueryService, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 3;
const POINTS: usize = 20_000;
const BOXES: usize = 64;
const BOX_SIDE: f64 = 0.05;
/// The polygon side is the same 64 boxes on every `--seed`. Where their grid
/// happens to cut decides how many cell pairs a join routes, and with
/// seeded boxes that alone moved join latency by ±40% from seed to seed:
/// structure, not speed. Points, bands and operation order follow the seed.
const BOXES_SEED: u64 = 23;
const EXTENT: f64 = 100.0;
/// 100 / 25 → a 4×4 grid: 16 cells, the central four hold most bytes.
const CELL: f64 = 34.0;
/// One cycle of 10 operations: 60% range bands, 30% joins, 10% count
/// aggregations. The median lies in the select mode and p80 inside the
/// join mode (joins span the 60th to the 90th percentile).
const RANGES: usize = 6;
const JOINS: usize = 3;
const AGGS: usize = 1;
const OPS_PER_SECOND: f64 = 60.0;
const COUNT_PREFIX: usize = 40;

struct Env {
    cluster: ClusterClient,
    single: Client,
    workers: Vec<NetServer>,
    boxes: Vec<Polygon>,
    ops: Vec<(Class, u8, QueryRequest)>,
    /// One request per class, for the identity check and the single-node
    /// reference.
    samples: Vec<QueryRequest>,
    identical: bool,
    gen_s: f64,
    build_s: f64,
}

fn band<R: Rng>(r: &mut R) -> QueryRequest {
    // A band across the hot centre: touches most cells, result-heavy.
    let y0 = 30.0 + 25.0 * r.gen::<f64>();
    let height = 10.0 + 20.0 * r.gen::<f64>();
    QueryRequest::Select {
        dataset: "pts".into(),
        query: SelectQuery::Range(BBox::new(
            Point::new(10.0, y0),
            Point::new(90.0, y0 + height),
        )),
    }
}

fn join(query: JoinQuery) -> QueryRequest {
    QueryRequest::Join {
        left: "polys".into(),
        right: "pts".into(),
        query,
    }
}

fn memory_grid(name: &str, kind: DatasetKind, objects: &[(u32, Geometry)]) -> IndexedDataset {
    let grid = GridIndex::build(None, objects, CELL).expect("build an in-memory grid");
    IndexedDataset::new(name, kind, grid)
}

fn setup(ctx: &Ctx) -> Env {
    let t = Instant::now();
    let mut r = spade_datagen::rng(ctx.seed);
    let world = BBox::new(Point::ZERO, Point::new(EXTENT, EXTENT));
    let points: Vec<(u32, Geometry)> =
        spider::scale_points(&spider::gaussian_points(POINTS, r.next_u64()), &world)
            .into_iter()
            .map(Geometry::Point)
            .zip(0u32..)
            .map(|(g, i)| (i, g))
            .collect();
    let boxes: Vec<Polygon> = spider::gaussian_boxes(BOXES, BOX_SIDE, BOXES_SEED)
        .into_iter()
        .map(|p| {
            Polygon::new(
                p.exterior
                    .points
                    .iter()
                    .map(|q| Point::new(q.x * EXTENT, q.y * EXTENT))
                    .collect(),
            )
        })
        .collect();
    let polygons: Vec<(u32, Geometry)> = boxes
        .iter()
        .cloned()
        .map(Geometry::Polygon)
        .zip(0u32..)
        .map(|(g, i)| (i, g))
        .collect();
    let cycle = class_cycle(
        &[
            (Class::Range, RANGES),
            (Class::Join, JOINS),
            (Class::Agg, AGGS),
        ],
        &mut r,
    );
    let n = (ctx.seconds * OPS_PER_SECOND) as usize;
    let ops = cycle
        .iter()
        .cycle()
        .take(n)
        .map(|&class| {
            let request = match class {
                Class::Range => band(&mut r),
                Class::Join => join(JoinQuery::Intersects),
                _ => join(JoinQuery::CountPoints),
            };
            (class, 0, request)
        })
        .collect();
    let samples = vec![
        band(&mut r),
        join(JoinQuery::Intersects),
        join(JoinQuery::CountPoints),
    ];
    let gen_s = t.elapsed().as_secs_f64();

    // Every worker holds the complete data; sharding partitions execution.
    let t = Instant::now();
    let workers: Vec<NetServer> = (0..SHARDS)
        .map(|_| {
            let service = Arc::new(QueryService::new(ServiceConfig {
                engine: EngineConfig {
                    result_cache_enabled: false,
                    ..EngineConfig::default()
                },
                ..ServiceConfig::default()
            }));
            service.register_indexed("pts", memory_grid("pts", DatasetKind::Points, &points));
            service.register_indexed(
                "polys",
                memory_grid("polys", DatasetKind::Polygons, &polygons),
            );
            NetServer::serve(service, "127.0.0.1:0", NetServerConfig::default())
                .expect("listen on loopback")
        })
        .collect();
    let build_s = t.elapsed().as_secs_f64();
    let addrs: Vec<_> = workers.iter().map(NetServer::addr).collect();
    let single = Client::connect(addrs[0], ClientConfig::default()).expect("connect");
    let cluster = ClusterClient::connect(&addrs, ClusterConfig::default()).expect("connect");
    cluster.refresh_shard_map("pts").expect("shard map of pts");
    cluster
        .refresh_shard_map("polys")
        .expect("shard map of polys");

    // Three rounds warm every worker's optimizer statistics; the last
    // round's answers are compared with one worker's direct answers.
    let mut identical = true;
    for round in 0..3 {
        for request in &samples {
            let scattered = untimed(|| cluster.query(request).map_err(|e| e.to_string()))
                .expect("warm-up over the cluster");
            if round == 2 {
                let direct = untimed(|| single.query(request).map_err(|e| e.to_string()))
                    .expect("the same request on one worker");
                if scattered.payload != direct.payload {
                    eprintln!(
                        "cluster_join: scattered {} differs from the single node's",
                        request.class()
                    );
                    identical = false;
                }
            }
        }
    }

    Env {
        cluster,
        single,
        workers,
        boxes,
        ops,
        samples,
        identical,
        gen_s,
        build_s,
    }
}

/// Largest shard's bytes ÷ mean shard bytes.
fn byte_imbalance(map: &ShardMap) -> f64 {
    let per_shard: Vec<f64> = (0..map.shards())
        .map(|i| {
            let (lo, hi) = map.range(i);
            (lo..hi.min(map.num_cells() as u32))
                .map(|c| map.cell_bytes(c) as f64)
                .sum()
        })
        .collect();
    let mean = stats::mean(&per_shard);
    if mean == 0.0 {
        0.0
    } else {
        per_shard.iter().copied().fold(0.0, f64::max) / mean
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (mut env, setup_s) = repeat_setup(|| setup(ctx));
    let correct = env.identical;

    let moved_before: u64 = env.cluster.bytes_moved().iter().sum();
    let ops = std::mem::take(&mut env.ops);
    let clock = Clock::starting_now(ctx.seconds);
    let ClientLog { records, spans } = closed_loop(
        clock,
        0,
        ctx.trace,
        ops.iter().map(|(c, t, q)| (*c, *t, q)),
        |q| env.cluster.query(q).map_err(|e| e.to_string()),
    );
    let timed_wall_s = clock.epoch.elapsed().as_secs_f64();
    let moved: u64 = env.cluster.bytes_moved().iter().sum::<u64>() - moved_before;

    let mut values = Values::new();
    values.insert("datagen.gen_s", env.gen_s);
    values.insert("index.build_s", env.build_s);
    let answered: Vec<_> = records
        .iter()
        .filter_map(|r| r.reply.as_ref().map(|f| (r, f)))
        .collect();
    let n = answered.len().max(1) as f64;
    values.insert(
        "cluster.coord_overhead_ms",
        answered
            .iter()
            .map(|(r, f)| (r.end_ns - r.start_ns).saturating_sub(f.exec_time.as_nanos() as u64))
            .sum::<u64>() as f64
            / n
            / 1e6,
    );
    // A merged reply carries the slowest shard's wall (`total_time`) and the
    // *sum* of every shard's stage times; their ratio is how much longer the
    // slowest part ran than the average part — the slowest sets the result's
    // time.
    let skews: Vec<f64> = answered
        .iter()
        .map(|(_, f)| {
            let mean_shard = f.stage_time().as_secs_f64() / SHARDS as f64;
            f.stats.total_time.as_secs_f64() / mean_shard.max(1e-9)
        })
        .collect();
    values.insert("cluster.shard_exec_skew", stats::mean(&skews));
    let scattered_joins = records
        .iter()
        .filter(|r| matches!(r.class, Class::Join | Class::Agg))
        .count();
    values.insert(
        "cluster.bytes_moved",
        moved as f64 / scattered_joins.max(1) as f64,
    );
    if let Some(map) = env.cluster.shard_map("pts") {
        values.insert("cluster.shard_byte_imbalance", byte_imbalance(&map));
    }
    if ctx.trace {
        // The same operations on one worker through a plain client, outside
        // the timed phase: what the cluster has to beat.
        let single: Vec<f64> = ops
            .iter()
            .take(2 * (RANGES + JOINS + AGGS))
            .filter_map(|(_, _, q)| {
                let t = Instant::now();
                untimed(|| env.single.query(q).map_err(|e| e.to_string())).ok()?;
                Some(t.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
        values.insert(
            "cluster.single_node_p50_ms",
            stats::median(&single).unwrap_or(0.0),
        );
        let replies: Vec<QueryResponse> = env
            .samples
            .iter()
            .filter_map(|q| untimed(|| env.single.query(q).map_err(|e| e.to_string())).ok())
            .collect();
        let (encode_us, decode_us, reply_bytes) = micro::codec(&env.samples, replies);
        values.insert("net.encode_request_us", encode_us);
        values.insert("net.decode_reply_us", decode_us);
        values.insert("net.reply_bytes", reply_bytes);
        values.insert("geometry.triangulate_us", micro::triangulate_us(&env.boxes));
        values.insert("gpu.draw_ms", micro::draw_ms());
    }
    drop(env.cluster);
    drop(env.single);
    for w in &env.workers {
        w.stop();
    }

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
