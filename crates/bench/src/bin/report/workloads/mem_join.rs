//! `mem_join` — the paper's headline Taxi ⋈ Neighborhood join and count
//! aggregation on `register`ed in-memory data: pure gpu + canvas + geometry
//! + core; storage and index do nothing (asserted on every operation).
//!
//! The result cache is switched off — with it on, the second identical join
//! is a sub-millisecond hit and the workload would measure nothing.
//!
//! Only point-right joins are issued. A `WithinDistance` join with polygons
//! on the left panics a service worker (`as_points` on a polygon dataset)
//! and its `Ticket` then never resolves; the benchmark does not send it, and
//! `run::start_watchdog` exists because of it.

use super::NYC;
use crate::catalog::Values;
use crate::micro;
use crate::mix::class_cycle;
use crate::run::{
    closed_loop, insert_service_metrics, open_sockets, repeat_setup, untimed, Class, ClientLog,
    Clock, Ctx, Outcome,
};
use spade_core::dataset::Dataset;
use spade_core::query::{JoinQuery, QueryResult};
use spade_core::EngineConfig;
use spade_datagen::{urban, Rng};
use spade_geometry::Polygon;
use spade_server::{QueryRequest, QueryResponse, QueryService, ServiceConfig};
use std::collections::BTreeMap;
use std::time::Instant;

const POLYGONS: usize = 40;
const POLYGON_VERTICES: usize = 64;
const POINTS: usize = 100_000;
const HOTSPOTS: usize = 8;
/// 60% joins, 40% count aggregations: the median lies inside the join's
/// latency mode and p90 inside the aggregation's, not between the two.
const JOINS: usize = 3;
const AGGS: usize = 2;
const OPS_PER_SECOND: f64 = 50.0;
const COUNT_PREFIX: usize = 40;

struct Env {
    service: QueryService,
    neighborhoods: Vec<Polygon>,
    ops: Vec<(Class, u8, QueryRequest)>,
    /// Warm-up replies: one join, one aggregation, compared after set-up.
    warm: Vec<QueryResponse>,
    gen_s: f64,
}

fn join(query: JoinQuery) -> QueryRequest {
    QueryRequest::Join {
        left: "nbhd".into(),
        right: "taxi_mem".into(),
        query,
    }
}

fn setup(ctx: &Ctx) -> Env {
    let t = Instant::now();
    let mut r = spade_datagen::rng(ctx.seed);
    let neighborhoods = urban::admin_polygons(POLYGONS, &NYC, POLYGON_VERTICES, r.next_u64());
    let points = urban::clustered_points(POINTS, &NYC, HOTSPOTS, r.next_u64());
    let cycle = class_cycle(&[(Class::Join, JOINS), (Class::Agg, AGGS)], &mut r);
    let n = (ctx.seconds * OPS_PER_SECOND) as usize;
    let ops = cycle
        .iter()
        .cycle()
        .take(n)
        .map(|&class| {
            let query = match class {
                Class::Join => JoinQuery::Intersects,
                _ => JoinQuery::CountPoints,
            };
            (class, 0, join(query))
        })
        .collect();
    let gen_s = t.elapsed().as_secs_f64();

    let service = QueryService::new(ServiceConfig {
        engine: EngineConfig {
            result_cache_enabled: false,
            ..EngineConfig::default()
        },
        ..ServiceConfig::default()
    });
    service.register(
        "nbhd",
        Dataset::from_polygons("nbhd", neighborhoods.clone()),
    );
    service.register("taxi_mem", Dataset::from_points("taxi_mem", points));
    let session = service.session();
    // Three rounds warm the optimizer's per-pair statistics; the last
    // round's replies are the ones compared.
    let mut warm = Vec::new();
    for _ in 0..3 {
        warm = [JoinQuery::Intersects, JoinQuery::CountPoints]
            .into_iter()
            .map(|q| {
                untimed(|| session.submit(join(q)).wait().map_err(|e| e.to_string()))
                    .expect("warm-up join")
            })
            .collect();
    }
    Env {
        service,
        neighborhoods,
        ops,
        warm,
        gen_s,
    }
}

/// Per-polygon `CountPoints` must equal the number of `Intersects` pairs
/// that polygon takes part in — two executors, one answer.
fn verify(env: &Env) -> bool {
    let (Some(QueryResult::Pairs(pairs)), Some(QueryResult::Counts(counts))) =
        (env.warm[0].payload.query(), env.warm[1].payload.query())
    else {
        eprintln!("mem_join: unexpected payload shapes");
        return false;
    };
    let mut from_pairs: BTreeMap<u32, u64> = BTreeMap::new();
    for (polygon, _) in pairs {
        *from_pairs.entry(*polygon).or_insert(0) += 1;
    }
    let from_counts: BTreeMap<u32, u64> = counts.iter().copied().filter(|&(_, n)| n > 0).collect();
    if pairs.is_empty() || from_pairs != from_counts {
        eprintln!(
            "mem_join: count aggregation ({} polygons) disagrees with join pairs ({} polygons, {} pairs)",
            from_counts.len(),
            from_pairs.len(),
            pairs.len()
        );
        return false;
    }
    true
}

pub fn run(ctx: &Ctx) -> Outcome {
    let sockets_before = open_sockets();
    let (mut env, setup_s) = repeat_setup(|| setup(ctx));
    let mut correct = verify(&env);

    let session = env.service.session();
    let ops = std::mem::take(&mut env.ops);
    let clock = Clock::starting_now(ctx.seconds);
    let ClientLog { records, spans } = closed_loop(clock, 0, ctx.trace, ops.into_iter(), |req| {
        session.submit(req).wait().map_err(|e| e.to_string())
    });
    let timed_wall_s = clock.epoch.elapsed().as_secs_f64();

    // Predictions: in-memory data touches neither the index nor the disk,
    // and nothing opens a socket.
    if records
        .iter()
        .filter_map(|r| r.reply.as_ref())
        .any(|f| f.stats.cells_loaded != 0 || f.stats.bytes_from_disk != 0)
    {
        eprintln!("mem_join: an in-memory join loaded cells or read from disk");
        correct = false;
    }
    if open_sockets() != sockets_before {
        eprintln!("mem_join: a socket was opened by an in-process workload");
        correct = false;
    }

    let mut values = Values::new();
    values.insert("datagen.gen_s", env.gen_s);
    insert_service_metrics(&mut values, &env.service);
    if ctx.trace {
        values.insert(
            "geometry.triangulate_us",
            micro::triangulate_us(&env.neighborhoods),
        );
        values.insert(
            "canvas.constraint_ms",
            micro::constraint_ms(&env.neighborhoods),
        );
        values.insert("gpu.draw_ms", micro::draw_ms());
    }

    Outcome {
        correct,
        setup_s,
        records,
        spans,
        timed_wall_s,
        over_tcp: false,
        count_prefix: COUNT_PREFIX,
        values,
    }
}
