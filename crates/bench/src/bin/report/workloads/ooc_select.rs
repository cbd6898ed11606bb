//! `ooc_select` — the paper's out-of-core selection (Fig. 5): storage, index,
//! prefetch and raster all do work and nothing above the executor does.
//!
//! One in-process client (`Session::submit` → `Ticket::wait`) against a
//! disk-backed grid whose block files are larger than the shipped cell cache
//! and device memory, so cells are re-read and evicted. Every query is
//! distinct: the default-on result cache misses by construction and its
//! admission cost is paid as a user would pay it.

use super::{point_request, square, NYC};
use crate::catalog::Values;
use crate::micro;
use crate::mix::class_cycle;
use crate::run::{
    closed_loop, dir_bytes, insert_disk_metrics, insert_service_metrics, open_sockets,
    repeat_setup, untimed, Class, ClientLog, Clock, Ctx, Outcome, Scratch,
};
use spade_core::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade_core::query::{QueryResult, SelectQuery};
use spade_datagen::{urban, Rng};
use spade_geometry::predicates::point_in_polygon;
use spade_geometry::{BBox, Point, Polygon};
use spade_index::GridIndex;
use spade_server::{QueryRequest, QueryResponse, QueryService, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

/// 1.2 M clustered points: 38 MB of user data, ≈74 MB of block files at a
/// 2 MiB cell budget — more than the 32 MiB cell cache and the 64 MiB device.
const POINTS: usize = 1_200_000;
const HOTSPOTS: usize = 32;
const CELL_BUDGET: u64 = 2 << 20;
const CONSTRAINT_VERTICES: usize = 48;
/// Radius fractions of the polygon constraints: the Fig. 5 selectivity sweep.
const RADIUS: (f64, f64) = (0.03, 0.22);
/// One cycle of 20 operations: 65% polygon selects (one per radius level),
/// 20% ranges, 15% kNN. kNN reads every cell and is the slowest class by far;
/// at 15% the reported p90 lies inside its latency mode, not on its edge.
const SELECTS: usize = 13;
const RANGES: usize = 4;
const KNNS: usize = 3;
const KNN_K: usize = 10;
/// Operations materialised per measured second (≈4× what the reference
/// container completes), so the loop ends on the clock, not on the list.
const OPS_PER_SECOND: f64 = 40.0;
const COUNT_PREFIX: usize = 60;
/// Constraints kept for the triangulation and rendering micro-spans.
const MICRO_SAMPLE: usize = 64;

struct Env {
    service: QueryService,
    grid: Arc<GridIndex>,
    points: Vec<Point>,
    /// Warm-up queries with the replies they got; verified after set-up.
    checks: Vec<(QueryRequest, QueryResponse)>,
    constraints: Vec<Polygon>,
    ops: Vec<(Class, u8, QueryRequest)>,
    gen_s: f64,
    build_s: f64,
    user_bytes: u64,
    // Dropped last: the service above still reads the block files.
    scratch: Scratch,
}

fn select(query: SelectQuery) -> QueryRequest {
    QueryRequest::Select {
        dataset: "taxi".into(),
        query,
    }
}

fn polygon<R: Rng>(r: &mut R, level: usize, levels: usize) -> Polygon {
    let t = level as f64 / (levels - 1).max(1) as f64;
    let frac = RADIUS.0 + (RADIUS.1 - RADIUS.0) * t;
    urban::constraint_polygons(1, &NYC, frac, CONSTRAINT_VERTICES, r.next_u64())
        .pop()
        .expect("one polygon")
}

fn range<R: Rng>(r: &mut R, level: usize, levels: usize) -> BBox {
    let half = 0.02 + 0.08 * level as f64 / (levels - 1).max(1) as f64;
    square(point_request(r, &NYC), half)
}

fn setup(ctx: &Ctx) -> Env {
    let t = Instant::now();
    let mut r = spade_datagen::rng(ctx.seed);
    let points = urban::clustered_points(POINTS, &NYC, HOTSPOTS, r.next_u64());

    // The operation sequence: whole cycles, each with every radius level.
    let cycle = class_cycle(
        &[
            (Class::Select, SELECTS),
            (Class::Range, RANGES),
            (Class::Knn, KNNS),
        ],
        &mut r,
    );
    let cycles = ((ctx.seconds * OPS_PER_SECOND) as usize).div_ceil(cycle.len());
    let mut constraints = Vec::with_capacity(MICRO_SAMPLE);
    let mut ops = Vec::with_capacity(cycles * cycle.len());
    for c in 0..cycles {
        let (mut s, mut g) = (0, 0);
        for &class in &cycle {
            let query = match class {
                Class::Select => {
                    // 5 is coprime to 13: every cycle holds each level once,
                    // in an order that shifts from cycle to cycle.
                    let p = polygon(&mut r, (c * 5 + s) % SELECTS, SELECTS);
                    s += 1;
                    if constraints.len() < MICRO_SAMPLE {
                        constraints.push(p.clone());
                    }
                    SelectQuery::Intersects(p)
                }
                Class::Range => {
                    let b = range(&mut r, (c + g) % RANGES, RANGES);
                    g += 1;
                    SelectQuery::Range(b)
                }
                _ => SelectQuery::Knn(point_request(&mut r, &NYC), KNN_K),
            };
            ops.push((class, 0, select(query)));
        }
    }
    // Warm-up doubles as the correctness sample: one query of every class,
    // several polygon sizes, and enough loads to warm the optimizer's
    // per-dataset statistics (three samples).
    let mut warm: Vec<QueryRequest> = (0..8)
        .map(|i| select(SelectQuery::Intersects(polygon(&mut r, i, 8))))
        .collect();
    warm.extend((0..3).map(|i| select(SelectQuery::Range(range(&mut r, i, 3)))));
    warm.push(select(SelectQuery::Knn(point_request(&mut r, &NYC), KNN_K)));
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let scratch = Scratch::new("ooc");
    let data = Dataset::from_points("taxi", points.clone());
    let user_bytes = data.byte_size() as u64;
    let cell = GridIndex::cell_size_for_budget(&data.extent, user_bytes, CELL_BUDGET);
    let grid = GridIndex::build(Some(scratch.join("taxi")), &data.objects, cell)
        .expect("build the taxi grid on disk");
    drop(data);
    let build_s = t.elapsed().as_secs_f64();

    let indexed = IndexedDataset::new("taxi", DatasetKind::Points, grid);
    let grid = indexed.grid();
    let service = QueryService::new(ServiceConfig::default());
    service.register_indexed("taxi", indexed);
    let session = service.session();
    let checks = warm
        .into_iter()
        .map(|req| {
            let reply = untimed(|| {
                session
                    .submit(req.clone())
                    .wait()
                    .map_err(|e| e.to_string())
            })
            .expect("warm-up query");
            (req, reply)
        })
        .collect();

    Env {
        service,
        grid,
        points,
        checks,
        constraints,
        ops,
        gen_s,
        build_s,
        user_bytes,
        scratch,
    }
}

/// Each warm-up answer against a brute-force scan of the raw points.
fn verify(env: &Env) -> bool {
    let mut ok = true;
    for (req, reply) in &env.checks {
        let QueryRequest::Select { query, .. } = req else {
            unreachable!("warm-up holds selects only")
        };
        let got = reply.payload.query();
        let good = match query {
            SelectQuery::Intersects(poly) => {
                let bb = poly.bbox();
                let want: Vec<u32> = (0u32..)
                    .zip(&env.points)
                    .filter(|(_, p)| bb.contains(**p) && point_in_polygon(**p, poly))
                    .map(|(i, _)| i)
                    .collect();
                sorted_ids(got) == Some(want)
            }
            SelectQuery::Range(bb) => {
                let want: Vec<u32> = (0u32..)
                    .zip(&env.points)
                    .filter(|(_, p)| bb.contains(**p))
                    .map(|(i, _)| i)
                    .collect();
                sorted_ids(got) == Some(want)
            }
            SelectQuery::Knn(q, k) => {
                let mut all: Vec<(f64, u32)> = (0u32..)
                    .zip(&env.points)
                    .map(|(i, p)| (p.dist(*q), i))
                    .collect();
                all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let want: Vec<u32> = all[..*k].iter().map(|x| x.1).collect();
                matches!(got, Some(QueryResult::Ranked(v))
                    if v.iter().map(|x| x.0).collect::<Vec<_>>() == want)
            }
            _ => unreachable!("warm-up holds intersects, range and kNN only"),
        };
        if !good {
            eprintln!("ooc_select: answer differs from brute force for {query:?}");
            ok = false;
        }
    }
    ok
}

fn sorted_ids(result: Option<&QueryResult>) -> Option<Vec<u32>> {
    let mut ids = result?.ids()?.to_vec();
    ids.sort_unstable();
    Some(ids)
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

    // Predictions: every distinct query misses the result cache, and no
    // layer above the executor opened a socket.
    if records
        .iter()
        .filter_map(|r| r.reply.as_ref())
        .any(|f| f.stats.result_cache.served_from_cache())
    {
        eprintln!("ooc_select: a distinct query was served from the result cache");
        correct = false;
    }
    if open_sockets() != sockets_before {
        eprintln!("ooc_select: a socket was opened by an in-process workload");
        correct = false;
    }

    let mut values = Values::new();
    values.insert("datagen.gen_s", env.gen_s);
    values.insert("index.build_s", env.build_s);
    insert_disk_metrics(&mut values, dir_bytes(env.scratch.path()), env.user_bytes);
    insert_service_metrics(&mut values, &env.service);
    if ctx.trace {
        let sample = &env.constraints;
        values.insert("index.load_cell_ms", micro::load_cell_ms(&env.grid));
        values.insert("geometry.triangulate_us", micro::triangulate_us(sample));
        values.insert("canvas.constraint_ms", micro::constraint_ms(sample));
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
