//! Observability must be free of observable effects: enabling tracing may
//! not change any query result, and the disabled-path cost (one relaxed
//! atomic load per span site) must stay within noise of an untraced run.

use spade::datagen::{spider, urban};
use spade::engine::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade::engine::distance::DistanceConstraint;
use spade::engine::query::{run_join_ctx, run_select_ctx, JoinQuery, QueryResult, SelectQuery};
use spade::engine::stats::QueryOutput;
use spade::engine::{aggregate, distance, join, knn, select, trace, EngineConfig, QueryCtx, Spade};
use spade::geometry::{BBox, Point};
use spade::index::GridIndex;
use spade::storage::StorageError;
use std::sync::{Arc, Mutex};

/// One dispatched query's answer.
type Answer = Result<QueryOutput<QueryResult>, StorageError>;

/// The trace flag and ring buffer are process-global; tests that flip the
/// flag must not interleave.
fn gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

fn unit() -> BBox {
    BBox::new(Point::ZERO, Point::new(1.0, 1.0))
}

/// One run of all five query families (select / join / distance / kNN /
/// aggregation) against fresh engine state, returning every result.
#[allow(clippy::type_complexity)]
fn run_families(
    pts: &Arc<Dataset>,
    polys: &Arc<Dataset>,
    constraint: &spade::geometry::Polygon,
) -> (
    Vec<u32>,
    Vec<(u32, u32)>,
    Vec<u32>,
    Vec<(u32, f64)>,
    Vec<(u32, u64)>,
) {
    let spade = Spade::new(EngineConfig::test_small());
    let ctx = QueryCtx::default();
    let sel = select::select_indexed(&spade, pts, constraint, &ctx);
    let joined = join::join_indexed(&spade, polys, pts, &ctx);
    let near = DistanceConstraint::Point(Point::new(0.5, 0.5));
    let dist = distance::distance_select_indexed(&spade, pts, &near, 0.1, &ctx);
    let nearest = knn::knn_select_indexed(&spade, pts, Point::new(0.3, 0.7), 16, &ctx);
    let agg = aggregate::aggregate_indexed(&spade, polys, pts, &ctx);
    (
        sel.unwrap().result,
        joined.unwrap().result,
        dist.unwrap().result,
        nearest.unwrap().result,
        agg.unwrap().result,
    )
}

/// Differential: tracing on vs off yields byte-identical results across
/// the five query families, and the traced run records one span per
/// family plus one span per pipeline pass underneath — every pass the
/// query counts, Map passes included.
#[test]
fn tracing_does_not_change_results() {
    let _g = gate();
    let pts = Arc::new(Dataset::from_points("p", spider::uniform_points(20_000, 7)));
    let polys = Arc::new(Dataset::from_polygons(
        "parcels",
        spider::parcels(40, 0.08, 11),
    ));
    let constraint = urban::constraint_polygons(1, &unit(), 0.2, 24, 3)
        .pop()
        .unwrap();

    trace::set_enabled(false);
    trace::drain();
    let untraced = run_families(&pts, &polys, &constraint);
    assert!(trace::drain().is_empty(), "disabled tracing recorded spans");

    trace::set_enabled(true);
    assert!(trace::enabled());
    let traced = run_families(&pts, &polys, &constraint);
    trace::set_enabled(false);
    let spans = trace::drain();

    assert_eq!(untraced, traced, "tracing changed a query result");
    for name in [
        "query.select",
        "query.join",
        "query.distance",
        "query.knn",
        "query.aggregate",
        "gpu.draw",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "missing span '{name}' in {:?}",
            spans.iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }
    // The family spans carry their result cardinality.
    let sel_span = spans.iter().find(|s| s.name == "query.select").unwrap();
    assert_eq!(sel_span.attr("results"), Some(untraced.0.len() as u64));

    // Per in-memory class, on a fresh engine: the pass spans the calling
    // thread recorded number exactly the passes the query reports.
    let few = Arc::new(Dataset::from_points(
        "few",
        spider::uniform_points(2_000, 5),
    ));
    let selects = [
        ("select", SelectQuery::Intersects(constraint.clone())),
        (
            "range",
            SelectQuery::Range(BBox::new(Point::new(0.2, 0.3), Point::new(0.6, 0.5))),
        ),
        ("contained", SelectQuery::Contained(constraint)),
        (
            "distance",
            SelectQuery::WithinDistance(DistanceConstraint::Point(Point::new(0.5, 0.5)), 0.1),
        ),
        ("knn", SelectQuery::Knn(Point::new(0.3, 0.7), 16)),
    ];
    let joins = [
        ("join", JoinQuery::Intersects, &polys),
        ("distance join", JoinQuery::WithinDistance(0.02), &few),
        ("knn join", JoinQuery::Knn(2), &few),
        ("count", JoinQuery::CountPoints, &polys),
    ];
    trace::set_enabled(true);
    let count_passes = |label: &str, run: &dyn Fn(&Spade) -> Answer| {
        let spade = Spade::new(EngineConfig::test_small());
        trace::drain();
        let out = run(&spade).unwrap();
        let spans = trace::drain();
        let caller = spans.iter().find(|s| s.name.starts_with("query."));
        let caller = caller.expect("query span").thread;
        let traced = spans.iter().filter(|s| {
            s.thread == caller && ["gpu.draw", "gpu.count_pass", "gpu.map"].contains(&s.name)
        });
        assert!(out.stats.passes > 0, "{label}");
        assert_eq!(traced.count() as u64, out.stats.passes, "{label}");
    };
    for (label, q) in &selects {
        count_passes(label, &|s| run_select_ctx(s, &few, q, &QueryCtx::default()));
    }
    for (label, q, left) in &joins {
        count_passes(label, &|s| {
            run_join_ctx(s, *left, &few, q, &QueryCtx::default())
        });
    }
    trace::set_enabled(false);
}

/// Same differential over the out-of-core (grid-indexed, disk-backed)
/// paths, which thread spans through streaming and prefetch.
#[test]
fn tracing_does_not_change_out_of_core_results() {
    let _g = gate();
    let pts = Dataset::from_points("p", spider::uniform_points(12_000, 9));
    let polys = Dataset::from_polygons("parcels", spider::parcels(60, 0.06, 13));
    let constraint = urban::constraint_polygons(1, &unit(), 0.22, 24, 5)
        .pop()
        .unwrap();
    let dir = std::env::temp_dir().join(format!("spade-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let gp = GridIndex::build(Some(dir.join("p")), &pts.objects, 0.3).unwrap();
    let ga = GridIndex::build(Some(dir.join("a")), &polys.objects, 0.3).unwrap();
    let ipts = IndexedDataset::new("p", DatasetKind::Points, gp);
    let ipolys = IndexedDataset::new("parcels", DatasetKind::Polygons, ga);

    let run = || {
        let spade = Spade::new(EngineConfig::test_small());
        let sel = select::select_indexed(&spade, &ipts, &constraint, &QueryCtx::default())
            .unwrap()
            .result;
        let joined = join::join_indexed(&spade, &ipolys, &ipts, &QueryCtx::default())
            .unwrap()
            .result;
        (sel, joined)
    };

    trace::set_enabled(false);
    trace::drain();
    let untraced = run();
    assert!(trace::drain().is_empty());

    trace::set_enabled(true);
    let traced = run();
    trace::set_enabled(false);
    let spans = trace::drain();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(untraced, traced, "tracing changed an out-of-core result");
    for name in ["query.select", "query.join"] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "missing span '{name}'"
        );
    }
    let join_span = spans.iter().find(|s| s.name == "query.join").unwrap();
    assert_eq!(join_span.attr("pairs"), Some(untraced.1.len() as u64));
    assert!(join_span.attr("cells").unwrap_or(0) > 0);
}

/// Overhead guard on the `join_out_of_core` bench workload shape: with
/// tracing *enabled* the run must stay within 10% of the untraced run
/// (the disabled path is a single atomic load and is covered a fortiori).
/// Timing-sensitive: release builds only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn tracing_overhead_within_ten_percent() {
    let _g = gate();
    let polys = Dataset::from_polygons("parcels", spider::parcels(12, 0.25, 5));
    let pts = Dataset::from_points("p", spider::uniform_points(200_000, 7));
    let dir = std::env::temp_dir().join(format!("spade-obs-ovh-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ga = GridIndex::build(Some(dir.join("a")), &polys.objects, 0.25).unwrap();
    let gp = GridIndex::build(Some(dir.join("p")), &pts.objects, 0.25).unwrap();
    let ipolys = IndexedDataset::new("parcels", DatasetKind::Polygons, ga);
    let ipts = IndexedDataset::new("p", DatasetKind::Points, gp);

    let time_run = || {
        let spade = Spade::new(EngineConfig::test_small());
        let t0 = std::time::Instant::now();
        let out = join::join_indexed(&spade, &ipolys, &ipts, &QueryCtx::default()).unwrap();
        (t0.elapsed(), out.result.len())
    };

    // Interleave traced/untraced runs and keep the minimum of each, the
    // measurement least polluted by scheduler noise. One warm-up first.
    trace::set_enabled(false);
    let _ = time_run();
    let mut untraced = std::time::Duration::MAX;
    let mut traced = std::time::Duration::MAX;
    for _ in 0..4 {
        trace::set_enabled(false);
        untraced = untraced.min(time_run().0);
        trace::set_enabled(true);
        trace::drain();
        traced = traced.min(time_run().0);
    }
    trace::set_enabled(false);
    trace::drain();
    std::fs::remove_dir_all(&dir).ok();

    assert!(
        traced <= untraced.mul_f64(1.10) + std::time::Duration::from_millis(5),
        "traced {traced:?} exceeds untraced {untraced:?} by more than 10%"
    );
}
