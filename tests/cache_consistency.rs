//! Staleness-proof tests for the hot-query serving layer
//! (`spade_core::result_cache`).
//!
//! The cache keys every entry by `(canonical query fingerprint, dataset uid,
//! generation, delta seq watermark)` and only admits a rendered result if the
//! watermark it was keyed at is still current after the render. These tests
//! are the proof obligation behind that design:
//!
//! * **Differential** — every query family, in-memory and out-of-core, with
//!   the cache on and off, must produce byte-identical `QueryResult`s; the
//!   second identical query must report `HIT` and touch zero grid cells.
//! * **Staleness** — any staged write or compaction changes the watermark,
//!   so a previously hot entry silently stops matching and the next run
//!   equals a cold rebuild of the new logical set.
//! * **Property harness** — random interleavings of inserts, deletes and
//!   compactions with repeated queries: every answer the cache serves must
//!   equal a from-scratch rebuild oracle of the logical object set at that
//!   instant (256 generated cases).
//! * **Ledger hygiene** — under continuous eviction churn the cache never
//!   exceeds its byte budget, the arena's external-bytes gauge tracks the
//!   cache's resident bytes exactly, and purge/clear return every charged
//!   byte to the device ledger immediately.

use spade::baselines::brute;
use spade::engine::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade::engine::distance::DistanceConstraint;
use spade::engine::query::{self, JoinQuery, QueryResult, SelectQuery};
use spade::engine::{CacheOutcome, EngineConfig, QueryCtx, Spade};
use spade::geometry::{BBox, Geometry, Point, Polygon};
use spade::index::GridIndex;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

fn engine_with(enabled: bool) -> Spade {
    let mut c = EngineConfig::test_small();
    c.resolution = 128;
    c.result_cache_enabled = enabled;
    Spade::new(c)
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("spade-rcache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Base points: a deterministic scatter over [0, 100]².
fn base_points(n: usize) -> Vec<(u32, Geometry)> {
    let unit = spade::datagen::spider::uniform_points(n, 17);
    unit.into_iter()
        .enumerate()
        .map(|(i, p)| {
            (
                i as u32,
                Geometry::Point(Point::new(p.x * 100.0, p.y * 100.0)),
            )
        })
        .collect()
}

/// Base polygons: a 5×5 field of squares.
fn base_polygons() -> Vec<(u32, Geometry)> {
    (0..5)
        .flat_map(|i| {
            (0..5).map(move |j| {
                let min = Point::new(i as f64 * 20.0 + 1.5, j as f64 * 20.0 + 1.5);
                (
                    (i * 5 + j) as u32,
                    Geometry::Polygon(Polygon::rect(BBox::new(min, min + Point::new(16.0, 16.0)))),
                )
            })
        })
        .collect()
}

/// The workload: all five select families against the point set plus two
/// polygon selects, and all four join families over `(polys, pts)`.
fn workload() -> (Vec<SelectQuery>, Vec<SelectQuery>, Vec<JoinQuery>) {
    let constraint = Polygon::new(vec![
        Point::new(10.0, 15.0),
        Point::new(85.0, 25.0),
        Point::new(70.0, 80.0),
        Point::new(20.0, 70.0),
    ]);
    let pt_selects = vec![
        SelectQuery::Intersects(constraint.clone()),
        SelectQuery::Range(BBox::new(Point::new(20.0, 20.0), Point::new(70.0, 60.0))),
        SelectQuery::Contained(constraint.clone()),
        SelectQuery::WithinDistance(DistanceConstraint::Point(Point::new(50.0, 50.0)), 15.0),
        SelectQuery::Knn(Point::new(33.0, 66.0), 12),
    ];
    let poly_selects = vec![
        SelectQuery::Intersects(constraint.clone()),
        SelectQuery::Contained(constraint),
    ];
    let joins = vec![
        JoinQuery::Intersects,
        JoinQuery::WithinDistance(7.5),
        JoinQuery::Knn(3),
        JoinQuery::CountPoints,
    ];
    (pt_selects, poly_selects, joins)
}

fn build_indexed(
    dir: Option<&std::path::Path>,
    tag: &str,
    polys: &[(u32, Geometry)],
    pts: &[(u32, Geometry)],
    cell: f64,
) -> (IndexedDataset, IndexedDataset) {
    let gp = GridIndex::build(dir.map(|d| d.join(format!("{tag}-polys"))), polys, cell).unwrap();
    let gq = GridIndex::build(dir.map(|d| d.join(format!("{tag}-pts"))), pts, cell).unwrap();
    (
        IndexedDataset::new("polys", DatasetKind::Polygons, gp),
        IndexedDataset::new("pts", DatasetKind::Points, gq),
    )
}

/// Differential, indexed path: for every family the cache-on engine's first
/// run (MISS), second run (HIT, zero cell I/O) and a cache-off engine's run
/// (BYPASS) must be byte-identical.
fn differential_indexed(dir: Option<&std::path::Path>) {
    let hot = engine_with(true);
    let cold = engine_with(false);
    let (polys, pts) = build_indexed(dir, "diff", &base_polygons(), &base_points(500), 25.0);
    let (pt_selects, poly_selects, joins) = workload();

    let selects: Vec<(&IndexedDataset, &SelectQuery)> = pt_selects
        .iter()
        .map(|q| (&pts, q))
        .chain(poly_selects.iter().map(|q| (&polys, q)))
        .collect();
    for (data, q) in selects {
        let first = query::run_select_ctx(&hot, data, q, &QueryCtx::cached()).unwrap();
        assert_eq!(first.stats.result_cache, CacheOutcome::Miss, "{q:?}");
        let second = query::run_select_ctx(&hot, data, q, &QueryCtx::cached()).unwrap();
        assert_eq!(second.stats.result_cache, CacheOutcome::Hit, "{q:?}");
        assert_eq!(second.stats.cells_loaded, 0, "HIT must do zero cell I/O");
        assert_eq!(second.stats.passes, 0, "HIT must do zero render passes");
        assert_eq!(second.stats.bytes_from_disk, 0);
        let bypass = query::run_select_ctx(&cold, data, q, &QueryCtx::cached()).unwrap();
        assert_eq!(bypass.stats.result_cache, CacheOutcome::Bypass);
        assert_eq!(first.result, bypass.result, "cached != uncached: {q:?}");
        assert_eq!(second.result, bypass.result, "hit != uncached: {q:?}");
    }
    for q in &joins {
        // Distance and kNN joins are point↔point; the others drive the
        // polygon layer against the point set.
        let left = match q {
            JoinQuery::WithinDistance(_) | JoinQuery::Knn(_) => &pts,
            _ => &polys,
        };
        let first = query::run_join_ctx(&hot, left, &pts, q, &QueryCtx::cached()).unwrap();
        assert_eq!(first.stats.result_cache, CacheOutcome::Miss, "{q:?}");
        let second = query::run_join_ctx(&hot, left, &pts, q, &QueryCtx::cached()).unwrap();
        assert_eq!(second.stats.result_cache, CacheOutcome::Hit, "{q:?}");
        assert_eq!(second.stats.cells_loaded, 0, "HIT must do zero cell I/O");
        assert_eq!(second.stats.passes, 0);
        let bypass = query::run_join_ctx(&cold, left, &pts, q, &QueryCtx::cached()).unwrap();
        assert_eq!(bypass.stats.result_cache, CacheOutcome::Bypass);
        assert_eq!(first.result, bypass.result, "cached != uncached: {q:?}");
        assert_eq!(second.result, bypass.result, "hit != uncached: {q:?}");
    }
    let rc = hot.result_cache.stats();
    assert_eq!(rc.misses as usize, 7 + joins.len());
    assert_eq!(rc.hits as usize, 7 + joins.len());
    assert_eq!(rc.bypasses, 0);
    assert_eq!(cold.result_cache.stats().bypasses as usize, 7 + joins.len());
}

#[test]
fn differential_all_families_in_memory_grid() {
    differential_indexed(None);
}

#[test]
fn differential_all_families_out_of_core() {
    let dir = tmpdir("diff");
    differential_indexed(Some(&dir));
    std::fs::remove_dir_all(&dir).ok();
}

/// The independent answer to a select over `data` (ids are input
/// positions in this suite's datasets).
fn brute_select(data: &Dataset, q: &SelectQuery) -> QueryResult {
    let points = || -> Vec<Point> { data.as_points().into_iter().map(|(_, p)| p).collect() };
    let polygons = || -> Vec<Polygon> {
        let polys = data.as_polygons().into_iter();
        polys.map(|(_, p)| p.clone()).collect()
    };
    QueryResult::Ids(match (data.kind, q) {
        (DatasetKind::Points, SelectQuery::Intersects(c) | SelectQuery::Contained(c)) => {
            brute::select_points(&points(), c)
        }
        (DatasetKind::Points, SelectQuery::Range(bb)) => {
            brute::select_points(&points(), &Polygon::rect(*bb))
        }
        (DatasetKind::Points, SelectQuery::WithinDistance(DistanceConstraint::Point(c), r)) => {
            let near = brute::distance_join(&[*c], &points(), *r);
            near.into_iter().map(|(_, id)| id).collect()
        }
        (DatasetKind::Points, SelectQuery::Knn(p, k)) => {
            return QueryResult::Ranked(brute::knn(&points(), *p, *k))
        }
        (DatasetKind::Polygons, SelectQuery::Intersects(c)) => {
            brute::select_polygons(&polygons(), c)
        }
        (DatasetKind::Polygons, SelectQuery::Contained(c)) => {
            brute::select_contained(&polygons(), c)
        }
        other => unimplemented!("no brute form of {other:?}"),
    })
}

/// The independent answer to a join of `left` and the points `pts`.
fn brute_join(left: &Dataset, pts: &Dataset, q: &JoinQuery) -> QueryResult {
    let points =
        |d: &Dataset| -> Vec<Point> { d.as_points().into_iter().map(|(_, p)| p).collect() };
    let polygons: Vec<Polygon> = (left.as_polygons().into_iter())
        .map(|(_, p)| p.clone())
        .collect();
    let (lp, rp) = (|| points(left), || points(pts));
    match q {
        JoinQuery::Intersects => QueryResult::Pairs(brute::join_polygon_point(&polygons, &rp())),
        JoinQuery::WithinDistance(r) => QueryResult::Pairs(brute::distance_join(&lp(), &rp(), *r)),
        JoinQuery::Knn(k) => QueryResult::RankedPairs(brute::knn_join(&lp(), &rp(), *k)),
        JoinQuery::CountPoints => QueryResult::Counts(brute::aggregate(&polygons, &rp())),
    }
}

/// Differential, in-memory (`Dataset`) path: immutable datasets key at
/// their uid alone and never invalidate; results still must match the
/// brute-force oracle bytewise.
#[test]
fn differential_all_families_in_memory_datasets() {
    let hot = engine_with(true);
    let polys = Arc::new(Dataset::from_objects(
        "polys",
        DatasetKind::Polygons,
        base_polygons(),
    ));
    let pts = Arc::new(Dataset::from_objects(
        "pts",
        DatasetKind::Points,
        base_points(400),
    ));
    let (pt_selects, poly_selects, joins) = workload();

    let selects: Vec<(&Arc<Dataset>, &SelectQuery)> = pt_selects
        .iter()
        .map(|q| (&pts, q))
        .chain(poly_selects.iter().map(|q| (&polys, q)))
        .collect();
    for (data, q) in selects {
        let want = brute_select(data, q);
        let first = query::run_select_ctx(&hot, data, q, &QueryCtx::cached()).unwrap();
        assert_eq!(first.stats.result_cache, CacheOutcome::Miss, "{q:?}");
        assert_eq!(first.result, want, "{q:?}");
        let second = query::run_select_ctx(&hot, data, q, &QueryCtx::cached()).unwrap();
        assert_eq!(second.stats.result_cache, CacheOutcome::Hit, "{q:?}");
        assert_eq!(second.stats.passes, 0);
        assert_eq!(second.result, want, "{q:?}");
    }
    for q in &joins {
        let left = match q {
            JoinQuery::WithinDistance(_) | JoinQuery::Knn(_) => &pts,
            _ => &polys,
        };
        let want = brute_join(left, &pts, q);
        let first = query::run_join_ctx(&hot, left, &pts, q, &QueryCtx::cached()).unwrap();
        assert_eq!(first.stats.result_cache, CacheOutcome::Miss, "{q:?}");
        assert_eq!(first.result, want, "{q:?}");
        let second = query::run_join_ctx(&hot, left, &pts, q, &QueryCtx::cached()).unwrap();
        assert_eq!(second.stats.result_cache, CacheOutcome::Hit, "{q:?}");
        assert_eq!(second.result, want, "{q:?}");
    }
}

/// Staleness: a hot entry must stop matching the moment the dataset's
/// watermark moves — staged writes bump the delta seq, compaction bumps the
/// generation — and the re-render must equal a cold rebuild of the new
/// logical set.
#[test]
fn writes_and_compaction_invalidate_hot_entries() {
    let spade = engine_with(true);
    let cell = 25.0;
    let base = base_points(300);
    let grid = GridIndex::build(None, &base, cell).unwrap();
    let live = IndexedDataset::new("pts", DatasetKind::Points, grid);
    let q = SelectQuery::Range(BBox::new(Point::new(20.0, 20.0), Point::new(70.0, 60.0)));

    // Warm the entry.
    let v0 = query::run_select_ctx(&spade, &live, &q, &QueryCtx::cached()).unwrap();
    assert_eq!(v0.stats.result_cache, CacheOutcome::Miss);
    assert_eq!(
        query::run_select_ctx(&spade, &live, &q, &QueryCtx::cached())
            .unwrap()
            .stats
            .result_cache,
        CacheOutcome::Hit
    );

    // A staged insert inside the range bumps the seq watermark: the next run
    // is a MISS and sees the new object.
    let mut logical: BTreeMap<u32, Geometry> = base.iter().cloned().collect();
    live.insert(9_000, Geometry::Point(Point::new(45.0, 45.0)));
    logical.insert(9_000, Geometry::Point(Point::new(45.0, 45.0)));
    let after_insert = query::run_select_ctx(&spade, &live, &q, &QueryCtx::cached()).unwrap();
    assert_eq!(after_insert.stats.result_cache, CacheOutcome::Miss);
    assert_ne!(after_insert.result, v0.result, "staged insert must be seen");
    let objs: Vec<_> = logical.clone().into_iter().collect();
    let oracle = IndexedDataset::new(
        "oracle",
        DatasetKind::Points,
        GridIndex::build(None, &objs, cell).unwrap(),
    );
    let want = query::run_select_ctx(&spade, &oracle, &q, &QueryCtx::default()).unwrap();
    assert_eq!(after_insert.result, want.result);

    // A staged delete invalidates again, even though it re-renders to the
    // pre-insert answer: the watermark, not the payload, is the key.
    live.delete(9_000);
    logical.remove(&9_000);
    let after_delete = query::run_select_ctx(&spade, &live, &q, &QueryCtx::cached()).unwrap();
    assert_eq!(after_delete.stats.result_cache, CacheOutcome::Miss);
    assert_eq!(after_delete.result, v0.result);

    // Compaction folds the (now empty net) delta into a new generation:
    // another MISS, same answer, and the HIT that follows sticks.
    live.insert(9_001, Geometry::Point(Point::new(30.0, 30.0)));
    live.compact(spade.config.max_cell_bytes).unwrap();
    let after_compact = query::run_select_ctx(&spade, &live, &q, &QueryCtx::cached()).unwrap();
    assert_eq!(after_compact.stats.result_cache, CacheOutcome::Miss);
    logical.insert(9_001, Geometry::Point(Point::new(30.0, 30.0)));
    let objs: Vec<_> = logical.into_iter().collect();
    let oracle = IndexedDataset::new(
        "oracle2",
        DatasetKind::Points,
        GridIndex::build(None, &objs, cell).unwrap(),
    );
    let want = query::run_select_ctx(&spade, &oracle, &q, &QueryCtx::default()).unwrap();
    assert_eq!(after_compact.result, want.result);
    assert_eq!(
        query::run_select_ctx(&spade, &live, &q, &QueryCtx::cached())
            .unwrap()
            .stats
            .result_cache,
        CacheOutcome::Hit
    );
}

/// Eviction/invalidation must release device-ledger reservations
/// immediately: under churn the resident bytes never exceed the budget, the
/// device ledger between queries holds exactly the cache's resident bytes,
/// and purge + clear drain both to zero (regression for charge leaks).
#[test]
fn eviction_churn_releases_ledger_reservations() {
    let mut c = EngineConfig::test_small();
    c.device_memory = 64 << 10; // an 8 KiB result cache: force continuous eviction
    let spade = Spade::new(c);
    let budget = spade.config.result_cache_bytes();
    let base = base_points(400);
    let grid = GridIndex::build(None, &base, 25.0).unwrap();
    let live = IndexedDataset::new("pts", DatasetKind::Points, grid);

    for i in 0..200u32 {
        let lo = i as f64 * 0.37; // 200 distinct keys

        let q = SelectQuery::Range(BBox::new(
            Point::new(lo, lo * 0.5),
            Point::new(lo + 40.0, lo * 0.5 + 35.0),
        ));
        query::run_select_ctx(&spade, &live, &q, &QueryCtx::cached()).unwrap();
        let rc = spade.result_cache.stats();
        assert!(
            rc.bytes <= budget,
            "resident {} exceeds budget {budget}",
            rc.bytes
        );
        assert_eq!(
            spade.device.used(),
            rc.bytes,
            "device ledger must hold exactly the cache bytes"
        );
    }
    let rc = spade.result_cache.stats();
    assert!(rc.evicted > 0, "budget churn must evict");
    assert!(rc.entries > 0);

    // Invalidation purge (what the compactor calls): stale-version entries
    // release their reservations immediately.
    live.insert(9_000, Geometry::Point(Point::new(1.0, 1.0)));
    spade
        .result_cache
        .purge_outdated(live.uid(), live.version());
    let rc = spade.result_cache.stats();
    assert_eq!(rc.entries, 0, "every entry predates the new watermark");
    assert_eq!(rc.bytes, 0);
    assert_eq!(spade.device.used(), 0);

    // And clear() is a full drain even with fresh entries resident.
    let q = SelectQuery::Range(BBox::new(Point::new(0.0, 0.0), Point::new(50.0, 50.0)));
    query::run_select_ctx(&spade, &live, &q, &QueryCtx::cached()).unwrap();
    assert!(spade.result_cache.stats().bytes > 0);
    spade.result_cache.clear();
    assert_eq!(spade.result_cache.stats().bytes, 0);
    assert_eq!(
        spade.device.used(),
        0,
        "device ledger must balance after clear"
    );
}

// ---------------------------------------------------------------------------
// Property harness: random write/query interleavings vs a cold oracle.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

/// One shared engine for every generated case (the cache deliberately
/// persists across cases: dataset uids are fresh per case, so stale entries
/// from earlier cases exercise eviction instead of aliasing).
fn shared_engine() -> &'static Spade {
    static ENGINE: OnceLock<Spade> = OnceLock::new();
    ENGINE.get_or_init(|| Spade::new(EngineConfig::test_small()))
}

/// Decode one generated op against the model + live dataset. Kinds: 0..=5
/// insert (fresh or replacing), 6..=7 delete (of a possibly-present id),
/// 8..=9 compact.
fn apply_op(
    live: &IndexedDataset,
    model: &mut BTreeMap<u32, Geometry>,
    max_cell_bytes: u64,
    op: &(u32, u32, f64, f64),
) {
    let (kind, id, x, y) = *op;
    match kind {
        0..=5 => {
            let g = Geometry::Point(Point::new(x, y));
            live.insert(id, g.clone());
            model.insert(id, g);
        }
        6..=7 => {
            live.delete(id);
            model.remove(&id);
        }
        _ => {
            live.compact(max_cell_bytes).unwrap();
        }
    }
}

/// The query probed after an op, derived from the op's own coordinates so
/// every case probes different regions; rotates through all five families.
fn probe_query(step: usize, x: f64, y: f64) -> SelectQuery {
    let sq = |cx: f64, cy: f64, s: f64| {
        Polygon::rect(BBox::new(
            Point::new(cx - s, cy - s),
            Point::new(cx + s, cy + s),
        ))
    };
    match step % 5 {
        0 => SelectQuery::Range(BBox::new(
            Point::new(x - 30.0, y - 30.0),
            Point::new(x + 30.0, y + 30.0),
        )),
        1 => SelectQuery::Knn(Point::new(x, y), 5),
        2 => SelectQuery::Intersects(sq(x, y, 25.0)),
        3 => SelectQuery::WithinDistance(DistanceConstraint::Point(Point::new(x, y)), 20.0),
        _ => SelectQuery::Contained(sq(x, y, 35.0)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every random write/compaction, a cached query and its repeat
    /// must both equal an uncached run over a from-scratch rebuild of the
    /// logical object set — and the repeat must be a zero-I/O HIT.
    #[test]
    fn interleaved_writes_never_serve_stale_results(
        ops in prop::collection::vec((0u32..10, 0u32..32, 0.0f64..100.0, 0.0f64..100.0), 1..7),
        nbase in 12usize..28,
    ) {
        let spade = shared_engine();
        let cell = 25.0;
        let base = base_points(nbase);
        let mut model: BTreeMap<u32, Geometry> = base.iter().cloned().collect();
        let grid = GridIndex::build(None, &base, cell).unwrap();
        let live = IndexedDataset::new("pts", DatasetKind::Points, grid);

        for (step, op) in ops.iter().enumerate() {
            apply_op(&live, &mut model, spade.config.max_cell_bytes, op);
            let q = probe_query(step, op.2, op.3);

            let objs: Vec<_> = model.clone().into_iter().collect();
            let oracle = IndexedDataset::new(
                "oracle",
                DatasetKind::Points,
                GridIndex::build(None, &objs, cell).unwrap(),
            );
            let want = query::run_select_ctx(spade, &oracle, &q, &QueryCtx::default())
                .unwrap()
                .result;

            let got = query::run_select_ctx(spade, &live, &q, &QueryCtx::cached()).unwrap();
            prop_assert_eq!(&got.result, &want, "step {}: {:?}", step, &q);
            let again = query::run_select_ctx(spade, &live, &q, &QueryCtx::cached()).unwrap();
            prop_assert_eq!(&again.result, &want, "repeat at step {}: {:?}", step, &q);
            prop_assert_eq!(again.stats.result_cache, CacheOutcome::Hit);
            prop_assert_eq!(again.stats.cells_loaded, 0);
            prop_assert_eq!(again.stats.passes, 0);
        }
    }
}
