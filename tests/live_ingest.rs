//! Live-ingestion correctness: the delta-merged read path must be
//! indistinguishable from a from-scratch rebuild.
//!
//! The differential harness applies a write script (inserts, replacements,
//! deletes) to an [`IndexedDataset`]'s delta store and compares every
//! query family — selection, containment, distance, kNN, join, and the
//! count-points aggregation — against a cold index rebuilt from the
//! logical object set. Results must be *equal*, not merely equivalent:
//! `QueryResult` compares bytewise. The comparison runs before compaction
//! (delta merged at query time), after compaction (delta folded into a new
//! generation), and — for disk-backed indexes — after a reopen from the
//! persisted manifest, which is the crash-recovery read path.

use spade::engine::dataset::{DatasetKind, IndexedDataset};
use spade::engine::distance::DistanceConstraint;
use spade::engine::query::{self, JoinQuery, QueryResult, SelectQuery};
use spade::engine::{EngineConfig, QueryCtx, Spade};
use spade::geometry::{BBox, Geometry, Point, Polygon};
use spade::index::GridIndex;
use std::collections::BTreeMap;

fn engine() -> Spade {
    let mut c = EngineConfig::test_small();
    c.resolution = 128;
    Spade::new(c)
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("spade-ingest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// One scripted write.
enum Write {
    Insert(u32, Geometry),
    Delete(u32),
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

/// The write script against the point set: fresh inserts (some outside the
/// base extent, stressing kNN/select extent handling), replacements of
/// existing ids (moved points), and deletes — including a delete of a
/// just-inserted object and a re-insert of a deleted one.
fn point_writes() -> Vec<Write> {
    let pt = |x: f64, y: f64| Geometry::Point(Point::new(x, y));
    vec![
        Write::Insert(10_000, pt(50.0, 50.0)),
        Write::Insert(10_001, pt(118.0, 95.0)), // outside the base extent
        Write::Insert(10_002, pt(-7.5, 12.0)),  // outside, other side
        Write::Delete(3),
        Write::Delete(77),
        Write::Insert(42, pt(61.0, 39.0)), // replace: moved object
        Write::Insert(10_003, pt(33.3, 66.6)),
        Write::Delete(10_003),             // delete an object born in the delta
        Write::Insert(77, pt(10.0, 90.0)), // re-insert a deleted id
        Write::Delete(150),
    ]
}

fn polygon_writes() -> Vec<Write> {
    let sq = |x: f64, y: f64, s: f64| {
        Geometry::Polygon(Polygon::rect(BBox::new(
            Point::new(x, y),
            Point::new(x + s, y + s),
        )))
    };
    vec![
        Write::Insert(500, sq(45.0, 45.0, 22.0)), // big square over the middle
        Write::Delete(12),
        Write::Insert(7, sq(70.0, 5.0, 4.0)), // replace a square, smaller
        Write::Insert(501, sq(101.0, 101.0, 9.0)), // outside the base field
    ]
}

/// The logical object set after applying `writes` to `base`.
fn apply(base: &[(u32, Geometry)], writes: &[Write]) -> Vec<(u32, Geometry)> {
    let mut m: BTreeMap<u32, Geometry> = base.iter().cloned().collect();
    for w in writes {
        match w {
            Write::Insert(id, g) => {
                m.insert(*id, g.clone());
            }
            Write::Delete(id) => {
                m.remove(id);
            }
        }
    }
    m.into_iter().collect()
}

/// Stage `writes` into the dataset's delta store.
fn stage(idx: &IndexedDataset, writes: &[Write]) {
    for w in writes {
        match w {
            Write::Insert(id, g) => {
                idx.insert(*id, g.clone());
            }
            Write::Delete(id) => {
                idx.delete(*id);
            }
        }
    }
}

/// Every query family of the workload, run against `(polys, pts)`.
fn run_families(spade: &Spade, polys: &IndexedDataset, pts: &IndexedDataset) -> Vec<QueryResult> {
    let constraint = Polygon::new(vec![
        Point::new(10.0, 15.0),
        Point::new(85.0, 25.0),
        Point::new(70.0, 80.0),
        Point::new(20.0, 70.0),
    ]);
    let selects: Vec<(&IndexedDataset, SelectQuery)> = vec![
        (pts, SelectQuery::Intersects(constraint.clone())),
        (
            pts,
            SelectQuery::Range(BBox::new(Point::new(20.0, 20.0), Point::new(70.0, 60.0))),
        ),
        (pts, SelectQuery::Contained(constraint.clone())),
        (
            pts,
            SelectQuery::WithinDistance(DistanceConstraint::Point(Point::new(50.0, 50.0)), 15.0),
        ),
        (pts, SelectQuery::Knn(Point::new(33.0, 66.0), 12)),
        // kNN near the delta-only region: the staged outside-extent point
        // must be findable.
        (pts, SelectQuery::Knn(Point::new(115.0, 93.0), 3)),
        (polys, SelectQuery::Intersects(constraint.clone())),
        (polys, SelectQuery::Contained(constraint)),
    ];
    let mut out: Vec<QueryResult> = selects
        .into_iter()
        .map(|(d, q)| {
            query::run_select_ctx(spade, d, &q, &QueryCtx::default())
                .unwrap()
                .result
        })
        .collect();
    for q in [JoinQuery::Intersects, JoinQuery::CountPoints] {
        out.push(
            query::run_join_ctx(spade, polys, pts, &q, &QueryCtx::default())
                .unwrap()
                .result,
        );
    }
    out
}

/// Cold rebuild of `(polys, pts)` from logical object sets.
fn cold(
    dir: Option<&std::path::Path>,
    polys: &[(u32, Geometry)],
    pts: &[(u32, Geometry)],
    cell: f64,
) -> (IndexedDataset, IndexedDataset) {
    let gp = GridIndex::build(dir.map(|d| d.join("cold-polys")), polys, cell).unwrap();
    let gq = GridIndex::build(dir.map(|d| d.join("cold-pts")), pts, cell).unwrap();
    (
        IndexedDataset::new("polys", DatasetKind::Polygons, gp),
        IndexedDataset::new("pts", DatasetKind::Points, gq),
    )
}

fn differential(dir: Option<&std::path::Path>) {
    let spade = engine();
    let cell = 25.0;
    let base_p = base_polygons();
    let base_q = base_points(600);

    // Live datasets: base index + staged writes.
    let gp = GridIndex::build(dir.map(|d| d.join("live-polys")), &base_p, cell).unwrap();
    let gq = GridIndex::build(dir.map(|d| d.join("live-pts")), &base_q, cell).unwrap();
    let live_p = IndexedDataset::new("polys", DatasetKind::Polygons, gp);
    let live_q = IndexedDataset::new("pts", DatasetKind::Points, gq);
    stage(&live_p, &polygon_writes());
    stage(&live_q, &point_writes());
    assert!(live_q.delta_stats().staged > 0);
    assert!(live_q.delta_stats().tombstones > 0);

    // Cold rebuild from the logical object sets.
    let logical_p = apply(&base_p, &polygon_writes());
    let logical_q = apply(&base_q, &point_writes());
    let (cold_p, cold_q) = cold(dir, &logical_p, &logical_q, cell);
    let want = run_families(&spade, &cold_p, &cold_q);

    // 1. Delta merged at query time.
    let got = run_families(&spade, &live_p, &live_q);
    assert_eq!(got, want, "delta-merged results differ from cold rebuild");

    // 2. After compaction: the delta folds into a fresh generation.
    let max_cell = spade.config.max_cell_bytes;
    let rp = live_p.compact(max_cell).unwrap().expect("polys had debt");
    let rq = live_q.compact(max_cell).unwrap().expect("pts had debt");
    assert!(rp.generation > 0 && rq.generation > 0);
    assert_eq!(
        live_q.delta_stats().staged,
        0,
        "compaction drains the delta"
    );
    assert_eq!(live_q.delta_stats().tombstones, 0);
    let got = run_families(&spade, &live_p, &live_q);
    assert_eq!(
        got, want,
        "post-compaction results differ from cold rebuild"
    );

    // 3. Object counts: the new generation holds exactly the logical set.
    assert_eq!(live_p.grid().num_objects(), logical_p.len());
    assert_eq!(live_q.grid().num_objects(), logical_q.len());
}

#[test]
fn delta_merge_differential_in_memory() {
    differential(None);
}

#[test]
fn delta_merge_differential_out_of_core() {
    let dir = tmpdir("diff");
    differential(Some(&dir));
    std::fs::remove_dir_all(&dir).ok();
}

/// Disk-backed: compaction persists a manifest; reopening from it (the
/// crash-recovery read path) serves identical results, and its checkpoint
/// sequence reflects the drained writes.
#[test]
fn compacted_index_reopens_identically() {
    let spade = engine();
    let dir = tmpdir("reopen");
    let cell = 25.0;
    let base_q = base_points(400);
    let grid = GridIndex::build(Some(dir.join("pts")), &base_q, cell).unwrap();
    let live = IndexedDataset::new("pts", DatasetKind::Points, grid);
    stage(&live, &point_writes());
    let report = live.compact(spade.config.max_cell_bytes).unwrap().unwrap();
    assert!(report.inserts_applied > 0);
    let ceil = live.checkpoint_seq();
    assert!(ceil > 0, "compaction advances the checkpoint");

    let q = SelectQuery::Range(BBox::new(Point::new(10.0, 10.0), Point::new(90.0, 90.0)));
    let want = query::run_select_ctx(&spade, &live, &q, &QueryCtx::default())
        .unwrap()
        .result;

    let (reopened, wal_seq) =
        IndexedDataset::open("pts", DatasetKind::Points, dir.join("pts")).unwrap();
    assert_eq!(wal_seq, ceil, "manifest persisted the folded sequence");
    let got = query::run_select_ctx(&spade, &reopened, &q, &QueryCtx::default())
        .unwrap()
        .result;
    assert_eq!(got, want);
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes racing compaction survive: a write staged *while* a compaction
/// snapshot is being folded is not dropped by the drain.
#[test]
fn write_during_compaction_survives() {
    let spade = engine();
    let base_q = base_points(400);
    let grid = GridIndex::build(None, &base_q, 25.0).unwrap();
    let live = std::sync::Arc::new(IndexedDataset::new("pts", DatasetKind::Points, grid));
    stage(&live, &point_writes());

    let writer = {
        let live = std::sync::Arc::clone(&live);
        std::thread::spawn(move || {
            for i in 0..200u32 {
                live.insert(
                    20_000 + i,
                    Geometry::Point(Point::new(
                        5.0 + (i % 90) as f64,
                        5.0 + (i / 2) as f64 % 90.0,
                    )),
                );
            }
        })
    };
    // Compact repeatedly while the writer runs.
    for _ in 0..4 {
        live.compact(spade.config.max_cell_bytes).unwrap();
    }
    writer.join().unwrap();
    live.compact(spade.config.max_cell_bytes).unwrap();

    // Every concurrent insert is present afterwards.
    let q = SelectQuery::Range(BBox::new(
        Point::new(-10.0, -10.0),
        Point::new(130.0, 130.0),
    ));
    let ids = query::run_select_ctx(&spade, &*live, &q, &QueryCtx::default())
        .unwrap()
        .result;
    let ids = match ids {
        QueryResult::Ids(v) => v,
        other => panic!("expected id list, got {other:?}"),
    };
    for i in 0..200u32 {
        assert!(ids.contains(&(20_000 + i)), "lost concurrent insert {i}");
    }
}
