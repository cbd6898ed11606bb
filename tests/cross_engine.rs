//! Cross-engine consistency: SPADE, the S2-like library, STIG, the cluster
//! engine and the brute-force oracle must agree on every query class.
//! (This mirrors the paper's evaluation setup, where all systems answer
//! the same queries.)

use spade::baselines::brute;
use spade::baselines::cluster::{ClusterConfig, PointRdd, PolygonRdd};
use spade::baselines::s2like::PointIndex;
use spade::baselines::stig::Stig;
use spade::datagen::{spider, urban};
use spade::engine::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade::engine::{distance, join, knn, select, EngineConfig, QueryCtx, Spade};
use spade::geometry::{BBox, Point};
use spade::index::GridIndex;
use std::sync::Arc;
use std::time::Duration;

fn engine() -> Spade {
    Spade::new(EngineConfig::test_small())
}

fn cluster_cfg() -> ClusterConfig {
    ClusterConfig {
        partitions: 8,
        workers: 4,
        task_overhead: Duration::ZERO,
    }
}

fn unit() -> BBox {
    BBox::new(Point::ZERO, Point::new(1.0, 1.0))
}

#[test]
fn selection_agrees_across_engines() {
    let spade = engine();
    let pts = spider::uniform_points(5_000, 11);
    let data = Arc::new(Dataset::from_points("p", pts.clone()));
    let stig = Stig::build(pts.clone(), 256);
    let rdd = PointRdd::build(pts.clone(), cluster_cfg());
    let s2 = PointIndex::build(pts.clone());

    for (i, c) in urban::constraint_polygons(5, &unit(), 0.15, 32, 3)
        .into_iter()
        .enumerate()
    {
        let truth = brute::select_points(&pts, &c);
        let got = select::select_indexed(&spade, &data, &c, &QueryCtx::default());
        assert_eq!(got.unwrap().result, truth, "SPADE (constraint {i})");
        assert_eq!(stig.select_polygon(&c, 4), truth, "STIG (constraint {i})");
        assert_eq!(rdd.select_polygon(&c), truth, "cluster (constraint {i})");
        assert_eq!(s2.select_polygon(&c), truth, "S2 (constraint {i})");
    }
}

#[test]
fn polygon_selection_agrees() {
    let spade = engine();
    let boxes = spider::uniform_boxes(800, 0.05, 13);
    let data = Arc::new(Dataset::from_polygons("b", boxes.clone()));
    let rdd = PolygonRdd::build(boxes.clone(), cluster_cfg());
    let c = urban::constraint_polygons(1, &unit(), 0.2, 24, 5)
        .pop()
        .unwrap();
    let truth = brute::select_polygons(&boxes, &c);
    let got = select::select_indexed(&spade, &data, &c, &QueryCtx::default());
    assert_eq!(got.unwrap().result, truth, "SPADE");
    assert_eq!(rdd.select_polygon(&c), truth, "cluster");
}

#[test]
fn contained_selection_agrees() {
    let spade = engine();
    let boxes = spider::uniform_boxes(800, 0.05, 13);
    let data = Arc::new(Dataset::from_polygons("b", boxes.clone()));
    let grid = GridIndex::build(None, &data.objects, 0.25).unwrap();
    let indexed = IndexedDataset::new("b", DatasetKind::Polygons, grid);
    for c in urban::constraint_polygons(3, &unit(), 0.25, 24, 7) {
        let truth = brute::select_contained(&boxes, &c);
        assert!(!truth.is_empty());
        for got in [
            select::select_contained_indexed(&spade, &data, &c, &QueryCtx::default()),
            select::select_contained_indexed(&spade, &indexed, &c, &QueryCtx::default()),
        ] {
            assert_eq!(got.unwrap().result, truth, "SPADE");
        }
    }
}

#[test]
fn point_polygon_join_agrees() {
    let spade = engine();
    let pts = spider::gaussian_points(3_000, 17);
    let parcels = spider::parcels(150, 0.05, 19);
    let d_pts = Arc::new(Dataset::from_points("p", pts.clone()));
    let d_par = Arc::new(Dataset::from_polygons("parcels", parcels.clone()));

    let mut truth = brute::join_polygon_point(&parcels, &pts);
    truth.sort_unstable();

    let got = join::join_indexed(&spade, &d_par, &d_pts, &QueryCtx::default());
    let got = got.unwrap().result;
    assert_eq!(got, truth, "SPADE");

    let rdd = PointRdd::build(pts, cluster_cfg());
    let prdd = PolygonRdd::build(parcels, cluster_cfg());
    assert_eq!(rdd.join_polygons(&prdd), truth, "cluster");
}

#[test]
fn polygon_polygon_join_agrees() {
    let spade = engine();
    let a = spider::parcels(80, 0.04, 23);
    let b = spider::uniform_boxes(300, 0.06, 29);
    let mut truth = brute::join_polygon_polygon(&a, &b);
    truth.sort_unstable();
    let got = join::join_indexed(
        &spade,
        &Arc::new(Dataset::from_polygons("a", a.clone())),
        &Arc::new(Dataset::from_polygons("b", b.clone())),
        &QueryCtx::default(),
    )
    .unwrap()
    .result;
    assert_eq!(got, truth, "SPADE");
    let ra = PolygonRdd::build(a, cluster_cfg());
    let rb = PolygonRdd::build(b, cluster_cfg());
    assert_eq!(ra.join(&rb), truth, "cluster");
}

#[test]
fn distance_join_agrees() {
    let spade = engine();
    let left = spider::uniform_points(80, 31);
    let right = spider::uniform_points(2_000, 37);
    let r = 0.04;
    let mut truth = brute::distance_join(&left, &right, r);
    truth.sort_unstable();

    let got = distance::distance_join_indexed(
        &spade,
        &Arc::new(Dataset::from_points("l", left.clone())),
        &Arc::new(Dataset::from_points("r", right.clone())),
        r,
        &QueryCtx::default(),
    )
    .unwrap()
    .result;
    assert_eq!(got, truth, "SPADE");

    let rl = PointRdd::build(left.clone(), cluster_cfg());
    let rr = PointRdd::build(right.clone(), cluster_cfg());
    assert_eq!(rr.distance_join(&rl, r), truth, "cluster");

    let s2 = PointIndex::build(right);
    let mut s2_pairs = Vec::new();
    for (i, p) in left.iter().enumerate() {
        for id in s2.within_distance(*p, r) {
            s2_pairs.push((i as u32, id));
        }
    }
    s2_pairs.sort_unstable();
    assert_eq!(s2_pairs, truth, "S2");
}

#[test]
fn knn_agrees_on_distances() {
    let spade = engine();
    let pts = spider::gaussian_points(2_000, 41);
    let data = Arc::new(Dataset::from_points("p", pts.clone()));
    let s2 = PointIndex::build(pts.clone());
    let rdd = PointRdd::build(pts.clone(), cluster_cfg());

    for (qi, q) in [
        Point::new(0.5, 0.5),
        Point::new(0.1, 0.9),
        Point::new(0.8, 0.2),
    ]
    .into_iter()
    .enumerate()
    {
        for k in [1usize, 7, 25] {
            let truth = brute::knn(&pts, q, k);
            let got = knn::knn_select_indexed(&spade, &data, q, k, &QueryCtx::default());
            let got = got.unwrap().result;
            assert_eq!(got.len(), truth.len(), "SPADE k={k} q{qi}");
            for (g, t) in got.iter().zip(&truth) {
                assert!(
                    (g.1 - t.1).abs() < 1e-12,
                    "SPADE k={k} q{qi}: {g:?} vs {t:?}"
                );
            }
            let s2_got = s2.knn(q, k);
            let cl_got = rdd.knn(q, k);
            for ((s, c), t) in s2_got.iter().zip(&cl_got).zip(&truth) {
                assert!((s.1 - t.1).abs() < 1e-12, "S2 k={k}");
                assert!((c.1 - t.1).abs() < 1e-12, "cluster k={k}");
            }
        }
    }
}

#[test]
fn knn_join_agrees() {
    let spade = engine();
    let left = spider::uniform_points(60, 53);
    let right = spider::gaussian_points(1_500, 59);
    let (dl, dr) = (
        Arc::new(Dataset::from_points("l", left.clone())),
        Arc::new(Dataset::from_points("r", right.clone())),
    );
    let il = IndexedDataset::new("l", DatasetKind::Points, {
        GridIndex::build(None, &dl.objects, 0.3).unwrap()
    });
    let ir = IndexedDataset::new("r", DatasetKind::Points, {
        GridIndex::build(None, &dr.objects, 0.3).unwrap()
    });
    for k in [1usize, 5] {
        let truth = brute::knn_join(&left, &right, k);
        let ctx = QueryCtx::default();
        assert_eq!(
            knn::knn_join_indexed(&spade, &dl, &dr, k, &ctx)
                .unwrap()
                .result,
            truth
        );
        assert_eq!(
            knn::knn_join_indexed(&spade, &il, &ir, k, &ctx)
                .unwrap()
                .result,
            truth
        );
        assert_eq!(
            knn::knn_join_indexed(&spade, &il, &dr, k, &ctx)
                .unwrap()
                .result,
            truth
        );
    }
}

fn ooc_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("spade-xe-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The pipelined out-of-core selection path must agree with the in-memory
/// path and the brute-force oracle on seeded random workloads.
#[test]
fn pipelined_selection_agrees_across_seeds() {
    let spade = engine();
    for seed in [3u64, 11, 27] {
        let pts = spider::gaussian_points(6_000, seed);
        let data = Arc::new(Dataset::from_points("p", pts.clone()));
        let dir = ooc_dir(&format!("sel{seed}"));
        let grid = GridIndex::build(Some(dir.clone()), &data.objects, 0.2).unwrap();
        let indexed = IndexedDataset::new("p", DatasetKind::Points, grid);
        for (i, c) in urban::constraint_polygons(2, &unit(), 0.15, 24, seed)
            .into_iter()
            .enumerate()
        {
            let truth = brute::select_points(&pts, &c);
            let mem = select::select_indexed(&spade, &data, &c, &QueryCtx::default());
            let mem = mem.unwrap().result;
            let ooc = select::select_indexed(&spade, &indexed, &c, &QueryCtx::default())
                .unwrap()
                .result;
            assert_eq!(mem, truth, "in-memory vs oracle (seed {seed}, c{i})");
            assert_eq!(ooc, truth, "pipelined OOC vs oracle (seed {seed}, c{i})");
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The pipelined out-of-core join must agree with the in-memory join and
/// the brute-force oracle on seeded random workloads.
#[test]
fn pipelined_join_agrees_across_seeds() {
    let spade = engine();
    for seed in [5u64, 13, 31] {
        let pts = spider::uniform_points(4_000, seed);
        let parcels = spider::parcels(60, 0.05, seed + 1);
        let mut truth = brute::join_polygon_point(&parcels, &pts);
        truth.sort_unstable();

        let d_par = Arc::new(Dataset::from_polygons("parcels", parcels));
        let d_pts = Arc::new(Dataset::from_points("p", pts));
        let mem = join::join_indexed(&spade, &d_par, &d_pts, &QueryCtx::default());
        let mem = mem.unwrap().result;
        assert_eq!(mem, truth, "in-memory vs oracle (seed {seed})");

        let dir = ooc_dir(&format!("join{seed}"));
        let g1 = GridIndex::build(Some(dir.join("a")), &d_par.objects, 0.35).unwrap();
        let g2 = GridIndex::build(Some(dir.join("b")), &d_pts.objects, 0.35).unwrap();
        let i1 = IndexedDataset::new("parcels", DatasetKind::Polygons, g1);
        let i2 = IndexedDataset::new("p", DatasetKind::Points, g2);
        let mut ooc = join::join_indexed(&spade, &i1, &i2, &QueryCtx::default())
            .unwrap()
            .result;
        ooc.sort_unstable();
        assert_eq!(ooc, truth, "pipelined OOC vs oracle (seed {seed})");
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The pipelined out-of-core kNN must match the in-memory path and the
/// brute-force oracle on result distances across seeded workloads.
#[test]
fn pipelined_knn_agrees_across_seeds() {
    let spade = engine();
    for seed in [7u64, 17, 37] {
        let pts = spider::gaussian_points(3_000, seed);
        let data = Arc::new(Dataset::from_points("p", pts.clone()));
        let dir = ooc_dir(&format!("knn{seed}"));
        let grid = GridIndex::build(Some(dir.clone()), &data.objects, 0.2).unwrap();
        let indexed = IndexedDataset::new("p", DatasetKind::Points, grid);
        let q = Point::new(0.25 + 0.05 * (seed % 5) as f64, 0.6);
        for k in [1usize, 10, 40] {
            let truth = brute::knn(&pts, q, k);
            let mem = knn::knn_select_indexed(&spade, &data, q, k, &QueryCtx::default());
            let mem = mem.unwrap().result;
            let ooc = knn::knn_select_indexed(&spade, &indexed, q, k, &QueryCtx::default())
                .unwrap()
                .result;
            assert_eq!(mem.len(), truth.len(), "in-memory k={k} seed {seed}");
            assert_eq!(ooc.len(), truth.len(), "OOC k={k} seed {seed}");
            for ((m, o), t) in mem.iter().zip(&ooc).zip(&truth) {
                assert!(
                    (m.1 - t.1).abs() < 1e-12,
                    "in-memory k={k} seed {seed}: {m:?} vs {t:?}"
                );
                assert!(
                    (o.1 - t.1).abs() < 1e-12,
                    "OOC k={k} seed {seed}: {o:?} vs {t:?}"
                );
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn aggregation_agrees() {
    let spade = engine();
    let pts = spider::uniform_points(4_000, 43);
    let parcels = spider::parcels(60, 0.05, 47);
    let truth = brute::aggregate(&parcels, &pts);
    let d_par = Arc::new(Dataset::from_polygons("parcels", parcels));
    let d_pts = Arc::new(Dataset::from_points("p", pts));
    let ctx = QueryCtx::default();
    let a = spade::engine::aggregate::aggregate_indexed(&spade, &d_par, &d_pts, &ctx);
    assert_eq!(a.unwrap().result, truth, "the join with a count fold");
}
