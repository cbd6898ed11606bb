//! Property-based tests (proptest) on the system's core invariants:
//!
//! * canvas-based selection always equals the exact geometric oracle,
//! * triangulation preserves area and stays inside the polygon,
//! * layers never contain intersecting objects,
//! * the grid index partitions the data,
//! * the storage codec round-trips,
//! * distance-canvas membership equals the exact distance comparison.

use proptest::prelude::*;
use spade::baselines::brute;
use spade::engine::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade::engine::{select, EngineConfig, QueryCtx, Spade};
use spade::geometry::predicates::polygons_intersect;
use spade::geometry::{BBox, Geometry, Point, Polygon};
use spade::index::GridIndex;
use std::sync::Arc;

fn engine() -> Spade {
    Spade::new(EngineConfig::test_small())
}

prop_compose! {
    /// A random point in the unit square (finite, well-scaled).
    fn unit_point()(x in 0.0f64..1.0, y in 0.0f64..1.0) -> Point {
        Point::new(x, y)
    }
}

prop_compose! {
    /// A random star-convex polygon: sorted angles around a center with
    /// varying radii — always simple, frequently concave.
    fn blob_polygon()(
        cx in 0.2f64..0.8,
        cy in 0.2f64..0.8,
        radii in prop::collection::vec(0.05f64..0.25, 5..12),
        phase in 0.0f64..std::f64::consts::TAU,
    ) -> Polygon {
        let n = radii.len();
        let pts = radii
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let t = phase + std::f64::consts::TAU * i as f64 / n as f64;
                Point::new(cx + r * t.cos(), cy + r * t.sin())
            })
            .collect();
        Polygon::new(pts)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn selection_matches_oracle(
        pts in prop::collection::vec(unit_point(), 50..400),
        constraint in blob_polygon(),
    ) {
        let spade = engine();
        let data = Arc::new(Dataset::from_points("p", pts.clone()));
        let got = select::select_indexed(&spade, &data, &constraint, &QueryCtx::default());
        let mut got = got.unwrap().result;
        got.sort_unstable();
        let truth = brute::select_points(&pts, &constraint);
        prop_assert_eq!(got, truth);
    }

    #[test]
    fn out_of_core_selection_matches_in_memory(
        pts in prop::collection::vec(unit_point(), 100..400),
        constraint in blob_polygon(),
        cell in 0.15f64..0.6,
    ) {
        let spade = engine();
        let data = Arc::new(Dataset::from_points("p", pts));
        let grid = GridIndex::build(None, &data.objects, cell).unwrap();
        let indexed = IndexedDataset::new("p", DatasetKind::Points, grid);
        let mem = select::select_indexed(&spade, &data, &constraint, &QueryCtx::default());
        let mem = mem.unwrap().result;
        let ooc = select::select_indexed(&spade, &indexed, &constraint, &QueryCtx::default()).unwrap().result;
        prop_assert_eq!(ooc, mem);
    }

    #[test]
    fn triangulation_preserves_area(poly in blob_polygon()) {
        let tris = poly.triangulate();
        let sum: f64 = tris.iter().map(|t| t.area()).sum();
        prop_assert!((sum - poly.area()).abs() <= poly.area() * 1e-9);
        // Every triangle centroid stays inside the polygon.
        for t in &tris {
            prop_assert!(spade::geometry::predicates::point_in_polygon(
                t.centroid(),
                &poly
            ));
        }
    }

    #[test]
    fn layers_are_independent_sets(
        boxes in prop::collection::vec((unit_point(), 0.02f64..0.2), 5..25),
    ) {
        let spade = engine();
        let polys: Vec<Polygon> = boxes
            .iter()
            .map(|(p, s)| Polygon::rect(BBox::new(*p, Point::new(p.x + s, p.y + s))))
            .collect();
        let data = Dataset::from_polygons("b", polys.clone());
        let set = spade::engine::dataset::PreparedPolygonSet::prepare(
            &spade.pipeline,
            &data,
            128,
        );
        prop_assert_eq!(set.layers.num_objects(), polys.len());
        for layer in &set.layers.layers {
            for (i, &a) in layer.iter().enumerate() {
                for &b in &layer[i + 1..] {
                    prop_assert!(
                        !polygons_intersect(&polys[a as usize], &polys[b as usize]),
                        "layer holds intersecting objects {} and {}", a, b
                    );
                }
            }
        }
    }

    #[test]
    fn grid_index_partitions_objects(
        pts in prop::collection::vec(unit_point(), 20..200),
        cell in 0.1f64..0.7,
    ) {
        let data = Dataset::from_points("p", pts.clone());
        let grid = GridIndex::build(None, &data.objects, cell).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..grid.num_cells() {
            for (id, _) in grid.load_cell(i).unwrap() {
                prop_assert!(seen.insert(id), "object {} stored twice", id);
            }
        }
        prop_assert_eq!(seen.len(), pts.len());
    }

    #[test]
    fn storage_codec_roundtrip(poly in blob_polygon(), pts in prop::collection::vec(unit_point(), 1..6)) {
        use spade::storage::geom::{decode_geometry, encode_geometry};
        for g in [
            Geometry::Polygon(poly),
            Geometry::Point(pts[0]),
            Geometry::MultiPolygon(spade::geometry::MultiPolygon::new(vec![])),
        ] {
            prop_assert_eq!(&decode_geometry(&encode_geometry(&g)).unwrap(), &g);
        }
    }

    #[test]
    fn distance_canvas_equals_exact_distance(
        pts in prop::collection::vec(unit_point(), 30..200),
        center in unit_point(),
        r in 0.02f64..0.3,
    ) {
        let spade = engine();
        let data = Arc::new(Dataset::from_points("p", pts.clone()));
        let out = spade::engine::distance::distance_select_indexed(
            &spade,
            &data,
            &spade::engine::distance::DistanceConstraint::Point(center),
            r,
            &QueryCtx::default(),
        )
        .unwrap();
        let mut got = out.result;
        got.sort_unstable();
        let truth: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist(center) <= r)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, truth);
    }

    #[test]
    fn convex_hull_contains_inputs(pts in prop::collection::vec(unit_point(), 3..100)) {
        if let Some(hull) = spade::geometry::hull::convex_hull_polygon(&pts) {
            for p in &pts {
                prop_assert!(spade::geometry::predicates::point_in_polygon(*p, &hull));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Out-of-core kNN: the count bound is exact.

use spade::engine::{knn, CellScope, Scope};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Indexed kNN ≡ in-memory kNN ≡ brute force by `(distance, id)`, and
    /// the local top-k of a covering set of disjoint cell ranges merge to
    /// the same answer. Points and `q` sit on a lattice as coarse as one
    /// point (everything coincident, distances tied at the k-th rank), `q`
    /// up to three extents outside, `k` past `n`; the writes tombstone and
    /// replace ids inside the cells the bound counts (so `num_objects`
    /// over-counts) and stage inserts outside every hull.
    #[test]
    fn indexed_knn_matches_brute_force(
        raw in prop::collection::vec((0u32..65, 0u32..65), 1..100),
        spread in 0usize..4,
        q in (-192i32..257, -192i32..257),
        k in 1usize..130,
        cell in 0.15f64..0.6,
        writes in prop::collection::vec((0u32..140, 0u32..3, (0u32..65, 0u32..65)), 0..10),
        cuts in (0u32..12, 0u32..12),
    ) {
        let (modulus, step) = [(1, 0), (2, 64), (9, 8), (65, 1)][spread];
        let at = |(a, b): (u32, u32)| {
            Point::new(((a % modulus) * step) as f64 / 64.0, ((b % modulus) * step) as f64 / 64.0)
        };
        let q = Point::new(q.0 as f64 / 64.0, q.1 as f64 / 64.0);
        let spade = Spade::new(EngineConfig { resolution: 64, ..EngineConfig::test_small() });

        let base = Dataset::from_points("p", raw.iter().map(|&r| at(r)).collect());
        let grid = GridIndex::build(None, &base.objects, cell).unwrap();
        let cells = grid.num_cells() as u32;
        let indexed = IndexedDataset::new("p", DatasetKind::Points, grid);
        let mut truth: std::collections::BTreeMap<u32, Point> =
            (0..).zip(raw.iter().map(|&r| at(r))).collect();
        for &(id, kind, pos) in &writes {
            let p = if kind == 2 { at(pos) + Point::new(1.5, 0.0) } else { at(pos) };
            if kind == 0 {
                indexed.delete(id);
                truth.remove(&id);
            } else {
                indexed.insert(id, Geometry::Point(p));
                truth.insert(id, p);
            }
        }

        let rank = |mut all: Vec<(u32, f64)>| {
            all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            all.truncate(k);
            all
        };
        let brute = rank(truth.iter().map(|(&id, p)| (id, p.dist(q))).collect());
        let objects = truth.iter().map(|(&id, &p)| (id, Geometry::Point(p))).collect();
        let mem = Arc::new(Dataset::from_objects("p", DatasetKind::Points, objects));
        let in_memory = knn::knn_select_indexed(&spade, &mem, q, k, &QueryCtx::default());
        prop_assert_eq!(&in_memory.unwrap().result, &brute);
        let full = knn::knn_select_indexed(&spade, &indexed, q, k, &QueryCtx::default());
        prop_assert_eq!(&full.unwrap().result, &brute);

        let (a, b) = (cuts.0 % (cells + 1), cuts.1 % (cells + 1));
        let (lo, hi) = (a.min(b), a.max(b));
        let mut merged = Vec::new();
        for (i, (lo, hi)) in [(0, lo), (lo, hi), (hi, u32::MAX)].into_iter().enumerate() {
            let scope = Scope::Cells(CellScope { lo, hi, include_delta: i as u32 == cuts.0 % 3 });
            let ctx = QueryCtx { scope, ..QueryCtx::default() };
            merged.extend(knn::knn_select_indexed(&spade, &indexed, q, k, &ctx).unwrap().result);
        }
        prop_assert_eq!(&rank(merged), &brute);
    }
}

// ---------------------------------------------------------------------------
// Optimizer cell-pair ordering and transfer estimation.

use spade::engine::optimizer::{estimate_layer_bytes_ordered, order_cell_pairs};

/// Replay the executor's residency rule over an ordered pair sequence: a
/// side's cell is uploaded only when it differs from the one currently
/// resident. Deliberately re-derived here rather than calling the
/// estimator, so the proptest pins both to the same contract.
fn executor_sequence_loads(ordered: &[(u32, u32)], left: &[u64], right: &[u64]) -> u64 {
    let mut loaded = 0u64;
    let mut res = (u32::MAX, u32::MAX);
    for &(l, r) in ordered {
        if res.0 != l {
            loaded += left[l as usize];
            res.0 = l;
        }
        if res.1 != r {
            loaded += right[r as usize];
            res.1 = r;
        }
    }
    loaded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ordered sequence is a permutation of the input, its left groups
    /// are contiguous with strictly increasing left cells, consecutive
    /// pairs inside a group keep the left cell resident, and the estimator
    /// equals an independent replay of the executor's load sequence.
    /// Pairs are sparse: possibly empty, with duplicates, touching only a
    /// fraction of either grid.
    #[test]
    fn cell_pair_ordering_invariants(
        left in prop::collection::vec(1u64..5_000, 1..10),
        right in prop::collection::vec(1u64..5_000, 1..10),
        raw in prop::collection::vec((0u32..1_000, 0u32..1_000), 0..40),
    ) {
        let mut pairs: Vec<(u32, u32)> = raw
            .iter()
            .map(|&(l, r)| (l % left.len() as u32, r % right.len() as u32))
            .collect();
        let mut multiset = pairs.clone();
        multiset.sort_unstable();
        order_cell_pairs(&mut pairs);

        // Permutation: same multiset of pairs in, possibly new order out.
        let mut check = pairs.clone();
        check.sort_unstable();
        prop_assert_eq!(check, multiset);

        // Contiguous groups, strictly increasing left cells across groups.
        let mut seen_left = Vec::new();
        for &(l, _) in &pairs {
            match seen_left.last() {
                Some(&last) if last == l => {}
                _ => seen_left.push(l),
            }
        }
        let mut sorted_left = seen_left.clone();
        sorted_left.sort_unstable();
        sorted_left.dedup();
        prop_assert_eq!(
            &seen_left, &sorted_left,
            "left groups must be contiguous and ascending"
        );

        // The ordering is deterministic on the multiset: ordering any
        // permutation of the same pairs yields the identical sequence.
        let mut shuffled: Vec<(u32, u32)> = pairs.iter().rev().copied().collect();
        order_cell_pairs(&mut shuffled);
        prop_assert_eq!(&shuffled, &pairs);

        // Estimator == executor sequence loads, exactly.
        prop_assert_eq!(
            estimate_layer_bytes_ordered(&pairs, &left, &right),
            executor_sequence_loads(&pairs, &left, &right)
        );
    }

    /// On dense pair sets (full cross products, the worst case the
    /// boustrophedon targets) the serpentine order never transfers more
    /// than plain lexicographic order: reversing odd groups lets the right
    /// cell carry over across every group boundary.
    #[test]
    fn boustrophedon_beats_plain_sort_on_dense_grids(
        left in prop::collection::vec(1u64..5_000, 1..8),
        right in prop::collection::vec(1u64..5_000, 1..8),
    ) {
        let mut dense = Vec::new();
        for l in 0..left.len() as u32 {
            for r in 0..right.len() as u32 {
                dense.push((l, r));
            }
        }
        let mut plain = dense.clone();
        plain.sort_unstable();
        order_cell_pairs(&mut dense);
        prop_assert!(
            estimate_layer_bytes_ordered(&dense, &left, &right)
                <= estimate_layer_bytes_ordered(&plain, &left, &right)
        );
    }
}

#[test]
fn order_cell_pairs_degenerate_inputs() {
    // Empty input: a no-op, and a zero estimate.
    let mut empty: Vec<(u32, u32)> = Vec::new();
    order_cell_pairs(&mut empty);
    assert!(empty.is_empty());
    assert_eq!(estimate_layer_bytes_ordered(&empty, &[], &[]), 0);

    // A single left group is plain-sorted (group 0 is never reversed).
    let mut single = vec![(4u32, 2u32), (4, 0), (4, 1)];
    order_cell_pairs(&mut single);
    assert_eq!(single, vec![(4, 0), (4, 1), (4, 2)]);
    let bytes = [0u64, 0, 0, 0, 7];
    let rbytes = [10u64, 20, 30];
    // One left load, three right loads.
    assert_eq!(estimate_layer_bytes_ordered(&single, &bytes, &rbytes), 67);

    // Duplicate pairs survive ordering and cost nothing extra: the
    // duplicate finds both cells already resident.
    let mut dupes = vec![(0u32, 1u32), (0, 1), (0, 0)];
    order_cell_pairs(&mut dupes);
    assert_eq!(dupes, vec![(0, 0), (0, 1), (0, 1)]);
    assert_eq!(
        estimate_layer_bytes_ordered(&dupes, &[5], &[11, 13]),
        5 + 11 + 13
    );
}

/// End-to-end: the layer estimate computed before the walk equals the
/// bytes the real out-of-core join actually uploads.
#[test]
fn layer_estimate_matches_real_join_transfers() {
    use spade::datagen::spider;
    use spade::engine::join;

    let spade = Spade::new(EngineConfig::test_small());
    let parcels = Dataset::from_polygons("parcels", spider::parcels(60, 0.06, 41));
    let pts = Dataset::from_points("p", spider::gaussian_points(4_000, 43));
    let gp = GridIndex::build(None, &parcels.objects, 0.3).unwrap();
    let gq = GridIndex::build(None, &pts.objects, 0.2).unwrap();
    let parcels_idx = IndexedDataset::new("parcels", DatasetKind::Polygons, gp);
    let pts_idx = IndexedDataset::new("p", DatasetKind::Points, gq);

    let out = join::join_indexed(&spade, &parcels_idx, &pts_idx, &QueryCtx::default()).unwrap();
    let j = out.stats.plan.join.expect("join plan must be reported");
    assert_eq!(
        out.stats.bytes_to_device, j.layer_est_bytes,
        "estimate drifted from the executor's transfers"
    );
}

// ---------------------------------------------------------------------------
// Aggregation is the join with a count fold.

use spade::engine::dataset::PreparedPolygonSet;
use spade::engine::query::Source;
use spade::engine::{aggregate, join};
use spade::geometry::MultiPolygon;

/// A 4 × 4 lattice of adjacent unit squares (ids 1–16), a triangle no
/// point reaches (17) and, last, a multipolygon (0) whose first part lies
/// apart and whose second overlaps four squares: the layer index keeps the
/// higher id where objects overlap, so the two parts land in different
/// layers.
fn count_polygons() -> Vec<(u32, Geometry)> {
    let square =
        |x: f64, y: f64| Polygon::rect(BBox::new(Point::new(x, y), Point::new(x + 1.0, y + 1.0)));
    let mut objects: Vec<(u32, Geometry)> = (0..16)
        .map(|i| (i + 1, square((i % 4) as f64, (i / 4) as f64).into()))
        .collect();
    let far = [(10.0, 10.0), (11.0, 10.0), (10.0, 11.0)].map(|(x, y)| Point::new(x, y));
    objects.push((17, Polygon::new(far.to_vec()).into()));
    let parts = vec![square(6.0, 0.0), square(0.5, 0.5)];
    objects.push((0, Geometry::MultiPolygon(MultiPolygon::new(parts))));
    objects
}

/// Points on the lattice's shared edges and vertices and on the
/// overlapping part's edges, where only the boundary index decides.
fn boundary_points() -> Vec<Point> {
    let mut pts = Vec::new();
    for i in 0..=8 {
        for j in 0..=8 {
            pts.push(Point::new(i as f64 / 2.0, j as f64 / 2.0));
        }
    }
    pts.extend(
        [(1.0, 0.5), (0.5, 1.25), (1.5, 0.75), (6.0, 0.5), (7.0, 1.0)]
            .map(|(x, y)| Point::new(x, y)),
    );
    pts
}

/// `objects` in memory, on a grid, and on a grid that holds all but the
/// last `staged` objects, which are staged as inserts.
fn count_sources(
    name: &str,
    kind: DatasetKind,
    objects: &[(u32, Geometry)],
    staged: usize,
) -> (Arc<Dataset>, IndexedDataset, IndexedDataset) {
    let memory = Arc::new(Dataset::from_objects(name, kind, objects.to_vec()));
    let grid = |objects: &[(u32, Geometry)]| GridIndex::build(None, objects, 1.5).unwrap();
    let indexed = IndexedDataset::new(name, kind, grid(objects));
    let (base, delta) = objects.split_at(objects.len() - staged);
    let with_delta = IndexedDataset::new(name, kind, grid(base));
    for (id, geom) in delta {
        with_delta.insert(*id, geom.clone());
    }
    (memory, indexed, with_delta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On every source — in memory, indexed, indexed with staged inserts —
    /// the aggregation equals the per-polygon count of the join's pairs,
    /// every polygon id present (the unreached triangle at 0), over
    /// generic points and points on shared edges and vertices; over the
    /// generic points alone it also equals `brute::aggregate`.
    #[test]
    fn count_is_the_join_folded_per_polygon(
        generic in prop::collection::vec(unit_point(), 20..300),
    ) {
        let spade = engine();
        let polygons = count_polygons();
        let poly_set = Dataset::from_objects("polys", DatasetKind::Polygons, polygons.clone());
        let set = PreparedPolygonSet::prepare(&spade.pipeline, &poly_set, spade.config.layer_resolution());
        let layer_of: Vec<(u32, u32)> = (0..set.layers.layers.len() as u32)
            .flat_map(|l| set.layer_polygons(l as usize).iter().map(move |p| (p.id, l)))
            .filter(|(id, _)| *id == 0)
            .collect();
        prop_assert!(layer_of.len() == 2 && layer_of[0].1 != layer_of[1].1, "{:?}", layer_of);

        let generic: Vec<Point> = generic.iter().map(|p| Point::new(p.x * 4.0, p.y * 4.0)).collect();
        // The independent answer over the generic points: every part of an
        // object counts for its id (the multipolygon's parts are disjoint).
        let parts = poly_set.as_polygons();
        let shapes: Vec<Polygon> = parts.iter().map(|(_, p)| (*p).clone()).collect();
        let mut brute_counts = std::collections::BTreeMap::<u32, u64>::new();
        for ((id, _), (_, c)) in parts.iter().zip(brute::aggregate(&shapes, &generic)) {
            *brute_counts.entry(*id).or_insert(0) += c;
        }
        let brute_counts: Vec<(u32, u64)> = brute_counts.into_iter().collect();

        let ctx = QueryCtx::default();
        for points in [generic.clone(), [generic.clone(), boundary_points()].concat()] {
            let point_objects: Vec<(u32, Geometry)> =
                (0..).zip(points.iter().map(|&p| Geometry::Point(p))).collect();
            let polys = count_sources("polys", DatasetKind::Polygons, &polygons, 1);
            let pts = count_sources("pts", DatasetKind::Points, &point_objects, 7);
            let sources: [(Source<'_>, Source<'_>); 3] = [
                ((&polys.0).into(), (&pts.0).into()),
                ((&polys.1).into(), (&pts.1).into()),
                ((&polys.2).into(), (&pts.2).into()),
            ];
            for (i, (l, r)) in sources.into_iter().enumerate() {
                let counts = aggregate::aggregate_indexed(&spade, l, r, &ctx).unwrap().result;
                let pairs = join::join_indexed(&spade, l, r, &ctx).unwrap().result;
                let mut want: std::collections::BTreeMap<u32, u64> =
                    polygons.iter().map(|(id, _)| (*id, 0)).collect();
                for (id, _) in &pairs {
                    *want.get_mut(id).unwrap() += 1;
                }
                prop_assert_eq!(&counts, &want.into_iter().collect::<Vec<_>>(), "source {}", i);
                prop_assert_eq!(counts.len(), polygons.len());
                prop_assert_eq!(counts[17], (17, 0));
                if points.len() == generic.len() {
                    prop_assert_eq!(&counts, &brute_counts, "source {}", i);
                }
            }
        }
    }
}
