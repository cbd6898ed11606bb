//! kNN queries (§5.2).
//!
//! The kNN plan looks wasteful from a CPU perspective but is built to suit
//! the GPU: generate `c` concentric circles with log-spaced radii
//! `r_i = r_max / α^i`, run one aggregation pass counting the points inside
//! each circle (drawing all circles costs one pass), pick the smallest
//! radius holding at least `k` points, run a distance selection with that
//! radius, and sort the (small) candidate set by exact distance.
//!
//! Both passes are per-cell kernels with distributive folds (a histogram
//! sum, a candidate list), so the plan is a count bound from the manifest
//! plus two runs of the one cell walk (`select::CellWalk`) under the same
//! snapshot; data in memory is the walk's one-slot case, its bound taken
//! from the rectangle of its extent. The kNN join is the same recipe one
//! arity up: a count bound per left slot, then two runs of the cell-pair
//! walk (`join::PairWalk`).

use crate::ctx::QueryCtx;
use crate::dataset::{DatasetKind, ReadView};
use crate::distance::{build_distance_constraint, hulls_within, DistanceConstraint, ResidentDisks};
use crate::engine::{Constraint, Spade};
use crate::join::PairWalk;
use crate::prefetch::StreamStats;
use crate::query::Source;
use crate::select::{select_point_positions, CellWalk};
use crate::stats::QueryOutput;
use spade_canvas::algebra;
use spade_geometry::{BBox, Point};

/// Ratio `α` between consecutive circle radii (`r_i = r_max / α^i`).
const KNN_ALPHA: f64 = 1.5;

/// The distance canvas of "within `r` of `q`".
fn circle(spade: &Spade, q: Point, r: f64, resolution: u32) -> Constraint {
    build_distance_constraint(spade, &DistanceConstraint::Point(q), r, resolution)
}

/// The circle radii `r_i = r_max / α^i` for `i < circles`, descending:
/// the buckets `count_circles` fills and the radii `radius_for` picks from,
/// computed once per query (or per left slot of a join).
pub(crate) fn circle_radii(r_max: f64, circles: usize) -> Vec<f64> {
    (0..circles)
        .map(|i| r_max / KNN_ALPHA.powi(i as i32))
        .collect()
}

/// The circle-aggregation kernel over one cell: each point emits the index
/// of the smallest circle of `radii` (from `circle_radii`) containing it,
/// into `hist`. One rendering pass regardless of the number of circles
/// (§5.2).
pub(crate) fn count_circles(
    spade: &Spade,
    pts: &[(u32, Point)],
    q: Point,
    radii: &[f64],
    hist: &mut [u64],
) {
    let vp = spade.viewport_for(&BBox::new(q, q).inflate(radii[0]));
    let emitted = algebra::map_emit(&spade.pipeline, pts, vp, false, |frag, out| {
        let d = pts[frag.attrs[1] as usize].1.dist(q);
        // The radii descend, so the circles holding the point, by the exact
        // test's own comparison `d ≤ r_i`, are a prefix of them; the
        // smallest is the prefix's last.
        let held = radii.partition_point(|&r| d <= r);
        if held > 0 {
            out.push([held as u32 - 1, 0, 0, 0]);
        }
    });
    for v in emitted.values {
        hist[v[0] as usize] += 1;
    }
}

/// The smallest radius whose circle holds at least `k` points:
/// agg(circle i) = points within r_i = Σ_{j ≥ i} hist[j].
pub(crate) fn radius_for(hist: &[u64], radii: &[f64], k: usize) -> f64 {
    let mut cum = 0u64;
    for i in (0..hist.len()).rev() {
        cum += hist[i];
        if cum >= k as u64 {
            return radii[i];
        }
    }
    radii[0] // fewer than k points in total: take everything
}

/// The distance-selection kernel over one cell: `(id, exact distance)` of
/// the points inside the distance canvas `within` around `q`. The kernel
/// answers positions, so the distance needs no lookup by id.
fn push_within(
    spade: &Spade,
    pts: &[(u32, Point)],
    within: &Constraint,
    q: Point,
    out: &mut Vec<(u32, f64)>,
) {
    out.extend(
        select_point_positions(spade, pts, within)
            .into_iter()
            .map(|i| (pts[i as usize].0, pts[i as usize].1.dist(q))),
    );
}

/// Keep the `k` nearest candidates, ordered by `(distance, id)`.
fn rank(candidates: &mut Vec<(u32, f64)>, k: usize) {
    candidates.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    candidates.truncate(k);
}

/// A zero-I/O upper bound on the distance of the `k`-th neighbour of every
/// point in the convex hull of `from`, from the manifest alone. Distance
/// is convex in either endpoint, so over two convex sets it peaks at a
/// vertex pair: every point of a slot lies within `far` — the largest
/// `from`-vertex-to-hull-vertex distance — of every point of `from`'s
/// hull. So the `slots` in scope (the memory slot is one of them) sorted
/// by `far`, cut at the prefix whose live object counts reach `k`, put at
/// least `k` points within the prefix's last `far`; an under-count only
/// lengthens the prefix. If the counts never reach `k`, the last distance
/// covers everything the walk can see.
pub(crate) fn count_bound(
    view: &ReadView<'_>,
    slots: impl Iterator<Item = u32>,
    from: &[Point],
    k: usize,
) -> f64 {
    let far = |vertices: &[Point]| {
        let dists = vertices
            .iter()
            .flat_map(|v| from.iter().map(|p| v.dist(*p)));
        dists.fold(0.0, f64::max)
    };
    let mut cells: Vec<(f64, usize)> = slots
        .map(|s| (far(&view.hull(s).exterior.points), view.live_objects(s)))
        .collect();
    cells.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut live = 0;
    let reached = cells.iter().find(|(_, n)| {
        live += n;
        live >= k
    });
    let far = reached.or(cells.last()).map_or(0.0, |c| c.0);
    // Widened by a rounding margin: the points at exactly `far` must pass
    // the `d ≤ r_max` tests of both kernels.
    (far * (1.0 + 1e-9)).max(1e-12)
}

/// kNN selection: the `k` points of `data` closest to `q`, with their
/// distances, nearest first (ties by id). A count bound `r_ub` on the
/// `k`-th distance from the manifest (no I/O), then two runs of the cell
/// walk under one snapshot — the circle histogram with `r_max = r_ub`
/// over the cells whose hull is within `r_ub` (no point outside them is),
/// then the distance selection with the radius the histogram picked,
/// folding `(id, distance)` candidates — then the exact sort. `ctx.cancel`
/// is polled at every slot boundary of both passes.
///
/// Under a cell scope the bound and both passes see only the slots of
/// `CellWalk::slots`, so the output is this scope's exact local top-k
/// by `(distance, id)`. Any member of the *global* top-k living in this
/// scope is necessarily in the local top-k (fewer than `k` objects beat it
/// anywhere), so concatenating per-scope results over a covering, disjoint
/// scope set, re-sorting by `(distance, id)` and truncating to `k`
/// reproduces the full-scope answer exactly.
pub fn knn_select_indexed<'a>(
    spade: &Spade,
    data: impl Into<Source<'a>>,
    q: Point,
    k: usize,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<Vec<(u32, f64)>>> {
    let data = data.into();
    data.require(DatasetKind::Points, "a kNN selection")?;
    let mut qspan = crate::trace::span("query.knn");
    qspan.attr("k", k as u64);
    let measure = spade.begin();
    let walk = CellWalk::plan(data, ctx)?;
    let mut stream = StreamStats::default();
    let mut result = Vec::new();
    if k > 0 {
        let r_max = count_bound(&walk.view, walk.slots(), &[q], k);
        // The bound's circle only gates cell loads: a coarse canvas.
        let bound = circle(spade, q, r_max, spade.config.filter_resolution());
        let radii = circle_radii(r_max, spade.config.knn_circles());
        let mut hist = vec![0u64; radii.len()];
        stream += walk.run(spade, ctx, &bound, &bound, |cell| {
            count_circles(spade, &cell.as_points(), q, &radii, &mut hist)
        })?;
        let radius = radius_for(&hist, &radii, k);
        let within = circle(spade, q, radius, spade.config.distance_resolution());
        stream += walk.run(spade, ctx, &within, &within, |cell| {
            push_within(spade, &cell.as_points(), &within, q, &mut result)
        })?;
        rank(&mut result, k);
    }
    let n = result.len() as u64;
    qspan.attr("cells", stream.cells);
    qspan.attr("results", n);
    let stats = measure.finish(spade, &stream, &walk.deltas, n);
    Ok(QueryOutput { result, stats })
}

/// The type-2 constraints of a left cell, numbered by position: the
/// kernel's hits then index the cell directly, with no lookup by id.
fn disks_by_position(left: &[(u32, Point)], radii: &[f64]) -> Vec<(u32, Point, f64)> {
    let disks = (0..).zip(left).zip(radii);
    disks.map(|((i, &(_, p)), &r)| (i, p, r)).collect()
}

/// Fold the type-2 kernel's `(left position, right position)` hits on one
/// cell pair into `(left id, right id, exact distance)` candidates.
fn push_neighbours(
    hits: crate::join::Pairs,
    left: &[(u32, Point)],
    right: &[(u32, Point)],
    out: &mut Vec<(u32, u32, f64)>,
) {
    out.extend(hits.into_iter().map(|(i, j)| {
        let ((l, p), (r, q)) = (left[i as usize], right[j as usize]);
        (l, r, p.dist(q))
    }));
}

/// Group the candidates by left id and keep each group's `k` nearest,
/// ordered by `(distance, right id)`.
fn rank_groups(found: &mut Vec<(u32, u32, f64)>, k: usize) {
    found.sort_by(|a, b| (a.0.cmp(&b.0)).then(a.2.total_cmp(&b.2).then(a.1.cmp(&b.1))));
    found.dedup();
    let (mut group, mut kept) = (None, 0);
    found.retain(|&(l, ..)| {
        if group != Some(l) {
            (group, kept) = (Some(l), 0);
        }
        kept += 1;
        kept <= k
    });
}

/// kNN join: for each point of `d1`, its `k` nearest neighbours in `d2`,
/// as `(d1 id, d2 id, distance)` triples grouped by `d1` id —
/// [`knn_select_indexed`]'s recipe one arity up. A
/// count bound per left slot (no I/O) picks its candidate right slots —
/// no point outside them is among the `k` nearest of a point in its hull
/// — then two runs of the pair walk under one pair of snapshots: every
/// left point's circle histogram, collapsed to a radius when its slot
/// leaves residency (the walk is left-major: one slot's histograms are
/// live at a time), then the type-2 distance kernel with those radii,
/// its candidates ranked at the end.
///
/// Under [`crate::scope::Scope::Pairs`] the bound and both passes see
/// only the right cells listed for a left cell (and, for the owner of the
/// deltas, the memory slots their filter pairs it with), so the output is
/// every left point's exact top-k among them, and re-ranking the
/// concatenated partials of a covering pair set reproduces the full
/// answer (the merge argument of [`knn_select_indexed`]).
pub fn knn_join_indexed<'a>(
    spade: &Spade,
    d1: impl Into<Source<'a>>,
    d2: impl Into<Source<'a>>,
    k: usize,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<Vec<(u32, u32, f64)>>> {
    let (d1, d2) = (d1.into(), d2.into());
    d1.require(DatasetKind::Points, "a kNN join")?;
    d2.require(DatasetKind::Points, "a kNN join")?;
    let mut qspan = crate::trace::span("query.knn_join");
    qspan.attr("k", k as u64);
    let measure = spade.begin();
    let walk = PairWalk::plan(d1, d2, ctx, |(v1, lefts), (v2, rights)| {
        hulls_within(spade, (v1, lefts), (v2, rights), |l| {
            count_bound(v2, v2.slots(true), &v1.hull(l).exterior.points, k)
        })
    })?;
    let mut stream = StreamStats::default();
    let mut result = Vec::new();
    if k > 0 {
        let (v1, v2) = (&walk.view1, &walk.view2);
        let memory_slot = v1.grid.num_cells();
        let slot = |l: Option<u32>| l.map_or(memory_slot, |l| l as usize);
        // The bound of a left slot over the right slots the walk pairs it
        // with.
        let r_max = |l: usize| {
            let paired = walk.cell_pairs.iter().filter(|p| p.0 as usize == l);
            let hull = v1.hull(l as u32);
            count_bound(v2, paired.map(|p| p.1), &hull.exterior.points, k)
        };
        let mut radii: Vec<Vec<f64>> = vec![Vec::new(); memory_slot + 1];
        // The left slot being counted: its circles' radii and histograms.
        type Live = Option<(usize, Vec<f64>, Vec<Vec<u64>>)>;
        let mut live: Live = None;
        let collapse = |live: Live, radii: &mut [Vec<f64>]| {
            if let Some((slot, rings, hists)) = live {
                radii[slot] = (hists.iter().map(|h| radius_for(h, &rings, k))).collect();
            }
        };
        let circles = spade.config.knn_circles();
        let counting = walk.run(spade, ctx, |left, right, l| {
            let (left, l) = (left.points(), slot(l));
            if live.as_ref().map(|live| live.0) != Some(l) {
                collapse(live.take(), &mut radii);
                let hists = vec![vec![0; circles]; left.len()];
                live = Some((l, circle_radii(r_max(l), circles), hists));
            }
            let (_, rings, hists) = live.as_mut().expect("set above");
            for (&(_, p), hist) in left.iter().zip(hists) {
                count_circles(spade, right.points(), p, rings, hist);
            }
        });
        stream += counting?;
        collapse(live.take(), &mut radii);
        let mut disks = ResidentDisks::default();
        let ranking = walk.run(spade, ctx, |left, right, l| {
            let (left, right) = (left.points(), right.points());
            let constraints = || disks_by_position(left, &radii[slot(l)]);
            let hits = disks.within_radii(spade, l, constraints, right);
            push_neighbours(hits, left, right, &mut result);
        });
        stream += ranking?;
        rank_groups(&mut result, k);
    }
    let n = result.len() as u64;
    qspan.attr("cells", stream.cells);
    qspan.attr("results", n);
    let stats = measure.finish(spade, &stream, &walk.deltas, n);
    Ok(QueryOutput { result, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::dataset::Dataset;
    use std::sync::Arc;

    fn engine() -> Spade {
        Spade::new(EngineConfig::test_small())
    }

    /// A kNN selection over `data` registered in memory.
    fn knn_select_memory(
        s: &Spade,
        data: &Dataset,
        q: Point,
        k: usize,
    ) -> QueryOutput<Vec<(u32, f64)>> {
        let data = Arc::new(data.clone());
        knn_select_indexed(s, &data, q, k, &QueryCtx::default()).unwrap()
    }

    /// A kNN join of `d1` and `d2` registered in memory.
    fn knn_join_memory(
        s: &Spade,
        d1: &Dataset,
        d2: &Dataset,
        k: usize,
    ) -> QueryOutput<Vec<(u32, u32, f64)>> {
        let (d1, d2) = (Arc::new(d1.clone()), Arc::new(d2.clone()));
        knn_join_indexed(s, &d1, &d2, k, &QueryCtx::default()).unwrap()
    }

    fn scatter(n: usize, extent: f64, seed: u64) -> Vec<Point> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = ((s >> 33) % 1_000_000) as f64 / 1_000_000.0 * extent;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = ((s >> 33) % 1_000_000) as f64 / 1_000_000.0 * extent;
                Point::new(x, y)
            })
            .collect()
    }

    fn oracle_knn(pts: &[Point], q: Point, k: usize) -> Vec<(u32, f64)> {
        let mut all: Vec<(u32, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p.dist(q)))
            .collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        all.truncate(k);
        all
    }

    fn indexed(pts: Vec<Point>, cell_size: f64) -> crate::dataset::IndexedDataset {
        let data = Dataset::from_points("p", pts);
        let grid = spade_index::GridIndex::build(None, &data.objects, cell_size).unwrap();
        crate::dataset::IndexedDataset::new("p", crate::dataset::DatasetKind::Points, grid)
    }

    #[test]
    fn knn_select_matches_oracle() {
        let s = engine();
        let pts = scatter(1000, 100.0, 61);
        let data = Dataset::from_points("p", pts.clone());
        let q = Point::new(42.0, 58.0);
        for k in [1, 5, 20] {
            let out = knn_select_memory(&s, &data, q, k);
            let oracle = oracle_knn(&pts, q, k);
            assert_eq!(out.result.len(), k, "k={k}");
            // Distances must agree (ids may tie at equal distance).
            for (got, want) in out.result.iter().zip(&oracle) {
                assert!(
                    (got.1 - want.1).abs() < 1e-9,
                    "k={k}: got {got:?}, want {want:?}"
                );
            }
        }
    }

    #[test]
    fn a_point_at_a_radius_counts_in_its_circle() {
        // A point exactly at `r_i` is within circle `i` by the exact test, so
        // circle `i` is the smallest holding it; one at the next `f64` above
        // is not, so it lands in circle `i - 1`, or in none past `r_max`.
        let s = engine();
        let (q, r_max) = (Point::new(0.0, 0.0), 3.7);
        let radii = circle_radii(r_max, s.config.knn_circles());
        assert!(radii.len() > 8 && radii.windows(2).all(|w| w[1] < w[0]));
        let bucket_of = |d: f64| {
            let mut hist = vec![0u64; radii.len()];
            count_circles(&s, &[(0, Point::new(d, 0.0))], q, &radii, &mut hist);
            let held: Vec<usize> = (0..hist.len()).filter(|&i| hist[i] > 0).collect();
            assert!(
                held.len() <= 1 && hist.iter().sum::<u64>() <= 1,
                "d={d}: {hist:?}"
            );
            held.first().copied()
        };
        for (i, &r) in radii.iter().enumerate() {
            assert_eq!(bucket_of(r), Some(i), "at r_{i}");
            assert_eq!(bucket_of(r.next_up()), i.checked_sub(1), "just past r_{i}");
        }
        assert_eq!(bucket_of(0.0), Some(radii.len() - 1));
        // `radius_for` answers from the same radii.
        let mut hist = vec![0u64; radii.len()];
        hist[4] = 2;
        hist[7] = 1;
        assert_eq!(radius_for(&hist, &radii, 1), radii[7]);
        assert_eq!(radius_for(&hist, &radii, 3), radii[4]);
        assert_eq!(radius_for(&hist, &radii, 4), r_max);
    }

    #[test]
    fn knn_select_k_larger_than_data() {
        let s = engine();
        let pts = scatter(10, 50.0, 67);
        let data = Dataset::from_points("p", pts);
        let out = knn_select_memory(&s, &data, Point::new(25.0, 25.0), 50);
        assert_eq!(out.result.len(), 10);
        // Sorted by distance.
        assert!(out.result.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn knn_select_query_on_a_point() {
        let s = engine();
        let pts = scatter(200, 50.0, 71);
        let q = pts[17];
        let data = Dataset::from_points("p", pts);
        let out = knn_select_memory(&s, &data, q, 1);
        assert_eq!(out.result[0].0, 17);
        assert_eq!(out.result[0].1, 0.0);
    }

    #[test]
    fn knn_join_matches_oracle() {
        let s = engine();
        let left = scatter(25, 100.0, 73);
        let right = scatter(400, 100.0, 79);
        let d1 = Dataset::from_points("l", left.clone());
        let d2 = Dataset::from_points("r", right.clone());
        let k = 4;
        let out = knn_join_memory(&s, &d1, &d2, k);
        assert_eq!(out.result.len(), 25 * k);
        for (i, l) in left.iter().enumerate() {
            let oracle = oracle_knn(&right, *l, k);
            let got: Vec<(u32, u32, f64)> = out
                .result
                .iter()
                .filter(|(a, _, _)| *a == i as u32)
                .copied()
                .collect();
            assert_eq!(got.len(), k);
            for (g, w) in got.iter().zip(&oracle) {
                assert!((g.2 - w.1).abs() < 1e-9, "left {i}: {g:?} vs {w:?}");
            }
        }
    }

    #[test]
    fn knn_select_indexed_matches_in_memory() {
        let s = engine();
        let pts = scatter(800, 100.0, 89);
        let data = Dataset::from_points("p", pts.clone());
        let indexed = indexed(pts, 30.0);
        let q = Point::new(37.0, 63.0);
        for k in [1usize, 8, 30] {
            let mem = knn_select_memory(&s, &data, q, k);
            let ooc = knn_select_indexed(&s, &indexed, q, k, &QueryCtx::default()).unwrap();
            assert_eq!(ooc.result.len(), mem.result.len(), "k={k}");
            for (a, b) in ooc.result.iter().zip(&mem.result) {
                assert!((a.1 - b.1).abs() < 1e-9, "k={k}: {a:?} vs {b:?}");
            }
            assert!(ooc.stats.cells_loaded > 0);
        }
    }

    /// The count bound keeps both passes to the cells around `q`, every
    /// cell touch is a prefetch hit or miss, and a repeat is served from
    /// the cell cache.
    #[test]
    fn indexed_knn_reads_only_cells_within_the_bound() {
        let s = engine();
        // 9 × 9 cells of 25 points each.
        let lattice = (0..45 * 45)
            .map(|i| Point::new((2 * (i % 45) + 1) as f64, (2 * (i / 45) + 1) as f64))
            .collect();
        let data = indexed(lattice, 10.0);
        let cells = data.grid().num_cells() as u64;
        assert_eq!(cells, 81);
        let q = Point::new(45.0, 45.0); // the centre of cell (4, 4)
        let cold = knn_select_indexed(&s, &data, q, 1, &QueryCtx::default()).unwrap();
        assert_eq!(cold.result.len(), 1);
        assert_eq!(cold.result[0].1, 0.0);
        let st = &cold.stats;
        assert!(st.cells_loaded > 0 && st.cells_loaded < cells, "{st:?}");
        assert_eq!(st.prefetch_hits + st.prefetch_misses, st.cells_loaded);
        assert!(st.bytes_from_disk > 0);
        let warm = knn_select_indexed(&s, &data, q, 1, &QueryCtx::default()).unwrap();
        assert_eq!(warm.result, cold.result);
        assert_eq!(warm.stats.cells_loaded, st.cells_loaded);
        assert_eq!(warm.stats.bytes_from_disk, 0);
        assert_eq!(warm.stats.cache_hits, warm.stats.cells_loaded);
    }

    /// The two passes as `knn_select_indexed` drives them, with a hook
    /// between them and one after every cell of the second — places where
    /// a test can write or cancel deterministically.
    fn two_passes(
        s: &Spade,
        walk: &CellWalk<'_>,
        ctx: &QueryCtx,
        (q, k): (Point, usize),
        between: impl FnOnce(),
        mut in_second: impl FnMut(),
    ) -> spade_storage::Result<Vec<(u32, f64)>> {
        let r_max = count_bound(&walk.view, walk.slots(), &[q], k);
        let bound = circle(s, q, r_max, s.config.filter_resolution());
        let radii = circle_radii(r_max, s.config.knn_circles());
        let mut hist = vec![0u64; radii.len()];
        walk.run(s, ctx, &bound, &bound, |cell| {
            count_circles(s, &cell.as_points(), q, &radii, &mut hist)
        })?;
        between();
        let radius = radius_for(&hist, &radii, k);
        let within = circle(s, q, radius, s.config.distance_resolution());
        let mut got = Vec::new();
        walk.run(s, ctx, &within, &within, |cell| {
            push_within(s, &cell.as_points(), &within, q, &mut got);
            in_second();
        })?;
        rank(&mut got, k);
        Ok(got)
    }

    /// Writes landing between the two passes — a replace that moves a
    /// top-k id far away and a delete of another — must not show: both
    /// passes read the walk's one snapshot.
    #[test]
    fn both_passes_answer_from_one_snapshot() {
        let s = engine();
        let pts = scatter(800, 100.0, 97);
        let data = indexed(pts.clone(), 30.0);
        let (q, k) = (Point::new(37.0, 63.0), 8);
        let before = oracle_knn(&pts, q, k);
        let ctx = QueryCtx::default();
        let walk = CellWalk::plan((&data).into(), &ctx).unwrap();
        let write = || {
            let moved = spade_geometry::Geometry::Point(Point::new(99.0, 1.0));
            data.insert_at(1, before[0].0, moved);
            data.delete_at(2, before[1].0);
        };
        let got = two_passes(&s, &walk, &ctx, (q, k), write, || ()).unwrap();
        assert_eq!(got, before);
        drop(walk);

        // The next query sees both writes.
        let mut after: Vec<(u32, f64)> = oracle_knn(&pts, q, k + 2)
            .into_iter()
            .filter(|(id, _)| *id != before[0].0 && *id != before[1].0)
            .collect();
        after.truncate(k);
        let fresh = knn_select_indexed(&s, &data, q, k, &ctx).unwrap();
        assert_eq!(fresh.result, after);
    }

    /// Cancelling from inside the second pass: the walk stops at the next
    /// cell boundary and frees the distance canvas itself.
    #[test]
    fn cancel_inside_the_second_pass_frees_the_canvas() {
        let s = engine();
        let data = indexed(scatter(800, 100.0, 101), 30.0);
        let ctx = QueryCtx::default();
        let walk = CellWalk::plan((&data).into(), &ctx).unwrap();
        let mut refined = 0;
        let cancel = || {
            refined += 1;
            ctx.cancel.cancel();
        };
        let query = (Point::new(50.0, 50.0), 400);
        let res = two_passes(&s, &walk, &ctx, query, || (), cancel);
        assert_eq!(res.unwrap_err(), spade_storage::StorageError::Cancelled);
        assert_eq!(refined, 1);
        assert_eq!(s.device.used(), 0);
    }

    #[test]
    fn knn_zero_k_and_empty() {
        let s = engine();
        let data = Dataset::from_points("p", scatter(10, 10.0, 83));
        assert!(knn_select_memory(&s, &data, Point::ZERO, 0)
            .result
            .is_empty());
        let empty = Dataset::from_points("e", vec![]);
        assert!(knn_select_memory(&s, &empty, Point::ZERO, 5)
            .result
            .is_empty());
        assert!(knn_join_memory(&s, &empty, &data, 3).result.is_empty());
    }
}
