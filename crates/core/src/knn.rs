//! kNN queries (§5.2).
//!
//! The kNN plan looks wasteful from a CPU perspective but is built to suit
//! the GPU: generate `c` concentric circles with log-spaced radii
//! `r_i = r_max / α^i`, run one aggregation pass counting the points inside
//! each circle (drawing all circles costs one pass), pick the smallest
//! radius holding at least `k` points, run a distance selection with that
//! radius, and sort the (small) candidate set by exact distance.

use crate::ctx::QueryCtx;
use crate::dataset::Dataset;
use crate::distance::{distance_join_multi, distance_select, DistanceConstraint};
use crate::engine::Spade;
use crate::stats::QueryOutput;
use spade_canvas::algebra;
use spade_geometry::Point;
use spade_gpu::{Primitive, Viewport};
use std::time::Duration;

/// Ratio `α` between consecutive circle radii (`r_i = r_max / α^i`).
const KNN_ALPHA: f64 = 1.5;

/// kNN selection: the `k` points of `data` closest to `q`, with their
/// distances, nearest first.
pub fn knn_select(
    spade: &Spade,
    data: &Dataset,
    q: Point,
    k: usize,
) -> QueryOutput<Vec<(u32, f64)>> {
    let mut qspan = crate::trace::span("query.knn");
    qspan.attr("k", k as u64);
    let measure = spade.begin();
    let pts = data.as_points();
    if pts.is_empty() || k == 0 {
        let stats = measure.finish(spade, Duration::ZERO, 0, Duration::ZERO, 0, 0);
        return QueryOutput {
            result: Vec::new(),
            stats,
        };
    }

    // Step 1: circle aggregation — count points per log-spaced radius.
    let r_max = data.extent.max_dist_to_point(q).max(1e-12);
    let radius = knn_radius(spade, &pts, q, r_max, k);

    // Step 2: distance selection with the chosen radius.
    let sel = distance_select(spade, data, &DistanceConstraint::Point(q), radius);

    // Step 3: sort by exact distance, keep k.
    let mut with_dist: Vec<(u32, f64)> = sel
        .result
        .into_iter()
        .map(|id| {
            let p = pts[pts.iter().position(|(i, _)| *i == id).expect("id")].1;
            (id, p.dist(q))
        })
        .collect();
    with_dist.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    with_dist.truncate(k);

    let n = with_dist.len() as u64;
    qspan.attr("results", n);
    let stats = measure.finish(spade, Duration::ZERO, 0, Duration::ZERO, 0, n);
    QueryOutput {
        result: with_dist,
        stats,
    }
}

/// The circle-aggregation step: the smallest `r_i = r_max / α^i` whose
/// circle holds at least `k` points. One rendering pass over the points
/// computes the bucket histogram (the aggregation plan of §5.2 needs one
/// pass regardless of the number of circles).
fn knn_radius(spade: &Spade, pts: &[(u32, Point)], q: Point, r_max: f64, k: usize) -> f64 {
    let circles = spade.config.knn_circles();
    let region = spade_geometry::BBox::new(q, q).inflate(r_max);
    let vp = spade.viewport_for(&region);

    let prims: Vec<Primitive> = pts
        .iter()
        .enumerate()
        .map(|(i, (_, p))| Primitive::point(*p, [1, i as u32, 0, 0]))
        .collect();
    // Each point emits the index of the smallest circle containing it.
    let emitted = emit_buckets(spade, &prims, pts, q, r_max, circles, vp);

    let mut hist = vec![0u64; circles];
    for b in emitted {
        hist[b as usize] += 1;
    }
    // agg(circle i) = points within r_i = Σ_{j ≥ i} hist[j]; pick the
    // largest i (smallest radius) with agg ≥ k.
    let mut cum = 0u64;
    let mut best = 0usize;
    let mut found = false;
    for i in (0..circles).rev() {
        cum += hist[i];
        if cum >= k as u64 {
            best = i;
            found = true;
            break;
        }
    }
    if !found {
        // Fewer than k points in total: take everything.
        return r_max;
    }
    r_max / KNN_ALPHA.powi(best as i32)
}

fn emit_buckets(
    spade: &Spade,
    prims: &[Primitive],
    pts: &[(u32, Point)],
    q: Point,
    r_max: f64,
    circles: usize,
    vp: Viewport,
) -> Vec<u32> {
    let result = algebra::map_emit(&spade.pipeline, prims, vp, false, |frag, out| {
        let p = pts[frag.attrs[1] as usize].1;
        let d = p.dist(q);
        if d > r_max {
            return;
        }
        // Smallest circle containing the point: the largest i with
        // d ≤ r_max / α^i, i.e. i = ⌊log_α(r_max / d)⌋.
        let bucket = if d <= 0.0 {
            circles - 1
        } else {
            (((r_max / d).ln() / KNN_ALPHA.ln()).floor() as i64).clamp(0, circles as i64 - 1)
                as usize
        };
        out.push([bucket as u32, 0, 0, 0]);
    });
    result.values.into_iter().map(|v| v[0]).collect()
}

/// Out-of-core kNN selection: the circle-aggregation histogram is
/// distributive, so it accumulates per cell (each cell loaded once), the
/// radius falls out of the merged histogram, and the final distance
/// selection reuses the indexed path. `ctx.cancel` is polled at every cell
/// boundary of both the histogram pass and the nested distance selection.
///
/// Under a cell scope the histogram, the nested selection and the delta
/// merge all see only the scoped cells, so the output is this scope's
/// exact local top-k by `(distance, id)`. Any member of the *global* top-k
/// living in this scope is necessarily in the local top-k (fewer than `k`
/// objects beat it anywhere), so concatenating per-scope results over a
/// covering, disjoint scope set, re-sorting by `(distance, id)` and
/// truncating to `k` reproduces the full-scope answer exactly.
pub fn knn_select_indexed(
    spade: &Spade,
    data: &crate::dataset::IndexedDataset,
    q: Point,
    k: usize,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<Vec<(u32, f64)>>> {
    let scope = ctx.scope.cells()?;
    let mut qspan = crate::trace::span("query.knn.indexed");
    qspan.attr("k", k as u64);
    let measure = spade.begin();
    let _stat_scope = crate::optimizer::stats::scope(data.uid());
    let view = data.read_view();
    crate::explain::note_view(&view);
    if k == 0 || (view.grid.num_objects() == 0 && view.delta.staged.is_empty()) {
        let stats = measure.finish(spade, Duration::ZERO, 0, Duration::ZERO, 0, 0);
        return Ok(QueryOutput {
            result: Vec::new(),
            stats,
        });
    }
    // r_max must cover the staged writes too — a freshly inserted point
    // can lie outside every cell's bbox.
    let mut extent = view.delta.bbox();
    for cell in view.grid.cells() {
        extent = extent.union(&cell.bbox());
    }
    let r_max = extent.max_dist_to_point(q).max(1e-12);
    let circles = spade.config.knn_circles();
    let region = spade_geometry::BBox::new(q, q).inflate(r_max);
    let vp = spade.viewport_for(&region);

    // Per-cell histogram accumulation: one pipelined pass over every cell.
    // The pass also warms the cell cache, so the distance selection below
    // re-reads its candidate cells from memory instead of disk.
    let sequence: Vec<(usize, usize)> = (0..view.grid.num_cells())
        .filter(|&i| scope.contains(i as u32))
        .map(|i| (0, i))
        .collect();
    let mut hist = vec![0u64; circles];
    let mut positions: std::collections::HashMap<u32, Point> = std::collections::HashMap::new();
    let stream = crate::prefetch::stream_cells(
        spade.config.prefetch_depth,
        spade.config.cell_cache_bytes,
        &[&view],
        &sequence,
        &ctx.cancel,
        |cell| {
            let _ = spade.device.upload(cell.bytes);
            spade.observed.observe_cell_load(data.uid(), cell.bytes);
            let pts = cell.data.as_points();
            let prims: Vec<Primitive> = pts
                .iter()
                .enumerate()
                .map(|(j, (_, p))| Primitive::point(*p, [1, j as u32, 0, 0]))
                .collect();
            for b in emit_buckets(spade, &prims, &pts, q, r_max, circles, vp) {
                hist[b as usize] += 1;
            }
            positions.extend(pts);
            spade.device.free(cell.bytes);
            Ok(())
        },
    )?;
    // The staged writes are one more "cell" of the distributive histogram.
    if scope.include_delta && view.has_delta() {
        let pts = view.delta_dataset().as_points();
        let prims: Vec<Primitive> = pts
            .iter()
            .enumerate()
            .map(|(j, (_, p))| Primitive::point(*p, [1, j as u32, 0, 0]))
            .collect();
        for b in emit_buckets(spade, &prims, &pts, q, r_max, circles, vp) {
            hist[b as usize] += 1;
        }
        positions.extend(pts);
    }
    let mut cum = 0u64;
    let mut radius = r_max;
    for i in (0..circles).rev() {
        cum += hist[i];
        if cum >= k as u64 {
            radius = r_max / KNN_ALPHA.powi(i as i32);
            break;
        }
    }

    // Indexed distance selection with the chosen radius (scoped to the
    // same cells as the histogram), then exact sort.
    let sel = crate::distance::distance_select_indexed(
        spade,
        data,
        &DistanceConstraint::Point(q),
        radius,
        ctx,
    )?;
    // Ids without a recorded position belong to writes that landed after
    // the histogram snapshot (the nested selection reads its own view);
    // dropping them keeps the answer consistent with our snapshot.
    let mut with_dist: Vec<(u32, f64)> = sel
        .result
        .into_iter()
        .filter_map(|id| positions.get(&id).map(|p| (id, p.dist(q))))
        .collect();
    with_dist.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    with_dist.truncate(k);

    let n = with_dist.len() as u64;
    let mut stats = measure.finish_streamed(spade, &stream, Duration::ZERO, n);
    stats.cells_loaded += sel.stats.cells_loaded;
    stats.bytes_from_disk += sel.stats.bytes_from_disk;
    stats.prefetch_hits += sel.stats.prefetch_hits;
    stats.prefetch_misses += sel.stats.prefetch_misses;
    stats.cache_hits += sel.stats.cache_hits;
    stats.io_hidden += sel.stats.io_hidden;
    // The nested selection contributed more hidden I/O: recompute the
    // residual so the components stay consistent with the wall total.
    stats.recompute_cpu();
    qspan.attr("cells", stats.cells_loaded);
    qspan.attr("results", n);
    Ok(QueryOutput {
        result: with_dist,
        stats,
    })
}

/// kNN join: for each point of `d1`, its `k` nearest neighbours in `d2`.
/// Returns `(d1 id, d2 id, distance)` triples grouped by `d1` id.
pub fn knn_join(
    spade: &Spade,
    d1: &Dataset,
    d2: &Dataset,
    k: usize,
) -> QueryOutput<Vec<(u32, u32, f64)>> {
    let mut qspan = crate::trace::span("query.knn_join");
    qspan.attr("k", k as u64);
    let measure = spade.begin();
    let left = d1.as_points();
    let right = d2.as_points();
    if left.is_empty() || right.is_empty() || k == 0 {
        let stats = measure.finish(spade, Duration::ZERO, 0, Duration::ZERO, 0, 0);
        return QueryOutput {
            result: Vec::new(),
            stats,
        };
    }

    // Step 1: a radius per left point via circle aggregation.
    let constraints: Vec<(u32, Point, f64)> = left
        .iter()
        .map(|&(id, p)| {
            let r_max = d2.extent.max_dist_to_point(p).max(1e-12);
            (id, p, knn_radius(spade, &right, p, r_max, k))
        })
        .collect();

    // Step 2: Type-2 distance join with the computed radii.
    let candidates = distance_join_multi(spade, &constraints, d2);

    // Step 3: sort each group by exact distance, keep k.
    let mut grouped: std::collections::BTreeMap<u32, Vec<(u32, f64)>> =
        std::collections::BTreeMap::new();
    let left_pos: std::collections::HashMap<u32, Point> = left.iter().copied().collect();
    let right_pos: std::collections::HashMap<u32, Point> = right.iter().copied().collect();
    for (l, r) in candidates.result {
        let d = left_pos[&l].dist(right_pos[&r]);
        grouped.entry(l).or_default().push((r, d));
    }
    let mut result = Vec::new();
    for (l, mut cands) in grouped {
        cands.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        cands.truncate(k);
        for (r, d) in cands {
            result.push((l, r, d));
        }
    }
    let n = result.len() as u64;
    qspan.attr("results", n);
    let stats = measure.finish(spade, Duration::ZERO, 0, Duration::ZERO, 0, n);
    QueryOutput { result, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;

    fn engine() -> Spade {
        Spade::new(EngineConfig::test_small())
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

    #[test]
    fn knn_select_matches_oracle() {
        let s = engine();
        let pts = scatter(1000, 100.0, 61);
        let data = Dataset::from_points("p", pts.clone());
        let q = Point::new(42.0, 58.0);
        for k in [1, 5, 20] {
            let out = knn_select(&s, &data, q, k);
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
    fn knn_select_k_larger_than_data() {
        let s = engine();
        let pts = scatter(10, 50.0, 67);
        let data = Dataset::from_points("p", pts);
        let out = knn_select(&s, &data, Point::new(25.0, 25.0), 50);
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
        let out = knn_select(&s, &data, q, 1);
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
        let out = knn_join(&s, &d1, &d2, k);
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
        let grid = spade_index::GridIndex::build(None, &data.objects, 30.0).unwrap();
        let indexed =
            crate::dataset::IndexedDataset::new("p", crate::dataset::DatasetKind::Points, grid);
        let q = Point::new(37.0, 63.0);
        for k in [1usize, 8, 30] {
            let mem = knn_select(&s, &data, q, k);
            let ooc = knn_select_indexed(&s, &indexed, q, k, &QueryCtx::default()).unwrap();
            assert_eq!(ooc.result.len(), mem.result.len(), "k={k}");
            for (a, b) in ooc.result.iter().zip(&mem.result) {
                assert!((a.1 - b.1).abs() < 1e-9, "k={k}: {a:?} vs {b:?}");
            }
            assert!(ooc.stats.cells_loaded > 0);
        }
    }

    #[test]
    fn knn_zero_k_and_empty() {
        let s = engine();
        let data = Dataset::from_points("p", scatter(10, 10.0, 83));
        assert!(knn_select(&s, &data, Point::ZERO, 0).result.is_empty());
        let empty = Dataset::from_points("e", vec![]);
        assert!(knn_select(&s, &empty, Point::ZERO, 5).result.is_empty());
        assert!(knn_join(&s, &empty, &data, 3).result.is_empty());
    }
}
