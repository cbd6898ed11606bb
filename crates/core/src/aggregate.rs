//! Spatial aggregation (§5.2).
//!
//! Counts the objects of a point data set per polygon. Two plans, as in
//! the paper:
//!
//! * the **generic plan** executes the join and then counts: results are
//!   geometric-transformed to a unique slot per polygon and a multiway
//!   blend (additive) produces the counts;
//! * the **point-optimized plan** (always chosen by the optimizer for
//!   point data) avoids materializing the join: an additive blend first
//!   builds per-pixel partial counts, interior pixels of each polygon then
//!   contribute their partials directly, and only boundary-pixel points
//!   run exact tests.

use crate::ctx::QueryCtx;
use crate::dataset::Dataset;
use crate::engine::Spade;
use crate::join::{hull_pairs, layer_constraints, PairWalk, Resident};
use crate::stats::QueryOutput;
use spade_canvas::algebra;
use spade_canvas::canvas::{classify, pixel_bound, pixel_id, PixelClass};
use spade_geometry::Point;
use spade_gpu::{BlendMode, DrawCall, Primitive};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Aggregation result: `(polygon id, point count)` in polygon-id order.
pub type Counts = Vec<(u32, u64)>;

/// The point-optimized aggregation plan (§5.2, plan 2): the one-pair case
/// of the out-of-core walk — each side prepared once, counted by
/// `count_cells`.
pub fn aggregate_points(spade: &Spade, polys: &Dataset, points: &Dataset) -> QueryOutput<Counts> {
    let mut qspan = crate::trace::span("query.aggregate");
    let measure = spade.begin();
    let mut polygon_time = Duration::ZERO;
    let left = Resident::prepare(spade, polys, &mut polygon_time);
    let right = Resident::prepare(spade, points, &mut polygon_time);
    let mut totals = BTreeMap::new();
    count_cells(spade, &left, &right, &mut totals);

    let result: Counts = totals.into_iter().collect();
    let n = result.len() as u64;
    qspan.attr("polygons", n);
    let stats = measure.finish(spade, Duration::ZERO, 0, polygon_time, 0, n);
    QueryOutput { result, stats }
}

/// Refine one (polygon cell, point cell) pair with the point-optimized
/// counting kernel: add to `totals` the number of `points` inside each
/// polygon of `polys` (an empty polygon reports 0).
pub(crate) fn count_cells(
    spade: &Spade,
    polys: &Resident,
    points: &Resident,
    totals: &mut BTreeMap<u32, u64>,
) {
    let (Resident::Polys(set), Resident::Points(pts)) = (polys, points) else {
        unimplemented!("aggregation counts points per polygon");
    };
    for p in &set.polygons {
        totals.entry(p.id).or_insert(0);
    }
    for constraint in layer_constraints(spade, set, spade.config.resolution) {
        // Multiway blend: per-pixel partial counts of the points.
        let prims: Vec<Primitive> = pts
            .iter()
            .map(|(_, p)| Primitive::point(*p, [1, 1, 0, 0]))
            .collect();
        let mut count_tex = spade
            .pipeline
            .arena()
            .checkout(constraint.viewport.width, constraint.viewport.height);
        spade.pipeline.draw(
            &mut count_tex,
            &prims,
            &DrawCall::simple(constraint.viewport, BlendMode::Add, false),
        );

        // Mask + map over the constraint canvas: interior pixels add their
        // partials to their polygon.
        let parts = algebra::dissect(&constraint.layer.texture, spade.pipeline.pool());
        for (x, y, v) in parts {
            if classify(v) == PixelClass::Interior {
                if let Some(id) = pixel_id(v) {
                    let c = count_tex.get(x, y)[1] as u64;
                    if c > 0 {
                        *totals.entry(id).or_insert(0) += c;
                    }
                }
            }
        }

        // Boundary pixels: exact per-point tests through the boundary
        // index (only points whose pixel is boundary-classified).
        let point_prims: Vec<Primitive> = pts
            .iter()
            .enumerate()
            .map(|(i, (id, p))| Primitive::point(*p, [*id, i as u32, 0, 0]))
            .collect();
        let emitted = algebra::map_emit(
            &spade.pipeline,
            &point_prims,
            constraint.viewport,
            false,
            |frag, out| {
                let v = constraint.layer.texture.get(frag.x, frag.y);
                if classify(v) == PixelClass::Boundary {
                    let vb = pixel_bound(v).expect("boundary vb");
                    let p = pts[frag.attrs[1] as usize].1;
                    for cid in constraint
                        .layer
                        .boundary
                        .matches_point_at((frag.x, frag.y), vb, p)
                    {
                        out.push([cid, 1, 0, 0]);
                    }
                }
            },
        );
        for v in emitted.values {
            *totals.entry(v[0]).or_insert(0) += 1;
        }
    }
}

/// The generic plan (§5.2, plan 1): join, then geometric transform each
/// result pair to a unique slot and count with an additive multiway blend.
pub fn aggregate_via_join(spade: &Spade, polys: &Dataset, points: &Dataset) -> QueryOutput<Counts> {
    let measure = spade.begin();
    let join_out = crate::join::join(spade, polys, points);

    // Geometric transform: pair → slot pixel keyed by the polygon id;
    // multiway blend (Add) counts pairs per slot.
    let n_polys = polys.len().max(1);
    let width = (n_polys as f64).sqrt().ceil() as u32;
    let height = (n_polys as u32).div_ceil(width);
    let vp = spade_gpu::Viewport::new(
        spade_geometry::BBox::new(Point::ZERO, Point::new(width as f64, height as f64)),
        width,
        height,
    );
    let prims: Vec<Primitive> = join_out
        .result
        .iter()
        .map(|(pid, _)| {
            let x = (pid % width) as f64 + 0.5;
            let y = (pid / width) as f64 + 0.5;
            Primitive::point(Point::new(x, y), [pid + 1, 1, 0, 0])
        })
        .collect();
    let mut slots = spade.pipeline.arena().checkout(width, height);
    spade.pipeline.draw(
        &mut slots,
        &prims,
        &DrawCall::simple(vp, BlendMode::Add, false),
    );

    let mut result: Counts = polys
        .objects
        .iter()
        .map(|(id, _)| {
            let x = id % width;
            let y = id / width;
            (*id, slots.get(x, y)[1] as u64)
        })
        .collect();
    result.sort_unstable();
    let n = result.len() as u64;
    let mut stats = measure.finish(spade, Duration::ZERO, 0, Duration::ZERO, 0, n);
    stats.polygon_time = join_out.stats.polygon_time;
    QueryOutput { result, stats }
}

/// Out-of-core aggregation (§5.3 "Other queries are also executed using a
/// similar strategy"): the join's `PairWalk` over (polygon cell, point
/// cell) pairs, refined by the point-optimized plan and folded by summing
/// the partial counts — each polygon lives in exactly one cell, so
/// partials add without double counting. A polygon slot the walk paired
/// with nothing still reports its ids at 0: the scope that owns the deltas
/// streams those slots once more, unrefined, so a coordinator merging
/// shard partials by summing counts per id sees the full id set.
pub fn aggregate_indexed(
    spade: &Spade,
    polys: &crate::dataset::IndexedDataset,
    points: &crate::dataset::IndexedDataset,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<Counts>> {
    let mut qspan = crate::trace::span("query.aggregate.indexed");
    let measure = spade.begin();
    let mut polygon_time = Duration::ZERO;
    let walk = PairWalk::plan(polys, points, ctx, |left, right| {
        hull_pairs(spade, left, right, &mut polygon_time)
    })?;
    let mut totals = BTreeMap::new();
    let (mut stream, _) = walk.run(spade, ctx, &mut polygon_time, |left, right, _| {
        count_cells(spade, left, right, &mut totals)
    })?;

    let owner = ctx.scope.include_delta();
    let matched: BTreeSet<u32> = walk.cell_pairs.iter().map(|p| p.0).collect();
    let unmatched: Vec<(usize, usize)> = (walk.view1.slots(true))
        .filter(|s| owner && !matched.contains(s))
        .map(|s| (0, s as usize))
        .collect();
    stream += crate::prefetch::stream_cells(
        spade.config.prefetch_depth,
        spade.config.cell_cache_bytes,
        &[&walk.view1],
        &unmatched,
        &ctx.cancel,
        |cell| {
            for (id, _) in &cell.data.objects {
                totals.entry(*id).or_insert(0);
            }
            Ok(())
        },
    )?;

    let result: Counts = totals.into_iter().collect();
    let n = result.len() as u64;
    qspan.attr("polygons", n);
    qspan.attr("cells", stream.cells);
    let stats = measure.finish_streamed(spade, &stream, &walk.deltas, polygon_time, n);
    Ok(QueryOutput { result, stats })
}

/// A heatmap: per-pixel point counts over a region — the pure multiway
/// blend aggregation (the related-work heatmap queries \[47\] fall out of
/// the algebra directly: geometric transform to the grid, additive blend).
/// Returns a `resolution × resolution`-ish grid of counts, row-major, with
/// its viewport.
pub fn heatmap(
    spade: &Spade,
    points: &Dataset,
    region: &spade_geometry::BBox,
    resolution: u32,
) -> QueryOutput<(spade_gpu::Viewport, Vec<u32>)> {
    let measure = spade.begin();
    let vp = spade_gpu::Viewport::square_pixels(*region, resolution);
    let prims: Vec<Primitive> = points
        .as_points()
        .iter()
        .map(|(_, p)| Primitive::point(*p, [1, 1, 0, 0]))
        .collect();
    let mut tex = spade.pipeline.arena().checkout(vp.width, vp.height);
    spade.pipeline.draw(
        &mut tex,
        &prims,
        &DrawCall::simple(vp, BlendMode::Add, false),
    );
    let counts: Vec<u32> = tex.pixels().iter().map(|v| v[1]).collect();
    let n = counts.iter().filter(|&&c| c > 0).count() as u64;
    let stats = measure.finish(spade, Duration::ZERO, 0, Duration::ZERO, 0, n);
    QueryOutput {
        result: (vp, counts),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use spade_geometry::predicates::point_in_polygon;
    use spade_geometry::{BBox, Polygon};

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

    fn neighborhoods() -> Vec<Polygon> {
        let mut polys = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                let min = Point::new(i as f64 * 25.0, j as f64 * 25.0);
                polys.push(Polygon::rect(BBox::new(min, min + Point::new(24.0, 24.0))));
            }
        }
        polys.push(Polygon::circle(Point::new(50.0, 50.0), 20.0, 12));
        polys
    }

    fn oracle(polys: &[Polygon], pts: &[Point]) -> Counts {
        polys
            .iter()
            .enumerate()
            .map(|(i, poly)| {
                let c = pts.iter().filter(|p| point_in_polygon(**p, poly)).count() as u64;
                (i as u32, c)
            })
            .collect()
    }

    #[test]
    fn point_plan_matches_oracle() {
        let s = engine();
        let polys = neighborhoods();
        let pts = scatter(2000, 100.0, 51);
        let out = aggregate_points(
            &s,
            &Dataset::from_polygons("n", polys.clone()),
            &Dataset::from_points("p", pts.clone()),
        );
        assert_eq!(out.result, oracle(&polys, &pts));
    }

    #[test]
    fn join_plan_matches_oracle() {
        let s = engine();
        let polys = neighborhoods();
        let pts = scatter(800, 100.0, 53);
        let out = aggregate_via_join(
            &s,
            &Dataset::from_polygons("n", polys.clone()),
            &Dataset::from_points("p", pts.clone()),
        );
        assert_eq!(out.result, oracle(&polys, &pts));
    }

    #[test]
    fn plans_agree() {
        let s = engine();
        let polys = neighborhoods();
        let pts = scatter(500, 100.0, 59);
        let d1 = Dataset::from_polygons("n", polys);
        let d2 = Dataset::from_points("p", pts);
        let a = aggregate_points(&s, &d1, &d2);
        let b = aggregate_via_join(&s, &d1, &d2);
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn out_of_core_aggregation_matches_in_memory() {
        let s = engine();
        let polys = neighborhoods();
        let pts = scatter(1500, 100.0, 61);
        let d_polys = Dataset::from_polygons("n", polys);
        let d_pts = Dataset::from_points("p", pts);
        let mem = aggregate_points(&s, &d_polys, &d_pts);

        let g1 = spade_index::GridIndex::build(None, &d_polys.objects, 40.0).unwrap();
        let g2 = spade_index::GridIndex::build(None, &d_pts.objects, 40.0).unwrap();
        let i1 =
            crate::dataset::IndexedDataset::new("n", crate::dataset::DatasetKind::Polygons, g1);
        let i2 = crate::dataset::IndexedDataset::new("p", crate::dataset::DatasetKind::Points, g2);
        let ooc = aggregate_indexed(&s, &i1, &i2, &QueryCtx::default()).unwrap();
        assert_eq!(ooc.result, mem.result);
    }

    /// The walk's own I/O, not the grid's lifetime counter: a second and
    /// third run over a grid that fits the cell cache read nothing.
    #[test]
    fn indexed_aggregation_reports_its_own_io() {
        let s = engine();
        let d_polys = Dataset::from_polygons("n", neighborhoods());
        let d_pts = Dataset::from_points("p", scatter(1500, 100.0, 61));
        let g1 = spade_index::GridIndex::build(None, &d_polys.objects, 40.0).unwrap();
        let g2 = spade_index::GridIndex::build(None, &d_pts.objects, 40.0).unwrap();
        assert!(g1.total_bytes() + g2.total_bytes() <= s.config.cell_cache_bytes);
        let i1 =
            crate::dataset::IndexedDataset::new("n", crate::dataset::DatasetKind::Polygons, g1);
        let i2 = crate::dataset::IndexedDataset::new("p", crate::dataset::DatasetKind::Points, g2);
        let run = || {
            aggregate_indexed(&s, &i1, &i2, &QueryCtx::default())
                .unwrap()
                .stats
        };
        let first = run();
        assert!(first.cells_loaded > 0 && first.bytes_from_disk > 0);
        for _ in 0..2 {
            let again = run();
            assert_eq!(again.bytes_from_disk, 0);
            assert_eq!(again.cache_hits, again.cells_loaded);
            assert_eq!(again.cells_loaded, first.cells_loaded);
        }
    }

    #[test]
    fn heatmap_counts_points_per_pixel() {
        let s = engine();
        // 4 points in one pixel, 1 in another.
        let pts = vec![
            Point::new(1.5, 1.5),
            Point::new(1.6, 1.4),
            Point::new(1.4, 1.6),
            Point::new(1.5, 1.6),
            Point::new(8.5, 8.5),
        ];
        let data = Dataset::from_points("p", pts);
        let region = BBox::new(Point::ZERO, Point::new(10.0, 10.0));
        let out = heatmap(&s, &data, &region, 10);
        let (vp, counts) = out.result;
        assert_eq!(vp.width, 10);
        let idx = |x: u32, y: u32| (y * vp.width + x) as usize;
        assert_eq!(counts[idx(1, 1)], 4);
        assert_eq!(counts[idx(8, 8)], 1);
        assert_eq!(counts.iter().map(|&c| c as u64).sum::<u64>(), 5);
        assert_eq!(out.stats.result_count, 2); // two hot pixels
    }

    #[test]
    fn empty_points() {
        let s = engine();
        let polys = neighborhoods();
        let n = polys.len();
        let out = aggregate_points(
            &s,
            &Dataset::from_polygons("n", polys),
            &Dataset::from_points("p", vec![]),
        );
        assert_eq!(out.result.len(), n);
        assert!(out.result.iter().all(|(_, c)| *c == 0));
    }
}
