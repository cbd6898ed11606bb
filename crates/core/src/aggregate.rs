//! Spatial aggregation (§5.2).
//!
//! Counts the objects of a point data set per polygon as a join followed by
//! a count (the algebra's definition of aggregation): every cell pair runs
//! the layered join's point pass (`Constraint::match_point_into` per point
//! fragment, boundary pixels decided by the boundary index), and the pass
//! itself folds each layer's hits into one count per polygon of the layer,
//! per worker chunk. No pair is materialized: a polygon part lives in
//! exactly one layer and the probe names an id at most once per point, so
//! an id's count in its layer is its number of distinct points, the join's
//! pair count for it. A multipolygon whose parts sit in several layers (or
//! a point list whose ids do not strictly ascend, so may repeat) counts the
//! join's deduplicated pairs instead, never a per-layer sum. The paper's
//! point-optimized plan — an additive blend into a count texture, then a
//! dissect of the whole constraint canvas — is a GPU cost argument: on this
//! software pipeline the texture and the sweep cost more than the probe
//! (DESIGN.md §2).

use crate::ctx::QueryCtx;
use crate::dataset::DatasetKind;
use crate::engine::Spade;
use crate::join::{fold_points, hull_pairs, join_points, layer_ids, PairWalk, Resident};
use crate::query::Source;
use crate::stats::QueryOutput;
use std::collections::{BTreeMap, BTreeSet};

/// Aggregation result: `(polygon id, point count)` in polygon-id order.
pub type Counts = Vec<(u32, u64)>;

/// Refine one (polygon cell, point cell) pair: add to `totals` the number
/// of `points` inside each polygon of `polys` (an empty polygon reports
/// 0). The point pass counts into one `u64` per polygon of each layer and
/// chunk ([`fold_points`]); each count reaches `totals` once per polygon,
/// not once per pair. A slot pair where an id has buckets in several
/// layers, or whose point ids do not strictly ascend, counts the bucketed
/// join's pairs ([`join_points`]) instead, which are deduplicated.
pub(crate) fn count_cells(
    spade: &Spade,
    polys: &Resident,
    points: &Resident,
    totals: &mut BTreeMap<u32, u64>,
) {
    let Resident::Polys(slot) = polys else {
        unreachable!("the aggregation executor requires a polygon side")
    };
    let points = points.points();
    let mut ids = layer_ids(&slot.set).concat();
    ids.sort_unstable();
    let split = ids.windows(2).any(|w| w[0] == w[1]);
    for &id in &ids {
        totals.entry(id).or_insert(0);
    }
    if !split && points.windows(2).all(|w| w[0].0 < w[1].0) {
        let counts = fold_points(spade, slot, points, 0u64, |n, _| *n += 1, |a, b| *a += b);
        for (id, n) in counts {
            *totals.entry(id).or_insert(0) += n;
        }
        return;
    }
    for run in join_points(spade, slot, points).chunk_by(|a, b| a.0 == b.0) {
        *totals.entry(run[0].0).or_insert(0) += run.len() as u64;
    }
}

/// Aggregation (§5.3 "Other queries are also executed using a similar
/// strategy"): the join's `PairWalk` over (polygon slot, point slot)
/// pairs, each refined by the layered join's point pass counting its hits
/// per polygon in the pass (`count_cells`) — each polygon and each point
/// lives in exactly one slot, so partials add without double counting. Result: `(polygon id,
/// point count)` in polygon-id order. A polygon slot the walk paired with
/// nothing still reports its ids at 0: the scope that owns the deltas
/// streams those slots once more, unrefined, so a coordinator merging
/// shard partials by summing counts per id sees the full id set.
pub fn aggregate_indexed<'a>(
    spade: &Spade,
    polys: impl Into<Source<'a>>,
    points: impl Into<Source<'a>>,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<Counts>> {
    let (polys, points) = (polys.into(), points.into());
    polys.require(DatasetKind::Polygons, "the counted side of an aggregation")?;
    points.require(DatasetKind::Points, "the counting side of an aggregation")?;
    let mut qspan = crate::trace::span("query.aggregate");
    let measure = spade.begin();
    let walk = PairWalk::plan(polys, points, ctx, |left, right| {
        hull_pairs(spade, left, right)
    })?;
    let mut totals = BTreeMap::new();
    let mut stream = walk.run(spade, ctx, |left, right, _| {
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
        spade.config.cell_cache_bytes(),
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
    let stats = measure.finish(spade, &stream, &walk.deltas, n);
    Ok(QueryOutput { result, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::dataset::Dataset;
    use spade_geometry::predicates::point_in_polygon;
    use spade_geometry::{BBox, Point, Polygon};
    use std::sync::Arc;

    fn engine() -> Spade {
        Spade::new(EngineConfig::test_small())
    }

    /// The aggregation of `polys` and `points` registered in memory.
    fn aggregate_memory(s: &Spade, polys: &Dataset, points: &Dataset) -> QueryOutput<Counts> {
        let (polys, points) = (Arc::new(polys.clone()), Arc::new(points.clone()));
        aggregate_indexed(s, &polys, &points, &QueryCtx::default()).unwrap()
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
    fn counts_match_oracle() {
        let s = engine();
        let polys = neighborhoods();
        let pts = scatter(2000, 100.0, 51);
        let out = aggregate_memory(
            &s,
            &Dataset::from_polygons("n", polys.clone()),
            &Dataset::from_points("p", pts.clone()),
        );
        assert_eq!(out.result, oracle(&polys, &pts));
    }

    #[test]
    fn out_of_core_aggregation_matches_in_memory() {
        let s = engine();
        let polys = neighborhoods();
        let pts = scatter(1500, 100.0, 61);
        let d_polys = Dataset::from_polygons("n", polys);
        let d_pts = Dataset::from_points("p", pts);
        let mem = aggregate_memory(&s, &d_polys, &d_pts);

        let g1 = spade_index::GridIndex::build(None, &d_polys.objects, 40.0).unwrap();
        let g2 = spade_index::GridIndex::build(None, &d_pts.objects, 40.0).unwrap();
        let i1 =
            crate::dataset::IndexedDataset::new("n", crate::dataset::DatasetKind::Polygons, g1);
        let i2 = crate::dataset::IndexedDataset::new("p", crate::dataset::DatasetKind::Points, g2);
        let ooc = aggregate_indexed(&s, &i1, &i2, &QueryCtx::default()).unwrap();
        assert_eq!(ooc.result, mem.result);
    }

    /// The walk's own I/O, not the grid's lifetime counter: a second and
    /// third run over a grid that fits the cell cache, prepared forms
    /// included, read nothing.
    #[test]
    fn indexed_aggregation_reports_its_own_io() {
        let s = Spade::new(EngineConfig {
            device_memory: 64 << 20,
            ..EngineConfig::test_small()
        });
        let d_polys = Dataset::from_polygons("n", neighborhoods());
        let d_pts = Dataset::from_points("p", scatter(1500, 100.0, 61));
        let g1 = spade_index::GridIndex::build(None, &d_polys.objects, 40.0).unwrap();
        let g2 = spade_index::GridIndex::build(None, &d_pts.objects, 40.0).unwrap();
        let cells = (g1.num_cells(), g2.num_cells());
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
        // Every cell stayed cached, charged its prepared form too.
        assert_eq!((i1.cache.len(), i2.cache.len()), cells);
        assert!(i1.cache.bytes() + i2.cache.bytes() <= s.config.cell_cache_bytes());
        assert!(i1.cache.bytes() > i1.grid().total_bytes());
        for _ in 0..2 {
            let again = run();
            assert_eq!(again.bytes_from_disk, 0);
            assert_eq!(again.cache_hits, again.cells_loaded);
            assert_eq!(again.cells_loaded, first.cells_loaded);
        }
    }

    #[test]
    fn empty_points() {
        let s = engine();
        let polys = neighborhoods();
        let n = polys.len();
        let out = aggregate_memory(
            &s,
            &Dataset::from_polygons("n", polys),
            &Dataset::from_points("p", vec![]),
        );
        assert_eq!(out.result.len(), n);
        assert!(out.result.iter().all(|(_, c)| *c == 0));
    }
}
