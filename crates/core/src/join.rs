//! Spatial joins (§5.2 in-memory, §5.3 out-of-core).
//!
//! A join `D1 ⋈ D2` runs as a collection of selections whose constraints
//! come from one side. The layer index makes this efficient: every layer of
//! the constraint side holds mutually non-intersecting polygons, so one
//! canvas (and one rendering pass per data side) processes the whole layer
//! (§5.2). Out-of-core, the filter phase joins the two grid indexes'
//! bounding polygons to produce cell pairs; the optimizer then picks
//! between the layer-index strategy and a naive loop of selects by
//! estimated transfer bytes, and orders the loop to share resident cells
//! (§5.3–5.4). The ordered walk itself is `PairWalk`, shared with the
//! out-of-core aggregation.

use crate::ctx::QueryCtx;
use crate::dataset::{Dataset, DatasetKind, IndexedDataset, PreparedPolygonSet, ReadView};
use crate::engine::{Constraint, Spade};
use crate::explain::{DeltaInfo, JoinDecision};
use crate::optimizer::{self, JoinStrategy};
use crate::prefetch::StreamStats;
use crate::select::{line_candidates, polygon_candidates, CandidateGeom};
use crate::stats::QueryOutput;
use spade_canvas::algebra;
use spade_canvas::create::PreparedPolygon;
use spade_geometry::{Geometry, Point};
use spade_gpu::device::Charge;
use spade_gpu::record::FrameTotals;
use spade_gpu::Primitive;
use std::ops::Range;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A join result: `(left id, right id)` pairs.
pub type Pairs = Vec<(u32, u32)>;

/// One constraint canvas per non-empty layer of the polygon side (§5.2),
/// rendered as the iterator advances.
pub(crate) fn layer_constraints<'a>(
    spade: &'a Spade,
    polys: &'a PreparedPolygonSet,
    resolution: u32,
) -> impl Iterator<Item = Constraint> + 'a {
    (0..polys.layers.len()).filter_map(move |layer| {
        let layer_polys = polys.layer_polygons(layer);
        (!layer_polys.is_empty())
            .then(|| Constraint::from_polygons_res(spade, &layer_polys, resolution))
    })
}

/// One selection per layer of the polygon side: `scan` probes one layer's
/// constraint canvas and returns `(polygon id, probe id)` pairs.
fn join_by_layer(
    spade: &Spade,
    polys: &PreparedPolygonSet,
    resolution: u32,
    scan: impl Fn(&Constraint) -> Pairs,
) -> Pairs {
    let mut pairs: Pairs = layer_constraints(spade, polys, resolution)
        .flat_map(|constraint| scan(&constraint))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// In-memory Polygon ⋈ Point join (§5.2 scenario 1). Returns
/// `(polygon id, point id)` pairs.
pub fn join_polygon_point_mem(
    spade: &Spade,
    polys: &PreparedPolygonSet,
    points: &[(u32, Point)],
) -> Pairs {
    join_by_layer(spade, polys, spade.config.resolution, |c| {
        scan_points_for_pairs(spade, c, points)
    })
}

/// The fused point-vs-constraint pass emitting `(constraint id, point id)`
/// pairs; n_max = number of points (§5.4: a point intersects at most one
/// polygon per layer).
pub(crate) fn scan_points_for_pairs(
    spade: &Spade,
    constraint: &Constraint,
    points: &[(u32, Point)],
) -> Pairs {
    let prims: Vec<Primitive> = points
        .iter()
        .enumerate()
        .map(|(i, (id, p))| Primitive::point(*p, [*id, i as u32, 0, 0]))
        .collect();
    let result = algebra::map_emit_stateful(
        &spade.pipeline,
        &prims,
        constraint.viewport,
        false,
        Vec::<u32>::new,
        |scratch, frag, out| {
            let p = points[frag.attrs[1] as usize].1;
            constraint.match_point_into(p, scratch);
            for &cid in scratch.iter() {
                out.push([cid, frag.attrs[0], 0, 0]);
            }
        },
    );
    result.values.into_iter().map(|v| (v[0], v[1])).collect()
}

/// In-memory Polygon ⋈ Polygon join (§5.2 scenario 2): selections per
/// layer of the side with fewer layers. Returns `(d1 id, d2 id)` pairs.
pub fn join_polygon_polygon_mem(
    spade: &Spade,
    d1: &PreparedPolygonSet,
    d2: &PreparedPolygonSet,
) -> Pairs {
    join_polygon_polygon_mem_res(spade, d1, d2, spade.config.resolution)
}

/// [`join_polygon_polygon_mem`] with an explicit canvas resolution (the
/// out-of-core filter phase joins cell hulls at the coarse filter
/// resolution).
pub fn join_polygon_polygon_mem_res(
    spade: &Spade,
    d1: &PreparedPolygonSet,
    d2: &PreparedPolygonSet,
    resolution: u32,
) -> Pairs {
    // Use the side with fewer layers as the constraint (w.l.o.g. l1 ≤ l2).
    let swapped = d1.layers.len() > d2.layers.len();
    let (constraint_side, probe_side) = if swapped { (d2, d1) } else { (d1, d2) };
    let pairs = join_by_layer(spade, constraint_side, resolution, |c| {
        scan_polygons_for_pairs(spade, c, &probe_side.polygons)
    });
    if swapped {
        flip(pairs)
    } else {
        pairs
    }
}

/// `(a, b)` pairs as sorted `(b, a)` pairs.
fn flip(pairs: Pairs) -> Pairs {
    let mut pairs: Pairs = pairs.into_iter().map(|(a, b)| (b, a)).collect();
    pairs.sort_unstable();
    pairs
}

/// The fused polygon-vs-constraint pass emitting `(constraint id, probe
/// id)` pairs: probe polygons drawn conservatively, boundary pixels
/// resolved with constant-time triangle tests.
fn scan_polygons_for_pairs(
    spade: &Spade,
    constraint: &Constraint,
    probes: &[PreparedPolygon],
) -> Pairs {
    let (prims, geoms) = polygon_candidates(probes);
    scan_candidates_for_pairs(spade, constraint, &prims, &geoms)
}

fn scan_candidates_for_pairs(
    spade: &Spade,
    constraint: &Constraint,
    prims: &[Primitive],
    geoms: &[CandidateGeom],
) -> Pairs {
    // Per-chunk pair dedup: a (constraint, probe) pair already emitted by
    // this chunk is skipped without repeating the exact test.
    let result = algebra::map_emit_stateful(
        &spade.pipeline,
        prims,
        constraint.viewport,
        true,
        || {
            (
                Vec::<u32>::new(),
                std::collections::HashSet::<(u32, u32)>::new(),
            )
        },
        |(scratch, seen), frag, out| {
            let px = (frag.x, frag.y);
            match &geoms[frag.attrs[1] as usize] {
                CandidateGeom::Tri(t) => constraint.match_triangle_at(px, t, scratch),
                CandidateGeom::Seg(s) => constraint.match_segment_at(px, *s, scratch),
            }
            for &cid in scratch.iter() {
                if seen.insert((cid, frag.attrs[0])) {
                    out.push([cid, frag.attrs[0] - 1, 0, 0]);
                }
            }
        },
    );
    let mut pairs: Pairs = result.values.into_iter().map(|v| (v[0], v[1])).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// A cell — a grid cell on the device, a staged delta, or a whole
/// in-memory data set — in the prepared form the refinement kernels read:
/// the point list, the polyline segments as conservative line primitives
/// (line data is the paper's cheaper-than-polygons case, §6.1), or the
/// triangulated polygons plus their layer index. Preparing is the one
/// place a query pays polygon processing.
pub(crate) enum Resident {
    Points(Vec<(u32, Point)>),
    Lines(Vec<Primitive>, Vec<CandidateGeom>),
    Polys(PreparedPolygonSet),
}

impl Resident {
    pub(crate) fn prepare(spade: &Spade, data: &Dataset, polygon_time: &mut Duration) -> Resident {
        match data.kind {
            DatasetKind::Points => Resident::Points(data.as_points()),
            DatasetKind::Lines => {
                let lines: Vec<_> = data
                    .objects
                    .iter()
                    .filter_map(|(id, g)| match g {
                        Geometry::LineString(l) => Some((*id, l)),
                        _ => None,
                    })
                    .collect();
                let (prims, geoms) = line_candidates(&lines);
                Resident::Lines(prims, geoms)
            }
            DatasetKind::Polygons => {
                let t0 = Instant::now();
                let set = PreparedPolygonSet::prepare(
                    &spade.pipeline,
                    data,
                    spade.config.layer_resolution(),
                );
                *polygon_time += t0.elapsed();
                Resident::Polys(set)
            }
        }
    }

    /// The point list of a point cell, which is all the distance and kNN
    /// kernels read (the dispatcher refuses any other kind for them).
    pub(crate) fn points(&self) -> &[(u32, Point)] {
        match self {
            Resident::Points(pts) => pts,
            _ => unimplemented!("a distance or kNN join needs point data"),
        }
    }

    /// One fused pass of this cell, as the probe side, over a constraint
    /// canvas: `(constraint id, probe id)` pairs.
    fn probe(&self, spade: &Spade, constraint: &Constraint) -> Pairs {
        match self {
            Resident::Points(pts) => scan_points_for_pairs(spade, constraint, pts),
            Resident::Lines(prims, geoms) => {
                scan_candidates_for_pairs(spade, constraint, prims, geoms)
            }
            Resident::Polys(set) => scan_polygons_for_pairs(spade, constraint, &set.polygons),
        }
    }
}

/// Refine one cell pair with the layer-index join; sorted `(left id,
/// right id)` pairs.
fn join_cells_layered(spade: &Spade, left: &Resident, right: &Resident) -> Pairs {
    let by_layer = |set: &PreparedPolygonSet, probes: &Resident| {
        join_by_layer(spade, set, spade.config.resolution, |c| {
            probes.probe(spade, c)
        })
    };
    match (left, right) {
        (Resident::Polys(s1), Resident::Polys(s2)) => join_polygon_polygon_mem(spade, s1, s2),
        (Resident::Polys(set), probes) => by_layer(set, probes),
        (probes, Resident::Polys(set)) => flip(by_layer(set, probes)),
        _ => unimplemented!("a join needs a polygon side"),
    }
}

/// Refine one cell pair with the naive strategy: one selection per left
/// polygon (§5.3 strategy 2).
fn join_cells_naive(spade: &Spade, left: &Resident, right: &Resident) -> Pairs {
    let Resident::Polys(set) = left else {
        // The naive loop needs polygonal constraints; fall back.
        return join_cells_layered(spade, left, right);
    };
    let mut pairs = Vec::new();
    for poly in &set.polygons {
        let constraint = Constraint::from_polygons(spade, std::slice::from_ref(poly));
        let probed = right.probe(spade, &constraint);
        pairs.extend(probed.into_iter().map(|(_, pid)| (poly.id, pid)));
    }
    pairs
}

/// Full in-memory join with statistics: the one-pair case of the
/// out-of-core walk — each side prepared once, refined by the layer join.
pub fn join(spade: &Spade, d1: &Dataset, d2: &Dataset) -> QueryOutput<Pairs> {
    let mut qspan = crate::trace::span("query.join");
    let measure = spade.begin();
    let mut polygon_time = Duration::ZERO;
    let left = Resident::prepare(spade, d1, &mut polygon_time);
    let right = Resident::prepare(spade, d2, &mut polygon_time);
    let pairs = join_cells_layered(spade, &left, &right);
    let n = pairs.len() as u64;
    qspan.attr("pairs", n);
    let stats = measure.finish(spade, Duration::ZERO, 0, polygon_time, 0, n);
    QueryOutput {
        result: pairs,
        stats,
    }
}

/// The filter phase of the intersection families (§5.3): a Polygon ⋈
/// Polygon join over the bounding polygons of the two views' slots at the
/// coarse filter resolution.
pub(crate) fn hull_pairs(
    spade: &Spade,
    (view1, slots1): (&ReadView<'_>, Range<u32>),
    (view2, slots2): (&ReadView<'_>, Range<u32>),
    polygon_time: &mut Duration,
) -> Pairs {
    let mut hull_set = |view: &ReadView<'_>, slots| {
        let polygons = view.prepared_hulls(slots, polygon_time);
        PreparedPolygonSet {
            layers: spade_canvas::layer::build_layer_index(
                &spade.pipeline,
                &polygons,
                spade.config.layer_resolution(),
            ),
            polygons,
        }
    };
    let (set1, set2) = (hull_set(view1, slots1), hull_set(view2, slots2));
    join_polygon_polygon_mem_res(spade, &set1, &set2, spade.config.filter_resolution())
}

/// The out-of-core strategy every two-dataset query shares (§5.3): filter
/// cell pairs by their bounding polygons, order them to share resident
/// cells, refine pair by pair. A caller supplies what differs per class —
/// the candidate filter, the refinement kernel and its fold;
/// [`PairWalk::plan`] fixes the snapshot, the ordered pairs and the load
/// sequence; [`PairWalk::run`] owns everything between them and the
/// kernel — prefetch, the cell cache, one preparation per residency
/// change, the device ledger and the I/O accounting — and may run more
/// than once (kNN join: twice) over the same snapshot. A side's staged
/// delta is one more slot of its view ([`ReadView`]): planned, filtered,
/// streamed and charged like any cell.
pub(crate) struct PairWalk<'a> {
    pub view1: ReadView<'a>,
    pub view2: ReadView<'a>,
    /// Candidate `(left slot, right slot)` pairs in execution order.
    pub cell_pairs: Pairs,
    /// The exact loads the single-cell-residency walk needs: one `(side,
    /// slot)` entry per residency change, in pair order. The prefetcher
    /// reads ahead along it while the current pair refines.
    pub sequence: Vec<(usize, usize)>,
    /// The views' delta merges, for the query's plan.
    pub deltas: Vec<DeltaInfo>,
}

impl<'a> PairWalk<'a> {
    /// Snapshot both sides and fix the walk. `filter` is the class's
    /// filter phase over slot ranges of the two snapshots (any conservative
    /// superset of the pairs holding a result is safe: refinement is
    /// exact); the full scope hands it every slot. The explicit cell pairs
    /// of [`crate::scope::Scope::Pairs`], the scatter-gather form, replace
    /// it (out-of-range ones dropped) but cannot name a delta, so the
    /// scope that owns the deltas filters each delta slot against the
    /// other side.
    pub(crate) fn plan(
        d1: &'a IndexedDataset,
        d2: &'a IndexedDataset,
        ctx: &QueryCtx,
        mut filter: impl FnMut((&ReadView<'a>, Range<u32>), (&ReadView<'a>, Range<u32>)) -> Pairs,
    ) -> spade_storage::Result<PairWalk<'a>> {
        let explicit = ctx.scope.pairs()?;
        let (view1, view2) = (d1.read_view(), d2.read_view());
        let deltas = DeltaInfo::of_views(&[&view1, &view2]);
        let (n1, n2) = (view1.grid.num_cells() as u32, view2.grid.num_cells() as u32);
        let owned = ctx.scope.include_delta();
        let (end1, end2) = (view1.slots(owned).end, view2.slots(owned).end);
        let mut cell_pairs = match explicit {
            Some(pairs) => {
                let mut pairs: Pairs = (pairs.iter().copied())
                    .filter(|&(l, r)| l < n1 && r < n2)
                    .collect();
                for (lefts, rights) in [(n1..end1, 0..end2), (0..n1, n2..end2)] {
                    if !lefts.is_empty() && !rights.is_empty() {
                        pairs.extend(filter((&view1, lefts), (&view2, rights)));
                    }
                }
                pairs
            }
            None => filter((&view1, 0..end1), (&view2, 0..end2)),
        };
        // Ordering before estimating lets a strategy estimate walk the
        // very slice the executor will, so the two cannot drift.
        optimizer::order_cell_pairs(&mut cell_pairs);
        let mut sequence = Vec::new();
        let mut resident = [None, None];
        for &(c1, c2) in &cell_pairs {
            for (side, cell) in [c1, c2].into_iter().enumerate() {
                if resident[side] != Some(cell) {
                    sequence.push((side, cell as usize));
                    resident[side] = Some(cell);
                }
            }
        }
        Ok(PairWalk {
            view1,
            view2,
            cell_pairs,
            sequence,
            deltas,
        })
    }

    /// Walk the pairs with single-slot residency per side, handing every
    /// pair of prepared cells and their cell ids (`None`: the staged
    /// delta) to `refine(left, right, cells)`. A resident cell keeps its
    /// prepared form across the consecutive pairs the order puts together,
    /// a delta keeps it for the whole run (its slot re-enters residency
    /// once per left group), and a pair refines as soon as both its slots
    /// are resident.
    ///
    /// `ctx.cancel` is polled at every residency change; a resident slot
    /// is a [`Charge`] the walk holds, so the device ledger balances
    /// however the walk ends. Returns the stream's I/O accounting and the
    /// recording frame of the walk — what an optimizer that chose *how* to
    /// refine is judged on; the frame folds into the query's measure, so
    /// total accounting is unchanged.
    pub(crate) fn run(
        &self,
        spade: &Spade,
        ctx: &QueryCtx,
        polygon_time: &mut Duration,
        mut refine: impl FnMut(&Resident, &Resident, (Option<u32>, Option<u32>)),
    ) -> spade_storage::Result<(StreamStats, FrameTotals)> {
        let views = [&self.view1, &self.view2];
        // Per side: the resident slot, its ledger charge, its prepared
        // form; and a delta's prepared form, shared by its residencies.
        let mut resident: [Option<(u32, Charge<'_>, Rc<Resident>)>; 2] = [None, None];
        let mut staged: [Option<Rc<Resident>>; 2] = [None, None];
        let mut next = 0;
        spade_gpu::record::begin();
        let streamed = crate::prefetch::stream_cells(
            spade.config.prefetch_depth,
            spade.config.cell_cache_bytes,
            &views,
            &self.sequence,
            &ctx.cancel,
            |cell| {
                let (side, slot) = (cell.source, cell.cell as u32);
                resident[side] = None; // one slot per side: out before in
                let charge = spade.device.charge(cell.bytes);
                let mut prepare = || Rc::new(Resident::prepare(spade, &cell.data, polygon_time));
                let prepared = match views[side].cell_id(slot) {
                    Some(_) => prepare(),
                    None => Rc::clone(staged[side].get_or_insert_with(prepare)),
                };
                resident[side] = Some((slot, charge, prepared));
                // Refine every pair now satisfied by the resident slots.
                while let (Some(&pair), [Some((c1, _, left)), Some((c2, _, right))]) =
                    (self.cell_pairs.get(next), &resident)
                {
                    if pair != (*c1, *c2) {
                        break;
                    }
                    let cells = (self.view1.cell_id(*c1), self.view2.cell_id(*c2));
                    refine(left, right, cells);
                    next += 1;
                }
                Ok(())
            },
        );
        let frame = spade_gpu::record::finish();
        let stream = streamed?;
        debug_assert_eq!(next, self.cell_pairs.len(), "all cell pairs refined");
        Ok((stream, frame))
    }
}

/// Out-of-core join between two grid-indexed data sets (§5.3): a
/// `PairWalk` whose cell pairs refine with the strategy the optimizer
/// picks by transfer estimate (§5.4) and whose pairs fold by extension.
pub fn join_indexed(
    spade: &Spade,
    d1: &IndexedDataset,
    d2: &IndexedDataset,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<Pairs>> {
    let mut qspan = crate::trace::span("query.join.indexed");
    let measure = spade.begin();
    let mut polygon_time = Duration::ZERO;
    let walk = PairWalk::plan(d1, d2, ctx, |left, right| {
        hull_pairs(spade, left, right, &mut polygon_time)
    })?;
    let cell_pairs = &walk.cell_pairs;

    // Optimizer: strategy choice by transfer estimate (§5.4). The naive
    // strategy's per-object filtering is approximated at cell granularity
    // for the estimate; its execution below is per cell pair as well, so
    // the estimates compare the *order* benefit.
    let pair_key = optimizer::stats::join_key(d1.uid(), d2.uid());
    // Per slot, a delta's included: the estimates index the pairs the
    // walk will run.
    let bytes = |v: &ReadView<'_>| Vec::from_iter(v.slots(true).map(|s| v.cell_bytes(s as usize)));
    let (left_bytes, right_bytes) = (bytes(&walk.view1), bytes(&walk.view2));
    let layer_est = optimizer::estimate_layer_bytes_ordered(cell_pairs, &left_bytes, &right_bytes);
    let per_object: Vec<Vec<u32>> = {
        let mut m = std::collections::BTreeMap::<u32, Vec<u32>>::new();
        for (l, r) in cell_pairs {
            m.entry(*l).or_default().push(*r);
        }
        m.into_values().collect()
    };
    // The naive probes read only left cells that matched a pair — an
    // unmatched cell yields no probe objects and costs no transfer.
    let naive_est = optimizer::estimate_naive_bytes(&per_object, &right_bytes)
        + optimizer::estimate_probe_bytes(cell_pairs, &left_bytes);
    let mut strategy = optimizer::choose_join_strategy(layer_est, naive_est);

    // Adaptive refinement: both strategies walk the same cells, so their
    // byte estimates rarely disagree — what differs is refinement compute
    // per estimated byte. Once both strategies are warm for this dataset
    // pair, pick the cheaper *predicted execution cost* instead.
    let mut adaptive = false;
    let mut predicted_cost = None;
    if let Some((lc, nc)) = spade.observed.join_costs(pair_key) {
        let lp = (lc * layer_est as f64) as u64;
        let np = (nc * naive_est as f64) as u64;
        predicted_cost = Some((lp, np));
        strategy = if np < lp {
            JoinStrategy::NaiveSelects
        } else {
            JoinStrategy::LayerIndex
        };
        adaptive = true;
    }
    if let Some(forced) = spade.observed.join_override() {
        strategy = forced;
        adaptive = false;
    }

    // The strategy applies to the pairs of two cells; a pair with a delta
    // on either side always takes the layer join.
    let mut pairs = Vec::new();
    let (stream, frame) = walk.run(spade, ctx, &mut polygon_time, |left, right, cells| {
        pairs.extend(match (strategy, cells) {
            (JoinStrategy::NaiveSelects, (Some(_), Some(_))) => {
                join_cells_naive(spade, left, right)
            }
            _ => join_cells_layered(spade, left, right),
        });
    })?;
    pairs.sort_unstable();
    pairs.dedup();

    // Feed the realized cost back to the observed statistics and render
    // the hindsight verdict for EXPLAIN ANALYZE.
    let actual_bytes = frame.transfer_bytes;
    let actual_cost = frame.gpu.gpu_nanos + frame.transfer_nanos;
    let est_chosen = match strategy {
        JoinStrategy::LayerIndex => layer_est,
        JoinStrategy::NaiveSelects => naive_est,
    };
    spade
        .observed
        .observe_join(pair_key, strategy, est_chosen, actual_cost);
    let (mispredicted, would_have_chosen) = if adaptive {
        // An adaptive decision mispredicts when the actual cost blew past
        // its own prediction while the alternative's prediction would have
        // beaten the actuals.
        match predicted_cost {
            Some((lp, np)) => {
                let (chosen_pred, other_pred, other) = match strategy {
                    JoinStrategy::LayerIndex => (lp, np, JoinStrategy::NaiveSelects),
                    JoinStrategy::NaiveSelects => (np, lp, JoinStrategy::LayerIndex),
                };
                if actual_cost > chosen_pred && other_pred < actual_cost {
                    (true, Some(other))
                } else {
                    (false, None)
                }
            }
            None => (false, None),
        }
    } else {
        // A static decision mispredicts when the walk moved more bytes
        // than the chosen estimate while the alternative's estimate was
        // below the actuals.
        let (other_est, other) = match strategy {
            JoinStrategy::LayerIndex => (naive_est, JoinStrategy::NaiveSelects),
            JoinStrategy::NaiveSelects => (layer_est, JoinStrategy::LayerIndex),
        };
        if actual_bytes > est_chosen && other_est < actual_bytes {
            (true, Some(other))
        } else {
            (false, None)
        }
    };

    let n = pairs.len() as u64;
    qspan.attr("cells", stream.cells);
    qspan.attr("pairs", n);
    let mut stats = measure.finish_streamed(spade, &stream, &walk.deltas, polygon_time, n);
    stats.plan.join = Some(JoinDecision {
        strategy,
        layer_est_bytes: layer_est,
        naive_est_bytes: naive_est,
        cell_pairs: cell_pairs.len() as u64,
        sequence_len: walk.sequence.len() as u64,
        adaptive,
        predicted_cost_nanos: predicted_cost,
        actual_bytes,
        actual_cost_nanos: actual_cost,
        mispredicted,
        would_have_chosen,
    });
    Ok(QueryOutput {
        result: pairs,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use spade_geometry::predicates::{point_in_polygon, polygons_intersect};
    use spade_geometry::{BBox, Polygon};
    use spade_index::GridIndex;

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

    /// A tessellation of overlapping-free tiles plus some overlapping ones.
    fn polygon_field() -> Vec<Polygon> {
        let mut polys = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                let min = Point::new(i as f64 * 20.0, j as f64 * 20.0);
                polys.push(Polygon::rect(BBox::new(min, min + Point::new(18.0, 18.0))));
            }
        }
        // Two larger overlapping polygons forcing multiple layers.
        polys.push(Polygon::circle(Point::new(50.0, 50.0), 25.0, 16));
        polys.push(Polygon::circle(Point::new(30.0, 70.0), 15.0, 12));
        polys
    }

    fn oracle_point_join(polys: &[Polygon], pts: &[Point]) -> Pairs {
        let mut out = Vec::new();
        for (i, poly) in polys.iter().enumerate() {
            for (j, p) in pts.iter().enumerate() {
                if point_in_polygon(*p, poly) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn oracle_poly_join(a: &[Polygon], b: &[Polygon]) -> Pairs {
        let mut out = Vec::new();
        for (i, pa) in a.iter().enumerate() {
            for (j, pb) in b.iter().enumerate() {
                if polygons_intersect(pa, pb) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn polygon_point_join_matches_oracle() {
        let s = engine();
        let polys = polygon_field();
        let pts = scatter(800, 100.0, 7);
        let d1 = Dataset::from_polygons("polys", polys.clone());
        let d2 = Dataset::from_points("pts", pts.clone());
        let out = join(&s, &d1, &d2);
        assert_eq!(out.result, oracle_point_join(&polys, &pts));
        assert!(out.stats.passes > 0);
    }

    #[test]
    fn point_polygon_join_swaps_sides() {
        let s = engine();
        let polys = polygon_field();
        let pts = scatter(300, 100.0, 11);
        let d1 = Dataset::from_points("pts", pts.clone());
        let d2 = Dataset::from_polygons("polys", polys.clone());
        let out = join(&s, &d1, &d2);
        let oracle: Pairs = oracle_point_join(&polys, &pts)
            .into_iter()
            .map(|(a, b)| (b, a))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(out.result, oracle);
    }

    #[test]
    fn polygon_polygon_join_matches_oracle() {
        let s = engine();
        let a = polygon_field();
        // Probe set: a coarse grid of larger tiles.
        let b: Vec<Polygon> = (0..4)
            .flat_map(|i| {
                (0..4).map(move |j| {
                    let min = Point::new(i as f64 * 25.0 + 3.0, j as f64 * 25.0 + 3.0);
                    Polygon::rect(BBox::new(min, min + Point::new(20.0, 20.0)))
                })
            })
            .collect();
        let d1 = Dataset::from_polygons("a", a.clone());
        let d2 = Dataset::from_polygons("b", b.clone());
        let out = join(&s, &d1, &d2);
        assert_eq!(out.result, oracle_poly_join(&a, &b));
    }

    #[test]
    fn out_of_core_point_join_matches_memory() {
        let s = engine();
        let polys = polygon_field();
        let pts = scatter(1000, 100.0, 13);
        let d1m = Dataset::from_polygons("polys", polys.clone());
        let d2m = Dataset::from_points("pts", pts.clone());
        let mem = join(&s, &d1m, &d2m);

        let g1 = GridIndex::build(None, &d1m.objects, 40.0).unwrap();
        let g2 = GridIndex::build(None, &d2m.objects, 40.0).unwrap();
        let i1 = IndexedDataset::new("polys", DatasetKind::Polygons, g1);
        let i2 = IndexedDataset::new("pts", DatasetKind::Points, g2);
        let ooc = join_indexed(&s, &i1, &i2, &QueryCtx::default()).unwrap();
        assert_eq!(ooc.result, mem.result);
        assert!(ooc.stats.cells_loaded > 0);
        assert!(ooc.stats.bytes_from_disk > 0);

        // On a device another query has filled no cell fits: the pairs
        // stream without residing, and the walk gives back nothing it
        // never got.
        let held = s.device.available() - 8;
        s.device.alloc(held).unwrap();
        let crowded = join_indexed(&s, &i1, &i2, &QueryCtx::default()).unwrap();
        assert_eq!(crowded.result, mem.result);
        assert_eq!(s.device.used(), held);
    }

    #[test]
    fn out_of_core_polygon_join_matches_memory() {
        let s = engine();
        let a = polygon_field();
        let b: Vec<Polygon> = (0..3)
            .flat_map(|i| {
                (0..3).map(move |j| {
                    let min = Point::new(i as f64 * 33.0, j as f64 * 33.0);
                    Polygon::rect(BBox::new(min, min + Point::new(28.0, 28.0)))
                })
            })
            .collect();
        let d1m = Dataset::from_polygons("a", a.clone());
        let d2m = Dataset::from_polygons("b", b.clone());
        let mem = join(&s, &d1m, &d2m);

        let g1 = GridIndex::build(None, &d1m.objects, 50.0).unwrap();
        let g2 = GridIndex::build(None, &d2m.objects, 50.0).unwrap();
        let i1 = IndexedDataset::new("a", DatasetKind::Polygons, g1);
        let i2 = IndexedDataset::new("b", DatasetKind::Polygons, g2);
        let ooc = join_indexed(&s, &i1, &i2, &QueryCtx::default()).unwrap();
        assert_eq!(ooc.result, mem.result);
    }

    /// Cancelling from inside the refine step, for the join's kernel and
    /// the aggregation's, and with a staged delta resident: the walk stops
    /// at the next residency change, with nothing left on the device.
    #[test]
    fn mid_walk_cancellation_frees_resident_cells() {
        let s = engine();
        let polys = Dataset::from_polygons("polys", polygon_field());
        let pts = Dataset::from_points("pts", scatter(1000, 100.0, 13));
        let g1 = GridIndex::build(None, &polys.objects, 40.0).unwrap();
        let g2 = GridIndex::build(None, &pts.objects, 40.0).unwrap();
        let i1 = IndexedDataset::new("polys", DatasetKind::Polygons, g1);
        let i2 = IndexedDataset::new("pts", DatasetKind::Points, g2);
        for (counting, staged) in [(false, false), (true, false), (false, true)] {
            if staged {
                i2.insert(5000, Geometry::Point(Point::new(50.0, 50.0)));
            }
            let ctx = QueryCtx::default();
            let mut polygon_time = Duration::ZERO;
            let walk = PairWalk::plan(&i1, &i2, &ctx, |left, right| {
                hull_pairs(&s, left, right, &mut polygon_time)
            })
            .unwrap();
            // The hull join, handed in as the walk's filter: the pairs, their
            // order and the load sequence of the intersection families,
            // pinned; the delta is right slot 9, met inside a left group.
            let delta_pairs = if staged { "(4, 9), " } else { "" };
            assert_eq!(
                format!("{:?}", walk.cell_pairs),
                format!(
                    "[(0, 0), (1, 4), (1, 2), (1, 1), (2, 2), (3, 3), (4, 0), (4, 1), \
                     (4, 3), (4, 4), {delta_pairs}(5, 5), (6, 3), (6, 6), (7, 7), (7, 4), (8, 8)]"
                )
            );
            let delta_loads = if staged { "(1, 9), " } else { "" };
            assert_eq!(
                format!("{:?}", walk.sequence),
                format!(
                    "[(0, 0), (1, 0), (0, 1), (1, 4), (1, 2), (1, 1), (0, 2), (1, 2), \
                     (0, 3), (1, 3), (0, 4), (1, 0), (1, 1), (1, 3), (1, 4), {delta_loads}(0, 5), \
                     (1, 5), (0, 6), (1, 3), (1, 6), (0, 7), (1, 7), (1, 4), (0, 8), (1, 8)]"
                )
            );
            let mut refined = 0;
            let mut totals = std::collections::BTreeMap::new();
            let res = walk.run(&s, &ctx, &mut polygon_time, |left, right, cells| {
                if counting {
                    crate::aggregate::count_cells(&s, left, right, &mut totals);
                } else {
                    join_cells_layered(&s, left, right);
                }
                refined += 1;
                if let (true, (Some(l), None)) = (staged, cells) {
                    // The resident delta is on the ledger like any cell.
                    let bytes = walk.view1.cell_bytes(l as usize) + walk.view2.delta.bytes;
                    assert_eq!(s.device.used(), bytes);
                    ctx.cancel.cancel();
                } else if !staged && refined == 2 {
                    ctx.cancel.cancel();
                }
            });
            assert_eq!(res.unwrap_err(), spade_storage::StorageError::Cancelled);
            assert_eq!(refined, if staged { 11 } else { 2 }, "counting={counting}");
            assert_eq!(s.device.used(), 0, "counting={counting}");
        }
    }

    #[test]
    fn empty_sides() {
        let s = engine();
        let d1 = Dataset::from_polygons("a", polygon_field());
        let d2 = Dataset::from_points("p", vec![]);
        let out = join(&s, &d1, &d2);
        assert!(out.result.is_empty());
    }

    #[test]
    fn polygon_line_join_matches_oracle() {
        let s = engine();
        let polys = polygon_field();
        let lines: Vec<spade_geometry::LineString> = (0..30)
            .map(|i| {
                let y = i as f64 * 3.5;
                spade_geometry::LineString::new(vec![
                    Point::new(-5.0, y),
                    Point::new(50.0, y + 2.0),
                    Point::new(105.0, y),
                ])
            })
            .collect();
        let d1 = Dataset::from_polygons("polys", polys.clone());
        let d2 = Dataset::from_lines("lines", lines.clone());
        let out = join(&s, &d1, &d2);
        let mut oracle = Vec::new();
        for (i, poly) in polys.iter().enumerate() {
            for (j, line) in lines.iter().enumerate() {
                if line
                    .segments()
                    .any(|seg| spade_geometry::predicates::segment_intersects_polygon(seg, poly))
                {
                    oracle.push((i as u32, j as u32));
                }
            }
        }
        oracle.sort_unstable();
        assert_eq!(out.result, oracle);
        // The flipped direction agrees.
        let flipped = join(&s, &d2, &d1);
        let mut expect: Pairs = oracle.into_iter().map(|(a, b)| (b, a)).collect();
        expect.sort_unstable();
        assert_eq!(flipped.result, expect);
    }

    #[test]
    fn out_of_core_polygon_line_join() {
        let s = engine();
        let polys = polygon_field();
        let lines: Vec<spade_geometry::LineString> = (0..15)
            .map(|i| {
                let x = i as f64 * 7.0;
                spade_geometry::LineString::new(vec![
                    Point::new(x, -5.0),
                    Point::new(x + 2.0, 105.0),
                ])
            })
            .collect();
        let d1 = Dataset::from_polygons("polys", polys);
        let d2 = Dataset::from_lines("lines", lines);
        let mem = join(&s, &d1, &d2);
        let g1 = GridIndex::build(None, &d1.objects, 40.0).unwrap();
        let g2 = GridIndex::build(None, &d2.objects, 40.0).unwrap();
        let i1 = IndexedDataset::new("polys", DatasetKind::Polygons, g1);
        let i2 = IndexedDataset::new("lines", DatasetKind::Lines, g2);
        let ooc = join_indexed(&s, &i1, &i2, &QueryCtx::default()).unwrap();
        assert_eq!(ooc.result, mem.result);
    }

    #[test]
    fn touching_polygons_join() {
        // Adjacent tiles sharing an edge must join (boundary inclusive).
        let s = engine();
        let a = vec![Polygon::rect(BBox::new(
            Point::ZERO,
            Point::new(10.0, 10.0),
        ))];
        let b = vec![Polygon::rect(BBox::new(
            Point::new(10.0, 0.0),
            Point::new(20.0, 10.0),
        ))];
        let d1 = Dataset::from_polygons("a", a);
        let d2 = Dataset::from_polygons("b", b);
        let out = join(&s, &d1, &d2);
        assert_eq!(out.result, vec![(0, 0)]);
    }
}
