//! Spatial joins (§5.2 kernels, §5.3 plan).
//!
//! A join `D1 ⋈ D2` runs as a collection of selections whose constraints
//! come from one side. The layer index makes this efficient: every layer of
//! the constraint side holds mutually non-intersecting polygons, so one
//! canvas (and one rendering pass per data side) processes the whole layer
//! (§5.2). The filter phase joins the two grid indexes' bounding polygons
//! to produce cell pairs; the optimizer orders them to share resident
//! cells, and every pair refines with the layer-index join (§5.3–5.4). The
//! paper's alternative, a naive loop of per-object selects, has no place
//! here: the grid filters per cell, so the loop would walk the same pairs,
//! move the same bytes and render more passes. The ordered walk itself is
//! `PairWalk`, shared with every two-dataset class. Data in memory is its
//! zero-cell case: one memory slot per side, one pair, no filter.

use crate::ctx::QueryCtx;
use crate::dataset::{Dataset, DatasetKind, PreparedPolygonSet, ReadView};
use crate::engine::{Constraint, Spade};
use crate::explain::{DeltaInfo, JoinPlan};
use crate::optimizer;
use crate::prefetch::StreamStats;
use crate::query::Source;
use crate::select::{line_candidates, polygon_candidates, CandidateGeom};
use crate::stats::QueryOutput;
use spade_canvas::algebra;
use spade_canvas::create::PreparedPolygon;
use spade_geometry::Point;
use spade_gpu::device::Charge;
use spade_gpu::{BlendMode, DrawCall, Primitive};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// A join result: `(left id, right id)` pairs.
pub type Pairs = Vec<(u32, u32)>;

/// The non-empty layers of the polygon side, in layer order: one
/// constraint canvas each.
fn layers(polys: &PreparedPolygonSet) -> impl Iterator<Item = &[PreparedPolygon]> {
    (0..polys.layers.len())
        .map(|layer| polys.layer_polygons(layer))
        .filter(|layer| !layer.is_empty())
}

/// The sorted distinct polygon ids of each non-empty layer of the polygon
/// side: the ids a point probe of that layer's canvas buckets its hits by.
pub(crate) fn layer_ids(polys: &PreparedPolygonSet) -> Vec<Vec<u32>> {
    layers(polys)
        .map(|layer| {
            let mut ids: Vec<u32> = layer.iter().map(|p| p.id).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        })
        .collect()
}

/// One constraint canvas per non-empty layer of the polygon side (§5.2).
fn layer_constraints(
    spade: &Spade,
    polys: &PreparedPolygonSet,
    resolution: u32,
) -> Vec<Constraint> {
    layers(polys)
        .map(|layer| Constraint::from_polygons_res(spade, layer, resolution))
        .collect()
}

/// One selection per layer canvas of the polygon side, for a line or
/// polygon probe side: `scan` probes one layer's constraint canvas and
/// returns `(polygon id, probe id)` pairs, which are then sorted and
/// deduplicated. A point probe side folds its hits per polygon in the pass
/// instead ([`join_points`]).
fn join_by_layer(canvases: &[Constraint], scan: impl Fn(&Constraint) -> Pairs) -> Pairs {
    let mut pairs: Pairs = canvases.iter().flat_map(scan).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// The point probe of every layer canvas of `polys`, folded per polygon in
/// the pass: one bucket per polygon id of each layer, `(id, bucket)` in id
/// order, a multipolygon whose parts sit in several layers holding one
/// bucket per such layer, in layer order. Within a layer an id's bucket is
/// found by binary search over the layer's sorted distinct ids, and a
/// point at list position `i` matching it folds in by `hit(bucket, i)`.
/// The pass's chunks are contiguous runs of `points`, merged by
/// `merge(into, chunk)` in chunk order, so a bucket that appends positions
/// holds them ascending; and `match_point_into` names an id at most once
/// per point, so it holds each once.
pub(crate) fn fold_points<B: Clone + Send + Sync>(
    spade: &Spade,
    polys: &PolygonSlot,
    points: &[(u32, Point)],
    empty: B,
    hit: impl Fn(&mut B, u32) + Sync,
    merge: impl Fn(&mut B, B),
) -> Vec<(u32, B)> {
    let mut out = Vec::new();
    for (canvas, ids) in polys.canvases(spade).iter().zip(layer_ids(&polys.set)) {
        let call = DrawCall::simple(canvas.viewport, BlendMode::Replace, false);
        let chunks = spade.pipeline.map(
            points,
            &call,
            || (Vec::new(), vec![empty.clone(); ids.len()]),
            |(scratch, buckets), frag| {
                let i = frag.attrs[1];
                canvas.match_point_into(points[i as usize].1, scratch);
                for id in scratch.iter() {
                    let b = ids
                        .binary_search(id)
                        .expect("a layer canvas holds its own ids");
                    hit(&mut buckets[b], i);
                }
            },
        );
        let mut buckets = vec![empty.clone(); ids.len()];
        for (_, chunk) in chunks {
            for (into, bucket) in buckets.iter_mut().zip(chunk) {
                merge(into, bucket);
            }
        }
        out.extend(ids.into_iter().zip(buckets));
    }
    out.sort_by_key(|&(id, _)| id);
    out
}

/// Polygon ⋈ point refinement of one slot pair: sorted, deduplicated
/// `(polygon id, point id)` pairs with no comparison sort of the pair list.
/// [`fold_points`] buckets each layer's hits by polygon in ascending
/// position order; concatenated in id order, the buckets are the sorted
/// pair list whenever point ids ascend with positions (as
/// `Dataset::from_points`, a grid block and a staged delta number them). An
/// id's run of point ids that does not strictly ascend — a point list in
/// any other order, or a multipolygon's buckets from several layers — is
/// sorted and deduplicated alone.
pub(crate) fn join_points(spade: &Spade, polys: &PolygonSlot, points: &[(u32, Point)]) -> Pairs {
    let buckets = fold_points(
        spade,
        polys,
        points,
        Vec::new(),
        |b, i| b.push(i),
        |into, b| into.extend(b),
    );
    let mut pairs = Pairs::with_capacity(buckets.iter().map(|(_, b)| b.len()).sum());
    let mut run = Vec::new();
    for group in buckets.chunk_by(|a, b| a.0 == b.0) {
        run.clear();
        run.extend(
            group
                .iter()
                .flat_map(|(_, b)| b)
                .map(|&i| points[i as usize].0),
        );
        if !run.is_sorted_by(|a, b| a < b) {
            run.sort_unstable();
            run.dedup();
        }
        pairs.extend(run.iter().map(|&p| (group[0].0, p)));
    }
    pairs
}

/// The fused point-vs-constraint pass over the point list itself, emitting
/// `(constraint id, point position)` pairs in pass order, unsorted — a
/// caller wanting ids looks them up in `points`. The distance and kNN
/// joins use it: their constraint ids are left points, too many for a
/// bucket per id ([`fold_points`] is the polygon join's form).
pub(crate) fn scan_points_for_pairs(
    spade: &Spade,
    constraint: &Constraint,
    points: &[(u32, Point)],
) -> Pairs {
    let result = algebra::map_emit_stateful(
        &spade.pipeline,
        points,
        constraint.viewport,
        false,
        Vec::<u32>::new,
        |scratch, frag, out| {
            let i = frag.attrs[1];
            constraint.match_point_into(points[i as usize].1, scratch);
            for &cid in scratch.iter() {
                out.push([cid, i, 0, 0]);
            }
        },
    );
    result.values.into_iter().map(|v| (v[0], v[1])).collect()
}

/// Polygon ⋈ Polygon join (§5.2 scenario 2): selections per layer of the
/// side with fewer layers, at canvas `resolution` (the filter phase joins
/// cell hulls at the coarse filter resolution). Returns `(d1 id, d2 id)`
/// pairs.
pub fn join_polygon_polygon_mem(
    spade: &Spade,
    d1: &PreparedPolygonSet,
    d2: &PreparedPolygonSet,
    resolution: u32,
) -> Pairs {
    // Use the side with fewer layers as the constraint (w.l.o.g. l1 ≤ l2).
    let swapped = d1.layers.len() > d2.layers.len();
    let (constraint_side, probe_side) = if swapped { (d2, d1) } else { (d1, d2) };
    let canvases = layer_constraints(spade, constraint_side, resolution);
    let pairs = join_by_layer(&canvases, |c| {
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

/// A slot — a grid cell on the device, a staged delta, or a whole
/// in-memory data set — in the prepared form the refinement kernels read:
/// the point list, the polyline segments as conservative line primitives
/// (line data is the paper's cheaper-than-polygons case, §6.1), or the
/// triangulated polygons with their layer index and layer canvases.
/// Preparing is the one place a query pays polygon processing, once per
/// dataset `Arc` and layer resolution ([`Resident::of`]): a registered
/// dataset once, a grid cell once for as long as the cell cache keeps it, a
/// staged delta or a masked cell once per query.
pub(crate) enum Resident {
    Points(Vec<(u32, Point)>),
    Lines(Vec<Primitive>, Vec<CandidateGeom>),
    Polys(PolygonSlot),
}

/// A polygon slot's prepared form: the triangulated polygons in layer order
/// with their layer index, and one constraint canvas per non-empty layer,
/// rendered by the first refinement that reads them and kept with the
/// form. The canvases render at the layer resolution, the layer index's,
/// not the query resolution: the boundary index decides every boundary
/// pixel, so a pair's result is exact at any canvas size, and a kept form
/// costs a quarter of the bytes at the default configuration.
pub(crate) struct PolygonSlot {
    pub set: PreparedPolygonSet,
    canvases: OnceLock<Vec<Constraint>>,
}

impl PolygonSlot {
    /// The layer canvases (§5.2), rendered on first use.
    pub(crate) fn canvases(&self, spade: &Spade) -> &[Constraint] {
        self.canvases
            .get_or_init(|| layer_constraints(spade, &self.set, spade.config.layer_resolution()))
    }
}

impl Resident {
    /// A slot's prepared form: its dataset's own, kept on the dataset per
    /// layer resolution, so only the first query of an engine
    /// configuration prepares it — a registered dataset once, a grid cell
    /// once per stay in the cell cache ([`crate::dataset::CellCache`]), a
    /// staged delta (a fresh dataset per view) or a masked cell (a fresh
    /// copy per load) once per query.
    pub(crate) fn of(spade: &Spade, data: &Dataset) -> Arc<Resident> {
        let key = spade.config.layer_resolution();
        data.prepared.get(key, || Resident::prepare(spade, data))
    }

    fn prepare(spade: &Spade, data: &Dataset) -> Resident {
        match data.kind {
            DatasetKind::Points => Resident::Points(data.as_points()),
            DatasetKind::Lines => {
                let (prims, geoms) = line_candidates(&data.as_lines());
                Resident::Lines(prims, geoms)
            }
            DatasetKind::Polygons => {
                let set = spade_gpu::record::preparing(|| {
                    let resolution = spade.config.layer_resolution();
                    PreparedPolygonSet::prepare(&spade.pipeline, data, resolution)
                });
                let canvases = OnceLock::new();
                Resident::Polys(PolygonSlot { set, canvases })
            }
        }
    }

    /// Host bytes of this form: the point list, the line primitives, or
    /// the triangulated polygons, their layer index and the layer canvases
    /// rendered so far.
    pub(crate) fn byte_size(&self) -> u64 {
        use std::mem::size_of_val;
        match self {
            Resident::Points(pts) => size_of_val(pts.as_slice()) as u64,
            Resident::Lines(prims, geoms) => {
                (size_of_val(prims.as_slice()) + size_of_val(geoms.as_slice())) as u64
            }
            Resident::Polys(slot) => {
                let canvases = slot.canvases.get().map_or(&[][..], Vec::as_slice);
                slot.set.byte_size() + canvases.iter().map(Constraint::byte_size).sum::<u64>()
            }
        }
    }

    /// The point list of a point cell, which is all the distance and kNN
    /// kernels read (the dispatcher refuses any other kind for them).
    pub(crate) fn points(&self) -> &[(u32, Point)] {
        match self {
            Resident::Points(pts) => pts,
            _ => unreachable!("the distance and kNN executors require point data"),
        }
    }

    /// This slot, as the probe side, joined with the layer canvases of
    /// `polys`, one fused pass per layer: sorted `(polygon id, probe id)`
    /// pairs.
    fn join_layers(&self, spade: &Spade, polys: &PolygonSlot) -> Pairs {
        let canvases = polys.canvases(spade);
        match self {
            Resident::Points(pts) => join_points(spade, polys, pts),
            Resident::Lines(prims, geoms) => join_by_layer(canvases, |c| {
                scan_candidates_for_pairs(spade, c, prims, geoms)
            }),
            Resident::Polys(slot) => join_by_layer(canvases, |c| {
                scan_polygons_for_pairs(spade, c, &slot.set.polygons)
            }),
        }
    }
}

/// Refine one cell pair with the layer-index join over the polygon side's
/// layer canvases — of two polygon sides, the one with fewer layers (§5.2
/// scenario 2); sorted `(left id, right id)` pairs.
pub(crate) fn join_cells_layered(spade: &Spade, left: &Resident, right: &Resident) -> Pairs {
    match (left, right) {
        (Resident::Polys(l), Resident::Polys(r)) if l.set.layers.len() > r.set.layers.len() => {
            flip(left.join_layers(spade, r))
        }
        (Resident::Polys(polys), probes) => probes.join_layers(spade, polys),
        (probes, Resident::Polys(polys)) => flip(probes.join_layers(spade, polys)),
        _ => unreachable!("the join and aggregation executors require a polygon side"),
    }
}

/// The filter phase of the intersection families (§5.3): a Polygon ⋈
/// Polygon join over the bounding polygons of the two views' slots at the
/// coarse filter resolution; preparing the hulls and their layer indexes
/// is polygon time.
pub(crate) fn hull_pairs(
    spade: &Spade,
    (view1, slots1): (&ReadView<'_>, Range<u32>),
    (view2, slots2): (&ReadView<'_>, Range<u32>),
) -> Pairs {
    let hull_set = |view: &ReadView<'_>, slots| {
        spade_gpu::record::preparing(|| {
            let polygons = view.prepared_hulls(slots);
            PreparedPolygonSet::new(&spade.pipeline, polygons, spade.config.layer_resolution())
        })
    };
    let (set1, set2) = (hull_set(view1, slots1), hull_set(view2, slots2));
    join_polygon_polygon_mem(spade, &set1, &set2, spade.config.filter_resolution())
}

/// The strategy every two-dataset query shares (§5.3): filter
/// cell pairs by their bounding polygons, order them to share resident
/// cells, refine pair by pair. A caller supplies what differs per class —
/// the candidate filter, the refinement kernel and its fold;
/// [`PairWalk::plan`] fixes the snapshot, the ordered pairs and the load
/// sequence; [`PairWalk::run`] owns everything between them and the
/// kernel — prefetch, the cell cache and what it charges, the slots'
/// prepared forms, the device ledger and the I/O accounting — and may run more
/// than once (kNN join: twice) over the same snapshot. A side's memory
/// slot — its staged delta, or the whole of a registered dataset — is one
/// more slot of its view ([`ReadView`]): planned, filtered, streamed and
/// charged like any cell.
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
    /// exact); the full scope hands it every slot. When neither side has a
    /// grid cell, each has at most its memory slot and that one pair is
    /// the candidate set: no filter renders. The explicit cell pairs of
    /// [`crate::scope::Scope::Pairs`], the scatter-gather form, replace it
    /// (out-of-range ones dropped) but cannot name a memory slot, so the
    /// scope that owns the deltas filters each memory slot against the
    /// other side.
    pub(crate) fn plan(
        d1: Source<'a>,
        d2: Source<'a>,
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
            _ if n1 + n2 == 0 => (0..end1)
                .flat_map(|l| (0..end2).map(move |r| (l, r)))
                .collect(),
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
        // The join's byte estimate walks this very slice, the one the
        // executor runs, so the two cannot drift.
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
    /// pair of prepared cells and the left cell's id (`None`: the memory
    /// slot) to `refine(left, right, l)`. Every slot takes its prepared form,
    /// layer canvases included, from its dataset's memo ([`Resident::of`]):
    /// a grid cell the cell cache serves keeps it across residencies and
    /// queries, and is charged for it in the cache when it leaves
    /// residency ([`ReadView::charge_prepared`]). A pair refines as soon
    /// as both its slots are resident.
    ///
    /// `ctx.cancel` is polled at every residency change; a resident slot
    /// is a [`Charge`] the walk holds, so the device ledger balances
    /// however the walk ends. Returns the stream's I/O accounting.
    pub(crate) fn run(
        &self,
        spade: &Spade,
        ctx: &QueryCtx,
        mut refine: impl FnMut(&Resident, &Resident, Option<u32>),
    ) -> spade_storage::Result<StreamStats> {
        let views = [&self.view1, &self.view2];
        let budget = spade.config.cell_cache_bytes();
        let mut resident: [Option<Held>; 2] = [None, None];
        let leave = |side: usize, held: Option<Held>| {
            if let Some(held) = held {
                views[side].charge_prepared(held.slot, &held.data, budget);
            }
        };
        let mut next = 0;
        let stream = crate::prefetch::stream_cells(
            spade.config.prefetch_depth,
            budget,
            &views,
            &self.sequence,
            &ctx.cancel,
            |cell| {
                let (side, slot) = (cell.source, cell.cell as u32);
                leave(side, resident[side].take()); // one slot per side: out before in
                resident[side] = Some(Held {
                    slot,
                    _charge: spade.device.charge(cell.bytes),
                    form: Resident::of(spade, &cell.data),
                    data: cell.data,
                });
                // Refine every pair now satisfied by the resident slots.
                while let (Some(&pair), [Some(left), Some(right)]) =
                    (self.cell_pairs.get(next), &resident)
                {
                    if pair != (left.slot, right.slot) {
                        break;
                    }
                    refine(&left.form, &right.form, self.view1.cell_id(pair.0));
                    next += 1;
                }
                Ok(())
            },
        );
        for (side, held) in resident.into_iter().enumerate() {
            leave(side, held);
        }
        let stream = stream?;
        debug_assert_eq!(next, self.cell_pairs.len(), "all cell pairs refined");
        Ok(stream)
    }
}

/// A slot the walk holds resident: its ledger charge, its data and its
/// prepared form.
struct Held {
    slot: u32,
    _charge: Charge,
    data: Arc<Dataset>,
    form: Arc<Resident>,
}

/// Spatial (intersection) join (§5.3): a `PairWalk` whose pairs refine
/// with the layer-index join and fold by extension.
pub fn join_indexed<'a>(
    spade: &Spade,
    d1: impl Into<Source<'a>>,
    d2: impl Into<Source<'a>>,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<Pairs>> {
    let (d1, d2) = (d1.into(), d2.into());
    if d1.describe().1 != DatasetKind::Polygons {
        d2.require(
            DatasetKind::Polygons,
            "an intersection join without a polygon side",
        )?;
    }
    let mut qspan = crate::trace::span("query.join");
    let measure = spade.begin();
    let walk = PairWalk::plan(d1, d2, ctx, |left, right| hull_pairs(spade, left, right))?;
    // The walk's byte estimate (§5.4), for EXPLAIN: per slot, a memory
    // slot's included, so it indexes the pairs the walk will run.
    let bytes = |v: &ReadView<'_>| Vec::from_iter(v.slots(true).map(|s| v.cell_bytes(s as usize)));
    let (left_bytes, right_bytes) = (bytes(&walk.view1), bytes(&walk.view2));
    let layer_est =
        optimizer::estimate_layer_bytes_ordered(&walk.cell_pairs, &left_bytes, &right_bytes);

    let mut pairs = Vec::new();
    let stream = walk.run(spade, ctx, |left, right, _| {
        pairs.extend(join_cells_layered(spade, left, right));
    })?;
    pairs.sort_unstable();
    pairs.dedup();

    let n = pairs.len() as u64;
    qspan.attr("cells", stream.cells);
    qspan.attr("pairs", n);
    let mut stats = measure.finish(spade, &stream, &walk.deltas, n);
    // Without grid cells on both sides there is no out-of-core walk to
    // plan: the join reports none.
    let planned = walk.view1.grid.num_cells() > 0 && walk.view2.grid.num_cells() > 0;
    stats.plan.join = planned.then_some(JoinPlan {
        layer_est_bytes: layer_est,
        cell_pairs: walk.cell_pairs.len() as u64,
        sequence_len: walk.sequence.len() as u64,
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
    use crate::dataset::IndexedDataset;
    use spade_geometry::predicates::{point_in_polygon, polygons_intersect};
    use spade_geometry::{BBox, Geometry, MultiPolygon, Polygon};
    use spade_index::GridIndex;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn engine() -> Spade {
        Spade::new(EngineConfig::test_small())
    }

    /// A join of `d1` and `d2` registered in memory: one memory slot per
    /// side, one pair.
    fn join_memory(s: &Spade, d1: &Dataset, d2: &Dataset) -> QueryOutput<Pairs> {
        let (d1, d2) = (Arc::new(d1.clone()), Arc::new(d2.clone()));
        join_indexed(s, &d1, &d2, &QueryCtx::default()).unwrap()
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

    /// A coarse grid of larger tiles over `polygon_field`, for the
    /// polygon ⋈ polygon joins.
    fn polygon_field_probes() -> Vec<Polygon> {
        (0..4)
            .flat_map(|i| {
                (0..4).map(move |j| {
                    let min = Point::new(i as f64 * 25.0 + 3.0, j as f64 * 25.0 + 3.0);
                    Polygon::rect(BBox::new(min, min + Point::new(20.0, 20.0)))
                })
            })
            .collect()
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
        let out = join_memory(&s, &d1, &d2);
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
        let out = join_memory(&s, &d1, &d2);
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
        let (a, b) = (polygon_field(), polygon_field_probes());
        let d1 = Dataset::from_polygons("a", a.clone());
        let d2 = Dataset::from_polygons("b", b.clone());
        let out = join_memory(&s, &d1, &d2);
        assert_eq!(out.result, oracle_poly_join(&a, &b));
    }

    #[test]
    fn out_of_core_point_join_matches_memory() {
        let s = engine();
        let polys = polygon_field();
        let pts = scatter(1000, 100.0, 13);
        let d1m = Dataset::from_polygons("polys", polys.clone());
        let d2m = Dataset::from_points("pts", pts.clone());
        let mem = join_memory(&s, &d1m, &d2m);

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
        let mem = join_memory(&s, &d1m, &d2m);

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
                i2.insert(
                    5000,
                    spade_geometry::Geometry::Point(Point::new(50.0, 50.0)),
                );
            }
            let ctx = QueryCtx::default();
            let walk = PairWalk::plan((&i1).into(), (&i2).into(), &ctx, |left, right| {
                hull_pairs(&s, left, right)
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
            let delta_at = walk.cell_pairs.iter().position(|&p| p == (4, 9));
            let mut refined = 0;
            let mut totals = std::collections::BTreeMap::new();
            let res = walk.run(&s, &ctx, |left, right, l| {
                if counting {
                    crate::aggregate::count_cells(&s, left, right, &mut totals);
                } else {
                    join_cells_layered(&s, left, right);
                }
                refined += 1;
                if delta_at == Some(refined - 1) {
                    // The resident delta is on the ledger like any cell.
                    let l = l.expect("the left side is a grid cell") as usize;
                    let bytes = walk.view1.cell_bytes(l) + walk.view2.delta.bytes;
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

    /// A registered dataset is prepared once per engine resolutions and
    /// kept: two engines at different resolutions sharing one `Arc` each
    /// prepare their own form on their first query, answer exactly in
    /// either order, and prepare nothing on their second; a clone of the
    /// dataset starts with nothing prepared.
    #[test]
    fn memory_slot_is_prepared_once_per_engine_resolutions() {
        let (polys, pts) = (polygon_field(), scatter(600, 100.0, 17));
        let oracle = oracle_point_join(&polys, &pts);
        let counts: Vec<(u32, u64)> = (0..polys.len() as u32)
            .map(|i| (i, oracle.iter().filter(|p| p.0 == i).count() as u64))
            .collect();
        let engine_at = |resolution| {
            Spade::new(EngineConfig {
                resolution,
                ..EngineConfig::test_small()
            })
        };
        let key = |s: &Spade| s.config.layer_resolution();
        let (fine, coarse) = (engine_at(256), engine_at(32));
        for order in [[&fine, &coarse], [&coarse, &fine]] {
            let d1 = Arc::new(Dataset::from_polygons("polys", polys.clone()));
            let d2 = Arc::new(Dataset::from_points("pts", pts.clone()));
            for s in order {
                assert!(!d1.prepared.holds(key(s)));
                for warm in [false, true] {
                    let ctx = QueryCtx::default();
                    let join = join_indexed(s, &d1, &d2, &ctx).unwrap();
                    let agg = crate::aggregate::aggregate_indexed(s, &d1, &d2, &ctx).unwrap();
                    assert_eq!(join.result, oracle, "warm={warm}");
                    assert_eq!(agg.result, counts, "warm={warm}");
                    let prepared = join.stats.polygon_time > std::time::Duration::ZERO;
                    assert_eq!(prepared, !warm, "{:?}", join.stats);
                    assert_eq!(agg.stats.polygon_time, std::time::Duration::ZERO);
                    assert_eq!(s.device.used(), 0);
                }
                assert!(d1.prepared.holds(key(s)));
            }
            let copy = Arc::new((*d1).clone());
            assert!(!copy.prepared.holds(key(&fine)) && !copy.prepared.holds(key(&coarse)));
            let out = join_indexed(&fine, &copy, &d2, &QueryCtx::default()).unwrap();
            assert_eq!(out.result, oracle);
            assert!(out.stats.polygon_time > std::time::Duration::ZERO);
        }
    }

    /// Lattice points every 2 units over `polygon_field`'s extent: every
    /// tile edge runs through a row of them, so only the boundary index
    /// answers the joins right.
    fn lattice() -> Vec<Point> {
        (0..=50)
            .flat_map(|i| (0..=50).map(move |j| Point::new(i as f64 * 2.0, j as f64 * 2.0)))
            .collect()
    }

    fn indexed(data: &Dataset, cell: f64) -> IndexedDataset {
        let grid = GridIndex::build(None, &data.objects, cell).unwrap();
        IndexedDataset::new(data.name.clone(), data.kind, grid)
    }

    fn points_of(data: &Dataset) -> Vec<Point> {
        data.as_points().into_iter().map(|(_, p)| p).collect()
    }

    /// Every cell pair of two grids: a join scoped to them renders no
    /// filter and prepares no hull, so its polygon time is its slots'.
    fn every_pair(left: &IndexedDataset, right: &IndexedDataset) -> Pairs {
        let n = right.grid().num_cells() as u32;
        (0..left.grid().num_cells() as u32)
            .flat_map(|l| (0..n).map(move |r| (l, r)))
            .collect()
    }

    /// The run over explicit `pairs` that also owns the deltas.
    fn scoped(pairs: &Pairs) -> QueryCtx<'_> {
        QueryCtx {
            scope: crate::scope::Scope::Pairs {
                pairs,
                include_delta: true,
            },
            ..QueryCtx::default()
        }
    }

    /// The layers of each of a grid's cells at the engine's layer
    /// resolution, read past the cell cache.
    fn cell_layers(s: &Spade, data: &IndexedDataset) -> Vec<u64> {
        let view = data.read_view();
        let res = s.config.layer_resolution();
        (0..view.grid.num_cells())
            .map(|c| {
                let cell = view.load_cell_cached(c, 0).unwrap().0;
                PreparedPolygonSet::prepare(&s.pipeline, &cell, res)
                    .layers
                    .len() as u64
            })
            .collect()
    }

    /// A small-canvas engine whose cell cache keeps every prepared cell of
    /// the grids below.
    fn roomy() -> Spade {
        Spade::new(EngineConfig {
            device_memory: 64 << 20,
            ..EngineConfig::test_small()
        })
    }

    /// Every cell cache holds at most its budget, prepared forms included.
    fn assert_within_budget(s: &Spade, sides: &[&IndexedDataset]) {
        for side in sides {
            assert!(
                side.cache.bytes() <= s.config.cell_cache_bytes(),
                "{}",
                side.name
            );
        }
    }

    /// At the default configuration the layer canvases render at the
    /// layer resolution, half the query resolution, and the joins and the
    /// count still answer what brute force does on every source: the
    /// boundary index decides every boundary pixel.
    #[test]
    fn default_resolution_joins_are_exact() {
        let s = Spade::new(EngineConfig::default());
        let layer_res = s.config.layer_resolution();
        assert!(layer_res < s.config.resolution);
        let (polys, pts, probes) = (polygon_field(), lattice(), polygon_field_probes());
        let data = [
            Dataset::from_polygons("polys", polys.clone()),
            Dataset::from_points("pts", pts.clone()),
            Dataset::from_polygons("probes", probes.clone()),
        ];
        let point_pairs = oracle_point_join(&polys, &pts);
        let poly_pairs = oracle_poly_join(&polys, &probes);
        let counts: Vec<(u32, u64)> = (0..polys.len() as u32)
            .map(|i| (i, point_pairs.iter().filter(|p| p.0 == i).count() as u64))
            .collect();
        let memory = data.clone().map(Arc::new);
        let grids = data.each_ref().map(|d| indexed(d, 40.0));
        // Each side re-inserts its object 0 unchanged: the same answers,
        // with a staged delta and a masked cell in every walk.
        let staged = data.each_ref().map(|d| indexed(d, 40.0));
        for (side, d) in staged.iter().zip(&data) {
            side.insert(0, d.objects[0].1.clone());
        }
        let ctx = QueryCtx::default();
        for source in 0..3 {
            let side = |i: usize| -> Source<'_> {
                match source {
                    0 => (&memory[i]).into(),
                    1 => (&grids[i]).into(),
                    _ => (&staged[i]).into(),
                }
            };
            let join = join_indexed(&s, side(0), side(1), &ctx).unwrap();
            assert_eq!(join.result, point_pairs, "source {source}");
            let count = crate::aggregate::aggregate_indexed(&s, side(0), side(1), &ctx).unwrap();
            assert_eq!(count.result, counts, "source {source}");
            let poly = join_indexed(&s, side(0), side(2), &ctx).unwrap();
            assert_eq!(poly.result, poly_pairs, "source {source}");
        }
        // The registered dataset's kept canvases and every cell's, each
        // at the layer resolution along its longer axis.
        let view = grids[0].read_view();
        let cells = (0..view.grid.num_cells()).map(|c| view.load_cell_cached(c, 0).unwrap().0);
        for data in cells.chain([Arc::clone(&memory[0])]) {
            let Resident::Polys(slot) = &*Resident::of(&s, &data) else {
                panic!("a polygon slot");
            };
            for c in slot.canvases(&s) {
                assert_eq!(c.viewport.width.max(c.viewport.height), layer_res);
            }
        }
    }

    /// A second join over a grid the cell cache holds prepares nothing: no
    /// polygon time, and only the per-pair probes render. The cache keeps
    /// within its budget after every query, charged what it holds.
    #[test]
    fn a_cached_cell_is_a_prepared_cell() {
        let s = roomy();
        let polys = Dataset::from_polygons("polys", polygon_field());
        let pts = Dataset::from_points("pts", scatter(1000, 100.0, 23));
        let oracle = oracle_point_join(&polygon_field(), &points_of(&pts));
        let (i1, i2) = (indexed(&polys, 40.0), indexed(&pts, 40.0));
        let pairs = every_pair(&i1, &i2);
        let ctx = scoped(&pairs);
        let layers = cell_layers(&s, &i1);
        let probes: u64 = pairs.iter().map(|&(l, _)| layers[l as usize]).sum();
        let blocks = i1.grid().total_bytes();
        let cold = join_indexed(&s, &i1, &i2, &ctx).unwrap();
        assert_eq!(cold.result, oracle);
        assert!(cold.stats.polygon_time > std::time::Duration::ZERO);
        // Every left cell prepared its layer index and rendered its
        // canvases once.
        assert_eq!(cold.stats.passes, probes + 3 * layers.iter().sum::<u64>());
        assert_within_budget(&s, &[&i1, &i2]);
        assert_eq!(i1.cache.len(), i1.grid().num_cells());
        assert!(i1.cache.bytes() > blocks, "charged the prepared forms");
        for _ in 0..2 {
            let warm = join_indexed(&s, &i1, &i2, &ctx).unwrap();
            assert_eq!(warm.result, oracle);
            assert_eq!(warm.stats.polygon_time, std::time::Duration::ZERO);
            assert_eq!(warm.stats.passes, probes, "no layer canvas renders");
            assert_eq!(warm.stats.cache_hits, warm.stats.cells_loaded);
            let agg = crate::aggregate::aggregate_indexed(&s, &i1, &i2, &ctx).unwrap();
            assert_eq!(agg.stats.polygon_time, std::time::Duration::ZERO);
            assert_eq!(agg.stats.passes, probes);
            assert_within_budget(&s, &[&i1, &i2]);
            assert_eq!(s.device.used(), 0);
        }
    }

    /// A cell whose prepared form outgrows the whole cache budget is not
    /// kept: every join prepares it again, reads it again, and stays exact.
    #[test]
    fn a_form_larger_than_the_budget_is_not_kept() {
        let s = Spade::new(EngineConfig {
            device_memory: 1 << 20,
            ..EngineConfig::test_small()
        });
        let polys = Dataset::from_polygons("polys", polygon_field());
        let pts = Dataset::from_points("pts", scatter(1000, 100.0, 29));
        let oracle = oracle_point_join(&polygon_field(), &points_of(&pts));
        let (i1, i2) = (indexed(&polys, 40.0), indexed(&pts, 40.0));
        // Every polygon cell's form is larger than the budget; the blocks
        // fit.
        let budget = s.config.cell_cache_bytes();
        let view = i1.read_view();
        for c in 0..view.grid.num_cells() {
            let form = Resident::prepare(&s, &view.load_cell_cached(c, 0).unwrap().0);
            let Resident::Polys(slot) = &form else {
                panic!("a polygon slot");
            };
            slot.canvases(&s);
            assert!(form.byte_size() > budget, "cell {c}");
        }
        assert!(i1.grid().total_bytes() < budget);
        for _ in 0..2 {
            let out = join_indexed(&s, &i1, &i2, &QueryCtx::default()).unwrap();
            assert_eq!(out.result, oracle);
            assert!(out.stats.bytes_from_disk >= i1.grid().total_bytes());
            assert!(i1.cache.is_empty(), "no polygon cell is kept");
            assert_eq!(i2.cache.len(), i2.grid().num_cells());
            assert_within_budget(&s, &[&i1, &i2]);
            assert_eq!(s.device.used(), 0);
        }
    }

    /// A staged delete masks its cell: that cell is a fresh copy, prepared
    /// per query, while the cached forms of the others serve on; after a
    /// compaction the new generation prepares again. Every answer is exact.
    #[test]
    fn staged_writes_and_compaction_keep_cached_cells_exact() {
        let s = roomy();
        let field = polygon_field();
        let polys = Dataset::from_polygons("polys", field.clone());
        let pts = Dataset::from_points("pts", scatter(1000, 100.0, 31));
        let points = points_of(&pts);
        let (i1, i2) = (indexed(&polys, 40.0), indexed(&pts, 40.0));
        let run = |ctx: &QueryCtx| join_indexed(&s, &i1, &i2, ctx).unwrap();
        let without = |gone: u32| -> Pairs {
            (oracle_point_join(&field, &points).into_iter())
                .filter(|&(l, _)| l != gone)
                .collect()
        };
        let none = u32::MAX;
        assert_eq!(run(&QueryCtx::default()).result, without(none));
        let pairs = every_pair(&i1, &i2);
        let warm = run(&scoped(&pairs));
        assert_eq!(warm.result, without(none));
        assert_eq!(warm.stats.polygon_time, std::time::Duration::ZERO);
        // A staged delete of a tile: its cell is masked and prepares per
        // query, still exact; the cached, unmasked form is left alone.
        i1.delete(12);
        for _ in 0..2 {
            let masked = run(&scoped(&pairs));
            assert_eq!(masked.result, without(12));
            assert!(masked.stats.polygon_time > std::time::Duration::ZERO);
            assert_within_budget(&s, &[&i1, &i2]);
        }
        // The compaction folds the delete into a new generation: its cells
        // are prepared again, once.
        i1.compact(s.config.max_cell_bytes)
            .unwrap()
            .expect("a delta to fold");
        let pairs = every_pair(&i1, &i2);
        for cold in [true, false] {
            let out = run(&scoped(&pairs));
            assert_eq!(out.result, without(12));
            let prepared = out.stats.polygon_time > std::time::Duration::ZERO;
            assert_eq!(prepared, cold);
            assert_within_budget(&s, &[&i1, &i2]);
        }
        assert_eq!(run(&QueryCtx::default()).result, without(12));
        assert_eq!(s.device.used(), 0);
    }

    /// Concurrent first joins over cells the cache holds but no walk has
    /// prepared prepare each cell once: the threads' passes sum to every
    /// thread's probes plus one preparation per cell, and every answer is
    /// the same.
    #[test]
    fn concurrent_first_joins_prepare_a_cached_cell_once() {
        let s = roomy();
        let polys = Dataset::from_polygons("polys", polygon_field());
        let pts = Dataset::from_points("pts", scatter(1000, 100.0, 37));
        let oracle = oracle_point_join(&polygon_field(), &points_of(&pts));
        let (i1, i2) = (indexed(&polys, 40.0), indexed(&pts, 40.0));
        let budget = s.config.cell_cache_bytes();
        for side in [&i1, &i2] {
            let view = side.read_view();
            for c in 0..view.grid.num_cells() {
                view.load_cell_cached(c, budget).unwrap();
            }
        }
        let pairs = every_pair(&i1, &i2);
        let layers = cell_layers(&s, &i1);
        let probes: u64 = pairs.iter().map(|&(l, _)| layers[l as usize]).sum();
        let threads = 4;
        let barrier = std::sync::Barrier::new(threads);
        let outs: Vec<QueryOutput<Pairs>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        join_indexed(&s, &i1, &i2, &scoped(&pairs)).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for out in &outs {
            assert_eq!(out.result, oracle);
            assert_eq!(out.stats.cache_hits, out.stats.cells_loaded);
        }
        let passes: u64 = outs.iter().map(|o| o.stats.passes).sum();
        let prepared = 3 * layers.iter().sum::<u64>();
        assert_eq!(passes, threads as u64 * probes + prepared);
        assert_within_budget(&s, &[&i1, &i2]);
        assert_eq!(s.device.used(), 0);
    }

    #[test]
    fn empty_sides() {
        let s = engine();
        let d1 = Dataset::from_polygons("a", polygon_field());
        let d2 = Dataset::from_points("p", vec![]);
        let out = join_memory(&s, &d1, &d2);
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
        let out = join_memory(&s, &d1, &d2);
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
        let flipped = join_memory(&s, &d2, &d1);
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
        let mem = join_memory(&s, &d1, &d2);
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
        let out = join_memory(&s, &d1, &d2);
        assert_eq!(out.result, vec![(0, 0)]);
    }

    // The bucketed point fold against the sort-and-dedup path it replaced.

    /// The sort-and-dedup path the fold replaced, kept as its oracle: each
    /// layer's `(polygon id, point position)` hits in pass order, mapped to
    /// point ids, then the whole list sorted and deduplicated.
    fn sorted_pairs_oracle(s: &Spade, slot: &PolygonSlot, pts: &[(u32, Point)]) -> Pairs {
        join_by_layer(slot.canvases(s), |c| {
            (scan_points_for_pairs(s, c, pts).into_iter())
                .map(|(id, i)| (id, pts[i as usize].0))
                .collect()
        })
    }

    /// The oracle's pairs counted one increment per pair, every polygon id
    /// of the slot present.
    fn counted_oracle(slot: &PolygonSlot, pairs: &Pairs) -> BTreeMap<u32, u64> {
        let mut totals: BTreeMap<u32, u64> = slot.set.polygons.iter().map(|p| (p.id, 0)).collect();
        for (id, _) in pairs {
            *totals.get_mut(id).expect("a polygon of the slot") += 1;
        }
        totals
    }

    /// Check the bucketed join, both ways round, and the bucketed count
    /// against the oracle on every slot pair a full-scope walk of `polys` ⋈
    /// `points` refines. Returns each refined point slot's ids in list
    /// order.
    fn assert_folds_match_oracle(
        s: &Spade,
        polys: Source<'_>,
        points: Source<'_>,
    ) -> Vec<Vec<u32>> {
        let ctx = QueryCtx::default();
        let walk = PairWalk::plan(polys, points, &ctx, |l, r| hull_pairs(s, l, r)).unwrap();
        let mut slots = Vec::new();
        let refine = |left: &Resident, right: &Resident, _| {
            let (Resident::Polys(slot), Resident::Points(pts)) = (left, right) else {
                panic!("a polygon slot and a point slot");
            };
            let want = sorted_pairs_oracle(s, slot, pts);
            assert_eq!(join_cells_layered(s, left, right), want);
            assert_eq!(join_cells_layered(s, right, left), flip(want.clone()));
            let mut totals = BTreeMap::new();
            crate::aggregate::count_cells(s, left, right, &mut totals);
            assert_eq!(totals, counted_oracle(slot, &want));
            slots.push(pts.iter().map(|p| p.0).collect());
        };
        walk.run(s, &ctx, refine).unwrap();
        slots
    }

    /// A multipolygon (id 3) of two squares sharing the edge x = 150, apart
    /// from every other polygon of the case but a square (id 200) inside its
    /// second part. The layer index keeps the higher id where objects
    /// overlap, so the first part lands in the first layer and the second
    /// in a later one: the id has a bucket in each.
    fn split_multipolygon() -> [(u32, Geometry); 2] {
        let square = |x: f64, y: f64, side: f64| {
            Polygon::rect(BBox::new(Point::new(x, y), Point::new(x + side, y + side)))
        };
        let parts = vec![square(130.0, 0.0, 20.0), square(150.0, 0.0, 20.0)];
        [
            (3, Geometry::MultiPolygon(MultiPolygon::new(parts))),
            (200, Geometry::Polygon(square(155.0, 5.0, 10.0))),
        ]
    }

    /// Points on the multipolygon's shared edge (in both parts), on its
    /// parts' other edges, and on every rectangle's corners and edge
    /// midpoints, where only the boundary index decides.
    fn fold_boundary_points(rects: &[(f64, f64, f64, f64)]) -> Vec<Point> {
        let shared = [
            (150.0, 0.0),
            (150.0, 10.0),
            (150.0, 20.0),
            (140.0, 20.0),
            (160.0, 5.0),
        ];
        let mut pts: Vec<Point> = shared.map(|(x, y)| Point::new(x, y)).into();
        for &(x, y, w, h) in rects {
            for (u, v) in [
                (0.0, 0.0),
                (1.0, 0.0),
                (0.0, 1.0),
                (1.0, 1.0),
                (0.5, 0.0),
                (0.0, 0.5),
            ] {
                pts.push(Point::new(x + u * w, y + v * h));
            }
        }
        pts
    }

    /// `n` point ids in list order: ascending with position, descending,
    /// or a seeded shuffle.
    fn point_ids(n: usize, order: usize, seed: u64) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..n as u32).collect();
        match order {
            0 => {}
            1 => ids.reverse(),
            _ => {
                let mut r = seed | 1;
                for i in (1..n).rev() {
                    r = r
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ids.swap(i, (r >> 33) as usize % (i + 1));
                }
            }
        }
        ids
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The bucketed join and count equal the sort-and-dedup path over
        /// random rectangle sets (one to a few layers), point ids
        /// ascending, descending and shuffled against position, with and
        /// without a multipolygon split over two layers, in memory, on a
        /// grid, with a staged insert and delete, and after compaction.
        #[test]
        fn bucketed_folds_equal_the_sort_and_dedup_path(
            rects in proptest::collection::vec(
                (0.0f64..80.0, 0.0f64..80.0, 4.0f64..40.0, 4.0f64..40.0), 1..10),
            generic in proptest::collection::vec((0.0f64..170.0, 0.0f64..100.0), 0..200),
            order in 0..3usize,
            multi in 0..2usize,
            seed in 0..u64::MAX,
        ) {
            let s = roomy();
            let mut polygons: Vec<(u32, Geometry)> = (rects.iter().zip(0u32..))
                .map(|(&(x, y, w, h), i)| {
                    let rect = Polygon::rect(BBox::new(Point::new(x, y), Point::new(x + w, y + h)));
                    (100 - 7 * i, Geometry::Polygon(rect))
                })
                .collect();
            let multi = multi == 1;
            if multi {
                polygons.extend(split_multipolygon());
            }
            let polys = Dataset::from_objects("polys", DatasetKind::Polygons, polygons);
            let mut pts: Vec<Point> = generic.iter().map(|&(x, y)| Point::new(x, y)).collect();
            pts.extend(fold_boundary_points(&rects));
            let objects: Vec<(u32, Geometry)> = (point_ids(pts.len(), order, seed).into_iter())
                .zip(pts.iter().map(|&p| Geometry::Point(p)))
                .collect();
            let points = Dataset::from_objects("pts", DatasetKind::Points, objects.clone());

            if multi {
                let slot = Resident::of(&s, &polys);
                let Resident::Polys(slot) = &*slot else { unreachable!() };
                let layers = layer_ids(&slot.set);
                let holding = layers.iter().filter(|ids| ids.contains(&3)).count();
                proptest::prop_assert_eq!(holding, 2, "the multipolygon spans two layers");
            }
            let (polys_mem, points_mem) = (Arc::new(polys.clone()), Arc::new(points.clone()));
            assert_folds_match_oracle(&s, (&polys_mem).into(), (&points_mem).into());

            let (i1, i2) = (indexed(&polys, 30.0), indexed(&points, 30.0));
            assert_folds_match_oracle(&s, (&i1).into(), (&i2).into());
            // A staged insert (a new id and a moved one) and a delete on
            // each side, then the same folded into a new generation.
            let (last, first) = (objects[objects.len() - 1].0, objects[0].0);
            i2.insert(u32::MAX - 1, Geometry::Point(Point::new(35.0, 35.0)));
            i2.insert(last, Geometry::Point(Point::new(30.0, 25.0)));
            i2.delete(first);
            i1.delete(100);
            if multi {
                let [(id, multipolygon), _] = split_multipolygon();
                i1.insert(id, multipolygon);
            }
            assert_folds_match_oracle(&s, (&i1).into(), (&i2).into());
            for side in [&i1, &i2] {
                side.compact(s.config.max_cell_bytes).unwrap();
            }
            assert_folds_match_oracle(&s, (&i1).into(), (&i2).into());
        }
    }

    /// Where the join needs no sort: point ids ascend with positions in
    /// every point slot of a `Dataset::from_points` set — a block after
    /// `GridIndex::build`, a cell masked by a staged delete, the staged
    /// delta itself, a block after compaction and the parts of a split
    /// cell.
    #[test]
    fn point_ids_ascend_in_every_slot_of_a_from_points_set() {
        let s = roomy();
        let polys = Dataset::from_polygons("polys", polygon_field());
        let pts = Dataset::from_points("pts", scatter(1500, 100.0, 7));
        let (i1, i2) = (indexed(&polys, 40.0), indexed(&pts, 40.0));
        let ascend = |slots: Vec<Vec<u32>>| {
            assert!(!slots.is_empty());
            for ids in slots {
                assert!(ids.is_sorted_by(|a, b| a < b), "{ids:?}");
            }
        };
        ascend(assert_folds_match_oracle(&s, (&i1).into(), (&i2).into()));
        // Inserts staged out of id order, a replace and a delete.
        i2.insert(9000, Geometry::Point(Point::new(50.0, 50.0)));
        i2.insert(8000, Geometry::Point(Point::new(20.0, 70.0)));
        i2.insert(10, Geometry::Point(Point::new(60.0, 10.0)));
        i2.delete(700);
        ascend(assert_folds_match_oracle(&s, (&i1).into(), (&i2).into()));
        // A budget below any rewritten cell's bytes splits every one.
        let report = i2.compact(4096).unwrap().expect("a delta to fold");
        assert!(report.cells_split > 0, "{report:?}");
        ascend(assert_folds_match_oracle(&s, (&i1).into(), (&i2).into()));
    }

    /// The sorting branch: ids that descend with position leave a raw
    /// bucket unsorted, and the join sorts that bucket alone.
    #[test]
    fn a_bucket_whose_ids_descend_is_sorted_alone() {
        let s = roomy();
        let polys = Dataset::from_polygons("polys", polygon_field());
        let pts = scatter(400, 100.0, 11);
        let objects = (point_ids(pts.len(), 1, 0).into_iter())
            .zip(pts.iter().map(|&p| Geometry::Point(p)))
            .collect();
        let points = Dataset::from_objects("pts", DatasetKind::Points, objects);
        let (polys, points) = (Resident::of(&s, &polys), Resident::of(&s, &points));
        let (Resident::Polys(slot), Resident::Points(pts)) = (&*polys, &*points) else {
            unreachable!()
        };
        let buckets = fold_points(
            &s,
            slot,
            pts,
            Vec::new(),
            |b, i| b.push(i),
            |a, b| a.extend(b),
        );
        let raw = |b: &Vec<u32>| b.iter().map(|&i| pts[i as usize].0).collect::<Vec<_>>();
        assert!(buckets.iter().any(|(_, b)| !raw(b).is_sorted()));
        let pairs = join_points(&s, slot, pts);
        assert!(pairs.is_sorted_by(|a, b| a < b));
        assert_eq!(pairs, sorted_pairs_oracle(&s, slot, pts));
    }

    /// The no-sort branch: over a `Dataset::from_points` slot every bucket
    /// already holds strictly ascending point ids, so the join is the
    /// buckets' concatenation — at one worker and at three, whose chunks
    /// must concatenate in chunk order.
    #[test]
    fn a_from_points_slot_needs_no_sort() {
        let polys = Dataset::from_polygons("polys", polygon_field());
        let points = Dataset::from_points("pts", scatter(400, 100.0, 11));
        let mut joins = Vec::new();
        for workers in [1, 3] {
            let s = Spade::new(EngineConfig {
                workers,
                ..EngineConfig::test_small()
            });
            let (polys, points) = (Resident::of(&s, &polys), Resident::of(&s, &points));
            let (Resident::Polys(slot), Resident::Points(pts)) = (&*polys, &*points) else {
                unreachable!()
            };
            let buckets = fold_points(
                &s,
                slot,
                pts,
                Vec::new(),
                |b, i| b.push(i),
                |a, b| a.extend(b),
            );
            assert!(
                buckets.windows(2).all(|w| w[0].0 < w[1].0),
                "one bucket per id"
            );
            let mut concatenated = Pairs::new();
            for (id, b) in &buckets {
                let ids: Vec<u32> = b.iter().map(|&i| pts[i as usize].0).collect();
                assert!(ids.is_sorted_by(|a, b| a < b), "{workers} workers");
                concatenated.extend(ids.into_iter().map(|p| (*id, p)));
            }
            assert!(!concatenated.is_empty());
            assert_eq!(join_points(&s, slot, pts), concatenated);
            assert_eq!(concatenated, sorted_pairs_oracle(&s, slot, pts));
            joins.push(concatenated);
        }
        assert_eq!(joins[0], joins[1]);
    }
}
