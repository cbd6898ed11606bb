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
//! (§5.3–5.4).

use crate::ctx::QueryCtx;
use crate::dataset::{Dataset, DatasetKind, IndexedDataset, PreparedPolygonSet, ReadView};
use crate::engine::{Constraint, Spade};
use crate::optimizer::{self, JoinStrategy};
use crate::select::{polygon_candidates, CandidateGeom};
use crate::stats::QueryOutput;
use spade_canvas::algebra;
use spade_canvas::create::PreparedPolygon;
use spade_geometry::Point;
use spade_gpu::Primitive;
use std::time::{Duration, Instant};

/// A join result: `(left id, right id)` pairs.
pub type Pairs = Vec<(u32, u32)>;

/// In-memory Polygon ⋈ Point join: one selection per layer of the polygon
/// side (§5.2 scenario 1). Returns `(polygon id, point id)` pairs.
pub fn join_polygon_point_mem(
    spade: &Spade,
    polys: &PreparedPolygonSet,
    points: &[(u32, Point)],
) -> Pairs {
    let mut pairs = Vec::new();
    for layer in 0..polys.layers.len() {
        let layer_polys = polys.layer_polygons(layer);
        if layer_polys.is_empty() {
            continue;
        }
        let constraint = Constraint::from_polygons(spade, &layer_polys);
        pairs.extend(scan_points_for_pairs(spade, &constraint, points));
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
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
    let (constraint_side, probe_side, swapped) = if d1.layers.len() <= d2.layers.len() {
        (d1, d2, false)
    } else {
        (d2, d1, true)
    };
    let mut pairs = Vec::new();
    for layer in 0..constraint_side.layers.len() {
        let layer_polys = constraint_side.layer_polygons(layer);
        if layer_polys.is_empty() {
            continue;
        }
        let constraint = Constraint::from_polygons_res(spade, &layer_polys, resolution);
        pairs.extend(scan_polygons_for_pairs(
            spade,
            &constraint,
            &probe_side.polygons,
        ));
    }
    if swapped {
        for p in &mut pairs {
            *p = (p.1, p.0);
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// The fused polygon-vs-constraint pass emitting `(constraint id, probe
/// id)` pairs: probe polygons drawn conservatively, boundary pixels
/// resolved with constant-time triangle tests.
pub(crate) fn scan_polygons_for_pairs(
    spade: &Spade,
    constraint: &Constraint,
    probes: &[PreparedPolygon],
) -> Pairs {
    let (prims, geoms) = polygon_candidates(probes);
    scan_candidates_for_pairs(spade, constraint, &prims, &geoms)
}

/// The same fused pass for polyline probes: each segment is a conservative
/// line primitive whose boundary pixels run segment-triangle tests (line
/// data is the paper's cheaper-than-polygons case, §6.1).
pub fn join_polygon_line_mem(
    spade: &Spade,
    polys: &crate::dataset::PreparedPolygonSet,
    lines: &[(u32, &spade_geometry::LineString)],
) -> Pairs {
    let (prims, geoms) = crate::select::line_candidates(lines);
    let mut pairs = Vec::new();
    for layer in 0..polys.layers.len() {
        let layer_polys = polys.layer_polygons(layer);
        if layer_polys.is_empty() {
            continue;
        }
        let constraint = Constraint::from_polygons(spade, &layer_polys);
        pairs.extend(scan_candidates_for_pairs(
            spade,
            &constraint,
            &prims,
            &geoms,
        ));
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
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

/// Full in-memory join with statistics; dispatches on data-set kinds.
pub fn join(spade: &Spade, d1: &Dataset, d2: &Dataset) -> QueryOutput<Pairs> {
    let mut qspan = crate::trace::span("query.join");
    let measure = spade.begin();
    let t0 = Instant::now();
    let (pairs, polygon_time) = match (d1.kind, d2.kind) {
        (DatasetKind::Polygons, DatasetKind::Points) => {
            let set =
                PreparedPolygonSet::prepare(&spade.pipeline, d1, spade.config.layer_resolution());
            let prep = t0.elapsed();
            (join_polygon_point_mem(spade, &set, &d2.as_points()), prep)
        }
        (DatasetKind::Points, DatasetKind::Polygons) => {
            let set =
                PreparedPolygonSet::prepare(&spade.pipeline, d2, spade.config.layer_resolution());
            let prep = t0.elapsed();
            let mut pairs = join_polygon_point_mem(spade, &set, &d1.as_points());
            for p in &mut pairs {
                *p = (p.1, p.0);
            }
            pairs.sort_unstable();
            (pairs, prep)
        }
        (DatasetKind::Polygons, DatasetKind::Polygons) => {
            let s1 =
                PreparedPolygonSet::prepare(&spade.pipeline, d1, spade.config.layer_resolution());
            let s2 =
                PreparedPolygonSet::prepare(&spade.pipeline, d2, spade.config.layer_resolution());
            let prep = t0.elapsed();
            (join_polygon_polygon_mem(spade, &s1, &s2), prep)
        }
        (DatasetKind::Polygons, DatasetKind::Lines) => {
            let set =
                PreparedPolygonSet::prepare(&spade.pipeline, d1, spade.config.layer_resolution());
            let prep = t0.elapsed();
            (join_polygon_line_mem(spade, &set, &lines_of(d2)), prep)
        }
        (DatasetKind::Lines, DatasetKind::Polygons) => {
            let set =
                PreparedPolygonSet::prepare(&spade.pipeline, d2, spade.config.layer_resolution());
            let prep = t0.elapsed();
            let mut pairs = join_polygon_line_mem(spade, &set, &lines_of(d1));
            for p in &mut pairs {
                *p = (p.1, p.0);
            }
            pairs.sort_unstable();
            (pairs, prep)
        }
        (a, b) => unimplemented!("join between {a:?} and {b:?}"),
    };
    let n = pairs.len() as u64;
    qspan.attr("pairs", n);
    let stats = measure.finish(spade, Duration::ZERO, 0, polygon_time, 0, n);
    QueryOutput {
        result: pairs,
        stats,
    }
}

/// The candidate `(left cell, right cell)` pairs of an indexed join or
/// aggregation: the scope's explicit pairs (out-of-range ones dropped), or
/// the filter phase — a Polygon ⋈ Polygon join over the bounding polygons
/// of the two grid indexes at the coarse filter resolution.
pub(crate) fn candidate_cell_pairs(
    spade: &Spade,
    view1: &ReadView<'_>,
    view2: &ReadView<'_>,
    explicit: Option<&[(u32, u32)]>,
    polygon_time: &mut Duration,
) -> Pairs {
    if let Some(pairs) = explicit {
        let (n1, n2) = (view1.grid.num_cells() as u32, view2.grid.num_cells() as u32);
        return pairs
            .iter()
            .copied()
            .filter(|&(l, r)| l < n1 && r < n2)
            .collect();
    }
    let mut hull_set = |view: &ReadView<'_>| {
        let t0 = Instant::now();
        let polygons: Vec<PreparedPolygon> = view
            .grid
            .bounding_polygons()
            .into_iter()
            .map(|(i, h)| PreparedPolygon::prepare(i, &h))
            .collect();
        *polygon_time += t0.elapsed();
        PreparedPolygonSet {
            layers: spade_canvas::layer::build_layer_index(
                &spade.pipeline,
                &polygons,
                spade.config.layer_resolution(),
            ),
            polygons,
        }
    };
    let (set1, set2) = (hull_set(view1), hull_set(view2));
    join_polygon_polygon_mem_res(spade, &set1, &set2, spade.config.filter_resolution())
}

/// Out-of-core join between two grid-indexed data sets (§5.3). The filter
/// phase joins the two indexes' bounding polygons — or is replaced by the
/// explicit cell pairs of [`crate::scope::Scope::Pairs`], the
/// scatter-gather form; the optimizer picks the strategy and the iteration
/// order. `ctx.cancel` is polled at every residency change of the
/// refinement walk, and resident cells are freed before a cancellation
/// propagates, keeping the device ledger balanced.
pub fn join_indexed(
    spade: &Spade,
    d1: &IndexedDataset,
    d2: &IndexedDataset,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<Pairs>> {
    let explicit = ctx.scope.pairs()?;
    let include_delta = ctx.scope.include_delta();
    let cancel = &ctx.cancel;
    let mut qspan = crate::trace::span("query.join.indexed");
    let measure = spade.begin();
    let mut polygon_time = Duration::ZERO;
    let view1 = d1.read_view();
    let view2 = d2.read_view();
    crate::explain::note_view(&view1);
    crate::explain::note_view(&view2);

    let mut cell_pairs = candidate_cell_pairs(spade, &view1, &view2, explicit, &mut polygon_time);

    // Identify the order of join operations first: share resident cells.
    // Ordering before estimating lets the layer estimate walk the very
    // slice the executor will, so estimator and executor cannot drift.
    optimizer::order_cell_pairs(&mut cell_pairs);

    // Optimizer: strategy choice by transfer estimate (§5.4). The naive
    // strategy's per-object filtering is approximated at cell granularity
    // for the estimate; its execution below is per cell pair as well, so
    // the estimates compare the *order* benefit.
    let pair_key = optimizer::stats::join_key(d1.uid(), d2.uid());
    let _stat_scope = optimizer::stats::scope(pair_key);
    let left_bytes: Vec<u64> = view1.grid.cells().iter().map(|c| c.bytes).collect();
    let right_bytes: Vec<u64> = view2.grid.cells().iter().map(|c| c.bytes).collect();
    let layer_est = optimizer::estimate_layer_bytes_ordered(&cell_pairs, &left_bytes, &right_bytes);
    let per_object: Vec<Vec<u32>> = {
        let mut m = std::collections::BTreeMap::<u32, Vec<u32>>::new();
        for (l, r) in &cell_pairs {
            m.entry(*l).or_default().push(*r);
        }
        m.into_values().collect()
    };
    // The naive probes read only left cells that matched a pair — an
    // unmatched cell yields no probe objects and costs no transfer.
    let naive_est = optimizer::estimate_naive_bytes(&per_object, &right_bytes)
        + optimizer::estimate_probe_bytes(&cell_pairs, &left_bytes);
    let mut strategy = optimizer::choose_join_strategy(layer_est, naive_est);

    // Adaptive refinement: both strategies walk the same cells, so their
    // byte estimates rarely disagree — what differs is refinement compute
    // per estimated byte. Once both strategies are warm for this dataset
    // pair, pick the cheaper *predicted execution cost* instead.
    let mut adaptive = false;
    let mut predicted_cost = None;
    if spade.config.adaptive_stats {
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
    }
    if let Some(forced) = spade.observed.join_override() {
        strategy = forced;
        adaptive = false;
    }
    spade.observed.count_decision(
        Some(d1.uid()),
        optimizer::stats::Decision::of_join(strategy),
    );

    // Precompute the exact load sequence the single-cell-residency walk
    // below will need: one entry per residency change, in pair order. The
    // prefetcher can then read ahead while the current pair refines, and
    // the consumer replays the identical residency logic in lockstep.
    let mut sequence: Vec<(usize, usize)> = Vec::new();
    {
        let (mut r1, mut r2) = (None, None);
        for &(c1, c2) in &cell_pairs {
            if r1 != Some(c1) {
                sequence.push((0, c1 as usize));
                r1 = Some(c1);
            }
            if r2 != Some(c2) {
                sequence.push((1, c2 as usize));
                r2 = Some(c2);
            }
        }
    }
    crate::explain::note_join(crate::explain::JoinDecision {
        strategy,
        layer_est_bytes: layer_est,
        naive_est_bytes: naive_est,
        cell_pairs: cell_pairs.len() as u64,
        sequence_len: sequence.len() as u64,
        adaptive,
        predicted_cost_nanos: predicted_cost,
        ..crate::explain::JoinDecision::default()
    });

    // Refinement with single-cell residency per side. A resident cell
    // carries its *prepared* form (points list, or triangulated polygons
    // plus layer index), so preparation is shared across the consecutive
    // cell pairs the join order puts together. A pair refines as soon as
    // both its cells are resident; the shared cache means a cell revisited
    // by a later residency change skips the disk.
    let mut pairs = Vec::new();
    let mut resident1: Option<(u32, Resident)> = None;
    let mut resident2: Option<(u32, Resident)> = None;
    let mut pair_idx = 0usize;
    // A nested recording frame isolates the residency walk, so the actual
    // transfer volume and execution cost of the *strategy* (not the delta
    // merge below, which is strategy-invariant) can be measured and fed
    // back to the observed statistics. The frame folds into the query's
    // measure on finish — total accounting is unchanged.
    spade_gpu::record::begin();
    let stream_res = crate::prefetch::stream_cells(
        spade.config.prefetch_depth,
        spade.config.cell_cache_bytes,
        &[&view1, &view2],
        &sequence,
        cancel,
        |cell| {
            let (source, resident) = if cell.source == 0 {
                (&view1, &mut resident1)
            } else {
                (&view2, &mut resident2)
            };
            if let Some((i, _)) = resident.take() {
                spade.device.free(source.cell_bytes(i as usize));
            }
            let _ = spade.device.upload(cell.bytes);
            spade.observed.observe_cell_load(
                if cell.source == 0 { d1.uid() } else { d2.uid() },
                cell.bytes,
            );
            *resident = Some((
                cell.cell as u32,
                Resident::prepare(spade, (*cell.data).clone(), &mut polygon_time),
            ));
            // Refine every pair now satisfied by the resident cells.
            while pair_idx < cell_pairs.len() {
                let (c1, c2) = cell_pairs[pair_idx];
                let (Some((i1, left)), Some((i2, right))) = (&resident1, &resident2) else {
                    break;
                };
                if *i1 != c1 || *i2 != c2 {
                    break;
                }
                pairs.extend(match strategy {
                    JoinStrategy::LayerIndex => join_cells_layered(spade, left, right),
                    JoinStrategy::NaiveSelects => join_cells_naive(spade, left, right),
                });
                pair_idx += 1;
            }
            Ok(())
        },
    );
    if let Some((i, _)) = resident1 {
        spade.device.free(view1.cell_bytes(i as usize));
    }
    if let Some((i, _)) = resident2 {
        spade.device.free(view2.cell_bytes(i as usize));
    }
    let walk = spade_gpu::record::finish();
    let stream = stream_res?;
    debug_assert_eq!(pair_idx, cell_pairs.len(), "all cell pairs refined");

    // Feed the realized walk back to the observed statistics and render
    // the hindsight verdict for EXPLAIN ANALYZE.
    let actual_bytes = walk.transfer_bytes;
    let actual_cost = walk.gpu.gpu_nanos + walk.transfer_nanos;
    let est_chosen = match strategy {
        JoinStrategy::LayerIndex => layer_est,
        JoinStrategy::NaiveSelects => naive_est,
    };
    spade
        .observed
        .observe_join(pair_key, strategy, est_chosen, actual_bytes, actual_cost);
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
    if mispredicted {
        spade.observed.count_misprediction(
            Some(d1.uid()),
            optimizer::stats::Decision::of_join(strategy),
        );
    }
    crate::explain::note_join_actual(actual_bytes, actual_cost, mispredicted, would_have_chosen);

    // Delta cross terms: each side's staged writes behave as one extra
    // cell and join against every cell of the other side through the same
    // refinement kernels, so merged pairs match a cold rebuild. The cell
    // cache is warm from the walk above. Scoped (scatter-gather) calls run
    // these on exactly one shard.
    let delta1 = (include_delta && !view1.delta.staged.is_empty())
        .then(|| Resident::prepare(spade, view1.delta_dataset(), &mut polygon_time));
    let delta2 = (include_delta && !view2.delta.staged.is_empty())
        .then(|| Resident::prepare(spade, view2.delta_dataset(), &mut polygon_time));
    if let Some(dl) = &delta1 {
        for i in 0..view2.grid.num_cells() {
            cancel.check()?;
            let (cell, _) = view2.load_cell_cached(i, spade.config.cell_cache_bytes)?;
            let right = Resident::prepare(spade, (*cell).clone(), &mut polygon_time);
            pairs.extend(join_cells_layered(spade, dl, &right));
        }
    }
    if let Some(dr) = &delta2 {
        for i in 0..view1.grid.num_cells() {
            cancel.check()?;
            let (cell, _) = view1.load_cell_cached(i, spade.config.cell_cache_bytes)?;
            let left = Resident::prepare(spade, (*cell).clone(), &mut polygon_time);
            pairs.extend(join_cells_layered(spade, &left, dr));
        }
    }
    if let (Some(dl), Some(dr)) = (&delta1, &delta2) {
        pairs.extend(join_cells_layered(spade, dl, dr));
    }
    pairs.sort_unstable();
    pairs.dedup();

    let n = pairs.len() as u64;
    qspan.attr("cells", stream.cells);
    qspan.attr("pairs", n);
    let mut stats = measure.finish(
        spade,
        stream.io_time,
        stream.bytes_from_disk,
        polygon_time,
        stream.cells,
        n,
    );
    stream.charge(&mut stats);
    Ok(QueryOutput {
        result: pairs,
        stats,
    })
}

fn lines_of(d: &Dataset) -> Vec<(u32, &spade_geometry::LineString)> {
    d.objects
        .iter()
        .filter_map(|(id, g)| match g {
            spade_geometry::Geometry::LineString(l) => Some((*id, l)),
            _ => None,
        })
        .collect()
}

/// A resident (device-loaded) cell in its prepared form.
enum Resident {
    Points(Vec<(u32, Point)>),
    Lines(Vec<(u32, spade_geometry::LineString)>),
    Polys(PreparedPolygonSet),
}

impl Resident {
    fn prepare(spade: &Spade, data: Dataset, polygon_time: &mut Duration) -> Resident {
        match data.kind {
            DatasetKind::Points => Resident::Points(data.as_points()),
            DatasetKind::Lines => Resident::Lines(
                data.objects
                    .into_iter()
                    .filter_map(|(id, g)| match g {
                        spade_geometry::Geometry::LineString(l) => Some((id, l)),
                        _ => None,
                    })
                    .collect(),
            ),
            DatasetKind::Polygons => {
                let t0 = Instant::now();
                let set = PreparedPolygonSet::prepare(
                    &spade.pipeline,
                    &data,
                    spade.config.layer_resolution(),
                );
                *polygon_time += t0.elapsed();
                Resident::Polys(set)
            }
        }
    }
}

/// Refine one cell pair with the layer-index join.
fn join_cells_layered(spade: &Spade, left: &Resident, right: &Resident) -> Pairs {
    let flip = |pairs: Pairs| -> Pairs { pairs.into_iter().map(|(a, b)| (b, a)).collect() };
    match (left, right) {
        (Resident::Polys(set), Resident::Points(pts)) => join_polygon_point_mem(spade, set, pts),
        (Resident::Points(pts), Resident::Polys(set)) => {
            flip(join_polygon_point_mem(spade, set, pts))
        }
        (Resident::Polys(s1), Resident::Polys(s2)) => join_polygon_polygon_mem(spade, s1, s2),
        (Resident::Polys(set), Resident::Lines(lines)) => {
            let refs: Vec<(u32, &spade_geometry::LineString)> =
                lines.iter().map(|(id, l)| (*id, l)).collect();
            join_polygon_line_mem(spade, set, &refs)
        }
        (Resident::Lines(lines), Resident::Polys(set)) => {
            let refs: Vec<(u32, &spade_geometry::LineString)> =
                lines.iter().map(|(id, l)| (*id, l)).collect();
            flip(join_polygon_line_mem(spade, set, &refs))
        }
        _ => unimplemented!("unsupported cell-pair kind combination"),
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
        match right {
            Resident::Points(pts) => {
                for (cid, pid) in scan_points_for_pairs(spade, &constraint, pts) {
                    debug_assert_eq!(cid, poly.id);
                    pairs.push((poly.id, pid));
                }
            }
            Resident::Polys(probes) => {
                for (_, pid) in scan_polygons_for_pairs(spade, &constraint, &probes.polygons) {
                    pairs.push((poly.id, pid));
                }
            }
            Resident::Lines(lines) => {
                let refs: Vec<(u32, &spade_geometry::LineString)> =
                    lines.iter().map(|(id, l)| (*id, l)).collect();
                let (prims, geoms) = crate::select::line_candidates(&refs);
                for (_, pid) in scan_candidates_for_pairs(spade, &constraint, &prims, &geoms) {
                    pairs.push((poly.id, pid));
                }
            }
        }
    }
    pairs
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
