//! Spatial selection queries (§5.2, Fig. 4).
//!
//! A selection finds all objects of a data set intersecting a polygonal
//! constraint. The in-memory plan is the paper's fused pipeline: render the
//! constraint canvas once (one pass + boundary pass), then draw the query
//! data in a single pass whose fragment shader performs blend + mask —
//! sampling the constraint texture, running the exact boundary test where
//! needed — and Map stores survivors into the output list, which the
//! parallel scan extracts.
//!
//! The out-of-core plan (§5.3) first runs the same selection over the grid
//! index's *bounding polygons* (each cell's convex hull) to choose cells,
//! then streams each chosen cell through the in-memory plan.

use crate::ctx::QueryCtx;
use crate::dataset::{Dataset, DatasetKind, IndexedDataset, ReadView};
use crate::engine::{Constraint, Measure, Spade};
use crate::explain::DeltaInfo;
use crate::optimizer;
use crate::prefetch::StreamStats;
use crate::scope::CellScope;
use crate::stats::QueryOutput;
use spade_canvas::algebra;
use spade_canvas::create::PreparedPolygon;
use spade_geometry::{LineString, Point, Polygon, Segment, Triangle};
use spade_gpu::{BlendMode, DrawCall, FnFragment, Primitive};
use std::time::{Duration, Instant};

/// Exact geometry of a candidate primitive, looked up by fragment shaders
/// for boundary tests.
pub(crate) enum CandidateGeom {
    Tri(Triangle),
    Seg(Segment),
}

/// Build the conservative rendering primitives for candidate polygons:
/// interior triangles plus boundary edges, each indexing its exact
/// geometry. `attrs = [object_id + 1, candidate_index, 0, 0]`.
pub(crate) fn polygon_candidates(
    polys: &[PreparedPolygon],
) -> (Vec<Primitive>, Vec<CandidateGeom>) {
    let mut prims = Vec::new();
    let mut geoms = Vec::new();
    for p in polys {
        for t in &p.triangles {
            let idx = geoms.len() as u32;
            geoms.push(CandidateGeom::Tri(*t));
            prims.push(Primitive::triangle(t.a, t.b, t.c, [p.id + 1, idx, 0, 0]));
        }
        for (e, _) in &p.edges {
            let idx = geoms.len() as u32;
            geoms.push(CandidateGeom::Seg(*e));
            prims.push(Primitive::line(e.a, e.b, [p.id + 1, idx, 0, 0]));
        }
    }
    (prims, geoms)
}

/// Candidate primitives for polyline data: the segments.
pub(crate) fn line_candidates(
    lines: &[(u32, &LineString)],
) -> (Vec<Primitive>, Vec<CandidateGeom>) {
    let mut prims = Vec::new();
    let mut geoms = Vec::new();
    for (id, l) in lines {
        for seg in l.segments() {
            let idx = geoms.len() as u32;
            geoms.push(CandidateGeom::Seg(seg));
            prims.push(Primitive::line(seg.a, seg.b, [*id + 1, idx, 0, 0]));
        }
    }
    (prims, geoms)
}

/// In-memory point selection: ids of points intersecting the constraint.
/// This is the fused blend+mask+map pass of Fig. 4, using the Map
/// implementation the optimizer picks (§5.4: `n_max` = number of objects).
pub fn select_points_mem(
    spade: &Spade,
    points: &[(u32, Point)],
    constraint: &Constraint,
) -> Vec<u32> {
    let prims: Vec<Primitive> = points
        .iter()
        .enumerate()
        .map(|(i, (id, p))| Primitive::point(*p, [*id + 1, i as u32, 0, 0]))
        .collect();
    let shader = FnFragment(
        |frag: &spade_gpu::Fragment, _: &spade_gpu::ShaderContext<'_>| {
            let p = points[frag.attrs[1] as usize].1;
            if constraint.match_point_any(p) {
                Some([frag.attrs[0], 0, 0, 0])
            } else {
                None
            }
        },
    );
    let call = DrawCall {
        fragment: &shader,
        ..DrawCall::simple(constraint.viewport, BlendMode::Replace, false)
    };
    let n_max = points.len();
    let result = optimizer::run_map(spade, &prims, &call, n_max);
    result.values.into_iter().map(|v| v[0] - 1).collect()
}

/// In-memory polygon selection: ids of polygons intersecting the
/// constraint (each candidate drawn conservatively; boundary pixels
/// resolved with constant-time triangle tests through the boundary index).
pub fn select_polygons_mem(
    spade: &Spade,
    polys: &[PreparedPolygon],
    constraint: &Constraint,
) -> Vec<u32> {
    let (prims, geoms) = polygon_candidates(polys);
    select_candidates(spade, &prims, &geoms, constraint)
}

/// In-memory polyline selection.
pub fn select_lines_mem(
    spade: &Spade,
    lines: &[(u32, &LineString)],
    constraint: &Constraint,
) -> Vec<u32> {
    let (prims, geoms) = line_candidates(lines);
    select_candidates(spade, &prims, &geoms, constraint)
}

fn select_candidates(
    spade: &Spade,
    prims: &[Primitive],
    geoms: &[CandidateGeom],
    constraint: &Constraint,
) -> Vec<u32> {
    // Per-chunk state: a scratch match buffer plus the set of candidates
    // already known to match — a matched candidate skips all further exact
    // tests (selection only needs existence).
    let result = algebra::map_emit_stateful(
        &spade.pipeline,
        prims,
        constraint.viewport,
        true,
        || (Vec::<u32>::new(), std::collections::HashSet::<u32>::new()),
        |(scratch, seen), frag, out| {
            if seen.contains(&frag.attrs[0]) {
                return;
            }
            let px = (frag.x, frag.y);
            match &geoms[frag.attrs[1] as usize] {
                CandidateGeom::Tri(t) => constraint.match_triangle_at(px, t, scratch),
                CandidateGeom::Seg(s) => constraint.match_segment_at(px, *s, scratch),
            }
            if !scratch.is_empty() {
                seen.insert(frag.attrs[0]);
                out.push([frag.attrs[0], 0, 0, 0]);
            }
        },
    );
    let mut ids: Vec<u32> = result.values.into_iter().map(|v| v[0] - 1).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Spatial selection over an in-memory data set with full statistics.
pub fn select(spade: &Spade, data: &Dataset, constraint_poly: &Polygon) -> QueryOutput<Vec<u32>> {
    let mut qspan = crate::trace::span("query.select");
    let measure = spade.begin();

    // Polygon processing: triangulate the constraint (boundary index
    // entries are created during canvas rendering).
    let t0 = Instant::now();
    let prepared = vec![PreparedPolygon::prepare(0, constraint_poly)];
    let polygon_time = t0.elapsed();

    let constraint = Constraint::from_polygons(spade, &prepared);
    let ids = select_mem_dispatch(spade, data, &constraint);

    let n = ids.len() as u64;
    qspan.attr("results", n);
    let stats = measure.finish(spade, Duration::ZERO, 0, polygon_time, 0, n);
    QueryOutput { result: ids, stats }
}

pub(crate) fn select_mem_dispatch(
    spade: &Spade,
    data: &Dataset,
    constraint: &Constraint,
) -> Vec<u32> {
    match data.kind {
        DatasetKind::Points => select_points_mem(spade, &data.as_points(), constraint),
        DatasetKind::Polygons => {
            let prepared = data.prepare_polygons();
            select_polygons_mem(spade, &prepared, constraint)
        }
        DatasetKind::Lines => {
            let lines: Vec<(u32, &LineString)> = data
                .objects
                .iter()
                .filter_map(|(id, g)| match g {
                    spade_geometry::Geometry::LineString(l) => Some((*id, l)),
                    _ => None,
                })
                .collect();
            select_lines_mem(spade, &lines, constraint)
        }
    }
}

/// Rectangular range selection — the fast path of §4.2: the rectangle is
/// expanded into two triangles by a geometry shader (no triangulation, no
/// per-edge boundary construction on the CPU).
pub fn select_range(
    spade: &Spade,
    data: &Dataset,
    range: spade_geometry::BBox,
) -> QueryOutput<Vec<u32>> {
    let mut qspan = crate::trace::span("query.range");
    let measure = spade.begin();
    let constraint = Constraint::from_rects(spade, &[(0, range)]);
    let ids = select_mem_dispatch(spade, data, &constraint);
    let n = ids.len() as u64;
    qspan.attr("results", n);
    let stats = measure.finish(spade, Duration::ZERO, 0, Duration::ZERO, 0, n);
    QueryOutput { result: ids, stats }
}

/// Containment selection (`ST_CONTAINS`, §7): objects lying *entirely*
/// inside the constraint polygon.
///
/// Following §7, lines and polygons are treated as collections of vertices
/// whose containment is tested through the same point machinery; since
/// all-vertices-inside does not imply containment for concave constraints,
/// candidates whose boundary could cross the constraint rim get an exact
/// edge-crossing refinement (for points, containment equals intersection).
pub fn select_contained(
    spade: &Spade,
    data: &Dataset,
    constraint_poly: &Polygon,
) -> QueryOutput<Vec<u32>> {
    let mut qspan = crate::trace::span("query.contained");
    let measure = spade.begin();
    let t0 = Instant::now();
    let prepared = vec![PreparedPolygon::prepare(0, constraint_poly)];
    let polygon_time = t0.elapsed();
    let constraint = Constraint::from_polygons(spade, &prepared);
    let ids = contained_mem(spade, data, constraint_poly, &constraint);
    let n = ids.len() as u64;
    qspan.attr("results", n);
    let stats = measure.finish(spade, Duration::ZERO, 0, polygon_time, 0, n);
    QueryOutput { result: ids, stats }
}

/// The containment kernel over one cell: `constraint` is the rendered
/// canvas of `constraint_poly`.
fn contained_mem(
    spade: &Spade,
    data: &Dataset,
    constraint_poly: &Polygon,
    constraint: &Constraint,
) -> Vec<u32> {
    match data.kind {
        DatasetKind::Points => select_points_mem(spade, &data.as_points(), constraint),
        _ => {
            // §7: test the vertex collection of each object. An object is a
            // containment candidate iff *every* vertex matches.
            let mut vertex_prims = Vec::new();
            let mut vertex_counts: std::collections::BTreeMap<u32, (usize, usize)> =
                std::collections::BTreeMap::new();
            let mut coords: Vec<Point> = Vec::new();
            for (id, g) in &data.objects {
                let e = vertex_counts.entry(*id).or_insert((0, 0));
                for p in object_vertices(g) {
                    e.0 += 1;
                    vertex_prims.push(Primitive::point(p, [*id, coords.len() as u32, 0, 0]));
                    coords.push(p);
                }
            }
            let result = algebra::map_emit(
                &spade.pipeline,
                &vertex_prims,
                constraint.viewport,
                false,
                |frag, out| {
                    if constraint.match_point_any(coords[frag.attrs[1] as usize]) {
                        out.push([frag.attrs[0], 0, 0, 0]);
                    }
                },
            );
            for v in result.values {
                vertex_counts.get_mut(&v[0]).expect("known id").1 += 1;
            }
            // Exact refinement: no object edge may cross the constraint
            // boundary, and no constraint hole may cut into the object.
            let rim = constraint_poly.boundary_edges();
            let rim_bb = constraint_poly.bbox();
            vertex_counts
                .into_iter()
                .filter(|(_, (total, inside))| *total > 0 && total == inside)
                .map(|(id, _)| id)
                .filter(|id| {
                    let g = &data
                        .objects
                        .iter()
                        .find(|(i, _)| i == id)
                        .expect("object")
                        .1;
                    !object_edges(g).iter().any(|e| {
                        e.bbox().intersects(&rim_bb)
                            && rim
                                .iter()
                                .any(|r| spade_geometry::predicates::segments_intersect(*e, *r))
                    }) && !constraint_hole_cuts(constraint_poly, g)
                })
                .collect()
        }
    }
}

/// The out-of-core strategy every single-dataset query shares (§5.3) —
/// the one-dataset twin of [`crate::join::PairWalk`]. [`CellWalk::plan`]
/// fixes the snapshot, the scope and the prepared cell hulls once per
/// query; [`CellWalk::run`] owns everything between a constraint and the
/// caller's per-cell kernel, and may run more than once (kNN: twice) over
/// the same snapshot.
pub(crate) struct CellWalk<'a> {
    pub view: ReadView<'a>,
    /// The view's delta merge, for the query's plan.
    pub deltas: Vec<DeltaInfo>,
    scope: CellScope,
    hulls: Vec<PreparedPolygon>,
}

impl<'a> CellWalk<'a> {
    pub(crate) fn plan(
        data: &'a IndexedDataset,
        ctx: &QueryCtx,
        polygon_time: &mut Duration,
    ) -> spade_storage::Result<CellWalk<'a>> {
        let scope = ctx.scope.cells()?;
        let view = data.read_view();
        let deltas = DeltaInfo::of_views(&[&view]);
        let hulls = view.prepared_hulls(view.slots(scope.include_delta), polygon_time);
        Ok(CellWalk {
            view,
            deltas,
            scope,
            hulls,
        })
    }

    /// The slots the scope sees: its cells, and the delta it owns.
    pub(crate) fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        let slots = self.view.slots(self.scope.include_delta);
        slots.filter(|&s| (self.view.cell_id(s)).is_none_or(|c| self.scope.contains(c)))
    }

    /// *Filter*: a polygon selection over the slots' hulls against
    /// `filter` (possibly a coarse rendering of `resident`: a false
    /// positive only loads one extra cell), kept to the slots the scope
    /// sees — the staged delta is one of them, so merged results match a
    /// cold rebuild. *Refine*: stream each candidate through `refine`,
    /// prefetching ahead, with `resident` — the canvas `refine` samples —
    /// on the device until the walk returns, fails or unwinds, and each
    /// slot beside it while it refines (accounted; a slot that does not
    /// fit streams without residing). `ctx.cancel` is polled at every slot
    /// boundary.
    pub(crate) fn run(
        &self,
        spade: &Spade,
        ctx: &QueryCtx,
        filter: &Constraint,
        resident: &Constraint,
        mut refine: impl FnMut(&Dataset),
    ) -> spade_storage::Result<StreamStats> {
        let hit = select_polygons_mem(spade, &self.hulls, filter); // sorted
        let sequence: Vec<(usize, usize)> = (self.slots())
            .filter(|s| hit.binary_search(s).is_ok())
            .map(|s| (0, s as usize))
            .collect();
        let _resident = spade.device.charge(resident.byte_size());
        crate::prefetch::stream_cells(
            spade.config.prefetch_depth,
            spade.config.cell_cache_bytes,
            &[&self.view],
            &sequence,
            &ctx.cancel,
            |cell| {
                let _cell = spade.device.charge(cell.bytes);
                refine(&cell.data);
                Ok(())
            },
        )
    }

    /// Close an id-producing query over this walk: sort the per-cell ids,
    /// span attributes, the wall clock, then the stream's overlap
    /// accounting.
    pub(crate) fn finish_ids(
        &self,
        spade: &Spade,
        measure: Measure,
        mut qspan: crate::trace::SpanGuard,
        polygon_time: Duration,
        mut ids: Vec<u32>,
        stream: StreamStats,
    ) -> QueryOutput<Vec<u32>> {
        ids.sort_unstable();
        ids.dedup();
        let n = ids.len() as u64;
        qspan.attr("cells", stream.cells);
        qspan.attr("results", n);
        let stats = measure.finish_streamed(spade, &stream, &self.deltas, polygon_time, n);
        QueryOutput { result: ids, stats }
    }
}

/// An out-of-core selection against a polygonal constraint: the polygon
/// is prepared once and its canvas serves every refinement — cells and
/// delta alike — through `kernel`; the hull filter runs against a coarse
/// rendering of it.
fn polygon_walk(
    spade: &Spade,
    data: &IndexedDataset,
    constraint_poly: &Polygon,
    ctx: &QueryCtx,
    qspan: crate::trace::SpanGuard,
    kernel: impl Fn(&Dataset, &Constraint) -> Vec<u32>,
) -> spade_storage::Result<QueryOutput<Vec<u32>>> {
    let measure = spade.begin();
    let t0 = Instant::now();
    let prepared = vec![PreparedPolygon::prepare(0, constraint_poly)];
    let mut polygon_time = t0.elapsed();
    let walk = CellWalk::plan(data, ctx, &mut polygon_time)?;
    let constraint = Constraint::from_polygons(spade, &prepared);
    let filter = Constraint::from_polygons_res(spade, &prepared, spade.config.filter_resolution());
    let mut ids = Vec::new();
    let stream = walk.run(spade, ctx, &filter, &constraint, |cell| {
        ids.extend(kernel(cell, &constraint))
    })?;
    Ok(walk.finish_ids(spade, measure, qspan, polygon_time, ids, stream))
}

/// Out-of-core containment selection: since every object is clustered into
/// exactly one grid cell, per-cell containment results union losslessly;
/// the filter stage is the same hull selection (an object contained in the
/// constraint certainly intersects it). Only candidate cells inside
/// `ctx.scope` refine, and the staged delta merges only when the scope
/// owns it.
pub fn select_contained_indexed(
    spade: &Spade,
    data: &IndexedDataset,
    constraint_poly: &Polygon,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<Vec<u32>>> {
    let qspan = crate::trace::span("query.contained.indexed");
    polygon_walk(spade, data, constraint_poly, ctx, qspan, |cell, c| {
        contained_mem(spade, cell, constraint_poly, c)
    })
}

fn object_vertices(g: &spade_geometry::Geometry) -> Vec<Point> {
    use spade_geometry::Geometry;
    match g {
        Geometry::Point(p) => vec![*p],
        Geometry::LineString(l) => l.points.clone(),
        Geometry::Polygon(p) => {
            let mut v = p.exterior.points.clone();
            for h in &p.holes {
                v.extend_from_slice(&h.points);
            }
            v
        }
        Geometry::MultiPolygon(m) => m
            .polygons
            .iter()
            .flat_map(|p| {
                let mut v = p.exterior.points.clone();
                for h in &p.holes {
                    v.extend_from_slice(&h.points);
                }
                v
            })
            .collect(),
    }
}

fn object_edges(g: &spade_geometry::Geometry) -> Vec<Segment> {
    use spade_geometry::Geometry;
    match g {
        Geometry::Point(_) => Vec::new(),
        Geometry::LineString(l) => l.segments().collect(),
        Geometry::Polygon(p) => p.boundary_edges(),
        Geometry::MultiPolygon(m) => m.polygons.iter().flat_map(|p| p.boundary_edges()).collect(),
    }
}

/// True when a hole of `constraint` bites into `g` (all of g's vertices can
/// be inside the exterior while a hole removes part of g's interior).
fn constraint_hole_cuts(constraint: &Polygon, g: &spade_geometry::Geometry) -> bool {
    if constraint.holes.is_empty() {
        return false;
    }
    constraint.holes.iter().any(|h| {
        let hole_poly = Polygon::new(h.points.clone());
        g.polygons()
            .iter()
            .any(|p| spade_geometry::predicates::polygons_intersect(p, &hole_poly))
            || match g {
                spade_geometry::Geometry::LineString(l) => l
                    .segments()
                    .any(|s| spade_geometry::predicates::segment_intersects_polygon(s, &hole_poly)),
                _ => false,
            }
    })
}

/// Out-of-core spatial selection (§5.3): filter the grid cells with a GPU
/// selection over their bounding polygons, then refine cell by cell. The
/// refinement loop is pipelined: upcoming cells are read and decoded on a
/// background I/O thread (through the cell cache) while the current one
/// refines on the device.
///
/// The hull filter always runs whole; only candidate cells inside
/// `ctx.scope` stream through refinement, and the staged delta merges only
/// when the scope owns it — the scatter-gather invariant cluster executors
/// rely on.
pub fn select_indexed(
    spade: &Spade,
    data: &IndexedDataset,
    constraint_poly: &Polygon,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<Vec<u32>>> {
    let qspan = crate::trace::span("query.select.indexed");
    polygon_walk(spade, data, constraint_poly, ctx, qspan, |cell, c| {
        select_mem_dispatch(spade, cell, c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use spade_geometry::predicates::{point_in_polygon, polygons_intersect};
    use spade_geometry::BBox;
    use spade_index::GridIndex;

    fn engine() -> Spade {
        Spade::new(EngineConfig::test_small())
    }

    fn scatter(n: usize, extent: f64) -> Vec<Point> {
        let mut s = 42u64;
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

    fn hexagon(cx: f64, cy: f64, r: f64) -> Polygon {
        Polygon::circle(Point::new(cx, cy), r, 6)
    }

    #[test]
    fn point_selection_matches_oracle() {
        let s = engine();
        let pts = scatter(2000, 100.0);
        let data = Dataset::from_points("pts", pts.clone());
        let poly = hexagon(50.0, 50.0, 22.0);
        let out = select(&s, &data, &poly);
        let oracle: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| point_in_polygon(**p, &poly))
            .map(|(i, _)| i as u32)
            .collect();
        let mut got = out.result.clone();
        got.sort_unstable();
        assert_eq!(got, oracle);
        assert_eq!(out.stats.result_count, oracle.len() as u64);
        assert!(out.stats.passes >= 3); // constraint (2) + data pass
    }

    #[test]
    fn point_selection_concave_constraint() {
        let s = engine();
        let pts = scatter(1500, 10.0);
        let data = Dataset::from_points("pts", pts.clone());
        // The U-shaped polygon: concavity stresses boundary handling.
        let poly = Polygon::new(vec![
            Point::new(1.0, 1.0),
            Point::new(9.0, 1.0),
            Point::new(9.0, 9.0),
            Point::new(6.5, 9.0),
            Point::new(6.5, 3.5),
            Point::new(3.5, 3.5),
            Point::new(3.5, 9.0),
            Point::new(1.0, 9.0),
        ]);
        let out = select(&s, &data, &poly);
        let oracle: std::collections::BTreeSet<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| point_in_polygon(**p, &poly))
            .map(|(i, _)| i as u32)
            .collect();
        let got: std::collections::BTreeSet<u32> = out.result.into_iter().collect();
        assert_eq!(got, oracle);
    }

    #[test]
    fn polygon_selection_matches_oracle() {
        let s = engine();
        // A field of small boxes, some inside / crossing / outside.
        let mut boxes = Vec::new();
        for i in 0..15 {
            for j in 0..15 {
                let min = Point::new(i as f64 * 7.0, j as f64 * 7.0);
                boxes.push(Polygon::rect(BBox::new(min, min + Point::new(4.0, 4.0))));
            }
        }
        let data = Dataset::from_polygons("boxes", boxes.clone());
        let constraint = hexagon(50.0, 50.0, 25.0);
        let out = select(&s, &data, &constraint);
        let oracle: Vec<u32> = boxes
            .iter()
            .enumerate()
            .filter(|(_, b)| polygons_intersect(b, &constraint))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(out.result, oracle);
    }

    #[test]
    fn line_selection_matches_oracle() {
        let s = engine();
        let lines: Vec<LineString> = (0..50)
            .map(|i| {
                let x = i as f64 * 2.0;
                LineString::new(vec![
                    Point::new(x, 0.0),
                    Point::new(x + 1.5, 50.0),
                    Point::new(x, 100.0),
                ])
            })
            .collect();
        let data = Dataset::from_lines("lines", lines.clone());
        let constraint = hexagon(50.0, 50.0, 20.0);
        let out = select(&s, &data, &constraint);
        let oracle: Vec<u32> = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.segments().any(|seg| {
                    spade_geometry::predicates::segment_intersects_polygon(seg, &constraint)
                })
            })
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(out.result, oracle);
    }

    #[test]
    fn empty_results() {
        let s = engine();
        let data = Dataset::from_points("pts", scatter(100, 10.0));
        // Constraint far away from the data.
        let poly = hexagon(500.0, 500.0, 5.0);
        let out = select(&s, &data, &poly);
        assert!(out.result.is_empty());
        assert_eq!(out.stats.result_count, 0);
    }

    #[test]
    fn out_of_core_selection_matches_in_memory() {
        let s = engine();
        let pts = scatter(3000, 100.0);
        let data = Dataset::from_points("pts", pts.clone());
        let grid = GridIndex::build(None, &data.objects, 20.0).unwrap();
        let indexed = IndexedDataset::new("pts", DatasetKind::Points, grid);
        let poly = hexagon(40.0, 60.0, 18.0);

        let mem = select(&s, &data, &poly);
        let ooc = select_indexed(&s, &indexed, &poly, &QueryCtx::default()).unwrap();
        let mut a = mem.result.clone();
        a.sort_unstable();
        assert_eq!(a, ooc.result);
        // The filter must have pruned at least one of the 25 cells.
        assert!(ooc.stats.cells_loaded < indexed.grid().num_cells() as u64);
        assert!(ooc.stats.cells_loaded > 0);
        assert!(ooc.stats.bytes_from_disk > 0);
        assert!(ooc.stats.bytes_to_device > 0);

        // On a device another query has filled, neither the canvas nor a
        // cell fits: both stream without residing, and the walk gives back
        // nothing it never got.
        let held = s.device.available() - 8;
        s.device.alloc(held).unwrap();
        let crowded = select_indexed(&s, &indexed, &poly, &QueryCtx::default()).unwrap();
        assert_eq!(crowded.result, ooc.result);
        assert_eq!(s.device.used(), held);
    }

    /// The staged delta is the walk's last slot: it enters the sequence
    /// through the hull filter, is on the ledger while it refines, and sits
    /// behind a cancel poll like any cell.
    #[test]
    fn mid_walk_cancellation_frees_resident_cells() {
        let s = engine();
        // 9 × 9 cells of 25 points each.
        let lattice = (0..45 * 45)
            .map(|i| Point::new((2 * (i % 45) + 1) as f64, (2 * (i / 45) + 1) as f64))
            .collect();
        let data = Dataset::from_points("p", lattice);
        let grid = GridIndex::build(None, &data.objects, 10.0).unwrap();
        let indexed = IndexedDataset::new("p", DatasetKind::Points, grid);
        indexed.insert(
            9000,
            spade_geometry::Geometry::Point(Point::new(44.0, 46.0)),
        );
        let prepared = vec![PreparedPolygon::prepare(0, &hexagon(45.0, 45.0, 12.0))];
        let constraint = Constraint::from_polygons(&s, &prepared);

        // Two passes under one ctx, as kNN makes them. `cancel_in`: the
        // position in the sequence of the slot whose refinement cancels.
        let walk_cancelling = |cancel_in: Option<usize>| {
            let ctx = QueryCtx::default();
            let walk = CellWalk::plan(&indexed, &ctx, &mut Duration::default()).unwrap();
            let mut refined = Vec::new();
            let mut pass = || {
                walk.run(&s, &ctx, &constraint, &constraint, |cell| {
                    let bytes = match cell.name.strip_suffix("#delta") {
                        Some(_) => walk.view.delta.bytes,
                        None => walk.view.cell_bytes(cell.name[2..].parse().unwrap()),
                    };
                    assert_eq!(s.device.used(), constraint.byte_size() + bytes);
                    if cancel_in == Some(refined.len()) {
                        ctx.cancel.cancel();
                    }
                    refined.push(cell.name.clone());
                })
            };
            let first = pass();
            let cells = first.and_then(|first| Ok(first.cells + pass()?.cells));
            assert_eq!(s.device.used(), 0, "{cancel_in:?}");
            (cells, refined)
        };
        let (cells, refined) = walk_cancelling(None);
        assert_eq!(cells, Ok(refined.len() as u64));
        let slots = &refined[..refined.len() / 2];
        assert!((4..81).contains(&slots.len()), "{slots:?}");
        assert_eq!(slots.last().unwrap(), "p#delta");
        // Cancelled in the first cell; in the last one, with only the delta
        // slot left to refine; and with the delta slot resident.
        for at in [0, slots.len() - 2, slots.len() - 1] {
            let (cells, refined) = walk_cancelling(Some(at));
            assert_eq!(cells, Err(spade_storage::StorageError::Cancelled));
            assert_eq!(refined, slots[..=at]);
        }
    }

    #[test]
    fn out_of_core_polygon_selection() {
        let s = engine();
        let mut boxes = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                let min = Point::new(i as f64 * 8.0, j as f64 * 8.0);
                boxes.push(Polygon::rect(BBox::new(min, min + Point::new(5.0, 5.0))));
            }
        }
        let data = Dataset::from_polygons("boxes", boxes.clone());
        let grid = GridIndex::build(None, &data.objects, 30.0).unwrap();
        let indexed = IndexedDataset::new("boxes", DatasetKind::Polygons, grid);
        let constraint = hexagon(48.0, 48.0, 20.0);
        let ooc = select_indexed(&s, &indexed, &constraint, &QueryCtx::default()).unwrap();
        let oracle: Vec<u32> = boxes
            .iter()
            .enumerate()
            .filter(|(_, b)| polygons_intersect(b, &constraint))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(ooc.result, oracle);
    }

    #[test]
    fn containment_selection_polygons() {
        let s = engine();
        // A concave (U-shaped) constraint: the vertex test alone would
        // wrongly accept a box bridging the notch.
        let constraint = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(30.0, 0.0),
            Point::new(30.0, 30.0),
            Point::new(20.0, 30.0),
            Point::new(20.0, 10.0),
            Point::new(10.0, 10.0),
            Point::new(10.0, 30.0),
            Point::new(0.0, 30.0),
        ]);
        let boxes = vec![
            // Fully inside the left arm.
            Polygon::rect(BBox::new(Point::new(2.0, 12.0), Point::new(8.0, 28.0))),
            // Bridges the notch: all four vertices inside, middle outside.
            Polygon::rect(BBox::new(Point::new(5.0, 2.0), Point::new(25.0, 8.0))),
            // Crosses the outer rim.
            Polygon::rect(BBox::new(Point::new(25.0, 25.0), Point::new(35.0, 35.0))),
            // Fully outside.
            Polygon::rect(BBox::new(Point::new(50.0, 50.0), Point::new(60.0, 60.0))),
        ];
        // Box 1 bridges the notch but its bottom edge stays in the base
        // (y 2..8 is inside the U's base which spans y 0..10): actually
        // contained. Shift a probe so part pokes into the notch instead.
        let bridging = Polygon::rect(BBox::new(Point::new(5.0, 5.0), Point::new(25.0, 9.9)));
        let mut all = boxes.clone();
        all.push(bridging);
        let data = Dataset::from_polygons("boxes", all.clone());
        let out = select_contained(&s, &data, &constraint);
        // Oracle: contained iff all vertices inside and no edge crossing.
        let oracle: Vec<u32> = all
            .iter()
            .enumerate()
            .filter(|(_, b)| {
                b.exterior
                    .points
                    .iter()
                    .all(|&v| point_in_polygon(v, &constraint))
                    && !b.boundary_edges().iter().any(|e| {
                        constraint
                            .boundary_edges()
                            .iter()
                            .any(|r| spade_geometry::predicates::segments_intersect(*e, *r))
                    })
            })
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(out.result, oracle);
        assert!(out.result.contains(&0)); // the left-arm box
        assert!(!out.result.contains(&3)); // the outside box
    }

    #[test]
    fn containment_on_points_equals_intersection() {
        let s = engine();
        let pts = scatter(500, 50.0);
        let data = Dataset::from_points("p", pts.clone());
        let c = hexagon(25.0, 25.0, 12.0);
        let mut contained = select_contained(&s, &data, &c).result;
        contained.sort_unstable();
        let mut intersecting = select(&s, &data, &c).result;
        intersecting.sort_unstable();
        assert_eq!(contained, intersecting);
    }

    #[test]
    fn containment_with_holes() {
        let s = engine();
        let constraint = Polygon::with_holes(
            vec![
                Point::new(0.0, 0.0),
                Point::new(40.0, 0.0),
                Point::new(40.0, 40.0),
                Point::new(0.0, 40.0),
            ],
            vec![vec![
                Point::new(15.0, 15.0),
                Point::new(25.0, 15.0),
                Point::new(25.0, 25.0),
                Point::new(15.0, 25.0),
            ]],
        );
        let boxes = vec![
            // Clear of the hole: contained.
            Polygon::rect(BBox::new(Point::new(2.0, 2.0), Point::new(10.0, 10.0))),
            // Overlapping the hole: not contained.
            Polygon::rect(BBox::new(Point::new(12.0, 12.0), Point::new(18.0, 18.0))),
            // Surrounding the hole entirely: not contained either.
            Polygon::rect(BBox::new(Point::new(10.0, 10.0), Point::new(30.0, 30.0))),
        ];
        let data = Dataset::from_polygons("boxes", boxes);
        let out = select_contained(&s, &data, &constraint);
        assert_eq!(out.result, vec![0]);
    }

    #[test]
    fn out_of_core_containment_matches_in_memory() {
        let s = engine();
        let mut boxes = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let min = Point::new(i as f64 * 10.0, j as f64 * 10.0);
                boxes.push(Polygon::rect(BBox::new(min, min + Point::new(6.0, 6.0))));
            }
        }
        let data = Dataset::from_polygons("boxes", boxes);
        let constraint = hexagon(50.0, 50.0, 30.0);
        let mem = select_contained(&s, &data, &constraint);
        let grid = GridIndex::build(None, &data.objects, 35.0).unwrap();
        let indexed = IndexedDataset::new("boxes", DatasetKind::Polygons, grid);
        let ooc =
            select_contained_indexed(&s, &indexed, &constraint, &QueryCtx::default()).unwrap();
        let mut mem_sorted = mem.result.clone();
        mem_sorted.sort_unstable();
        assert_eq!(ooc.result, mem_sorted);
        assert!(!ooc.result.is_empty());
    }

    #[test]
    fn containment_of_lines() {
        let s = engine();
        let c = hexagon(25.0, 25.0, 15.0);
        let lines = vec![
            LineString::new(vec![Point::new(20.0, 25.0), Point::new(30.0, 25.0)]), // inside
            LineString::new(vec![Point::new(25.0, 25.0), Point::new(60.0, 25.0)]), // exits
        ];
        let data = Dataset::from_lines("lines", lines);
        let out = select_contained(&s, &data, &c);
        assert_eq!(out.result, vec![0]);
    }

    #[test]
    fn selection_via_rect_constraint() {
        let s = engine();
        let pts = scatter(800, 50.0);
        let bb = BBox::new(Point::new(10.0, 10.0), Point::new(30.0, 25.0));
        let c = Constraint::from_rects(&s, &[(0, bb)]);
        let got = select_points_mem(&s, &Dataset::from_points("p", pts.clone()).as_points(), &c);
        let oracle: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| bb.contains(**p))
            .map(|(i, _)| i as u32)
            .collect();
        let mut got = got;
        got.sort_unstable();
        assert_eq!(got, oracle);
    }
}
