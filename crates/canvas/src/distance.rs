//! Distance-constraint canvases (§4.2 "Canvases for Distance-Based Queries").
//!
//! A distance constraint "within `r` of geometry G" is rendered as a
//! polygonal canvas: a *circle* when G is a point, a *rounded rectangle*
//! (capsule) when G is a segment, and the polygon interior plus boundary
//! capsules when G is a polygon (Fig. 2). Geometry shaders generate the
//! covering primitives; the fragment shader classifies each pixel:
//!
//! * **interior** when the whole pixel is certainly within distance `r`
//!   (`d(center, G) ≤ r − half_diag`),
//! * **boundary** when only part of the pixel may be (`d ≤ r + half_diag`),
//!   with a `vb` entry storing G and `r` so the exact test is a distance
//!   comparison — this is how SPADE supports accurate distance queries to
//!   complex geometry that other systems approximate (§4.2).
//!
//! Pixels certainly outside are discarded in the fragment shader. Each set
//! of primitives is one classified pass ([`BlendMode::Classified`]): a
//! certain pixel overwrites and an uncertain one fills only a null pixel, so
//! a pixel any source covers for certain ends up interior.

use crate::boundary::{BoundaryEntry, BoundaryGeom};
use crate::canvas::{pack, CanvasLayer, CH_VAL, FLAG_BOUNDARY, FLAG_INTERIOR};
use crate::create::PreparedPolygon;
use spade_geometry::distance::point_segment_distance;
use spade_geometry::predicates::point_in_triangle;
use spade_geometry::{Point, Segment};
use spade_gpu::pipeline::BANDS_PER_WORKER;
use spade_gpu::pool::chunk_ranges;
use spade_gpu::{
    BlendMode, DrawCall, FnFragment, Fragment, GeometryShader, Pipeline, Primitive, Viewport,
};

/// The source primitive a distance fragment measures against.
#[derive(Debug, Clone, Copy)]
enum DistSource {
    Point(Point),
    Segment(Segment),
}

impl DistSource {
    fn distance(&self, p: Point) -> f64 {
        match self {
            DistSource::Point(c) => p.dist(*c),
            DistSource::Segment(s) => point_segment_distance(p, *s),
        }
    }
}

/// Geometry shader: expand a point into the two triangles of a square with
/// half-extent `half` centered on it (§4.2 step 1 of circle generation).
struct SquareExpand {
    half: f64,
}

impl GeometryShader for SquareExpand {
    fn expand(&self, prim: &Primitive, out: &mut Vec<Primitive>) {
        if let Primitive::Point { p, attrs } = prim {
            let h = self.half;
            let c0 = Point::new(p.x - h, p.y - h);
            let c1 = Point::new(p.x + h, p.y - h);
            let c2 = Point::new(p.x + h, p.y + h);
            let c3 = Point::new(p.x - h, p.y + h);
            out.push(Primitive::triangle(c0, c1, c2, *attrs));
            out.push(Primitive::triangle(c0, c2, c3, *attrs));
        }
    }
}

/// Geometry shader: expand a segment into an oriented quad covering its
/// capsule of radius `pad` (the rounded-rectangle generator of Fig. 2(b);
/// the quad covers the semicircular caps, the fragment shader carves the
/// exact shape).
struct CapsuleExpand {
    pad: f64,
}

impl GeometryShader for CapsuleExpand {
    fn expand(&self, prim: &Primitive, out: &mut Vec<Primitive>) {
        if let Primitive::Line { a, b, attrs } = prim {
            let d = *b - *a;
            let (u, len) = match d.normalized() {
                Some(u) => (u, d.norm()),
                None => {
                    // Degenerate segment: fall back to a square around `a`.
                    SquareExpand { half: self.pad }.expand(&Primitive::point(*a, *attrs), out);
                    return;
                }
            };
            let n = u.perp();
            let he = len * 0.5 + self.pad; // half extent along the axis
            let mid = (*a + *b) * 0.5;
            let c0 = mid - u * he - n * self.pad;
            let c1 = mid + u * he - n * self.pad;
            let c2 = mid + u * he + n * self.pad;
            let c3 = mid - u * he + n * self.pad;
            out.push(Primitive::triangle(c0, c1, c2, *attrs));
            out.push(Primitive::triangle(c0, c2, c3, *attrs));
        }
    }
}

/// Half of a pixel's diagonal — the certainty margin of the classification.
fn half_diag(vp: &Viewport) -> f64 {
    vp.pixel_size().norm() * 0.5
}

/// Build a distance canvas around point constraints: object `id` covers
/// everything within its own radius of its center (a circle canvas, §4.2;
/// the Type-2 distance join of §5.2 and the kNN join give each object its
/// own radius).
pub fn distance_canvas_points(
    pipe: &Pipeline,
    vp: Viewport,
    constraints: &[(u32, Point, f64)],
) -> CanvasLayer {
    let max_r = constraints.iter().map(|c| c.2).fold(0.0, f64::max);
    let sources: Vec<DistSource> = constraints
        .iter()
        .map(|&(_, c, _)| DistSource::Point(c))
        .collect();
    let radii: Vec<f64> = constraints.iter().map(|c| c.2).collect();
    let prims: Vec<Primitive> = constraints
        .iter()
        .enumerate()
        .map(|(i, &(id, c, _))| Primitive::point(c, pack(id, i as u32, 0, 0)))
        .collect();
    // The square expansion must cover the largest radius; the fragment
    // shader applies each object's own radius.
    let gs = SquareExpand {
        half: max_r + half_diag(&vp),
    };
    render_distance(pipe, vp, &prims, &gs, &sources, &radii, |i| BoundaryEntry {
        object: constraints[i].0,
        geom: BoundaryGeom::PointDist {
            center: constraints[i].1,
            r: constraints[i].2,
        },
    })
}

/// Build a distance canvas around segment constraints (rounded rectangles,
/// Fig. 2(b)).
pub fn distance_canvas_segments(
    pipe: &Pipeline,
    vp: Viewport,
    segments: &[(u32, Segment)],
    r: f64,
) -> CanvasLayer {
    let sources: Vec<DistSource> = segments
        .iter()
        .map(|&(_, s)| DistSource::Segment(s))
        .collect();
    let radii = vec![r; segments.len()];
    let prims: Vec<Primitive> = segments
        .iter()
        .enumerate()
        .map(|(i, &(id, s))| Primitive::line(s.a, s.b, pack(id, i as u32, 0, 0)))
        .collect();
    let gs = CapsuleExpand {
        pad: r + half_diag(&vp),
    };
    render_distance(pipe, vp, &prims, &gs, &sources, &radii, |i| BoundaryEntry {
        object: segments[i].0,
        geom: BoundaryGeom::SegmentDist {
            seg: segments[i].1,
            r,
        },
    })
}

/// Build a distance canvas around a polygon constraint: the polygon interior
/// plus a buffer of width `r` around its boundary (Fig. 2(c)). Drawn as the
/// triangulated interior followed by boundary-edge capsules, re-using the
/// same geometry shader as segments (§4.2).
pub fn distance_canvas_polygon(
    pipe: &Pipeline,
    vp: Viewport,
    poly: &PreparedPolygon,
    r: f64,
) -> CanvasLayer {
    let mut layer = CanvasLayer::new(vp.width, vp.height);
    let hd = half_diag(&vp);

    // Interior triangles: a pixel whose box lies fully inside a triangle is
    // certainly within the constraint; every touched pixel is at least a
    // boundary pixel testing point-in-triangle (distance 0 ≤ r).
    let tris = &poly.triangles;
    let mut interior_prims = Vec::with_capacity(tris.len());
    for t in tris {
        // Interior-triangle entries are pushed first, in order, so the
        // entry index equals the triangle index.
        let entry = layer.boundary.push(BoundaryEntry {
            object: poly.id,
            geom: BoundaryGeom::Triangle(*t),
        });
        interior_prims.push(Primitive::triangle(
            t.a,
            t.b,
            t.c,
            pack(poly.id, entry, 0, 0),
        ));
    }

    // One classified pass over the triangles: a pixel whose box lies fully
    // inside a (convex) triangle — all four corners are — is certain, any
    // other touched pixel uncertain.
    let shader = FnFragment(|frag: &Fragment| {
        let idx = frag.attrs[CH_VAL] as usize;
        let bb = vp.pixel_box(frag.x, frag.y);
        if bb
            .corners()
            .iter()
            .all(|&c| point_in_triangle(c, &tris[idx]))
        {
            Some([frag.attrs[0], 0, FLAG_INTERIOR, 0])
        } else {
            Some([frag.attrs[0], 0, FLAG_BOUNDARY, frag.attrs[CH_VAL] + 1])
        }
    });
    let call = DrawCall {
        fragment: &shader,
        ..DrawCall::simple(vp, BlendMode::Classified, true)
    };
    pipe.draw(&mut layer.texture, &interior_prims, &call);

    // Boundary capsules: within `r` of each polygon edge.
    let edges = poly.polygon.boundary_edges();
    let mut capsule_prims = Vec::with_capacity(edges.len());
    let mut sources = Vec::with_capacity(edges.len());
    let mut entry_ids = Vec::with_capacity(edges.len());
    for (i, &seg) in (0..).zip(&edges) {
        entry_ids.push(layer.boundary.push(BoundaryEntry {
            object: poly.id,
            geom: BoundaryGeom::SegmentDist { seg, r },
        }));
        sources.push(DistSource::Segment(seg));
        capsule_prims.push(Primitive::line(seg.a, seg.b, pack(poly.id, i, 0, 0)));
    }
    let radii = vec![r; edges.len()];
    let gs = CapsuleExpand { pad: r + hd };
    draw_distance(
        pipe,
        vp,
        &mut layer,
        &capsule_prims,
        &gs,
        &sources,
        &radii,
        &entry_ids,
    );

    // Record full coverage at boundary pixels for exact union tests.
    record_distance_coverage(&mut layer, &vp, pipe.pool());
    layer
}

/// Shared implementation: expand `prims` through `gs`, classify fragments
/// by distance to their source in one pass, and record boundary coverage.
fn render_distance(
    pipe: &Pipeline,
    vp: Viewport,
    prims: &[Primitive],
    gs: &dyn GeometryShader,
    sources: &[DistSource],
    radii: &[f64],
    make_entry: impl Fn(usize) -> BoundaryEntry,
) -> CanvasLayer {
    let mut layer = CanvasLayer::new(vp.width, vp.height);
    let mut entry_ids = Vec::with_capacity(sources.len());
    for i in 0..sources.len() {
        entry_ids.push(layer.boundary.push(make_entry(i)));
    }
    draw_distance(pipe, vp, &mut layer, prims, gs, sources, radii, &entry_ids);
    record_distance_coverage(&mut layer, &vp, pipe.pool());
    layer
}

/// The classified pass shared by all distance canvases: a pixel certainly
/// within its source's radius is certain (interior) and overwrites, one
/// that may be is uncertain (boundary, with its entry) and fills only a
/// null pixel ([`BlendMode::Classified`]), and one certainly outside is
/// discarded.
#[allow(clippy::too_many_arguments)]
fn draw_distance(
    pipe: &Pipeline,
    vp: Viewport,
    layer: &mut CanvasLayer,
    prims: &[Primitive],
    gs: &dyn GeometryShader,
    sources: &[DistSource],
    radii: &[f64],
    entry_ids: &[u32],
) {
    let hd = half_diag(&vp);
    let shader = FnFragment(|frag: &Fragment| {
        let i = frag.attrs[CH_VAL] as usize;
        let d = sources[i].distance(frag.world);
        if d <= radii[i] - hd {
            Some([frag.attrs[0], 0, FLAG_INTERIOR, 0])
        } else if d <= radii[i] + hd {
            Some([frag.attrs[0], 0, FLAG_BOUNDARY, entry_ids[i] + 1])
        } else {
            None
        }
    });
    let call = DrawCall {
        geometry: Some(gs),
        fragment: &shader,
        ..DrawCall::simple(vp, BlendMode::Classified, true)
    };
    pipe.draw(&mut layer.texture, prims, &call);
}

/// Record, at every boundary-classified pixel, all entries whose region
/// could cover it, so union tests are exact across overlapping constraints.
/// The work splits by row band of the canvas, each band scanning every
/// entry's reach on its own rows, so one entry's reach — a kNN canvas's one
/// circle — spreads over every worker. Each pixel's entry list is sorted
/// and deduplicated when the table is finalized, so the order bands record
/// in leaves no trace.
fn record_distance_coverage(layer: &mut CanvasLayer, vp: &Viewport, pool: &spade_gpu::WorkerPool) {
    let texture = &layer.texture;
    let entries = layer.boundary.entries();
    let hd = half_diag(vp);
    // Each entry's reach in pixels, with its triangle's box test built once.
    let reaches: Vec<_> = (entries.iter().enumerate())
        .filter_map(|(k, e)| {
            let reach = match &e.geom {
                BoundaryGeom::PointDist { center, r } => {
                    spade_geometry::BBox::new(*center, *center).inflate(r + hd)
                }
                BoundaryGeom::SegmentDist { seg, r } => seg.bbox().inflate(r + hd),
                BoundaryGeom::Triangle(t) => t.bbox().inflate(hd),
                BoundaryGeom::Segment(s) => s.bbox().inflate(hd),
                BoundaryGeom::Point(p) => spade_geometry::BBox::new(*p, *p).inflate(hd),
            };
            let tri_test = match &e.geom {
                BoundaryGeom::Triangle(t) => Some(spade_gpu::raster::TriBoxTest::new(t)),
                _ => None,
            };
            Some((k as u32, &e.geom, vp.pixel_range(&reach)?, tri_test))
        })
        .collect();
    let bands = chunk_ranges(vp.height as usize, pool.workers() * BANDS_PER_WORKER);
    let hits: Vec<Vec<((u32, u32), u32)>> = pool.parallel_tasks(bands.len(), |b| {
        let rows = bands[b].start as u32..bands[b].end as u32;
        let mut out = Vec::new();
        for (k, geom, rect, tri_test) in &reaches {
            let (x0, y0, x1, y1) = *rect;
            for y in y0.max(rows.start)..=y1.min(rows.end - 1) {
                for x in x0..=x1 {
                    let px = texture.get(x, y);
                    if px[crate::canvas::CH_FLAG] & FLAG_BOUNDARY == 0 {
                        continue;
                    }
                    // Could any point of this pixel satisfy the entry?
                    let center = vp.pixel_center(x, y);
                    let possible = match geom {
                        BoundaryGeom::PointDist { center: c, r } => center.dist(*c) <= r + hd,
                        BoundaryGeom::SegmentDist { seg, r } => {
                            point_segment_distance(center, *seg) <= r + hd
                        }
                        BoundaryGeom::Triangle(_) => tri_test
                            .as_ref()
                            .is_some_and(|t| t.overlaps(&vp.pixel_box(x, y))),
                        _ => true,
                    };
                    if possible {
                        out.push(((x, y), *k));
                    }
                }
            }
        }
        out
    });
    for list in hits {
        for (px, entry) in list {
            layer.boundary.record_pixel(px, entry);
        }
    }
    layer.boundary.finalize_overflow();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canvas::{classify, pixel_bound, PixelClass};
    use spade_geometry::{BBox, Polygon};

    fn vp100() -> Viewport {
        Viewport::new(BBox::new(Point::ZERO, Point::new(100.0, 100.0)), 100, 100)
    }

    /// Point constraints of one common radius.
    fn circles(centers: &[(u32, Point)], r: f64) -> Vec<(u32, Point, f64)> {
        centers.iter().map(|&(id, c)| (id, c, r)).collect()
    }

    /// Exact membership oracle for a set of circles.
    fn in_circles(p: Point, centers: &[(u32, Point)], r: f64) -> bool {
        centers.iter().any(|&(_, c)| p.dist(c) <= r)
    }

    /// Membership as the canvas + boundary index decides it.
    fn canvas_says(layer: &CanvasLayer, vp: &Viewport, p: Point) -> bool {
        let Some((x, y)) = vp.world_to_pixel(p) else {
            return false;
        };
        let v = layer.texture.get(x, y);
        match classify(v) {
            PixelClass::Outside => false,
            PixelClass::Interior => true,
            PixelClass::Boundary => {
                let vb = pixel_bound(v).expect("boundary pixel must carry vb");
                layer.boundary.test_point_at((x, y), vb, p)
            }
        }
    }

    #[test]
    fn circle_canvas_membership_is_exact() {
        let pipe = Pipeline::with_workers(4);
        let vp = vp100();
        let centers = vec![(0u32, Point::new(30.0, 30.0)), (1, Point::new(60.0, 70.0))];
        let r = 12.0;
        let layer = distance_canvas_points(&pipe, vp, &circles(&centers, r));
        // Probe a grid of points; the canvas decision must match the oracle.
        for i in 0..50 {
            for j in 0..50 {
                let p = Point::new(i as f64 * 2.0 + 0.37, j as f64 * 2.0 + 0.81);
                assert_eq!(
                    canvas_says(&layer, &vp, p),
                    in_circles(p, &centers, r),
                    "mismatch at {p:?}"
                );
            }
        }
    }

    #[test]
    fn circle_canvas_has_interior_core() {
        let pipe = Pipeline::with_workers(2);
        let vp = vp100();
        let layer = distance_canvas_points(&pipe, vp, &[(0, Point::new(50.0, 50.0), 20.0)]);
        // The center pixel must be interior-certain (no exact test needed).
        assert_eq!(classify(layer.texture.get(50, 50)), PixelClass::Interior);
        // Far away: outside.
        assert_eq!(classify(layer.texture.get(5, 5)), PixelClass::Outside);
    }

    #[test]
    fn capsule_canvas_membership_is_exact() {
        let pipe = Pipeline::with_workers(4);
        let vp = vp100();
        let seg = Segment::new(Point::new(20.0, 20.0), Point::new(80.0, 40.0));
        let r = 8.0;
        let layer = distance_canvas_segments(&pipe, vp, &[(0, seg)], r);
        for i in 0..50 {
            for j in 0..50 {
                let p = Point::new(i as f64 * 2.0 + 0.13, j as f64 * 2.0 + 0.57);
                let oracle = point_segment_distance(p, seg) <= r;
                assert_eq!(canvas_says(&layer, &vp, p), oracle, "mismatch at {p:?}");
            }
        }
    }

    #[test]
    fn multi_radius_canvas() {
        let pipe = Pipeline::with_workers(2);
        let vp = vp100();
        let constraints = vec![
            (0u32, Point::new(30.0, 50.0), 5.0),
            (1u32, Point::new(70.0, 50.0), 15.0),
        ];
        let layer = distance_canvas_points(&pipe, vp, &constraints);
        // Within the small circle only.
        assert!(canvas_says(&layer, &vp, Point::new(33.0, 50.0)));
        assert!(!canvas_says(&layer, &vp, Point::new(38.0, 50.0)));
        // Radius 15 circle reaches farther.
        assert!(canvas_says(&layer, &vp, Point::new(82.0, 50.0)));
        assert!(!canvas_says(&layer, &vp, Point::new(88.0, 50.0)));
    }

    #[test]
    fn polygon_buffer_membership_is_exact() {
        let pipe = Pipeline::with_workers(4);
        let vp = vp100();
        let poly = Polygon::new(vec![
            Point::new(30.0, 30.0),
            Point::new(70.0, 35.0),
            Point::new(60.0, 65.0),
            Point::new(35.0, 60.0),
        ]);
        let prepared = PreparedPolygon::prepare(0, &poly);
        let r = 6.0;
        let layer = distance_canvas_polygon(&pipe, vp, &prepared, r);
        for i in 0..50 {
            for j in 0..50 {
                let p = Point::new(i as f64 * 2.0 + 0.29, j as f64 * 2.0 + 0.71);
                let oracle = spade_geometry::distance::point_polygon_distance(p, &poly) <= r;
                assert_eq!(canvas_says(&layer, &vp, p), oracle, "mismatch at {p:?}");
            }
        }
    }

    #[test]
    fn zero_length_segment_becomes_circle() {
        let pipe = Pipeline::with_workers(2);
        let vp = vp100();
        let seg = Segment::new(Point::new(50.0, 50.0), Point::new(50.0, 50.0));
        let layer = distance_canvas_segments(&pipe, vp, &[(0, seg)], 10.0);
        assert!(canvas_says(&layer, &vp, Point::new(55.0, 50.0)));
        assert!(!canvas_says(&layer, &vp, Point::new(65.0, 50.0)));
    }

    /// The coverage recording splits by row band, so its output must not
    /// depend on the worker count: texture and overflow table of one
    /// circle, many overlapping circles and a capsule are equal at 1, 2, 3
    /// and 8 workers.
    #[test]
    fn coverage_is_the_same_at_any_worker_count() {
        let vp = vp100();
        let many: Vec<(u32, Point, f64)> = (0..40u32)
            .map(|i| {
                let c = Point::new(10.3 + (i * 7 % 80) as f64, 9.6 + (i * 13 % 80) as f64);
                (i, c, 6.0 + (i % 5) as f64)
            })
            .collect();
        let seg = Segment::new(Point::new(20.0, 20.0), Point::new(80.0, 40.0));
        let build = |workers| {
            let pipe = Pipeline::with_workers(workers);
            [
                distance_canvas_points(&pipe, vp, &[(0, Point::new(50.3, 49.7), 30.0)]),
                distance_canvas_points(&pipe, vp, &many),
                distance_canvas_segments(&pipe, vp, &[(0, seg)], 8.0),
            ]
        };
        let one = build(1);
        assert!(
            one[1].boundary.overflow_pixels() > 0,
            "overlaps fill the table"
        );
        for workers in [2, 3, 8] {
            assert!(build(workers) == one, "{workers} workers");
        }
    }

    #[test]
    fn overlapping_circles_union_is_exact() {
        let pipe = Pipeline::with_workers(4);
        let vp = vp100();
        // Heavily overlapping circles stress the overflow machinery.
        let centers: Vec<(u32, Point)> = (0..5)
            .map(|i| (i as u32, Point::new(40.0 + i as f64 * 3.0, 50.0)))
            .collect();
        let r = 7.0;
        let layer = distance_canvas_points(&pipe, vp, &circles(&centers, r));
        for i in 0..100 {
            let p = Point::new(30.0 + i as f64 * 0.35, 50.0 + ((i % 7) as f64 - 3.0));
            assert_eq!(
                canvas_says(&layer, &vp, p),
                in_circles(p, &centers, r),
                "mismatch at {p:?}"
            );
        }
    }
}
