//! Distance-constraint canvases (§4.2 "Canvases for Distance-Based Queries").
//!
//! A distance constraint "within `r` of geometry G" is rendered as a
//! polygonal canvas: a *circle* when G is a point, a *rounded rectangle*
//! (capsule) when G is a segment, and the polygon interior plus boundary
//! capsules when G is a polygon (Fig. 2). Each source is drawn as the
//! triangles covering it — a point's square, a segment's oriented quad, a
//! polygon's own triangles, built here where the paper's geometry shader
//! expands them — and one shader (`Classify`) classifies each pixel:
//!
//! * **interior** when the whole pixel is certainly within distance `r`
//!   (`d(center, G) ≤ r − half_diag`),
//! * **boundary** when only part of the pixel may be (`d ≤ r + half_diag`),
//!   with a `vb` entry storing G and `r` so the exact test is a distance
//!   comparison — this is how SPADE supports accurate distance queries to
//!   complex geometry that other systems approximate (§4.2).
//!
//! Pixels certainly outside are discarded. A circle's row is classified as
//! runs: its uncertain, certain and uncertain parts are each one interval,
//! found by searching the two monotone halves of the row on either side of
//! the centre column with the exact per-pixel predicate (DESIGN.md, "Circle
//! rows"). Capsules and interior triangles are classified pixel by pixel.
//! Each set of primitives is one classified pass ([`BlendMode::Classified`]):
//! a certain pixel overwrites and an uncertain one fills only a null pixel,
//! so a pixel any source covers for certain ends up interior.

use crate::boundary::{BoundaryEntry, BoundaryGeom};
use crate::canvas::{pack, CanvasLayer, CH_VAL, FLAG_BOUNDARY, FLAG_INTERIOR};
use crate::create::PreparedPolygon;
use spade_geometry::distance::point_segment_distance;
use spade_geometry::predicates::point_in_triangle;
use spade_geometry::{Point, Segment};
use spade_gpu::pipeline::BANDS_PER_WORKER;
use spade_gpu::pool::chunk_ranges;
use spade_gpu::raster::{first_from, last_from};
use spade_gpu::shader::{shade_pixels, Run};
use spade_gpu::{
    BlendMode, DrawCall, Fragment, FragmentShader, Pipeline, PixelValue, Primitive, Viewport,
};

/// The two triangles of a square with half-extent `half` centered on `p`
/// (§4.2 step 1 of circle generation).
fn square(p: Point, half: f64, attrs: [u32; 4]) -> [Primitive; 2] {
    let h = half;
    let c0 = Point::new(p.x - h, p.y - h);
    let c1 = Point::new(p.x + h, p.y - h);
    let c2 = Point::new(p.x + h, p.y + h);
    let c3 = Point::new(p.x - h, p.y + h);
    [
        Primitive::triangle(c0, c1, c2, attrs),
        Primitive::triangle(c0, c2, c3, attrs),
    ]
}

/// The two triangles of an oriented quad covering the capsule of radius
/// `pad` around `seg` (the rounded-rectangle generator of Fig. 2(b); the
/// quad covers the semicircular caps, the shader carves the exact shape). A
/// zero-length segment gets the square around its point.
fn capsule(seg: Segment, pad: f64, attrs: [u32; 4]) -> [Primitive; 2] {
    let (a, b) = (seg.a, seg.b);
    let d = b - a;
    let Some(u) = d.normalized() else {
        return square(a, pad, attrs);
    };
    let n = u.perp();
    let he = d.norm() * 0.5 + pad; // half extent along the axis
    let mid = (a + b) * 0.5;
    let c0 = mid - u * he - n * pad;
    let c1 = mid + u * he - n * pad;
    let c2 = mid + u * he + n * pad;
    let c3 = mid - u * he + n * pad;
    [
        Primitive::triangle(c0, c1, c2, attrs),
        Primitive::triangle(c0, c2, c3, attrs),
    ]
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
    let entries = constraints
        .iter()
        .map(|&(object, center, r)| BoundaryEntry {
            object,
            geom: BoundaryGeom::PointDist { center, r },
        });
    let mut layer = CanvasLayer::new(vp.width, vp.height);
    // The squares must cover the largest radius; the shader applies each
    // object's own radius.
    draw_classified(pipe, vp, &mut layer, entries, max_r + half_diag(&vp));
    record_distance_coverage(&mut layer, &vp, pipe.pool());
    layer
}

/// Build a distance canvas around segment constraints (rounded rectangles,
/// Fig. 2(b)).
pub fn distance_canvas_segments(
    pipe: &Pipeline,
    vp: Viewport,
    segments: &[(u32, Segment)],
    r: f64,
) -> CanvasLayer {
    let entries = segments.iter().map(|&(object, seg)| BoundaryEntry {
        object,
        geom: BoundaryGeom::SegmentDist { seg, r },
    });
    let mut layer = CanvasLayer::new(vp.width, vp.height);
    draw_classified(pipe, vp, &mut layer, entries, r + half_diag(&vp));
    record_distance_coverage(&mut layer, &vp, pipe.pool());
    layer
}

/// Build a distance canvas around a polygon constraint: the polygon interior
/// plus a buffer of width `r` around its boundary (Fig. 2(c)). Drawn as the
/// triangulated interior followed by boundary-edge capsules, the same
/// quads as segments (§4.2).
pub fn distance_canvas_polygon(
    pipe: &Pipeline,
    vp: Viewport,
    poly: &PreparedPolygon,
    r: f64,
) -> CanvasLayer {
    let mut layer = CanvasLayer::new(vp.width, vp.height);
    let entry = |geom| BoundaryEntry {
        object: poly.id,
        geom,
    };
    // Interior triangles: a pixel whose box lies fully inside a triangle is
    // certainly within the constraint; every touched pixel is at least a
    // boundary pixel testing point-in-triangle (distance 0 ≤ r). Their
    // entries come first, in order, so the entry index equals the triangle
    // index.
    let interior = poly
        .triangles
        .iter()
        .map(|&t| entry(BoundaryGeom::Triangle(t)));
    draw_classified(pipe, vp, &mut layer, interior, 0.0);
    // Boundary capsules: within `r` of each polygon edge.
    let edges = (poly.polygon.boundary_edges().into_iter())
        .map(|seg| entry(BoundaryGeom::SegmentDist { seg, r }));
    draw_classified(pipe, vp, &mut layer, edges, r + half_diag(&vp));
    // Record full coverage at boundary pixels for exact union tests.
    record_distance_coverage(&mut layer, &vp, pipe.pool());
    layer
}

/// The classified pass shared by all distance canvases: pushes `entries`
/// onto `layer`'s boundary table and draws the triangles covering them
/// ([`push_entries`]) conservatively under [`Classify`] and
/// [`BlendMode::Classified`].
fn draw_classified(
    pipe: &Pipeline,
    vp: Viewport,
    layer: &mut CanvasLayer,
    entries: impl IntoIterator<Item = BoundaryEntry>,
    pad: f64,
) {
    let prims = push_entries(layer, entries, pad);
    let shader = Classify::new(vp, layer.boundary.entries());
    pipe.draw(&mut layer.texture, &prims, &shader.call());
}

/// Push each entry onto `layer`'s boundary table and return the triangles
/// covering its geometry, each carrying the entry's index: a point's square
/// and a segment's quad of half-extent `pad`, a triangle itself.
fn push_entries(
    layer: &mut CanvasLayer,
    entries: impl IntoIterator<Item = BoundaryEntry>,
    pad: f64,
) -> Vec<Primitive> {
    let mut prims = Vec::new();
    for e in entries {
        let (object, geom) = (e.object, e.geom.clone());
        let attrs = pack(object, layer.boundary.push(e), 0, 0);
        match geom {
            BoundaryGeom::PointDist { center, .. } => prims.extend(square(center, pad, attrs)),
            BoundaryGeom::SegmentDist { seg, .. } => prims.extend(capsule(seg, pad, attrs)),
            BoundaryGeom::Triangle(t) => prims.push(Primitive::triangle(t.a, t.b, t.c, attrs)),
            BoundaryGeom::Point(_) | BoundaryGeom::Segment(_) => {
                unreachable!("a distance canvas draws distance and triangle entries")
            }
        }
    }
    prims
}

/// The distance canvases' shader: a fragment of the primitive carrying
/// entry `e` (channel [`CH_VAL`]) is certain (interior) when its pixel lies
/// certainly within `e`'s geometry and uncertain (boundary, pointing at `e`)
/// when it may, and is discarded when it certainly lies outside. Distance
/// entries decide by the pixel centre's distance to their source against
/// `r ∓ hd`; an interior triangle is certain where all four pixel corners
/// lie in it and uncertain on every other pixel it touches.
struct Classify<'a> {
    vp: Viewport,
    /// Half a pixel's diagonal.
    hd: f64,
    entries: &'a [BoundaryEntry],
}

impl<'a> Classify<'a> {
    fn new(vp: Viewport, entries: &'a [BoundaryEntry]) -> Self {
        let hd = half_diag(&vp);
        Classify { vp, hd, entries }
    }

    /// The conservative classified draw of this shader.
    fn call(&self) -> DrawCall<'_> {
        DrawCall {
            fragment: self,
            ..DrawCall::simple(self.vp, BlendMode::Classified, true)
        }
    }

    /// The certain and the uncertain value of a fragment with `attrs`.
    fn values(attrs: [u32; 4]) -> [PixelValue; 2] {
        [
            [attrs[0], 0, FLAG_INTERIOR, 0],
            [attrs[0], 0, FLAG_BOUNDARY, attrs[CH_VAL] + 1],
        ]
    }
}

impl FragmentShader for Classify<'_> {
    /// Inlined into the per-pixel form (`shade_pixels`), which calls it for
    /// every pixel of a capsule or an interior triangle.
    #[inline]
    fn shade(&self, frag: &Fragment) -> Option<PixelValue> {
        let (x, y) = (frag.x, frag.y);
        let within = |d: f64, r: f64| {
            if d <= r - self.hd {
                Some(true)
            } else {
                (d <= r + self.hd).then_some(false)
            }
        };
        let certain = match &self.entries[frag.attrs[CH_VAL] as usize].geom {
            BoundaryGeom::PointDist { center, r } => {
                within(self.vp.pixel_center(x, y).dist(*center), *r)?
            }
            BoundaryGeom::SegmentDist { seg, r } => {
                within(point_segment_distance(self.vp.pixel_center(x, y), *seg), *r)?
            }
            BoundaryGeom::Triangle(t) => {
                (self.vp.pixel_box(x, y).corners().iter()).all(|&c| point_in_triangle(c, t))
            }
            BoundaryGeom::Point(_) | BoundaryGeom::Segment(_) => unreachable!("drawn by no canvas"),
        };
        Some(Self::values(frag.attrs)[usize::from(!certain)])
    }

    /// A circle's rows as at most three sub-runs each — uncertain,
    /// certain, uncertain — found with the exact predicate of [`shade`];
    /// every other entry's pixel by pixel.
    ///
    /// [`shade`]: Classify::shade
    fn shade_runs(&self, attrs: [u32; 4], runs: &[Run], out: &mut Vec<(Run, PixelValue)>) {
        let BoundaryGeom::PointDist { center: c, r } = self.entries[attrs[CH_VAL] as usize].geom
        else {
            return runs
                .iter()
                .for_each(|&run| shade_pixels(self, attrs, run, out));
        };
        let [certain, uncertain] = Self::values(attrs);
        for &(y, x0, x1) in runs {
            let dist = |x: u32| self.vp.pixel_center(x, y).dist(c);
            // The first column whose centre is at or right of the circle's.
            let split = first_from(x0, x1, None, &|x| self.vp.pixel_center(x, y).x >= c.x)
                .unwrap_or(x1 + 1);
            let Some((a, b)) = circle_run((x0, x1), split, |x| dist(x) <= r + self.hd) else {
                continue;
            };
            let Some((ca, cb)) = circle_run((a, b), split, |x| dist(x) <= r - self.hd) else {
                out.push(((y, a, b), uncertain));
                continue;
            };
            if ca > a {
                out.push(((y, a, ca - 1), uncertain));
            }
            out.push(((y, ca, cb), certain));
            if cb < b {
                out.push(((y, cb + 1, b), uncertain));
            }
        }
    }
}

/// The columns of `x0..=x1` where `holds`, when `holds` rises (false, then
/// true) on the columns left of `split` and falls (true, then false) from
/// `split` on: the part left of the split ends at `split − 1` and the part
/// from it starts at `split`, so together they are one interval, or `None`.
fn circle_run((x0, x1): (u32, u32), split: u32, holds: impl Fn(u32) -> bool) -> Option<(u32, u32)> {
    let s = split.clamp(x0, x1 + 1);
    let left = (s > x0)
        .then(|| first_from(x0, s - 1, None, &holds))
        .flatten();
    let right = (s <= x1).then(|| last_from(s, x1, None, &holds)).flatten();
    match (left, right) {
        (None, None) => None,
        (first, last) => Some((first.unwrap_or(s), last.unwrap_or_else(|| s - 1))),
    }
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
    use spade_gpu::raster;

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

    /// A canvas kind built on a given pipeline.
    type Build<'a> = Box<dyn Fn(&Pipeline) -> CanvasLayer + 'a>;

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64) / ((1u64 << 53) as f64)
    }

    /// A canvas built by the per-fragment oracle: for each pass, its entries
    /// pushed and every fragment of its primitives under `raster::rasterize`
    /// shaded with `Classify::shade` and blended in primitive order, then
    /// the coverage recorded. Each pass's `count_pass` under the draw's own
    /// call must equal the oracle's count of kept fragments on every
    /// pipeline.
    fn oracle(
        pipes: &[Pipeline],
        vp: Viewport,
        passes: Vec<(Vec<BoundaryEntry>, f64)>,
    ) -> CanvasLayer {
        let mut layer = CanvasLayer::new(vp.width, vp.height);
        for (pass, (entries, pad)) in passes.into_iter().enumerate() {
            let prims = push_entries(&mut layer, entries, pad);
            let shader = Classify::new(vp, layer.boundary.entries());
            let texture = &mut layer.texture;
            let mut kept = 0;
            for prim in &prims {
                raster::rasterize(prim, &vp, true, &mut |x, y| {
                    let attrs = prim.attrs();
                    if let Some(v) = shader.shade(&Fragment { x, y, attrs }) {
                        kept += 1;
                        texture.put(x, y, BlendMode::Classified.apply(texture.get(x, y), v));
                    }
                });
            }
            for pipe in pipes {
                let counted = pipe.count_pass(&prims, &shader.call());
                assert_eq!(counted, kept, "pass {pass} workers={}", pipe.workers());
            }
        }
        record_distance_coverage(&mut layer, &vp, pipes[0].pool());
        layer
    }

    /// Every distance canvas kind equals the per-fragment oracle — texture,
    /// boundary table and counting pass — at 1, 2, 3 and 8 workers: circle
    /// sets of mixed radii with a third of the centres exactly on a pixel
    /// centre, circles whose outer or inner radius is tangent to a row
    /// through the centre column, circles larger than the viewport and
    /// beside it; zero-length, horizontal, vertical and slanted capsules;
    /// polygon buffers whose triangulation holds slivers.
    #[test]
    fn classified_canvases_match_per_fragment_oracle() {
        let pipes: Vec<Pipeline> = [1, 2, 3, 8].map(Pipeline::with_workers).into();
        let mut seed = 0xd157_u64;
        let vps = [
            Viewport::new(
                BBox::new(Point::new(-3.1, 2.7), Point::new(61.3, 50.2)),
                97,
                71,
            ),
            Viewport::new(BBox::new(Point::ZERO, Point::new(64.0, 64.0)), 64, 64),
        ];
        for vp in vps {
            let (w, h) = (vp.world.width(), vp.world.height());
            let hd = half_diag(&vp);
            let mut circles: Vec<(u32, Point, f64)> = (0..90u32)
                .map(|i| {
                    let c = match i % 3 {
                        0 => vp.pixel_center(
                            (lcg(&mut seed) * f64::from(vp.width)) as u32,
                            (lcg(&mut seed) * f64::from(vp.height)) as u32,
                        ),
                        _ => Point::new(
                            vp.world.min.x + (lcg(&mut seed) * 1.2 - 0.1) * w,
                            vp.world.min.y + (lcg(&mut seed) * 1.2 - 0.1) * h,
                        ),
                    };
                    let r = vp.pixel_size().x * (0.2 + 12.0 * lcg(&mut seed).powi(2));
                    (i, c, r)
                })
                .collect();
            // Rows tangent to the outer and the inner radius, through a
            // centre on a pixel centre, so the row's one candidate pixel
            // sits on the centre column.
            for k in 1..6u32 {
                let c = vp.pixel_center(20 + 3 * k, 30);
                let dy = vp.pixel_center(0, 30 + k).y - c.y;
                circles.push((100 + k, c, dy - hd));
                circles.push((110 + k, c, dy + hd));
            }
            // Wider and taller than the viewport, and beside it.
            let large = [
                (
                    0,
                    vp.pixel_center(vp.width / 2, vp.height / 2),
                    0.6 * w.max(h),
                ),
                (1, Point::new(vp.world.max.x + 2.0, 20.0), 3.5),
                (2, Point::new(vp.world.min.x - 9.0, 30.0), 3.0),
            ];
            let segments: Vec<(u32, Segment)> = [
                ((10.0, 10.0), (10.0, 10.0)),
                (
                    vp.pixel_center(5, 40).into(),
                    vp.pixel_center(50, 40).into(),
                ),
                ((30.5, 4.0), (30.5, 45.0)),
                ((2.0, 48.0), (55.0, 21.0)),
            ]
            .into_iter()
            .zip(0..)
            .map(|(((ax, ay), (bx, by)), id)| {
                (id, Segment::new(Point::new(ax, ay), Point::new(bx, by)))
            })
            .collect();
            // A polygon with a long spike and near-collinear vertices, so
            // its triangulation holds slivers thinner than a pixel.
            let spiky = Polygon::new(vec![
                Point::new(5.0, 8.0),
                Point::new(40.0, 8.3),
                Point::new(58.0, 8.31),
                Point::new(40.0, 8.5),
                Point::new(30.0, 30.0),
                Point::new(29.9, 45.0),
                Point::new(29.8, 30.2),
                Point::new(8.0, 25.0),
            ]);
            let poly = PreparedPolygon::prepare(7, &spiky);
            let pad = |r: f64| r + hd;
            let max_r = circles.iter().map(|c| c.2).fold(0.0, f64::max);
            let point_entries = |circles: &[(u32, Point, f64)]| {
                (circles.iter())
                    .map(|&(object, center, r)| BoundaryEntry {
                        object,
                        geom: BoundaryGeom::PointDist { center, r },
                    })
                    .collect::<Vec<_>>()
            };
            let segment_entries = |r: f64, segs: &[(u32, Segment)]| {
                (segs.iter())
                    .map(|&(object, seg)| BoundaryEntry {
                        object,
                        geom: BoundaryGeom::SegmentDist { seg, r },
                    })
                    .collect::<Vec<_>>()
            };
            let edges: Vec<(u32, Segment)> = poly
                .polygon
                .boundary_edges()
                .into_iter()
                .map(|s| (7, s))
                .collect();
            let interior = (poly.triangles.iter())
                .map(|&t| BoundaryEntry {
                    object: 7,
                    geom: BoundaryGeom::Triangle(t),
                })
                .collect();
            let cases: Vec<(&str, CanvasLayer, Build<'_>)> = vec![
                (
                    "circles",
                    oracle(&pipes, vp, vec![(point_entries(&circles), pad(max_r))]),
                    Box::new(|pipe| distance_canvas_points(pipe, vp, &circles)),
                ),
                (
                    "large circles",
                    oracle(&pipes, vp, vec![(point_entries(&large), pad(large[0].2))]),
                    Box::new(|pipe| distance_canvas_points(pipe, vp, &large)),
                ),
                (
                    "capsules",
                    oracle(
                        &pipes,
                        vp,
                        vec![(segment_entries(2.7, &segments), pad(2.7))],
                    ),
                    Box::new(|pipe| distance_canvas_segments(pipe, vp, &segments, 2.7)),
                ),
                (
                    "polygon",
                    oracle(
                        &pipes,
                        vp,
                        vec![(interior, 0.0), (segment_entries(1.3, &edges), pad(1.3))],
                    ),
                    Box::new(|pipe| distance_canvas_polygon(pipe, vp, &poly, 1.3)),
                ),
            ];
            for (name, want, build) in &cases {
                let classes = (want.texture.pixels().iter()).fold([0; 3], |mut n, &v| {
                    n[classify(v) as usize] += 1;
                    n
                });
                assert!(classes.iter().all(|&n| n > 0), "{name}: {classes:?}");
                for pipe in &pipes {
                    let got = build(pipe);
                    let at = format!("{name} {vp:?} workers={}", pipe.workers());
                    assert!(got.texture == want.texture, "texture: {at}");
                    assert!(got.boundary == want.boundary, "boundary table: {at}");
                }
            }
        }
    }
}
