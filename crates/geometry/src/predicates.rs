//! Exact geometric predicates.
//!
//! The boundary index (§4.3) turns costly polygon tests into constant-time
//! tests against a single triangle: point-in-triangle, segment-triangle and
//! triangle-triangle. Those predicates live here, together with the general
//! polygon tests used by the CPU baselines and by the test-suite oracles.
//!
//! All tests are *boundary inclusive*: touching counts as intersecting,
//! matching SQL `ST_INTERSECTS` semantics which SPADE implements (§5.2).

use crate::point::Point;
use crate::primitives::{Polygon, Segment, Triangle};

/// Orientation of the ordered triple `(a, b, c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    Clockwise,
    Collinear,
    CounterClockwise,
}

/// The orientation predicate: sign of the cross product `(b-a) × (c-a)`.
///
/// Comparisons are *sharp* (no epsilon band): every predicate in this
/// module answers from the same f64 cross products, so the ray-cast
/// point-in-polygon oracle, the triangle tests of the boundary index and
/// the baselines' refinements always agree — an epsilon band would create
/// a ~µm-to-m ambiguity zone (depending on coordinate units) where code
/// paths could diverge on near-boundary points.
pub fn orientation(a: Point, b: Point, c: Point) -> Orientation {
    let v = (b - a).cross(c - a);
    if v > 0.0 {
        Orientation::CounterClockwise
    } else if v < 0.0 {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

/// True if `p` lies exactly on segment `s`.
pub fn point_on_segment(p: Point, s: Segment) -> bool {
    if orientation(s.a, s.b, p) != Orientation::Collinear {
        return false;
    }
    p.x >= s.a.x.min(s.b.x)
        && p.x <= s.a.x.max(s.b.x)
        && p.y >= s.a.y.min(s.b.y)
        && p.y <= s.a.y.max(s.b.y)
}

/// Boundary-inclusive point-in-triangle test — the constant-time test the
/// boundary index reduces point-in-polygon to (§4.3).
pub fn point_in_triangle(p: Point, t: &Triangle) -> bool {
    let d1 = (t.b - t.a).cross(p - t.a);
    let d2 = (t.c - t.b).cross(p - t.b);
    let d3 = (t.a - t.c).cross(p - t.c);
    let has_neg = d1 < 0.0 || d2 < 0.0 || d3 < 0.0;
    let has_pos = d1 > 0.0 || d2 > 0.0 || d3 > 0.0;
    !(has_neg && has_pos)
}

/// Boundary-inclusive segment intersection test.
pub fn segments_intersect(s1: Segment, s2: Segment) -> bool {
    let o1 = orientation(s1.a, s1.b, s2.a);
    let o2 = orientation(s1.a, s1.b, s2.b);
    let o3 = orientation(s2.a, s2.b, s1.a);
    let o4 = orientation(s2.a, s2.b, s1.b);

    // General position: a proper crossing has strictly opposite orientations
    // on both segments with no collinearity involved.
    let none_collinear = o1 != Orientation::Collinear
        && o2 != Orientation::Collinear
        && o3 != Orientation::Collinear
        && o4 != Orientation::Collinear;
    if none_collinear && o1 != o2 && o3 != o4 {
        return true;
    }
    // Collinear / touching cases: an endpoint of one segment lies on the
    // other segment.
    (o1 == Orientation::Collinear && point_on_segment(s2.a, s1))
        || (o2 == Orientation::Collinear && point_on_segment(s2.b, s1))
        || (o3 == Orientation::Collinear && point_on_segment(s1.a, s2))
        || (o4 == Orientation::Collinear && point_on_segment(s1.b, s2))
}

/// Constant-time segment-vs-triangle intersection (line-polygon tests devolve
/// to this through the boundary index).
pub fn segment_intersects_triangle(s: Segment, t: &Triangle) -> bool {
    if point_in_triangle(s.a, t) || point_in_triangle(s.b, t) {
        return true;
    }
    t.edges().iter().any(|e| segments_intersect(s, *e))
}

/// Constant-time triangle-vs-triangle intersection (polygon-polygon tests
/// devolve to this through the boundary index).
pub fn triangles_intersect(t1: &Triangle, t2: &Triangle) -> bool {
    if !t1.bbox().intersects(&t2.bbox()) {
        return false;
    }
    // Any vertex containment?
    if t1.vertices().iter().any(|&v| point_in_triangle(v, t2)) {
        return true;
    }
    if t2.vertices().iter().any(|&v| point_in_triangle(v, t1)) {
        return true;
    }
    // Any edge crossing?
    t1.edges()
        .iter()
        .any(|e1| t2.edges().iter().any(|e2| segments_intersect(*e1, *e2)))
}

/// Boundary-inclusive point-in-polygon test (ray casting with hole support).
///
/// This is the *general* O(n) test the boundary index avoids; SPADE only runs
/// it in CPU baselines, index construction, and as the exactness oracle.
pub fn point_in_polygon(p: Point, poly: &Polygon) -> bool {
    if !point_in_ring(p, &poly.exterior.points) {
        return false;
    }
    for h in &poly.holes {
        if point_strictly_in_ring(p, &h.points) {
            return false;
        }
    }
    true
}

/// Boundary-inclusive containment in a single ring.
fn point_in_ring(p: Point, ring: &[Point]) -> bool {
    let n = ring.len();
    if n < 3 {
        return false;
    }
    // On-boundary counts as inside.
    for i in 0..n {
        if point_on_segment(p, Segment::new(ring[i], ring[(i + 1) % n])) {
            return true;
        }
    }
    ray_cast(p, ring)
}

/// Strict interior test (boundary excluded), used for holes so that a point
/// on a hole's rim still counts as inside the polygon.
fn point_strictly_in_ring(p: Point, ring: &[Point]) -> bool {
    let n = ring.len();
    if n < 3 {
        return false;
    }
    for i in 0..n {
        if point_on_segment(p, Segment::new(ring[i], ring[(i + 1) % n])) {
            return false;
        }
    }
    ray_cast(p, ring)
}

fn ray_cast(p: Point, ring: &[Point]) -> bool {
    let n = ring.len();
    let mut inside = false;
    let mut j = n - 1;
    for i in 0..n {
        let a = ring[i];
        let b = ring[j];
        if (a.y > p.y) != (b.y > p.y) {
            let x_int = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
            if p.x < x_int {
                inside = !inside;
            }
        }
        j = i;
    }
    inside
}

/// Lane width of the batched predicate kernel below.
pub const PRED_LANES: usize = 8;

/// Batched polygon containment with hole support: exterior boundary
/// inclusive, holes strict — fills `out[i] == point_in_polygon(points[i],
/// poly)`.
pub fn points_in_polygon_mask(points: &[Point], poly: &Polygon, out: &mut Vec<bool>) {
    ring_mask_impl(points, &poly.exterior.points, false, out);
    if poly.holes.is_empty() {
        return;
    }
    let mut in_hole: Vec<bool> = Vec::new();
    for h in &poly.holes {
        ring_mask_impl(points, &h.points, true, &mut in_hole);
        for (o, hm) in out.iter_mut().zip(&in_hole) {
            *o = *o && !*hm;
        }
    }
}

/// Batched point-in-ring: lane-parallel ray casting. Per edge, all lanes
/// compute the crossing toggle branch-free (the intersection abscissa is
/// computed unconditionally; horizontal edges yield ±inf/NaN which the
/// crossing condition masks out, exactly as the scalar test never reaches
/// them). Lanes that might touch the ring *boundary* — some edge's
/// orientation cross product is exactly `0.0` — fall back to the exact
/// scalar predicate, and `strict` selects the hole semantics (boundary
/// excluded) for that fallback. Every other lane cannot lie on the
/// boundary, so its ray-cast parity *is* the scalar answer.
fn ring_mask_impl(points: &[Point], ring: &[Point], strict: bool, out: &mut Vec<bool>) {
    out.clear();
    out.resize(points.len(), false);
    let n = ring.len();
    if n < 3 {
        return;
    }
    for (chunk, ochunk) in points.chunks(PRED_LANES).zip(out.chunks_mut(PRED_LANES)) {
        let cn = chunk.len();
        let mut px = [0.0f64; PRED_LANES];
        let mut py = [0.0f64; PRED_LANES];
        for i in 0..cn {
            px[i] = chunk[i].x;
            py[i] = chunk[i].y;
        }
        let mut inside = [false; PRED_LANES];
        let mut ambiguous = [false; PRED_LANES];
        // Same edge order as `ray_cast`: (ring[i], ring[j]) with j trailing.
        let mut j = n - 1;
        for i in 0..n {
            let a = ring[i];
            let b = ring[j];
            let (dx, dy) = (b.x - a.x, b.y - a.y);
            // The scalar boundary check walks forward edges (ring[j],
            // ring[i]) anchored at ring[j] = `b`; the ambiguity cross must
            // use those exact operands — the reversed-edge cross rounds
            // differently and could miss an exactly-collinear point.
            let (fx, fy) = (a.x - b.x, a.y - b.y);
            for l in 0..PRED_LANES {
                let crossing = (a.y > py[l]) != (b.y > py[l]);
                let x_int = a.x + (py[l] - a.y) / dy * dx;
                inside[l] ^= crossing && px[l] < x_int;
                // Boundary ambiguity: the point is collinear with the edge
                // line (superset of `point_on_segment`'s condition).
                ambiguous[l] |= fx * (py[l] - b.y) - fy * (px[l] - b.x) == 0.0;
            }
            j = i;
        }
        for i in 0..cn {
            ochunk[i] = if ambiguous[i] {
                if strict {
                    point_strictly_in_ring(chunk[i], ring)
                } else {
                    point_in_ring(chunk[i], ring)
                }
            } else {
                inside[i]
            };
        }
    }
}

/// Segment-vs-polygon intersection (general form, used by oracles).
pub fn segment_intersects_polygon(s: Segment, poly: &Polygon) -> bool {
    if point_in_polygon(s.a, poly) || point_in_polygon(s.b, poly) {
        return true;
    }
    poly.boundary_edges()
        .iter()
        .any(|e| segments_intersect(s, *e))
}

/// Polygon-vs-polygon intersection (general form, used by oracles and CPU
/// baselines). Boundary inclusive.
pub fn polygons_intersect(p1: &Polygon, p2: &Polygon) -> bool {
    if !p1.bbox().intersects(&p2.bbox()) {
        return false;
    }
    // Vertex containment either way.
    if p1.exterior.points.iter().any(|&v| point_in_polygon(v, p2)) {
        return true;
    }
    if p2.exterior.points.iter().any(|&v| point_in_polygon(v, p1)) {
        return true;
    }
    // Edge crossings.
    let e2 = p2.boundary_edges();
    p1.boundary_edges()
        .iter()
        .any(|a| e2.iter().any(|b| segments_intersect(*a, *b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BBox;

    fn tri() -> Triangle {
        Triangle::new(Point::ZERO, Point::new(4.0, 0.0), Point::new(0.0, 4.0))
    }

    fn square() -> Polygon {
        Polygon::rect(BBox::new(Point::ZERO, Point::new(4.0, 4.0)))
    }

    #[test]
    fn orientation_basic() {
        assert_eq!(
            orientation(Point::ZERO, Point::new(1.0, 0.0), Point::new(0.0, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orientation(Point::ZERO, Point::new(0.0, 1.0), Point::new(1.0, 0.0)),
            Orientation::Clockwise
        );
        assert_eq!(
            orientation(Point::ZERO, Point::new(1.0, 1.0), Point::new(2.0, 2.0)),
            Orientation::Collinear
        );
    }

    #[test]
    fn point_on_segment_cases() {
        let s = Segment::new(Point::ZERO, Point::new(4.0, 4.0));
        assert!(point_on_segment(Point::new(2.0, 2.0), s));
        assert!(point_on_segment(Point::ZERO, s)); // endpoint
        assert!(!point_on_segment(Point::new(5.0, 5.0), s)); // past the end
        assert!(!point_on_segment(Point::new(2.0, 2.5), s)); // off the line
    }

    #[test]
    fn point_in_triangle_cases() {
        let t = tri();
        assert!(point_in_triangle(Point::new(1.0, 1.0), &t)); // interior
        assert!(point_in_triangle(Point::new(2.0, 0.0), &t)); // on edge
        assert!(point_in_triangle(Point::ZERO, &t)); // on vertex
        assert!(!point_in_triangle(Point::new(3.0, 3.0), &t)); // outside
        assert!(!point_in_triangle(Point::new(-0.1, 0.0), &t));
    }

    #[test]
    fn point_in_triangle_cw_winding() {
        // The test must be winding-agnostic.
        let t = Triangle::new(Point::ZERO, Point::new(0.0, 4.0), Point::new(4.0, 0.0));
        assert!(point_in_triangle(Point::new(1.0, 1.0), &t));
        assert!(!point_in_triangle(Point::new(3.0, 3.0), &t));
    }

    #[test]
    fn segments_proper_crossing() {
        let s1 = Segment::new(Point::ZERO, Point::new(4.0, 4.0));
        let s2 = Segment::new(Point::new(0.0, 4.0), Point::new(4.0, 0.0));
        assert!(segments_intersect(s1, s2));
    }

    #[test]
    fn segments_touching_at_endpoint() {
        let s1 = Segment::new(Point::ZERO, Point::new(2.0, 2.0));
        let s2 = Segment::new(Point::new(2.0, 2.0), Point::new(4.0, 0.0));
        assert!(segments_intersect(s1, s2));
    }

    #[test]
    fn segments_collinear_overlapping_and_disjoint() {
        let s1 = Segment::new(Point::ZERO, Point::new(4.0, 0.0));
        let s2 = Segment::new(Point::new(2.0, 0.0), Point::new(6.0, 0.0));
        assert!(segments_intersect(s1, s2));
        let s3 = Segment::new(Point::new(5.0, 0.0), Point::new(6.0, 0.0));
        assert!(!segments_intersect(s1, s3));
    }

    #[test]
    fn segments_parallel_disjoint() {
        let s1 = Segment::new(Point::ZERO, Point::new(4.0, 0.0));
        let s2 = Segment::new(Point::new(0.0, 1.0), Point::new(4.0, 1.0));
        assert!(!segments_intersect(s1, s2));
    }

    #[test]
    fn segments_t_junction() {
        let s1 = Segment::new(Point::ZERO, Point::new(4.0, 0.0));
        let s2 = Segment::new(Point::new(2.0, -1.0), Point::new(2.0, 0.0));
        assert!(segments_intersect(s1, s2));
        let s3 = Segment::new(Point::new(2.0, -1.0), Point::new(2.0, -0.1));
        assert!(!segments_intersect(s1, s3));
    }

    #[test]
    fn segment_triangle_cases() {
        let t = tri();
        // Fully inside.
        assert!(segment_intersects_triangle(
            Segment::new(Point::new(0.5, 0.5), Point::new(1.0, 1.0)),
            &t
        ));
        // Crossing through without endpoints inside.
        assert!(segment_intersects_triangle(
            Segment::new(Point::new(-1.0, 1.0), Point::new(5.0, 1.0)),
            &t
        ));
        // Completely outside.
        assert!(!segment_intersects_triangle(
            Segment::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0)),
            &t
        ));
    }

    #[test]
    fn triangle_triangle_cases() {
        let t1 = tri();
        // Overlapping.
        let t2 = Triangle::new(
            Point::new(1.0, 1.0),
            Point::new(5.0, 1.0),
            Point::new(1.0, 5.0),
        );
        assert!(triangles_intersect(&t1, &t2));
        // t3 contains t1 entirely (no edge crossings).
        let t3 = Triangle::new(
            Point::new(-10.0, -10.0),
            Point::new(20.0, -10.0),
            Point::new(-10.0, 20.0),
        );
        assert!(triangles_intersect(&t1, &t3));
        assert!(triangles_intersect(&t3, &t1));
        // Disjoint.
        let t4 = Triangle::new(
            Point::new(10.0, 10.0),
            Point::new(11.0, 10.0),
            Point::new(10.0, 11.0),
        );
        assert!(!triangles_intersect(&t1, &t4));
    }

    #[test]
    fn point_in_polygon_square() {
        let p = square();
        assert!(point_in_polygon(Point::new(2.0, 2.0), &p));
        assert!(point_in_polygon(Point::new(0.0, 2.0), &p)); // on edge
        assert!(point_in_polygon(Point::new(4.0, 4.0), &p)); // on vertex
        assert!(!point_in_polygon(Point::new(4.1, 2.0), &p));
        assert!(!point_in_polygon(Point::new(-0.1, -0.1), &p));
    }

    #[test]
    fn point_in_polygon_with_hole() {
        let p = Polygon::with_holes(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.0, 10.0),
                Point::new(0.0, 10.0),
            ],
            vec![vec![
                Point::new(4.0, 4.0),
                Point::new(6.0, 4.0),
                Point::new(6.0, 6.0),
                Point::new(4.0, 6.0),
            ]],
        );
        assert!(point_in_polygon(Point::new(2.0, 2.0), &p));
        assert!(!point_in_polygon(Point::new(5.0, 5.0), &p)); // in the hole
        assert!(point_in_polygon(Point::new(4.0, 5.0), &p)); // on the hole rim
    }

    #[test]
    fn point_in_concave_polygon() {
        // A "U" shape.
        let p = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(6.0, 0.0),
            Point::new(6.0, 6.0),
            Point::new(4.0, 6.0),
            Point::new(4.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 6.0),
            Point::new(0.0, 6.0),
        ]);
        assert!(point_in_polygon(Point::new(1.0, 5.0), &p)); // left arm
        assert!(point_in_polygon(Point::new(5.0, 5.0), &p)); // right arm
        assert!(!point_in_polygon(Point::new(3.0, 5.0), &p)); // the notch
        assert!(point_in_polygon(Point::new(3.0, 1.0), &p)); // the base
    }

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64) / ((1u64 << 53) as f64)
    }

    #[test]
    fn ring_mask_matches_scalar_randomized() {
        let mut seed = 777777u64;
        for case in 0..40u32 {
            // Random star-shaped ring around a center (always simple).
            let cx = lcg(&mut seed) * 4.0 + 2.0;
            let cy = lcg(&mut seed) * 4.0 + 2.0;
            let nv = 3 + (case as usize % 7);
            let ring: Vec<Point> = (0..nv)
                .map(|k| {
                    let th = (k as f64 / nv as f64) * std::f64::consts::TAU;
                    let r = 1.0 + lcg(&mut seed) * 2.0;
                    Point::new(cx + r * th.cos(), cy + r * th.sin())
                })
                .collect();
            let mut pts: Vec<Point> = (0..61)
                .map(|_| Point::new(lcg(&mut seed) * 10.0 - 1.0, lcg(&mut seed) * 10.0 - 1.0))
                .collect();
            // Exact boundary points: vertices and edge midpoints (always
            // ambiguous lanes → scalar fallback).
            pts.extend(ring.iter().copied());
            for i in 0..nv {
                let (a, b) = (ring[i], ring[(i + 1) % nv]);
                pts.push(Point::new((a.x + b.x) * 0.5, (a.y + b.y) * 0.5));
            }
            // Points sharing a y with a vertex (horizontal-edge / vertex
            // grazing cases for the ray cast).
            for v in ring.iter().take(3) {
                pts.push(Point::new(v.x - 1.5, v.y));
                pts.push(Point::new(v.x + 1.5, v.y));
            }
            let mut mask = Vec::new();
            points_in_polygon_mask(&pts, &Polygon::new(ring.clone()), &mut mask);
            for (i, p) in pts.iter().enumerate() {
                assert_eq!(
                    mask[i],
                    point_in_ring(*p, &ring),
                    "case={case} i={i} p={p:?} ring={ring:?}"
                );
            }
        }
    }

    #[test]
    fn ring_mask_axis_aligned_boundaries() {
        // Axis-aligned rectangles put many points exactly on horizontal /
        // vertical edges — the worst case for ray casting.
        let ring = vec![
            Point::new(1.0, 1.0),
            Point::new(5.0, 1.0),
            Point::new(5.0, 5.0),
            Point::new(1.0, 5.0),
        ];
        let mut pts = Vec::new();
        for k in 0..=8 {
            let t = k as f64 * 0.5 + 1.0;
            pts.push(Point::new(t, 1.0)); // bottom edge
            pts.push(Point::new(t, 5.0)); // top edge
            pts.push(Point::new(1.0, t)); // left edge
            pts.push(Point::new(5.0, t)); // right edge
            pts.push(Point::new(t, 3.0)); // interior / exterior row
        }
        let mut mask = Vec::new();
        points_in_polygon_mask(&pts, &Polygon::new(ring.clone()), &mut mask);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(mask[i], point_in_ring(*p, &ring), "i={i} p={p:?}");
        }
    }

    #[test]
    fn polygon_mask_matches_scalar_with_holes() {
        let poly = Polygon::with_holes(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.0, 10.0),
                Point::new(0.0, 10.0),
            ],
            vec![vec![
                Point::new(4.0, 4.0),
                Point::new(6.0, 4.0),
                Point::new(6.0, 6.0),
                Point::new(4.0, 6.0),
            ]],
        );
        let mut pts = vec![
            Point::new(2.0, 2.0),   // inside
            Point::new(5.0, 5.0),   // in the hole
            Point::new(4.0, 5.0),   // on the hole rim (counts as inside)
            Point::new(0.0, 5.0),   // on the exterior edge
            Point::new(-1.0, 5.0),  // outside
            Point::new(10.0, 10.0), // exterior vertex
        ];
        let mut seed = 31337u64;
        for _ in 0..60 {
            pts.push(Point::new(
                lcg(&mut seed) * 12.0 - 1.0,
                lcg(&mut seed) * 12.0 - 1.0,
            ));
        }
        let mut mask = Vec::new();
        points_in_polygon_mask(&pts, &poly, &mut mask);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(mask[i], point_in_polygon(*p, &poly), "i={i} p={p:?}");
        }
        // Degenerate ring: fewer than 3 vertices matches the scalar "never
        // inside" answer.
        let mut dmask = Vec::new();
        let segment = Polygon::new(vec![Point::ZERO, Point::new(1.0, 1.0)]);
        points_in_polygon_mask(&pts, &segment, &mut dmask);
        assert!(dmask.iter().all(|&m| !m));
    }

    #[test]
    fn polygons_intersect_cases() {
        let a = square();
        let mut b = square();
        for p in &mut b.exterior.points {
            *p = *p + Point::new(2.0, 2.0);
        }
        assert!(polygons_intersect(&a, &b));
        let mut c = square();
        for p in &mut c.exterior.points {
            *p = *p + Point::new(10.0, 10.0);
        }
        assert!(!polygons_intersect(&a, &c));
        // Containment without edge crossings.
        let inner = Polygon::rect(BBox::new(Point::new(1.0, 1.0), Point::new(2.0, 2.0)));
        assert!(polygons_intersect(&a, &inner));
        assert!(polygons_intersect(&inner, &a));
    }

    #[test]
    fn polygons_touching_edge() {
        let a = square();
        let b = Polygon::rect(BBox::new(Point::new(4.0, 0.0), Point::new(8.0, 4.0)));
        assert!(polygons_intersect(&a, &b));
    }

    #[test]
    fn segment_polygon_cases() {
        let p = square();
        assert!(segment_intersects_polygon(
            Segment::new(Point::new(-1.0, 2.0), Point::new(5.0, 2.0)),
            &p
        ));
        assert!(!segment_intersects_polygon(
            Segment::new(Point::new(-1.0, -1.0), Point::new(-1.0, 5.0)),
            &p
        ));
    }
}
