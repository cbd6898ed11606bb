//! Ear-clipping polygon triangulation.
//!
//! The paper decomposes polygons into triangles with the Earcut.hpp library
//! before rendering (§4.2); the triangles also populate the boundary index
//! (§4.3). This module is a from-scratch Rust implementation of the same
//! ear-clipping algorithm, including hole support via hole-bridging
//! (holes are connected to the outer ring with zero-width bridges and the
//! resulting simple ring is clipped).
//!
//! The key invariant — verified by property tests — is that the triangle
//! areas sum to the polygon area, and every triangle lies inside the polygon.

use crate::point::Point;
use crate::primitives::{Polygon, Ring, Triangle};

/// Triangulate a polygon (with holes) into triangles.
///
/// Degenerate inputs (fewer than 3 vertices, zero-area rings) yield an empty
/// triangle list rather than panicking.
pub fn triangulate_polygon(poly: &Polygon) -> Vec<Triangle> {
    if poly.exterior.len() < 3 {
        return Vec::new();
    }
    let ring = if poly.holes.iter().any(|h| h.len() >= 3) {
        eliminate_holes(poly)
    } else {
        ccw_points(&poly.exterior)
    };
    triangulate_simple(&ring)
}

fn ccw_points(ring: &Ring) -> Vec<Point> {
    let mut pts = ring.points.clone();
    if ring.signed_area() < 0.0 {
        pts.reverse();
    }
    pts
}

fn cw_points(ring: &Ring) -> Vec<Point> {
    let mut pts = ring.points.clone();
    if ring.signed_area() > 0.0 {
        pts.reverse();
    }
    pts
}

/// Merge all holes into the exterior ring via bridges, producing a single
/// simple ring (with duplicated bridge vertices) that ear clipping handles.
fn eliminate_holes(poly: &Polygon) -> Vec<Point> {
    let mut outer = ccw_points(&poly.exterior);
    // Holes ordered by their rightmost vertex, right to left: each bridge is
    // cast towards +x, so processing right-first keeps earlier bridges from
    // blocking later ones.
    let mut holes: Vec<Vec<Point>> = poly
        .holes
        .iter()
        .filter(|h| h.len() >= 3)
        .map(cw_points)
        .collect();
    holes.sort_by(|a, b| {
        let ax = a.iter().map(|p| p.x).fold(f64::NEG_INFINITY, f64::max);
        let bx = b.iter().map(|p| p.x).fold(f64::NEG_INFINITY, f64::max);
        bx.partial_cmp(&ax).unwrap_or(std::cmp::Ordering::Equal)
    });
    for hole in holes {
        merge_hole(&mut outer, &hole);
    }
    outer
}

/// Connect a hole (CW) into the outer ring (CCW) with a bridge from the
/// hole's rightmost vertex to a visible outer vertex (Eberly's method).
fn merge_hole(outer: &mut Vec<Point>, hole: &[Point]) {
    // Rightmost hole vertex M.
    let (hi, &m) = hole
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.x.partial_cmp(&b.x).unwrap_or(std::cmp::Ordering::Equal))
        .expect("hole has vertices");

    let n = outer.len();
    // Cast a ray from M towards +x; find the outer edge it first hits.
    let mut best: Option<(f64, usize)> = None; // (intersection x, edge start index)
    for i in 0..n {
        let a = outer[i];
        let b = outer[(i + 1) % n];
        // Edge must straddle the horizontal line through M.
        if (a.y > m.y) == (b.y > m.y) {
            continue;
        }
        let x_int = a.x + (m.y - a.y) / (b.y - a.y) * (b.x - a.x);
        if x_int >= m.x - 1e-12 && best.is_none_or(|(bx, _)| x_int < bx) {
            best = Some((x_int, i));
        }
    }

    let vis = match best {
        Some((x_int, edge)) => {
            let a = outer[edge];
            let b = outer[(edge + 1) % n];
            // Candidate visible vertex P: the edge endpoint with the larger x
            // (it lies on the near side of the ray hit).
            let (mut vis, p) = if a.x > b.x {
                (edge, a)
            } else {
                ((edge + 1) % n, b)
            };
            // If any reflex outer vertex lies inside triangle (M, I, P) it may
            // occlude P; pick the occluder with the smallest angle to the ray.
            let i_pt = Point::new(x_int, m.y);
            let tri = Triangle::new(m, i_pt, p);
            let mut best_tan = f64::INFINITY;
            for (j, &q) in outer.iter().enumerate() {
                if j == vis || q == m {
                    continue;
                }
                if q.x < m.x {
                    continue;
                }
                if crate::predicates::point_in_triangle(q, &tri) {
                    let dx = q.x - m.x;
                    let tan = if dx.abs() < 1e-30 {
                        f64::INFINITY
                    } else {
                        (q.y - m.y).abs() / dx
                    };
                    if tan < best_tan || (tan == best_tan && q.x > outer[vis].x) {
                        best_tan = tan;
                        vis = j;
                    }
                }
            }
            vis
        }
        // No edge hit (degenerate outer ring): bridge to the rightmost
        // outer vertex so we still make progress.
        None => outer
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.x.partial_cmp(&b.x).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0),
    };

    // Splice: outer[0..=vis], hole[hi], hole[hi+1..], hole[..hi], hole[hi],
    // outer[vis], outer[vis+1..]. The bridge vertices are duplicated.
    let mut merged = Vec::with_capacity(outer.len() + hole.len() + 2);
    merged.extend_from_slice(&outer[..=vis]);
    for k in 0..hole.len() {
        merged.push(hole[(hi + k) % hole.len()]);
    }
    merged.push(hole[hi]);
    merged.extend_from_slice(&outer[vis..]);
    *outer = merged;
}

/// Ear-clip a simple CCW ring (possibly containing duplicated bridge
/// vertices and collinear runs).
#[allow(clippy::needless_range_loop)]
fn triangulate_simple(pts: &[Point]) -> Vec<Triangle> {
    let n = pts.len();
    if n < 3 {
        return Vec::new();
    }
    let area2 = {
        let mut a = 0.0;
        for i in 0..n {
            a += pts[i].cross(pts[(i + 1) % n]);
        }
        a
    };
    let scale = pts
        .iter()
        .map(|p| p.x.abs().max(p.y.abs()))
        .fold(1.0, f64::max);
    let eps = scale * scale * 1e-12;
    if area2.abs() <= eps {
        return Vec::new();
    }

    let mut remaining: Vec<usize> = (0..n).collect();
    let mut tris = Vec::with_capacity(n.saturating_sub(2));

    while remaining.len() > 3 {
        let m = remaining.len();
        let mut clipped = false;
        for i in 0..m {
            let ip = remaining[(i + m - 1) % m];
            let ic = remaining[i];
            let inx = remaining[(i + 1) % m];
            let (a, b, c) = (pts[ip], pts[ic], pts[inx]);
            let cross = (b - a).cross(c - b);
            if cross <= eps {
                // Reflex or degenerate corner: not an ear.
                continue;
            }
            if ear_is_empty(pts, &remaining, a, b, c) {
                tris.push(Triangle::new(a, b, c));
                remaining.remove(i);
                clipped = true;
                break;
            }
        }
        if !clipped {
            // Numerical stalemate (duplicate bridge vertices / collinear
            // runs). Drop the flattest corner without emitting a triangle:
            // it contributes (near-)zero area, so the invariant holds.
            let m = remaining.len();
            let mut best = 0;
            let mut best_abs = f64::INFINITY;
            for i in 0..m {
                let a = pts[remaining[(i + m - 1) % m]];
                let b = pts[remaining[i]];
                let c = pts[remaining[(i + 1) % m]];
                let cr = (b - a).cross(c - b).abs();
                if cr < best_abs {
                    best_abs = cr;
                    best = i;
                }
            }
            remaining.remove(best);
        }
    }
    if remaining.len() == 3 {
        let (a, b, c) = (pts[remaining[0]], pts[remaining[1]], pts[remaining[2]]);
        if (b - a).cross(c - b).abs() > eps {
            tris.push(Triangle::new(a, b, c));
        }
    }
    tris
}

/// True when no remaining vertex lies strictly inside the candidate ear.
fn ear_is_empty(pts: &[Point], remaining: &[usize], a: Point, b: Point, c: Point) -> bool {
    let tri = Triangle::new(a, b, c);
    let bb = tri.bbox();
    for &j in remaining {
        let q = pts[j];
        // Vertices coincident with an ear corner (duplicated bridge
        // vertices) never block the ear.
        if q == a || q == b || q == c {
            continue;
        }
        if !bb.contains(q) {
            continue;
        }
        if point_strictly_in_triangle(q, &tri) {
            return false;
        }
    }
    true
}

fn point_strictly_in_triangle(p: Point, t: &Triangle) -> bool {
    let d1 = (t.b - t.a).cross(p - t.a);
    let d2 = (t.c - t.b).cross(p - t.b);
    let d3 = (t.a - t.c).cross(p - t.c);
    let scale = [t.a, t.b, t.c, p]
        .iter()
        .map(|q| q.x.abs().max(q.y.abs()))
        .fold(1.0, f64::max);
    let eps = scale * scale * 1e-12;
    d1 > eps && d2 > eps && d3 > eps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BBox;
    use crate::predicates::point_in_polygon;

    fn tri_area_sum(tris: &[Triangle]) -> f64 {
        tris.iter().map(Triangle::area).sum()
    }

    #[test]
    fn triangle_passthrough() {
        let p = Polygon::new(vec![
            Point::ZERO,
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ]);
        let t = triangulate_polygon(&p);
        assert_eq!(t.len(), 1);
        assert!((tri_area_sum(&t) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn square_two_triangles() {
        let p = Polygon::rect(BBox::new(Point::ZERO, Point::new(2.0, 2.0)));
        let t = triangulate_polygon(&p);
        assert_eq!(t.len(), 2);
        assert!((tri_area_sum(&t) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cw_input_handled() {
        let p = Polygon::new(vec![
            Point::ZERO,
            Point::new(0.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 0.0),
        ]);
        let t = triangulate_polygon(&p);
        assert!((tri_area_sum(&t) - 4.0).abs() < 1e-12);
        // All triangles CCW after normalization.
        for tr in &t {
            assert!(tr.signed_area() > 0.0);
        }
    }

    #[test]
    fn concave_polygon() {
        // The "U" polygon from the predicate tests.
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
        let t = triangulate_polygon(&p);
        assert_eq!(t.len(), 6); // n - 2 triangles for a simple polygon
        assert!((tri_area_sum(&t) - p.area()).abs() < 1e-9);
        // Each triangle centroid must lie inside the polygon.
        for tr in &t {
            assert!(point_in_polygon(tr.centroid(), &p));
        }
    }

    #[test]
    fn polygon_with_hole() {
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
        let t = triangulate_polygon(&p);
        assert!((tri_area_sum(&t) - 96.0).abs() < 1e-9);
        for tr in &t {
            let c = tr.centroid();
            assert!(point_in_polygon(c, &p), "centroid {c:?} escaped polygon");
        }
    }

    #[test]
    fn polygon_with_two_holes() {
        let p = Polygon::with_holes(
            vec![
                Point::new(0.0, 0.0),
                Point::new(12.0, 0.0),
                Point::new(12.0, 6.0),
                Point::new(0.0, 6.0),
            ],
            vec![
                vec![
                    Point::new(2.0, 2.0),
                    Point::new(4.0, 2.0),
                    Point::new(4.0, 4.0),
                    Point::new(2.0, 4.0),
                ],
                vec![
                    Point::new(8.0, 2.0),
                    Point::new(10.0, 2.0),
                    Point::new(10.0, 4.0),
                    Point::new(8.0, 4.0),
                ],
            ],
        );
        let t = triangulate_polygon(&p);
        assert!((tri_area_sum(&t) - (72.0 - 8.0)).abs() < 1e-9);
        for tr in &t {
            assert!(point_in_polygon(tr.centroid(), &p));
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(triangulate_polygon(&Polygon::new(vec![])).is_empty());
        assert!(triangulate_polygon(&Polygon::new(vec![Point::ZERO])).is_empty());
        assert!(
            triangulate_polygon(&Polygon::new(vec![Point::ZERO, Point::new(1.0, 1.0)])).is_empty()
        );
        // Collinear "polygon" has zero area.
        let flat = Polygon::new(vec![
            Point::ZERO,
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
        ]);
        assert!(triangulate_polygon(&flat).is_empty());
    }

    #[test]
    fn circle_triangulation_preserves_area() {
        let c = Polygon::circle(Point::new(3.0, 3.0), 2.0, 64);
        let t = triangulate_polygon(&c);
        assert_eq!(t.len(), 62);
        assert!((tri_area_sum(&t) - c.area()).abs() < 1e-9);
    }

    #[test]
    fn star_polygon() {
        // A 5-pointed star (highly concave).
        let mut pts = Vec::new();
        for i in 0..10 {
            let r = if i % 2 == 0 { 4.0 } else { 1.5 };
            let t = std::f64::consts::PI * i as f64 / 5.0;
            pts.push(Point::new(r * t.cos(), r * t.sin()));
        }
        let p = Polygon::new(pts);
        let t = triangulate_polygon(&p);
        assert_eq!(t.len(), 8);
        assert!((tri_area_sum(&t) - p.area()).abs() < 1e-9);
        for tr in &t {
            assert!(point_in_polygon(tr.centroid(), &p));
        }
    }
}
