//! Brute-force oracles: the ground truth every engine is tested against.

use spade_geometry::distance::point_polygon_distance;
use spade_geometry::predicates::{
    point_in_polygon, points_in_polygon_mask, polygons_intersect, segments_intersect,
};
use spade_geometry::{Point, Polygon};

/// Bbox-prefilter then batched containment: gather candidate ids, run the
/// lane-parallel polygon mask over the gathered (contiguous) points, and
/// keep the survivors. Bit-identical to filtering with the scalar
/// `point_in_polygon` — the mask kernel falls back to it on
/// boundary-ambiguous lanes — and candidate order is preserved.
fn contained_ids(points: &[Point], poly: &Polygon) -> Vec<u32> {
    let bb = poly.bbox();
    let mut ids: Vec<u32> = Vec::new();
    let mut cand: Vec<Point> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        if bb.contains(*p) {
            ids.push(i as u32);
            cand.push(*p);
        }
    }
    let mut mask = Vec::new();
    points_in_polygon_mask(&cand, poly, &mut mask);
    ids.into_iter()
        .zip(mask)
        .filter_map(|(id, m)| m.then_some(id))
        .collect()
}

/// Ids of points inside the polygon (boundary inclusive).
pub fn select_points(points: &[Point], poly: &Polygon) -> Vec<u32> {
    contained_ids(points, poly)
}

/// Ids of polygons intersecting the constraint polygon.
pub fn select_polygons(polys: &[Polygon], constraint: &Polygon) -> Vec<u32> {
    polys
        .iter()
        .enumerate()
        .filter(|(_, p)| polygons_intersect(p, constraint))
        .map(|(i, _)| i as u32)
        .collect()
}

/// Ids of polygons lying entirely inside the constraint (`ST_CONTAINS`):
/// every vertex inside it (boundary inclusive), no edge meeting its
/// boundary, and none of its holes overlapping the polygon. For points,
/// containment is [`select_points`].
pub fn select_contained(polys: &[Polygon], constraint: &Polygon) -> Vec<u32> {
    let rim = constraint.boundary_edges();
    let holes: Vec<Polygon> = (constraint.holes.iter())
        .map(|h| Polygon::new(h.points.clone()))
        .collect();
    let inside = |p: &Polygon| {
        let mut vertices = p
            .exterior
            .points
            .iter()
            .chain(p.holes.iter().flat_map(|h| &h.points));
        vertices.all(|&v| point_in_polygon(v, constraint))
            && !(p.boundary_edges().iter()).any(|e| rim.iter().any(|r| segments_intersect(*e, *r)))
            && !holes.iter().any(|h| polygons_intersect(p, h))
    };
    polys
        .iter()
        .enumerate()
        .filter(|(_, p)| inside(p))
        .map(|(i, _)| i as u32)
        .collect()
}

/// All `(polygon index, point index)` containment pairs.
pub fn join_polygon_point(polys: &[Polygon], points: &[Point]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (i, poly) in polys.iter().enumerate() {
        for j in contained_ids(points, poly) {
            out.push((i as u32, j));
        }
    }
    out
}

/// All intersecting `(left index, right index)` polygon pairs.
pub fn join_polygon_polygon(a: &[Polygon], b: &[Polygon]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (i, pa) in a.iter().enumerate() {
        for (j, pb) in b.iter().enumerate() {
            if polygons_intersect(pa, pb) {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

/// All `(left, right)` point pairs within distance `r`.
pub fn distance_join(left: &[Point], right: &[Point], r: f64) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (i, a) in left.iter().enumerate() {
        for (j, b) in right.iter().enumerate() {
            if a.dist(*b) <= r {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

/// The k nearest points to `q`, nearest first.
pub fn knn(points: &[Point], q: Point, k: usize) -> Vec<(u32, f64)> {
    let mut all: Vec<(u32, f64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u32, p.dist(q)))
        .collect();
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    all.truncate(k);
    all
}

/// For each left point, its `k` nearest right points: `(left index, right
/// index, distance)`, grouped by left index, nearest first.
pub fn knn_join(left: &[Point], right: &[Point], k: usize) -> Vec<(u32, u32, f64)> {
    let near = |(i, p): (usize, &Point)| {
        knn(right, *p, k)
            .into_iter()
            .map(move |(j, d)| (i as u32, j, d))
    };
    left.iter().enumerate().flat_map(near).collect()
}

/// Point count per polygon.
pub fn aggregate(polys: &[Polygon], points: &[Point]) -> Vec<(u32, u64)> {
    polys
        .iter()
        .enumerate()
        .map(|(i, poly)| (i as u32, contained_ids(points, poly).len() as u64))
        .collect()
}

/// Points within distance `r` of a polygon.
pub fn select_within_distance(points: &[Point], poly: &Polygon, r: f64) -> Vec<u32> {
    points
        .iter()
        .enumerate()
        .filter(|(_, p)| point_polygon_distance(**p, poly) <= r)
        .map(|(i, _)| i as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_geometry::BBox;

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64) / ((1u64 << 53) as f64)
    }

    #[test]
    fn batched_containment_matches_scalar_filter() {
        // The mask-kernel path must reproduce the per-point scalar filter
        // exactly, including points on edges/vertices of a concave ring.
        let poly = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(6.0, 0.0),
            Point::new(6.0, 6.0),
            Point::new(4.0, 6.0),
            Point::new(4.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 6.0),
            Point::new(0.0, 6.0),
        ]);
        let mut seed = 4242u64;
        let mut pts: Vec<Point> = (0..500)
            .map(|_| Point::new(lcg(&mut seed) * 8.0 - 1.0, lcg(&mut seed) * 8.0 - 1.0))
            .collect();
        pts.extend(poly.exterior.points.iter().copied());
        pts.push(Point::new(3.0, 0.0)); // on the bottom edge
        pts.push(Point::new(3.0, 2.0)); // on the notch floor
        let bb = poly.bbox();
        let want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| bb.contains(**p) && point_in_polygon(**p, &poly))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(select_points(&pts, &poly), want);
        let polys = [poly];
        assert_eq!(
            join_polygon_point(&polys, &pts),
            want.iter().map(|&j| (0, j)).collect::<Vec<_>>()
        );
        assert_eq!(aggregate(&polys, &pts), vec![(0, want.len() as u64)]);
    }

    #[test]
    fn oracles_agree_on_a_tiny_case() {
        let poly = Polygon::rect(BBox::new(Point::ZERO, Point::new(2.0, 2.0)));
        let pts = vec![Point::new(1.0, 1.0), Point::new(5.0, 5.0)];
        assert_eq!(select_points(&pts, &poly), vec![0]);
        assert_eq!(
            join_polygon_point(std::slice::from_ref(&poly), &pts),
            vec![(0, 0)]
        );
        assert_eq!(aggregate(std::slice::from_ref(&poly), &pts), vec![(0, 1)]);
        assert_eq!(knn(&pts, Point::ZERO, 1)[0].0, 0);
        assert_eq!(distance_join(&pts, &pts, 0.1).len(), 2);
        assert_eq!(select_within_distance(&pts, &poly, 5.0).len(), 2);
        assert_eq!(
            select_polygons(
                std::slice::from_ref(&poly),
                &Polygon::rect(BBox::new(Point::new(1.0, 1.0), Point::new(3.0, 3.0)))
            ),
            vec![0]
        );
        assert_eq!(
            join_polygon_polygon(std::slice::from_ref(&poly), std::slice::from_ref(&poly)).len(),
            1
        );
    }
}
