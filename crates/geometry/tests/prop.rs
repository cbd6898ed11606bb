//! Property tests for the geometric predicates — the exactness of every
//! engine result rests on these invariants.

use proptest::prelude::*;
use spade_geometry::distance::{point_segment_distance, segment_segment_distance};
use spade_geometry::hull::convex_hull;
use spade_geometry::predicates::*;
use spade_geometry::{Point, Polygon, Segment, Triangle};

prop_compose! {
    fn pt()(x in -100.0f64..100.0, y in -100.0f64..100.0) -> Point {
        Point::new(x, y)
    }
}

prop_compose! {
    fn seg()(a in pt(), b in pt()) -> Segment {
        Segment::new(a, b)
    }
}

prop_compose! {
    fn tri()(a in pt(), b in pt(), c in pt()) -> Triangle {
        Triangle::new(a, b, c)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn segment_intersection_consistent_with_distance(s1 in seg(), s2 in seg()) {
        // intersect ⇒ distance 0; distance clearly positive ⇒ no intersect.
        let d = segment_segment_distance(s1, s2);
        if segments_intersect(s1, s2) {
            prop_assert!(d == 0.0, "intersecting segments at distance {d}");
        } else {
            prop_assert!(d > 0.0, "disjoint segments at distance 0");
        }
    }

    #[test]
    fn segment_intersection_is_symmetric(s1 in seg(), s2 in seg()) {
        prop_assert_eq!(segments_intersect(s1, s2), segments_intersect(s2, s1));
    }

    #[test]
    fn triangle_containment_matches_barycentric(p in pt(), t in tri()) {
        prop_assume!(t.area() > 1e-6);
        // Barycentric-coordinate oracle (winding-normalized).
        let (a, b, c) = if t.signed_area() > 0.0 {
            (t.a, t.b, t.c)
        } else {
            (t.a, t.c, t.b)
        };
        let area2 = (b - a).cross(c - a);
        let u = (b - a).cross(p - a) / area2;
        let v = (c - b).cross(p - b) / area2;
        let w = (a - c).cross(p - c) / area2;
        let inside = u >= 0.0 && v >= 0.0 && w >= 0.0;
        prop_assert_eq!(point_in_triangle(p, &t), inside);
    }

    #[test]
    fn triangle_intersection_symmetric(t1 in tri(), t2 in tri()) {
        prop_assert_eq!(triangles_intersect(&t1, &t2), triangles_intersect(&t2, &t1));
    }

    #[test]
    fn triangle_vertices_intersect_their_triangle(t in tri()) {
        prop_assume!(t.area() > 1e-9);
        for v in t.vertices() {
            prop_assert!(point_in_triangle(v, &t));
        }
        prop_assert!(point_in_triangle(t.centroid(), &t));
        prop_assert!(triangles_intersect(&t, &t));
    }

    #[test]
    fn point_segment_distance_is_metric_like(p in pt(), s in seg()) {
        let d = point_segment_distance(p, s);
        prop_assert!(d >= 0.0);
        prop_assert!(d <= p.dist(s.a) + 1e-9);
        prop_assert!(d <= p.dist(s.b) + 1e-9);
    }

    #[test]
    fn hull_is_idempotent(pts in prop::collection::vec(pt(), 3..60)) {
        let h1 = convex_hull(&pts);
        let h2 = convex_hull(&h1);
        prop_assert_eq!(h1, h2);
    }

    #[test]
    fn polygon_intersection_symmetric_on_blobs(
        c1 in pt(), r1 in 1.0f64..20.0, n1 in 3usize..9,
        c2 in pt(), r2 in 1.0f64..20.0, n2 in 3usize..9,
    ) {
        let p1 = Polygon::circle(c1, r1, n1);
        let p2 = Polygon::circle(c2, r2, n2);
        prop_assert_eq!(polygons_intersect(&p1, &p2), polygons_intersect(&p2, &p1));
        // Distance-based cross-check.
        let d = spade_geometry::distance::polygon_polygon_distance(&p1, &p2);
        prop_assert_eq!(d == 0.0, polygons_intersect(&p1, &p2));
    }
}
