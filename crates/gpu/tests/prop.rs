//! Property tests of the rasterizer's guarantees — the contract the canvas
//! exactness argument relies on (see DESIGN.md "Correctness contract").

use proptest::prelude::*;
use spade_geometry::{BBox, Point};
use spade_gpu::raster::{self, triangle_overlaps_box};
use spade_gpu::{Primitive, Viewport};
use std::collections::BTreeSet;

prop_compose! {
    fn pt()(x in 0.0f64..32.0, y in 0.0f64..32.0) -> Point {
        Point::new(x, y)
    }
}

fn vp() -> Viewport {
    Viewport::new(BBox::new(Point::ZERO, Point::new(32.0, 32.0)), 32, 32)
}

fn pixels(prim: &Primitive, conservative: bool) -> BTreeSet<(u32, u32)> {
    let mut s = BTreeSet::new();
    raster::rasterize(prim, &vp(), conservative, &mut |x, y| {
        s.insert((x, y));
    });
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn conservative_triangle_is_superset_of_default(a in pt(), b in pt(), c in pt()) {
        let prim = Primitive::triangle(a, b, c, [0; 4]);
        let std = pixels(&prim, false);
        let cons = pixels(&prim, true);
        prop_assert!(std.is_subset(&cons));
    }

    #[test]
    fn conservative_triangle_covers_exactly_touched_cells(a in pt(), b in pt(), c in pt()) {
        // Conservative coverage must equal the SAT box-overlap oracle for
        // every pixel in the bbox range.
        let t = spade_geometry::Triangle::new(a, b, c);
        let prim = Primitive::triangle(a, b, c, [0; 4]);
        let cons = pixels(&prim, true);
        let v = vp();
        if let Some((x0, y0, x1, y1)) = v.pixel_range(&t.bbox()) {
            for y in y0..=y1 {
                for x in x0..=x1 {
                    let want = triangle_overlaps_box(&t, &v.pixel_box(x, y));
                    prop_assert_eq!(
                        cons.contains(&(x, y)),
                        want,
                        "pixel ({}, {})", x, y
                    );
                }
            }
        }
    }

    #[test]
    fn conservative_line_covers_endpoint_cells(a in pt(), b in pt()) {
        let prim = Primitive::line(a, b, [0; 4]);
        let cons = pixels(&prim, true);
        let v = vp();
        // Both endpoint cells (when inside the viewport) must be covered.
        for p in [a, b] {
            if let Some(cell) = v.world_to_pixel(p) {
                prop_assert!(cons.contains(&cell), "endpoint cell {cell:?} missing");
            }
        }
    }

    #[test]
    fn conservative_line_is_connected(a in pt(), b in pt()) {
        // The covered cells of a segment form a 8-connected path.
        let prim = Primitive::line(a, b, [0; 4]);
        let cons = pixels(&prim, true);
        prop_assume!(!cons.is_empty());
        let start = *cons.iter().next().unwrap();
        let mut seen = BTreeSet::from([start]);
        let mut stack = vec![start];
        while let Some((x, y)) = stack.pop() {
            for dx in -1i64..=1 {
                for dy in -1i64..=1 {
                    let n = ((x as i64 + dx) as u32, (y as i64 + dy) as u32);
                    if cons.contains(&n) && seen.insert(n) {
                        stack.push(n);
                    }
                }
            }
        }
        prop_assert_eq!(seen.len(), cons.len(), "disconnected line coverage");
    }

    #[test]
    fn point_rasterizes_to_its_cell(p in pt()) {
        let prim = Primitive::point(p, [0; 4]);
        let px = pixels(&prim, false);
        let expected: BTreeSet<(u32, u32)> =
            vp().world_to_pixel(p).into_iter().collect();
        prop_assert_eq!(px, expected);
    }

    #[test]
    fn rasterization_is_deterministic(a in pt(), b in pt(), c in pt()) {
        let prim = Primitive::triangle(a, b, c, [0; 4]);
        prop_assert_eq!(pixels(&prim, true), pixels(&prim, true));
        prop_assert_eq!(pixels(&prim, false), pixels(&prim, false));
    }
}
