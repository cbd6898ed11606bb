//! Property tests of the rasterizer's guarantees — the contract the canvas
//! exactness argument relies on (see DESIGN.md "Correctness contract").

use proptest::prelude::*;
use spade_geometry::{BBox, Point};
use spade_gpu::raster::{self, triangle_overlaps_box};
use spade_gpu::shader::{Fragment, FragmentShader};
use spade_gpu::{
    record, Assemble, BlendMode, DrawCall, FnFragment, Pipeline, PixelValue, Primitive, Texture,
    Viewport,
};
use std::collections::BTreeSet;

prop_compose! {
    fn pt()(x in 0.0f64..32.0, y in 0.0f64..32.0) -> Point {
        Point::new(x, y)
    }
}

fn vp() -> Viewport {
    Viewport::new(BBox::new(Point::ZERO, Point::new(32.0, 32.0)), 32, 32)
}

prop_compose! {
    /// A coordinate anywhere over the viewport, on a pixel edge, or
    /// outside it.
    fn coord()(kind in 0u32..3, inside in 0.0f64..32.0, edge in 0u32..33, outside in -8.0f64..40.0)
        -> f64 {
        match kind {
            0 => inside,
            1 => f64::from(edge),
            _ => outside,
        }
    }
}

/// Each point as a plus of five points, in list order.
fn plus(points: &[(u32, Point)]) -> Vec<(u32, Point)> {
    (points.iter())
        .flat_map(|&(id, p)| {
            [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
                .map(|(dx, dy)| (id, p + Point::new(dx, dy)))
        })
        .collect()
}

/// What one input stream produces through each pass kind, each pass with
/// the passes its frame recorded: the `Replace` and `Max` textures, the
/// `count_pass` total and the `map` values in order.
#[derive(Debug, PartialEq)]
struct Passes {
    replace: (Texture, u64),
    max: (Texture, u64),
    count: (u64, u64),
    map: (Vec<PixelValue>, u64),
}

/// Run `pass` in a recording frame of its own: its output and the passes
/// the frame recorded.
fn framed<R>(pass: impl FnOnce() -> R) -> (R, u64) {
    let frame = record::begin();
    let out = pass();
    (out, frame.finish().passes)
}

fn run_passes(pipe: &Pipeline, prims: &[impl Assemble], call: &DrawCall<'_>) -> Passes {
    let draw = |blend| {
        framed(|| {
            let mut tex = Texture::new(32, 32);
            pipe.draw(&mut tex, prims, &DrawCall { blend, ..*call });
            tex
        })
    };
    Passes {
        replace: draw(BlendMode::Replace),
        max: draw(BlendMode::Max),
        count: framed(|| pipe.count_pass(prims, call)),
        map: framed(|| {
            let emit = |out: &mut Vec<_>, frag: &Fragment| out.extend(call.fragment.shade(frag));
            pipe.map(prims, call, Vec::new, emit).concat()
        }),
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A point list drawn as it is equals the hand-built primitive list
    /// carrying `[id, i, 0, 0]`, through every pass kind, for the points and
    /// for each expanded into a plus of five, at one worker and at three —
    /// where a stream index counted per chunk instead of over the whole list
    /// shows in the attributes every shader here writes or discards on.
    #[test]
    fn point_list_pass_equals_hand_built_primitives(
        points in prop::collection::vec((0u32..1_000_000, coord(), coord()), 4..200),
    ) {
        let points: Vec<(u32, Point)> =
            points.into_iter().map(|(id, x, y)| (id, Point::new(x, y))).collect();
        let discard = FnFragment(|f: &Fragment| {
            (!f.attrs[1].is_multiple_of(3)).then_some(f.attrs)
        });
        for workers in [1, 3] {
            let pipe = Pipeline::with_workers(workers);
            for points in [points.clone(), plus(&points)] {
                let prims: Vec<Primitive> = (0u32..)
                    .zip(&points)
                    .map(|(i, &(id, p))| Primitive::point(p, [id, i, 0, 0]))
                    .collect();
                for fragment in [None, Some(&discard as &dyn FragmentShader)] {
                    let simple = DrawCall::simple(vp(), BlendMode::Replace, false);
                    let call = DrawCall {
                        fragment: fragment.unwrap_or(simple.fragment),
                        ..simple
                    };
                    let got = run_passes(&pipe, &points, &call);
                    let want = run_passes(&pipe, &prims, &call);
                    prop_assert_eq!(
                        (got.replace.1, got.max.1, got.count.1, got.map.1),
                        (1, 1, 1, 1)
                    );
                    prop_assert_eq!(got, want, "workers={}", workers);
                }
            }
        }
    }
}
