//! Acceptance gates for the batched raster kernels, each against the
//! scalar oracle `raster::rasterize`, fragment for fragment:
//!
//! * default rule — on the polygon fans of a canvas-creation pass, wide
//!   triangles and thin diagonal slivers on a 1024² canvas, the 8-wide
//!   block kernel must be at least 1.3× the oracle;
//! * conservative rule — on 2,000 thin diagonal slivers at 512², the
//!   boundary coverage of layer construction, the per-row run form must be
//!   at least 2× the oracle, which tests every pixel of each bounding box;
//! * conservative rows beside the viewport — the cell-hull filter's draw,
//!   fans of convex hulls 10–1000× a 512² viewport whose boundaries cross
//!   it, so many rows of a triangle's bounding box hold no pixel of it: the
//!   run form must be at least 12× the oracle (about 37× measured on two
//!   cores; scanning a row beside the viewport pixel by pixel brings it
//!   under 3×);
//! * canvas creation — the interior pass of a 48-vertex constraint canvas
//!   at 1024², `Pipeline::draw` on one worker (band-direct: one slice blend
//!   per triangle row) must be at least 3× the oracle's fragments blended
//!   one by one in primitive order;
//! * kNN's circle — the 512² distance canvas of one point, built by
//!   `distance_canvas_points` on one worker (one classified draw, each
//!   circle row shaded as its uncertain, certain and uncertain runs), must
//!   be at least 10× the scalar two-pass oracle: the certain pixels
//!   blended with `Replace`, then the uncertain ones with `KeepFirst`, each
//!   fragment shaded and blended one by one (about 15× measured on two
//!   cores; the same shader without its circle run form, shading each
//!   pixel, reads about 6.4×).
//!
//! Each gate alternates the two arms run by run and takes the median of the
//! per-pair speed-ups, so load that shifts during the gate lands on both
//! arms of a pair alike; release-only — `cargo test --release` runs them
//! (the CI `release` job).

use spade_canvas::distance::distance_canvas_points;
use spade_canvas::{FLAG_BOUNDARY, FLAG_INTERIOR};
use spade_datagen::urban;
use spade_geometry::{BBox, Point, Polygon};
use spade_gpu::{raster, BlendMode, DrawCall, Pipeline, Primitive, Texture, Viewport};
use std::f64::consts::TAU;
use std::time::{Duration, Instant};

/// Wall time of one execution of `f`.
fn time(f: impl FnOnce() -> Texture) -> Duration {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed()
}

/// `runs` alternating pairs, the oracle run first in each, each arm timing
/// itself: the median of the per-pair speed-ups `oracle / batched`, with
/// each arm's median time for the message.
fn paired_speedup(
    runs: usize,
    mut batched: impl FnMut() -> Duration,
    mut oracle: impl FnMut() -> Duration,
) -> (f64, Duration, Duration) {
    let (mut ratios, mut t_batched, mut t_oracle) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..runs {
        let off = oracle();
        let on = batched();
        ratios.push(off.as_secs_f64() / on.as_secs_f64());
        t_oracle.push(off);
        t_batched.push(on);
    }
    ratios.sort_by(f64::total_cmp);
    t_batched.sort();
    t_oracle.sort();
    (ratios[runs / 2], t_batched[runs / 2], t_oracle[runs / 2])
}

fn lcg(seed: &mut u64) -> f64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*seed >> 11) as f64) / ((1u64 << 53) as f64)
}

/// 200 triangles of a canvas-creation pass at full resolution.
fn raster_bound() -> Vec<Primitive> {
    let mut seed = 0x5eed_u64;
    let mut lcg = move || lcg(&mut seed);
    // Polygon fans arriving at the canvas pass are a mix of compact
    // triangles and thin diagonal slivers (boundary fans). Slivers are the
    // raster-bound worst case: the scanline walks a large bounding box for
    // few covered pixels, so per-pixel coverage testing dominates.
    (0..200)
        .map(|i| {
            let (x, y) = (lcg() * 0.6, lcg() * 0.6);
            if i % 2 == 0 {
                Primitive::triangle(
                    Point::new(x, y),
                    Point::new(x + 0.1 + lcg() * 0.15, y + lcg() * 0.05),
                    Point::new(x + lcg() * 0.05, y + 0.1 + lcg() * 0.15),
                    [i + 1, 0, 0, 0],
                )
            } else {
                let d = 0.2 + lcg() * 0.2;
                Primitive::triangle(
                    Point::new(x, y),
                    Point::new(x + d, y + d + 0.002),
                    Point::new(x + d + 0.004, y + d + 0.006),
                    [i + 1, 0, 0, 0],
                )
            }
        })
        .collect()
}

/// 2,000 thin diagonal slivers, the shape of a polygon boundary's
/// conservative coverage triangles.
fn slivers() -> Vec<Primitive> {
    let mut seed = 0x511e_u64;
    (0..2000)
        .map(|i| {
            let (x, y) = (lcg(&mut seed) * 0.6, lcg(&mut seed) * 0.6);
            let d = 0.05 + lcg(&mut seed) * 0.3;
            Primitive::triangle(
                Point::new(x, y),
                Point::new(x + d, y + d + 0.002),
                Point::new(x + d + 0.004, y + d + 0.006),
                [i + 1, 0, 0, 0],
            )
        })
        .collect()
}

/// The triangulated convex hulls of 12 grid cells, each 10–1000× the unit
/// viewport across, with the boundary passing within a viewport of it: the
/// cell-hull filter's draw over a small query's canvas. Fan triangles this
/// long cross the viewport's bounding rows on slants, so many of their rows
/// there cover no pixel of it, the covered interval lying wholly left or
/// right of the viewport.
fn hull_fans() -> Vec<Primitive> {
    let mut seed = 0x4a11_u64;
    let mut lcg = move || lcg(&mut seed);
    let mut prims = Vec::new();
    for i in 0..12 {
        let r = 10f64.powf(1.0 + 2.0 * lcg());
        let a = lcg() * TAU;
        let c = Point::new(0.5, 0.5) - Point::new(a.cos(), a.sin()) * (r + 2.0 * lcg() - 0.5);
        let verts = (0..24)
            .map(|j| {
                let b = (f64::from(j) + 0.8 * lcg()) / 24.0 * TAU;
                c + Point::new(b.cos(), b.sin()) * r
            })
            .collect();
        let fan = Polygon::new(verts).triangulate().into_iter();
        prims.extend(fan.map(|t| Primitive::triangle(t.a, t.b, t.c, [i + 1, 0, 0, 0])));
    }
    prims
}

/// The interior pass of a 48-vertex constraint's canvas at 1024², the
/// viewport its bounding box (a selection's canvas): the constraint's
/// triangles, as `render_polygons` draws them.
fn constraint_interior() -> (Vec<Primitive>, Viewport) {
    let unit = BBox::new(Point::ZERO, Point::new(1.0, 1.0));
    let constraint = &urban::constraint_polygons(1, &unit, 0.3, 48, 0xc0de)[0];
    let prims = (constraint.triangulate().into_iter())
        .map(|t| Primitive::triangle(t.a, t.b, t.c, [1, 0, 1, 0]))
        .collect();
    (prims, Viewport::new(constraint.bbox(), 1024, 1024))
}

/// The canvas a pass writes at `n`² — every fragment's attrs, in order —
/// through the batched kernels or the scalar oracle.
fn render(prims: &[Primitive], n: u32, conservative: bool, batched: bool) -> Texture {
    let vp = Viewport::new(BBox::new(Point::ZERO, Point::new(1.0, 1.0)), n, n);
    let mut tex = Texture::new(n, n);
    for p in prims {
        let attrs = p.attrs();
        let mut put = |x, y| tex.put(x, y, attrs);
        if batched {
            raster::rasterize_with(p, &vp, conservative, &mut put);
        } else {
            raster::rasterize(p, &vp, conservative, &mut put);
        }
    }
    tex
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive; run in release")]
fn batched_kernels_speed_up_raster_bound_work() {
    let prims = raster_bound();
    // Warm up, and the gate compares equal work: the same canvas.
    let want = render(&prims, 1024, false, false);
    assert!(want.count_non_null() > 0);
    assert_eq!(render(&prims, 1024, false, true), want);
    let (speedup, t_on, t_off) = paired_speedup(
        15,
        || time(|| render(&prims, 1024, false, true)),
        || time(|| render(&prims, 1024, false, false)),
    );
    eprintln!("raster_bound: batched {t_on:?} scalar {t_off:?} speedup {speedup:.2}x");
    assert!(
        speedup >= 1.3,
        "expected batched raster >= 1.3x scalar, got {speedup:.2}x \
         (batched median {t_on:?}, scalar median {t_off:?})"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive; run in release")]
fn conservative_runs_speed_up_sliver_coverage() {
    let prims = slivers();
    let want = render(&prims, 512, true, false);
    assert!(want.count_non_null() > 0);
    assert_eq!(render(&prims, 512, true, true), want);
    // The oracle takes over half a second per run here, so fewer runs.
    let (speedup, t_runs, t_oracle) = paired_speedup(
        5,
        || time(|| render(&prims, 512, true, true)),
        || time(|| render(&prims, 512, true, false)),
    );
    eprintln!("slivers: runs {t_runs:?} oracle {t_oracle:?} speedup {speedup:.2}x");
    assert!(
        speedup >= 2.0,
        "expected conservative runs >= 2x the oracle, got {speedup:.2}x \
         (runs median {t_runs:?}, oracle median {t_oracle:?})"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive; run in release")]
fn row_runs_skip_rows_outside_the_viewport() {
    let prims = hull_fans();
    let want = render(&prims, 512, true, false);
    assert!(want.count_non_null() > 0);
    assert_eq!(render(&prims, 512, true, true), want);
    let (speedup, t_runs, t_oracle) = paired_speedup(
        7,
        || time(|| render(&prims, 512, true, true)),
        || time(|| render(&prims, 512, true, false)),
    );
    eprintln!("hull fans: runs {t_runs:?} oracle {t_oracle:?} speedup {speedup:.2}x");
    assert!(
        speedup >= 12.0,
        "expected conservative runs >= 12x the oracle on hull fans, got {speedup:.2}x \
         (runs median {t_runs:?}, oracle median {t_oracle:?})"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive; run in release")]
fn band_draw_speeds_up_constraint_interior() {
    let (prims, vp) = constraint_interior();
    let pipe = Pipeline::with_workers(1);
    let call = DrawCall::simple(vp, BlendMode::Replace, false);
    let draw = |tex: &mut Texture| {
        pipe.draw(tex, &prims, &call);
    };
    // The oracle: every fragment of the scalar rasterizer, blended one by
    // one in primitive order.
    let oracle = |tex: &mut Texture| {
        for p in &prims {
            raster::rasterize(p, &vp, false, &mut |x, y| {
                tex.put(x, y, call.blend.apply(tex.get(x, y), p.attrs()))
            });
        }
    };
    let (mut got, mut want) = (Texture::new(1024, 1024), Texture::new(1024, 1024));
    draw(&mut got);
    oracle(&mut want);
    assert!(want.count_non_null() > 500_000);
    assert_eq!(got, want);
    // Both arms draw into a cleared 1024² target with the clear untimed,
    // so the ratio is the draws' alone.
    let timed = |tex: &mut Texture, f: &dyn Fn(&mut Texture)| {
        tex.clear();
        let t0 = Instant::now();
        f(std::hint::black_box(tex));
        t0.elapsed()
    };
    let (speedup, t_draw, t_oracle) =
        paired_speedup(15, || timed(&mut got, &draw), || timed(&mut want, &oracle));
    eprintln!("constraint interior: draw {t_draw:?} oracle {t_oracle:?} speedup {speedup:.2}x");
    assert!(
        speedup >= 3.0,
        "expected the band draw >= 3x the oracle, got {speedup:.2}x \
         (draw median {t_draw:?}, oracle median {t_oracle:?})"
    );
}

/// A pass's value for a pixel at distance `d` from the circle's centre.
type Shade<'a> = dyn Fn(f64) -> Option<[u32; 4]> + 'a;

/// The two-pass composition of a circle canvas around `q`, radius `r`, as
/// a scalar oracle: the circle's bounding square (two triangles, half-side
/// `r` plus half a pixel diagonal) rasterized conservatively by
/// `raster::rasterize` twice, the certain pixels written with `Replace`,
/// then the uncertain ones with `KeepFirst`.
fn circle_two_pass(q: Point, r: f64, vp: &Viewport) -> Texture {
    let hd = vp.pixel_size().norm() * 0.5;
    let h = r + hd;
    let corners = [(-h, -h), (h, -h), (h, h), (-h, h)].map(|(x, y)| q + Point::new(x, y));
    let square = [
        Primitive::triangle(corners[0], corners[1], corners[2], [0; 4]),
        Primitive::triangle(corners[0], corners[2], corners[3], [0; 4]),
    ];
    let mut tex = Texture::new(vp.width, vp.height);
    let passes: [(BlendMode, &Shade<'_>); 2] = [
        (BlendMode::Replace, &|d| {
            (d <= r - hd).then_some([1, 0, FLAG_INTERIOR, 0])
        }),
        (BlendMode::KeepFirst, &|d| {
            (d > r - hd && d <= r + hd).then_some([1, 0, FLAG_BOUNDARY, 1])
        }),
    ];
    for (blend, shade) in passes {
        for p in &square {
            raster::rasterize(p, vp, true, &mut |x, y| {
                if let Some(v) = shade(vp.pixel_center(x, y).dist(q)) {
                    tex.put(x, y, blend.apply(tex.get(x, y), v));
                }
            });
        }
    }
    tex
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive; run in release")]
fn classified_draw_speeds_up_knn_circle() {
    // A kNN select's within-circle: one point, the viewport its circle's
    // bounding box at the distance resolution.
    let (q, r) = (Point::new(0.4, 0.6), 0.05);
    let vp = Viewport::square_pixels(BBox::new(q, q).inflate(r), 512);
    let pipe = Pipeline::with_workers(1);
    let canvas = || distance_canvas_points(&pipe, vp, &[(0, q, r)]).texture;
    let want = circle_two_pass(q, r, &vp);
    assert!(want.count_non_null() > 150_000);
    assert_eq!(canvas(), want);
    let (speedup, t_canvas, t_oracle) =
        paired_speedup(15, || time(canvas), || time(|| circle_two_pass(q, r, &vp)));
    eprintln!("knn circle: canvas {t_canvas:?} oracle {t_oracle:?} speedup {speedup:.2}x");
    assert!(
        speedup >= 10.0,
        "expected the circle canvas >= 10x the two-pass oracle, got {speedup:.2}x \
         (canvas median {t_canvas:?}, oracle median {t_oracle:?})"
    );
}
