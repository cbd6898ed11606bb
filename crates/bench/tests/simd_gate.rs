//! Acceptance gate for the batched raster kernel: on a raster-bound
//! workload — the polygon fans of a canvas-creation pass, wide triangles
//! and thin diagonal slivers on a 1024² canvas — rasterizing through the
//! batched form every pass uses must be at least 1.3× the scalar oracle,
//! fragment for fragment.
//!
//! Medians of repeated runs keep the gate stable; release-only —
//! `cargo test --release` runs it (the CI `release` job).

use spade_geometry::{BBox, Point};
use spade_gpu::{raster, Primitive, Texture, Viewport};
use std::time::{Duration, Instant};

const RUNS: usize = 15;

/// Median wall time of `RUNS` executions of `f`.
fn median(mut f: impl FnMut() -> Texture) -> Duration {
    let mut times: Vec<Duration> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        })
        .collect();
    times.sort();
    times[RUNS / 2]
}

/// 200 triangles of a canvas-creation pass at full resolution.
fn raster_bound() -> Vec<Primitive> {
    let mut seed = 0x5eed_u64;
    let mut lcg = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((seed >> 11) as f64) / ((1u64 << 53) as f64)
    };
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

fn vp() -> Viewport {
    Viewport::new(BBox::new(Point::ZERO, Point::new(1.0, 1.0)), 1024, 1024)
}

/// The canvas a canvas-creation pass writes — every fragment's attrs, in
/// order — through the batched kernel or the scalar oracle.
fn render(prims: &[Primitive], batched: bool) -> Texture {
    let (vp, mut tex) = (vp(), Texture::new(1024, 1024));
    for p in prims {
        let attrs = p.attrs();
        let mut put = |x, y| tex.put(x, y, attrs);
        if batched {
            raster::rasterize_with(p, &vp, false, &mut put);
        } else {
            raster::rasterize(p, &vp, false, &mut put);
        }
    }
    tex
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive; run in release")]
fn batched_kernels_speed_up_raster_bound_work() {
    let prims = raster_bound();
    // Warm up, and the gate compares equal work: the same canvas.
    let want = render(&prims, false);
    assert!(want.count_non_null() > 0);
    assert_eq!(render(&prims, true), want);
    let t_on = median(|| render(&prims, true));
    let t_off = median(|| render(&prims, false));
    let speedup = t_off.as_secs_f64() / t_on.as_secs_f64();
    eprintln!("raster_bound: batched {t_on:?} scalar {t_off:?} speedup {speedup:.2}x");
    assert!(
        speedup >= 1.3,
        "expected batched raster >= 1.3x scalar, got {speedup:.2}x \
         (batched median {t_on:?}, scalar median {t_off:?})"
    );
}
