//! Acceptance gate for the batched kernels: on a raster-bound workload
//! (canvas creation — wide triangles through the `WriteAttrs` fast path)
//! the batched engine must be at least 1.3× the scalar engine, and on
//! workloads the kernels barely touch (out-of-core join, a service-style
//! select mix) they must not regress by more than 5%.
//!
//! Medians of repeated runs keep the gate stable; release-only — the CI
//! `simd-gate` job runs it.

use spade_core::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade_core::{join, select, EngineConfig, QueryCtx, Spade};
use spade_datagen::{spider, urban};
use spade_geometry::{BBox, Geometry, Point};
use spade_gpu::{BlendMode, DrawCall, Primitive, Viewport};
use spade_index::GridIndex;
use std::time::{Duration, Instant};

const RUNS: usize = 15;

/// Median wall time of `RUNS` executions of `f`.
fn median(mut f: impl FnMut() -> u64) -> Duration {
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

fn engine(simd: bool) -> Spade {
    Spade::new(EngineConfig {
        workers: 1, // single worker: the gate measures kernel time, not scheduling
        simd_kernels: simd,
        ..EngineConfig::default()
    })
}

/// Canvas creation at full resolution: wide triangles, `WriteAttrs`
/// fragments, `Replace` blending — per-pixel rasterization dominates.
fn raster_bound(spade: &Spade) -> u64 {
    let vp = Viewport::new(BBox::new(Point::ZERO, Point::new(1.0, 1.0)), 1024, 1024);
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
    let prims: Vec<Primitive> = (0..200)
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
        .collect();
    let call = DrawCall::simple(vp, BlendMode::Replace, false);
    let mut target = spade.pipeline.arena().checkout(1024, 1024);
    u64::from(spade.pipeline.draw(&mut target, &prims, &call))
}

fn datasets() -> (IndexedDataset, IndexedDataset, Dataset) {
    let pts_objs: Vec<(u32, Geometry)> = spider::gaussian_points(20_000, 171)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u32, Geometry::Point(p)))
        .collect();
    let parcels = spider::parcels(120, 0.04, 173);
    let parcel_objs: Vec<(u32, Geometry)> = parcels
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, p)| (i as u32, Geometry::Polygon(p)))
        .collect();
    let gp = GridIndex::build(None, &pts_objs, 0.2).unwrap();
    let gq = GridIndex::build(None, &parcel_objs, 0.35).unwrap();
    (
        IndexedDataset::new("p", DatasetKind::Points, gp),
        IndexedDataset::new("parcels", DatasetKind::Polygons, gq),
        Dataset::from_points("pmem", spider::gaussian_points(20_000, 171)),
    )
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive; run in release")]
fn batched_kernels_speed_up_raster_bound_work() {
    let on = engine(true);
    let off = engine(false);
    // Warm both executors/arenas once.
    raster_bound(&on);
    raster_bound(&off);
    let t_on = median(|| raster_bound(&on));
    let t_off = median(|| raster_bound(&off));
    assert!(
        on.pipeline.batched_blocks() > 0,
        "gate never took block path"
    );
    assert_eq!(off.pipeline.batched_blocks(), 0);
    let speedup = t_off.as_secs_f64() / t_on.as_secs_f64();
    eprintln!("raster_bound: batched {t_on:?} scalar {t_off:?} speedup {speedup:.2}x");
    assert!(
        speedup >= 1.3,
        "expected batched raster >= 1.3x scalar, got {speedup:.2}x \
         (batched median {t_on:?}, scalar median {t_off:?})"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive; run in release")]
fn batched_kernels_do_not_regress_join_out_of_core() {
    let on = engine(true);
    let off = engine(false);
    let (pts_idx, parcels_idx, _) = datasets();
    let run = |spade: &Spade| -> u64 {
        join::join_indexed(spade, &parcels_idx, &pts_idx, &QueryCtx::default())
            .unwrap()
            .result
            .len() as u64
    };
    run(&on);
    run(&off);
    let t_on = median(|| run(&on));
    let t_off = median(|| run(&off));
    let ratio = t_on.as_secs_f64() / t_off.as_secs_f64();
    eprintln!("join_out_of_core: batched {t_on:?} scalar {t_off:?} ratio {ratio:.3}");
    assert!(
        ratio <= 1.05,
        "batched kernels regressed out-of-core join by {:.1}% \
         (batched median {t_on:?}, scalar median {t_off:?})",
        (ratio - 1.0) * 100.0
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive; run in release")]
fn batched_kernels_do_not_regress_service_style_selects() {
    let on = engine(true);
    let off = engine(false);
    let (_, _, pts) = datasets();
    let constraints = urban::constraint_polygons(
        8,
        &BBox::new(Point::ZERO, Point::new(1.0, 1.0)),
        0.15,
        24,
        5,
    );
    // A service-style request mix: many small selections, each its own
    // render pass (result caching would hide the kernels; per-call
    // constraints keep every query cold).
    let run = |spade: &Spade| -> u64 {
        constraints
            .iter()
            .map(|c| select::select(spade, &pts, c).result.len() as u64)
            .sum()
    };
    run(&on);
    run(&off);
    let t_on = median(|| run(&on));
    let t_off = median(|| run(&off));
    let ratio = t_on.as_secs_f64() / t_off.as_secs_f64();
    eprintln!("service_selects: batched {t_on:?} scalar {t_off:?} ratio {ratio:.3}");
    assert!(
        ratio <= 1.05,
        "batched kernels regressed service-style selects by {:.1}% \
         (batched median {t_on:?}, scalar median {t_off:?})",
        (ratio - 1.0) * 100.0
    );
}
