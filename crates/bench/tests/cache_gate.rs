//! Acceptance gate for the hot-query serving layer: a cache hit must be at
//! least 5× faster than a cold render of the same query.
//!
//! The real ratio is orders of magnitude (a hash probe + payload clone vs a
//! cell scan + render), so ≥5× on the *median* of repeated runs holds with
//! a wide margin on any hardware. Release-only: the CI `cache-consistency`
//! job runs it.

use spade_core::dataset::IndexedDataset;
use spade_core::query::{self, SelectQuery};
use spade_core::{CacheOutcome, EngineConfig, QueryCtx, Spade};
use spade_datagen::spider;
use spade_geometry::{BBox, Geometry, Point};
use spade_index::GridIndex;
use std::time::{Duration, Instant};

const RUNS: usize = 15;

fn build(spade_cache: bool) -> (Spade, IndexedDataset) {
    let spade = Spade::new(EngineConfig {
        result_cache_enabled: spade_cache,
        ..EngineConfig::default()
    });
    let objs: Vec<(u32, Geometry)> = spider::uniform_points(60_000, 41)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            (
                i as u32,
                Geometry::Point(Point::new(p.x * 100.0, p.y * 100.0)),
            )
        })
        .collect();
    let grid = GridIndex::build(None, &objs, 10.0).unwrap();
    (
        spade,
        IndexedDataset::new("pts", spade_core::dataset::DatasetKind::Points, grid),
    )
}

fn tile() -> SelectQuery {
    SelectQuery::Range(BBox::new(Point::new(22.0, 18.0), Point::new(71.0, 64.0)))
}

/// Median wall time of `RUNS` executions of `f`.
fn median(mut f: impl FnMut() -> usize) -> Duration {
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

#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive; run in release")]
fn cache_hit_beats_cold_render_by_5x() {
    let (cold_engine, cold_idx) = build(false);
    let (hot_engine, hot_idx) = build(true);
    let q = tile();

    let cold = median(|| {
        query::run_select_ctx(&cold_engine, &cold_idx, &q, &QueryCtx::cached())
            .expect("select")
            .result
            .len()
    });

    // Warm once, then every run must be a HIT.
    query::run_select_ctx(&hot_engine, &hot_idx, &q, &QueryCtx::cached()).expect("warm");
    let hot = median(|| {
        let out =
            query::run_select_ctx(&hot_engine, &hot_idx, &q, &QueryCtx::cached()).expect("select");
        assert_eq!(out.stats.result_cache, CacheOutcome::Hit);
        assert_eq!(out.stats.cells_loaded, 0, "HIT path must do zero cell I/O");
        out.result.len()
    });

    let speedup = cold.as_secs_f64() / hot.as_secs_f64();
    assert!(
        speedup >= 5.0,
        "expected cache hits >= 5x a cold render, got {speedup:.2}x \
         (cold median {cold:?}, hot median {hot:?})"
    );
}
