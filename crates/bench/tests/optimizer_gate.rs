//! Acceptance gate for the adaptive join optimizer: after calibration,
//! the adaptive strategy choice must run within 10% of whichever forced
//! strategy is faster — on both a layer-skewed and a naive-skewed
//! workload. A picker that is this close to the per-workload winner on
//! opposite skews cannot be statically wedged to either strategy.
//!
//! Calibration uses the same override hook the test asserts with: forced
//! runs still feed the observed-statistics EWMAs, so after `RUNS` forced
//! executions of each strategy both cost models are warm and the adaptive
//! run decides from measurements, not static byte estimates.
//!
//! Release-only: the CI `optimizer-gate` job runs it.

use spade_core::dataset::{DatasetKind, IndexedDataset};
use spade_core::optimizer::JoinStrategy;
use spade_core::{explain, join, EngineConfig, QueryCtx, Spade};
use spade_datagen::spider;
use spade_geometry::{Geometry, Polygon};
use spade_index::GridIndex;
use std::time::{Duration, Instant};

const RUNS: usize = 9;

fn indexed_polys(polys: Vec<Polygon>, cell: f64) -> IndexedDataset {
    let objs: Vec<(u32, Geometry)> = polys
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u32, Geometry::Polygon(p)))
        .collect();
    let grid = GridIndex::build(None, &objs, cell).unwrap();
    IndexedDataset::new("polys", DatasetKind::Polygons, grid)
}

fn indexed_points(n: usize, seed: u64, cell: f64) -> IndexedDataset {
    let objs: Vec<(u32, Geometry)> = spider::uniform_points(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u32, Geometry::Point(p)))
        .collect();
    let grid = GridIndex::build(None, &objs, cell).unwrap();
    IndexedDataset::new("pts", DatasetKind::Points, grid)
}

/// Median wall time of `RUNS` executions of the indexed join.
fn median(spade: &Spade, left: &IndexedDataset, right: &IndexedDataset) -> Duration {
    let mut times: Vec<Duration> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            let out = join::join_indexed(spade, left, right, &QueryCtx::default()).expect("join");
            std::hint::black_box(out.result.len());
            t0.elapsed()
        })
        .collect();
    times.sort();
    times[RUNS / 2]
}

/// Calibrate both strategies on `(left, right)`, then compare the adaptive
/// choice against the better forced strategy. Returns
/// `(layer, naive, adaptive)` medians for reporting.
fn gate(
    name: &str,
    spade: &Spade,
    left: &IndexedDataset,
    right: &IndexedDataset,
) -> (Duration, Duration, Duration) {
    spade
        .observed
        .set_join_override(Some(JoinStrategy::LayerIndex));
    let layer = median(spade, left, right);
    spade
        .observed
        .set_join_override(Some(JoinStrategy::NaiveSelects));
    let naive = median(spade, left, right);
    spade.observed.set_join_override(None);

    // The decision under test must come from warm observations.
    explain::begin();
    join::join_indexed(spade, left, right, &QueryCtx::default()).expect("join");
    let report = explain::finish();
    let j = report.join.expect("join plan reported");
    assert!(
        j.adaptive,
        "{name}: both strategies calibrated, decision must be adaptive"
    );

    let adaptive = median(spade, left, right);
    let better = layer.min(naive);
    assert!(
        adaptive.as_secs_f64() <= better.as_secs_f64() * 1.10,
        "{name}: adaptive {adaptive:?} not within 10% of better forced \
         strategy (layer {layer:?}, naive {naive:?})"
    );
    (layer, naive, adaptive)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive; run in release")]
fn adaptive_join_tracks_better_strategy_on_skewed_workloads() {
    let spade = Spade::new(EngineConfig::default());

    // Layer-skewed: hundreds of disjoint parcels per region. The naive
    // strategy pays one full probe render per parcel; the layer index
    // batches non-overlapping parcels into a handful of passes.
    let parcels = indexed_polys(spider::parcels(250, 0.05, 11), 0.25);
    let pts_l = indexed_points(12_000, 13, 0.25);
    let (layer, naive, adaptive) = gate("layer-skewed", &spade, &parcels, &pts_l);
    eprintln!("layer-skewed: layer {layer:?} naive {naive:?} adaptive {adaptive:?}");

    // Naive-skewed: a handful of large mutually-overlapping boxes. Layer
    // decomposition degenerates to one polygon per layer, so the layer
    // strategy pays the decomposition and per-layer pass overhead for no
    // batching; ten plain selections win.
    let spade2 = Spade::new(EngineConfig::default());
    let blobs = indexed_polys(spider::gaussian_boxes(10, 0.5, 17), 0.25);
    let pts_n = indexed_points(12_000, 19, 0.25);
    let (layer, naive, adaptive) = gate("naive-skewed", &spade2, &blobs, &pts_n);
    eprintln!("naive-skewed: layer {layer:?} naive {naive:?} adaptive {adaptive:?}");
}
