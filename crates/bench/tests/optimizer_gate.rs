//! Acceptance gate for the join optimizer's static choice (§5.4, least
//! estimated transfer bytes; ties → layer index): the strategy it picks
//! must run within 10% of whichever forced strategy is faster — on both a
//! layer-skewed and a naive-skewed workload.
//!
//! The forced arms use the engine's test hook
//! (`Spade::force_join_strategy`); the unforced arm is the byte rule.
//!
//! The container's CPU speed swings in multi-second phases, so no arm runs
//! as a block: every round runs all three arms, in an order that rotates
//! from round to round (the ledger's alternating-pairs discipline), and
//! each arm's median is taken over the rounds.
//!
//! Release-only: `cargo test --release` runs it (the CI `release` job).

use spade_core::dataset::{DatasetKind, IndexedDataset};
use spade_core::optimizer::JoinStrategy;
use spade_core::{join, EngineConfig, QueryCtx, Spade};
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

/// The gate's arms: each strategy forced, then the static choice.
const ARMS: [Option<JoinStrategy>; 3] = [
    Some(JoinStrategy::LayerIndex),
    Some(JoinStrategy::NaiveSelects),
    None,
];

/// Wall time of one execution of the indexed join under `arm`.
fn time_join(
    spade: &Spade,
    left: &IndexedDataset,
    right: &IndexedDataset,
    arm: Option<JoinStrategy>,
) -> Duration {
    spade.force_join_strategy(arm);
    let t0 = Instant::now();
    let out = join::join_indexed(spade, left, right, &QueryCtx::default()).expect("join");
    std::hint::black_box(out.result.len());
    let elapsed = t0.elapsed();
    spade.force_join_strategy(None);
    elapsed
}

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort();
    times[times.len() / 2]
}

/// Compare the static choice on `(left, right)` against the better forced
/// strategy. Returns `(layer, naive, static)` medians for reporting.
fn gate(
    name: &str,
    spade: &Spade,
    left: &IndexedDataset,
    right: &IndexedDataset,
) -> (Duration, Duration, Duration) {
    let mut times: [Vec<Duration>; 3] = Default::default();
    for round in 0..RUNS {
        for k in 0..ARMS.len() {
            let arm = (round + k) % ARMS.len();
            times[arm].push(time_join(spade, left, right, ARMS[arm]));
        }
    }
    let [layer, naive, chosen] = times.map(median);
    let better = layer.min(naive);
    assert!(
        chosen.as_secs_f64() <= better.as_secs_f64() * 1.10,
        "{name}: static choice {chosen:?} not within 10% of better forced \
         strategy (layer {layer:?}, naive {naive:?})"
    );
    (layer, naive, chosen)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive; run in release")]
fn static_join_choice_tracks_better_strategy_on_skewed_workloads() {
    let spade = Spade::new(EngineConfig::default());

    // Layer-skewed: hundreds of disjoint parcels per region. The naive
    // strategy pays one full probe render per parcel; the layer index
    // batches non-overlapping parcels into a handful of passes.
    let parcels = indexed_polys(spider::parcels(250, 0.05, 11), 0.25);
    let pts_l = indexed_points(12_000, 13, 0.25);
    let (layer, naive, chosen) = gate("layer-skewed", &spade, &parcels, &pts_l);
    eprintln!("layer-skewed: layer {layer:?} naive {naive:?} static {chosen:?}");

    // Naive-skewed: a handful of large mutually-overlapping boxes. Layer
    // decomposition degenerates to one polygon per layer, so the layer
    // strategy batches nothing — the input most in favour of ten plain
    // selections.
    let spade2 = Spade::new(EngineConfig::default());
    let blobs = indexed_polys(spider::gaussian_boxes(10, 0.5, 17), 0.25);
    let pts_n = indexed_points(12_000, 19, 0.25);
    let (layer, naive, chosen) = gate("naive-skewed", &spade2, &blobs, &pts_n);
    eprintln!("naive-skewed: layer {layer:?} naive {naive:?} static {chosen:?}");
}
