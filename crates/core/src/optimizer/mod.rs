//! The query optimizer (§5.4).
//!
//! Three decisions, exactly the ones the paper's QO makes:
//!
//! 1. **Map implementation** — 1-pass when the result-size estimate
//!    (`n_max`) fits the maximum list-canvas allocation, 2-pass otherwise;
//!    estimates follow §5.4 (selection: `|D|`; point join: `n` points per
//!    layer; polygon join: `m·n` per layer).
//! 2. **Out-of-core join strategy** — layer-index join vs. a naive loop of
//!    selects, chosen by the estimated bytes transferred to the device
//!    ("the join strategy that requires the least memory transfer is then
//!    selected").
//! 3. **Join operation order** — consecutive selects should share at least
//!    one resident grid cell, so cell loads carry over between iterations.
//!
//! On top of the paper's static estimates sits the [`stats`] layer: once a
//! dataset pair has run both join strategies a few times, the join
//! decision uses their measured execution cost per estimated byte instead
//! of bytes alone. A wrong adaptive call is never a wrong answer — both
//! join strategies compute the same pair set. The Map decision stays the
//! paper's static rule.

pub mod stats;

use crate::engine::Spade;
use spade_canvas::algebra::{self, MapResult};
use spade_gpu::record::MapDecisions;
use spade_gpu::{DrawCall, Primitive};

/// Which Map implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapImpl {
    OnePass,
    TwoPass,
}

/// Pick the Map implementation from the result-size estimate: 1-pass when
/// the `n_max` bound fits the list canvas, 2-pass otherwise.
pub fn choose_map_impl(spade: &Spade, n_max: usize) -> MapImpl {
    if n_max <= spade.config.max_map_slots {
        MapImpl::OnePass
    } else {
        MapImpl::TwoPass
    }
}

/// Execute a Map with the implementation [`choose_map_impl`] picks and
/// record the choice in the query's frame ([`spade_gpu::record`]). A 2-pass
/// whose result fit the 1-pass canvas after all is an overshoot: the bound
/// was loose.
pub fn run_map(spade: &Spade, prims: &[Primitive], call: &DrawCall<'_>, n_max: usize) -> MapResult {
    let slots = spade.config.max_map_slots as u64;
    let choice = choose_map_impl(spade, n_max);
    let r = match choice {
        // The caller's `n_max` bounds the production (a point emits at
        // most one value), so the static 1-pass cannot overflow; the 2-pass
        // arm only keeps a wrong bound from ever being a wrong answer.
        MapImpl::OnePass => algebra::map_1pass(&spade.pipeline, prims, call, n_max)
            .unwrap_or_else(|_| algebra::map_2pass(&spade.pipeline, prims, call)),
        MapImpl::TwoPass => algebra::map_2pass(&spade.pipeline, prims, call),
    };
    let two_pass = choice == MapImpl::TwoPass;
    spade_gpu::record::add_map(MapDecisions {
        one_pass: !two_pass as u64,
        two_pass: two_pass as u64,
        overshoots: (two_pass && r.values.len() as u64 <= slots) as u64,
        max_n_max: n_max as u64,
        slots,
    });
    r
}

/// The two out-of-core join strategies of §5.3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Layer-index join over filtered cell pairs (the choice on a tie).
    #[default]
    LayerIndex,
    /// A loop of per-object selections.
    NaiveSelects,
}

/// Choose the join strategy by estimated transfer volume (§5.4 "Choose the
/// join implementation").
pub fn choose_join_strategy(layer_bytes: u64, naive_bytes: u64) -> JoinStrategy {
    if naive_bytes < layer_bytes {
        JoinStrategy::NaiveSelects
    } else {
        JoinStrategy::LayerIndex
    }
}

/// Order cell pairs so consecutive iterations share a resident cell: sort
/// lexicographically, with every odd left-group's right-cells reversed
/// (boustrophedon), so both the left cell carries over within a group and
/// the right cell carries over across group boundaries.
pub fn order_cell_pairs(pairs: &mut [(u32, u32)]) {
    pairs.sort_unstable();
    let mut i = 0;
    let mut group = 0usize;
    while i < pairs.len() {
        let left = pairs[i].0;
        let mut j = i;
        while j < pairs.len() && pairs[j].0 == left {
            j += 1;
        }
        if group % 2 == 1 {
            pairs[i..j].reverse();
        }
        group += 1;
        i = j;
    }
}

/// Estimated bytes transferred by the layer-index strategy over pairs
/// ALREADY in execution order: a walk of the exact residency rule the
/// executor's sequence uses (a resident cell is not re-transferred), so
/// the estimate equals the bytes the walk will actually request. Call
/// [`order_cell_pairs`] once and pass the ordered slice — estimating on a
/// differently-ordered copy is exactly the estimator/executor drift this
/// function exists to prevent.
pub fn estimate_layer_bytes_ordered(
    ordered: &[(u32, u32)],
    left_bytes: &[u64],
    right_bytes: &[u64],
) -> u64 {
    let mut total = 0u64;
    let mut resident_left = None;
    let mut resident_right = None;
    for &(l, r) in ordered {
        if resident_left != Some(l) {
            total += left_bytes[l as usize];
            resident_left = Some(l);
        }
        if resident_right != Some(r) {
            total += right_bytes[r as usize];
            resident_right = Some(r);
        }
    }
    total
}

/// Estimated bytes transferred by the naive strategy: for each probe
/// object, the blocks of every cell its filter matched (no sharing across
/// probes beyond consecutive duplicates).
pub fn estimate_naive_bytes(per_object_cells: &[Vec<u32>], cell_bytes: &[u64]) -> u64 {
    let mut total = 0u64;
    let mut resident = None;
    for cells in per_object_cells {
        for &c in cells {
            if resident != Some(c) {
                total += cell_bytes[c as usize];
                resident = Some(c);
            }
        }
    }
    total
}

/// Bytes of the probe-side (left) cells the naive strategy reads to
/// enumerate its probe objects: only the cells that appear in a candidate
/// pair. A left cell whose filter matched nothing contributes no probes —
/// charging the whole left grid (the old formula) overcharges the naive
/// strategy on selective joins.
pub fn estimate_probe_bytes(pairs: &[(u32, u32)], left_bytes: &[u64]) -> u64 {
    let mut matched: Vec<u32> = pairs.iter().map(|&(l, _)| l).collect();
    matched.sort_unstable();
    matched.dedup();
    matched.into_iter().map(|l| left_bytes[l as usize]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use spade_geometry::{BBox, Point};
    use spade_gpu::{BlendMode, FrameTotals, Viewport};

    #[test]
    fn map_choice_threshold() {
        let spade = Spade::new(EngineConfig {
            max_map_slots: 100,
            ..EngineConfig::test_small()
        });
        assert_eq!(choose_map_impl(&spade, 100), MapImpl::OnePass);
        assert_eq!(choose_map_impl(&spade, 101), MapImpl::TwoPass);
    }

    /// Run one point Map of `n` values under a bound of `n_max`, inside a
    /// recording frame.
    fn point_map(spade: &Spade, n: u32, n_max: usize) -> (MapResult, FrameTotals) {
        let prims: Vec<Primitive> = (0..n)
            .map(|i| Primitive::point(Point::new(i as f64 + 0.5, 0.5), [i + 1, 0, 0, 0]))
            .collect();
        let vp = Viewport::new(BBox::new(Point::ZERO, Point::new(10.0, 10.0)), 10, 10);
        let call = DrawCall::simple(vp, BlendMode::Replace, false);
        spade_gpu::record::begin();
        let r = run_map(spade, &prims, &call, n_max);
        (r, spade_gpu::record::finish())
    }

    #[test]
    fn static_one_pass_renders_one_pass() {
        // A bound that fits the slots runs the 1-pass Map: one draw call in
        // the query's frame, one 1-pass decision, nothing mispredicted.
        let spade = Spade::new(EngineConfig {
            max_map_slots: 16,
            ..EngineConfig::test_small()
        });
        let (r, frame) = point_map(&spade, 10, 10);
        assert_eq!((r.values.len(), r.passes), (10, 1));
        assert_eq!(frame.gpu.draw_calls, 1);
        let m = frame.map;
        assert_eq!((m.one_pass, m.two_pass, m.overshoots), (1, 0, 0));
    }

    #[test]
    fn two_pass_overshoot_counts_misprediction() {
        let spade = Spade::new(EngineConfig {
            max_map_slots: 4,
            ..EngineConfig::test_small()
        });
        // Bound 100 > 4 slots → static 2-pass; but only 3 values are
        // produced, which would have fit 1-pass: overshoot.
        let (r, frame) = point_map(&spade, 3, 100);
        assert_eq!((r.values.len(), r.passes), (3, 2));
        assert_eq!(frame.gpu.draw_calls, 2, "count + materialize");
        let m = frame.map;
        assert_eq!((m.one_pass, m.two_pass, m.overshoots), (0, 1, 1));
        // The rendered analyze output carries the would-have-chosen line.
        let mut stats = crate::stats::QueryStats::default();
        stats.plan.map = Some(m);
        let s = crate::explain::render(&stats, true);
        assert!(
            s.contains("would-have-chosen OnePass"),
            "missing line in:\n{s}"
        );
        // A result that does not fit the slots is no overshoot.
        let (_, frame) = point_map(&spade, 6, 100);
        assert_eq!(frame.map.overshoots, 0);
    }

    #[test]
    fn join_strategy_prefers_fewer_bytes() {
        assert_eq!(choose_join_strategy(100, 200), JoinStrategy::LayerIndex);
        assert_eq!(choose_join_strategy(300, 200), JoinStrategy::NaiveSelects);
        // Ties go to the layer index (fewer rendering passes).
        assert_eq!(choose_join_strategy(200, 200), JoinStrategy::LayerIndex);
    }

    #[test]
    fn cell_pair_ordering_shares_loads() {
        // A dense pair grid: the boustrophedon order shares a cell between
        // every consecutive pair.
        let mut pairs = vec![(1, 5), (0, 3), (1, 3), (0, 5), (2, 5), (2, 3)];
        order_cell_pairs(&mut pairs);
        for w in pairs.windows(2) {
            assert!(
                w[0].0 == w[1].0 || w[0].1 == w[1].1,
                "no shared cell between {:?} and {:?} in {pairs:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn cell_pair_ordering_reduces_transfer_estimate() {
        // Versus plain sorted order, the boustrophedon never transfers more.
        let pairs: Vec<(u32, u32)> = (0..4).flat_map(|l| (0..4).map(move |r| (l, r))).collect();
        let bytes = vec![10u64; 4];
        let mut ordered = pairs.clone();
        order_cell_pairs(&mut ordered);
        let shared = estimate_layer_bytes_ordered(&ordered, &bytes, &bytes);
        // Plain sorted order: left loads 4×10; right loads 4 per left group.
        let plain = 4 * 10 + 4 * 4 * 10;
        assert!(shared <= plain as u64);
    }

    #[test]
    fn layer_estimate_counts_residency() {
        let mut pairs = vec![(0, 0), (0, 1), (1, 1)];
        order_cell_pairs(&mut pairs);
        let left = vec![10, 20];
        let right = vec![100, 200];
        // Ordered: (0,0),(0,1),(1,1): loads 10+100, then 200, then 20.
        assert_eq!(estimate_layer_bytes_ordered(&pairs, &left, &right), 330);
    }

    #[test]
    fn ordered_estimate_matches_ordering_copy() {
        // The order is canonical: any permutation of the same pairs orders
        // to the same walk, so its estimate is the same.
        let mut pairs = vec![(3, 1), (0, 2), (3, 2), (0, 1), (1, 1)];
        let mut copy: Vec<(u32, u32)> = pairs.iter().rev().copied().collect();
        let left = vec![10u64, 20, 30, 40];
        let right = vec![100u64, 200, 300];
        order_cell_pairs(&mut pairs);
        order_cell_pairs(&mut copy);
        assert_eq!(pairs, copy);
        assert_eq!(
            estimate_layer_bytes_ordered(&pairs, &left, &right),
            estimate_layer_bytes_ordered(&copy, &left, &right)
        );
    }

    #[test]
    fn naive_estimate_sums_per_object() {
        let cells = vec![vec![0, 1], vec![1, 2], vec![2]];
        let bytes = vec![5, 7, 11];
        // 5+7 (obj0) + 7 is resident? resident=1 after obj0 → obj1 loads
        // nothing for 1, then 11; obj2: 2 already resident.
        assert_eq!(estimate_naive_bytes(&cells, &bytes), 5 + 7 + 11);
    }

    #[test]
    fn probe_bytes_count_only_matched_left_cells() {
        let pairs = vec![(0, 2), (1, 2), (1, 5), (2, 5)];
        let left_bytes = vec![25u64; 20]; // 20 left cells, only 3 matched
        assert_eq!(estimate_probe_bytes(&pairs, &left_bytes), 75);
        assert_eq!(estimate_probe_bytes(&[], &left_bytes), 0);
    }

    #[test]
    fn probe_bytes_fix_flips_join_decision() {
        // Regression for the naive_est overcharge: a selective join over a
        // mostly-unmatched left grid. The old formula charged the naive
        // strategy every left cell and picked LayerIndex; charging only
        // the matched probe cells flips the decision to NaiveSelects.
        let pairs = vec![(0, 2), (1, 2), (1, 5), (2, 5)];
        let left_bytes = vec![25u64; 20];
        let mut right_bytes = vec![0u64; 6];
        right_bytes[2] = 100;
        right_bytes[5] = 100;
        let mut ordered = pairs.clone();
        order_cell_pairs(&mut ordered);
        let layer = estimate_layer_bytes_ordered(&ordered, &left_bytes, &right_bytes);
        // The boustrophedon walk re-loads right cell 2: (0,2),(1,5),(1,2),(2,5).
        assert_eq!(layer, 25 + 100 + 25 + 100 + 100 + 25 + 100);
        let per_object = vec![vec![2], vec![2, 5], vec![5]];
        let scan = estimate_naive_bytes(&per_object, &right_bytes);
        let fixed = scan + estimate_probe_bytes(&pairs, &left_bytes);
        let buggy = scan + left_bytes.iter().sum::<u64>();
        assert_eq!(choose_join_strategy(layer, buggy), JoinStrategy::LayerIndex);
        assert_eq!(
            choose_join_strategy(layer, fixed),
            JoinStrategy::NaiveSelects
        );
    }
}
