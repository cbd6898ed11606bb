//! Observed join costs feeding the optimizer's join-strategy decision.
//!
//! The paper's optimizer (§5.4) picks the out-of-core join strategy from
//! *static* transfer estimates. Both strategies walk the same cells, so
//! their byte estimates rarely disagree — what differs is how much
//! rendering time a byte costs each of them. This module keeps, per
//! dataset pair ([`join_key`]), an EWMA of the measured execution cost per
//! estimated byte for each strategy; `join::join_indexed` consults it once
//! both strategies are *warm* (≥ [`MIN_SAMPLES`] executions each) and falls
//! back to the static estimates until then.
//!
//! Correctness never depends on the costs: the two join strategies produce
//! identical pair sets, so observed statistics change *how* a join runs,
//! never *what* it returns.

use crate::optimizer::JoinStrategy;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Observations before a statistic is trusted for decisions.
pub const MIN_SAMPLES: u64 = 3;

/// Exponentially weighted moving average with a sample count.
#[derive(Debug, Clone, Copy, Default)]
struct Ewma {
    value: f64,
    samples: u64,
}

impl Ewma {
    const ALPHA: f64 = 0.3;

    fn observe(&mut self, x: f64) {
        self.value = if self.samples == 0 {
            x
        } else {
            Self::ALPHA * x + (1.0 - Self::ALPHA) * self.value
        };
        self.samples += 1;
    }

    fn warm(&self) -> bool {
        self.samples >= MIN_SAMPLES
    }
}

/// Realized execution cost (GPU + modeled bus nanos) per *estimated* byte,
/// per strategy — how expensive a predicted byte turned out.
#[derive(Debug, Clone, Copy, Default)]
struct JoinCosts {
    layer: Ewma,
    naive: Ewma,
}

/// Per-pair join costs, plus the calibration override.
///
/// Lives on [`crate::engine::Spade`] next to the result cache; one short
/// mutex hold per out-of-core join keeps the store coherent under
/// concurrent queries.
#[derive(Debug, Default)]
pub struct ObservedStats {
    costs: Mutex<HashMap<u64, JoinCosts>>,
    /// Test/bench hook: pin the join strategy (0 = none, 1 = layer,
    /// 2 = naive). Costs are still recorded for the executed strategy,
    /// which is how the `optimizer_gate` bench calibrates both strategies
    /// before letting the adaptive decision run free.
    join_override: AtomicU8,
}

impl ObservedStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one out-of-core join execution under `key` (a [`join_key`]):
    /// the strategy that ran, the static estimate it was chosen with, and
    /// the walk's execution cost in nanos (GPU + modeled bus).
    pub fn observe_join(&self, key: u64, strategy: JoinStrategy, est_bytes: u64, cost_nanos: u64) {
        let cost_per_byte = cost_nanos as f64 / est_bytes.max(1) as f64;
        let mut costs = self.costs.lock().unwrap();
        let d = costs.entry(key).or_default();
        match strategy {
            JoinStrategy::LayerIndex => d.layer.observe(cost_per_byte),
            JoinStrategy::NaiveSelects => d.naive.observe(cost_per_byte),
        }
    }

    /// Observed cost per estimated byte for (layer, naive), available only
    /// once BOTH strategies are warm — a never-tried strategy has no
    /// measured cost, so the decision stays on the static estimates until
    /// something (a forced run, a tie-break) has exercised it.
    pub fn join_costs(&self, key: u64) -> Option<(f64, f64)> {
        let costs = self.costs.lock().unwrap();
        let d = costs.get(&key)?;
        (d.layer.warm() && d.naive.warm()).then_some((d.layer.value, d.naive.value))
    }

    /// Pin (or unpin) the join strategy. A test/bench hook: forced runs
    /// still record costs, so forcing each strategy a few times is how a
    /// benchmark calibrates the adaptive decision.
    pub fn set_join_override(&self, forced: Option<JoinStrategy>) {
        let v = match forced {
            None => 0,
            Some(JoinStrategy::LayerIndex) => 1,
            Some(JoinStrategy::NaiveSelects) => 2,
        };
        self.join_override.store(v, Ordering::Relaxed);
    }

    pub fn join_override(&self) -> Option<JoinStrategy> {
        match self.join_override.load(Ordering::Relaxed) {
            1 => Some(JoinStrategy::LayerIndex),
            2 => Some(JoinStrategy::NaiveSelects),
            _ => None,
        }
    }
}

/// Statistics key of a join between two datasets: order-sensitive (the
/// left/right roles are not symmetric) and collision-resistant enough for
/// a handful of registered datasets.
pub fn join_key(left_uid: u64, right_uid: u64) -> u64 {
    let mut h = left_uid.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bf0_3635;
    h ^= right_uid.wrapping_add(0x7f4a_7c15).rotate_left(29);
    h.wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_warms_after_min_samples() {
        let mut e = Ewma::default();
        assert!(!e.warm());
        e.observe(10.0);
        assert_eq!(e.value, 10.0);
        e.observe(20.0);
        e.observe(20.0);
        assert!(e.warm());
        assert!(e.value > 10.0 && e.value < 20.0);
    }

    #[test]
    fn join_costs_require_both_strategies_warm() {
        let s = ObservedStats::new();
        let k = join_key(7, 8);
        for _ in 0..MIN_SAMPLES {
            s.observe_join(k, JoinStrategy::LayerIndex, 1000, 5_000);
        }
        assert_eq!(s.join_costs(k), None, "naive side still cold");
        for _ in 0..MIN_SAMPLES {
            s.observe_join(k, JoinStrategy::NaiveSelects, 1000, 20_000);
        }
        let (lc, nc) = s.join_costs(k).unwrap();
        assert!(lc < nc, "layer measured cheaper per byte: {lc} vs {nc}");
        assert_eq!((lc, nc), (5.0, 20.0));
        // Costs are keyed by the dataset pair: the reversed pair is cold.
        assert_eq!(s.join_costs(join_key(8, 7)), None);
    }

    #[test]
    fn join_override_round_trips() {
        let s = ObservedStats::new();
        assert_eq!(s.join_override(), None);
        s.set_join_override(Some(JoinStrategy::NaiveSelects));
        assert_eq!(s.join_override(), Some(JoinStrategy::NaiveSelects));
        s.set_join_override(None);
        assert_eq!(s.join_override(), None);
    }
}
