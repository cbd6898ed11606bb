//! Service-level statistics.
//!
//! The engine's [`spade_core::QueryStats`] describes one query; the service
//! aggregates across queries and sessions: queue depth, admission counters,
//! the queue-vs-execution wall split, and latency quantiles over a sliding
//! window of recent completions. Only the window lives here: the counters
//! are the tenants' ([`crate::namespace::TenantStats`]) summed, and the
//! wall split is the sums of the service's queue-wait and exec histograms.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// How many recent query latencies the p50/p95 window keeps.
const WINDOW: usize = 256;

/// The latency window of recent completions.
#[derive(Debug, Default)]
pub(crate) struct ServiceStats {
    latencies: Mutex<VecDeque<u64>>,
}

impl ServiceStats {
    pub fn record_latency(&self, total: Duration) {
        let mut w = self.latencies.lock().unwrap();
        if w.len() == WINDOW {
            w.pop_front();
        }
        w.push_back(total.as_nanos() as u64);
    }

    /// The window's quantiles next to the given queue gauges; counters
    /// and wall-split totals are left zero for the caller to fill.
    pub fn snapshot(&self, queue_depth: usize, running: usize) -> ServiceSnapshot {
        let (p50, p95) = {
            let w = self.latencies.lock().unwrap();
            let mut sorted: Vec<u64> = w.iter().copied().collect();
            sorted.sort_unstable();
            let q = |p: f64| -> Duration {
                if sorted.is_empty() {
                    return Duration::ZERO;
                }
                // Nearest-rank: the smallest sample whose cumulative
                // frequency is ≥ p — 1-indexed rank ⌈p·n⌉. The previous
                // rounded-linear index overshot by one on even windows
                // (p50 of 1..=100 gave the 51st sample, not the 50th).
                let rank = (p * sorted.len() as f64).ceil() as usize;
                Duration::from_nanos(sorted[rank.clamp(1, sorted.len()) - 1])
            };
            (q(0.50), q(0.95))
        };
        ServiceSnapshot {
            queue_depth,
            running,
            p50_latency: p50,
            p95_latency: p95,
            ..Default::default()
        }
    }
}

/// A point-in-time view of the service counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceSnapshot {
    /// Queries waiting for admission right now.
    pub queue_depth: usize,
    /// Queries executing right now.
    pub running: usize,
    /// Queries ever submitted (including rejected ones).
    pub submitted: u64,
    /// Queries admitted to a worker.
    pub admitted: u64,
    /// Queries rejected outright (footprint beyond device capacity).
    pub rejected: u64,
    /// Queries cancelled or expired, queued or mid-flight.
    pub cancelled: u64,
    /// Queries that completed with a result.
    pub completed: u64,
    /// Queries that failed with a storage/engine error.
    pub failed: u64,
    /// Sum of all time queries spent waiting in the admission queue.
    pub total_queue_wait: Duration,
    /// Sum of all time queries spent executing.
    pub total_exec: Duration,
    /// Median end-to-end latency over the recent-completion window.
    pub p50_latency: Duration,
    /// 95th-percentile end-to-end latency over the window.
    pub p95_latency: Duration,
}

impl ServiceSnapshot {
    /// Every submitted query is accounted exactly once when idle:
    /// completed + failed + cancelled + rejected + queued + running.
    pub fn accounted(&self) -> u64 {
        self.completed
            + self.failed
            + self.cancelled
            + self.rejected
            + self.queue_depth as u64
            + self.running as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_over_window() {
        let s = ServiceStats::default();
        for ms in 1..=100u64 {
            s.record_latency(Duration::from_millis(ms));
        }
        let snap = s.snapshot(0, 0);
        // Nearest-rank over 1..=100 ms: p50 is the 50th sample, p95 the
        // 95th (the old rounded-linear index off-by-one gave 51 ms).
        assert_eq!(snap.p50_latency, Duration::from_millis(50));
        assert_eq!(snap.p95_latency, Duration::from_millis(95));
    }

    /// Warm-up: with one sample both percentiles are that sample; with two,
    /// p50 is the smaller and p95 the larger.
    #[test]
    fn warmup_windows() {
        let s = ServiceStats::default();
        s.record_latency(Duration::from_millis(7));
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.p50_latency, Duration::from_millis(7));
        assert_eq!(snap.p95_latency, Duration::from_millis(7));

        s.record_latency(Duration::from_millis(3));
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.p50_latency, Duration::from_millis(3));
        assert_eq!(snap.p95_latency, Duration::from_millis(7));
    }

    /// Property test against the exact oracle: for every window size the
    /// reported percentile must be the smallest sample whose cumulative
    /// frequency reaches p·n.
    #[test]
    fn percentiles_match_nearest_rank_oracle() {
        fn oracle(samples: &[u64], p: f64) -> u64 {
            let mut sorted = samples.to_vec();
            sorted.sort_unstable();
            let need = ((p * sorted.len() as f64).ceil() as usize).max(1);
            *sorted
                .iter()
                .find(|&&v| sorted.iter().filter(|&&x| x <= v).count() >= need)
                .expect("some sample reaches the rank")
        }
        let mut seed = 0x9e3779b97f4a7c15u64;
        for n in 1..=80usize {
            let s = ServiceStats::default();
            let mut samples = Vec::new();
            for _ in 0..n {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let ms = (seed >> 33) % 40 + 1; // duplicates are likely
                samples.push(Duration::from_millis(ms).as_nanos() as u64);
                s.record_latency(Duration::from_millis(ms));
            }
            let snap = s.snapshot(0, 0);
            for (p, got) in [(0.50, snap.p50_latency), (0.95, snap.p95_latency)] {
                assert_eq!(
                    got.as_nanos() as u64,
                    oracle(&samples, p),
                    "p{} over window of {n}",
                    (p * 100.0) as u32
                );
            }
        }
    }

    #[test]
    fn window_slides() {
        let s = ServiceStats::default();
        for _ in 0..WINDOW {
            s.record_latency(Duration::from_millis(1));
        }
        for _ in 0..WINDOW {
            s.record_latency(Duration::from_millis(9));
        }
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.p50_latency, Duration::from_millis(9));
    }

    #[test]
    fn empty_window_is_zero() {
        let s = ServiceStats::default();
        let snap = s.snapshot(3, 1);
        assert_eq!(snap.p50_latency, Duration::ZERO);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.running, 1);
    }
}
