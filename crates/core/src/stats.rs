//! Query statistics: the time breakdown of §6.2.
//!
//! The paper profiles every query into four components (Fig. 5 bottom):
//! I/O time (disk→host and host→device combined), GPU time, polygon
//! processing time (triangulation + boundary-index creation), and CPU time
//! (everything else). [`QueryStats`] carries those components plus the
//! transfer/pass counters the optimizer and the analysis sections reason
//! about, and the plan the optimizer chose on the way.

use std::time::Duration;

/// How one query interacted with the engine's result cache
/// ([`crate::result_cache::ResultCache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheOutcome {
    /// The query did not consult the cache (cache disabled, or a path that
    /// does not go through the cached dispatchers).
    #[default]
    Bypass,
    /// The cache was probed, missed, and the query rendered cold (the
    /// result may have been admitted afterwards).
    Miss,
    /// The result was served from the cache: no cell I/O, no passes.
    Hit,
    /// A concurrent identical miss was in flight; this query waited for the
    /// leader's render instead of executing its own (singleflight).
    CoalescedHit,
}

impl CacheOutcome {
    /// Short uppercase label for plans and logs.
    pub fn label(&self) -> &'static str {
        match self {
            CacheOutcome::Bypass => "BYPASS",
            CacheOutcome::Miss => "MISS",
            CacheOutcome::Hit => "HIT",
            CacheOutcome::CoalescedHit => "COALESCED-HIT",
        }
    }

    /// Whether the query was served without executing (hit or coalesced).
    pub fn served_from_cache(&self) -> bool {
        matches!(self, CacheOutcome::Hit | CacheOutcome::CoalescedHit)
    }
}

/// Statistics for one query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Disk→host plus host→device time (the paper reports them combined).
    pub io_time: Duration,
    /// Time spent executing pipeline passes.
    pub gpu_time: Duration,
    /// Time triangulating constraint polygons and building boundary data.
    pub polygon_time: Duration,
    /// Remaining CPU time (total − io − gpu − polygon).
    pub cpu_time: Duration,
    /// Wall-clock total.
    pub total_time: Duration,
    /// Bytes read from disk blocks.
    pub bytes_from_disk: u64,
    /// Bytes shipped host→device.
    pub bytes_to_device: u64,
    /// Rendering passes executed.
    pub passes: u64,
    /// Grid cells loaded (out-of-core queries). Counts cells delivered to
    /// the refinement stage — whether the bytes came from disk or the cell
    /// cache — so the count is deterministic across prefetch depths,
    /// worker counts, and cache states.
    pub cells_loaded: u64,
    /// Result cardinality.
    pub result_count: u64,
    /// Out-of-core pipelining: cells whose data was already decoded and
    /// waiting in the prefetch channel when the refinement stage asked.
    pub prefetch_hits: u64,
    /// Out-of-core pipelining: cells the refinement stage had to wait for
    /// (or load synchronously with prefetching disabled).
    pub prefetch_misses: u64,
    /// Cells served from the host-side decoded-cell LRU cache instead of
    /// disk.
    pub cache_hits: u64,
    /// Disk/decode time that overlapped GPU refinement work — producer I/O
    /// time minus the time the consumer actually stalled waiting on it.
    pub io_hidden: Duration,
    /// Result-cache provenance of this execution.
    pub result_cache: CacheOutcome,
    /// The optimizer decisions this execution made (or, served from the
    /// result cache, the decisions of the render that produced it) — what
    /// `EXPLAIN` renders ([`crate::explain`]).
    pub plan: crate::explain::PlanReport,
}

impl QueryStats {
    /// Fill `cpu_time` as the residual of `total_time`.
    pub fn finish(&mut self, total: Duration) {
        self.total_time = total;
        self.recompute_cpu();
    }

    /// Recompute the residual `cpu_time` from the current components.
    ///
    /// With pipelined prefetch, `io_hidden` of the producer's I/O time
    /// overlapped GPU refinement — that share occupied no extra wall time,
    /// so only the *visible* I/O (`io_time − io_hidden`) is subtracted.
    /// Subtracting the full `io_time` would let components sum past the
    /// total and saturate `cpu_time` to zero misleadingly. Called again by
    /// [`crate::prefetch::StreamStats::charge`], which learns the overlap
    /// only after the query's wall clock has been closed.
    pub fn recompute_cpu(&mut self) {
        let visible_io = self.io_time.saturating_sub(self.io_hidden);
        self.cpu_time = self
            .total_time
            .saturating_sub(visible_io)
            .saturating_sub(self.gpu_time)
            .saturating_sub(self.polygon_time);
    }

    /// Fraction of the total attributed to I/O (the paper observes ≥95%
    /// for the Buildings workload, §6.2).
    pub fn io_fraction(&self) -> f64 {
        if self.total_time.is_zero() {
            0.0
        } else {
            self.io_time.as_secs_f64() / self.total_time.as_secs_f64()
        }
    }

    /// One-line breakdown for harness output. The I/O component shows the
    /// prefetch overlap explicitly: `io=` is the full producer-side I/O
    /// time, `hidden=` the share of it that overlapped GPU refinement and
    /// therefore occupied no wall time of its own.
    pub fn breakdown(&self) -> String {
        format!(
            "total={:.3}s io={:.3}s (hidden={:.3}s overlapped) gpu={:.3}s poly={:.3}s cpu={:.3}s passes={} cells={} disk={}B dev={}B prefetch={}h/{}m cache={}h",
            self.total_time.as_secs_f64(),
            self.io_time.as_secs_f64(),
            self.io_hidden.as_secs_f64(),
            self.gpu_time.as_secs_f64(),
            self.polygon_time.as_secs_f64(),
            self.cpu_time.as_secs_f64(),
            self.passes,
            self.cells_loaded,
            self.bytes_from_disk,
            self.bytes_to_device,
            self.prefetch_hits,
            self.prefetch_misses,
            self.cache_hits,
        ) + &match self.result_cache {
            CacheOutcome::Bypass => String::new(),
            outcome => format!(" result_cache={}", outcome.label()),
        }
    }
}

/// A query result: the payload plus its statistics.
#[derive(Debug, Clone)]
pub struct QueryOutput<T> {
    pub result: T,
    pub stats: QueryStats,
}

impl<T> QueryOutput<T> {
    /// Re-shape the payload, keeping the statistics.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> QueryOutput<U> {
        QueryOutput {
            result: f(self.result),
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_computes_residual_cpu() {
        let mut s = QueryStats {
            io_time: Duration::from_millis(50),
            gpu_time: Duration::from_millis(30),
            polygon_time: Duration::from_millis(10),
            ..Default::default()
        };
        s.finish(Duration::from_millis(100));
        assert_eq!(s.cpu_time, Duration::from_millis(10));
        assert_eq!(s.total_time, Duration::from_millis(100));
    }

    #[test]
    fn finish_saturates() {
        let mut s = QueryStats {
            io_time: Duration::from_millis(500),
            ..Default::default()
        };
        s.finish(Duration::from_millis(100));
        assert_eq!(s.cpu_time, Duration::ZERO);
    }

    #[test]
    fn io_fraction() {
        let mut s = QueryStats {
            io_time: Duration::from_millis(75),
            ..Default::default()
        };
        s.finish(Duration::from_millis(100));
        assert!((s.io_fraction() - 0.75).abs() < 1e-9);
        assert_eq!(QueryStats::default().io_fraction(), 0.0);
    }

    #[test]
    fn breakdown_prints_components() {
        let s = QueryStats::default();
        let line = s.breakdown();
        assert!(line.contains("io=") && line.contains("gpu=") && line.contains("poly="));
        assert!(line.contains("prefetch=") && line.contains("cache="));
        assert!(line.contains("hidden="), "overlap must print explicitly");
    }

    /// Regression: with pipelined prefetch, producer I/O overlaps GPU time.
    /// io(60) + gpu(50) + poly(10) = 120ms > total(100ms), but 40ms of the
    /// I/O was hidden behind the GPU — the residual must subtract only the
    /// visible 20ms, not saturate to zero.
    #[test]
    fn overlapped_io_does_not_zero_cpu_residual() {
        let mut s = QueryStats {
            io_time: Duration::from_millis(60),
            gpu_time: Duration::from_millis(50),
            polygon_time: Duration::from_millis(10),
            io_hidden: Duration::from_millis(40),
            ..Default::default()
        };
        s.finish(Duration::from_millis(100));
        assert_eq!(s.cpu_time, Duration::from_millis(20));
    }

    /// Regression for the call ordering in every indexed query path:
    /// `Measure::finish` closes the wall clock *before*
    /// `StreamStats::charge` delivers the overlap, so the residual must be
    /// recomputed when `io_hidden` arrives.
    #[test]
    fn charge_after_finish_recomputes_residual() {
        let mut s = QueryStats {
            io_time: Duration::from_millis(60),
            gpu_time: Duration::from_millis(50),
            polygon_time: Duration::from_millis(10),
            ..Default::default()
        };
        s.finish(Duration::from_millis(100));
        assert_eq!(
            s.cpu_time,
            Duration::ZERO,
            "without overlap info: saturated"
        );
        let stream = crate::prefetch::StreamStats {
            io_hidden: Duration::from_millis(40),
            ..Default::default()
        };
        stream.charge(&mut s);
        assert_eq!(s.io_hidden, Duration::from_millis(40));
        assert_eq!(s.cpu_time, Duration::from_millis(20));
    }
}
