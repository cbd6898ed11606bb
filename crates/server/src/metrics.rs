//! Hand-rolled metrics: lock-free counters and log-scale duration
//! histograms with Prometheus text exposition.
//!
//! The service cannot pull in a metrics crate, so this module provides the
//! two primitives an operator actually scrapes: monotonic [`Counter`]s and
//! fixed-bucket [`Histogram`]s. Histogram buckets are log₂-spaced from
//! 1 µs (bucket *i* covers durations ≤ `1 µs × 2^i`), which spans
//! microsecond-scale in-memory selects to multi-second out-of-core joins
//! in [`BUCKETS`] buckets with no configuration. Exposition follows the
//! Prometheus text format (`# HELP` / `# TYPE`, cumulative `_bucket{le=}`
//! lines, `_sum` / `_count`), so the output of
//! [`crate::QueryService::metrics_text`] can be scraped as-is.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Log₂ histogram buckets: 1 µs × 2^i for i in 0..BUCKETS (≈ 1 µs … 33 s),
/// plus the implicit `+Inf` bucket.
pub const BUCKETS: usize = 26;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A duration histogram with fixed log₂-scale buckets.
#[derive(Debug)]
pub struct Histogram {
    /// Non-cumulative per-bucket counts; index [`BUCKETS`] is `+Inf`.
    buckets: [AtomicU64; BUCKETS + 1],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Upper bound of bucket `i`, in nanoseconds.
fn bound_nanos(i: usize) -> u64 {
    1_000u64 << i
}

impl Histogram {
    pub fn observe(&self, d: Duration) {
        let nanos = d.as_nanos() as u64;
        let idx = (0..BUCKETS)
            .find(|&i| nanos <= bound_nanos(i))
            .unwrap_or(BUCKETS);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The sum of every observed duration.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed))
    }

    /// Render in Prometheus text format with `le` bounds in seconds.
    pub fn render(&self, out: &mut String, name: &str, help: &str) {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            cum += self.buckets[i].load(Ordering::Relaxed);
            let le = bound_nanos(i) as f64 / 1e9;
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
        }
        cum += self.buckets[BUCKETS].load(Ordering::Relaxed);
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n"));
        out.push_str(&format!(
            "{name}_sum {}\n{name}_count {}\n",
            self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            self.count.load(Ordering::Relaxed),
        ));
    }
}

/// Render one counter (or gauge — the format line only differs in TYPE).
pub fn render_counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
    ));
}

pub fn render_gauge(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
    ));
}

/// [`render_counter`] or [`render_gauge`].
pub type RenderScalar = fn(&mut String, &str, &str, u64);

/// Render a table of unlabeled families, `(render fn, name, help, value)`
/// per row, in row order.
pub fn render_scalars(out: &mut String, rows: &[(RenderScalar, &str, &str, u64)]) {
    for &(render, name, help, value) in rows {
        render(out, name, help, value);
    }
}

/// Escape a value interpolated into a Prometheus label per the text
/// exposition format: backslash, double quote, and newline must be
/// escaped; everything else passes through. Names reaching here are
/// already length- and charset-validated at namespace/dataset creation,
/// but escaping is still applied so a label can never terminate the
/// quoted string early.
pub fn sanitize_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One labeled sample of a counter family. `# HELP`/`# TYPE` headers are
/// emitted once per family (pass `first = true` for the first sample).
pub fn render_labeled_counter(
    out: &mut String,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    value: u64,
    first: bool,
) {
    if first {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
    }
    render_sample(out, name, labels, value);
}

/// One labeled sample of a gauge family; see [`render_labeled_counter`].
pub fn render_labeled_gauge(
    out: &mut String,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    value: u64,
    first: bool,
) {
    if first {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
    }
    render_sample(out, name, labels, value);
}

fn render_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{k}=\"{}\"", sanitize_label(v)));
    }
    out.push_str(&format!("}} {value}\n"));
}

/// Engine-side totals the service aggregates across completed queries,
/// plus the service-side wall-split histograms.
#[derive(Debug, Default)]
pub(crate) struct MetricsRegistry {
    /// Time between submission and admission to a worker.
    pub queue_wait: Histogram,
    /// Time between admission and completion.
    pub exec: Histogram,
    pub bytes_from_disk: Counter,
    pub bytes_to_device: Counter,
    pub passes: Counter,
    pub cells_loaded: Counter,
    pub prefetch_hits: Counter,
    pub prefetch_misses: Counter,
    pub cache_hits: Counter,
    pub io_nanos: Counter,
    pub io_hidden_nanos: Counter,
    pub gpu_nanos: Counter,
    /// Compaction runs completed (foreground or background).
    pub compact_runs: Counter,
    /// Encoded cell bytes compaction read back to rewrite.
    pub compact_bytes_read: Counter,
    /// Encoded cell bytes compaction wrote for new generations.
    pub compact_bytes_written: Counter,
    /// Grid cells split because the merged cell exceeded the byte budget.
    pub compact_cells_split: Counter,
}

impl MetricsRegistry {
    /// Fold one completed query's engine stats into the totals.
    pub fn record_query(&self, stats: &spade_core::QueryStats) {
        self.bytes_from_disk.add(stats.bytes_from_disk);
        self.bytes_to_device.add(stats.bytes_to_device);
        self.passes.add(stats.passes);
        self.cells_loaded.add(stats.cells_loaded);
        self.prefetch_hits.add(stats.prefetch_hits);
        self.prefetch_misses.add(stats.prefetch_misses);
        self.cache_hits.add(stats.cache_hits);
        self.io_nanos.add(stats.io_time.as_nanos() as u64);
        self.io_hidden_nanos.add(stats.io_hidden.as_nanos() as u64);
        self.gpu_nanos.add(stats.gpu_time.as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(1)); // bucket 0 (≤ 1 µs)
        h.observe(Duration::from_micros(2)); // bucket 1 (≤ 2 µs)
        h.observe(Duration::from_micros(3)); // bucket 2 (≤ 4 µs)
        h.observe(Duration::from_secs(3600)); // beyond the last bound → +Inf
        assert_eq!(h.count(), 4);
        let mut out = String::new();
        h.render(&mut out, "t", "test");
        // Cumulative counts: 1 at 1 µs, 2 at 2 µs, 3 at 4 µs, 4 at +Inf.
        assert!(out.contains("t_bucket{le=\"0.000001\"} 1\n"));
        assert!(out.contains("t_bucket{le=\"0.000002\"} 2\n"));
        assert!(out.contains("t_bucket{le=\"0.000004\"} 3\n"));
        assert!(out.contains("t_bucket{le=\"+Inf\"} 4\n"));
        assert!(out.contains("t_count 4\n"));
    }

    #[test]
    fn histogram_render_is_cumulative_and_monotone() {
        let h = Histogram::default();
        for ms in [1u64, 5, 20, 80, 300] {
            h.observe(Duration::from_millis(ms));
        }
        let mut out = String::new();
        h.render(&mut out, "lat", "latency");
        let mut last = 0u64;
        for line in out.lines().filter(|l| l.starts_with("lat_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {out}");
            last = v;
        }
        assert_eq!(last, 5);
    }

    #[test]
    fn exposition_format() {
        let mut out = String::new();
        render_counter(&mut out, "spade_x_total", "Things.", 42);
        assert_eq!(
            out,
            "# HELP spade_x_total Things.\n# TYPE spade_x_total counter\nspade_x_total 42\n"
        );
    }

    #[test]
    fn registry_folds_query_stats() {
        let m = MetricsRegistry::default();
        let stats = spade_core::QueryStats {
            bytes_from_disk: 100,
            bytes_to_device: 200,
            passes: 3,
            cells_loaded: 4,
            prefetch_hits: 2,
            prefetch_misses: 1,
            cache_hits: 5,
            io_time: Duration::from_millis(10),
            io_hidden: Duration::from_millis(4),
            gpu_time: Duration::from_millis(6),
            ..Default::default()
        };
        m.record_query(&stats);
        m.record_query(&stats);
        assert_eq!(m.bytes_from_disk.get(), 200);
        assert_eq!(m.passes.get(), 6);
        assert_eq!(m.prefetch_hits.get(), 4);
        assert_eq!(m.io_hidden_nanos.get(), 8_000_000);
    }
}
