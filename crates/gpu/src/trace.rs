//! Lightweight tracing spans, hand-rolled for the offline build.
//!
//! The `tracing` crate is unavailable (crates.io is unreachable), so this
//! module provides the minimal subsystem the engine needs: *spans* with a
//! static name, a start timestamp, a duration, and up to [`MAX_ATTRS`]
//! `u64` attributes, collected into a global ring buffer of fixed capacity
//! ([`CAPACITY`]) so a long-running service never grows without bound.
//!
//! Design rules, mirroring [`crate::record`]:
//!
//! * **Zero cost when disabled.** [`span`] checks one relaxed atomic and
//!   returns an inert guard — no clock read, no allocation, no lock.
//!   [`set_enabled`] arms it process-wide: every engine sharing the
//!   process is traced.
//! * **Thread-aware nesting.** Each thread keeps a depth counter, so a
//!   span opened inside another span records its nesting depth, and spans
//!   from different threads (e.g. the prefetch producer) are
//!   distinguishable by thread id.
//! * **Bounded memory.** The ring keeps the newest [`CAPACITY`] spans and
//!   counts what it had to drop ([`dropped`]).
//!
//! Timestamps are nanoseconds since the first use of the module (a
//! monotonic epoch), so spans from different threads order correctly.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum number of `u64` attributes a span carries.
pub const MAX_ATTRS: usize = 4;

/// Ring-buffer capacity: the newest spans kept for inspection.
pub const CAPACITY: usize = 4096;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Static span name, e.g. `"query.select"` or `"gpu.draw"`.
    pub name: &'static str,
    /// Start, in nanoseconds since the module's monotonic epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth on the recording thread (0 = outermost).
    pub depth: u32,
    /// Small per-process thread identifier of the recording thread.
    pub thread: u64,
    /// Attribute key/value pairs; only the first `n_attrs` are meaningful.
    pub attrs: [(&'static str, u64); MAX_ATTRS],
    /// Number of attributes set.
    pub n_attrs: u8,
}

impl Span {
    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs[..self.n_attrs as usize]
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ring() -> &'static Mutex<VecDeque<Span>> {
    static RING: OnceLock<Mutex<VecDeque<Span>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(CAPACITY)))
}

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Globally enable or disable span recording.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open a span. Records itself into the ring buffer when the guard drops;
/// inert (a single atomic load, no clock read) while tracing is disabled.
#[must_use = "a span measures until its guard is dropped"]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            start: None,
            attrs: [("", 0); MAX_ATTRS],
            n_attrs: 0,
        };
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    // Touch the epoch before taking the span's start so start_ns ≥ 0.
    epoch();
    SpanGuard {
        name,
        start: Some((Instant::now(), depth)),
        attrs: [("", 0); MAX_ATTRS],
        n_attrs: 0,
    }
}

/// Guard for an open span; records the span when dropped.
pub struct SpanGuard {
    name: &'static str,
    /// `None` when tracing was disabled at open time (inert guard).
    start: Option<(Instant, u32)>,
    attrs: [(&'static str, u64); MAX_ATTRS],
    n_attrs: u8,
}

impl SpanGuard {
    /// Attach a `u64` attribute (no-op on an inert guard or past
    /// [`MAX_ATTRS`] attributes).
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if self.start.is_none() {
            return;
        }
        if (self.n_attrs as usize) < MAX_ATTRS {
            self.attrs[self.n_attrs as usize] = (key, value);
            self.n_attrs += 1;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((start, depth)) = self.start else {
            return;
        };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let span = Span {
            name: self.name,
            start_ns: start.duration_since(epoch()).as_nanos() as u64,
            dur_ns: start.elapsed().as_nanos() as u64,
            depth,
            thread: THREAD_ID.with(|t| *t),
            attrs: self.attrs,
            n_attrs: self.n_attrs,
        };
        let mut ring = ring().lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() == CAPACITY {
            ring.pop_front();
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(span);
    }
}

/// Take every recorded span out of the ring buffer (oldest first).
pub fn drain() -> Vec<Span> {
    let mut ring = ring().lock().unwrap_or_else(|p| p.into_inner());
    ring.drain(..).collect()
}

/// Copy the recorded spans without draining (oldest first).
pub fn snapshot() -> Vec<Span> {
    let ring = ring().lock().unwrap_or_else(|p| p.into_inner());
    ring.iter().copied().collect()
}

/// Spans evicted from the ring since process start.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the global flag (the ring and flag are
    /// process-global; parallel test threads would interleave).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = lock();
        set_enabled(false);
        drain();
        {
            let mut s = span("should.not.appear");
            s.attr("k", 1);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn enabled_spans_record_name_attrs_and_duration() {
        let _g = lock();
        set_enabled(true);
        drain();
        {
            let mut s = span("unit.test");
            s.attr("cells", 7);
            s.attr("bytes", 1024);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_enabled(false);
        let spans = drain();
        let s = spans
            .iter()
            .find(|s| s.name == "unit.test")
            .expect("span recorded");
        assert_eq!(s.attr("cells"), Some(7));
        assert_eq!(s.attr("bytes"), Some(1024));
        assert_eq!(s.attr("missing"), None);
        assert!(s.dur_ns >= 1_000_000, "slept ≥1ms, got {}ns", s.dur_ns);
    }

    #[test]
    fn nesting_depth_is_recorded() {
        let _g = lock();
        set_enabled(true);
        drain();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        set_enabled(false);
        let spans = drain();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.thread, inner.thread);
    }

    #[test]
    fn ring_is_bounded() {
        let _g = lock();
        set_enabled(true);
        drain();
        let before = dropped();
        for _ in 0..(CAPACITY + 10) {
            let _s = span("flood");
        }
        set_enabled(false);
        let spans = drain();
        assert_eq!(spans.len(), CAPACITY);
        assert!(dropped() >= before + 10);
    }

    #[test]
    fn attrs_beyond_capacity_are_ignored() {
        let _g = lock();
        set_enabled(true);
        drain();
        {
            let mut s = span("many.attrs");
            for i in 0..10u64 {
                s.attr("k", i);
            }
        }
        set_enabled(false);
        let spans = drain();
        let s = spans.iter().find(|s| s.name == "many.attrs").unwrap();
        assert_eq!(s.n_attrs as usize, MAX_ATTRS);
    }
}
