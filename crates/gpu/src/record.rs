//! Per-query stats recording, isolated per thread.
//!
//! The pipeline and transfer counters ([`crate::stats::PipelineStats`],
//! [`crate::device::TransferStats`]) are global accumulators shared by every
//! query running against an engine. Diffing global snapshots to attribute
//! work to one query is wrong as soon as two queries overlap: each would
//! also observe the other's draw calls and transfers.
//!
//! This module gives every query its own ledger. A query opens a *frame* on
//! its executing thread; every counter bump performed by that thread while
//! the frame is open is added to the frame (in addition to the global
//! accumulators). Frames nest — sub-queries (e.g. the per-cell selections
//! inside an indexed kNN) open inner frames, and on [`finish`] an inner
//! frame folds its totals into its parent, so the outer query's frame is
//! inclusive of all nested work.
//!
//! This is correct because every counter-bumping call happens on the thread
//! driving the query: the pipeline's worker pool aggregates per-worker
//! counts locally and commits them from the draw call's calling thread, and
//! the prefetch producer thread performs disk I/O only, never device or
//! pipeline operations.

use std::cell::RefCell;
use std::time::Duration;

use crate::stats::StatsSnapshot;

/// Totals accumulated by one frame: pipeline counters plus host→device
/// transfer accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameTotals {
    pub gpu: StatsSnapshot,
    pub transfers: u64,
    pub transfer_bytes: u64,
    pub transfer_nanos: u64,
}

impl FrameTotals {
    fn absorb(&mut self, other: &FrameTotals) {
        self.gpu.draw_calls += other.gpu.draw_calls;
        self.gpu.primitives += other.gpu.primitives;
        self.gpu.clipped += other.gpu.clipped;
        self.gpu.fragments += other.gpu.fragments;
        self.gpu.discarded += other.gpu.discarded;
        self.gpu.gpu_nanos += other.gpu.gpu_nanos;
        self.transfers += other.transfers;
        self.transfer_bytes += other.transfer_bytes;
        self.transfer_nanos += other.transfer_nanos;
    }

    /// Modeled host→device bus time for this frame.
    pub fn transfer_time(&self) -> Duration {
        Duration::from_nanos(self.transfer_nanos)
    }
}

thread_local! {
    static FRAMES: RefCell<Vec<FrameTotals>> = const { RefCell::new(Vec::new()) };
}

/// Open a recording frame on the current thread. Every pipeline/transfer
/// counter bump on this thread until the matching [`finish`] is credited to
/// it. Frames nest LIFO.
pub fn begin() {
    FRAMES.with(|f| f.borrow_mut().push(FrameTotals::default()));
}

/// Close the innermost frame and return its totals (inclusive of nested
/// frames). The totals are also folded into the parent frame, if any.
/// Returns zeros if no frame is open.
pub fn finish() -> FrameTotals {
    FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let totals = frames.pop().unwrap_or_default();
        if let Some(parent) = frames.last_mut() {
            parent.absorb(&totals);
        }
        totals
    })
}

fn with_top(apply: impl FnOnce(&mut FrameTotals)) {
    FRAMES.with(|f| {
        if let Some(top) = f.borrow_mut().last_mut() {
            apply(top);
        }
    });
}

pub(crate) fn add_draw_call() {
    with_top(|t| t.gpu.draw_calls += 1);
}

pub(crate) fn add_primitives(n: u64) {
    with_top(|t| t.gpu.primitives += n);
}

pub(crate) fn add_clipped(n: u64) {
    with_top(|t| t.gpu.clipped += n);
}

pub(crate) fn add_fragments(n: u64) {
    with_top(|t| t.gpu.fragments += n);
}

pub(crate) fn add_discarded(n: u64) {
    with_top(|t| t.gpu.discarded += n);
}

pub(crate) fn add_gpu_nanos(n: u64) {
    with_top(|t| t.gpu.gpu_nanos += n);
}

pub(crate) fn add_transfer(bytes: u64, nanos: u64) {
    with_top(|t| {
        t.transfers += 1;
        t.transfer_bytes += bytes;
        t.transfer_nanos += nanos;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceMemory;
    use crate::stats::PipelineStats;

    #[test]
    fn frame_captures_only_enclosed_work() {
        let stats = PipelineStats::new();
        stats.add_fragments(100); // before the frame: not recorded
        begin();
        stats.add_fragments(7);
        stats.add_draw_call();
        let totals = finish();
        stats.add_fragments(100); // after the frame: not recorded
        assert_eq!(totals.gpu.fragments, 7);
        assert_eq!(totals.gpu.draw_calls, 1);
        // The global accumulator still saw everything.
        assert_eq!(stats.snapshot().fragments, 207);
    }

    #[test]
    fn nested_frames_fold_into_parent() {
        let stats = PipelineStats::new();
        begin();
        stats.add_draw_call();
        begin();
        stats.add_draw_call();
        stats.add_primitives(5);
        let inner = finish();
        let outer = finish();
        assert_eq!(inner.gpu.draw_calls, 1);
        assert_eq!(inner.gpu.primitives, 5);
        // Outer is inclusive of inner.
        assert_eq!(outer.gpu.draw_calls, 2);
        assert_eq!(outer.gpu.primitives, 5);
    }

    #[test]
    fn transfers_are_recorded_per_frame() {
        let dev = DeviceMemory::with_bandwidth(u64::MAX, 1e9);
        begin();
        dev.upload(1_000).unwrap();
        let totals = finish();
        assert_eq!(totals.transfers, 1);
        assert_eq!(totals.transfer_bytes, 1_000);
        assert!(totals.transfer_nanos > 0);
    }

    #[test]
    fn frames_are_thread_isolated() {
        let stats = PipelineStats::new();
        begin();
        stats.add_fragments(3);
        // Another thread's work is not attributed to this thread's frame.
        std::thread::scope(|s| {
            s.spawn(|| {
                begin();
                stats.add_fragments(1000);
                let other = finish();
                assert_eq!(other.gpu.fragments, 1000);
            });
        });
        let totals = finish();
        assert_eq!(totals.gpu.fragments, 3);
    }

    #[test]
    fn finish_without_begin_is_zero() {
        assert_eq!(finish(), FrameTotals::default());
    }
}
