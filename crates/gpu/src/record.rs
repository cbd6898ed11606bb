//! Per-query stats recording, isolated per thread.
//!
//! A query's rendering passes ([`crate::Pipeline`]) and host→device
//! transfers ([`crate::DeviceMemory`]) are counted in exactly one place:
//! a *frame* the query opens on its executing thread. Every pass and
//! transfer that thread performs while the frame is open is added to it,
//! so two queries overlapping on one engine never see each other's work.
//! Frames nest — sub-queries (e.g. the cell walk inside a join) open inner
//! frames, and an inner frame folds its totals into its parent when it
//! closes, so the outer query's frame is inclusive of all nested work, the
//! optimizer's [`MapDecisions`] included.
//!
//! [`begin`] returns the frame as a guard: [`Frame::finish`] closes it and
//! returns its totals, and a guard dropped on an error return or an unwind
//! closes it too, so a failed query never leaves its frame open under the
//! next one.
//!
//! Polygon preparation — triangulation and layer-index construction — is a
//! *phase*: [`preparing`] runs it in a nested frame whose wall time its
//! parent books as [`FrameTotals::prep_nanos`]. The passes it runs still
//! count, but their time is preparation, not GPU time, so a query's GPU,
//! preparation and remaining time never overlap.
//!
//! This is correct because every counter bump happens on the thread
//! driving the query: a pass is recorded by its calling thread after the
//! worker pool returns, and the prefetch producer thread performs disk I/O
//! only, never device or pipeline operations.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

/// The Map implementations (1-pass / 2-pass by estimate `n_max`) a frame ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapDecisions {
    pub one_pass: u64,
    pub two_pass: u64,
    /// 2-pass Maps whose result fit the 1-pass canvas after all.
    pub overshoots: u64,
    /// Largest result-size estimate (`n_max`) any Map saw.
    pub max_n_max: u64,
    /// The list-canvas slot budget the estimates were compared against.
    pub slots: u64,
}

impl MapDecisions {
    fn absorb(&mut self, other: &MapDecisions) {
        self.one_pass += other.one_pass;
        self.two_pass += other.two_pass;
        self.overshoots += other.overshoots;
        self.max_n_max = self.max_n_max.max(other.max_n_max);
        self.slots = self.slots.max(other.slots);
    }
}

/// Totals accumulated by one frame: rendering passes and their time,
/// preparation time, host→device transfer accounting and the Map choices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameTotals {
    pub passes: u64,
    /// Nanoseconds spent inside passes outside any preparation phase
    /// ("GPU time").
    pub gpu_nanos: u64,
    /// Wall nanoseconds of the [`preparing`] phases, passes included.
    pub prep_nanos: u64,
    pub transfer_bytes: u64,
    pub transfer_nanos: u64,
    pub map: MapDecisions,
}

impl FrameTotals {
    fn absorb(&mut self, other: &FrameTotals) {
        self.passes += other.passes;
        self.gpu_nanos += other.gpu_nanos;
        self.prep_nanos += other.prep_nanos;
        self.transfer_bytes += other.transfer_bytes;
        self.transfer_nanos += other.transfer_nanos;
        self.map.absorb(&other.map);
    }

    /// Modeled host→device bus time for this frame.
    pub fn transfer_time(&self) -> Duration {
        Duration::from_nanos(self.transfer_nanos)
    }
}

thread_local! {
    /// The open frames, innermost last; a phase carries its start.
    static FRAMES: RefCell<Vec<(FrameTotals, Option<Instant>)>> = const { RefCell::new(Vec::new()) };
}

/// An open recording frame. Closes when finished or dropped; frames are
/// per thread, so the guard is not `Send`.
#[must_use = "dropping a frame closes it"]
pub struct Frame {
    /// Frames open on this thread, this one included, when it opened.
    depth: usize,
    _thread: PhantomData<*const ()>,
}

/// Open a recording frame on the current thread: every pass and transfer
/// on this thread until the frame closes is credited to it.
pub fn begin() -> Frame {
    open(None)
}

fn open(phase: Option<Instant>) -> Frame {
    let depth = FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        frames.push((FrameTotals::default(), phase));
        frames.len()
    });
    Frame {
        depth,
        _thread: PhantomData,
    }
}

/// Run `prepare` as a polygon-preparation phase of the open frame: its
/// wall time is added to the frame's `prep_nanos` once, however phases
/// nest, and the passes it runs count in `passes` but not in `gpu_nanos`.
/// Transfers and Map choices fold as in any frame. The phase closes on
/// return or unwind; with no frame open it records nothing.
pub fn preparing<R>(prepare: impl FnOnce() -> R) -> R {
    let _phase = open(Some(Instant::now()));
    prepare()
}

impl Frame {
    /// Close the frame and return its totals, inclusive of nested frames;
    /// they also fold into the parent frame, if any.
    pub fn finish(self) -> FrameTotals {
        close(self.depth)
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        close(self.depth);
    }
}

/// Close the innermost open frame on this thread and return its totals —
/// zeros when none is open. Queries close their frames through their
/// [`Frame`]; this is how a caller checks that none was left open.
pub fn finish() -> FrameTotals {
    close(FRAMES.with(|f| f.borrow().len()))
}

/// Close the frame opened at `depth`, and any still open above it, each
/// folding into the one below; a phase's time becomes its wall time.
/// Zeros when it is already closed.
fn close(depth: usize) -> FrameTotals {
    FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let mut totals = FrameTotals::default();
        while depth > 0 && frames.len() >= depth {
            let (mut t, phase) = frames.pop().expect("open frame");
            t.absorb(&totals);
            if let Some(start) = phase {
                (t.gpu_nanos, t.prep_nanos) = (0, start.elapsed().as_nanos() as u64);
            }
            totals = t;
        }
        if let Some((parent, _)) = frames.last_mut() {
            parent.absorb(&totals);
        }
        totals
    })
}

fn with_top(apply: impl FnOnce(&mut FrameTotals)) {
    FRAMES.with(|f| {
        if let Some((top, _)) = f.borrow_mut().last_mut() {
            apply(top);
        }
    });
}

/// Record one rendering pass that took `elapsed`.
pub(crate) fn add_pass(elapsed: Duration) {
    with_top(|t| {
        t.passes += 1;
        t.gpu_nanos += elapsed.as_nanos() as u64;
    });
}

pub(crate) fn add_transfer(bytes: u64, nanos: u64) {
    with_top(|t| {
        t.transfer_bytes += bytes;
        t.transfer_nanos += nanos;
    });
}

/// Record the optimizer's Map choices into the open frame.
pub fn add_map(decisions: MapDecisions) {
    with_top(|t| t.map.absorb(&decisions));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceMemory;
    use crate::{BlendMode, DrawCall, Pipeline, Primitive, Texture, Viewport};
    use spade_geometry::{BBox, Point};

    /// One real rendering pass: a point drawn into a 4×4 canvas.
    fn draw(pipe: &Pipeline) {
        let vp = Viewport::new(BBox::new(Point::ZERO, Point::new(4.0, 4.0)), 4, 4);
        let prims = [Primitive::point(Point::new(1.5, 1.5), [1, 0, 0, 0])];
        let mut tex = Texture::new(4, 4);
        pipe.draw(
            &mut tex,
            &prims,
            &DrawCall::simple(vp, BlendMode::Replace, false),
        );
    }

    #[test]
    fn frame_captures_only_enclosed_work() {
        let pipe = Pipeline::with_workers(2);
        draw(&pipe); // before the frame: not recorded
        let frame = begin();
        draw(&pipe);
        let totals = frame.finish();
        draw(&pipe); // after the frame: not recorded
        assert_eq!(totals.passes, 1);
        assert!(totals.gpu_nanos > 0);
    }

    #[test]
    fn nested_frames_fold_into_parent() {
        let pipe = Pipeline::with_workers(2);
        let outer = begin();
        draw(&pipe);
        let inner = begin();
        draw(&pipe);
        let inner = inner.finish();
        let outer = outer.finish();
        assert_eq!(inner.passes, 1);
        // Outer is inclusive of inner.
        assert_eq!(outer.passes, 2);
        assert!(outer.gpu_nanos >= inner.gpu_nanos);
    }

    #[test]
    fn map_decisions_fold_through_nested_frames() {
        let map = |two_pass: bool, overshoot: bool, n_max: u64| MapDecisions {
            one_pass: !two_pass as u64,
            two_pass: two_pass as u64,
            overshoots: overshoot as u64,
            max_n_max: n_max,
            slots: 100,
        };
        let outer = begin();
        add_map(map(false, false, 10));
        add_map(map(true, false, 500));
        let inner = begin();
        add_map(map(false, false, 50));
        add_map(map(true, true, 20));
        let inner = inner.finish().map;
        let outer = outer.finish().map;
        assert_eq!(
            (inner.one_pass, inner.two_pass, inner.overshoots),
            (1, 1, 1)
        );
        assert_eq!((inner.max_n_max, inner.slots), (50, 100));
        // Outer is inclusive of inner: counts sum, estimates take the max.
        assert_eq!(
            (outer.one_pass, outer.two_pass, outer.overshoots),
            (2, 2, 1)
        );
        assert_eq!((outer.max_n_max, outer.slots), (500, 100));
    }

    #[test]
    fn transfers_are_recorded_per_frame() {
        let dev = DeviceMemory::with_bandwidth(u64::MAX, 1e9);
        let frame = begin();
        dev.upload(1_000).unwrap();
        let totals = frame.finish();
        assert_eq!(totals.transfer_bytes, 1_000);
        assert!(totals.transfer_nanos > 0);
    }

    #[test]
    fn frames_are_thread_isolated() {
        let pipe = Pipeline::with_workers(2);
        let frame = begin();
        draw(&pipe);
        // Another thread's work is not attributed to this thread's frame.
        std::thread::scope(|s| {
            s.spawn(|| {
                let other = begin();
                draw(&pipe);
                draw(&pipe);
                assert_eq!(other.finish().passes, 2);
            });
        });
        assert_eq!(frame.finish().passes, 1);
    }

    #[test]
    fn a_pass_in_a_phase_is_preparation_not_gpu_time() {
        let pipe = Pipeline::with_workers(2);
        let frame = begin();
        let start = Instant::now();
        preparing(|| draw(&pipe));
        let wall = start.elapsed().as_nanos() as u64;
        let totals = frame.finish();
        assert_eq!(totals.passes, 1);
        assert_eq!(totals.gpu_nanos, 0);
        assert!(totals.prep_nanos > 0 && totals.prep_nanos <= wall);
    }

    #[test]
    fn nested_phases_count_their_wall_once() {
        let pipe = Pipeline::with_workers(2);
        let frame = begin();
        let start = Instant::now();
        preparing(|| {
            draw(&pipe);
            preparing(|| {
                std::thread::sleep(Duration::from_millis(2));
                preparing(|| draw(&pipe));
            });
        });
        let wall = start.elapsed().as_nanos() as u64;
        draw(&pipe);
        let totals = frame.finish();
        assert_eq!(totals.passes, 3);
        // Counted once: the outer phase's wall, not its sum with the inner.
        assert!(totals.prep_nanos >= 2_000_000 && totals.prep_nanos <= wall);
        assert!(totals.gpu_nanos > 0, "the pass after the phase is GPU time");
    }

    #[test]
    fn an_unwound_phase_closes_its_frame() {
        let pipe = Pipeline::with_workers(2);
        let frame = begin();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            preparing(|| {
                draw(&pipe);
                panic!("preparation failed");
            })
        }));
        assert!(unwound.is_err());
        draw(&pipe);
        let totals = frame.finish();
        // The phase folded into its parent and closed: the later pass is
        // the parent's GPU time, and nothing is left open.
        assert_eq!(totals.passes, 2);
        assert!(totals.gpu_nanos > 0 && totals.prep_nanos > 0);
        assert_eq!(finish(), FrameTotals::default());
    }

    #[test]
    fn a_phase_without_a_frame_records_nothing() {
        let pipe = Pipeline::with_workers(2);
        preparing(|| draw(&pipe));
        assert_eq!(finish(), FrameTotals::default());
        let frame = begin();
        assert_eq!(frame.finish(), FrameTotals::default());
    }

    #[test]
    fn finish_without_begin_is_zero() {
        assert_eq!(finish(), FrameTotals::default());
        // A dropped frame is closed: nothing is left for the next finish.
        let pipe = Pipeline::with_workers(2);
        {
            let _frame = begin();
            draw(&pipe);
        }
        assert_eq!(finish(), FrameTotals::default());
    }
}
