//! The worker pool: the stand-in for the GPU's parallel execution units.
//!
//! GPU drivers schedule shader invocations across thousands of lanes behind a
//! *persistent* command processor — launching a pass does not create
//! execution resources. [`WorkerPool`] mirrors that: a fixed set of OS
//! threads is spawned once, parked on a condvar, and dispatched jobs for the
//! lifetime of the pipeline. Submitting a job costs a queue push and a
//! wakeup, not `workers` thread spawns, which is what makes thousands of
//! small out-of-core passes affordable.
//!
//! Work is partitioned into contiguous chunks (or indexed tasks) so
//! downstream stages can merge results in a deterministic order regardless
//! of thread count: results land in pre-sized per-slot storage indexed by
//! chunk/task id — no locks, no sorting — so the output order never depends
//! on scheduling.
//!
//! Scheduling model: each submitted job carries an atomic task cursor.
//! Jobs stay in the queue while runnable; idle workers scan the queue for
//! the first job with unclaimed tasks and drain it cooperatively with the
//! submitting thread (which always participates, so progress never depends
//! on worker availability — nested or concurrent submissions cannot
//! deadlock). A generation counter (`jobs`) stamps each epoch for the
//! pool-utilization metrics.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Number of workers used by the pipeline (defaults to available
/// parallelism).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Split `len` items into at most `workers` contiguous ranges of
/// near-equal size.
pub fn chunk_ranges(len: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, len);
    let base = len / workers;
    let extra = len % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Type-erased pointer to a job's task closure. The pointee lives on the
/// submitting thread's stack; validity is guaranteed by the job protocol
/// (see [`Job`]): the pointer is only dereferenced for task indices claimed
/// from the cursor, and the submitter blocks until every claimed task has
/// completed.
struct RawFn(*const (dyn Fn(usize) + Sync));

// Safety: the pointee is `Sync`, and the protocol above keeps it alive for
// every dereference.
unsafe impl Send for RawFn {}
unsafe impl Sync for RawFn {}

/// One submitted job: `num_tasks` indexed tasks drained through an atomic
/// cursor by any number of threads (the submitter plus idle workers).
///
/// Lifecycle invariants that make the lifetime erasure in [`RawFn`] sound:
///
/// * a thread dereferences the closure only after claiming `i < num_tasks`
///   from `cursor` (exhausted jobs are only ever touched via atomics);
/// * every claimed task increments `completed` exactly once, even on panic;
/// * the submitter blocks until `completed == num_tasks`, so the closure
///   (and everything it borrows) outlives all dereferences.
struct Job {
    run: RawFn,
    num_tasks: usize,
    cursor: AtomicUsize,
    completed: AtomicUsize,
    panicked: AtomicBool,
    done: Mutex<()>,
    done_cv: Condvar,
}

impl Job {
    fn exec_one(&self, i: usize) {
        // Safety: `i < num_tasks` was claimed from the cursor, so the
        // submitter is still blocked in `run_tasks` and the closure is alive.
        let f = unsafe { &*self.run.0 };
        if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
            self.panicked.store(true, Ordering::Release);
        }
        // Count the task even on panic so the submitter never deadlocks.
        if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.num_tasks {
            // Take the lock before notifying so a submitter between its
            // `is_done` check and `wait` cannot miss the wakeup.
            let _guard = self.done.lock().unwrap();
            self.done_cv.notify_all();
        }
    }

    /// Claim and run tasks until the cursor is exhausted.
    fn drain(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.num_tasks {
                return;
            }
            self.exec_one(i);
        }
    }

    fn has_work(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.num_tasks
    }

    fn is_done(&self) -> bool {
        // Acquire pairs with the AcqRel increments: seeing the final count
        // makes every task's writes visible to the submitter.
        self.completed.load(Ordering::Acquire) >= self.num_tasks
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    busy: AtomicUsize,
    jobs: AtomicU64,
    tasks: AtomicU64,
}

fn worker_loop(shared: &PoolShared) {
    let mut queue = shared.queue.lock().unwrap();
    loop {
        // Scan (don't pop): several workers may service one job, and the
        // submitter removes its own job once complete.
        if let Some(job) = queue.iter().find(|j| j.has_work()).cloned() {
            drop(queue);
            shared.busy.fetch_add(1, Ordering::Relaxed);
            job.drain();
            shared.busy.fetch_sub(1, Ordering::Relaxed);
            queue = shared.queue.lock().unwrap();
        } else if shared.shutdown.load(Ordering::Relaxed) {
            return;
        } else {
            queue = shared.work_ready.wait(queue).unwrap();
        }
    }
}

/// A point-in-time view of pool activity, for metrics exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Total parallel lanes (helper threads + the submitting thread).
    pub workers: usize,
    /// Lanes currently executing job tasks.
    pub busy: usize,
    /// Jobs submitted over the pool's lifetime (the epoch/generation count).
    pub jobs: u64,
    /// Tasks executed over the pool's lifetime.
    pub tasks: u64,
}

/// A persistent pool of parked worker threads executing indexed jobs.
///
/// A pool with `workers` lanes spawns `workers - 1` OS threads; the
/// submitting thread is always the remaining lane, draining its own job
/// alongside the helpers. `workers == 1` therefore spawns no threads at all
/// and runs every job inline.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    lanes: usize,
}

impl WorkerPool {
    pub fn new(workers: usize) -> Self {
        let lanes = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            busy: AtomicUsize::new(0),
            jobs: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
        });
        let threads = (1..lanes)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            threads,
            lanes,
        }
    }

    /// Number of parallel lanes (including the submitting thread).
    pub fn workers(&self) -> usize {
        self.lanes
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.lanes,
            busy: self.shared.busy.load(Ordering::Relaxed),
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            tasks: self.shared.tasks.load(Ordering::Relaxed),
        }
    }

    /// Execute `f(0), f(1), …, f(num_tasks - 1)` across the pool's lanes.
    /// Each index runs exactly once; the call returns after every task has
    /// completed. Panics in tasks are re-raised here after the job drains.
    pub fn run_tasks(&self, num_tasks: usize, f: impl Fn(usize) + Sync) {
        if num_tasks == 0 {
            return;
        }
        self.shared.jobs.fetch_add(1, Ordering::Relaxed);
        self.shared
            .tasks
            .fetch_add(num_tasks as u64, Ordering::Relaxed);
        if self.threads.is_empty() || num_tasks == 1 {
            self.shared.busy.fetch_add(1, Ordering::Relaxed);
            let r = catch_unwind(AssertUnwindSafe(|| {
                for i in 0..num_tasks {
                    f(i);
                }
            }));
            self.shared.busy.fetch_sub(1, Ordering::Relaxed);
            if let Err(p) = r {
                std::panic::resume_unwind(p);
            }
            return;
        }

        // Erase the closure's lifetime; the job protocol (see `Job`) keeps
        // the pointee alive for every dereference.
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        let run = RawFn(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync + 'static)>(
                f_ref,
            )
        });
        let job = Arc::new(Job {
            run,
            num_tasks,
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        self.shared
            .queue
            .lock()
            .unwrap()
            .push_back(Arc::clone(&job));
        if num_tasks == 2 {
            self.shared.work_ready.notify_one();
        } else {
            self.shared.work_ready.notify_all();
        }

        // The submitter is a lane too: drain the job, then wait for helpers.
        self.shared.busy.fetch_add(1, Ordering::Relaxed);
        job.drain();
        self.shared.busy.fetch_sub(1, Ordering::Relaxed);
        if !job.is_done() {
            let mut guard = job.done.lock().unwrap();
            while !job.is_done() {
                guard = job.done_cv.wait(guard).unwrap();
            }
        }

        // Retire the epoch: only the submitter removes its job.
        let mut q = self.shared.queue.lock().unwrap();
        if let Some(pos) = q.iter().position(|j| Arc::ptr_eq(j, &job)) {
            q.remove(pos);
        }
        drop(q);

        if job.panicked.load(Ordering::Acquire) {
            panic!("worker pool task panicked");
        }
    }

    /// Run one closure per task index, collecting results **in task order**
    /// into pre-sized per-slot storage (no lock, no sort).
    pub fn parallel_tasks<R, F>(&self, num_tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(num_tasks, || None);
        let out = RawSlots(slots.as_mut_ptr());
        self.run_tasks(num_tasks, |i| {
            let r = f(i);
            // Safety: the cursor hands each index to exactly one task, so
            // writes hit disjoint slots that outlive the job.
            unsafe { *out.slot(i) = Some(r) };
        });
        slots.into_iter().map(|r| r.expect("task result")).collect()
    }

    /// Apply `f(start, chunk)` to each contiguous chunk of `items` (`start`
    /// its offset) in parallel, collecting the per-chunk outputs **in chunk
    /// order** (deterministic regardless of the scheduling order). Chunking
    /// matches [`chunk_ranges`] with this pool's lane count.
    pub fn parallel_map_chunks<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        let ranges = chunk_ranges(items.len(), self.lanes);
        self.parallel_tasks(ranges.len(), |i| {
            f(ranges[i].start, &items[ranges[i].clone()])
        })
    }

    /// Mutate each item of `items` in parallel (one task per item). Used for
    /// disjoint-slice stages: band blending, scan down-sweeps.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let base = RawSlots(items.as_mut_ptr());
        self.run_tasks(items.len(), |i| {
            // Safety: exactly-once index claiming makes the accesses disjoint.
            f(i, unsafe { &mut *base.slot(i) });
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            // Flag + notify under the queue lock so a worker between its
            // shutdown check and `wait` cannot sleep through it.
            let _guard = self.shared.queue.lock().unwrap();
            self.shared.shutdown.store(true, Ordering::Relaxed);
            self.shared.work_ready.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Raw base pointer for per-task slot writes; `Sync` because every task
/// writes a distinct index (enforced by the job cursor).
struct RawSlots<T>(*mut T);

impl<T> RawSlots<T> {
    /// Pointer to slot `i`. A method (rather than direct field access) so
    /// closures capture the whole wrapper — Rust 2021's precise capture
    /// would otherwise grab only the raw-pointer field and bypass the
    /// wrapper's Send/Sync impls.
    fn slot(&self, i: usize) -> *mut T {
        // Safety of the resulting pointer is the caller's: the pool's
        // exactly-once index claiming makes accesses disjoint.
        unsafe { self.0.add(i) }
    }
}

impl<T> Clone for RawSlots<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for RawSlots<T> {}

// Safety: tasks access disjoint indices, and `T: Send` allows moving values
// across the worker threads.
unsafe impl<T: Send> Send for RawSlots<T> {}
unsafe impl<T: Send> Sync for RawSlots<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_everything() {
        let r = chunk_ranges(10, 3);
        assert_eq!(r, vec![0..4, 4..7, 7..10]);
        assert_eq!(chunk_ranges(0, 3), vec![]);
        assert_eq!(chunk_ranges(2, 8), vec![0..1, 1..2]);
        assert_eq!(chunk_ranges(5, 1), vec![0..5]);
    }

    #[test]
    fn parallel_map_chunks_is_deterministic() {
        let items: Vec<u64> = (0..1000).collect();
        let p4 = WorkerPool::new(4);
        let p8 = WorkerPool::new(8);
        let sums4 = p4.parallel_map_chunks(&items, |_, c| c.iter().sum::<u64>());
        let sums8 = p8.parallel_map_chunks(&items, |_, c| c.iter().sum::<u64>());
        assert_eq!(sums4.iter().sum::<u64>(), 499_500);
        assert_eq!(sums8.iter().sum::<u64>(), 499_500);
        // Chunk order preserved: first chunk holds the smallest items.
        let firsts = p4.parallel_map_chunks(&items, |_, c| c[0]);
        assert!(firsts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn parallel_map_empty() {
        let items: Vec<u32> = vec![];
        let pool = WorkerPool::new(4);
        let out = pool.parallel_map_chunks(&items, |_, c| c.len());
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_tasks_results_in_order() {
        let pool = WorkerPool::new(8);
        let out = pool.parallel_tasks(100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn parallel_tasks_single_worker_and_empty() {
        let p1 = WorkerPool::new(1);
        assert!(p1.threads.is_empty());
        assert_eq!(p1.parallel_tasks(3, |i| i), vec![0, 1, 2]);
        let p4 = WorkerPool::new(4);
        assert!(p4.parallel_tasks(0, |i| i).is_empty());
    }

    #[test]
    fn default_workers_positive() {
        assert!(default_workers() >= 1);
    }

    /// `busy` once every lane has left its drain. A helper publishes its
    /// last task's completion — releasing the submitter — just before it
    /// leaves the drain, so a snapshot taken as a job returns may still
    /// count that helper for a moment.
    fn settled_busy(pool: &WorkerPool) -> usize {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while pool.stats().busy != 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        pool.stats().busy
    }

    #[test]
    fn pool_reuse_across_many_jobs() {
        // The same executor services many epochs without respawning.
        let pool = WorkerPool::new(4);
        for round in 0..200u64 {
            let out = pool.parallel_tasks(7, |i| round * 10 + i as u64);
            assert_eq!(out, (0..7).map(|i| round * 10 + i).collect::<Vec<_>>());
        }
        let stats = pool.stats();
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.jobs, 200);
        assert_eq!(stats.tasks, 1400);
        assert_eq!(settled_busy(&pool), 0);
    }

    #[test]
    fn for_each_mut_writes_disjoint_slots() {
        let pool = WorkerPool::new(4);
        let mut items = vec![0u64; 100];
        pool.for_each_mut(&mut items, |i, v| *v = (i * 3) as u64);
        for (i, v) in items.iter().enumerate() {
            assert_eq!(*v, (i * 3) as u64);
        }
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run_tasks(16, |i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // The pool keeps working after a panicked job.
        assert_eq!(pool.parallel_tasks(5, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_submission_does_not_deadlock() {
        let pool = WorkerPool::new(2);
        let total: u64 = pool
            .parallel_tasks(4, |i| {
                pool.parallel_tasks(3, |j| (i * 3 + j) as u64)
                    .into_iter()
                    .sum::<u64>()
            })
            .into_iter()
            .sum();
        assert_eq!(total, (0..12).sum::<u64>());
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        // Many OS threads (as in the query service) submit jobs to one
        // shared executor; every job's results stay correct and ordered.
        let pool = std::sync::Arc::new(WorkerPool::new(4));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for round in 0..50u64 {
                        let out = pool.parallel_tasks(11, |i| t * 1000 + round + i as u64);
                        for (i, v) in out.iter().enumerate() {
                            assert_eq!(*v, t * 1000 + round + i as u64);
                        }
                    }
                });
            }
        });
        assert_eq!(settled_busy(&pool), 0);
        assert_eq!(pool.stats().jobs, 8 * 50);
    }
}
