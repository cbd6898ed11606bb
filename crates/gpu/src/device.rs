//! Device memory budget and host→device transfer accounting.
//!
//! On real hardware, GPU memory is limited (8 GB on the paper's laptop) and
//! the PCIe transfer of data from host to device dominates query time —
//! "the data transfer forms the primary bottleneck in query execution times"
//! (§5.4). This module models both: a byte budget that out-of-core index
//! construction tunes cell sizes against (§6.1), and a bus of configurable
//! modeled bandwidth whose transfers are recorded on the calling query's
//! frame ([`crate::record`]), which the time-breakdown reporting reads.
//!
//! The ledger is lock-free so many concurrent queries can allocate and free
//! against the same device: `alloc` is an atomic reserve-then-commit
//! (compare-and-swap on the `used` counter), and `peak` is maintained with a
//! `fetch_max` against the committed value, so it can never under-report the
//! true high-water mark even when allocations race.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::record;

/// Errors from device allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// Allocation exceeds the remaining device memory.
    OutOfMemory { requested: u64, available: u64 },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device out of memory: requested {requested} bytes, {available} available"
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

/// A simulated GPU memory arena with a fixed capacity plus a transfer bus.
#[derive(Debug)]
pub struct DeviceMemory {
    capacity: u64,
    used: AtomicU64,
    peak: AtomicU64,
    /// Modeled host→device bandwidth, bytes per second.
    bandwidth: f64,
    /// When set, `transfer_to_device` occupies real wall time equal to the
    /// modeled bus time, so the transfer bottleneck of §5.4 is physically
    /// reproduced and overlapping queries genuinely contend for the bus.
    paced: bool,
}

/// Default modeled PCIe 3.0 ×16 bandwidth (≈ 12 GB/s effective).
pub const DEFAULT_BANDWIDTH: f64 = 12.0e9;

impl DeviceMemory {
    /// A device with `capacity` bytes of memory and the default bandwidth.
    pub fn new(capacity: u64) -> Self {
        Self::with_bandwidth(capacity, DEFAULT_BANDWIDTH)
    }

    pub fn with_bandwidth(capacity: u64, bandwidth: f64) -> Self {
        DeviceMemory {
            capacity,
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            bandwidth: bandwidth.max(1.0),
            paced: false,
        }
    }

    /// Enable or disable paced transfers (builder-style).
    pub fn paced(mut self, paced: bool) -> Self {
        self.paced = paced;
        self
    }

    pub fn is_paced(&self) -> bool {
        self.paced
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Acquire)
    }

    pub fn available(&self) -> u64 {
        self.capacity.saturating_sub(self.used())
    }

    /// High-water mark of allocations.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Acquire)
    }

    /// Reserve `bytes` of device memory.
    ///
    /// Reserve-then-commit: a CAS loop moves `used` from `cur` to
    /// `cur + bytes` only if the sum stays within capacity, so two racing
    /// callers can never jointly overshoot the budget, and a failed
    /// allocation leaves the ledger untouched. After the commit the peak is
    /// raised to at least the committed value with `fetch_max`, which keeps
    /// `peak` monotone and never under-reported under contention.
    pub fn alloc(&self, bytes: u64) -> Result<(), DeviceError> {
        let mut cur = self.used.load(Ordering::Acquire);
        loop {
            let new = match cur.checked_add(bytes) {
                Some(n) if n <= self.capacity => n,
                _ => {
                    return Err(DeviceError::OutOfMemory {
                        requested: bytes,
                        available: self.capacity.saturating_sub(cur),
                    });
                }
            };
            match self
                .used
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.peak.fetch_max(new, Ordering::AcqRel);
                    return Ok(());
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Release `bytes` of device memory (saturating at zero).
    pub fn free(&self, bytes: u64) {
        let mut cur = self.used.load(Ordering::Acquire);
        loop {
            let new = cur.saturating_sub(bytes);
            match self
                .used
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Record a host→device transfer of `bytes` on the calling thread's
    /// frame; returns the modeled bus time for the cost model and the
    /// I/O-time breakdown. With pacing
    /// enabled the calling thread also sleeps for the modeled time.
    pub fn transfer_to_device(&self, bytes: u64) -> Duration {
        let nanos = (bytes as f64 / self.bandwidth * 1e9) as u64;
        record::add_transfer(bytes, nanos);
        let modeled = Duration::from_nanos(nanos);
        if self.paced && !modeled.is_zero() {
            std::thread::sleep(modeled);
        }
        modeled
    }

    /// Allocate and transfer in one step (loading a grid cell to the GPU).
    pub fn upload(&self, bytes: u64) -> Result<Duration, DeviceError> {
        self.alloc(bytes)?;
        Ok(self.transfer_to_device(bytes))
    }

    /// [`upload`](Self::upload) as a value: the data stays resident until
    /// the returned [`Charge`] drops. An upload that does not fit holds
    /// nothing — at cell scale the data streams without residing.
    pub fn charge(self: &Arc<Self>, bytes: u64) -> Charge {
        let held = if self.upload(bytes).is_ok() { bytes } else { 0 };
        Charge {
            device: Arc::clone(self),
            held,
        }
    }

    /// Reserve `bytes` until the returned [`Charge`] drops, without a
    /// transfer: a render target or a cached result resident on the
    /// device. Best effort like [`charge`](Self::charge): a reservation
    /// that does not fit holds nothing.
    pub fn hold(self: &Arc<Self>, bytes: u64) -> Charge {
        let held = if self.alloc(bytes).is_ok() { bytes } else { 0 };
        Charge {
            device: Arc::clone(self),
            held,
        }
    }
}

/// Device residency, freed on drop — on return, `?`, cancellation,
/// eviction or unwind alike — and never more than it allocated.
#[must_use = "dropping a charge ends the residency"]
#[derive(Debug)]
pub struct Charge {
    device: Arc<DeviceMemory>,
    held: u64,
}

impl Drop for Charge {
    fn drop(&mut self) {
        self.device.free(self.held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let dev = DeviceMemory::new(1000);
        assert_eq!(dev.available(), 1000);
        dev.alloc(400).unwrap();
        assert_eq!(dev.used(), 400);
        assert_eq!(dev.available(), 600);
        dev.free(150);
        assert_eq!(dev.used(), 250);
        dev.free(10_000); // over-free saturates at zero
        assert_eq!(dev.used(), 0);
    }

    #[test]
    fn oom_is_reported() {
        let dev = DeviceMemory::new(100);
        dev.alloc(80).unwrap();
        let err = dev.alloc(30).unwrap_err();
        assert_eq!(
            err,
            DeviceError::OutOfMemory {
                requested: 30,
                available: 20
            }
        );
        assert!(err.to_string().contains("out of memory"));
        // The failed allocation must not consume memory.
        assert_eq!(dev.used(), 80);
    }

    #[test]
    fn peak_tracks_high_water() {
        let dev = DeviceMemory::new(1000);
        dev.alloc(700).unwrap();
        dev.free(700);
        dev.alloc(100).unwrap();
        assert_eq!(dev.peak(), 700);
    }

    #[test]
    fn transfer_accounting_and_modeled_time() {
        let dev = DeviceMemory::with_bandwidth(u64::MAX, 1e9); // 1 GB/s
        let t = dev.transfer_to_device(500_000_000); // 0.5 GB
        assert_eq!(t, Duration::from_millis(500));
        let frame = record::begin();
        dev.transfer_to_device(500_000_000);
        dev.transfer_to_device(500_000_000);
        let totals = frame.finish();
        assert_eq!(totals.transfer_bytes, 1_000_000_000);
        assert_eq!(totals.transfer_time(), Duration::from_secs(1));
    }

    #[test]
    fn upload_allocates_and_transfers() {
        let dev = Arc::new(DeviceMemory::new(1024));
        let t = dev.upload(512).unwrap();
        assert!(t > Duration::ZERO);
        assert_eq!(dev.used(), 512);
        assert!(dev.upload(1024).is_err());
        // As guards: one that fits and one that does not, dropped together,
        // give back the bytes of the first only — and on unwind too. A
        // hold reserves without a transfer.
        let frame = record::begin();
        let unwound = std::panic::catch_unwind(|| {
            let _fits = dev.charge(256);
            let _oom = dev.charge(512);
            let _target = dev.hold(128);
            let _no_room = dev.hold(512);
            assert_eq!(dev.used(), 896);
            panic!("kernel");
        });
        assert!(unwound.is_err());
        assert_eq!(dev.used(), 512);
        assert_eq!(frame.finish().transfer_bytes, 256);
    }

    #[test]
    fn paced_transfer_occupies_wall_time() {
        let dev = DeviceMemory::with_bandwidth(u64::MAX, 1e9).paced(true);
        let start = std::time::Instant::now();
        dev.transfer_to_device(20_000_000); // 20 ms at 1 GB/s
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    /// Satellite: hammer the ledger from 8 threads. Invariants under
    /// concurrency: `used` never exceeds capacity, every successful alloc is
    /// matched by a free so the ledger drains to zero, and `peak` is at
    /// least the largest single committed allocation while never exceeding
    /// capacity.
    #[test]
    fn concurrent_alloc_free_hammer() {
        use std::sync::atomic::AtomicBool;

        let dev = DeviceMemory::new(8_000);
        let violated = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..8 {
                let dev = &dev;
                let violated = &violated;
                s.spawn(move || {
                    // Deterministic per-thread pseudo-random sizes.
                    let mut state = 0x9e37_79b9_u64.wrapping_mul(t as u64 + 1);
                    for _ in 0..2_000 {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let bytes = 1 + (state >> 33) % 1_500;
                        if dev.alloc(bytes).is_ok() {
                            if dev.used() > dev.capacity() {
                                violated.store(true, Ordering::Relaxed);
                            }
                            dev.free(bytes);
                        }
                    }
                });
            }
        });
        assert!(!violated.load(Ordering::Relaxed), "used exceeded capacity");
        assert_eq!(dev.used(), 0, "ledger must drain to zero");
        assert!(dev.peak() <= dev.capacity());
        assert!(dev.peak() > 0);
    }

    /// Satellite: `peak` must never under-report when two allocations race.
    /// Two threads repeatedly hold 400 bytes each; whenever both overlap the
    /// committed total is 800, and the CAS + fetch_max pair guarantees the
    /// recorded peak covers the joint maximum, not just each thread's own.
    #[test]
    fn concurrent_peak_never_under_reports() {
        use std::sync::Barrier;

        let dev = DeviceMemory::new(1_000);
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let dev = &dev;
                let barrier = &barrier;
                s.spawn(move || {
                    for _ in 0..500 {
                        barrier.wait();
                        dev.alloc(400).unwrap();
                        barrier.wait();
                        // Both threads hold 400 here: committed total is 800.
                        dev.free(400);
                    }
                });
            }
        });
        assert_eq!(dev.used(), 0);
        assert_eq!(dev.peak(), 800, "peak must cover racing allocations");
    }
}
