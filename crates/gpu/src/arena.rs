//! The framebuffer arena: pooled transient render targets.
//!
//! Real drivers reuse framebuffer objects across passes instead of
//! allocating and zeroing fresh texture memory per draw; SPADE's operators
//! lean on that, issuing several small passes per out-of-core cell (§4.2,
//! §5.1). [`TexturePool`] provides the same amortization for the software
//! pipeline: transient targets (Map list canvases, layer-construction
//! scratch) are checked out of size-bucketed free lists and returned on
//! drop.
//!
//! Guarantees:
//!
//! * **Zero on checkout** — a checked-out texture is always all
//!   [`NULL_PIXEL`](crate::texture::NULL_PIXEL), whether it is fresh or
//!   reused, so a pass can never observe stale pixels from a prior pass.
//! * **Bounded retention** — released buffers are pooled only up to a byte
//!   cap (`set_retain_limit`); beyond it they are dropped, so the arena
//!   cannot grow without bound under mixed resolutions.
//! * **Ledger integration** — when bound to a [`DeviceMemory`], a checkout
//!   holds a [`Charge`] on the device ledger (a framebuffer occupies GPU
//!   memory on real hardware) that is released on return. Accounting is
//!   best-effort: if the ledger is exhausted the checkout still succeeds,
//!   unaccounted — a render pass must never fail on bookkeeping.

use crate::device::{Charge, DeviceMemory};
use crate::texture::Texture;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default cap on bytes retained in the free lists.
pub const DEFAULT_RETAIN_BYTES: u64 = 32 << 20;

/// A size-bucketed arena of reusable textures. Thread-safe; shared by
/// reference wherever the pipeline flows.
pub struct TexturePool {
    /// Free lists keyed by `(width, height)`.
    buckets: Mutex<HashMap<(u32, u32), Vec<Texture>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Bytes sitting in free lists.
    pooled_bytes: AtomicU64,
    /// Bytes currently checked out.
    live_bytes: AtomicU64,
    retain_limit: AtomicU64,
    /// Device ledger charged for checked-out framebuffers, once bound.
    ledger: OnceLock<Arc<DeviceMemory>>,
}

/// A point-in-time view of arena activity, for metrics exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Checkouts served from a free list.
    pub hits: u64,
    /// Checkouts that had to allocate.
    pub misses: u64,
    pub pooled_bytes: u64,
    pub live_bytes: u64,
}

impl Default for TexturePool {
    fn default() -> Self {
        Self::new()
    }
}

impl TexturePool {
    pub fn new() -> Self {
        TexturePool {
            buckets: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            pooled_bytes: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
            retain_limit: AtomicU64::new(DEFAULT_RETAIN_BYTES),
            ledger: OnceLock::new(),
        }
    }

    /// Cap the bytes kept in free lists; releases beyond the cap drop the
    /// buffer instead of pooling it.
    pub fn set_retain_limit(&self, bytes: u64) {
        self.retain_limit.store(bytes, Ordering::Relaxed);
    }

    /// Charge checkouts against a device-memory ledger. Only the first bind
    /// takes effect (the arena outlives any one query).
    pub fn bind_ledger(&self, ledger: Arc<DeviceMemory>) {
        let _ = self.ledger.set(ledger);
    }

    /// Check out a zeroed `width × height` texture, reusing a pooled buffer
    /// when one of the exact size is free. The texture returns to the arena
    /// when the guard drops.
    pub fn checkout(&self, width: u32, height: u32) -> PooledTexture<'_> {
        let mut span = crate::trace::span("gpu.arena.checkout");
        let bytes = (width as u64) * (height as u64) * 16;
        let reused = self
            .buckets
            .lock()
            .unwrap()
            .get_mut(&(width, height))
            .and_then(|list| list.pop());
        let tex = match reused {
            Some(mut t) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.pooled_bytes.fetch_sub(bytes, Ordering::Relaxed);
                span.attr("hit", 1);
                // Zero on checkout: no stale pixels from the prior pass.
                t.clear();
                t
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                span.attr("hit", 0);
                Texture::new(width, height)
            }
        };
        span.attr("bytes", bytes);
        self.live_bytes.fetch_add(bytes, Ordering::Relaxed);
        PooledTexture {
            tex: Some(tex),
            pool: self,
            _charge: self.ledger.get().map(|ledger| ledger.hold(bytes)),
        }
    }

    fn release(&self, tex: Texture) {
        let bytes = tex.byte_size() as u64;
        self.live_bytes.fetch_sub(bytes, Ordering::Relaxed);
        let limit = self.retain_limit.load(Ordering::Relaxed);
        let mut buckets = self.buckets.lock().unwrap();
        // Checked under the bucket lock so concurrent releases cannot
        // overshoot the cap together.
        if self.pooled_bytes.load(Ordering::Relaxed) + bytes <= limit {
            self.pooled_bytes.fetch_add(bytes, Ordering::Relaxed);
            buckets
                .entry((tex.width(), tex.height()))
                .or_default()
                .push(tex);
        }
    }

    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            pooled_bytes: self.pooled_bytes.load(Ordering::Relaxed),
            live_bytes: self.live_bytes.load(Ordering::Relaxed),
        }
    }
}

/// RAII guard over a checked-out texture; derefs to [`Texture`] and returns
/// the buffer to the arena, and its device bytes to the ledger, on drop.
pub struct PooledTexture<'a> {
    tex: Option<Texture>,
    pool: &'a TexturePool,
    _charge: Option<Charge>,
}

impl Deref for PooledTexture<'_> {
    type Target = Texture;

    fn deref(&self) -> &Texture {
        self.tex.as_ref().expect("pooled texture present")
    }
}

impl DerefMut for PooledTexture<'_> {
    fn deref_mut(&mut self) -> &mut Texture {
        self.tex.as_mut().expect("pooled texture present")
    }
}

impl Drop for PooledTexture<'_> {
    fn drop(&mut self) {
        if let Some(tex) = self.tex.take() {
            self.pool.release(tex);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::texture::NULL_PIXEL;

    #[test]
    fn checkout_reuses_same_size() {
        let pool = TexturePool::new();
        {
            let t = pool.checkout(8, 8);
            assert_eq!(t.width(), 8);
        }
        {
            let _t = pool.checkout(8, 8);
        }
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.pooled_bytes, 8 * 8 * 16);
    }

    #[test]
    fn different_sizes_use_different_buckets() {
        let pool = TexturePool::new();
        drop(pool.checkout(8, 8));
        drop(pool.checkout(4, 4));
        assert_eq!(pool.stats().misses, 2);
        drop(pool.checkout(4, 4));
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn reused_texture_never_contains_stale_pixels() {
        let pool = TexturePool::new();
        {
            let mut t = pool.checkout(16, 16);
            for y in 0..16 {
                for x in 0..16 {
                    t.put(x, y, [x + 1, y + 1, 7, 7]);
                }
            }
        }
        let t = pool.checkout(16, 16);
        assert_eq!(pool.stats().hits, 1, "buffer must come from the pool");
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(t.get(x, y), NULL_PIXEL, "stale pixel at ({x},{y})");
            }
        }
    }

    #[test]
    fn retain_limit_drops_excess_buffers() {
        let pool = TexturePool::new();
        pool.set_retain_limit(8 * 8 * 16);
        drop(pool.checkout(8, 8));
        assert_eq!(pool.stats().pooled_bytes, 8 * 8 * 16);
        // A second same-size release exceeds the cap and is dropped.
        let a = pool.checkout(8, 8);
        let b = pool.checkout(8, 8);
        drop(a);
        drop(b);
        assert_eq!(pool.stats().pooled_bytes, 8 * 8 * 16);
        // Zero cap pools nothing.
        pool.set_retain_limit(0);
        drop(pool.checkout(8, 8));
        let s = pool.stats();
        assert!(s.pooled_bytes <= 8 * 8 * 16);
    }

    #[test]
    fn ledger_charged_and_released() {
        let pool = TexturePool::new();
        let ledger = Arc::new(DeviceMemory::new(1 << 20));
        pool.bind_ledger(Arc::clone(&ledger));
        {
            let _t = pool.checkout(8, 8);
            assert_eq!(ledger.used(), 8 * 8 * 16);
        }
        assert_eq!(ledger.used(), 0);
    }

    #[test]
    fn exhausted_ledger_does_not_fail_checkout() {
        let pool = TexturePool::new();
        let ledger = Arc::new(DeviceMemory::new(16)); // far too small
        pool.bind_ledger(Arc::clone(&ledger));
        let t = pool.checkout(8, 8);
        assert_eq!(t.width(), 8);
        assert_eq!(ledger.used(), 0, "unaccounted checkout leaves ledger alone");
        drop(t);
        assert_eq!(ledger.used(), 0);
    }

    #[test]
    fn concurrent_checkouts_balance_counters() {
        let pool = Arc::new(TexturePool::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..100u32 {
                        let mut t = pool.checkout(8 + (i % 3), 8);
                        t.put(0, 0, [i + 1, 0, 0, 0]);
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.hits + s.misses, 400);
    }
}
