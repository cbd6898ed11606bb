//! Engine configuration.

pub use spade_storage::wal::WalSync;

/// Tuning knobs of the engine, mirroring the paper's setup in §6.1.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Canvas resolution along the longer axis of a query viewport.
    pub resolution: u32,
    /// Simulated device (GPU) memory in bytes. The paper's laptop had 8 GB;
    /// benchmarks shrink this proportionally to the reduced data scale so
    /// the out-of-core machinery still engages.
    pub device_memory: u64,
    /// Modeled host→device bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Worker threads of the software pipeline (0 = all cores).
    pub workers: usize,
    /// Maximum slots of a single Map list canvas; result estimates above
    /// this force the 2-pass Map implementation (§5.4).
    pub max_map_slots: usize,
    /// Grid cells should serialize under this many bytes (the "≤ 2 GB per
    /// cell" rule of §6.1, scaled).
    pub max_cell_bytes: u64,
    /// Out-of-core pipelining: how many upcoming grid cells the background
    /// I/O thread may read and decode ahead of the refinement stage.
    /// `0` disables the prefetch thread (fully synchronous loads); results
    /// and load counts are identical at any depth — only overlap changes.
    pub prefetch_depth: usize,
    /// When enabled, every modeled host→device transfer occupies real wall
    /// time on the calling thread (a sleep of the modeled bus duration), so
    /// the transfer bottleneck of §5.4 is physically reproduced. Off by
    /// default — tests and single-query use want accounting, not latency;
    /// service benchmarks turn it on to study how concurrent sessions
    /// overlap bus stalls.
    pub pace_transfers: bool,
    /// WAL durability mode for live writes: fsync per record (`Always`),
    /// one fsync per batch window (`GroupCommit`, the default), or leave
    /// flushing to the OS (`Never`).
    pub wal_sync: WalSync,
    /// Hard ceiling on a dataset's staged delta bytes: a write that would
    /// exceed it compacts synchronously first (writer backpressure).
    pub delta_max_bytes: u64,
    /// Background compaction starts once a dataset's staged delta exceeds
    /// this many bytes (`0` compacts after every write batch).
    pub compact_trigger_bytes: u64,
    /// Master switch of the result cache. Off, every query renders cold
    /// (`EXPLAIN ANALYZE` reports `cache: BYPASS`).
    pub result_cache_enabled: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            resolution: 1024,
            device_memory: 64 << 20, // 64 MiB: a scaled-down 8 GB GPU
            bandwidth: 12.0e9,
            workers: 0,
            max_map_slots: 1 << 22,
            max_cell_bytes: 16 << 20,
            prefetch_depth: 2,
            pace_transfers: false,
            wal_sync: WalSync::GroupCommit,
            delta_max_bytes: 8 << 20,
            compact_trigger_bytes: 1 << 20,
            result_cache_enabled: true,
        }
    }
}

impl EngineConfig {
    /// A configuration sized for unit tests: small canvases, tiny device.
    pub fn test_small() -> Self {
        EngineConfig {
            resolution: 256,
            device_memory: 8 << 20,
            max_cell_bytes: 1 << 20,
            delta_max_bytes: 1 << 20,
            compact_trigger_bytes: 64 << 10,
            ..Default::default()
        }
    }

    /// Layer-index construction resolution. Like every sub-canvas size
    /// below it is a performance detail, not a knob: the boundary index
    /// keeps results exact at any resolution.
    pub fn layer_resolution(&self) -> u32 {
        self.resolution.min(512)
    }

    /// Resolution of the out-of-core index-filter stage (coarse: a false
    /// positive only costs an extra cell load).
    pub fn filter_resolution(&self) -> u32 {
        (self.resolution / 2).min(256)
    }

    /// Resolution of distance-constraint canvases (circles/capsules):
    /// lower than the query canvas trades boundary tests for rendering
    /// time, which pays off for the small circles kNN queries draw (§5.2).
    pub fn distance_resolution(&self) -> u32 {
        self.resolution.min(512)
    }

    /// kNN: number of log-spaced circles `c`.
    pub fn knn_circles(&self) -> usize {
        (self.resolution / 8).clamp(1, 64) as usize
    }

    /// Byte cap on the framebuffer arena's free lists: released transient
    /// render targets (Map list canvases, aggregation scratch, layer
    /// construction buffers) are pooled for reuse up to half the device
    /// and dropped beyond it.
    pub fn texture_pool_bytes(&self) -> u64 {
        self.device_memory / 2
    }

    /// Byte budget of the host-side prepared-cell LRU cache each
    /// [`crate::dataset::IndexedDataset`] keeps, so orderings and queries
    /// that revisit cells reuse loaded and prepared data instead of
    /// re-hitting disk and re-preparing: half the device. A cell is charged
    /// its block plus its prepared form, layer canvases included.
    pub fn cell_cache_bytes(&self) -> u64 {
        self.device_memory / 2
    }

    /// Byte budget of the result cache, an eighth of the device: each
    /// entry holds a charge of its bytes on the engine's device ledger.
    pub fn result_cache_bytes(&self) -> u64 {
        self.device_memory / 8
    }

    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            spade_gpu::pool::default_workers()
        } else {
            self.workers
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert!(c.resolution >= 256);
        assert!(c.device_memory > c.max_cell_bytes);
        assert!(c.effective_workers() >= 1);
    }

    #[test]
    fn ingest_knobs_default_sane() {
        let c = EngineConfig::default();
        assert_eq!(c.wal_sync, WalSync::GroupCommit);
        assert!(c.compact_trigger_bytes <= c.delta_max_bytes);
        let t = EngineConfig::test_small();
        assert!(t.compact_trigger_bytes <= t.delta_max_bytes);
    }

    /// The seven derived values against the literals they replaced: every
    /// configuration in the repository (`Default` at 1024 / 64 MiB,
    /// `test_small` at 256 / 8 MiB, the test suites' 128, the 64 KiB
    /// device of the eviction and rejection tests) resolves to exactly
    /// what it used to spell out.
    #[test]
    fn derived_knobs_match_the_literals_they_replaced() {
        let canvases = |c: &EngineConfig| {
            [
                c.layer_resolution(),
                c.filter_resolution(),
                c.distance_resolution(),
                c.knn_circles() as u32,
            ]
        };
        let at = |resolution| EngineConfig {
            resolution,
            ..Default::default()
        };
        assert_eq!(canvases(&EngineConfig::default()), [512, 256, 512, 64]);
        assert_eq!(canvases(&EngineConfig::test_small()), [256, 128, 256, 32]);
        assert_eq!(canvases(&at(128)), [128, 64, 128, 16]);
        // Monotone, never above the query canvas, and kNN always has a circle.
        for resolution in 1..=2048 {
            let (prev, cur) = (canvases(&at(resolution - 1)), canvases(&at(resolution)));
            assert!(cur.iter().zip(&prev).all(|(c, p)| c >= p), "{resolution}");
            assert!(cur.iter().all(|&c| c <= resolution) && cur[3] >= 1);
        }

        let budgets = |c: &EngineConfig| {
            (
                c.texture_pool_bytes(),
                c.result_cache_bytes(),
                c.cell_cache_bytes(),
            )
        };
        let on = |device_memory| EngineConfig {
            device_memory,
            ..Default::default()
        };
        assert_eq!(
            budgets(&EngineConfig::default()),
            (32 << 20, 8 << 20, 32 << 20)
        );
        assert_eq!(
            budgets(&EngineConfig::test_small()),
            (4 << 20, 1 << 20, 4 << 20)
        );
        assert_eq!(budgets(&on(64 << 10)), (32 << 10, 8 << 10, 32 << 10));
        // Whatever is charged to the device fits inside it.
        for device_memory in [0, 1, 7, 64 << 10, 8 << 20, 64 << 20, u64::MAX] {
            let (pool, cache, cells) = budgets(&on(device_memory));
            assert!(pool + cache <= device_memory && cache <= pool);
            assert!(cells <= device_memory);
        }
    }

    #[test]
    fn explicit_workers_respected() {
        let c = EngineConfig {
            workers: 3,
            ..Default::default()
        };
        assert_eq!(c.effective_workers(), 3);
    }
}
