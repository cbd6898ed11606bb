//! Pipelined out-of-core cell streaming.
//!
//! The paper's out-of-core executor (§5.3) walks grid cells one at a time:
//! read + decode a block, ship it to the device, refine, repeat — so disk
//! I/O and GPU work never overlap. This module overlaps them: a bounded
//! background producer thread reads and decodes upcoming cells (through
//! the per-dataset LRU cell cache) while the caller refines the current
//! one. A cell the cache serves comes with the prepared form an earlier
//! walk left on it, so the caller skips its preparation too; preparing
//! stays on the caller's thread, inside the query's polygon time. The
//! channel depth is [`crate::config::EngineConfig::prefetch_depth`];
//! depth 0 degrades to the fully synchronous loop.
//!
//! Determinism: the caller supplies the complete load *sequence* up front
//! and cells are delivered strictly in that order, so query results and
//! `cells_loaded` counts are identical at every prefetch depth and worker
//! count — only the overlap accounting (`prefetch_hits`, `io_hidden`)
//! changes with timing.
//!
//! The bounded channel is `std::sync::mpsc::sync_channel` inside
//! `std::thread::scope` (the original crossbeam dependency is unavailable
//! offline; std scoped threads cover the same need).

use crate::cancel::CancelToken;
use crate::dataset::{Dataset, ReadView};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One slot delivered to the refinement stage.
pub struct FetchedCell {
    /// Index into the `sources` slice this cell belongs to.
    pub source: usize,
    /// Slot within the source's view: a grid cell or the memory slot.
    pub cell: usize,
    /// The decoded cell data: the cell cache's own `Arc`, prepared forms
    /// and all, unless the view's mask filtered it.
    pub data: Arc<Dataset>,
    /// The device-transfer charge for this slot.
    pub bytes: u64,
}

/// Accounting for one streamed sequence.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Producer-side load + decode time (full, including overlapped).
    pub io_time: Duration,
    /// Time the consumer actually stalled waiting for a cell.
    pub recv_wait: Duration,
    /// `io_time − recv_wait`: I/O hidden behind refinement work.
    pub io_hidden: Duration,
    /// Bytes actually read from disk (cache hits excluded).
    pub bytes_from_disk: u64,
    /// Grid cells delivered to the consumer (the memory slot is no cell).
    pub cells: u64,
    /// Grid cells already decoded and waiting when the consumer asked.
    pub prefetch_hits: u64,
    /// Grid cells the consumer had to wait for (always the full count
    /// when prefetching is disabled).
    pub prefetch_misses: u64,
    /// Cells served from the LRU cache instead of disk.
    pub cache_hits: u64,
}

/// Streams of one query add: a query that walks its cells twice reports
/// the sum.
impl std::ops::AddAssign for StreamStats {
    fn add_assign(&mut self, other: StreamStats) {
        self.io_time += other.io_time;
        self.recv_wait += other.recv_wait;
        self.io_hidden += other.io_hidden;
        self.bytes_from_disk += other.bytes_from_disk;
        self.cells += other.cells;
        self.prefetch_hits += other.prefetch_hits;
        self.prefetch_misses += other.prefetch_misses;
        self.cache_hits += other.cache_hits;
    }
}

impl StreamStats {
    /// Fold this stream's overlap accounting into a query's stats record,
    /// before its wall clock closes ([`crate::stats::QueryStats::finish`]).
    pub fn charge(&self, stats: &mut crate::stats::QueryStats) {
        stats.prefetch_hits += self.prefetch_hits;
        stats.prefetch_misses += self.prefetch_misses;
        stats.cache_hits += self.cache_hits;
        stats.io_hidden += self.io_hidden;
    }
}

/// Load one slot of the sequence, traced, adding its I/O to `tally`: a
/// cache hit is counted, a block read adds its bytes, and the memory
/// slot — no cell, already in memory — is neither.
fn load(
    sources: &[&ReadView<'_>],
    (src, cell): (usize, usize),
    cache_budget: u64,
    tally: &mut StreamStats,
) -> spade_storage::Result<FetchedCell> {
    let mut load_span = crate::trace::span("prefetch.load");
    let t = Instant::now();
    let loaded = sources[src].load_cell_cached(cell, cache_budget);
    tally.io_time += t.elapsed();
    load_span.attr("source", src as u64);
    load_span.attr("cell", cell as u64);
    let (data, cache_hit) = loaded?;
    let bytes = sources[src].cell_bytes(cell);
    load_span.attr("bytes", bytes);
    load_span.attr("cache_hit", cache_hit as u64);
    if cache_hit {
        tally.cache_hits += 1;
    } else if sources[src].cell_id(cell as u32).is_some() {
        tally.bytes_from_disk += bytes;
    }
    Ok(FetchedCell {
        source: src,
        cell,
        data,
        bytes,
    })
}

/// Stream `sequence` — `(source, slot)` pairs — to `consumer`, loading
/// through each source's cell cache, prefetching up to `depth` slots ahead
/// on a background I/O thread. Errors from the load path or the consumer
/// abort the stream and propagate. `cancel` is polled at every cell
/// boundary: the consumer side checks before refining each cell (and
/// propagates `Cancelled`), and the background producer checks before each
/// load so it stops reading ahead for a dead query.
pub fn stream_cells<F>(
    depth: usize,
    cache_budget: u64,
    sources: &[&ReadView<'_>],
    sequence: &[(usize, usize)],
    cancel: &CancelToken,
    mut consumer: F,
) -> spade_storage::Result<StreamStats>
where
    F: FnMut(FetchedCell) -> spade_storage::Result<()>,
{
    let mut stats = StreamStats::default();
    // A delivered grid cell counts once, as a prefetch hit when it was
    // `ready`; the memory slot counts neither.
    let deliver = |stats: &mut StreamStats, cell: &FetchedCell, ready: bool| {
        if sources[cell.source].cell_id(cell.cell as u32).is_some() {
            stats.cells += 1;
            stats.prefetch_hits += ready as u64;
            stats.prefetch_misses += !ready as u64;
        }
    };
    if depth == 0 || sequence.is_empty() {
        // Synchronous: every load is a consumer-side stall.
        for &step in sequence {
            cancel.check()?;
            let cell = load(sources, step, cache_budget, &mut stats)?;
            stats.recv_wait = stats.io_time;
            deliver(&mut stats, &cell, false);
            consumer(cell)?;
        }
        return Ok(stats);
    }

    let mut outcome: spade_storage::Result<()> = Ok(());
    let produced = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::sync_channel::<spade_storage::Result<FetchedCell>>(depth);
        let producer = scope.spawn(move || {
            let mut produced = StreamStats::default();
            for &step in sequence {
                if cancel.is_cancelled() {
                    break; // stop reading ahead for a dead query
                }
                let loaded = load(sources, step, cache_budget, &mut produced);
                let failed = loaded.is_err();
                if tx.send(loaded).is_err() || failed {
                    break; // consumer bailed out, or has the error
                }
            }
            produced
        });

        for _ in 0..sequence.len() {
            if let Err(e) = cancel.check() {
                outcome = Err(e);
                break;
            }
            // Non-blocking first: a ready cell is a prefetch hit (its I/O
            // was fully hidden behind the previous refinement).
            let received = match rx.try_recv() {
                Ok(m) => Some((m, true)),
                Err(mpsc::TryRecvError::Empty) => {
                    let _wait_span = crate::trace::span("prefetch.wait");
                    let t = Instant::now();
                    let m = rx.recv().ok();
                    stats.recv_wait += t.elapsed();
                    m.map(|m| (m, false))
                }
                Err(mpsc::TryRecvError::Disconnected) => None,
            };
            // The producer leaves without its next message only once the
            // query is cancelled: a cancel landing after the check above
            // must not end the stream as a success.
            let Some((msg, ready)) = received else {
                outcome = cancel.check();
                break;
            };
            match msg {
                Ok(cell) => {
                    deliver(&mut stats, &cell, ready);
                    if let Err(e) = consumer(cell) {
                        outcome = Err(e);
                        break;
                    }
                }
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        drop(rx); // unblocks a producer parked on a full channel
        match producer.join() {
            Ok(v) => v,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    });
    outcome?;
    stats += produced;
    stats.io_hidden = stats.io_time.saturating_sub(stats.recv_wait);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetKind, IndexedDataset};
    use spade_geometry::Point;

    fn indexed(n: usize, seed: u64) -> IndexedDataset {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let k = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed);
                Point::new((k % 100) as f64, ((k >> 8) % 100) as f64)
            })
            .collect();
        let data = crate::dataset::Dataset::from_points("p", pts);
        let grid = spade_index::GridIndex::build(None, &data.objects, 25.0).unwrap();
        IndexedDataset::new("p", DatasetKind::Points, grid)
    }

    #[test]
    fn stream_delivers_sequence_in_order_at_every_depth() {
        let d = indexed(400, 7);
        let view = d.read_view();
        let sources = [&view];
        let sequence: Vec<(usize, usize)> =
            (0..view.grid.num_cells()).map(|c| (0usize, c)).collect();
        let mut baseline: Option<Vec<(usize, usize, usize)>> = None;
        for depth in [0usize, 1, 4] {
            let mut seen = Vec::new();
            let stats = stream_cells(depth, 0, &sources, &sequence, &CancelToken::new(), |cell| {
                seen.push((cell.source, cell.cell, cell.data.len()));
                Ok(())
            })
            .unwrap();
            assert_eq!(stats.cells as usize, sequence.len(), "depth={depth}");
            assert_eq!(
                stats.prefetch_hits + stats.prefetch_misses,
                stats.cells,
                "depth={depth}"
            );
            match &baseline {
                None => baseline = Some(seen),
                Some(b) => assert_eq!(&seen, b, "depth={depth}"),
            }
        }
    }

    #[test]
    fn repeated_cells_hit_the_cache() {
        let d = indexed(200, 11);
        let view = d.read_view();
        let sources = [&view];
        let sequence: Vec<(usize, usize)> = vec![(0, 0), (0, 0), (0, 0)];
        let stats = stream_cells(0, 1 << 20, &sources, &sequence, &CancelToken::new(), |_| {
            Ok(())
        })
        .unwrap();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(
            stats.bytes_from_disk,
            view.cell_bytes(0),
            "only the first touch reads disk"
        );
    }

    #[test]
    fn consumer_error_aborts_stream() {
        let d = indexed(300, 13);
        let view = d.read_view();
        let sources = [&view];
        let sequence: Vec<(usize, usize)> =
            (0..view.grid.num_cells()).map(|c| (0usize, c)).collect();
        for depth in [0usize, 2] {
            let mut delivered = 0;
            let err = stream_cells(depth, 0, &sources, &sequence, &CancelToken::new(), |_| {
                delivered += 1;
                if delivered == 1 {
                    Err(spade_storage::StorageError::Io("boom".into()))
                } else {
                    Ok(())
                }
            });
            assert!(err.is_err(), "depth={depth}");
        }
    }

    #[test]
    fn cancellation_aborts_stream_at_cell_boundary() {
        let d = indexed(300, 19);
        let view = d.read_view();
        let sources = [&view];
        let sequence: Vec<(usize, usize)> =
            (0..view.grid.num_cells()).map(|c| (0usize, c)).collect();
        assert!(sequence.len() > 1);
        for depth in [0usize, 2] {
            let cancel = crate::cancel::CancelToken::new();
            let mut delivered = 0;
            let res = stream_cells(depth, 0, &sources, &sequence, &cancel, |_| {
                delivered += 1;
                if delivered == 1 {
                    cancel.cancel(); // cancel mid-stream, from the consumer
                }
                Ok(())
            });
            assert_eq!(
                res.unwrap_err(),
                spade_storage::StorageError::Cancelled,
                "depth={depth}"
            );
            assert_eq!(delivered, 1, "depth={depth}");
        }
    }

    #[test]
    fn empty_sequence_is_a_no_op() {
        let d = indexed(50, 17);
        let view = d.read_view();
        let stats = stream_cells(4, 0, &[&view], &[], &CancelToken::new(), |_| Ok(())).unwrap();
        assert_eq!(stats.cells, 0);
    }
}
