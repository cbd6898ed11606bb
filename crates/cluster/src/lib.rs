//! Horizontal scale-out for the SPADE query service.
//!
//! Three pieces, composable and individually small:
//!
//! * [`ShardMap`] — a partition of a grid-indexed dataset's cell ids into
//!   contiguous, byte-balanced ranges, one per worker. Built from a
//!   worker's per-cell statistics (`QueryRequest::CellStats`). The last
//!   range is unbounded (`hi = u32::MAX`), so a map that has gone stale
//!   against a compaction that *grew* the cell count still covers every
//!   cell — correctness never depends on map freshness, only balance does.
//!
//! * [`ClusterClient`] — a scatter-gather coordinator over N workers, each
//!   a full `spade-net` server holding the complete dataset. Sharding
//!   partitions *execution*, not storage: a selection scatters one
//!   cell-range slice per worker and merges (sort + dedup for id results,
//!   distance-ordered truncation for kNN); a join routes individual cell
//!   *pairs* (intersection, count and distance joins) — co-located pairs
//!   run on their owner, cross-shard pairs on whichever side the byte
//!   estimates say is cheaper to bring the other cell to. Exactly one
//!   slice of every scatter carries the delta store, so staged writes are
//!   counted exactly once. Writes broadcast to all workers; SQL and kNN
//!   joins (whose candidate pairs need live cell counts the shard map does
//!   not carry) route whole to one worker.
//!
//! * [`Replica`] — a WAL-shipping follower. It polls a leader for WAL
//!   records past its applied watermark (`QueryRequest::WalFetch`),
//!   replays them through its own service's normal write path (so its
//!   state is byte-equivalent to a cold rebuild of the same prefix), and
//!   serves reads at a bounded-staleness watermark it exposes. The pull
//!   design makes leader restart resumption implicit: the follower's next
//!   poll names the sequence it has, whoever answers serves from there.

pub mod coordinator;
pub mod replica;
pub mod shard;

pub use coordinator::{ClusterClient, ClusterConfig, ClusterError};
pub use replica::{Replica, ReplicaConfig};
pub use shard::ShardMap;
