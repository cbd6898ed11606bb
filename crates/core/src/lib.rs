//! The SPADE spatial query engine.
//!
//! This crate is the paper's primary contribution (§3, §5): a query engine
//! that plans, optimizes and executes spatial queries as compositions of
//! the GPU-friendly algebra operators, over data that may not fit in device
//! (or host) memory.
//!
//! Modules:
//!
//! * [`config`] — engine configuration: canvas resolution, device memory
//!   budget, worker count, kNN parameters (§6.1's tuning knobs).
//! * [`dataset`] — in-memory spatial data sets and their prepared forms
//!   (triangulations, layer indexes), out-of-core handles backed by the
//!   clustered grid index, and the `ReadView` a query of either runs
//!   against (an in-memory set is a view with no grid cells and one
//!   memory slot).
//! * [`stats`] — the query time breakdown the paper reports (I/O / GPU /
//!   polygon processing / CPU, §6.2) plus transfer and pass counters.
//! * [`engine`] — the [`engine::Spade`] engine object tying the pipeline,
//!   the device-memory model and the configuration together.
//! * [`select`] — spatial selection (§5.2, Fig. 4): the fused
//!   blend + mask + map pass over point/line/polygon data.
//! * [`join`] — spatial joins as collections of selections driven by the
//!   layer index, over the cell-pair walk (§5.3).
//! * [`distance`] — distance-based selections and the two distance-join
//!   types (§5.2), with on-the-fly layer construction.
//! * [`aggregate`] — spatial aggregation: the layered join's pairs folded
//!   into a count per polygon (§5.2).
//! * [`knn`] — kNN selection and join via log-spaced circle aggregation
//!   (§5.2).
//! * [`optimizer`] — the query optimizer (§5.4): Map implementation
//!   choice, and join-order selection that shares cell loads with the
//!   bytes the ordered walk moves.
//! * [`prefetch`] — the pipelined out-of-core executor: a bounded
//!   background prefetcher that reads and decodes upcoming grid cells
//!   (through each data set's LRU cell cache) while the current cell
//!   refines on the device.
//! * [`cancel`] — cooperative cancellation tokens and deadlines, polled at
//!   the cell boundaries of every out-of-core loop.
//! * [`ctx`] / [`scope`] — the [`QueryCtx`] every executor and both
//!   dispatchers of [`query`] take: cancel token, cell scope, tenant,
//!   cache policy.
//! * [`trace`] — engine-wide tracing spans (ring-buffer backed, zero-cost
//!   when disabled), threaded through every query family, the prefetch
//!   producer and each pipeline pass.
//! * [`explain`] — plan reports: the optimizer decisions a query made,
//!   carried on its [`stats::QueryStats`] as `plan` and rendered with the
//!   estimated values next to the actuals (`EXPLAIN ANALYZE`).

pub mod aggregate;
pub mod cancel;
pub mod config;
pub mod ctx;
pub mod dataset;
pub mod distance;
pub mod engine;
pub mod explain;
pub mod join;
pub mod knn;
mod lru;
pub mod optimizer;
pub mod prefetch;
pub mod query;
pub mod result_cache;
pub mod scope;
pub mod select;
pub mod stats;
pub mod trace;

pub use cancel::CancelToken;
pub use config::EngineConfig;
pub use ctx::QueryCtx;
pub use dataset::{Dataset, IndexedDataset};
pub use engine::Spade;
pub use explain::PlanReport;
pub use result_cache::{ResultCache, ResultCacheStats};
pub use scope::{CellScope, Scope};
pub use stats::{CacheOutcome, QueryStats};
