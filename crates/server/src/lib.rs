//! # spade-server — concurrent query service over the SPADE engine
//!
//! The engine crates answer one query at a time for one caller. This crate
//! turns one shared [`spade_core::Spade`] instance into a *service*: many
//! sessions submit typed [`QueryRequest`]s concurrently and a worker pool
//! executes them against the same engine, device ledger, and catalog.
//!
//! Three service-level mechanisms sit between submission and execution:
//!
//! - **Admission control**: each query carries an estimated device-memory
//!   footprint; it starts only when that estimate fits next to the
//!   estimates of every running query, reserved on a shadow
//!   [`spade_gpu::DeviceMemory`] ledger of the engine's capacity. Queries that can never fit are
//!   rejected outright; the rest wait in a FIFO queue with a per-session
//!   fairness cap. This reproduces the paper's observation (§5.4) that the
//!   host–device bus is the bottleneck: thrashing residency between
//!   concurrent queries is worse than briefly queueing one of them.
//! - **Cooperative cancellation** ([`spade_core::CancelToken`]): every
//!   query carries a token, checked by the out-of-core executors at grid
//!   cell boundaries. Cancelling (or an expired deadline) stops the query
//!   at the next boundary with the device ledger balanced.
//! - **Service stats** ([`ServiceSnapshot`]): queue depth, admission
//!   counters, the queue-vs-execution wall split, and p50/p95 latency over
//!   a sliding window of recent completions.
//!
//! ```
//! use spade_core::dataset::Dataset;
//! use spade_core::query::SelectQuery;
//! use spade_core::EngineConfig;
//! use spade_geometry::{BBox, Point};
//! use spade_server::{QueryRequest, QueryService, ServiceConfig};
//!
//! let service = QueryService::new(ServiceConfig {
//!     engine: EngineConfig::test_small(),
//!     workers: 2,
//!     ..Default::default()
//! });
//! let pts = spade_datagen::spider::uniform_points(200, 7);
//! service.register("pts", Dataset::from_points("pts", pts));
//!
//! let session = service.session();
//! let bbox = BBox::new(Point::new(0.2, 0.2), Point::new(0.6, 0.6));
//! let ticket = session.submit(QueryRequest::Select {
//!     dataset: "pts".into(),
//!     query: SelectQuery::Range(bbox),
//! });
//! let response = ticket.wait().unwrap();
//! assert!(response.payload.query().is_some());
//! ```

pub mod metrics;
pub mod namespace;
pub mod request;
pub mod service;
pub mod stats;

pub use namespace::{NamespaceConfig, DEFAULT_NAMESPACE};
pub use request::{CellInfo, QueryRequest, QueryResponse, ResponsePayload, ServiceError};
pub use service::{QueryService, Reply, ServiceConfig, Session, Ticket};
pub use stats::ServiceSnapshot;
