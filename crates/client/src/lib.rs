//! # spade-client — blocking client for the SPADE wire protocol
//!
//! A small, thread-friendly client for servers started with
//! `spade_net::NetServer`:
//!
//! - **Pipelining** — [`Client::submit`] returns a [`PendingReply`]
//!   immediately; keep many in flight on the one connection and wait in
//!   any order. Responses are matched by the frame's `request_id`.
//! - **Lazy reconnect** — a dead connection is redialed by the next
//!   submission, under a capped exponential backoff.
//! - **Write coalescing** — concurrent submitters queue encoded frames
//!   into a shared outbox and whoever holds the flush lock writes them
//!   all in one syscall (the same group-commit idea the storage WAL uses
//!   for fsync), so many small requests do not mean many small writes.
//!
//! ```no_run
//! use spade_client::{Client, ClientConfig};
//! use spade_core::query::SelectQuery;
//! use spade_geometry::{BBox, Point};
//! use spade_server::QueryRequest;
//!
//! let client = Client::connect("127.0.0.1:7878", ClientConfig::default()).unwrap();
//! let bbox = BBox::new(Point::new(0.0, 0.0), Point::new(0.5, 0.5));
//! let resp = client
//!     .query(&QueryRequest::Select {
//!         dataset: "pts".into(),
//!         query: SelectQuery::Range(bbox),
//!     })
//!     .unwrap();
//! println!("{} rows", resp.stats.result_count);
//! ```

mod conn;
pub use conn::{Client, ClientConfig, ClientError, PendingReply};
