//! Typed query requests and responses of the service layer.

use spade_core::query::{JoinQuery, QueryResult, SelectQuery};
use spade_core::{CellScope, QueryStats, Scope};
use spade_storage::sql::SqlResult;
use std::time::Duration;

/// A query a session submits to the [`crate::QueryService`]. Dataset names
/// refer to the service's catalog ([`crate::QueryService::register`] /
/// [`crate::QueryService::register_indexed`]); selection and join classes
/// reuse the engine's query AST. A name holds one dataset, in-memory or
/// grid-indexed; registering it again replaces it.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// A selection (intersects / range / containment / distance / kNN)
    /// over one dataset.
    Select { dataset: String, query: SelectQuery },
    /// A join (intersects / distance / kNN / count-points aggregation)
    /// over two datasets.
    Join {
        left: String,
        right: String,
        query: JoinQuery,
    },
    /// A SQL statement against the service's embedded relational store.
    Sql(String),
    /// An `EXPLAIN` / `EXPLAIN ANALYZE` of another request: the response is
    /// the plan text instead of the result. Spatial requests execute to
    /// discover the plan either way (the optimizer decides in-flight);
    /// `analyze` additionally prints actual runtime numbers next to the
    /// estimates. SQL requests are forwarded with an `EXPLAIN` prefix.
    Explain {
        analyze: bool,
        request: Box<QueryRequest>,
    },
    /// Insert (or replace) one object of a grid-indexed dataset. The write
    /// is WAL-logged (when the service has a WAL) and staged in the
    /// dataset's delta store; queries see it immediately.
    Insert {
        dataset: String,
        id: u32,
        geometry: spade_geometry::Geometry,
    },
    /// Delete one object of a grid-indexed dataset (a staged tombstone
    /// masks the base index until compaction folds it in).
    Delete { dataset: String, id: u32 },
    /// Force durability and full compaction of one dataset: fsync the WAL,
    /// drain the delta into a fresh index generation, and checkpoint.
    Flush { dataset: String },
    /// A selection restricted to a half-open cell range `[cells.0, cells.1)`
    /// — one shard's slice of a scatter-gather plan. Exactly one shard of a
    /// covering plan sets `include_delta` so staged writes are counted once.
    /// Shard partials bypass the result cache.
    ShardSelect {
        dataset: String,
        query: SelectQuery,
        cells: (u32, u32),
        include_delta: bool,
    },
    /// A join over an explicit list of `(left_cell, right_cell)` pairs —
    /// one shard's slice of a scatter-gather join plan. Pairs outside the
    /// worker's current cell ranges are dropped (stale shard-map safety);
    /// refinement is exact, so a bbox-superset pair list is harmless.
    ShardJoin {
        left: String,
        right: String,
        query: JoinQuery,
        pairs: Vec<(u32, u32)>,
        include_delta: bool,
    },
    /// Per-cell statistics of a grid-indexed dataset (bbox, byte size,
    /// object count per cell, plus the index generation and last applied
    /// WAL sequence). Coordinators use this to build byte-balanced shard
    /// maps and to cost join-pair routing.
    CellStats { dataset: String },
    /// Stream WAL records with sequence numbers strictly greater than
    /// `after_seq`, at most `limit` of them. The replication pull path:
    /// followers poll this and replay the batch into their own write path.
    /// Restricted to default-namespace sessions.
    WalFetch { after_seq: u64, limit: u32 },
}

impl QueryRequest {
    /// Short class label for logs and stats breakdowns.
    pub fn class(&self) -> &'static str {
        match self {
            QueryRequest::Select { query, .. } => match query {
                SelectQuery::Intersects(_) => "select",
                SelectQuery::Range(_) => "range",
                SelectQuery::Contained(_) => "contained",
                SelectQuery::WithinDistance(..) => "distance",
                SelectQuery::Knn(..) => "knn",
            },
            QueryRequest::Join { query, .. } => match query {
                JoinQuery::Intersects => "join",
                JoinQuery::WithinDistance(_) => "distance-join",
                JoinQuery::Knn(_) => "knn-join",
                JoinQuery::CountPoints => "aggregate",
            },
            QueryRequest::Sql(_) => "sql",
            QueryRequest::Explain { .. } => "explain",
            QueryRequest::Insert { .. } => "insert",
            QueryRequest::Delete { .. } => "delete",
            QueryRequest::Flush { .. } => "flush",
            QueryRequest::ShardSelect { .. } => "shard-select",
            QueryRequest::ShardJoin { .. } => "shard-join",
            QueryRequest::CellStats { .. } => "cell-stats",
            QueryRequest::WalFetch { .. } => "wal-fetch",
        }
    }

    /// The part of the cell space this request covers: a shard request
    /// borrows its cell range or pair list, everything else is full.
    pub fn scope(&self) -> Scope<'_> {
        match self {
            QueryRequest::ShardSelect {
                cells,
                include_delta,
                ..
            } => Scope::Cells(CellScope {
                lo: cells.0,
                hi: cells.1,
                include_delta: *include_delta,
            }),
            QueryRequest::ShardJoin {
                pairs,
                include_delta,
                ..
            } => Scope::Pairs {
                pairs,
                include_delta: *include_delta,
            },
            _ => Scope::Full,
        }
    }
}

/// One cell's statistics in a [`ResponsePayload::CellStats`] reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellInfo {
    /// The cell's bounding box.
    pub bbox: spade_geometry::BBox,
    /// On-disk byte size of the cell's fragment data.
    pub bytes: u64,
    /// Number of objects resident in the cell.
    pub objects: u32,
}

/// What a completed query returns.
#[derive(Debug, PartialEq)]
pub enum ResponsePayload {
    /// A spatial query result.
    Query(QueryResult),
    /// A SQL statement result.
    Sql(SqlResult),
    /// The rendered plan of an `EXPLAIN` / `EXPLAIN ANALYZE` request.
    Explain(String),
    /// Acknowledgement of a write: the WAL sequence it was assigned (for
    /// `Flush`, the checkpointed sequence) and the index generation the
    /// dataset is on after the request.
    Ack { seq: u64, generation: u64 },
    /// Per-cell statistics of one grid-indexed dataset.
    CellStats {
        /// Index generation the statistics describe.
        generation: u64,
        /// Last WAL sequence the serving node has applied (0 without a WAL).
        seq: u64,
        /// One entry per grid cell, in cell order.
        cells: Vec<CellInfo>,
    },
    /// A batch of WAL records for replication. `leader_seq` is the highest
    /// sequence the leader has assigned so far; `records` are consecutive
    /// records after the requested sequence (possibly fewer than the
    /// requested limit, empty when the follower is caught up).
    WalBatch {
        leader_seq: u64,
        records: Vec<spade_storage::wal::WalRecord>,
    },
}

impl ResponsePayload {
    /// The spatial result, when the payload is one.
    pub fn query(&self) -> Option<&QueryResult> {
        match self {
            ResponsePayload::Query(q) => Some(q),
            _ => None,
        }
    }

    /// The plan text, when the payload is an `EXPLAIN` response.
    pub fn explain(&self) -> Option<&str> {
        match self {
            ResponsePayload::Explain(t) => Some(t),
            _ => None,
        }
    }

    /// The `(seq, generation)` acknowledgement, when the payload is one.
    pub fn ack(&self) -> Option<(u64, u64)> {
        match self {
            ResponsePayload::Ack { seq, generation } => Some((*seq, *generation)),
            _ => None,
        }
    }
}

/// A completed query: its payload, the engine's per-query stats, and the
/// service-side wall split between time spent queued (admission) and time
/// spent executing.
#[derive(Debug)]
pub struct QueryResponse {
    pub payload: ResponsePayload,
    /// Engine-side breakdown (I/O / GPU / polygon / CPU, transfer bytes,
    /// passes). Zeroed for SQL statements, which bypass the engine.
    pub stats: QueryStats,
    /// Time between submission and admission to a worker.
    pub queue_wait: Duration,
    /// Time between admission and completion.
    pub exec_time: Duration,
}

/// Why a query did not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The admission controller rejected the query outright: its estimated
    /// device footprint can never fit the device.
    Rejected { estimated: u64, capacity: u64 },
    /// The query was cancelled (by its token) before or during execution.
    Cancelled,
    /// The query's deadline expired before or during execution.
    DeadlineExceeded,
    /// The request referenced a dataset the catalog does not know.
    UnknownDataset(String),
    /// The session referenced a namespace the service does not know.
    UnknownNamespace(String),
    /// The presented token does not match the namespace's.
    Unauthorized(String),
    /// A namespace or dataset name failed validation (empty, oversized,
    /// contains control characters or the reserved `:` separator), or a
    /// namespace with that name already exists.
    InvalidName(String),
    /// The service is shutting down; the query will not run.
    Shutdown,
    /// The query completed, but its encoded reply exceeded the
    /// connection's frame-size cap and could not be delivered over the
    /// wire. Narrow the query (or raise the server's `max_frame`).
    ReplyTooLarge { size: u64, max: u64 },
    /// The engine or storage layer failed.
    Storage(spade_storage::StorageError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Rejected {
                estimated,
                capacity,
            } => write!(
                f,
                "rejected: estimated footprint {estimated} B exceeds device capacity {capacity} B"
            ),
            ServiceError::Cancelled => write!(f, "cancelled"),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServiceError::UnknownDataset(n) => write!(f, "unknown dataset '{n}'"),
            ServiceError::UnknownNamespace(n) => write!(f, "unknown namespace '{n}'"),
            ServiceError::Unauthorized(n) => write!(f, "unauthorized for namespace '{n}'"),
            ServiceError::InvalidName(why) => write!(f, "invalid name: {why}"),
            ServiceError::Shutdown => write!(f, "service shut down"),
            ServiceError::ReplyTooLarge { size, max } => {
                write!(f, "reply of {size} B exceeds the {max} B frame cap")
            }
            ServiceError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<spade_storage::StorageError> for ServiceError {
    fn from(e: spade_storage::StorageError) -> Self {
        match e {
            spade_storage::StorageError::Cancelled => ServiceError::Cancelled,
            other => ServiceError::Storage(other),
        }
    }
}
