//! An embedded relational column store.
//!
//! SPADE stores all data, indexes and metadata as relational tables and
//! accesses them through an embedded column store — the paper uses
//! MonetDBLite via its C/SQL API (§3 "Relational Data Store"). This crate
//! is that substrate, built from scratch:
//!
//! * typed columns ([`mod@column`]) and tables with a catalog ([`table`],
//!   [`catalog`]),
//! * a scan/filter/project executor with scalar predicates ([`exec`]),
//! * a small SQL subset (`CREATE TABLE`, `INSERT`, `SELECT … WHERE`)
//!   ([`sql`]) so integration mirrors the paper's "load and store data
//!   using SQL",
//! * binary disk persistence with per-column pages and byte-accounted reads
//!   ([`persist`]) — the out-of-core grid index stores its cell blocks
//!   through this layer,
//! * geometry encoding ([`geom`]): geometries serialize to a compact
//!   WKB-like binary column plus bbox columns for coarse filtering.

pub mod catalog;
pub mod column;
pub mod cursor;
pub mod exec;
pub mod geom;
pub mod persist;
pub mod sql;
pub mod table;
pub mod value;
pub mod wal;

pub use catalog::Database;
pub use column::{Column, DataType};
pub use table::{Schema, Table};
pub use value::Value;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    UnknownTable(String),
    UnknownColumn(String),
    TypeMismatch {
        column: String,
        expected: DataType,
    },
    Arity {
        expected: usize,
        got: usize,
    },
    DuplicateTable(String),
    Parse(String),
    Io(String),
    Corrupt(String),
    /// The operation was cooperatively cancelled (explicit cancel or an
    /// expired deadline) before completing.
    Cancelled,
    /// The request is well-formed but names a combination the engine has
    /// no plan for (a kNN over polygon data, a cell-pair scope on a
    /// single-dataset query).
    Unsupported(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            StorageError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            StorageError::TypeMismatch { column, expected } => {
                write!(
                    f,
                    "type mismatch for column '{column}': expected {expected:?}"
                )
            }
            StorageError::Arity { expected, got } => {
                write!(f, "arity mismatch: expected {expected} values, got {got}")
            }
            StorageError::DuplicateTable(t) => write!(f, "table '{t}' already exists"),
            StorageError::Parse(m) => write!(f, "SQL parse error: {m}"),
            StorageError::Io(m) => write!(f, "I/O error: {m}"),
            StorageError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            StorageError::Cancelled => write!(f, "operation cancelled"),
            StorageError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
