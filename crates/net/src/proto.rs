//! Wire encoding of the service's typed request/response surface.
//!
//! The protocol reuses the storage layer's little-endian cursor primitives,
//! its WKB-like geometry blob ([`spade_storage::geom`]) and its relational
//! table codec ([`spade_storage::persist`]), so the network layer adds no
//! second serialization scheme to the codebase — a geometry crosses the
//! wire in exactly the bytes it would occupy in a stored cell.
//!
//! Every enum is encoded as a one-byte tag followed by its fields; strings
//! are `u32` length + UTF-8 bytes; nested blobs (geometry, tables) are
//! `u32` length + codec bytes. Decoders are strict: unknown tags, short
//! buffers, and trailing bytes are all [`WireError::Corrupt`] — a decoder
//! that silently tolerated them would mask framing bugs that the crc
//! cannot catch (the crc protects transport, not encoding).

use crate::wire::WireError;
use spade_core::distance::DistanceConstraint;
use spade_core::query::{JoinQuery, QueryResult, SelectQuery};
use spade_core::stats::CacheOutcome;
use spade_core::QueryStats;
use spade_geometry::{BBox, Geometry, Point, Polygon};
use spade_server::{QueryRequest, QueryResponse, ResponsePayload, ServiceError};
use spade_storage::column::DataType;
use spade_storage::cursor::{
    get_bytes, get_f64_le, get_u16_le, get_u32_le, get_u64_le, get_u8, put_f64_le, put_slice,
    put_str, put_u16_le, put_u32_le, put_u64_le, put_u8,
};
use spade_storage::geom::{decode_geometry, encode_geometry};
use spade_storage::persist::{decode_table, encode_table};
use spade_storage::StorageError;
use std::time::Duration;

/// What a client sends. The frame's `request_id` identifies the request a
/// [`ClientMsg::Cancel`] targets and the one a [`ClientMsg::Request`]'s
/// response will echo.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// First frame on every connection: protocol version, tenant
    /// namespace, and that namespace's auth token (if it has one).
    Hello {
        version: u16,
        namespace: String,
        token: Option<String>,
    },
    /// Submit the query; the response frame echoes this frame's id.
    Request(QueryRequest),
    /// Cooperatively cancel the in-flight request whose id this frame
    /// carries. No reply of its own — the cancelled request's reply
    /// reports [`ServiceError::Cancelled`] (or its result, if it won the
    /// race).
    Cancel,
}

/// What the server sends.
// Reply dominates the size, but it also dominates the traffic — every
// frame except the two handshake ones is a Reply — so boxing would add an
// allocation to the hot path to slim the cold one.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ServerMsg {
    /// Handshake accepted; `session` is the server-side session id (useful
    /// in logs and `metrics_text` fairness accounting).
    HelloOk { version: u16, session: u64 },
    /// Handshake refused; the connection closes after this frame.
    HelloErr { message: String },
    /// The reply to the request with this frame's id.
    Reply(Result<QueryResponse, ServiceError>),
}

const CLIENT_HELLO: u8 = 1;
const CLIENT_REQUEST: u8 = 2;
const CLIENT_CANCEL: u8 = 3;

const SERVER_HELLO_OK: u8 = 1;
const SERVER_HELLO_ERR: u8 = 2;
const SERVER_REPLY_OK: u8 = 3;
const SERVER_REPLY_ERR: u8 = 4;

fn corrupt(what: &str) -> WireError {
    WireError::Corrupt(format!("short or invalid {what}"))
}

fn get_string(buf: &mut &[u8]) -> Result<String, WireError> {
    let len = get_u32_le(buf).ok_or_else(|| corrupt("string length"))? as usize;
    let bytes = get_bytes(buf, len).ok_or_else(|| corrupt("string bytes"))?;
    String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string utf-8"))
}

fn put_opt_str(buf: &mut Vec<u8>, s: &Option<String>) {
    match s {
        Some(s) => {
            put_u8(buf, 1);
            put_str(buf, s);
        }
        None => put_u8(buf, 0),
    }
}

fn get_opt_str(buf: &mut &[u8]) -> Result<Option<String>, WireError> {
    match get_u8(buf).ok_or_else(|| corrupt("option flag"))? {
        0 => Ok(None),
        1 => Ok(Some(get_string(buf)?)),
        _ => Err(corrupt("option flag")),
    }
}

/// Geometry as a length-prefixed storage blob.
fn put_geometry(buf: &mut Vec<u8>, g: &Geometry) {
    let blob = encode_geometry(g);
    put_u32_le(buf, blob.len() as u32);
    put_slice(buf, &blob);
}

fn get_geometry(buf: &mut &[u8]) -> Result<Geometry, WireError> {
    let len = get_u32_le(buf).ok_or_else(|| corrupt("geometry length"))? as usize;
    let blob = get_bytes(buf, len).ok_or_else(|| corrupt("geometry bytes"))?;
    decode_geometry(blob).map_err(|e| WireError::Corrupt(format!("geometry blob: {e}")))
}

fn put_polygon(buf: &mut Vec<u8>, p: &Polygon) {
    put_geometry(buf, &Geometry::Polygon(p.clone()));
}

fn get_polygon(buf: &mut &[u8]) -> Result<Polygon, WireError> {
    match get_geometry(buf)? {
        Geometry::Polygon(p) => Ok(p),
        other => Err(WireError::Corrupt(format!(
            "expected polygon blob, got {other:?}"
        ))),
    }
}

fn put_point(buf: &mut Vec<u8>, p: Point) {
    put_f64_le(buf, p.x);
    put_f64_le(buf, p.y);
}

fn get_point(buf: &mut &[u8]) -> Result<Point, WireError> {
    let x = get_f64_le(buf).ok_or_else(|| corrupt("point x"))?;
    let y = get_f64_le(buf).ok_or_else(|| corrupt("point y"))?;
    Ok(Point::new(x, y))
}

fn put_bbox(buf: &mut Vec<u8>, b: &BBox) {
    put_point(buf, b.min);
    put_point(buf, b.max);
}

fn get_bbox(buf: &mut &[u8]) -> Result<BBox, WireError> {
    let min = get_point(buf)?;
    let max = get_point(buf)?;
    Ok(BBox::new(min, max))
}

fn put_duration(buf: &mut Vec<u8>, d: Duration) {
    put_u64_le(buf, d.as_nanos().min(u64::MAX as u128) as u64);
}

fn get_duration(buf: &mut &[u8]) -> Result<Duration, WireError> {
    Ok(Duration::from_nanos(
        get_u64_le(buf).ok_or_else(|| corrupt("duration"))?,
    ))
}

fn put_distance_constraint(buf: &mut Vec<u8>, c: &DistanceConstraint) {
    let g = match c {
        DistanceConstraint::Point(p) => Geometry::Point(*p),
        DistanceConstraint::Line(l) => Geometry::LineString(l.clone()),
        DistanceConstraint::Polygon(p) => Geometry::Polygon(p.clone()),
    };
    put_geometry(buf, &g);
}

fn get_distance_constraint(buf: &mut &[u8]) -> Result<DistanceConstraint, WireError> {
    match get_geometry(buf)? {
        Geometry::Point(p) => Ok(DistanceConstraint::Point(p)),
        Geometry::LineString(l) => Ok(DistanceConstraint::Line(l)),
        Geometry::Polygon(p) => Ok(DistanceConstraint::Polygon(p)),
        other => Err(WireError::Corrupt(format!(
            "multipolygon is not a distance constraint: {other:?}"
        ))),
    }
}

const SELECT_INTERSECTS: u8 = 1;
const SELECT_RANGE: u8 = 2;
const SELECT_CONTAINED: u8 = 3;
const SELECT_WITHIN_DISTANCE: u8 = 4;
const SELECT_KNN: u8 = 5;

fn put_select(buf: &mut Vec<u8>, q: &SelectQuery) {
    match q {
        SelectQuery::Intersects(p) => {
            put_u8(buf, SELECT_INTERSECTS);
            put_polygon(buf, p);
        }
        SelectQuery::Range(b) => {
            put_u8(buf, SELECT_RANGE);
            put_bbox(buf, b);
        }
        SelectQuery::Contained(p) => {
            put_u8(buf, SELECT_CONTAINED);
            put_polygon(buf, p);
        }
        SelectQuery::WithinDistance(c, r) => {
            put_u8(buf, SELECT_WITHIN_DISTANCE);
            put_distance_constraint(buf, c);
            put_f64_le(buf, *r);
        }
        SelectQuery::Knn(p, k) => {
            put_u8(buf, SELECT_KNN);
            put_point(buf, *p);
            put_u64_le(buf, *k as u64);
        }
    }
}

fn get_select(buf: &mut &[u8]) -> Result<SelectQuery, WireError> {
    match get_u8(buf).ok_or_else(|| corrupt("select tag"))? {
        SELECT_INTERSECTS => Ok(SelectQuery::Intersects(get_polygon(buf)?)),
        SELECT_RANGE => Ok(SelectQuery::Range(get_bbox(buf)?)),
        SELECT_CONTAINED => Ok(SelectQuery::Contained(get_polygon(buf)?)),
        SELECT_WITHIN_DISTANCE => {
            let c = get_distance_constraint(buf)?;
            let r = get_f64_le(buf).ok_or_else(|| corrupt("distance radius"))?;
            Ok(SelectQuery::WithinDistance(c, r))
        }
        SELECT_KNN => {
            let p = get_point(buf)?;
            let k = get_u64_le(buf).ok_or_else(|| corrupt("knn k"))? as usize;
            Ok(SelectQuery::Knn(p, k))
        }
        t => Err(WireError::Corrupt(format!("unknown select tag {t}"))),
    }
}

const JOIN_INTERSECTS: u8 = 1;
const JOIN_WITHIN_DISTANCE: u8 = 2;
const JOIN_KNN: u8 = 3;
const JOIN_COUNT_POINTS: u8 = 4;

fn put_join(buf: &mut Vec<u8>, q: &JoinQuery) {
    match q {
        JoinQuery::Intersects => put_u8(buf, JOIN_INTERSECTS),
        JoinQuery::WithinDistance(r) => {
            put_u8(buf, JOIN_WITHIN_DISTANCE);
            put_f64_le(buf, *r);
        }
        JoinQuery::Knn(k) => {
            put_u8(buf, JOIN_KNN);
            put_u64_le(buf, *k as u64);
        }
        JoinQuery::CountPoints => put_u8(buf, JOIN_COUNT_POINTS),
    }
}

fn get_join(buf: &mut &[u8]) -> Result<JoinQuery, WireError> {
    match get_u8(buf).ok_or_else(|| corrupt("join tag"))? {
        JOIN_INTERSECTS => Ok(JoinQuery::Intersects),
        JOIN_WITHIN_DISTANCE => Ok(JoinQuery::WithinDistance(
            get_f64_le(buf).ok_or_else(|| corrupt("join radius"))?,
        )),
        JOIN_KNN => Ok(JoinQuery::Knn(
            get_u64_le(buf).ok_or_else(|| corrupt("join k"))? as usize,
        )),
        JOIN_COUNT_POINTS => Ok(JoinQuery::CountPoints),
        t => Err(WireError::Corrupt(format!("unknown join tag {t}"))),
    }
}

const REQ_SELECT: u8 = 1;
const REQ_JOIN: u8 = 2;
const REQ_SQL: u8 = 3;
const REQ_EXPLAIN: u8 = 4;
const REQ_INSERT: u8 = 5;
const REQ_DELETE: u8 = 6;
const REQ_FLUSH: u8 = 7;
const REQ_SHARD_SELECT: u8 = 8;
const REQ_SHARD_JOIN: u8 = 9;
const REQ_CELL_STATS: u8 = 10;
const REQ_WAL_FETCH: u8 = 11;

fn put_request(buf: &mut Vec<u8>, req: &QueryRequest) {
    match req {
        QueryRequest::Select { dataset, query } => {
            put_u8(buf, REQ_SELECT);
            put_str(buf, dataset);
            put_select(buf, query);
        }
        QueryRequest::Join { left, right, query } => {
            put_u8(buf, REQ_JOIN);
            put_str(buf, left);
            put_str(buf, right);
            put_join(buf, query);
        }
        QueryRequest::Sql(stmt) => {
            put_u8(buf, REQ_SQL);
            put_str(buf, stmt);
        }
        QueryRequest::Explain { analyze, request } => {
            put_u8(buf, REQ_EXPLAIN);
            put_u8(buf, u8::from(*analyze));
            put_request(buf, request);
        }
        QueryRequest::Insert {
            dataset,
            id,
            geometry,
        } => {
            put_u8(buf, REQ_INSERT);
            put_str(buf, dataset);
            put_u32_le(buf, *id);
            put_geometry(buf, geometry);
        }
        QueryRequest::Delete { dataset, id } => {
            put_u8(buf, REQ_DELETE);
            put_str(buf, dataset);
            put_u32_le(buf, *id);
        }
        QueryRequest::Flush { dataset } => {
            put_u8(buf, REQ_FLUSH);
            put_str(buf, dataset);
        }
        QueryRequest::ShardSelect {
            dataset,
            query,
            cells,
            include_delta,
        } => {
            put_u8(buf, REQ_SHARD_SELECT);
            put_str(buf, dataset);
            put_select(buf, query);
            put_u32_le(buf, cells.0);
            put_u32_le(buf, cells.1);
            put_u8(buf, u8::from(*include_delta));
        }
        QueryRequest::ShardJoin {
            left,
            right,
            query,
            pairs,
            include_delta,
        } => {
            put_u8(buf, REQ_SHARD_JOIN);
            put_str(buf, left);
            put_str(buf, right);
            put_join(buf, query);
            put_u32_le(buf, pairs.len() as u32);
            for (l, r) in pairs {
                put_u32_le(buf, *l);
                put_u32_le(buf, *r);
            }
            put_u8(buf, u8::from(*include_delta));
        }
        QueryRequest::CellStats { dataset } => {
            put_u8(buf, REQ_CELL_STATS);
            put_str(buf, dataset);
        }
        QueryRequest::WalFetch { after_seq, limit } => {
            put_u8(buf, REQ_WAL_FETCH);
            put_u64_le(buf, *after_seq);
            put_u32_le(buf, *limit);
        }
    }
}

fn get_bool(buf: &mut &[u8], what: &str) -> Result<bool, WireError> {
    match get_u8(buf).ok_or_else(|| WireError::Corrupt(format!("short or invalid {what}")))? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::Corrupt(format!("short or invalid {what}"))),
    }
}

fn get_request(buf: &mut &[u8]) -> Result<QueryRequest, WireError> {
    match get_u8(buf).ok_or_else(|| corrupt("request tag"))? {
        REQ_SELECT => Ok(QueryRequest::Select {
            dataset: get_string(buf)?,
            query: get_select(buf)?,
        }),
        REQ_JOIN => Ok(QueryRequest::Join {
            left: get_string(buf)?,
            right: get_string(buf)?,
            query: get_join(buf)?,
        }),
        REQ_SQL => Ok(QueryRequest::Sql(get_string(buf)?)),
        REQ_EXPLAIN => {
            let analyze = match get_u8(buf).ok_or_else(|| corrupt("explain flag"))? {
                0 => false,
                1 => true,
                _ => return Err(corrupt("explain flag")),
            };
            Ok(QueryRequest::Explain {
                analyze,
                request: Box::new(get_request(buf)?),
            })
        }
        REQ_INSERT => Ok(QueryRequest::Insert {
            dataset: get_string(buf)?,
            id: get_u32_le(buf).ok_or_else(|| corrupt("insert id"))?,
            geometry: get_geometry(buf)?,
        }),
        REQ_DELETE => Ok(QueryRequest::Delete {
            dataset: get_string(buf)?,
            id: get_u32_le(buf).ok_or_else(|| corrupt("delete id"))?,
        }),
        REQ_FLUSH => Ok(QueryRequest::Flush {
            dataset: get_string(buf)?,
        }),
        REQ_SHARD_SELECT => {
            let dataset = get_string(buf)?;
            let query = get_select(buf)?;
            let lo = get_u32_le(buf).ok_or_else(|| corrupt("shard lo"))?;
            let hi = get_u32_le(buf).ok_or_else(|| corrupt("shard hi"))?;
            let include_delta = get_bool(buf, "shard delta flag")?;
            Ok(QueryRequest::ShardSelect {
                dataset,
                query,
                cells: (lo, hi),
                include_delta,
            })
        }
        REQ_SHARD_JOIN => {
            let left = get_string(buf)?;
            let right = get_string(buf)?;
            let query = get_join(buf)?;
            let n = get_u32_le(buf).ok_or_else(|| corrupt("pair count"))? as usize;
            if n > buf.len() {
                return Err(corrupt("pair count"));
            }
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let l = get_u32_le(buf).ok_or_else(|| corrupt("pair left cell"))?;
                let r = get_u32_le(buf).ok_or_else(|| corrupt("pair right cell"))?;
                pairs.push((l, r));
            }
            let include_delta = get_bool(buf, "shard delta flag")?;
            Ok(QueryRequest::ShardJoin {
                left,
                right,
                query,
                pairs,
                include_delta,
            })
        }
        REQ_CELL_STATS => Ok(QueryRequest::CellStats {
            dataset: get_string(buf)?,
        }),
        REQ_WAL_FETCH => Ok(QueryRequest::WalFetch {
            after_seq: get_u64_le(buf).ok_or_else(|| corrupt("wal-fetch seq"))?,
            limit: get_u32_le(buf).ok_or_else(|| corrupt("wal-fetch limit"))?,
        }),
        t => Err(WireError::Corrupt(format!("unknown request tag {t}"))),
    }
}

const RESULT_IDS: u8 = 1;
const RESULT_RANKED: u8 = 2;
const RESULT_PAIRS: u8 = 3;
const RESULT_RANKED_PAIRS: u8 = 4;
const RESULT_COUNTS: u8 = 5;

fn put_result(buf: &mut Vec<u8>, r: &QueryResult) {
    match r {
        QueryResult::Ids(v) => {
            put_u8(buf, RESULT_IDS);
            put_u32_le(buf, v.len() as u32);
            for id in v {
                put_u32_le(buf, *id);
            }
        }
        QueryResult::Ranked(v) => {
            put_u8(buf, RESULT_RANKED);
            put_u32_le(buf, v.len() as u32);
            for (id, d) in v {
                put_u32_le(buf, *id);
                put_f64_le(buf, *d);
            }
        }
        QueryResult::Pairs(v) => {
            put_u8(buf, RESULT_PAIRS);
            put_u32_le(buf, v.len() as u32);
            for (a, b) in v {
                put_u32_le(buf, *a);
                put_u32_le(buf, *b);
            }
        }
        QueryResult::RankedPairs(v) => {
            put_u8(buf, RESULT_RANKED_PAIRS);
            put_u32_le(buf, v.len() as u32);
            for (a, b, d) in v {
                put_u32_le(buf, *a);
                put_u32_le(buf, *b);
                put_f64_le(buf, *d);
            }
        }
        QueryResult::Counts(v) => {
            put_u8(buf, RESULT_COUNTS);
            put_u32_le(buf, v.len() as u32);
            for (id, n) in v {
                put_u32_le(buf, *id);
                put_u64_le(buf, *n);
            }
        }
    }
}

fn get_result(buf: &mut &[u8]) -> Result<QueryResult, WireError> {
    let tag = get_u8(buf).ok_or_else(|| corrupt("result tag"))?;
    let n = get_u32_le(buf).ok_or_else(|| corrupt("result count"))? as usize;
    // The frame cap bounds `n` indirectly (each element is ≥ 4 bytes and
    // the payload already arrived); still cap the pre-allocation so a
    // corrupt count inside a small frame fails on decode, not on alloc.
    if n > buf.len() {
        return Err(corrupt("result count"));
    }
    match tag {
        RESULT_IDS => {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(get_u32_le(buf).ok_or_else(|| corrupt("result id"))?);
            }
            Ok(QueryResult::Ids(v))
        }
        RESULT_RANKED => {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let id = get_u32_le(buf).ok_or_else(|| corrupt("ranked id"))?;
                let d = get_f64_le(buf).ok_or_else(|| corrupt("ranked distance"))?;
                v.push((id, d));
            }
            Ok(QueryResult::Ranked(v))
        }
        RESULT_PAIRS => {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let a = get_u32_le(buf).ok_or_else(|| corrupt("pair left"))?;
                let b = get_u32_le(buf).ok_or_else(|| corrupt("pair right"))?;
                v.push((a, b));
            }
            Ok(QueryResult::Pairs(v))
        }
        RESULT_RANKED_PAIRS => {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let a = get_u32_le(buf).ok_or_else(|| corrupt("pair left"))?;
                let b = get_u32_le(buf).ok_or_else(|| corrupt("pair right"))?;
                let d = get_f64_le(buf).ok_or_else(|| corrupt("pair distance"))?;
                v.push((a, b, d));
            }
            Ok(QueryResult::RankedPairs(v))
        }
        RESULT_COUNTS => {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let id = get_u32_le(buf).ok_or_else(|| corrupt("count id"))?;
                let c = get_u64_le(buf).ok_or_else(|| corrupt("count value"))?;
                v.push((id, c));
            }
            Ok(QueryResult::Counts(v))
        }
        t => Err(WireError::Corrupt(format!("unknown result tag {t}"))),
    }
}

const SQL_AFFECTED: u8 = 1;
const SQL_ROWS: u8 = 2;

fn put_sql_result(buf: &mut Vec<u8>, r: &spade_storage::sql::SqlResult) {
    match r {
        spade_storage::sql::SqlResult::Affected(n) => {
            put_u8(buf, SQL_AFFECTED);
            put_u64_le(buf, *n as u64);
        }
        spade_storage::sql::SqlResult::Rows(t) => {
            put_u8(buf, SQL_ROWS);
            let blob = encode_table(t);
            put_u32_le(buf, blob.len() as u32);
            put_slice(buf, &blob);
        }
    }
}

fn get_sql_result(buf: &mut &[u8]) -> Result<spade_storage::sql::SqlResult, WireError> {
    match get_u8(buf).ok_or_else(|| corrupt("sql result tag"))? {
        SQL_AFFECTED => Ok(spade_storage::sql::SqlResult::Affected(
            get_u64_le(buf).ok_or_else(|| corrupt("affected count"))? as usize,
        )),
        SQL_ROWS => {
            let len = get_u32_le(buf).ok_or_else(|| corrupt("table length"))? as usize;
            let blob = get_bytes(buf, len).ok_or_else(|| corrupt("table bytes"))?;
            let t = decode_table(blob).map_err(|e| WireError::Corrupt(format!("table: {e}")))?;
            Ok(spade_storage::sql::SqlResult::Rows(t))
        }
        t => Err(WireError::Corrupt(format!("unknown sql result tag {t}"))),
    }
}

fn put_cache_outcome(buf: &mut Vec<u8>, c: CacheOutcome) {
    put_u8(
        buf,
        match c {
            CacheOutcome::Bypass => 0,
            CacheOutcome::Miss => 1,
            CacheOutcome::Hit => 2,
            CacheOutcome::CoalescedHit => 3,
        },
    );
}

fn get_cache_outcome(buf: &mut &[u8]) -> Result<CacheOutcome, WireError> {
    match get_u8(buf).ok_or_else(|| corrupt("cache outcome"))? {
        0 => Ok(CacheOutcome::Bypass),
        1 => Ok(CacheOutcome::Miss),
        2 => Ok(CacheOutcome::Hit),
        3 => Ok(CacheOutcome::CoalescedHit),
        t => Err(WireError::Corrupt(format!("unknown cache outcome {t}"))),
    }
}

fn put_stats(buf: &mut Vec<u8>, s: &QueryStats) {
    put_duration(buf, s.io_time);
    put_duration(buf, s.gpu_time);
    put_duration(buf, s.polygon_time);
    put_duration(buf, s.cpu_time);
    put_duration(buf, s.total_time);
    put_duration(buf, s.io_hidden);
    put_u64_le(buf, s.bytes_from_disk);
    put_u64_le(buf, s.bytes_to_device);
    put_u64_le(buf, s.passes);
    put_u64_le(buf, s.cells_loaded);
    put_u64_le(buf, s.result_count);
    put_u64_le(buf, s.prefetch_hits);
    put_u64_le(buf, s.prefetch_misses);
    put_u64_le(buf, s.cache_hits);
    put_cache_outcome(buf, s.result_cache);
}

fn get_stats(buf: &mut &[u8]) -> Result<QueryStats, WireError> {
    let stat = |buf: &mut &[u8]| get_u64_le(buf).ok_or_else(|| corrupt("stats"));
    Ok(QueryStats {
        io_time: get_duration(buf)?,
        gpu_time: get_duration(buf)?,
        polygon_time: get_duration(buf)?,
        cpu_time: get_duration(buf)?,
        total_time: get_duration(buf)?,
        io_hidden: get_duration(buf)?,
        bytes_from_disk: stat(buf)?,
        bytes_to_device: stat(buf)?,
        passes: stat(buf)?,
        cells_loaded: stat(buf)?,
        result_count: stat(buf)?,
        prefetch_hits: stat(buf)?,
        prefetch_misses: stat(buf)?,
        cache_hits: stat(buf)?,
        result_cache: get_cache_outcome(buf)?,
        // A plan crosses the wire only as EXPLAIN text.
        plan: Default::default(),
    })
}

const PAYLOAD_QUERY: u8 = 1;
const PAYLOAD_SQL: u8 = 2;
const PAYLOAD_EXPLAIN: u8 = 3;
const PAYLOAD_ACK: u8 = 4;
const PAYLOAD_CELL_STATS: u8 = 5;
const PAYLOAD_WAL_BATCH: u8 = 6;

fn put_payload(buf: &mut Vec<u8>, p: &ResponsePayload) {
    match p {
        ResponsePayload::Query(r) => {
            put_u8(buf, PAYLOAD_QUERY);
            put_result(buf, r);
        }
        ResponsePayload::Sql(r) => {
            put_u8(buf, PAYLOAD_SQL);
            put_sql_result(buf, r);
        }
        ResponsePayload::Explain(text) => {
            put_u8(buf, PAYLOAD_EXPLAIN);
            put_str(buf, text);
        }
        ResponsePayload::Ack { seq, generation } => {
            put_u8(buf, PAYLOAD_ACK);
            put_u64_le(buf, *seq);
            put_u64_le(buf, *generation);
        }
        ResponsePayload::CellStats {
            generation,
            seq,
            cells,
        } => {
            put_u8(buf, PAYLOAD_CELL_STATS);
            put_u64_le(buf, *generation);
            put_u64_le(buf, *seq);
            put_u32_le(buf, cells.len() as u32);
            for c in cells {
                put_bbox(buf, &c.bbox);
                put_u64_le(buf, c.bytes);
                put_u32_le(buf, c.objects);
            }
        }
        // WAL records cross the wire as length-prefixed storage blobs —
        // the same bytes they occupy inside a segment, so replication
        // inherits the WAL codec's round-trip guarantees for free.
        ResponsePayload::WalBatch {
            leader_seq,
            records,
        } => {
            put_u8(buf, PAYLOAD_WAL_BATCH);
            put_u64_le(buf, *leader_seq);
            put_u32_le(buf, records.len() as u32);
            for rec in records {
                let blob = spade_storage::wal::encode_record(rec);
                put_u32_le(buf, blob.len() as u32);
                put_slice(buf, &blob);
            }
        }
    }
}

fn get_payload(buf: &mut &[u8]) -> Result<ResponsePayload, WireError> {
    match get_u8(buf).ok_or_else(|| corrupt("payload tag"))? {
        PAYLOAD_QUERY => Ok(ResponsePayload::Query(get_result(buf)?)),
        PAYLOAD_SQL => Ok(ResponsePayload::Sql(get_sql_result(buf)?)),
        PAYLOAD_EXPLAIN => Ok(ResponsePayload::Explain(get_string(buf)?)),
        PAYLOAD_ACK => {
            let seq = get_u64_le(buf).ok_or_else(|| corrupt("ack seq"))?;
            let generation = get_u64_le(buf).ok_or_else(|| corrupt("ack generation"))?;
            Ok(ResponsePayload::Ack { seq, generation })
        }
        PAYLOAD_CELL_STATS => {
            let generation = get_u64_le(buf).ok_or_else(|| corrupt("stats generation"))?;
            let seq = get_u64_le(buf).ok_or_else(|| corrupt("stats seq"))?;
            let n = get_u32_le(buf).ok_or_else(|| corrupt("cell count"))? as usize;
            if n > buf.len() {
                return Err(corrupt("cell count"));
            }
            let mut cells = Vec::with_capacity(n);
            for _ in 0..n {
                let bbox = get_bbox(buf)?;
                let bytes = get_u64_le(buf).ok_or_else(|| corrupt("cell bytes"))?;
                let objects = get_u32_le(buf).ok_or_else(|| corrupt("cell objects"))?;
                cells.push(spade_server::CellInfo {
                    bbox,
                    bytes,
                    objects,
                });
            }
            Ok(ResponsePayload::CellStats {
                generation,
                seq,
                cells,
            })
        }
        PAYLOAD_WAL_BATCH => {
            let leader_seq = get_u64_le(buf).ok_or_else(|| corrupt("batch leader seq"))?;
            let n = get_u32_le(buf).ok_or_else(|| corrupt("batch count"))? as usize;
            if n > buf.len() {
                return Err(corrupt("batch count"));
            }
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                let len = get_u32_le(buf).ok_or_else(|| corrupt("record length"))? as usize;
                let blob = get_bytes(buf, len).ok_or_else(|| corrupt("record bytes"))?;
                let rec = spade_storage::wal::decode_record(blob)
                    .map_err(|e| WireError::Corrupt(format!("wal record: {e}")))?;
                records.push(rec);
            }
            Ok(ResponsePayload::WalBatch {
                leader_seq,
                records,
            })
        }
        t => Err(WireError::Corrupt(format!("unknown payload tag {t}"))),
    }
}

fn put_data_type(buf: &mut Vec<u8>, t: DataType) {
    put_u8(
        buf,
        match t {
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Str => 3,
            DataType::Bytes => 4,
        },
    );
}

fn get_data_type(buf: &mut &[u8]) -> Result<DataType, WireError> {
    match get_u8(buf).ok_or_else(|| corrupt("data type"))? {
        1 => Ok(DataType::Int),
        2 => Ok(DataType::Float),
        3 => Ok(DataType::Str),
        4 => Ok(DataType::Bytes),
        t => Err(WireError::Corrupt(format!("unknown data type {t}"))),
    }
}

const STORAGE_UNKNOWN_TABLE: u8 = 1;
const STORAGE_UNKNOWN_COLUMN: u8 = 2;
const STORAGE_TYPE_MISMATCH: u8 = 3;
const STORAGE_ARITY: u8 = 4;
const STORAGE_DUPLICATE_TABLE: u8 = 5;
const STORAGE_PARSE: u8 = 6;
const STORAGE_IO: u8 = 7;
const STORAGE_CORRUPT: u8 = 8;
const STORAGE_CANCELLED: u8 = 9;
const STORAGE_UNSUPPORTED: u8 = 10;

fn put_storage_error(buf: &mut Vec<u8>, e: &StorageError) {
    match e {
        StorageError::UnknownTable(s) => {
            put_u8(buf, STORAGE_UNKNOWN_TABLE);
            put_str(buf, s);
        }
        StorageError::UnknownColumn(s) => {
            put_u8(buf, STORAGE_UNKNOWN_COLUMN);
            put_str(buf, s);
        }
        StorageError::TypeMismatch { column, expected } => {
            put_u8(buf, STORAGE_TYPE_MISMATCH);
            put_str(buf, column);
            put_data_type(buf, *expected);
        }
        StorageError::Arity { expected, got } => {
            put_u8(buf, STORAGE_ARITY);
            put_u64_le(buf, *expected as u64);
            put_u64_le(buf, *got as u64);
        }
        StorageError::DuplicateTable(s) => {
            put_u8(buf, STORAGE_DUPLICATE_TABLE);
            put_str(buf, s);
        }
        StorageError::Parse(s) => {
            put_u8(buf, STORAGE_PARSE);
            put_str(buf, s);
        }
        StorageError::Io(s) => {
            put_u8(buf, STORAGE_IO);
            put_str(buf, s);
        }
        StorageError::Corrupt(s) => {
            put_u8(buf, STORAGE_CORRUPT);
            put_str(buf, s);
        }
        StorageError::Cancelled => put_u8(buf, STORAGE_CANCELLED),
        StorageError::Unsupported(s) => {
            put_u8(buf, STORAGE_UNSUPPORTED);
            put_str(buf, s);
        }
    }
}

fn get_storage_error(buf: &mut &[u8]) -> Result<StorageError, WireError> {
    match get_u8(buf).ok_or_else(|| corrupt("storage error tag"))? {
        STORAGE_UNKNOWN_TABLE => Ok(StorageError::UnknownTable(get_string(buf)?)),
        STORAGE_UNKNOWN_COLUMN => Ok(StorageError::UnknownColumn(get_string(buf)?)),
        STORAGE_TYPE_MISMATCH => Ok(StorageError::TypeMismatch {
            column: get_string(buf)?,
            expected: get_data_type(buf)?,
        }),
        STORAGE_ARITY => Ok(StorageError::Arity {
            expected: get_u64_le(buf).ok_or_else(|| corrupt("arity"))? as usize,
            got: get_u64_le(buf).ok_or_else(|| corrupt("arity"))? as usize,
        }),
        STORAGE_DUPLICATE_TABLE => Ok(StorageError::DuplicateTable(get_string(buf)?)),
        STORAGE_PARSE => Ok(StorageError::Parse(get_string(buf)?)),
        STORAGE_IO => Ok(StorageError::Io(get_string(buf)?)),
        STORAGE_CORRUPT => Ok(StorageError::Corrupt(get_string(buf)?)),
        STORAGE_CANCELLED => Ok(StorageError::Cancelled),
        STORAGE_UNSUPPORTED => Ok(StorageError::Unsupported(get_string(buf)?)),
        t => Err(WireError::Corrupt(format!("unknown storage error tag {t}"))),
    }
}

const ERR_REJECTED: u8 = 1;
const ERR_CANCELLED: u8 = 2;
const ERR_DEADLINE: u8 = 3;
const ERR_UNKNOWN_DATASET: u8 = 4;
const ERR_UNKNOWN_NAMESPACE: u8 = 5;
const ERR_UNAUTHORIZED: u8 = 6;
const ERR_INVALID_NAME: u8 = 7;
const ERR_SHUTDOWN: u8 = 8;
const ERR_STORAGE: u8 = 9;
const ERR_REPLY_TOO_LARGE: u8 = 10;

fn put_service_error(buf: &mut Vec<u8>, e: &ServiceError) {
    match e {
        ServiceError::Rejected {
            estimated,
            capacity,
        } => {
            put_u8(buf, ERR_REJECTED);
            put_u64_le(buf, *estimated);
            put_u64_le(buf, *capacity);
        }
        ServiceError::Cancelled => put_u8(buf, ERR_CANCELLED),
        ServiceError::DeadlineExceeded => put_u8(buf, ERR_DEADLINE),
        ServiceError::UnknownDataset(s) => {
            put_u8(buf, ERR_UNKNOWN_DATASET);
            put_str(buf, s);
        }
        ServiceError::UnknownNamespace(s) => {
            put_u8(buf, ERR_UNKNOWN_NAMESPACE);
            put_str(buf, s);
        }
        ServiceError::Unauthorized(s) => {
            put_u8(buf, ERR_UNAUTHORIZED);
            put_str(buf, s);
        }
        ServiceError::InvalidName(s) => {
            put_u8(buf, ERR_INVALID_NAME);
            put_str(buf, s);
        }
        ServiceError::Shutdown => put_u8(buf, ERR_SHUTDOWN),
        ServiceError::ReplyTooLarge { size, max } => {
            put_u8(buf, ERR_REPLY_TOO_LARGE);
            put_u64_le(buf, *size);
            put_u64_le(buf, *max);
        }
        ServiceError::Storage(se) => {
            put_u8(buf, ERR_STORAGE);
            put_storage_error(buf, se);
        }
    }
}

fn get_service_error(buf: &mut &[u8]) -> Result<ServiceError, WireError> {
    match get_u8(buf).ok_or_else(|| corrupt("service error tag"))? {
        ERR_REJECTED => Ok(ServiceError::Rejected {
            estimated: get_u64_le(buf).ok_or_else(|| corrupt("rejected"))?,
            capacity: get_u64_le(buf).ok_or_else(|| corrupt("rejected"))?,
        }),
        ERR_CANCELLED => Ok(ServiceError::Cancelled),
        ERR_DEADLINE => Ok(ServiceError::DeadlineExceeded),
        ERR_UNKNOWN_DATASET => Ok(ServiceError::UnknownDataset(get_string(buf)?)),
        ERR_UNKNOWN_NAMESPACE => Ok(ServiceError::UnknownNamespace(get_string(buf)?)),
        ERR_UNAUTHORIZED => Ok(ServiceError::Unauthorized(get_string(buf)?)),
        ERR_INVALID_NAME => Ok(ServiceError::InvalidName(get_string(buf)?)),
        ERR_SHUTDOWN => Ok(ServiceError::Shutdown),
        ERR_STORAGE => Ok(ServiceError::Storage(get_storage_error(buf)?)),
        ERR_REPLY_TOO_LARGE => Ok(ServiceError::ReplyTooLarge {
            size: get_u64_le(buf).ok_or_else(|| corrupt("reply size"))?,
            max: get_u64_le(buf).ok_or_else(|| corrupt("reply cap"))?,
        }),
        t => Err(WireError::Corrupt(format!("unknown service error tag {t}"))),
    }
}

fn put_response(buf: &mut Vec<u8>, r: &QueryResponse) {
    put_payload(buf, &r.payload);
    put_stats(buf, &r.stats);
    put_duration(buf, r.queue_wait);
    put_duration(buf, r.exec_time);
}

fn get_response(buf: &mut &[u8]) -> Result<QueryResponse, WireError> {
    let payload = get_payload(buf)?;
    let stats = get_stats(buf)?;
    let queue_wait = get_duration(buf)?;
    let exec_time = get_duration(buf)?;
    Ok(QueryResponse {
        payload,
        stats,
        queue_wait,
        exec_time,
    })
}

fn finish(buf: &[u8], what: &str) -> Result<(), WireError> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(WireError::Corrupt(format!(
            "{} trailing bytes after {what}",
            buf.len()
        )))
    }
}

/// Encode a client message to a frame payload.
pub fn encode_client(msg: &ClientMsg) -> Vec<u8> {
    let mut buf = Vec::new();
    match msg {
        ClientMsg::Hello {
            version,
            namespace,
            token,
        } => {
            put_u8(&mut buf, CLIENT_HELLO);
            put_u16_le(&mut buf, *version);
            put_str(&mut buf, namespace);
            put_opt_str(&mut buf, token);
        }
        ClientMsg::Request(req) => {
            put_u8(&mut buf, CLIENT_REQUEST);
            put_request(&mut buf, req);
        }
        ClientMsg::Cancel => put_u8(&mut buf, CLIENT_CANCEL),
    }
    buf
}

/// Decode a frame payload as a client message (strict: trailing bytes are
/// corruption).
pub fn decode_client(mut buf: &[u8]) -> Result<ClientMsg, WireError> {
    let msg = match get_u8(&mut buf).ok_or_else(|| corrupt("client tag"))? {
        CLIENT_HELLO => {
            let version = get_u16_le(&mut buf).ok_or_else(|| corrupt("hello version"))?;
            let namespace = get_string(&mut buf)?;
            let token = get_opt_str(&mut buf)?;
            ClientMsg::Hello {
                version,
                namespace,
                token,
            }
        }
        CLIENT_REQUEST => ClientMsg::Request(get_request(&mut buf)?),
        CLIENT_CANCEL => ClientMsg::Cancel,
        t => return Err(WireError::Corrupt(format!("unknown client tag {t}"))),
    };
    finish(buf, "client message")?;
    Ok(msg)
}

/// Encode a server message to a frame payload.
pub fn encode_server(msg: &ServerMsg) -> Vec<u8> {
    let mut buf = Vec::new();
    match msg {
        ServerMsg::HelloOk { version, session } => {
            put_u8(&mut buf, SERVER_HELLO_OK);
            put_u16_le(&mut buf, *version);
            put_u64_le(&mut buf, *session);
        }
        ServerMsg::HelloErr { message } => {
            put_u8(&mut buf, SERVER_HELLO_ERR);
            put_str(&mut buf, message);
        }
        ServerMsg::Reply(Ok(resp)) => {
            put_u8(&mut buf, SERVER_REPLY_OK);
            put_response(&mut buf, resp);
        }
        ServerMsg::Reply(Err(e)) => {
            put_u8(&mut buf, SERVER_REPLY_ERR);
            put_service_error(&mut buf, e);
        }
    }
    buf
}

/// Decode a frame payload as a server message (strict: trailing bytes are
/// corruption).
pub fn decode_server(mut buf: &[u8]) -> Result<ServerMsg, WireError> {
    let msg = match get_u8(&mut buf).ok_or_else(|| corrupt("server tag"))? {
        SERVER_HELLO_OK => {
            let version = get_u16_le(&mut buf).ok_or_else(|| corrupt("hello version"))?;
            let session = get_u64_le(&mut buf).ok_or_else(|| corrupt("hello session"))?;
            ServerMsg::HelloOk { version, session }
        }
        SERVER_HELLO_ERR => ServerMsg::HelloErr {
            message: get_string(&mut buf)?,
        },
        SERVER_REPLY_OK => ServerMsg::Reply(Ok(get_response(&mut buf)?)),
        SERVER_REPLY_ERR => ServerMsg::Reply(Err(get_service_error(&mut buf)?)),
        t => return Err(WireError::Corrupt(format!("unknown server tag {t}"))),
    };
    finish(buf, "server message")?;
    Ok(msg)
}
