//! Property tests of the wire codec: every request and reply variant
//! survives encode → decode byte-exactly, and a mangled payload never
//! decodes as something else silently — it errors (or, for a bit flip,
//! at minimum never panics and never round-trips to a *different* valid
//! message while claiming success at the frame layer; the frame crc
//! catches transport flips, these tests attack the already-verified
//! payload bytes).

use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;
use spade_core::distance::DistanceConstraint;
use spade_core::query::{JoinQuery, QueryResult, SelectQuery};
use spade_core::stats::CacheOutcome;
use spade_core::QueryStats;
use spade_geometry::{BBox, Geometry, LineString, MultiPolygon, Point, Polygon};
use spade_net::proto::{
    decode_client, decode_server, encode_client, encode_server, ClientMsg, ServerMsg,
};
use spade_server::{QueryRequest, QueryResponse, ResponsePayload, ServiceError};
use spade_storage::geom::geometry_table;
use spade_storage::sql::SqlResult;
use spade_storage::StorageError;
use std::time::Duration;

// ---- Generators ----------------------------------------------------------

fn coord(rng: &mut TestRng) -> f64 {
    // Finite, varied magnitudes; equality must hold bit-exactly.
    (rng.next_f64() - 0.5) * 2e6
}

fn point(rng: &mut TestRng) -> Point {
    Point::new(coord(rng), coord(rng))
}

fn points(rng: &mut TestRng, min: usize) -> Vec<Point> {
    let n = min + (rng.next_u64() as usize) % 6;
    (0..n).map(|_| point(rng)).collect()
}

fn polygon(rng: &mut TestRng) -> Polygon {
    Polygon::new(points(rng, 3))
}

fn geometry(rng: &mut TestRng) -> Geometry {
    match rng.next_u64() % 4 {
        0 => Geometry::Point(point(rng)),
        1 => Geometry::LineString(LineString::new(points(rng, 2))),
        2 => Geometry::Polygon(polygon(rng)),
        _ => {
            let n = 1 + (rng.next_u64() as usize) % 3;
            Geometry::MultiPolygon(MultiPolygon::new((0..n).map(|_| polygon(rng)).collect()))
        }
    }
}

fn name(rng: &mut TestRng) -> String {
    let n = 1 + (rng.next_u64() as usize) % 12;
    (0..n)
        .map(|_| char::from(b'a' + (rng.next_u64() % 26) as u8))
        .collect()
}

fn select_query(rng: &mut TestRng) -> SelectQuery {
    match rng.next_u64() % 5 {
        0 => SelectQuery::Intersects(polygon(rng)),
        1 => SelectQuery::Range(BBox::new(point(rng), point(rng))),
        2 => SelectQuery::Contained(polygon(rng)),
        3 => {
            let c = match rng.next_u64() % 3 {
                0 => DistanceConstraint::Point(point(rng)),
                1 => DistanceConstraint::Line(LineString::new(points(rng, 2))),
                _ => DistanceConstraint::Polygon(polygon(rng)),
            };
            SelectQuery::WithinDistance(c, rng.next_f64() * 100.0)
        }
        _ => SelectQuery::Knn(point(rng), (rng.next_u64() % 100) as usize),
    }
}

fn join_query(rng: &mut TestRng) -> JoinQuery {
    match rng.next_u64() % 4 {
        0 => JoinQuery::Intersects,
        1 => JoinQuery::WithinDistance(rng.next_f64() * 50.0),
        2 => JoinQuery::Knn(1 + (rng.next_u64() % 20) as usize),
        _ => JoinQuery::CountPoints,
    }
}

fn request(rng: &mut TestRng, depth: u32) -> QueryRequest {
    // Explain recurses; cap the depth so generation terminates.
    let variants = if depth == 0 { 10 } else { 11 };
    match rng.next_u64() % variants {
        0 => QueryRequest::Select {
            dataset: name(rng),
            query: select_query(rng),
        },
        1 => QueryRequest::Join {
            left: name(rng),
            right: name(rng),
            query: join_query(rng),
        },
        2 => QueryRequest::Sql(format!("SELECT * FROM {} WHERE id = 1", name(rng))),
        3 => QueryRequest::Insert {
            dataset: name(rng),
            id: rng.next_u64() as u32,
            geometry: geometry(rng),
        },
        4 => QueryRequest::Delete {
            dataset: name(rng),
            id: rng.next_u64() as u32,
        },
        5 => QueryRequest::Flush { dataset: name(rng) },
        6 => QueryRequest::ShardSelect {
            dataset: name(rng),
            query: select_query(rng),
            cells: (rng.next_u64() as u32, rng.next_u64() as u32),
            include_delta: rng.next_u64().is_multiple_of(2),
        },
        7 => QueryRequest::ShardJoin {
            left: name(rng),
            right: name(rng),
            query: join_query(rng),
            pairs: (0..(rng.next_u64() as usize % 10))
                .map(|_| (rng.next_u64() as u32, rng.next_u64() as u32))
                .collect(),
            include_delta: rng.next_u64().is_multiple_of(2),
        },
        8 => QueryRequest::CellStats { dataset: name(rng) },
        9 => QueryRequest::WalFetch {
            after_seq: rng.next_u64(),
            limit: rng.next_u64() as u32,
        },
        _ => QueryRequest::Explain {
            analyze: rng.next_u64().is_multiple_of(2),
            request: Box::new(request(rng, depth - 1)),
        },
    }
}

fn wal_record(rng: &mut TestRng, seq: u64) -> spade_storage::wal::WalRecord {
    use spade_storage::wal::{WalOp, WalRecord};
    let op = match rng.next_u64() % 3 {
        0 => WalOp::Insert {
            id: rng.next_u64() as u32,
            geom: geometry(rng),
        },
        1 => WalOp::Delete {
            id: rng.next_u64() as u32,
        },
        _ => WalOp::Checkpoint {
            generation: rng.next_u64() % 1000,
            through_seq: rng.next_u64(),
        },
    };
    WalRecord {
        seq,
        dataset: name(rng),
        op,
    }
}

fn query_result(rng: &mut TestRng) -> QueryResult {
    let n = (rng.next_u64() as usize) % 20;
    match rng.next_u64() % 5 {
        0 => QueryResult::Ids((0..n).map(|_| rng.next_u64() as u32).collect()),
        1 => QueryResult::Ranked(
            (0..n)
                .map(|_| (rng.next_u64() as u32, rng.next_f64() * 1e4))
                .collect(),
        ),
        2 => QueryResult::Pairs(
            (0..n)
                .map(|_| (rng.next_u64() as u32, rng.next_u64() as u32))
                .collect(),
        ),
        3 => QueryResult::RankedPairs(
            (0..n)
                .map(|_| (rng.next_u64() as u32, rng.next_u64() as u32, coord(rng)))
                .collect(),
        ),
        _ => QueryResult::Counts(
            (0..n)
                .map(|_| (rng.next_u64() as u32, rng.next_u64()))
                .collect(),
        ),
    }
}

fn sql_result(rng: &mut TestRng) -> SqlResult {
    if rng.next_u64().is_multiple_of(2) {
        SqlResult::Affected(rng.next_u64() as usize % 10_000)
    } else {
        let items: Vec<(u32, Geometry)> = (0..(rng.next_u64() as usize % 5))
            .map(|i| (i as u32, geometry(rng)))
            .collect();
        SqlResult::Rows(geometry_table("t", &items).unwrap())
    }
}

fn stats(rng: &mut TestRng) -> QueryStats {
    let d = |rng: &mut TestRng| Duration::from_nanos(rng.next_u64() % (1 << 40));
    QueryStats {
        io_time: d(rng),
        gpu_time: d(rng),
        polygon_time: d(rng),
        cpu_time: d(rng),
        total_time: d(rng),
        io_hidden: d(rng),
        bytes_from_disk: rng.next_u64(),
        bytes_to_device: rng.next_u64(),
        passes: rng.next_u64() % 64,
        cells_loaded: rng.next_u64() % 4096,
        result_count: rng.next_u64() % 1_000_000,
        prefetch_hits: rng.next_u64() % 4096,
        prefetch_misses: rng.next_u64() % 4096,
        cache_hits: rng.next_u64() % 4096,
        result_cache: match rng.next_u64() % 4 {
            0 => CacheOutcome::Bypass,
            1 => CacheOutcome::Miss,
            2 => CacheOutcome::Hit,
            _ => CacheOutcome::CoalescedHit,
        },
        ..Default::default()
    }
}

fn storage_error(rng: &mut TestRng) -> StorageError {
    match rng.next_u64() % 10 {
        0 => StorageError::UnknownTable(name(rng)),
        1 => StorageError::UnknownColumn(name(rng)),
        2 => StorageError::TypeMismatch {
            column: name(rng),
            expected: match rng.next_u64() % 4 {
                0 => spade_storage::column::DataType::Int,
                1 => spade_storage::column::DataType::Float,
                2 => spade_storage::column::DataType::Str,
                _ => spade_storage::column::DataType::Bytes,
            },
        },
        3 => StorageError::Arity {
            expected: rng.next_u64() as usize % 32,
            got: rng.next_u64() as usize % 32,
        },
        4 => StorageError::DuplicateTable(name(rng)),
        5 => StorageError::Parse(name(rng)),
        6 => StorageError::Io(name(rng)),
        7 => StorageError::Corrupt(name(rng)),
        8 => StorageError::Unsupported(name(rng)),
        _ => StorageError::Cancelled,
    }
}

fn service_error(rng: &mut TestRng) -> ServiceError {
    match rng.next_u64() % 10 {
        0 => ServiceError::Rejected {
            estimated: rng.next_u64(),
            capacity: rng.next_u64(),
        },
        1 => ServiceError::Cancelled,
        2 => ServiceError::DeadlineExceeded,
        3 => ServiceError::UnknownDataset(name(rng)),
        4 => ServiceError::UnknownNamespace(name(rng)),
        5 => ServiceError::Unauthorized(name(rng)),
        6 => ServiceError::InvalidName(name(rng)),
        7 => ServiceError::Shutdown,
        8 => ServiceError::ReplyTooLarge {
            size: rng.next_u64(),
            max: rng.next_u64(),
        },
        _ => ServiceError::Storage(storage_error(rng)),
    }
}

fn response(rng: &mut TestRng) -> QueryResponse {
    let payload = match rng.next_u64() % 6 {
        0 => ResponsePayload::Query(query_result(rng)),
        1 => ResponsePayload::Sql(sql_result(rng)),
        2 => ResponsePayload::Explain(format!("plan for {}", name(rng))),
        3 => ResponsePayload::CellStats {
            generation: rng.next_u64() % 1000,
            seq: rng.next_u64(),
            cells: (0..(rng.next_u64() as usize % 12))
                .map(|_| spade_server::CellInfo {
                    bbox: BBox::new(point(rng), point(rng)),
                    bytes: rng.next_u64(),
                    objects: rng.next_u64() as u32,
                })
                .collect(),
        },
        4 => {
            let base = rng.next_u64() % (1 << 40);
            ResponsePayload::WalBatch {
                leader_seq: rng.next_u64(),
                records: (0..(rng.next_u64() as usize % 8))
                    .map(|i| wal_record(rng, base + i as u64))
                    .collect(),
            }
        }
        _ => ResponsePayload::Ack {
            seq: rng.next_u64(),
            generation: rng.next_u64() % 1000,
        },
    };
    QueryResponse {
        payload,
        stats: stats(rng),
        queue_wait: Duration::from_nanos(rng.next_u64() % (1 << 40)),
        exec_time: Duration::from_nanos(rng.next_u64() % (1 << 40)),
    }
}

fn client_msg(rng: &mut TestRng) -> ClientMsg {
    match rng.next_u64() % 4 {
        0 => ClientMsg::Hello {
            version: rng.next_u64() as u16,
            namespace: name(rng),
            token: if rng.next_u64().is_multiple_of(2) {
                Some(name(rng))
            } else {
                None
            },
        },
        1 => ClientMsg::Cancel,
        _ => ClientMsg::Request(request(rng, 2)),
    }
}

fn server_msg(rng: &mut TestRng) -> ServerMsg {
    match rng.next_u64() % 4 {
        0 => ServerMsg::HelloOk {
            version: rng.next_u64() as u16,
            session: rng.next_u64(),
        },
        1 => ServerMsg::HelloErr { message: name(rng) },
        2 => ServerMsg::Reply(Err(service_error(rng))),
        _ => ServerMsg::Reply(Ok(response(rng))),
    }
}

// ---- Properties ----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn client_messages_round_trip(msg in FnStrategy(client_msg)) {
        let bytes = encode_client(&msg);
        let back = decode_client(&bytes).expect("decode what we encoded");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn server_messages_round_trip(msg in FnStrategy(server_msg)) {
        let bytes = encode_server(&msg);
        let back = decode_server(&bytes).expect("decode what we encoded");
        // QueryResponse has no PartialEq (it carries durations meant for
        // humans); Debug equality is field-complete for these types.
        prop_assert_eq!(format!("{back:?}"), format!("{msg:?}"));
    }

    #[test]
    fn truncated_client_payloads_error(msg in FnStrategy(client_msg), frac in 0.0f64..1.0) {
        let bytes = encode_client(&msg);
        if bytes.len() > 1 {
            let cut = 1 + ((bytes.len() - 1) as f64 * frac) as usize;
            if cut < bytes.len() {
                prop_assert!(decode_client(&bytes[..cut]).is_err(),
                    "truncation to {cut}/{} decoded", bytes.len());
            }
        }
    }

    #[test]
    fn truncated_server_payloads_error(msg in FnStrategy(server_msg), frac in 0.0f64..1.0) {
        let bytes = encode_server(&msg);
        if bytes.len() > 1 {
            let cut = 1 + ((bytes.len() - 1) as f64 * frac) as usize;
            if cut < bytes.len() {
                prop_assert!(decode_server(&bytes[..cut]).is_err(),
                    "truncation to {cut}/{} decoded", bytes.len());
            }
        }
    }

    #[test]
    fn trailing_garbage_errors(msg in FnStrategy(client_msg), extra in 1usize..16) {
        let mut bytes = encode_client(&msg);
        bytes.extend(std::iter::repeat_n(0xAB, extra));
        prop_assert!(decode_client(&bytes).is_err());
    }

    #[test]
    fn corrupted_payloads_never_panic(msg in FnStrategy(server_msg), flips in prop::collection::vec((0.0f64..1.0, 0u64..8), 1..4)) {
        let mut bytes = encode_server(&msg);
        for (pos, bit) in flips {
            let i = ((bytes.len() - 1) as f64 * pos) as usize;
            bytes[i] ^= 1 << bit;
        }
        // Any outcome but a panic is acceptable: most flips error, a flip
        // inside a string or number decodes as a different valid value.
        let _ = decode_server(&bytes);
    }
}
