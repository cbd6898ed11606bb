//! Integration tests of the concurrent query service.
//!
//! The differential tests pin down the service's core guarantee: routing a
//! query through sessions, admission, and the worker pool changes *when*
//! it runs, never *what* it returns — results are byte-identical
//! (`PartialEq` over [`QueryResult`]) to a fresh single-threaded engine.
//! The property tests pin down the admission/cancellation invariants:
//! reservations never exceed device capacity, every submitted query
//! resolves (no deadlock), and cancellation mid-join leaves the device
//! ledger balanced.

use proptest::prelude::*;
use spade_core::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade_core::query::{self, JoinQuery, QueryResult, SelectQuery};
use spade_core::{CancelToken, EngineConfig, QueryCtx, Spade};
use spade_geometry::{BBox, Point, Polygon};
use spade_index::GridIndex;
use spade_server::{QueryRequest, QueryService, ResponsePayload, ServiceConfig, ServiceError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `test_small` with the canvases shrunk further: these tests run many
/// queries through the software rasterizer in debug builds, and both sides
/// of every differential comparison share the config, so resolution only
/// costs time. The throughput test keeps `test_small` proper.
fn tiny_config() -> EngineConfig {
    let mut c = EngineConfig::test_small();
    c.resolution = 128;
    c
}

fn scatter(n: usize, extent: f64, seed: u64) -> Vec<Point> {
    let unit = spade_datagen::spider::uniform_points(n, seed);
    spade_datagen::spider::scale_points(&unit, &BBox::new(Point::ZERO, Point::new(extent, extent)))
}

fn polygon_field() -> Vec<Polygon> {
    (0..5)
        .flat_map(|i| {
            (0..5).map(move |j| {
                let min = Point::new(i as f64 * 20.0 + 1.5, j as f64 * 20.0 + 1.5);
                Polygon::rect(BBox::new(min, min + Point::new(16.0, 16.0)))
            })
        })
        .collect()
}

fn constraint() -> Polygon {
    Polygon::new(vec![
        Point::new(10.0, 15.0),
        Point::new(85.0, 25.0),
        Point::new(70.0, 80.0),
        Point::new(20.0, 70.0),
    ])
}

fn indexed_points(cell: f64) -> IndexedDataset {
    let d = Dataset::from_points("pts", scatter(800, 100.0, 11));
    let grid = GridIndex::build(None, &d.objects, cell).unwrap();
    IndexedDataset::new("pts", DatasetKind::Points, grid)
}

fn indexed_polys(cell: f64) -> IndexedDataset {
    let d = Dataset::from_polygons("polys", polygon_field());
    let grid = GridIndex::build(None, &d.objects, cell).unwrap();
    IndexedDataset::new("polys", DatasetKind::Polygons, grid)
}

/// The mixed workload every differential test replays.
fn workload() -> Vec<QueryRequest> {
    let r = |a: (f64, f64), b: (f64, f64)| BBox::new(Point::new(a.0, a.1), Point::new(b.0, b.1));
    vec![
        QueryRequest::Select {
            dataset: "pts".into(),
            query: SelectQuery::Range(r((20.0, 20.0), (60.0, 55.0))),
        },
        QueryRequest::Select {
            dataset: "pts".into(),
            query: SelectQuery::Intersects(constraint()),
        },
        QueryRequest::Select {
            dataset: "pts".into(),
            query: SelectQuery::WithinDistance(
                spade_core::distance::DistanceConstraint::Point(Point::new(50.0, 50.0)),
                12.5,
            ),
        },
        QueryRequest::Select {
            dataset: "pts".into(),
            query: SelectQuery::Knn(Point::new(33.0, 66.0), 10),
        },
        QueryRequest::Select {
            dataset: "polys".into(),
            query: SelectQuery::Intersects(constraint()),
        },
        QueryRequest::Select {
            dataset: "polys".into(),
            query: SelectQuery::Contained(constraint()),
        },
        QueryRequest::Join {
            left: "polys".into(),
            right: "pts".into(),
            query: JoinQuery::Intersects,
        },
        QueryRequest::Join {
            left: "polys".into(),
            right: "pts".into(),
            query: JoinQuery::CountPoints,
        },
    ]
}

/// What a fresh, single-threaded engine says each workload entry returns.
fn baseline(config: &EngineConfig) -> Vec<QueryResult> {
    let spade = Spade::new(config.clone());
    let pts = indexed_points(25.0);
    let polys = indexed_polys(25.0);
    workload()
        .iter()
        .map(|req| match req {
            QueryRequest::Select { dataset, query } => {
                let d = if dataset == "pts" { &pts } else { &polys };
                query::run_select_ctx(&spade, d, query, &QueryCtx::default())
                    .unwrap()
                    .result
            }
            QueryRequest::Join { query, .. } => {
                query::run_join_ctx(&spade, &polys, &pts, query, &QueryCtx::default())
                    .unwrap()
                    .result
            }
            other => unreachable!("workload has only selects and joins, not {other:?}"),
        })
        .collect()
}

fn service(config: ServiceConfig) -> QueryService {
    let svc = QueryService::new(config);
    svc.register_indexed("pts", indexed_points(25.0));
    svc.register_indexed("polys", indexed_polys(25.0));
    svc
}

fn expect_query(payload: ResponsePayload) -> QueryResult {
    match payload {
        ResponsePayload::Query(q) => q,
        other => panic!("expected spatial result, got {other:?}"),
    }
}

#[test]
fn differential_one_session() {
    let config = tiny_config();
    let expected = baseline(&config);
    let svc = service(ServiceConfig {
        engine: config,
        workers: 2,
        fairness_cap: 2,
        wal_dir: None,
    });
    let session = svc.session();
    for (req, want) in workload().into_iter().zip(&expected) {
        let resp = session.submit(req).wait().expect("query succeeds");
        assert_eq!(&expect_query(resp.payload), want);
    }
    let snap = svc.stats();
    assert_eq!(snap.completed, expected.len() as u64);
    assert_eq!(snap.failed + snap.rejected + snap.cancelled, 0);
}

#[test]
fn differential_sixteen_sessions() {
    let config = tiny_config();
    let expected = Arc::new(baseline(&config));
    let svc = Arc::new(service(ServiceConfig {
        engine: config,
        workers: 4,
        fairness_cap: 2,
        wal_dir: None,
    }));
    std::thread::scope(|s| {
        for t in 0..16u64 {
            let svc = Arc::clone(&svc);
            let expected = Arc::clone(&expected);
            s.spawn(move || {
                let session = svc.session();
                // Each session walks the workload at a different offset so
                // distinct query classes overlap in flight.
                let reqs = workload();
                let n = reqs.len();
                // Each session runs half the workload; the rotation covers
                // every workload entry (and overlaps every pair of query
                // classes) across the 16 sessions.
                let tickets: Vec<_> = (0..n / 2)
                    .map(|i| (i + t as usize) % n)
                    .map(|i| (i, session.submit(reqs[i].clone())))
                    .collect();
                for (i, ticket) in tickets {
                    let resp = ticket.wait().expect("query succeeds");
                    assert_eq!(&expect_query(resp.payload), &expected[i]);
                }
            });
        }
    });
    let snap = svc.stats();
    assert_eq!(snap.failed + snap.rejected, 0);
    assert_eq!(snap.completed, snap.submitted);
    // All device memory and reservations returned once the result cache
    // (whose resident entries are deliberately ledger-charged) is drained.
    svc.engine().result_cache.clear();
    assert_eq!(svc.engine().device.used(), 0);
}

/// Sixteen reader sessions race one writer session that inserts, replaces,
/// deletes, and periodically flushes a WAL-backed dataset while the
/// background compactor churns generations underneath. Invariants: every
/// ticket resolves (no deadlock), no read is torn (an id appears at most
/// once per result, whatever generation the query ran against), the final
/// state equals the writer's script, and the ledgers balance.
#[test]
fn sixteen_sessions_with_live_writer() {
    let wal_dir = std::env::temp_dir().join(format!("spade-svc-stress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut config = tiny_config();
    config.compact_trigger_bytes = 512; // keep the compactor busy
    let svc = Arc::new(service(ServiceConfig {
        engine: config,
        workers: 4,
        fairness_cap: 2,
        wal_dir: Some(wal_dir.clone()),
    }));

    const WRITES: u32 = 150;
    std::thread::scope(|s| {
        // One writer: fresh inserts, replacements of its own earlier ids,
        // deletes of every tenth, a flush every fortieth.
        {
            let svc = Arc::clone(&svc);
            s.spawn(move || {
                let session = svc.session();
                for i in 0..WRITES {
                    let geometry = spade_geometry::Geometry::Point(Point::new(
                        (i % 23) as f64 * 4.2,
                        (i % 29) as f64 * 3.3,
                    ));
                    let req = if i % 10 == 9 {
                        QueryRequest::Delete {
                            dataset: "pts".into(),
                            id: 20_000 + i - 5, // delete an id inserted earlier
                        }
                    } else {
                        QueryRequest::Insert {
                            dataset: "pts".into(),
                            id: 20_000 + i,
                            geometry,
                        }
                    };
                    let resp = session.submit(req).wait().expect("write succeeds");
                    assert!(resp.payload.ack().is_some());
                    if i % 40 == 39 {
                        session
                            .submit(QueryRequest::Flush {
                                dataset: "pts".into(),
                            })
                            .wait()
                            .expect("flush succeeds");
                    }
                }
            });
        }
        // Sixteen readers: each replays the workload; results vary with the
        // in-flight writes, but every result must be internally consistent.
        for t in 0..16u64 {
            let svc = Arc::clone(&svc);
            s.spawn(move || {
                let session = svc.session();
                // Half the workload each; the rotation still covers every
                // query class across the 16 sessions.
                let reqs = workload();
                for i in 0..reqs.len() / 2 {
                    let req = reqs[(i + t as usize) % reqs.len()].clone();
                    let resp = session.submit(req).wait().expect("query succeeds");
                    if let ResponsePayload::Query(QueryResult::Ids(ids)) = &resp.payload {
                        let mut dedup = ids.clone();
                        dedup.sort_unstable();
                        dedup.dedup();
                        assert_eq!(dedup.len(), ids.len(), "torn read: duplicate ids");
                    }
                }
            });
        }
    });

    // Quiesce: flush folds every surviving write into a fresh generation.
    let session = svc.session();
    session
        .submit(QueryRequest::Flush {
            dataset: "pts".into(),
        })
        .wait()
        .expect("final flush succeeds");

    // The writer's script, replayed sequentially, is the expected state.
    let mut expect: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for i in 0..WRITES {
        if i % 10 == 9 {
            expect.remove(&(20_000 + i - 5));
        } else {
            expect.insert(20_000 + i);
        }
    }
    let resp = session
        .submit(QueryRequest::Select {
            dataset: "pts".into(),
            query: SelectQuery::Range(BBox::new(
                Point::new(-10.0, -10.0),
                Point::new(200.0, 200.0),
            )),
        })
        .wait()
        .expect("final query succeeds");
    let got: Vec<u32> = match resp.payload {
        ResponsePayload::Query(QueryResult::Ids(ids)) => {
            ids.into_iter().filter(|id| *id >= 20_000).collect()
        }
        other => panic!("expected ids, got {other:?}"),
    };
    assert_eq!(got, expect.into_iter().collect::<Vec<u32>>());

    let snap = svc.stats();
    assert_eq!(snap.failed + snap.rejected + snap.cancelled, 0);
    assert_eq!(snap.completed, snap.submitted);
    assert_eq!(snap.accounted(), snap.submitted);
    // Resident cache entries hold ledger-charged bytes by design; drain
    // them, then every reservation must be back.
    svc.engine().result_cache.clear();
    assert_eq!(svc.engine().device.used(), 0);
    drop(svc);
    std::fs::remove_dir_all(&wal_dir).ok();
}

#[test]
fn sql_round_trips_through_sessions() {
    let svc = QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers: 2,
        fairness_cap: 2,
        wal_dir: None,
    });
    let session = svc.session();
    for stmt in [
        "CREATE TABLE t (id INT, score FLOAT)",
        "INSERT INTO t VALUES (1, 0.25)",
        "INSERT INTO t VALUES (2, 0.75)",
        "INSERT INTO t VALUES (3, 0.5)",
    ] {
        session
            .submit(QueryRequest::Sql(stmt.into()))
            .wait()
            .expect("statement succeeds");
    }
    let resp = session
        .submit(QueryRequest::Sql(
            "SELECT id FROM t WHERE score >= 0.5 ORDER BY score DESC".into(),
        ))
        .wait()
        .expect("select succeeds");

    // The same statements against a standalone database give the same rows.
    let reference = spade_storage::Database::in_memory();
    for stmt in [
        "CREATE TABLE t (id INT, score FLOAT)",
        "INSERT INTO t VALUES (1, 0.25)",
        "INSERT INTO t VALUES (2, 0.75)",
        "INSERT INTO t VALUES (3, 0.5)",
    ] {
        spade_storage::sql::execute(&reference, stmt).unwrap();
    }
    let want = spade_storage::sql::execute(
        &reference,
        "SELECT id FROM t WHERE score >= 0.5 ORDER BY score DESC",
    )
    .unwrap();
    match resp.payload {
        ResponsePayload::Sql(got) => assert_eq!(got, want),
        other => panic!("expected SQL result, got {other:?}"),
    }
}

#[test]
fn unknown_dataset_fails_fast() {
    let svc = service(ServiceConfig {
        engine: tiny_config(),
        workers: 1,
        fairness_cap: 1,
        wal_dir: None,
    });
    let err = svc
        .session()
        .submit(QueryRequest::Select {
            dataset: "nope".into(),
            query: SelectQuery::Range(BBox::new(Point::ZERO, Point::new(1.0, 1.0))),
        })
        .wait()
        .unwrap_err();
    assert_eq!(err, ServiceError::UnknownDataset("nope".into()));
}

/// A point-only query class over polygon data used to reach
/// `Dataset::as_points` and panic on the worker thread, which died holding
/// its admission reservation while the ticket waited forever. The
/// dispatcher refuses the combination up front: the ticket resolves to an
/// error, the lone worker lives to serve the next query, and no tenant
/// holds a reservation afterwards. A panic the dispatcher cannot foresee —
/// a data set registered as points that holds polygons — is caught by the
/// worker's unwind guard with the same outcome, and counted.
#[test]
fn kind_mismatch_is_an_error_not_a_dead_worker() {
    let svc = service(ServiceConfig {
        engine: tiny_config(),
        workers: 1,
        fairness_cap: 1,
        wal_dir: None,
    });
    let session = svc.session();
    // Every failing job below counts no optimizer decision for its tenant.
    let decided = || -> u64 {
        (svc.metrics_text().lines())
            .filter(|l| l.starts_with("spade_optimizer_decisions_total{"))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum()
    };
    let mismatched = [
        QueryRequest::Join {
            left: "polys".into(),
            right: "pts".into(),
            query: JoinQuery::WithinDistance(5.0),
        },
        QueryRequest::Join {
            left: "pts".into(),
            right: "polys".into(),
            query: JoinQuery::Knn(3),
        },
        QueryRequest::Join {
            left: "polys".into(),
            right: "polys".into(),
            query: JoinQuery::CountPoints,
        },
        QueryRequest::Select {
            dataset: "polys".into(),
            query: SelectQuery::Knn(Point::new(33.0, 66.0), 10),
        },
    ];
    for request in mismatched {
        let err = session.submit(request.clone()).wait().unwrap_err();
        assert!(
            matches!(
                err,
                ServiceError::Storage(spade_storage::StorageError::Unsupported(_))
            ),
            "{request:?} answered {err:?}"
        );
    }
    let mislabelled = Dataset::from_polygons("liar", polygon_field()).objects;
    svc.register(
        "liar",
        Dataset::from_objects("liar", DatasetKind::Points, mislabelled),
    );
    let panicked = session.submit(QueryRequest::Select {
        dataset: "liar".into(),
        query: SelectQuery::Knn(Point::new(33.0, 66.0), 10),
    });
    match panicked.wait().unwrap_err() {
        ServiceError::Storage(spade_storage::StorageError::Io(what)) => {
            assert!(what.contains("panicked: expected point"), "{what}")
        }
        other => panic!("expected the panic in band, got {other:?}"),
    }
    // The same lie told by a grid: the kernel panics with the constraint
    // canvas and a cell on the device, and the unwind takes both off.
    let cells = Dataset::from_polygons("liar", polygon_field()).objects;
    let grid = GridIndex::build(None, &cells, 40.0).unwrap();
    let mislabelled = IndexedDataset::new("grid-liar", DatasetKind::Points, grid);
    svc.register_indexed("grid-liar", mislabelled);
    let panicked = session.submit(QueryRequest::Select {
        dataset: "grid-liar".into(),
        query: SelectQuery::Knn(Point::new(33.0, 66.0), 10),
    });
    assert!(panicked.wait().is_err());
    assert!(svc.engine().device.peak() > 0);
    assert_eq!(svc.engine().device.used(), 0);
    // A half-true grid: its first cell's real points run their Map before
    // its last cell's polygon, labelled a point, panics — the job decided,
    // then failed.
    let mut half = Dataset::from_points("half-liar", scatter(50, 30.0, 5)).objects;
    let far = BBox::new(Point::new(90.0, 90.0), Point::new(95.0, 95.0));
    half.push((50, spade_geometry::Geometry::Polygon(Polygon::rect(far))));
    let grid = GridIndex::build(None, &half, 40.0).unwrap();
    let half_liar = IndexedDataset::new("half-liar", DatasetKind::Points, grid);
    svc.register_indexed("half-liar", half_liar);
    let everything = BBox::new(Point::ZERO, Point::new(100.0, 100.0));
    let failed = session.submit(QueryRequest::Select {
        dataset: "half-liar".into(),
        query: SelectQuery::Range(everything),
    });
    assert!(failed.wait().is_err());
    assert_eq!(decided(), 0, "a failed job counted its decisions");
    let next = session.submit(workload().remove(0)).wait();
    assert!(next.is_ok(), "the worker must survive: {next:?}");
    assert!(decided() > 0, "a completed select counts its Map");
    let metrics = svc.metrics_text();
    assert!(metrics.contains("\nspade_worker_panics_total 3\n"));
    for line in metrics
        .lines()
        .filter(|l| l.starts_with("spade_tenant_reserved_bytes{"))
    {
        assert!(line.ends_with(" 0"), "leaked reservation: {line}");
    }
    let snap = svc.stats();
    assert_eq!((snap.running, snap.accounted()), (0, snap.submitted));
}

/// Admission reserves one cell per side plus a distance canvas for a
/// distance or kNN join, and the pair walk keeps that promise: the device
/// peak of each, alone on a fresh 1-worker service, is non-zero and within
/// the estimate (read back from a service too small to admit it).
#[test]
fn distance_and_knn_joins_run_inside_their_reservation() {
    let config = |engine| ServiceConfig {
        engine,
        workers: 1,
        fairness_cap: 1,
        wal_dir: None,
    };
    let mut too_small = tiny_config();
    too_small.device_memory = 16 << 10;
    let refusing = service(config(too_small));
    for query in [JoinQuery::WithinDistance(3.0), JoinQuery::Knn(3)] {
        let request = QueryRequest::Join {
            left: "pts".into(),
            right: "pts".into(),
            query,
        };
        let refused = refusing.session().submit(request.clone()).wait();
        let Err(ServiceError::Rejected { estimated, .. }) = refused else {
            panic!("expected a rejection, got {refused:?}");
        };
        let svc = service(config(tiny_config()));
        let reply = svc.session().submit(request.clone()).wait().unwrap();
        assert!(reply.stats.cells_loaded > 0 && !expect_query(reply.payload).is_empty());
        let peak = svc.engine().device.peak();
        assert!(
            0 < peak && peak <= estimated,
            "{request:?}: {peak} of {estimated}"
        );
        for line in svc
            .metrics_text()
            .lines()
            .filter(|l| l.starts_with("spade_tenant_reserved_bytes{"))
        {
            assert!(line.ends_with(" 0"), "leaked reservation: {line}");
        }
    }
}

#[test]
fn oversized_footprint_is_rejected() {
    // A device smaller than one constraint canvas can never admit an
    // indexed query: the estimate exceeds capacity, so the service rejects
    // at submit instead of queueing forever.
    let mut engine = tiny_config();
    engine.device_memory = 64 << 10;
    let svc = service(ServiceConfig {
        engine,
        workers: 1,
        fairness_cap: 1,
        wal_dir: None,
    });
    let err = svc
        .session()
        .submit(QueryRequest::Select {
            dataset: "pts".into(),
            query: SelectQuery::Intersects(constraint()),
        })
        .wait()
        .unwrap_err();
    match err {
        ServiceError::Rejected {
            estimated,
            capacity,
        } => assert!(estimated > capacity),
        other => panic!("expected rejection, got {other:?}"),
    }
    assert_eq!(svc.stats().rejected, 1);
}

#[test]
fn cancelled_mid_join_leaves_ledger_balanced() {
    // Pace transfers at a very low modeled bandwidth so the join reliably
    // spans many cell boundaries in wall time, then cancel mid-flight.
    let mut engine = tiny_config();
    engine.pace_transfers = true;
    engine.bandwidth = 2.0e6; // 2 MB/s: the constraint canvas alone takes ~130 ms
    let svc = service(ServiceConfig {
        engine,
        workers: 1,
        fairness_cap: 1,
        wal_dir: None,
    });
    let session = svc.session();
    let token = CancelToken::new();
    let ticket = session.submit_with_token(
        QueryRequest::Join {
            left: "polys".into(),
            right: "pts".into(),
            query: JoinQuery::Intersects,
        },
        token.clone(),
    );
    std::thread::sleep(Duration::from_millis(40));
    token.cancel();
    let err = ticket.wait().unwrap_err();
    assert_eq!(err, ServiceError::Cancelled);
    assert_eq!(
        svc.engine().device.used(),
        0,
        "cancellation must free every device allocation"
    );
    assert_eq!(svc.stats().cancelled, 1);
}

#[test]
fn deadline_expires_queued_or_running() {
    let svc = service(ServiceConfig {
        engine: tiny_config(),
        workers: 1,
        fairness_cap: 1,
        wal_dir: None,
    });
    let session = svc.session();
    let ticket = session.submit_with_deadline(
        QueryRequest::Join {
            left: "polys".into(),
            right: "pts".into(),
            query: JoinQuery::Intersects,
        },
        Duration::ZERO,
    );
    let err = ticket.wait().unwrap_err();
    assert_eq!(err, ServiceError::DeadlineExceeded);
    assert_eq!(svc.engine().device.used(), 0);
}

#[test]
fn snapshot_accounts_for_every_submission() {
    let svc = service(ServiceConfig {
        engine: tiny_config(),
        workers: 2,
        fairness_cap: 2,
        wal_dir: None,
    });
    let session = svc.session();
    let mut tickets = Vec::new();
    for _ in 0..3 {
        for req in workload() {
            tickets.push(session.submit(req));
        }
    }
    for t in tickets {
        t.wait().expect("query succeeds");
    }
    let snap = svc.stats();
    assert_eq!(snap.queue_depth, 0);
    assert_eq!(snap.running, 0);
    assert_eq!(snap.accounted(), snap.submitted);
    assert_eq!(snap.admitted, snap.submitted);
    assert!(snap.total_exec > Duration::ZERO);
    assert!(snap.p50_latency > Duration::ZERO);
    assert!(snap.p95_latency >= snap.p50_latency);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random mixes of queries, deadlines, and cancels: every ticket
    /// resolves (no deadlock), reservations never exceed device capacity,
    /// and the idle service holds no device memory or reservations.
    #[test]
    fn admission_invariants_under_random_load(
        seeds in prop::collection::vec(0u64..1_000, 8..16),
        workers in 1usize..4,
        cap in 1usize..3,
    ) {
        let svc = Arc::new(service(ServiceConfig {
            engine: tiny_config(),
            workers,
            fairness_cap: cap,
            wal_dir: None,
        }));
        let reqs = workload();
        let capacity = svc.engine().device.capacity();
        let tickets: Vec<_> = seeds
            .iter()
            .map(|&s| {
                let session = svc.session();
                let req = reqs[(s as usize) % reqs.len()].clone();
                match s % 3 {
                    0 => session.submit(req),
                    1 => session.submit_with_deadline(req, Duration::from_millis(s % 7)),
                    _ => {
                        let t = session.submit(req);
                        if s % 2 == 0 {
                            t.cancel();
                        }
                        t
                    }
                }
            })
            .collect();
        for t in tickets {
            match t.wait() {
                Ok(_)
                | Err(ServiceError::Cancelled)
                | Err(ServiceError::DeadlineExceeded) => {}
                Err(other) => {
                    prop_assert!(false, "unexpected error: {other}");
                }
            }
            prop_assert!(svc.engine().device.used() <= capacity);
        }
        let snap = svc.stats();
        prop_assert_eq!(snap.queue_depth, 0);
        prop_assert_eq!(snap.running, 0);
        prop_assert_eq!(snap.accounted(), snap.submitted);
        // Drain the (ledger-charged) result cache before checking that the
        // device ledger is balanced.
        svc.engine().result_cache.clear();
        prop_assert_eq!(svc.engine().device.used(), 0);
    }
}

/// Acceptance: concurrency must buy wall-clock. With paced transfers the
/// device bus is the modeled bottleneck (§5.4), and four sessions overlap
/// their transfer stalls. Release-only: the CI concurrency job runs it.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive; run in release")]
fn four_sessions_beat_one_by_1_5x() {
    let mut engine = EngineConfig::test_small();
    engine.pace_transfers = true;
    engine.bandwidth = 2.0e8; // 200 MB/s: ~5 ms per constraint canvas
    engine.result_cache_enabled = false; // the repeats must render, not hit
    let make = |engine: EngineConfig| {
        service(ServiceConfig {
            engine,
            workers: 4,
            fairness_cap: 2,
            wal_dir: None,
        })
    };
    let req = || QueryRequest::Select {
        dataset: "pts".into(),
        query: SelectQuery::Intersects(constraint()),
    };
    const PER_SESSION: usize = 12;

    // One session, strictly sequential.
    let svc = make(engine.clone());
    let session = svc.session();
    let t0 = Instant::now();
    for _ in 0..4 * PER_SESSION {
        session.submit(req()).wait().expect("query succeeds");
    }
    let solo = t0.elapsed();
    drop(svc);

    // Four sessions, each sequential, running concurrently.
    let svc = Arc::new(make(engine));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let svc = Arc::clone(&svc);
            s.spawn(move || {
                let session = svc.session();
                for _ in 0..PER_SESSION {
                    session.submit(req()).wait().expect("query succeeds");
                }
            });
        }
    });
    let four = t0.elapsed();

    let speedup = solo.as_secs_f64() / four.as_secs_f64();
    assert!(
        speedup > 1.5,
        "expected >1.5x throughput at 4 sessions, got {speedup:.2}x \
         (solo {solo:?}, four sessions {four:?})"
    );
}

/// `metrics_text()` must expose the admission counters, the queue/exec
/// wall-split histograms, and the engine transfer/cache counters in
/// Prometheus text exposition format after real queries ran.
#[test]
fn metrics_text_exposes_service_and_engine_counters() {
    let svc = service(ServiceConfig {
        engine: tiny_config(),
        workers: 2,
        fairness_cap: 4,
        wal_dir: None,
    });
    let session = svc.session();
    for req in workload() {
        session.submit(req).wait().expect("query succeeds");
    }
    let text = svc.metrics_text();

    let value_of = |metric: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(metric) && l.split_whitespace().count() == 2)
            .unwrap_or_else(|| panic!("metric '{metric}' missing:\n{text}"))
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse::<f64>()
            .unwrap() as u64
    };
    let n = workload().len() as u64;
    assert_eq!(value_of("spade_queries_submitted_total"), n);
    assert_eq!(value_of("spade_queries_completed_total"), n);
    assert_eq!(value_of("spade_queries_rejected_total"), 0);
    assert_eq!(value_of("spade_queue_wait_seconds_count"), n);
    assert_eq!(value_of("spade_exec_seconds_count"), n);
    // The out-of-core workload moved bytes and ran pipeline passes.
    assert!(value_of("spade_bytes_to_device_total") > 0);
    assert!(value_of("spade_passes_total") > 0);
    assert!(value_of("spade_cells_loaded_total") > 0);
    // Exposition format: every metric carries HELP/TYPE headers, and the
    // histograms end in a +Inf bucket that equals their count.
    assert!(text.contains("# HELP spade_exec_seconds "));
    assert!(text.contains("# TYPE spade_exec_seconds histogram"));
    assert!(text.contains("spade_exec_seconds_bucket{le=\"+Inf\"}"));
    assert!(text.contains("# TYPE spade_queries_submitted_total counter"));
    assert!(text.contains("# TYPE spade_queue_depth gauge"));
    // The shared render executor and framebuffer arena report through the
    // same endpoint: the workload dispatched parallel pipeline stages and
    // recycled transient render targets.
    assert!(value_of("spade_pool_workers") >= 1);
    assert_eq!(value_of("spade_pool_busy"), 0);
    assert!(value_of("spade_pool_jobs_total") > 0);
    assert!(value_of("spade_pool_tasks_total") >= value_of("spade_pool_jobs_total"));
    assert!(value_of("spade_arena_misses_total") > 0);
    assert!(
        value_of("spade_arena_hits_total") > 0,
        "workload re-renders same-size canvases; arena should hit:\n{text}"
    );
    // Nothing checked out between queries; retained bytes respect the cap.
    assert_eq!(value_of("spade_arena_live_bytes"), 0);
    assert!(text.contains("# TYPE spade_pool_jobs_total counter"));
    assert!(text.contains("# TYPE spade_arena_pooled_bytes gauge"));
}

/// Sixteen sessions hammer one shared executor + arena with draw calls of
/// wildly different sizes (tiny knn circles next to full-canvas joins).
/// Every result must still match the sequential baseline and the arena must
/// end fully returned. Tier-1 runs it; so does the CI `release` job, at
/// release speed.
#[test]
fn concurrent_mixed_draw_sizes_share_executor_and_arena() {
    let config = tiny_config();
    let expected = Arc::new(baseline(&config));
    let svc = Arc::new(service(ServiceConfig {
        engine: config,
        workers: 4,
        fairness_cap: 2,
        wal_dir: None,
    }));
    // Mixed draw-call sizes: knn (few small circles), range (no canvas),
    // distance (medium circle canvas), polygon joins (full-resolution
    // two-pass Map). Each session interleaves them in a different order.
    std::thread::scope(|s| {
        for t in 0..16u64 {
            let svc = Arc::clone(&svc);
            let expected = Arc::clone(&expected);
            s.spawn(move || {
                let session = svc.session();
                let reqs = workload();
                let n = reqs.len();
                let order: Vec<usize> = (0..n).map(|i| (i * 3 + t as usize) % n).collect();
                for &i in &order {
                    let resp = session
                        .submit(reqs[i].clone())
                        .wait()
                        .expect("query succeeds");
                    assert_eq!(&expect_query(resp.payload), &expected[i]);
                }
            });
        }
    });
    let snap = svc.stats();
    assert_eq!(snap.failed + snap.rejected + snap.cancelled, 0);
    assert_eq!(snap.completed, snap.submitted);
    // The shared executor processed jobs from every session; the arena has
    // no texture still checked out and its free lists honour the byte cap.
    let pool = svc.engine().pipeline.pool().stats();
    assert!(pool.jobs > 0);
    assert_eq!(pool.busy, 0);
    let arena = svc.engine().pipeline.arena().stats();
    assert_eq!(arena.live_bytes, 0);
    assert!(arena.pooled_bytes <= svc.engine().config.texture_pool_bytes());
    // Resident result-cache entries are the only legitimate remaining
    // charge; draining them must balance the ledger exactly.
    svc.engine().result_cache.clear();
    assert_eq!(svc.engine().device.used(), 0);
}

/// EXPLAIN of a spatial join prints the optimizer's strategy decision with
/// its byte estimates; ANALYZE adds the measured numbers next to them.
#[test]
fn explain_analyze_reports_join_decisions() {
    let svc = service(ServiceConfig {
        engine: tiny_config(),
        workers: 1,
        fairness_cap: 4,
        wal_dir: None,
    });
    let session = svc.session();
    let join = QueryRequest::Join {
        left: "polys".into(),
        right: "pts".into(),
        query: JoinQuery::Intersects,
    };

    let resp = session
        .submit(QueryRequest::Explain {
            analyze: false,
            request: Box::new(join.clone()),
        })
        .wait()
        .expect("explain succeeds");
    let plain = resp.payload.explain().expect("explain payload").to_string();
    assert!(plain.starts_with("EXPLAIN join"), "{plain}");
    assert!(plain.contains("strategy:"), "{plain}");
    assert!(plain.contains("est layer"), "{plain}");
    assert!(plain.contains("cell pairs:"), "{plain}");
    assert!(
        !plain.contains("actual"),
        "plain EXPLAIN has actuals: {plain}"
    );

    let resp = session
        .submit(QueryRequest::Explain {
            analyze: true,
            request: Box::new(join),
        })
        .wait()
        .expect("explain analyze succeeds");
    let analyzed = resp.payload.explain().expect("explain payload").to_string();
    assert!(analyzed.starts_with("EXPLAIN ANALYZE join"), "{analyzed}");
    assert!(analyzed.contains("actual to-device"), "{analyzed}");
    assert!(analyzed.contains("total="), "{analyzed}");
}

/// EXPLAIN of a selection reports the Map implementation choice (1-pass vs
/// 2-pass) with `n_max` against the slot budget.
#[test]
fn explain_select_reports_map_choice() {
    let svc = service(ServiceConfig {
        engine: tiny_config(),
        workers: 1,
        fairness_cap: 4,
        wal_dir: None,
    });
    let session = svc.session();
    let resp = session
        .submit(QueryRequest::Explain {
            analyze: true,
            request: Box::new(QueryRequest::Select {
                dataset: "pts".into(),
                query: SelectQuery::Intersects(constraint()),
            }),
        })
        .wait()
        .expect("explain succeeds");
    let text = resp.payload.explain().expect("explain payload").to_string();
    assert!(text.contains("map:"), "{text}");
    assert!(text.contains("1-pass"), "{text}");
    assert!(text.contains("slots"), "{text}");
    assert!(text.contains("actual results"), "{text}");
}

/// EXPLAIN of a SQL request forwards to the SQL layer's planner.
#[test]
fn explain_sql_forwards_to_sql_planner() {
    let svc = QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers: 1,
        fairness_cap: 4,
        wal_dir: None,
    });
    let session = svc.session();
    session
        .submit(QueryRequest::Sql("CREATE TABLE t (id INT)".into()))
        .wait()
        .expect("create succeeds");
    let resp = session
        .submit(QueryRequest::Explain {
            analyze: false,
            request: Box::new(QueryRequest::Sql(
                "SELECT id FROM t WHERE id > 3 LIMIT 2".into(),
            )),
        })
        .wait()
        .expect("explain succeeds");
    let text = resp.payload.explain().expect("explain payload").to_string();
    assert!(text.contains("Limit 2"), "{text}");
    assert!(text.contains("Filter"), "{text}");
    assert!(text.contains("Scan t"), "{text}");
}

#[test]
fn submits_racing_shutdown_all_resolve() {
    // Submissions racing `shutdown()` must never strand a ticket: each
    // either executes (drained gracefully) or is refused with `Shutdown`.
    // Before the enqueue path re-checked the drain flags under the queue
    // mutex, a push could land after the workers drained and exited,
    // leaving `wait()` blocked forever — this test then hangs.
    for _ in 0..8 {
        let svc = std::sync::Arc::new(service(ServiceConfig {
            engine: tiny_config(),
            workers: 2,
            fairness_cap: 8,
            wal_dir: None,
        }));
        let submitters: Vec<_> = (0..4)
            .map(|_| {
                let svc = std::sync::Arc::clone(&svc);
                std::thread::spawn(move || {
                    let session = svc.session();
                    for i in 0..50 {
                        let lo = (i % 90) as f64;
                        let ticket = session.submit(QueryRequest::Select {
                            dataset: "pts".into(),
                            query: SelectQuery::Range(BBox::new(
                                Point::new(lo, lo),
                                Point::new(lo + 5.0, lo + 5.0),
                            )),
                        });
                        // Every ticket must resolve, whichever side of the
                        // drain gate it landed on.
                        let _ = ticket.wait();
                    }
                })
            })
            .collect();
        // Let the burst get going, then shut down concurrently.
        std::thread::sleep(std::time::Duration::from_millis(2));
        svc.shutdown();
        for s in submitters {
            s.join().unwrap();
        }
    }
}
