//! Differential tests of the scale-out layer: every query family must
//! answer byte-identically through a 3-shard loopback cluster as through
//! a direct single-node session over the same data — including while a
//! live writer broadcasts inserts through the coordinator. Plus the
//! replication half: a WAL-shipping follower converges to the leader
//! after a flush, and a leader killed mid-ingest resumes shipping from
//! the follower's ack after restart, leaving the follower byte-identical
//! to a cold rebuild of the same writes.

use spade::client::ClientConfig;
use spade::cluster::{ClusterClient, ClusterConfig, Replica, ReplicaConfig};
use spade::engine::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade::engine::distance::DistanceConstraint;
use spade::engine::query::{JoinQuery, SelectQuery};
use spade::engine::EngineConfig;
use spade::geometry::{BBox, Geometry, Point, Polygon};
use spade::index::GridIndex;
use spade::net::{NetServer, NetServerConfig};
use spade::server::{QueryRequest, QueryService, ResponsePayload, ServiceConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_config() -> EngineConfig {
    let mut c = EngineConfig::test_small();
    c.resolution = 128;
    c
}

fn scatter(n: usize, extent: f64, seed: u64) -> Vec<Point> {
    let unit = spade::datagen::spider::uniform_points(n, seed);
    spade::datagen::spider::scale_points(&unit, &BBox::new(Point::ZERO, Point::new(extent, extent)))
}

fn indexed_points(name: &str, pts: Vec<Point>) -> IndexedDataset {
    let d = Dataset::from_points(name, pts);
    let grid = GridIndex::build(None, &d.objects, 25.0).unwrap();
    IndexedDataset::new(name, DatasetKind::Points, grid)
}

fn indexed_polys(name: &str) -> IndexedDataset {
    // uniform_boxes generates in the unit square; stretch to the shared
    // [0,100]² field so joins against the point sets actually match.
    let scaled: Vec<(u32, Geometry)> = spade::datagen::spider::uniform_boxes(150, 0.08, 23)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let stretched = Polygon::new(
                p.exterior
                    .points
                    .iter()
                    .map(|q| Point::new(q.x * 100.0, q.y * 100.0))
                    .collect(),
            );
            (i as u32, Geometry::Polygon(stretched))
        })
        .collect();
    let grid = GridIndex::build(None, &scaled, 25.0).unwrap();
    IndexedDataset::new(name, DatasetKind::Polygons, grid)
}

const WTR_SEED_COUNT: usize = 500;

/// Every node in the cluster holds the complete data (sharding partitions
/// execution, not storage), so each worker gets an identically-built
/// service: same seeds, same index parameters, same registration order.
fn make_service(wal_dir: Option<PathBuf>) -> Arc<QueryService> {
    let svc = Arc::new(QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers: 2,
        fairness_cap: 8,
        wal_dir,
    }));
    svc.register_indexed("pts", indexed_points("pts", scatter(4_000, 100.0, 11)));
    svc.register_indexed("polys", indexed_polys("polys"));
    svc.register_indexed("few", indexed_points("few", scatter(48, 100.0, 41)));
    svc.register_indexed(
        "wtr",
        indexed_points("wtr", scatter(WTR_SEED_COUNT, 100.0, 31)),
    );
    svc
}

fn serve_worker(wal_dir: Option<PathBuf>) -> NetServer {
    NetServer::serve(
        make_service(wal_dir),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .unwrap()
}

/// One request per query family: range, intersects, contained,
/// within-distance and kNN selections, plus an intersects join, a
/// count-points aggregation join, a distance join and (last) a kNN join.
fn families() -> Vec<QueryRequest> {
    let constraint = Polygon::new(vec![
        Point::new(10.0, 15.0),
        Point::new(85.0, 25.0),
        Point::new(70.0, 80.0),
        Point::new(20.0, 70.0),
    ]);
    vec![
        QueryRequest::Select {
            dataset: "pts".into(),
            query: SelectQuery::Range(BBox::new(Point::new(20.0, 20.0), Point::new(70.0, 60.0))),
        },
        QueryRequest::Select {
            dataset: "pts".into(),
            query: SelectQuery::Intersects(constraint.clone()),
        },
        QueryRequest::Select {
            dataset: "pts".into(),
            query: SelectQuery::Contained(constraint),
        },
        QueryRequest::Select {
            dataset: "pts".into(),
            query: SelectQuery::WithinDistance(
                DistanceConstraint::Point(Point::new(50.0, 50.0)),
                15.0,
            ),
        },
        QueryRequest::Select {
            dataset: "pts".into(),
            query: SelectQuery::Knn(Point::new(33.0, 66.0), 12),
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
        QueryRequest::Join {
            left: "few".into(),
            right: "pts".into(),
            query: JoinQuery::WithinDistance(4.0),
        },
        QueryRequest::Join {
            left: "few".into(),
            right: "pts".into(),
            query: JoinQuery::Knn(3),
        },
    ]
}

/// One `spade_shard_fanout_total` sample per family, in family order.
fn fanout(cluster: &ClusterClient) -> Vec<(String, u64)> {
    let metrics = cluster.metrics_text();
    let samples = metrics
        .lines()
        .filter_map(|line| line.strip_prefix("spade_shard_fanout_total{family=\""));
    samples
        .map(|sample| {
            let (family, count) = sample.split_once("\"} ").expect("a labeled sample");
            (family.to_string(), count.parse().expect("a counter value"))
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("spade-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Rebind a listener on `addr`, retrying through TIME_WAIT.
fn serve_at(svc: Arc<QueryService>, addr: SocketAddr) -> NetServer {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match NetServer::serve(Arc::clone(&svc), addr, NetServerConfig::default()) {
            Ok(s) => return s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("rebind {addr}: {e}"),
        }
    }
}

#[test]
fn three_shard_cluster_matches_single_node_for_every_family() {
    let workers: Vec<NetServer> = (0..3).map(|_| serve_worker(None)).collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr()).collect();
    let cluster = ClusterClient::connect(&addrs, ClusterConfig::default()).unwrap();
    cluster.refresh_shard_map("pts").unwrap();
    cluster.refresh_shard_map("polys").unwrap();
    cluster.refresh_shard_map("few").unwrap();
    cluster.refresh_shard_map("wtr").unwrap();
    let map = cluster.shard_map("pts").expect("map cached after refresh");
    assert_eq!(map.shards(), 3, "one range per worker");

    // Single-node reference: a direct session on worker 0's service. The
    // static datasets never change, so these baselines stay valid while
    // the writer below mutates "wtr" only.
    let direct = workers[0].service().session();
    let requests = families();
    let baselines: Vec<_> = requests
        .iter()
        .map(|r| direct.submit(r.clone()).wait().unwrap().payload)
        .collect();

    for (i, req) in requests.iter().enumerate() {
        let scattered = cluster.query(req).unwrap();
        assert_eq!(scattered.payload, baselines[i], "family {i}, quiet cluster");
    }

    // Live writer: broadcast inserts through the coordinator while the
    // static families keep answering byte-identically. The same writes go
    // to a detached reference service so "wtr" stays comparable.
    let reference = make_service(None);
    let ref_session = reference.session();
    for n in 0..96u32 {
        let f = n as f64;
        let insert = QueryRequest::Insert {
            dataset: "wtr".into(),
            id: 100_000 + n,
            geometry: Geometry::Point(Point::new((f * 7.3) % 100.0, (f * 3.7) % 100.0)),
        };
        cluster.query(&insert).unwrap();
        ref_session.submit(insert).wait().unwrap();
        if (n + 1) % 16 == 0 {
            let flush = QueryRequest::Flush {
                dataset: "wtr".into(),
            };
            cluster.query(&flush).unwrap();
            ref_session.submit(flush).wait().unwrap();
        }
        if (n + 1) % 24 == 0 {
            for (i, req) in requests.iter().enumerate() {
                let scattered = cluster.query(req).unwrap();
                assert_eq!(scattered.payload, baselines[i], "family {i}, mid-write");
            }
        }
    }

    // Quiesce: flush everywhere, refresh the (now stale) map, and compare
    // the mutated dataset too — a scattered whole-field range must see
    // every seeded point and every broadcast insert, byte-identically.
    let flush = QueryRequest::Flush {
        dataset: "wtr".into(),
    };
    cluster.query(&flush).unwrap();
    ref_session.submit(flush).wait().unwrap();
    cluster.refresh_shard_map("wtr").unwrap();
    let whole = QueryRequest::Select {
        dataset: "wtr".into(),
        query: SelectQuery::Range(BBox::new(Point::new(-1.0, -1.0), Point::new(101.0, 101.0))),
    };
    let scattered = cluster.query(&whole).unwrap();
    let expected = ref_session.submit(whole).wait().unwrap();
    assert_eq!(scattered.payload, expected.payload);
    assert_eq!(scattered.stats.result_count, (WTR_SEED_COUNT + 96) as u64);

    // The scatter actually fanned out and the counters saw it: every
    // family but the kNN join, which routes whole to one worker.
    let metrics = cluster.metrics_text();
    assert!(
        metrics.contains("spade_shard_fanout_total"),
        "fanout counter missing:\n{metrics}"
    );
    assert!(metrics.contains("spade_shard_map_generation"));
    let before = fanout(&cluster);
    let scattered = |family: &str| before.iter().any(|(f, n)| f == family && *n > 1);
    assert!(
        scattered("join") && scattered("distance-join"),
        "{before:?}"
    );
    let knn_join = requests.last().unwrap();
    assert_eq!(cluster.query(knn_join).unwrap().payload, baselines[8]);
    assert_eq!(fanout(&cluster), before, "a kNN join records no fan-out");

    // EXPLAIN ANALYZE on the join names the shard routing.
    let explain = cluster
        .query(&QueryRequest::Explain {
            analyze: true,
            request: Box::new(QueryRequest::Join {
                left: "polys".into(),
                right: "pts".into(),
                query: JoinQuery::Intersects,
            }),
        })
        .unwrap();
    let ResponsePayload::Explain(text) = &explain.payload else {
        panic!("explain payload expected");
    };
    assert!(
        text.contains("cluster join:") && text.contains("cell pairs over 3 shards"),
        "shard routing missing from plan:\n{text}"
    );

    for w in workers {
        w.stop();
    }
}

#[test]
fn follower_converges_to_leader_after_flush() {
    let wal_dir = temp_dir("conv");
    let leader = serve_worker(Some(wal_dir.clone()));
    let follower_svc = make_service(None);
    let replica = Replica::start(
        leader.addr(),
        Arc::clone(&follower_svc),
        ReplicaConfig {
            poll_interval: Duration::from_millis(5),
            ..ReplicaConfig::default()
        },
    );

    let writer = spade::client::Client::connect(leader.addr(), ClientConfig::default()).unwrap();
    for n in 0..80u32 {
        let f = n as f64;
        writer
            .query(&QueryRequest::Insert {
                dataset: "wtr".into(),
                id: 200_000 + n,
                geometry: Geometry::Point(Point::new((f * 5.1) % 100.0, (f * 2.9) % 100.0)),
            })
            .unwrap();
    }
    writer
        .query(&QueryRequest::Flush {
            dataset: "wtr".into(),
        })
        .unwrap();

    // 80 inserts + 1 checkpoint = leader seq 81; lag must drain to 0.
    assert!(
        replica.wait_for(81, Duration::from_secs(10)),
        "follower stuck at {} (leader {})",
        replica.applied_seq(),
        replica.leader_seq()
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.lag() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(replica.lag(), 0, "leader idle, lag must reach 0");
    assert_eq!(replica.apply_errors(), 0);

    // Bounded staleness made concrete: at watermark 81 the follower's
    // reads are byte-identical to the leader's.
    let whole = QueryRequest::Select {
        dataset: "wtr".into(),
        query: SelectQuery::Range(BBox::new(Point::new(-1.0, -1.0), Point::new(101.0, 101.0))),
    };
    let on_leader = leader
        .service()
        .session()
        .submit(whole.clone())
        .wait()
        .unwrap();
    let on_follower = follower_svc.session().submit(whole).wait().unwrap();
    assert_eq!(on_follower.payload, on_leader.payload);
    assert_eq!(on_follower.stats.result_count, (WTR_SEED_COUNT + 80) as u64);

    let metrics = replica.metrics_text();
    assert!(metrics.contains("spade_replica_lag_seq 0"), "{metrics}");
    assert!(
        metrics.contains("spade_replica_applied_seq 81"),
        "{metrics}"
    );

    replica.stop();
    leader.stop();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn leader_restart_resumes_from_follower_ack() {
    let wal_dir = temp_dir("failover");
    let leader = serve_worker(Some(wal_dir.clone()));
    let addr = leader.addr();
    let follower_svc = make_service(None);
    let replica = Replica::start(
        addr,
        Arc::clone(&follower_svc),
        ReplicaConfig {
            poll_interval: Duration::from_millis(5),
            ..ReplicaConfig::default()
        },
    );

    let insert = |n: u32| {
        let f = n as f64;
        QueryRequest::Insert {
            dataset: "wtr".into(),
            id: 300_000 + n,
            geometry: Geometry::Point(Point::new((f * 6.7) % 100.0, (f * 4.3) % 100.0)),
        }
    };

    // Phase 1: 40 writes, then kill the leader mid-ingest (no flush — the
    // tail lives only in the WAL).
    let writer = spade::client::Client::connect(addr, ClientConfig::default()).unwrap();
    for n in 0..40u32 {
        writer.query(&insert(n)).unwrap();
    }
    assert!(
        replica.wait_for(40, Duration::from_secs(10)),
        "follower must ack the pre-crash prefix, at {}",
        replica.applied_seq()
    );
    leader.stop();
    drop(leader);
    drop(writer);

    // Phase 2: restart the leader on the same WAL dir and address. Reopen
    // replays the logged tail into the re-registered datasets; the
    // follower's next poll names seq 40, so shipping resumes right there —
    // no renegotiation, no refetch of the applied prefix.
    let restarted_svc = make_service(Some(wal_dir.clone()));
    let restarted = serve_at(restarted_svc, addr);
    let writer = spade::client::Client::connect(addr, ClientConfig::default()).unwrap();
    for n in 40..80u32 {
        writer.query(&insert(n)).unwrap();
    }
    writer
        .query(&QueryRequest::Flush {
            dataset: "wtr".into(),
        })
        .unwrap();
    // 80 inserts + 1 checkpoint.
    assert!(
        replica.wait_for(81, Duration::from_secs(20)),
        "follower must resume past the restart, at {} (leader {})",
        replica.applied_seq(),
        replica.leader_seq()
    );
    assert_eq!(
        replica.apply_errors(),
        0,
        "no record may double-apply or drop"
    );

    // The follower must now be byte-identical to a cold rebuild: a fresh
    // service given the same 80 writes through the normal write path.
    let cold = make_service(None);
    let cold_session = cold.session();
    for n in 0..80u32 {
        cold_session.submit(insert(n)).wait().unwrap();
    }
    cold_session
        .submit(QueryRequest::Flush {
            dataset: "wtr".into(),
        })
        .wait()
        .unwrap();
    let whole = QueryRequest::Select {
        dataset: "wtr".into(),
        query: SelectQuery::Range(BBox::new(Point::new(-1.0, -1.0), Point::new(101.0, 101.0))),
    };
    let on_follower = follower_svc.session().submit(whole.clone()).wait().unwrap();
    let on_cold = cold_session.submit(whole.clone()).wait().unwrap();
    assert_eq!(on_follower.payload, on_cold.payload);
    // And to the restarted leader itself (WAL replay + resumed writes).
    let on_leader = restarted.service().session().submit(whole).wait().unwrap();
    assert_eq!(on_follower.payload, on_leader.payload);

    replica.stop();
    restarted.stop();
    let _ = std::fs::remove_dir_all(&wal_dir);
}
