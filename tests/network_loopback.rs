//! Differential test of the network front door: every query family must
//! answer byte-identically through the TCP loopback as through a direct
//! in-process session against the same service — at 1 client, and at 16
//! concurrent pipelining clients while a live writer ingests into a
//! separate dataset over the same wire.
//!
//! The static datasets ("pts", "polys") never change, so their responses
//! are deterministic no matter how the scheduler interleaves the remote
//! and direct submissions; the writer hammers "wtr" only, proving the
//! ingestion path and the read path share the server without perturbing
//! each other. A final flush-then-count pass checks the writer's inserts
//! all converged into the index.

use spade::client::{Client, ClientConfig};
use spade::engine::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade::engine::distance::DistanceConstraint;
use spade::engine::query::{JoinQuery, SelectQuery};
use spade::engine::EngineConfig;
use spade::geometry::{BBox, Geometry, Point, Polygon};
use spade::index::GridIndex;
use spade::net::{NetServer, NetServerConfig};
use spade::server::{QueryRequest, QueryService, ServiceConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

const WTR_SEED_COUNT: usize = 500;

/// The service under test: two static datasets for the differential
/// families, one writable dataset for the live writer.
fn serve() -> NetServer {
    let svc = Arc::new(QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers: 4,
        fairness_cap: 8,
        wal_dir: None,
    }));
    svc.register_indexed("pts", indexed_points("pts", scatter(4_000, 100.0, 11)));
    let boxes: Vec<(u32, Geometry)> = spade::datagen::spider::uniform_boxes(150, 0.08, 23)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u32, Geometry::Polygon(p)))
        .collect();
    let scaled: Vec<(u32, Geometry)> = boxes
        .iter()
        .map(|(i, g)| {
            // uniform_boxes generates in the unit square; stretch to the
            // shared [0,100]² field so the join actually matches points.
            let Geometry::Polygon(p) = g else {
                unreachable!()
            };
            let stretched = Polygon::new(
                p.exterior
                    .points
                    .iter()
                    .map(|q| Point::new(q.x * 100.0, q.y * 100.0))
                    .collect(),
            );
            (*i, Geometry::Polygon(stretched))
        })
        .collect();
    let gp = GridIndex::build(None, &scaled, 25.0).unwrap();
    svc.register_indexed(
        "polys",
        IndexedDataset::new("polys", DatasetKind::Polygons, gp),
    );
    svc.register_indexed(
        "wtr",
        indexed_points("wtr", scatter(WTR_SEED_COUNT, 100.0, 31)),
    );
    NetServer::serve(svc, "127.0.0.1:0", NetServerConfig::default()).unwrap()
}

/// One request per query family: range, intersects, within-distance and
/// kNN selections, plus an intersects join.
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
    ]
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, ClientConfig::default()).unwrap()
}

#[test]
fn remote_equals_direct_for_every_family_under_concurrency() {
    let server = serve();
    let addr = server.addr();
    let requests = families();

    // Baselines: direct, in-process, before any network traffic.
    let direct = server.service().session();
    let baselines: Arc<Vec<_>> = Arc::new(
        requests
            .iter()
            .map(|r| direct.submit(r.clone()).wait().unwrap().payload)
            .collect(),
    );

    // Phase 1 — one client, sequentially.
    let client = connect(addr);
    for (i, req) in requests.iter().enumerate() {
        let remote = client.query(req).unwrap();
        assert_eq!(remote.payload, baselines[i], "family {i}, single client");
    }
    drop(client);

    // Phase 2 — 16 concurrent clients, each pipelining all five families
    // per round, while a live writer ingests into "wtr" over its own
    // connection.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let client = connect(addr);
            let mut inserted = 0u32;
            while !stop.load(Ordering::Acquire) && inserted < 200 {
                let id = 100_000 + inserted;
                let f = inserted as f64;
                client
                    .query(&QueryRequest::Insert {
                        dataset: "wtr".into(),
                        id,
                        geometry: Geometry::Point(Point::new((f * 7.3) % 100.0, (f * 3.7) % 100.0)),
                    })
                    .expect("live insert");
                inserted += 1;
                if inserted.is_multiple_of(16) {
                    client
                        .query(&QueryRequest::Flush {
                            dataset: "wtr".into(),
                        })
                        .expect("live flush");
                }
            }
            inserted
        })
    };

    let readers: Vec<_> = (0..16)
        .map(|t| {
            let requests = requests.clone();
            let baselines = Arc::clone(&baselines);
            std::thread::spawn(move || {
                let client = connect(addr);
                for round in 0..2 {
                    // Pipeline the whole family set, then wait on each.
                    let pending: Vec<_> =
                        requests.iter().map(|r| client.submit(r).unwrap()).collect();
                    for (i, p) in pending.into_iter().enumerate() {
                        let remote = p.wait().unwrap();
                        assert_eq!(
                            remote.payload, baselines[i],
                            "family {i}, client {t}, round {round}"
                        );
                    }
                }
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    let inserted = writer.join().unwrap();
    assert!(inserted > 0, "the writer must have gotten work in");

    // Convergence: flush, then count "wtr" over the whole field — every
    // seeded point and every live insert must be visible, remotely and
    // directly, with byte-identical payloads.
    let client = connect(addr);
    client
        .query(&QueryRequest::Flush {
            dataset: "wtr".into(),
        })
        .unwrap();
    let whole = QueryRequest::Select {
        dataset: "wtr".into(),
        query: SelectQuery::Range(BBox::new(Point::new(-1.0, -1.0), Point::new(101.0, 101.0))),
    };
    let remote = client.query(&whole).unwrap();
    let direct = server.service().session().submit(whole).wait().unwrap();
    assert_eq!(remote.payload, direct.payload);
    assert_eq!(
        remote.stats.result_count,
        (WTR_SEED_COUNT + inserted as usize) as u64,
        "every live insert must be visible after the flush"
    );
    server.stop();
}
