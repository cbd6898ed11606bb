//! SPADE over the wire: a TCP server, two tenants, a pipelined client.
//!
//! Demonstrates the network front door end to end: a
//! [`spade::server::QueryService`] wrapped by a [`spade::net::NetServer`]
//! on a loopback port, a tenant namespace with its own catalog, quota and
//! auth token, and a [`spade::client::Client`] pipelining a burst of
//! requests whose frames coalesce into shared socket writes.
//!
//! ```text
//! cargo run --release --example network_service
//! ```

use spade::client::{Client, ClientConfig};
use spade::engine::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade::engine::query::SelectQuery;
use spade::engine::EngineConfig;
use spade::geometry::{BBox, Point};
use spade::index::GridIndex;
use spade::net::{NetServer, NetServerConfig};
use spade::server::{NamespaceConfig, QueryRequest, QueryService, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

fn indexed(name: &str, n: usize, seed: u64) -> IndexedDataset {
    let unit = spade::datagen::spider::uniform_points(n, seed);
    let pts = spade::datagen::spider::scale_points(
        &unit,
        &BBox::new(Point::ZERO, Point::new(100.0, 100.0)),
    );
    let d = Dataset::from_points(name, pts);
    let grid = GridIndex::build(None, &d.objects, 25.0).expect("grid build");
    IndexedDataset::new(name, DatasetKind::Points, grid)
}

fn range(lo: f64, hi: f64) -> QueryRequest {
    QueryRequest::Select {
        dataset: "pts".into(),
        query: SelectQuery::Range(BBox::new(Point::new(lo, lo), Point::new(hi, hi))),
    }
}

fn main() {
    // 1. A service with a default-namespace dataset and a gated tenant.
    let service = Arc::new(QueryService::new(ServiceConfig {
        engine: EngineConfig::test_small(),
        workers: 4,
        fairness_cap: 8,
        wal_dir: None,
    }));
    service.register_indexed("pts", indexed("pts", 20_000, 7));
    service
        .create_namespace(
            "acme",
            NamespaceConfig {
                quota_bytes: Some(64 << 20),
                token: Some("s3cret".into()),
            },
        )
        .expect("create namespace");
    service
        .register_indexed_in("acme", "pts", indexed("pts", 5_000, 13))
        .expect("register tenant dataset");

    // 2. Serve it on an ephemeral loopback port.
    let server = NetServer::serve(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("bind");
    println!("serving on {}", server.addr());

    // 3. The default tenant, one pipelined burst: submit everything, then
    //    wait — replies correlate by request id, not arrival order.
    let client = Client::connect(server.addr(), ClientConfig::default()).expect("connect");
    let t0 = Instant::now();
    let pending: Vec<_> = (0..64)
        .map(|i| {
            let lo = (i % 10) as f64 * 5.0;
            client.submit(&range(lo, lo + 40.0)).expect("submit")
        })
        .collect();
    let mut rows = 0u64;
    for p in pending {
        rows += p.wait().expect("reply").stats.result_count;
    }
    let (frames, flushes) = client.batching_stats();
    println!(
        "default tenant: 64 pipelined queries, {rows} rows in {:?} \
         ({frames} frames in {flushes} socket flushes)",
        t0.elapsed()
    );

    // 4. The gated tenant: same dataset name, different catalog, token
    //    required at the handshake.
    let acme = Client::connect(
        server.addr(),
        ClientConfig {
            namespace: "acme".into(),
            token: Some("s3cret".into()),
        },
    )
    .expect("tenant connect");
    let resp = acme.query(&range(10.0, 60.0)).expect("tenant query");
    println!(
        "acme tenant:    same query, its own catalog: {} rows",
        resp.stats.result_count
    );

    // 5. Per-tenant observability, then a graceful stop (drains in-flight
    //    work before closing sockets).
    for line in service
        .metrics_text()
        .lines()
        .filter(|l| l.contains("tenant="))
        .take(6)
    {
        println!("  {line}");
    }
    server.stop();
    println!("stopped cleanly");
}
