//! Acceptance gate for the network front door: a pipelined client must
//! beat the one-request-per-connection baseline by ≥3× on loopback.
//!
//! The baseline pays TCP connect + handshake round trip + query round
//! trip per request; the pipelined client keeps the whole batch in
//! flight on one pooled connection and its request frames coalesce into
//! shared `write_all`s. On a loopback that difference is far more than
//! 3×; the conservative bar keeps the gate stable on loaded CI runners.
//! Release-only: `cargo test --release` runs it (the CI `release` job).

use spade_client::{Client, ClientConfig};
use spade_core::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade_core::query::SelectQuery;
use spade_core::EngineConfig;
use spade_geometry::{BBox, Point};
use spade_index::GridIndex;
use spade_net::proto::{decode_server, encode_client, ClientMsg, ServerMsg};
use spade_net::wire::{read_frame, write_frame, DEFAULT_MAX_FRAME, PROTOCOL_VERSION};
use spade_net::{NetServer, NetServerConfig};
use spade_server::{QueryRequest, QueryService, ServiceConfig};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const REQUESTS: usize = 256;

fn serve() -> NetServer {
    let mut engine = EngineConfig::test_small();
    engine.resolution = 128;
    let svc = Arc::new(QueryService::new(ServiceConfig {
        engine,
        workers: 4,
        fairness_cap: 8,
        wal_dir: None,
    }));
    let unit = spade_datagen::spider::uniform_points(4_000, 11);
    let pts = spade_datagen::spider::scale_points(
        &unit,
        &BBox::new(Point::ZERO, Point::new(100.0, 100.0)),
    );
    let d = Dataset::from_points("pts", pts);
    let grid = GridIndex::build(None, &d.objects, 25.0).unwrap();
    svc.register_indexed("pts", IndexedDataset::new("pts", DatasetKind::Points, grid));
    NetServer::serve(svc, "127.0.0.1:0", NetServerConfig::default()).unwrap()
}

fn request() -> QueryRequest {
    QueryRequest::Select {
        dataset: "pts".into(),
        query: SelectQuery::Range(BBox::new(Point::new(20.0, 20.0), Point::new(70.0, 60.0))),
    }
}

fn one_shot(addr: SocketAddr, req: &QueryRequest) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).ok();
    let hello = ClientMsg::Hello {
        version: PROTOCOL_VERSION,
        namespace: "default".into(),
        token: None,
    };
    write_frame(&mut stream, 0, &encode_client(&hello)).unwrap();
    let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(
        decode_server(&frame.payload).unwrap(),
        ServerMsg::HelloOk { .. }
    ));
    write_frame(
        &mut stream,
        1,
        &encode_client(&ClientMsg::Request(req.clone())),
    )
    .unwrap();
    let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    match decode_server(&frame.payload).unwrap() {
        ServerMsg::Reply(r) => {
            r.unwrap();
        }
        other => panic!("expected a reply, got {other:?}"),
    }
}

/// Best of three timed runs, so one scheduler hiccup can't fail the gate.
fn best_of_three(mut run: impl FnMut() -> Duration) -> Duration {
    (0..3).map(|_| run()).min().unwrap()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing-sensitive; run in release")]
fn pipelined_client_beats_per_connection_by_3x() {
    let server = serve();
    let addr = server.addr();
    // Warm the result cache: the gate measures the wire, not the render.
    one_shot(addr, &request());

    let per_connection = best_of_three(|| {
        let t0 = Instant::now();
        for _ in 0..REQUESTS {
            one_shot(addr, &request());
        }
        t0.elapsed()
    });

    let client = Client::connect(addr, ClientConfig::default()).unwrap();
    let pipelined = best_of_three(|| {
        let t0 = Instant::now();
        let pending: Vec<_> = (0..REQUESTS)
            .map(|_| client.submit(&request()).unwrap())
            .collect();
        for p in pending {
            p.wait().unwrap();
        }
        t0.elapsed()
    });
    let (frames, flushes) = client.batching_stats();
    drop(client);
    server.stop();

    let speedup = per_connection.as_secs_f64() / pipelined.as_secs_f64();
    assert!(
        speedup >= 3.0,
        "expected pipelining >= 3x one-request-per-connection, got {speedup:.2}x \
         (per-connection {per_connection:?}, pipelined {pipelined:?}, \
          {frames} frames in {flushes} flushes)"
    );
}
