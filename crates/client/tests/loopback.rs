//! TCP loopback tests of the server: handshake outcomes, pipelined
//! out-of-order completion, cooperative cancel frames, oversized and
//! corrupt frames, mid-stream disconnect (in-flight queries cancelled,
//! ledgers balanced, service lives on), and graceful stop.

use spade_client::{Client, ClientConfig, ClientError};
use spade_core::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade_core::query::SelectQuery;
use spade_core::EngineConfig;
use spade_datagen::spider;
use spade_geometry::{BBox, Point};
use spade_index::GridIndex;
use spade_net::proto::{decode_server, encode_client, ClientMsg, ServerMsg};
use spade_net::wire::{read_frame, write_frame, PROTOCOL_VERSION};
use spade_net::{NetServer, NetServerConfig};
use spade_server::{NamespaceConfig, QueryRequest, QueryService, ServiceConfig, ServiceError};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_config() -> EngineConfig {
    let mut c = EngineConfig::test_small();
    c.resolution = 128;
    c
}

fn scatter(n: usize, extent: f64, seed: u64) -> Vec<Point> {
    let unit = spider::uniform_points(n, seed);
    spider::scale_points(&unit, &BBox::new(Point::ZERO, Point::new(extent, extent)))
}

/// A service with one grid-indexed point dataset "pts" in the default
/// namespace, served on an ephemeral loopback port.
fn serve(workers: usize) -> NetServer {
    let svc = Arc::new(QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers,
        fairness_cap: 8,
        wal_dir: None,
    }));
    let pts = scatter(4_000, 100.0, 11);
    let d = Dataset::from_points("pts", pts);
    let grid = GridIndex::build(None, &d.objects, 25.0).unwrap();
    svc.register_indexed("pts", IndexedDataset::new("pts", DatasetKind::Points, grid));
    NetServer::serve(svc, "127.0.0.1:0", NetServerConfig::default()).unwrap()
}

fn range_query(lo: f64, hi: f64) -> QueryRequest {
    QueryRequest::Select {
        dataset: "pts".into(),
        query: SelectQuery::Range(BBox::new(Point::new(lo, lo), Point::new(hi, hi))),
    }
}

fn connect(server: &NetServer) -> Client {
    Client::connect(server.addr(), ClientConfig::default()).unwrap()
}

#[test]
fn query_over_tcp_matches_in_process() {
    let server = serve(2);
    let direct = server
        .service()
        .session()
        .submit(range_query(10.0, 60.0))
        .wait()
        .unwrap();

    let client = connect(&server);
    let remote = client.query(&range_query(10.0, 60.0)).unwrap();
    assert_eq!(remote.payload, direct.payload);
    assert!(remote.stats.result_count > 0);
    server.stop();
}

#[test]
fn pipelined_replies_arrive_out_of_order_by_id() {
    let server = serve(4);
    let client = connect(&server);
    // Pipeline a burst; wait in reverse submission order. Every reply must
    // match its own request (ids are the correlation), whatever order the
    // service finished them in.
    let windows: Vec<(f64, f64)> = (0..24).map(|i| (i as f64, i as f64 + 30.0)).collect();
    let pending: Vec<_> = windows
        .iter()
        .map(|&(lo, hi)| client.submit(&range_query(lo, hi)).unwrap())
        .collect();
    let mut results = Vec::new();
    for p in pending.into_iter().rev() {
        results.push(p.wait().unwrap());
    }
    results.reverse();
    let direct_session = server.service().session();
    for (i, &(lo, hi)) in windows.iter().enumerate() {
        let direct = direct_session.submit(range_query(lo, hi)).wait().unwrap();
        assert_eq!(results[i].payload, direct.payload, "window {i}");
    }
    server.stop();
}

#[test]
fn version_mismatch_is_refused() {
    let server = serve(1);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let hello = ClientMsg::Hello {
        version: PROTOCOL_VERSION + 7,
        namespace: "default".into(),
        token: None,
    };
    write_frame(&mut stream, 0, &encode_client(&hello)).unwrap();
    let frame = read_frame(&mut stream, 1 << 20).unwrap();
    match decode_server(&frame.payload).unwrap() {
        ServerMsg::HelloErr { message } => {
            assert!(message.contains("version"), "{message}");
        }
        other => panic!("expected HelloErr, got {other:?}"),
    }
    server.stop();
}

#[test]
fn unknown_namespace_and_bad_token_are_refused() {
    let server = serve(1);
    server
        .service()
        .create_namespace(
            "tenant-a",
            NamespaceConfig {
                quota_bytes: None,
                token: Some("secret".into()),
            },
        )
        .unwrap();

    let err = Client::connect(
        server.addr(),
        ClientConfig {
            namespace: "nope".into(),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, ClientError::Handshake(ref m) if m.contains("nope")),
        "{err}"
    );

    let err = Client::connect(
        server.addr(),
        ClientConfig {
            namespace: "tenant-a".into(),
            token: Some("wrong".into()),
        },
    )
    .unwrap_err();
    assert!(matches!(err, ClientError::Handshake(_)), "{err}");

    // The right token works.
    let client = Client::connect(
        server.addr(),
        ClientConfig {
            namespace: "tenant-a".into(),
            token: Some("secret".into()),
        },
    )
    .unwrap();
    // tenant-a has no datasets: a known-name query answers UnknownDataset,
    // proving the session landed in the tenant's (empty) catalog.
    let err = client.query(&range_query(0.0, 10.0)).unwrap_err();
    assert!(
        matches!(err, ClientError::Service(ServiceError::UnknownDataset(_))),
        "{err}"
    );
    server.stop();
}

#[test]
fn cancel_frame_cancels_in_flight_request() {
    let server = serve(1);
    let client = connect(&server);
    // One worker: a queued burst guarantees later submissions are still
    // queued (cancellable before execution) when the cancel lands.
    let pending: Vec<_> = (0..16)
        .map(|_| client.submit(&range_query(0.0, 95.0)).unwrap())
        .collect();
    // Cancel the tail half while the head occupies the worker.
    for p in &pending[8..] {
        p.cancel().unwrap();
    }
    let mut cancelled = 0;
    for p in pending {
        match p.wait() {
            Ok(_) => {}
            Err(ClientError::Service(ServiceError::Cancelled)) => cancelled += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(cancelled >= 1, "at least one cancel should win its race");
    server.stop();
}

#[test]
fn oversized_frame_drops_the_connection() {
    let svc = Arc::new(QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers: 1,
        fairness_cap: 2,
        wal_dir: None,
    }));
    let server = NetServer::serve(svc, "127.0.0.1:0", NetServerConfig { max_frame: 4096 }).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let hello = ClientMsg::Hello {
        version: PROTOCOL_VERSION,
        namespace: "default".into(),
        token: None,
    };
    write_frame(&mut stream, 0, &encode_client(&hello)).unwrap();
    let frame = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(matches!(
        decode_server(&frame.payload).unwrap(),
        ServerMsg::HelloOk { .. }
    ));
    // A frame whose length prefix exceeds the server's cap: the server
    // must hang up without reading (or allocating) the body.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(64u32 << 20).to_le_bytes());
    bytes.extend_from_slice(&[0u8; 4]); // crc (never checked: length fails first)
    stream.write_all(&bytes).unwrap();
    stream.write_all(&[0u8; 1024]).unwrap();
    let err = read_frame(&mut stream, 1 << 20).unwrap_err();
    assert!(
        matches!(
            err,
            spade_net::WireError::Closed | spade_net::WireError::Io(_)
        ),
        "{err:?}"
    );
    server.stop();
}

#[test]
fn corrupt_frame_drops_the_connection_but_not_the_server() {
    let server = serve(2);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let hello = ClientMsg::Hello {
        version: PROTOCOL_VERSION,
        namespace: "default".into(),
        token: None,
    };
    write_frame(&mut stream, 0, &encode_client(&hello)).unwrap();
    read_frame(&mut stream, 1 << 20).unwrap();
    // Garbage with a plausible length but a wrong crc.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&16u32.to_le_bytes());
    bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    bytes.extend_from_slice(&[7u8; 16]);
    stream.write_all(&bytes).unwrap();
    let err = read_frame(&mut stream, 1 << 20).unwrap_err();
    assert!(
        matches!(
            err,
            spade_net::WireError::Closed | spade_net::WireError::Io(_)
        ),
        "{err:?}"
    );
    // The server survives: a fresh connection still works.
    let client = connect(&server);
    assert!(client.query(&range_query(5.0, 40.0)).is_ok());
    server.stop();
}

#[test]
fn mid_stream_disconnect_cancels_in_flight_and_balances_ledgers() {
    let server = serve(2);
    let service = Arc::clone(server.service());
    {
        let client = connect(&server);
        // A pile of in-flight work, then vanish without waiting.
        let _pending: Vec<_> = (0..32)
            .map(|_| client.submit(&range_query(0.0, 99.0)).unwrap())
            .collect();
        drop(client); // shuts both socket directions down
    }
    // The server's reader sees the disconnect, cancels the in-flight
    // tokens, and the worker completion path releases every reservation.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = service.stats();
        if s.queue_depth == 0 && s.running == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "queue did not drain after disconnect: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Ledgers balanced: with nothing queued or running, no tenant holds a
    // reservation (pooled engine buffers may legitimately stay resident,
    // so the device's own high-water ledger is not asserted).
    let metrics = service.metrics_text();
    for line in metrics
        .lines()
        .filter(|l| l.starts_with("spade_tenant_reserved_bytes{"))
    {
        assert!(line.ends_with(" 0"), "leaked reservation: {line}");
    }
    // And the service still serves new clients.
    let client = connect(&server);
    assert!(client.query(&range_query(10.0, 50.0)).is_ok());
    server.stop();
}

#[test]
fn graceful_stop_drains_in_flight_requests() {
    let server = serve(2);
    let client = connect(&server);
    let pending: Vec<_> = (0..8)
        .map(|i| {
            client
                .submit(&range_query(i as f64, i as f64 + 50.0))
                .unwrap()
        })
        .collect();
    // Stop concurrently with the burst: every already-submitted request
    // must still be answered (stop drains before closing sockets).
    let stopper = std::thread::spawn(move || server.stop());
    let mut answered = 0;
    for p in pending {
        match p.wait() {
            Ok(_) => answered += 1,
            // A request that raced the drain gate gets a clean Shutdown.
            Err(ClientError::Service(ServiceError::Shutdown)) => {}
            Err(e) => panic!("unexpected error during graceful stop: {e}"),
        }
    }
    assert!(answered >= 1, "drain should answer the in-flight requests");
    stopper.join().unwrap();
}

#[test]
fn oversized_reply_is_an_in_band_error_not_a_dropped_connection() {
    // A server with a small frame cap and a query whose result encodes
    // larger than that cap: the reply must come back as a per-request
    // ReplyTooLarge error, and the connection (with other requests on it)
    // must keep working.
    let svc = Arc::new(QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers: 2,
        fairness_cap: 8,
        wal_dir: None,
    }));
    let pts = scatter(4_000, 100.0, 11);
    let d = Dataset::from_points("pts", pts);
    let grid = GridIndex::build(None, &d.objects, 25.0).unwrap();
    svc.register_indexed("pts", IndexedDataset::new("pts", DatasetKind::Points, grid));
    let server = NetServer::serve(svc, "127.0.0.1:0", NetServerConfig { max_frame: 4096 }).unwrap();
    let client = connect(&server);

    // ~4000 ids at 4 B each encode well past the 4096 B cap.
    let big = client.query(&range_query(0.0, 100.0)).unwrap_err();
    match big {
        ClientError::Service(ServiceError::ReplyTooLarge { size, max }) => {
            assert_eq!(max, 4096);
            assert!(size > max, "size {size} must exceed cap {max}");
        }
        other => panic!("expected ReplyTooLarge, got {other}"),
    }

    // The connection survived: a small query on the same client succeeds.
    let small = client.query(&range_query(0.0, 5.0)).unwrap();
    assert!(small.payload.query().is_some());
    server.stop();
}

#[test]
fn pool_recovers_after_server_restart_without_a_new_client() {
    // Kill the server, restart it on the same port, and keep using the
    // same Client: lazy reconnect must revive the dead pool slots.
    let server = serve(2);
    let addr = server.addr();
    let baseline = server
        .service()
        .session()
        .submit(range_query(10.0, 60.0))
        .wait()
        .unwrap();
    let client = Client::connect(addr, ClientConfig::default()).unwrap();
    assert_eq!(
        client.query(&range_query(10.0, 60.0)).unwrap().payload,
        baseline.payload
    );

    server.stop();
    drop(server);
    // With the server gone, the pool fails (shutdown reply or dead
    // socket, depending on what the stop raced with).
    assert!(client.query(&range_query(10.0, 60.0)).is_err());

    // Restart on the same address. The old port may sit in TIME_WAIT
    // briefly; retry the bind.
    let restarted = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let svc = Arc::new(QueryService::new(ServiceConfig {
                engine: tiny_config(),
                workers: 2,
                fairness_cap: 8,
                wal_dir: None,
            }));
            let pts = scatter(4_000, 100.0, 11);
            let d = Dataset::from_points("pts", pts);
            let grid = GridIndex::build(None, &d.objects, 25.0).unwrap();
            svc.register_indexed("pts", IndexedDataset::new("pts", DatasetKind::Points, grid));
            match NetServer::serve(svc, addr, NetServerConfig::default()) {
                Ok(s) => break s,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => panic!("could not rebind {addr}: {e}"),
            }
        }
    };

    // The same client recovers: the next picks redial the dead slots
    // (within their backoff windows) and the query round-trips again.
    let deadline = Instant::now() + Duration::from_secs(10);
    let recovered = loop {
        match client.query(&range_query(10.0, 60.0)) {
            Ok(r) => break r,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("pool never recovered: {e}"),
        }
    };
    assert_eq!(recovered.payload, baseline.payload);
    restarted.stop();
}
