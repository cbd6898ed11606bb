//! Result-cache behavior through the concurrent service: singleflight
//! coalescing under session fan-in, liveness and convergence with a
//! concurrent writer, ledger balance after drains, and the EXPLAIN/metrics
//! surfaces.
//!
//! The quiescent test pins down the singleflight contract exactly: 16
//! sessions hammering one hot query on an unchanging dataset cause exactly
//! one render — every other response is a cache hit or a coalesced wait on
//! the in-flight render. The live-writer test bounds renders by the number
//! of watermarks the writer creates, and proves the cache never wedges the
//! service or serves a result that diverges from the final logical set.

use spade_core::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade_core::query::{QueryResult, SelectQuery};
use spade_core::{CacheOutcome, EngineConfig};
use spade_datagen::spider;
use spade_geometry::{BBox, Geometry, Point};
use spade_index::GridIndex;
use spade_server::{QueryRequest, QueryService, ResponsePayload, ServiceConfig};
use std::sync::Arc;

fn tiny_config() -> EngineConfig {
    let mut c = EngineConfig::test_small();
    c.resolution = 128;
    c
}

fn scatter(n: usize, extent: f64, seed: u64) -> Vec<Point> {
    let unit = spider::uniform_points(n, seed);
    spider::scale_points(&unit, &BBox::new(Point::ZERO, Point::new(extent, extent)))
}

fn service(workers: usize) -> QueryService {
    QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers,
        fairness_cap: 4,
        wal_dir: None,
    })
}

fn register_points(svc: &QueryService, pts: &[Point]) {
    let d = Dataset::from_points("pts", pts.to_vec());
    let grid = GridIndex::build(None, &d.objects, 25.0).unwrap();
    svc.register_indexed("pts", IndexedDataset::new("pts", DatasetKind::Points, grid));
}

fn hot_query() -> QueryRequest {
    QueryRequest::Select {
        dataset: "pts".into(),
        query: SelectQuery::Range(BBox::new(Point::new(20.0, 20.0), Point::new(70.0, 60.0))),
    }
}

fn ids(payload: &ResponsePayload) -> Vec<u32> {
    match payload {
        ResponsePayload::Query(QueryResult::Ids(ids)) => ids.clone(),
        other => panic!("expected id list, got {other:?}"),
    }
}

/// Quiescent hot tile: 16 sessions × 5 identical queries produce exactly one
/// render; the other 79 responses are hits (or coalesced waits on the single
/// in-flight render), every one byte-identical.
#[test]
fn sixteen_sessions_one_render() {
    let svc = Arc::new(service(8));
    let pts = scatter(500, 100.0, 23);
    register_points(&svc, &pts);

    let want: Vec<u32> = pts
        .iter()
        .enumerate()
        .filter(|(_, p)| (20.0..=70.0).contains(&p.x) && (20.0..=60.0).contains(&p.y))
        .map(|(i, _)| i as u32)
        .collect();

    let handles: Vec<_> = (0..16)
        .map(|_| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let session = svc.session();
                (0..5)
                    .map(|_| {
                        let resp = session.submit(hot_query()).wait().expect("query succeeds");
                        (ids(&resp.payload), resp.stats.result_cache)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let mut outcomes = Vec::new();
    for h in handles {
        for (got, outcome) in h.join().expect("session thread") {
            assert_eq!(got, want, "every response must be byte-identical");
            outcomes.push(outcome);
        }
    }
    assert_eq!(outcomes.len(), 80);
    let misses = outcomes
        .iter()
        .filter(|o| **o == CacheOutcome::Miss)
        .count();
    assert_eq!(misses, 1, "exactly one render for one (key, watermark)");
    assert!(outcomes.iter().all(|o| matches!(
        o,
        CacheOutcome::Miss | CacheOutcome::Hit | CacheOutcome::CoalescedHit
    )));

    let rc = svc.engine().result_cache.stats();
    assert_eq!(rc.misses, 1);
    assert_eq!(rc.hits + rc.coalesced, 79);
    assert_eq!(rc.bypasses, 0);
}

/// A live writer mutating the hot tile while 16 sessions hammer it: the
/// service must stay live (no deadlock), renders are bounded by the number
/// of watermarks the writer creates, the final answer converges on the full
/// logical set, and draining the cache returns every reserved byte.
#[test]
fn hot_tile_with_live_writer_stays_consistent() {
    let svc = Arc::new(service(8));
    let pts = scatter(400, 100.0, 29);
    register_points(&svc, &pts);
    let writes = 24u32;

    let readers: Vec<_> = (0..16)
        .map(|_| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let session = svc.session();
                let mut outcomes = Vec::new();
                for _ in 0..12 {
                    let resp = session.submit(hot_query()).wait().expect("query succeeds");
                    ids(&resp.payload); // shape check only: the set is in motion
                    outcomes.push(resp.stats.result_cache);
                }
                outcomes
            })
        })
        .collect();

    let writer = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            let session = svc.session();
            for i in 0..writes {
                let x = 25.0 + (i % 8) as f64 * 5.0;
                let y = 25.0 + (i / 8) as f64 * 10.0;
                session
                    .submit(QueryRequest::Insert {
                        dataset: "pts".into(),
                        id: 10_000 + i,
                        geometry: Geometry::Point(Point::new(x, y)),
                    })
                    .wait()
                    .expect("insert succeeds");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        })
    };

    let mut outcomes = Vec::new();
    for r in readers {
        outcomes.extend(r.join().expect("reader thread"));
    }
    writer.join().expect("writer thread");

    // Every response was served through the cache path (never bypassed),
    // and the miss count is bounded by the watermarks the writer created:
    // each insert bumps the seq, each (background) compaction bumps the
    // generation, and validate-after-compute can discard a render per
    // transition — so renders stay far below the 192 issued queries.
    assert_eq!(outcomes.len(), 16 * 12);
    let misses = outcomes
        .iter()
        .filter(|o| **o == CacheOutcome::Miss)
        .count();
    assert!(
        !outcomes.contains(&CacheOutcome::Bypass),
        "cache must be on this path"
    );
    let bound = 4 * writes as usize + 16;
    assert!(
        misses <= bound,
        "misses {misses} exceed watermark bound {bound}"
    );

    // Convergence: flush (drain + compact), then the hot query must see the
    // base points in range plus every inserted id.
    let session = svc.session();
    session
        .submit(QueryRequest::Flush {
            dataset: "pts".into(),
        })
        .wait()
        .expect("flush succeeds");
    let resp = session.submit(hot_query()).wait().expect("query succeeds");
    let got = ids(&resp.payload);
    let mut want: Vec<u32> = pts
        .iter()
        .enumerate()
        .filter(|(_, p)| (20.0..=70.0).contains(&p.x) && (20.0..=60.0).contains(&p.y))
        .map(|(i, _)| i as u32)
        .collect();
    want.extend(10_000..10_000 + writes);
    assert_eq!(got, want, "post-flush answer must be the full logical set");

    // Ledger balance: with no query running the device ledger holds the
    // cache's resident bytes, and draining the cache releases every one.
    let rc = svc.engine().result_cache.stats();
    assert_eq!(svc.engine().device.used(), rc.bytes);
    // (The post-flush query above is one more render than the readers saw.)
    let rendered = misses + usize::from(resp.stats.result_cache == CacheOutcome::Miss);
    assert!(rc.inserted as usize <= rendered, "stored ≤ rendered");
    svc.engine().result_cache.clear();
    let rc = svc.engine().result_cache.stats();
    assert_eq!(rc.entries, 0);
    assert_eq!(rc.bytes, 0);
    assert_eq!(svc.engine().device.used(), 0);
}

/// EXPLAIN ANALYZE reports cache provenance: a first run is a MISS with the
/// key's fingerprint and watermark in the plan text, a repeat is a HIT, and
/// the service metrics expose the cache counters.
#[test]
fn explain_analyze_reports_cache_provenance() {
    let svc = service(2);
    register_points(&svc, &scatter(300, 100.0, 31));

    let explain = |analyze: bool| QueryRequest::Explain {
        analyze,
        request: Box::new(hot_query()),
    };
    let session = svc.session();
    let first = session.submit(explain(true)).wait().expect("explain runs");
    let text = first.payload.explain().expect("plan text").to_string();
    assert!(text.contains("cache: MISS"), "first run is a miss:\n{text}");
    assert!(text.contains("q=0x"), "plan names the fingerprint:\n{text}");

    let second = session.submit(explain(true)).wait().expect("explain runs");
    let text = second.payload.explain().expect("plan text").to_string();
    assert!(text.contains("cache: HIT"), "repeat is a hit:\n{text}");

    let metrics = svc.metrics_text();
    for name in [
        "spade_result_cache_hits_total",
        "spade_result_cache_misses_total",
        "spade_result_cache_bytes",
        "spade_arena_external_bytes",
    ] {
        assert!(metrics.contains(name), "metrics must expose {name}");
    }
}
