//! Optimizer statistics through the service: per-tenant decision and
//! misprediction counters in the metrics exposition, namespace isolation
//! of those counters, cache hits that count nothing, and the EXPLAIN
//! ANALYZE would-have-chosen line.

use spade_core::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade_core::query::SelectQuery;
use spade_core::{CacheOutcome, EngineConfig};
use spade_datagen::spider;
use spade_geometry::{BBox, Point};
use spade_index::GridIndex;
use spade_server::{NamespaceConfig, QueryRequest, QueryService, ServiceConfig};

fn tiny_config() -> EngineConfig {
    let mut c = EngineConfig::test_small();
    c.resolution = 128;
    // A tiny list-canvas budget so full-cell `n_max` bounds exceed it
    // while selective results fit: 2-pass overshoots (mispredictions)
    // become routine.
    c.max_map_slots = 64;
    c
}

fn scatter(n: usize, extent: f64, seed: u64) -> Vec<Point> {
    let unit = spider::uniform_points(n, seed);
    spider::scale_points(&unit, &BBox::new(Point::ZERO, Point::new(extent, extent)))
}

fn indexed(name: &str, pts: Vec<Point>) -> IndexedDataset {
    let d = Dataset::from_points(name, pts);
    let grid = GridIndex::build(None, &d.objects, 25.0).unwrap();
    IndexedDataset::new(name, DatasetKind::Points, grid)
}

fn range(lo: f64, hi: f64) -> QueryRequest {
    QueryRequest::Select {
        dataset: "pts".into(),
        query: SelectQuery::Range(BBox::new(Point::new(lo, lo), Point::new(hi, hi))),
    }
}

/// Value of the first sample of `family` whose label set contains all of
/// `labels`, or 0.
fn sample(metrics: &str, family: &str, labels: &[&str]) -> u64 {
    metrics
        .lines()
        .filter(|l| l.starts_with(&format!("{family}{{")))
        .find(|l| labels.iter().all(|lab| l.contains(lab)))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn optimizer_counters_exported_per_tenant_and_isolated() {
    let svc = QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers: 2,
        fairness_cap: 4,
        wal_dir: None,
    });
    svc.create_namespace("acme", NamespaceConfig::default())
        .unwrap();
    svc.create_namespace("globex", NamespaceConfig::default())
        .unwrap();
    // Both tenants hold data; only acme queries.
    svc.register_indexed_in("acme", "pts", indexed("pts", scatter(2_000, 100.0, 1)))
        .unwrap();
    svc.register_indexed_in("globex", "pts", indexed("pts", scatter(2_000, 100.0, 2)))
        .unwrap();
    let acme = svc.session_in("acme", None).unwrap();
    // Distinct windows so the result cache cannot absorb the repeats;
    // small windows so per-cell results fit 64 slots while full-cell
    // bounds (hundreds of points) do not → map_two_pass overshoots.
    for i in 0..4 {
        let lo = 10.0 + i as f64;
        acme.submit(range(lo, lo + 6.0)).wait().unwrap();
    }

    let metrics = svc.metrics_text();
    assert!(
        metrics.contains("# TYPE spade_optimizer_decisions_total counter"),
        "decisions family missing:\n{metrics}"
    );
    assert!(
        metrics.contains("# TYPE spade_optimizer_mispredictions_total counter"),
        "mispredictions family missing:\n{metrics}"
    );
    let acme_dec = sample(
        &metrics,
        "spade_optimizer_decisions_total",
        &["tenant=\"acme\"", "decision=\"map_two_pass\""],
    );
    assert!(acme_dec > 0, "acme ran 2-pass maps:\n{metrics}");
    let acme_mis = sample(
        &metrics,
        "spade_optimizer_mispredictions_total",
        &["tenant=\"acme\"", "decision=\"map_two_pass\""],
    );
    assert!(
        acme_mis > 0,
        "selective windows under a full-cell bound must overshoot:\n{metrics}"
    );
    // The idle tenant's counters stay zero for every decision label —
    // decisions are counted per tenant, not engine-global.
    for d in ["map_one_pass", "map_two_pass"] {
        let v = sample(
            &metrics,
            "spade_optimizer_decisions_total",
            &["tenant=\"globex\"", &format!("decision=\"{d}\"")],
        );
        assert_eq!(v, 0, "globex never queried ({d}):\n{metrics}");
    }
}

/// A reply served from the result cache counts no decisions: its plan
/// report replays the render's, which counted when it ran.
#[test]
fn cache_hit_counts_no_decisions() {
    let svc = QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers: 1,
        fairness_cap: 2,
        wal_dir: None,
    });
    svc.create_namespace("acme", NamespaceConfig::default())
        .unwrap();
    svc.register_indexed_in("acme", "pts", indexed("pts", scatter(2_000, 100.0, 4)))
        .unwrap();
    let acme = svc.session_in("acme", None).unwrap();
    let two_pass = || {
        sample(
            &svc.metrics_text(),
            "spade_optimizer_decisions_total",
            &["tenant=\"acme\"", "decision=\"map_two_pass\""],
        )
    };
    let first = acme.submit(range(30.0, 36.0)).wait().unwrap();
    assert_eq!(first.stats.result_cache, CacheOutcome::Miss);
    let rendered = two_pass();
    assert!(rendered > 0, "the render ran 2-pass maps");
    let second = acme.submit(range(30.0, 36.0)).wait().unwrap();
    assert_eq!(second.stats.result_cache, CacheOutcome::Hit);
    assert_eq!(two_pass(), rendered, "the HIT counted the render again");
}

#[test]
fn explain_analyze_prints_would_have_chosen_on_mispredict() {
    let svc = QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers: 1,
        fairness_cap: 2,
        wal_dir: None,
    });
    svc.create_namespace("acme", NamespaceConfig::default())
        .unwrap();
    svc.register_indexed_in("acme", "pts", indexed("pts", scatter(2_000, 100.0, 3)))
        .unwrap();
    let session = svc.session_in("acme", None).unwrap();
    let resp = session
        .submit(QueryRequest::Explain {
            analyze: true,
            request: Box::new(range(20.0, 27.0)),
        })
        .wait()
        .unwrap();
    let plan = resp.payload.explain().unwrap().to_string();
    assert!(
        plan.contains("mispredicted:"),
        "a selective window under a full-cell n_max must mispredict:\n{plan}"
    );
    assert!(
        plan.contains("would-have-chosen OnePass"),
        "verdict names the better choice:\n{plan}"
    );
}
