//! Multi-tenant isolation through the service: separate catalogs and
//! result caches under colliding dataset names, per-tenant admission
//! quotas that defer without starving other tenants, quota-aware
//! rejection, sanitized metric labels, and EXPLAIN ANALYZE cache
//! provenance carrying the namespace.

use spade_core::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade_core::query::SelectQuery;
use spade_core::{CacheOutcome, EngineConfig};
use spade_datagen::spider;
use spade_geometry::{BBox, Point};
use spade_index::GridIndex;
use spade_server::{
    NamespaceConfig, QueryRequest, QueryService, ResponsePayload, ServiceConfig, ServiceError,
};
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

fn ids(payload: &ResponsePayload) -> Vec<u32> {
    let mut v = payload.query().unwrap().ids().unwrap().to_vec();
    v.sort_unstable();
    v
}

#[test]
fn same_dataset_name_is_isolated_per_tenant_including_the_cache() {
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
    // Same name, same extent, different data.
    svc.register_indexed_in("acme", "pts", indexed("pts", scatter(2_000, 100.0, 1)))
        .unwrap();
    svc.register_indexed_in("globex", "pts", indexed("pts", scatter(2_000, 100.0, 2)))
        .unwrap();

    let acme = svc.session_in("acme", None).unwrap();
    let globex = svc.session_in("globex", None).unwrap();
    let q = || range(10.0, 70.0);

    let a1 = acme.submit(q()).wait().unwrap();
    let g1 = globex.submit(q()).wait().unwrap();
    assert_ne!(
        ids(&a1.payload),
        ids(&g1.payload),
        "tenants with different data must see different results"
    );

    // Repeat in each tenant: a cache hit, and each hit byte-equal to the
    // *same tenant's* first answer — same name, same query fingerprint,
    // but the namespace id in the cache key keeps the entries apart.
    let a2 = acme.submit(q()).wait().unwrap();
    let g2 = globex.submit(q()).wait().unwrap();
    assert_eq!(a2.stats.result_cache, CacheOutcome::Hit);
    assert_eq!(g2.stats.result_cache, CacheOutcome::Hit);
    assert_eq!(ids(&a2.payload), ids(&a1.payload));
    assert_eq!(ids(&g2.payload), ids(&g1.payload));
    assert_ne!(ids(&a2.payload), ids(&g2.payload));
}

#[test]
fn explain_analyze_reports_tenant_cache_provenance() {
    let svc = QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers: 1,
        fairness_cap: 2,
        wal_dir: None,
    });
    svc.create_namespace("acme", NamespaceConfig::default())
        .unwrap();
    svc.register_indexed_in("acme", "pts", indexed("pts", scatter(1_000, 100.0, 3)))
        .unwrap();
    let session = svc.session_in("acme", None).unwrap();
    // Warm the cache, then EXPLAIN ANALYZE the same query: the plan's
    // cache line must carry the tenant id that produced the entry.
    session.submit(range(5.0, 60.0)).wait().unwrap();
    let resp = session
        .submit(QueryRequest::Explain {
            analyze: true,
            request: Box::new(range(5.0, 60.0)),
        })
        .wait()
        .unwrap();
    let plan = resp.payload.explain().unwrap().to_string();
    assert!(plan.contains("cache: HIT"), "plan:\n{plan}");
    assert!(plan.contains("tenant"), "plan:\n{plan}");
}

/// Probe a namespace with an unmeetable quota to learn the footprint the
/// admission controller charges for `req` there.
fn probe_footprint(svc: &QueryService, data: IndexedDataset, req: QueryRequest) -> u64 {
    svc.create_namespace(
        "probe",
        NamespaceConfig {
            quota_bytes: Some(1),
            token: None,
        },
    )
    .unwrap();
    svc.register_indexed_in("probe", "pts", data).unwrap();
    let session = svc.session_in("probe", None).unwrap();
    match session.submit(req).wait() {
        Err(ServiceError::Rejected { estimated, .. }) => estimated,
        other => panic!("probe should be rejected, got {other:?}"),
    }
}

#[test]
fn tenant_at_quota_defers_without_starving_others() {
    let svc = QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers: 4,
        fairness_cap: 16,
        wal_dir: None,
    });
    let pts = scatter(20_000, 100.0, 7);
    let footprint = probe_footprint(&svc, indexed("pts", pts.clone()), range(0.0, 99.0));

    // "small" can run exactly one such query at a time; "big" is
    // unlimited.
    svc.create_namespace(
        "small",
        NamespaceConfig {
            quota_bytes: Some(footprint + footprint / 2),
            token: None,
        },
    )
    .unwrap();
    svc.create_namespace("big", NamespaceConfig::default())
        .unwrap();
    svc.register_indexed_in("small", "pts", indexed("pts", pts.clone()))
        .unwrap();
    svc.register_indexed_in("big", "pts", indexed("pts", pts))
        .unwrap();

    let small = svc.session_in("small", None).unwrap();
    let big = svc.session_in("big", None).unwrap();

    // Saturate the small tenant far beyond its quota. Distinct windows so
    // the result cache cannot short-circuit the later queries.
    let small_tickets: Vec<_> = (0..6)
        .map(|i| small.submit(range(i as f64, 99.0 - i as f64)))
        .collect();
    // Then one query from the unencumbered tenant, submitted last: FIFO
    // order alone would trap it behind five quota-blocked queries.
    let big_ticket = big.submit(range(3.0, 96.0));
    let big_resp = big_ticket.wait().expect("big tenant must not starve");
    assert!(big_resp.payload.query().is_some());

    // The small tenant's backlog eventually completes too (deferred, not
    // rejected, not deadlocked).
    let deadline = Instant::now() + Duration::from_secs(60);
    for t in small_tickets {
        assert!(Instant::now() < deadline, "small tenant queries wedged");
        t.wait().expect("quota defers, never fails");
    }

    let metrics = svc.metrics_text();
    let deferrals = metrics
        .lines()
        .find(|l| l.starts_with("spade_tenant_quota_deferrals_total{tenant=\"small\"}"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    assert!(
        deferrals > 0,
        "admission must have skipped the at-quota tenant at least once:\n{metrics}"
    );
    // Tenant admission ledger balanced after the dust settles. (The
    // engine's device ledger is not asserted: pooled buffers legitimately
    // stay resident between queries.)
    assert!(
        metrics.contains("spade_tenant_reserved_bytes{tenant=\"small\"} 0"),
        "{metrics}"
    );
}

#[test]
fn quota_caps_rejection_capacity() {
    let svc = QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers: 1,
        fairness_cap: 2,
        wal_dir: None,
    });
    svc.create_namespace(
        "capped",
        NamespaceConfig {
            quota_bytes: Some(64),
            token: None,
        },
    )
    .unwrap();
    svc.register_indexed_in("capped", "pts", indexed("pts", scatter(5_000, 100.0, 9)))
        .unwrap();
    let session = svc.session_in("capped", None).unwrap();
    match session.submit(range(0.0, 99.0)).wait() {
        Err(ServiceError::Rejected {
            estimated,
            capacity,
        }) => {
            assert_eq!(capacity, 64, "capacity must report the binding quota");
            assert!(estimated > capacity);
        }
        other => panic!("expected quota rejection, got {other:?}"),
    }
}

#[test]
fn metric_labels_escape_hostile_names() {
    let svc = QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers: 1,
        fairness_cap: 2,
        wal_dir: None,
    });
    // Quotes and backslashes are legal in names (control chars and ':'
    // are not); the exposition must escape them.
    svc.create_namespace("acme\"corp\\", NamespaceConfig::default())
        .unwrap();
    let session = svc.session_in("acme\"corp\\", None).unwrap();
    // One submission so the tenant shows up in the per-tenant families.
    let _ = session.submit(range(0.0, 1.0)).wait();
    let metrics = svc.metrics_text();
    assert!(
        metrics.contains("tenant=\"acme\\\"corp\\\\\""),
        "label must be escaped:\n{metrics}"
    );
    // Every label value must parse back cleanly: between `tenant="` and
    // the closing quote, a quote may only appear escaped, and unescaping
    // recovers the original hostile name.
    let mut seen = false;
    for line in metrics.lines().filter(|l| l.contains("tenant=\"")) {
        let rest = line.split("tenant=\"").nth(1).unwrap();
        let mut value = String::new();
        let mut chars = rest.chars();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => panic!("bad escape {other:?} in: {line}"),
                },
                Some('"') => break, // properly terminated
                Some(c) => value.push(c),
                None => panic!("label never terminated in: {line}"),
            }
        }
        if value == "acme\"corp\\" {
            seen = true;
        }
    }
    assert!(seen, "escaped tenant label must round-trip:\n{metrics}");
}

#[test]
fn invalid_names_are_rejected_at_creation() {
    let svc = QueryService::new(ServiceConfig {
        engine: tiny_config(),
        workers: 1,
        fairness_cap: 2,
        wal_dir: None,
    });
    for bad in ["", "a:b", "x\ny", &"n".repeat(300)] {
        assert!(
            matches!(
                svc.create_namespace(bad, NamespaceConfig::default()),
                Err(ServiceError::InvalidName(_))
            ),
            "name {bad:?} must be rejected"
        );
    }
    // Duplicate names are invalid too.
    svc.create_namespace("dup", NamespaceConfig::default())
        .unwrap();
    assert!(matches!(
        svc.create_namespace("dup", NamespaceConfig::default()),
        Err(ServiceError::InvalidName(_))
    ));
    // Dataset names are validated on tenant registration.
    assert!(matches!(
        svc.register_in("dup", "a:b", Dataset::from_points("a:b", vec![Point::ZERO])),
        Err(ServiceError::InvalidName(_))
    ));
}

#[test]
fn sql_tables_are_isolated_per_tenant() {
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
    let acme = svc.session_in("acme", None).unwrap();
    let globex = svc.session_in("globex", None).unwrap();
    let default = svc.session();
    let sql = |s: &str| QueryRequest::Sql(s.into());

    // acme creates and fills a table.
    acme.submit(sql("CREATE TABLE accounts (id INT, balance FLOAT)"))
        .wait()
        .unwrap();
    acme.submit(sql("INSERT INTO accounts VALUES (1, 100.0)"))
        .wait()
        .unwrap();

    // globex must not see acme's table at all — neither to read it...
    let err = globex
        .submit(sql("SELECT id FROM accounts"))
        .wait()
        .unwrap_err();
    assert!(
        matches!(
            err,
            ServiceError::Storage(spade_storage::StorageError::UnknownTable(_))
        ),
        "cross-tenant SQL read must fail: {err}"
    );
    // ...nor to modify it.
    let err = globex
        .submit(sql("INSERT INTO accounts VALUES (666, 0.0)"))
        .wait()
        .unwrap_err();
    assert!(
        matches!(
            err,
            ServiceError::Storage(spade_storage::StorageError::UnknownTable(_))
        ),
        "cross-tenant SQL write must fail: {err}"
    );
    // The default namespace is a tenant like any other.
    assert!(default
        .submit(sql("SELECT id FROM accounts"))
        .wait()
        .is_err());

    // globex can register its own colliding table name with different data
    // and each tenant reads back only its own rows.
    globex
        .submit(sql("CREATE TABLE accounts (id INT, balance FLOAT)"))
        .wait()
        .unwrap();
    globex
        .submit(sql("INSERT INTO accounts VALUES (2, 7.0)"))
        .wait()
        .unwrap();
    let rows = |payload: &ResponsePayload| -> Vec<i64> {
        match payload {
            ResponsePayload::Sql(spade_storage::sql::SqlResult::Rows(t)) => (0..t.num_rows())
                .filter_map(|i| match t.row(i).into_iter().next() {
                    Some(spade_storage::Value::Int(v)) => Some(v),
                    _ => None,
                })
                .collect(),
            other => panic!("expected rows, got {other:?}"),
        }
    };
    let a = acme.submit(sql("SELECT id FROM accounts")).wait().unwrap();
    let g = globex
        .submit(sql("SELECT id FROM accounts"))
        .wait()
        .unwrap();
    assert_eq!(rows(&a.payload), vec![1]);
    assert_eq!(rows(&g.payload), vec![2]);

    // Direct programmatic access agrees: each tenant's store holds exactly
    // its own table contents.
    let acme_rows = svc
        .with_database("acme", |db| {
            spade_storage::sql::execute(db, "SELECT id FROM accounts").unwrap()
        })
        .unwrap();
    match acme_rows {
        spade_storage::sql::SqlResult::Rows(t) => assert_eq!(t.num_rows(), 1),
        other => panic!("expected rows, got {other:?}"),
    }
}

/// One scrape of a two-tenant service against the rendering of the commit
/// before the per-tenant families became one table: family order, every
/// `# HELP` / `# TYPE` line and label set, and the per-tenant and optimizer
/// sample values byte for byte. Samples outside those families carry
/// timings and pool sizes, so their values (only) are masked to `_`.
#[test]
fn two_tenant_scrape_matches_golden() {
    let mut engine = tiny_config();
    // Selective windows overshoot their 2-pass Maps, so the misprediction
    // family is not all zeros.
    engine.max_map_slots = 64;
    let svc = QueryService::new(ServiceConfig {
        engine,
        workers: 1,
        fairness_cap: 2,
        wal_dir: None,
    });
    svc.create_namespace(
        "acme",
        NamespaceConfig {
            quota_bytes: Some(64),
            token: None,
        },
    )
    .unwrap();
    svc.register_indexed("pts", indexed("pts", scatter(2_000, 100.0, 1)));
    svc.register_indexed_in("acme", "pts", indexed("pts", scatter(2_000, 100.0, 2)))
        .unwrap();

    // default: 4 completed, 2 cancelled, 1 failed; acme: 3 rejected.
    let default = svc.session();
    for i in 0..4 {
        let lo = 10.0 + i as f64;
        default.submit(range(lo, lo + 6.0)).wait().unwrap();
    }
    for _ in 0..2 {
        let token = spade_core::CancelToken::new();
        token.cancel();
        let cancelled = default.submit_with_token(range(0.0, 50.0), token);
        cancelled.wait().unwrap_err();
    }
    let points_join_points = QueryRequest::Join {
        left: "pts".into(),
        right: "pts".into(),
        query: spade_core::query::JoinQuery::Intersects,
    };
    default.submit(points_join_points).wait().unwrap_err();
    let acme = svc.session_in("acme", None).unwrap();
    for _ in 0..3 {
        acme.submit(range(0.0, 99.0)).wait().unwrap_err();
    }

    let exact = |l: &str| {
        l.starts_with('#') || l.starts_with("spade_tenant_") || l.starts_with("spade_optimizer_")
    };
    let scrape: Vec<String> = svc
        .metrics_text()
        .lines()
        .map(|l| match l.rsplit_once(' ') {
            Some((sample, _)) if !exact(l) => format!("{sample} _"),
            _ => l.to_string(),
        })
        .collect();
    let golden: Vec<&str> = include_str!("golden/two_tenant_scrape.txt")
        .lines()
        .collect();
    for (i, (got, want)) in scrape.iter().zip(&golden).enumerate() {
        assert_eq!(got, want, "line {}", i + 1);
    }
    assert_eq!(scrape.len(), golden.len());

    // The golden file masks the service-wide totals; pin them here, against
    // the snapshot and against the sum of the per-tenant samples.
    let snap = svc.stats();
    let totals = [
        ("submitted", snap.submitted),
        ("completed", snap.completed),
        ("cancelled", snap.cancelled),
        ("failed", snap.failed),
        ("rejected", snap.rejected),
    ];
    assert_eq!(totals.map(|(_, n)| n), [10, 4, 2, 1, 3]);
    let text = svc.metrics_text();
    let samples = |prefix: &str| -> u64 {
        (text.lines())
            .filter(|l| l.starts_with(prefix))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum()
    };
    for (outcome, n) in totals {
        assert_eq!(samples(&format!("spade_queries_{outcome}_total ")), n);
        assert_eq!(
            samples(&format!("spade_tenant_queries_{outcome}_total{{")),
            n
        );
    }
}
