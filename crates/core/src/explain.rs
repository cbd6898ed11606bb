//! Plan reports: what the optimizer decided, and why.
//!
//! The optimizer (§5.4) makes silent choices — 1-pass vs 2-pass Map by the
//! result-size estimate `n_max`, boustrophedon cell-pair ordering — and the
//! indexed join estimates the bytes its ordered walk moves. `EXPLAIN
//! ANALYZE` needs those decisions *and* their inputs back out of a query
//! execution, so estimated values can be printed next to actuals.
//!
//! The optimizer decides while the query runs, so the decisions are part of
//! the record the query returns: [`QueryStats::plan`]. The code that makes
//! each decision fills it in — the Map choices are tallied in the query's
//! recording frame ([`spade_gpu::record`]) and moved into the plan when
//! the measurement closes, the walks carry their views' delta merges, the
//! indexed join builds its [`JoinPlan`] after the walk, and the result
//! cache stores a render's plan with its entry. This module only renders
//! it; the service counts its tenants' decisions from the same field.

use crate::stats::QueryStats;
pub use spade_gpu::record::MapDecisions;

/// The out-of-core join's plan (§5.3–5.4): the ordered walk over the
/// filtered cell pairs and the bytes it is estimated to move.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinPlan {
    /// Estimated bytes the layer-index walk moves to the device.
    pub layer_est_bytes: u64,
    /// Cell pairs that survived the filter stage.
    pub cell_pairs: u64,
    /// Residency changes in the boustrophedon-ordered load sequence.
    pub sequence_len: u64,
}

/// Live-ingestion state one dataset contributed to a query: how much
/// uncompacted delta the merge had to fold in, and which index
/// generation the base results came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaInfo {
    /// Dataset the delta belongs to.
    pub dataset: String,
    /// Grid-index generation the query's base results were read from.
    pub generation: u64,
    /// Staged (not yet compacted) inserts merged into the result.
    pub staged: u64,
    /// Staged deletes masking base results.
    pub tombstones: u64,
    /// Approximate staged bytes — the compaction debt for this dataset.
    pub bytes: u64,
}

impl DeltaInfo {
    /// The delta merges a walk over `views` folds in: one entry per dataset
    /// whose view carries uncompacted writes (a self-join's two views of one
    /// dataset name it once).
    pub(crate) fn of_views(views: &[&crate::dataset::ReadView<'_>]) -> Vec<DeltaInfo> {
        let mut deltas: Vec<DeltaInfo> = Vec::new();
        for view in views.iter().filter(|v| v.has_delta()) {
            if !deltas.iter().any(|d| d.dataset == view.name()) {
                deltas.push(DeltaInfo {
                    dataset: view.name().to_string(),
                    generation: view.grid.generation,
                    staged: view.delta.staged.len() as u64,
                    tombstones: view.delta.tombstones.len() as u64,
                    bytes: view.delta.bytes,
                });
            }
        }
        deltas
    }
}

/// The result-cache key a cached dispatcher probed (fingerprint and input
/// versions), so an `EXPLAIN ANALYZE` shows exactly which snapshot a HIT
/// was served from. The outcome itself is [`QueryStats::result_cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheNote {
    /// The probed key; `None` for BYPASS (no key was ever computed).
    pub key: Option<crate::result_cache::CacheKey>,
}

/// Everything a query reported about its planning.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanReport {
    /// Map implementation choices (None when the query ran no Map).
    pub map: Option<MapDecisions>,
    /// The join's walk (None for non-join queries).
    pub join: Option<JoinPlan>,
    /// Per-dataset delta merges (empty when every input was compacted).
    pub deltas: Vec<DeltaInfo>,
    /// Result-cache provenance (None when no cached dispatcher ran).
    pub cache: Option<CacheNote>,
}

/// Render a query's plan as indented plan lines. With `analyze` (an
/// `EXPLAIN ANALYZE` run), estimated values print next to the actuals.
pub fn render(stats: &QueryStats, analyze: bool) -> String {
    let plan = &stats.plan;
    let actual = analyze.then_some(stats);
    let mut out = String::new();
    if let Some(j) = &plan.join {
        out.push_str(&format!("  join: layer index (est {} B", j.layer_est_bytes));
        match actual {
            Some(s) => out.push_str(&format!("; actual to-device {} B)\n", s.bytes_to_device)),
            None => out.push_str(")\n"),
        }
        out.push_str(&format!(
            "  cell pairs: {} ({} loads after boustrophedon ordering)\n",
            j.cell_pairs, j.sequence_len
        ));
    }
    if let Some(m) = &plan.map {
        out.push_str(&format!(
            "  map: {} 1-pass, {} 2-pass (max n_max {} vs {} slots",
            m.one_pass, m.two_pass, m.max_n_max, m.slots
        ));
        match actual {
            Some(s) => out.push_str(&format!("; actual results {})\n", s.result_count)),
            None => out.push_str(")\n"),
        }
        if m.overshoots > 0 {
            out.push_str(&format!(
                "  mispredicted: {} 2-pass runs whose results fit the 1-pass canvas (est n_max {} vs {} slots), would-have-chosen OnePass\n",
                m.overshoots, m.max_n_max, m.slots
            ));
        }
    }
    for d in &plan.deltas {
        out.push_str(&format!(
            "  delta[{}]: generation {}, {} staged + {} tombstones merged ({} B debt)\n",
            d.dataset, d.generation, d.staged, d.tombstones, d.bytes
        ));
    }
    if let Some(note) = &plan.cache {
        out.push_str(&format!("  cache: {}", stats.result_cache.label()));
        if let Some(k) = &note.key {
            out.push_str(&format!(
                " (q=0x{:016x}, left {}",
                k.fingerprint, k.left.version
            ));
            if let Some(r) = &k.right {
                out.push_str(&format!(", right {}", r.version));
            }
            // The namespace is part of the key: a HIT was provably
            // produced inside this tenant. Elided for the default
            // (in-process) namespace 0.
            if k.tenant != 0 {
                out.push_str(&format!(", tenant {}", k.tenant));
            }
            out.push(')');
        }
        out.push('\n');
    }
    if let Some(s) = actual {
        out.push_str(&format!("  actual: {}\n", s.breakdown()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CacheOutcome;

    /// Stats carrying only `plan`, as a query that made no other progress.
    fn planned(plan: PlanReport) -> QueryStats {
        QueryStats {
            plan,
            ..Default::default()
        }
    }

    #[test]
    fn render_prints_estimates_and_actuals() {
        let report = PlanReport {
            map: Some(MapDecisions {
                one_pass: 3,
                max_n_max: 1000,
                slots: 4096,
                ..MapDecisions::default()
            }),
            join: Some(JoinPlan {
                layer_est_bytes: 1234,
                cell_pairs: 9,
                sequence_len: 12,
            }),
            deltas: vec![DeltaInfo {
                dataset: "live".into(),
                generation: 3,
                staged: 17,
                tombstones: 2,
                bytes: 4096,
            }],
            cache: Some(CacheNote {
                key: Some(crate::result_cache::CacheKey {
                    fingerprint: 0xdead_beef,
                    tenant: 9,
                    left: crate::result_cache::InputVersion {
                        token: 1,
                        version: spade_index::Version {
                            generation: 3,
                            seq: 42,
                        },
                    },
                    right: None,
                }),
            }),
        };
        let stats = QueryStats {
            bytes_to_device: 1300,
            result_count: 987,
            result_cache: CacheOutcome::Hit,
            ..planned(report)
        };
        let plain = render(&stats, false);
        assert!(plain.contains("cache: HIT"));
        assert!(plain.contains("0x00000000deadbeef"));
        assert!(plain.contains("left g3s42"));
        assert!(plain.contains("tenant 9"));
        assert!(plain.contains("join: layer index (est 1234 B)"));
        assert!(plain.contains("cell pairs: 9 (12 loads"));
        assert!(!plain.contains("actual"));
        let analyzed = render(&stats, true);
        assert!(analyzed.contains("join: layer index (est 1234 B; actual to-device 1300 B)"));
        assert!(analyzed.contains("actual results 987"));
        assert!(analyzed.contains("total="));
        assert!(analyzed.contains("delta[live]: generation 3"));
        assert!(analyzed.contains("17 staged + 2 tombstones"));
    }

    #[test]
    fn render_prints_map_mispredictions() {
        let report = PlanReport {
            map: Some(MapDecisions {
                one_pass: 1,
                two_pass: 4,
                overshoots: 3,
                max_n_max: 6_000,
                slots: 4_096,
            }),
            ..PlanReport::default()
        };
        let s = render(&planned(report), false);
        assert!(s.contains(
            "3 2-pass runs whose results fit the 1-pass canvas (est n_max 6000 vs 4096 slots), would-have-chosen OnePass"
        ));
    }

    /// Record one Map choice into the open frame, as `run_map` does.
    fn note_map(two_pass: bool, n_max: u64, slots: u64, overshoot: bool) {
        spade_gpu::record::add_map(MapDecisions {
            one_pass: !two_pass as u64,
            two_pass: two_pass as u64,
            overshoots: overshoot as u64,
            max_n_max: n_max,
            slots,
        });
    }

    /// Close a measurement that did no other work into its stats.
    fn finish(m: crate::engine::Measure, spade: &crate::Spade) -> QueryStats {
        m.finish(spade, &Default::default(), &[], 0)
    }

    #[test]
    fn map_decisions_aggregate() {
        let spade = crate::Spade::new(crate::EngineConfig::test_small());
        let m = spade.begin();
        note_map(false, 10, 100, false);
        note_map(false, 50, 100, false);
        note_map(true, 500, 100, false);
        note_map(true, 20, 100, true);
        let m = finish(m, &spade).plan.map.unwrap();
        assert_eq!(m.one_pass, 2);
        assert_eq!(m.two_pass, 2);
        assert_eq!(m.overshoots, 1);
        assert_eq!(m.max_n_max, 500);
        assert_eq!(m.slots, 100);
        // A query that ran no Map reports none.
        let empty = spade.begin();
        assert_eq!(finish(empty, &spade).plan.map, None);
    }

    #[test]
    fn nested_reports_fold_into_parent() {
        let spade = crate::Spade::new(crate::EngineConfig::test_small());
        let outer = spade.begin();
        note_map(false, 5, 100, false);
        let inner = spade.begin();
        note_map(false, 7, 100, false);
        let inner = finish(inner, &spade);
        let outer = finish(outer, &spade);
        assert_eq!(inner.plan.map.unwrap().one_pass, 1);
        assert_eq!(outer.plan.map.unwrap().one_pass, 2);
        assert_eq!(outer.plan.map.unwrap().max_n_max, 7);
    }

    /// A walk's delta merges name each dataset with staged writes once —
    /// a self-join's two views of one dataset included — and a view with
    /// nothing staged none.
    #[test]
    fn delta_notes_dedupe_and_fold() {
        let dataset = |name: &str| {
            let objects = vec![(0, spade_geometry::Geometry::Point(Default::default()))];
            let grid = spade_index::GridIndex::build(None, &objects, 1.0).unwrap();
            crate::dataset::IndexedDataset::new(name, crate::dataset::DatasetKind::Points, grid)
        };
        let (a, b, clean) = (dataset("a"), dataset("b"), dataset("clean"));
        a.insert(7, spade_geometry::Geometry::Point(Default::default()));
        b.insert(8, spade_geometry::Geometry::Point(Default::default()));
        b.delete(0);
        let (va, vb, vc) = (a.read_view(), b.read_view(), clean.read_view());
        assert_eq!(DeltaInfo::of_views(&[&vc, &vc]), vec![]);
        let self_join = DeltaInfo::of_views(&[&va, &va]);
        assert_eq!(self_join.len(), 1);
        assert_eq!((self_join[0].staged, self_join[0].tombstones), (1, 0));
        let both = DeltaInfo::of_views(&[&va, &vb, &vc]);
        let names: Vec<&str> = both.iter().map(|d| d.dataset.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!((both[1].staged, both[1].tombstones), (1, 1));
        let stats = planned(PlanReport {
            deltas: both,
            ..PlanReport::default()
        });
        assert!(render(&stats, false).contains("delta[b]: generation 0, 1 staged + 1 tombstones"));
    }
}
