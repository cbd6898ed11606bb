//! Plan reports: what the optimizer decided, and why.
//!
//! The optimizer (§5.4) makes silent cost-based choices — 1-pass vs
//! 2-pass Map by the result-size estimate `n_max`, layer-index vs naive
//! join by estimated transfer bytes, boustrophedon cell-pair ordering.
//! `EXPLAIN ANALYZE` needs those decisions *and* their inputs back out of
//! a query execution, so estimated values can be printed next to actuals.
//!
//! Like [`spade_gpu::record`], collection is thread-local and nestable: a
//! caller opens a report with [`open`], runs the query on the same thread,
//! and closes it with [`Report::finish`] — or, on an early return or an
//! unwind, by dropping the guard. Decision sites inside the engine call the
//! `note_*` hooks, which are no-ops when no report is open — ordinary
//! queries pay one thread-local check per decision.
//!
//! A report is also how a decision gets *counted*: the service opens one
//! per job and adds the job's Map and join decisions to its tenant's
//! counters, so no decision counter lives in the engine.

use crate::optimizer::{JoinStrategy, MapImpl};
use crate::stats::QueryStats;
use std::cell::RefCell;

/// Summary of the Map implementation choices one query made. Out-of-core
/// queries run one Map per refined cell, so choices are aggregated:
/// per-implementation counts plus the largest estimate seen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapDecisions {
    /// Maps run with the 1-pass implementation.
    pub one_pass: u64,
    /// Maps run with the 2-pass implementation.
    pub two_pass: u64,
    /// 2-pass Maps whose result turned out to fit a 1-pass canvas (the
    /// bound exceeded the slots but the actual result did not): in
    /// hindsight, 1-pass would have been chosen.
    pub overshoots: u64,
    /// Largest result-size estimate (`n_max`) any Map saw.
    pub max_n_max: u64,
    /// The list-canvas slot budget the estimates were compared against.
    pub slots: u64,
}

/// The out-of-core join strategy decision (§5.4), with both estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinDecision {
    /// Strategy chosen (least estimated transfer volume; ties → layer).
    pub strategy: JoinStrategy,
    /// Estimated bytes moved by the layer-index strategy.
    pub layer_est_bytes: u64,
    /// Estimated bytes moved by the naive per-object strategy.
    pub naive_est_bytes: u64,
    /// Cell pairs that survived the filter stage.
    pub cell_pairs: u64,
    /// Residency changes in the boustrophedon-ordered load sequence.
    pub sequence_len: u64,
    /// True when warm observed statistics (not the static estimates)
    /// decided the strategy.
    pub adaptive: bool,
    /// Adaptive decisions only: predicted execution nanos (layer, naive)
    /// from the observed per-strategy cost model.
    pub predicted_cost_nanos: Option<(u64, u64)>,
    /// Bytes the residency walk actually moved to the device (filled in
    /// after execution).
    pub actual_bytes: Option<u64>,
    /// Execution nanos (GPU + modeled bus) the walk actually took.
    pub actual_cost_nanos: Option<u64>,
    /// Hindsight verdict: the decision's own prediction was exceeded by
    /// the actuals AND the alternative's prediction beat them.
    pub mispredicted: bool,
    /// The strategy hindsight says should have run (set iff mispredicted).
    pub would_have_chosen: Option<JoinStrategy>,
}

impl Default for JoinDecision {
    fn default() -> Self {
        JoinDecision {
            strategy: JoinStrategy::LayerIndex,
            layer_est_bytes: 0,
            naive_est_bytes: 0,
            cell_pairs: 0,
            sequence_len: 0,
            adaptive: false,
            predicted_cost_nanos: None,
            actual_bytes: None,
            actual_cost_nanos: None,
            mispredicted: false,
            would_have_chosen: None,
        }
    }
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

/// How the query interacted with the engine's result cache: the outcome
/// plus the key that was probed (fingerprint and input versions), so an
/// `EXPLAIN ANALYZE` shows exactly which snapshot a HIT was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheNote {
    pub outcome: crate::stats::CacheOutcome,
    /// The probed key; `None` for BYPASS (no key was ever computed).
    pub key: Option<crate::result_cache::CacheKey>,
}

/// Everything a query reported about its planning.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanReport {
    /// Map implementation choices (None when the query ran no Map).
    pub map: Option<MapDecisions>,
    /// Join strategy decision (None for non-join queries).
    pub join: Option<JoinDecision>,
    /// Per-dataset delta merges (empty when every input was compacted).
    pub deltas: Vec<DeltaInfo>,
    /// Result-cache provenance (None when no cached dispatcher ran).
    pub cache: Option<CacheNote>,
}

impl PlanReport {
    fn absorb(&mut self, other: &PlanReport) {
        if let Some(m) = &other.map {
            let mine = self.map.get_or_insert_with(MapDecisions::default);
            mine.one_pass += m.one_pass;
            mine.two_pass += m.two_pass;
            mine.overshoots += m.overshoots;
            mine.max_n_max = mine.max_n_max.max(m.max_n_max);
            mine.slots = mine.slots.max(m.slots);
        }
        if other.join.is_some() && self.join.is_none() {
            self.join = other.join;
        }
        for d in &other.deltas {
            if !self.deltas.iter().any(|mine| mine.dataset == d.dataset) {
                self.deltas.push(d.clone());
            }
        }
        if self.cache.is_none() {
            self.cache = other.cache;
        }
    }

    /// Render the report as indented plan lines. With `actual` (an
    /// `EXPLAIN ANALYZE` run), estimated values print next to actuals.
    pub fn render(&self, actual: Option<&QueryStats>) -> String {
        let mut out = String::new();
        if let Some(j) = &self.join {
            out.push_str(&format!(
                "  strategy: {:?} (est layer {} B vs naive {} B",
                j.strategy, j.layer_est_bytes, j.naive_est_bytes
            ));
            match actual {
                Some(s) => out.push_str(&format!("; actual to-device {} B)\n", s.bytes_to_device)),
                None => out.push_str(")\n"),
            }
            if let Some((lp, np)) = j.predicted_cost_nanos {
                out.push_str(&format!(
                    "  observed: predicted cost layer {} µs vs naive {} µs (adaptive)\n",
                    lp / 1_000,
                    np / 1_000
                ));
            }
            out.push_str(&format!(
                "  cell pairs: {} ({} loads after boustrophedon ordering)\n",
                j.cell_pairs, j.sequence_len
            ));
            if j.mispredicted {
                let would = j.would_have_chosen.unwrap_or(match j.strategy {
                    JoinStrategy::LayerIndex => JoinStrategy::NaiveSelects,
                    JoinStrategy::NaiveSelects => JoinStrategy::LayerIndex,
                });
                match (j.adaptive, j.predicted_cost_nanos, j.actual_cost_nanos) {
                    (true, Some((lp, np)), Some(ac)) => {
                        let est = match j.strategy {
                            JoinStrategy::LayerIndex => lp,
                            JoinStrategy::NaiveSelects => np,
                        };
                        out.push_str(&format!(
                            "  mispredicted: est {} µs, actual {} µs, would-have-chosen {:?}\n",
                            est / 1_000,
                            ac / 1_000,
                            would
                        ));
                    }
                    _ => {
                        let est = match j.strategy {
                            JoinStrategy::LayerIndex => j.layer_est_bytes,
                            JoinStrategy::NaiveSelects => j.naive_est_bytes,
                        };
                        out.push_str(&format!(
                            "  mispredicted: est {} B, actual {} B, would-have-chosen {:?}\n",
                            est,
                            j.actual_bytes.unwrap_or(0),
                            would
                        ));
                    }
                }
            }
        }
        if let Some(m) = &self.map {
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
        for d in &self.deltas {
            out.push_str(&format!(
                "  delta[{}]: generation {}, {} staged + {} tombstones merged ({} B debt)\n",
                d.dataset, d.generation, d.staged, d.tombstones, d.bytes
            ));
        }
        if let Some(c) = &self.cache {
            out.push_str(&format!("  cache: {}", c.outcome.label()));
            if let Some(k) = &c.key {
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
}

thread_local! {
    static REPORTS: RefCell<Vec<PlanReport>> = const { RefCell::new(Vec::new()) };
}

/// An open plan report. [`Report::finish`] closes it and returns what
/// it collected; dropping it unfinished — an early return, an unwind —
/// closes it too, so a query that panics mid-report cannot leave its frame
/// on the thread for every later report to fold into.
#[must_use = "dropping the guard closes the report"]
pub struct Report {
    open: bool,
}

/// Open a plan report on the current thread. Reports nest LIFO; an inner
/// report folds into its parent when it closes, mirroring
/// [`spade_gpu::record`].
pub fn open() -> Report {
    begin();
    Report { open: true }
}

impl Report {
    /// Close the report and return it (inclusive of nested reports).
    pub fn finish(mut self) -> PlanReport {
        self.open = false;
        finish()
    }
}

impl Drop for Report {
    fn drop(&mut self) {
        if self.open {
            finish();
        }
    }
}

/// Unguarded [`open`]: the caller must reach [`finish`] on every path,
/// unwinding included. Prefer [`open`].
pub fn begin() {
    REPORTS.with(|r| r.borrow_mut().push(PlanReport::default()));
}

/// Close the innermost report and return it (inclusive of nested reports).
/// Returns an empty report if none is open.
pub fn finish() -> PlanReport {
    REPORTS.with(|r| {
        let mut reports = r.borrow_mut();
        let report = reports.pop().unwrap_or_default();
        if let Some(parent) = reports.last_mut() {
            parent.absorb(&report);
        }
        report
    })
}

fn with_top(apply: impl FnOnce(&mut PlanReport)) {
    REPORTS.with(|r| {
        if let Some(top) = r.borrow_mut().last_mut() {
            apply(top);
        }
    });
}

/// Record one Map execution (called by [`crate::optimizer::run_map`]).
/// `overshoot` marks a 2-pass whose result fit the 1-pass canvas after
/// all.
pub(crate) fn note_map(chosen: MapImpl, n_max: u64, slots: u64, overshoot: bool) {
    with_top(|t| {
        let m = t.map.get_or_insert_with(MapDecisions::default);
        match chosen {
            MapImpl::OnePass => m.one_pass += 1,
            MapImpl::TwoPass => m.two_pass += 1,
        }
        if overshoot {
            m.overshoots += 1;
        }
        m.max_n_max = m.max_n_max.max(n_max);
        m.slots = m.slots.max(slots);
    });
}

/// Record the out-of-core join strategy decision (called by
/// [`crate::join::join_indexed`]). The first decision wins; nested
/// sub-queries do not overwrite the outer join's decision.
pub(crate) fn note_join(decision: JoinDecision) {
    with_top(|t| {
        if t.join.is_none() {
            t.join = Some(decision);
        }
    });
}

/// Fill in the executed join's actuals and hindsight verdict (called by
/// [`crate::join::join_indexed`] after the residency walk). Matches
/// the first-wins discipline of [`note_join`]: only the decision that has
/// not been analyzed yet — the one the enclosing executor just noted — is
/// updated, so nested sub-queries cannot overwrite an outer join's
/// verdict.
pub(crate) fn note_join_actual(
    actual_bytes: u64,
    actual_cost_nanos: u64,
    mispredicted: bool,
    would_have_chosen: Option<JoinStrategy>,
) {
    with_top(|t| {
        if let Some(j) = &mut t.join {
            if j.actual_bytes.is_none() {
                j.actual_bytes = Some(actual_bytes);
                j.actual_cost_nanos = Some(actual_cost_nanos);
                j.mispredicted = mispredicted;
                j.would_have_chosen = would_have_chosen;
            }
        }
    });
}

/// Record one dataset's delta-merge contribution (called by the indexed
/// executors when the read view carries uncompacted writes). One entry
/// per dataset; repeats are dropped.
pub(crate) fn note_delta(info: DeltaInfo) {
    with_top(|t| {
        if !t.deltas.iter().any(|d| d.dataset == info.dataset) {
            t.deltas.push(info);
        }
    });
}

/// Record the result-cache outcome of this query (called by
/// [`crate::result_cache::ResultCache::serve`]). The first outcome wins:
/// it belongs to the top-level cached dispatcher, not to any cold
/// sub-query executed beneath it.
pub(crate) fn note_cache(
    outcome: crate::stats::CacheOutcome,
    key: Option<crate::result_cache::CacheKey>,
) {
    with_top(|t| {
        if t.cache.is_none() {
            t.cache = Some(CacheNote { outcome, key });
        }
    });
}

/// Fold a plan report captured at render time back into the open report
/// (called by [`crate::result_cache::ResultCache::serve`] when a hit is
/// served). An `EXPLAIN ANALYZE` answered from cache thus still shows the
/// optimizer decisions of the render that produced the entry; the cache
/// note itself is unaffected because [`note_cache`] ran first and absorb
/// keeps the first note.
pub(crate) fn replay(report: &PlanReport) {
    with_top(|t| t.absorb(report));
}

/// [`note_delta`] from a dataset read view — no-op when the view carries
/// no uncompacted writes.
pub(crate) fn note_view(view: &crate::dataset::ReadView<'_>) {
    if view.has_delta() {
        note_delta(DeltaInfo {
            dataset: view.name().to_string(),
            generation: view.grid.generation,
            staged: view.delta.staged.len() as u64,
            tombstones: view.delta.tombstones.len() as u64,
            bytes: view.delta.bytes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notes_without_open_report_are_dropped() {
        note_map(MapImpl::OnePass, 10, 100, false);
        assert_eq!(finish(), PlanReport::default());
    }

    #[test]
    fn map_decisions_aggregate() {
        let report = open();
        note_map(MapImpl::OnePass, 10, 100, false);
        note_map(MapImpl::OnePass, 50, 100, false);
        note_map(MapImpl::TwoPass, 500, 100, false);
        note_map(MapImpl::TwoPass, 20, 100, true);
        let m = report.finish().map.unwrap();
        assert_eq!(m.one_pass, 2);
        assert_eq!(m.two_pass, 2);
        assert_eq!(m.overshoots, 1);
        assert_eq!(m.max_n_max, 500);
        assert_eq!(m.slots, 100);
    }

    #[test]
    fn nested_reports_fold_into_parent() {
        let outer = open();
        note_map(MapImpl::OnePass, 5, 100, false);
        let inner = open();
        note_map(MapImpl::OnePass, 7, 100, false);
        let inner = inner.finish();
        let outer = outer.finish();
        assert_eq!(inner.map.unwrap().one_pass, 1);
        assert_eq!(outer.map.unwrap().one_pass, 2);
        assert_eq!(outer.map.unwrap().max_n_max, 7);
    }

    #[test]
    fn first_join_decision_wins() {
        let report = open();
        let first = JoinDecision {
            strategy: JoinStrategy::LayerIndex,
            layer_est_bytes: 100,
            naive_est_bytes: 200,
            cell_pairs: 4,
            sequence_len: 6,
            ..JoinDecision::default()
        };
        note_join(first);
        note_join(JoinDecision {
            strategy: JoinStrategy::NaiveSelects,
            layer_est_bytes: 1,
            naive_est_bytes: 1,
            cell_pairs: 1,
            sequence_len: 1,
            ..JoinDecision::default()
        });
        assert_eq!(report.finish().join, Some(first));
    }

    #[test]
    fn join_actuals_fill_first_unanalyzed_decision() {
        let report = open();
        note_join(JoinDecision {
            strategy: JoinStrategy::LayerIndex,
            layer_est_bytes: 100,
            naive_est_bytes: 200,
            ..JoinDecision::default()
        });
        note_join_actual(480, 9_000, true, Some(JoinStrategy::NaiveSelects));
        // A later (nested) actual must not overwrite the verdict.
        note_join_actual(1, 1, false, None);
        let j = report.finish().join.unwrap();
        assert_eq!(j.actual_bytes, Some(480));
        assert_eq!(j.actual_cost_nanos, Some(9_000));
        assert!(j.mispredicted);
        assert_eq!(j.would_have_chosen, Some(JoinStrategy::NaiveSelects));
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
            join: Some(JoinDecision {
                strategy: JoinStrategy::LayerIndex,
                layer_est_bytes: 1234,
                naive_est_bytes: 5678,
                cell_pairs: 9,
                sequence_len: 12,
                ..JoinDecision::default()
            }),
            deltas: vec![DeltaInfo {
                dataset: "live".into(),
                generation: 3,
                staged: 17,
                tombstones: 2,
                bytes: 4096,
            }],
            cache: Some(CacheNote {
                outcome: crate::stats::CacheOutcome::Hit,
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
        let plain = report.render(None);
        assert!(plain.contains("cache: HIT"));
        assert!(plain.contains("0x00000000deadbeef"));
        assert!(plain.contains("left g3s42"));
        assert!(plain.contains("tenant 9"));
        assert!(plain.contains("LayerIndex"));
        assert!(plain.contains("est layer 1234 B vs naive 5678 B"));
        assert!(!plain.contains("actual"));
        let stats = QueryStats {
            bytes_to_device: 1300,
            result_count: 987,
            ..Default::default()
        };
        let analyzed = report.render(Some(&stats));
        assert!(analyzed.contains("actual to-device 1300 B"));
        assert!(analyzed.contains("actual results 987"));
        assert!(analyzed.contains("total="));
        assert!(analyzed.contains("delta[live]: generation 3"));
        assert!(analyzed.contains("17 staged + 2 tombstones"));
    }

    #[test]
    fn render_prints_join_misprediction_verdict() {
        let report = PlanReport {
            join: Some(JoinDecision {
                strategy: JoinStrategy::LayerIndex,
                layer_est_bytes: 1_200,
                naive_est_bytes: 5_000,
                actual_bytes: Some(4_800),
                actual_cost_nanos: Some(77_000),
                mispredicted: true,
                would_have_chosen: Some(JoinStrategy::NaiveSelects),
                ..JoinDecision::default()
            }),
            ..PlanReport::default()
        };
        let s = report.render(None);
        assert!(
            s.contains("mispredicted: est 1200 B, actual 4800 B, would-have-chosen NaiveSelects"),
            "missing verdict line in:\n{s}"
        );
    }

    #[test]
    fn render_prints_adaptive_cost_misprediction() {
        let report = PlanReport {
            join: Some(JoinDecision {
                strategy: JoinStrategy::NaiveSelects,
                adaptive: true,
                predicted_cost_nanos: Some((40_000, 90_000)),
                actual_bytes: Some(100),
                actual_cost_nanos: Some(250_000),
                mispredicted: true,
                would_have_chosen: Some(JoinStrategy::LayerIndex),
                ..JoinDecision::default()
            }),
            ..PlanReport::default()
        };
        let s = report.render(None);
        assert!(s.contains("observed: predicted cost layer 40 µs vs naive 90 µs (adaptive)"));
        assert!(
            s.contains("mispredicted: est 90 µs, actual 250 µs, would-have-chosen LayerIndex"),
            "missing adaptive verdict line in:\n{s}"
        );
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
        let s = report.render(None);
        assert!(s.contains(
            "3 2-pass runs whose results fit the 1-pass canvas (est n_max 6000 vs 4096 slots), would-have-chosen OnePass"
        ));
    }

    #[test]
    fn a_report_unwound_past_closes_its_frame() {
        let unwound = std::panic::catch_unwind(|| {
            let _report = open();
            note_map(MapImpl::TwoPass, 900, 100, true);
            panic!("a query panicked mid-report");
        });
        assert!(unwound.is_err());
        // The next report sees only its own note, and nothing stays open.
        let report = open();
        note_map(MapImpl::OnePass, 5, 100, false);
        let m = report.finish().map.unwrap();
        assert_eq!((m.one_pass, m.two_pass, m.overshoots), (1, 0, 0));
        assert_eq!(m.max_n_max, 5);
        assert_eq!(finish(), PlanReport::default());
    }

    #[test]
    fn delta_notes_dedupe_and_fold() {
        let outer = open();
        note_delta(DeltaInfo {
            dataset: "a".into(),
            generation: 1,
            staged: 4,
            tombstones: 1,
            bytes: 64,
        });
        // A second note for the same dataset (e.g. a nested sub-query)
        // must not duplicate the line.
        note_delta(DeltaInfo {
            dataset: "a".into(),
            generation: 1,
            staged: 4,
            tombstones: 1,
            bytes: 64,
        });
        let inner = open();
        note_delta(DeltaInfo {
            dataset: "b".into(),
            generation: 2,
            staged: 9,
            tombstones: 0,
            bytes: 128,
        });
        let inner = inner.finish();
        let outer = outer.finish();
        assert_eq!(inner.deltas.len(), 1);
        assert_eq!(outer.deltas.len(), 2);
        assert!(outer.render(None).contains("delta[b]: generation 2"));
    }
}
