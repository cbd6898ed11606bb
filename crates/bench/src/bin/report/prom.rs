//! A reader for `QueryService::metrics_text()` (Prometheus text format).
//!
//! The benchmark reads a handful of counters by name and must keep working
//! when the service adds, renames or drops others: comment lines, blank
//! lines, unknown metrics and anything that does not parse as
//! `name[{labels}] value` are skipped.

use std::collections::BTreeMap;

#[derive(Debug, Default)]
pub struct PromText {
    /// Metric name → sum of its samples across label sets.
    totals: BTreeMap<String, f64>,
}

impl PromText {
    pub fn parse(text: &str) -> PromText {
        let mut totals = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // The value is the last whitespace-separated token; the name
            // ends at the first `{` or whitespace (label values may hold
            // spaces, so the line is split from both ends).
            let Some((head, value)) = line.rsplit_once(char::is_whitespace) else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let name = head
                .split(|c: char| c == '{' || c.is_whitespace())
                .next()
                .unwrap_or("");
            if name.is_empty() {
                continue;
            }
            *totals.entry(name.to_string()).or_insert(0.0) += value;
        }
        PromText { totals }
    }

    /// The metric's value summed over its label sets; 0 when the service
    /// does not export it.
    pub fn get(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// `hits ÷ (hits + misses)`, 0 when neither was counted.
    pub fn ratio(&self, hits: &str, misses: &str) -> f64 {
        let (h, m) = (self.get(hits), self.get(misses));
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_counters_and_tolerates_everything_else() {
        let text = "\
# HELP spade_compact_runs_total Compaction runs.
# TYPE spade_compact_runs_total counter
spade_compact_runs_total 4

spade_arena_hits_total 90
spade_arena_misses_total 10
spade_tenant_queries_completed_total{tenant=\"a b\"} 3
spade_tenant_queries_completed_total{tenant=\"c\"} 4
spade_exec_seconds_bucket{le=\"+Inf\"} 12
a_metric_from_the_future{x=\"1\",y=\"2\"} 1.5e3
this line is not a sample
dangling_name
spade_bad_value not_a_number

";
        let p = PromText::parse(text);
        assert_eq!(p.get("spade_compact_runs_total"), 4.0);
        assert_eq!(p.get("spade_tenant_queries_completed_total"), 7.0);
        assert_eq!(p.get("a_metric_from_the_future"), 1500.0);
        assert_eq!(p.get("spade_bad_value"), 0.0);
        assert_eq!(p.get("never_exported"), 0.0);
        assert!(
            (p.ratio("spade_arena_hits_total", "spade_arena_misses_total") - 0.9).abs() < 1e-12
        );
        assert_eq!(p.ratio("nope", "nada"), 0.0);
    }

    #[test]
    fn empty_text_is_empty() {
        assert_eq!(PromText::parse("").get("x"), 0.0);
    }
}
