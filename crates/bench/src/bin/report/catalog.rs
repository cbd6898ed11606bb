//! The benchmark's names: workloads, end-to-end metrics, per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; a unit test below fails when the two disagree.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Closed-loop client threads (each its own session / connection).
    pub clients: usize,
    /// The fixed tail percentile `latency_tail_ms` reports on this workload.
    pub tail: f64,
    /// Whether the one permitted override of `EngineConfig::default()`,
    /// `result_cache_enabled = false`, is in force.
    pub result_cache: bool,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "ooc_select",
        why: "out-of-core selects on a disk grid larger than the cell cache, 1 in-process client, tail p90 (kNN): storage, index, prefetch and raster work; nothing above the executor does",
        clients: 1,
        tail: 0.90,
        result_cache: true,
    },
    WorkloadDef {
        name: "mem_join",
        why: "polygon-point join and count aggregation on in-memory data, 1 in-process client, result cache off, tail p80 (count): gpu, canvas, geometry, core; storage and index do nothing",
        clients: 1,
        tail: 0.80,
        result_cache: false,
    },
    WorkloadDef {
        name: "net_mixed",
        why: "2 TCP clients: 80% cached reads, 10% reads of a written dataset, 10% WAL-logged writes, periodic flush, tail p95 (cold render): wire, admission, result cache, WAL, compaction at once",
        clients: 2,
        tail: 0.95,
        result_cache: true,
    },
    WorkloadDef {
        name: "cluster_join",
        why: "1 client scattering 60% range selects and 40% joins over 3 loopback shards, cell-skewed data, tail p80 (join): the only workload where spade-cluster routes, scatters and merges",
        clients: 1,
        tail: 0.80,
        result_cache: false,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// A count taken over a fixed prefix of the operation sequence: it must
    /// repeat exactly between runs of one seed on single-client workloads.
    pub count: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        count: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        count: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        count: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Printed by `--trace 0` runs.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_qps", "1/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_tail_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// One layer each. Printed by `--trace 1` runs; no bound.
pub const PER_LAYER: [MetricDef; 49] = [
    layer("datagen.gen_s", "s", Lower),
    layer("index.build_s", "s", Lower),
    count("index.bytes_on_disk", "B", Lower),
    layer("index.disk_amplification", "ratio", Lower),
    count("index.cells_loaded", "count", Lower),
    layer("index.load_cell_ms", "ms", Lower),
    layer("index.flush_compact_ms", "ms", Lower),
    layer("index.compactions", "count", Higher),
    layer("storage.io_ms", "ms", Lower),
    layer("storage.io_hidden_ms", "ms", Higher),
    count("storage.bytes_from_disk", "B", Lower),
    layer("storage.wal_append_us", "us", Lower),
    layer("storage.wal_bytes", "B", Lower),
    layer("geometry.triangulate_us", "us", Lower),
    layer("canvas.polygon_ms", "ms", Lower),
    layer("canvas.constraint_ms", "ms", Lower),
    layer("gpu.pass_ms", "ms", Lower),
    count("gpu.passes", "count", Lower),
    count("gpu.bytes_to_device", "B", Lower),
    layer("gpu.draw_ms", "ms", Lower),
    layer("gpu.pool_busy_share", "ratio", Lower),
    layer("gpu.arena_hit_ratio", "ratio", Higher),
    layer("core.exec_ms", "ms", Lower),
    layer("core.cpu_ms", "ms", Lower),
    layer("core.prefetch_hit_ratio", "ratio", Higher),
    layer("core.cell_cache_hit_ratio", "ratio", Higher),
    layer("core.result_cache_hit_ratio", "ratio", Higher),
    layer("core.select_p50_ms", "ms", Lower),
    layer("core.range_p50_ms", "ms", Lower),
    layer("core.knn_p50_ms", "ms", Lower),
    layer("core.join_p50_ms", "ms", Lower),
    layer("core.agg_p50_ms", "ms", Lower),
    layer("server.queue_wait_ms", "ms", Lower),
    layer("server.exec_ms", "ms", Lower),
    layer("server.overhead_us", "us", Lower),
    layer("server.write_exec_us", "us", Lower),
    layer("server.write_ack_p50_ms", "ms", Lower),
    layer("net.wire_us", "us", Lower),
    layer("net.encode_request_us", "us", Lower),
    layer("net.decode_reply_us", "us", Lower),
    layer("net.reply_bytes", "B", Lower),
    layer("client.frames_per_flush", "ratio", Higher),
    layer("cluster.coord_overhead_ms", "ms", Lower),
    layer("cluster.shard_exec_skew", "ratio", Lower),
    count("cluster.bytes_moved", "B", Lower),
    layer("cluster.shard_byte_imbalance", "ratio", Lower),
    layer("cluster.single_node_p50_ms", "ms", Lower),
    layer("unattributed_share", "ratio", Lower),
    layer("trace_overhead_share", "ratio", Lower),
];

pub fn metrics_for(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Metric values of one run, by name. Anything a workload does not set is
/// reported as 0: the layer did no work there.
pub type Values = BTreeMap<&'static str, f64>;

/// The result of one `--workload` run: what the last line of its standard
/// output carries.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn new(correct: bool, attempted: u64, failed: u64, trace: bool, values: &Values) -> Self {
        RunResult {
            correct,
            attempted: attempted.max(1),
            failed,
            metrics: metrics_for(trace)
                .iter()
                .map(|m| {
                    let v = values.get(m.name).copied().unwrap_or(0.0);
                    (m.name.to_string(), v, m.unit.to_string())
                })
                .collect(),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// One JSON object on one line. Values are printed with every digit
    /// Rust's shortest round-trip formatting gives; non-finite values (a
    /// percentile that landed on a failed operation) are written as a number
    /// too large to be mistaken for a measurement, since JSON has no ∞.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 1e300 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Read back a line written by [`RunResult::to_json_line`] (the parent
    /// process does, for every child). Not a general JSON parser: it accepts
    /// exactly the shape above, with any spacing.
    pub fn from_json_line(line: &str) -> Option<RunResult> {
        let field = |key: &str| -> Option<&str> {
            let at = line.find(&format!("\"{key}\""))?;
            let rest = line[at..].split_once(':')?.1.trim_start();
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim())
        };
        let correct = field("correct")?.parse().ok()?;
        let attempted = field("attempted")?.parse().ok()?;
        let failed = field("failed")?.parse().ok()?;
        let body = line.split_once("\"metrics\"")?.1;
        let mut metrics = Vec::new();
        // Each metric is `"name": {"value": V, "unit": "U"}`.
        for chunk in body.split("\"value\"").collect::<Vec<_>>().windows(2) {
            let name = chunk[0].rsplit('"').nth(1)?;
            let after = chunk[1].split_once(':')?.1;
            let value = after.split([',', '}']).next()?.trim().parse().ok()?;
            let unit = after.split_once("\"unit\"")?.1.split('"').nth(1)?;
            metrics.push((name.to_string(), value, unit.to_string()));
        }
        Some(RunResult {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn result_line_round_trips() {
        let mut values = Values::new();
        values.insert("setup_s", 1.234_567_890_123);
        values.insert("throughput_qps", 9.5);
        values.insert("latency_tail_ms", f64::INFINITY);
        let r = RunResult::new(true, 120, 2, false, &values);
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        let back = RunResult::from_json_line(&line).expect("parses");
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (120, 2));
        assert_eq!(back.get("setup_s"), Some(1.234_567_890_123));
        assert_eq!(back.get("latency_p50_ms"), Some(0.0), "unset reads as 0");
        assert_eq!(back.get("latency_tail_ms"), Some(1e300));
        assert_eq!(back.metrics.len(), END_TO_END.len());
        assert_eq!(back.metrics[0].2, "s");
        assert!(RunResult::from_json_line("not a result").is_none());
    }

    /// `BENCHMARK.json` sits at the repository root, outside this directory;
    /// walk up from the manifest that built this binary until it is found.
    /// (In a directory that holds only the benchmark there is none to check.)
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            if let Ok(t) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break t;
            }
            if !dir.pop() {
                return;
            }
        };
        let section = |key: &str| -> &str {
            let at = text.find(&format!("\"{key}\"")).expect(key);
            let rest = &text[at..];
            &rest[..rest.find(']').expect("array end")]
        };
        for w in &WORKLOADS {
            assert!(section("workloads").contains(&format!("\"{}\"", w.name)));
            assert!(section("workloads").contains(w.why), "why of {}", w.name);
        }
        assert_eq!(
            section("workloads").matches("\"name\"").count(),
            WORKLOADS.len()
        );
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let s = section(key);
            assert_eq!(s.matches("\"name\"").count(), defs.len(), "{key}");
            for m in defs {
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    m.name,
                    m.unit,
                    m.better.label()
                );
                assert!(s.contains(&entry), "{key} lacks {entry}");
                if let Some(b) = m.bound {
                    assert!(
                        s.contains(&format!("{entry}, \"bound\": {b}")),
                        "{}",
                        m.name
                    );
                }
            }
        }
    }
}
