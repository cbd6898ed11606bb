//! Spans recorded by the benchmark around its calls into each layer.
//!
//! `EngineConfig::tracing` stays off: nothing inside the program records a
//! span for this benchmark. What the public API returns for an operation is
//! its client-observed interval plus *durations* of the stages below it
//! (`queue_wait`, `exec_time`, the `QueryStats` components). A traced
//! operation therefore becomes a small tree: the `op` span holds the real
//! start and end, and each reported stage becomes a child span laid end to
//! end inside its parent. A layer's self time is its span minus the part its
//! children cover — for `op` that is the wire/submit overhead nobody else
//! accounts for.
//!
//! Spans stay in memory during the run and are written at exit as Chrome
//! trace-event JSON (open in `chrome://tracing` or Perfetto).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The operation this span belongs to: spans of one request share it.
    pub op: u32,
    /// The client thread that issued the operation.
    pub client: u8,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn with_capacity(n: usize) -> SpanLog {
        SpanLog {
            spans: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn extend(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// A root span with a measured start and end.
    pub fn root(
        &mut self,
        name: &'static str,
        op: u32,
        client: u8,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            client,
            parent: None,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Lay `stages` end to end inside `parent`, starting `lead_ns` after the
    /// parent's start. Stages are durations reported by the program, not
    /// measured intervals: each is clipped to what is left of the parent, so
    /// children never overlap each other and never exceed the parent —
    /// which keeps every self time non-negative.
    pub fn lay(
        &mut self,
        parent: usize,
        lead_ns: u64,
        stages: &[(&'static str, u64)],
    ) -> Vec<usize> {
        let (op, client, p_start, p_end) = {
            let p = &self.spans[parent];
            (p.op, p.client, p.start_ns, p.end_ns)
        };
        let mut cursor = (p_start + lead_ns).min(p_end);
        stages
            .iter()
            .map(|&(name, dur)| {
                let end = (cursor + dur).min(p_end);
                self.spans.push(Span {
                    name,
                    op,
                    client,
                    parent: Some(parent),
                    start_ns: cursor,
                    end_ns: end,
                });
                cursor = end;
                self.spans.len() - 1
            })
            .collect()
    }

    /// Self time per span: its duration minus its children's.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Total self time by span name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// `1 − Σ self time of the `attributed` span names ÷ Σ root durations`:
    /// the share of client-observed time no measured stage explains.
    pub fn unattributed_share(&self, attributed: &[&str]) -> f64 {
        let observed: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        if observed == 0 {
            return 0.0;
        }
        let explained: u64 = self
            .self_time_by_name()
            .iter()
            .filter(|(name, _)| attributed.contains(name))
            .map(|(_, ns)| *ns)
            .sum();
        1.0 - explained as f64 / observed as f64
    }

    /// Write the log as Chrome trace-event JSON.
    pub fn write_chrome_trace(&self, path: &Path, process_name: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"traceEvents\":[{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{process_name}\"}}}}"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            write!(
                w,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.client,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.op,
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_laid_end_to_end_never_exceed_the_parent() {
        let mut log = SpanLog::default();
        let op = log.root("op", 1, 0, 1_000, 2_000);
        // Reported stages sum to more than the parent has left after the
        // lead: the last ones are clipped, none overlaps.
        let kids = log.lay(op, 100, &[("a", 400), ("b", 400), ("c", 400)]);
        let spans: Vec<&Span> = kids.iter().map(|&k| &log.spans[k]).collect();
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (1_100, 1_500));
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (1_500, 1_900));
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (1_900, 2_000));
        let own = log.self_time_by_name();
        assert_eq!(own["op"], 100, "only the lead is the parent's own");
        assert_eq!(own["a"] + own["b"] + own["c"], 900);
    }

    #[test]
    fn self_time_subtracts_each_level_once() {
        let mut log = SpanLog::default();
        let op = log.root("op", 7, 1, 0, 1_000);
        let exec = log.lay(op, 50, &[("server.queue", 100), ("server.exec", 700)])[1];
        let core = log.lay(exec, 0, &[("core.exec", 650)])[0];
        log.lay(core, 0, &[("gpu.pass", 300), ("canvas.polygon", 200)]);
        let own = log.self_time_by_name();
        assert_eq!(own["op"], 200);
        assert_eq!(own["server.queue"], 100);
        assert_eq!(own["server.exec"], 50);
        assert_eq!(own["core.exec"], 150);
        assert_eq!(own["gpu.pass"], 300);
        assert_eq!(own["canvas.polygon"], 200);
        assert_eq!(own.values().sum::<u64>(), 1_000, "self times tile the op");
        let un = log.unattributed_share(&["server.queue", "gpu.pass", "canvas.polygon"]);
        assert!((un - 0.4).abs() < 1e-12);
    }

    #[test]
    fn unattributed_share_is_never_negative() {
        let mut log = SpanLog::default();
        // The program reports more stage time than the client observed
        // (overlapped work): clipping keeps the share within [0, 1].
        let op = log.root("op", 1, 0, 0, 100);
        log.lay(op, 0, &[("gpu.pass", 80), ("canvas.polygon", 80)]);
        let un = log.unattributed_share(&["gpu.pass", "canvas.polygon"]);
        assert!((0.0..=1.0).contains(&un), "{un}");
        assert_eq!(un, 0.0);
        assert_eq!(SpanLog::default().unattributed_share(&["x"]), 0.0);
    }

    #[test]
    fn extend_rebases_parent_links() {
        let mut a = SpanLog::default();
        let r = a.root("op", 1, 0, 0, 10);
        a.lay(r, 0, &[("x", 5)]);
        let mut b = SpanLog::default();
        let r = b.root("op", 2, 1, 0, 10);
        b.lay(r, 0, &[("x", 7)]);
        a.extend(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.self_time_by_name()["op"], 5 + 3);
    }
}
