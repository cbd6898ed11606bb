//! What every workload shares: the closed loop, per-operation records, the
//! scratch directory, the watchdog and the arithmetic from records to
//! metrics.

use crate::catalog::{RunResult, Values, WorkloadDef};
use crate::prom::PromText;
use crate::spans::SpanLog;
use crate::stats;
use spade_core::stats::{CacheOutcome, QueryStats};
use spade_server::{QueryRequest, QueryResponse, QueryService};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Every artefact of a run (scratch data, trace files) lives under this
/// directory of the current checkout; `/target` is already git-ignored.
pub const ARTEFACT_DIR: &str = "target/bench";

/// How often a workload sets itself up in one run. `setup_s` is the median,
/// so one slow disk flush does not decide the metric.
pub const SETUP_REPEATS: usize = 3;

pub struct Ctx {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

// ---------------------------------------------------------------------------
// Scratch directories
// ---------------------------------------------------------------------------

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);
static LIVE_SCRATCH: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// A directory unique to this process and call, removed when dropped. The
/// watchdog cannot run destructors, so live directories are also kept in a
/// process-wide list that [`remove_all_scratch`] sweeps.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(label: &str) -> Scratch {
        let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            Path::new(ARTEFACT_DIR).join(format!("scratch-{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create scratch directory under target/bench");
        LIVE_SCRATCH
            .lock()
            .expect("scratch list")
            .push(path.clone());
        Scratch { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Ok(mut live) = LIVE_SCRATCH.lock() {
            live.retain(|p| p != &self.path);
        }
    }
}

pub fn remove_all_scratch() {
    if let Ok(mut live) = LIVE_SCRATCH.lock() {
        for p in live.drain(..) {
            let _ = std::fs::remove_dir_all(p);
        }
    }
}

/// Bytes of every regular file under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

/// Operations started and operations that returned (with a reply or an
/// error). The difference is what a hung run loses.
pub static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
pub static FINISHED: AtomicU64 = AtomicU64::new(0);
pub static FAILED: AtomicU64 = AtomicU64::new(0);

/// A `Ticket` whose worker panicked never resolves, so a closed loop can
/// hang for good. After `cap` the watchdog reports every unfinished
/// operation as failed, removes the scratch directories and ends the
/// process; a healthy run finishes long before and simply exits first.
pub fn start_watchdog(cap: Duration, trace: bool) {
    std::thread::Builder::new()
        .name("report-watchdog".into())
        .spawn(move || {
            std::thread::sleep(cap);
            let attempted = ATTEMPTED.load(Ordering::SeqCst);
            let lost = attempted.saturating_sub(FINISHED.load(Ordering::SeqCst));
            let failed = FAILED.load(Ordering::SeqCst) + lost.max(1);
            eprintln!(
                "report: wall cap of {:.0} s reached with {lost} operation(s) in flight; counting them as failed",
                cap.as_secs_f64()
            );
            let result = RunResult::new(false, attempted, failed, trace, &Values::new());
            println!("{}", result.to_json_line());
            remove_all_scratch();
            std::process::exit(3);
        })
        .expect("spawn watchdog");
}

// ---------------------------------------------------------------------------
// Per-operation records
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Select,
    Range,
    Knn,
    Join,
    Agg,
    Insert,
    Delete,
    Flush,
}

impl Class {
    pub const ALL: [Class; 8] = [
        Class::Select,
        Class::Range,
        Class::Knn,
        Class::Join,
        Class::Agg,
        Class::Insert,
        Class::Delete,
        Class::Flush,
    ];

    pub fn of(request: &QueryRequest) -> Class {
        match request.class() {
            "select" => Class::Select,
            "range" => Class::Range,
            "knn" => Class::Knn,
            "join" => Class::Join,
            "aggregate" => Class::Agg,
            "insert" => Class::Insert,
            "delete" => Class::Delete,
            "flush" => Class::Flush,
            other => panic!("the benchmark issues no '{other}' requests"),
        }
    }

    pub fn is_write(self) -> bool {
        matches!(self, Class::Insert | Class::Delete)
    }
}

/// What the public API returned with a reply.
#[derive(Debug, Clone)]
pub struct ReplyFacts {
    pub queue_wait: Duration,
    pub exec_time: Duration,
    pub stats: QueryStats,
    /// A write's acknowledgement `(seq, generation)`.
    pub ack: Option<(u64, u64)>,
}

impl ReplyFacts {
    pub fn of(r: &QueryResponse) -> ReplyFacts {
        ReplyFacts {
            queue_wait: r.queue_wait,
            exec_time: r.exec_time,
            stats: r.stats.clone(),
            ack: r.payload.ack(),
        }
    }

    /// Queue wait plus execution: the server's part of an operation.
    fn server_ns(&self) -> u64 {
        ns(self.queue_wait + self.exec_time)
    }

    /// Every stage the executor reported, overlapped I/O left out.
    pub fn stage_time(&self) -> Duration {
        let s = &self.stats;
        s.io_time.saturating_sub(s.io_hidden) + s.gpu_time + s.polygon_time + s.cpu_time
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

#[derive(Debug, Clone)]
pub struct OpRecord {
    pub op: u32,
    pub client: u8,
    pub class: Class,
    /// Workload-defined (e.g. which dataset a read went to).
    pub tag: u8,
    pub traced: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `None`: the operation failed (error reply, refused, lost connection).
    pub reply: Option<ReplyFacts>,
}

impl OpRecord {
    pub fn latency_ms(&self) -> f64 {
        match self.reply {
            Some(_) => (self.end_ns - self.start_ns) as f64 / 1e6,
            None => f64::INFINITY,
        }
    }
}

/// The clock a run's clients share.
#[derive(Clone, Copy)]
pub struct Clock {
    pub epoch: Instant,
    pub deadline: Instant,
}

impl Clock {
    pub fn starting_now(seconds: f64) -> Clock {
        let epoch = Instant::now();
        Clock {
            epoch,
            deadline: epoch + Duration::from_secs_f64(seconds),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Whether operation `i` of a traced run records spans: about every other
/// one, picked by a multiplicative hash so the choice does not line up with
/// a workload's class cycle. The rest are the run's own untraced control.
fn traces(i: usize) -> bool {
    (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 0
}

/// What one client's closed loop leaves behind.
pub struct ClientLog {
    pub records: Vec<OpRecord>,
    pub spans: SpanLog,
}

/// One client's closed loop: send the next operation of the materialised
/// sequence when the previous reply is decoded, until the clock's deadline
/// (or the end of the sequence). Nothing is generated, cloned or looked up
/// in here besides the call itself, one record per operation and, in a
/// traced run, the spans of every other operation.
pub fn closed_loop<T>(
    clock: Clock,
    client: u8,
    trace: bool,
    ops: impl ExactSizeIterator<Item = (Class, u8, T)>,
    mut send: impl FnMut(T) -> Result<QueryResponse, String>,
) -> ClientLog {
    let mut records = Vec::with_capacity(ops.len());
    let mut spans = SpanLog::with_capacity(if trace { ops.len() * 4 } else { 0 });
    let mut complaints = 0;
    for (i, (class, tag, op)) in ops.enumerate() {
        if Instant::now() >= clock.deadline {
            break;
        }
        ATTEMPTED.fetch_add(1, Ordering::SeqCst);
        let start_ns = clock.now_ns();
        let reply = send(op);
        let end_ns = clock.now_ns();
        FINISHED.fetch_add(1, Ordering::SeqCst);
        let reply = match reply {
            Ok(r) => Some(ReplyFacts::of(&r)),
            Err(why) => {
                FAILED.fetch_add(1, Ordering::SeqCst);
                if complaints < 5 {
                    eprintln!("report: client {client} op {i} ({class:?}) failed: {why}");
                    complaints += 1;
                }
                None
            }
        };
        let record = OpRecord {
            op: u32::from(client) * 10_000_000 + i as u32,
            client,
            class,
            tag,
            traced: trace && traces(i),
            start_ns,
            end_ns,
            reply,
        };
        if record.traced {
            record_spans(&mut spans, &record);
        }
        records.push(record);
    }
    ClientLog { records, spans }
}

/// Run one untimed operation (warm-up, checks), counted like any other.
pub fn untimed(
    send: impl FnOnce() -> Result<QueryResponse, String>,
) -> Result<QueryResponse, String> {
    ATTEMPTED.fetch_add(1, Ordering::SeqCst);
    let r = send();
    FINISHED.fetch_add(1, Ordering::SeqCst);
    if r.is_err() {
        FAILED.fetch_add(1, Ordering::SeqCst);
    }
    r
}

/// Set a workload up [`SETUP_REPEATS`] times, dropping each environment
/// before the next is built (so memory, ports and directories are those of
/// one set-up), and keep the last one. Returns it with every set-up's
/// duration in seconds.
pub fn repeat_setup<E>(mut setup: impl FnMut() -> E) -> (E, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut env = None;
    for _ in 0..SETUP_REPEATS {
        drop(env.take());
        let t = Instant::now();
        env = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (env.expect("at least one set-up"), times)
}

// ---------------------------------------------------------------------------
// From records to metrics
// ---------------------------------------------------------------------------

/// What a workload hands back for reporting.
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    pub setup_s: Vec<f64>,
    /// Timed operations of every client, and the spans of the traced ones.
    pub records: Vec<OpRecord>,
    pub spans: SpanLog,
    /// Wall time of the timed phase, first send to last reply.
    pub timed_wall_s: f64,
    /// Whether operations crossed a socket: decides if an operation's self
    /// time is `net.wire_us` or `server.overhead_us`.
    pub over_tcp: bool,
    /// How many leading operations *per client* the count metrics cover.
    pub count_prefix: usize,
    /// Workload-specific metrics, already computed.
    pub values: Values,
}

/// Spans of one operation, from what its reply reported.
fn record_spans(log: &mut SpanLog, r: &OpRecord) {
    let op = log.root("op", r.op, r.client, r.start_ns, r.end_ns);
    let Some(f) = &r.reply else {
        return;
    };
    // The wire (or submit/reply channel) is crossed before and after the
    // server's part; the API does not say how it splits, so the remainder
    // leads and trails in equal halves.
    let lead = (r.end_ns - r.start_ns).saturating_sub(f.server_ns()) / 2;
    let server = log.lay(
        op,
        lead,
        &[
            ("server.queue", ns(f.queue_wait)),
            ("server.exec", ns(f.exec_time)),
        ],
    );
    let s = &f.stats;
    let core = log.lay(server[1], 0, &[("core.exec", ns(s.total_time))])[0];
    log.lay(
        core,
        0,
        &[
            (
                "storage.io_visible",
                ns(s.io_time.saturating_sub(s.io_hidden)),
            ),
            ("gpu.pass", ns(s.gpu_time)),
            ("canvas.polygon", ns(s.polygon_time)),
            ("core.cpu", ns(s.cpu_time)),
        ],
    );
}

/// Stages a timer inside the program measured directly. Everything else an
/// operation's time went to — wire, submit, reply channels, server code
/// around the executor, and the executor's own CPU residual — is what
/// in-program tracing has yet to explain.
const ATTRIBUTED: [&str; 4] = [
    "server.queue",
    "storage.io_visible",
    "gpu.pass",
    "canvas.polygon",
];

/// What a service's `metrics_text()` says about the layers replies do not
/// describe: the framebuffer arena, compaction and the WAL.
pub fn insert_service_metrics(values: &mut Values, service: &QueryService) {
    let text = PromText::parse(&service.metrics_text());
    values.insert(
        "gpu.arena_hit_ratio",
        text.ratio("spade_arena_hits_total", "spade_arena_misses_total"),
    );
    values.insert("index.compactions", text.get("spade_compact_runs_total"));
    values.insert("storage.wal_bytes", text.get("spade_wal_bytes_total"));
}

/// Bytes on disk at the end of a run, alone and against the user data.
pub fn insert_disk_metrics(values: &mut Values, on_disk: u64, user_bytes: u64) {
    values.insert("index.bytes_on_disk", on_disk as f64);
    values.insert(
        "index.disk_amplification",
        on_disk as f64 / user_bytes.max(1) as f64,
    );
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fill in every metric that follows from the records alone.
pub fn summarize(ctx: &Ctx, out: &Outcome) -> Values {
    let mut v = out.values.clone();
    let records = &out.records;
    let latencies: Vec<f64> = records.iter().map(OpRecord::latency_ms).collect();
    let ok = records.iter().filter(|r| r.reply.is_some()).count();

    v.insert("setup_s", stats::median(&out.setup_s).unwrap_or(0.0));
    v.insert("throughput_qps", ok as f64 / out.timed_wall_s.max(1e-9));
    v.insert(
        "latency_p50_ms",
        stats::median(&latencies).unwrap_or(f64::INFINITY),
    );
    v.insert(
        "latency_tail_ms",
        stats::percentile(&latencies, ctx.workload.tail).unwrap_or(f64::INFINITY),
    );
    v.insert("peak_rss_mb", proc_status_kib("VmHWM") as f64 / 1024.0);

    let class_p50 = |classes: &[Class]| {
        let l: Vec<f64> = records
            .iter()
            .filter(|r| classes.contains(&r.class))
            .map(OpRecord::latency_ms)
            .collect();
        stats::median(&l).unwrap_or(0.0)
    };
    v.insert("core.select_p50_ms", class_p50(&[Class::Select]));
    v.insert("core.range_p50_ms", class_p50(&[Class::Range]));
    v.insert("core.knn_p50_ms", class_p50(&[Class::Knn]));
    v.insert("core.join_p50_ms", class_p50(&[Class::Join]));
    v.insert("core.agg_p50_ms", class_p50(&[Class::Agg]));
    v.insert(
        "server.write_ack_p50_ms",
        class_p50(&[Class::Insert, Class::Delete]),
    );

    // Means per answered operation.
    let answered: Vec<(&OpRecord, &ReplyFacts)> = records
        .iter()
        .filter_map(|r| r.reply.as_ref().map(|f| (r, f)))
        .collect();
    let n = answered.len().max(1) as f64;
    let total = |f: &dyn Fn(&ReplyFacts) -> Duration| -> Duration {
        answered.iter().map(|(_, x)| f(x)).sum()
    };
    let mean_ms = |f: &dyn Fn(&ReplyFacts) -> Duration| total(f).as_secs_f64() * 1e3 / n;
    v.insert("storage.io_ms", mean_ms(&|f| f.stats.io_time));
    v.insert("storage.io_hidden_ms", mean_ms(&|f| f.stats.io_hidden));
    v.insert("canvas.polygon_ms", mean_ms(&|f| f.stats.polygon_time));
    v.insert("gpu.pass_ms", mean_ms(&|f| f.stats.gpu_time));
    v.insert("core.exec_ms", mean_ms(&|f| f.stats.total_time));
    v.insert("core.cpu_ms", mean_ms(&|f| f.stats.cpu_time));
    v.insert("server.queue_wait_ms", mean_ms(&|f| f.queue_wait));
    v.insert("server.exec_ms", mean_ms(&|f| f.exec_time));
    let overhead_us = answered
        .iter()
        .map(|(r, f)| (r.end_ns - r.start_ns).saturating_sub(f.server_ns()))
        .sum::<u64>() as f64
        / n
        / 1e3;
    v.insert(
        if out.over_tcp {
            "net.wire_us"
        } else {
            "server.overhead_us"
        },
        overhead_us,
    );
    let writes: Vec<f64> = answered
        .iter()
        .filter(|(r, _)| r.class.is_write())
        .map(|(_, f)| f.exec_time.as_secs_f64() * 1e6)
        .collect();
    v.insert("server.write_exec_us", stats::mean(&writes));
    let flushes: Vec<f64> = records
        .iter()
        .filter(|r| r.class == Class::Flush)
        .map(OpRecord::latency_ms)
        .collect();
    v.insert("index.flush_compact_ms", stats::mean(&flushes));

    let sum =
        |f: &dyn Fn(&QueryStats) -> u64| -> u64 { answered.iter().map(|(_, x)| f(&x.stats)).sum() };
    let (hits, misses) = (sum(&|s| s.prefetch_hits), sum(&|s| s.prefetch_misses));
    v.insert("core.prefetch_hit_ratio", ratio(hits, hits + misses));
    v.insert(
        "core.cell_cache_hit_ratio",
        ratio(sum(&|s| s.cache_hits), sum(&|s| s.cells_loaded)),
    );
    // A workload may have set this for the reads it cares about.
    v.entry("core.result_cache_hit_ratio").or_insert(ratio(
        sum(&|s| u64::from(s.result_cache.served_from_cache())),
        sum(&|s| u64::from(s.result_cache != CacheOutcome::Bypass)),
    ));
    // Share of the timed wall during which some client's query was inside a
    // pipeline pass (can exceed 1 with two clients).
    v.insert(
        "gpu.pool_busy_share",
        total(&|f| f.stats.gpu_time).as_secs_f64() / out.timed_wall_s.max(1e-9),
    );

    // Counts over a fixed prefix of each client's sequence: the same
    // operations on every run of one seed, however many fit into the
    // measured seconds.
    let mut seen = [0usize; 256];
    let prefix: Vec<&QueryStats> = answered
        .iter()
        .filter(|(r, _)| {
            seen[r.client as usize] += 1;
            seen[r.client as usize] <= out.count_prefix
        })
        .map(|(_, f)| &f.stats)
        .collect();
    let psum = |f: &dyn Fn(&QueryStats) -> u64| prefix.iter().map(|s| f(s)).sum::<u64>() as f64;
    v.insert("index.cells_loaded", psum(&|s| s.cells_loaded));
    v.insert("storage.bytes_from_disk", psum(&|s| s.bytes_from_disk));
    v.insert("gpu.passes", psum(&|s| s.passes));
    v.insert("gpu.bytes_to_device", psum(&|s| s.bytes_to_device));

    if ctx.trace {
        v.insert(
            "unattributed_share",
            out.spans.unattributed_share(&ATTRIBUTED),
        );
        // Class by class (a class's latencies are alike, a workload's are
        // not), weighted by how many operations the class has.
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for class in Class::ALL {
            let p50_of = |traced: bool| {
                let l: Vec<f64> = records
                    .iter()
                    .filter(|r| r.class == class && r.traced == traced && r.reply.is_some())
                    .map(OpRecord::latency_ms)
                    .collect();
                (stats::median(&l).unwrap_or(0.0), l.len())
            };
            let ((with, n_with), (without, n_without)) = (p50_of(true), p50_of(false));
            if n_with >= 4 && n_without >= 4 && without > 0.0 {
                weighted += (with / without - 1.0) * (n_with + n_without) as f64;
                weight += (n_with + n_without) as f64;
            }
        }
        if weight > 0.0 {
            v.insert("trace_overhead_share", weighted / weight);
        }
    }
    v
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), 0 when absent.
pub fn proc_status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Sockets this process holds open, from `/proc/self/fd`.
pub fn open_sockets() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| {
            d.flatten()
                .filter(|e| {
                    std::fs::read_link(e.path())
                        .map(|t| t.to_string_lossy().starts_with("socket:"))
                        .unwrap_or(false)
                })
                .count()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(queue: u64, exec: u64, core: u64, gpu: u64, poly: u64) -> ReplyFacts {
        let d = Duration::from_nanos;
        ReplyFacts {
            queue_wait: d(queue),
            exec_time: d(exec),
            stats: QueryStats {
                total_time: d(core),
                gpu_time: d(gpu),
                polygon_time: d(poly),
                cpu_time: d(core.saturating_sub(gpu + poly)),
                ..QueryStats::default()
            },
            ack: None,
        }
    }

    #[test]
    fn an_operations_spans_tile_its_interval() {
        let r = OpRecord {
            op: 3,
            client: 0,
            class: Class::Join,
            tag: 0,
            traced: true,
            start_ns: 1_000,
            end_ns: 11_000,
            reply: Some(facts(500, 9_000, 8_800, 4_000, 3_000)),
        };
        let mut log = SpanLog::default();
        record_spans(&mut log, &r);
        let own = log.self_time_by_name();
        assert_eq!(own.values().sum::<u64>(), 10_000);
        assert_eq!(own["op"], 500, "what neither queue nor exec covers");
        assert_eq!(own["server.exec"], 200);
        assert_eq!(own["core.cpu"], 1_800);
        // queue + gpu + polygon are attributed: 7 500 of 10 000.
        assert!((log.unattributed_share(&ATTRIBUTED) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_failed_operation_has_no_latency_and_no_children() {
        let r = OpRecord {
            op: 1,
            client: 0,
            class: Class::Select,
            tag: 0,
            traced: true,
            start_ns: 0,
            end_ns: 50,
            reply: None,
        };
        assert_eq!(r.latency_ms(), f64::INFINITY);
        let mut log = SpanLog::default();
        record_spans(&mut log, &r);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn about_half_the_operations_of_a_traced_run_record_spans() {
        let traced = (0..1000).filter(|&i| traces(i)).count();
        assert!((450..=550).contains(&traced), "{traced}");
        // Not aligned with short class cycles: both halves of any cycle
        // length up to 20 see traced and untraced operations.
        for cycle in 2..=20 {
            for slot in 0..cycle {
                let hits = (0..400).filter(|i| i % cycle == slot && traces(*i)).count();
                let all = (0..400).filter(|i| i % cycle == slot).count();
                assert!(hits > 0 && hits < all, "cycle {cycle} slot {slot}");
            }
        }
    }

    #[test]
    fn scratch_directories_are_unique_and_removed() {
        let (a, b) = (Scratch::new("t"), Scratch::new("t"));
        assert_ne!(a.path(), b.path());
        std::fs::write(a.join("f"), b"12345").unwrap();
        assert_eq!(dir_bytes(a.path()), 5);
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        let kept = b.path().to_path_buf();
        remove_all_scratch();
        assert!(!kept.exists(), "the watchdog's sweep removes live ones");
    }
}
