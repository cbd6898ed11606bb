//! `report` — the repository's benchmark: four workloads, five end-to-end
//! metrics and a per-layer ledger from client call to decoded reply.
//!
//! ```text
//! report --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one run
//! report [--trace 1] [--seed N] [--seconds S] [--out FILE]        every workload, each in a child process
//! report --check-repeat[=N] [--out FILE]                          N sets on the same code, compared
//! report --list                                                   every metric name with its unit
//! ```
//!
//! A `--workload` run prints a table and, as the last line of its standard
//! output, one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` in this directory for what each workload is
//! for and how to read the numbers.

mod catalog;
mod micro;
mod mix;
mod prom;
mod run;
mod spans;
mod stats;
mod workloads;

use catalog::{metrics_for, RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use run::{Ctx, ARTEFACT_DIR};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// The seed a run uses when none is given (recorded in the output).
const DEFAULT_SEED: u64 = 2022;
/// The measured seconds of a comparable run — `run_seconds` in
/// `BENCHMARK.json`. Runs of any other length are marked non-comparable.
const RUN_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    list: bool,
    check_repeat: Option<usize>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        list: false,
        check_repeat: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--list" => a.list = true,
            "--check-repeat" => a.check_repeat = Some(2),
            other => match other.strip_prefix("--check-repeat=") {
                Some(n) => {
                    let n: usize = n.parse().map_err(|e| format!("--check-repeat: {e}"))?;
                    if n < 2 {
                        return Err("--check-repeat needs at least 2 sets".into());
                    }
                    a.check_repeat = Some(n);
                }
                None => return Err(format!("unknown argument '{other}'")),
            },
        }
    }
    if let Some(w) = &a.workload {
        if catalog::workload(w).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload '{w}' (have: {})",
                names.join(", ")
            ));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("report: {why}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        ExitCode::SUCCESS
    } else if let Some(name) = &args.workload {
        let ctx = Ctx {
            workload: catalog::workload(name).expect("checked by parse_args"),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        };
        run_one(&ctx)
    } else if let Some(sets) = args.check_repeat {
        check_repeat(&args, sets)
    } else {
        let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
        let runs = suite(&args, passes);
        if let Some(path) = &args.out {
            write_out(path, &args, std::slice::from_ref(&runs));
        }
        if runs
            .iter()
            .all(|r| r.result.correct && r.result.failed == 0)
        {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!(
            "  {:<14} {} client(s), tail p{:.0}",
            w.name,
            w.clients,
            w.tail * 100.0
        );
        println!("  {:<14} {}", "", w.why);
    }
    println!("end-to-end metrics (--trace 0):");
    for m in &END_TO_END {
        println!(
            "  {:<32} {:<6} better {:<6} bound {:.0}%",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.unwrap_or(0.0) * 100.0
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in &PER_LAYER {
        println!(
            "  {:<32} {:<6} better {:<6}{}",
            m.name,
            m.unit,
            m.better.label(),
            if m.count { " count" } else { "" }
        );
    }
}

// ---------------------------------------------------------------------------
// One workload, this process
// ---------------------------------------------------------------------------

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The checked-out commit, when the working directory is inside a git
/// repository (the benchmark driver's checkout is not).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".into()
    } else {
        id[..id.len().min(12)].to_string()
    }
}

fn run_one(ctx: &Ctx) -> ExitCode {
    // Set-up, checks and tear-down take ≈10 s on the reference container;
    // the whole process must be gone within 180 s whatever happens.
    let cap = (45.0 + 5.0 * ctx.seconds).min(170.0);
    run::start_watchdog(Duration::from_secs_f64(cap), ctx.trace);

    println!(
        "# report: workload {} | seed {} | {} s measured{} | trace {} | {} client(s), closed loop | tail p{:.0}",
        ctx.workload.name,
        ctx.seed,
        ctx.seconds,
        if ctx.seconds == RUN_SECONDS {
            ""
        } else {
            " (NOT comparable with runs of the reference length)"
        },
        if ctx.trace { "on" } else { "off" },
        ctx.workload.clients,
        ctx.workload.tail * 100.0,
    );
    println!(
        "# nproc {} | profile {} | commit {} | config EngineConfig::default(){}",
        nproc(),
        profile(),
        commit(),
        if ctx.workload.result_cache {
            ""
        } else {
            " + result_cache_enabled = false"
        },
    );

    let outcome = workloads::run(ctx);
    let values = run::summarize(ctx, &outcome);
    if ctx.trace {
        let spans = &outcome.spans;
        let path = Path::new(ARTEFACT_DIR).join(format!("trace-{}.json", ctx.workload.name));
        match spans.write_chrome_trace(&path, ctx.workload.name) {
            Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("report: could not write {}: {e}", path.display()),
        }
    }

    let attempted = run::ATTEMPTED.load(Ordering::SeqCst);
    let failed = run::FAILED.load(Ordering::SeqCst);
    let timed = outcome.records.len();
    println!(
        "# ops_attempted {attempted} | ops_failed {failed} ({:.4}) | timed ops {timed} in {:.2} s | {} beyond the tail percentile | checks {}",
        failed as f64 / attempted.max(1) as f64,
        outcome.timed_wall_s,
        stats::samples_beyond(timed, ctx.workload.tail),
        if outcome.correct { "passed" } else { "FAILED" },
    );
    let result = RunResult::new(outcome.correct, attempted, failed, ctx.trace, &values);
    for (def, (name, value, unit)) in metrics_for(ctx.trace).iter().zip(&result.metrics) {
        println!(
            "{name:<32} {value:>16.4} {unit:<6}{}",
            if def.count { " (count)" } else { "" }
        );
    }
    println!("{}", result.to_json_line());
    let _ = std::io::stdout().flush();
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(4)
    }
}

// ---------------------------------------------------------------------------
// Every workload, one child process each
// ---------------------------------------------------------------------------

struct SuiteRun {
    workload: &'static str,
    trace: bool,
    result: RunResult,
}

/// Run every workload once per pass in `passes` (`false`: end-to-end,
/// `true`: traced), each in its own process so that peak RSS, thread-locals,
/// the process-global trace ring and the optimizer's statistics start clean.
/// The child ends itself (see `run::start_watchdog`); a child that dies
/// without a result line counts as one failed, incorrect run.
fn suite(args: &Args, passes: &[bool]) -> Vec<SuiteRun> {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        for &trace in passes {
            let output = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .expect("start a child of this executable");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines
                .pop()
                .and_then(RunResult::from_json_line)
                .unwrap_or_else(|| {
                    eprintln!(
                        "report: {} ended without a result ({})",
                        w.name, output.status
                    );
                    RunResult::new(false, 1, 1, trace, &catalog::Values::new())
                });
            for line in lines {
                println!("{line}");
            }
            println!();
            runs.push(SuiteRun {
                workload: w.name,
                trace,
                result,
            });
        }
    }
    runs
}

/// The machine-readable result of one or more sets, for paired parent/change
/// comparisons (`--out FILE`).
fn write_out(path: &Path, args: &Args, sets: &[Vec<SuiteRun>]) {
    let sets_json: Vec<String> = sets
        .iter()
        .map(|runs| {
            let runs: Vec<String> = runs
                .iter()
                .map(|r| {
                    format!(
                        "    {{\"workload\": \"{}\", \"trace\": {}, \"result\": {}}}",
                        r.workload,
                        u8::from(r.trace),
                        r.result.to_json_line()
                    )
                })
                .collect();
            format!("  [\n{}\n  ]", runs.join(",\n"))
        })
        .collect();
    let cache_off: Vec<&str> = WORKLOADS
        .iter()
        .filter(|w| !w.result_cache)
        .map(|w| w.name)
        .collect();
    let text = format!(
        "{{\"nproc\": {}, \"profile\": \"{}\", \"commit\": \"{}\", \"seed\": {}, \"seconds\": {}, \"comparable\": {}, \"config\": \"EngineConfig::default(); result_cache_enabled = false on {}\", \"sets\": [\n{}\n]}}\n",
        nproc(),
        profile(),
        commit(),
        args.seed,
        args.seconds,
        args.seconds == RUN_SECONDS,
        cache_off.join(" and "),
        sets_json.join(",\n"),
    );
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("report: could not write {}: {e}", path.display());
    }
}

/// The acceptance run: `sets` full suites on the same code and seed. Prints
/// per workload × metric the values, their spread and the bound; fails when
/// an end-to-end spread exceeds its bound or a count metric of a
/// single-client workload differs between sets.
fn check_repeat(args: &Args, sets: usize) -> ExitCode {
    let all: Vec<Vec<SuiteRun>> = (0..sets)
        .map(|i| {
            println!("## set {} of {sets}", i + 1);
            suite(args, &[false, true])
        })
        .collect();
    if let Some(path) = &args.out {
        write_out(path, args, &all);
    }

    let mut ok = true;
    println!("## repeatability over {sets} sets (spread = (max - min) / median)");
    for w in &WORKLOADS {
        for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let results: Vec<&RunResult> = all
                .iter()
                .flatten()
                .filter(|r| r.workload == w.name && r.trace == trace)
                .map(|r| &r.result)
                .collect();
            if results.iter().any(|r| !r.correct || r.failed > 0) {
                println!("{:<14} a run failed its checks or lost operations", w.name);
                ok = false;
            }
            for m in defs {
                let values: Vec<f64> = results.iter().filter_map(|r| r.get(m.name)).collect();
                let spread = stats::relative_spread(&values);
                let verdict = match m.bound {
                    // Set-up is mostly disk: reported, never the reason to fail.
                    Some(_) if m.name == "setup_s" => "not gated".to_string(),
                    Some(bound) if spread > bound => {
                        ok = false;
                        format!("EXCEEDS bound {:.0}%", bound * 100.0)
                    }
                    Some(bound) => format!("within bound {:.0}%", bound * 100.0),
                    None if m.count && w.clients == 1 => {
                        if values.windows(2).all(|p| p[0] == p[1]) {
                            "count repeats".to_string()
                        } else {
                            ok = false;
                            "COUNT DIFFERS".to_string()
                        }
                    }
                    None => String::new(),
                };
                let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
                println!(
                    "{:<14} {:<32} {:<6} [{}] spread {:.2}% {verdict}",
                    w.name,
                    m.name,
                    m.unit,
                    shown.join(", "),
                    spread * 100.0,
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
