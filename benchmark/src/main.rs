//! `cohesion-benchmark` — the telemetry-off, layer-by-layer benchmark of
//! the Cohesion simulator and `cohesiond`.
//!
//! ```sh
//! # One workload, end-to-end metrics (every in-program recorder off):
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run --workload sweep --seed 1 --seconds 25 --trace 0
//! # Per-layer metrics as well, all workloads, results kept for compare:
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run --seed 1 --trace --out runs/change-1.json
//! # Verdicts for two sets of runs, and bounds from one set:
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     compare runs/parent-*.json -- runs/change-*.json
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     calibrate runs/parent-*.json
//! ```
//!
//! `run` measures each workload in a fresh child process of itself, so
//! `peak_rss_mb` is that workload's alone. It prints every metric as
//! `workload metric value unit`, then one JSON summary line, and exits
//! non-zero if any output check failed. See README.md for the workloads
//! and the metric catalog.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod catalog;
mod compare;
mod components;
mod result;
mod service;
mod sim;
mod stats;

use catalog::Kind;
use result::WorkloadResult;

/// The workloads, in the order `run` measures them.
pub const WORKLOADS: [&str; 4] = ["sweep", "shard-serial", "shard-local", "service"];

/// How long `run` lets one child process take before killing it.
const CHILD_LIMIT: Duration = Duration::from_secs(170);

/// Failed output checks kept verbatim per workload.
const MAX_ERRORS: usize = 20;

/// Measured `(catalog name, value)` pairs.
pub type Metrics = Vec<(&'static str, f64)>;

/// Attempt, failure and output-check accounting for one workload.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    unlisted: usize,
}

impl Checks {
    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one operation and its failure, if any.
    pub fn note<T>(&mut self, outcome: &Result<T, String>) {
        self.count(1, u64::from(outcome.is_err()));
        if let Err(e) = outcome {
            self.error(e.clone());
        }
    }

    /// Counts every run of a simulation pass.
    pub fn note_pass(&mut self, pass: &sim::Pass) {
        for run in &pass.runs {
            self.note(&run.report);
        }
    }

    /// Records a failed check unless `got == want`.
    pub fn expect_eq(&mut self, got: &str, want: &str, what: &str) {
        if got != want {
            self.error(format!("{what}: got {got}, expected {want}"));
        }
    }

    /// Records a failed check.
    pub fn error(&mut self, message: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(message);
        } else {
            self.unlisted += 1;
        }
    }

    /// The workload's result. With `trace`, a per-layer metric the
    /// workload does not exercise (the daemon's layers in a simulator
    /// workload, the crew at one shard) reads 0.
    pub fn finish(
        mut self,
        workload: &str,
        seed: u64,
        trace: bool,
        mut metrics: Metrics,
        sim_digest: Option<String>,
    ) -> WorkloadResult {
        if self.unlisted > 0 {
            self.errors.push(format!("... and {} more", self.unlisted));
        }
        if trace {
            for name in catalog::names(Kind::Layer) {
                if !metrics.iter().any(|(n, _)| *n == name) {
                    metrics.push((name, 0.0));
                }
            }
        }
        WorkloadResult {
            workload: workload.to_string(),
            seed,
            trace,
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            attempted: self.attempted,
            failed: self.failed,
            errors: self.errors,
            // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
            metrics: metrics
                .into_iter()
                .map(|(n, v)| (n.to_string(), v + 0.0))
                .collect(),
            sim_digest,
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// This process's resident set (`VmRSS`) in MiB; 0 where
/// `/proc/self/status` does not exist.
fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How often [`RssSampler`] reads the resident set.
const RSS_PERIOD: Duration = Duration::from_millis(100);

/// The peak resident set of the measured phase: from
/// [`RssSampler::start`] to [`RssSampler::finish`], a background thread
/// reads `VmRSS` every [`RSS_PERIOD`].
///
/// The process-wide peak (`VmHWM`) would also count set-up — the service
/// workload's first server instance and restarts, a simulator's warm-up —
/// and the heap that set-up leaves free in the allocator's arenas, which
/// moved it by 10–25% between identical service runs. So `start` returns
/// that free heap to the OS first.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<f64>,
}

impl RssSampler {
    /// Returns the heap memory freed so far to the OS, then starts
    /// sampling.
    pub fn start() -> RssSampler {
        trim_heap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak = 0.0f64;
            // Relaxed: the flag publishes no other data.
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(rss_mib());
                std::thread::park_timeout(RSS_PERIOD);
            }
            peak.max(rss_mib())
        });
        RssSampler { stop, thread }
    }

    /// Stops sampling and returns the largest sample, in MiB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.thread().unpark();
        self.thread.join().expect("the RSS sampler does not panic")
    }
}

/// Returns free heap memory to the OS (glibc's `malloc_trim`), so the
/// resident set counts what the measured phase keeps, not what set-up
/// left free in the allocator's arenas. A no-op on other C libraries.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes a byte count and only releases pages
        // the allocator holds free; it reads or writes no memory the
        // program owns, and glibc makes it safe to call from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Scratch space inside the benchmark's own directory (never outside
/// the checkout); `.work/` is ignored by git.
fn scratch_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// A fresh, empty scratch directory named after `name`.
pub fn work_dir(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = scratch_root().join(format!(
        "{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
    dir
}

/// Options of `run` (and of the child it spawns per workload).
#[derive(Debug, Clone)]
struct RunOpts {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let w = value(i)?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; valid: {}",
                        WORKLOADS.join(", ")
                    ));
                }
                o.workloads = vec![w.clone()];
                i += 1;
            }
            "--seed" => {
                o.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                o.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds >= 0.0 && o.seconds <= 120.0) {
                    return Err("--seconds must be between 0 and 120".into());
                }
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    o.trace = true;
                    i += 1;
                }
                _ => o.trace = true,
            },
            "--out" => {
                o.out = Some(value(i)?.clone());
                i += 1;
            }
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }
    Ok(o)
}

/// Measures `workload` in this process.
fn measure(workload: &str, seed: u64, window: Duration, trace: bool) -> WorkloadResult {
    match workload {
        "sweep" => sim::run(workload, &sim::SimSpec::sweep(), seed, window, trace),
        "shard-serial" => sim::run(workload, &sim::SimSpec::shard_serial(), seed, window, trace),
        "shard-local" => sim::run(workload, &sim::SimSpec::shard_local(), seed, window, trace),
        "service" => service::run(
            workload,
            &service::ServiceSpec::standard(),
            seed,
            window,
            trace,
        ),
        other => unreachable!("workload {other:?} was validated"),
    }
}

/// Runs one workload in a child process of this executable and returns
/// the result it prints. The child's stderr (server logs included) goes
/// to a scratch file, replayed here only when the child fails.
fn spawn_child(workload: &str, o: &RunOpts) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    std::fs::create_dir_all(scratch_root()).map_err(|e| format!("scratch directory: {e}"))?;
    let log_path = scratch_root().join(format!("{workload}-{}.log", std::process::id()));
    let log = std::fs::File::create(&log_path).map_err(|e| format!("child log: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "child",
            "--workload",
            workload,
            "--seed",
            &o.seed.to_string(),
        ])
        .args([
            "--seconds",
            &o.seconds.to_string(),
            "--trace",
            if o.trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let limit = Instant::now() + CHILD_LIMIT;
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break Ok(status),
            None if Instant::now() > limit => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("did not finish within {}s", CHILD_LIMIT.as_secs()));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let stdout = reader.join().expect("stdout reader").unwrap_or_default();
    let log_text = std::fs::read_to_string(&log_path).unwrap_or_default();
    let _ = std::fs::remove_file(&log_path);
    let parsed = status.and_then(|s| {
        if !s.success() {
            return Err(format!("child exited with {s}"));
        }
        let line = stdout.lines().last().ok_or("child printed no result")?;
        let v = cohesion_bench::jsonv::parse(line).map_err(|e| format!("child result: {e}"))?;
        WorkloadResult::from_json(&v)
    });
    if parsed.is_err() {
        let lines: Vec<&str> = log_text.lines().collect();
        for l in &lines[lines.len().saturating_sub(30)..] {
            eprintln!("  | {l}");
        }
    }
    parsed
}

fn cmd_run(o: &RunOpts) -> ExitCode {
    let mut results = Vec::new();
    for w in &o.workloads {
        eprintln!(
            "benchmark: {w} (seed {}, {}s, trace {})",
            o.seed, o.seconds, o.trace
        );
        match spawn_child(w, o) {
            Ok(r) => results.push(r),
            Err(e) => {
                eprintln!("error: workload {w}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let _ = std::fs::remove_dir(scratch_root());
    for r in &results {
        for m in catalog::CATALOG {
            if let Some(v) = r.metric(m.name) {
                println!("{} {} {v} {}", r.workload, m.name, m.unit);
            }
        }
        if let Some(d) = &r.sim_digest {
            println!("{} sim_digest {d} hash", r.workload);
        }
        for e in &r.errors {
            eprintln!("check failed: {}: {e}", r.workload);
        }
    }
    if let Some(path) = &o.out {
        if let Err(e) = std::fs::write(path, result::document(&results)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }
    let kind = if o.trace { Kind::Layer } else { Kind::EndToEnd };
    println!("{}", result::summary_line(&results, kind));
    if results.iter().all(WorkloadResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

const USAGE: &str = "\
usage: cohesion-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
       cohesion-benchmark compare PARENT.json... -- CHANGE.json...
       cohesion-benchmark calibrate RUN.json...
workloads: sweep, shard-serial, shard-local, service";

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage("missing subcommand");
    };
    match cmd.as_str() {
        "run" => match parse_run(rest) {
            Ok(o) => cmd_run(&o),
            Err(e) => usage(&e),
        },
        // Internal: one workload, its result as the last stdout line.
        "child" => match parse_run(rest) {
            Ok(o) if o.workloads.len() == 1 => {
                let r = measure(
                    &o.workloads[0],
                    o.seed,
                    Duration::from_secs_f64(o.seconds),
                    o.trace,
                );
                println!("{}", r.to_json());
                ExitCode::SUCCESS
            }
            Ok(_) => usage("child needs --workload"),
            Err(e) => usage(&e),
        },
        "compare" => {
            let Some(split) = rest.iter().position(|a| a == "--") else {
                return usage("compare needs PARENT files, `--`, then CHANGE files");
            };
            match compare::compare(&rest[..split], &rest[split + 1..]) {
                Ok(report) => {
                    print!("{}", report.text);
                    if report.regressed {
                        ExitCode::from(1)
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => usage(&e),
            }
        }
        "calibrate" => match compare::calibrate(rest) {
            Ok(doc) => {
                print!("{doc}");
                ExitCode::SUCCESS
            }
            Err(e) => usage(&e),
        },
        other => usage(&format!("unknown subcommand {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_options_accept_explicit_and_bare_trace_flags() {
        let o = parse_run(&args("--workload service --seed 9 --seconds 20 --trace 1")).unwrap();
        assert_eq!(o.workloads, vec!["service"]);
        assert_eq!((o.seed, o.seconds, o.trace), (9, 20.0, true));
        let o = parse_run(&args("--trace 0 --seed 2")).unwrap();
        assert!(!o.trace);
        assert_eq!(o.workloads.len(), 4);
        let o = parse_run(&args("--trace --out x.json")).unwrap();
        assert!(o.trace);
        assert_eq!(o.out.as_deref(), Some("x.json"));
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--seconds -1")).is_err());
        assert!(parse_run(&args("--seed")).is_err());
    }

    #[test]
    fn rss_sampler_reports_the_resident_set() {
        let sampler = RssSampler::start();
        let ballast = std::hint::black_box(vec![1u8; 64 << 20]);
        std::thread::sleep(Duration::from_millis(250));
        let rss = sampler.finish();
        assert!(rss >= 64.0, "{rss} MiB with 64 MiB touched");
        drop(std::hint::black_box(ballast));
    }

    #[test]
    fn checks_cap_listed_errors() {
        let mut c = Checks::default();
        for i in 0..(MAX_ERRORS + 3) {
            c.note::<()>(&Err(format!("e{i}")));
        }
        let r = c.finish("w", 0, false, Metrics::new(), None);
        assert_eq!(r.failed, (MAX_ERRORS + 3) as u64);
        assert_eq!(r.errors.len(), MAX_ERRORS + 1);
        assert_eq!(r.errors.last().unwrap(), "... and 3 more");
    }
}
