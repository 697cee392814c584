//! Experiment runners shared by the figure binaries.
//!
//! Every sweep in the harness is expressed as a list of labeled [`Job`]s
//! handed to [`run_jobs`], which executes them on a
//! [`cohesion_testkit::pool`] worker pool and returns the results in
//! deterministic input order — so tables, CSV files, and `EXPERIMENTS.md`
//! are bit-identical whether a sweep ran on one worker or sixteen, while
//! wall-clock time scales with `--jobs` / `COHESION_JOBS`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cohesion::config::{DesignPoint, DirectoryVariant, MachineConfig};
use cohesion::report::RunReport;
use cohesion::run::run_workload;
use cohesion_kernels::{Scale, KERNEL_NAMES};
use cohesion_mem::addr::{Addr, LineAddr};
use cohesion_sim::metrics::{json_escape, Snapshot};
use cohesion_sim::timeline::{LineEvent, Mark, TimelineSnapshot, Track};
use cohesion_testkit::pool;

/// Common command-line options for every figure binary.
#[derive(Debug, Clone)]
pub struct Options {
    /// Cores to simulate (scaled machine; 1024 gives the full Table 3
    /// configuration).
    pub cores: u32,
    /// Problem scale.
    pub scale: Scale,
    /// Subset of kernels to run (defaults to all eight).
    pub kernels: Vec<String>,
    /// Worker threads for [`run_jobs`] sweeps (defaults to
    /// `COHESION_JOBS` or the machine's available parallelism).
    pub jobs: usize,
    /// Host threads sharding a *single* simulation (`--shards`; default
    /// 1). `auto` (or `0`) resolves to the host's available parallelism
    /// at machine construction, clamped to the cluster count. Orthogonal
    /// to `jobs`: `jobs` parallelizes across independent runs of a sweep,
    /// `shards` parallelizes inside one `Machine`. Unlike `jobs`, it
    /// defaults off: sweeps already saturate the host through `jobs`, and
    /// per-run sharding only pays when one large simulation is the
    /// bottleneck. Like `jobs`, this never changes simulated results
    /// — every output is byte-identical at any shard count — so neither
    /// the flag nor the resolved count appears in emitted documents.
    pub shards: u32,
    /// Trace seed perturbing kernel input generation (`--seed`). `0` — the
    /// default — reproduces the paper's pinned inputs exactly; any other
    /// value deterministically reshuffles the generated inputs while the
    /// golden verification still checks the answer. `cohesiond` keys its
    /// run cache on this.
    pub seed: u64,
    /// Destination for the structured telemetry report (`--metrics-out`).
    /// When set, every simulation runs with the machine-wide metrics
    /// registry armed and [`Options::write_metrics`] serializes all
    /// recorded snapshots as one JSON document. When `None` — the default
    /// — metrics stay disarmed and every observable output is
    /// byte-identical to a run without telemetry.
    pub metrics_out: Option<String>,
    /// Destination for the Chrome trace-event export (`--trace-out`).
    /// When set, every simulation runs with the timeline flight recorder
    /// armed and [`Options::write_timeline`] serializes the recorded
    /// spans as a Perfetto-loadable trace plus a deterministic
    /// `cohesion-timeline/v1` summary next to it (same path with the
    /// trailing `.json` replaced by `-summary.json`). When `None` — the
    /// default — the recorder stays disarmed and every observable output
    /// is byte-identical to a run without tracing.
    pub trace_out: Option<String>,
    /// The cache line whose protocol events the timeline records
    /// (`--watch ADDR`, a hexadecimal byte address; default none). Only
    /// `--trace-out` runs record them, and watching never changes a
    /// simulated result.
    pub watch: Option<LineAddr>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            cores: 128,
            scale: Scale::Small,
            kernels: KERNEL_NAMES.iter().map(|s| s.to_string()).collect(),
            jobs: pool::default_jobs(),
            shards: 1,
            seed: 0,
            metrics_out: None,
            trace_out: None,
            watch: None,
        }
    }
}

/// Parses a `--watch` value: a hexadecimal byte address, with or
/// without a leading `0x`/`0X` prefix.
fn parse_watch(raw: &str) -> Result<u32, String> {
    let v = raw.trim();
    let digits = v
        .strip_prefix("0x")
        .or_else(|| v.strip_prefix("0X"))
        .unwrap_or(v);
    u32::from_str_radix(digits, 16).map_err(|_| {
        format!(
            "cannot parse {raw:?} as a watch address; accepted formats are \
             hexadecimal byte addresses with or without a 0x prefix \
             (e.g. --watch 0x40001080 or --watch 40001080)"
        )
    })
}

/// Parses a `--shards` value: a positive integer, or `auto` / `0` for
/// the `MachineConfig::resolve_shards` host-parallelism sentinel.
fn parse_shards(v: &str) -> Option<u32> {
    if v.eq_ignore_ascii_case("auto") {
        return Some(0);
    }
    v.parse().ok()
}

impl Options {
    /// Parses `--cores N`, `--scale tiny|small|medium`, `--kernels a,b,c`,
    /// `--jobs N`, `--shards N`, `--seed N`, `--metrics-out FILE`,
    /// `--trace-out FILE` and `--watch ADDR` from the process arguments;
    /// exits with a usage message on errors (including kernel names not
    /// in [`KERNEL_NAMES`] and unparsable watch addresses).
    pub fn from_args() -> Self {
        let mut opts = Options::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--cores" => {
                    i += 1;
                    opts.cores = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--cores needs a number"));
                }
                "--scale" => {
                    i += 1;
                    opts.scale = match args.get(i).map(|s| s.to_ascii_lowercase()).as_deref() {
                        Some("tiny") => Scale::Tiny,
                        Some("small") => Scale::Small,
                        Some("medium") => Scale::Medium,
                        _ => usage("--scale must be tiny|small|medium"),
                    };
                }
                "--kernels" => {
                    i += 1;
                    opts.kernels = args
                        .get(i)
                        .unwrap_or_else(|| usage("--kernels needs a list"))
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect();
                }
                "--jobs" => {
                    i += 1;
                    opts.jobs = match args.get(i).and_then(|v| v.parse().ok()) {
                        Some(n) if n >= 1 => n,
                        _ => usage("--jobs needs a positive integer"),
                    };
                }
                "--shards" => {
                    i += 1;
                    opts.shards = match args.get(i).and_then(|v| parse_shards(v)) {
                        Some(n) => n,
                        None => usage("--shards needs a positive integer or `auto`"),
                    };
                }
                "--seed" => {
                    i += 1;
                    opts.seed = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a u64"));
                }
                "--metrics-out" => {
                    i += 1;
                    opts.metrics_out = Some(
                        args.get(i)
                            .unwrap_or_else(|| usage("--metrics-out needs a file path"))
                            .clone(),
                    );
                }
                "--trace-out" => {
                    i += 1;
                    opts.trace_out = Some(
                        args.get(i)
                            .unwrap_or_else(|| usage("--trace-out needs a file path"))
                            .clone(),
                    );
                }
                "--watch" => {
                    i += 1;
                    let raw = args
                        .get(i)
                        .unwrap_or_else(|| usage("--watch needs a byte address"));
                    let addr = parse_watch(raw).unwrap_or_else(|e| usage(&e));
                    opts.watch = Some(Addr(addr).line());
                }
                "--part" | "--out" | "--csv" | "--from" => {
                    // consumed by fig9 / all_figures / profile separately;
                    // skip the value
                    i += 1;
                }
                "--check" | "--timeline" => {
                    // profile's valueless mode flags; parsed there
                }
                other => usage(&format!("unknown option {other}")),
            }
            i += 1;
        }
        for k in &opts.kernels {
            if !KERNEL_NAMES.contains(&k.as_str()) {
                usage(&format!(
                    "unknown kernel {k:?}; valid kernels: {}",
                    KERNEL_NAMES.join(", ")
                ));
            }
        }
        opts
    }

    /// Builds the machine config for a design point at this option set.
    /// The telemetry registry is armed exactly when `--metrics-out` was
    /// given.
    pub fn config(&self, dp: DesignPoint) -> MachineConfig {
        let mut cfg = if self.cores >= 1024 {
            MachineConfig::isca2010(dp)
        } else {
            MachineConfig::scaled(self.cores, dp)
        };
        cfg.metrics = self.metrics_out.is_some();
        cfg.timeline = self.trace_out.is_some();
        cfg.watch = self.watch;
        cfg.shards = self.shards;
        cfg
    }

    /// Serializes every telemetry snapshot recorded since the last drain
    /// (see [`record_metrics`]) into the `--metrics-out` file as one JSON
    /// document, draining the sink. A no-op when `--metrics-out` was not
    /// given. `binary` names the producing experiment in the document.
    ///
    /// Runs are sorted by `(label, serialized snapshot)` before writing,
    /// so the document is byte-identical at any `--jobs` count.
    pub fn write_metrics(&self, binary: &str) {
        let runs = take_recorded_metrics();
        let Some(path) = &self.metrics_out else {
            return;
        };
        let mut runs: Vec<(String, String)> = runs
            .into_iter()
            .map(|(label, snap)| (label, snap.to_json()))
            .collect();
        runs.sort();
        let doc = metrics_document(binary, self, &runs);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: cannot write metrics report to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics report written to {path}");
    }

    /// Serializes every timeline snapshot recorded since the last drain
    /// into the `--trace-out` file as a Chrome trace-event JSON array
    /// (one trace process per run, one track per lane / crew worker plus
    /// a serial track), and the deterministic `cohesion-timeline/v1`
    /// summary document next to it. A no-op when `--trace-out` was not
    /// given. `binary` names the producing experiment in the summary.
    ///
    /// The trace file carries wall-clock span timings and is therefore
    /// *not* reproducible run to run; the summary document contains only
    /// deterministic aggregates (sorted by label), so it is
    /// byte-identical at any `--jobs` / `--shards` count.
    pub fn write_timeline(&self, binary: &str) {
        let runs = take_recorded_timelines();
        let Some(path) = &self.trace_out else {
            return;
        };
        let mut runs = runs;
        runs.sort_by(|a, b| (&a.0, a.1.summary_json()).cmp(&(&b.0, b.1.summary_json())));
        let trace = chrome_trace(&runs);
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("error: cannot write timeline trace to {path}: {e}");
            std::process::exit(1);
        }
        let summaries: Vec<(String, String)> = runs
            .iter()
            .map(|(label, snap)| (label.clone(), snap.summary_json()))
            .collect();
        let doc = timeline_document(binary, self, &summaries);
        let spath = timeline_summary_path(path);
        if let Err(e) = std::fs::write(&spath, doc) {
            eprintln!("error: cannot write timeline summary to {spath}: {e}");
            std::process::exit(1);
        }
        eprintln!("timeline trace written to {path} (summary: {spath})");
    }
}

/// Labeled telemetry snapshots recorded by [`run`] (and by experiment
/// binaries that drive `run_workload` directly) until
/// [`Options::write_metrics`] or [`take_recorded_metrics`] drains them.
static METRICS_SINK: Mutex<Vec<(String, Snapshot)>> = Mutex::new(Vec::new());

/// Labeled timeline snapshots recorded until [`Options::write_timeline`]
/// or [`take_recorded_timelines`] drains them.
static TIMELINE_SINK: Mutex<Vec<(String, TimelineSnapshot)>> = Mutex::new(Vec::new());

/// Records `report`'s telemetry and timeline snapshots under `label` for
/// the next [`Options::write_metrics`] / [`Options::write_timeline`]. A
/// no-op when the run had both recorders disarmed (no `--metrics-out` /
/// `--trace-out`), so calling this unconditionally never perturbs an
/// ordinary run.
pub fn record_metrics(label: impl Into<String>, report: &RunReport) {
    let label = label.into();
    if let Some(snap) = &report.metrics {
        record_snapshot(label.clone(), snap.clone());
    }
    if let Some(tl) = &report.timeline {
        TIMELINE_SINK
            .lock()
            .expect("timeline sink poisoned")
            .push((label, tl.clone()));
    }
}

/// Drains and returns every recorded `(label, timeline)` pair, in
/// recording order (nondeterministic under a parallel sweep — sort
/// before serializing). Exposed for tests and for
/// [`Options::write_timeline`].
pub fn take_recorded_timelines() -> Vec<(String, TimelineSnapshot)> {
    std::mem::take(&mut *TIMELINE_SINK.lock().expect("timeline sink poisoned"))
}

/// Records an already-taken snapshot under `label` — for binaries that
/// drive [`cohesion::machine::Machine`] directly instead of going through
/// `run_workload` (e.g. `transition_cost`).
pub fn record_snapshot(label: impl Into<String>, snapshot: Snapshot) {
    METRICS_SINK
        .lock()
        .expect("metrics sink poisoned")
        .push((label.into(), snapshot));
}

/// Drains and returns every recorded `(label, snapshot)` pair, in
/// recording order (nondeterministic under a parallel sweep — sort before
/// serializing). Exposed for tests and for [`Options::write_metrics`].
pub fn take_recorded_metrics() -> Vec<(String, Snapshot)> {
    std::mem::take(&mut *METRICS_SINK.lock().expect("metrics sink poisoned"))
}

/// A compact, deterministic label for a design point, used to name
/// telemetry runs (e.g. `Cohesion/sparse16384x128`).
pub fn design_label(dp: DesignPoint) -> String {
    let dir = match dp.directory {
        DirectoryVariant::None => "nodir".to_string(),
        DirectoryVariant::FullMapInfinite => "infinite".to_string(),
        DirectoryVariant::Sparse { entries, ways } => format!("sparse{entries}x{ways}"),
        DirectoryVariant::Dir4B { entries, ways } => format!("dir4b{entries}x{ways}"),
        DirectoryVariant::FullyAssociative { entries } => format!("fa{entries}"),
    };
    format!("{:?}/{dir}", dp.mode)
}

/// Renders the full `--metrics-out` JSON document from already-serialized
/// `(label, snapshot-json)` pairs (pre-sorted by the caller). Pure, so
/// tests can check determinism without touching the filesystem.
pub fn metrics_document(binary: &str, opts: &Options, runs: &[(String, String)]) -> String {
    run_document("cohesion-metrics/v1", "metrics", binary, opts, runs)
}

/// The summary document path paired with a `--trace-out` trace path: the
/// trailing `.json` (if any) is replaced by `-summary.json`.
pub fn timeline_summary_path(trace_path: &str) -> String {
    match trace_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}-summary.json"),
        None => format!("{trace_path}-summary.json"),
    }
}

/// Renders the full `--trace-out` summary document
/// (`cohesion-timeline/v1`) from already-serialized
/// `(label, summary-json)` pairs, pre-sorted by the caller. Pure, so
/// tests can check determinism without touching the filesystem.
pub fn timeline_document(binary: &str, opts: &Options, runs: &[(String, String)]) -> String {
    run_document("cohesion-timeline/v1", "timeline", binary, opts, runs)
}

/// The document both [`metrics_document`] and [`timeline_document`]
/// render: `schema`, `binary`, `options`, and one `{"label", key}` object
/// per run.
fn run_document(schema: &str, key: &str, binary: &str, opts: &Options, runs: &[(String, String)]) -> String {
    let scale = match opts.scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Medium => "medium",
    };
    let kernels: Vec<String> =
        opts.kernels.iter().map(|k| format!("\"{}\"", json_escape(k))).collect();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{schema}\",\n"));
    out.push_str(&format!("  \"binary\": \"{}\",\n", json_escape(binary)));
    // `jobs` and `shards` are deliberately absent: the document must be
    // byte-identical at any worker or shard count.
    // A zero seed (the paper's pinned inputs) is omitted so documents
    // produced before seeds existed stay byte-identical.
    let seed = if opts.seed != 0 {
        format!(", \"seed\": {}", opts.seed)
    } else {
        String::new()
    };
    out.push_str(&format!(
        "  \"options\": {{\"cores\": {}, \"scale\": \"{scale}\", \"kernels\": [{}]{seed}}},\n",
        opts.cores,
        kernels.join(", ")
    ));
    out.push_str("  \"runs\": [\n");
    for (i, (label, json)) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"{key}\": {json}}}{comma}\n",
            json_escape(label)
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The Chrome trace-event `tid` for a timeline track: the serial track
/// is thread 0, lane `l` is thread `l + 1`, and crew worker `w` is
/// thread `1_000_000 + w` (far above any lane index, so worker tracks
/// sort below the lanes in Perfetto).
pub fn trace_tid(track: Track) -> u64 {
    match track {
        Track::Serial => 0,
        Track::Lane(l) => l as u64 + 1,
        Track::Crew(w) => 1_000_000 + w as u64,
    }
}

/// Renders recorded runs as one Chrome trace-event JSON array
/// (Perfetto-loadable): each run is a trace *process* (pid = position in
/// the caller's pre-sorted label order) and each timeline track a
/// *thread* (see [`trace_tid`]). Intervals become `ph:"X"` complete
/// events; instants become `ph:"i"` events whose `args` carry the
/// escalation cause, or the watched line and the event's fields;
/// process/thread names are emitted as `ph:"M"` metadata. Events are
/// sorted by `(pid, tid, ts, dur)` so every track's timestamps are
/// monotonic.
pub fn chrome_trace(runs: &[(String, TimelineSnapshot)]) -> String {
    // (pid, tid, ts, sort-tiebreak, rendered event) — metadata first.
    let mut events: Vec<(u64, u64, u64, u64, String)> = Vec::new();
    for (pid, (label, snap)) in runs.iter().enumerate() {
        let pid = pid as u64;
        events.push((
            pid,
            0,
            0,
            0,
            format!(
                "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                json_escape(label)
            ),
        ));
        let mut tracks: Vec<(u64, String)> = Vec::new();
        for s in snap.spans.iter().chain(snap.crew_spans.iter()) {
            let name = match s.track {
                Track::Serial => "serial".to_string(),
                Track::Lane(l) => format!("lane {l}"),
                Track::Crew(w) => format!("crew {w}"),
            };
            tracks.push((trace_tid(s.track), name));
        }
        tracks.sort();
        tracks.dedup();
        for (tid, name) in tracks {
            events.push((
                pid,
                tid,
                0,
                1,
                format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \
                     \"tid\": {tid}, \"args\": {{\"name\": \"{name}\"}}}}"
                ),
            ));
        }
        for s in snap.spans.iter().chain(snap.crew_spans.iter()) {
            let tid = trace_tid(s.track);
            let args = match s.mark {
                Mark::None => String::new(),
                Mark::Escalate(cause) => format!(", \"cause\": \"{}\"", cause.label()),
                Mark::Line(line, event) => format!(", \"line\": {line}{}", line_args(event)),
            };
            let ev = if s.mark == Mark::None {
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \
                     \"ts\": {}, \"dur\": {}, \"args\": {{\"cycle\": {}}}}}",
                    s.name, s.start_us, s.dur_us, s.cycle
                )
            } else {
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"pid\": {pid}, \
                     \"tid\": {tid}, \"ts\": {}, \"args\": {{\"cycle\": {}{args}}}}}",
                    s.name, s.start_us, s.cycle
                )
            };
            events.push((pid, tid, s.start_us, 2 + s.dur_us, ev));
        }
    }
    events.sort();
    let mut out = String::new();
    out.push_str("[\n");
    for (i, (_, _, _, _, ev)) in events.iter().enumerate() {
        let comma = if i + 1 < events.len() { "," } else { "" };
        out.push_str(&format!("  {ev}{comma}\n"));
    }
    out.push_str("]\n");
    out
}

/// The trace `args` fields of a line event beyond its line and cycle.
fn line_args(event: LineEvent) -> String {
    match event {
        LineEvent::Load { level } => format!(", \"level\": \"{level:?}\""),
        LineEvent::Probe { target, invalidate, writeback } => {
            format!(", \"target\": {target}, \"invalidate\": {invalidate}, \"writeback\": {writeback}")
        }
        LineEvent::Atomic { old, new } => format!(", \"old\": {old}, \"new\": {new}"),
        LineEvent::Store | LineEvent::Fetch | LineEvent::Evict | LineEvent::Transition => String::new(),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: [--cores N] [--scale tiny|small|medium] [--kernels a,b,c] \
         [--jobs N] [--shards N|auto] [--seed N] [--metrics-out FILE] \
         [--trace-out FILE] [--watch ADDR] [--part a|b|c] [--out PATH] [--csv DIR]"
    );
    std::process::exit(2)
}

/// Runs one kernel under one design point and records its telemetry
/// snapshot (if armed) in the metrics sink, panicking (with context) if
/// the run fails verification — a figure built on wrong data is worse
/// than no figure.
pub fn run(opts: &Options, kernel: &str, dp: DesignPoint) -> RunReport {
    let cfg = opts.config(dp);
    let mut wl = cohesion_kernels::kernel_by_name_seeded(kernel, opts.scale, opts.seed);
    match run_workload(&cfg, wl.as_mut()) {
        Ok(r) => {
            record_metrics(format!("{kernel} @ {}", design_label(dp)), &r);
            r
        }
        Err(e) => panic!("{kernel} under {dp:?} failed: {e}"),
    }
}

/// The realistic sparse-directory design points used throughout §4.
pub fn realistic_points() -> Vec<(&'static str, DesignPoint)> {
    let e = 16 * 1024;
    vec![
        ("Cohesion", DesignPoint::cohesion(e, 128)),
        ("Cohesion(Dir4B)", DesignPoint::cohesion_dir4b(e, 128)),
        ("SWcc", DesignPoint::swcc()),
        ("HWccIdeal", DesignPoint::hwcc_ideal()),
        ("HWccReal", DesignPoint::hwcc_real(e, 128)),
        ("HWcc(Dir4B)", DesignPoint::hwcc_dir4b(e, 128)),
    ]
}

/// One labeled unit of work for [`run_jobs`]: the label is what the
/// progress line prints (`[7/40] heat @ sparse16k … 1.8s`), the input is
/// handed to the job closure.
#[derive(Debug, Clone)]
pub struct Job<T> {
    /// Human-readable progress label, e.g. `heat @ sparse16k`.
    pub label: String,
    /// The job's input, moved into the closure on execution.
    pub input: T,
}

impl<T> Job<T> {
    /// A job labeled `label` carrying `input`.
    pub fn new(label: impl Into<String>, input: T) -> Self {
        Job {
            label: label.into(),
            input,
        }
    }
}

/// Executes a labeled job list on `workers` threads (via
/// [`cohesion_testkit::pool::run_jobs_observed`]), printing a progress
/// line per completed job to stderr, and returns the results in input
/// order. Jobs must be `Send` — each simulation owns its `Machine`, so
/// sweeps are embarrassingly parallel and shared mutable state is
/// rejected at compile time. A panicking job fails the whole sweep (after
/// the other jobs finish) with the original panic payload.
pub fn run_jobs<T, R, F>(workers: usize, jobs: Vec<Job<T>>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let total = jobs.len();
    let (labels, inputs): (Vec<String>, Vec<T>) =
        jobs.into_iter().map(|j| (j.label, j.input)).unzip();
    let sweep_start = Instant::now();
    let completed = AtomicUsize::new(0);
    let out = pool::run_jobs_observed(workers, inputs, f, |i, _r, elapsed| {
        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!("[{done}/{total}] {} … {:.1}s", labels[i], elapsed.as_secs_f64());
    });
    if total > 1 {
        eprintln!(
            "{} jobs in {:.1}s on {} worker(s)",
            total,
            sweep_start.elapsed().as_secs_f64(),
            workers.clamp(1, total)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_cover_all_kernels() {
        let o = Options::default();
        assert_eq!(o.kernels.len(), 8);
        assert_eq!(o.cores, 128);
        assert!(o.jobs >= 1);
    }

    #[test]
    fn config_scales_or_goes_full() {
        let o = Options::default();
        assert_eq!(o.config(DesignPoint::swcc()).cores, 128);
        let full = Options {
            cores: 1024,
            ..Options::default()
        };
        assert_eq!(full.config(DesignPoint::swcc()).cores, 1024);
    }

    #[test]
    fn six_design_points() {
        assert_eq!(realistic_points().len(), 6);
    }

    #[test]
    fn smoke_run_one_kernel() {
        let o = Options {
            cores: 16,
            scale: Scale::Tiny,
            kernels: vec!["sobel".into()],
            jobs: 1,
            ..Options::default()
        };
        let r = run(&o, "sobel", DesignPoint::swcc());
        assert!(r.cycles > 0);
    }

    /// Arming telemetry must not perturb the simulation: every
    /// result-bearing field of the run report is identical with metrics on
    /// and off, and only the armed run carries a snapshot.
    #[test]
    fn armed_metrics_do_not_change_results() {
        let base = Options {
            cores: 16,
            scale: Scale::Tiny,
            kernels: vec!["sobel".into()],
            jobs: 1,
            ..Options::default()
        };
        let armed = Options {
            metrics_out: Some("unused.json".into()),
            ..base.clone()
        };
        let dp = DesignPoint::cohesion(16 * 1024, 128);
        let off = run(&base, "sobel", dp);
        let on = run(&armed, "sobel", dp);
        let _ = take_recorded_metrics(); // don't leak into other tests
        assert!(off.metrics.is_none());
        assert!(on.metrics.is_some());
        assert_eq!(off.cycles, on.cycles);
        assert_eq!(off.messages, on.messages);
        assert_eq!(off.transitions, on.transitions);
    }

    /// `--shards` must be invisible in every emitted artifact: the run
    /// report is identical at any shard count and the metrics document
    /// never mentions the flag.
    #[test]
    fn shards_are_unobservable_in_outputs() {
        let base = Options {
            cores: 16,
            scale: Scale::Tiny,
            kernels: vec!["sobel".into()],
            jobs: 1,
            shards: 1,
            ..Options::default()
        };
        let sharded = Options {
            shards: 4,
            ..base.clone()
        };
        // `auto` (the 0 sentinel): the resolved count is a host detail
        // and must be just as invisible as an explicit one.
        let auto = Options {
            shards: 0,
            ..base.clone()
        };
        let dp = DesignPoint::cohesion(16 * 1024, 128);
        let a = run(&base, "sobel", dp);
        let b = run(&sharded, "sobel", dp);
        let c = run(&auto, "sobel", dp);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.cycles, c.cycles);
        assert_eq!(a.messages, c.messages);
        assert_eq!(a.transitions, c.transitions);
        for o in [&sharded, &auto] {
            let doc = metrics_document("test", o, &[]);
            assert!(!doc.contains("shards"), "{doc}");
        }
    }

    #[test]
    fn parse_watch_accepts_hex_with_and_without_prefix() {
        assert_eq!(parse_watch("0x40001080"), Ok(0x4000_1080));
        assert_eq!(parse_watch("0X40001080"), Ok(0x4000_1080));
        assert_eq!(parse_watch("40001080"), Ok(0x4000_1080));
        assert_eq!(parse_watch("  0xdeadbeef \n"), Ok(0xdead_beef));
        assert_eq!(parse_watch("0"), Ok(0));
    }

    #[test]
    fn parse_watch_rejects_garbage_with_a_clear_error() {
        for bad in ["", "0x", "xyzzy", "0x1g", "-4", "0x100000000"] {
            let err = parse_watch(bad).expect_err(bad);
            assert!(
                err.contains(&format!("{bad:?}")) && err.contains("0x prefix"),
                "error for {bad:?} should echo the input and the accepted \
                 formats, got: {err}"
            );
        }
    }

    /// `--shards` accepts `auto` (case-insensitive) and `0` as the
    /// host-parallelism sentinel, plus ordinary positive integers.
    #[test]
    fn shards_flag_parses_auto_and_integers() {
        assert_eq!(parse_shards("auto"), Some(0));
        assert_eq!(parse_shards("AUTO"), Some(0));
        assert_eq!(parse_shards("0"), Some(0));
        assert_eq!(parse_shards("1"), Some(1));
        assert_eq!(parse_shards("16"), Some(16));
        assert_eq!(parse_shards("-2"), None);
        assert_eq!(parse_shards("many"), None);
    }

    /// The serialized document is deterministic given the same recorded
    /// runs, and sorting makes it independent of recording order — the
    /// property that keeps `--metrics-out` byte-identical across `--jobs`.
    #[test]
    fn metrics_document_is_order_independent() {
        let o = Options {
            kernels: vec!["sobel".into()],
            ..Options::default()
        };
        let snap = cohesion_sim::metrics::Registry::armed(100).snapshot();
        let mut a = vec![
            ("b".to_string(), snap.to_json()),
            ("a".to_string(), snap.to_json()),
        ];
        let mut b: Vec<(String, String)> = a.iter().rev().cloned().collect();
        a.sort();
        b.sort();
        let doc_a = metrics_document("test", &o, &a);
        let doc_b = metrics_document("test", &o, &b);
        assert_eq!(doc_a, doc_b);
        assert!(doc_a.contains("\"schema\": \"cohesion-metrics/v1\""));
    }

    /// The timeline summary document mirrors the metrics document's
    /// determinism contract: label-sorted runs serialize identically
    /// regardless of recording order, and the flags that must not leak
    /// (`jobs`, `shards`) never appear.
    #[test]
    fn timeline_document_is_order_independent_and_flag_free() {
        let o = Options {
            kernels: vec!["sobel".into()],
            shards: 4,
            ..Options::default()
        };
        let summary = "{\"dropped_spans\": 0, \"epochs\": 1, \"escalated\": {}, \
                       \"escalation_rate\": 0.0, \"fast\": 1, \"slices\": 1}";
        let mut a = vec![
            ("b".to_string(), summary.to_string()),
            ("a".to_string(), summary.to_string()),
        ];
        let mut b: Vec<(String, String)> = a.iter().rev().cloned().collect();
        a.sort();
        b.sort();
        let doc_a = timeline_document("test", &o, &a);
        let doc_b = timeline_document("test", &o, &b);
        assert_eq!(doc_a, doc_b);
        assert!(doc_a.contains("\"schema\": \"cohesion-timeline/v1\""));
        assert!(!doc_a.contains("jobs"), "{doc_a}");
        assert!(!doc_a.contains("shards"), "{doc_a}");
    }

    #[test]
    fn summary_path_derives_from_trace_path() {
        assert_eq!(timeline_summary_path("trace.json"), "trace-summary.json");
        assert_eq!(timeline_summary_path("out/t.json"), "out/t-summary.json");
        assert_eq!(timeline_summary_path("trace"), "trace-summary.json");
    }

    /// The Chrome trace export is a JSON array whose events are sorted
    /// per `(pid, tid)` by timestamp, with metadata naming every track.
    #[test]
    fn chrome_trace_orders_tracks_and_timestamps() {
        use cohesion_sim::timeline::{EscalationCause, Span, TimelineSnapshot, CAUSES};
        let span = |track, name, start_us, dur_us, mark| Span {
            track,
            name,
            start_us,
            dur_us,
            cycle: 7,
            mark,
        };
        let probe = LineEvent::Probe { target: 3, invalidate: true, writeback: 0b10 };
        let snap = TimelineSnapshot {
            spans: vec![
                span(Track::Lane(1), "phase_a", 50, 10, Mark::None),
                span(Track::Serial, "phase_b", 60, 5, Mark::None),
                span(Track::Lane(1), "escalate", 40, 0, Mark::Escalate(EscalationCause::Atomic)),
                span(Track::Lane(0), "phase_a", 45, 12, Mark::None),
                span(Track::Serial, "probe", 61, 0, Mark::Line(9, probe)),
            ],
            dropped: 0,
            crew_spans: vec![span(Track::Crew(0), "crew_run", 55, 3, Mark::None)],
            crew_dropped: 0,
            epochs: 1,
            fast_slices: 3,
            l3_fast: 0,
            escalated: [0; CAUSES],
        };
        let trace = chrome_trace(&[("run".to_string(), snap)]);
        assert!(trace.starts_with("[\n"));
        assert!(trace.trim_end().ends_with(']'));
        assert!(trace.contains("\"process_name\""));
        assert!(trace.contains("\"name\": \"lane 1\""));
        assert!(trace.contains("\"name\": \"crew 0\""));
        assert!(trace.contains("\"cause\": \"atomic\""));
        assert!(trace.contains(
            "\"name\": \"probe\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": 0, \"ts\": 61, \
             \"args\": {\"cycle\": 7, \"line\": 9, \"target\": 3, \"invalidate\": true, \"writeback\": 2}"
        ));
        // Lane 1's instant (ts 40) must precede its phase_a (ts 50).
        let i_escalate = trace.find("\"escalate\"").unwrap();
        let i_lane1_phase = trace
            .find("\"tid\": 2, \"ts\": 50")
            .expect("lane 1 phase_a present");
        assert!(i_escalate < i_lane1_phase, "{trace}");
    }
}

#[cfg(test)]
mod run_jobs_tests {
    use super::{run, run_jobs, Job, Options};
    use cohesion::config::DesignPoint;
    use cohesion_kernels::Scale;

    #[test]
    fn preserves_order_and_results() {
        let jobs: Vec<Job<i32>> = (0..100).map(|i| Job::new(format!("j{i}"), i)).collect();
        let out = run_jobs(4, jobs, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_job_runs_inline() {
        assert_eq!(run_jobs(4, vec![Job::new("one", 7)], |i: i32| i + 1), vec![8]);
    }

    #[test]
    fn parallel_simulation_runs_are_deterministic() {
        let o = Options {
            cores: 16,
            scale: Scale::Tiny,
            kernels: vec!["sobel".into()],
            jobs: 4,
            ..Options::default()
        };
        let jobs: Vec<Job<()>> = (0..4).map(|i| Job::new(format!("sobel #{i}"), ())).collect();
        let runs = run_jobs(o.jobs, jobs, |()| run(&o, "sobel", DesignPoint::swcc()).cycles);
        assert!(runs.windows(2).all(|w| w[0] == w[1]), "{runs:?}");
    }
}
