//! Hot-spot profiler: renders a human-readable summary of a telemetry
//! report — top latency histograms, busiest L3 banks and clusters, the
//! Figure 7 transition-case breakdown, directory/region-table hit rates,
//! and per-barrier-interval traffic.
//!
//! Two modes:
//!
//! ```sh
//! # From a saved report (any binary's --metrics-out output):
//! cargo run --release -p cohesion-bench --bin profile -- --from report.json
//! # Validate only (CI): exit non-zero unless the document parses and has
//! # the required keys.
//! cargo run --release -p cohesion-bench --bin profile -- --from report.json --check
//! # Live: run the selected kernels under Cohesion with metrics armed,
//! # then profile the result (accepts the shared harness flags).
//! cargo run --release -p cohesion-bench --bin profile -- --kernels sobel --cores 16 --scale tiny
//! # Timeline view: top escalation causes per kernel plus the phase A/B
//! # wall split, from a `cohesion-timeline/v1` summary, a Chrome trace,
//! # or a live run (`--timeline` with no `--from`).
//! cargo run --release -p cohesion-bench --bin profile -- --from trace-summary.json
//! cargo run --release -p cohesion-bench --bin profile -- --timeline --kernels sobel --cores 16 --scale tiny
//! ```
//!
//! `--from` dispatches on file content, not flags: a JSON object with
//! schema `cohesion-metrics/v1` renders the metrics profile, one with
//! `cohesion-timeline/v1` the timeline profile, and a JSON *array* is
//! treated as a Chrome trace-event export. Trace and summary find each
//! other through the `--trace-out` naming convention (`X.json` ↔
//! `X-summary.json`), so pointing at either file profiles both halves
//! when the sibling exists.
//!
//! The live paths dogfood the whole pipeline: they serialize their own
//! runs with the same writers the figure binaries use, then parse that
//! JSON back with [`cohesion_bench::jsonv`] before rendering.

use cohesion::config::DesignPoint;
use cohesion_bench::harness::{self, Options};
use cohesion_sim::timeline::EscalationCause;
use cohesion_bench::jsonv::{self, Value};
use cohesion_bench::table::Table;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let from = args
        .windows(2)
        .find(|w| w[0] == "--from")
        .map(|w| w[1].clone());
    let check_only = args.iter().any(|a| a == "--check");
    let timeline_mode = args.iter().any(|a| a == "--timeline");

    // (document, optional sibling) — the sibling is the other half of a
    // --trace-out pair (trace ↔ summary) when it exists on disk.
    let (doc, sibling) = match &from {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(1);
            });
            (text, sibling_document(path))
        }
        None if timeline_mode => live_timeline_documents(),
        None => (live_document(), None),
    };

    let v = jsonv::parse(&doc).unwrap_or_else(|e| {
        eprintln!("error: report does not parse as JSON: {e}");
        std::process::exit(1);
    });
    let sib = sibling.map(|text| {
        jsonv::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: sibling report does not parse as JSON: {e}");
            std::process::exit(1);
        })
    });

    // Content dispatch: array = Chrome trace, object = keyed document.
    let (summary, trace) = if v.as_arr().is_some() {
        (sib, Some(v))
    } else if v.get("schema").and_then(Value::as_str) == Some("cohesion-timeline/v1") {
        (Some(v), sib)
    } else {
        // Metrics document: the pre-existing profile path.
        if let Err(e) = validate(&v) {
            eprintln!("error: invalid metrics report: {e}");
            std::process::exit(1);
        }
        if check_only {
            let runs = v.get("runs").and_then(Value::as_arr).map_or(0, <[Value]>::len);
            println!(
                "ok: {} report from `{}` with {runs} run(s)",
                v.get("schema").and_then(Value::as_str).unwrap_or("?"),
                v.get("binary").and_then(Value::as_str).unwrap_or("?"),
            );
            return;
        }
        print!("{}", render(&v));
        return;
    };

    if let Some(s) = &summary {
        if let Err(e) = validate_timeline(s) {
            eprintln!("error: invalid timeline summary: {e}");
            std::process::exit(1);
        }
    }
    if let Some(t) = &trace {
        if let Err(e) = validate_trace(t) {
            eprintln!("error: invalid Chrome trace: {e}");
            std::process::exit(1);
        }
    }
    if check_only {
        let runs = summary
            .as_ref()
            .and_then(|s| s.get("runs"))
            .and_then(Value::as_arr)
            .map_or(0, <[Value]>::len);
        let events = trace.as_ref().and_then(Value::as_arr).map_or(0, <[Value]>::len);
        println!("ok: cohesion-timeline/v1 report with {runs} run(s), {events} trace event(s)");
        return;
    }
    print!("{}", render_timeline(summary.as_ref(), trace.as_ref()));
}

/// Loads the other half of a `--trace-out` pair when it exists:
/// `X-summary.json` for `X.json` and vice versa.
fn sibling_document(path: &str) -> Option<String> {
    let sibling = match path.strip_suffix("-summary.json") {
        Some(stem) => format!("{stem}.json"),
        None => harness::timeline_summary_path(path),
    };
    if sibling == path {
        return None;
    }
    std::fs::read_to_string(sibling).ok()
}

/// Runs the shared-CLI kernels under Cohesion with metrics armed and
/// returns the serialized document (also writing it if `--metrics-out`
/// was given).
fn live_document() -> String {
    let mut opts = Options::from_args();
    let metrics_out = opts.metrics_out.take();
    // Arm the registry even without --metrics-out: `config()` keys off
    // this field, and the sink is drained into the document below.
    opts.metrics_out = Some(String::new());
    let e = 16 * 1024;
    for kernel in opts.kernels.clone() {
        let _ = harness::run(&opts, &kernel, DesignPoint::cohesion(e, 128));
    }
    let mut runs: Vec<(String, String)> = harness::take_recorded_metrics()
        .into_iter()
        .map(|(label, snap)| (label, snap.to_json()))
        .collect();
    runs.sort();
    let doc = harness::metrics_document("profile", &opts, &runs);
    if let Some(path) = metrics_out.filter(|p| !p.is_empty()) {
        if let Err(err) = std::fs::write(&path, &doc) {
            eprintln!("error: cannot write metrics report to {path}: {err}");
            std::process::exit(1);
        }
        eprintln!("metrics report written to {path}");
    }
    doc
}

/// Runs the shared-CLI kernels under Cohesion with the timeline flight
/// recorder armed and returns `(summary document, trace document)` —
/// also writing both files if `--trace-out` was given.
fn live_timeline_documents() -> (String, Option<String>) {
    let mut opts = Options::from_args();
    let trace_out = opts.trace_out.take();
    // Arm the recorder even without --trace-out: `config()` keys off
    // this field, and the sink is drained into the documents below.
    opts.trace_out = Some(String::new());
    let e = 16 * 1024;
    for kernel in opts.kernels.clone() {
        let _ = harness::run(&opts, &kernel, DesignPoint::cohesion(e, 128));
    }
    let mut runs = harness::take_recorded_timelines();
    runs.sort_by(|a, b| (&a.0, a.1.summary_json()).cmp(&(&b.0, b.1.summary_json())));
    let trace = harness::chrome_trace(&runs);
    let summaries: Vec<(String, String)> = runs
        .iter()
        .map(|(label, snap)| (label.clone(), snap.summary_json()))
        .collect();
    let doc = harness::timeline_document("profile", &opts, &summaries);
    if let Some(path) = trace_out.filter(|p| !p.is_empty()) {
        let spath = harness::timeline_summary_path(&path);
        for (p, text) in [(&path, &trace), (&spath, &doc)] {
            if let Err(err) = std::fs::write(p, text) {
                eprintln!("error: cannot write timeline report to {p}: {err}");
                std::process::exit(1);
            }
        }
        eprintln!("timeline trace written to {path} (summary: {spath})");
    }
    (doc, Some(trace))
}

/// Checks a `cohesion-timeline/v1` summary document has the required
/// shape (CI's `--check` contract for the timeline schema).
fn validate_timeline(v: &Value) -> Result<(), String> {
    for key in ["schema", "binary", "options", "runs"] {
        if v.get(key).is_none() {
            return Err(format!("missing top-level key {key:?}"));
        }
    }
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or_default();
    if schema != "cohesion-timeline/v1" {
        return Err(format!("unknown schema {schema:?}"));
    }
    let runs = v
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("\"runs\" is not an array")?;
    for (i, run) in runs.iter().enumerate() {
        if run.get("label").and_then(Value::as_str).is_none() {
            return Err(format!("run {i} has no label"));
        }
        let t = run.get("timeline").ok_or(format!("run {i} has no timeline"))?;
        for key in ["dropped_spans", "epochs", "escalated", "escalation_rate", "fast", "slices"] {
            if t.get(key).is_none() {
                return Err(format!("run {i} timeline missing {key:?}"));
            }
        }
        let fast = t.get("fast").and_then(Value::as_u64).unwrap_or(0);
        let slices = t.get("slices").and_then(Value::as_u64).unwrap_or(0);
        let escalated: u64 = t
            .get("escalated")
            .and_then(Value::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(_, v)| v.as_u64())
            .sum();
        if fast + escalated != slices {
            return Err(format!(
                "run {i}: fast ({fast}) + escalated ({escalated}) != slices ({slices})"
            ));
        }
    }
    Ok(())
}

/// Checks a Chrome trace-event export: a JSON array of events with
/// non-negative timestamps/durations, monotonic per `(pid, tid)` track.
fn validate_trace(v: &Value) -> Result<(), String> {
    let events = v.as_arr().ok_or("trace is not a JSON array")?;
    let mut last: Vec<((u64, u64), u64)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or(format!("event {i} has no \"ph\""))?;
        for key in ["name", "pid", "tid"] {
            if e.get(key).is_none() {
                return Err(format!("event {i} has no {key:?}"));
            }
        }
        if ph == "M" {
            continue;
        }
        let ts = e
            .get("ts")
            .and_then(Value::as_u64)
            .ok_or(format!("event {i} has no non-negative \"ts\""))?;
        if ph == "X" && e.get("dur").and_then(Value::as_u64).is_none() {
            return Err(format!("event {i} has no non-negative \"dur\""));
        }
        let track = (
            e.get("pid").and_then(Value::as_u64).unwrap_or(0),
            e.get("tid").and_then(Value::as_u64).unwrap_or(0),
        );
        match last.iter_mut().find(|(t, _)| *t == track) {
            Some((_, prev)) => {
                if ts < *prev {
                    return Err(format!(
                        "event {i}: ts {ts} goes backwards on track {track:?} (prev {prev})"
                    ));
                }
                *prev = ts;
            }
            None => last.push((track, ts)),
        }
    }
    Ok(())
}

/// Renders the timeline profile: per-run escalation-cause breakdown from
/// the summary, wall-clock phase split from the trace — whichever halves
/// are present.
fn render_timeline(summary: Option<&Value>, trace: Option<&Value>) -> String {
    let mut out = String::new();
    let walls = trace.map(wall_splits).unwrap_or_default();
    if let Some(s) = summary {
        let runs = s.get("runs").and_then(Value::as_arr).unwrap_or_default();
        out.push_str(&format!(
            "Timeline profile: `{}` report, {} run(s)\n",
            s.get("binary").and_then(Value::as_str).unwrap_or("?"),
            runs.len(),
        ));
        for run in runs {
            let label = run.get("label").and_then(Value::as_str).unwrap_or("?");
            let t = run.get("timeline").expect("validated");
            let g = |k: &str| t.get(k).and_then(Value::as_u64).unwrap_or(0);
            let rate = t.get("escalation_rate").and_then(Value::as_f64).unwrap_or(0.0);
            out.push_str(&format!(
                "\n== {label} ==\nslices {} ({} fast, {:.1}% escalated), epochs {}, dropped spans {}\n",
                g("slices"),
                g("fast"),
                rate * 100.0,
                g("epochs"),
                g("dropped_spans"),
            ));
            let counts = t.get("escalated").and_then(Value::as_obj).unwrap_or_default();
            // Fixed taxonomy order (EscalationCause::index), so the mix
            // table lines up across runs and with the docs table; labels
            // the summary schema does not know yet render after, sorted.
            let taxonomy: Vec<&str> = (0..EscalationCause::ALL.len())
                .map(|i| EscalationCause::from_index(i).label())
                .collect();
            let mut causes: Vec<(String, u64)> = taxonomy
                .iter()
                .filter_map(|&l| {
                    counts.iter().find(|(k, _)| k == l).and_then(|(k, v)| Some((k.clone(), v.as_u64()?)))
                })
                .collect();
            let mut extras: Vec<(String, u64)> = counts
                .iter()
                .filter(|(k, _)| !taxonomy.contains(&k.as_str()))
                .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                .collect();
            extras.sort_by(|a, b| a.0.cmp(&b.0));
            causes.extend(extras);
            causes.retain(|(_, n)| *n > 0);
            let total: u64 = causes.iter().map(|(_, n)| n).sum();
            if total > 0 {
                out.push_str("Escalation causes:\n");
                for (cause, n) in &causes {
                    out.push_str(&format!(
                        "  {cause:<12} {n:>8} ({:.1}%)\n",
                        *n as f64 * 100.0 / total as f64
                    ));
                }
            }
            if let Some(w) = walls.iter().find(|w| w.label == label) {
                out.push_str(&w.render());
            }
        }
    } else {
        out.push_str(&format!("Timeline profile: trace only, {} run(s)\n", walls.len()));
        for w in &walls {
            out.push_str(&format!("\n== {} ==\n", w.label));
            out.push_str(&w.render());
        }
    }
    out
}

/// Wall-clock totals per span kind for one trace process (= one run).
struct WallSplit {
    label: String,
    /// `(span name, total microseconds, span count)`, insertion order.
    kinds: Vec<(String, u64, u64)>,
}

impl WallSplit {
    fn render(&self) -> String {
        let mut out = String::from("Wall split (from trace):\n");
        let mut kinds: Vec<_> = self.kinds.iter().collect();
        kinds.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (name, us, count) in kinds {
            out.push_str(&format!("  {name:<14} {:>10.3} ms over {count} span(s)\n",
                *us as f64 / 1000.0));
        }
        out
    }
}

/// Sums span durations by kind per trace process, resolving process
/// labels from the `process_name` metadata events.
fn wall_splits(trace: &Value) -> Vec<WallSplit> {
    let events = trace.as_arr().unwrap_or_default();
    let mut splits: Vec<(u64, WallSplit)> = Vec::new();
    for e in events {
        let pid = e.get("pid").and_then(Value::as_u64).unwrap_or(0);
        let ph = e.get("ph").and_then(Value::as_str).unwrap_or("");
        let name = e.get("name").and_then(Value::as_str).unwrap_or("");
        if ph == "M" {
            if name == "process_name" {
                let label = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string();
                if !splits.iter().any(|(p, _)| *p == pid) {
                    splits.push((pid, WallSplit { label, kinds: Vec::new() }));
                }
            }
            continue;
        }
        if ph != "X" {
            continue;
        }
        let dur = e.get("dur").and_then(Value::as_u64).unwrap_or(0);
        let Some((_, split)) = splits.iter_mut().find(|(p, _)| *p == pid) else {
            continue;
        };
        match split.kinds.iter_mut().find(|(k, _, _)| k == name) {
            Some((_, us, count)) => {
                *us += dur;
                *count += 1;
            }
            None => split.kinds.push((name.to_string(), dur, 1)),
        }
    }
    splits.into_iter().map(|(_, w)| w).collect()
}

/// Checks the document has the required shape (CI's `--check` contract).
fn validate(v: &Value) -> Result<(), String> {
    for key in ["schema", "binary", "options", "runs"] {
        if v.get(key).is_none() {
            return Err(format!("missing top-level key {key:?}"));
        }
    }
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or_default();
    if schema != "cohesion-metrics/v1" {
        return Err(format!("unknown schema {schema:?}"));
    }
    let runs = v
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("\"runs\" is not an array")?;
    for (i, run) in runs.iter().enumerate() {
        if run.get("label").and_then(Value::as_str).is_none() {
            return Err(format!("run {i} has no label"));
        }
        let m = run.get("metrics").ok_or(format!("run {i} has no metrics"))?;
        for key in ["counters", "gauges", "histograms", "series", "marks"] {
            if m.get(key).is_none() {
                return Err(format!("run {i} metrics missing {key:?}"));
            }
        }
    }
    Ok(())
}

/// Sums counters named `prefix/NNN/suffix` into per-index totals, returned
/// as `(index-label, value)` sorted by value descending.
fn per_index(counters: &[(String, Value)], prefix: &str, suffix: &str) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = counters
        .iter()
        .filter_map(|(k, v)| {
            let rest = k.strip_prefix(prefix)?.strip_prefix('/')?;
            let (idx, tail) = rest.split_once('/')?;
            (tail == suffix).then(|| (idx.to_string(), v.as_u64().unwrap_or(0)))
        })
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

fn counter(counters: &[(String, Value)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.as_u64())
        .unwrap_or(0)
}

fn render(v: &Value) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Telemetry profile: `{}` report, {} run(s)\n",
        v.get("binary").and_then(Value::as_str).unwrap_or("?"),
        v.get("runs").and_then(Value::as_arr).map_or(0, <[Value]>::len),
    ));
    let runs = v.get("runs").and_then(Value::as_arr).unwrap_or_default();
    for run in runs {
        out.push_str(&render_run(run));
    }
    out
}

fn render_run(run: &Value) -> String {
    let label = run.get("label").and_then(Value::as_str).unwrap_or("?");
    let m = run.get("metrics").expect("validated");
    let counters = m.get("counters").and_then(Value::as_obj).unwrap_or_default();
    let gauges = m.get("gauges").and_then(Value::as_obj).unwrap_or_default();
    let hists = m.get("histograms").and_then(Value::as_obj).unwrap_or_default();
    let marks = m.get("marks").and_then(Value::as_obj).unwrap_or_default();

    let mut out = format!("\n== {label} ==\n");
    let cycles = gauges
        .iter()
        .find(|(k, _)| k == "run/cycles")
        .and_then(|(_, v)| v.as_f64())
        .unwrap_or(0.0);
    out.push_str(&format!(
        "cycles {}, events scheduled {}, event-queue peak {}\n",
        cycles as u64,
        counter(counters, "events/scheduled"),
        counter(counters, "events/max_pending"),
    ));

    // 1. Latency histograms, busiest first.
    let mut by_count: Vec<_> = hists.iter().collect();
    by_count.sort_by(|a, b| {
        let c = |h: &Value| h.get("count").and_then(Value::as_u64).unwrap_or(0);
        c(&b.1).cmp(&c(&a.1)).then_with(|| a.0.cmp(&b.0))
    });
    if !by_count.is_empty() {
        out.push_str("\nLatency histograms (top 8 by sample count, cycles):\n");
        let mut t = Table::new(vec!["histogram", "count", "mean", "p50", "p90", "p99", "max"]);
        for (name, h) in by_count.iter().take(8) {
            let f = |k: &str| h.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            t.row(vec![
                name.clone(),
                format!("{}", f("count") as u64),
                format!("{:.1}", f("mean")),
                format!("{:.0}", f("p50")),
                format!("{:.0}", f("p90")),
                format!("{:.0}", f("p99")),
                format!("{}", f("max") as u64),
            ]);
        }
        out.push_str(&t.render());
    }

    // 2. Busiest L3 banks and clusters.
    let banks = per_index(counters, "bank", "port_grants");
    if !banks.is_empty() {
        let total: u64 = banks.iter().map(|(_, v)| v).sum();
        out.push_str(&format!(
            "\nBusiest L3 banks (port grants; {total} total over {} banks):\n",
            banks.len()
        ));
        for (idx, v) in banks.iter().take(4) {
            out.push_str(&format!(
                "  bank {idx}: {v} ({:.1}%)\n",
                *v as f64 * 100.0 / total.max(1) as f64
            ));
        }
    }
    let clusters = per_index(counters, "cluster", "messages_total");
    if !clusters.is_empty() {
        let total: u64 = clusters.iter().map(|(_, v)| v).sum();
        out.push_str(&format!(
            "Busiest clusters (L2 output messages; {total} total over {} clusters):\n",
            clusters.len()
        ));
        for (idx, v) in clusters.iter().take(4) {
            out.push_str(&format!(
                "  cluster {idx}: {v} ({:.1}%)\n",
                *v as f64 * 100.0 / total.max(1) as f64
            ));
        }
    }

    // 3. Figure 7 transition-case breakdown.
    let cases: Vec<_> = counters
        .iter()
        .filter(|(k, _)| k.starts_with("transition/case_"))
        .collect();
    if !cases.is_empty() {
        out.push_str("\nDomain-transition cases (Figure 7):\n");
        for (k, v) in &cases {
            out.push_str(&format!(
                "  {:<28} {}\n",
                k.strip_prefix("transition/").unwrap_or(k),
                v.as_u64().unwrap_or(0)
            ));
        }
    }

    // 4. Directory and region-table hit rates.
    let (dh, dm) = (
        counter(counters, "directory/lookup_hits"),
        counter(counters, "directory/lookup_misses"),
    );
    if dh + dm > 0 {
        out.push_str(&format!(
            "\nDirectory lookups: {} ({:.1}% hit)\n",
            dh + dm,
            dh as f64 * 100.0 / (dh + dm) as f64
        ));
    }
    let (fl, fc) = (
        counter(counters, "table/fine_lookups"),
        counter(counters, "table/fine_cache_hits"),
    );
    let coarse = counter(counters, "table/coarse_hits");
    if fl + coarse > 0 {
        out.push_str(&format!(
            "Region-table lookups: {coarse} coarse short-cuts, {fl} fine ({:.1}% table-cache hit)\n",
            fc as f64 * 100.0 / fl.max(1) as f64
        ));
    }

    // 5. Per-barrier-interval traffic: the barrier marks carry cumulative
    //    message totals; print the per-interval deltas.
    if let Some((_, bar)) = marks.iter().find(|(k, _)| k == "barrier/messages") {
        let points: Vec<(u64, u64)> = bar
            .as_arr()
            .unwrap_or_default()
            .iter()
            .filter_map(|p| {
                let pair = p.as_arr()?;
                Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
            })
            .collect();
        if !points.is_empty() {
            out.push_str(&format!(
                "\nPer-barrier-interval traffic ({} intervals):\n",
                points.len()
            ));
            let mut prev = 0u64;
            let shown = points.len().min(12);
            for (i, (cycle, cum)) in points.iter().take(shown).enumerate() {
                out.push_str(&format!(
                    "  interval {:>3} (to cycle {:>9}): {:>9} messages\n",
                    i,
                    cycle,
                    cum.saturating_sub(prev)
                ));
                prev = *cum;
            }
            if points.len() > shown {
                let last = points.last().expect("non-empty");
                out.push_str(&format!(
                    "  … {} more intervals, {} messages total by cycle {}\n",
                    points.len() - shown,
                    last.1,
                    last.0
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The escalation-mix table must print causes in the fixed taxonomy
    /// order (`EscalationCause::index`), not by count — so the table
    /// lines up across runs and with the observability docs.
    #[test]
    fn escalation_mix_prints_in_taxonomy_order() {
        let doc = r#"{
            "schema": "cohesion-timeline/v1", "binary": "t", "options": {},
            "runs": [{ "label": "k", "timeline": {
                "dropped_spans": 0, "epochs": 1, "fast": 0, "slices": 111,
                "escalation_rate": 1.0,
                "escalated": { "atomic": 50, "directory": 40, "l3-local": 1,
                               "l3-remote": 2, "noc": 3, "task-queue": 15 }
            } }]
        }"#;
        let v = jsonv::parse(doc).expect("parse");
        let out = render_timeline(Some(&v), None);
        let pos = |label: &str| out.find(label).unwrap_or_else(|| panic!("{label} missing"));
        assert!(pos("l3-local") < pos("l3-remote"));
        assert!(pos("l3-remote") < pos("directory"));
        assert!(pos("directory") < pos("noc"));
        assert!(pos("noc") < pos("atomic"));
        assert!(pos("atomic") < pos("task-queue"));
    }
}
