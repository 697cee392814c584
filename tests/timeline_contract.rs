//! The timeline flight recorder's determinism contract (PR 3 rules,
//! extended to tracing): arming the recorder must not perturb any
//! simulated result, and the deterministic half of a snapshot — the
//! epoch/slice/escalation aggregates that feed the
//! `cohesion-timeline/v1` summary — must be byte-identical at any shard
//! count. Wall-clock span timestamps live only in the Chrome trace
//! export and are explicitly outside this contract.

use cohesion::config::{DesignPoint, MachineConfig};
use cohesion::report::RunReport;
use cohesion::run::run_workload;
use cohesion_kernels::{kernel_by_name, Scale, KERNEL_NAMES};
use cohesion_runtime::layout::{Layout, LayoutConfig};
use cohesion_sim::timeline::{EscalationCause, LineEvent, Mark, Track};
use cohesion_sim::Cycle;

/// One tiny run; `watch` watches the first line of the incoherent heap.
fn run(kernel: &str, timeline: bool, shards: u32, watch: bool) -> RunReport {
    let mut cfg = MachineConfig::scaled(16, DesignPoint::cohesion(16 * 1024, 128));
    cfg.shards = shards;
    cfg.timeline = timeline;
    cfg.watch = watch.then(|| Layout::new(&LayoutConfig::new(16)).incoherent_heap.start.line());
    let mut wl = kernel_by_name(kernel, Scale::Tiny);
    run_workload(&cfg, wl.as_mut())
        .unwrap_or_else(|e| panic!("{kernel} timeline={timeline} shards={shards} watch={watch}: {e}"))
}

fn assert_simulated_identical(ctx: &str, a: &RunReport, b: &RunReport) {
    assert_eq!(a.cycles, b.cycles, "{ctx}: cycle counts diverged");
    assert_eq!(a.messages, b.messages, "{ctx}: message counters diverged");
    assert_eq!(a.phases, b.phases, "{ctx}: phases diverged");
    assert_eq!(a.tasks, b.tasks, "{ctx}: tasks diverged");
    assert_eq!(a.ops, b.ops, "{ctx}: ops diverged");
    assert_eq!(a.transitions, b.transitions, "{ctx}: transitions diverged");
    assert_eq!(a.dram, b.dram, "{ctx}: DRAM accesses diverged");
    assert_eq!(a.l2, b.l2, "{ctx}: L2 stats diverged");
    assert_eq!(a.l3, b.l3, "{ctx}: L3 stats diverged");
    assert_eq!(a.noc, b.noc, "{ctx}: NoC stats diverged");
    assert_eq!(a.races, b.races, "{ctx}: race counts diverged");
}

/// Arming the recorder is invisible to every simulated number, and
/// disarmed runs carry no snapshot at all — at shards 1 and 4.
#[test]
fn arming_the_timeline_never_perturbs_simulated_results() {
    for kernel in ["heat", "sobel", "cg"] {
        for shards in [1, 4] {
            let off = run(kernel, false, shards, false);
            let on = run(kernel, true, shards, false);
            assert!(
                off.timeline.is_none(),
                "{kernel}: disarmed run carries a timeline snapshot"
            );
            assert!(
                on.timeline.is_some(),
                "{kernel}: armed run is missing its timeline snapshot"
            );
            let ctx = format!("{kernel} shards={shards} armed vs disarmed");
            assert_simulated_identical(&ctx, &off, &on);
        }
    }
}

/// Watching a line records its protocol events from both phases and
/// moves nothing else: simulated results and the summary are those of
/// the unwatched run, and the events, in record order, are the same at
/// any shard count.
#[test]
fn watching_a_line_moves_nothing() {
    for kernel in ["heat", "cg", "kmeans"] {
        let mut recorded: Vec<Vec<(Track, Cycle, LineEvent)>> = Vec::new();
        for shards in [1, 4] {
            let plain = run(kernel, true, shards, false);
            let watched = run(kernel, true, shards, true);
            let ctx = format!("{kernel} shards={shards} watched vs unwatched");
            assert_simulated_identical(&ctx, &plain, &watched);
            let (plain, watched) = (plain.timeline.unwrap(), watched.timeline.unwrap());
            assert_eq!(plain.summary_json(), watched.summary_json(), "{ctx}: summary moved");
            let events: Vec<_> = watched
                .spans
                .iter()
                .filter_map(|s| match s.mark {
                    Mark::Line(_, event) => Some((s.track, s.cycle, event)),
                    _ => None,
                })
                .collect();
            assert!(!events.is_empty(), "{ctx}: no line events");
            assert!(
                events.iter().any(|(track, ..)| matches!(track, Track::Lane(_))),
                "{ctx}: no line event from phase A"
            );
            recorded.push(events);
        }
        assert_eq!(recorded[0], recorded[1], "{kernel}: line events differ at shards 1 and 4");
    }
}

/// The summary JSON — dropped-span accounting included — is a function
/// of the workload alone, never of the shard count the host used.
#[test]
fn timeline_summary_is_shard_invariant() {
    for kernel in ["heat", "kmeans", "mri"] {
        let base = run(kernel, true, 1, false);
        let base_json = base.timeline.as_ref().unwrap().summary_json();
        for shards in [2, 4] {
            let sharded = run(kernel, true, shards, false);
            let json = sharded.timeline.as_ref().unwrap().summary_json();
            assert_eq!(
                base_json, json,
                "{kernel}: summary diverged at shards=1 vs {shards}"
            );
        }
    }
}

/// Every kernel under the Cohesion design point escalates at least once
/// somewhere, so cause attribution is never an all-zero map; and the
/// slice ledger balances: fast + escalated == slices.
#[test]
fn escalation_causes_are_attributed_for_every_kernel() {
    for kernel in KERNEL_NAMES {
        let report = run(kernel, true, 1, false);
        let snap = report.timeline.as_ref().unwrap();
        assert_eq!(
            snap.slices(),
            snap.fast_slices + snap.escalated_total(),
            "{kernel}: slice ledger does not balance"
        );
        assert!(snap.epochs > 0, "{kernel}: no epochs recorded");
        assert!(
            snap.escalated_total() > 0,
            "{kernel}: no escalations attributed under Cohesion"
        );
    }
}

/// `docs/observability.md` keeps up with the recorder: every escalation
/// cause in the taxonomy table and every span kind in the catalog, by
/// the exact labels the code emits.
#[test]
fn observability_doc_covers_the_span_and_cause_vocabulary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/observability.md");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    for cause in EscalationCause::ALL {
        assert!(
            text.lines().any(|l| {
                l.starts_with("| ") && l.contains(&format!("`{}`", cause.label()))
            }),
            "taxonomy table is missing cause {:?}",
            cause.label()
        );
    }
    for span in [
        "phase_a",
        "phase_b",
        "escalate",
        "l3_service",
        "dram_service",
        "crew_run",
        "crew_park",
        "load",
        "store",
        "fetch",
        "probe",
        "evict",
        "transition",
        "atomic",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(&format!("| `{span}`"))),
            "span catalog is missing {span:?}"
        );
    }
    assert!(
        text.contains("cohesion-timeline/v1"),
        "doc must name the summary schema"
    );
}

/// The span ring drops oldest-first and accounts for every drop: a
/// deliberately long run still reports epochs/slices exactly, with any
/// overflow visible in `dropped` rather than silently truncated.
#[test]
fn dropped_spans_are_counted_not_silent() {
    let report = run("heat", true, 1, false);
    let snap = report.timeline.as_ref().unwrap();
    // The summary's drop counter comes from the deterministic main ring
    // only; crew spans are accounted separately so host thread counts
    // cannot leak in.
    let summary = snap.summary_json();
    assert!(
        summary.contains(&format!("\"dropped_spans\": {}", snap.dropped)),
        "summary does not carry the ring's drop counter: {summary}"
    );
}

/// `(kernel, slices, fast_slices, escalated_total, l3_fast, epochs)` for
/// every kernel at tiny scale on 16 cores under Cohesion, shards 1. These
/// pin the phase A/B split itself: golden cycle counts notice a change
/// in what the lane guard accepts only when it shifts timing, this table
/// notices every one. The per-cause split is deliberately not pinned.
const PHASE_SPLIT: [(&str, u64, u64, u64, u64, u64); 8] = [
    ("cg", 377, 177, 200, 35, 155),
    ("dmm", 300, 153, 147, 0, 81),
    ("gjk", 687, 384, 303, 17, 60),
    ("heat", 284, 152, 132, 0, 72),
    ("kmeans", 591, 351, 240, 20, 79),
    ("mri", 846, 706, 140, 0, 109),
    ("sobel", 160, 88, 72, 0, 43),
    ("stencil", 646, 377, 269, 32, 89),
];

#[test]
fn phase_split_is_pinned_for_every_kernel() {
    for (kernel, slices, fast, escalated, l3_fast, epochs) in PHASE_SPLIT {
        let report = run(kernel, true, 1, false);
        let snap = report.timeline.as_ref().unwrap();
        assert_eq!(
            (snap.slices(), snap.fast_slices, snap.escalated_total(), snap.l3_fast, snap.epochs),
            (slices, fast, escalated, l3_fast, epochs),
            "{kernel}: the phase A/B split moved"
        );
    }
}
