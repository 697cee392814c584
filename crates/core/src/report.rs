//! The per-run report the benchmark harness consumes.

use cohesion_sim::metrics::Snapshot;
use cohesion_sim::stats::{CoherenceInstrStats, MessageCounts};
use cohesion_sim::timeline::TimelineSnapshot;
use cohesion_sim::Cycle;

use crate::config::{DesignPoint, MachineConfig};
use crate::machine::Machine;

/// Everything a figure needs from one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Benchmark name.
    pub kernel: String,
    /// The design point evaluated.
    pub design: DesignPoint,
    /// Cores simulated.
    pub cores: u32,
    /// Total execution time in cycles.
    pub cycles: Cycle,
    /// Bulk-synchronous phases executed.
    pub phases: u32,
    /// Tasks executed.
    pub tasks: u64,
    /// Trace operations executed.
    pub ops: u64,
    /// L2→L3 messages by class, summed over clusters (Figures 2/8).
    pub messages: MessageCounts,
    /// SWcc coherence-instruction usefulness (Figure 3).
    pub instr_stats: CoherenceInstrStats,
    /// Time-average directory entries allocated, summed over banks
    /// (Figure 9c).
    pub dir_avg_entries: f64,
    /// Maximum directory entries allocated (Figure 9c "Maximum Allocated").
    pub dir_max_entries: u64,
    /// Time-average entries by class: `[code, heap/global, stack]`.
    pub dir_avg_by_class: [f64; 3],
    /// Directory insertions over the run.
    pub dir_insertions: u64,
    /// Directory capacity/conflict evictions (the Figure 9a thrash signal).
    pub dir_evictions: u64,
    /// Case-5b races observed.
    pub races: u64,
    /// `(to SWcc, to HWcc)` domain transitions performed.
    pub transitions: (u64, u64),
    /// `(accesses, row hits)` at DRAM.
    pub dram: (u64, u64),
    /// `(hits, misses, evictions)` summed over L2s.
    pub l2: (u64, u64, u64),
    /// `(hits, misses, evictions)` summed over L3 banks.
    pub l3: (u64, u64, u64),
    /// `(request-direction, reply-direction)` NoC messages. The request
    /// count equals [`RunReport::total_messages`] by construction — a
    /// conservation invariant the test suite checks.
    pub noc: (u64, u64),
    /// Full telemetry snapshot when the run was executed with
    /// [`MachineConfig::metrics`] armed; `None` on ordinary runs.
    pub metrics: Option<Snapshot>,
    /// Timeline flight-recorder snapshot when the run was executed with
    /// [`MachineConfig::timeline`] armed; `None` on ordinary runs.
    pub timeline: Option<TimelineSnapshot>,
}

impl RunReport {
    /// Gathers the report from a finished machine.
    pub fn collect(
        kernel: &str,
        cfg: &MachineConfig,
        machine: &Machine,
        cycles: Cycle,
        phases: u32,
        tasks: u64,
        ops: u64,
    ) -> Self {
        let (dir_avg_entries, dir_max_entries, dir_avg_by_class) =
            machine.directory_occupancy(cycles);
        let (dir_insertions, dir_evictions) = machine.directory_churn();
        RunReport {
            kernel: kernel.to_string(),
            design: cfg.design,
            cores: cfg.cores,
            cycles,
            phases,
            tasks,
            ops,
            messages: machine.total_messages(),
            instr_stats: machine.coherence_instr_stats(),
            dir_avg_entries,
            dir_max_entries,
            dir_avg_by_class,
            dir_insertions,
            dir_evictions,
            races: machine.races().len() as u64,
            transitions: machine.transition_counts(),
            dram: machine.dram_stats(),
            l2: machine.l2_stats(),
            l3: machine.l3_stats(),
            noc: machine.noc_stats(),
            metrics: machine.metrics_snapshot(cycles),
            timeline: machine.timeline_snapshot(),
        }
    }

    /// Total L2→L3 messages.
    pub fn total_messages(&self) -> u64 {
        self.messages.total()
    }

    /// Runtime normalized to a baseline run (the Figure 9/10 y-axis).
    pub fn runtime_relative_to(&self, baseline: &RunReport) -> f64 {
        if baseline.cycles == 0 {
            return 0.0;
        }
        self.cycles as f64 / baseline.cycles as f64
    }
}
