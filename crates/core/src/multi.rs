//! Multiprogrammed execution: several applications sharing one machine,
//! each with its own address-space slice and per-process region tables —
//! the virtualization §3.5 sketches ("the architecture we propose could be
//! virtualized to support multiple applications and address spaces
//! concurrently by using per-process region tables").
//!
//! Clusters are space-partitioned round-robin across the jobs (the paper's
//! machine has no preemption story, so space sharing is the natural
//! multiprogramming model for a 1024-core accelerator). Every job runs its
//! own bulk-synchronous phase stream on its own cores at its own pace; the
//! L3, directories, NoC, and DRAM are shared, so jobs contend exactly where
//! the real machine would.
//!
//! The jobs run on the one execution engine of [`crate::run`], as its
//! programs: the same timing model, [`MachineConfig::shards`] and
//! [`crate::config::TaskQueueModel`]s as a single-program run, with each
//! job's queues and work stealing confined to its own clusters.

use cohesion_sim::ids::ClusterId;
use cohesion_sim::stats::{CoherenceInstrStats, MessageCounts};
use cohesion_sim::Cycle;

use crate::config::MachineConfig;
use crate::run::{run_programs, RunError, Workload};

/// Per-job results of a multiprogrammed run.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The workload's name.
    pub kernel: String,
    /// Cycle of this job's last barrier release (a single-program run's
    /// [`crate::RunReport::cycles`]).
    pub finished_at: Cycle,
    /// Bulk-synchronous phases executed.
    pub phases: u32,
    /// Tasks executed.
    pub tasks: u64,
    /// L2→L3 messages from this job's clusters, by class.
    pub messages: MessageCounts,
    /// SWcc coherence-instruction counters from this job's clusters.
    pub instr_stats: CoherenceInstrStats,
}

/// Runs several workloads concurrently, space-partitioned over the
/// machine's clusters: job `j` of `N` runs on the clusters `c ≡ j (mod N)`.
/// Returns one report per job, in input order.
///
/// # Errors
///
/// Returns the first setup failure, coherence failure, or verification
/// mismatch (identifying no specific job; run singly to isolate).
///
/// # Panics
///
/// Panics if `workloads` is empty or there are fewer clusters than jobs.
pub fn run_workloads(
    cfg: &MachineConfig,
    workloads: Vec<&mut dyn Workload>,
) -> Result<Vec<JobReport>, RunError> {
    let n = workloads.len();
    let (machine, programs) = run_programs(cfg, workloads)?;
    Ok(programs
        .iter()
        .zip(0..)
        .map(|(p, j)| {
            let mut messages = MessageCounts::new();
            let mut instr_stats = CoherenceInstrStats::new();
            for c in (j..cfg.clusters()).step_by(n) {
                messages.merge(machine.messages_of(ClusterId(c)));
                instr_stats.merge(machine.instr_stats_of(ClusterId(c)));
            }
            JobReport {
                kernel: p.workload.name().to_string(),
                finished_at: p.now,
                phases: p.phases,
                tasks: p.tasks_total,
                messages,
                instr_stats,
            }
        })
        .collect())
}
