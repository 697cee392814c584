//! Workload execution: the barrier-synchronized task-queue model of §4.1
//! driven over the machine, phase by phase, by one sharded engine. It runs
//! one program ([`run_workload`]) or several sharing the machine
//! ([`crate::multi::run_workloads`]): program `p` of `N` runs on the
//! clusters `c ≡ p (mod N)` in address-space slice `p`, with its own task
//! queue, barrier, and phase stream.
//!
//! Every window splits the machine into one lane per cluster tile
//! ([`Machine::lanes`]) and runs phase A on the lanes through one
//! [`Crew`], whose `shards - 1` workers join the calling thread (at one
//! shard the caller runs every lane). The lanes' timelines are then
//! absorbed into the machine's in lane order, and phase B replays the
//! escalated slices on the whole machine. The lanes' metrics are folded
//! in once, at the end of the run.

use cohesion_mem::addr::Addr;
use cohesion_mem::mainmem::MainMemory;
use cohesion_runtime::api::{CohesionApi, RuntimeError};
use cohesion_runtime::layout::{Layout, LayoutConfig};
use cohesion_runtime::task::{AtomicKind, Op, Phase, RegionOp, Task};
use cohesion_sim::crew::Crew;
use cohesion_sim::event::EventQueue;
use cohesion_sim::ids::{ClusterId, CoreId};
use cohesion_sim::timeline::{CrewSpanLog, EscalationCause, CREW_RING_CAPACITY};
use cohesion_sim::Cycle;
use std::sync::Arc;

use crate::access::{self, Access, Stop};
use crate::config::MachineConfig;
use crate::machine::{LaneCtx, Machine, MachineError};
use crate::report::RunReport;

/// A workload: allocates its data through the Cohesion API, produces
/// bulk-synchronous phases of task traces, and can verify the machine's
/// final memory image against its golden (functionally-computed) result.
///
/// # Example
///
/// A minimal workload that doubles an array in place:
///
/// ```
/// use cohesion::config::{DesignPoint, MachineConfig};
/// use cohesion::run::{run_workload, Workload};
/// use cohesion_mem::addr::Addr;
/// use cohesion_mem::mainmem::MainMemory;
/// use cohesion_runtime::api::{CohesionApi, RuntimeError};
/// use cohesion_runtime::task::{Phase, TaskBuilder};
///
/// struct Doubler { data: Addr, done: bool }
///
/// impl Workload for Doubler {
///     fn name(&self) -> &'static str { "doubler" }
///
///     fn setup(&mut self, api: &mut CohesionApi, golden: &mut MainMemory)
///         -> Result<(), RuntimeError>
///     {
///         self.data = api.coh_malloc(64)?; // 16 words, born SWcc
///         for i in 0..16 {
///             golden.write_word(Addr(self.data.0 + 4 * i), i + 1);
///         }
///         Ok(())
///     }
///
///     fn next_phase(&mut self, api: &mut CohesionApi, golden: &mut MainMemory)
///         -> Option<Phase>
///     {
///         if std::mem::replace(&mut self.done, true) { return None; }
///         let mut p = Phase::new("double");
///         let mut b = TaskBuilder::new(2);
///         for i in 0..16 {
///             let a = Addr(self.data.0 + 4 * i);
///             let v = golden.read_word(a);
///             golden.write_word(a, v * 2);
///             b.load(a, v).store(a, v * 2);
///         }
///         // SWcc epilogue: flush what we wrote.
///         b.flush_written(|_| true);
///         p.tasks.push(b.build());
///         Some(p)
///     }
///
///     fn verify(&self, mem: &MainMemory) -> Result<(), String> {
///         for i in 0..16 {
///             let got = mem.read_word(Addr(self.data.0 + 4 * i));
///             if got != (i + 1) * 2 {
///                 return Err(format!("word {i} is {got}"));
///             }
///         }
///         Ok(())
///     }
/// }
///
/// let cfg = MachineConfig::scaled(16, DesignPoint::cohesion(1024, 128));
/// let mut wl = Doubler { data: Addr(0), done: false };
/// let report = run_workload(&cfg, &mut wl).expect("verifies");
/// assert!(report.cycles > 0);
/// ```
pub trait Workload {
    /// Benchmark name (`cg`, `dmm`, ...).
    fn name(&self) -> &'static str;

    /// Allocates and initializes input data. Writes initial values into
    /// `golden`; the machine's memory starts as a copy of it.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    fn setup(&mut self, api: &mut CohesionApi, golden: &mut MainMemory)
        -> Result<(), RuntimeError>;

    /// Produces the next phase (tasks + any domain transitions), advancing
    /// the golden computation. Returns `None` when the program is done.
    fn next_phase(&mut self, api: &mut CohesionApi, golden: &mut MainMemory) -> Option<Phase>;

    /// Verifies the machine's final (drained) memory against the golden
    /// result.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first mismatch.
    fn verify(&self, mem: &MainMemory) -> Result<(), String>;

    /// Address ranges (`(start, bytes)`) that are immutable for the
    /// program's lifetime — the Figure 6 `SWIM` class, exempt from the
    /// invalidate-before-read rule of the task-centric contract. Used by
    /// the trace checker; defaults to none.
    fn immutable_ranges(&self) -> Vec<(Addr, u32)> {
        Vec::new()
    }

    /// Address regions whose coherence behaviour should be profiled
    /// (§4.2's remapping feedback). When non-empty, the executor calls
    /// [`Workload::observe`] with per-region counter deltas after every
    /// phase. Defaults to none (no profiling overhead).
    fn profile_regions(&self) -> Vec<(Addr, u32)> {
        Vec::new()
    }

    /// Receives the per-phase profile deltas for the regions returned by
    /// [`Workload::profile_regions`]. An adaptive runtime reacts by
    /// requesting domain changes through the API in its next
    /// [`Workload::next_phase`]. Default: ignore.
    fn observe(&mut self, feedback: &[crate::profile::RegionFeedback]) {
        let _ = feedback;
    }
}

/// Errors from running a workload.
#[derive(Debug)]
pub enum RunError {
    /// Setup/allocation failure.
    Runtime(RuntimeError),
    /// A coherence failure surfaced during execution.
    Machine {
        /// What failed.
        error: MachineError,
        /// The core operation it surfaced in; `None` for the runtime's
        /// region transitions.
        site: Option<OpSite>,
    },
    /// Final verification failed.
    Verify(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Runtime(e) => write!(f, "runtime error: {e}"),
            RunError::Machine { error, site: None } => write!(f, "machine error: {error}"),
            RunError::Machine { error, site: Some(site) } => write!(f, "machine error: {error} ({site})"),
            RunError::Verify(e) => write!(f, "verification failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<RuntimeError> for RunError {
    fn from(e: RuntimeError) -> Self {
        RunError::Runtime(e)
    }
}

impl From<MachineError> for RunError {
    fn from(error: MachineError) -> Self {
        RunError::Machine { error, site: None }
    }
}

/// Where a core's failed operation was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSite {
    /// The issuing core.
    pub core: CoreId,
    /// `(task, op)` indices into the phase, or `None` while the core was
    /// dequeuing a task or arriving at the barrier.
    pub op: Option<(usize, usize)>,
    /// The operation's issue cycle.
    pub cycle: Cycle,
}

impl std::fmt::Display for OpSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.op {
            Some((task, op)) => write!(f, "{} task {task} op {op}", self.core)?,
            None => write!(f, "{} dequeue", self.core)?,
        }
        write!(f, " at cycle {}", self.cycle)
    }
}

/// Maximum cycles one core advances per scheduling slice; bounds the
/// timing skew between cores' inline transactions. It is also the epoch
/// length of the sharded executor: every event re-scheduled by a core
/// slice lands at least `QUANTUM` cycles after the slice began, so each
/// lane can pop its own queue up to a window's horizon (earliest pending
/// wake-up + `QUANTUM`) without popping any of the work the window
/// spawns — the conservative-PDES lookahead.
const QUANTUM: Cycle = 64;

/// Ops per instruction-fetch line: 32-byte lines hold 8 RISC instructions.
const OPS_PER_FETCH: u32 = 8;

/// One core's execution cursor.
struct CoreState {
    cluster: ClusterId,
    stack_base: Addr,
    code_base: Addr,
    /// Index into the phase's task vector + op cursor.
    task: Option<(usize, usize)>,
    /// Ops remaining before the next instruction fetch; `0` = fetch now.
    /// A countdown (rather than a wrap-around counter) so a slice that
    /// escalates mid-quantum resumes with the fetch stream intact.
    fetch_counter: u32,
    pc_line: u32,
}

impl CoreState {
    /// An idle core `i` running code and stacks laid out by `layout`.
    fn new(i: u32, cores_per_cluster: u32, layout: &Layout) -> Self {
        CoreState {
            cluster: CoreId(i).cluster(cores_per_cluster),
            stack_base: layout.stack_base(i),
            code_base: layout.code.start,
            task: None,
            fetch_counter: 0,
            pc_line: 0,
        }
    }

    /// The run error for `error`, raised at `cycle` by this core's
    /// current operation (its dequeue, when it has no task).
    fn failed(&self, core: CoreId, cycle: Cycle, error: MachineError) -> RunError {
        let site = OpSite { core, op: self.task, cycle };
        RunError::Machine { error, site: Some(site) }
    }
}

/// Runs `workload` on a machine built from `cfg`; returns the full report.
///
/// # Errors
///
/// Returns [`RunError`] on allocation failure, detected coherence failure
/// (stale verified load, fatal race), or final verification mismatch.
pub fn run_workload(cfg: &MachineConfig, workload: &mut dyn Workload) -> Result<RunReport, RunError> {
    let (machine, programs) = run_programs(cfg, vec![workload])?;
    let p = &programs[0];
    Ok(RunReport::collect(
        p.workload.name(),
        cfg,
        &machine,
        p.now,
        p.phases,
        p.tasks_total,
        p.ops_total,
    ))
}

/// One program on the machine: its workload, runtime, golden memory, and
/// run totals. Its task queue and barrier live in the engine
/// ([`TaskQueue`]).
pub(crate) struct Program<'w> {
    pub(crate) workload: &'w mut dyn Workload,
    api: CohesionApi,
    golden: MainMemory,
    /// The last barrier release: where the next phase starts, and the
    /// program's run time once it is done.
    pub(crate) now: Cycle,
    pub(crate) phases: u32,
    pub(crate) tasks_total: u64,
    ops_total: u64,
    done: bool,
    /// Where the program's regions start in the machine profiler's list.
    profile_start: usize,
    /// Its regions' profile totals at the last barrier.
    last_profile: Vec<crate::profile::RegionFeedback>,
}

impl Program<'_> {
    /// Starts the program's next phase at its last barrier release, or
    /// marks it done.
    fn next_phase(
        &mut self,
        exec: &mut Exec,
        machine: &mut Machine,
        pid: usize,
    ) -> Result<(), RunError> {
        let Some(phase) = self.workload.next_phase(&mut self.api, &mut self.golden) else {
            self.done = true;
            return Ok(());
        };
        let mut region_ops = self.api.take_region_ops();
        region_ops.extend(phase.region_ops.iter().copied());
        self.tasks_total += phase.tasks.len() as u64;
        self.ops_total += phase.total_ops() as u64;
        exec.start_phase(machine, pid, &region_ops, phase.tasks, self.now)
    }

    /// Hands the workload its regions' profile deltas since the last
    /// barrier (§4.2's remapping feedback).
    fn observe(&mut self, machine: &Machine) {
        if self.last_profile.is_empty() {
            return;
        }
        let own = self.profile_start..self.profile_start + self.last_profile.len();
        let now: Vec<crate::profile::RegionFeedback> =
            machine.profile_snapshot().drain(own).collect();
        let deltas: Vec<crate::profile::RegionFeedback> = now
            .iter()
            .zip(&self.last_profile)
            .map(|(n, o)| crate::profile::RegionFeedback {
                start: n.start,
                bytes: n.bytes,
                counters: n.counters.delta_from(&o.counters),
            })
            .collect();
        self.workload.observe(&deltas);
        self.last_profile = now;
    }
}

/// Runs `workloads` as programs sharing one machine, built from `cfg`,
/// and verifies each; returns the drained machine and the programs.
/// Program `p` of `N` runs in address-space slice `p` (§3.5's
/// per-process region tables) on the clusters `c ≡ p (mod N)`. After
/// every window, each program whose cores have all arrived at its
/// barrier is released into its next phase, in program order.
///
/// # Panics
///
/// Panics if `workloads` is empty or there are fewer clusters than
/// programs.
pub(crate) fn run_programs<'w>(
    cfg: &MachineConfig,
    workloads: Vec<&'w mut dyn Workload>,
) -> Result<(Machine, Vec<Program<'w>>), RunError> {
    let n = workloads.len();
    assert!(n > 0, "need at least one workload");
    let clusters = cfg.clusters().max(1);
    assert!(clusters as usize >= n, "need at least one cluster per job");
    let mut programs = Vec::with_capacity(n);
    let mut queues = Vec::with_capacity(n);
    for (pid, workload) in workloads.into_iter().enumerate() {
        let layout = LayoutConfig::for_process(pid as u32, cfg.cores);
        let mut api = CohesionApi::with_layout(&layout, cfg.design.mode);
        let mut golden = MainMemory::new();
        workload.setup(&mut api, &mut golden)?;
        // Runtime control words live on the coherent heap (one line per
        // cluster queue, so per-cluster dequeues never false-share).
        let own_clusters = (clusters - pid as u32).div_ceil(n as u32);
        let queue_addr = api.malloc(64 * own_clusters)?;
        let barrier_addr = api.malloc(64)?;
        let cluster_queues = vec![(0, 0); own_clusters as usize];
        queues.push(TaskQueue {
            queue_addr,
            barrier_addr,
            cluster_queues,
            ..TaskQueue::default()
        });
        programs.push(Program {
            workload,
            api,
            golden,
            now: 0,
            phases: 0,
            tasks_total: 0,
            ops_total: 0,
            done: false,
            profile_start: 0,
            last_profile: Vec::new(),
        });
    }

    let mut machine = Machine::new_multi(*cfg, programs.iter().map(|p| *p.api.layout()).collect());
    // Slices are disjoint, so the programs' pages never collide.
    machine.mem = programs[0].golden.clone();
    for p in &programs[1..] {
        machine.mem.merge_from(&p.golden);
    }
    machine.boot();
    let mut regions = Vec::new();
    for p in &mut programs {
        p.profile_start = regions.len();
        regions.extend(p.workload.profile_regions());
    }
    machine.enable_profiling(regions);
    let mut snapshot = machine.profile_snapshot();
    for p in programs.iter_mut().rev() {
        p.last_profile = snapshot.split_off(p.profile_start);
    }

    let mut exec = Exec::new(cfg, &machine, queues);
    for (pid, p) in programs.iter_mut().enumerate() {
        p.next_phase(&mut exec, &mut machine, pid)?;
    }
    while programs.iter().any(|p| !p.done) {
        exec.run_window(&mut machine)?;
        for (pid, p) in programs.iter_mut().enumerate().filter(|(_, p)| !p.done) {
            let Some(end) = exec.finished_phase(pid) else {
                continue;
            };
            // Barrier release broadcast.
            p.now = end + cfg.barrier_release_latency;
            machine.note_barrier(p.now);
            if cfg.check_invariants {
                machine.check_invariants();
            }
            p.observe(&machine);
            p.phases += 1;
            p.next_phase(&mut exec, &mut machine, pid)?;
        }
    }

    exec.finish(&mut machine);
    machine.drain_for_verification();
    for p in &programs {
        p.workload.verify(&machine.mem).map_err(RunError::Verify)?;
    }
    Ok((machine, programs))
}

/// One lane's bundle of work for a window: its slice of the machine, its
/// event queue, and its cores.
struct LaneWork<'a> {
    ctx: LaneCtx<'a>,
    queue: &'a mut EventQueue<u32>,
    cores: &'a mut [CoreState],
    core_base: u32,
    /// Slices that stopped in phase A and need the serial path.
    out: &'a mut Vec<Halted>,
    /// Max completion cycle over slices that finished their budget.
    max_end: Cycle,
}

/// A slice phase A stopped: `core` resumes on the machine at `t` with
/// the rest of its `budget`, or the run fails.
struct Halted {
    /// The window's canonical order key of the slice's event:
    /// `(cycle, lane, seq)`.
    key: (Cycle, u32, u32),
    core: u32,
    t: Cycle,
    budget: Cycle,
    stop: Stop,
}

/// Runs one lane's events before `horizon` for the window, in its
/// queue's `(cycle, seq)` pop order, on the tasks of the lane's program.
/// An event's `seq` is its index in that order. Stops at the lane's first
/// failure: a serial engine would never have executed this lane's later
/// slices past an aborting error, and phase B surfaces the
/// canonically-first error of the whole window.
fn process_lane(w: &mut LaneWork<'_>, queues: &[TaskQueue], horizon: Cycle) {
    let Some(window_cycle) = w.queue.peek_cycle().filter(|&c| c < horizon) else {
        return;
    };
    let lane = w.ctx.cluster().0;
    let tasks = &queues[lane as usize % queues.len()].tasks;
    let span_start = w.ctx.timeline().start();
    let mut seq = 0;
    while w.queue.peek_cycle().is_some_and(|c| c < horizon) {
        let (t0, core) = w.queue.pop().expect("peeked");
        let budget = t0 + QUANTUM;
        let mut t = t0;
        let cs = &mut w.cores[(core - w.core_base) as usize];
        match lane_slice(&mut w.ctx, cs, CoreId(core), &mut t, budget, tasks) {
            Ok(()) => {
                // The slice ran out its budget, so it wakes at or after
                // the horizon: this window never pops it.
                debug_assert!(t >= horizon, "re-scheduled at {t}, before the horizon {horizon}");
                w.queue.schedule(t, core);
                w.ctx.timeline().note_fast();
                w.max_end = w.max_end.max(t);
            }
            Err(stop) => {
                let failed = matches!(stop, Stop::Fail(_));
                if let Stop::Escalate { cause } = stop {
                    w.ctx.timeline().note_escalation(t, cause);
                }
                w.out.push(Halted {
                    key: (t0, lane, seq),
                    core,
                    t,
                    budget,
                    stop,
                });
                if failed {
                    break;
                }
            }
        }
        seq += 1;
    }
    w.ctx
        .timeline()
        .service("phase_a", span_start, window_cycle);
}

/// One phase-A slice: [`run_ops`] on a lane view. A core that needs a
/// task escalates, since dequeue and barrier traffic is uncached-atomic.
fn lane_slice(
    ctx: &mut LaneCtx<'_>,
    cs: &mut CoreState,
    core: CoreId,
    t: &mut Cycle,
    budget: Cycle,
    tasks: &[Task],
) -> Result<(), Stop> {
    run_ops(ctx, cs, core, t, budget, tasks)?;
    match cs.task {
        Some(_) => Ok(()),
        None => Err(EscalationCause::TaskQueue.into()),
    }
}

/// Runs `core`'s current task on `s` from `*t` — the one op loop of both
/// phases: phase A runs it on a lane view, phase B and the serial
/// engine on the machine.
///
/// Returns `Ok` when the budget expires (the task cursor is saved) or the
/// task ends (`task` is left empty: the caller dequeues the next one),
/// and the [`Stop`] of an operation that escalated or failed, with the
/// cursor still on that operation and `*t` at its issue cycle.
fn run_ops<S: Access>(
    s: &mut S,
    cs: &mut CoreState,
    core: CoreId,
    t: &mut Cycle,
    budget: Cycle,
    tasks: &[Task],
) -> Result<(), Stop> {
    while let Some((task_idx, op_idx)) = cs.task {
        let task = &tasks[task_idx];
        let Some(&op) = task.ops.get(op_idx) else {
            cs.task = None;
            break;
        };
        if *t >= budget {
            break;
        }
        // Instruction fetch stream: one line per OPS_PER_FETCH ops.
        if cs.fetch_counter == 0 {
            let pc = Addr(cs.code_base.0 + 32 * (cs.pc_line % task.code_lines));
            *t = access::ifetch(s, core, pc, *t)?;
            cs.pc_line = cs.pc_line.wrapping_add(1);
            cs.fetch_counter = OPS_PER_FETCH;
        }
        let stack = |offset| cs.stack_base.offset(offset);
        *t = match op {
            Op::Load { addr, expect } => {
                let (t2, got) = access::load(s, core, addr, *t)?;
                match expect {
                    Some(expected) if got != expected => {
                        return Err(Stop::Fail(MachineError::StaleLoad { addr, got, expected }));
                    }
                    _ => t2,
                }
            }
            Op::Store { addr, value } => access::store(s, core, addr, value, *t)?,
            Op::Compute { cycles } => *t + cycles as Cycle,
            Op::Atomic {
                addr,
                kind,
                operand,
            } => s.uncached_atomic(cs.cluster, addr, kind, operand, *t)?,
            Op::StackLoad { offset } => access::load(s, core, stack(offset), *t)?.0,
            Op::StackStore { offset, value } => access::store(s, core, stack(offset), value, *t)?,
            Op::Flush { line } => access::flush(s, core, line, *t)?,
            Op::Invalidate { line } => access::invalidate(s, core, line, *t)?,
        };
        cs.task = Some((task_idx, op_idx + 1));
        cs.fetch_counter -= 1;
    }
    Ok(())
}

/// One program's task queue and barrier: its control words and the
/// running phase's tasks, dequeue cursors, and arrivals.
#[derive(Default)]
struct TaskQueue {
    queue_addr: Addr,
    barrier_addr: Addr,
    tasks: Vec<Task>,
    /// The global queue's cursor (TaskQueueModel::Global).
    next_task: usize,
    /// Per own cluster, `[lo, hi)` cursors over a static block partition
    /// (PerClusterStealing only).
    cluster_queues: Vec<(usize, usize)>,
    cores: u32,
    arrived: u32,
    /// The phase's latest slice end.
    end: Cycle,
}

/// The per-run execution engine (cores + each program's queue and
/// barrier), sharded.
///
/// Simulated time advances in windows of [`QUANTUM`] cycles, from the
/// earliest pending wake-up to the window's horizon. Each lane has its own
/// event queue, holding one wake-up per waiting core. Each window runs in
/// two phases:
///
/// * **Phase A (parallel):** every cluster lane pops its own queue up to
///   the horizon and steps those cores ([`run_ops`] over a [`LaneCtx`]),
///   in the lane's pop order. An operation whose guard refuses (it needs
///   another lane's bank, DRAM, probes, an uncached atomic, a task queue)
///   escalates untouched.
/// * **Phase B (serial):** escalated slices resume on the full machine
///   in the window's canonical `(cycle, lane, seq)` order ([`run_ops`]
///   over the [`Machine`]).
///
/// Lane `c` belongs to program `c mod N`, so programs never share a lane.
/// The window composition, the A/B split, and both processing orders are
/// functions of simulated state alone — never of the host thread count —
/// so simulated results are byte-identical at any [`MachineConfig::shards`]
/// value. `shards` only chooses how many host threads run phase A.
struct Exec {
    cores: Vec<CoreState>,
    /// Indexed by program.
    queues: Vec<TaskQueue>,
    /// Per lane: its cores' pending wake-ups, `(cycle, core)`.
    lanes: Vec<EventQueue<u32>>,
    /// Phase A's threads: the caller plus `shards - 1` workers (none at
    /// one shard, when every lane runs on the caller).
    crew: Crew,
    /// Crew park/run span log, drained into the machine timeline by
    /// `finish`; `None` unless the timeline is armed and the crew has
    /// workers.
    crew_trace: Option<Arc<CrewSpanLog>>,
    cores_per_cluster: usize,
    // Window buffers, reused from window to window.
    /// Per lane: the slices phase A stopped.
    halted: Vec<Vec<Halted>>,
    /// Phase B's slices, in canonical order.
    serial: Vec<Halted>,
}

impl Exec {
    /// The engine for one program per queue.
    fn new(cfg: &MachineConfig, machine: &Machine, mut queues: Vec<TaskQueue>) -> Self {
        let n = queues.len();
        let cores: Vec<CoreState> = (0..cfg.cores)
            .map(|i| {
                let pid = CoreId(i).cluster(cfg.cores_per_cluster).0 as usize % n;
                queues[pid].cores += 1;
                CoreState::new(i, cfg.cores_per_cluster, machine.layout_of(pid))
            })
            .collect();
        let n_lanes = cfg.clusters().max(1) as usize;
        // `shards = 0` means auto: size the crew from the host's available
        // parallelism. Host introspection picks only the THREAD COUNT —
        // never anything the simulation observes — so results stay
        // byte-identical whatever count `resolve_shards` lands on.
        let host = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let threads = cfg.resolve_shards(host);
        let crew_trace = (threads > 1 && machine.timeline().is_armed()).then(|| {
            Arc::new(CrewSpanLog::new(
                threads - 1,
                machine.timeline(),
                CREW_RING_CAPACITY,
            ))
        });
        Exec {
            cores,
            queues,
            lanes: std::iter::repeat_with(EventQueue::new).take(n_lanes).collect(),
            crew: match &crew_trace {
                Some(tr) => Crew::traced(threads - 1, Arc::clone(tr)),
                None => Crew::new(threads - 1),
            },
            crew_trace,
            cores_per_cluster: cfg.cores_per_cluster as usize,
            halted: std::iter::repeat_with(Vec::new).take(n_lanes).collect(),
            serial: Vec::new(),
        }
    }

    /// Folds per-lane accounting back into the machine (lane metrics in
    /// fixed lane order, crew spans, event-queue totals summed over the
    /// lanes).
    fn finish(&mut self, machine: &mut Machine) {
        machine.absorb_lane_metrics();
        if let Some(trace) = &self.crew_trace {
            machine.timeline_mut().absorb_crew(trace);
        }
        let metrics = machine.metrics_mut();
        let scheduled = self.lanes.iter().map(EventQueue::scheduled).sum();
        let max_pending = self.lanes.iter().map(EventQueue::max_pending).sum::<usize>();
        metrics.add("events/scheduled", scheduled);
        metrics.add("events/max_pending", max_pending as u64);
    }

    /// Starts a phase of program `pid` at cycle `t`.
    fn start_phase(
        &mut self,
        machine: &mut Machine,
        pid: usize,
        region_ops: &[RegionOp],
        tasks: Vec<Task>,
        mut t: Cycle,
    ) -> Result<(), RunError> {
        // 1. The program's runtime applies the domain transitions:
        //    pipelined atomics to the fine-grain table, blocking only when
        //    the directory had real work (§3.6).
        for op in region_ops {
            t = apply_region_op(machine, pid, op, t)?;
        }

        // 2. Release the program's cores into the dequeue loop.
        let q = &mut self.queues[pid];
        q.tasks = tasks;
        q.next_task = 0;
        // Static block partition for the per-cluster model: the program's
        // i-th cluster owns tasks [i*chunk, (i+1)*chunk) (the tail cluster
        // takes the slack).
        let len = q.tasks.len();
        let chunk = len.div_ceil(q.cluster_queues.len());
        for (i, cq) in q.cluster_queues.iter_mut().enumerate() {
            *cq = ((i * chunk).min(len), ((i + 1) * chunk).min(len));
        }
        q.arrived = 0;
        q.end = t;
        let n = self.queues.len();
        for (i, cs) in self.cores.iter_mut().enumerate() {
            let lane = cs.cluster.0 as usize;
            if lane % n == pid {
                cs.task = None;
                cs.fetch_counter = 0;
                self.lanes[lane].schedule(t, i as u32);
            }
        }
        Ok(())
    }

    /// When every core of program `pid` has arrived at its barrier: drops
    /// the phase's tasks and returns the phase's end.
    fn finished_phase(&mut self, pid: usize) -> Option<Cycle> {
        let q = &mut self.queues[pid];
        (q.arrived == q.cores).then(|| {
            q.tasks = Vec::new();
            q.end
        })
    }

    /// Runs one window: phase A on the lanes, then phase B.
    fn run_window(&mut self, machine: &mut Machine) -> Result<(), RunError> {
        let horizon = self
            .lanes
            .iter()
            .filter_map(EventQueue::peek_cycle)
            .min()
            .expect("cores pending but no events scheduled")
            + QUANTUM;
        machine.timeline_mut().note_window();

        // Phase A: lanes step their cores on lane-local state.
        let n = self.queues.len();
        let mut jobs: Vec<LaneWork<'_>> = machine
            .lanes()
            .into_iter()
            .zip(&mut self.lanes)
            .zip(self.cores.chunks_mut(self.cores_per_cluster))
            .zip(&mut self.halted)
            .enumerate()
            .map(|(c, (((ctx, queue), cores), out))| LaneWork {
                ctx,
                queue,
                cores,
                core_base: (c * self.cores_per_cluster) as u32,
                out,
                max_end: 0,
            })
            .collect();
        let queues = &self.queues;
        self.crew
            .run(&mut jobs, |w| process_lane(w, queues, horizon));
        for (c, w) in jobs.iter().enumerate() {
            let q = &mut self.queues[c % n];
            q.end = q.end.max(w.max_end);
        }
        machine.absorb_lane_timelines();

        // Phase B: escalated slices resume serially, in the window's
        // canonical order; the canonically-first failure aborts the run.
        let mut serial = std::mem::take(&mut self.serial);
        for out in &mut self.halted {
            serial.append(out);
        }
        serial.sort_unstable_by_key(|h| h.key);
        let span_b = (!serial.is_empty())
            .then(|| machine.timeline().start())
            .flatten();
        let window_cycle = serial.first().map_or(0, |h| h.t);
        for Halted { core, mut t, budget, stop, .. } in serial.drain(..) {
            let resumed = match stop {
                Stop::Escalate { .. } => self.step_core(machine, core, &mut t, budget),
                failed => Err(failed),
            };
            match resumed {
                Ok(()) => {
                    let q = &mut self.queues[self.cores[core as usize].cluster.0 as usize % n];
                    q.end = q.end.max(t);
                }
                Err(Stop::Fail(e)) => return Err(self.cores[core as usize].failed(CoreId(core), t, e)),
                Err(Stop::Escalate { .. }) => unreachable!("the machine never refuses"),
            }
        }
        self.serial = serial;
        machine.timeline_mut().service("phase_b", span_b, window_cycle);
        Ok(())
    }

    /// Advances one core on the full machine from `*t` until `budget`
    /// expires, it arrives at its program's barrier, or it fails. Leaves
    /// `*t` at the core's barrier-arrival time when it arrives (else the
    /// current time, or the failing operation's issue time).
    fn step_core(
        &mut self,
        machine: &mut Machine,
        core_idx: u32,
        t: &mut Cycle,
        budget: Cycle,
    ) -> Result<(), Stop> {
        let ci = core_idx as usize;
        let cluster = self.cores[ci].cluster;
        let n = self.queues.len();
        let q = &mut self.queues[cluster.0 as usize % n];
        loop {
            // Need a task?
            if self.cores[ci].task.is_none() {
                let picked = match machine.config().task_queue {
                    crate::config::TaskQueueModel::Global => {
                        // One atomic to the program's single queue word.
                        *t = machine.uncached_atomic(cluster, q.queue_addr, AtomicKind::Add, 1, *t)?
                            + machine.config().dequeue_overhead;
                        (q.next_task < q.tasks.len()).then(|| {
                            q.next_task += 1;
                            q.next_task - 1
                        })
                    }
                    crate::config::TaskQueueModel::PerClusterStealing => {
                        // Dequeue from the cluster's own queue word first
                        // (per-cluster words live on distinct lines), then
                        // steal round-robin within the program (§2.3:
                        // stolen tasks pull their data via HWcc or pay
                        // SWcc refetch).
                        let own = cluster.0 as usize / n;
                        let m = q.cluster_queues.len();
                        let mut picked = None;
                        for probe in 0..m {
                            let victim = (own + probe) % m;
                            if q.cluster_queues[victim].0 >= q.cluster_queues[victim].1 {
                                continue;
                            }
                            let qaddr = Addr(q.queue_addr.0 + 64 * victim as u32);
                            *t = machine.uncached_atomic(cluster, qaddr, AtomicKind::Add, 1, *t)?
                                + machine.config().dequeue_overhead;
                            // Re-check after the (simulated) atomic: the
                            // host-side cursor is the truth.
                            let cq = &mut q.cluster_queues[victim];
                            if cq.0 < cq.1 {
                                picked = Some(cq.0);
                                cq.0 += 1;
                                break;
                            }
                        }
                        if picked.is_none() {
                            // One last atomic on the own queue observed empty.
                            let qaddr = Addr(q.queue_addr.0 + 64 * own as u32);
                            *t = machine.uncached_atomic(cluster, qaddr, AtomicKind::Add, 0, *t)?;
                        }
                        picked
                    }
                };
                let Some(idx) = picked else {
                    // Queues empty: arrive at the barrier.
                    *t =
                        machine.uncached_atomic(cluster, q.barrier_addr, AtomicKind::Add, 1, *t)?;
                    q.arrived += 1;
                    return Ok(());
                };
                let cs = &mut self.cores[ci];
                cs.task = Some((idx, 0));
                cs.pc_line = 0;
                cs.fetch_counter = 0;
            }
            run_ops(machine, &mut self.cores[ci], CoreId(core_idx), t, budget, &q.tasks)?;
            if self.cores[ci].task.is_some() {
                // Budget expired mid-task: back into the lane's queue.
                self.lanes[cluster.0 as usize].schedule(*t, core_idx);
                return Ok(());
            }
        }
    }
}

/// Applies one region op of program `pid`: pipelined atomics to its
/// fine-grain table, issued by its runtime on its first cluster, `pid`.
///
/// Lines are grouped by table word — a single `atom.or`/`atom.and` with a
/// multi-bit mask transitions up to 32 lines; the directory still serializes
/// the per-line transitions when it snoops the update (§3.6: "if a request
/// for multiple line state transitions occurs, the directory serializes the
/// requests line-by-line").
fn apply_region_op(
    machine: &mut Machine,
    pid: usize,
    op: &RegionOp,
    mut t: Cycle,
) -> Result<Cycle, RunError> {
    use cohesion_protocol::region::Domain;
    use std::collections::BTreeMap;
    let fine = *machine.fine_table_of(pid);
    // word address -> bit mask of lines transitioning in this op.
    let mut masks: BTreeMap<u32, u32> = BTreeMap::new();
    for line in op.lines() {
        let slot = fine.slot_of(line);
        *masks.entry(slot.word.0).or_insert(0) |= 1 << slot.bit;
    }
    let mut done_max = t;
    for (word, mask) in masks {
        let (kind, operand) = match op.to {
            Domain::SWcc => (AtomicKind::Or, mask),
            Domain::HWcc => (AtomicKind::And, !mask),
        };
        let (t_done, _) =
            machine.atomic(ClusterId(pid as u32), cohesion_mem::addr::Addr(word), kind, operand, t)?;
        done_max = done_max.max(t_done);
        // Issue the next table update after a fixed issue interval; the
        // directory transitions proceed in the background.
        t += 4;
    }
    Ok(t.max(done_max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DesignPoint;
    use cohesion_runtime::layout::LayoutConfig;

    /// A core without a task runs nothing in phase A: it escalates to the
    /// serial dequeue with its clock and the machine untouched.
    #[test]
    fn a_core_without_a_task_escalates_to_the_queue() {
        let cfg = MachineConfig::scaled(16, DesignPoint::cohesion(16 * 1024, 128));
        let mut m = Machine::new(cfg, Layout::new(&LayoutConfig::new(16)));
        let mut cs = CoreState::new(0, cfg.cores_per_cluster, m.layout());
        let mut t = 5;
        let got = lane_slice(&mut m.lanes()[0], &mut cs, CoreId(0), &mut t, 5 + QUANTUM, &[]);
        assert!(matches!(got, Err(Stop::Escalate { cause: EscalationCause::TaskQueue })));
        assert_eq!((t, m.l2_stats(), m.total_messages().total()), (5, (0, 0, 0), 0));
    }
}
