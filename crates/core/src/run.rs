//! Workload execution: the barrier-synchronized task-queue model of §4.1
//! driven over the machine, phase by phase.

use cohesion_mem::addr::Addr;
use cohesion_mem::mainmem::MainMemory;
use cohesion_runtime::api::{CohesionApi, RuntimeError};
use cohesion_runtime::layout::Layout;
use cohesion_runtime::task::{AtomicKind, Op, Phase, RegionOp, Task};
use cohesion_sim::crew::Crew;
use cohesion_sim::event::EventQueue;
use cohesion_sim::ids::{ClusterId, CoreId};
use cohesion_sim::shard::LaneQueues;
use cohesion_sim::timeline::{CrewSpanLog, EscalationCause, CREW_RING_CAPACITY};
use cohesion_sim::Cycle;
use std::sync::Arc;

use crate::access::{self, Access, Stop};
use crate::config::MachineConfig;
use crate::machine::{LaneCtx, LaneScratch, Machine, MachineError};
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
/// slice lands at least `QUANTUM` cycles after the slice began, so a
/// window of this width can be drained completely before any of the
/// work it spawns becomes runnable — the conservative-PDES lookahead.
pub(crate) const QUANTUM: Cycle = 64;

/// Ops per instruction-fetch line: 32-byte lines hold 8 RISC instructions.
const OPS_PER_FETCH: u32 = 8;

/// One core's execution cursor.
pub(crate) struct CoreState {
    pub(crate) cluster: ClusterId,
    stack_base: Addr,
    code_base: Addr,
    /// Index into the phase's task vector + op cursor.
    pub(crate) task: Option<(usize, usize)>,
    /// Ops remaining before the next instruction fetch; `0` = fetch now.
    /// A countdown (rather than a wrap-around counter) so a slice that
    /// escalates mid-quantum resumes with the fetch stream intact.
    pub(crate) fetch_counter: u32,
    pub(crate) pc_line: u32,
}

impl CoreState {
    /// An idle core `i` running code and stacks laid out by `layout`.
    pub(crate) fn new(i: u32, cores_per_cluster: u32, layout: &Layout) -> Self {
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
    pub(crate) fn failed(&self, core: CoreId, cycle: Cycle, error: MachineError) -> RunError {
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
    let mut api = CohesionApi::new(cfg.cores, cfg.design.mode);
    let mut golden = MainMemory::new();
    workload.setup(&mut api, &mut golden)?;

    let mut machine = Machine::new(*cfg, *api.layout());
    machine.mem = golden.clone();
    machine.boot();
    let profile_regions = workload.profile_regions();
    let profiling = !profile_regions.is_empty();
    if profiling {
        machine.enable_profiling(profile_regions);
    }
    let mut last_profile: Vec<crate::profile::RegionFeedback> = machine.profile_snapshot();

    // Runtime control words live on the coherent heap (one line per
    // cluster queue, so per-cluster dequeues never false-share).
    let queue_addr = api.malloc(64 * cfg.clusters().max(1))?;
    let barrier_addr = api.malloc(64)?;

    let mut exec = Exec::new(cfg, &machine, queue_addr);
    let mut phases = 0u32;
    let mut tasks_total = 0u64;
    let mut ops_total = 0u64;

    while let Some(phase) = workload.next_phase(&mut api, &mut golden) {
        let mut region_ops = api.take_region_ops();
        region_ops.extend(phase.region_ops.iter().copied());
        tasks_total += phase.tasks.len() as u64;
        ops_total += phase.total_ops() as u64;
        exec.run_phase(&mut machine, &region_ops, &phase.tasks, barrier_addr)?;
        machine.note_barrier(exec.now());
        if cfg.check_invariants {
            machine.check_invariants();
        }
        if profiling {
            let now = machine.profile_snapshot();
            let deltas: Vec<crate::profile::RegionFeedback> = now
                .iter()
                .zip(&last_profile)
                .map(|(n, o)| crate::profile::RegionFeedback {
                    start: n.start,
                    bytes: n.bytes,
                    counters: n.counters.delta_from(&o.counters),
                })
                .collect();
            workload.observe(&deltas);
            last_profile = now;
        }
        phases += 1;
    }

    exec.finish(&mut machine);
    let cycles = exec.now();
    machine
        .metrics_mut()
        .add("events/scheduled", exec.lanes.scheduled());
    machine
        .metrics_mut()
        .add("events/max_pending", exec.lanes.max_pending() as u64);
    machine.drain_for_verification();
    workload.verify(&machine.mem).map_err(RunError::Verify)?;

    Ok(RunReport::collect(
        workload.name(),
        cfg,
        &machine,
        cycles,
        phases,
        tasks_total,
        ops_total,
    ))
}

/// One lane's bundle of work for a window: its slice of the machine, its
/// event queue, its cores, and the window's events for the lane.
struct LaneWork<'a> {
    ctx: LaneCtx<'a>,
    queue: &'a mut EventQueue<u32>,
    cores: &'a mut [CoreState],
    core_base: u32,
    /// `(cycle, core)` — this lane's events in its `(cycle, seq)` pop
    /// order (an event's `seq` is its index here).
    events: &'a [(Cycle, u32)],
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

/// Runs one lane's events for the window. Stops at the lane's first
/// failure: a serial engine would never have executed this lane's later
/// slices past an aborting error, and phase B surfaces the
/// canonically-first error of the whole window.
fn process_lane(w: &mut LaneWork<'_>, tasks: &[Task]) {
    let Some(&(window_cycle, _)) = w.events.first() else {
        return;
    };
    let lane = w.ctx.cluster().0;
    let span_start = w.ctx.timeline().start();
    for (seq, &(t0, core)) in w.events.iter().enumerate() {
        let budget = t0 + QUANTUM;
        let mut t = t0;
        let cs = &mut w.cores[(core - w.core_base) as usize];
        match lane_slice(&mut w.ctx, cs, CoreId(core), &mut t, budget, tasks) {
            Ok(()) => {
                w.queue.schedule(t, core);
                w.ctx.timeline().note_fast();
                w.max_end = w.max_end.max(t);
            }
            Err(stop) => {
                let failed = matches!(stop, Stop::Fail(_));
                if let Stop::Escalate { cause } = stop {
                    w.ctx.timeline().note_escalation(lane, t, cause);
                }
                w.out.push(Halted {
                    key: (t0, lane, seq as u32),
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
    }
    w.ctx.timeline().service("phase_a", lane, span_start, window_cycle);
}

/// Empties `jobs` and hands its allocation to jobs of another borrow, so
/// the job list is allocated once per run rather than once per window.
/// The element type is the same up to lifetimes, so the collect reuses
/// the buffer in place.
fn relend<'b>(mut jobs: Vec<LaneWork<'_>>) -> Vec<LaneWork<'b>> {
    jobs.clear();
    jobs.into_iter().map(|_| unreachable!("the list is empty")).collect()
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
pub(crate) fn run_ops<S: Access>(
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

/// The per-run execution engine (cores + queue + barrier), sharded.
///
/// Simulated time advances in windows of [`QUANTUM`] cycles. Each window
/// is drained in two phases:
///
/// * **Phase A (parallel):** every cluster lane steps its own cores
///   through the window ([`run_ops`] over a [`LaneCtx`]), in the lane's
///   pop order. An operation whose guard refuses (it needs another lane's
///   bank, DRAM, probes, an uncached atomic, a task queue) escalates
///   untouched.
/// * **Phase B (serial):** escalated slices resume on the full machine
///   in the window's canonical `(cycle, lane, seq)` order ([`run_ops`]
///   over the [`Machine`]).
///
/// The window composition, the A/B split, and both processing orders are
/// functions of simulated state alone — never of the host thread count —
/// so simulated results are byte-identical at any [`MachineConfig::shards`]
/// value. `shards` only chooses how many host threads run phase A.
struct Exec {
    cores: Vec<CoreState>,
    lanes: LaneQueues<u32>,
    /// Per-lane metrics scratches, absorbed into the machine by `finish`.
    scratches: Vec<LaneScratch>,
    /// Worker threads for phase A; `None` = run lanes inline (shards=1).
    crew: Option<Crew>,
    /// Crew park/run span log, drained into the machine timeline by
    /// `finish`; `None` unless the timeline is armed and a crew exists.
    crew_trace: Option<Arc<CrewSpanLog>>,
    cores_per_cluster: usize,
    // Window buffers, reused from window to window.
    /// Per lane: the window's `(cycle, core)` events.
    window: Vec<Vec<(Cycle, u32)>>,
    /// Per lane: the slices phase A stopped.
    halted: Vec<Vec<Halted>>,
    /// Phase B's slices, in canonical order.
    serial: Vec<Halted>,
    /// Phase A's jobs, one per lane in lane order (empty between windows).
    jobs: Vec<LaneWork<'static>>,
    queue_addr: Addr,
    now: Cycle,
    // Per-phase state.
    next_task: usize,
    task_count: usize,
    /// Per-cluster `[lo, hi)` cursors over a static block partition
    /// (PerClusterStealing only).
    cluster_queues: Vec<(usize, usize)>,
    queue_model: crate::config::TaskQueueModel,
    arrived: u32,
    dequeue_overhead: Cycle,
    barrier_release: Cycle,
}

impl Exec {
    fn new(cfg: &MachineConfig, machine: &Machine, queue_addr: Addr) -> Self {
        let layout = machine.layout();
        let cores = (0..cfg.cores)
            .map(|i| CoreState::new(i, cfg.cores_per_cluster, layout))
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
                machine.timeline().epoch_instant(),
                CREW_RING_CAPACITY,
            ))
        });
        Exec {
            cores,
            lanes: LaneQueues::new(n_lanes),
            scratches: machine.new_lane_scratches(),
            crew: (threads > 1).then(|| match &crew_trace {
                Some(tr) => Crew::traced(threads - 1, Arc::clone(tr)),
                None => Crew::new(threads - 1),
            }),
            crew_trace,
            cores_per_cluster: cfg.cores_per_cluster as usize,
            window: vec![Vec::new(); n_lanes],
            halted: std::iter::repeat_with(Vec::new).take(n_lanes).collect(),
            serial: Vec::new(),
            jobs: Vec::new(),
            queue_addr,
            now: 0,
            next_task: 0,
            task_count: 0,
            cluster_queues: vec![(0, 0); (cfg.cores / cfg.cores_per_cluster) as usize],
            queue_model: cfg.task_queue,
            arrived: 0,
            dequeue_overhead: cfg.dequeue_overhead,
            barrier_release: cfg.barrier_release_latency,
        }
    }

    fn now(&self) -> Cycle {
        self.now
    }

    /// Folds per-lane accounting back into the machine (metrics
    /// scratches in fixed lane order, crew spans).
    fn finish(&mut self, machine: &mut Machine) {
        machine.absorb_lane_scratches(&self.scratches);
        if let Some(trace) = &self.crew_trace {
            machine.timeline_mut().absorb_crew(trace);
        }
    }

    fn run_phase(
        &mut self,
        machine: &mut Machine,
        region_ops: &[RegionOp],
        tasks: &[Task],
        barrier_addr: Addr,
    ) -> Result<(), RunError> {
        // 1. Core 0 (the runtime) applies the domain transitions: pipelined
        //    atomics to the fine-grain table, blocking only when the
        //    directory had real work (§3.6).
        let mut t = self.now;
        for op in region_ops {
            t = apply_region_op(machine, op, t)?;
        }

        // 2. Release all cores into the dequeue loop.
        self.next_task = 0;
        self.task_count = tasks.len();
        // Static block partition for the per-cluster model: cluster c owns
        // tasks [c*chunk, (c+1)*chunk) (the tail cluster takes the slack).
        let n_clusters = self.cluster_queues.len();
        let chunk = tasks.len().div_ceil(n_clusters.max(1));
        for (c, q) in self.cluster_queues.iter_mut().enumerate() {
            *q = ((c * chunk).min(tasks.len()), ((c + 1) * chunk).min(tasks.len()));
        }
        self.arrived = 0;
        for c in self.cores.iter_mut() {
            c.task = None;
            c.fetch_counter = 0;
        }
        for i in 0..self.cores.len() as u32 {
            let lane = self.cores[i as usize].cluster.0 as usize;
            self.lanes.schedule(lane, t, i);
        }

        // 3. Pump windows until every core reaches the barrier.
        let mut phase_end = t;
        while self.arrived < self.cores.len() as u32 {
            self.lanes
                .pop_window(QUANTUM, &mut self.window)
                .expect("cores pending but no events scheduled");
            machine.timeline_mut().note_window();

            // Phase A: lanes step their cores on lane-local state.
            let mut jobs = relend(std::mem::take(&mut self.jobs));
            jobs.extend(
                machine
                    .lanes(&mut self.scratches)
                    .into_iter()
                    .zip(self.lanes.as_mut_slice())
                    .zip(self.cores.chunks_mut(self.cores_per_cluster))
                    .zip(&self.window)
                    .zip(&mut self.halted)
                    .enumerate()
                    .map(|(c, ((((ctx, queue), cores), events), out))| LaneWork {
                        ctx,
                        queue,
                        cores,
                        core_base: (c * self.cores_per_cluster) as u32,
                        events,
                        out,
                        max_end: 0,
                    }),
            );
            match &mut self.crew {
                Some(crew) => crew.run(&mut jobs, |w| process_lane(w, tasks)),
                None => jobs.iter_mut().for_each(|w| process_lane(w, tasks)),
            }
            phase_end = jobs.iter().fold(phase_end, |end, w| end.max(w.max_end));
            self.jobs = relend(jobs);
            // Lane timeline buffers fold in fixed lane order, so the main
            // ring's drop sequence never depends on host threads.
            if machine.timeline().is_armed() {
                for s in self.scratches.iter_mut() {
                    machine.timeline_mut().absorb_lane(&mut s.timeline);
                }
            }

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
                    Stop::Escalate { .. } => {
                        self.step_core(machine, core, &mut t, budget, tasks, barrier_addr)
                    }
                    failed => Err(failed),
                };
                match resumed {
                    Ok(()) => phase_end = phase_end.max(t),
                    Err(Stop::Fail(e)) => return Err(self.cores[core as usize].failed(CoreId(core), t, e)),
                    Err(Stop::Escalate { .. }) => unreachable!("the machine never refuses"),
                }
            }
            self.serial = serial;
            machine.timeline_mut().service("phase_b", span_b, window_cycle);
        }

        // 4. Barrier release broadcast.
        self.now = phase_end + self.barrier_release;
        Ok(())
    }

    /// Advances one core on the full machine from `*t` until `budget`
    /// expires, it arrives at the barrier, or it fails. Leaves `*t` at the
    /// core's barrier-arrival time when it arrives (else the current
    /// time, or the failing operation's issue time).
    fn step_core(
        &mut self,
        machine: &mut Machine,
        core_idx: u32,
        t: &mut Cycle,
        budget: Cycle,
        tasks: &[Task],
        barrier_addr: Addr,
    ) -> Result<(), Stop> {
        let ci = core_idx as usize;
        loop {
            // Need a task?
            if self.cores[ci].task.is_none() {
                let cluster = self.cores[ci].cluster;
                let picked = match self.queue_model {
                    crate::config::TaskQueueModel::Global => {
                        // One atomic to the single global queue word.
                        *t = machine.uncached_atomic(cluster, self.queue_addr, AtomicKind::Add, 1, *t)?
                            + self.dequeue_overhead;
                        if self.next_task >= self.task_count {
                            None
                        } else {
                            let idx = self.next_task;
                            self.next_task += 1;
                            Some(idx)
                        }
                    }
                    crate::config::TaskQueueModel::PerClusterStealing => {
                        // Dequeue from the cluster's own queue word first
                        // (per-cluster words live on distinct lines), then
                        // steal round-robin (§2.3: stolen tasks pull their
                        // data via HWcc or pay SWcc refetch).
                        let n = self.cluster_queues.len();
                        let mut picked = None;
                        for probe in 0..n {
                            let victim = (cluster.0 as usize + probe) % n;
                            if self.cluster_queues[victim].0 >= self.cluster_queues[victim].1 {
                                continue;
                            }
                            let qaddr = Addr(self.queue_addr.0 + 64 * victim as u32);
                            *t = machine.uncached_atomic(cluster, qaddr, AtomicKind::Add, 1, *t)?
                                + self.dequeue_overhead;
                            // Re-check after the (simulated) atomic: the
                            // host-side cursor is the truth.
                            let q = &mut self.cluster_queues[victim];
                            if q.0 < q.1 {
                                picked = Some(q.0);
                                q.0 += 1;
                                break;
                            }
                        }
                        if picked.is_none() {
                            // One last atomic on the own queue observed empty.
                            let qaddr = Addr(self.queue_addr.0 + 64 * (cluster.0 as usize % n) as u32);
                            *t = machine.uncached_atomic(cluster, qaddr, AtomicKind::Add, 0, *t)?;
                        }
                        picked
                    }
                };
                let Some(idx) = picked else {
                    // Queues empty: arrive at the barrier.
                    *t = machine.uncached_atomic(cluster, barrier_addr, AtomicKind::Add, 1, *t)?;
                    self.arrived += 1;
                    return Ok(());
                };
                let cs = &mut self.cores[ci];
                cs.task = Some((idx, 0));
                cs.pc_line = 0;
                cs.fetch_counter = 0;
            }
            run_ops(machine, &mut self.cores[ci], CoreId(core_idx), t, budget, tasks)?;
            if self.cores[ci].task.is_some() {
                // Budget expired mid-task: back into the lane's queue.
                let lane = self.cores[ci].cluster.0 as usize;
                self.lanes.schedule(lane, *t, core_idx);
                return Ok(());
            }
        }
    }
}

/// Applies one region op: pipelined atomics to the fine-grain table, issued
/// by the runtime on cluster 0.
///
/// Lines are grouped by table word — a single `atom.or`/`atom.and` with a
/// multi-bit mask transitions up to 32 lines; the directory still serializes
/// the per-line transitions when it snoops the update (§3.6: "if a request
/// for multiple line state transitions occurs, the directory serializes the
/// requests line-by-line").
fn apply_region_op(machine: &mut Machine, op: &RegionOp, mut t: Cycle) -> Result<Cycle, RunError> {
    use cohesion_protocol::region::Domain;
    use std::collections::BTreeMap;
    let fine = *machine.fine_table();
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
            machine.atomic(ClusterId(0), cohesion_mem::addr::Addr(word), kind, operand, t)?;
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
        let mut scratches = m.new_lane_scratches();
        let mut t = 5;
        let got = lane_slice(&mut m.lanes(&mut scratches)[0], &mut cs, CoreId(0), &mut t, 5 + QUANTUM, &[]);
        assert!(matches!(got, Err(Stop::Escalate { cause: EscalationCause::TaskQueue })));
        assert_eq!((t, m.l2_stats(), m.total_messages().total()), (5, (0, 0, 0), 0));
    }
}
