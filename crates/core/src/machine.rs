//! The simulated machine: cores' memory operations through L1/L2/NoC/L3,
//! the directory protocol, the region tables, and domain transitions.
//!
//! # Timing model
//!
//! The machine is *transaction-oriented*: when a request reaches its home L3
//! bank, the entire protocol action (directory lookup, probes, DRAM access,
//! region-table lookup, transition script) is computed in one step, charging
//! latency analytically against the shared bandwidth models (NoC links, L3
//! ports, DRAM banks). State changes apply at processing time; the
//! requesting core resumes at the computed reply-arrival time. This keeps
//! every message count exact and queueing effects first-order correct while
//! avoiding transient protocol states — all requests for a line serialize
//! through its home bank, exactly the ordering discipline of §3.2/§3.6.
//!
//! # Data model
//!
//! Real data flows: stores deposit values in L2 lines, writebacks merge
//! per-word into the L3, the L3 spills to backing memory, and loads return
//! whatever the hierarchy provides. Loads carrying a golden expectation
//! detect stale data immediately.
//!
//! # Tiles
//!
//! The machine is stored as two kinds of tile. A cluster tile holds its
//! cores' L1I/L1D, its L2 with the L2's port throttle, message and
//! SWcc-instruction counters, and its lane's recorders (a metrics
//! registry and a timeline). A bank tile holds one L3 bank, its port
//! throttle, its collocated directory slice and its table cache.
//! Everything else — the tree NoC, DRAM, backing memory, the region
//! tables and profiler, the machine-wide recorders — is shared.
//! [`Machine::lanes`] splits the machine into one [`LaneCtx`] per
//! cluster tile: the tile, the bank tiles it owns under
//! [`BankOwnership`], and its direct NoC links.

use cohesion_mem::addr::{Addr, AddressMap, BankOwnership, LineAddr, WORDS_PER_LINE};
use cohesion_mem::cache::{Cache, HwState};
use cohesion_mem::dram::Dram;
use cohesion_mem::mainmem::MainMemory;
use cohesion_protocol::directory::{DirEntry, DirState, DirectoryBank, EntryClass};
use cohesion_protocol::region::{CoarseRegionTable, Domain, FineTable};
use cohesion_protocol::transition::{
    classify_hw_to_sw, classify_sw_to_hw, HwToSw, L2View, RaceReport, SwToHw,
};
use cohesion_runtime::api::CohMode;
use cohesion_runtime::layout::Layout;
use cohesion_runtime::task::AtomicKind;
use cohesion_sim::ids::{BankId, ClusterId, CoreId};
use cohesion_sim::link::Throttle;
use cohesion_sim::metrics::{Registry, Snapshot};
use cohesion_sim::msg::MessageClass;
use cohesion_sim::stats::{CoherenceInstrStats, MessageCounts};
use cohesion_sim::timeline::{
    EscalationCause, LineEvent, Timeline, TimelineSnapshot, Track, DEFAULT_CAPACITY,
};
use cohesion_sim::Cycle;

use crate::access::{self, Access, Guard, Stop};
use crate::config::MachineConfig;
use crate::noc::{LaneNoc, Noc};
use crate::profile::RegionProfiler;

/// Cycle-window width of the telemetry time-series sampler.
const METRICS_WINDOW: Cycle = 10_000;

/// A coherence error surfaced by the machine (these are *simulated-program*
/// failures the harness turns into test failures, not simulator bugs).
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// A verified load observed a value different from the golden result.
    StaleLoad {
        /// The address loaded.
        addr: Addr,
        /// The value the hierarchy returned.
        got: u32,
        /// The golden value.
        expected: u32,
    },
    /// A case-5b multi-writer race was detected with `fatal_races` set.
    FatalRace(RaceReport),
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::StaleLoad {
                addr,
                got,
                expected,
            } => write!(
                f,
                "stale load at {addr}: got {got:#x}, golden value {expected:#x}"
            ),
            MachineError::FatalRace(r) => {
                write!(f, "SWcc multi-writer race on {} (mask {:#x})", r.line, r.overlap)
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// One process's memory-management context: its address-space slice, its
/// coarse regions, and its fine-grain region table (§3.5's per-process
/// virtualization).
#[derive(Debug, Clone)]
pub struct ProcessCtx {
    /// The process's layout.
    pub layout: Layout,
    coarse: CoarseRegionTable,
    fine: FineTable,
}

/// One cluster tile: its cores' L1s, its L2 with the L2's port throttle
/// and output counters, and the recorders its lane writes in phase A.
#[derive(Debug, Clone)]
struct Cluster {
    /// The cores' instruction L1s, by core index within the cluster.
    l1i: Vec<Cache>,
    /// The cores' data L1s, same order.
    l1d: Vec<Cache>,
    l2: Cache,
    l2_port: Throttle,
    /// L2 output messages, by class.
    msgs: MessageCounts,
    instr_stats: CoherenceInstrStats,
    /// What the lane's operations record in phase A, merged into the
    /// machine registry in cluster order at the end of the run
    /// ([`Machine::absorb_lane_metrics`]). Counter and histogram merges
    /// are commutative, so the fold order cannot be observed.
    metrics: Registry,
    /// The lane's track: phase A spans, escalations and watched-line
    /// events, drained into the machine recorder in cluster order after
    /// every window ([`Machine::absorb_lane_timelines`]).
    timeline: Timeline,
}

/// One L3 bank tile: the bank, its port throttle, its collocated
/// directory slice and its table cache.
#[derive(Debug, Clone)]
struct Bank {
    l3: Cache,
    port: Throttle,
    /// `None` at the SWcc design point, which has no directory.
    dir: Option<DirectoryBank>,
    /// Optional dedicated fine-grain-table cache (§3.4 suggests the
    /// dense table is "amenable to on-die caching"; `None` = the paper's
    /// base design, caching table lines in the L3 itself).
    table_cache: Option<Cache>,
}

/// The assembled machine.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    map: AddressMap,
    processes: Vec<ProcessCtx>,

    /// Backing memory (holds real data, including the fine-grain table).
    pub mem: MainMemory,

    clusters: Vec<Cluster>,
    banks: Vec<Bank>,
    noc: Noc,
    dram: Dram,

    races: Vec<RaceReport>,
    transitions_to_sw: u64,
    transitions_to_hw: u64,
    profiler: RegionProfiler,
    /// Machine-wide telemetry. Disarmed (every record call a single
    /// branch) unless [`MachineConfig::metrics`] is set.
    metrics: Registry,
    /// Shard-epoch flight recorder, with the protocol events of the
    /// watched line. Disarmed (every record call a single branch) unless
    /// [`MachineConfig::timeline`] is set.
    timeline: Timeline,
}

impl Machine {
    /// Builds the machine for `cfg` over the given address-space layout.
    pub fn new(cfg: MachineConfig, layout: Layout) -> Self {
        Self::new_multi(cfg, vec![layout])
    }

    /// Builds a multiprogrammed machine: each layout is one process with
    /// its own address-space slice and its own region tables (§3.5).
    ///
    /// # Panics
    ///
    /// Panics if the layouts' slices or tables overlap, or if
    /// `cores_per_cluster` is not a power of two.
    pub fn new_multi(cfg: MachineConfig, layouts: Vec<Layout>) -> Self {
        assert!(!layouts.is_empty(), "a machine needs at least one process");
        assert!(
            cfg.cores_per_cluster.is_power_of_two(),
            "cores per cluster must be a power of two"
        );
        for (i, a) in layouts.iter().enumerate() {
            for b in layouts.iter().skip(i + 1) {
                assert!(
                    a.incoherent_heap.end().0 <= b.code.start.0
                        || b.incoherent_heap.end().0 <= a.code.start.0,
                    "process slices must not overlap"
                );
                assert_ne!(
                    a.fine_table_base, b.fine_table_base,
                    "processes need distinct fine-grain tables"
                );
            }
        }
        let map = cfg.address_map();
        let clusters = cfg.clusters();
        let mode = cfg.design.mode;
        let registry = || {
            if cfg.metrics {
                Registry::armed(METRICS_WINDOW)
            } else {
                Registry::disarmed()
            }
        };
        let timeline = if cfg.timeline {
            Timeline::armed(DEFAULT_CAPACITY, cfg.watch.map(|line| line.0))
        } else {
            Timeline::disarmed()
        };
        let l1s = |geometry| -> Vec<Cache> {
            (0..cfg.cores_per_cluster)
                .map(|_| Cache::new(geometry))
                .collect()
        };
        let dir = cfg.design.directory.to_config(clusters);
        let table_cache = (cfg.table_cache_bytes > 0 && mode == CohMode::Cohesion)
            .then(|| cohesion_mem::cache::CacheConfig::new(cfg.table_cache_bytes, 4));
        let processes = layouts
            .into_iter()
            .map(|layout| {
                let coarse = match mode {
                    // Pure HWcc tracks everything, stacks and code included.
                    CohMode::HWcc => CoarseRegionTable::new(),
                    // Ablation: shift coarse regions into the fine table.
                    CohMode::Cohesion if !cfg.use_coarse_table => CoarseRegionTable::new(),
                    _ => layout.coarse_regions(),
                };
                ProcessCtx {
                    coarse,
                    fine: FineTable::new(layout.fine_table_base, map),
                    layout,
                }
            })
            .collect();
        Machine {
            map,
            processes,
            mem: MainMemory::new(),
            clusters: (0..clusters)
                .map(|c| Cluster {
                    l1i: l1s(cfg.l1i),
                    l1d: l1s(cfg.l1d),
                    l2: Cache::new(cfg.l2),
                    l2_port: Throttle::new(cfg.l2_ports),
                    msgs: MessageCounts::new(),
                    instr_stats: CoherenceInstrStats::new(),
                    metrics: registry(),
                    timeline: timeline.child(Track::Lane(c), usize::MAX),
                })
                .collect(),
            banks: (0..cfg.l3_banks)
                .map(|_| Bank {
                    l3: Cache::new(cfg.l3_bank_cache()),
                    port: Throttle::new(cfg.l3_ports),
                    dir: dir.map(DirectoryBank::new),
                    table_cache: table_cache.map(Cache::new),
                })
                .collect(),
            noc: Noc::new(cfg.noc, clusters, cfg.l3_banks),
            dram: Dram::new(cfg.dram, map),
            races: Vec::new(),
            transitions_to_sw: 0,
            transitions_to_hw: 0,
            profiler: RegionProfiler::default(),
            metrics: registry(),
            timeline,
            cfg,
        }
    }

    /// The shard-epoch flight recorder (armed iff
    /// [`MachineConfig::timeline`] was set).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Mutable access to the flight recorder, for the run loop (window
    /// accounting, crew span absorption).
    pub fn timeline_mut(&mut self) -> &mut Timeline {
        &mut self.timeline
    }

    /// Freezes the flight recorder into a snapshot, or `None` when the
    /// timeline is disarmed. Pure read — never perturbs the simulation.
    pub fn timeline_snapshot(&self) -> Option<TimelineSnapshot> {
        self.timeline.snapshot()
    }

    /// Drains every lane's timeline into the machine recorder, in
    /// cluster order, so the main ring's drop sequence never depends on
    /// host threads. The run loop calls it after every window's phase A.
    pub fn absorb_lane_timelines(&mut self) {
        if self.timeline.is_armed() {
            for c in &mut self.clusters {
                self.timeline.absorb(&mut c.timeline);
            }
        }
    }

    /// Folds every lane's metrics into the machine registry, in cluster
    /// order, at the end of the run, and frees them.
    pub fn absorb_lane_metrics(&mut self) {
        for c in &mut self.clusters {
            let lane = std::mem::replace(&mut c.metrics, Registry::disarmed());
            self.metrics.merge_from(&lane);
        }
    }

    /// The cluster tile of `core`, and the core's index within it. A
    /// store snoops every sibling L1D through here, so the power-of-two
    /// cluster size ([`Machine::new_multi`] asserts it) takes a shift and
    /// a mask instead of a division.
    fn core_slot(&self, core: CoreId) -> (usize, usize) {
        let cpc = self.cfg.cores_per_cluster;
        (
            (core.0 >> cpc.trailing_zeros()) as usize,
            (core.0 & (cpc - 1)) as usize,
        )
    }

    /// The directory slices, in bank order (none at the SWcc point).
    fn dirs(&self) -> impl Iterator<Item = &DirectoryBank> {
        self.banks.iter().filter_map(|b| b.dir.as_ref())
    }

    /// The summed occupancy of every directory slice.
    fn dir_occupancy(&self) -> u64 {
        self.dirs().map(DirectoryBank::occupancy).sum()
    }

    /// Boot-time table setup (§3.4/§3.5): the bootstrap core zeroes the
    /// fine-grain table (all HWcc) and the runtime then marks the incoherent
    /// heap SWcc, so `coh_malloc` allocations are born SWcc. Performed as
    /// part of application load, before timing starts. Call after installing
    /// the initial memory image.
    pub fn boot(&mut self) {
        if self.cfg.design.mode != CohMode::Cohesion {
            return;
        }
        for pi in 0..self.processes.len() {
            let p = &self.processes[pi];
            let mut ranges = vec![p.layout.incoherent_heap];
            if !self.cfg.use_coarse_table {
                // Ablation: the regions the coarse table would have covered
                // are marked SWcc in the fine-grain table instead.
                ranges.push(p.layout.code);
                ranges.push(p.layout.const_global);
                ranges.push(p.layout.stacks);
            }
            let fine = self.processes[pi].fine;
            for r in ranges {
                let first = r.start.0 / cohesion_mem::addr::LINE_BYTES;
                let count = r.size / cohesion_mem::addr::LINE_BYTES;
                fine.fill_domain(&mut self.mem, LineAddr(first), count, Domain::SWcc);
            }
        }
    }

    /// Registers address regions for coherence profiling (§4.2's remapping
    /// feedback); see [`crate::profile`].
    pub fn enable_profiling(&mut self, regions: Vec<(Addr, u32)>) {
        self.profiler = RegionProfiler::new(regions);
    }

    /// Current per-region profile totals.
    pub fn profile_snapshot(&self) -> Vec<crate::profile::RegionFeedback> {
        self.profiler.snapshot()
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Process 0's address-space layout (the common single-program case).
    pub fn layout(&self) -> &Layout {
        &self.processes[0].layout
    }

    /// The layout of process `pid`.
    ///
    /// # Panics
    ///
    /// Panics for an unknown process id.
    pub fn layout_of(&self, pid: usize) -> &Layout {
        &self.processes[pid].layout
    }

    /// Process 0's fine-grain region-table descriptor.
    pub fn fine_table(&self) -> &FineTable {
        &self.processes[0].fine
    }

    /// The fine-grain table descriptor of process `pid`.
    ///
    /// # Panics
    ///
    /// Panics for an unknown process id.
    pub fn fine_table_of(&self, pid: usize) -> &FineTable {
        &self.processes[pid].fine
    }

    /// Current coherence domain of a line, as the hardware would resolve it
    /// (coarse table, then fine table; HWcc default).
    pub fn domain_of(&self, line: LineAddr) -> Domain {
        resolve_domain(self.cfg.design.mode, &self.processes, &self.mem, line)
    }

    // ------------------------------------------------------------------
    // Core-visible operations (one body each, shared with the lane views)
    // ------------------------------------------------------------------

    /// Performs a load; returns `(completion_cycle, value)`.
    pub fn load(&mut self, core: CoreId, addr: Addr, t: Cycle) -> (Cycle, u32) {
        admitted(access::load(self, core, addr, t))
    }

    /// Performs a store; returns the cycle at which the core may proceed.
    ///
    /// Stores are *non-blocking*: a store miss issues its ownership request
    /// and retires into the store buffer; the core continues while the
    /// directory transaction completes (its bandwidth, probe, and DRAM
    /// costs are still charged against the shared resources). SWcc stores
    /// write-allocate locally and complete immediately (§2.1).
    pub fn store(&mut self, core: CoreId, addr: Addr, value: u32, t: Cycle) -> Cycle {
        admitted(access::store(self, core, addr, value, t))
    }

    /// Executes the SWcc flush (writeback) instruction for `line`.
    /// Non-blocking: the dirty words travel to the L3 off the critical path.
    pub fn flush(&mut self, core: CoreId, line: LineAddr, t: Cycle) -> Cycle {
        admitted(access::flush(self, core, line, t))
    }

    /// Executes the SWcc invalidate instruction for `line`. Local only; no
    /// message is ever sent (§2.1).
    pub fn invalidate(&mut self, core: CoreId, line: LineAddr, t: Cycle) -> Cycle {
        admitted(access::invalidate(self, core, line, t))
    }

    /// Instruction fetch of the line at `addr` (code).
    pub fn ifetch(&mut self, core: CoreId, addr: Addr, t: Cycle) -> Cycle {
        admitted(access::ifetch(self, core, addr, t))
    }

    // ------------------------------------------------------------------
    // Uncached atomics and domain transitions (serial only)
    // ------------------------------------------------------------------

    /// Atomic read-modify-write of one word at the L3 (write-through to
    /// memory so the table/functional state is always current).
    fn l3_rmw(
        &mut self,
        bank: BankId,
        addr: Addr,
        kind: AtomicKind,
        operand: u32,
        t: &mut Cycle,
    ) -> (u32, u32) {
        let line = addr.line();
        let w = addr.word_index();
        let data = access::l3_read_line(self, bank, line, t);
        let old = data[w];
        let new = kind.apply(old, operand);
        let mask = 1u8 << w;
        if let Some(l) = self.banks[bank.0 as usize].l3.access(line) {
            l.data[w] = new;
            l.valid_words |= mask;
            l.dirty_words |= mask;
        }
        self.mem.write_word(addr, new);
        *t += 1; // RMW turnaround at the bank
        (old, new)
    }

    /// Performs an uncached atomic; returns `(completion_cycle, old_value)`.
    ///
    /// If the address lies in the fine-grain table and the machine runs in
    /// Cohesion mode, the directory snoops the update and performs the
    /// domain transitions for every line whose bit changed (§3.6).
    pub fn atomic(
        &mut self,
        cluster: ClusterId,
        addr: Addr,
        kind: AtomicKind,
        operand: u32,
        t: Cycle,
    ) -> Result<(Cycle, u32), MachineError> {
        let line = addr.line();
        access::note_msg(self, cluster, line, MessageClass::UncachedAtomic, t);
        let bank = access::bank_of(self, line);
        let t_arr = self.noc.request(cluster, bank, t);
        let mut tb = self.l3_port(bank).grant(t_arr) + self.cfg.l3_latency;

        // If the line is HWcc-cached anywhere, recall it first: the atomic
        // must operate on the latest value at the L3.
        if let Some(e) = self.dir(bank).and_then(|d| d.remove(tb, line)) {
            let done = access::directory_eviction(self, bank, line, e, tb);
            tb = tb.max(done);
        }

        let (old, new) = self.l3_rmw(bank, addr, kind, operand, &mut tb);
        self.trace(tb, line, LineEvent::Atomic { old, new });

        // Directory snoop of the fine-grain tables (§3.6) — per-process
        // tables each cover their own snooped range (§3.5).
        if self.cfg.design.mode == CohMode::Cohesion {
            let fine = self
                .processes
                .iter()
                .map(|p| p.fine)
                .find(|f| f.covers(addr));
            if let Some(fine) = fine {
                let diff = old ^ new;
                for bit in 0..32 {
                    if diff & (1 << bit) == 0 {
                        continue;
                    }
                    let target_line =
                        fine.line_of_slot(cohesion_protocol::region::TableSlot { word: addr, bit });
                    let to = if new & (1 << bit) != 0 {
                        Domain::SWcc
                    } else {
                        Domain::HWcc
                    };
                    tb = self.run_transition(bank, target_line, to, tb)?;
                }
            }
        }

        let t_done = self.noc.reply(bank, cluster, tb);
        self.metrics.record_latency("latency/atomic", t_done - t);
        Ok((t_done, old))
    }

    /// Runs the Figure 7 transition script for one line at its home bank.
    fn run_transition(
        &mut self,
        bank: BankId,
        line: LineAddr,
        to: Domain,
        t: Cycle,
    ) -> Result<Cycle, MachineError> {
        debug_assert_eq!(access::bank_of(self, line), bank, "transition at the wrong home bank");
        let clusters = self.cfg.clusters();
        self.trace(t, line, LineEvent::Transition);
        let mut done = t;
        self.metrics.sample_add("transitions", t, 1);
        match to {
            Domain::SWcc => {
                self.transitions_to_sw += 1;
                let case = classify_hw_to_sw(
                    self.banks[bank.0 as usize]
                        .dir
                        .as_ref()
                        .and_then(|d| d.peek(line)),
                    clusters,
                );
                self.metrics.inc(match case {
                    HwToSw::Case1aUntracked => "transition/case_1a_untracked",
                    HwToSw::Case2aShared { .. } => "transition/case_2a_shared",
                    HwToSw::Case3aModified { .. } => "transition/case_3a_modified",
                });
                match case {
                    HwToSw::Case1aUntracked => {}
                    HwToSw::Case2aShared { sharers } => {
                        for s in sharers {
                            done = done.max(access::probe(self, bank, s, line, true, false, t));
                        }
                        self.dir(bank).expect("present").remove(t, line);
                    }
                    HwToSw::Case3aModified { owner } => {
                        let targets = match owner {
                            Some(o) => vec![o],
                            None => (0..clusters).map(ClusterId).collect(),
                        };
                        for o in targets {
                            done = done.max(access::probe(self, bank, o, line, true, false, t));
                        }
                        self.dir(bank).expect("present").remove(t, line);
                    }
                }
            }
            Domain::HWcc => {
                self.transitions_to_hw += 1;
                // Broadcast clean request: every L2 is asked (§3.6).
                let mut views = Vec::new();
                let mut t_views = t;
                for c in 0..clusters {
                    let target = ClusterId(c);
                    let t_at_l2 = self.noc.reply(bank, target, t);
                    let view = match self.clusters[c as usize].l2.peek(line) {
                        Some(l) if l.incoherent => L2View {
                            cluster: target,
                            valid_words: l.valid_words,
                            dirty_words: l.dirty_words,
                        },
                        _ => L2View {
                            cluster: target,
                            valid_words: 0,
                            dirty_words: 0,
                        },
                    };
                    views.push(view);
                    access::note_msg(self, target, line, MessageClass::ProbeResponse, t_at_l2);
                    t_views = t_views.max(self.noc.request(target, bank, t_at_l2));
                }
                done = done.max(t_views);
                let tracking = self.dir(bank).expect("present").config().tracking;
                let class = classify(&self.processes, line);
                let case = classify_sw_to_hw(&views);
                self.metrics.inc(match case {
                    SwToHw::Case1bNotPresent => "transition/case_1b_not_present",
                    SwToHw::Case2bClean { .. } => "transition/case_2b_clean",
                    SwToHw::Case3bSingleDirty { .. } => "transition/case_3b_single_dirty",
                    SwToHw::Case4bMultiDirtyDisjoint { .. } => "transition/case_4b_multi_dirty",
                    SwToHw::Case5bRace { .. } => "transition/case_5b_race",
                });
                match case {
                    SwToHw::Case1bNotPresent => {}
                    SwToHw::Case2bClean { sharers } => {
                        let mut entry = DirEntry::shared(sharers[0], tracking, clusters, class);
                        for &s in &sharers[1..] {
                            entry.sharers.add(s, tracking);
                        }
                        for s in sharers {
                            let l = self.l2(s).peek_mut(line).expect("clean holder");
                            l.incoherent = false;
                            l.state = HwState::Shared;
                        }
                        self.insert_entry_with_eviction(bank, line, entry, &mut done);
                    }
                    SwToHw::Case3bSingleDirty { owner, readers } => {
                        for r in readers {
                            done = done.max(access::probe(self, bank, r, line, true, true, t));
                        }
                        let l = self.l2(owner).peek_mut(line).expect("owner");
                        l.incoherent = false;
                        l.state = HwState::Modified;
                        let entry = DirEntry::modified(owner, tracking, clusters, class);
                        self.insert_entry_with_eviction(bank, line, entry, &mut done);
                    }
                    SwToHw::Case4bMultiDirtyDisjoint { writers, readers } => {
                        done = self.merge_writers(bank, line, &writers, &readers, t, done);
                    }
                    SwToHw::Case5bRace {
                        writers,
                        readers,
                        overlap,
                    } => {
                        let report = RaceReport {
                            line,
                            overlap,
                            writers: writers.clone(),
                        };
                        if self.cfg.fatal_races {
                            return Err(MachineError::FatalRace(report));
                        }
                        self.races.push(report);
                        done = self.merge_writers(bank, line, &writers, &readers, t, done);
                    }
                }
                debug_assert_eq!(
                    self.domain_of(line),
                    Domain::HWcc,
                    "table bit already cleared by the RMW"
                );
            }
        }
        if self.metrics.is_armed() {
            self.metrics.record_latency(
                match to {
                    Domain::SWcc => "latency/transition_to_swcc",
                    Domain::HWcc => "latency/transition_to_hwcc",
                },
                done - t,
            );
            let occ = self.dir_occupancy();
            self.metrics.sample_max("dir_occupancy", done, occ);
        }
        Ok(done)
    }

    fn insert_entry_with_eviction(
        &mut self,
        bank: BankId,
        line: LineAddr,
        entry: DirEntry,
        done: &mut Cycle,
    ) {
        let victim = self.dir(bank).expect("present").insert(*done, line, entry);
        if let Some((vline, ventry)) = victim {
            *done = (*done).max(access::directory_eviction(self, bank, vline, ventry, *done));
        }
    }

    /// Case 4b/5b: demand writebacks from every writer (merged at the L3 by
    /// per-word dirty masks, in deterministic cluster order), invalidate all
    /// copies.
    fn merge_writers(
        &mut self,
        bank: BankId,
        line: LineAddr,
        writers: &[ClusterId],
        readers: &[ClusterId],
        t: Cycle,
        mut done: Cycle,
    ) -> Cycle {
        for &wcl in writers {
            let t_at_l2 = self.noc.reply(bank, wcl, t);
            if let Some(ev) = self.l2(wcl).invalidate(line) {
                access::l3_write_words(self, bank, line, &ev.data, ev.dirty_words, t_at_l2);
            }
            access::back_invalidate_l1(self, wcl, line);
            access::note_msg(self, wcl, line, MessageClass::ProbeResponse, t_at_l2);
            done = done.max(self.noc.request(wcl, bank, t_at_l2));
        }
        for &r in readers {
            done = done.max(access::probe(self, bank, r, line, true, true, t));
        }
        done
    }

    // ------------------------------------------------------------------
    // Accessors for reporting / verification
    // ------------------------------------------------------------------

    /// L2 output messages of one cluster, by class.
    ///
    /// # Panics
    ///
    /// Panics for an unknown cluster.
    pub fn messages_of(&self, cluster: ClusterId) -> &MessageCounts {
        &self.clusters[cluster.0 as usize].msgs
    }

    /// SWcc coherence-instruction counters of one cluster.
    ///
    /// # Panics
    ///
    /// Panics for an unknown cluster.
    pub fn instr_stats_of(&self, cluster: ClusterId) -> &CoherenceInstrStats {
        &self.clusters[cluster.0 as usize].instr_stats
    }

    /// Sum of all L2 output messages, by class.
    pub fn total_messages(&self) -> MessageCounts {
        let mut total = MessageCounts::new();
        for c in &self.clusters {
            total.merge(&c.msgs);
        }
        total
    }

    /// Aggregate SWcc coherence-instruction usefulness counters.
    pub fn coherence_instr_stats(&self) -> CoherenceInstrStats {
        let mut total = CoherenceInstrStats::new();
        for c in &self.clusters {
            total.merge(&c.instr_stats);
        }
        total
    }

    /// `(avg_total, max_total, [avg_code, avg_heap_global, avg_stack])`
    /// directory occupancy over `[0, end]`, summed over banks.
    pub fn directory_occupancy(&self, end: Cycle) -> (f64, u64, [f64; 3]) {
        let mut avg = 0.0;
        let mut max = 0;
        let mut by_class = [0.0; 3];
        for d in self.dirs() {
            avg += d.average_occupancy(end);
            max += d.max_occupancy();
            for (i, class) in EntryClass::ALL.iter().enumerate() {
                by_class[i] += d.average_occupancy_of(*class, end);
            }
        }
        (avg, max, by_class)
    }

    /// `(insertions, capacity evictions)` summed over directory banks.
    pub fn directory_churn(&self) -> (u64, u64) {
        self.dirs().fold((0, 0), |(i, e), d| {
            let (di, de) = d.churn();
            (i + di, e + de)
        })
    }

    /// Detected case-5b races.
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    /// `(to_swcc, to_hwcc)` transition counts.
    pub fn transition_counts(&self) -> (u64, u64) {
        (self.transitions_to_sw, self.transitions_to_hw)
    }

    /// `(accesses, row_hits)` at the DRAM.
    pub fn dram_stats(&self) -> (u64, u64) {
        self.dram.stats()
    }

    /// `(request-direction, reply-direction)` messages carried by the NoC.
    ///
    /// Every message counted in the Figure 2/8 taxonomy traverses the
    /// request direction exactly once, so `noc_stats().0` must equal
    /// [`Machine::total_messages`]`().total()` — a conservation invariant
    /// the test suite checks.
    pub fn noc_stats(&self) -> (u64, u64) {
        (self.noc.requests_sent(), self.noc.replies_sent())
    }

    /// The machine's telemetry registry (disarmed unless
    /// [`MachineConfig::metrics`] was set).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Mutable access to the telemetry registry, for layers above the
    /// machine (the run loop records event-queue statistics here).
    pub fn metrics_mut(&mut self) -> &mut Registry {
        &mut self.metrics
    }

    /// Notes a barrier boundary at cycle `now` for the telemetry marks:
    /// records the cumulative message count, so per-barrier-interval
    /// traffic is the difference between consecutive marks. No-op when
    /// telemetry is disarmed.
    pub fn note_barrier(&mut self, now: Cycle) {
        if self.metrics.is_armed() {
            let total = self.total_messages().total();
            self.metrics.mark("barrier/messages", now, total);
            let occ = self.dir_occupancy();
            self.metrics.mark("barrier/dir_occupancy", now, occ);
        }
    }

    /// Summarizes the telemetry registry plus the derived per-cluster,
    /// per-bank, interconnect, and DRAM breakdowns into a
    /// finalized [`Snapshot`], or `None` when telemetry is disarmed.
    ///
    /// Everything here is read from counters the machine maintains anyway
    /// (no cache is accessed, no LRU state touched), so snapshotting never
    /// perturbs the simulation.
    pub fn metrics_snapshot(&self, end: Cycle) -> Option<Snapshot> {
        if !self.metrics.is_armed() {
            return None;
        }
        fn class_slug(class: MessageClass) -> &'static str {
            match class {
                MessageClass::ReadRequest => "read_request",
                MessageClass::WriteRequest => "write_request",
                MessageClass::InstructionRequest => "instruction_request",
                MessageClass::UncachedAtomic => "uncached_atomic",
                MessageClass::CacheEviction => "cache_eviction",
                MessageClass::SoftwareFlush => "software_flush",
                MessageClass::ReadRelease => "read_release",
                MessageClass::ProbeResponse => "probe_response",
            }
        }
        let mut s = self.metrics.snapshot();
        s.push_gauge("run/cycles", end as f64);

        // Per-cluster message breakdown (the Figure 2/8 taxonomy, but per
        // cluster instead of machine-wide).
        for (c, tile) in self.clusters.iter().enumerate() {
            s.push_counter(format!("cluster/{c:03}/messages_total"), tile.msgs.total());
            for (class, n) in tile.msgs.iter() {
                if n > 0 {
                    s.push_counter(format!("cluster/{c:03}/messages/{}", class_slug(class)), n);
                }
            }
            s.push_counter(
                format!("cluster/{c:03}/l2_port_grants"),
                tile.l2_port.grants(),
            );
        }
        let instr = self.coherence_instr_stats();
        s.push_counter("swcc/invalidations_issued", instr.invalidations_issued);
        s.push_counter("swcc/invalidations_useful", instr.invalidations_useful);
        s.push_counter("swcc/writebacks_issued", instr.writebacks_issued);
        s.push_counter("swcc/writebacks_useful", instr.writebacks_useful);

        // Per-L3-bank occupancy/traffic breakdown.
        for (b, bank) in self.banks.iter().enumerate() {
            let (hits, misses, evictions) = bank.l3.stats();
            s.push_counter(format!("bank/{b:03}/l3_hits"), hits);
            s.push_counter(format!("bank/{b:03}/l3_misses"), misses);
            s.push_counter(format!("bank/{b:03}/l3_evictions"), evictions);
            s.push_counter(format!("bank/{b:03}/port_grants"), bank.port.grants());
            if let Some(d) = &bank.dir {
                s.push_gauge(format!("bank/{b:03}/dir_avg_occupancy"), d.average_occupancy(end));
                s.push_counter(format!("bank/{b:03}/dir_max_occupancy"), d.max_occupancy());
                let (ins, ev) = d.churn();
                s.push_counter(format!("bank/{b:03}/dir_insertions"), ins);
                s.push_counter(format!("bank/{b:03}/dir_evictions"), ev);
            }
        }
        if self.banks.iter().any(|b| b.table_cache.is_some()) {
            let (hits, misses, evictions) =
                sum_stats(self.banks.iter().filter_map(|b| b.table_cache.as_ref()));
            s.push_counter("table_cache/hits", hits);
            s.push_counter("table_cache/misses", misses);
            s.push_counter("table_cache/evictions", evictions);
        }

        // Interconnect utilization, per link and total.
        let (req, rep) = self.noc_stats();
        s.push_counter("noc/requests_sent", req);
        s.push_counter("noc/replies_sent", rep);
        for (label, sent) in self.noc.link_utilization() {
            if sent > 0 {
                s.push_counter(format!("noc/link/{label}"), sent);
            }
        }

        let (accesses, row_hits) = self.dram_stats();
        s.push_counter("dram/accesses", accesses);
        s.push_counter("dram/row_hits", row_hits);

        s.push_counter("transitions/to_swcc", self.transitions_to_sw);
        s.push_counter("transitions/to_hwcc", self.transitions_to_hw);
        s.push_counter("races/detected", self.races.len() as u64);

        s.finalize();
        Some(s)
    }

    /// Aggregate L3 `(hits, misses, evictions)`.
    pub fn l3_stats(&self) -> (u64, u64, u64) {
        sum_stats(self.banks.iter().map(|b| &b.l3))
    }

    /// Aggregate L2 `(hits, misses, evictions)`.
    pub fn l2_stats(&self) -> (u64, u64, u64) {
        sum_stats(self.clusters.iter().map(|c| &c.l2))
    }

    /// Flushes every dirty line in the L2s and L3s down to backing memory,
    /// *without* timing or message accounting — verification plumbing only,
    /// used once after the program completes to compare against the golden
    /// result.
    pub fn drain_for_verification(&mut self) {
        // L3 first (older data), then L2 (newest writes win).
        let l3s = self.banks.iter_mut().map(|b| &mut b.l3);
        for cache in l3s.chain(self.clusters.iter_mut().map(|c| &mut c.l2)) {
            for l in cache.iter_lines_mut() {
                if l.dirty_words != 0 {
                    self.mem.write_line_masked(l.addr, &l.data, l.dirty_words);
                    l.clean();
                }
            }
        }
    }

    /// Test support: a digest of everything the machine knows about `line`
    /// — its coherence-domain bit, every cached copy (L1d, L2, L3, and the
    /// dedicated table cache when configured), the home directory entry,
    /// and the line's words in backing memory — plus the same view of the
    /// fine-grain-table line whose bit governs it (domain transitions
    /// mutate that line through the same memory system).
    ///
    /// Two machines with equal digests are indistinguishable to any
    /// schedule confined to `line` that never evicts for capacity: LRU
    /// stamps, timing state, and statistics are deliberately excluded so
    /// that model checkers can deduplicate interleavings that differ only
    /// in when things happened.
    #[doc(hidden)]
    pub fn line_state_digest(&self, line: LineAddr) -> u64 {
        use std::hash::Hasher as _;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash_line_into(line, &mut h);
        if let Some(p) = process_of(&self.processes, line.base()) {
            self.hash_line_into(p.fine.slot_of(line).word.line(), &mut h);
        }
        h.finish()
    }

    fn hash_line_into<H: std::hash::Hasher>(&self, line: LineAddr, h: &mut H) {
        use std::hash::Hash as _;
        fn hw_tag(s: HwState) -> u8 {
            match s {
                HwState::Invalid => 0,
                HwState::Shared => 1,
                HwState::Exclusive => 2,
                HwState::Modified => 3,
            }
        }
        fn cache_view<H: std::hash::Hasher>(c: &Cache, line: LineAddr, h: &mut H) {
            use std::hash::Hash as _;
            match c.peek(line) {
                None => 0u8.hash(h),
                Some(l) => {
                    1u8.hash(h);
                    l.valid_words.hash(h);
                    l.dirty_words.hash(h);
                    hw_tag(l.state).hash(h);
                    l.incoherent.hash(h);
                    for (i, w) in l.data.iter().enumerate() {
                        if l.word_valid(i) {
                            w.hash(h);
                        }
                    }
                }
            }
        }
        (self.domain_of(line) == Domain::SWcc).hash(h);
        let l1ds = self.clusters.iter().flat_map(|c| &c.l1d);
        let l2s = self.clusters.iter().map(|c| &c.l2);
        let l3s = self.banks.iter().map(|b| &b.l3);
        let table_caches = self.banks.iter().filter_map(|b| b.table_cache.as_ref());
        for c in l1ds.chain(l2s).chain(l3s).chain(table_caches) {
            cache_view(c, line, h);
        }
        if let Some(dir) = &self.banks[self.map.bank_of(line) as usize].dir {
            match dir.peek(line) {
                None => 0u8.hash(h),
                Some(e) => {
                    1u8.hash(h);
                    (e.state == DirState::Modified).hash(h);
                    e.sharers.is_broadcast().hash(h);
                    for cl in e.sharers.probe_targets(self.cfg.clusters()) {
                        cl.0.hash(h);
                    }
                }
            }
        }
        for w in 0..WORDS_PER_LINE {
            self.mem.read_word(line.word(w)).hash(h);
        }
    }

    /// Checks the directory-inclusion invariant: every HWcc line resident in
    /// an L2 is tracked by its home directory with that cluster as a
    /// sharer, and every Modified directory entry has exactly one holder.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on the first violated invariant. Intended
    /// for tests; O(total cached lines).
    pub fn check_invariants(&self) {
        if self.dirs().next().is_none() {
            return;
        }
        for (c, tile) in self.clusters.iter().enumerate() {
            for line in tile.l2.iter_lines() {
                if line.incoherent {
                    continue;
                }
                let bank = self.map.bank_of(line.addr) as usize;
                let entry = self.banks[bank]
                    .dir
                    .as_ref()
                    .and_then(|d| d.peek(line.addr))
                    .unwrap_or_else(|| panic!("HWcc line {} in {} untracked", line.addr, c));
                assert!(
                    entry.sharers.may_contain(ClusterId(c as u32)),
                    "directory does not list cluster {c} for {}",
                    line.addr
                );
                if line.dirty_words != 0
                    || line.state == HwState::Modified
                    || line.state == HwState::Exclusive
                {
                    assert_eq!(
                        entry.state,
                        DirState::Modified,
                        "dirty/exclusive HWcc line {} without an owned entry",
                        line.addr
                    );
                }
            }
        }
        // Cohesion exclusivity: a line the fine-grain table calls SWcc must
        // never be directory-tracked (transitions are serialized at the
        // home bank, so outside a transition this is exact).
        if self.cfg.design.mode == CohMode::Cohesion {
            for d in self.dirs() {
                for (line, _) in d.iter() {
                    assert_eq!(
                        self.domain_of(line),
                        Domain::HWcc,
                        "directory entry for SWcc-domain {line}"
                    );
                }
            }
        }
        for (b, d) in self.dirs().enumerate() {
            for (line, entry) in d.iter() {
                if entry.state == DirState::Modified && !entry.sharers.is_broadcast() {
                    let holders = entry
                        .sharers
                        .probe_targets(self.cfg.clusters())
                        .into_iter()
                        .filter(|cl| {
                            self.clusters[cl.0 as usize]
                                .l2
                                .peek(line)
                                .map(|l| !l.incoherent)
                                .unwrap_or(false)
                        })
                        .count();
                    assert!(
                        holders <= 1,
                        "bank {b}: modified {line} held by {holders} clusters"
                    );
                }
            }
        }
    }
}

impl Access for Machine {
    const GUARDED: bool = false;

    fn config(&self) -> &MachineConfig {
        &self.cfg
    }
    fn map(&self) -> &AddressMap {
        &self.map
    }
    fn processes(&self) -> &[ProcessCtx] {
        &self.processes
    }
    fn mem(&self) -> &MainMemory {
        &self.mem
    }
    fn l1i(&mut self, core: CoreId) -> &mut Cache {
        let (c, i) = self.core_slot(core);
        &mut self.clusters[c].l1i[i]
    }
    fn l1d(&mut self, core: CoreId) -> &mut Cache {
        let (c, i) = self.core_slot(core);
        &mut self.clusters[c].l1d[i]
    }
    fn l2(&mut self, cluster: ClusterId) -> &mut Cache {
        &mut self.clusters[cluster.0 as usize].l2
    }
    fn l2_port(&mut self, cluster: ClusterId) -> &mut Throttle {
        &mut self.clusters[cluster.0 as usize].l2_port
    }
    fn l2_msgs(&mut self, cluster: ClusterId) -> &mut MessageCounts {
        &mut self.clusters[cluster.0 as usize].msgs
    }
    fn instr_stats(&mut self, cluster: ClusterId) -> &mut CoherenceInstrStats {
        &mut self.clusters[cluster.0 as usize].instr_stats
    }
    fn l3(&mut self, bank: BankId) -> &mut Cache {
        &mut self.banks[bank.0 as usize].l3
    }
    fn l3_port(&mut self, bank: BankId) -> &mut Throttle {
        &mut self.banks[bank.0 as usize].port
    }
    fn dir(&mut self, bank: BankId) -> Option<&mut DirectoryBank> {
        self.banks[bank.0 as usize].dir.as_mut()
    }
    fn table_cache(&mut self, bank: BankId) -> Option<&mut Cache> {
        self.banks[bank.0 as usize].table_cache.as_mut()
    }
    fn request(&mut self, cluster: ClusterId, bank: BankId, now: Cycle) -> Cycle {
        self.noc.request(cluster, bank, now)
    }
    fn reply(&mut self, bank: BankId, cluster: ClusterId, now: Cycle) -> Cycle {
        self.noc.reply(bank, cluster, now)
    }

    fn dram_fill(&mut self, bank: BankId, line: LineAddr, t: &mut Cycle) -> [u32; WORDS_PER_LINE] {
        let data = self.mem.read_line(line);
        let svc = self.timeline.start();
        *t = self.dram.access(*t, line).max(*t);
        self.timeline.service("dram_service", svc, *t);
        let (fresh, victim) = self.l3(bank).allocate(line);
        fresh.fill_masked(&data, 0xff);
        // A dirty L3 victim spills to memory.
        if let Some(v) = victim.filter(|v| v.dirty_words != 0) {
            self.dram_write(v.addr, &v.data, v.dirty_words, *t);
        }
        data
    }

    fn dram_write(&mut self, line: LineAddr, data: &[u32; WORDS_PER_LINE], mask: u8, t: Cycle) {
        self.mem.write_line_masked(line, data, mask);
        // Posted write: charge DRAM bandwidth, do not block the caller.
        self.dram.posted_write(t, line);
    }

    fn uncached_atomic(
        &mut self,
        cluster: ClusterId,
        addr: Addr,
        kind: AtomicKind,
        operand: u32,
        t: Cycle,
    ) -> Result<Cycle, Stop> {
        self.atomic(cluster, addr, kind, operand, t)
            .map(|(t, _)| t)
            .map_err(Stop::Fail)
    }

    fn metrics_mut(&mut self) -> &mut Registry {
        &mut self.metrics
    }
    fn profiler(&mut self) -> Option<&mut RegionProfiler> {
        (!self.profiler.is_empty()).then_some(&mut self.profiler)
    }
    fn trace(&mut self, t: Cycle, line: LineAddr, event: LineEvent) {
        self.timeline.line(t, line.0, event);
    }
    fn span_start(&self) -> Option<u64> {
        self.timeline.start()
    }
    fn l3_serviced(&mut self, start: Option<u64>, issued: Cycle) {
        self.timeline.service("l3_service", start, issued);
    }
}

/// Sums `(hits, misses, evictions)` over `caches`.
fn sum_stats<'a>(caches: impl Iterator<Item = &'a Cache>) -> (u64, u64, u64) {
    caches.fold((0, 0, 0), |(h, m, e), c| {
        let (ch, cm, ce) = c.stats();
        (h + ch, m + cm, e + ce)
    })
}

/// Unwraps the result of an operation the machine ran. The machine's
/// guard is compiled out, so it never refuses.
fn admitted<T>(r: Result<T, EscalationCause>) -> T {
    r.unwrap_or_else(|cause| unreachable!("the machine refused an operation ({})", cause.label()))
}

// ----------------------------------------------------------------------
// Region-table helpers, shared by the machine and its lane views
// ----------------------------------------------------------------------

/// The process context owning `addr`, if any (processes own their
/// slices; the tables themselves belong to their process).
fn process_of(processes: &[ProcessCtx], addr: Addr) -> Option<&ProcessCtx> {
    processes
        .iter()
        .find(|p| p.layout.owns(addr) || p.fine.covers(addr))
}

/// The directory entry class of `line` (code, heap/global, stack).
pub(crate) fn classify(processes: &[ProcessCtx], line: LineAddr) -> EntryClass {
    match process_of(processes, line.base()) {
        Some(p) => p.layout.classify(line.base()),
        None => EntryClass::HeapGlobal,
    }
}

/// How far a directory miss's region-table walk (§3.4) gets before the
/// domain is known.
pub(crate) enum Walk {
    /// The design point settles it: pure HWcc or SWcc, or a line outside
    /// every process slice (runtime scratch: HWcc, no table to consult).
    Settled(Domain),
    /// A coarse-table hit: SWcc.
    Coarse,
    /// The fine-grain table must be read.
    Fine(FineTable),
}

/// The pure part of a directory miss's region-table walk for `line`.
pub(crate) fn region_walk(mode: CohMode, processes: &[ProcessCtx], line: LineAddr) -> Walk {
    match (mode, process_of(processes, line.base())) {
        (CohMode::HWcc, _) | (CohMode::Cohesion, None) => Walk::Settled(Domain::HWcc),
        (CohMode::SWcc, _) => Walk::Settled(Domain::SWcc),
        (CohMode::Cohesion, Some(p)) if p.coarse.lookup(line.base()).is_some() => Walk::Coarse,
        (CohMode::Cohesion, Some(p)) => Walk::Fine(p.fine),
    }
}

/// Resolves the coherence domain of `line` as the hardware would (coarse
/// table, then fine table; HWcc default) from borrowed machine parts,
/// so the machine and its lane views share it.
pub(crate) fn resolve_domain(
    mode: CohMode,
    processes: &[ProcessCtx],
    mem: &MainMemory,
    line: LineAddr,
) -> Domain {
    match region_walk(mode, processes, line) {
        Walk::Settled(domain) => domain,
        // The table itself is never L2-cached; treat as SWcc.
        Walk::Coarse => Domain::SWcc,
        Walk::Fine(fine) if fine.covers(line.base()) => Domain::SWcc,
        Walk::Fine(fine) => fine.domain(mem, line),
    }
}

// ----------------------------------------------------------------------
// Sharded execution: per-cluster lanes
// ----------------------------------------------------------------------

/// One cluster's view of the machine, usable concurrently with the
/// other lanes' views in phase A of the sharded executor.
///
/// A lane reaches its cluster tile (the cores' L1s, the L2, its port
/// throttle, its message and instruction counters and its recorders),
/// **the bank tiles it owns under the static [`BankOwnership`]
/// partition** (each an L3 bank with its port throttle, directory slice
/// and table cache) with their direct NoC links, and shared read-only
/// configuration, region tables, and backing memory. The run loop drives
/// the very operation bodies the [`Machine`] runs through a lane; the
/// lane only adds a guard in front of each. The guard peeks at lane
/// state and refuses, with the [`EscalationCause`] of the first resource
/// out of reach, every operation whose action would touch anything else:
/// a DRAM access, another lane's bank, a probe to another cluster, a
/// directory victim, an uncached atomic, the region profiler.
///
/// A refusal leaves no trace, so the serial replay on the machine
/// observes exactly the state a serial-only engine would have produced
/// for that operation. Ownership decisions depend only on the
/// config-fixed [`AddressMap`] home function and the cluster count —
/// never on host threads — so the phase-A/B split remains a function of
/// simulated state alone.
#[derive(Debug)]
pub struct LaneCtx<'a> {
    id: ClusterId,
    cluster: &'a mut Cluster,
    /// Owned bank tiles, in slot order (`BankOwnership::slot_of`).
    banks: Vec<&'a mut Bank>,
    /// Direct links between this lane's cluster and its owned banks.
    noc: LaneNoc<'a>,
    cfg: &'a MachineConfig,
    map: AddressMap,
    ownership: BankOwnership,
    /// A region profiler (machine-global state) is armed: the guard
    /// refuses every operation that would feed it.
    profiled: bool,
    processes: &'a [ProcessCtx],
    mem: &'a MainMemory,
}

impl LaneCtx<'_> {
    /// The cluster this lane simulates.
    pub fn cluster(&self) -> ClusterId {
        self.id
    }

    /// The lane's timeline (phase A spans, escalation events).
    pub fn timeline(&mut self) -> &mut Timeline {
        &mut self.cluster.timeline
    }

    /// Core index within this lane's cluster tile.
    fn local(&self, core: CoreId) -> usize {
        debug_assert_eq!(self.id, core.cluster(self.cfg.cores_per_cluster));
        (core.0 - self.id.0 * self.cfg.cores_per_cluster) as usize
    }

    /// The owned bank tile of `bank`.
    fn bank(&self, bank: u32) -> &Bank {
        self.banks[self.ownership.slot_of(bank)]
    }

    /// The owned bank tile of `bank`, to act on.
    fn bank_mut(&mut self, bank: BankId) -> &mut Bank {
        debug_assert!(
            self.ownership.owns(self.id.0, bank.0),
            "lane reached an unowned bank"
        );
        self.banks[self.ownership.slot_of(bank.0)]
    }

    /// Guard for an L2-miss line fetch of `line`: the home bank must be
    /// lane-owned, the L3 must hold the line (a miss would fill from the
    /// shared DRAM model), and the directory transition must be
    /// slice-local — no probes to other clusters, no directory victim.
    fn fetch_ok(&self, line: LineAddr, exclusive: bool) -> Result<(), EscalationCause> {
        use EscalationCause::{Directory, L3Local, L3Remote};
        let bank = self.map.bank_of(line);
        if !self.ownership.owns(self.id.0, bank) {
            return Err(L3Remote);
        }
        let bank = self.bank(bank);
        // The profiler (machine-global), owned-bank servicing switched
        // off, or a DRAM fill.
        if self.profiled || !self.cfg.lane_owned_l3 || bank.l3.peek(line).is_none() {
            return Err(L3Local);
        }
        let Some(dir) = bank.dir.as_ref() else {
            return Ok(()); // SWcc design point: no directory at all
        };
        if let Some(e) = dir.peek(line) {
            let others = e
                .sharers
                .probe_targets(self.cfg.clusters())
                .into_iter()
                .any(|c| c != self.id);
            return if others && (exclusive || e.state == DirState::Modified) {
                Err(Directory) // probes to other clusters
            } else {
                Ok(())
            };
        }
        // Directory miss: the region-table walk, by pure reads.
        let domain = match region_walk(self.cfg.design.mode, self.processes, line) {
            Walk::Settled(domain) => domain,
            Walk::Coarse => Domain::SWcc,
            Walk::Fine(fine) => {
                let slot = fine.slot_of(line);
                let tline = slot.word.line();
                let tc_hit = bank
                    .table_cache
                    .as_ref()
                    .is_some_and(|tc| tc.peek(tline).is_some());
                if !tc_hit && bank.l3.peek(tline).is_none() {
                    return Err(L3Local); // the table line needs a DRAM fill
                }
                fine.domain_at(self.mem, slot)
            }
        };
        if domain == Domain::HWcc && dir.insert_victim_preview(line).is_some() {
            return Err(Directory); // the victim's sharers need probes
        }
        Ok(())
    }

    /// Guard for the L2 victim that allocating `line` would displace:
    /// none, or a clean line dropped without a message, is always local;
    /// otherwise its writeback or read release must stay in the lane.
    fn victim_ok(&self, line: LineAddr) -> Result<(), EscalationCause> {
        match self.cluster.l2.victim_preview(line) {
            Some(v) if v.dirty_words != 0 || !(v.incoherent || self.cfg.silent_evictions) => {
                self.release_ok(v.addr, v.dirty_words != 0)
            }
            _ => Ok(()),
        }
    }

    /// Guard for a writeback (`dirty`) or read release of `line` to its
    /// home bank: the bank must be lane-owned and a writeback must merge
    /// into an L3-resident line (a miss writes through to the shared
    /// DRAM model).
    fn release_ok(&self, line: LineAddr, dirty: bool) -> Result<(), EscalationCause> {
        if self.profiled {
            return Err(EscalationCause::L3Local); // the message feeds the profiler
        }
        let bank = self.map.bank_of(line);
        if !self.ownership.owns(self.id.0, bank) {
            return Err(EscalationCause::Noc);
        }
        if dirty && self.bank(bank).l3.peek(line).is_none() {
            return Err(EscalationCause::L3Local);
        }
        Ok(())
    }
}

impl Access for LaneCtx<'_> {
    const GUARDED: bool = true;

    fn guard(&self, op: Guard) -> Result<(), EscalationCause> {
        match op {
            Guard::Load(core, addr) => {
                let (line, w) = (addr.line(), addr.word_index());
                let c = &self.cluster;
                let in_l1 = c.l1d[self.local(core)]
                    .peek(line)
                    .is_some_and(|l| l.word_valid(w));
                if in_l1 || c.l2.peek(line).is_some_and(|l| l.word_valid(w)) {
                    return Ok(());
                }
                self.fetch_ok(line, false)?;
                match c.l2.peek(line) {
                    Some(_) => Ok(()), // a partial line fills in place
                    None => self.victim_ok(line),
                }
            }
            Guard::Ifetch(core, addr) => {
                let line = addr.line();
                let c = &self.cluster;
                let cached =
                    c.l1i[self.local(core)].peek(line).is_some() || c.l2.peek(line).is_some();
                if cached {
                    return Ok(());
                }
                self.fetch_ok(line, false)?;
                self.victim_ok(line)
            }
            Guard::Store(addr) => {
                let line = addr.line();
                match self.cluster.l2.peek(line) {
                    Some(l) if l.incoherent || matches!(l.state, HwState::Exclusive | HwState::Modified) => Ok(()),
                    Some(_) => self.fetch_ok(line, true), // ownership upgrade
                    None => match resolve_domain(self.cfg.design.mode, self.processes, self.mem, line) {
                        Domain::SWcc if self.cfg.word_granular_swcc => self.victim_ok(line),
                        // Line-granular ablation: a fetch before the write,
                        // which the lane never services.
                        Domain::SWcc => self.fetch_ok(line, false).and(Err(EscalationCause::L3Local)),
                        Domain::HWcc => {
                            self.fetch_ok(line, true)?;
                            self.victim_ok(line)
                        }
                    },
                }
            }
            Guard::Flush(line) => match self.cluster.l2.peek(line) {
                Some(l) if l.incoherent && l.dirty_words != 0 => self.release_ok(line, true),
                _ => Ok(()),
            },
            Guard::Invalidate if self.profiled => Err(EscalationCause::L3Local),
            Guard::Invalidate => Ok(()),
        }
    }

    fn config(&self) -> &MachineConfig {
        self.cfg
    }
    fn map(&self) -> &AddressMap {
        &self.map
    }
    fn processes(&self) -> &[ProcessCtx] {
        self.processes
    }
    fn mem(&self) -> &MainMemory {
        self.mem
    }
    fn l1i(&mut self, core: CoreId) -> &mut Cache {
        let i = self.local(core);
        &mut self.cluster.l1i[i]
    }
    fn l1d(&mut self, core: CoreId) -> &mut Cache {
        let i = self.local(core);
        &mut self.cluster.l1d[i]
    }
    fn l2(&mut self, cluster: ClusterId) -> &mut Cache {
        debug_assert_eq!(cluster, self.id);
        &mut self.cluster.l2
    }
    fn l2_port(&mut self, cluster: ClusterId) -> &mut Throttle {
        debug_assert_eq!(cluster, self.id);
        &mut self.cluster.l2_port
    }
    fn l2_msgs(&mut self, cluster: ClusterId) -> &mut MessageCounts {
        debug_assert_eq!(cluster, self.id);
        &mut self.cluster.msgs
    }
    fn instr_stats(&mut self, cluster: ClusterId) -> &mut CoherenceInstrStats {
        debug_assert_eq!(cluster, self.id);
        &mut self.cluster.instr_stats
    }
    fn l3(&mut self, bank: BankId) -> &mut Cache {
        &mut self.bank_mut(bank).l3
    }
    fn l3_port(&mut self, bank: BankId) -> &mut Throttle {
        &mut self.bank_mut(bank).port
    }
    fn dir(&mut self, bank: BankId) -> Option<&mut DirectoryBank> {
        self.bank_mut(bank).dir.as_mut()
    }
    fn table_cache(&mut self, bank: BankId) -> Option<&mut Cache> {
        self.bank_mut(bank).table_cache.as_mut()
    }
    fn request(&mut self, cluster: ClusterId, bank: BankId, now: Cycle) -> Cycle {
        self.noc.request(cluster, bank, now)
    }
    fn reply(&mut self, bank: BankId, cluster: ClusterId, now: Cycle) -> Cycle {
        self.noc.reply(bank, cluster, now)
    }
    fn dram_fill(&mut self, _: BankId, _: LineAddr, _: &mut Cycle) -> [u32; WORDS_PER_LINE] {
        unreachable!("the lane guard admitted a DRAM fill")
    }
    fn dram_write(&mut self, _: LineAddr, _: &[u32; WORDS_PER_LINE], _: u8, _: Cycle) {
        unreachable!("the lane guard admitted a DRAM write-through")
    }
    fn uncached_atomic(&mut self, _: ClusterId, _: Addr, _: AtomicKind, _: u32, _: Cycle) -> Result<Cycle, Stop> {
        Err(EscalationCause::Atomic.into()) // uncached by design: serial
    }
    fn metrics_mut(&mut self) -> &mut Registry {
        &mut self.cluster.metrics
    }
    fn profiler(&mut self) -> Option<&mut RegionProfiler> {
        None // the guard refused whatever would feed it
    }
    fn trace(&mut self, t: Cycle, line: LineAddr, event: LineEvent) {
        self.cluster.timeline.line(t, line.0, event);
    }
    fn span_start(&self) -> Option<u64> {
        self.cluster.timeline.start()
    }
    fn l3_serviced(&mut self, start: Option<u64>, issued: Cycle) {
        self.cluster.timeline.service("l3_service", start, issued);
        self.cluster.timeline.note_l3_fast();
    }
}

impl Machine {
    /// Splits the machine into one [`LaneCtx`] per cluster: its cluster
    /// tile, **the bank tiles it owns under the static [`BankOwnership`]
    /// partition** (dealt in slot order, the order in which
    /// [`Noc::lanes`] deals their direct links), its share of the NoC,
    /// and shared read-only state. The lanes borrow disjoint tiles, so
    /// they can be driven concurrently; `MainMemory` is `Sync` by design.
    pub fn lanes(&mut self) -> Vec<LaneCtx<'_>> {
        let profiled = !self.profiler.is_empty();
        let Machine {
            cfg,
            map,
            processes,
            mem,
            clusters,
            banks,
            noc,
            ..
        } = self;
        let (cfg, processes, mem): (&MachineConfig, &[ProcessCtx], &MainMemory) =
            (cfg, processes, mem);
        let ownership = noc.ownership();
        debug_assert_eq!(ownership.lanes() as usize, clusters.len());
        let mut dealt: Vec<Vec<&mut Bank>> = clusters.iter().map(|_| Vec::new()).collect();
        for (b, bank) in banks.iter_mut().enumerate() {
            dealt[ownership.lane_of(b as u32) as usize].push(bank);
        }
        clusters
            .iter_mut()
            .zip(dealt)
            .zip(noc.lanes())
            .enumerate()
            .map(|(c, ((cluster, banks), noc))| LaneCtx {
                id: ClusterId(c as u32),
                cluster,
                banks,
                noc,
                cfg,
                map: *map,
                ownership,
                profiled,
                processes,
                mem,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DesignPoint;
    use cohesion_runtime::layout::{Layout, LayoutConfig};

    fn machine(dp: DesignPoint) -> Machine {
        let layout = Layout::new(&LayoutConfig::new(16));
        let mut m = Machine::new(MachineConfig::scaled(16, dp), layout);
        m.boot();
        m
    }

    fn heap_addr(m: &Machine, off: u32) -> Addr {
        Addr(m.layout().coherent_heap.start.0 + off)
    }

    fn inc_addr(m: &Machine, off: u32) -> Addr {
        Addr(m.layout().incoherent_heap.start.0 + off)
    }

    #[test]
    fn store_then_load_roundtrip_hwcc() {
        let mut m = machine(DesignPoint::hwcc_ideal());
        let a = heap_addr(&m, 0x100);
        let t = m.store(CoreId(0), a, 0xfeed, 0);
        let (t2, v) = m.load(CoreId(0), a, t);
        assert_eq!(v, 0xfeed);
        assert!(t2 > 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_a_cluster_size_that_is_not_a_power_of_two() {
        let mut cfg = MachineConfig::scaled(16, DesignPoint::hwcc_ideal());
        cfg.cores = 12;
        cfg.cores_per_cluster = 6;
        Machine::new(cfg, Layout::new(&LayoutConfig::new(12)));
    }

    #[test]
    fn swcc_store_miss_sends_no_message() {
        let mut m = machine(DesignPoint::swcc());
        let a = heap_addr(&m, 0x40);
        m.store(CoreId(0), a, 7, 0);
        assert_eq!(m.total_messages().total(), 0, "write-allocate, no fill (§2.1)");
    }

    #[test]
    fn hwcc_store_miss_sends_write_request() {
        let mut m = machine(DesignPoint::hwcc_ideal());
        let a = heap_addr(&m, 0x40);
        m.store(CoreId(0), a, 7, 0);
        assert_eq!(m.total_messages().count(MessageClass::WriteRequest), 1);
    }

    #[test]
    fn cross_cluster_read_of_modified_line_probes_owner() {
        let mut m = machine(DesignPoint::hwcc_ideal());
        let a = heap_addr(&m, 0x80);
        m.store(CoreId(0), a, 0xabc, 0); // cluster 0 owns M
        let (_, v) = m.load(CoreId(15), a, 1000); // cluster 1 reads
        assert_eq!(v, 0xabc, "directory pulls the dirty data");
        assert_eq!(
            m.total_messages().count(MessageClass::ProbeResponse),
            1,
            "the owner responded to a downgrade probe"
        );
        m.check_invariants();
    }

    #[test]
    fn cross_cluster_write_invalidates_reader() {
        let mut m = machine(DesignPoint::hwcc_ideal());
        let a = heap_addr(&m, 0xC0);
        let (t, _) = m.load(CoreId(0), a, 0); // cluster 0 shared
        m.store(CoreId(15), a, 9, t + 100); // cluster 1 takes ownership
        let (_, v) = m.load(CoreId(0), a, t + 5000); // cluster 0 re-reads
        assert_eq!(v, 9, "reader refetched the new value");
        m.check_invariants();
    }

    #[test]
    fn swcc_flush_pushes_dirty_words_to_l3() {
        let mut m = machine(DesignPoint::swcc());
        let a = heap_addr(&m, 0x100);
        let t = m.store(CoreId(0), a, 0x77, 0);
        let t = m.flush(CoreId(0), a.line(), t);
        assert_eq!(m.total_messages().count(MessageClass::SoftwareFlush), 1);
        // Another cluster reads through the L3 and sees the flushed value.
        let (_, v) = m.load(CoreId(15), a, t + 1000);
        assert_eq!(v, 0x77);
    }

    #[test]
    fn swcc_flush_of_clean_line_is_wasted() {
        let mut m = machine(DesignPoint::swcc());
        let a = heap_addr(&m, 0x140);
        let (t, _) = m.load(CoreId(0), a, 0);
        m.flush(CoreId(0), a.line(), t);
        let stats = m.coherence_instr_stats();
        assert_eq!(stats.writebacks_issued, 1);
        assert_eq!(stats.writebacks_useful, 0, "nothing dirty to write back");
        assert_eq!(m.total_messages().count(MessageClass::SoftwareFlush), 0);
    }

    #[test]
    fn invalidate_usefulness_tracking() {
        let mut m = machine(DesignPoint::swcc());
        let a = heap_addr(&m, 0x180);
        let (t, _) = m.load(CoreId(0), a, 0);
        let t = m.invalidate(CoreId(0), a.line(), t); // useful: line present
        m.invalidate(CoreId(0), a.line(), t); // wasted: already gone
        let stats = m.coherence_instr_stats();
        assert_eq!(stats.invalidations_issued, 2);
        assert_eq!(stats.invalidations_useful, 1);
    }

    #[test]
    fn atomic_recalls_hwcc_cached_line() {
        let mut m = machine(DesignPoint::hwcc_ideal());
        let a = heap_addr(&m, 0x200);
        m.store(CoreId(0), a, 10, 0); // dirty M in cluster 0
        let (_, old) = m
            .atomic(ClusterId(1), a, AtomicKind::Add, 5, 1000)
            .expect("no table involved");
        assert_eq!(old, 10, "the RMW saw the recalled dirty value");
        let (_, v) = m.load(CoreId(0), a, 5000);
        assert_eq!(v, 15);
        m.check_invariants();
    }

    #[test]
    fn cohesion_transition_to_hwcc_and_back() {
        let mut m = machine(DesignPoint::cohesion(1024, 128));
        let a = inc_addr(&m, 0x40);
        let line = a.line();
        assert_eq!(m.domain_of(line), Domain::SWcc, "incoherent heap born SWcc");

        // Move it to HWcc via the table atomic, as the runtime would.
        let slot = m.fine_table().slot_of(line);
        let (t, _) = m
            .atomic(ClusterId(0), slot.word, AtomicKind::And, !(1 << slot.bit), 0)
            .expect("transition runs");
        assert_eq!(m.domain_of(line), Domain::HWcc);
        assert_eq!(m.transition_counts(), (0, 1));

        // And back to SWcc.
        let _ = m
            .atomic(ClusterId(0), slot.word, AtomicKind::Or, 1 << slot.bit, t)
            .expect("transition runs");
        assert_eq!(m.domain_of(line), Domain::SWcc);
        assert_eq!(m.transition_counts(), (1, 1));
    }

    #[test]
    fn transition_case_3a_pulls_dirty_data_out() {
        let mut m = machine(DesignPoint::cohesion(1024, 128));
        let a = inc_addr(&m, 0x80);
        let line = a.line();
        let slot = m.fine_table().slot_of(line);
        // Make the line HWcc, dirty it in cluster 0.
        let (t, _) = m
            .atomic(ClusterId(0), slot.word, AtomicKind::And, !(1 << slot.bit), 0)
            .expect("to HWcc");
        let t = m.store(CoreId(0), a, 0xd1e7, t);
        // Transition back to SWcc: case 3a demands the writeback.
        let (t, _) = m
            .atomic(ClusterId(1), slot.word, AtomicKind::Or, 1 << slot.bit, t + 100)
            .expect("to SWcc");
        // The line is in no L2 and the L3 holds the value: an SWcc read
        // from another cluster sees it.
        let (_, v) = m.load(CoreId(15), a, t + 1000);
        assert_eq!(v, 0xd1e7);
        m.check_invariants();
    }

    #[test]
    fn transition_case_5b_detects_the_race() {
        let mut m = machine(DesignPoint::cohesion(1024, 128));
        let a = inc_addr(&m, 0xC0);
        let line = a.line();
        // Two clusters write the SAME word of an SWcc line (buggy program).
        let t = m.store(CoreId(0), a, 1, 0);
        let t = m.store(CoreId(8), a, 2, t); // cluster 1
        // SWcc -> HWcc transition finds overlapping dirty words.
        let slot = m.fine_table().slot_of(line);
        let _ = m
            .atomic(ClusterId(0), slot.word, AtomicKind::And, !(1 << slot.bit), t + 100)
            .expect("races are recorded, not fatal, by default");
        assert_eq!(m.races().len(), 1, "case 5b surfaced");
        assert_eq!(m.races()[0].line, line);
    }

    #[test]
    fn fatal_races_abort_the_transition() {
        let layout = Layout::new(&LayoutConfig::new(16));
        let mut cfg = MachineConfig::scaled(16, DesignPoint::cohesion(1024, 128));
        cfg.fatal_races = true;
        let mut m = Machine::new(cfg, layout);
        m.boot();
        let a = Addr(m.layout().incoherent_heap.start.0 + 0xC0);
        let t = m.store(CoreId(0), a, 1, 0);
        let t = m.store(CoreId(8), a, 2, t);
        let slot = m.fine_table().slot_of(a.line());
        let err = m
            .atomic(ClusterId(0), slot.word, AtomicKind::And, !(1 << slot.bit), t + 100)
            .unwrap_err();
        assert!(matches!(err, MachineError::FatalRace(_)));
    }

    #[test]
    fn disjoint_writers_merge_at_l3_on_transition() {
        let mut m = machine(DesignPoint::cohesion(1024, 128));
        let base = inc_addr(&m, 0x100);
        let line = base.line();
        // Cluster 0 writes word 0, cluster 1 writes word 4 (disjoint).
        let t = m.store(CoreId(0), base, 0xAAAA, 0);
        let t = m.store(CoreId(8), Addr(base.0 + 16), 0xBBBB, t);
        let slot = m.fine_table().slot_of(line);
        let (t, _) = m
            .atomic(ClusterId(0), slot.word, AtomicKind::And, !(1 << slot.bit), t + 100)
            .expect("case 4b merges");
        assert!(m.races().is_empty(), "disjoint write sets are not a race");
        let (_, v0) = m.load(CoreId(15), base, t + 1000);
        let (_, v4) = m.load(CoreId(15), Addr(base.0 + 16), t + 2000);
        assert_eq!(v0, 0xAAAA);
        assert_eq!(v4, 0xBBBB);
        m.check_invariants();
    }

    #[test]
    fn silent_swcc_eviction_vs_hwcc_read_release() {
        // Fill a tiny L2 set beyond capacity with clean lines; SWcc drops
        // silently, HWcc sends read releases.
        for (dp, expect_releases) in [
            (DesignPoint::swcc(), false),
            (DesignPoint::hwcc_ideal(), true),
        ] {
            let layout = Layout::new(&LayoutConfig::new(16));
            let mut cfg = MachineConfig::scaled(16, dp);
            cfg.l2 = cohesion_mem::cache::CacheConfig::new(512, 16); // 1 set
            let mut m = Machine::new(cfg, layout);
            m.boot();
            let mut t = 0;
            for i in 0..40u32 {
                let a = Addr(m.layout().coherent_heap.start.0 + 32 * i);
                let (t2, _) = m.load(CoreId(0), a, t);
                t = t2;
            }
            let releases = m.total_messages().count(MessageClass::ReadRelease);
            if expect_releases {
                assert!(releases > 0, "{dp:?}: clean HWcc evictions notify");
            } else {
                assert_eq!(releases, 0, "{dp:?}: clean SWcc evictions are silent");
            }
        }
    }

    #[test]
    fn code_fetches_are_swcc_under_cohesion_but_tracked_under_hwcc() {
        let mut coh = machine(DesignPoint::cohesion_infinite());
        let pc = coh.layout().code.start;
        coh.ifetch(CoreId(0), pc, 0);
        assert_eq!(coh.directory_occupancy(1000).1, 0, "coarse region short-circuits");

        let mut hw = machine(DesignPoint::hwcc_ideal());
        let pc = hw.layout().code.start;
        hw.ifetch(CoreId(0), pc, 0);
        assert_eq!(hw.directory_occupancy(1000).1, 1, "code tracked under pure HWcc");
    }

    #[test]
    fn drain_restores_memory_image() {
        let mut m = machine(DesignPoint::swcc());
        let a = heap_addr(&m, 0x240);
        m.store(CoreId(0), a, 0x5a5a, 0);
        assert_eq!(m.mem.read_word(a), 0, "still only in the L2");
        m.drain_for_verification();
        assert_eq!(m.mem.read_word(a), 0x5a5a);
    }

    // ------------------------------------------------------------------
    // The lane guard: each refusal names its cause and leaves no trace
    // ------------------------------------------------------------------

    fn lane_machine() -> Machine {
        machine(DesignPoint::cohesion(16 * 1024, 128))
    }

    /// The first line-aligned address at or after `base` whose home bank
    /// belongs to lane `lane`.
    fn homed(m: &Machine, base: Addr, lane: u32) -> Addr {
        (0..)
            .map(|i| Addr(base.0 + 32 * i))
            .find(|a| m.noc.ownership().lane_of(m.map.bank_of(a.line())) == lane)
            .expect("both lanes own banks")
    }

    /// What a refused operation must leave as it was.
    fn footprint(m: &Machine, lines: &[Addr]) -> String {
        let digests: Vec<u64> = lines.iter().map(|a| m.line_state_digest(a.line())).collect();
        let grants: Vec<u64> = m.clusters.iter().map(|c| c.l2_port.grants()).collect();
        let (l2, l3, msgs) = (m.l2_stats(), m.l3_stats(), m.total_messages());
        format!("{digests:?} {l2:?} {l3:?} {msgs:?} {:?} {:?} {grants:?}", m.noc_stats(), m.dram_stats())
    }

    /// Drives `op` through lane 0 until it refuses; checks the cause and
    /// that `lines` and every machine-wide counter are untouched.
    fn refuses<T: std::fmt::Debug>(
        m: &mut Machine,
        lines: &[Addr],
        cause: EscalationCause,
        op: impl FnOnce(&mut LaneCtx<'_>) -> Result<T, EscalationCause>,
    ) {
        let before = footprint(m, lines);
        assert_eq!(op(&mut m.lanes()[0]).err(), Some(cause));
        assert_eq!(footprint(m, lines), before, "a refused {cause:?} operation left a trace");
    }

    #[test]
    fn lane_refuses_fetches_from_another_lane_or_from_dram() {
        let mut m = lane_machine();
        let remote = homed(&m, heap_addr(&m, 0), 1);
        refuses(&mut m, &[remote], EscalationCause::L3Remote, |l| access::load(l, CoreId(0), remote, 0));
        assert!(m.load(CoreId(0), remote, 0).0 > 0);
        let local = homed(&m, heap_addr(&m, 0), 0);
        refuses(&mut m, &[local], EscalationCause::L3Local, |l| access::load(l, CoreId(0), local, 0));
        assert!(m.load(CoreId(0), local, 0).0 > 0);
    }

    #[test]
    fn lane_refuses_a_fetch_whose_table_line_needs_dram() {
        let mut m = lane_machine();
        let a = homed(&m, heap_addr(&m, 0), 0);
        // The data line sits in its home L3 bank; its fine-table line does not.
        let data = m.mem.read_line(a.line());
        let bank = m.map.bank_of(a.line()) as usize;
        m.banks[bank].l3.allocate(a.line()).0.fill_masked(&data, 0xff);
        refuses(&mut m, &[a], EscalationCause::L3Local, |l| access::load(l, CoreId(0), a, 0));
        assert!(m.load(CoreId(0), a, 0).0 > 0);
    }

    #[test]
    fn lane_refuses_a_dirty_victim_that_would_write_through() {
        let mut m = lane_machine();
        let x = homed(&m, inc_addr(&m, 0), 0);
        m.load(CoreId(8), x, 0); // x and its table line enter the L3
        // Fill x's L2 set in cluster 0 with dirty SWcc lines the L3 never saw.
        let stride = m.cfg.l2.sets() * 32;
        let way = |k: u32| Addr(x.0 + k * stride);
        for k in 1..=m.cfg.l2.assoc {
            m.store(CoreId(0), way(k), k, 0);
        }
        refuses(&mut m, &[x, way(1)], EscalationCause::L3Local, |l| access::load(l, CoreId(0), x, 10));
        assert!(m.load(CoreId(0), x, 10).0 > 0);
    }

    #[test]
    fn lane_refuses_anything_that_feeds_the_profiler() {
        let mut m = lane_machine();
        let a = inc_addr(&m, 0);
        m.enable_profiling(vec![(a, 64)]);
        refuses(&mut m, &[a], EscalationCause::L3Local, |l| access::invalidate(l, CoreId(0), a.line(), 0));
        assert!(m.invalidate(CoreId(0), a.line(), 0) > 0);
    }

    #[test]
    fn lane_refuses_probes_and_directory_victims() {
        let mut m = lane_machine();
        let a = homed(&m, heap_addr(&m, 0), 0);
        m.store(CoreId(8), a, 7, 0); // cluster 1 owns the line
        refuses(&mut m, &[a], EscalationCause::Directory, |l| access::load(l, CoreId(0), a, 100));
        assert_eq!(m.load(CoreId(0), a, 100).1, 7);

        // A one-entry directory slice: tracking y evicted x's entry, and
        // re-tracking x would evict y's.
        let mut m = machine(DesignPoint::cohesion(1, 1));
        let x = homed(&m, heap_addr(&m, 0), 0);
        let y = Addr(x.0 + 32);
        m.load(CoreId(8), x, 0);
        m.load(CoreId(8), y, 100);
        refuses(&mut m, &[x, y], EscalationCause::Directory, |l| access::load(l, CoreId(0), x, 200));
        assert!(m.load(CoreId(0), x, 200).0 > 0);
    }

    #[test]
    fn lane_refuses_writebacks_and_releases_bound_for_another_lane() {
        let mut m = lane_machine();
        let z = homed(&m, inc_addr(&m, 0), 1);
        m.store(CoreId(0), z, 5, 0);
        refuses(&mut m, &[z], EscalationCause::Noc, |l| access::flush(l, CoreId(0), z.line(), 10));
        assert!(m.flush(CoreId(0), z.line(), 10) > 0);

        // A store whose L2 victim is a dirty SWcc line (writeback) or a
        // clean HWcc line (read release), homed on lane 1.
        for dirty in [true, false] {
            let mut m = lane_machine();
            let w = homed(&m, inc_addr(&m, 0), 1);
            let base = if dirty { inc_addr(&m, 0) } else { heap_addr(&m, 0) };
            let (off, stride) = (w.0 - inc_addr(&m, 0).0, m.cfg.l2.sets() * 32);
            let way = |k: u32| Addr(base.0 + off + k * stride);
            for k in 1..=m.cfg.l2.assoc {
                if dirty {
                    m.store(CoreId(0), way(k), k, 0);
                } else {
                    m.load(CoreId(0), way(k), 0);
                }
            }
            refuses(&mut m, &[w, way(1)], EscalationCause::Noc, |l| access::store(l, CoreId(0), w, 9, 1000));
            assert!(m.store(CoreId(0), w, 9, 1000) > 0);
        }
    }

    #[test]
    fn lane_refuses_uncached_atomics() {
        let mut m = lane_machine();
        let a = homed(&m, heap_addr(&m, 0), 0);
        refuses(&mut m, &[a], EscalationCause::Atomic, |l| {
            match l.uncached_atomic(ClusterId(0), a, AtomicKind::Add, 1, 0) {
                Err(Stop::Escalate { cause }) => Err::<(), _>(cause),
                other => panic!("the lane ran an atomic: {other:?}"),
            }
        });
        assert!(m.atomic(ClusterId(0), a, AtomicKind::Add, 1, 0).is_ok());
    }

    /// Lane `l` is dealt exactly the banks `b ≡ l (mod lanes)`, in slot
    /// order: each bank holds a line homed on it, and a lane's
    /// `Access::l3` finds every owned bank's line in that bank.
    #[test]
    fn lanes_are_dealt_their_banks_in_slot_order() {
        // 16 cores over 8 banks: four slots per lane. 64 cores over the
        // default 2 banks: lanes 2–7 own none.
        for (cores, banks) in [(16, 8), (64, 2)] {
            let mut cfg = MachineConfig::scaled(cores, DesignPoint::cohesion(1024, 128));
            cfg.l3_banks = banks;
            let mut m = Machine::new(cfg, Layout::new(&LayoutConfig::new(cores)));
            let marks: Vec<LineAddr> = (0..banks)
                .map(|b| {
                    (0..)
                        .map(LineAddr)
                        .find(|&l| m.map.bank_of(l) == b)
                        .expect("a line homed on b")
                })
                .collect();
            for (tile, &line) in m.banks.iter_mut().zip(&marks) {
                tile.l3
                    .allocate(line)
                    .0
                    .fill_masked(&[0; WORDS_PER_LINE], 0xff);
            }
            let lanes = cfg.clusters();
            for (l, mut lane) in (0..).zip(m.lanes()) {
                let owned: Vec<u32> = (0..banks).filter(|b| b % lanes == l).collect();
                assert_eq!(
                    lane.banks.len(),
                    owned.len(),
                    "{cores} cores: lane {l} holds {} banks",
                    lane.banks.len()
                );
                for b in owned {
                    let found = lane.l3(BankId(b)).peek(marks[b as usize]).is_some();
                    assert!(
                        found,
                        "{cores} cores: lane {l} reached another bank for bank {b}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use crate::config::DesignPoint;
    use cohesion_runtime::layout::{Layout, LayoutConfig};

    fn machine_with(dp: DesignPoint, f: impl FnOnce(&mut MachineConfig)) -> Machine {
        let layout = Layout::new(&LayoutConfig::new(16));
        let mut cfg = MachineConfig::scaled(16, dp);
        f(&mut cfg);
        let mut m = Machine::new(cfg, layout);
        m.boot();
        m
    }

    fn heap_addr(m: &Machine, off: u32) -> Addr {
        Addr(m.layout().coherent_heap.start.0 + off)
    }

    #[test]
    fn exclusive_grant_makes_private_stores_free() {
        let mut m = machine_with(DesignPoint::hwcc_ideal(), |c| c.exclusive_state = true);
        let a = heap_addr(&m, 0x40);
        let (t, _) = m.load(CoreId(0), a, 0); // unshared read -> E
        m.store(CoreId(0), a, 5, t); // silent E->M upgrade
        assert_eq!(
            m.total_messages().count(MessageClass::WriteRequest),
            0,
            "MESI's one win: no ownership request after an E grant"
        );
        m.check_invariants();
    }

    #[test]
    fn exclusive_state_charges_downgrades_on_read_sharing() {
        // The §3.2 argument: under MESI, the *second* reader of read-shared
        // data pays a downgrade probe that MSI avoids.
        let mut mesi = machine_with(DesignPoint::hwcc_ideal(), |c| c.exclusive_state = true);
        let a = heap_addr(&mesi, 0x80);
        let (t, _) = mesi.load(CoreId(0), a, 0);
        let (_, v) = mesi.load(CoreId(15), a, t + 100); // other cluster
        assert_eq!(v, 0);
        assert_eq!(
            mesi.total_messages().count(MessageClass::ProbeResponse),
            1,
            "E->S downgrade probe"
        );

        let mut msi = machine_with(DesignPoint::hwcc_ideal(), |c| c.exclusive_state = false);
        let a = heap_addr(&msi, 0x80);
        let (t, _) = msi.load(CoreId(0), a, 0);
        let _ = msi.load(CoreId(15), a, t + 100);
        assert_eq!(
            msi.total_messages().count(MessageClass::ProbeResponse),
            0,
            "MSI: read-shared data needs no probes"
        );
    }

    #[test]
    fn silent_evictions_leave_stale_directory_entries() {
        let mut m = machine_with(DesignPoint::hwcc_ideal(), |c| {
            c.silent_evictions = true;
            c.l2 = cohesion_mem::cache::CacheConfig::new(512, 16); // 1 set
        });
        let mut t = 0;
        for i in 0..40u32 {
            let a = heap_addr(&m, 32 * i);
            let (t2, _) = m.load(CoreId(0), a, t);
            t = t2;
        }
        assert_eq!(
            m.total_messages().count(MessageClass::ReadRelease),
            0,
            "no read releases under the ablation"
        );
        // The L2 holds at most 16 lines, but the directory still tracks all
        // 40 — the §2.1 reason read releases exist.
        let (_, max, _) = m.directory_occupancy(t);
        assert!(
            max >= 40,
            "stale entries linger without read releases (max {max})"
        );
    }

    #[test]
    fn line_granular_swcc_pays_fetch_on_write() {
        let mut word = machine_with(DesignPoint::swcc(), |_| {});
        let a = heap_addr(&word, 0x100);
        word.store(CoreId(0), a, 1, 0);
        assert_eq!(word.total_messages().total(), 0, "fill-free write-allocate");

        let mut line = machine_with(DesignPoint::swcc(), |c| c.word_granular_swcc = false);
        let a = heap_addr(&line, 0x100);
        line.store(CoreId(0), a, 1, 0);
        assert_eq!(
            line.total_messages().count(MessageClass::ReadRequest),
            1,
            "without per-word bits the store must fetch the line"
        );
        // Data still correct end to end.
        let (_, v) = line.load(CoreId(8), a, 5_000);
        let _ = v; // the line is dirty in cluster 0's L2; consumer sees L3 copy
        line.drain_for_verification();
        assert_eq!(line.mem.read_word(a), 1);
    }
}

#[cfg(test)]
mod dir4b_tests {
    use super::*;
    use crate::config::DesignPoint;
    use cohesion_runtime::layout::{Layout, LayoutConfig};

    #[test]
    fn pointer_overflow_falls_back_to_broadcast_invalidation() {
        // 64 cores = 8 clusters; Dir4B holds 4 pointers. Read-share a line
        // from 6 clusters (overflow -> broadcast), then store from one:
        // the invalidation must probe every cluster, and every subsequent
        // reader must still see the new value.
        let layout = Layout::new(&LayoutConfig::new(64));
        let cfg = MachineConfig::scaled(64, DesignPoint::hwcc_dir4b(1024, 128));
        let mut m = Machine::new(cfg, layout);
        m.boot();
        let a = Addr(m.layout().coherent_heap.start.0 + 0x40);

        let mut t = 0;
        for cl in 0..6u32 {
            let (t2, v) = m.load(CoreId(cl * 8), a, t);
            assert_eq!(v, 0);
            t = t2 + 10;
        }
        let probes_before = m.total_messages().count(MessageClass::ProbeResponse);
        let t2 = m.store(CoreId(7 * 8), a, 0x77, t + 100);
        let probes_after = m.total_messages().count(MessageClass::ProbeResponse);
        assert!(
            probes_after - probes_before >= 7,
            "broadcast invalidation probes every other cluster (got {})",
            probes_after - probes_before
        );
        // Every cluster re-reads the new value.
        let mut t = t2 + 1000;
        for cl in 0..8u32 {
            let (t3, v) = m.load(CoreId(cl * 8), a, t);
            assert_eq!(v, 0x77, "cluster {cl} sees the store");
            t = t3 + 10;
        }
        m.check_invariants();
    }

    #[test]
    fn within_pointer_capacity_probes_are_exact() {
        let layout = Layout::new(&LayoutConfig::new(64));
        let cfg = MachineConfig::scaled(64, DesignPoint::hwcc_dir4b(1024, 128));
        let mut m = Machine::new(cfg, layout);
        m.boot();
        let a = Addr(m.layout().coherent_heap.start.0 + 0x80);
        let mut t = 0;
        for cl in 0..3u32 {
            let (t2, _) = m.load(CoreId(cl * 8), a, t);
            t = t2 + 10;
        }
        let before = m.total_messages().count(MessageClass::ProbeResponse);
        m.store(CoreId(3 * 8), a, 1, t + 100);
        let after = m.total_messages().count(MessageClass::ProbeResponse);
        assert_eq!(
            after - before,
            3,
            "three tracked sharers, three probes — no broadcast"
        );
    }
}

#[cfg(test)]
mod line_event_tests {
    use super::*;
    use crate::config::DesignPoint;
    use cohesion_runtime::layout::{Layout, LayoutConfig};
    use cohesion_sim::timeline::{Level, Mark, Track};

    /// A booted 16-core machine whose armed timeline watches the line of
    /// the address `at` picks.
    fn watching(dp: DesignPoint, at: impl FnOnce(&Layout) -> Addr) -> (Machine, Addr) {
        let layout = Layout::new(&LayoutConfig::new(16));
        let a = at(&layout);
        let mut cfg = MachineConfig::scaled(16, dp);
        cfg.timeline = true;
        cfg.watch = Some(a.line());
        let mut m = Machine::new(cfg, layout);
        m.boot();
        (m, a)
    }

    /// The watched line's events with their tracks, in record order.
    fn events(m: &Machine) -> Vec<(Track, LineEvent)> {
        let line = |s: &cohesion_sim::timeline::Span| match s.mark {
            Mark::Line(_, e) => Some((s.track, e)),
            _ => None,
        };
        m.timeline().spans().filter_map(line).collect()
    }

    #[test]
    fn the_store_precedes_the_transition() {
        let (mut m, a) = watching(DesignPoint::cohesion(1024, 128), |l| Addr(l.incoherent_heap.start.0 + 0x40));
        // Dirty the line under SWcc in cluster 0, then move it to HWcc
        // (the table word is another line).
        let t = m.store(CoreId(0), a, 7, 0);
        let slot = m.fine_table().slot_of(a.line());
        m.atomic(ClusterId(0), slot.word, AtomicKind::And, !(1 << slot.bit), t + 10)
            .expect("transition");
        let kinds: Vec<LineEvent> = events(&m).into_iter().map(|(_, e)| e).collect();
        assert_eq!(kinds.first(), Some(&LineEvent::Store));
        assert!(kinds.contains(&LineEvent::Transition), "the transition is recorded: {kinds:?}");
    }

    #[test]
    fn a_probe_names_its_target_and_writeback() {
        let (mut m, a) = watching(DesignPoint::cohesion(1024, 128), |l| Addr(l.coherent_heap.start.0 + 0x40));
        let t = m.store(CoreId(0), a, 1, 0); // cluster 0 owns M
        let _ = m.load(CoreId(8), a, t + 100); // cluster 1 pulls it
        let probes: Vec<LineEvent> = events(&m)
            .into_iter()
            .map(|(_, e)| e)
            .filter(|e| matches!(e, LineEvent::Probe { .. }))
            .collect();
        assert_eq!(probes, [LineEvent::Probe { target: 0, invalidate: false, writeback: 0b1 }]);
    }

    #[test]
    fn a_lane_admits_a_watched_load_and_records_it() {
        let (mut m, a) = watching(DesignPoint::cohesion(16 * 1024, 128), |l| l.coherent_heap.start);
        let (t, _) = m.load(CoreId(0), a, 0); // into cluster 0's L2
        let mut lanes = m.lanes();
        assert_eq!(access::load(&mut lanes[0], CoreId(1), a, t).err(), None, "the lane refused");
        drop(lanes);
        m.absorb_lane_timelines();
        assert_eq!(events(&m).last(), Some(&(Track::Lane(0), LineEvent::Load { level: Level::L2 })));
    }
}
