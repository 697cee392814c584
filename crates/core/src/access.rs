//! The memory operations, written once over one narrow access interface.
//!
//! The core-visible operations (`load`, `store`, `ifetch`, `flush`,
//! `invalidate`) and the protocol helpers beneath them (line fetch,
//! directory resolution, L3 reads and writeback merges, L2 evictions, L1
//! fills and back-invalidations, probes) are generic over [`Access`],
//! which has two implementations:
//!
//! * `Machine`, the whole machine, which never refuses;
//! * `LaneCtx`, one cluster's view for phase A of the sharded executor.
//!   It reaches only its cluster's L1s, L2, L2 port and counters, the L3
//!   banks it owns with their directory slices, table caches and direct
//!   links, and read-only memory and region tables.
//!
//! Every operation is a guard followed by one action. The guard is pure:
//! it only peeks, and it either admits the operation or refuses it with
//! the [`EscalationCause`] of the resource the view cannot reach. A
//! refusal therefore comes before any mutation, and the run loop replays
//! the operation on the machine from scratch. The machine's guard is
//! removed at compile time ([`Access::GUARDED`]), so the serial path runs
//! the action alone: the same action a lane runs once admitted.

use cohesion_mem::addr::{Addr, AddressMap, LineAddr, WORDS_PER_LINE};
use cohesion_mem::cache::{Cache, EvictedLine, HwState};
use cohesion_mem::mainmem::MainMemory;
use cohesion_protocol::directory::{DirEntry, DirState, DirectoryBank};
use cohesion_protocol::region::Domain;
use cohesion_runtime::task::AtomicKind;
use cohesion_sim::ids::{BankId, ClusterId, CoreId};
use cohesion_sim::link::Throttle;
use cohesion_sim::metrics::Registry;
use cohesion_sim::msg::MessageClass;
use cohesion_sim::stats::{CoherenceInstrStats, MessageCounts};
use cohesion_sim::timeline::{EscalationCause, Level, LineEvent};
use cohesion_sim::Cycle;

use crate::config::MachineConfig;
use crate::machine::{classify, region_walk, resolve_domain, MachineError, ProcessCtx, Walk};
use crate::profile::RegionProfiler;

/// An operation as the guard sees it, before it acts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Guard {
    /// A data load by a core.
    Load(CoreId, Addr),
    /// A data store (the cluster is the view's).
    Store(Addr),
    /// An instruction fetch by a core.
    Ifetch(CoreId, Addr),
    /// A software flush of a line.
    Flush(LineAddr),
    /// A software invalidate.
    Invalidate,
}

/// Why a core's op loop stopped before its budget or its task ran out.
#[derive(Debug)]
pub(crate) enum Stop {
    /// The lane view refused an operation; the slice resumes on the
    /// machine at the refused operation.
    Escalate {
        /// The resource the view could not reach.
        cause: EscalationCause,
    },
    /// The simulated program failed (a stale verified load, a fatal race).
    Fail(MachineError),
}

impl From<EscalationCause> for Stop {
    fn from(cause: EscalationCause) -> Self {
        Stop::Escalate { cause }
    }
}

/// The resources a memory operation reaches. Indexing is global (core,
/// cluster and bank ids); a view that does not own an index never sees
/// it, because its guard refuses first.
pub(crate) trait Access {
    /// Whether operations must pass [`Access::guard`] before acting.
    const GUARDED: bool;

    /// Admits `op` or refuses it with the cause of the first resource
    /// the view cannot reach. Pure: it only peeks.
    fn guard(&self, op: Guard) -> Result<(), EscalationCause> {
        let _ = op;
        Ok(())
    }

    /// The machine configuration.
    fn config(&self) -> &MachineConfig;
    /// The bank/channel interleaving.
    fn map(&self) -> &AddressMap;
    /// The processes' layouts and region tables (read-only).
    fn processes(&self) -> &[ProcessCtx];
    /// Backing memory (read-only).
    fn mem(&self) -> &MainMemory;

    /// A core's instruction L1.
    fn l1i(&mut self, core: CoreId) -> &mut Cache;
    /// A core's data L1.
    fn l1d(&mut self, core: CoreId) -> &mut Cache;
    /// A cluster's L2.
    fn l2(&mut self, cluster: ClusterId) -> &mut Cache;
    /// A cluster's L2 port throttle.
    fn l2_port(&mut self, cluster: ClusterId) -> &mut Throttle;
    /// A cluster's L2 output message counters.
    fn l2_msgs(&mut self, cluster: ClusterId) -> &mut MessageCounts;
    /// A cluster's SWcc instruction counters.
    fn instr_stats(&mut self, cluster: ClusterId) -> &mut CoherenceInstrStats;
    /// An L3 bank.
    fn l3(&mut self, bank: BankId) -> &mut Cache;
    /// An L3 bank's port throttle.
    fn l3_port(&mut self, bank: BankId) -> &mut Throttle;
    /// A bank's directory slice, when the design has a directory.
    fn dir(&mut self, bank: BankId) -> Option<&mut DirectoryBank>;
    /// A bank's dedicated fine-table cache, when configured.
    fn table_cache(&mut self, bank: BankId) -> Option<&mut Cache>;
    /// Sends a request from `cluster` to `bank`; returns its arrival.
    fn request(&mut self, cluster: ClusterId, bank: BankId, now: Cycle) -> Cycle;
    /// Sends a reply or probe from `bank` to `cluster`; returns its arrival.
    fn reply(&mut self, bank: BankId, cluster: ClusterId, now: Cycle) -> Cycle;
    /// L3 miss: fills `line` into `bank` from DRAM, advancing `t`.
    fn dram_fill(&mut self, bank: BankId, line: LineAddr, t: &mut Cycle) -> [u32; WORDS_PER_LINE];
    /// Writes `mask`ed words of `line` through to memory (posted write).
    fn dram_write(&mut self, line: LineAddr, data: &[u32; WORDS_PER_LINE], mask: u8, t: Cycle);
    /// Performs an uncached atomic; returns its completion cycle.
    fn uncached_atomic(
        &mut self,
        cluster: ClusterId,
        addr: Addr,
        kind: AtomicKind,
        operand: u32,
        t: Cycle,
    ) -> Result<Cycle, Stop>;

    /// The telemetry registry the operations record into.
    fn metrics_mut(&mut self) -> &mut Registry;
    /// The region profiler, when one is armed.
    fn profiler(&mut self) -> Option<&mut RegionProfiler>;
    /// Records `event` on the view's timeline track if `line` is the
    /// watched line.
    fn trace(&mut self, t: Cycle, line: LineAddr, event: LineEvent);
    /// Opens a timeline service span (`None` when disarmed).
    fn span_start(&self) -> Option<u64>;
    /// Closes the `l3_service` span of a line fetch issued at `issued`.
    fn l3_serviced(&mut self, start: Option<u64>, issued: Cycle);
}

/// The home bank of `line`.
pub(crate) fn bank_of<S: Access>(s: &S, line: LineAddr) -> BankId {
    BankId(s.map().bank_of(line))
}

/// Counts one message leaving `cluster`'s L2.
pub(crate) fn note_msg<S: Access>(s: &mut S, cluster: ClusterId, line: LineAddr, class: MessageClass, t: Cycle) {
    s.l2_msgs(cluster).record(class);
    s.metrics_mut().sample_add("messages", t, 1);
    if let Some(p) = s.profiler() {
        p.note_message(line, class);
    }
}

// ----------------------------------------------------------------------
// L3-side helpers (functional data + analytic timing)
// ----------------------------------------------------------------------

/// Reads a full line at the L3: hit serves from the bank, miss fetches
/// from DRAM and allocates. Advances `t` by the access time.
pub(crate) fn l3_read_line<S: Access>(s: &mut S, bank: BankId, line: LineAddr, t: &mut Cycle) -> [u32; WORDS_PER_LINE] {
    if let Some(l) = s.l3(bank).access(line) {
        return l.data;
    }
    s.dram_fill(bank, line, t)
}

/// Writes `mask`ed words into the L3 image of `line` (writeback merge).
/// On an L3 miss the words write through to memory (no allocate on
/// partial writebacks).
pub(crate) fn l3_write_words<S: Access>(
    s: &mut S,
    bank: BankId,
    line: LineAddr,
    data: &[u32; WORDS_PER_LINE],
    mask: u8,
    t: Cycle,
) {
    if mask == 0 {
        return;
    }
    if let Some(l) = s.l3(bank).access(line) {
        for (i, &word) in data.iter().enumerate() {
            if mask & (1 << i) != 0 {
                l.data[i] = word;
                l.valid_words |= 1 << i;
                l.dirty_words |= 1 << i;
            }
        }
    } else {
        s.dram_write(line, data, mask, t);
    }
}

// ----------------------------------------------------------------------
// Probes (directory -> L2)
// ----------------------------------------------------------------------

/// Sends a probe to `target` for `line`; applies the effect to the L2
/// and returns the cycle the response reaches the bank.
///
/// `invalidate` selects invalidation (vs. downgrade-to-Shared). Dirty
/// data found in the L2 is written back into the L3. The response is
/// counted as a [`MessageClass::ProbeResponse`] from the target cluster.
///
/// Ordinary directory probes ignore incoherent (SWcc) lines — they are
/// invisible to the protocol (§3.4). The SWcc⇒HWcc transition's
/// broadcast *clean request* must act on them, so it probes with
/// `include_incoherent`.
pub(crate) fn probe<S: Access>(
    s: &mut S,
    bank: BankId,
    target: ClusterId,
    line: LineAddr,
    invalidate: bool,
    include_incoherent: bool,
    t: Cycle,
) -> Cycle {
    let t_at_l2 = s.reply(bank, target, t);
    let mut wb: Option<([u32; WORDS_PER_LINE], u8)> = None;
    if let Some(l) = s.l2(target).peek_mut(line) {
        if !l.incoherent || include_incoherent {
            if l.dirty_words != 0 {
                wb = Some((l.data, l.dirty_words));
                l.dirty_words = 0;
            }
            if invalidate {
                s.l2(target).invalidate(line);
                back_invalidate_l1(s, target, line);
            } else {
                l.state = HwState::Shared;
            }
        }
    }
    if let Some((data, mask)) = wb {
        l3_write_words(s, bank, line, &data, mask, t_at_l2);
    }
    let writeback = wb.map_or(0, |(_, mask)| mask);
    s.trace(t, line, LineEvent::Probe { target: target.0, invalidate, writeback });
    note_msg(s, target, line, MessageClass::ProbeResponse, t_at_l2);
    s.request(target, bank, t_at_l2)
}

/// Invalidates `line` in the L1Ds of every core of `cluster`.
pub(crate) fn back_invalidate_l1<S: Access>(s: &mut S, cluster: ClusterId, line: LineAddr) {
    for core in cluster.cores(s.config().cores_per_cluster) {
        s.l1d(core).invalidate(line);
    }
}

/// Handles a directory capacity/conflict eviction: all sharers of the
/// victim entry are invalidated (dirty data written back). Returns the
/// completion cycle.
pub(crate) fn directory_eviction<S: Access>(
    s: &mut S,
    bank: BankId,
    vline: LineAddr,
    ventry: DirEntry,
    t: Cycle,
) -> Cycle {
    let clusters = s.config().clusters();
    let mut done = t;
    for target in ventry.sharers.probe_targets(clusters) {
        done = done.max(probe(s, bank, target, vline, true, false, t));
    }
    done
}

// ----------------------------------------------------------------------
// The central line-fetch transaction
// ----------------------------------------------------------------------

/// Fetches `line` for `cluster` (`exclusive` for stores needing M).
/// Returns `(reply_arrival, data, grant)`: the granted HWcc state
/// ([`HwState::Shared`], [`HwState::Exclusive`] under the MESI
/// ablation, or [`HwState::Modified`]), or `None` for an incoherent
/// (SWcc) response — the reply's incoherent bit (§3.4).
fn fetch_line<S: Access>(
    s: &mut S,
    cluster: ClusterId,
    line: LineAddr,
    exclusive: bool,
    class: MessageClass,
    t_issue: Cycle,
) -> (Cycle, [u32; WORDS_PER_LINE], Option<HwState>) {
    s.trace(t_issue, line, LineEvent::Fetch);
    note_msg(s, cluster, line, class, t_issue);
    let svc = s.span_start();
    let bank = bank_of(s, line);
    let t_arr = s.request(cluster, bank, t_issue);
    let mut t = s.l3_port(bank).grant(t_arr) + s.config().l3_latency;

    let grant = if s.dir(bank).is_some() {
        resolve_with_directory(s, cluster, bank, line, exclusive, &mut t)
    } else {
        None // SWcc design point: everything is software-managed
    };

    let data = l3_read_line(s, bank, line, &mut t);
    let t_reply = s.reply(bank, cluster, t);
    s.metrics_mut().record_latency("latency/fetch", t_reply - t_issue);
    s.l3_serviced(svc, t_issue);
    (t_reply, data, grant)
}

/// Directory-side resolution for a fetch. Returns the granted HWcc
/// state, or `None` for an incoherent (SWcc) response. Advances `t`
/// past any probe/table activity.
fn resolve_with_directory<S: Access>(
    s: &mut S,
    requester: ClusterId,
    bank: BankId,
    line: LineAddr,
    exclusive: bool,
    t: &mut Cycle,
) -> Option<HwState> {
    let clusters = s.config().clusters();
    let dir = s.dir(bank).expect("caller checked");
    let tracking = dir.config().tracking;
    let hit = dir.lookup(line).is_some();
    s.metrics_mut().inc(if hit {
        "directory/lookup_hits"
    } else {
        "directory/lookup_misses"
    });
    if hit {
        // HWcc path: MSI at the home bank.
        let (state, targets) = {
            let e = s.dir(bank).expect("present").lookup(line).expect("just hit");
            let targets: Vec<ClusterId> = e
                .sharers
                .probe_targets(clusters)
                .into_iter()
                .filter(|&c| c != requester)
                .collect();
            (e.state, targets)
        };
        let t0 = *t;
        let mut probes_done = *t;
        if exclusive {
            // Invalidate every other holder (writeback if modified).
            for target in targets {
                probes_done = probes_done.max(probe(s, bank, target, line, true, false, t0));
            }
            let e = s.dir(bank).expect("present").lookup(line).expect("still present");
            e.state = DirState::Modified;
            e.sharers = cohesion_protocol::sharers::SharerSet::empty(tracking, clusters);
            e.sharers.add(requester, tracking);
        } else {
            if state == DirState::Modified && targets.is_empty() {
                // The requester already owns the line and is fetching
                // words its partial copy lacks (possible after a
                // case-3b transition upgraded a partial SWcc line):
                // ownership is retained, no downgrade.
                *t = probes_done;
                return Some(HwState::Modified);
            }
            if state == DirState::Modified {
                // Demand writeback + downgrade from the owner (this is
                // also the E->S downgrade cost the paper's MSI choice
                // avoids for read-shared data; §3.2).
                for target in targets {
                    probes_done = probes_done.max(probe(s, bank, target, line, false, false, t0));
                }
            }
            let e = s.dir(bank).expect("present").lookup(line).expect("still present");
            e.state = if state == DirState::Modified {
                DirState::Shared
            } else {
                state
            };
            e.sharers.add(requester, tracking);
        }
        *t = probes_done;
        return Some(if exclusive {
            HwState::Modified
        } else {
            HwState::Shared
        });
    }

    // Directory miss: consult the owning process's region tables (§3.4).
    let domain = match region_walk(s.config().design.mode, s.processes(), line) {
        Walk::Settled(domain) => domain,
        Walk::Coarse => {
            s.metrics_mut().inc("table/coarse_hits");
            Domain::SWcc
        }
        Walk::Fine(fine) => {
            // Fine-grain lookup (§3.4): a minimum of one extra cycle; the
            // table word comes from the dedicated table cache when
            // configured, else from the L3 (and DRAM on a miss).
            let slot = fine.slot_of(line);
            let tline = slot.word.line();
            let mut tt = *t + 1;
            let tc_hit = s.table_cache(bank).is_some_and(|tc| tc.access(tline).is_some());
            s.metrics_mut().inc("table/fine_lookups");
            if tc_hit {
                s.metrics_mut().inc("table/fine_cache_hits");
            } else {
                let _ = l3_read_line(s, bank, tline, &mut tt);
                if let Some(tc) = s.table_cache(bank) {
                    let (fresh, _) = tc.allocate(tline);
                    fresh.valid_words = 0xff;
                }
            }
            *t = tt;
            // The slot is already in hand: read the table word directly
            // instead of re-running the tbloff hash.
            fine.domain_at(s.mem(), slot)
        }
    };
    match domain {
        Domain::SWcc => None,
        Domain::HWcc => {
            let class = classify(s.processes(), line);
            // MESI ablation: an unshared read miss is granted Exclusive,
            // which the directory tracks as owned (it cannot observe the
            // silent E->M upgrade).
            let grant = if exclusive {
                HwState::Modified
            } else if s.config().exclusive_state {
                HwState::Exclusive
            } else {
                HwState::Shared
            };
            let entry = match grant {
                HwState::Shared => DirEntry::shared(requester, tracking, clusters, class),
                _ => DirEntry::modified(requester, tracking, clusters, class),
            };
            let victim = s.dir(bank).expect("present").insert(*t, line, entry);
            if let Some((vline, ventry)) = victim {
                let done = directory_eviction(s, bank, vline, ventry, *t);
                *t = (*t).max(done);
            }
            Some(grant)
        }
    }
}

// ----------------------------------------------------------------------
// Core-visible operations
// ----------------------------------------------------------------------

/// Performs a load; returns `(completion_cycle, value)`.
pub(crate) fn load<S: Access>(
    s: &mut S,
    core: CoreId,
    addr: Addr,
    t: Cycle,
) -> Result<(Cycle, u32), EscalationCause> {
    if S::GUARDED {
        s.guard(Guard::Load(core, addr))?;
    }
    let cluster = core.cluster(s.config().cores_per_cluster);
    let line = addr.line();
    let w = addr.word_index();

    // L1D.
    if let Some(l) = s.l1d(core).access(line) {
        if l.word_valid(w) {
            let v = l.data[w];
            s.trace(t, line, LineEvent::Load { level: Level::L1 });
            return Ok((t + 1, v));
        }
    }

    // L2.
    let mut t2 = s.l2_port(cluster).grant(t + 1) + s.config().l2_latency;
    if let Some(l) = s.l2(cluster).access(line) {
        if l.word_valid(w) {
            let v = l.data[w];
            s.trace(t2, line, LineEvent::Load { level: Level::L2 });
            l1d_fill_word(s, core, line, w, v);
            s.metrics_mut().record_latency("latency/load", t2 - t);
            return Ok((t2, v));
        }
    }

    // L2 miss, or a partial line missing the word.
    let (t_done, data, grant) = fetch_line(s, cluster, line, false, MessageClass::ReadRequest, t2);
    t2 = t_done;
    let value = match s.l2(cluster).peek_mut(line) {
        Some(l) => {
            l.fill_masked(&data, 0xff);
            if grant.is_none() {
                l.incoherent = true;
            }
            l.data[w]
        }
        None => {
            let (fresh, victim) = s.l2(cluster).allocate(line);
            fresh.fill_masked(&data, 0xff);
            fresh.incoherent = grant.is_none();
            fresh.state = grant.unwrap_or(HwState::Shared);
            let value = fresh.data[w];
            if let Some(v) = victim {
                handle_l2_eviction(s, cluster, v, t2);
            }
            value
        }
    };
    s.trace(t2, line, LineEvent::Load { level: Level::L3 });
    l1d_fill_word(s, core, line, w, value);
    s.metrics_mut().record_latency("latency/load", t2 - t);
    Ok((t2, value))
}

/// Deposits one loaded word in `core`'s L1D, allocating if needed.
fn l1d_fill_word<S: Access>(s: &mut S, core: CoreId, line: LineAddr, w: usize, value: u32) {
    let l1 = s.l1d(core);
    if let Some(l) = l1.peek_mut(line) {
        l.data[w] = value;
        l.valid_words |= 1 << w;
        return;
    }
    let (fresh, _victim) = l1.allocate(line);
    fresh.data[w] = value;
    fresh.valid_words = 1 << w;
    // L1D is write-through: victims are always clean, drop silently.
}

/// Performs a store; returns the cycle at which the core may proceed.
///
/// Stores are *non-blocking*: a store miss issues its ownership request
/// and retires into the store buffer; the core continues while the
/// directory transaction completes (its bandwidth, probe, and DRAM
/// costs are still charged against the shared resources). This models
/// the store buffering any in-order accelerator core provides, and is
/// what lets optimistic HWcc perform on par with SWcc despite write
/// misses costing a directory round trip (§4.5). SWcc stores
/// write-allocate locally and complete immediately (§2.1).
pub(crate) fn store<S: Access>(
    s: &mut S,
    core: CoreId,
    addr: Addr,
    value: u32,
    t: Cycle,
) -> Result<Cycle, EscalationCause> {
    if S::GUARDED {
        s.guard(Guard::Store(addr))?;
    }
    let cluster = core.cluster(s.config().cores_per_cluster);
    let line = addr.line();
    let w = addr.word_index();

    let t2 = s.l2_port(cluster).grant(t + 1) + s.config().l2_latency;

    enum Action {
        WriteNow,
        Upgrade,
        MissSw,
        MissHw,
    }
    let action = match s.l2(cluster).access(line) {
        Some(l) => {
            if l.state == HwState::Exclusive {
                // The silent E->M upgrade the MESI ablation buys.
                l.state = HwState::Modified;
                Action::WriteNow
            } else if l.incoherent || l.state == HwState::Modified {
                Action::WriteNow
            } else {
                Action::Upgrade
            }
        }
        None => match resolve_domain(s.config().design.mode, s.processes(), s.mem(), line) {
            Domain::SWcc => Action::MissSw,
            Domain::HWcc => Action::MissHw,
        },
    };

    s.trace(t2, line, LineEvent::Store);
    let t_done = match action {
        Action::WriteNow => {
            s.l2(cluster).peek_mut(line).expect("hit").write_word(w, value);
            t2
        }
        Action::Upgrade => {
            // Shared -> Modified: ownership request to the directory;
            // the store retires into the store buffer while it travels.
            let (_t3, _data, grant) =
                fetch_line(s, cluster, line, true, MessageClass::WriteRequest, t2);
            let l = s.l2(cluster).peek_mut(line).expect("still present");
            debug_assert!(grant.is_some());
            l.state = HwState::Modified;
            l.write_word(w, value);
            t2 + 1
        }
        Action::MissSw => {
            if s.config().word_granular_swcc {
                // SWcc write-allocate: no fill, no message (§2.1) —
                // per-word valid bits make the partial line legal.
                let (fresh, victim) = s.l2(cluster).allocate(line);
                fresh.incoherent = true;
                fresh.write_word(w, value);
                if let Some(v) = victim {
                    handle_l2_eviction(s, cluster, v, t2);
                }
            } else {
                // Ablation: without per-word bits the line must be
                // fetched before it can be partially written.
                let (t3, data, _grant) =
                    fetch_line(s, cluster, line, false, MessageClass::ReadRequest, t2);
                match s.l2(cluster).peek_mut(line) {
                    Some(l) => {
                        l.fill_masked(&data, 0xff);
                        l.incoherent = true;
                        l.write_word(w, value);
                    }
                    None => {
                        let (fresh, victim) = s.l2(cluster).allocate(line);
                        fresh.fill_masked(&data, 0xff);
                        fresh.incoherent = true;
                        fresh.write_word(w, value);
                        if let Some(v) = victim {
                            handle_l2_eviction(s, cluster, v, t3);
                        }
                    }
                }
            }
            t2
        }
        Action::MissHw => {
            let (t3, data, grant) =
                fetch_line(s, cluster, line, true, MessageClass::WriteRequest, t2);
            debug_assert!(grant.is_some(), "fine table and L2 state disagree");
            match s.l2(cluster).peek_mut(line) {
                Some(l) => {
                    l.fill_masked(&data, 0xff);
                    l.state = HwState::Modified;
                    l.write_word(w, value);
                }
                None => {
                    let (fresh, victim) = s.l2(cluster).allocate(line);
                    fresh.fill_masked(&data, 0xff);
                    fresh.state = HwState::Modified;
                    fresh.write_word(w, value);
                    if let Some(v) = victim {
                        handle_l2_eviction(s, cluster, v, t3);
                    }
                }
            }
            // Non-blocking: the core proceeds past the buffered store.
            t2 + 1
        }
    };

    // L1D write-through update: the split-phase cluster bus lets every
    // sibling L1D snoop the store, so all cluster-local copies of the
    // word are updated (the L1s are kept consistent *within* a cluster
    // by the bus; the inter-cluster protocol is the L2's job).
    for sibling in cluster.cores(s.config().cores_per_cluster) {
        if let Some(l) = s.l1d(sibling).peek_mut(line) {
            if l.word_valid(w) {
                l.data[w] = value;
            }
        }
    }
    s.metrics_mut().record_latency("latency/store", t_done - t);
    Ok(t_done)
}

/// Executes the SWcc flush (writeback) instruction for `line`.
/// Non-blocking: the dirty words travel to the L3 off the critical path.
pub(crate) fn flush<S: Access>(
    s: &mut S,
    core: CoreId,
    line: LineAddr,
    t: Cycle,
) -> Result<Cycle, EscalationCause> {
    if S::GUARDED {
        s.guard(Guard::Flush(line))?;
    }
    let cluster = core.cluster(s.config().cores_per_cluster);
    let t2 = s.l2_port(cluster).grant(t + 1);
    s.instr_stats(cluster).writebacks_issued += 1;
    // The flush instruction only applies to SWcc lines: hardware-managed
    // lines are written back by the protocol, and letting user-level
    // cache ops touch them would break the directory's bookkeeping.
    let wb = match s.l2(cluster).peek_mut(line) {
        Some(l) if l.incoherent && l.dirty_words != 0 => {
            let wb = (l.data, l.dirty_words);
            l.clean();
            Some(wb)
        }
        Some(_) | None => None,
    };
    if let Some((data, mask)) = wb {
        s.instr_stats(cluster).writebacks_useful += 1;
        note_msg(s, cluster, line, MessageClass::SoftwareFlush, t2);
        let bank = bank_of(s, line);
        let t_arr = s.request(cluster, bank, t2);
        l3_write_words(s, bank, line, &data, mask, t_arr);
    }
    s.metrics_mut().record_latency("latency/flush", t2 + 1 - t);
    Ok(t2 + 1)
}

/// Executes the SWcc invalidate instruction for `line`. Local only; no
/// message is ever sent (§2.1).
pub(crate) fn invalidate<S: Access>(
    s: &mut S,
    core: CoreId,
    line: LineAddr,
    t: Cycle,
) -> Result<Cycle, EscalationCause> {
    if S::GUARDED {
        s.guard(Guard::Invalidate)?;
    }
    let cluster = core.cluster(s.config().cores_per_cluster);
    let t2 = s.l2_port(cluster).grant(t + 1);
    s.instr_stats(cluster).invalidations_issued += 1;
    if let Some(p) = s.profiler() {
        p.note_invalidation(line);
    }
    // Like flush, the invalidate instruction only applies to SWcc lines:
    // discarding a hardware-coherent (possibly Modified) line would
    // violate the directory's guarantees, so the hardware ignores it.
    if s.l2(cluster).peek(line).is_some_and(|l| l.incoherent) {
        s.instr_stats(cluster).invalidations_useful += 1;
        s.l2(cluster).invalidate(line);
        back_invalidate_l1(s, cluster, line);
    }
    s.metrics_mut().record_latency("latency/invalidate", t2 + 1 - t);
    Ok(t2 + 1)
}

/// Instruction fetch of the line at `addr` (code).
pub(crate) fn ifetch<S: Access>(
    s: &mut S,
    core: CoreId,
    addr: Addr,
    t: Cycle,
) -> Result<Cycle, EscalationCause> {
    if S::GUARDED {
        s.guard(Guard::Ifetch(core, addr))?;
    }
    let line = addr.line();
    if s.l1i(core).access(line).is_some() {
        return Ok(t); // overlapped with execution
    }
    let cluster = core.cluster(s.config().cores_per_cluster);
    let mut t2 = s.l2_port(cluster).grant(t + 1) + s.config().l2_latency;
    if s.l2(cluster).access(line).is_none() {
        let (t3, data, grant) =
            fetch_line(s, cluster, line, false, MessageClass::InstructionRequest, t2);
        t2 = t3;
        if s.l2(cluster).peek(line).is_none() {
            let (fresh, victim) = s.l2(cluster).allocate(line);
            fresh.fill_masked(&data, 0xff);
            fresh.incoherent = grant.is_none();
            fresh.state = grant.unwrap_or(HwState::Shared);
            if let Some(v) = victim {
                handle_l2_eviction(s, cluster, v, t2);
            }
        }
    }
    if s.l1i(core).peek(line).is_none() {
        s.l1i(core).allocate(line).0.valid_words = 0xff;
    }
    s.metrics_mut().record_latency("latency/ifetch", t2 - t);
    Ok(t2)
}

/// Handles an L2 capacity/conflict eviction (§2.1/§3.4 semantics:
/// silent for clean SWcc lines, read release for clean HWcc lines,
/// writeback for dirty lines).
fn handle_l2_eviction<S: Access>(s: &mut S, cluster: ClusterId, v: EvictedLine, t: Cycle) {
    s.trace(t, v.addr, LineEvent::Evict);
    back_invalidate_l1(s, cluster, v.addr);
    let bank = bank_of(s, v.addr);
    if v.dirty_words != 0 {
        note_msg(s, cluster, v.addr, MessageClass::CacheEviction, t);
        let t_arr = s.request(cluster, bank, t);
        l3_write_words(s, bank, v.addr, &v.data, v.dirty_words, t_arr);
        if !v.incoherent {
            // The owner is gone; the directory deallocates the entry.
            if let Some(dir) = s.dir(bank) {
                dir.remove(t, v.addr);
            }
        }
    } else if !v.incoherent {
        if s.config().silent_evictions {
            // Ablation: drop the clean line without telling the
            // directory. The sharer set goes stale; future coherence
            // actions probe caches that no longer hold the line and the
            // entry lingers until a capacity eviction reclaims it —
            // the cost structure §2.1/§3.2 describe.
            return;
        }
        // Clean HWcc line: silent evictions are not supported — a read
        // release informs the directory (§2.1).
        note_msg(s, cluster, v.addr, MessageClass::ReadRelease, t);
        let t_arr = s.request(cluster, bank, t);
        if let Some(dir) = s.dir(bank) {
            let empty = match dir.lookup(v.addr) {
                Some(e) => {
                    e.sharers.remove(cluster);
                    e.sharers.is_empty()
                }
                None => false,
            };
            if empty {
                dir.remove(t_arr, v.addr);
            }
        }
    }
    // Clean SWcc line: dropped silently, no message (§2.1).
}
