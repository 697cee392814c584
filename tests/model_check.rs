//! Bounded model checking of the coherence protocol.
//!
//! Exhaustively explores every interleaving of protocol-relevant operations
//! on a single cache line from two clusters — loads, stores to two
//! different words, SWcc flush/invalidate instructions, an uncached atomic,
//! and both coherence-domain transitions — to a bounded depth, checking at
//! every reachable state:
//!
//! * the directory-inclusion invariants (`Machine::check_invariants`);
//! * value correctness: a drained copy of the machine agrees with a
//!   reference model of "last write wins" per word.
//!
//! Race-creating branches (a second cluster storing to a word already dirty
//! in another cluster's SWcc copy) are pruned, exactly as the SWcc contract
//! requires of software; everything else — including transitions landing on
//! dirty lines, multi-writer disjoint merges, and atomics recalling cached
//! data — is explored.
//!
//! The walk deduplicates: states are keyed on
//! [`Machine::line_state_digest`] (the machine's entire view of the line,
//! timing excluded) plus the reference-model fields, and a subtree is
//! re-entered only when it can now be explored deeper than before. Each
//! test reports how many transitions it checked and how many landed on
//! already-visited states. (For exhaustive graph exploration of the
//! protocol *types* themselves, see `crates/mc`.)

use std::collections::HashMap;

use cohesion::config::{DesignPoint, MachineConfig};
use cohesion::machine::Machine;
use cohesion_mem::addr::Addr;
use cohesion_runtime::layout::{Layout, LayoutConfig};
use cohesion_runtime::task::AtomicKind;
use cohesion_sim::ids::{ClusterId, CoreId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Load { cluster: u32, word: usize },
    Store { cluster: u32, word: usize },
    Flush { cluster: u32 },
    Invalidate { cluster: u32 },
    Atomic { word: usize },
    ToSwcc,
    ToHwcc,
}

const OPS: &[Op] = &[
    Op::Load { cluster: 0, word: 0 },
    Op::Load { cluster: 1, word: 0 },
    Op::Store { cluster: 0, word: 0 },
    Op::Store { cluster: 1, word: 4 },
    Op::Flush { cluster: 0 },
    Op::Invalidate { cluster: 1 },
    Op::Atomic { word: 0 },
    Op::ToSwcc,
    Op::ToHwcc,
];

/// Three-cluster op set (deeper sharing interleavings).
const OPS3: &[Op] = &[
    Op::Load { cluster: 0, word: 0 },
    Op::Load { cluster: 1, word: 0 },
    Op::Load { cluster: 2, word: 4 },
    Op::Store { cluster: 0, word: 0 },
    Op::Store { cluster: 1, word: 4 },
    Op::Store { cluster: 2, word: 7 },
    Op::Flush { cluster: 0 },
    Op::Flush { cluster: 2 },
    Op::Invalidate { cluster: 1 },
    Op::ToSwcc,
    Op::ToHwcc,
];

impl Op {
    /// The cluster issuing a cached access; `None` for the atomic and the
    /// transitions (issued by cluster 0's runtime, never cached).
    fn cluster(self) -> Option<u32> {
        match self {
            Op::Load { cluster, .. }
            | Op::Store { cluster, .. }
            | Op::Flush { cluster }
            | Op::Invalidate { cluster } => Some(cluster),
            Op::Atomic { .. } | Op::ToSwcc | Op::ToHwcc => None,
        }
    }
}

#[derive(Clone)]
struct State {
    machine: Machine,
    /// Reference values per word of the line.
    reference: [u32; 8],
    /// Which cluster holds un-flushed SWcc dirt per word (race pruning).
    sw_dirty_by: [Option<u32>; 8],
    /// Per modelled cluster: whether it may hold a *stale* cached copy.
    /// Under the SWcc contract a consumer must invalidate before reading;
    /// loads by a maybe-stale cluster execute but are not value-asserted.
    /// Staleness legally survives a SWcc⇒HWcc transition — §3.6: the
    /// system can always force the transition "but the data values may not
    /// be safe". One entry per cluster the op list names, not per machine
    /// cluster: an unmodelled entry would split the dedup keys.
    maybe_stale: Vec<bool>,
    t: u64,
    next_value: u32,
}

impl State {
    /// The initial state on `machine` for a walk over `ops`.
    fn new(machine: Machine, ops: &[Op]) -> Self {
        let clusters = ops.iter().filter_map(|op| op.cluster()).max().map_or(0, |c| c + 1);
        State {
            machine,
            reference: [0; 8],
            sw_dirty_by: [None; 8],
            maybe_stale: vec![false; clusters as usize],
            t: 0,
            next_value: 0,
        }
    }

    /// Marks every modelled cluster but `cluster` as maybe-stale or not.
    fn set_others_stale(&mut self, cluster: u32, stale: bool) {
        for (i, st) in self.maybe_stale.iter_mut().enumerate() {
            if i as u32 != cluster {
                *st = stale;
            }
        }
    }
}

/// Dedup key: the machine's full view of the line under test (and of the
/// fine-table line governing it), plus every reference-model field that
/// steers pruning or value assertions. `t` is deliberately excluded — it
/// differs along every path but changes only timing, never values or
/// protocol state (and with one line per set, never an eviction).
#[derive(Hash, PartialEq, Eq)]
struct Key {
    digest: u64,
    reference: [u32; 8],
    sw_dirty_by: [Option<u32>; 8],
    stale_mask: u8,
    next_value: u32,
}

fn stale_mask(stale: &[bool]) -> u8 {
    stale
        .iter()
        .enumerate()
        .fold(0, |m, (i, &s)| m | ((s as u8) << i))
}

/// Exploration counters: `checked` transitions applied and invariant- and
/// value-checked; `deduped` of those landed on an already-visited state
/// with no new depth to give and were not re-expanded.
#[derive(Default)]
struct Counts {
    checked: u64,
    deduped: u64,
}

/// A booted machine built from `cfg`, with a small L3 to keep clones
/// cheap.
fn small_machine(mut cfg: MachineConfig) -> Machine {
    cfg.l3_total_bytes = 128 * 1024;
    let layout = Layout::new(&LayoutConfig::new(cfg.cores));
    let mut m = Machine::new(cfg, layout);
    m.boot();
    m
}

fn line_base(m: &Machine) -> Addr {
    m.layout().incoherent_heap.start
}

/// Applies `op`; returns `false` if the branch is pruned (software would
/// not issue it).
fn apply(state: &mut State, op: Op) -> bool {
    let base = line_base(&state.machine);
    let line = base.line();
    let m = &mut state.machine;
    let core = |c: u32| CoreId(c * 8); // first core of each cluster
    match op {
        Op::Load { cluster, word } => {
            // A load of a word dirty in *another* cluster's SWcc copy is
            // the race the contract forbids.
            if let Some(owner) = state.sw_dirty_by[word] {
                if owner != cluster {
                    return false;
                }
            }
            let (t2, v) = m.load(core(cluster), base.offset(4 * word as u32), state.t);
            if !state.maybe_stale[cluster as usize] {
                assert_eq!(
                    v, state.reference[word],
                    "load of word {word} by cluster {cluster} saw a stale value"
                );
            }
            state.t = t2 + 1;
        }
        Op::Store { cluster, word } => {
            if let Some(owner) = state.sw_dirty_by[word] {
                if owner != cluster {
                    return false; // would be a 5b race
                }
            }
            state.next_value += 1;
            let v = state.next_value;
            let swcc = m.domain_of(line) == cohesion_protocol::region::Domain::SWcc;
            let t2 = m.store(core(cluster), base.offset(4 * word as u32), v, state.t);
            state.reference[word] = v;
            if swcc {
                // SWcc: other clusters' cached copies are now outdated
                // until they invalidate.
                state.sw_dirty_by[word] = Some(cluster);
                state.set_others_stale(cluster, true);
            } else {
                // HWcc: ownership probes invalidated every other copy, so
                // *they* will refetch current data — but if this cluster's
                // own copy carried stale words into the HWcc domain
                // (§3.6: "the data values may not be safe"), upgrading it
                // does not clean them.
                state.set_others_stale(cluster, false);
            }
            state.t = t2 + 1;
        }
        Op::Flush { cluster } => {
            let t2 = m.flush(core(cluster), line, state.t);
            for w in 0..8 {
                if state.sw_dirty_by[w] == Some(cluster) {
                    state.sw_dirty_by[w] = None;
                }
            }
            state.t = t2 + 1;
        }
        Op::Invalidate { cluster } => {
            // Software never invalidates its own un-flushed dirt (that
            // would discard writes the reference model keeps).
            if state.sw_dirty_by.contains(&Some(cluster)) {
                return false;
            }
            let swcc = m.domain_of(line) == cohesion_protocol::region::Domain::SWcc;
            let t2 = m.invalidate(core(cluster), line, state.t);
            if swcc {
                // The stale copy (if any) is gone; the next load refetches.
                state.maybe_stale[cluster as usize] = false;
            }
            state.t = t2 + 1;
        }
        Op::Atomic { word } => {
            // An atomic to a word with outstanding SWcc dirt is racy.
            if state.sw_dirty_by[word].is_some() {
                return false;
            }
            state.next_value += 1;
            let swcc = m.domain_of(line) == cohesion_protocol::region::Domain::SWcc;
            let (t2, old) = m
                .atomic(
                    ClusterId(0),
                    base.offset(4 * word as u32),
                    AtomicKind::Add,
                    1,
                    state.t,
                )
                .expect("no table address involved");
            assert_eq!(old, state.reference[word], "atomic read a stale value");
            state.reference[word] = old.wrapping_add(1);
            // Under SWcc the atomic mutated the L3 behind any cached
            // copies; under HWcc its recall invalidated every cached copy.
            state.maybe_stale.fill(swcc);
            state.t = t2 + 1;
        }
        Op::ToSwcc | Op::ToHwcc => {
            // Domain transitions only exist under the hybrid model; under
            // the pure modes the table is inert and software would never
            // issue the update.
            if m.config().design.mode != cohesion_runtime::api::CohMode::Cohesion {
                return false;
            }
            // Transitions with outstanding multi-cluster dirt would be 5b
            // races; single-cluster dirt is legal (cases 3a/3b).
            let was = m.domain_of(line);
            let slot = m.fine_table().slot_of(line);
            let (kind, operand) = match op {
                Op::ToSwcc => (AtomicKind::Or, 1u32 << slot.bit),
                _ => (AtomicKind::And, !(1u32 << slot.bit)),
            };
            let (t2, _) = m
                .atomic(ClusterId(0), slot.word, kind, operand, state.t)
                .expect("races were pruned");
            // A same-domain "transition" changes no table bit and runs no
            // protocol action — the bookkeeping below only applies when
            // the domain actually flipped.
            match op {
                Op::ToHwcc if was == cohesion_protocol::region::Domain::SWcc => {
                    // The transition publishes all dirt (writeback or
                    // owner upgrade) — but stale *clean* copies become
                    // registered sharers of stale data (§3.6's "values may
                    // not be safe"), so staleness persists.
                    state.sw_dirty_by = [None; 8];
                }
                Op::ToSwcc if was == cohesion_protocol::region::Domain::HWcc => {
                    // HWcc->SWcc invalidates every sharer (cases 2a/3a):
                    // no cached copies remain, so nobody is stale.
                    state.maybe_stale.fill(false);
                }
                _ => {}
            }
            state.t = t2 + 1;
        }
    }
    true
}

fn check(state: &State) {
    state.machine.check_invariants();
    let mut drained = state.machine.clone();
    drained.drain_for_verification();
    let base = line_base(&state.machine);
    for w in 0..8 {
        assert_eq!(
            drained.mem.read_word(base.offset(4 * w as u32)),
            state.reference[w],
            "drained word {w} disagrees with the reference model"
        );
    }
}

fn key_of(state: &State) -> Key {
    Key {
        digest: state
            .machine
            .line_state_digest(line_base(&state.machine).line()),
        reference: state.reference,
        sw_dirty_by: state.sw_dirty_by,
        stale_mask: stale_mask(&state.maybe_stale),
        next_value: state.next_value,
    }
}

fn explore(
    state: &State,
    ops: &[Op],
    depth: u32,
    counts: &mut Counts,
    visited: &mut HashMap<Key, u32>,
    path: &mut Vec<Op>,
) {
    if depth == 0 {
        return;
    }
    for &op in ops {
        let mut next = state.clone();
        path.push(op);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if !apply(&mut next, op) {
                return false;
            }
            check(&next);
            true
        }));
        match r {
            Ok(false) => {
                path.pop();
                continue;
            }
            Ok(true) => {}
            Err(e) => {
                eprintln!("FAILING PATH: {path:?}");
                std::panic::resume_unwind(e);
            }
        }
        counts.checked += 1;
        // Re-enter a visited state only if the remaining budget lets us go
        // deeper below it than any earlier visit could.
        match visited.get(&key_of(&next)) {
            Some(&seen) if seen >= depth - 1 => {
                counts.deduped += 1;
                path.pop();
                continue;
            }
            _ => {
                visited.insert(key_of(&next), depth - 1);
            }
        }
        explore(&next, ops, depth - 1, counts, visited, path);
        path.pop();
    }
}

/// Walks every interleaving of `ops` on `machine` to `depth`.
fn model_check(machine: Machine, ops: &[Op], depth: u32) -> Counts {
    let mut counts = Counts::default();
    let state = State::new(machine, ops);
    explore(&state, ops, depth, &mut counts, &mut HashMap::new(), &mut Vec::new());
    counts
}

#[test]
fn model_check_cohesion_protocol() {
    let machine = small_machine(MachineConfig::scaled(16, DesignPoint::cohesion(256, 64)));
    let counts = model_check(machine, OPS, 4);
    assert!(counts.checked > 1_000, "checked {} states", counts.checked);
    assert!(counts.deduped > 0, "dedup never fired");
    println!(
        "model-checked {} transitions, {} deduped (depth 4)",
        counts.checked, counts.deduped
    );
}

#[test]
fn model_check_pure_hwcc() {
    // Transitions are meaningless under pure HWcc but harmless; explore
    // everything anyway. The pure-mode state graphs are small (transitions
    // change nothing), so dedup lets us go deeper than the hybrid walk.
    let machine = small_machine(MachineConfig::scaled(16, DesignPoint::hwcc_ideal()));
    let counts = model_check(machine, OPS, 6);
    assert!(counts.checked > 1_000, "checked {} states", counts.checked);
    assert!(counts.deduped > 0, "dedup never fired");
    println!(
        "pure HWcc: {} transitions, {} deduped (depth 6)",
        counts.checked, counts.deduped
    );
}

#[test]
fn model_check_pure_swcc() {
    let machine = small_machine(MachineConfig::scaled(16, DesignPoint::swcc()));
    let counts = model_check(machine, OPS, 6);
    assert!(counts.checked > 1_000, "checked {} states", counts.checked);
    assert!(counts.deduped > 0, "dedup never fired");
    println!(
        "pure SWcc: {} transitions, {} deduped (depth 6)",
        counts.checked, counts.deduped
    );
}

/// Depth-7 exploration (dedup makes this tractable — the un-deduplicated
/// tree would be ~9^7 paths); run explicitly with
/// `cargo test --release --test model_check -- --ignored`.
#[test]
#[ignore = "deep exploration; run explicitly"]
fn model_check_cohesion_depth7() {
    let machine = small_machine(MachineConfig::scaled(16, DesignPoint::cohesion(256, 64)));
    let counts = model_check(machine, OPS, 7);
    assert!(counts.checked > 10_000, "checked {} states", counts.checked);
    assert!(counts.deduped > counts.checked / 2, "dedup barely fired");
    println!(
        "depth 7: {} transitions, {} deduped",
        counts.checked, counts.deduped
    );
}

#[test]
fn model_check_deeper_with_mesi_ablation() {
    let mut cfg = MachineConfig::scaled(16, DesignPoint::cohesion(256, 64));
    cfg.exclusive_state = true;
    let counts = model_check(small_machine(cfg), OPS, 4);
    assert!(counts.checked > 1_000);
    println!(
        "MESI ablation: {} transitions, {} deduped",
        counts.checked, counts.deduped
    );
}

/// Three modelled clusters on a 32-core (four-cluster) machine; depth 4.
#[test]
fn model_check_three_clusters() {
    let cfg = MachineConfig::scaled(32, DesignPoint::cohesion(256, 64));
    let counts = model_check(small_machine(cfg), OPS3, 4);
    assert!(counts.checked > 2_000, "checked {} states", counts.checked);
    assert!(counts.deduped > 0, "dedup never fired (3 clusters)");
    println!(
        "3 clusters: {} transitions, {} deduped",
        counts.checked, counts.deduped
    );
}
