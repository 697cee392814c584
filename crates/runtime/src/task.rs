//! The bulk-synchronous task/trace programming model (§3.3, §4.1).
//!
//! Benchmarks are task-based, barrier-synchronized work-queue programs. A
//! program is a sequence of [`Phase`]s; each phase is a bag of [`Task`]s
//! dispatched to cores through an atomic work queue and closed by a global
//! barrier. Tasks are *operation traces* over the simulated address space:
//! loads (optionally carrying the golden expected value so stale data is
//! detected), stores carrying the computed value, compute delays, uncached
//! atomics, per-core stack traffic, and — under SWcc — the explicit flush
//! and invalidate instructions whose cost and (in)efficiency Figures 2 and 3
//! quantify.

use cohesion_mem::addr::{Addr, LineAddr, LINE_BYTES};
use cohesion_protocol::region::Domain;

/// The atomic read-modify-write operations the L3 performs (§3.4 uses
/// `atom.or`/`atom.and` for the region table; kernels use adds and min for
/// reductions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    /// Fetch-and-add.
    Add,
    /// Fetch-and-or.
    Or,
    /// Fetch-and-and.
    And,
    /// Fetch-and-min (unsigned).
    Min,
    /// Unconditional exchange.
    Xchg,
}

impl AtomicKind {
    /// Applies the operation to `old`, returning the new stored value.
    pub fn apply(self, old: u32, operand: u32) -> u32 {
        match self {
            AtomicKind::Add => old.wrapping_add(operand),
            AtomicKind::Or => old | operand,
            AtomicKind::And => old & operand,
            AtomicKind::Min => old.min(operand),
            AtomicKind::Xchg => operand,
        }
    }
}

/// One operation in a task trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Load a word. When `expect` is set, the machine asserts the loaded
    /// value equals the golden result — a stale line is an immediately
    /// visible coherence bug, not a silent statistic.
    Load {
        /// Word address.
        addr: Addr,
        /// Golden expected value, if this access is race-free.
        expect: Option<u32>,
    },
    /// Store a word (value computed against golden memory at
    /// trace-generation time).
    Store {
        /// Word address.
        addr: Addr,
        /// The value to store.
        value: u32,
    },
    /// Spend `cycles` of pure computation.
    Compute {
        /// Busy cycles.
        cycles: u32,
    },
    /// Cache-bypassing atomic read-modify-write performed at the L3.
    Atomic {
        /// Word address.
        addr: Addr,
        /// Operation.
        kind: AtomicKind,
        /// Operand.
        operand: u32,
    },
    /// Load from the executing core's private stack at `offset`.
    StackLoad {
        /// Byte offset within the core's stack.
        offset: u32,
    },
    /// Store to the executing core's private stack at `offset`.
    StackStore {
        /// Byte offset within the core's stack.
        offset: u32,
        /// The value to store (scratch; not verified).
        value: u32,
    },
    /// Explicit SWcc writeback (flush) instruction for one line.
    Flush {
        /// Target line.
        line: LineAddr,
    },
    /// Explicit SWcc invalidation instruction for one line.
    Invalidate {
        /// Target line.
        line: LineAddr,
    },
}

/// One task: an operation trace plus its instruction footprint.
#[derive(Debug, Clone, Default)]
pub struct Task {
    /// The operations, executed in order by one core.
    pub ops: Vec<Op>,
    /// Code footprint in lines; the machine synthesizes an instruction-fetch
    /// stream looping over this many lines (one fetch per 8 ops — 32-byte
    /// lines hold 8 RISC instructions).
    pub code_lines: u32,
}

/// A coherence-domain change requested by the runtime at a phase boundary
/// (`coh_SWcc_region` / `coh_HWcc_region`, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionOp {
    /// Target domain.
    pub to: Domain,
    /// First byte of the region.
    pub start: Addr,
    /// Region size in bytes.
    pub bytes: u32,
}

impl RegionOp {
    /// The lines the region spans.
    pub fn lines(&self) -> impl Iterator<Item = LineAddr> {
        let first = self.start.0 / LINE_BYTES;
        let last = (self.start.0 + self.bytes.max(1) - 1) / LINE_BYTES;
        (first..=last).map(LineAddr)
    }
}

/// One bulk-synchronous phase: optional region-table updates (performed by
/// the runtime on core 0 before the phase's tasks are enqueued), then a bag
/// of tasks, then an implicit global barrier.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// A short name for logs ("spmv", "reduce", ...).
    pub name: &'static str,
    /// Domain transitions to apply before the tasks run.
    pub region_ops: Vec<RegionOp>,
    /// The tasks of the phase.
    pub tasks: Vec<Task>,
}

impl Phase {
    /// Creates an empty named phase.
    pub fn new(name: &'static str) -> Self {
        Phase {
            name,
            region_ops: Vec::new(),
            tasks: Vec::new(),
        }
    }

    /// Total operations across all tasks.
    pub fn total_ops(&self) -> usize {
        self.tasks.iter().map(|t| t.ops.len()).sum()
    }
}

/// Convenience builder for task traces.
///
/// Tracks the set of lines touched so SWcc epilogues (flush dirty outputs
/// eagerly, invalidate read-only inputs lazily; Figure 3) can be emitted
/// mechanically.
///
/// # Example
///
/// ```
/// use cohesion_runtime::task::TaskBuilder;
/// use cohesion_mem::addr::Addr;
///
/// let mut b = TaskBuilder::new(8);
/// b.load(Addr(0x100), 42)     // verified against the golden value
///     .compute(4)
///     .store(Addr(0x200), 7);
/// b.flush_written(|_| true);  // eager SWcc writeback of outputs
/// b.invalidate_read(|_| true); // lazy invalidation of inputs
/// let task = b.build();
/// assert_eq!(task.ops.len(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskBuilder {
    ops: Vec<Op>,
    code_lines: u32,
    read_lines: Vec<LineAddr>,
    written_lines: Vec<LineAddr>,
}

impl TaskBuilder {
    /// Starts a task with the given instruction footprint.
    pub fn new(code_lines: u32) -> Self {
        TaskBuilder {
            code_lines,
            ..Default::default()
        }
    }

    /// Appends a verified load.
    pub fn load(&mut self, addr: Addr, expect: u32) -> &mut Self {
        self.ops.push(Op::Load {
            addr,
            expect: Some(expect),
        });
        self.note_read(addr);
        self
    }

    /// Appends an unverified load (racy or scratch data).
    pub fn load_unchecked(&mut self, addr: Addr) -> &mut Self {
        self.ops.push(Op::Load { addr, expect: None });
        self.note_read(addr);
        self
    }

    /// Appends a store.
    pub fn store(&mut self, addr: Addr, value: u32) -> &mut Self {
        self.ops.push(Op::Store { addr, value });
        self.note_write(addr);
        self
    }

    /// Appends compute delay.
    pub fn compute(&mut self, cycles: u32) -> &mut Self {
        if cycles > 0 {
            // Merge adjacent compute ops to keep traces compact.
            if let Some(Op::Compute { cycles: c }) = self.ops.last_mut() {
                *c = c.saturating_add(cycles);
            } else {
                self.ops.push(Op::Compute { cycles });
            }
        }
        self
    }

    /// Appends an uncached atomic.
    pub fn atomic(&mut self, addr: Addr, kind: AtomicKind, operand: u32) -> &mut Self {
        self.ops.push(Op::Atomic {
            addr,
            kind,
            operand,
        });
        self
    }

    /// Appends stack traffic (function-call spill/reload of `words` words at
    /// `offset`).
    pub fn stack_frame(&mut self, offset: u32, words: u32) -> &mut Self {
        for w in 0..words {
            self.ops.push(Op::StackStore {
                offset: offset + 4 * w,
                value: w,
            });
        }
        for w in 0..words {
            self.ops.push(Op::StackLoad {
                offset: offset + 4 * w,
            });
        }
        self
    }

    /// Appends a call chain: `depth` nested frames of `words` words each,
    /// spilled on the way down and reloaded on the way up — the register
    /// save/restore traffic of a real call tree. Under pure HWcc this is
    /// what puts stacks in the directory (≈15% of entries in the paper's
    /// Figure 9c); under SWcc/Cohesion the stack region is a coarse SWcc
    /// region and stays out.
    pub fn call_tree(&mut self, depth: u32, words: u32) -> &mut Self {
        for d in 0..depth {
            let off = d * words * 4;
            for w in 0..words {
                self.ops.push(Op::StackStore {
                    offset: off + 4 * w,
                    value: d * 97 + w,
                });
            }
        }
        for d in (0..depth).rev() {
            let off = d * words * 4;
            for w in 0..words {
                self.ops.push(Op::StackLoad { offset: off + 4 * w });
            }
        }
        self
    }

    fn note_read(&mut self, addr: Addr) {
        let line = addr.line();
        if self.read_lines.last() != Some(&line) && !self.read_lines.contains(&line) {
            self.read_lines.push(line);
        }
    }

    fn note_write(&mut self, addr: Addr) {
        let line = addr.line();
        if self.written_lines.last() != Some(&line) && !self.written_lines.contains(&line) {
            self.written_lines.push(line);
        }
    }

    /// Appends the SWcc task epilogue: eager flushes of every written line.
    /// Only lines for which `is_swcc` returns true get instructions (under
    /// Cohesion, HWcc data needs none; §4.1).
    pub fn flush_written(&mut self, is_swcc: impl Fn(LineAddr) -> bool) -> &mut Self {
        let lines: Vec<_> = self.written_lines.iter().copied().filter(|&l| is_swcc(l)).collect();
        for line in lines {
            self.ops.push(Op::Flush { line });
        }
        self
    }

    /// Prepends lazy invalidations of every line this task *reads* (whether
    /// or not it also writes it), so the task observes the latest flushed
    /// values regardless of what stale clean copies its cluster carried
    /// from earlier phases.
    ///
    /// "Lazy" is relative to the producing phase: the invalidation is
    /// deferred all the way to the consuming task's start, by which time
    /// the stale line has often already been evicted — making the
    /// instruction useless, the inefficiency Figure 3 quantifies.
    pub fn invalidate_read(&mut self, is_swcc: impl Fn(LineAddr) -> bool) -> &mut Self {
        let invs: Vec<Op> = self
            .read_lines
            .iter()
            .copied()
            .filter(|&l| is_swcc(l))
            .map(|line| Op::Invalidate { line })
            .collect();
        self.ops.splice(0..0, invs);
        self
    }

    /// Finishes the task. The op list gives back the slack its growth
    /// left: a phase holds every task's list at once, and that slack
    /// could be as large as the ops themselves.
    pub fn build(&mut self) -> Task {
        let mut ops = std::mem::take(&mut self.ops);
        ops.shrink_to_fit();
        Task {
            ops,
            code_lines: self.code_lines.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_semantics() {
        assert_eq!(AtomicKind::Add.apply(10, 5), 15);
        assert_eq!(AtomicKind::Or.apply(0b01, 0b10), 0b11);
        assert_eq!(AtomicKind::And.apply(0b11, 0b10), 0b10);
        assert_eq!(AtomicKind::Min.apply(7, 3), 3);
        assert_eq!(AtomicKind::Min.apply(3, 7), 3);
        assert_eq!(AtomicKind::Xchg.apply(1, 9), 9);
        assert_eq!(AtomicKind::Add.apply(u32::MAX, 1), 0, "wrapping add");
    }

    #[test]
    fn region_op_line_iteration() {
        let r = RegionOp {
            to: Domain::SWcc,
            start: Addr(40),
            bytes: 60,
        };
        // Bytes [40, 100) span lines 1..=3.
        let lines: Vec<_> = r.lines().collect();
        assert_eq!(lines, vec![LineAddr(1), LineAddr(2), LineAddr(3)]);
    }

    #[test]
    fn builder_tracks_lines_and_emits_epilogue() {
        let mut b = TaskBuilder::new(4);
        b.load(Addr(0x100), 1)
            .load(Addr(0x104), 2) // same line: recorded once
            .store(Addr(0x200), 3)
            .compute(10);
        b.flush_written(|_| true).invalidate_read(|_| true);
        let t = b.build();
        let flushes = t
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Flush { .. }))
            .count();
        let invs = t
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Invalidate { .. }))
            .count();
        assert_eq!(flushes, 1);
        assert_eq!(invs, 1);
        assert!(
            matches!(t.ops[0], Op::Invalidate { .. }),
            "input invalidations are prepended (before the first load)"
        );
        assert!(
            matches!(t.ops.last(), Some(Op::Flush { .. })),
            "output flushes are appended (eager writeback at task end)"
        );
        assert_eq!(t.code_lines, 4);
    }

    #[test]
    fn epilogue_respects_domain_filter() {
        let mut b = TaskBuilder::new(1);
        b.store(Addr(0x100), 1).store(Addr(0x200), 2);
        b.flush_written(|l| l == Addr(0x100).line());
        let t = b.build();
        assert_eq!(
            t.ops
                .iter()
                .filter(|o| matches!(o, Op::Flush { .. }))
                .count(),
            1,
            "HWcc lines need no flush instructions"
        );
    }

    #[test]
    fn read_modify_write_lines_are_invalidated_upfront() {
        let mut b = TaskBuilder::new(1);
        b.load(Addr(0x100), 0).store(Addr(0x104), 1);
        b.invalidate_read(|_| true);
        let t = b.build();
        assert!(
            matches!(t.ops[0], Op::Invalidate { .. }),
            "a read-modify-write line must be invalidated before the read: \
             another cluster may have produced it since this one last \
             cached it"
        );
        // Pure-output lines (never read) need no upfront invalidation.
        let mut b = TaskBuilder::new(1);
        b.store(Addr(0x200), 1);
        b.invalidate_read(|_| true);
        let t = b.build();
        assert_eq!(
            t.ops
                .iter()
                .filter(|o| matches!(o, Op::Invalidate { .. }))
                .count(),
            0
        );
    }

    #[test]
    fn compute_ops_merge() {
        let mut b = TaskBuilder::new(1);
        b.compute(5).compute(7).compute(0);
        let t = b.build();
        assert_eq!(t.ops, vec![Op::Compute { cycles: 12 }]);
    }

    #[test]
    fn stack_frame_shape() {
        let mut b = TaskBuilder::new(1);
        b.stack_frame(64, 3);
        let t = b.build();
        assert_eq!(t.ops.len(), 6);
        assert!(matches!(t.ops[0], Op::StackStore { offset: 64, .. }));
        assert!(matches!(t.ops[5], Op::StackLoad { offset: 72 }));
    }

    #[test]
    fn phase_totals() {
        let mut p = Phase::new("test");
        let mut b = TaskBuilder::new(1);
        b.compute(1);
        p.tasks.push(b.build());
        let mut b = TaskBuilder::new(1);
        b.load_unchecked(Addr(0)).store(Addr(4), 1);
        p.tasks.push(b.build());
        assert_eq!(p.total_ops(), 3);
        assert_eq!(p.name, "test");
    }
}
