//! Set-associative cache with per-word valid/dirty bits and the Cohesion
//! incoherent bit.
//!
//! Two paper-specific features distinguish this from a textbook cache:
//!
//! * **Per-word valid and dirty bits** (§2.1): under SWcc a store miss
//!   allocates the line locally and marks only the stored word valid+dirty —
//!   no fill, no directory round trip. On eviction or flush only dirty words
//!   travel, and the L3 can merge disjoint write sets from multiple writers
//!   (Figure 7, case 4b).
//! * **The incoherent bit** (§3.4): one bit per L2 line recording that the
//!   line is currently in the SWcc domain, set from the response message when
//!   the L3's region tables classify the access, and making the line immune
//!   to hardware probes until a SWcc⇒HWcc transition clears it.

use crate::addr::{LineAddr, WORDS_PER_LINE};

/// MSI state for hardware-coherent lines.
///
/// The protocol is MSI: the paper omits E (exclusive→shared downgrades are
/// costly for read-shared accelerator data) and O (the L3 is the data
/// communication point; §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HwState {
    /// Not present / no permissions.
    #[default]
    Invalid,
    /// Read permission; other sharers may exist.
    Shared,
    /// Read permission and the only holder: a store may upgrade to
    /// [`HwState::Modified`] silently. Only granted when the machine's
    /// `exclusive_state` ablation is enabled — the paper's protocol is MSI
    /// because E→S downgrades are costly for read-shared data (§3.2).
    Exclusive,
    /// Write permission; this cache is the only holder.
    Modified,
}

/// One cache line: tag, per-word bookkeeping, data, coherence metadata.
#[derive(Debug, Clone, Copy)]
pub struct Line {
    /// Line address held (the full address is the tag in this model).
    pub addr: LineAddr,
    /// Bitmask of valid words (bit i = word i).
    pub valid_words: u8,
    /// Bitmask of dirty words; always a subset of `valid_words`.
    pub dirty_words: u8,
    /// HWcc MSI state. Meaningless (kept `Shared`) while `incoherent`.
    pub state: HwState,
    /// The Cohesion incoherent bit: line is SWcc-managed, invisible to the
    /// directory.
    pub incoherent: bool,
    /// The eight data words.
    pub data: [u32; WORDS_PER_LINE],
    lru_stamp: u64,
}

impl Line {
    fn empty() -> Self {
        Line {
            addr: LineAddr(0),
            valid_words: 0,
            dirty_words: 0,
            state: HwState::Invalid,
            incoherent: false,
            data: [0; WORDS_PER_LINE],
            lru_stamp: 0,
        }
    }

    /// Whether any word of the line is dirty.
    pub fn is_dirty(&self) -> bool {
        self.dirty_words != 0
    }

    /// Whether word `i` is valid.
    pub fn word_valid(&self, i: usize) -> bool {
        self.valid_words & (1 << i) != 0
    }

    /// Whether word `i` is dirty.
    pub fn word_dirty(&self, i: usize) -> bool {
        self.dirty_words & (1 << i) != 0
    }

    /// Writes word `i`, marking it valid and dirty.
    pub fn write_word(&mut self, i: usize, value: u32) {
        assert!(i < WORDS_PER_LINE);
        self.data[i] = value;
        self.valid_words |= 1 << i;
        self.dirty_words |= 1 << i;
    }

    /// Fills the words of `mask` from `data` *without* disturbing words that
    /// are locally dirty (a fill must not clobber newer local writes).
    pub fn fill_masked(&mut self, data: &[u32; WORDS_PER_LINE], mask: u8) {
        for (i, &word) in data.iter().enumerate() {
            let bit = 1u8 << i;
            if mask & bit != 0 && self.dirty_words & bit == 0 {
                self.data[i] = word;
                self.valid_words |= bit;
            }
        }
    }

    /// Clears dirty bits (after the dirty words have been written back).
    pub fn clean(&mut self) {
        self.dirty_words = 0;
    }
}

/// A line that was displaced from the cache, with everything the caller
/// needs to decide what messages to send.
#[derive(Debug, Clone, Copy)]
pub struct EvictedLine {
    /// Address of the displaced line.
    pub addr: LineAddr,
    /// Valid-word mask at eviction.
    pub valid_words: u8,
    /// Dirty-word mask at eviction.
    pub dirty_words: u8,
    /// HWcc state at eviction.
    pub state: HwState,
    /// Whether the line was SWcc-managed.
    pub incoherent: bool,
    /// Data words (only those in `valid_words` are meaningful).
    pub data: [u32; WORDS_PER_LINE],
}

impl From<&Line> for EvictedLine {
    fn from(l: &Line) -> Self {
        EvictedLine {
            addr: l.addr,
            valid_words: l.valid_words,
            dirty_words: l.dirty_words,
            state: l.state,
            incoherent: l.incoherent,
            data: l.data,
        }
    }
}

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// XOR-fold the set index (standard last-level-cache practice so that
    /// large power-of-two strides — e.g. same-sized arrays allocated
    /// back-to-back — do not alias into one set). L1s/L2s use plain
    /// bit-sliced indexing.
    pub hash_index: bool,
}

impl CacheConfig {
    /// Creates a config with plain bit-sliced indexing; see [`Cache::new`]
    /// for validity requirements.
    pub fn new(size_bytes: u32, assoc: u32) -> Self {
        CacheConfig {
            size_bytes,
            assoc,
            hash_index: false,
        }
    }

    /// Creates a config with an XOR-folded set index (for the L3).
    pub fn hashed(size_bytes: u32, assoc: u32) -> Self {
        CacheConfig {
            size_bytes,
            assoc,
            hash_index: true,
        }
    }

    /// Number of lines.
    pub fn lines(&self) -> u32 {
        self.size_bytes / crate::addr::LINE_BYTES
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.lines() / self.assoc
    }
}

/// Where one set's lines live in [`Cache`]'s line arena: its block of
/// `assoc` slots starts at `base`, and the first `len` of them are
/// resident.
#[derive(Debug, Clone, Copy, Default)]
struct SetSpan {
    base: u32,
    len: u32,
}

/// A set-associative, write-back cache with true-LRU replacement.
///
/// The lines of all sets share one arena whose capacity is reserved for
/// sets × ways at construction; a set is given its block of `assoc` slots
/// the first time it is filled. Building a cache therefore writes no
/// line, and a set that is never filled costs nothing. Within a set the
/// resident lines stay in insertion order: a removed line closes its gap
/// and a new line is appended, so iteration and the LRU victim's
/// first-minimum tie-break do not depend on the layout.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<SetSpan>,
    /// Whether each set has its block yet (only read when a set is empty,
    /// so the per-set header stays eight bytes).
    placed: Vec<bool>,
    lines: Vec<Line>,
    /// Fold shift for the XOR-folded index, precomputed from the set count
    /// (`set_index` is on the path of every access).
    index_bits: u32,
    stamp: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate: zero ways, capacity not a
    /// multiple of the line size × associativity, or a non-power-of-two set
    /// count.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.assoc >= 1, "cache needs at least one way");
        assert!(
            cfg.lines() >= cfg.assoc && cfg.lines().is_multiple_of(cfg.assoc),
            "capacity must be a whole number of sets"
        );
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            cfg,
            sets: vec![SetSpan::default(); sets as usize],
            placed: vec![false; sets as usize],
            lines: Vec::with_capacity(cfg.lines() as usize),
            index_bits: sets.trailing_zeros().max(1),
            stamp: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    fn set_index(&self, line: LineAddr) -> usize {
        let mask = self.sets.len() - 1;
        if !self.cfg.hash_index {
            return (line.0 as usize) & mask;
        }
        // XOR-fold the whole line address down into the index so any
        // power-of-two stride distributes across sets.
        let bits = self.index_bits;
        let mut x = line.0;
        let mut folded = 0u32;
        while x != 0 {
            folded ^= x;
            x >>= bits;
        }
        (folded as usize) & mask
    }

    /// The resident lines of set `set`, in insertion order.
    fn set_lines(&self, set: usize) -> &[Line] {
        let span = self.sets[set];
        &self.lines[span.base as usize..][..span.len as usize]
    }

    fn set_lines_mut(&mut self, set: usize) -> &mut [Line] {
        let span = self.sets[set];
        &mut self.lines[span.base as usize..][..span.len as usize]
    }

    /// Looks up `line`, updating LRU and hit/miss counters.
    pub fn access(&mut self, line: LineAddr) -> Option<&mut Line> {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_index(line);
        let span = self.sets[set];
        let found = self.lines[span.base as usize..][..span.len as usize]
            .iter_mut()
            .find(|l| l.addr == line);
        match found {
            Some(l) => {
                self.hits += 1;
                l.lru_stamp = stamp;
                Some(l)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up `line` without touching LRU or counters (for probes,
    /// invariant checks, and SWcc instructions that must not perturb
    /// replacement).
    pub fn peek(&self, line: LineAddr) -> Option<&Line> {
        self.set_lines(self.set_index(line))
            .iter()
            .find(|l| l.addr == line)
    }

    /// Mutable variant of [`Cache::peek`].
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut Line> {
        let set = self.set_index(line);
        self.set_lines_mut(set).iter_mut().find(|l| l.addr == line)
    }

    /// Allocates a frame for `line`, evicting the LRU way if the set is
    /// full. Returns the new (empty, invalid-words) line and the victim, if
    /// any.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the line is already present — callers
    /// must use [`Cache::access`]/[`Cache::peek_mut`] first.
    pub fn allocate(&mut self, line: LineAddr) -> (&mut Line, Option<EvictedLine>) {
        self.stamp += 1;
        let stamp = self.stamp;
        let assoc = self.cfg.assoc as usize;
        let set = self.set_index(line);
        if self.sets[set].len == 0 && !self.placed[set] {
            // First fill: hand the set the next block of the arena. The
            // arena's capacity covers every set, so this never reallocates.
            self.placed[set] = true;
            self.sets[set].base = self.lines.len() as u32;
            self.lines.resize(self.lines.len() + assoc, Line::empty());
        }
        let span = self.sets[set];
        let block = &mut self.lines[span.base as usize..][..assoc];
        let mut len = span.len as usize;
        // One pass over the set finds both a duplicate (a caller bug,
        // debug-checked) and the LRU victim. `min` tracking keeps the
        // first-minimum tie-break of the `min_by_key` scan it replaces,
        // though stamps are unique in practice.
        let mut victim_pos = 0;
        let mut victim_stamp = u64::MAX;
        for (i, l) in block[..len].iter().enumerate() {
            debug_assert!(
                l.addr != line,
                "allocate called for a line already present: {line}"
            );
            if l.lru_stamp < victim_stamp {
                victim_stamp = l.lru_stamp;
                victim_pos = i;
            }
        }
        let victim = if len >= assoc {
            self.evictions += 1;
            let evicted = EvictedLine::from(&block[victim_pos]);
            // Close the gap, keeping the survivors in insertion order.
            block.copy_within(victim_pos + 1..len, victim_pos);
            len -= 1;
            Some(evicted)
        } else {
            None
        };
        let mut fresh = Line::empty();
        fresh.addr = line;
        fresh.lru_stamp = stamp;
        block[len] = fresh;
        self.sets[set].len = len as u32 + 1;
        (&mut block[len], victim)
    }

    /// The line that [`Cache::allocate`] *would* evict for `line` right
    /// now, or `None` if the set still has a free way. Pure: no LRU or
    /// counter updates. The sharded executor's fast path uses this to
    /// decide — before mutating anything — whether an allocation's
    /// victim would need protocol messages.
    pub fn victim_preview(&self, line: LineAddr) -> Option<&Line> {
        let set = self.set_lines(self.set_index(line));
        if set.len() < self.cfg.assoc as usize {
            return None;
        }
        // Mirror allocate's scan exactly: first minimum lru_stamp wins.
        set.iter().min_by_key(|l| l.lru_stamp)
    }

    /// Removes `line` from the cache, returning its final contents.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<EvictedLine> {
        let set = self.set_index(line);
        let lines = self.set_lines_mut(set);
        let pos = lines.iter().position(|l| l.addr == line)?;
        let evicted = EvictedLine::from(&lines[pos]);
        lines.copy_within(pos + 1.., pos);
        self.sets[set].len -= 1;
        Some(evicted)
    }

    /// Iterates all resident lines, set by set in set order (for SWcc⇒HWcc
    /// broadcast-clean requests and invariant checks).
    pub fn iter_lines(&self) -> impl Iterator<Item = &Line> {
        self.sets
            .iter()
            .flat_map(move |span| &self.lines[span.base as usize..][..span.len as usize])
    }

    /// Mutable iteration over all resident lines, in [`Cache::iter_lines`]
    /// order.
    pub fn iter_lines_mut(&mut self) -> impl Iterator<Item = &mut Line> {
        let assoc = self.cfg.assoc as usize;
        // The arena holds the blocks in fill order; hand each one out when
        // its set's turn comes. An empty set may have no block (its `base`
        // is then 0, another set's), so it is skipped.
        let mut blocks: Vec<Option<&mut [Line]>> = self.lines.chunks_mut(assoc).map(Some).collect();
        self.sets
            .iter()
            .filter(|span| span.len > 0)
            .flat_map(move |span| {
                let block = blocks[span.base as usize / assoc]
                    .take()
                    .expect("each block belongs to one set");
                &mut block[..span.len as usize]
            })
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(|span| span.len as usize).sum()
    }

    /// Drops every resident line, returning them in [`Cache::iter_lines`]
    /// order (bulk invalidation).
    pub fn drain(&mut self) -> Vec<EvictedLine> {
        let out = self.iter_lines().map(EvictedLine::from).collect();
        for span in &mut self.sets {
            span.len = 0;
        }
        out
    }

    /// `(hits, misses, evictions)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets × 2 ways × 32 B = 256 B
        Cache::new(CacheConfig::new(256, 2))
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().lines(), 8);
        assert_eq!(c.config().sets(), 4);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(c.access(LineAddr(5)).is_none());
        let (l, victim) = c.allocate(LineAddr(5));
        assert!(victim.is_none());
        l.write_word(0, 42);
        let hit = c.access(LineAddr(5)).expect("hit after allocate");
        assert_eq!(hit.data[0], 42);
        assert!(hit.word_dirty(0));
        assert!(!hit.word_valid(1));
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.allocate(LineAddr(0));
        c.allocate(LineAddr(4));
        c.access(LineAddr(0)); // 0 is now MRU; 4 is LRU
        let (_, victim) = c.allocate(LineAddr(8));
        assert_eq!(victim.expect("set was full").addr, LineAddr(4));
        assert!(c.peek(LineAddr(0)).is_some());
        assert!(c.peek(LineAddr(4)).is_none());
    }

    #[test]
    fn fill_masked_preserves_dirty_words() {
        let mut l = Line::empty();
        l.write_word(2, 7); // locally dirty word 2
        let incoming = [100, 101, 102, 103, 104, 105, 106, 107];
        l.fill_masked(&incoming, 0xff);
        assert_eq!(l.data[2], 7, "fill must not clobber a dirty word");
        assert_eq!(l.data[0], 100);
        assert_eq!(l.valid_words, 0xff);
        assert_eq!(l.dirty_words, 0b100);
    }

    #[test]
    fn partial_fill_marks_only_masked_words() {
        let mut l = Line::empty();
        l.fill_masked(&[9; 8], 0b0000_1010);
        assert!(l.word_valid(1) && l.word_valid(3));
        assert!(!l.word_valid(0));
        assert!(!l.is_dirty());
    }

    #[test]
    fn invalidate_returns_contents() {
        let mut c = small();
        let (l, _) = c.allocate(LineAddr(9));
        l.write_word(1, 11);
        let ev = c.invalidate(LineAddr(9)).expect("line present");
        assert_eq!(ev.addr, LineAddr(9));
        assert_eq!(ev.dirty_words, 0b10);
        assert_eq!(ev.data[1], 11);
        assert!(c.invalidate(LineAddr(9)).is_none());
    }

    #[test]
    fn peek_does_not_touch_lru_or_stats() {
        let mut c = small();
        c.allocate(LineAddr(0));
        c.allocate(LineAddr(4));
        let before = c.stats();
        // Peek line 0 many times; it must stay LRU relative to 4.
        for _ in 0..10 {
            assert!(c.peek(LineAddr(0)).is_some());
        }
        assert_eq!(c.stats(), before);
        let (_, victim) = c.allocate(LineAddr(8));
        assert_eq!(victim.expect("evicts LRU").addr, LineAddr(0));
    }

    #[test]
    fn drain_empties_cache() {
        let mut c = small();
        c.allocate(LineAddr(1));
        c.allocate(LineAddr(2));
        c.allocate(LineAddr(3));
        let drained = c.drain();
        assert_eq!(drained.len(), 3);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn clean_clears_dirty_only() {
        let mut l = Line::empty();
        l.write_word(0, 1);
        l.write_word(5, 2);
        l.clean();
        assert!(!l.is_dirty());
        assert!(l.word_valid(0) && l.word_valid(5));
        assert_eq!(l.data[5], 2);
    }

    #[test]
    fn allocate_into_full_set_evicts_true_lru() {
        // 2 sets × 4 ways × 32 B; lines 0, 2, 4, 6 all map to set 0.
        let mut c = Cache::new(CacheConfig::new(256, 4));
        for l in [0u32, 2, 4, 6] {
            c.allocate(LineAddr(l));
        }
        // Re-touch every way except 4, which becomes the true LRU.
        c.access(LineAddr(2));
        c.access(LineAddr(0));
        c.access(LineAddr(6));
        let (_, victim) = c.allocate(LineAddr(8));
        assert_eq!(victim.expect("set was full").addr, LineAddr(4));
        for l in [0u32, 2, 6, 8] {
            assert!(c.peek(LineAddr(l)).is_some(), "line {l} must survive");
        }
        assert_eq!(c.stats().2, 1, "exactly one eviction");
    }

    #[test]
    fn victim_preview_matches_allocate() {
        let mut c = small();
        assert!(c.victim_preview(LineAddr(8)).is_none(), "empty set");
        c.allocate(LineAddr(0));
        assert!(c.victim_preview(LineAddr(8)).is_none(), "free way left");
        c.allocate(LineAddr(4));
        c.access(LineAddr(0)); // 4 becomes LRU
        let predicted = c.victim_preview(LineAddr(8)).expect("set full").addr;
        let (_, victim) = c.allocate(LineAddr(8));
        assert_eq!(predicted, victim.expect("set was full").addr);
        assert_eq!(predicted, LineAddr(4));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already present")]
    fn double_allocate_panics() {
        let mut c = small();
        c.allocate(LineAddr(3));
        c.allocate(LineAddr(3));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        // 3 sets
        let _ = Cache::new(CacheConfig::new(288, 3));
    }
}
