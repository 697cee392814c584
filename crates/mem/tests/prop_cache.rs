//! Property tests: the set-associative cache against a reference model
//! (on the first-party `cohesion-testkit` harness).

use std::collections::HashMap;

use cohesion_mem::addr::LineAddr;
use cohesion_mem::cache::{Cache, CacheConfig, EvictedLine, HwState, Line};
use cohesion_testkit::prop::{
    assume, bools, one_of, range, sample, unique_vec, vec_of, Runner, Strategy,
};

#[derive(Debug, Clone)]
enum CacheOp {
    /// Write a word (allocate the line if absent).
    Write { line: u32, word: usize, value: u32 },
    /// Read a word through the cache, filling from the model's backing
    /// store on a miss.
    Read { line: u32, word: usize },
    /// Invalidate a line, writing dirty words back to the model.
    Invalidate { line: u32 },
}

fn op_strategy(lines: u32) -> impl Strategy<Value = CacheOp> {
    one_of(vec![
        (range(0..lines), range(0..8usize), range(0u32..=u32::MAX))
            .map(|(line, word, value)| CacheOp::Write { line, word, value })
            .boxed(),
        (range(0..lines), range(0..8usize))
            .map(|(line, word)| CacheOp::Read { line, word })
            .boxed(),
        range(0..lines)
            .map(|line| CacheOp::Invalidate { line })
            .boxed(),
    ])
}

/// Every value observed through the cache equals the reference model's
/// value, under arbitrary interleavings of writes, fills, evictions,
/// and invalidations.
#[test]
fn cache_agrees_with_reference_model() {
    Runner::new("cache_agrees_with_reference_model")
        .cases(64)
        .run(
            &(
                vec_of(op_strategy(64), 1..400),
                range(8u32..11), // 256 B .. 1 KB cache over a 2 KB footprint
                sample(&[1u32, 2, 4]),
            ),
            |(ops, size_pow, assoc)| {
                let cfg = CacheConfig::new(1 << size_pow, assoc);
                assume(cfg.sets() >= 1 && cfg.sets().is_power_of_two());
                let mut cache = Cache::new(cfg);
                // Reference: authoritative word values, plus backing memory.
                let mut truth: HashMap<(u32, usize), u32> = HashMap::new();
                let mut backing: HashMap<(u32, usize), u32> = HashMap::new();

                let spill = |backing: &mut HashMap<(u32, usize), u32>,
                             ev: cohesion_mem::cache::EvictedLine| {
                    for w in 0..8 {
                        if ev.dirty_words & (1 << w) != 0 {
                            backing.insert((ev.addr.0, w), ev.data[w]);
                        }
                    }
                };

                for op in ops {
                    match op {
                        CacheOp::Write { line, word, value } => {
                            let la = LineAddr(line);
                            if cache.access(la).is_none() {
                                let (_, victim) = cache.allocate(la);
                                if let Some(ev) = victim {
                                    spill(&mut backing, ev);
                                }
                            }
                            cache.peek_mut(la).unwrap().write_word(word, value);
                            truth.insert((line, word), value);
                        }
                        CacheOp::Read { line, word } => {
                            let la = LineAddr(line);
                            if cache.access(la).is_none() {
                                let (_, victim) = cache.allocate(la);
                                if let Some(ev) = victim {
                                    spill(&mut backing, ev);
                                }
                            }
                            let l = cache.peek_mut(la).unwrap();
                            if !l.word_valid(word) {
                                // Fill this word from backing memory.
                                let mut data = [0u32; 8];
                                data[word] = backing.get(&(line, word)).copied().unwrap_or(0);
                                l.fill_masked(&data, 1 << word);
                            }
                            let got = cache.peek(la).unwrap().data[word];
                            let want = truth.get(&(line, word)).copied().unwrap_or(0);
                            assert_eq!(got, want, "line {} word {}", line, word);
                        }
                        CacheOp::Invalidate { line } => {
                            if let Some(ev) = cache.invalidate(LineAddr(line)) {
                                spill(&mut backing, ev);
                            }
                        }
                    }
                }

                // Structural invariants at the end.
                assert!(cache.occupancy() as u32 <= cfg.lines());
                for l in cache.iter_lines() {
                    assert_eq!(
                        l.dirty_words & !l.valid_words,
                        0,
                        "dirty words must be valid"
                    );
                }
            },
        );
}

/// Draining the cache returns every resident line exactly once.
#[test]
fn drain_is_exhaustive() {
    Runner::new("drain_is_exhaustive")
        .cases(64)
        .run(&unique_vec(range(0u32..64), 1..24), |lines| {
            let mut cache = Cache::new(CacheConfig::new(64 * 32, 8));
            for &l in &lines {
                cache.allocate(LineAddr(l));
            }
            let drained = cache.drain();
            assert_eq!(drained.len(), lines.len());
            let mut got: Vec<u32> = drained.iter().map(|e| e.addr.0).collect();
            got.sort_unstable();
            let mut want: Vec<u32> = lines;
            want.sort_unstable();
            assert_eq!(got, want);
            assert_eq!(cache.occupancy(), 0);
        });
}

/// The reference for [`Cache`]'s replacement and iteration order: the
/// one-`Vec`-per-set layout the line arena replaced. Each set keeps its
/// resident lines in insertion order; a removed line shifts the later
/// ones down, a new line is appended, and the victim is the first line
/// with the minimum stamp.
struct VecCache {
    sets: Vec<Vec<(Seen, u64)>>,
    assoc: usize,
    hash_index: bool,
    index_bits: u32,
    stamp: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Everything a caller can observe of one line.
type Seen = (u32, u8, u8, HwState, bool, [u32; 8]);

fn observe(l: &Line) -> Seen {
    observe_evicted(&EvictedLine::from(l))
}

fn observe_evicted(e: &EvictedLine) -> Seen {
    (
        e.addr.0,
        e.valid_words,
        e.dirty_words,
        e.state,
        e.incoherent,
        e.data,
    )
}

impl VecCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        VecCache {
            sets: (0..sets).map(|_| Vec::new()).collect(),
            assoc: cfg.assoc as usize,
            hash_index: cfg.hash_index,
            index_bits: sets.trailing_zeros().max(1),
            stamp: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn set_index(&self, line: u32) -> usize {
        let mask = self.sets.len() - 1;
        if !self.hash_index {
            return line as usize & mask;
        }
        let (mut x, mut folded) = (line, 0u32);
        while x != 0 {
            folded ^= x;
            x >>= self.index_bits;
        }
        folded as usize & mask
    }

    fn find(&mut self, line: u32) -> Option<&mut (Seen, u64)> {
        let set = self.set_index(line);
        self.sets[set].iter_mut().find(|(w, _)| w.0 == line)
    }

    fn access(&mut self, line: u32) -> Option<Seen> {
        self.stamp += 1;
        let stamp = self.stamp;
        match self.find(line) {
            Some((w, s)) => {
                *s = stamp;
                let w = *w;
                self.hits += 1;
                Some(w)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn allocate(&mut self, line: u32) -> Option<Seen> {
        self.stamp += 1;
        let (stamp, assoc) = (self.stamp, self.assoc);
        let set = self.set_index(line);
        let set = &mut self.sets[set];
        let victim = if set.len() >= assoc {
            let pos = (0..set.len()).min_by_key(|&i| set[i].1).expect("full set");
            self.evictions += 1;
            Some(set.remove(pos).0)
        } else {
            None
        };
        set.push(((line, 0, 0, HwState::Invalid, false, [0; 8]), stamp));
        victim
    }

    fn victim_preview(&self, line: u32) -> Option<Seen> {
        let set = &self.sets[self.set_index(line)];
        if set.len() < self.assoc {
            return None;
        }
        set.iter().min_by_key(|(_, s)| *s).map(|(w, _)| *w)
    }

    fn invalidate(&mut self, line: u32) -> Option<Seen> {
        let set = self.set_index(line);
        let pos = self.sets[set].iter().position(|(w, _)| w.0 == line)?;
        Some(self.sets[set].remove(pos).0)
    }

    fn lines(&self) -> Vec<Seen> {
        self.sets.iter().flatten().map(|(w, _)| *w).collect()
    }

    fn drain(&mut self) -> Vec<Seen> {
        let out = self.lines();
        self.sets.iter_mut().for_each(Vec::clear);
        out
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[derive(Debug, Clone)]
enum OrderOp {
    Access(u32),
    /// Allocates the line unless it is resident.
    Allocate(u32),
    /// Writes a word and the coherence fields through `peek_mut`.
    Write {
        line: u32,
        word: usize,
        value: u32,
        incoherent: bool,
    },
    Invalidate(u32),
    Preview(u32),
    /// Cleans every line through `iter_lines_mut`.
    CleanAll,
    Drain,
}

fn order_op(span: u32) -> impl Strategy<Value = OrderOp> {
    one_of(vec![
        range(0..span).map(OrderOp::Access).boxed(),
        range(0..span).map(OrderOp::Allocate).boxed(),
        range(0..span).map(OrderOp::Allocate).boxed(),
        (
            range(0..span),
            range(0..8usize),
            range(0u32..=u32::MAX),
            bools(),
        )
            .map(|(line, word, value, incoherent)| OrderOp::Write {
                line,
                word,
                value,
                incoherent,
            })
            .boxed(),
        range(0..span).map(OrderOp::Invalidate).boxed(),
        range(0..span).map(OrderOp::Preview).boxed(),
        sample(&[OrderOp::CleanAll, OrderOp::Drain]).boxed(),
    ])
}

/// The cache makes the same victim choices and walks its lines in the
/// same order as the one-`Vec`-per-set reference, so everything that
/// iterates a cache (`drain_for_verification`, `check_invariants`, the
/// broadcast clean) sees today's sequence.
#[test]
fn cache_order_matches_vec_per_set_reference() {
    Runner::new("cache_order_matches_vec_per_set_reference")
        .cases(128)
        .run(
            &(
                vec_of(order_op(1 << 10), 1..300),
                range(0u32..4), // 1..8 sets
                range(1u32..=16),
                bools(),
            ),
            |(ops, sets_pow, assoc, hashed)| {
                let size = (1u32 << sets_pow) * assoc * 32;
                let cfg = if hashed {
                    CacheConfig::hashed(size, assoc)
                } else {
                    CacheConfig::new(size, assoc)
                };
                let mut cache = Cache::new(cfg);
                let mut reference = VecCache::new(cfg);
                // Three lines per frame, so sets fill, evict and refill.
                let span = 3 * cfg.lines();
                for (step, op) in ops.into_iter().enumerate() {
                    let at = format!("step {step}: {op:?}");
                    match op {
                        OrderOp::Access(line) => {
                            let line = line % span;
                            let got = cache.access(LineAddr(line)).map(|l| observe(l));
                            assert_eq!(got, reference.access(line), "{at}");
                        }
                        OrderOp::Allocate(line) => {
                            let line = line % span;
                            if cache.peek(LineAddr(line)).is_none() {
                                let (_, victim) = cache.allocate(LineAddr(line));
                                let victim = victim.as_ref().map(observe_evicted);
                                assert_eq!(victim, reference.allocate(line), "{at}");
                            }
                        }
                        OrderOp::Write {
                            line,
                            word,
                            value,
                            incoherent,
                        } => {
                            let line = line % span;
                            let got = cache.peek_mut(LineAddr(line));
                            let want = reference.find(line);
                            assert_eq!(got.is_some(), want.is_some(), "{at}");
                            if let (Some(l), Some((w, _))) = (got, want) {
                                l.write_word(word, value);
                                l.state = HwState::Modified;
                                l.incoherent = incoherent;
                                w.1 |= 1 << word;
                                w.2 |= 1 << word;
                                w.3 = HwState::Modified;
                                w.4 = incoherent;
                                w.5[word] = value;
                            }
                        }
                        OrderOp::Invalidate(line) => {
                            let line = line % span;
                            let got = cache.invalidate(LineAddr(line));
                            let got = got.as_ref().map(observe_evicted);
                            assert_eq!(got, reference.invalidate(line), "{at}");
                        }
                        OrderOp::Preview(line) => {
                            let line = line % span;
                            let got = cache.victim_preview(LineAddr(line)).map(observe);
                            assert_eq!(got, reference.victim_preview(line), "{at}");
                        }
                        OrderOp::CleanAll => {
                            cache.iter_lines_mut().for_each(|l| l.clean());
                            for (w, _) in reference.sets.iter_mut().flatten() {
                                w.2 = 0;
                            }
                        }
                        OrderOp::Drain => {
                            let got: Vec<Seen> =
                                cache.drain().iter().map(observe_evicted).collect();
                            assert_eq!(got, reference.drain(), "{at}");
                        }
                    }
                    let lines: Vec<Seen> = cache.iter_lines().map(observe).collect();
                    assert_eq!(lines, reference.lines(), "{at}: iter_lines");
                    let lines_mut: Vec<Seen> = cache.iter_lines_mut().map(|l| observe(l)).collect();
                    assert_eq!(lines_mut, lines, "{at}: iter_lines_mut");
                    assert_eq!(cache.occupancy(), reference.occupancy(), "{at}");
                    let want = (reference.hits, reference.misses, reference.evictions);
                    assert_eq!(cache.stats(), want, "{at}: stats");
                }
            },
        );
}
