//! Deterministic event queue.
//!
//! The simulator advances by popping the earliest pending event rather than
//! ticking every component every cycle: a blocked core costs nothing until
//! its memory reply arrives. Events scheduled for the same cycle are
//! delivered in insertion order, which keeps the whole simulation
//! deterministic without any per-component tie-break logic.
//!
//! # Implementation: binary heap
//!
//! The queue is a [`BinaryHeap`] ordered by `(cycle, seq)`, where `seq` is
//! the queue's schedule counter. The sharded engine keeps one queue per
//! cluster lane, and a lane holds one wake-up per waiting core — eight at
//! the paper's cluster size — so an O(log n) sift over a handful of
//! entries is all the structure the traffic needs.
//!
//! # Determinism contract
//!
//! Pop order is exactly ascending `(cycle, seq)`. The clock never moves
//! backwards: scheduling before `now()` panics, and all pending events are
//! always at or after `now()`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Cycle;

/// A pending event: delivery cycle, FIFO sequence number, payload.
#[derive(Debug, Clone)]
struct Pending<E> {
    at: Cycle,
    seq: u64,
    payload: E,
}

impl<E> Pending<E> {
    fn ord_key(&self) -> (Cycle, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        self.ord_key() == other.ord_key()
    }
}
impl<E> Eq for Pending<E> {}

impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// `BinaryHeap` is a max-heap; invert the ordering so the earliest event wins.
impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.ord_key().cmp(&self.ord_key())
    }
}

/// A deterministic priority queue of simulation events.
///
/// Events pop in `(cycle, insertion order)` order. See the crate-level
/// example for typical use, and the module docs for the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Pending<E>>,
    next_seq: u64,
    now: Cycle,
    max_pending: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at cycle 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
            max_pending: 0,
        }
    }

    /// Schedules `payload` for delivery at cycle `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the last popped event); the
    /// simulator never time-travels.
    pub fn schedule(&mut self, at: Cycle, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled at cycle {at} but the clock already reads {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Pending { at, seq, payload });
        self.max_pending = self.max_pending.max(self.heap.len());
    }

    /// Pops the earliest pending event, advancing the clock to its cycle.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let p = self.heap.pop()?;
        debug_assert!(p.at >= self.now);
        self.now = p.at;
        Some((p.at, p.payload))
    }

    /// The cycle of the most recently popped event (0 before any pop).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The delivery cycle of the next pending event, if any.
    pub fn peek_cycle(&self) -> Option<Cycle> {
        self.heap.peek().map(|p| p.at)
    }

    /// Total events ever scheduled on this queue (the sequence counter —
    /// also the FIFO tie-break watermark).
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// High-water mark of simultaneously pending events — how full the
    /// queue ever got.
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 'c');
        q.schedule(10, 'a');
        q.schedule(20, 'b');
        assert_eq!(q.pop(), Some((10, 'a')));
        assert_eq!(q.pop(), Some((20, 'b')));
        assert_eq!(q.pop(), Some((30, 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(7, i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn clock_tracks_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.schedule(5, ());
        q.schedule(9, ());
        q.pop();
        assert_eq!(q.now(), 5);
        q.schedule(5, ()); // same cycle as `now` is allowed
        q.pop();
        q.pop();
        assert_eq!(q.now(), 9);
    }

    #[test]
    #[should_panic(expected = "already reads")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(3, ());
    }

    #[test]
    fn peek_and_len() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_cycle(), None);
        q.schedule(4, 1);
        q.schedule(2, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_cycle(), Some(2));
    }

    #[test]
    fn far_future_events_pop_after_near_ones() {
        let mut q = EventQueue::new();
        // Scheduled first, due long after the next one.
        q.schedule(10_000, 'z');
        q.schedule(5, 'a');
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_cycle(), Some(5));
        assert_eq!(q.pop(), Some((5, 'a')));
        // Nothing in between: the clock jumps straight to the far event.
        assert_eq!(q.peek_cycle(), Some(10_000));
        assert_eq!(q.pop(), Some((10_000, 'z')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn early_scheduled_far_events_keep_seq_order_within_a_cycle() {
        let mut q = EventQueue::new();
        // seq 0 is scheduled for cycle 300 before the clock moves.
        q.schedule(300, 0u32);
        q.schedule(10, 1u32);
        assert_eq!(q.pop(), Some((10, 1)));
        // After advancing, a direct schedule for the same cycle 300 must
        // still pop after the earlier-scheduled seq-0 event.
        q.schedule(300, 2u32);
        assert_eq!(q.pop(), Some((300, 0)));
        assert_eq!(q.pop(), Some((300, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cycles_congruent_mod_256_pop_in_cycle_order() {
        let mut q = EventQueue::new();
        q.schedule(255, 'w');
        q.schedule(256, 'o');
        q.schedule(0, 'n'); // congruent to 'o' mod 256
        assert_eq!(q.pop(), Some((0, 'n')));
        assert_eq!(q.pop(), Some((255, 'w')));
        assert_eq!(q.pop(), Some((256, 'o')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop_across_long_spans() {
        // Drive the clock through several bursts with a mix of near and far
        // events and verify global (cycle, seq) order.
        let mut q = EventQueue::new();
        let mut expect: Vec<(Cycle, u32)> = Vec::new();
        let mut id = 0u32;
        for burst in 0..10u64 {
            for d in [0u64, 1, 63, 64, 255, 256, 257, 1000] {
                let at = burst * 200 + d;
                if at >= q.now() {
                    q.schedule(at, id);
                    expect.push((at, id));
                    id += 1;
                }
            }
            // Pop a couple between bursts to advance the clock.
            for _ in 0..3 {
                if let Some((t, v)) = q.pop() {
                    let min = expect
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(at, seq))| (at, seq))
                        .map(|(i, _)| i)
                        .unwrap();
                    assert_eq!((t, v), expect.remove(min));
                }
            }
        }
        while let Some((t, v)) = q.pop() {
            let min = expect
                .iter()
                .enumerate()
                .min_by_key(|(_, &(at, seq))| (at, seq))
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!((t, v), expect.remove(min));
        }
        assert!(expect.is_empty());
    }
}
