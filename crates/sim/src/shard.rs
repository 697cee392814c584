//! Sharded event scheduling for conservative parallel simulation.
//!
//! [`LaneQueues`] partitions one logical event stream across a fixed set
//! of *lanes* (in the machine: one lane per cluster), each backed by its
//! own timing-wheel [`EventQueue`]. The executor drains events in
//! *windows*: [`LaneQueues::pop_window`] moves every event scheduled
//! strictly before `horizon = min-pending-cycle + window` into one list
//! per lane, each in the `(cycle, seq)` pop order its wheel guarantees.
//! The window's canonical order is those lists merged under the fixed
//! rule
//!
//! > ascending `(cycle, lane, seq)`
//!
//! where `seq` is an event's index in its lane's list. Within a window,
//! events in *different* lanes may be processed concurrently as long as
//! they touch only lane-private state; any cross-lane (serial) work must
//! follow the canonical order, which it recovers by sorting just the
//! events it handles by that key.
//!
//! # Determinism contract
//!
//! The lane count is part of the *logical* configuration (the machine's
//! cluster count), not the host parallelism: window contents and
//! canonical order depend only on the sequence of
//! [`LaneQueues::schedule`] calls and the window size. How many worker
//! threads process a window — one or sixteen — cannot be observed
//! through this type, which is the foundation of the `--shards N`
//! byte-identity guarantee.

use crate::event::EventQueue;
use crate::Cycle;

/// A fixed set of per-lane timing-wheel event queues drained in windows.
/// See the module docs for the ordering contract.
#[derive(Debug, Clone)]
pub struct LaneQueues<E> {
    lanes: Vec<EventQueue<E>>,
}

impl<E: Copy> LaneQueues<E> {
    /// Creates `lanes` empty queues.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        LaneQueues {
            lanes: (0..lanes).map(|_| EventQueue::new()).collect(),
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Schedules `payload` on `lane` at cycle `at`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `at` is before the lane's
    /// current time (its last popped cycle).
    pub fn schedule(&mut self, lane: usize, at: Cycle, payload: E) {
        self.lanes[lane].schedule(at, payload);
    }

    /// Direct access to one lane's queue — for a lane worker rescheduling
    /// its own cores during a parallel window.
    pub fn lane_mut(&mut self, lane: usize) -> &mut EventQueue<E> {
        &mut self.lanes[lane]
    }

    /// The per-lane queues as a mutable slice (for split borrows across
    /// lane workers).
    pub fn as_mut_slice(&mut self) -> &mut [EventQueue<E>] {
        &mut self.lanes
    }

    /// Earliest pending cycle across all lanes, or `None` when every lane
    /// is empty.
    pub fn next_cycle(&self) -> Option<Cycle> {
        self.lanes.iter().filter_map(EventQueue::peek_cycle).min()
    }

    /// Total pending events across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(EventQueue::len).sum()
    }

    /// Whether every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(EventQueue::is_empty)
    }

    /// Total `schedule` calls across all lanes (matches the single-queue
    /// `events/scheduled` accounting: one count per call, independent of
    /// the lane partition only in total).
    pub fn scheduled(&self) -> u64 {
        self.lanes.iter().map(EventQueue::scheduled).sum()
    }

    /// Sum of each lane's high-water mark of pending events. The lane
    /// partition is fixed by the machine configuration, so this is
    /// deterministic — but it is a per-lane sum, not the high-water mark
    /// of one merged queue.
    pub fn max_pending(&self) -> usize {
        self.lanes.iter().map(EventQueue::max_pending).sum()
    }

    /// Drains the next window into `out`, one list per lane (each cleared
    /// first): every event with `cycle < min-pending + window`, as
    /// `(cycle, payload)` in the lane's `(cycle, seq)` pop order. Returns
    /// the exclusive horizon, or `None` (leaving every list empty) when
    /// all lanes are empty.
    ///
    /// A `window` of zero still drains the events at exactly the minimum
    /// pending cycle (the horizon is at least one cycle past it), so the
    /// drain always makes progress.
    ///
    /// # Panics
    ///
    /// Panics unless `out` holds one list per lane.
    pub fn pop_window(&mut self, window: Cycle, out: &mut [Vec<(Cycle, E)>]) -> Option<Cycle> {
        assert_eq!(out.len(), self.lanes.len(), "one output list per lane");
        out.iter_mut().for_each(Vec::clear);
        let horizon = self.next_cycle()? + window.max(1);
        for (q, list) in self.lanes.iter_mut().zip(out) {
            while q.peek_cycle().is_some_and(|c| c < horizon) {
                list.push(q.pop().expect("peeked"));
            }
        }
        Some(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_lane_matches_plain_queue_order() {
        let mut lq = LaneQueues::new(1);
        let mut q = EventQueue::new();
        for (at, p) in [(5u64, 1u32), (3, 2), (5, 3), (9, 4)] {
            lq.schedule(0, at, p);
            q.schedule(at, p);
        }
        let mut lists = vec![Vec::new()];
        let mut drained = Vec::new();
        while lq.pop_window(1000, &mut lists).is_some() {
            drained.extend_from_slice(&lists[0]);
        }
        let mut reference = Vec::new();
        while let Some(ev) = q.pop() {
            reference.push(ev);
        }
        assert_eq!(drained, reference);
    }

    #[test]
    fn window_bounds_the_drain() {
        let mut lq = LaneQueues::new(2);
        lq.schedule(0, 10, 'a');
        lq.schedule(1, 14, 'b');
        lq.schedule(0, 15, 'c'); // exactly at the horizon: next window
        lq.schedule(1, 30, 'd');
        let mut lists = vec![Vec::new(); 2];
        let horizon = lq.pop_window(5, &mut lists).unwrap();
        assert_eq!(horizon, 15);
        assert_eq!(lists, [vec![(10, 'a')], vec![(14, 'b')]]);
        let horizon = lq.pop_window(5, &mut lists).unwrap();
        assert_eq!(horizon, 20);
        assert_eq!(lists, [vec![(15, 'c')], vec![]]);
    }

    #[test]
    fn same_cycle_events_stay_in_their_lanes_pop_order() {
        let mut lq = LaneQueues::new(3);
        lq.schedule(2, 7, 'x');
        lq.schedule(0, 7, 'y');
        lq.schedule(0, 7, 'z');
        lq.schedule(1, 7, 'w');
        let mut lists = vec![Vec::new(); 3];
        lq.pop_window(64, &mut lists);
        assert_eq!(lists, [vec![(7, 'y'), (7, 'z')], vec![(7, 'w')], vec![(7, 'x')]]);
    }

    #[test]
    fn zero_window_still_progresses() {
        let mut lq = LaneQueues::new(2);
        lq.schedule(0, 4, 1u32);
        lq.schedule(1, 4, 2);
        let mut lists = vec![Vec::new(); 2];
        assert_eq!(lq.pop_window(0, &mut lists), Some(5));
        assert_eq!(lists, [vec![(4, 1)], vec![(4, 2)]]);
        assert!(lq.pop_window(0, &mut lists).is_none());
        assert!(lists.iter().all(Vec::is_empty));
    }

    #[test]
    fn stats_sum_over_lanes() {
        let mut lq = LaneQueues::new(2);
        lq.schedule(0, 1, 1u32);
        lq.schedule(0, 2, 2);
        lq.schedule(1, 1, 3);
        assert_eq!(lq.scheduled(), 3);
        assert_eq!(lq.len(), 3);
        assert_eq!(lq.max_pending(), 3);
        assert_eq!(lq.next_cycle(), Some(1));
        lq.pop_window(100, &mut [Vec::new(), Vec::new()]);
        assert!(lq.is_empty());
        assert_eq!(lq.scheduled(), 3, "scheduled counts calls, not occupancy");
    }
}
