//! The shard-epoch flight recorder: typed wall-clock spans over the
//! sharded executor, with deterministic escalation attribution.
//!
//! The PR 3 metrics registry answers "how much?" in aggregate; this
//! module answers "where does wall-clock time go, and which access class
//! forces serialization?". A [`Timeline`] is a bounded ring of typed
//! [`Span`]s — per-epoch × per-lane phase A steps, phase B serial
//! replays, cache-tier/DRAM service intervals, crew worker park/run
//! intervals — plus escalation events tagged with an
//! [`EscalationCause`] and the protocol events of one watched cache line
//! ([`LineEvent`]). The ring drops **oldest-first** when full and counts
//! what it dropped, so a truncated timeline is always an honest suffix.
//!
//! Every recorder records on one [`Track`]. The machine's recorder is
//! the serial track's; each cluster lane and each crew worker records
//! into a [`Timeline::child`] of it, on its own track, and
//! [`Timeline::absorb`] drains a child into its parent: a lane's
//! unbounded buffer after every window, in fixed lane order, and the
//! crew workers' bounded rings ([`CrewSpanLog`]) at the end of the run.
//!
//! # Determinism contract
//!
//! The recorder splits its content into two strata:
//!
//! * **Deterministic aggregates** — epoch counts, fast-slice counts, and
//!   the per-cause escalation counters. These are functions of simulated
//!   state alone (the batch composition and the A/B split never depend
//!   on host threads), so they are byte-identical at any `--jobs` /
//!   `--shards` value and feed the `cohesion-timeline/v1` summary
//!   document ([`TimelineSnapshot::summary_json`]).
//! * **Wall-clock spans** — host-time measurements that are *only*
//!   exported in the Chrome trace-event file, never in a deterministic
//!   document. Crew worker spans are absorbed into a section of their
//!   own, not the main ring, precisely so their host-dependent volume
//!   cannot perturb the main ring's deterministic drop counter.
//!
//! Disarmed (the default), every recording call is an inlined
//! early-return and the recorder allocates nothing — the same
//! zero-cost-when-off contract the metrics registry keeps.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use crate::Cycle;

/// Default main-ring capacity in spans. Large enough to hold a tiny
/// run's full timeline; bigger runs keep an honest suffix (see
/// [`Timeline::dropped`]).
pub const DEFAULT_CAPACITY: usize = 65536;

/// Default per-worker capacity of the crew span ring.
pub const CREW_RING_CAPACITY: usize = 8192;

/// Why a slice left phase A for the serial path: the cause the lane
/// guard returns at the point where it refuses an operation (the guards
/// live with the lane view in `crates/core/src/machine.rs`). Each
/// variant lists exactly the refusal points that return it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EscalationCause {
    /// A resource missing at a bank this lane owns: the line, its
    /// fine-table line, or a dirty victim is not L3-resident (a DRAM fill
    /// or write-through); the region profiler is armed (any operation
    /// that would feed it); owned-bank servicing is off
    /// (`lane_owned_l3 = false`); or the line-granular SWcc ablation
    /// needs a fetch before a write.
    L3Local,
    /// A line fetch (load, instruction fetch, store miss, or ownership
    /// upgrade) whose home bank belongs to another lane.
    L3Remote,
    /// A fetch whose directory transition needs probes to other
    /// clusters, or whose directory insertion would evict an entry.
    Directory,
    /// A flush writeback, L2-victim writeback, or read release bound for
    /// another lane's bank.
    Noc,
    /// An uncached atomic operation.
    Atomic,
    /// Task dequeue or barrier arrival (uncached atomics on the
    /// runtime's queue words).
    TaskQueue,
}

impl EscalationCause {
    /// Every cause, in label order as rendered in summaries.
    pub const ALL: [EscalationCause; 6] = [
        EscalationCause::Atomic,
        EscalationCause::Directory,
        EscalationCause::L3Local,
        EscalationCause::L3Remote,
        EscalationCause::Noc,
        EscalationCause::TaskQueue,
    ];

    /// Stable string label used in summaries and trace args.
    pub fn label(self) -> &'static str {
        match self {
            EscalationCause::L3Local => "l3-local",
            EscalationCause::L3Remote => "l3-remote",
            EscalationCause::Directory => "directory",
            EscalationCause::Noc => "noc",
            EscalationCause::Atomic => "atomic",
            EscalationCause::TaskQueue => "task-queue",
        }
    }

    /// Dense index for per-cause counter arrays.
    pub fn index(self) -> usize {
        match self {
            EscalationCause::L3Local => 0,
            EscalationCause::L3Remote => 1,
            EscalationCause::Directory => 2,
            EscalationCause::Noc => 3,
            EscalationCause::Atomic => 4,
            EscalationCause::TaskQueue => 5,
        }
    }

    /// The cause whose [`EscalationCause::index`] is `i`.
    pub fn from_index(i: usize) -> EscalationCause {
        match i {
            0 => EscalationCause::L3Local,
            1 => EscalationCause::L3Remote,
            2 => EscalationCause::Directory,
            3 => EscalationCause::Noc,
            4 => EscalationCause::Atomic,
            _ => EscalationCause::TaskQueue,
        }
    }
}

/// Number of escalation causes (length of per-cause counter arrays).
pub const CAUSES: usize = 6;

/// Which track a span belongs to in the exported trace: one per lane,
/// one per crew worker thread, and one serial track for phase B and the
/// global service path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// The serial thread: phase B replay, L3/DRAM service.
    Serial,
    /// A cluster lane's phase A work (by lane index).
    Lane(u32),
    /// A crew worker thread (by worker index).
    Crew(u32),
}

/// The level of the hierarchy that served a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The core's L1D.
    L1,
    /// The cluster's L2.
    L2,
    /// A line fetch from the home L3 bank (and DRAM behind it).
    L3,
}

/// What one operation did to the watched cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineEvent {
    /// A core load, and the level that served it.
    Load {
        /// The serving level.
        level: Level,
    },
    /// A core store.
    Store,
    /// A line fetch to the home bank: a miss or an ownership upgrade.
    Fetch,
    /// A directory probe to one cluster's L2.
    Probe {
        /// The probed cluster.
        target: u32,
        /// Invalidate (else downgrade to Shared).
        invalidate: bool,
        /// The dirty words the probe wrote back (0: none).
        writeback: u8,
    },
    /// The line left an L2 (a capacity or conflict eviction).
    Evict,
    /// A Figure 7 domain transition at the home bank.
    Transition,
    /// An uncached atomic on a word of the line.
    Atomic {
        /// The word before the operation.
        old: u32,
        /// The word after it.
        new: u32,
    },
}

impl LineEvent {
    /// The span name the event is recorded under.
    pub fn name(self) -> &'static str {
        match self {
            LineEvent::Load { .. } => "load",
            LineEvent::Store => "store",
            LineEvent::Fetch => "fetch",
            LineEvent::Probe { .. } => "probe",
            LineEvent::Evict => "evict",
            LineEvent::Transition => "transition",
            LineEvent::Atomic { .. } => "atomic",
        }
    }
}

/// What a zero-duration instant marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// Nothing: an interval.
    None,
    /// A slice escalated, for this cause.
    Escalate(EscalationCause),
    /// A protocol event on the watched line (line address = byte
    /// address / 32).
    Line(u32, LineEvent),
}

/// One recorded interval, or an instant when it carries a [`Mark`].
/// Wall-clock fields are microseconds since the recorder's epoch;
/// `cycle` anchors the span in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Exported track.
    pub track: Track,
    /// Span kind (`"phase_a"`, `"phase_b"`, `"escalate"`,
    /// `"l3_service"`, `"dram_service"`, `"crew_run"`, `"crew_park"`, or
    /// a [`LineEvent::name`]).
    pub name: &'static str,
    /// Wall-clock start, microseconds since the recorder epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds (0 for instant events).
    pub dur_us: u64,
    /// Simulated cycle the span is anchored to.
    pub cycle: Cycle,
    /// What an instant marks; [`Mark::None`] for an interval.
    pub mark: Mark,
}

impl Span {
    /// An interval on `track` from `start_us` to `end_us`.
    fn interval(track: Track, name: &'static str, start_us: u64, end_us: u64, cycle: Cycle) -> Span {
        Span {
            track,
            name,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            cycle,
            mark: Mark::None,
        }
    }

    /// A line event on `track` at `now_us`.
    fn line(track: Track, now_us: u64, cycle: Cycle, line: u32, event: LineEvent) -> Span {
        Span {
            track,
            name: event.name(),
            start_us: now_us,
            dur_us: 0,
            cycle,
            mark: Mark::Line(line, event),
        }
    }
}

/// The `watch` value of a recorder that watches no line: a line address
/// no byte address maps to.
const UNWATCHED: u32 = u32::MAX;

/// A frozen copy of a [`Timeline`], taken at end of run. The
/// wall-clock spans feed the Chrome trace export; the aggregate
/// counters feed the deterministic `cohesion-timeline/v1` summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSnapshot {
    /// Main-ring spans (lane/serial tracks), oldest first.
    pub spans: Vec<Span>,
    /// Spans dropped from the main ring (oldest-first eviction). A
    /// deterministic function of the run: the span *count* never
    /// depends on host threads, only their wall-clock fields do.
    pub dropped: u64,
    /// Crew worker park/run spans (host-dependent; trace export only).
    pub crew_spans: Vec<Span>,
    /// Spans dropped from the crew rings (host-dependent).
    pub crew_dropped: u64,
    /// Windows (epochs) pumped by the sharded executor.
    pub epochs: u64,
    /// Slices that completed entirely in phase A.
    pub fast_slices: u64,
    /// L2-miss line fetches serviced entirely in phase A on a
    /// lane-owned L3 bank — the events that would have been
    /// [`EscalationCause::L3Local`] escalations without bank ownership.
    pub l3_fast: u64,
    /// Escalated slices by [`EscalationCause::index`].
    pub escalated: [u64; CAUSES],
}

impl TimelineSnapshot {
    /// Total slices attempted in phase A.
    pub fn slices(&self) -> u64 {
        self.fast_slices + self.escalated_total()
    }

    /// Total escalations across all causes.
    pub fn escalated_total(&self) -> u64 {
        self.escalated.iter().sum()
    }

    /// The deterministic per-run summary object for the
    /// `cohesion-timeline/v1` document: counters and the escalation
    /// rate only — no wall-clock field ever appears here, which is what
    /// keeps the document byte-identical at any `--jobs`/`--shards`.
    pub fn summary_json(&self) -> String {
        let slices = self.slices();
        let rate = if slices == 0 {
            0.0
        } else {
            self.escalated_total() as f64 / slices as f64
        };
        let mut causes = String::new();
        for (i, c) in EscalationCause::ALL.iter().enumerate() {
            if i > 0 {
                causes.push_str(", ");
            }
            causes.push_str(&format!("\"{}\": {}", c.label(), self.escalated[c.index()]));
        }
        format!(
            "{{\"dropped_spans\": {}, \"epochs\": {}, \"escalated\": {{{}}}, \
             \"escalation_rate\": {:.6}, \"fast\": {}, \"l3_fast\": {}, \"slices\": {}}}",
            self.dropped, self.epochs, causes, rate, self.fast_slices, self.l3_fast, slices
        )
    }
}

/// A flight recorder on one [`Track`]: the machine's (serial), a lane's
/// or a crew worker's. See the module docs for the determinism contract.
#[derive(Debug, Clone)]
pub struct Timeline {
    armed: bool,
    epoch: Instant,
    /// The watched line address, or [`UNWATCHED`].
    watch: u32,
    /// The track every span recorded here goes on.
    track: Track,
    ring: VecDeque<Span>,
    capacity: usize,
    dropped: u64,
    crew_spans: Vec<Span>,
    crew_dropped: u64,
    epochs: u64,
    fast_slices: u64,
    l3_fast: u64,
    escalated: [u64; CAUSES],
}

impl Timeline {
    /// A disarmed recorder: every call an early-return, no allocation.
    pub fn disarmed() -> Timeline {
        Timeline {
            armed: false,
            epoch: Instant::now(),
            watch: UNWATCHED,
            track: Track::Serial,
            ring: VecDeque::new(),
            capacity: 0,
            dropped: 0,
            crew_spans: Vec::new(),
            crew_dropped: 0,
            epochs: 0,
            fast_slices: 0,
            l3_fast: 0,
            escalated: [0; CAUSES],
        }
    }

    /// An armed serial-track recorder whose main ring holds up to
    /// `capacity` spans, recording the [`LineEvent`]s of line address
    /// `watch`, if any.
    pub fn armed(capacity: usize, watch: Option<u32>) -> Timeline {
        Timeline {
            armed: true,
            epoch: Instant::now(),
            watch: watch.unwrap_or(UNWATCHED),
            ring: VecDeque::with_capacity(capacity.min(DEFAULT_CAPACITY)),
            capacity: capacity.max(1),
            ..Timeline::disarmed()
        }
    }

    /// Whether the recorder keeps anything at all.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// A recorder armed like this one (same epoch, same watched line)
    /// that records on `track` and keeps at most `capacity` spans,
    /// reserving nothing up front. [`Timeline::absorb`] drains it back.
    pub fn child(&self, track: Track, capacity: usize) -> Timeline {
        Timeline {
            armed: self.armed,
            epoch: self.epoch,
            watch: self.watch,
            track,
            capacity: capacity.max(1),
            ..Timeline::disarmed()
        }
    }

    /// Microseconds elapsed since the recorder epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Starts a wall-clock measurement: `Some(now)` when armed, `None`
    /// (one branch, nothing measured) when disarmed.
    pub fn start(&self) -> Option<u64> {
        self.armed.then(|| self.now_us())
    }

    /// Pushes a span into the main ring, evicting oldest-first when the
    /// ring is full (the evicted span is counted in
    /// [`Timeline::dropped`]).
    pub fn push(&mut self, span: Span) {
        if !self.armed {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(span);
    }

    /// Records a span on this recorder's track (phase A or B, a service)
    /// that began at `start` (a token from [`Timeline::start`]); no-op
    /// when the token is `None`.
    pub fn service(&mut self, name: &'static str, start: Option<u64>, cycle: Cycle) {
        let Some(t0) = start else { return };
        let now = self.now_us();
        self.push(Span::interval(self.track, name, t0, now, cycle));
    }

    /// Records `event` on this recorder's track if `line` is the watched
    /// line (never when disarmed): one compare on the unwatched path.
    #[inline]
    pub fn line(&mut self, cycle: Cycle, line: u32, event: LineEvent) {
        if line == self.watch {
            self.push(Span::line(self.track, self.now_us(), cycle, line, event));
        }
    }

    /// Counts one executor window (epoch).
    pub fn note_window(&mut self) {
        if self.armed {
            self.epochs += 1;
        }
    }

    /// Counts a slice that completed entirely in phase A.
    pub fn note_fast(&mut self) {
        if self.armed {
            self.fast_slices += 1;
        }
    }

    /// Counts an L2-miss line fetch serviced entirely in phase A on a
    /// lane-owned L3 bank (an event that would have escalated as
    /// [`EscalationCause::L3Local`] without bank ownership).
    pub fn note_l3_fast(&mut self) {
        if self.armed {
            self.l3_fast += 1;
        }
    }

    /// Counts an escalation and records its instant event on this
    /// recorder's track.
    pub fn note_escalation(&mut self, cycle: Cycle, cause: EscalationCause) {
        if !self.armed {
            return;
        }
        self.escalated[cause.index()] += 1;
        let now = self.now_us();
        self.push(Span {
            track: self.track,
            name: "escalate",
            start_us: now,
            dur_us: 0,
            cycle,
            mark: Mark::Escalate(cause),
        });
    }

    /// Drains a child recorder ([`Timeline::child`]) into this one and
    /// folds its deterministic counters. A lane's spans go to the main
    /// ring (absorb lanes in fixed lane order for a deterministic drop
    /// sequence); a crew worker's go to the snapshot-only crew section,
    /// since crew volume is host-dependent and must never touch the main
    /// ring or its deterministic drop counter.
    pub fn absorb(&mut self, child: &mut Timeline) {
        if !self.armed || !child.armed {
            return;
        }
        self.fast_slices += std::mem::take(&mut child.fast_slices);
        self.l3_fast += std::mem::take(&mut child.l3_fast);
        for (total, n) in self.escalated.iter_mut().zip(&mut child.escalated) {
            *total += std::mem::take(n);
        }
        let dropped = std::mem::take(&mut child.dropped);
        if let Track::Crew(_) = child.track {
            self.crew_dropped += dropped;
            self.crew_spans.extend(child.ring.drain(..));
        } else {
            self.dropped += dropped;
            for s in child.ring.drain(..) {
                self.push(s);
            }
        }
    }

    /// Drains the crew workers' rings, in worker order.
    pub fn absorb_crew(&mut self, log: &CrewSpanLog) {
        for ring in &log.rings {
            self.absorb(&mut ring.lock().expect("a crew worker panicked while recording"));
        }
    }

    /// Spans dropped from the main ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Main-ring spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.ring.iter()
    }

    /// Freezes the recorder into a [`TimelineSnapshot`], or `None` when
    /// disarmed.
    pub fn snapshot(&self) -> Option<TimelineSnapshot> {
        if !self.armed {
            return None;
        }
        Some(TimelineSnapshot {
            spans: self.ring.iter().copied().collect(),
            dropped: self.dropped,
            crew_spans: self.crew_spans.clone(),
            crew_dropped: self.crew_dropped,
            epochs: self.epochs,
            fast_slices: self.fast_slices,
            l3_fast: self.l3_fast,
            escalated: self.escalated,
        })
    }
}

/// Park/run recording for [`crate::crew::Crew`] worker threads: one
/// bounded child [`Timeline`] per worker, on its own crew track (its lock
/// is uncontended in steady state). The rings keep the main ring's
/// oldest-first drop accounting, and [`Timeline::absorb`] counts their
/// drops apart, because worker count — and hence span volume — is host
/// configuration, not simulated state.
#[derive(Debug)]
pub struct CrewSpanLog {
    epoch: Instant,
    rings: Vec<Mutex<Timeline>>,
}

impl CrewSpanLog {
    /// A log for `workers` crew threads, `capacity` spans per worker,
    /// armed and timestamped like `parent`.
    pub fn new(workers: usize, parent: &Timeline, capacity: usize) -> CrewSpanLog {
        CrewSpanLog {
            epoch: parent.epoch,
            rings: (0..workers)
                .map(|w| Mutex::new(parent.child(Track::Crew(w as u32), capacity)))
                .collect(),
        }
    }

    /// Microseconds since the shared epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records one span on `worker`'s track. Out-of-range workers are
    /// ignored (defensive; the crew sizes the log).
    pub fn record(&self, worker: usize, name: &'static str, start_us: u64, dur_us: u64) {
        let Some(ring) = self.rings.get(worker) else { return };
        let mut r = ring.lock().expect("a crew worker panicked while recording");
        let span = Span::interval(r.track, name, start_us, start_us + dur_us, 0);
        r.push(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, cycle: Cycle) -> Span {
        Span {
            track: Track::Serial,
            name,
            start_us: cycle,
            dur_us: 1,
            cycle,
            mark: Mark::None,
        }
    }

    #[test]
    fn disarmed_records_nothing() {
        let mut tl = Timeline::disarmed();
        tl.push(span("phase_b", 1));
        tl.note_window();
        assert!(tl.start().is_none());
        assert!(tl.snapshot().is_none());
        assert_eq!(tl.spans().count(), 0);
    }

    #[test]
    fn ring_drops_oldest_first_and_counts() {
        let mut tl = Timeline::armed(3, None);
        for c in 0..5 {
            tl.push(span("phase_b", c));
        }
        assert_eq!(tl.dropped(), 2, "two oldest evicted");
        let kept: Vec<Cycle> = tl.spans().map(|s| s.cycle).collect();
        assert_eq!(kept, vec![2, 3, 4], "the ring is a suffix");
        let snap = tl.snapshot().unwrap();
        assert_eq!(snap.dropped, 2);
        assert_eq!(snap.spans.len(), 3);
    }

    #[test]
    fn lane_counters_fold_in_and_reset() {
        let mut tl = Timeline::armed(2, Some(42));
        let mut lane = tl.child(Track::Lane(0), usize::MAX);
        lane.note_fast();
        lane.note_fast();
        lane.note_l3_fast();
        lane.note_escalation(7, EscalationCause::L3Remote);
        lane.note_escalation(9, EscalationCause::TaskQueue);
        lane.line(11, 42, LineEvent::Store);
        lane.line(12, 43, LineEvent::Store); // not the watched line
        tl.absorb(&mut lane);
        let snap = tl.snapshot().unwrap();
        assert_eq!(snap.fast_slices, 2);
        assert_eq!(snap.l3_fast, 1);
        assert_eq!(snap.escalated[EscalationCause::L3Remote.index()], 1);
        assert_eq!(snap.escalated[EscalationCause::TaskQueue.index()], 1);
        assert_eq!(snap.slices(), 4);
        // Three instants reached the two-span ring, so the oldest dropped.
        assert_eq!(snap.dropped, 1);
        let marks: Vec<Mark> = snap.spans.iter().map(|s| s.mark).collect();
        assert_eq!(marks, [Mark::Escalate(EscalationCause::TaskQueue), Mark::Line(42, LineEvent::Store)]);
        assert_eq!((snap.spans[1].name, snap.spans[1].cycle), ("store", 11));
        // A second absorb adds nothing: the buffer was drained and reset.
        tl.absorb(&mut lane);
        assert_eq!(tl.snapshot().unwrap().slices(), 4);
    }

    #[test]
    fn summary_json_is_deterministic_and_wall_free() {
        let snap = TimelineSnapshot {
            spans: vec![span("phase_a", 3)],
            dropped: 1,
            crew_spans: vec![span("crew_run", 0)],
            crew_dropped: 9,
            epochs: 4,
            fast_slices: 6,
            l3_fast: 3,
            escalated: {
                let mut e = [0; CAUSES];
                e[EscalationCause::Directory.index()] = 2;
                e
            },
        };
        let j = snap.summary_json();
        assert_eq!(
            j,
            "{\"dropped_spans\": 1, \"epochs\": 4, \"escalated\": {\"atomic\": 0, \
             \"directory\": 2, \"l3-local\": 0, \"l3-remote\": 0, \"noc\": 0, \
             \"task-queue\": 0}, \"escalation_rate\": 0.250000, \"fast\": 6, \
             \"l3_fast\": 3, \"slices\": 8}"
        );
        assert!(!j.contains("crew"), "crew (host) volume never in the summary");
        assert!(!j.contains("_us"), "no wall-clock field in the summary");
    }

    #[test]
    fn crew_log_bounds_each_worker_ring() {
        let mut tl = Timeline::armed(1, None);
        let log = CrewSpanLog::new(2, &tl, 2);
        for i in 0..4 {
            log.record(0, "crew_run", i, 1);
        }
        log.record(1, "crew_park", 0, 5);
        log.record(99, "crew_run", 0, 1); // out of range: ignored
        tl.absorb_crew(&log);
        let snap = tl.snapshot().unwrap();
        let spans = &snap.crew_spans;
        assert_eq!(snap.crew_dropped, 2);
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| matches!(s.track, Track::Crew(0 | 1))));
        // Worker 0 kept the newest two.
        assert_eq!(spans[0].start_us, 2);
        assert_eq!(spans[1].start_us, 3);
    }

    #[test]
    fn cause_labels_round_trip_indices() {
        for c in EscalationCause::ALL {
            assert_eq!(EscalationCause::from_index(c.index()), c);
        }
        let labels: Vec<&str> = EscalationCause::ALL.iter().map(|c| c.label()).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        assert_eq!(labels, sorted, "ALL is in label order");
    }
}
