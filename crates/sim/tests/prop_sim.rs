//! Property tests for the simulation engine primitives (on the
//! first-party `cohesion-testkit` harness; ≥ 64 deterministic cases each,
//! seed-replayable via `COHESION_PROP_SEED`).

use cohesion_sim::crew::Crew;
use cohesion_sim::event::EventQueue;
use cohesion_sim::link::{Link, Throttle};
use cohesion_sim::metrics::{Histogram, Registry, HISTOGRAM_BUCKETS};
use cohesion_sim::stats::TimeWeighted;
use cohesion_sim::slots::SlotReserver;
use cohesion_testkit::prop::{range, sample, vec_of, Runner};

/// Events pop in nondecreasing time order, FIFO within a cycle, and
/// nothing is lost.
#[test]
fn event_queue_orders_and_conserves() {
    Runner::new("event_queue_orders_and_conserves")
        .cases(128)
        .run(&vec_of(range(0u64..1000), 1..200), |times| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(t, i);
            }
            let mut popped = Vec::new();
            let mut last = (0u64, 0usize);
            let mut first = true;
            while let Some((t, i)) = q.pop() {
                if !first {
                    assert!(t >= last.0, "time order violated");
                    if t == last.0 {
                        assert!(i > last.1, "FIFO within a cycle violated");
                    }
                }
                first = false;
                last = (t, i);
                popped.push(i);
            }
            popped.sort_unstable();
            assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
        });
}

/// The queue pops in exactly the same `(cycle, seq)` order as a reference
/// binary-heap model, under random schedule/pop interleavings that include
/// same-cycle FIFO bursts and far-future events.
#[test]
fn event_queue_matches_binary_heap_model() {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    // One step of the interleaving: schedule a burst of events at
    // `now + delta` (burst > 1 exercises same-cycle FIFO), or pop a few.
    let step = (
        range(0u32..3),                          // 0,1: schedule  2: pop
        sample(&[0u64, 1, 7, 255, 256, 257, 300, 1000, 4096]),
        range(1usize..6),                        // burst / pop count
    );
    Runner::new("event_queue_matches_binary_heap_model")
        .cases(96)
        .run(&vec_of(step, 1..80), |steps| {
            let mut queue = EventQueue::new();
            let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            for (kind, delta, count) in steps {
                if kind < 2 {
                    let at = queue.now() + delta;
                    for _ in 0..count {
                        queue.schedule(at, seq);
                        model.push(Reverse((at, seq)));
                        seq += 1;
                    }
                } else {
                    for _ in 0..count {
                        let got = queue.pop();
                        let want = model.pop().map(|Reverse((at, s))| (at, s));
                        assert_eq!(got, want, "queue diverged from heap model");
                    }
                }
                assert_eq!(queue.len(), model.len());
                assert_eq!(
                    queue.peek_cycle(),
                    model.peek().map(|Reverse((at, _))| *at)
                );
            }
            // Drain: every remaining event must match the model too.
            while let Some(Reverse((at, s))) = model.pop() {
                assert_eq!(queue.pop(), Some((at, s)));
            }
            assert_eq!(queue.pop(), None);
            assert_eq!(queue.scheduled(), seq);
        });
}

/// The sharded two-phase window discipline in miniature: a toy machine
/// with per-lane cores whose events either mutate lane-local state
/// (phase A, parallel over lanes) or escalate to a shared digest applied
/// in canonical batch order (phase B, serial). Running it single-threaded
/// and on worker crews of 2, 3 and one-per-lane threads must leave
/// byte-identical final state — lane
/// digests, shared digest, queue stats, and merged metrics JSON. Initial
/// events collide on the same cycle across lanes, and re-schedules land
/// exactly on (or just past) the lookahead horizon.
#[test]
fn crewed_windows_match_single_threaded_windows() {
    Runner::new("crewed_windows_match_single_threaded_windows")
        .cases(64)
        .run(
            &(
                range(1usize..9),            // lanes
                range(1usize..4),            // cores per lane
                range(1u64..24),             // steps per core
                vec_of(range(0u64..4), 4..24), // re-schedule jitter (0 = boundary)
            ),
            |(lanes, cpl, steps, jitter)| {
                let serial = toy_sharded_run(lanes, cpl, steps, &jitter, 1);
                for threads in [2, 3, lanes.max(2)] {
                    let crewed = toy_sharded_run(lanes, cpl, steps, &jitter, threads);
                    assert_eq!(
                        serial, crewed,
                        "{lanes} lanes x {cpl} cores, {threads} threads diverged"
                    );
                }
            },
        );
}

fn toy_mix(d: u64, cycle: u64, x: u64) -> u64 {
    (d ^ cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ x)
        .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
        .rotate_left(13)
}

/// Runs the toy model to completion; the return value is the complete
/// observable state. `threads` must not affect it.
fn toy_sharded_run(
    lanes: usize,
    cpl: usize,
    steps: u64,
    jitter: &[u64],
    threads: usize,
) -> (Vec<u64>, u64, u64, u64, String) {
    const WINDOW: u64 = 16;
    struct LaneJob<'a> {
        queue: &'a mut EventQueue<u32>,
        digest: &'a mut u64,
        /// Per-core completed-step counters (host-thread-independent).
        done: &'a mut [u64],
        metrics: &'a mut Registry,
        /// Escalations for phase B: `(seq, cycle, core_payload)`, where
        /// `seq` is the event's index in the lane's pop order this window.
        out: &'a mut Vec<(u32, u64, u32)>,
    }
    /// An event escalates (touches the shared digest) 1 time in 4.
    fn is_global(cycle: u64, payload: u32) -> bool {
        toy_mix(0, cycle, payload as u64) % 4 == 0
    }

    let mut q: Vec<EventQueue<u32>> = (0..lanes).map(|_| EventQueue::new()).collect();
    for (lane, queue) in q.iter_mut().enumerate() {
        for c in 0..cpl {
            // Same-cycle collisions across lanes by construction.
            queue.schedule((c as u64) % 3, (lane * cpl + c) as u32);
        }
    }
    let mut lane_digests = vec![0u64; lanes];
    let mut done = vec![0u64; lanes * cpl];
    let mut registries: Vec<Registry> = (0..lanes).map(|_| Registry::armed(64)).collect();
    let mut shared = 0u64;
    let mut crew = (threads > 1).then(|| Crew::new(threads - 1));
    let mut halted: Vec<Vec<(u32, u64, u32)>> = vec![Vec::new(); lanes];
    while let Some(start) = q.iter().filter_map(EventQueue::peek_cycle).min() {
        let horizon = start + WINDOW;
        // Phase A: lanes pop their own events up to the horizon, in pop
        // order, touching only lane-local state; global events escalate
        // with nothing mutated.
        let mut jobs: Vec<LaneJob<'_>> = q
            .iter_mut()
            .zip(lane_digests.iter_mut())
            .zip(done.chunks_mut(cpl))
            .zip(registries.iter_mut())
            .zip(&mut halted)
            .map(|((((queue, digest), done), metrics), out)| LaneJob {
                queue,
                digest,
                done,
                metrics,
                out,
            })
            .collect();
        let run_lane = |j: &mut LaneJob<'_>| {
            let mut seq = 0;
            while j.queue.peek_cycle().is_some_and(|c| c < horizon) {
                let (cycle, payload) = j.queue.pop().expect("peeked");
                if is_global(cycle, payload) {
                    j.out.push((seq, cycle, payload));
                } else {
                    *j.digest = toy_mix(*j.digest, cycle, payload as u64);
                    j.metrics.record_latency("toy/local", cycle % 97);
                    let core = payload as usize % cpl;
                    j.done[core] += 1;
                    if j.done[core] < steps {
                        let jit = jitter[(j.done[core] as usize + payload as usize) % jitter.len()];
                        // On or just past the lookahead horizon.
                        j.queue.schedule(cycle + WINDOW + jit, payload);
                    }
                }
                seq += 1;
            }
        };
        match &mut crew {
            Some(crew) => crew.run(&mut jobs, run_lane),
            None => jobs.iter_mut().for_each(run_lane),
        }
        drop(jobs);
        // Phase B: escalations apply to the shared digest in the window's
        // canonical `(cycle, lane, seq)` order, and re-schedule into their
        // own lane.
        let mut serial: Vec<(u64, usize, u32, u32)> = Vec::new();
        for (lane, out) in halted.iter_mut().enumerate() {
            serial.extend(out.drain(..).map(|(seq, cycle, payload)| (cycle, lane, seq, payload)));
        }
        serial.sort_unstable_by_key(|&(cycle, lane, seq, _)| (cycle, lane, seq));
        for (cycle, lane, _seq, payload) in serial {
            shared = toy_mix(shared, cycle, (payload as u64) << 32 | lane as u64);
            let core = payload as usize % cpl;
            let slot = lane * cpl + core;
            done[slot] += 1;
            if done[slot] < steps {
                let jit = jitter[(done[slot] as usize + payload as usize) % jitter.len()];
                q[lane].schedule(cycle + WINDOW + jit, payload);
            }
        }
    }
    let merged_metrics = {
        let mut all = Registry::armed(64);
        for r in &registries {
            all.merge_from(r);
        }
        let mut snap = all.snapshot();
        snap.finalize();
        snap.to_json()
    };
    (
        lane_digests,
        shared,
        q.iter().map(EventQueue::scheduled).sum(),
        q.iter().map(EventQueue::max_pending).sum::<usize>() as u64,
        merged_metrics,
    )
}
#[test]
fn slot_reserver_respects_capacity() {
    Runner::new("slot_reserver_respects_capacity")
        .cases(128)
        .run(
            &(
                vec_of(range(0u64..500), 1..300),
                range(0u32..4),
                range(1u32..4),
            ),
            |(requests, window_log2, capacity)| {
                let mut r = SlotReserver::new(window_log2, capacity);
                let mut grants: Vec<u64> = requests.iter().map(|&t| r.reserve(t)).collect();
                for (&req, &grant) in requests.iter().zip(&grants) {
                    assert!(grant >= req, "grant may not precede the request");
                }
                grants.sort_unstable();
                // Count grants per window.
                let mut counts = std::collections::HashMap::new();
                for g in grants {
                    *counts.entry(g >> window_log2).or_insert(0u32) += 1;
                }
                for (&w, &n) in &counts {
                    assert!(n <= capacity, "window {w} over-booked: {n} > {capacity}");
                }
            },
        );
}

/// A link delivers every message no earlier than `now + latency` and
/// never two messages within one acceptance interval.
#[test]
fn link_respects_latency_and_bandwidth() {
    Runner::new("link_respects_latency_and_bandwidth")
        .cases(128)
        .run(
            &(
                vec_of(range(0u64..300), 1..100),
                range(0u64..16),
                sample(&[1u64, 2, 4]),
            ),
            |(sends, latency, interval)| {
                let mut l = Link::new(latency, interval);
                let mut departures: Vec<u64> = sends.iter().map(|&t| l.send(t) - latency).collect();
                for (&t, &d) in sends.iter().zip(&departures) {
                    assert!(d >= t);
                }
                departures.sort_unstable();
                let mut counts = std::collections::HashMap::new();
                for d in departures {
                    *counts.entry(d / interval).or_insert(0u32) += 1;
                }
                for &n in counts.values() {
                    assert!(n <= 1, "two departures within one interval");
                }
                assert_eq!(l.sent(), sends.len() as u64);
            },
        );
}

/// A throttle grants at most `width` accesses per cycle.
#[test]
fn throttle_respects_width() {
    Runner::new("throttle_respects_width")
        .cases(128)
        .run(
            &(vec_of(range(0u64..200), 1..200), range(1u32..4)),
            |(grants, width)| {
                let mut t = Throttle::new(width);
                let mut times: Vec<u64> = grants.iter().map(|&g| t.grant(g)).collect();
                times.sort_unstable();
                let mut counts = std::collections::HashMap::new();
                for g in times {
                    *counts.entry(g).or_insert(0u32) += 1;
                }
                for &n in counts.values() {
                    assert!(n <= width);
                }
            },
        );
}

/// `TimeWeighted::set` clamps out-of-order update times to the latest
/// update seen, so any update sequence integrates identically to the same
/// sequence with times pre-clamped to their running maximum — and both
/// match a directly computed level·dt integral.
#[test]
fn time_weighted_clamps_out_of_order() {
    Runner::new("time_weighted_clamps_out_of_order")
        .cases(128)
        .run(
            &(
                vec_of((range(0u64..1000), range(0u64..100)), 1..100),
                range(0u64..2000),
            ),
            |(updates, end)| {
                let mut raw = TimeWeighted::new();
                let mut clamped = TimeWeighted::new();
                let mut clock = 0u64;
                let mut integral = 0u128;
                let mut level = 0u64;
                let mut peak = 0u64;
                for &(t, v) in &updates {
                    raw.set(t, v);
                    let t = t.max(clock);
                    clamped.set(t, v);
                    integral += level as u128 * (t - clock) as u128;
                    clock = t;
                    level = v;
                    peak = peak.max(v);
                }
                assert_eq!(raw.level(), clamped.level());
                assert_eq!(raw.max(), clamped.max());
                assert_eq!(raw.max(), peak);
                assert_eq!(raw.average(end).to_bits(), clamped.average(end).to_bits());
                // Independent oracle: finish the integral at `end` and
                // compare exactly (both sides do the same u128 → f64 math).
                integral += level as u128 * end.saturating_sub(clock) as u128;
                let oracle = if end == 0 { 0.0 } else { integral as f64 / end as f64 };
                assert_eq!(raw.average(end).to_bits(), oracle.to_bits());
            },
        );
}

/// Every value lands in the bucket whose bounds contain it, and the
/// log2 buckets tile the `u64` range without gaps or overlap.
#[test]
fn histogram_buckets_tile_and_contain() {
    // Deterministic tiling check: bucket 0 is {0}; bucket i starts one
    // past where bucket i-1 ends; the last bucket reaches u64::MAX.
    assert_eq!(Histogram::bucket_bounds(0), (0, 0));
    for i in 1..HISTOGRAM_BUCKETS {
        let (lo, hi) = Histogram::bucket_bounds(i);
        let (_, prev_hi) = Histogram::bucket_bounds(i - 1);
        assert_eq!(lo, prev_hi + 1, "gap or overlap entering bucket {i}");
        assert!(hi >= lo);
    }
    assert_eq!(Histogram::bucket_bounds(HISTOGRAM_BUCKETS - 1).1, u64::MAX);

    Runner::new("histogram_buckets_tile_and_contain")
        .cases(128)
        .run(
            &vec_of((range(0u64..16), range(0u32..61)), 1..100),
            |samples| {
                for &(m, s) in &samples {
                    let v = m << s; // spans the full magnitude range
                    let b = Histogram::bucket_of(v);
                    let (lo, hi) = Histogram::bucket_bounds(b);
                    assert!(
                        lo <= v && v <= hi,
                        "value {v} outside bucket {b} bounds [{lo}, {hi}]"
                    );
                }
            },
        );
}

/// Histogram summary statistics against an exact oracle: `count`, `sum`,
/// `min`, `max`, and `mean` are exact; percentile estimates are clamped
/// to `[min, max]`, monotone in `p`, and `percentile(1.0)` is exactly
/// `max`.
#[test]
fn histogram_percentiles_are_monotone_and_bounded() {
    Runner::new("histogram_percentiles_are_monotone_and_bounded")
        .cases(128)
        .run(
            &vec_of((range(0u64..16), range(0u32..61)), 1..128),
            |samples| {
                let values: Vec<u64> = samples.iter().map(|&(m, s)| m << s).collect();
                let mut h = Histogram::new();
                for &v in &values {
                    h.record(v);
                }
                let (min, max) = (
                    *values.iter().min().expect("non-empty"),
                    *values.iter().max().expect("non-empty"),
                );
                assert_eq!(h.count(), values.len() as u64);
                assert_eq!(
                    h.sum(),
                    values.iter().fold(0u64, |a, &v| a.saturating_add(v)),
                    "sum saturates rather than overflowing"
                );
                assert_eq!(h.min(), min);
                assert_eq!(h.max(), max);
                let mean = h.mean();
                assert!(min as f64 <= mean && mean <= max as f64);

                let mut prev = f64::NEG_INFINITY;
                for i in 0..=20 {
                    let p = i as f64 / 20.0;
                    let est = h.percentile(p);
                    assert!(
                        min as f64 <= est && est <= max as f64,
                        "p{p} estimate {est} outside [{min}, {max}]"
                    );
                    assert!(est >= prev, "percentile not monotone at p={p}");
                    prev = est;
                }
                assert_eq!(h.percentile(1.0), max as f64);
            },
        );
}

/// Lane-owned L3 servicing, driven as a property over the home
/// function: across three `AddressMap` shapes (lanes own 1, 2, and 4
/// bank slots), random trace seeds, two kernels, and two coherence
/// points,
///
/// 1. **Servicing is exact.** With the fast path on, running the two
///    cluster lanes on worker threads (`shards = 2`) is byte-identical
///    to the same engine inline (`shards = 1`) — every field of the
///    report and the full metrics snapshot JSON. Phase-A-serviced
///    misses touch only lane-owned banks/slices, so parallel execution
///    cannot reorder anything observable.
/// 2. **Escalate-and-replay agrees on architectural totals.** With the
///    fast path off (`lane_owned_l3 = false`, the pre-change
///    escalate-everything engine) the workload must still execute the
///    same program: same barrier phases, same task count, same trace
///    operations, and a passing self-check.
///
/// Deliberately *not* asserted across the on/off engines: cycle counts,
/// latency distributions, and state-dependent event counts (messages,
/// cache hits). Owned-bank port/directory bookings interleave with the
/// serial spine in a different global order than escalate-everything,
/// so arbitration timing drifts by a handful of cycles, and a shifted
/// eviction can butterfly into e.g. one more upgrade message — the same
/// accepted drift the sharded engine introduced against the pre-sharding
/// serial machine (see `MachineConfig::lane_owned_l3`).
#[test]
fn lane_owned_l3_matches_escalate_and_replay() {
    use cohesion::config::{DesignPoint, MachineConfig};
    use cohesion::report::RunReport;
    use cohesion::run::run_workload;
    use cohesion_kernels::{kernel_by_name_seeded, Scale};

    // Home-function shapes: (l3_banks, dram_channels). The 16-core
    // machine has 2 cluster lanes, so lanes own 1 / 2 / 4 bank slots.
    const SHAPES: [(u32, u32); 3] = [(2, 1), (4, 2), (8, 4)];

    Runner::new("lane_owned_l3_matches_escalate_and_replay")
        .cases(64)
        .run(
            &(
                range(0usize..3),            // AddressMap shape
                sample(&["gjk", "kmeans"]),  // fast kernels, distinct access mixes
                range(0u64..1_000_000),      // trace seed (0 = paper inputs)
                range(0u32..2),              // design point: Cohesion / SWcc
            ),
            |(shape, kernel, seed, point)| {
                let (banks, channels) = SHAPES[shape];
                let dp = if point == 0 {
                    DesignPoint::cohesion(1024, 128)
                } else {
                    DesignPoint::swcc()
                };
                let run = |lane_owned: bool, shards: u32| -> RunReport {
                    let mut cfg = MachineConfig::scaled(16, dp);
                    cfg.l3_banks = banks;
                    cfg.dram_channels = channels;
                    cfg.shards = shards;
                    cfg.lane_owned_l3 = lane_owned;
                    cfg.metrics = lane_owned;
                    let mut wl = kernel_by_name_seeded(kernel, Scale::Tiny, seed);
                    run_workload(&cfg, wl.as_mut()).unwrap_or_else(|e| {
                        panic!("{kernel} seed={seed} banks={banks}: {e}")
                    })
                };
                let ctx = format!("{kernel} seed={seed} banks={banks}x{channels}");

                // 1. Fast path on: crewed lanes == inline engine, exactly.
                let inline = run(true, 1);
                let crewed = run(true, 2);
                assert_eq!(inline.cycles, crewed.cycles, "{ctx}: cycles diverged");
                assert_eq!(inline.phases, crewed.phases, "{ctx}: phases diverged");
                assert_eq!(inline.tasks, crewed.tasks, "{ctx}: tasks diverged");
                assert_eq!(inline.ops, crewed.ops, "{ctx}: ops diverged");
                assert_eq!(inline.messages, crewed.messages, "{ctx}: messages diverged");
                assert_eq!(
                    inline.instr_stats, crewed.instr_stats,
                    "{ctx}: coherence-instruction stats diverged"
                );
                assert_eq!(
                    inline.transitions, crewed.transitions,
                    "{ctx}: domain transitions diverged"
                );
                assert_eq!(inline.dram, crewed.dram, "{ctx}: DRAM diverged");
                assert_eq!(inline.l2, crewed.l2, "{ctx}: L2 stats diverged");
                assert_eq!(inline.l3, crewed.l3, "{ctx}: L3 stats diverged");
                assert_eq!(inline.noc, crewed.noc, "{ctx}: NoC stats diverged");
                assert_eq!(
                    inline.dir_insertions, crewed.dir_insertions,
                    "{ctx}: directory insertions diverged"
                );
                assert_eq!(
                    inline.dir_evictions, crewed.dir_evictions,
                    "{ctx}: directory evictions diverged"
                );
                assert_eq!(inline.races, crewed.races, "{ctx}: races diverged");
                let ja = inline.metrics.as_ref().expect("metrics armed").to_json();
                let jb = crewed.metrics.as_ref().expect("metrics armed").to_json();
                assert_eq!(ja, jb, "{ctx}: metrics snapshots diverged");

                // 2. Fast path off: the escalate-everything engine runs
                // the same program (its self-check passed inside `run`).
                let replay = run(false, 2);
                assert_eq!(inline.phases, replay.phases, "{ctx}: replay phases diverged");
                assert_eq!(inline.tasks, replay.tasks, "{ctx}: replay tasks diverged");
                assert_eq!(inline.ops, replay.ops, "{ctx}: replay ops diverged");
            },
        );
}
