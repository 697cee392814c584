#![deny(missing_docs)]

//! Event-driven simulation engine for the Cohesion reproduction.
//!
//! This crate provides the timing substrate every other crate builds on:
//!
//! * [`event::EventQueue`] — a deterministic event queue (a binary heap
//!   keyed by cycle, FIFO-tiebroken by insertion sequence).
//! * [`link::Link`] and [`link::Throttle`] — bandwidth/latency models for
//!   interconnect links and cache/directory ports.
//! * [`msg::MessageClass`] — the eight-way message taxonomy plotted in
//!   Figures 2 and 8 of the paper.
//! * [`stats`] — counters, time-weighted occupancy integrators, and the
//!   per-class message matrices the benchmark harness consumes.
//! * [`metrics`] — the opt-in machine-wide telemetry registry: named
//!   counters, log2-bucketed latency histograms, and a cycle-windowed
//!   time-series sampler, snapshotted (with derived gauges) into
//!   deterministic JSON run reports.
//! * [`timeline`] — the opt-in shard-epoch flight recorder: a bounded
//!   ring of typed wall-clock spans (phase A/B, cache/DRAM service,
//!   crew park/run) with deterministic escalation-cause attribution and
//!   the typed protocol events of one watched cache line, exported as
//!   Chrome trace-event JSON plus a deterministic summary.
//!
//! The engine is fully deterministic: two runs with the same
//! configuration produce bit-identical statistics, which is what makes
//! the paper's figures reproducible artifacts rather than noisy
//! measurements. Parallel execution of one run is layered on top without
//! weakening that: the executor keeps one [`event::EventQueue`] per lane,
//! each lane pops its own events up to a shared window horizon, cross-lane
//! work follows a fixed canonical order, and [`crew::Crew`] supplies the
//! worker threads — host parallelism is never observable in simulated
//! results.
//!
//! # Example
//!
//! ```
//! use cohesion_sim::event::EventQueue;
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(10, "fill");
//! q.schedule(5, "probe");
//! q.schedule(5, "probe-ack"); // same cycle: FIFO order preserved
//! assert_eq!(q.pop(), Some((5, "probe")));
//! assert_eq!(q.pop(), Some((5, "probe-ack")));
//! assert_eq!(q.pop(), Some((10, "fill")));
//! ```

pub mod crew;
pub mod event;
pub mod ids;
pub mod link;
pub mod metrics;
pub mod msg;
pub mod slots;
pub mod stats;
pub mod timeline;

/// A point in simulated time, measured in core clock cycles.
///
/// The baseline machine runs cores, caches, and interconnect on a single
/// 1.5 GHz clock domain (Table 3), so one cycle type suffices.
pub type Cycle = u64;
