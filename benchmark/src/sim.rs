//! The simulator workloads (`sweep`, `shard-serial`, `shard-local`) and
//! the machinery the service workload reuses to replay its simulations
//! directly.
//!
//! Every layer is timed from outside the program: a delegating
//! [`Workload`] wrapper times the kernels, the benchmark's own clock
//! times each `run_workload` call and each pool round, and the traced
//! pass arms the recorders the simulator already has (the metrics
//! registry and the timeline flight recorder).

use std::cell::Cell;
use std::time::{Duration, Instant};

use cohesion::config::{DesignPoint, MachineConfig};
use cohesion::profile::RegionFeedback;
use cohesion::report::RunReport;
use cohesion::run::{run_workload, Workload};
use cohesion_bench::harness::realistic_points;
use cohesion_kernels::{kernel_by_name_seeded, Scale, KERNEL_NAMES};
use cohesion_mem::addr::Addr;
use cohesion_mem::mainmem::MainMemory;
use cohesion_runtime::api::{CohesionApi, RuntimeError};
use cohesion_runtime::task::Phase;
use cohesion_sim::timeline::{EscalationCause, TimelineSnapshot};
use cohesion_testkit::pool;

use crate::result::WorkloadResult;
use crate::stats::median;
use crate::{components, fnv64, stats, Checks, Metrics, RssSampler};

/// What a simulator workload runs in one round: every kernel under every
/// design point for `seeds` consecutive input seeds, kernels-major.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// Kernel names.
    pub kernels: Vec<&'static str>,
    /// Design points.
    pub points: Vec<DesignPoint>,
    /// Simulated cores.
    pub cores: u32,
    /// Problem scale.
    pub scale: Scale,
    /// Host threads sharding each run.
    pub shards: u32,
    /// Runs executed concurrently.
    pub jobs: usize,
    /// Consecutive input seeds per kernel and point.
    pub seeds: u64,
    /// Seconds one round takes on the 2-thread reference host. A run
    /// does `max(1, ⌊window ÷ round_s⌋)` rounds: a count fixed by the
    /// window, not a deadline, so every run has the same job mix and the
    /// same allocator history.
    pub round_s: f64,
}

impl SimSpec {
    /// The figure-regeneration sweep: 8 kernels × the 6 realistic design
    /// points on 16 cores, two runs at a time, unsharded.
    pub fn sweep() -> SimSpec {
        SimSpec {
            kernels: KERNEL_NAMES.to_vec(),
            points: realistic_points().into_iter().map(|(_, dp)| dp).collect(),
            cores: 16,
            scale: Scale::Small,
            shards: 1,
            jobs: 2,
            seeds: 1,
            round_s: 17.0,
        }
    }

    /// Escalation-heavy sharded runs: phase B and the crew dominate.
    pub fn shard_serial() -> SimSpec {
        SimSpec {
            kernels: vec!["cg", "heat", "kmeans", "sobel"],
            points: vec![DesignPoint::cohesion(16 * 1024, 128)],
            cores: 64,
            scale: Scale::Small,
            shards: 2,
            jobs: 1,
            seeds: 1,
            round_s: 11.5,
        }
    }

    /// Phase-A-dominated sharded runs (escalation rate near 0.01).
    pub fn shard_local() -> SimSpec {
        SimSpec {
            kernels: vec!["mri"],
            points: vec![DesignPoint::cohesion(16 * 1024, 128)],
            cores: 64,
            scale: Scale::Medium,
            shards: 2,
            jobs: 1,
            seeds: 20,
            round_s: 9.5,
        }
    }

    /// Rounds a run of `window` does.
    pub fn rounds(&self, window: Duration) -> usize {
        ((window.as_secs_f64() / self.round_s) as usize).max(1)
    }

    /// One round's runs for workload seed `seed`. Input seeds are
    /// `seed * 1000 + i`, so neighbouring workload seeds never share an
    /// input.
    pub fn jobs(&self, seed: u64) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for &kernel in &self.kernels {
            for &point in &self.points {
                for i in 0..self.seeds {
                    jobs.push(SimJob {
                        kernel,
                        point,
                        scale: self.scale,
                        cores: self.cores,
                        seed: seed.wrapping_mul(1000).wrapping_add(i),
                    });
                }
            }
        }
        jobs
    }
}

/// One simulation: a kernel, its inputs, and the machine it runs on.
#[derive(Debug, Clone, Copy)]
pub struct SimJob {
    /// Kernel name.
    pub kernel: &'static str,
    /// Design point.
    pub point: DesignPoint,
    /// Problem scale.
    pub scale: Scale,
    /// Simulated cores.
    pub cores: u32,
    /// Kernel input seed.
    pub seed: u64,
}

/// Wall-clock split of one `run_workload` call, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTimes {
    /// The whole call.
    pub wall: f64,
    /// From the call to the kernel's first `next_phase`: API, kernel
    /// setup, `Machine::new`, the golden copy and `boot`.
    pub setup_prefix: f64,
    /// Inside the kernel's `setup`.
    pub kernel_setup: f64,
    /// Inside the kernel's `next_phase` calls.
    pub kernel_next: f64,
    /// Inside the kernel's `verify`.
    pub kernel_verify: f64,
}

impl RunTimes {
    fn kernel(&self) -> f64 {
        self.kernel_setup + self.kernel_next + self.kernel_verify
    }
}

/// A delegating [`Workload`] that times the kernel's own methods.
struct Timed {
    inner: Box<dyn Workload>,
    first_phase: Option<Instant>,
    setup: Duration,
    next_phase: Duration,
    verify: Cell<Duration>,
}

impl Workload for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn setup(
        &mut self,
        api: &mut CohesionApi,
        golden: &mut MainMemory,
    ) -> Result<(), RuntimeError> {
        let t = Instant::now();
        let r = self.inner.setup(api, golden);
        self.setup += t.elapsed();
        r
    }

    fn next_phase(&mut self, api: &mut CohesionApi, golden: &mut MainMemory) -> Option<Phase> {
        let t = Instant::now();
        self.first_phase.get_or_insert(t);
        let p = self.inner.next_phase(api, golden);
        self.next_phase += t.elapsed();
        p
    }

    fn verify(&self, mem: &MainMemory) -> Result<(), String> {
        let t = Instant::now();
        let r = self.inner.verify(mem);
        self.verify.set(self.verify.get() + t.elapsed());
        r
    }

    fn immutable_ranges(&self) -> Vec<(Addr, u32)> {
        self.inner.immutable_ranges()
    }

    fn profile_regions(&self) -> Vec<(Addr, u32)> {
        self.inner.profile_regions()
    }

    fn observe(&mut self, feedback: &[RegionFeedback]) {
        self.inner.observe(feedback)
    }
}

/// One finished simulation.
pub struct RunOutcome {
    /// Where its wall-clock went.
    pub times: RunTimes,
    /// The report, or why the run failed (golden verification included).
    pub report: Result<RunReport, String>,
}

/// Runs `job` once at `shards` host threads; `traced` arms the metrics
/// registry and the timeline recorder.
pub fn run_one(job: &SimJob, shards: u32, traced: bool) -> RunOutcome {
    let mut cfg = MachineConfig::scaled(job.cores, job.point);
    cfg.shards = shards;
    cfg.metrics = traced;
    cfg.timeline = traced;
    let mut wl = Timed {
        inner: kernel_by_name_seeded(job.kernel, job.scale, job.seed),
        first_phase: None,
        setup: Duration::ZERO,
        next_phase: Duration::ZERO,
        verify: Cell::new(Duration::ZERO),
    };
    let start = Instant::now();
    let report = run_workload(&cfg, &mut wl);
    let wall = start.elapsed().as_secs_f64();
    let times = RunTimes {
        wall,
        setup_prefix: wl
            .first_phase
            .map_or(wall, |t| t.duration_since(start).as_secs_f64()),
        kernel_setup: wl.setup.as_secs_f64(),
        kernel_next: wl.next_phase.as_secs_f64(),
        kernel_verify: wl.verify.get().as_secs_f64(),
    };
    RunOutcome {
        times,
        report: report.map_err(|e| {
            format!(
                "{} under {:?} seed {} failed: {e}",
                job.kernel, job.point, job.seed
            )
        }),
    }
}

/// One pass over a job list on a pool of `workers` threads.
pub struct Pass {
    /// Outcomes in job order.
    pub runs: Vec<RunOutcome>,
    /// Wall-clock from the first run's start to the last run's end.
    pub makespan: f64,
    /// Threads the pool actually used.
    pub workers: usize,
}

impl Pass {
    /// Runs every job of `jobs` once.
    pub fn run(jobs: &[SimJob], workers: usize, shards: u32, traced: bool) -> Pass {
        let start = Instant::now();
        let runs = pool::run_jobs(workers, jobs.to_vec(), |j| run_one(&j, shards, traced));
        Pass {
            runs,
            makespan: start.elapsed().as_secs_f64(),
            workers: workers.clamp(1, jobs.len().max(1)),
        }
    }

    /// The successful reports.
    pub fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.runs.iter().filter_map(|r| r.report.as_ref().ok())
    }

    /// Failed runs.
    pub fn failures(&self) -> impl Iterator<Item = &str> {
        self.runs
            .iter()
            .filter_map(|r| r.report.as_ref().err().map(String::as_str))
    }

    /// FNV-1a over every result field of every report in job order (the
    /// two recorder snapshots excluded), failures included by message.
    pub fn digest(&self) -> String {
        let mut text = String::new();
        for run in &self.runs {
            text += &match &run.report {
                Ok(r) => format!(
                    "{:?}\n",
                    RunReport {
                        metrics: None,
                        timeline: None,
                        ..r.clone()
                    }
                ),
                Err(e) => format!("failed: {e}\n"),
            };
        }
        format!("{:016x}", fnv64(text.as_bytes()))
    }
}

/// End-to-end metrics of untraced rounds over the same job list.
fn end_to_end(rounds: &[Pass], metrics: &mut Metrics) {
    let wall: f64 = rounds.iter().map(|p| p.makespan).sum();
    let lat: Vec<f64> = rounds
        .iter()
        .flat_map(|p| p.runs.iter().map(|r| r.times.wall * 1e3))
        .collect();
    let ops: u64 = rounds.iter().flat_map(Pass::reports).map(|r| r.ops).sum();
    let failed = rounds.iter().flat_map(Pass::failures).count();
    let setups: Vec<f64> = rounds
        .iter()
        .flat_map(|p| p.runs.iter().map(|r| r.times.setup_prefix))
        .collect();
    metrics.push(("req_per_s", lat.len() as f64 / wall));
    metrics.push(("req_p50_ms", median(&lat).unwrap_or(0.0)));
    metrics.push(("req_tail_ms", stats::tail(&lat).unwrap_or(0.0)));
    metrics.push(("setup_s", median(&setups).unwrap_or(0.0)));
    metrics.push(("req_samples", lat.len() as f64));
    metrics.push(("sim_mops", ops as f64 / wall / 1e6));
    metrics.push(("failed_frac", failed as f64 / lat.len().max(1) as f64));
}

/// Per-round layer times measured from outside with every recorder off:
/// the kernels and the executor around them.
pub fn untraced_layers(rounds: &[Pass], metrics: &mut Metrics) {
    let n = rounds.len().max(1) as f64;
    let wall = total(rounds, |t| t.wall);
    let kernel = total(rounds, RunTimes::kernel);
    metrics.push(("kernels.setup_s", total(rounds, |t| t.kernel_setup) / n));
    metrics.push(("kernels.next_phase_s", total(rounds, |t| t.kernel_next) / n));
    metrics.push(("kernels.verify_s", total(rounds, |t| t.kernel_verify) / n));
    metrics.push(("kernels.share", kernel / wall));
    metrics.push(("run.wall_s", wall / n));
    metrics.push(("run.self_s", (wall - kernel) / n));
    metrics.push(("run.setup_prefix_s", total(rounds, |t| t.setup_prefix) / n));
}

/// `f` summed over every run of every pass.
fn total(passes: &[Pass], f: fn(&RunTimes) -> f64) -> f64 {
    passes
        .iter()
        .flat_map(|p| &p.runs)
        .map(|r| f(&r.times))
        .sum()
}

/// Layer metrics of one traced pass: the executor's timeline (which keeps
/// only a suffix of its spans, hence the coverage figure), the machine's
/// L3 and DRAM service spans, the crew's park/run spans, and the exact
/// simulated model counts.
pub fn traced_layers(pass: &Pass, metrics: &mut Metrics) {
    let reports: Vec<&RunReport> = pass.reports().collect();
    let timelines: Vec<&TimelineSnapshot> =
        reports.iter().filter_map(|r| r.timeline.as_ref()).collect();
    let span_s = |name: &str| -> f64 {
        timelines
            .iter()
            .flat_map(|t| t.spans.iter().chain(&t.crew_spans))
            .filter(|s| s.name == name)
            .map(|s| s.dur_us as f64 * 1e-6)
            .sum()
    };
    let total = |f: fn(&TimelineSnapshot) -> u64| timelines.iter().map(|t| f(t)).sum::<u64>();
    let kept = timelines.iter().map(|t| t.spans.len() as u64).sum::<u64>();
    let dropped = total(|t| t.dropped);
    let slices = total(TimelineSnapshot::slices);
    metrics.push(("run.phase_a_lane_s", span_s("phase_a")));
    metrics.push(("run.phase_b_s", span_s("phase_b")));
    metrics.push(("run.epochs", total(|t| t.epochs) as f64));
    metrics.push(("run.slices", slices as f64));
    metrics.push((
        "run.escalation_rate",
        total(TimelineSnapshot::escalated_total) as f64 / slices.max(1) as f64,
    ));
    for cause in EscalationCause::ALL {
        let n: u64 = timelines.iter().map(|t| t.escalated[cause.index()]).sum();
        metrics.push((esc_metric(cause), n as f64));
    }
    metrics.push(("run.l3_fast", total(|t| t.l3_fast) as f64));
    metrics.push((
        "run.trace_coverage",
        kept as f64 / (kept + dropped).max(1) as f64,
    ));
    metrics.push(("run.dropped_spans", dropped as f64));
    metrics.push(("machine.l3_service_s", span_s("l3_service")));
    metrics.push(("machine.dram_service_s", span_s("dram_service")));
    let (park, run) = (span_s("crew_park"), span_s("crew_run"));
    metrics.push(("crew.park_s", park));
    metrics.push(("crew.run_s", run));
    metrics.push((
        "crew.busy_frac",
        if park + run > 0.0 {
            run / (park + run)
        } else {
            0.0
        },
    ));

    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let events: u64 = reports
        .iter()
        .filter_map(|r| r.metrics.as_ref())
        .flat_map(|m| m.counters.iter())
        .filter(|(k, _)| k == "events/scheduled")
        .map(|&(_, v)| v)
        .sum();
    metrics.push(("sim.cycles", sum(|r| r.cycles) as f64));
    metrics.push(("sim.ops", sum(|r| r.ops) as f64));
    metrics.push(("sim.events", events as f64));
    metrics.push((
        "mem.l2_hit_rate",
        ratio(sum(|r| r.l2.0), sum(|r| r.l2.0 + r.l2.1)),
    ));
    metrics.push((
        "mem.l3_hit_rate",
        ratio(sum(|r| r.l3.0), sum(|r| r.l3.0 + r.l3.1)),
    ));
    metrics.push((
        "mem.dram_row_hit_rate",
        ratio(sum(|r| r.dram.1), sum(|r| r.dram.0)),
    ));
    metrics.push(("noc.requests", sum(|r| r.noc.0) as f64));
    metrics.push(("protocol.dir_evictions", sum(|r| r.dir_evictions) as f64));
    metrics.push((
        "protocol.transitions",
        sum(|r| r.transitions.0 + r.transitions.1) as f64,
    ));
}

/// The catalog name of one escalation cause's counter.
fn esc_metric(cause: EscalationCause) -> &'static str {
    match cause {
        EscalationCause::L3Local => "run.esc.l3-local",
        EscalationCause::L3Remote => "run.esc.l3-remote",
        EscalationCause::Directory => "run.esc.directory",
        EscalationCause::Noc => "run.esc.noc",
        EscalationCause::Atomic => "run.esc.atomic",
        EscalationCause::TaskQueue => "run.esc.task-queue",
    }
}

/// Runs a simulator workload: one untimed warm-up run (the round's first
/// job at the tiny scale), then [`SimSpec::rounds`] rounds with every
/// recorder off. With `trace`, one more round runs traced (per-layer
/// metrics and the tracing overhead), a sharded workload repeats its
/// round at one shard (the crew's speedup, and the check that sharding
/// leaves every result unchanged), and the component probes run.
pub fn run(name: &str, spec: &SimSpec, seed: u64, window: Duration, trace: bool) -> WorkloadResult {
    let jobs = spec.jobs(seed);
    let mut checks = Checks::default();
    let warm_up = SimJob {
        scale: Scale::Tiny,
        ..jobs[0]
    };
    checks.note(&run_one(&warm_up, spec.shards, false).report);

    let sampler = RssSampler::start();
    let rounds: Vec<Pass> = (0..spec.rounds(window))
        .map(|_| Pass::run(&jobs, spec.jobs, spec.shards, false))
        .collect();
    let rss = sampler.finish();
    let digest = rounds[0].digest();
    for (i, p) in rounds.iter().enumerate() {
        checks.note_pass(p);
        checks.expect_eq(&p.digest(), &digest, &format!("round {i} repeats round 0"));
    }

    let mut metrics = Metrics::new();
    end_to_end(&rounds, &mut metrics);
    metrics.push(("peak_rss_mb", rss));
    if trace {
        untraced_layers(&rounds, &mut metrics);
        let capacity: f64 = rounds.iter().map(|p| p.workers as f64 * p.makespan).sum();
        metrics.push(("pool.busy_frac", total(&rounds, |t| t.wall) / capacity));
        let traced = Pass::run(&jobs, spec.jobs, spec.shards, true);
        checks.note_pass(&traced);
        checks.expect_eq(
            &traced.digest(),
            &digest,
            "armed recorders leave results unchanged",
        );
        traced_layers(&traced, &mut metrics);
        let untraced =
            median(&rounds.iter().map(|p| p.makespan).collect::<Vec<_>>()).unwrap_or(1.0);
        metrics.push(("trace.overhead", traced.makespan / untraced));
        if spec.shards > 1 {
            let single = Pass::run(&jobs, spec.jobs, 1, false);
            checks.note_pass(&single);
            checks.expect_eq(
                &single.digest(),
                &digest,
                "shards=1 matches the sharded run",
            );
            metrics.push(("crew.speedup_shards", single.makespan / untraced));
        }
        components::measure(&mut metrics);
    }
    checks.finish(name, seed, trace, metrics, Some(digest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{self, Kind};

    fn reduced(shards: u32) -> SimSpec {
        SimSpec {
            kernels: vec!["sobel", "heat"],
            points: vec![DesignPoint::swcc(), DesignPoint::cohesion(16 * 1024, 128)],
            cores: 16,
            scale: Scale::Tiny,
            shards,
            jobs: 2,
            seeds: 2,
            round_s: 1.0,
        }
    }

    #[test]
    fn jobs_cover_kernels_points_and_seeds() {
        let jobs = reduced(1).jobs(3);
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].seed, 3000);
        assert_eq!(jobs[1].seed, 3001);
        assert_eq!(jobs[0].kernel, "sobel");
        assert_eq!(jobs[7].kernel, "heat");
        assert_eq!(SimSpec::sweep().jobs(0).len(), 48);
        assert_eq!(SimSpec::shard_local().jobs(0).len(), 20);
    }

    #[test]
    fn timed_wrapper_sees_every_phase() {
        let job = reduced(1).jobs(0)[0];
        let out = run_one(&job, 1, false);
        let r = out.report.expect("tiny sobel verifies");
        assert!(r.ops > 0);
        let t = out.times;
        assert!(t.kernel_next > 0.0 && t.kernel_setup > 0.0 && t.kernel_verify > 0.0);
        assert!(t.setup_prefix > t.kernel_setup && t.setup_prefix < t.wall);
        assert!(t.kernel() < t.wall);
    }

    /// The reduced sharded spec runs end to end, traced, passes every
    /// check (shards=1 included), and reports every bounded and
    /// per-layer metric.
    #[test]
    fn smoke_sharded_workload_with_trace() {
        let r = run("test", &reduced(2), 1, Duration::ZERO, true);
        assert!(r.correct(), "{:?}", r.errors);
        assert_eq!(r.failed, 0);
        for name in catalog::names(Kind::EndToEnd).chain(catalog::names(Kind::Layer)) {
            assert!(r.metric(name).is_some(), "{name} missing");
        }
        assert!(r.metric("crew.speedup_shards").unwrap() > 0.0);
        assert!(r.metric("sim.ops").unwrap() > 0.0);
        assert!(r.metric("run.slices").unwrap() > 0.0);
        assert!(r.sim_digest.is_some());
    }

    #[test]
    fn smoke_unsharded_workload_without_trace() {
        let r = run("test", &reduced(1), 2, Duration::ZERO, false);
        assert!(r.correct(), "{:?}", r.errors);
        for name in catalog::names(Kind::EndToEnd) {
            assert!(r.metric(name).unwrap() > 0.0, "{name} is zero");
        }
        assert!(r.metric("trace.overhead").is_none());
    }

    #[test]
    fn digest_is_deterministic_and_input_sensitive() {
        let jobs = reduced(1).jobs(0);
        let a = Pass::run(&jobs[..2], 1, 1, false).digest();
        let b = Pass::run(&jobs[..2], 2, 1, true).digest();
        let c = Pass::run(&jobs[2..4], 1, 1, false).digest();
        assert_eq!(a, b, "workers and recorders never change results");
        assert_ne!(a, c);
    }
}
