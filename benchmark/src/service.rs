//! The `service` workload: an in-process `cohesiond` with an on-disk run
//! cache, driven as a closed loop by client connections that each wait
//! for their reply before sending the next request.
//!
//! The traffic is the tenant model of `cohesion_loadgen`, the load
//! generator CI replays against the daemon, at its default sizes: a
//! tenant owns a working set of three distinct tiny requests and sends
//! sixteen requests (four bursts of four) drawn from it with the
//! loadgen's quadratic popularity skew. A tenant's first request for a
//! key simulates and writes the cache; its repeats are cache hits. So the
//! hit share comes from the model, not from a chosen ratio, and is
//! reported as `service.hit_ratio`. Tenants follow one another on each
//! connection. The loadgen's idle gap between bursts is left out: in a
//! closed loop it would time the sleep rather than the daemon.
//!
//! Set-up fills the daemon's cache, at its default capacity, with earlier
//! tenants of the same traffic through a first server instance, stops it,
//! and then times several restarts on the full cache directory (bind,
//! reload, and the first `ping` reply). The measured window continues the
//! same tenant sequence on the last instance.

use std::collections::HashMap;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cohesion_kernels::{Scale, KERNEL_NAMES};
use cohesion_service::cache::{CacheKey, RunCache};
use cohesion_service::client::{Client, ClientError};
use cohesion_service::request::RunRequest;
use cohesion_service::runner;
use cohesion_service::server::{Server, ServerConfig, ServerSummary, StopHandle};
use cohesion_testkit::pool;
use cohesion_testkit::rng::Rng;

use crate::result::WorkloadResult;
use crate::sim::{self, Pass, SimJob};
use crate::stats::{self, median, percentile};
use crate::{components, fnv64, Checks, Metrics, RssSampler};

/// Problem scale and simulated cores of every request: the loadgen's
/// `--scale` and `--cores` defaults.
const SCALE: Scale = Scale::Tiny;
const CORES: u32 = 16;

/// Design points the loadgen's working sets draw from.
const POINTS: [&str; 3] = ["swcc", "cohesion", "hwcc-real"];

/// Distinct requests per tenant (the loadgen's `--working-set` default)
/// and requests per tenant (its default 4 bursts of 4).
const WORKING_SET: usize = 3;
const TENANT_REQUESTS: usize = 16;

/// Daemon simulation workers, and client connections (each a closed
/// loop): together no more than a 2-thread host runs at once.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;

/// What the service workload sends, and how much set-up and re-running
/// it does.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Kernels working sets draw from.
    pub kernels: Vec<&'static str>,
    /// Design-point specs working sets draw from.
    pub points: Vec<&'static str>,
    /// The daemon's cache capacity; set-up fills it.
    pub cache_entries: usize,
    /// Timed server restarts; `setup_s` is their median.
    pub restarts: usize,
    /// Simulations re-run directly, untraced and traced, for the layer
    /// breakdown beneath the daemon.
    pub replay: usize,
}

impl ServiceSpec {
    /// The benchmark's service workload: the loadgen's kernels and points,
    /// and the daemon's default cache capacity.
    pub fn standard() -> ServiceSpec {
        ServiceSpec {
            kernels: KERNEL_NAMES.to_vec(),
            points: POINTS.to_vec(),
            cache_entries: ServerConfig::default().cache_entries,
            restarts: 15,
            replay: 1000,
        }
    }
}

/// Tenant `tenant`'s requests in the order it sends them: a working set
/// drawn as the loadgen draws it (kernel and point uniform, the input
/// seed one of two in a namespace of the tenant's own, so tenants never
/// share a key), then sampled with the loadgen's quadratic skew.
fn tenant_requests(spec: &ServiceSpec, seed: u64, tenant: u64) -> Vec<RunRequest> {
    let mut rng = Rng::new(seed ^ (tenant + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    // The wire carries the input seed as a JSON number, exact only below
    // 2^53, so a run may have at most 2^21 tenants.
    let namespace = tenant << 32;
    let mut set: Vec<RunRequest> = Vec::with_capacity(WORKING_SET);
    while set.len() < WORKING_SET {
        let req = RunRequest {
            kernel: spec.kernels[rng.gen_range(0, spec.kernels.len())].to_string(),
            scale: SCALE,
            cores: CORES,
            point: spec.points[rng.gen_range(0, spec.points.len())].to_string(),
            seed: namespace | rng.gen_range(0u64, 2),
            shards: 1,
        }
        .validate()
        .expect("generated request is valid");
        if !set.contains(&req) {
            set.push(req);
        }
    }
    let n = set.len() as u64;
    (0..TENANT_REQUESTS)
        .map(|_| set[(rng.gen_range(0, n * n) as f64).sqrt() as usize % set.len()].clone())
        .collect()
}

/// Timed restarts run in groups of this many, [`RESTART_PAUSE`] apart: a
/// whole group takes a fraction of a second, so one burst of host noise
/// slows at most one group and cannot move the median of all of them.
const RESTART_GROUP: usize = 5;
const RESTART_PAUSE: Duration = Duration::from_secs(1);

/// How long a client waits for any reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A server running on its own thread.
struct Daemon {
    addr: String,
    stop: StopHandle,
    thread: JoinHandle<std::io::Result<ServerSummary>>,
}

impl Daemon {
    fn start(cfg: &ServerConfig) -> Result<Daemon, String> {
        let server = Server::bind(cfg.clone()).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local address: {e}"))?
            .to_string();
        let stop = server.stop_handle();
        Ok(Daemon {
            addr,
            stop,
            thread: std::thread::spawn(move || server.run()),
        })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr, REPLY_TIMEOUT).map_err(|e| format!("connect: {e}"))
    }

    fn stop(self) -> Result<ServerSummary, String> {
        self.stop.stop();
        match self.thread.join() {
            Ok(r) => r.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// When a client stops sending.
#[derive(Debug, Clone, Copy)]
enum Until {
    /// At the first tenant boundary after this many misses (or after any
    /// failure).
    Misses(usize),
    /// At this instant, mid-tenant if need be.
    Deadline(Instant),
}

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    /// `(latency in ms, served from the cache)` of every completed request.
    done: Vec<(f64, bool)>,
    failed: u64,
    errors: Vec<String>,
    /// Every miss, with a hash of the document it was served.
    misses: Vec<(RunRequest, u64)>,
}

/// Sends the requests of this connection's tenants, from tenant `*next`
/// on, until `until`; every [`CLIENTS`]-th tenant belongs to one
/// connection. A tenant's first request for a key must miss, and every
/// repeat must hit and be byte-identical to the document first served.
fn client_loop(
    client: &mut Client,
    spec: &ServiceSpec,
    seed: u64,
    next: &mut u64,
    until: Until,
) -> ClientLog {
    let mut log = ClientLog::default();
    loop {
        if let Until::Misses(n) = until {
            if log.misses.len() >= n || log.failed > 0 {
                return log;
            }
        }
        // Each key the tenant was served, with a hash of its first document.
        let mut served: HashMap<String, u64> = HashMap::new();
        for req in tenant_requests(spec, seed, *next) {
            if let Until::Deadline(d) = until {
                if Instant::now() >= d {
                    return log;
                }
            }
            let t = Instant::now();
            let outcome = client.submit_run(&req, |_| {});
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let report = match outcome {
                Ok(mut o) if o.failed == 0 && o.reports.len() == 1 => o.reports.remove(0),
                Ok(o) => {
                    log.failed += 1;
                    log.errors.push(format!(
                        "{req:?}: {} failed, {} reports",
                        o.failed,
                        o.reports.len()
                    ));
                    continue;
                }
                Err(e) => {
                    // The stream may be out of step after a transport error.
                    log.failed += 1;
                    log.errors.push(format!("{req:?}: {e}"));
                    return log;
                }
            };
            let hash = fnv64(report.doc.as_bytes());
            log.done.push((ms, report.cached));
            match (served.get(&report.key), report.cached) {
                (None, false) => {
                    served.insert(report.key, hash);
                    log.misses.push((req, hash));
                }
                (Some(&first), true) if first == hash => {}
                (Some(_), true) => log.errors.push(format!(
                    "hit for {} differs from its first document",
                    report.key
                )),
                (None, true) => log
                    .errors
                    .push(format!("first request for {} hit", report.key)),
                (Some(_), false) => log.errors.push(format!("repeat of {} missed", report.key)),
            }
        }
        *next += CLIENTS as u64;
    }
}

/// Runs one [`client_loop`] per connection, each on its own thread.
fn drive(
    clients: &mut [Client],
    spec: &ServiceSpec,
    seed: u64,
    next: &mut [u64],
    until: Until,
) -> Vec<ClientLog> {
    std::thread::scope(|s| {
        let threads: Vec<_> = clients
            .iter_mut()
            .zip(next.iter_mut())
            .map(|(c, n)| s.spawn(move || client_loop(c, spec, seed, n, until)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    })
}

/// Counts the requests of `logs` and records their failed checks.
fn account(logs: &[ClientLog], checks: &mut Checks) {
    for l in logs {
        checks.count(l.done.len() as u64 + l.failed, l.failed);
        for e in &l.errors {
            checks.error(e.clone());
        }
    }
}

/// Runs the service workload. With `trace`, also re-runs the misses
/// directly: every miss through `runner::execute` (its document must
/// match the one served, and the insert into a fresh on-disk cache is
/// timed), and the first `replay` of them through `run_workload` with
/// recorders off and on, for the simulation layers beneath the daemon.
pub fn run(
    name: &str,
    spec: &ServiceSpec,
    seed: u64,
    window: Duration,
    trace: bool,
) -> WorkloadResult {
    let dir = crate::work_dir(name);
    let mut checks = Checks::default();
    let mut metrics = Metrics::new();
    if let Err(e) = measure(spec, seed, window, trace, &dir, &mut checks, &mut metrics) {
        checks.error(e);
    }
    let _ = std::fs::remove_dir_all(&dir);
    checks.finish(name, seed, trace, metrics, None)
}

/// The body of [`run`]; an error (a daemon that cannot start, a failed
/// set-up request) ends the workload and becomes a failed check.
fn measure(
    spec: &ServiceSpec,
    seed: u64,
    window: Duration,
    trace: bool,
    dir: &Path,
    checks: &mut Checks,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        cache_dir: Some(dir.join("cache")),
        cache_entries: spec.cache_entries,
        ..ServerConfig::default()
    };
    // Connection `c` sends tenants c, c + CLIENTS, c + 2·CLIENTS, … in
    // set-up and in the measured window alike.
    let mut next: Vec<u64> = (0..CLIENTS as u64).collect();

    // Set-up, untimed: earlier tenants fill the cache.
    let daemon = Daemon::start(&cfg)?;
    let mut clients = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let fill = Until::Misses(spec.cache_entries.div_ceil(CLIENTS));
    let logs = drive(&mut clients, spec, seed, &mut next, fill);
    drop(clients);
    daemon.stop()?;
    account(&logs, checks);
    if logs.iter().any(|l| l.failed > 0) {
        return Err("set-up requests failed".into());
    }

    let (daemon, setups, mut handshakes, entries) = restart(spec, &cfg)?;
    checks.expect_eq(
        &entries.to_string(),
        &spec.cache_entries.to_string(),
        "entries the restarted daemon reloaded",
    );
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let t = Instant::now();
        clients.push(daemon.connect()?);
        handshakes.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let sampler = RssSampler::start();
    let start = Instant::now();
    let logs = drive(
        &mut clients,
        spec,
        seed,
        &mut next,
        Until::Deadline(start + window),
    );
    let wall = start.elapsed().as_secs_f64();
    let rss = sampler.finish();
    let stats: Result<_, ClientError> = clients[0].stats();
    drop(clients);
    daemon.stop()?;
    account(&logs, checks);

    let done: Vec<(f64, bool)> = logs.iter().flat_map(|l| l.done.iter().copied()).collect();
    let latency: Vec<f64> = done.iter().map(|&(ms, _)| ms).collect();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    metrics.push(("req_per_s", latency.len() as f64 / wall));
    metrics.push(("req_p50_ms", median(&latency).unwrap_or(0.0)));
    metrics.push(("req_tail_ms", stats::tail(&latency).unwrap_or(0.0)));
    metrics.push(("setup_s", median(&setups).unwrap_or(0.0)));
    metrics.push(("peak_rss_mb", rss));
    metrics.push(("req_samples", latency.len() as f64));
    metrics.push((
        "failed_frac",
        failed as f64 / (latency.len() as u64 + failed).max(1) as f64,
    ));
    if !trace {
        return Ok(());
    }

    let (hits, miss_ms): (Vec<_>, Vec<_>) = done.iter().partition(|&&(_, cached)| cached);
    let hits: Vec<f64> = hits.into_iter().map(|(ms, _)| ms).collect();
    let miss_ms: Vec<f64> = miss_ms.into_iter().map(|(ms, _)| ms).collect();
    metrics.push(("service.hit_p50_ms", median(&hits).unwrap_or(0.0)));
    metrics.push(("service.hit_p99_ms", percentile(&hits, 0.99).unwrap_or(0.0)));
    metrics.push(("service.miss_p50_ms", median(&miss_ms).unwrap_or(0.0)));
    metrics.push((
        "service.miss_p99_ms",
        percentile(&miss_ms, 0.99).unwrap_or(0.0),
    ));
    metrics.push((
        "service.hit_ratio",
        hits.len() as f64 / done.len().max(1) as f64,
    ));
    metrics.push(("service.handshake_ms", median(&handshakes).unwrap_or(0.0)));
    let stats = stats.map_err(|e| format!("stats: {e}"))?;
    metrics.push(("service.daemon_errors", stats.errors_total() as f64));
    let mut reloads = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        RunCache::at_dir(dir.join("cache"), spec.cache_entries)
            .map_err(|e| format!("reload: {e}"))?;
        reloads.push(t.elapsed().as_secs_f64());
    }
    metrics.push(("service.cache_reload_s", median(&reloads).unwrap_or(0.0)));
    let misses: Vec<(RunRequest, u64)> = logs.into_iter().flat_map(|l| l.misses).collect();
    rerun_misses(spec, &misses, wall, &dir.join("insert"), checks, metrics)?;
    components::measure(metrics);
    Ok(())
}

/// Set-up, timed: `spec.restarts` restarts on the filled cache. Returns
/// the last instance, still serving, with each restart's set-up time
/// (bind plus the first pong, in s), its handshake time (in ms), and the
/// cache entries the last instance reloaded. The handshake is timed
/// apart: the accept loop polls every 20 ms, so whether a connection
/// waits for the next poll depends on a thread-start race, not on the
/// work done.
fn restart(
    spec: &ServiceSpec,
    cfg: &ServerConfig,
) -> Result<(Daemon, Vec<f64>, Vec<f64>, u64), String> {
    let mut setups = Vec::new();
    let mut handshakes = Vec::new();
    let mut i = 0;
    loop {
        let t = Instant::now();
        let daemon = Daemon::start(cfg)?;
        let bind = t.elapsed();
        let t = Instant::now();
        let mut client = daemon.connect()?;
        handshakes.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let pong = client.ping().map_err(|e| format!("ping: {e}"))?;
        setups.push((bind + t.elapsed()).as_secs_f64());
        drop(client);
        i += 1;
        if i >= spec.restarts {
            return Ok((daemon, setups, handshakes, pong.cache_entries));
        }
        daemon.stop()?;
        if i % RESTART_GROUP == 0 {
            std::thread::sleep(RESTART_PAUSE);
        }
    }
}

/// Re-runs the loop's misses directly. Every miss goes through
/// `runner::execute`, whose document must match the one served, and
/// into a fresh on-disk cache at `insert_dir`, the insert timed on its
/// own; the first `spec.replay` go through `run_workload` with the
/// recorders off and on, for the simulation layers beneath the daemon.
fn rerun_misses(
    spec: &ServiceSpec,
    misses: &[(RunRequest, u64)],
    wall: f64,
    insert_dir: &Path,
    checks: &mut Checks,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let cache = RunCache::at_dir(insert_dir.to_path_buf(), spec.cache_entries)
        .map_err(|e| format!("cache: {e}"))?;
    let executed = pool::run_jobs(WORKERS, misses.to_vec(), |(req, served)| {
        let t = Instant::now();
        let doc = runner::execute(&req).map_err(|e| format!("execute {req:?}: {e}"))?;
        let exec_s = t.elapsed().as_secs_f64();
        let same = fnv64(doc.as_bytes()) == served;
        let t = Instant::now();
        cache.insert(CacheKey::for_request(&req), doc);
        let insert_ms = t.elapsed().as_secs_f64() * 1e3;
        if same {
            Ok((exec_s, insert_ms))
        } else {
            Err(format!(
                "miss document for {req:?} differs from runner::execute"
            ))
        }
    });
    let mut exec_s = Vec::new();
    let mut insert_ms = Vec::new();
    for r in &executed {
        checks.note(r);
        if let Ok((e, i)) = r {
            exec_s.push(*e);
            insert_ms.push(*i);
        }
    }
    let exec_ms: Vec<f64> = exec_s.iter().map(|s| s * 1e3).collect();
    metrics.push(("service.execute_p50_ms", median(&exec_ms).unwrap_or(0.0)));
    metrics.push(("service.cache_insert_ms", median(&insert_ms).unwrap_or(0.0)));
    metrics.push((
        "pool.busy_frac",
        exec_s.iter().sum::<f64>() / (WORKERS as f64 * wall),
    ));

    let jobs: Vec<SimJob> = misses
        .iter()
        .take(spec.replay)
        .map(|(r, _)| {
            let kernel = KERNEL_NAMES
                .into_iter()
                .find(|k| *k == r.kernel)
                .ok_or_else(|| format!("unknown kernel {}", r.kernel))?;
            Ok(SimJob {
                kernel,
                point: r.design_point()?,
                scale: r.scale,
                cores: r.cores,
                seed: r.seed,
            })
        })
        .collect::<Result<_, String>>()?;
    let disarmed = Pass::run(&jobs, WORKERS, 1, false);
    let traced = Pass::run(&jobs, WORKERS, 1, true);
    checks.note_pass(&disarmed);
    checks.note_pass(&traced);
    checks.expect_eq(
        &traced.digest(),
        &disarmed.digest(),
        "armed recorders leave results unchanged",
    );
    let walls: Vec<f64> = disarmed.runs.iter().map(|r| r.times.wall * 1e3).collect();
    metrics.push((
        "service.execute_disarmed_p50_ms",
        median(&walls).unwrap_or(0.0),
    ));
    sim::untraced_layers(std::slice::from_ref(&disarmed), metrics);
    sim::traced_layers(&traced, metrics);
    metrics.push(("trace.overhead", traced.makespan / disarmed.makespan));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{self, Kind};

    fn reduced() -> ServiceSpec {
        ServiceSpec {
            kernels: vec!["sobel", "heat"],
            points: vec!["swcc"],
            cache_entries: 12,
            restarts: 2,
            replay: 8,
        }
    }

    /// A tenant sends sixteen requests over at most three keys of its
    /// own; the same seed and tenant give the same requests, another seed
    /// others.
    #[test]
    fn tenants_follow_the_loadgen_model() {
        let spec = ServiceSpec::standard();
        let a = tenant_requests(&spec, 5, 7);
        assert_eq!(a.len(), TENANT_REQUESTS);
        assert_eq!(a, tenant_requests(&spec, 5, 7));
        assert_ne!(a, tenant_requests(&spec, 6, 7));
        let mut keys: Vec<String> = a.iter().map(RunRequest::canonical).collect();
        keys.sort();
        keys.dedup();
        assert!(keys.len() <= WORKING_SET, "{keys:?}");
        let b = tenant_requests(&spec, 5, 8);
        assert!(b.iter().all(|r| !a.contains(r)), "tenants share a key");
    }

    /// A reduced run whose set-up fills a small cache, so the measured
    /// window starts on a restarted daemon holding a full cache in hash
    /// order and every miss evicts: every repeat still hits, byte for
    /// byte, and every layer metric is reported.
    #[test]
    fn smoke_service_workload_on_a_full_cache_with_trace() {
        let spec = reduced();
        let r = run("service-test", &spec, 3, Duration::from_millis(300), true);
        assert!(r.correct(), "{:?}", r.errors);
        assert_eq!(r.failed, 0);
        for name in catalog::names(Kind::EndToEnd).chain(catalog::names(Kind::Layer)) {
            assert!(r.metric(name).is_some(), "{name} missing");
        }
        let hit_ratio = r.metric("service.hit_ratio").unwrap();
        assert!(hit_ratio > 0.0 && hit_ratio < 1.0, "{hit_ratio}");
        assert!(r.metric("req_samples").unwrap() > 0.0);
        assert!(r.metric("setup_s").unwrap() > 0.0);
        assert!(r.metric("req_per_s").unwrap() > 0.0);
        assert_eq!(r.metric("service.daemon_errors"), Some(0.0));
    }
}
