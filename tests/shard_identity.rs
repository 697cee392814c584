//! The sharded executor's determinism contract: simulated results are a
//! function of the configuration and workload alone, never of the host
//! thread count. `MachineConfig::shards` may change wall-clock time, but
//! every simulated number — cycles, message counters, cache stats, and
//! the full metrics snapshot JSON — must be byte-identical at any shard
//! count. This is what lets cohesiond exclude `shards` from its cache
//! key and lets CI `cmp` figure outputs across shard counts.

use cohesion::config::{DesignPoint, MachineConfig};
use cohesion::report::RunReport;
use cohesion::run::run_workload;
use cohesion_kernels::{kernel_by_name, Scale};

fn run_sharded(kernel: &str, dp: DesignPoint, shards: u32) -> RunReport {
    run_sharded_on(16, kernel, dp, shards)
}

fn run_sharded_on(cores: u32, kernel: &str, dp: DesignPoint, shards: u32) -> RunReport {
    let mut cfg = MachineConfig::scaled(cores, dp);
    cfg.shards = shards;
    cfg.metrics = true;
    let mut wl = kernel_by_name(kernel, Scale::Tiny);
    run_workload(&cfg, wl.as_mut()).unwrap_or_else(|e| panic!("{kernel} shards={shards}: {e}"))
}

fn assert_identical(ctx: &str, a: &RunReport, b: &RunReport) {
    assert_eq!(a.cycles, b.cycles, "{ctx}: cycle counts diverged");
    assert_eq!(a.messages, b.messages, "{ctx}: message counters diverged");
    assert_eq!(a.phases, b.phases, "{ctx}: phases diverged");
    assert_eq!(a.tasks, b.tasks, "{ctx}: tasks diverged");
    assert_eq!(a.ops, b.ops, "{ctx}: ops diverged");
    assert_eq!(a.transitions, b.transitions, "{ctx}: transitions diverged");
    assert_eq!(a.dram, b.dram, "{ctx}: DRAM accesses diverged");
    assert_eq!(a.l2, b.l2, "{ctx}: L2 stats diverged");
    assert_eq!(a.l3, b.l3, "{ctx}: L3 stats diverged");
    assert_eq!(a.noc, b.noc, "{ctx}: NoC stats diverged");
    assert_eq!(a.dir_insertions, b.dir_insertions, "{ctx}: dir insertions diverged");
    assert_eq!(a.dir_evictions, b.dir_evictions, "{ctx}: dir evictions diverged");
    assert_eq!(a.races, b.races, "{ctx}: race counts diverged");
    let ja = a.metrics.as_ref().expect("metrics armed").to_json();
    let jb = b.metrics.as_ref().expect("metrics armed").to_json();
    assert_eq!(ja, jb, "{ctx}: metrics snapshots diverged");
}

#[test]
fn shard_count_is_unobservable_in_simulated_results() {
    let kernels = ["heat", "kmeans", "gjk", "cg"];
    let points = [
        ("SWcc", DesignPoint::swcc()),
        ("HWccIdeal", DesignPoint::hwcc_ideal()),
        ("Cohesion", DesignPoint::cohesion(1024, 128)),
    ];
    for kernel in kernels {
        for (mode, dp) in points {
            let base = run_sharded(kernel, dp, 1);
            for shards in [2, 4] {
                let sharded = run_sharded(kernel, dp, shards);
                let ctx = format!("{kernel}/{mode} shards=1 vs {shards}");
                assert_identical(&ctx, &base, &sharded);
            }
        }
    }
}

/// A 64-core machine has 8 cluster lanes, so the crew's participants own
/// blocks of several lanes: 4 + 4 at shards 2, the uneven 2 + 3 + 3 at
/// shards 3, and one lane each at shards 8.
#[test]
fn eight_lanes_in_uneven_blocks_stay_identical() {
    for (kernel, mode, dp) in [
        ("heat", "Cohesion", DesignPoint::cohesion(1024, 128)),
        ("kmeans", "SWcc", DesignPoint::swcc()),
    ] {
        let base = run_sharded_on(64, kernel, dp, 1);
        for shards in [2, 3, 8] {
            let sharded = run_sharded_on(64, kernel, dp, shards);
            let ctx = format!("64-core {kernel}/{mode} shards=1 vs {shards}");
            assert_identical(&ctx, &base, &sharded);
        }
    }
}

/// Shard counts beyond the cluster count clamp rather than misbehave: a
/// 16-core machine has 2 cluster lanes, so `shards=64` must still give
/// the shards=1 results.
#[test]
fn oversubscribed_shards_clamp_to_lanes() {
    let base = run_sharded("heat", DesignPoint::cohesion(1024, 128), 1);
    let huge = run_sharded("heat", DesignPoint::cohesion(1024, 128), 64);
    assert_identical("heat/Cohesion shards=1 vs 64", &base, &huge);
}

/// `shards = 0` is the auto sentinel: the executor resolves a count from
/// the host's parallelism at run time. Whatever it picks — one worker on
/// a 1-core host, clamped-to-lanes on a wide one — the simulated results
/// must still be the shards=1 bytes.
#[test]
fn auto_shards_resolve_host_side_and_stay_identical() {
    for (mode, dp) in [
        ("SWcc", DesignPoint::swcc()),
        ("Cohesion", DesignPoint::cohesion(1024, 128)),
    ] {
        let base = run_sharded("kmeans", dp, 1);
        let auto = run_sharded("kmeans", dp, 0);
        assert_identical(&format!("kmeans/{mode} shards=1 vs auto"), &base, &auto);
    }
}
