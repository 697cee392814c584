//! Integration: multiprogrammed execution with per-process region tables
//! (§3.5's virtualization, implemented).

use cohesion::config::{DesignPoint, MachineConfig, TaskQueueModel};
use cohesion::multi::run_workloads;
use cohesion::run::run_workload;
use cohesion::workloads::micro::Microbench;
use cohesion_kernels::{kernel_by_name, Scale, KERNEL_NAMES};

#[test]
fn two_kernels_share_the_machine_and_both_verify() {
    for dp in [
        DesignPoint::swcc(),
        DesignPoint::hwcc_ideal(),
        DesignPoint::cohesion(1024, 128),
    ] {
        let cfg = MachineConfig::scaled(32, dp);
        let mut a = kernel_by_name("heat", Scale::Tiny);
        let mut b = kernel_by_name("kmeans", Scale::Tiny);
        let reports = run_workloads(&cfg, vec![a.as_mut(), b.as_mut()])
            .unwrap_or_else(|e| panic!("{dp:?}: {e}"));
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].kernel, "heat");
        assert_eq!(reports[1].kernel, "kmeans");
        for r in &reports {
            assert!(r.finished_at > 0, "{}: time must pass", r.kernel);
            assert!(r.messages.total() > 0, "{}: traffic must flow", r.kernel);
            assert!(r.phases > 0);
        }
    }
}

#[test]
fn four_microbenches_with_separate_tables() {
    let cfg = MachineConfig::scaled(32, DesignPoint::cohesion(1024, 128));
    let mut a = Microbench::producer_consumer(8, 32);
    let mut b = Microbench::transition_bridge(8, 32);
    let mut c = Microbench::atomic_counters(8, 8);
    let mut d = Microbench::thread_migration(8, 16);
    let reports = run_workloads(&cfg, vec![&mut a, &mut b, &mut c, &mut d]).expect("all verify");
    assert_eq!(reports.len(), 4);
    // The bridge job performed transitions against *its own* table without
    // disturbing the others (all four verified inside run_workloads).
    assert!(reports[1].finished_at > 0);
}

#[test]
fn single_job_multi_matches_the_plain_runner_semantics() {
    // One engine: a one-job multiprogrammed run is the plain run.
    for dp in [
        DesignPoint::swcc(),
        DesignPoint::hwcc_real(1024, 128),
        DesignPoint::cohesion(1024, 128),
    ] {
        let cfg = MachineConfig::scaled(16, dp);
        for kernel in KERNEL_NAMES {
            let mut wl = kernel_by_name(kernel, Scale::Tiny);
            let multi = run_workloads(&cfg, vec![wl.as_mut()]).expect("verifies");
            let mut wl2 = kernel_by_name(kernel, Scale::Tiny);
            let single = run_workload(&cfg, wl2.as_mut()).expect("verifies");
            let job = &multi[0];
            let what = format!("{kernel} under {dp:?}");
            assert_eq!(job.finished_at, single.cycles, "{what}: cycles");
            assert_eq!(job.phases, single.phases, "{what}: phases");
            assert_eq!(job.tasks, single.tasks, "{what}: tasks");
            assert_eq!(job.messages, single.messages, "{what}: messages");
            assert_eq!(job.instr_stats, single.instr_stats, "{what}: instr_stats");
        }
    }
}

#[test]
fn multiprogrammed_runs_do_not_depend_on_shards() {
    // Every field of every job's report, at 1, 2 and 4 host threads.
    let run = |shards| {
        let mut cfg = MachineConfig::scaled(32, DesignPoint::cohesion(1024, 128));
        cfg.shards = shards;
        let mut a = kernel_by_name("heat", Scale::Tiny);
        let mut b = kernel_by_name("kmeans", Scale::Tiny);
        let reports = run_workloads(&cfg, vec![a.as_mut(), b.as_mut()]).expect("verifies");
        format!("{reports:?}")
    };
    let one = run(1);
    for shards in [2, 4] {
        assert_eq!(run(shards), one, "shards = {shards}");
    }
}

#[test]
fn invariants_hold_under_multiprogramming() {
    for model in [TaskQueueModel::Global, TaskQueueModel::PerClusterStealing] {
        let mut cfg = MachineConfig::scaled(32, DesignPoint::cohesion(512, 128));
        cfg.check_invariants = true;
        cfg.task_queue = model;
        let mut a = kernel_by_name("dmm", Scale::Tiny);
        let mut b = kernel_by_name("stencil", Scale::Tiny);
        run_workloads(&cfg, vec![a.as_mut(), b.as_mut()])
            .unwrap_or_else(|e| panic!("{model:?}: {e}"));
    }
}

#[test]
fn contention_shows_up_in_finish_times() {
    // A job sharing the machine finishes no earlier than... actually just
    // sanity: both jobs make progress and the slower kernel finishes later
    // than the trivial one.
    let cfg = MachineConfig::scaled(32, DesignPoint::swcc());
    let mut big = kernel_by_name("heat", Scale::Tiny);
    let mut small = Microbench::read_shared(4, 16);
    let reports = run_workloads(&cfg, vec![big.as_mut(), &mut small]).expect("verifies");
    assert!(
        reports[0].finished_at > reports[1].finished_at,
        "heat ({}) outlasts a 4-task microbench ({})",
        reports[0].finished_at,
        reports[1].finished_at
    );
}

#[test]
#[should_panic(expected = "at least one cluster per job")]
fn more_jobs_than_clusters_is_rejected() {
    let cfg = MachineConfig::scaled(16, DesignPoint::swcc()); // 2 clusters
    let mut a = Microbench::read_shared(2, 8);
    let mut b = Microbench::read_shared(2, 8);
    let mut c = Microbench::read_shared(2, 8);
    let _ = run_workloads(&cfg, vec![&mut a, &mut b, &mut c]);
}

#[test]
#[should_panic(expected = "must not overlap")]
fn overlapping_process_slices_are_rejected() {
    use cohesion::machine::Machine;
    use cohesion_runtime::layout::{Layout, LayoutConfig};
    let l0 = Layout::new(&LayoutConfig::new(16));
    let mut cfg1 = LayoutConfig::new(16);
    cfg1.fine_table_base += 1 << 24; // distinct table, same slice
    let l1 = Layout::new(&cfg1);
    let _ = Machine::new_multi(MachineConfig::scaled(16, DesignPoint::swcc()), vec![l0, l1]);
}

#[test]
#[should_panic(expected = "distinct fine-grain tables")]
fn shared_fine_tables_are_rejected() {
    use cohesion::machine::Machine;
    use cohesion_runtime::layout::LayoutConfig;
    use cohesion_runtime::layout::Layout;
    let l0 = Layout::new(&LayoutConfig::for_process(0, 16));
    let mut cfg1 = LayoutConfig::for_process(1, 16);
    cfg1.fine_table_base = LayoutConfig::for_process(0, 16).fine_table_base;
    let l1 = Layout::new(&cfg1);
    let _ = Machine::new_multi(MachineConfig::scaled(16, DesignPoint::swcc()), vec![l0, l1]);
}
