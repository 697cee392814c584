#![warn(missing_docs)]

//! # Cohesion — a hybrid memory model for accelerators
//!
//! A from-scratch reproduction of *Cohesion: A Hybrid Memory Model for
//! Accelerators* (Kelm, Johnson, Tuohy, Lumetta, Patel — ISCA 2010): a
//! 1024-core hierarchically-cached accelerator whose single address space is
//! split, dynamically and at cache-line granularity, between a
//! directory-based hardware coherence protocol (HWcc) and a software-managed
//! protocol with explicit flush/invalidate instructions (SWcc) — without
//! copies and without multiple address spaces.
//!
//! This crate assembles the full machine from the substrate crates and
//! exposes the top-level API:
//!
//! * [`config::MachineConfig`] — the Table 3 machine and scaled variants;
//!   [`config::DesignPoint`] — the evaluated configurations (SWcc,
//!   optimistic/realistic/limited HWcc, Cohesion).
//! * [`machine::Machine`] — the simulated hardware: per-core L1s, per-cluster
//!   L2s with per-word dirty bits and the incoherent bit, the tree+crossbar
//!   interconnect, L3 banks with collocated directory slices, the coarse and
//!   fine-grain region tables, and the Figure 7 transition engine.
//! * [`run::run_workload`] / [`run::Workload`] — executes a
//!   barrier-synchronized task-queue program and verifies its memory image
//!   against a golden functional result.
//! * [`report::RunReport`] — the statistics each figure of the paper is
//!   rebuilt from.
//!
//! # Example
//!
//! ```
//! use cohesion::config::{DesignPoint, MachineConfig};
//! use cohesion::run::run_workload;
//! use cohesion::workloads::micro::Microbench;
//!
//! // A small Cohesion machine running a microbenchmark under SWcc.
//! let cfg = MachineConfig::scaled(16, DesignPoint::swcc());
//! let report = run_workload(&cfg, &mut Microbench::read_shared(4, 64)).expect("runs");
//! assert!(report.cycles > 0);
//! assert!(report.total_messages() > 0);
//! ```

mod access;
pub mod adaptive;
pub mod config;
pub mod machine;
pub mod multi;
pub mod noc;
pub mod profile;
pub mod report;
pub mod run;
pub mod workloads;

pub use config::{DesignPoint, DirectoryVariant, MachineConfig};
pub use machine::{Machine, MachineError};
pub use report::RunReport;
pub use multi::{run_workloads, JobReport};
pub use run::{run_workload, RunError, Workload};

#[cfg(test)]
mod send_sync_tests {
    //! C-SEND-SYNC: the simulator's types are plain owned data, so whole
    //! machines can move across threads (parallel experiment sweeps).
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn machine_and_reports_are_send_sync() {
        assert_send::<crate::machine::Machine>();
        assert_sync::<crate::machine::Machine>();
        assert_send::<crate::report::RunReport>();
        assert_sync::<crate::report::RunReport>();
        assert_send::<crate::config::MachineConfig>();
        assert_send::<crate::multi::JobReport>();
        assert_send::<crate::adaptive::AdaptiveRemapper>();
        assert_send::<crate::profile::RegionFeedback>();
    }
}
