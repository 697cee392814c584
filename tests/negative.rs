//! Negative tests: the verification machinery must *catch* coherence
//! misuse, not paper over it. A checker that never fires is no checker.

use cohesion::config::{DesignPoint, MachineConfig};
use cohesion::run::{run_workload, RunError, Workload};
use cohesion_mem::addr::Addr;
use cohesion_mem::mainmem::MainMemory;
use cohesion_runtime::api::{CohesionApi, RuntimeError};
use cohesion_runtime::task::{Phase, TaskBuilder};

/// A buggy SWcc program: phase 1 writes a block but *forgets to flush*;
/// phase 2 reads it from another task. Under SWcc the consumer must see
/// stale data (the writes are stuck dirty in the producer's L2) — the
/// verified load fails. Under HWcc the directory pulls the dirty line and
/// the same program is correct (exactly the porting-convenience argument of
/// §2.2).
struct MissingFlush {
    data: Addr,
    words: u32,
    phase: u32,
}

impl MissingFlush {
    fn new(words: u32) -> Self {
        MissingFlush {
            data: Addr(0),
            words,
            phase: 0,
        }
    }
}

impl Workload for MissingFlush {
    fn name(&self) -> &'static str {
        "missing-flush"
    }

    fn setup(
        &mut self,
        api: &mut CohesionApi,
        _golden: &mut MainMemory,
    ) -> Result<(), RuntimeError> {
        self.data = api.coh_malloc(self.words * 4)?;
        Ok(())
    }

    fn next_phase(&mut self, _api: &mut CohesionApi, golden: &mut MainMemory) -> Option<Phase> {
        let phase = self.phase;
        self.phase += 1;
        match phase {
            0 => {
                let mut p = Phase::new("produce-without-flush");
                let mut b = TaskBuilder::new(2);
                for i in 0..self.words {
                    let a = Addr(self.data.0 + 4 * i);
                    golden.write_word(a, i + 1);
                    b.store(a, i + 1);
                }
                // BUG: no flush_written() — dirty words never reach the L3.
                p.tasks.push(b.build());
                Some(p)
            }
            1 => {
                let mut p = Phase::new("consume");
                // Enough tasks that one lands on a different cluster than
                // the producer (which ran on cluster 0's first free core).
                for _ in 0..16 {
                    let mut b = TaskBuilder::new(2);
                    for i in 0..self.words {
                        let a = Addr(self.data.0 + 4 * i);
                        b.load(a, golden.read_word(a));
                    }
                    b.invalidate_read(|_| true);
                    p.tasks.push(b.build());
                }
                Some(p)
            }
            _ => None,
        }
    }

    fn verify(&self, mem: &MainMemory) -> Result<(), String> {
        for i in 0..self.words {
            let got = mem.read_word(Addr(self.data.0 + 4 * i));
            if got != i + 1 {
                return Err(format!("word {i} is {got}, expected {}", i + 1));
            }
        }
        Ok(())
    }
}

#[test]
fn missing_flush_is_caught_under_swcc() {
    let cfg = MachineConfig::scaled(32, DesignPoint::swcc());
    let err = run_workload(&cfg, &mut MissingFlush::new(64)).unwrap_err();
    let RunError::Machine { site: Some(site), .. } = &err else {
        panic!("the stale verified load must abort the run at a core's operation, got: {err}");
    };
    // The message says where: the core, its task and op, and the cycle.
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("{} task ", site.core)) && msg.contains(&format!(" at cycle {}", site.cycle)),
        "{msg}"
    );
}

#[test]
fn same_program_is_correct_under_hwcc() {
    // §2.2: "Shared memory applications can be ported to a HWcc design
    // without a full rewrite" — the directory pulls the un-flushed data.
    let cfg = MachineConfig::scaled(32, DesignPoint::hwcc_ideal());
    run_workload(&cfg, &mut MissingFlush::new(64)).expect("HWcc forgives the missing flush");
}

#[test]
fn same_program_is_correct_under_cohesion_after_hwcc_migration() {
    // And the hybrid fix: move the region to HWcc before consuming.
    struct Fixed(MissingFlush);
    impl Workload for Fixed {
        fn name(&self) -> &'static str {
            "missing-flush-fixed"
        }
        fn setup(
            &mut self,
            api: &mut CohesionApi,
            golden: &mut MainMemory,
        ) -> Result<(), RuntimeError> {
            self.0.setup(api, golden)
        }
        fn next_phase(&mut self, api: &mut CohesionApi, golden: &mut MainMemory) -> Option<Phase> {
            // Before the producing phase, move the block under hardware
            // coherence; the un-flushed writes are then directory-visible.
            if self.0.phase == 0 {
                api.coh_hwcc_region(self.0.data, self.0.words * 4)
                    .expect("valid region");
            }
            self.0.next_phase(api, golden)
        }
        fn verify(&self, mem: &MainMemory) -> Result<(), String> {
            self.0.verify(mem)
        }
    }
    let cfg = MachineConfig::scaled(32, DesignPoint::cohesion(1024, 128));
    run_workload(&cfg, &mut Fixed(MissingFlush::new(64)))
        .expect("coh_HWcc_region makes the sloppy program correct");
}

#[test]
fn allocation_failure_is_reported() {
    struct Hog;
    impl Workload for Hog {
        fn name(&self) -> &'static str {
            "hog"
        }
        fn setup(
            &mut self,
            api: &mut CohesionApi,
            _golden: &mut MainMemory,
        ) -> Result<(), RuntimeError> {
            // More than the incoherent heap holds.
            api.coh_malloc(u32::MAX / 2).map(|_| ())
        }
        fn next_phase(&mut self, _: &mut CohesionApi, _: &mut MainMemory) -> Option<Phase> {
            None
        }
        fn verify(&self, _: &MainMemory) -> Result<(), String> {
            Ok(())
        }
    }
    let cfg = MachineConfig::scaled(16, DesignPoint::swcc());
    let err = run_workload(&cfg, &mut Hog).unwrap_err();
    assert!(matches!(err, RunError::Runtime(_)), "got: {err}");
}
