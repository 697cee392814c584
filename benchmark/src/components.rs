//! Component probes: nanoseconds per operation of the simulator's hot
//! structures, from direct calls to their public functions in the same
//! shapes as `crates/bench/benches/components.rs`.

use std::hint::black_box;
use std::time::Instant;

use cohesion_mem::addr::{Addr, AddressMap, LineAddr};
use cohesion_mem::cache::{Cache, CacheConfig};
use cohesion_mem::dram::{Dram, DramConfig};
use cohesion_mem::mainmem::MainMemory;
use cohesion_protocol::directory::{
    DirCapacity, DirEntry, DirectoryBank, DirectoryConfig, EntryClass,
};
use cohesion_protocol::region::FineTable;
use cohesion_protocol::sharers::SharerTracking;
use cohesion_sim::event::EventQueue;
use cohesion_sim::ids::ClusterId;
use cohesion_sim::metrics::Registry;
use cohesion_sim::slots::SlotReserver;

use crate::stats::median;
use crate::Metrics;

/// Operations per timed sample.
const OPS: u32 = 100_000;
/// Timed samples per probe; the median is reported.
const SAMPLES: usize = 7;

/// Median nanoseconds per call of `op` over [`SAMPLES`] samples of
/// [`OPS`] calls each.
fn ns_per_op(mut op: impl FnMut(u32) -> u64) -> f64 {
    let mut samples = Vec::with_capacity(SAMPLES);
    let mut i = 0u32;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..OPS {
            i = i.wrapping_add(1);
            black_box(op(i));
        }
        samples.push(t.elapsed().as_nanos() as f64 / OPS as f64);
    }
    median(&samples).unwrap_or(0.0)
}

fn shared_entry() -> DirEntry {
    DirEntry::shared(
        ClusterId(0),
        SharerTracking::FullMap,
        128,
        EntryClass::HeapGlobal,
    )
}

/// Runs every probe and appends its `*_ns` metric.
pub fn measure(metrics: &mut Metrics) {
    let mut cache = Cache::new(CacheConfig::new(64 * 1024, 16));
    for i in 0..2048 {
        cache.allocate(LineAddr(i));
    }
    metrics.push((
        "mem.cache_hit_ns",
        ns_per_op(|i| cache.access(LineAddr(i.wrapping_mul(97) % 2048)).is_some() as u64),
    ));

    let mut cache = Cache::new(CacheConfig::new(64 * 1024, 16));
    metrics.push((
        "mem.cache_alloc_evict_ns",
        ns_per_op(|i| cache.allocate(LineAddr(i)).1.is_some() as u64),
    ));

    let mut dram = Dram::new(DramConfig::gddr5(), AddressMap::isca2010());
    metrics.push((
        "mem.dram_access_ns",
        ns_per_op(|i| dram.access(4 * u64::from(i), LineAddr(i))),
    ));

    let mut dir = DirectoryBank::new(DirectoryConfig::realistic(128));
    for i in 0..8192 {
        dir.insert(u64::from(i), LineAddr(i), shared_entry());
    }
    metrics.push((
        "protocol.dir_lookup_ns",
        ns_per_op(|i| dir.lookup(LineAddr(i.wrapping_mul(131) % 8192)).is_some() as u64),
    ));

    let mut dir = DirectoryBank::new(DirectoryConfig {
        capacity: DirCapacity::Finite {
            entries: 1024,
            ways: 128,
        },
        tracking: SharerTracking::FullMap,
        clusters: 128,
    });
    metrics.push((
        "protocol.dir_insert_evict_ns",
        ns_per_op(|i| {
            dir.insert(u64::from(i), LineAddr(i), shared_entry())
                .is_some() as u64
        }),
    ));

    let table = FineTable::new(Addr(0xF000_0000), AddressMap::isca2010());
    let mem = MainMemory::new();
    metrics.push((
        "protocol.fine_domain_ns",
        ns_per_op(|i| table.domain(&mem, LineAddr(i.wrapping_mul(97) % (1 << 20))) as u64),
    ));

    // A steady 64-event backlog, as a core-stepping loop keeps one.
    let mut queue: EventQueue<u32> = EventQueue::new();
    for c in 0..64 {
        queue.schedule(c, c as u32);
    }
    metrics.push((
        "sim.event_schedule_pop_ns",
        ns_per_op(|i| {
            let (at, core) = queue.pop().expect("backlog never drains");
            queue.schedule(at + 64 + u64::from(i % 7), core);
            at
        }),
    ));

    let mut slots = SlotReserver::new(0, 2);
    metrics.push((
        "sim.slot_reserve_ns",
        ns_per_op(|i| slots.reserve(u64::from(i))),
    ));

    // An armed registry taking adds across as many counters as a run keeps.
    const NAMES: [&str; 16] = [
        "messages",
        "transitions",
        "events/scheduled",
        "events/max_pending",
        "table/fine_lookups",
        "table/fine_cache_hits",
        "table/coarse_hits",
        "dram/accesses",
        "dram/row_hits",
        "noc/requests_sent",
        "noc/replies_sent",
        "swcc/writebacks_issued",
        "swcc/writebacks_useful",
        "swcc/invalidations_issued",
        "swcc/invalidations_useful",
        "races/detected",
    ];
    let mut registry = Registry::armed(10_000);
    metrics.push((
        "sim.metrics_add_ns",
        ns_per_op(|i| {
            registry.add(NAMES[(i % 16) as usize], 1);
            u64::from(i)
        }),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_time() {
        let mut m = Metrics::new();
        measure(&mut m);
        assert_eq!(m.len(), 9);
        for (name, v) in &m {
            assert!(name.ends_with("_ns"), "{name}");
            assert!(*v > 0.0 && v.is_finite(), "{name} = {v}");
        }
    }
}
