//! Microbenchmarks of the simulator's hot structures (on the first-party
//! `cohesion-testkit` wall-clock harness; `harness = false`).

use cohesion_mem::addr::{Addr, AddressMap, LineAddr};
use cohesion_mem::cache::{Cache, CacheConfig};
use cohesion_mem::dram::{Dram, DramConfig};
use cohesion_mem::mainmem::MainMemory;
use cohesion_protocol::directory::{DirEntry, DirectoryBank, DirectoryConfig, EntryClass};
use cohesion_protocol::region::FineTable;
use cohesion_protocol::sharers::SharerTracking;
use cohesion_sim::ids::ClusterId;
use cohesion_testkit::bench::Harness;
use std::hint::black_box;

fn bench_cache(h: &mut Harness) {
    h.bench("l2_cache_hit_access", |b| {
        let mut cache = Cache::new(CacheConfig::new(64 * 1024, 16));
        for i in 0..2048 {
            cache.allocate(LineAddr(i));
        }
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 97) % 2048;
            black_box(cache.access(LineAddr(i)).is_some())
        });
    });

    h.bench("l2_cache_miss_allocate_evict", |b| {
        let mut cache = Cache::new(CacheConfig::new(64 * 1024, 16));
        let mut i = 0u32;
        b.iter(|| {
            i += 1;
            if cache.peek(LineAddr(i)).is_none() {
                let (_, victim) = cache.allocate(LineAddr(i));
                black_box(victim);
            }
        });
    });
}

fn bench_directory(h: &mut Harness) {
    h.bench("directory_lookup_hit", |b| {
        let mut dir = DirectoryBank::new(DirectoryConfig::realistic(128));
        for i in 0..8192 {
            dir.insert(
                i as u64,
                LineAddr(i),
                DirEntry::shared(ClusterId(0), SharerTracking::FullMap, 128, EntryClass::HeapGlobal),
            );
        }
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 131) % 8192;
            black_box(dir.lookup(LineAddr(i)).is_some())
        });
    });

    h.bench("directory_insert_with_conflict_eviction", |b| {
        let mut dir = DirectoryBank::new(DirectoryConfig {
            capacity: cohesion_protocol::directory::DirCapacity::Finite {
                entries: 1024,
                ways: 128,
            },
            tracking: SharerTracking::FullMap,
            clusters: 128,
        });
        let mut i = 0u32;
        let mut now = 0u64;
        b.iter(|| {
            i += 1;
            now += 1;
            if dir.peek(LineAddr(i)).is_none() {
                black_box(dir.insert(
                    now,
                    LineAddr(i),
                    DirEntry::shared(
                        ClusterId(0),
                        SharerTracking::FullMap,
                        128,
                        EntryClass::HeapGlobal,
                    ),
                ));
            }
        });
    });
}

fn bench_fine_table(h: &mut Harness) {
    h.bench("fine_table_slot_of", |b| {
        let t = FineTable::new(Addr(0xF000_0000), AddressMap::isca2010());
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(2_654_435_761) % (1 << 27);
            black_box(t.slot_of(LineAddr(i)))
        });
    });

    h.bench("fine_table_domain_lookup", |b| {
        let t = FineTable::new(Addr(0xF000_0000), AddressMap::isca2010());
        let mem = MainMemory::new();
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(97) % (1 << 20);
            black_box(t.domain(&mem, LineAddr(i)))
        });
    });
}

fn bench_dram(h: &mut Harness) {
    h.bench("dram_access_streaming", |b| {
        let mut dram = Dram::new(DramConfig::gddr5(), AddressMap::isca2010());
        let mut i = 0u32;
        let mut t = 0u64;
        b.iter(|| {
            i += 1;
            t += 4;
            black_box(dram.access(t, LineAddr(i)))
        });
    });
}

fn bench_slots(h: &mut Harness) {
    use cohesion_sim::slots::SlotReserver;
    h.bench("slot_reserver_in_order", |b| {
        let mut r = SlotReserver::new(0, 2);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(r.reserve(t))
        });
    });
    h.bench("slot_reserver_out_of_order", |b| {
        let mut r = SlotReserver::new(0, 1);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let t = if i.is_multiple_of(3) { i + 500 } else { i };
            black_box(r.reserve(t))
        });
    });
}

fn bench_end_to_end(h: &mut Harness) {
    use cohesion::config::{DesignPoint, MachineConfig};
    use cohesion::run::run_workload;
    use cohesion::workloads::micro::Microbench;
    let mut g = h.group("end_to_end").sample_size(10);
    g.bench("producer_consumer_16c", |b| {
        b.iter(|| {
            let cfg = MachineConfig::scaled(16, DesignPoint::cohesion(1024, 128));
            let mut wl = Microbench::producer_consumer(16, 32);
            black_box(run_workload(&cfg, &mut wl).expect("runs").cycles)
        })
    });
    g.finish();
}

fn main() {
    let mut h = Harness::new("components");
    bench_cache(&mut h);
    bench_directory(&mut h);
    bench_fine_table(&mut h);
    bench_dram(&mut h);
    bench_slots(&mut h);
    bench_end_to_end(&mut h);
    h.finish();
}
