//! Machine configuration (Table 3) and the evaluated design points (§4.1).

use cohesion_mem::addr::{AddressMap, LineAddr};
use cohesion_mem::cache::CacheConfig;
use cohesion_mem::dram::DramConfig;
use cohesion_protocol::directory::{DirCapacity, DirectoryConfig};
use cohesion_protocol::sharers::SharerTracking;
use cohesion_runtime::api::CohMode;
use cohesion_sim::Cycle;

/// Directory hardware variants evaluated in §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectoryVariant {
    /// No directory at all (the SWcc design point).
    None,
    /// Full-map, unbounded, fully associative — the optimistic `HWccIdeal`
    /// bound ("zero cost access", no conflicts; §4.1).
    FullMapInfinite,
    /// Full-map sparse directory, `entries` per bank, `ways`-way set
    /// associative (the realistic configuration is 16K × 128-way).
    Sparse {
        /// Entries per L3 bank.
        entries: u32,
        /// Ways per set.
        ways: u32,
    },
    /// Limited four-pointer `Dir4B` sparse directory (broadcast on
    /// overflow), `entries` per bank, `ways`-way.
    Dir4B {
        /// Entries per L3 bank.
        entries: u32,
        /// Ways per set.
        ways: u32,
    },
    /// Fully-associative directory of exactly `entries` entries per bank —
    /// the Figure 9 capacity-sweep points.
    FullyAssociative {
        /// Entries per L3 bank.
        entries: u32,
    },
}

impl DirectoryVariant {
    /// Builds the per-bank [`DirectoryConfig`], or `None` for the SWcc
    /// design point.
    pub fn to_config(self, clusters: u32) -> Option<DirectoryConfig> {
        match self {
            DirectoryVariant::None => None,
            DirectoryVariant::FullMapInfinite => Some(DirectoryConfig::optimistic(clusters)),
            DirectoryVariant::Sparse { entries, ways } => Some(DirectoryConfig {
                capacity: DirCapacity::Finite { entries, ways },
                tracking: SharerTracking::FullMap,
                clusters,
            }),
            DirectoryVariant::Dir4B { entries, ways } => Some(DirectoryConfig {
                capacity: DirCapacity::Finite { entries, ways },
                tracking: SharerTracking::dir4b(),
                clusters,
            }),
            DirectoryVariant::FullyAssociative { entries } => {
                Some(DirectoryConfig::fully_associative(entries, clusters))
            }
        }
    }
}

/// A named design point: software mode plus directory hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignPoint {
    /// Software memory-model mode.
    pub mode: CohMode,
    /// Directory hardware.
    pub directory: DirectoryVariant,
}

impl DesignPoint {
    /// Pure software coherence (no directory).
    pub fn swcc() -> Self {
        DesignPoint {
            mode: CohMode::SWcc,
            directory: DirectoryVariant::None,
        }
    }

    /// Optimistic hardware coherence: infinite full-map directory.
    pub fn hwcc_ideal() -> Self {
        DesignPoint {
            mode: CohMode::HWcc,
            directory: DirectoryVariant::FullMapInfinite,
        }
    }

    /// Realistic hardware coherence: `entries`×`ways` sparse full-map.
    pub fn hwcc_real(entries: u32, ways: u32) -> Self {
        DesignPoint {
            mode: CohMode::HWcc,
            directory: DirectoryVariant::Sparse { entries, ways },
        }
    }

    /// Hardware coherence with the limited `Dir4B` sparse directory.
    pub fn hwcc_dir4b(entries: u32, ways: u32) -> Self {
        DesignPoint {
            mode: CohMode::HWcc,
            directory: DirectoryVariant::Dir4B { entries, ways },
        }
    }

    /// Cohesion on the realistic sparse full-map directory ("the Cohesion
    /// configuration uses the same hardware as the realistic HWcc
    /// configurations", §4.1).
    pub fn cohesion(entries: u32, ways: u32) -> Self {
        DesignPoint {
            mode: CohMode::Cohesion,
            directory: DirectoryVariant::Sparse { entries, ways },
        }
    }

    /// Cohesion with the limited `Dir4B` directory.
    pub fn cohesion_dir4b(entries: u32, ways: u32) -> Self {
        DesignPoint {
            mode: CohMode::Cohesion,
            directory: DirectoryVariant::Dir4B { entries, ways },
        }
    }

    /// Cohesion with an infinite directory (Figure 9c's unbounded runs).
    pub fn cohesion_infinite() -> Self {
        DesignPoint {
            mode: CohMode::Cohesion,
            directory: DirectoryVariant::FullMapInfinite,
        }
    }
}

/// Interconnect latencies and widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Cluster ⇄ tree-leaf link latency.
    pub cluster_link_latency: Cycle,
    /// Tree-root ⇄ crossbar latency (the tree combines 16 clusters).
    pub tree_latency: Cycle,
    /// Crossbar ⇄ L3-bank latency.
    pub xbar_latency: Cycle,
    /// Clusters concentrated by one tree root.
    pub clusters_per_tree: u32,
    /// Messages per cycle on a tree-root link (the concentration point).
    pub tree_interval: Cycle,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            cluster_link_latency: 4,
            tree_latency: 6,
            xbar_latency: 6,
            clusters_per_tree: 16,
            tree_interval: 1,
        }
    }
}

/// The full machine configuration (Table 3 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of cores.
    pub cores: u32,
    /// Cores per cluster (8 in the paper); a power of two.
    pub cores_per_cluster: u32,
    /// L1 instruction cache geometry (2 KB, 2-way).
    pub l1i: CacheConfig,
    /// L1 data cache geometry (1 KB, 2-way).
    pub l1d: CacheConfig,
    /// Per-cluster L2 geometry (64 KB, 16-way).
    pub l2: CacheConfig,
    /// L2 access latency in cycles.
    pub l2_latency: Cycle,
    /// L2 ports (read/write per cycle).
    pub l2_ports: u32,
    /// Total L3 capacity in bytes (4 MB), divided over the banks.
    pub l3_total_bytes: u32,
    /// L3 associativity (8-way).
    pub l3_assoc: u32,
    /// Number of L3 banks (32).
    pub l3_banks: u32,
    /// L3 access latency in cycles ("16+").
    pub l3_latency: Cycle,
    /// L3 ports per bank.
    pub l3_ports: u32,
    /// DRAM channels (8).
    pub dram_channels: u32,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Interconnect parameters.
    pub noc: NocConfig,
    /// The design point under evaluation.
    pub design: DesignPoint,
    /// Fixed per-task runtime dequeue overhead (cycles of bookkeeping around
    /// the atomic dequeue; models the task-scheduling overhead that limits
    /// `gjk`, §4.5).
    pub dequeue_overhead: Cycle,
    /// Latency for the barrier-release broadcast after the last arrival.
    pub barrier_release_latency: Cycle,
    /// Abort the run if a case-5b SWcc race is detected (tests use this;
    /// experiments record races instead).
    pub fatal_races: bool,
    /// Bytes of dedicated fine-grain-table cache per L3 bank (0 = cache the
    /// table in the L3 itself, the paper's base design; §3.4 notes the
    /// dense table is "amenable to on-die caching" if L3 latency becomes a
    /// concern, which it does at scaled-down L3 capacities).
    pub table_cache_bytes: u32,
    /// Check the directory-inclusion invariants after every phase
    /// (O(cached lines); used by the test suite).
    pub check_invariants: bool,
    /// Use the on-die coarse-grain region table for code/constants/stacks
    /// (§3.4). When disabled — an ablation — those regions are marked SWcc
    /// in the fine-grain table instead, so every directory miss pays the
    /// fine-grain lookup.
    pub use_coarse_table: bool,
    /// Grant an MESI-style Exclusive state on unshared read misses
    /// (ablation). The paper's protocol is MSI: "an exclusive state is not
    /// used due to the high cost of exclusive to shared downgrades for
    /// read-shared data" (§3.2) — this flag lets that cost be measured.
    pub exclusive_state: bool,
    /// Drop clean HWcc lines silently instead of sending read releases
    /// (ablation). The directory's sharer sets go stale: invalidations
    /// probe caches that no longer hold the line and entries linger until
    /// capacity eviction — the §2.1/§3.2 discussion of why read releases
    /// exist, measurable.
    pub silent_evictions: bool,
    /// Maintain per-word dirty/valid bits (the paper's design; §2.1). When
    /// disabled — an ablation — SWcc store misses must fetch the line
    /// before writing (no fill-free write-allocate) and any multi-writer
    /// line is a race, since write sets cannot be distinguished below line
    /// granularity.
    pub word_granular_swcc: bool,
    /// How tasks are distributed to cores.
    pub task_queue: TaskQueueModel,
    /// Arm the machine-wide telemetry registry
    /// ([`cohesion_sim::metrics`]). Off by default: with metrics
    /// disarmed every recording call is an inlined early-return and the
    /// run's observable outputs are byte-identical to a build without
    /// the registry.
    pub metrics: bool,
    /// Arm the shard-epoch timeline flight recorder
    /// ([`cohesion_sim::timeline`]). Off by default: disarmed, every
    /// span-recording call is an inlined early-return and observable
    /// outputs are byte-identical to a build without the recorder.
    /// Armed, only wall-clock span fields vary run to run — the
    /// deterministic summary counters never depend on host threads.
    pub timeline: bool,
    /// The cache line whose protocol events the armed timeline records
    /// as typed instants ([`cohesion_sim::timeline::LineEvent`]), on the
    /// track of whichever phase ran the operation. Takes effect only
    /// with [`MachineConfig::timeline`] set, and never changes which
    /// code path runs. `None` (the default) watches nothing.
    pub watch: Option<LineAddr>,
    /// Worker threads sharding one run's execution (conservative PDES
    /// over cluster lanes). This is *host* parallelism only: simulated
    /// results are byte-identical at any shard count, so `shards` is
    /// excluded from service cache keys. `1` (the default) runs fully
    /// inline with no worker pool. `0` means **auto**: derive the count
    /// from the host's available parallelism at run time (see
    /// [`MachineConfig::resolve_shards`]). Values above the cluster
    /// count are clamped — a lane is the unit of parallel work.
    pub shards: u32,
    /// Service L2 misses homed on a lane-owned L3 bank inside phase A
    /// (the lane-owned-bank fast path). On by default. Turning it off
    /// makes the lane guard refuse every owned-bank line fetch (cause
    /// `l3-local`), so every L2 miss runs on the serial spine — the
    /// escalate-everything engine `prop_sim` uses as its reference.
    /// The BSP-level outcome is identical either way (phase
    /// count, tasks executed, operation totals, and the golden-checked
    /// computed answer — pinned by the `prop_sim` lane-ownership
    /// property test); cycle-level arbitration order is not, because
    /// owned-bank bookings interleave with the serial spine differently,
    /// and at multi-slot shapes that timing shift can butterfly into
    /// eviction-order differences (the same accepted drift class the
    /// sharded engine introduced vs. the pre-sharding serial machine).
    /// Within one setting of this flag,
    /// results remain byte-identical at every shard count. A host-side
    /// engine toggle, excluded from emitted documents and service cache
    /// keys.
    pub lane_owned_l3: bool,
}

/// Task-distribution models for the barrier-synchronized work queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaskQueueModel {
    /// One global queue word: every dequeue is an atomic to the same L3
    /// bank — simple, perfectly load-balanced, but a contention hotspot
    /// for fine-grained kernels like `gjk` (§4.5).
    #[default]
    Global,
    /// Per-cluster queues over a static block partition, with work
    /// stealing from other clusters once the local queue drains — the
    /// "children tasks scheduled on their parent, or stolen by another
    /// core" model §2.3 describes, where HWcc lets stolen tasks pull their
    /// data on demand. In a multiprogrammed run a cluster steals only
    /// from its own program's clusters.
    PerClusterStealing,
}

impl MachineConfig {
    /// The full Table 3 machine: 1024 cores, 128 clusters, 32 L3 banks,
    /// 8 GDDR5 channels, with `design` selecting the evaluated point.
    pub fn isca2010(design: DesignPoint) -> Self {
        MachineConfig {
            cores: 1024,
            cores_per_cluster: 8,
            l1i: CacheConfig::new(2 * 1024, 2),
            l1d: CacheConfig::new(1024, 2),
            l2: CacheConfig::new(64 * 1024, 16),
            l2_latency: 4,
            l2_ports: 2,
            l3_total_bytes: 4 * 1024 * 1024,
            l3_assoc: 8,
            l3_banks: 32,
            l3_latency: 16,
            l3_ports: 1,
            dram_channels: 8,
            dram: DramConfig::gddr5(),
            noc: NocConfig::default(),
            design,
            dequeue_overhead: 40,
            barrier_release_latency: 64,
            fatal_races: false,
            table_cache_bytes: 2048,
            check_invariants: false,
            use_coarse_table: true,
            exclusive_state: false,
            silent_evictions: false,
            word_granular_swcc: true,
            task_queue: TaskQueueModel::Global,
            metrics: false,
            timeline: false,
            watch: None,
            shards: 1,
            lane_owned_l3: true,
        }
    }

    /// A proportionally-scaled machine with `cores` cores, keeping the
    /// per-cluster, per-bank, and directory-pressure *ratios* of the full
    /// design (banks, channels, and L3 capacity scale with the cluster
    /// count) so normalized results keep their shape at laptop scale.
    ///
    /// # Panics
    ///
    /// Panics unless `cores` is a power-of-two multiple of 8, at least 16.
    pub fn scaled(cores: u32, design: DesignPoint) -> Self {
        assert!(cores >= 16 && cores.is_multiple_of(8), "need at least two clusters");
        let clusters = cores / 8;
        assert!(clusters.is_power_of_two(), "cluster count must be a power of two");
        let scale = (128 / clusters).max(1); // full machine : this machine
        let mut cfg = Self::isca2010(design);
        cfg.cores = cores;
        cfg.l3_banks = (32 / scale).max(2);
        cfg.dram_channels = (8 / scale).max(1).min(cfg.l3_banks);
        // The L3 keeps its full 4 MB: it is the chip's communication point
        // (§3.2), and shrinking it with the core count would distort the
        // SWcc/HWcc comparison (write-allocate fills and flush merges would
        // spill to DRAM far more often than in the paper's machine) much
        // more than the extra per-cluster share distorts anything else.
        // Per-bank directory sizes are *not* scaled: the bank count already
        // scales, so L2 lines per bank — and hence capacity pressure per
        // directory bank — is preserved automatically.
        cfg
    }

    /// Number of clusters.
    pub fn clusters(&self) -> u32 {
        self.cores / self.cores_per_cluster
    }

    /// The bank/channel interleaving for this machine.
    pub fn address_map(&self) -> AddressMap {
        AddressMap::new(self.l3_banks, self.dram_channels)
    }

    /// Per-bank L3 cache geometry (XOR-folded index, as is standard for
    /// last-level caches).
    pub fn l3_bank_cache(&self) -> CacheConfig {
        CacheConfig::hashed(self.l3_total_bytes / self.l3_banks, self.l3_assoc)
    }

    /// The realistic sparse directory size: 16K entries per bank (Table 3).
    /// Per-bank sizing is scale-invariant — the bank count scales with the
    /// machine, keeping L2 lines per directory bank constant.
    pub fn realistic_dir_entries(&self) -> u32 {
        16 * 1024
    }

    /// Resolves [`MachineConfig::shards`] to a concrete host thread count
    /// for this machine, given the host's available parallelism.
    ///
    /// `0` (auto) takes `host_threads` — one worker per hardware thread,
    /// on the observation that lane occupancy is what phase A scales
    /// with. Any value (explicit or auto) is clamped to `1..=clusters`:
    /// more threads than lanes cannot help, and a degenerate host report
    /// (`0`) still yields the inline engine. The resolved count steers
    /// *host* parallelism only — it must never appear in emitted
    /// documents or cache keys.
    pub fn resolve_shards(&self, host_threads: usize) -> usize {
        let n_lanes = self.clusters().max(1) as usize;
        let requested = if self.shards == 0 {
            host_threads
        } else {
            self.shards as usize
        };
        requested.max(1).min(n_lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values() {
        let c = MachineConfig::isca2010(DesignPoint::hwcc_ideal());
        assert_eq!(c.cores, 1024);
        assert_eq!(c.clusters(), 128);
        assert_eq!(c.l1i.size_bytes, 2048);
        assert_eq!(c.l1i.assoc, 2);
        assert_eq!(c.l1d.size_bytes, 1024);
        assert_eq!(c.l1d.assoc, 2);
        assert_eq!(c.l2.size_bytes, 64 * 1024);
        assert_eq!(c.l2.assoc, 16);
        assert_eq!(c.l2_latency, 4);
        assert_eq!(c.l2_ports, 2);
        assert_eq!(c.l3_total_bytes, 4 * 1024 * 1024);
        assert_eq!(c.l3_assoc, 8);
        assert_eq!(c.l3_banks, 32);
        assert_eq!(c.l3_latency, 16);
        assert_eq!(c.l3_ports, 1);
        assert_eq!(c.dram_channels, 8);
        assert_eq!(c.clusters() * c.l2.lines(), 256 * 1024, "256K L2 lines on-die");
        assert_eq!(c.realistic_dir_entries(), 16 * 1024);
    }

    #[test]
    fn scaled_preserves_pressure_ratios() {
        let full = MachineConfig::isca2010(DesignPoint::hwcc_real(16 * 1024, 128));
        let small = MachineConfig::scaled(128, DesignPoint::hwcc_real(16 * 1024, 128));
        // L2 lines per L3/directory bank must match (capacity pressure per
        // directory bank is what Figure 9 sweeps).
        let full_lines_per_bank = full.clusters() * full.l2.lines() / full.l3_banks;
        let small_lines_per_bank = small.clusters() * small.l2.lines() / small.l3_banks;
        assert_eq!(full_lines_per_bank, small_lines_per_bank);
        assert_eq!(small.clusters(), 16);
        assert_eq!(small.l3_banks, 4);
        assert_eq!(small.realistic_dir_entries(), full.realistic_dir_entries());
    }

    #[test]
    fn design_point_constructors() {
        assert_eq!(DesignPoint::swcc().directory, DirectoryVariant::None);
        assert!(DesignPoint::swcc().directory.to_config(8).is_none());
        let real = DesignPoint::hwcc_real(16384, 128).directory.to_config(128).expect("has dir");
        assert_eq!(
            real.capacity,
            DirCapacity::Finite {
                entries: 16384,
                ways: 128
            }
        );
        assert_eq!(real.tracking, SharerTracking::FullMap);
        let lim = DesignPoint::cohesion_dir4b(16384, 128)
            .directory
            .to_config(128)
            .expect("has dir");
        assert_eq!(lim.tracking, SharerTracking::dir4b());
        let sweep = DirectoryVariant::FullyAssociative { entries: 512 }
            .to_config(16)
            .expect("has dir");
        assert_eq!(
            sweep.capacity,
            DirCapacity::Finite {
                entries: 512,
                ways: 512
            }
        );
    }

    #[test]
    #[should_panic(expected = "two clusters")]
    fn tiny_scaled_config_rejected() {
        let _ = MachineConfig::scaled(8, DesignPoint::swcc());
    }

    #[test]
    fn resolve_shards_explicit_counts_clamp_to_lanes() {
        let cfg = MachineConfig::scaled(16, DesignPoint::swcc()); // 2 clusters
        let mut c = cfg;
        c.shards = 1;
        assert_eq!(c.resolve_shards(64), 1, "explicit 1 ignores the host");
        c.shards = 2;
        assert_eq!(c.resolve_shards(64), 2);
        c.shards = 999;
        assert_eq!(c.resolve_shards(64), 2, "clamped to the lane count");
    }

    #[test]
    fn resolve_shards_auto_tracks_host_parallelism() {
        let mut cfg = MachineConfig::scaled(128, DesignPoint::swcc()); // 16 clusters
        cfg.shards = 0;
        assert_eq!(cfg.resolve_shards(1), 1, "1-core host runs inline");
        assert_eq!(cfg.resolve_shards(8), 8);
        assert_eq!(cfg.resolve_shards(256), 16, "oversubscription clamps to lanes");
        assert_eq!(cfg.resolve_shards(0), 1, "degenerate host report still runs");
    }

    #[test]
    fn resolve_shards_auto_on_small_machines() {
        let mut cfg = MachineConfig::scaled(16, DesignPoint::swcc()); // 2 clusters
        cfg.shards = 0;
        assert_eq!(cfg.resolve_shards(32), 2, "tiny machine caps auto at 2 lanes");
    }
}
