//! The metric catalog: every number the benchmark reports, its unit, and
//! the direction in which it improves.
//!
//! `BENCHMARK.json` at the repository root lists the end-to-end and
//! per-layer entries of this table with the same names, units and
//! directions; a unit test keeps the two in step. README.md gives each
//! metric's definition and the end-to-end metric each layer should move.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughputs, hit rates).
    Higher,
    /// Smaller is better (latencies, times, costs).
    Lower,
}

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Measured with every in-program recorder off; reported by every
    /// workload and bounded against regression.
    EndToEnd,
    /// One layer's share of the work; reported by `--trace` runs.
    Layer,
    /// End-to-end figures that are not bounded: the request sample count
    /// behind the latency figures, the simulator's throughput (simulator
    /// workloads only) and the failure share; printed and kept in result
    /// files.
    Extra,
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Reporting class.
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind,
    }
}

use Better::{Higher as H, Lower as L};
use Kind::{EndToEnd as E, Extra as X, Layer as Y};

/// Every metric, end-to-end first.
pub const CATALOG: &[Metric] = &[
    m("req_per_s", "1/s", H, E),
    m("req_p50_ms", "ms", L, E),
    m("req_tail_ms", "ms", L, E),
    m("setup_s", "s", L, E),
    m("peak_rss_mb", "MiB", L, E),
    m("req_samples", "count", H, X),
    m("sim_mops", "Mop/s", H, X),
    m("failed_frac", "ratio", L, X),
    m("kernels.setup_s", "s", L, Y),
    m("kernels.next_phase_s", "s", L, Y),
    m("kernels.verify_s", "s", L, Y),
    m("kernels.share", "ratio", L, Y),
    m("run.wall_s", "s", L, Y),
    m("run.self_s", "s", L, Y),
    m("run.setup_prefix_s", "s", L, Y),
    m("run.phase_a_lane_s", "s", L, Y),
    m("run.phase_b_s", "s", L, Y),
    m("run.epochs", "count", L, Y),
    m("run.slices", "count", L, Y),
    m("run.escalation_rate", "ratio", L, Y),
    m("run.esc.l3-local", "count", L, Y),
    m("run.esc.l3-remote", "count", L, Y),
    m("run.esc.directory", "count", L, Y),
    m("run.esc.noc", "count", L, Y),
    m("run.esc.atomic", "count", L, Y),
    m("run.esc.task-queue", "count", L, Y),
    m("run.l3_fast", "count", H, Y),
    m("run.trace_coverage", "ratio", H, Y),
    m("run.dropped_spans", "count", L, Y),
    m("machine.l3_service_s", "s", L, Y),
    m("machine.dram_service_s", "s", L, Y),
    m("crew.park_s", "s", L, Y),
    m("crew.run_s", "s", L, Y),
    m("crew.busy_frac", "ratio", H, Y),
    m("crew.speedup_shards", "ratio", H, Y),
    m("pool.busy_frac", "ratio", H, Y),
    m("sim.cycles", "count", L, Y),
    m("sim.ops", "count", H, Y),
    m("sim.events", "count", L, Y),
    m("mem.l2_hit_rate", "ratio", H, Y),
    m("mem.l3_hit_rate", "ratio", H, Y),
    m("mem.dram_row_hit_rate", "ratio", H, Y),
    m("noc.requests", "count", L, Y),
    m("protocol.dir_evictions", "count", L, Y),
    m("protocol.transitions", "count", L, Y),
    m("mem.cache_hit_ns", "ns", L, Y),
    m("mem.cache_alloc_evict_ns", "ns", L, Y),
    m("mem.dram_access_ns", "ns", L, Y),
    m("protocol.dir_lookup_ns", "ns", L, Y),
    m("protocol.dir_insert_evict_ns", "ns", L, Y),
    m("protocol.fine_domain_ns", "ns", L, Y),
    m("sim.event_schedule_pop_ns", "ns", L, Y),
    m("sim.slot_reserve_ns", "ns", L, Y),
    m("sim.metrics_add_ns", "ns", L, Y),
    m("service.hit_p50_ms", "ms", L, Y),
    m("service.hit_p99_ms", "ms", L, Y),
    m("service.miss_p50_ms", "ms", L, Y),
    m("service.miss_p99_ms", "ms", L, Y),
    m("service.execute_p50_ms", "ms", L, Y),
    m("service.execute_disarmed_p50_ms", "ms", L, Y),
    m("service.cache_insert_ms", "ms", L, Y),
    m("service.cache_reload_s", "s", L, Y),
    m("service.handshake_ms", "ms", L, Y),
    m("service.hit_ratio", "ratio", H, Y),
    m("service.daemon_errors", "count", L, Y),
    m("trace.overhead", "ratio", L, Y),
];

/// The catalog entry for `name`.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    CATALOG.iter().find(|m| m.name == name)
}

/// The names of one reporting class, in catalog order.
pub fn names(kind: Kind) -> impl Iterator<Item = &'static str> {
    CATALOG
        .iter()
        .filter(move |m| m.kind == kind)
        .map(|m| m.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_bench::jsonv::{self, Value};

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|e| {
                let field = |f: &str| e.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn expected(kind: Kind) -> Vec<(String, String, String)> {
        CATALOG
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| {
                let better = match m.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                (m.name.into(), m.unit.into(), better.into())
            })
            .collect()
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = CATALOG.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOG.len());
    }

    /// `BENCHMARK.json` lists exactly the end-to-end and per-layer
    /// entries of the catalog, in catalog order; `setup_s` carries the
    /// largest bound.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = jsonv::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), expected(Kind::EndToEnd));
        assert_eq!(listed(&doc, "per_layer"), expected(Kind::Layer));
        let bounds: Vec<(String, f64)> = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end list")
            .iter()
            .map(|e| {
                let name = e.get("name").and_then(Value::as_str).expect("name");
                (
                    name.to_string(),
                    e.get("bound").and_then(Value::as_f64).expect("bound"),
                )
            })
            .collect();
        let setup = bounds
            .iter()
            .find(|(n, _)| n == "setup_s")
            .expect("setup_s")
            .1;
        assert!(
            bounds
                .iter()
                .all(|(_, b)| *b <= setup && *b > 0.0 && *b <= 0.25),
            "{bounds:?}"
        );
    }
}
