//! Executing a validated [`RunRequest`] into its cacheable report.
//!
//! The report is the same `cohesion-metrics/v1` JSON document the figure
//! binaries write with `--metrics-out`, built from the same
//! [`cohesion_bench::harness`] pieces (config construction, run labels,
//! document renderer) — one run per document, telemetry always armed.
//! Because the simulator is deterministic, the document is a pure
//! function of the request, which is exactly what lets the cache serve
//! hits byte-identically.

use cohesion_bench::harness::{design_label, metrics_document, Options};
use cohesion_kernels::kernel_by_name_seeded;

use crate::request::RunRequest;

/// Runs the simulation for `req` (which must be validated) and renders
/// the single-run `cohesion-metrics/v1` document.
///
/// Unlike [`cohesion_bench::harness::run`], this never touches the
/// harness's global metrics sink — `cohesiond` serves many clients
/// concurrently and each job's snapshot must stay with its own request.
///
/// # Errors
///
/// A human-readable description of the failed run (invalid design point,
/// golden-verification mismatch, machine error).
pub fn execute(req: &RunRequest) -> Result<String, String> {
    let dp = req.design_point()?;
    let opts = Options {
        cores: req.cores,
        scale: req.scale,
        kernels: vec![req.kernel.clone()],
        jobs: 1,
        shards: req.shards,
        seed: req.seed,
        metrics_out: None,
        trace_out: None,
        watch: None,
    };
    let mut cfg = opts.config(dp);
    cfg.metrics = true;
    let mut wl = kernel_by_name_seeded(&req.kernel, req.scale, req.seed);
    let report = cohesion::run::run_workload(&cfg, wl.as_mut())
        .map_err(|e| format!("{} under {} failed: {e}", req.kernel, req.point))?;
    let snap = report
        .metrics
        .as_ref()
        .expect("metrics were armed")
        .to_json();
    let label = format!("{} @ {}", req.kernel, design_label(dp));
    Ok(metrics_document("cohesiond", &opts, &[(label, snap)]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_kernels::Scale;

    fn req(seed: u64) -> RunRequest {
        RunRequest {
            kernel: "sobel".into(),
            scale: Scale::Tiny,
            cores: 16,
            point: "swcc".into(),
            seed,
            shards: 1,
        }
    }

    #[test]
    fn execute_is_deterministic_and_seed_sensitive() {
        let a = execute(&req(0)).unwrap();
        let b = execute(&req(0)).unwrap();
        assert_eq!(a, b, "same request must produce byte-identical documents");
        let c = execute(&req(1)).unwrap();
        assert_ne!(a, c, "a different trace seed must change the simulation");
        assert!(a.contains("\"schema\": \"cohesion-metrics/v1\""));
        assert!(c.contains("\"seed\": 1"));
    }
}
