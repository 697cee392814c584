//! One workload's result, as a child process hands it to the parent and
//! as `run --out` stores it for `compare` and `calibrate`.

use cohesion_bench::jsonv::{self, Value};
use cohesion_service::wire::json_escape;

use crate::catalog;

/// Schema tag of a `run --out` document.
pub const SCHEMA: &str = "cohesion-benchmark/v1";

/// Everything one workload run measured and checked.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// The `--seed` the inputs were generated from.
    pub seed: u64,
    /// Whether per-layer metrics were measured (`--trace`).
    pub trace: bool,
    /// `std::thread::available_parallelism` of the host that ran it.
    pub host_threads: usize,
    /// Simulations or requests attempted.
    pub attempted: u64,
    /// Of which failed, errored or were refused.
    pub failed: u64,
    /// Every failed output check (the first few, verbatim); empty when
    /// the outputs are correct.
    pub errors: Vec<String>,
    /// `(name, value)` for every measured catalog metric.
    pub metrics: Vec<(String, f64)>,
    /// Hash of every result field of every simulation report, when the
    /// workload simulated a fixed job list.
    pub sim_digest: Option<String>,
}

impl WorkloadResult {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The value of metric `name`, if measured.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// One-line JSON form.
    pub fn to_json(&self) -> String {
        let errors: Vec<String> = self
            .errors
            .iter()
            .map(|e| format!("\"{}\"", json_escape(e)))
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v)| format!("\"{}\": {}", json_escape(n), number(*v)))
            .collect();
        let digest = match &self.sim_digest {
            Some(d) => format!("\"{}\"", json_escape(d)),
            None => "null".into(),
        };
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host_threads\": {}, \
             \"attempted\": {}, \"failed\": {}, \"errors\": [{}], \"metrics\": {{{}}}, \
             \"sim_digest\": {digest}}}",
            json_escape(&self.workload),
            self.seed,
            self.trace,
            self.host_threads,
            self.attempted,
            self.failed,
            errors.join(", "),
            metrics.join(", ")
        )
    }

    /// Parses [`WorkloadResult::to_json`] output.
    ///
    /// # Errors
    ///
    /// A description of the first missing or ill-typed field.
    pub fn from_json(v: &Value) -> Result<WorkloadResult, String> {
        let u64_field = |name: &str| {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("result field {name:?} is not a whole number"))
        };
        let metrics = v
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("result field \"metrics\" is not an object")?
            .iter()
            .map(|(n, x)| {
                x.as_f64()
                    .map(|f| (n.clone(), f))
                    .ok_or_else(|| format!("metric {n:?} is not a number"))
            })
            .collect::<Result<_, _>>()?;
        let errors = v
            .get("errors")
            .and_then(Value::as_arr)
            .ok_or("result field \"errors\" is not an array")?
            .iter()
            .map(|e| {
                e.as_str()
                    .map(str::to_string)
                    .ok_or("error entries must be strings")
            })
            .collect::<Result<_, _>>()?;
        Ok(WorkloadResult {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("result field \"workload\" is not a string")?
                .to_string(),
            seed: u64_field("seed")?,
            trace: v.get("trace") == Some(&Value::Bool(true)),
            host_threads: u64_field("host_threads")? as usize,
            attempted: u64_field("attempted")?,
            failed: u64_field("failed")?,
            errors,
            metrics,
            sim_digest: v
                .get("sim_digest")
                .and_then(Value::as_str)
                .map(str::to_string),
        })
    }
}

/// Renders a `run --out` document holding `results`.
pub fn document(results: &[WorkloadResult]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect();
    format!(
        "{{\"schema\": \"{SCHEMA}\", \"results\": [\n{}\n]}}\n",
        rows.join(",\n")
    )
}

/// Reads every result in the `run --out` document at `path`.
///
/// # Errors
///
/// Unreadable files, malformed JSON, or a foreign schema.
pub fn read_document(path: &str) -> Result<Vec<WorkloadResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = jsonv::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: schema is not {SCHEMA:?}"));
    }
    doc.get("results")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no results array"))?
        .iter()
        .map(|r| WorkloadResult::from_json(r).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// The summary line printed last: `correct`, `attempted`, `failed`, and
/// the catalog metrics of `kind` with their units. With several results
/// the metric names are prefixed `<workload>.` so they stay unique.
pub fn summary_line(results: &[WorkloadResult], kind: catalog::Kind) -> String {
    let prefix = results.len() > 1;
    let mut metrics = Vec::new();
    for r in results {
        for name in catalog::names(kind) {
            let Some(v) = r.metric(name) else { continue };
            let unit = catalog::lookup(name).map_or("", |m| m.unit);
            let key = if prefix {
                format!("{}.{name}", r.workload)
            } else {
                name.to_string()
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_escape(&key),
                number(v)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        results.iter().all(WorkloadResult::correct),
        results.iter().map(|r| r.attempted).sum::<u64>(),
        results.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (never produced by a healthy run) become 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadResult {
        WorkloadResult {
            workload: "sweep".into(),
            seed: 7,
            trace: true,
            host_threads: 2,
            attempted: 48,
            failed: 1,
            errors: vec!["cg under \"SWcc\" failed".into()],
            metrics: vec![("req_per_s".into(), 3.25), ("setup_s".into(), 0.1 + 0.2)],
            sim_digest: Some("00ff00ff00ff00ff".into()),
        }
    }

    #[test]
    fn result_json_round_trips() {
        let r = sample();
        let back = WorkloadResult::from_json(&jsonv::parse(&r.to_json()).unwrap()).unwrap();
        assert_eq!(back, r);
        let none = WorkloadResult {
            sim_digest: None,
            errors: vec![],
            ..sample()
        };
        let back = WorkloadResult::from_json(&jsonv::parse(&none.to_json()).unwrap()).unwrap();
        assert_eq!(back, none);
        assert!(back.correct());
    }

    #[test]
    fn document_round_trips_through_a_file() {
        let dir = crate::work_dir("result-test");
        let path = dir.join("out.json");
        std::fs::write(&path, document(&[sample(), sample()])).unwrap();
        let back = read_document(path.to_str().unwrap()).unwrap();
        assert_eq!(back, vec![sample(), sample()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summary_line_has_the_result_keys() {
        let line = summary_line(&[sample()], catalog::Kind::EndToEnd);
        let v = jsonv::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(48));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s")
                .and_then(|s| s.get("value"))
                .and_then(Value::as_f64),
            Some(0.1 + 0.2)
        );
        assert_eq!(
            m.get("req_per_s")
                .and_then(|s| s.get("unit"))
                .and_then(Value::as_str),
            Some("1/s")
        );
        let two = summary_line(&[sample(), sample()], catalog::Kind::EndToEnd);
        assert!(two.contains("\"sweep.req_per_s\""), "{two}");
    }
}
