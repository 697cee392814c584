//! `compare` and `calibrate`: verdicts for a change against its parent,
//! and regression bounds from repeated runs of one commit.
//!
//! `compare` applies a paired-run rule to every end-to-end metric of
//! every workload: at least ten runs a side, paired in the order given
//! (alternate which side runs first); a gain needs the change to win at
//! least nine tenths of all pairs run, a tie counting as no win, with the
//! medians further apart than the parent's interquartile range; a regression is
//! a median worse than the parent's by more than the calibrated bound;
//! and a metric whose parent spread is wider than its bound is
//! unresolved unless every change run beats every parent run. Simulated
//! results must not move at all: runs of the same seed must carry the
//! same `sim_digest`.

use std::collections::BTreeMap;

use cohesion_bench::jsonv::{self, Value};

use crate::catalog::{self, Better, Kind};
use crate::result::{read_document, WorkloadResult};
use crate::stats::{median, quartiles};

/// Calibrated bounds, kept beside the benchmark's sources.
const CALIBRATION: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/calibration.json");

/// Schema tag of the calibration document.
const CALIBRATION_SCHEMA: &str = "cohesion-benchmark-calibration/v1";

/// Minimum pairs before any verdict but `unresolved`.
const MIN_PAIRS: usize = 10;

/// The smallest bound calibration assigns.
const MIN_BOUND: f64 = 0.05;

/// One metric's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins nine tenths of the pairs and its median is better
    /// by more than the parent's IQR.
    Improved,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// Too few pairs, or the parent's spread is wider than the bound.
    Unresolved,
    /// Within the bound.
    NoRegression,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::NoRegression => "no regression",
        }
    }
}

/// The gain of `change` over `parent` in the metric's better direction.
fn gain(better: Better, parent: f64, change: f64) -> f64 {
    match better {
        Better::Higher => change - parent,
        Better::Lower => parent - change,
    }
}

/// The verdict for one metric from its parent and change runs, paired
/// by position.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let pairs = parent.len().min(change.len());
    let (Some(mp), Some(mc), Some((q1, q3))) = (median(parent), median(change), quartiles(parent))
    else {
        return Verdict::Unresolved;
    };
    if pairs < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let wins = parent
        .iter()
        .zip(change)
        .take(pairs)
        .filter(|&(&p, &c)| gain(better, p, c) > 0.0)
        .count();
    let gap = gain(better, mp, mc);
    if wins * 10 >= pairs * 9 && gap > q3 - q1 {
        return Verdict::Improved;
    }
    let scale = mp.abs().max(f64::MIN_POSITIVE);
    let all_better = parent
        .iter()
        .all(|&p| change.iter().all(|&c| gain(better, p, c) > 0.0));
    if (q3 - q1) / scale > bound && !all_better {
        Verdict::Unresolved
    } else if -gap / scale > bound {
        Verdict::Regressed
    } else {
        Verdict::NoRegression
    }
}

/// `(workload index, catalog index) → values in file order`.
type Series = BTreeMap<(usize, usize), Vec<f64>>;

fn load(files: &[String]) -> Result<Vec<WorkloadResult>, String> {
    let mut all = Vec::new();
    for f in files {
        all.extend(read_document(f)?);
    }
    Ok(all)
}

/// End-to-end values keyed by workload and catalog position, so output
/// follows the workload and catalog order.
fn series(results: &[WorkloadResult]) -> Series {
    let mut out = Series::new();
    for r in results {
        let Some(w) = crate::WORKLOADS.iter().position(|w| *w == r.workload) else {
            continue;
        };
        for (i, m) in catalog::CATALOG.iter().enumerate() {
            if m.kind != Kind::EndToEnd {
                continue;
            }
            if let Some(v) = r.metric(m.name) {
                out.entry((w, i)).or_default().push(v);
            }
        }
    }
    out
}

/// Calibrated bound per `(workload, metric)`.
fn bounds() -> Result<BTreeMap<(String, String), f64>, String> {
    let text = std::fs::read_to_string(CALIBRATION)
        .map_err(|e| format!("cannot read {CALIBRATION}: {e}"))?;
    parse_bounds(&text)
}

fn parse_bounds(text: &str) -> Result<BTreeMap<(String, String), f64>, String> {
    let doc = jsonv::parse(text)?;
    if doc.get("schema").and_then(Value::as_str) != Some(CALIBRATION_SCHEMA) {
        return Err(format!("calibration schema is not {CALIBRATION_SCHEMA:?}"));
    }
    doc.get("bounds")
        .and_then(Value::as_arr)
        .ok_or("calibration has no bounds array")?
        .iter()
        .map(|b| {
            let s = |k: &str| b.get(k).and_then(Value::as_str).map(str::to_string);
            match (
                s("workload"),
                s("metric"),
                b.get("bound").and_then(Value::as_f64),
            ) {
                (Some(w), Some(m), Some(x)) => Ok(((w, m), x)),
                _ => Err("calibration entry without workload, metric and bound".to_string()),
            }
        })
        .collect()
}

/// What `compare` prints, and whether anything regressed.
pub struct Report {
    /// The verdict table and digest findings.
    pub text: String,
    /// A metric regressed or the simulated results changed.
    pub regressed: bool,
}

fn quartet(v: &[f64]) -> String {
    let m = median(v).unwrap_or(f64::NAN);
    match quartiles(v) {
        Some((q1, q3)) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
        None => format!("{m:.4}"),
    }
}

/// Compares the `run --out` files of the parent with those of the change.
///
/// # Errors
///
/// Unreadable or malformed files, or a missing calibration.
pub fn compare(parent_files: &[String], change_files: &[String]) -> Result<Report, String> {
    let parent = load(parent_files)?;
    let change = load(change_files)?;
    let bounds = bounds()?;
    let (ps, cs) = (series(&parent), series(&change));
    let mut text = format!(
        "{:<13} {:<12} {:>34} {:>34} {:>7} {:>6}  verdict\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "bound", "pairs"
    );
    let mut regressed = false;
    for (&(w, i), pv) in &ps {
        let Some(cv) = cs.get(&(w, i)) else { continue };
        let (workload, m) = (crate::WORKLOADS[w], &catalog::CATALOG[i]);
        let bound = bounds
            .get(&(workload.to_string(), m.name.to_string()))
            .copied();
        let v = bound.map_or(Verdict::Unresolved, |b| verdict(pv, cv, m.better, b));
        regressed |= v == Verdict::Regressed;
        text.push_str(&format!(
            "{workload:<13} {:<12} {:>34} {:>34} {:>7} {:>6}  {}{}\n",
            m.name,
            quartet(pv),
            quartet(cv),
            bound.map_or("none".into(), |b| format!("{b:.2}")),
            pv.len().min(cv.len()),
            v.label(),
            if bound.is_none() {
                " (no calibrated bound)"
            } else {
                ""
            }
        ));
    }
    for w in crate::WORKLOADS {
        let failed = |rs: &[WorkloadResult]| -> (u64, u64) {
            rs.iter()
                .filter(|r| r.workload == w)
                .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted))
        };
        let ((pf, pa), (cf, ca)) = (failed(&parent), failed(&change));
        if pa + ca > 0 {
            text.push_str(&format!(
                "{w}: failed {pf}/{pa} at the parent, {cf}/{ca} with the change\n"
            ));
        }
        let digests = |rs: &[WorkloadResult]| -> BTreeMap<u64, String> {
            rs.iter()
                .filter(|r| r.workload == w)
                .filter_map(|r| Some((r.seed, r.sim_digest.clone()?)))
                .collect()
        };
        let (pd, cd) = (digests(&parent), digests(&change));
        for (seed, d) in &pd {
            match cd.get(seed) {
                Some(c) if c != d => {
                    regressed = true;
                    text.push_str(&format!(
                        "{w}: simulated results changed (seed {seed}: {d} -> {c})\n"
                    ));
                }
                _ => {}
            }
        }
    }
    Ok(Report { text, regressed })
}

/// `(median, interquartile range ÷ median, (max − min) ÷ median)`.
fn spreads(v: &[f64]) -> (f64, f64, f64) {
    let m = median(v).unwrap_or(0.0);
    let scale = m.abs().max(f64::MIN_POSITIVE);
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let iqr = quartiles(v).map_or(0.0, |(q1, q3)| q3 - q1);
    (m, iqr / scale, (hi - lo) / scale)
}

/// The bound calibration assigns to samples `v`: the larger of
/// [`MIN_BOUND`] and the observed (max − min) ÷ median, rounded up to a
/// hundredth. It is never capped below the observed range: a metric
/// that does not repeat closely needs a longer workload, not a looser
/// bound.
pub fn calibrated_bound(v: &[f64]) -> f64 {
    let (_, _, range) = spreads(v);
    (MIN_BOUND.max(range) * 100.0).ceil() / 100.0
}

/// Renders the calibration document for the `run --out` files given:
/// per workload and end-to-end metric, the median, the spreads and the
/// bound, with the host's thread count and the seeds used.
///
/// # Errors
///
/// Unreadable or malformed files.
pub fn calibrate(files: &[String]) -> Result<String, String> {
    let results = load(files)?;
    let mut seeds: Vec<u64> = results.iter().map(|r| r.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    let host = results.iter().map(|r| r.host_threads).max().unwrap_or(0);
    let mut rows = Vec::new();
    for (&(w, i), v) in &series(&results) {
        let (m, iqr, range) = spreads(v);
        rows.push(format!(
            "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"runs\": {}, \"median\": {m:.6}, \
             \"iqr_frac\": {iqr:.4}, \"range_frac\": {range:.4}, \"bound\": {:.2}}}",
            crate::WORKLOADS[w],
            catalog::CATALOG[i].name,
            v.len(),
            calibrated_bound(v)
        ));
    }
    let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
    Ok(format!(
        "{{\n  \"schema\": \"{CALIBRATION_SCHEMA}\",\n  \"host_threads\": {host},\n  \
         \"seeds\": [{}],\n  \"bounds\": [\n{}\n  ]\n}}\n",
        seeds.join(", "),
        rows.join(",\n")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * ((i * 7 % 10) as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn clear_gain_is_an_improvement() {
        let parent = around(100.0, 1.0);
        let change = around(90.0, 1.0);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&change, &parent, Better::Higher, 0.05),
            Verdict::Improved
        );
    }

    #[test]
    fn clear_loss_beyond_the_bound_regresses() {
        let parent = around(100.0, 1.0);
        let change = around(110.0, 1.0);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.15),
            Verdict::NoRegression
        );
    }

    #[test]
    fn same_distribution_is_no_regression() {
        let parent = around(100.0, 2.0);
        let change: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(
            verdict(&parent, &change, Better::Higher, 0.05),
            Verdict::NoRegression
        );
    }

    /// A tie is no win: eight wins and two ties are short of nine tenths
    /// of ten pairs, as are eight wins, a tie and a loss; nine wins and a
    /// tie are enough.
    #[test]
    fn nine_tenths_rule_counts_ties_as_no_win() {
        let parent = vec![10.0; 10];
        let mut change = vec![5.0; 10];
        change[0] = 10.0;
        change[1] = 10.0;
        assert_ne!(
            verdict(&parent, &change, Better::Lower, 0.25),
            Verdict::Improved
        );
        change[1] = 11.0;
        assert_ne!(
            verdict(&parent, &change, Better::Lower, 0.25),
            Verdict::Improved
        );
        change[1] = 5.0;
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.25),
            Verdict::Improved
        );
    }

    /// A gap inside the parent's interquartile range is no gain even
    /// when every pair is won.
    #[test]
    fn gain_must_exceed_the_parent_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + 2.0 * i as f64).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.25),
            Verdict::NoRegression
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let parent = around(100.0, 30.0);
        let change = around(105.0, 30.0);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        let much_better = around(40.0, 5.0);
        assert_eq!(
            verdict(&parent, &much_better, Better::Lower, 0.05),
            Verdict::Improved
        );
    }

    #[test]
    fn fewer_than_ten_pairs_is_unresolved() {
        let parent = vec![100.0; 9];
        let change = vec![50.0; 9];
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Unresolved
        );
    }

    /// The bound is the observed range over the median, at least
    /// [`MIN_BOUND`], rounded up, and never capped.
    #[test]
    fn calibrated_bounds_follow_the_range() {
        assert_eq!(calibrated_bound(&[10.0; 10]), MIN_BOUND);
        assert_eq!(calibrated_bound(&[96.0, 100.0, 100.0, 104.0]), 0.08);
        assert_eq!(calibrated_bound(&[99.0, 100.0, 100.0, 107.5]), 0.09);
        assert_eq!(calibrated_bound(&[60.0, 100.0, 100.0, 140.0]), 0.8);
    }

    /// Every workload has a calibrated bound for every end-to-end metric,
    /// and each bound in `BENCHMARK.json` is at least the largest
    /// calibrated bound of its metric, as far as the 0.25 that
    /// `BENCHMARK.json` may hold at most.
    #[test]
    fn benchmark_json_bounds_cover_the_calibration() {
        let cal = bounds().expect("calibration.json parses");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            jsonv::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
        for e in doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end")
        {
            let name = e.get("name").and_then(Value::as_str).expect("name");
            let bound = e.get("bound").and_then(Value::as_f64).expect("bound");
            for w in crate::WORKLOADS {
                let b = cal.get(&(w.to_string(), name.to_string()));
                assert!(
                    b.is_some_and(|b| b.min(0.25) <= bound),
                    "{w}/{name}: {b:?} vs {bound}"
                );
            }
        }
    }

    #[test]
    fn bounds_parse_and_reject_foreign_documents() {
        let doc = format!(
            "{{\"schema\": \"{CALIBRATION_SCHEMA}\", \"bounds\": [{{\"workload\": \"sweep\", \
             \"metric\": \"req_per_s\", \"bound\": 0.07}}]}}"
        );
        let b = parse_bounds(&doc).unwrap();
        assert_eq!(b.get(&("sweep".into(), "req_per_s".into())), Some(&0.07));
        assert!(parse_bounds("{\"schema\": \"other\", \"bounds\": []}").is_err());
    }
}
