//! Run and sweep requests: validation, canonical form, JSON codec.
//!
//! A [`RunRequest`] is the unit the cache is keyed on: one kernel, one
//! problem scale, one machine size, one design point, one trace seed.
//! [`RunRequest::canonical`] renders it as a stable, order-fixed string —
//! that string (plus the code version) is what gets hashed into the cache
//! key, so two requests that mean the same run always collide and two
//! that differ in any field never do.

use cohesion::config::{DesignPoint, DirectoryVariant};
use cohesion_bench::jsonv::Value;
use cohesion_kernels::{Scale, KERNEL_NAMES};

use crate::wire::json_escape;

/// Machine sizes a request may ask for (the scaled-machine constructor
/// handles anything in range; 1024 is the paper's full Table 3 machine).
pub const MAX_CORES: u32 = 1024;

/// One simulation request — the cache-key domain.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunRequest {
    /// Kernel name (one of [`KERNEL_NAMES`]).
    pub kernel: String,
    /// Problem scale.
    pub scale: Scale,
    /// Cores to simulate (`1..=1024`).
    pub cores: u32,
    /// Design-point spec, canonical form (see [`parse_point`]).
    pub point: String,
    /// Trace seed perturbing kernel input generation (0 = paper inputs).
    pub seed: u64,
    /// Host threads sharding the single simulation (default 1; 0 means
    /// *auto*: the executor picks a count from the host's parallelism).
    /// An execution hint only: the sharded executor's determinism
    /// contract makes the report byte-identical at any shard count, so
    /// this field is deliberately excluded from [`RunRequest::canonical`]
    /// — the same run at different shard counts shares one cache entry,
    /// and the count auto resolves to never appears in any document.
    pub shards: u32,
}

impl RunRequest {
    /// Validates every field and canonicalizes the point spec.
    ///
    /// # Errors
    ///
    /// A description of the first invalid field.
    pub fn validate(&self) -> Result<RunRequest, String> {
        if !KERNEL_NAMES.contains(&self.kernel.as_str()) {
            return Err(format!(
                "unknown kernel {:?}; valid kernels: {}",
                self.kernel,
                KERNEL_NAMES.join(", ")
            ));
        }
        if self.cores == 0 || self.cores > MAX_CORES {
            return Err(format!("cores must be 1..={MAX_CORES}, got {}", self.cores));
        }
        let dp = parse_point(&self.point)?;
        Ok(RunRequest {
            point: point_spec(&dp),
            ..self.clone()
        })
    }

    /// The parsed design point (call [`RunRequest::validate`] first).
    ///
    /// # Errors
    ///
    /// The parse error for an invalid spec.
    pub fn design_point(&self) -> Result<DesignPoint, String> {
        parse_point(&self.point)
    }

    /// The stable string the cache key hashes: every *result-bearing*
    /// field, fixed order, unambiguous separators. `shards` is absent on
    /// purpose: it cannot change the simulated results, so including it
    /// would split one logical run across cache entries.
    pub fn canonical(&self) -> String {
        format!(
            "kernel={};scale={};cores={};point={};seed={}",
            self.kernel,
            scale_name(self.scale),
            self.cores,
            self.point,
            self.seed
        )
    }

    /// The request as a `submit-run` JSON payload. The default shard
    /// count (1) is omitted so payloads from before sharding existed stay
    /// byte-identical; the auto sentinel (0) round-trips literally.
    pub fn to_json(&self) -> String {
        let shards = if self.shards != 1 {
            format!(", \"shards\": {}", self.shards)
        } else {
            String::new()
        };
        format!(
            "{{\"kernel\": \"{}\", \"scale\": \"{}\", \"cores\": {}, \"point\": \"{}\", \"seed\": {}{shards}}}",
            json_escape(&self.kernel),
            scale_name(self.scale),
            self.cores,
            json_escape(&self.point),
            self.seed
        )
    }

    /// Parses a `submit-run` payload (already JSON-decoded).
    ///
    /// # Errors
    ///
    /// A description of the missing or ill-typed field.
    pub fn from_json(v: &Value) -> Result<RunRequest, String> {
        Ok(RunRequest {
            kernel: str_field(v, "kernel")?,
            scale: parse_scale(&str_field(v, "scale")?)?,
            cores: u64_field(v, "cores")? as u32,
            point: str_field(v, "point")?,
            seed: u64_field_or(v, "seed", 0)?,
            shards: u64_field_or(v, "shards", 1)? as u32,
        })
    }
}

/// A `kernels × points` sweep at one scale/core-count/seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRequest {
    /// Kernel names (each one of [`KERNEL_NAMES`]).
    pub kernels: Vec<String>,
    /// Design-point specs.
    pub points: Vec<String>,
    /// Problem scale.
    pub scale: Scale,
    /// Cores to simulate.
    pub cores: u32,
    /// Trace seed.
    pub seed: u64,
    /// Host threads sharding each simulation (see [`RunRequest::shards`]).
    pub shards: u32,
}

impl SweepRequest {
    /// Expands into the flat run list, kernels-major (the same order the
    /// figure harness uses), validating every element.
    ///
    /// # Errors
    ///
    /// The first invalid kernel or point spec, or an empty dimension.
    pub fn expand(&self) -> Result<Vec<RunRequest>, String> {
        if self.kernels.is_empty() || self.points.is_empty() {
            return Err("sweep needs at least one kernel and one point".into());
        }
        let mut runs = Vec::with_capacity(self.kernels.len() * self.points.len());
        for k in &self.kernels {
            for p in &self.points {
                runs.push(
                    RunRequest {
                        kernel: k.clone(),
                        scale: self.scale,
                        cores: self.cores,
                        point: p.clone(),
                        seed: self.seed,
                        shards: self.shards,
                    }
                    .validate()?,
                );
            }
        }
        Ok(runs)
    }

    /// The request as a `submit-sweep` JSON payload. Like
    /// [`RunRequest::to_json`], a shard count of 1 is omitted.
    pub fn to_json(&self) -> String {
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .map(|k| format!("\"{}\"", json_escape(k)))
            .collect();
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| format!("\"{}\"", json_escape(p)))
            .collect();
        let shards = if self.shards != 1 {
            format!(", \"shards\": {}", self.shards)
        } else {
            String::new()
        };
        format!(
            "{{\"kernels\": [{}], \"points\": [{}], \"scale\": \"{}\", \"cores\": {}, \"seed\": {}{shards}}}",
            kernels.join(", "),
            points.join(", "),
            scale_name(self.scale),
            self.cores,
            self.seed
        )
    }

    /// Parses a `submit-sweep` payload (already JSON-decoded).
    ///
    /// # Errors
    ///
    /// A description of the missing or ill-typed field.
    pub fn from_json(v: &Value) -> Result<SweepRequest, String> {
        let list = |name: &str| -> Result<Vec<String>, String> {
            v.get(name)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("missing array field {name:?}"))?
                .iter()
                .map(|e| {
                    e.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("{name:?} elements must be strings"))
                })
                .collect()
        };
        Ok(SweepRequest {
            kernels: list("kernels")?,
            points: list("points")?,
            scale: parse_scale(&str_field(v, "scale")?)?,
            cores: u64_field(v, "cores")? as u32,
            seed: u64_field_or(v, "seed", 0)?,
            shards: u64_field_or(v, "shards", 1)? as u32,
        })
    }
}

fn str_field(v: &Value, name: &str) -> Result<String, String> {
    v.get(name)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {name:?}"))
}

fn u64_field(v: &Value, name: &str) -> Result<u64, String> {
    match v.get(name) {
        None => Err(format!("missing non-negative integer field {name:?}")),
        Some(x) => x.as_u64().ok_or_else(|| {
            format!("field {name:?} must be a non-negative integer below 2^53")
        }),
    }
}

/// Like [`u64_field`], but an absent field reads `default`.
fn u64_field_or(v: &Value, name: &str, default: u64) -> Result<u64, String> {
    match v.get(name) {
        None => Ok(default),
        Some(_) => u64_field(v, name),
    }
}

/// The wire name of a scale.
pub fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Medium => "medium",
    }
}

/// Parses a wire scale name (case-insensitive, like the figure binaries).
///
/// # Errors
///
/// Names anything other than `tiny|small|medium`.
pub fn parse_scale(s: &str) -> Result<Scale, String> {
    match s.to_ascii_lowercase().as_str() {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "medium" => Ok(Scale::Medium),
        other => Err(format!("scale must be tiny|small|medium, got {other:?}")),
    }
}

/// Default sparse-directory geometry for specs that omit `:ENTRIESxWAYS`
/// (the §4 realistic configuration).
pub const DEFAULT_DIR: (u32, u32) = (16 * 1024, 128);

/// Parses a design-point spec.
///
/// Base names: `swcc`, `hwcc-ideal`, `hwcc-real`, `hwcc-dir4b`,
/// `cohesion`, `cohesion-dir4b`. The four directory-backed points accept
/// an optional `:ENTRIESxWAYS` suffix (default `16384x128`), e.g.
/// `cohesion:8192x64`.
///
/// # Errors
///
/// Unknown base name, malformed geometry, or a geometry suffix on a
/// directoryless point.
pub fn parse_point(spec: &str) -> Result<DesignPoint, String> {
    let (base, geom) = match spec.split_once(':') {
        Some((b, g)) => (b, Some(g)),
        None => (spec, None),
    };
    let (entries, ways) = match geom {
        None => DEFAULT_DIR,
        Some(g) => {
            let (e, w) = g
                .split_once('x')
                .ok_or_else(|| format!("geometry must be ENTRIESxWAYS, got {g:?}"))?;
            let parse = |s: &str, what: &str| {
                s.parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("{what} must be a positive integer, got {s:?}"))
            };
            (parse(e, "entries")?, parse(w, "ways")?)
        }
    };
    let dp = match base.to_ascii_lowercase().as_str() {
        "swcc" => DesignPoint::swcc(),
        "hwcc-ideal" => DesignPoint::hwcc_ideal(),
        "hwcc-real" => DesignPoint::hwcc_real(entries, ways),
        "hwcc-dir4b" => DesignPoint::hwcc_dir4b(entries, ways),
        "cohesion" => DesignPoint::cohesion(entries, ways),
        "cohesion-dir4b" => DesignPoint::cohesion_dir4b(entries, ways),
        other => {
            return Err(format!(
                "unknown design point {other:?}; valid: swcc, hwcc-ideal, \
                 hwcc-real, hwcc-dir4b, cohesion, cohesion-dir4b \
                 (directory-backed points accept :ENTRIESxWAYS)"
            ))
        }
    };
    if geom.is_some() && matches!(dp.directory, DirectoryVariant::None | DirectoryVariant::FullMapInfinite) {
        return Err(format!("{base:?} takes no directory geometry"));
    }
    Ok(dp)
}

/// The canonical spec for a design point — the inverse of [`parse_point`].
pub fn point_spec(dp: &DesignPoint) -> String {
    use cohesion_runtime::api::CohMode;
    match (dp.mode, dp.directory) {
        (CohMode::SWcc, DirectoryVariant::None) => "swcc".into(),
        (CohMode::HWcc, DirectoryVariant::FullMapInfinite) => "hwcc-ideal".into(),
        (CohMode::HWcc, DirectoryVariant::Sparse { entries, ways }) => {
            format!("hwcc-real:{entries}x{ways}")
        }
        (CohMode::HWcc, DirectoryVariant::Dir4B { entries, ways }) => {
            format!("hwcc-dir4b:{entries}x{ways}")
        }
        (CohMode::Cohesion, DirectoryVariant::Sparse { entries, ways }) => {
            format!("cohesion:{entries}x{ways}")
        }
        (CohMode::Cohesion, DirectoryVariant::Dir4B { entries, ways }) => {
            format!("cohesion-dir4b:{entries}x{ways}")
        }
        (mode, dir) => format!("{mode:?}/{dir:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_bench::jsonv;

    fn req() -> RunRequest {
        RunRequest {
            kernel: "sobel".into(),
            scale: Scale::Tiny,
            cores: 16,
            point: "swcc".into(),
            seed: 7,
            shards: 1,
        }
    }

    #[test]
    fn canonical_is_stable_and_field_sensitive() {
        let base = req().canonical();
        assert_eq!(base, "kernel=sobel;scale=tiny;cores=16;point=swcc;seed=7");
        let mut other = req();
        other.seed = 8;
        assert_ne!(base, other.canonical());
    }

    /// `shards` is an execution hint: it never reaches the canonical
    /// string (so shard counts share cache entries), and the default is
    /// omitted from the wire payload (so pre-sharding payload bytes are
    /// unchanged).
    #[test]
    fn shards_are_not_canonical_and_default_is_elided() {
        let mut sharded = req();
        sharded.shards = 4;
        assert_eq!(req().canonical(), sharded.canonical());
        assert!(!req().to_json().contains("shards"));
        assert!(sharded.to_json().contains("\"shards\": 4"));
        let v = jsonv::parse(&sharded.to_json()).unwrap();
        assert_eq!(RunRequest::from_json(&v).unwrap(), sharded);
        let mut auto = req();
        auto.shards = 0;
        assert!(auto.validate().is_ok(), "0 is the auto sentinel");
        assert_eq!(req().canonical(), auto.canonical());
        assert!(auto.to_json().contains("\"shards\": 0"));
        let v = jsonv::parse(&auto.to_json()).unwrap();
        assert_eq!(RunRequest::from_json(&v).unwrap(), auto);
    }

    #[test]
    fn json_round_trip() {
        let r = req();
        let v = jsonv::parse(&r.to_json()).unwrap();
        assert_eq!(RunRequest::from_json(&v).unwrap(), r);
        let s = SweepRequest {
            kernels: vec!["sobel".into(), "heat".into()],
            points: vec!["swcc".into(), "cohesion:16384x128".into()],
            scale: Scale::Tiny,
            cores: 16,
            seed: 0,
            shards: 1,
        };
        let v = jsonv::parse(&s.to_json()).unwrap();
        assert_eq!(SweepRequest::from_json(&v).unwrap(), s);
        assert_eq!(s.expand().unwrap().len(), 4);
    }

    #[test]
    fn point_specs_round_trip_canonically() {
        for spec in [
            "swcc",
            "hwcc-ideal",
            "hwcc-real:16384x128",
            "hwcc-dir4b:16384x128",
            "cohesion:16384x128",
            "cohesion-dir4b:8192x64",
        ] {
            let dp = parse_point(spec).unwrap();
            assert_eq!(point_spec(&dp), spec, "spec {spec} not canonical");
        }
        // default geometry is filled in by canonicalization
        assert_eq!(
            point_spec(&parse_point("cohesion").unwrap()),
            "cohesion:16384x128"
        );
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut r = req();
        r.kernel = "fft".into();
        assert!(r.validate().unwrap_err().contains("unknown kernel"));
        let mut r = req();
        r.cores = 0;
        assert!(r.validate().is_err());
        let mut r = req();
        r.point = "swcc:16x2".into();
        assert!(r.validate().unwrap_err().contains("no directory geometry"));
        assert!(parse_point("cohesion:0x4").is_err());
        assert!(parse_point("warp").is_err());
        assert!(parse_scale("huge").is_err());
    }
}
