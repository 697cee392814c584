#![deny(missing_docs)]

//! First-party determinism testkit for the Cohesion reproduction.
//!
//! The workspace builds and tests fully offline: nothing here (or anywhere
//! else in the tree) depends on a crates.io package. The testkit owns the
//! pieces of tooling that would otherwise be external:
//!
//! * [`rng`] — a seedable SplitMix64 / xoshiro256\*\* PRNG with
//!   `gen_range` / `shuffle` / `choose`, usable both by the test harness
//!   and by future kernel input generation.
//! * [`prop`] — a minimal shrinking property-test harness. Strategies
//!   cover integer ranges, `one_of` / `sample`, vectors, tuples, and
//!   mapped compositions; every property runs ≥ 64 deterministic cases by
//!   default; failing cases are greedily shrunk and every failure prints a
//!   `COHESION_PROP_SEED=<n>` replay line (the env var is honored for
//!   deterministic reruns).
//! * [`pool`] — a scoped worker pool (`run_jobs`) that executes
//!   embarrassingly parallel job lists on `COHESION_JOBS` workers while
//!   returning results in deterministic input order; the figure harness
//!   runs every sweep through it. Its persistent counterpart,
//!   `pool::WorkerPool`, runs `cohesiond`'s simulation jobs.

pub mod pool;
pub mod prop;
pub mod rng;

pub use rng::Rng;
