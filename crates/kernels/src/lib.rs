#![warn(missing_docs)]

//! The eight ISCA 2010 evaluation kernels (§4.1) as task-trace generators
//! with golden functional results.
//!
//! Each kernel is "optimized kernels extracted from scientific and visual
//! computing applications", written in the barrier-synchronized task-queue
//! style: the kernel allocates its data through the Cohesion API, emits
//! bulk-synchronous phases of task traces whose *values come from a real
//! computation*, and verifies the machine's final memory image against that
//! golden result — so a coherence bug anywhere in the stack shows up as a
//! wrong answer, not a plausible statistic.
//!
//! | kernel | computation | dominant sharing pattern |
//! |--------|-------------|--------------------------|
//! | [`cg`] | conjugate-gradient solve on a 2-D Laplacian | double-buffered vectors, staged reductions |
//! | [`dmm`] | blocked dense matrix multiply | read-shared inputs, private output tiles |
//! | [`gjk`] | convex collision detection (support mappings) | many tiny tasks — scheduling-overhead bound |
//! | [`heat`] | 2-D Jacobi stencil | halo exchange across barriers |
//! | [`kmeans`] | k-means clustering | atomic histogramming (uncached RMW) |
//! | [`mri`] | MRI reconstruction (FHd-style sums) | high arithmetic intensity, read-shared samples |
//! | [`sobel`] | edge detection | streaming, low reuse |
//! | [`stencil`] | 3-D 7-point stencil | halo exchange, large working set |
//!
//! The SWcc variants carry explicit flush/invalidate instructions at task
//! boundaries; HWcc variants carry none; Cohesion variants carry them only
//! for SWcc-domain data and place fine-grained-shared data (reduction cells,
//! k-means accumulators) on the coherent heap (§4.1).

pub mod cg;
pub mod common;
pub mod dmm;
pub mod gjk;
pub mod heat;
pub mod kmeans;
pub mod mri;
pub mod sobel;
#[cfg(test)]
mod structure_tests;
pub mod stencil;

use cohesion::run::Workload;
pub use common::Scale;

/// The eight benchmark names in the paper's (alphabetical) order.
pub const KERNEL_NAMES: [&str; 8] = [
    "cg", "dmm", "gjk", "heat", "kmeans", "mri", "sobel", "stencil",
];

/// Constructs a kernel by name at the given problem scale.
///
/// # Panics
///
/// Panics for unknown names; use [`KERNEL_NAMES`].
pub fn kernel_by_name(name: &str, scale: Scale) -> Box<dyn Workload> {
    kernel_by_name_seeded(name, scale, 0)
}

/// Constructs a kernel by name with its input/trace generation perturbed
/// by `seed`.
///
/// Seed `0` reproduces the paper's pinned inputs exactly — for every
/// kernel, `kernel_by_name(name, scale)` and
/// `kernel_by_name_seeded(name, scale, 0)` generate bit-identical traces
/// and golden results. Any other seed deterministically reshuffles the
/// generated inputs (matrix entries, point clouds, sample values) while
/// keeping the task structure and golden verification intact, so two runs
/// with different seeds are *different workloads* with *independently
/// checked* answers. `cohesiond` keys its run cache on this seed.
///
/// # Panics
///
/// Panics for unknown names; use [`KERNEL_NAMES`].
pub fn kernel_by_name_seeded(name: &str, scale: Scale, seed: u64) -> Box<dyn Workload> {
    match name {
        "cg" => Box::new(cg::Cg::new(scale).with_seed(seed)),
        "dmm" => Box::new(dmm::Dmm::new(scale).with_seed(seed)),
        "gjk" => Box::new(gjk::Gjk::new(scale).with_seed(seed)),
        "heat" => Box::new(heat::Heat::new(scale).with_seed(seed)),
        "kmeans" => Box::new(kmeans::Kmeans::new(scale).with_seed(seed)),
        "mri" => Box::new(mri::Mri::new(scale).with_seed(seed)),
        "sobel" => Box::new(sobel::Sobel::new(scale).with_seed(seed)),
        "stencil" => Box::new(stencil::Stencil::new(scale).with_seed(seed)),
        other => panic!("unknown kernel {other:?}"),
    }
}
