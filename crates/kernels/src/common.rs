//! Shared kernel infrastructure: problem scales, typed array views over the
//! simulated address space, and f32 bit plumbing.

use cohesion_mem::addr::Addr;
use cohesion_mem::mainmem::MainMemory;
use cohesion_protocol::region::Domain;
use cohesion_runtime::api::CohesionApi;
use cohesion_runtime::task::TaskBuilder;

/// Problem-size presets.
///
/// `Tiny` keeps unit tests fast; `Small` is the default for the figure
/// harness (working sets a few times the aggregate L2 capacity of a scaled
/// 128-core machine, so eviction/refetch behaviour is exercised); `Medium`
/// approaches the paper's working-set-to-cache ratios and is used with
/// `--scale medium` for longer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Minimal sizes for unit tests.
    Tiny,
    /// Default experiment sizes.
    Small,
    /// Larger, closer-to-paper sizes.
    Medium,
}

impl Scale {
    /// A per-scale pick helper.
    pub fn pick<T>(self, tiny: T, small: T, medium: T) -> T {
        match self {
            Scale::Tiny => tiny,
            Scale::Small => small,
            Scale::Medium => medium,
        }
    }
}

/// Bit-casts f32 → u32 for storage in the simulated memory.
pub fn fbits(v: f32) -> u32 {
    v.to_bits()
}

/// Bit-casts u32 → f32.
pub fn bitsf(v: u32) -> f32 {
    f32::from_bits(v)
}

/// A typed word-array view over an allocation in the simulated address
/// space, with golden-memory read/write helpers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArrayRef {
    /// Base address (word aligned).
    pub base: Addr,
    /// Length in 32-bit words.
    pub len: u32,
}

impl ArrayRef {
    /// Allocates `len` words on the incoherent heap.
    ///
    /// # Panics
    ///
    /// Panics when the heap is exhausted (kernel sizing bug).
    pub fn alloc_incoherent(api: &mut CohesionApi, len: u32) -> ArrayRef {
        let base = api
            .coh_malloc(len * 4)
            .expect("incoherent heap exhausted — kernel sized too large");
        ArrayRef { base, len }
    }

    /// Allocates `len` words on the coherent heap.
    ///
    /// # Panics
    ///
    /// Panics when the heap is exhausted.
    pub fn alloc_coherent(api: &mut CohesionApi, len: u32) -> ArrayRef {
        let base = api
            .malloc(len * 4)
            .expect("coherent heap exhausted — kernel sized too large");
        ArrayRef { base, len }
    }

    /// Address of word `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn at(&self, i: u32) -> Addr {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        Addr(self.base.0 + 4 * i)
    }

    /// Golden read of word `i` as raw bits.
    pub fn g(&self, golden: &MainMemory, i: u32) -> u32 {
        golden.read_word(self.at(i))
    }

    /// Golden read of word `i` as f32.
    pub fn gf(&self, golden: &MainMemory, i: u32) -> f32 {
        bitsf(self.g(golden, i))
    }

    /// Golden write of raw bits to word `i`.
    pub fn set(&self, golden: &mut MainMemory, i: u32, v: u32) {
        golden.write_word(self.at(i), v);
    }

    /// Golden write of an f32 to word `i`.
    pub fn setf(&self, golden: &mut MainMemory, i: u32, v: f32) {
        self.set(golden, i, fbits(v));
    }

    /// Emits a verified load of word `i` into a task trace, returning the
    /// golden value.
    pub fn load(&self, b: &mut TaskBuilder, golden: &MainMemory, i: u32) -> u32 {
        let v = self.g(golden, i);
        b.load(self.at(i), v);
        v
    }

    /// Emits a verified f32 load of word `i`, returning the golden value.
    pub fn loadf(&self, b: &mut TaskBuilder, golden: &MainMemory, i: u32) -> f32 {
        bitsf(self.load(b, golden, i))
    }

    /// Emits a store of raw bits, updating golden memory.
    pub fn store(&self, b: &mut TaskBuilder, golden: &mut MainMemory, i: u32, v: u32) {
        self.set(golden, i, v);
        b.store(self.at(i), v);
    }

    /// Emits an f32 store, updating golden memory.
    pub fn storef(&self, b: &mut TaskBuilder, golden: &mut MainMemory, i: u32, v: f32) {
        self.store(b, golden, i, fbits(v));
    }
}

/// Returns the standard SWcc filter for task epilogues: a line gets
/// coherence instructions iff software knows it is SWcc in this mode.
pub fn swcc_filter(api: &CohesionApi) -> impl Fn(cohesion_mem::addr::LineAddr) -> bool + '_ {
    move |line| api.software_domain(line.base()) == Domain::SWcc
}

/// Compares an [`ArrayRef`] in the machine's drained memory against golden,
/// reporting the first mismatch.
///
/// # Errors
///
/// Returns a description of the first differing word.
pub fn verify_array(
    name: &str,
    arr: &ArrayRef,
    golden: &MainMemory,
    mem: &MainMemory,
) -> Result<(), String> {
    for i in 0..arr.len {
        let want = arr.g(golden, i);
        let got = mem.read_word(arr.at(i));
        if want != got {
            return Err(format!(
                "{name}[{i}] (at {}): machine has {got:#010x} ({}), golden is {want:#010x} ({})",
                arr.at(i),
                bitsf(got),
                bitsf(want)
            ));
        }
    }
    Ok(())
}

/// Deterministic xorshift PRNG for input generation (no external RNG state
/// in kernels keeps runs bit-reproducible regardless of `rand` versions).
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the generator (zero is mapped to a fixed non-zero seed).
    pub fn new(seed: u64) -> Self {
        XorShift(if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform f32 in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform u32 below `bound` (`bound > 0`).
    pub fn below(&mut self, bound: u32) -> u32 {
        (self.next_u64() % bound as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_runtime::api::CohMode;

    #[test]
    fn f32_roundtrip() {
        for v in [0.0f32, 1.5, -3.25, f32::MAX, f32::MIN_POSITIVE] {
            assert_eq!(bitsf(fbits(v)), v);
        }
    }

    #[test]
    fn array_ref_addressing_and_golden_io() {
        let mut api = CohesionApi::new(16, CohMode::Cohesion);
        let mut golden = MainMemory::new();
        let a = ArrayRef::alloc_incoherent(&mut api, 16);
        assert_eq!(a.at(1).0, a.base.0 + 4);
        a.setf(&mut golden, 3, 2.5);
        assert_eq!(a.gf(&golden, 3), 2.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn array_ref_bounds_checked() {
        let mut api = CohesionApi::new(16, CohMode::Cohesion);
        let a = ArrayRef::alloc_incoherent(&mut api, 4);
        let _ = a.at(4);
    }

    #[test]
    fn verify_array_reports_mismatches() {
        let mut api = CohesionApi::new(16, CohMode::Cohesion);
        let mut golden = MainMemory::new();
        let a = ArrayRef::alloc_incoherent(&mut api, 4);
        a.set(&mut golden, 2, 42);
        let mut mem = golden.clone();
        assert!(verify_array("x", &a, &golden, &mem).is_ok());
        mem.write_word(a.at(2), 41);
        let err = verify_array("x", &a, &golden, &mem).unwrap_err();
        assert!(err.contains("x[2]"), "{err}");
    }

    #[test]
    fn xorshift_is_deterministic_and_bounded() {
        let mut a = XorShift::new(7);
        let mut b = XorShift::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..1000 {
            let f = a.next_f32();
            assert!((0.0..1.0).contains(&f));
            assert!(a.below(10) < 10);
        }
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Tiny.pick(1, 2, 3), 1);
        assert_eq!(Scale::Small.pick(1, 2, 3), 2);
        assert_eq!(Scale::Medium.pick(1, 2, 3), 3);
    }
}
