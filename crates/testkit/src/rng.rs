//! Seedable pseudo-random number generation.
//!
//! Two small, well-known generators, implemented from their reference C
//! code and locked to published test vectors:
//!
//! * [`SplitMix64`] — Steele/Lea/Flood's 64-bit mixer. Used for seeding
//!   and for deriving independent substreams from one master seed.
//! * [`Xoshiro256StarStar`] — Blackman/Vigna's xoshiro256\*\*, the
//!   general-purpose generator behind [`Rng`].
//!
//! Neither is cryptographic; both are bit-reproducible across platforms,
//! which is the property the determinism testkit actually needs.

/// Steele, Lea & Flood's SplitMix64 (the reference `splitmix64.c`).
///
/// Every call advances the state by a fixed odd constant and returns a
/// mixed output, so any 64-bit seed — including 0 — yields a full-period
/// stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from any 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Blackman & Vigna's xoshiro256\*\* 1.0 (the reference `xoshiro256starstar.c`).
#[derive(Debug, Clone)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator from a full 256-bit state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeroes (the one forbidden state).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro256** state must be nonzero");
        Xoshiro256StarStar { s }
    }

    /// Seeds the 256-bit state from a single `u64` through SplitMix64, as
    /// the xoshiro authors recommend.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256StarStar {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Integer types [`Rng::gen_range`] can draw.
///
/// Implemented for the unsigned/signed widths the tests use; values are
/// produced by reducing one `u64` draw modulo the span, so a draw of 0
/// always maps to the range's low bound (the property-test shrinker relies
/// on this to pull inputs toward their minimum).
pub trait UniformInt: Copy {
    /// Maps a raw `u64` draw into `[lo, hi)`.
    fn from_draw(draw: u64, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn from_draw(draw: u64, lo: Self, hi: Self) -> Self {
                debug_assert!(lo < hi);
                let span = (hi as u128) - (lo as u128);
                lo + ((draw as u128 % span) as $t)
            }
        }
    )*};
}
impl_uniform_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl UniformInt for $t {
            fn from_draw(draw: u64, lo: Self, hi: Self) -> Self {
                debug_assert!(lo < hi);
                let span = (hi as i128 - lo as i128) as u128;
                (lo as i128 + (draw as u128 % span) as i128) as $t
            }
        }
    )*};
}
impl_uniform_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

/// The testkit's general-purpose seedable generator: xoshiro256\*\* with
/// convenience draws.
///
/// # Example
///
/// ```
/// use cohesion_testkit::Rng;
///
/// let mut rng = Rng::new(42);
/// let die = rng.gen_range(1u32, 7);
/// assert!((1..7).contains(&die));
/// let mut deck: Vec<u32> = (0..52).collect();
/// rng.shuffle(&mut deck);
/// assert_eq!(deck.len(), 52);
/// // Same seed, same stream.
/// assert_eq!(Rng::new(7).next_u64(), Rng::new(7).next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    inner: Xoshiro256StarStar,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Rng {
            inner: Xoshiro256StarStar::seed_from_u64(seed),
        }
    }

    /// Returns the next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Draws a value uniformly from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range<T: UniformInt + PartialOrd>(&mut self, lo: T, hi: T) -> T {
        assert!(lo < hi, "gen_range requires lo < hi");
        T::from_draw(self.next_u64(), lo, hi)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0usize, i + 1);
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_range(0usize, slice.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First outputs of the reference `splitmix64.c` for seed 0 (widely
    /// published vector).
    #[test]
    fn splitmix64_reference_vector() {
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    /// First outputs of the reference `xoshiro256starstar.c` for the state
    /// `[1, 2, 3, 4]`, verified by hand-executing the reference update.
    #[test]
    fn xoshiro256starstar_reference_vector() {
        let mut x = Xoshiro256StarStar::from_state([1, 2, 3, 4]);
        assert_eq!(x.next_u64(), 11520);
        assert_eq!(x.next_u64(), 0);
        assert_eq!(x.next_u64(), 1_509_978_240);
        assert_eq!(x.next_u64(), 1_215_971_899_390_074_240);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn all_zero_state_rejected() {
        let _ = Xoshiro256StarStar::from_state([0; 4]);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(0xDEAD_BEEF);
        let mut b = Rng::new(0xDEAD_BEEF);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_both_ends() {
        let mut rng = Rng::new(1);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..10_000 {
            let v = rng.gen_range(-3i32, 5);
            assert!((-3..5).contains(&v));
            lo_seen |= v == -3;
            hi_seen |= v == 4;
        }
        assert!(lo_seen && hi_seen, "10k draws should cover an 8-value range");
    }

    #[test]
    fn zero_draw_maps_to_low_bound() {
        assert_eq!(u32::from_draw(0, 7, 100), 7);
        assert_eq!(i64::from_draw(0, -50, 50), -50);
        assert_eq!(usize::from_draw(0, 1, 2), 1);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(99);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = Rng::new(5);
        let items = [1u32, 2, 3, 4];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(*rng.choose(&items).unwrap());
        }
        assert_eq!(seen.len(), 4);
        assert!(rng.choose::<u32>(&[]).is_none());
    }
}
