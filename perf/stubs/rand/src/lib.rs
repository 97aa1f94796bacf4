//! Offline stand-in for the slice of `rand` 0.8 that `rb-radio` uses
//! (`StdRng::seed_from_u64`, `gen::<f64>()`). `rb-radio` is linked because
//! the `ranbooster` facade depends on it, but no workload calls it, so the
//! draws need only be deterministic, not the published generator's.

/// Seeding from an integer.
pub trait SeedableRng: Sized {
    /// A generator whose stream is a function of `seed` alone.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types [`Rng::gen`] can produce.
pub trait Draw {
    /// Build a value from 64 uniform bits.
    fn from_bits(bits: u64) -> Self;
}

impl Draw for f64 {
    /// Uniform in `[0, 1)` from the top 53 bits.
    fn from_bits(bits: u64) -> f64 {
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Drawing values.
pub trait Rng {
    /// Next 64 uniform bits.
    fn next_u64(&mut self) -> u64;

    /// A uniformly distributed `T`.
    fn gen<T: Draw>(&mut self) -> T {
        T::from_bits(self.next_u64())
    }
}

pub mod rngs {
    /// A splitmix64 stream under the published crate's type name.
    #[derive(Debug, Clone)]
    pub struct StdRng(u64);

    impl super::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng(seed)
        }
    }

    impl super::Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}
