//! A tiny self-contained splitmix64: the workspace's only source of
//! randomness (scenario generation, `ChaosIo` impairments, the radio
//! medium). Deliberately not the `rand` crate — the generated city must
//! be bit-identical across platforms, toolchains and `rand` versions,
//! because BENCH entries and CI gates replay it by seed.

/// Seeded splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform draw in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    ///
    /// `p <= 0` returns false and `p >= 1` returns true **without
    /// consuming state**, so a disabled decision does not perturb the
    /// stream the enabled ones draw from.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.unit() < p
    }
}

/// Stateless 64-bit mix of independent coordinates — used to derive IQ
/// payloads from `(stream, round, leg)`, or one stream's seed from
/// another's, without any draw-order coupling.
pub fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(c.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chance_extremes_consume_no_state() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        assert!(!a.chance(0.0));
        assert!(a.chance(1.0));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unit_is_in_the_half_open_interval() {
        let mut r = SplitMix64::new(7);
        assert!((0..10_000).all(|_| (0.0..1.0).contains(&r.unit())));
    }
}
