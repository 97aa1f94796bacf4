//! Fast IQ payload synthesis.
//!
//! Emulated DUs and RUs fill U-plane payloads at fronthaul line rate
//! (hundreds of thousands of PRBs per simulated second). Sample-exact
//! content only matters in aggregate — energy, BFP exponent, and the
//! element-wise-sum behaviour the DAS middlebox exercises — so payloads
//! are built from a small cache of precompressed PRB templates:
//!
//! * a zero template (idle spectrum, exponent 0);
//! * per-amplitude-bucket signal templates (constant-modulus tones with a
//!   per-subcarrier phase ramp — realistic exponents, non-trivial sums);
//! * a handful of Gaussian noise templates (what an RU hears on
//!   unoccupied uplink PRBs).

use std::collections::HashMap;

use rb_fronthaul::bfp::{compress_prb_wire, CompressionMethod};
use rb_fronthaul::iq::{IqSample, Prb, SAMPLES_PER_PRB};
use rb_netsim::rng::SplitMix64;

/// Number of distinct noise templates kept.
const NOISE_VARIANTS: usize = 8;

/// A cache of precompressed PRB wire templates for one compression method.
pub struct PrbTemplates {
    method: CompressionMethod,
    zero: Vec<u8>,
    signal: HashMap<u16, Vec<u8>>,
    noise: Vec<Vec<u8>>,
    noise_cursor: usize,
    rng: SplitMix64,
    noise_sigma: f64,
}

impl PrbTemplates {
    /// Build a template cache. `noise_sigma` is the per-component standard
    /// deviation of the uplink noise floor in Q15 counts.
    pub fn new(method: CompressionMethod, noise_sigma: f64, seed: u64) -> PrbTemplates {
        let mut rng = SplitMix64::new(seed);
        let zero = compress(&Prb::ZERO, method);
        let noise = (0..NOISE_VARIANTS)
            .map(|_| compress(&noise_prb(&mut rng, noise_sigma), method))
            .collect();
        PrbTemplates {
            method,
            zero,
            signal: HashMap::new(),
            noise,
            noise_cursor: 0,
            rng,
            noise_sigma,
        }
    }

    /// The compression method templates are encoded with.
    pub fn method(&self) -> CompressionMethod {
        self.method
    }

    /// On-wire bytes per PRB.
    pub fn wire_bytes(&self) -> usize {
        self.method.prb_wire_bytes()
    }

    /// The idle (all-zero) PRB template.
    pub fn zero(&self) -> &[u8] {
        &self.zero
    }

    /// A signal PRB template of roughly amplitude `amp` (Q15 counts).
    /// Amplitudes are bucketed at ~1 dB granularity; templates are built
    /// lazily and cached.
    pub fn signal(&mut self, amp: f64) -> &[u8] {
        let amp = amp.clamp(1.0, 30_000.0);
        // ~1 dB log bucket.
        let bucket = (20.0 * amp.log10() * 1.0).round() as u16;
        let method = self.method;
        let rng = &mut self.rng;
        self.signal.entry(bucket).or_insert_with(|| {
            let real_amp = 10f64.powf(bucket as f64 / 20.0);
            compress(&tone_prb(real_amp, rng.unit() * std::f64::consts::TAU), method)
        })
    }

    /// A (rotating) noise PRB template.
    pub fn noise(&mut self) -> &[u8] {
        self.noise_cursor = (self.noise_cursor + 1) % self.noise.len();
        &self.noise[self.noise_cursor]
    }

    /// A signal-plus-noise template: signal when `amp` clears the noise
    /// floor meaningfully, otherwise noise.
    pub fn fill(&mut self, amp: f64) -> &[u8] {
        if amp >= self.noise_sigma * 2.0 {
            self.signal(amp)
        } else {
            self.noise()
        }
    }
}

/// A constant-modulus tone PRB: amplitude `amp`, per-subcarrier phase ramp
/// starting at `phase0`.
pub fn tone_prb(amp: f64, phase0: f64) -> Prb {
    let mut prb = Prb::ZERO;
    for (k, s) in prb.0.iter_mut().enumerate() {
        let phase = phase0 + k as f64 * 0.83;
        *s = IqSample::new(
            (amp * phase.cos()).round().clamp(-32768.0, 32767.0) as i16,
            (amp * phase.sin()).round().clamp(-32768.0, 32767.0) as i16,
        );
    }
    prb
}

/// A Gaussian-ish noise PRB with per-component deviation `sigma`
/// (Irwin–Hall approximation — no external distributions needed).
pub fn noise_prb(rng: &mut SplitMix64, sigma: f64) -> Prb {
    let mut prb = Prb::ZERO;
    let gauss = |rng: &mut SplitMix64| -> f64 {
        let sum: f64 = (0..12).map(|_| rng.unit()).sum();
        (sum - 6.0) * sigma
    };
    for s in prb.0.iter_mut() {
        *s = IqSample::new(
            gauss(rng).round().clamp(-32768.0, 32767.0) as i16,
            gauss(rng).round().clamp(-32768.0, 32767.0) as i16,
        );
    }
    prb
}

fn compress(prb: &Prb, method: CompressionMethod) -> Vec<u8> {
    let mut buf = vec![0u8; method.prb_wire_bytes()];
    compress_prb_wire(prb, method, &mut buf).expect("template compression");
    buf
}

/// Mean per-sample energy of a decoded PRB (for decode thresholds).
pub fn prb_mean_energy(prb: &Prb) -> f64 {
    prb.energy() as f64 / SAMPLES_PER_PRB as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_fronthaul::bfp::decompress_prb_wire;

    fn templates() -> PrbTemplates {
        PrbTemplates::new(CompressionMethod::BFP9, 40.0, 42)
    }

    #[test]
    fn zero_template_has_zero_exponent() {
        let t = templates();
        assert_eq!(t.zero()[0] & 0x0f, 0);
        let (prb, _, _) = decompress_prb_wire(t.zero(), CompressionMethod::BFP9).unwrap();
        assert!(prb.is_zero());
    }

    #[test]
    fn signal_templates_scale_exponent_with_amplitude() {
        let mut t = templates();
        let weak = t.signal(100.0)[0] & 0x0f;
        let strong = t.signal(8000.0)[0] & 0x0f;
        assert!(strong > weak, "strong {strong} weak {weak}");
        // 8000 needs 14 bits incl. sign → exponent 5 with 9-bit mantissas.
        assert!(strong >= 4);
    }

    #[test]
    fn signal_energy_tracks_amplitude() {
        let mut t = templates();
        let bytes = t.signal(2000.0).to_vec();
        let (prb, _, _) = decompress_prb_wire(&bytes, CompressionMethod::BFP9).unwrap();
        let rms = prb_mean_energy(&prb).sqrt();
        assert!((rms - 2000.0).abs() < 300.0, "rms {rms}");
    }

    #[test]
    fn noise_templates_have_low_exponent() {
        // σ=40 noise must compress with exponent ≤ 2 (the Algorithm 1
        // uplink idle criterion).
        let mut t = templates();
        for _ in 0..NOISE_VARIANTS {
            let exp = t.noise()[0] & 0x0f;
            assert!(exp <= 2, "noise exponent {exp}");
        }
    }

    #[test]
    fn fill_picks_signal_or_noise() {
        let mut t = templates();
        let sig_exp = t.fill(4000.0)[0] & 0x0f;
        assert!(sig_exp >= 4);
        let noise_exp = t.fill(10.0)[0] & 0x0f;
        assert!(noise_exp <= 2);
    }

    #[test]
    fn templates_are_cached() {
        let mut t = templates();
        let a = t.signal(1000.0).to_vec();
        let b = t.signal(1001.0).to_vec(); // same 1 dB bucket
        assert_eq!(a, b);
        assert_eq!(t.signal.len(), 1);
    }

    #[test]
    fn uncompressed_method_works_too() {
        let mut t = PrbTemplates::new(CompressionMethod::NoCompression, 40.0, 1);
        assert_eq!(t.wire_bytes(), 48);
        assert_eq!(t.zero().len(), 48);
        assert_eq!(t.signal(3000.0).len(), 48);
    }

    #[test]
    fn tone_prb_is_constant_modulus() {
        let prb = tone_prb(1000.0, 0.3);
        for s in prb.0.iter() {
            let mag = ((s.i as f64).powi(2) + (s.q as f64).powi(2)).sqrt();
            assert!((mag - 1000.0).abs() < 2.0);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = PrbTemplates::new(CompressionMethod::BFP9, 40.0, 9);
        let mut b = PrbTemplates::new(CompressionMethod::BFP9, 40.0, 9);
        assert_eq!(a.signal(2500.0), b.signal(2500.0));
        assert_eq!(a.noise(), b.noise());
    }
}
