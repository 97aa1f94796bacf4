//! Bit-at-a-time BFP reference codec: the bit-exactness oracle for the
//! fixed-width kernels in `rb_fronthaul::bfp`, which must produce the same
//! bytes for every width, input and exponent.
//!
//! It works on bare `[i16; 24]` component arrays (wire order I0, Q0, I1,
//! Q1, …) and byte slices, and names nothing from the crate, so the one
//! copy serves both the crate's unit tests (`#[cfg(test)] #[path]` from
//! `src/bfp.rs`) and the integration proptests (`mod` from
//! `tests/proptests.rs`). Callers pass widths in `1..=16`.

#![allow(dead_code)]

/// Smallest exponent such that every component, shifted right by it,
/// fits a signed `width`-bit mantissa — by trial, exponent by exponent.
pub fn exponent_for(v: &[i16; 24], width: u8) -> u8 {
    let limit_pos = (1i32 << (width - 1)) - 1;
    let limit_neg = -limit_pos - 1;
    for exp in 0u8..16 {
        if v.iter().all(|&c| (limit_neg..=limit_pos).contains(&(i32::from(c) >> exp))) {
            return exp;
        }
    }
    15
}

/// MSB-first bit packer: accumulates into a 64-bit buffer and spills
/// whole bytes; bytes past the end of `out` are dropped.
struct BitWriter<'a> {
    out: &'a mut [u8],
    byte: usize,
    acc: u64,
    acc_bits: u8,
}

impl BitWriter<'_> {
    fn write(&mut self, value: u32, bits: u8) {
        let mask = (1u64 << bits) - 1;
        self.acc = (self.acc << bits) | (u64::from(value) & mask);
        self.acc_bits += bits;
        while self.acc_bits >= 8 {
            self.acc_bits -= 8;
            if let Some(b) = self.out.get_mut(self.byte) {
                *b = (self.acc >> self.acc_bits) as u8;
            }
            self.byte += 1;
        }
    }

    /// Flush a trailing partial byte, MSB-aligned.
    fn finish(self) {
        if self.acc_bits > 0 {
            if let Some(b) = self.out.get_mut(self.byte) {
                *b = (self.acc << (8 - self.acc_bits)) as u8;
            }
        }
    }
}

/// MSB-first bit reader matching [`BitWriter`]; reads past the end of
/// `data` yield zero bits.
struct BitReader<'a> {
    data: &'a [u8],
    byte: usize,
    acc: u64,
    acc_bits: u8,
}

impl BitReader<'_> {
    fn read(&mut self, bits: u8) -> u32 {
        while self.acc_bits < bits {
            self.acc = (self.acc << 8) | u64::from(self.data.get(self.byte).copied().unwrap_or(0));
            self.byte += 1;
            self.acc_bits += 8;
        }
        self.acc_bits -= bits;
        ((self.acc >> self.acc_bits) & ((1u64 << bits) - 1)) as u32
    }
}

/// Compress 24 components into `3 × width` packed mantissa bytes;
/// returns the exponent.
pub fn compress(v: &[i16; 24], width: u8, out: &mut [u8]) -> u8 {
    let exp = exponent_for(v, width);
    let mut writer = BitWriter { out, byte: 0, acc: 0, acc_bits: 0 };
    for &c in v {
        writer.write((i32::from(c) >> exp) as u32, width);
    }
    writer.finish();
    exp
}

/// Decompress `3 × width` packed mantissa bytes with any `u8` exponent
/// (an `i32` shift wraps the amount modulo 32; the clamp pins the rest).
pub fn decompress(data: &[u8], width: u8, exponent: u8) -> [i16; 24] {
    let mut reader = BitReader { data, byte: 0, acc: 0, acc_bits: 0 };
    let sign_bit = 1u32 << (width - 1);
    let high_ones = u32::MAX.wrapping_shl(u32::from(width));
    let mut out = [0i16; 24];
    for c in &mut out {
        let raw = reader.read(width);
        let mantissa = (if raw & sign_bit != 0 { raw | high_ones } else { raw }) as i32;
        let value = mantissa.wrapping_shl(u32::from(exponent));
        *c = value.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16;
    }
    out
}
