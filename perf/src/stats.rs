//! The benchmark's own statistics: a fixed-resolution latency histogram
//! for per-call and per-frame times, the quiet cycle every timed phase
//! reports, and median / quartiles over the values of several runs.
//!
//! Deliberately not `rb_dataplane::stats::Histogram` (power-of-two
//! buckets: a p99 read from it is only known to a factor of two) nor
//! `rb_netsim::stats::LatencyStats` (keeps every sample): a timed phase
//! records tens of millions of samples and must neither allocate nor
//! sort while the clock runs.

/// Sub-buckets per power of two: values are resolved to 1/128 (< 0.8 %).
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values at or above 2^MAX_BITS ns (~18 min) share the last bucket.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as usize) * SUB;

/// A log-linear histogram of nanosecond samples.
///
/// Values below 128 have one bucket each; above that every power of two
/// is cut into 128 equal buckets, so a quantile is exact to 0.8 % of its
/// value. Recording is one `leading_zeros`, one shift and one increment.
#[derive(Clone)]
pub struct LatencyHist {
    counts: Vec<u32>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> LatencyHist {
        LatencyHist::new()
    }
}

impl LatencyHist {
    /// An empty histogram (allocates its buckets once, here).
    pub fn new() -> LatencyHist {
        LatencyHist { counts: vec![0; BUCKETS], total: 0 }
    }

    fn bucket_of(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let bits = 64 - v.leading_zeros(); // >= SUB_BITS + 1
        let shift = bits - 1 - SUB_BITS;
        let octave = (shift + 1) as usize;
        let sub = ((v >> shift) as usize) & (SUB - 1);
        (octave * SUB + sub).min(BUCKETS - 1)
    }

    /// The half-open value range `[lo, hi)` bucket `b` covers.
    fn bounds_of(b: usize) -> (u64, u64) {
        let octave = b / SUB;
        let sub = (b % SUB) as u64;
        if octave == 0 {
            return (sub, sub + 1);
        }
        let shift = (octave - 1) as u32;
        let lo = (SUB as u64 + sub) << shift;
        (lo, lo + (1u64 << shift))
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Forget every sample, keeping the allocation.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Add `other`'s samples to `self`.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`q` in 0..=1) of the samples, interpolated
    /// linearly inside the bucket that holds it; 0 when empty.
    ///
    /// The rank is `q × (n − 1)` over the sorted samples — the convention
    /// of `numpy.percentile` — so `quantile(0.5)` of `[1, 2, 3]` is 2.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = seen + u64::from(c);
            if rank < next as f64 {
                let (lo, hi) = Self::bounds_of(b);
                // Spread the bucket's samples evenly over its range.
                let within = (rank - seen as f64 + 0.5) / f64::from(c);
                return lo as f64 + within * (hi - lo - 1) as f64;
            }
            seen = next;
        }
        Self::bounds_of(BUCKETS - 1).0 as f64
    }

    /// How many samples lie strictly above the `q`-quantile's bucket —
    /// the "samples beyond" a reported percentile must have ten of.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut seen = 0u64;
        for &c in &self.counts {
            seen += u64::from(c);
            if rank < seen as f64 {
                return self.total - seen;
            }
        }
        0
    }
}

/// The `q`-quantile (`q` in 0..=1) of `values`, interpolated linearly
/// between neighbours; 0 for an empty slice.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else { return 0.0 };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let j = (pos.floor() as usize).min(last);
    let next = v[(j + 1).min(last)];
    v[j] + (pos - j as f64) * (next - v[j])
}

/// The quiet level of a traced pass's segment means: the lower quartile.
///
/// On shared hardware the disturbance is one-sided — a neighbour on the
/// sibling hyperthread or a descheduled thread only ever makes a segment
/// slower — so the level of the quiet quarter stays put where a median
/// follows the host's mood. Used for the per-layer table only; the
/// end-to-end metrics use [`QuietCycle`].
pub fn quiet_cost(segment_costs: &[f64]) -> f64 {
    quantile_of(segment_costs, 0.25)
}

/// The quantile of a piece's repetitions that counts as its quiet level:
/// with fifty repetitions, the second fastest. Not the fastest: where two
/// threads hand work to each other a repetition can also be luckily fast
/// (both threads happened to share one core and its cache), and of six
/// hundred repetitions of a short piece the very fastest is an extreme that
/// moves more between runs than the twelfth. Not higher either: in a bad
/// minute the neighbour leaves few repetitions alone (README.md, "The quiet
/// cycle", has the spreads measured at 0, 2, 5, 10, 25 and 50 %).
pub const QUIET: f64 = 0.02;

/// One replay cycle cut into pieces, each measured every time the cycle
/// comes round; what is reported is the *quiet cycle*: for every piece the
/// quiet level over its repetitions, summed over the pieces.
///
/// The host this benchmark was built on has two states that alternate at
/// every time scale from a millisecond to a minute: a physical core to
/// itself, or shared with a busy neighbour, when the same instructions take
/// 1.7x as long (the thread's CPU clock included, so it is not time
/// withheld; a dependent chain of multiplies keeps its speed, so it is not
/// frequency either). A level taken over windows of 100 ms — the median,
/// then the lower quartile — followed whichever state filled most of the
/// run: identical runs read 26 and 44 us. A millisecond-long piece,
/// though, meets the quiet state in some of its repetitions even in a bad
/// minute, and because every repetition of a piece is the same frames, the
/// quiet repetitions of different pieces add up to one cycle that no single
/// pass ever ran undisturbed. A change to the program moves every
/// repetition of the pieces it touches, the quiet ones too.
#[derive(Debug, Clone, Default)]
pub struct QuietCycle {
    /// `(weight, costs of the repetitions)` per piece.
    pieces: Vec<(f64, Vec<f64>)>,
}

impl QuietCycle {
    /// A cycle of pieces with these weights (frames of each piece; 1 where
    /// pieces are not averaged per frame).
    pub fn new(weights: impl IntoIterator<Item = f64>) -> QuietCycle {
        QuietCycle { pieces: weights.into_iter().map(|w| (w, Vec::new())).collect() }
    }

    /// Number of pieces.
    pub fn len(&self) -> usize {
        self.pieces.len()
    }

    /// No pieces at all.
    pub fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }

    /// One repetition of `piece` cost `cost`.
    pub fn record(&mut self, piece: usize, cost: f64) {
        self.pieces[piece].1.push(cost);
    }

    /// Add `other`'s repetitions, piece by piece, to `self`'s.
    pub fn absorb(&mut self, other: &QuietCycle) {
        assert_eq!(self.len(), other.len(), "the same cycle");
        for ((_, mine), (_, theirs)) in self.pieces.iter_mut().zip(&other.pieces) {
            mine.extend_from_slice(theirs);
        }
    }

    /// Fewest and most repetitions any piece has.
    pub fn repetitions(&self) -> (usize, usize) {
        let n = self.pieces.iter().map(|(_, c)| c.len());
        (n.clone().min().unwrap_or(0), n.max().unwrap_or(0))
    }

    /// Cost of the quiet cycle per unit of weight: the `q`-quantile of
    /// every measured piece's repetitions, summed, over their weights
    /// summed. `None` when no piece has a repetition. (A piece without one
    /// — a phase too short to come round — is left out of both sums.)
    pub fn per_weight(&self, q: f64) -> Option<f64> {
        let measured = self.pieces.iter().filter(|(_, c)| !c.is_empty());
        let (cost, weight) = measured
            .fold((0.0, 0.0), |(cost, weight), (w, c)| (cost + quantile_of(c, q), weight + w));
        (weight > 0.0).then(|| cost / weight)
    }

    /// Cost of the whole quiet cycle: [`QuietCycle::per_weight`] times the
    /// weight of all pieces.
    pub fn total(&self, q: f64) -> Option<f64> {
        let all: f64 = self.pieces.iter().map(|(w, _)| w).sum();
        self.per_weight(q).map(|c| c * all)
    }
}

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` of `values` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)` — the routine the acceptance check
/// of this benchmark uses, so spreads printed here match spreads computed
/// there. Fewer than two values give that value (or 0) three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |k: usize| -> f64 {
                // Position k·(n+1)/4 in 1-based ranks, clamped to the data.
                let pos = k as f64 * (n + 1) as f64 / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - j as f64;
                v[j - 1] + frac * (v[j] - v[j - 1])
            };
            (at(1), at(2), at(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHist::new();
        for v in [1u64, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.quantile(0.5) - 2.0).abs() < 1e-9, "{}", h.quantile(0.5));
        assert!((h.quantile(0.0) - 1.0).abs() < 1e-9);
        assert!((h.quantile(1.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn buckets_tile_the_value_range() {
        // Every value lands in the bucket whose bounds contain it, and
        // consecutive buckets touch.
        let mut prev_hi = 0u64;
        for b in 0..4000 {
            let (lo, hi) = LatencyHist::bounds_of(b);
            assert_eq!(lo, prev_hi, "bucket {b} leaves a gap");
            assert_eq!(LatencyHist::bucket_of(lo), b);
            assert_eq!(LatencyHist::bucket_of(hi - 1), b);
            prev_hi = hi;
        }
        assert_eq!(LatencyHist::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_of_a_uniform_ramp_are_within_resolution() {
        let mut h = LatencyHist::new();
        let n = 100_000u64;
        for k in 0..n {
            h.record(1_000 + k * 10); // 1 µs .. 1.001 ms
        }
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let exact = 1_000.0 + q * (n - 1) as f64 * 10.0;
            let got = h.quantile(q);
            assert!((got - exact).abs() / exact < 0.008, "q={q}: got {got}, exact {exact}");
        }
        assert_eq!(h.samples_beyond(1.0), 0);
        let beyond = h.samples_beyond(0.99);
        assert!((900..=1_000).contains(&beyond), "about 1 % lies beyond p99: {beyond}");
    }

    #[test]
    fn bimodal_p99_reads_the_slow_mode() {
        // The das_ul shape: three cheap calls for every expensive one.
        let mut h = LatencyHist::new();
        for k in 0..40_000u64 {
            h.record(if k % 4 == 3 { 60_000 + k % 500 } else { 900 + k % 50 });
        }
        assert!(h.quantile(0.5) < 1_000.0);
        assert!(h.quantile(0.99) > 59_000.0);
    }

    #[test]
    fn merge_and_clear() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        a.record(10);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.quantile(1.0) - 30.0).abs() < 1e-9);
        a.clear();
        assert_eq!(a.count(), 0);
        assert_eq!(a.quantile(0.5), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quiet_cost(&[]), 0.0);
        assert_eq!(quiet_cost(&[7.0]), 7.0);
        assert_eq!(quantile_of(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(quantile_of(&[1.0, 2.0], 1.0), 2.0);
        assert_eq!(quantile_of(&[3.0, 1.0, 2.0], 0.0), 1.0);
    }

    #[test]
    fn the_quiet_cycle_is_assembled_from_each_pieces_quiet_repetitions() {
        // Three pieces of 10, 20 and 30 frames costing 1 ns a frame, each
        // repeated five times; a neighbour slows a different repetition of
        // each piece by 1.7x, and no pass over the cycle is undisturbed.
        let mut c = QuietCycle::new([10.0, 20.0, 30.0]);
        for rep in 0..5 {
            for (piece, frames) in [10.0, 20.0, 30.0].into_iter().enumerate() {
                let slow = (rep + piece) % 5 != 0;
                c.record(piece, if slow { frames * 1.7 } else { frames });
            }
        }
        assert_eq!(c.repetitions(), (5, 5));
        assert_eq!(c.per_weight(0.0), Some(1.0));
        assert_eq!(c.total(0.0), Some(60.0));
        assert!((c.per_weight(0.5).unwrap() - 1.7).abs() < 1e-12, "the median follows the host");
        // A piece never measured is left out of cost and weight alike.
        let mut short = QuietCycle::new([10.0, 20.0]);
        assert_eq!((short.per_weight(0.0), short.len()), (None, 2));
        short.record(1, 40.0);
        assert_eq!(short.per_weight(0.0), Some(2.0));
        assert_eq!(short.total(0.0), Some(60.0));
        assert_eq!(short.repetitions(), (0, 1));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }
}
