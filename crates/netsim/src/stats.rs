//! The workspace's one sample summary: a bounded log-linear histogram.
//!
//! Simulated per-packet latencies, measured handler wall-clock times and
//! the dataplane workers' batch sizes and queue depths all record into
//! [`Histogram`]. It is a fixed array of counters — no heap, constant size
//! however many samples arrive — so a reader may copy it out while the
//! writer keeps going, and per-thread instances [`merge`](Histogram::merge)
//! into a run-wide one after the threads have joined.

use rb_hotpath_macros::rb_hot_path;

/// Each power-of-two octave is split into `2^SUB_BITS` equal sub-buckets,
/// so a bucket is at most 1/16 as wide as the smallest value in it, and
/// values below `2 * SUB` get a bucket each (exact).
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// Values below `2^RANGE_BITS` keep that resolution (as nanoseconds:
/// 18 minutes); everything above shares the open last bucket.
const RANGE_BITS: u32 = 40;

/// Index of the last (open-ended) bucket: the first sub-bucket of the
/// octave starting at `2^RANGE_BITS`.
const BUCKET_LAST: usize = ((RANGE_BITS - SUB_BITS + 1) << SUB_BITS) as usize;

const BUCKETS: usize = BUCKET_LAST + 1;

/// The shift that brings a `u64` with bit 63 set down to `SUB_BITS + 1` bits.
const MAX_SHIFT: u32 = u64::BITS - 1 - SUB_BITS;

/// A log-linear histogram of `u64` samples with running count, sum and
/// maximum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Histogram {
    /// Bucket `s * SUB + m` holds the values whose top `SUB_BITS + 1` bits,
    /// after shifting `s` bits out, read `m`: `m << s ..= ((m + 1) << s) - 1`.
    fn bucket_of(v: u64) -> usize {
        // `v | SUB` has its top bit at position `SUB_BITS` or higher, so
        // the subtraction does not underflow; values below `2 * SUB` shift
        // by 0.
        let shift = MAX_SHIFT.saturating_sub((v | SUB).leading_zeros());
        let idx = u64::from(shift).wrapping_shl(SUB_BITS).saturating_add(v.wrapping_shr(shift));
        usize::try_from(idx).unwrap_or(BUCKET_LAST).min(BUCKET_LAST)
    }

    /// Largest value bucket `k` can hold; the open last bucket has none.
    fn upper_bound(k: usize) -> u64 {
        if k >= BUCKET_LAST {
            return u64::MAX;
        }
        // `k < BUCKET_LAST`, so `shift < RANGE_BITS - SUB_BITS` and
        // `m < 2 * SUB`: `(m + 1) << shift` is at most `2^RANGE_BITS`.
        let k = u32::try_from(k).unwrap_or(0);
        let shift = k.wrapping_shr(SUB_BITS).saturating_sub(1);
        let m = k.saturating_sub(shift.wrapping_shl(SUB_BITS));
        u64::from(m).saturating_add(1).wrapping_shl(shift).saturating_sub(1)
    }

    /// Record one sample.
    #[rb_hot_path]
    pub fn record(&mut self, v: u64) {
        if let Some(b) = self.buckets.get_mut(Self::bucket_of(v)) {
            *b = b.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample recorded.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// An upper bound on the q-quantile sample (`q` in 0..=1, the sample of
    /// rank `⌈q·count⌉`): the top of its bucket, so at most 1/16 above the
    /// sample itself, and never above [`max`](Histogram::max) — e.g.
    /// `quantile_bound(0.99)` bounds p99. 0 when empty.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (k, b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(*b);
            if seen >= rank.max(1) {
                return Self::upper_bound(k).min(self.max);
            }
        }
        self.max
    }

    /// Fold `other` into `self`: afterwards `self` describes the union of
    /// both sample populations. This is how per-worker histograms become
    /// a run-wide histogram — each worker records into its own private
    /// instance and the collector merges *after* the threads have joined,
    /// so no counter is ever shared (or even read) across live threads.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_bounds() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(1);
        }
        h.record(100);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_bound(0.5), 1);
        assert_eq!(h.quantile_bound(1.0), 100);
        assert_eq!(Histogram::default().quantile_bound(0.99), 0);
    }

    #[test]
    fn overflow_bucket_reports_true_max() {
        // Regression: a saturated last bucket must not report its lower
        // edge (or any fixed number) in place of the real value.
        let mut h = Histogram::default();
        h.record(1 << 50);
        assert_eq!(h.quantile_bound(0.99), 1 << 50);
        assert_eq!(h.quantile_bound(1.0), 1 << 50);
        // A mixed population whose p99 lands in the overflow bucket.
        let mut h = Histogram::default();
        for _ in 0..50 {
            h.record(1);
        }
        for _ in 0..50 {
            h.record(5 << 40);
        }
        assert_eq!(h.quantile_bound(0.99), 5 << 40);
        // Quantiles below the overflow bucket still use bucket bounds.
        assert_eq!(h.quantile_bound(0.25), 1);
        // The last value with full resolution, and the first without.
        assert_eq!(Histogram::bucket_of((1 << RANGE_BITS) - 1), BUCKET_LAST - 1);
        assert_eq!(Histogram::bucket_of(1 << RANGE_BITS), BUCKET_LAST);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKET_LAST);
    }

    #[test]
    fn mean_tracks_sum() {
        let mut h = Histogram::default();
        h.record(2);
        h.record(4);
        assert!((h.mean() - 3.0).abs() < f64::EPSILON);
    }

    #[test]
    fn merge_is_union_of_populations() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut whole = Histogram::default();
        for v in [0u64, 1, 3, 9] {
            a.record(v);
            whole.record(v);
        }
        for v in [2u64, 700, 1 << 20] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merged histogram equals recording everything into one");
        assert_eq!(a.max(), 1 << 20);
        assert!((a.mean() - whole.mean()).abs() < f64::EPSILON);
    }

    #[test]
    fn bimodal_distribution_like_figure_15b() {
        // 75 % of UL packets are cheap cache ops (< 300 ns), 25 % are
        // expensive merges (4–6 µs): both modes survive the bucketing.
        let mut h = Histogram::default();
        for _ in 0..75 {
            h.record(200);
        }
        for _ in 0..25 {
            h.record(5_000);
        }
        let p50 = h.quantile_bound(0.50);
        assert!((200..=200 + 200 / 16).contains(&p50), "p50 {p50}");
        assert!(h.quantile_bound(0.90) > 4_000);
    }
}
