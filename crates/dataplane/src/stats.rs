//! Per-worker runtime statistics.
//!
//! Counters say *how much*; the two histograms say *how it felt*: the
//! batch-size histogram shows whether workers run saturated (full
//! batches) or poll-limited (singletons), and the queue-depth histogram
//! shows how close each ring came to shedding. Both use power-of-two
//! buckets so recording is one `leading_zeros` on the hot path, and both
//! are exported over the bounded telemetry channel at shutdown.

use rb_core::pipeline::HostStats;
use rb_core::telemetry::TelemetrySender;
use rb_hotpath_macros::rb_hot_path;

/// Bucket count: value `v` lands in bucket `⌈log2(v+1)⌉`, clamped. Bucket
/// 0 holds zeros, bucket 1 holds ones, bucket k holds the inclusive range
/// `2^(k-1)..=2^k-1` (matching `bucket_of`: `bits(v) == k` exactly for
/// those values), the last bucket holds everything ≥ 2^(BUCKETS-2).
const BUCKETS: usize = 18;

/// Index of the last (open-ended) bucket.
const BUCKET_LAST: usize = BUCKETS - 1;

/// A power-of-two-bucketed histogram of small integer samples.
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
    fn bucket_of(v: u64) -> usize {
        // `leading_zeros()` never exceeds `u64::BITS`, so the subtraction
        // cannot underflow, and the result (≤ 64) converts exactly.
        let bits = u64::BITS.saturating_sub(v.leading_zeros());
        usize::try_from(bits).unwrap_or(BUCKET_LAST).min(BUCKET_LAST)
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

    /// Upper bound (inclusive) of the bucket containing the q-quantile
    /// sample (`q` in 0..=1) — e.g. `quantile_bound(0.99)` bounds p99.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (k, b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(*b);
            if seen >= rank.max(1) {
                return match k {
                    0 => 0,
                    // The last bucket is open-ended (everything ≥ its
                    // lower edge lands there), so its only honest upper
                    // bound is the actual maximum seen.
                    _ if k == BUCKET_LAST => self.max,
                    // `k < BUCKET_LAST = 17`, so the shift is in range and
                    // the shifted value is ≥ 2: no wrap on either step.
                    _ => 1u64.wrapping_shl(u32::try_from(k).unwrap_or(0)).wrapping_sub(1),
                };
            }
        }
        self.max
    }

    /// The raw bucket counts (bucket k counts samples in the inclusive
    /// range `2^(k-1)..=2^k-1`, matching `bucket_of`).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
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

/// Counters and histograms for one worker thread.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Frames dequeued from the ingress ring.
    pub rx: u64,
    /// Frames pushed onto the egress ring.
    pub tx: u64,
    /// Non-empty batches processed.
    pub batches: u64,
    /// Frames the ingress ring shed before we could dequeue them
    /// (drop-oldest overload policy).
    pub rx_ring_dropped: u64,
    /// Frames the egress ring shed before the collector drained them.
    pub tx_ring_dropped: u64,
    /// Times the worker's egress buffer pool had to heap-allocate because
    /// no recycled buffer was free (stable after warm-up when healthy).
    pub pool_grows: u64,
    /// Sizes of the non-empty batches dequeued.
    pub batch_size: Histogram,
    /// Ingress queue depth sampled after each batch dequeue.
    pub queue_depth: Histogram,
}

impl WorkerStats {
    /// Fold another worker's counters and histograms into `self` (see
    /// [`Histogram::merge`] for the aggregation model).
    pub fn merge(&mut self, other: &WorkerStats) {
        self.rx = self.rx.saturating_add(other.rx);
        self.tx = self.tx.saturating_add(other.tx);
        self.batches = self.batches.saturating_add(other.batches);
        self.rx_ring_dropped = self.rx_ring_dropped.saturating_add(other.rx_ring_dropped);
        self.tx_ring_dropped = self.tx_ring_dropped.saturating_add(other.tx_ring_dropped);
        self.pool_grows = self.pool_grows.saturating_add(other.pool_grows);
        self.batch_size.merge(&other.batch_size);
        self.queue_depth.merge(&other.queue_depth);
    }

    /// Export the final counters and histogram summaries as telemetry
    /// (attributed to the sender's source, i.e. one worker).
    pub fn export(&self, telemetry: &TelemetrySender, at_ns: u64) {
        telemetry.count(at_ns, "dp_rx", self.rx);
        telemetry.count(at_ns, "dp_tx", self.tx);
        telemetry.count(at_ns, "dp_batches", self.batches);
        telemetry.count(at_ns, "dp_rx_ring_dropped", self.rx_ring_dropped);
        telemetry.count(at_ns, "dp_tx_ring_dropped", self.tx_ring_dropped);
        telemetry.count(at_ns, "dp_pool_grows", self.pool_grows);
        telemetry.gauge(at_ns, "dp_batch_mean", self.batch_size.mean());
        telemetry.gauge(at_ns, "dp_batch_p99", self.batch_size.quantile_bound(0.99) as f64);
        telemetry.gauge(at_ns, "dp_depth_mean", self.queue_depth.mean());
        telemetry.gauge(at_ns, "dp_depth_p99", self.queue_depth.quantile_bound(0.99) as f64);
    }
}

/// Export a pipeline's impairment-facing counters — sequence gaps,
/// duplicates and corrupt frames — over telemetry at worker shutdown,
/// next to the `dp_*` worker counters.
pub fn export_pipeline(stats: &HostStats, telemetry: &TelemetrySender, at_ns: u64) {
    telemetry.count(at_ns, "seq_gaps", stats.seq_gaps);
    telemetry.count(at_ns, "seq_dups", stats.seq_dups);
    telemetry.count(at_ns, "frames_corrupt", stats.frames_corrupt);
}

/// Everything a worker hands back when it exits: its runtime counters and
/// the pipeline's datapath statistics.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker index (0-based).
    pub id: usize,
    /// Runtime-level counters and histograms.
    pub stats: WorkerStats,
    /// Pipeline-level counters (parses, MAC filtering, rule drops…).
    pub pipeline: HostStats,
}

/// Collector-side (caller-thread) accounting for one worker's egress
/// ring, indexed like `RuntimeReport::workers`. Kept separate from
/// [`WorkerStats`] because these counters are owned by the collector
/// thread, not the worker — together they close the per-worker
/// conservation identity:
///
/// `tx_frames + io_tx_errors + worker.tx_ring_dropped == worker.stats.tx`
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Frames the collector dequeued from this worker's egress ring.
    pub collected: u64,
    /// Of those, frames the backend accepted for transmit.
    pub tx_frames: u64,
    /// Of those, frames the backend refused.
    pub io_tx_errors: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.buckets()[0], 1, "one zero");
        assert_eq!(h.buckets()[1], 1, "one one");
        assert_eq!(h.buckets()[2], 2, "2 and 3");
        assert_eq!(h.buckets()[3], 2, "4 and 7");
        assert_eq!(h.buckets()[4], 1, "8");
    }

    #[test]
    fn quantile_bounds() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(1);
        }
        h.record(100);
        assert_eq!(h.quantile_bound(0.5), 1);
        assert!(h.quantile_bound(1.0) >= 100);
        assert_eq!(Histogram::default().quantile_bound(0.99), 0);
    }

    #[test]
    fn overflow_bucket_reports_true_max() {
        // Regression: the saturated last bucket used to report
        // `(1 << (BUCKETS-1)) - 1` = 131071 regardless of the real value.
        let mut h = Histogram::default();
        h.record(1 << 20);
        assert_eq!(h.quantile_bound(0.99), 1 << 20);
        assert_eq!(h.quantile_bound(1.0), 1 << 20);
        // A mixed population whose p99 lands in the overflow bucket.
        let mut h = Histogram::default();
        for _ in 0..50 {
            h.record(1);
        }
        for _ in 0..50 {
            h.record(5_000_000);
        }
        assert_eq!(h.quantile_bound(0.99), 5_000_000);
        // Quantiles below the overflow bucket still use power-of-two bounds.
        assert_eq!(h.quantile_bound(0.25), 1);
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

        let mut wa = WorkerStats { rx: 5, tx: 4, batches: 2, ..WorkerStats::default() };
        let wb = WorkerStats { rx: 7, tx: 7, tx_ring_dropped: 1, ..WorkerStats::default() };
        wa.merge(&wb);
        assert_eq!((wa.rx, wa.tx, wa.batches, wa.tx_ring_dropped), (12, 11, 2, 1));
    }

    #[test]
    fn export_emits_counters_and_gauges() {
        let (tx, rx) = rb_core::telemetry::channel("w0");
        let mut s = WorkerStats::default();
        s.rx = 10;
        s.batch_size.record(5);
        s.export(&tx, 123);
        let got = rx.drain();
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|r| &*r.source == "w0" && r.at_ns == 123));
    }
}
