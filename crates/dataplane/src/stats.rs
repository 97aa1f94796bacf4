//! Per-worker runtime statistics.
//!
//! Counters say *how much*; the two histograms say *how it felt*: the
//! batch-size histogram shows whether workers run saturated (full
//! batches) or poll-limited (singletons), and the queue-depth histogram
//! shows how close each ring came to shedding. Both are
//! [`rb_netsim::stats::Histogram`]s — recording is one `leading_zeros` and
//! a shift on the hot path — and both are exported over the bounded
//! telemetry channel at shutdown, with every pipeline counter.

use rb_core::pipeline::HostStats;
use rb_core::telemetry::TelemetrySender;
use rb_netsim::stats::Histogram;

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
        // Exhaustive on purpose: a new field is a compile error here, not
        // a total that silently reads zero.
        let WorkerStats {
            rx,
            tx,
            batches,
            rx_ring_dropped,
            tx_ring_dropped,
            pool_grows,
            batch_size,
            queue_depth,
        } = other;
        self.rx = self.rx.saturating_add(*rx);
        self.tx = self.tx.saturating_add(*tx);
        self.batches = self.batches.saturating_add(*batches);
        self.rx_ring_dropped = self.rx_ring_dropped.saturating_add(*rx_ring_dropped);
        self.tx_ring_dropped = self.tx_ring_dropped.saturating_add(*tx_ring_dropped);
        self.pool_grows = self.pool_grows.saturating_add(*pool_grows);
        self.batch_size.merge(batch_size);
        self.queue_depth.merge(queue_depth);
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

/// Export every pipeline counter over telemetry at worker shutdown, next
/// to the `dp_*` worker counters, so a frame the pipeline refused (rule
/// drop, MAC filter, parse or emit error) is visible to a
/// [`rb_core::telemetry::TelemetryReceiver`] and not only in the report.
pub fn export_pipeline(stats: &HostStats, telemetry: &TelemetrySender, at_ns: u64) {
    // Exhaustive on purpose: a new counter that is not exported here is a
    // compile error, not a reading telemetry never sees.
    let HostStats {
        rx,
        tx,
        parse_errors,
        not_for_us,
        rule_drops,
        emit_errors,
        seq_gaps,
        seq_dups,
        frames_corrupt,
        seq_untracked,
    } = *stats;
    telemetry.count(at_ns, "mb_rx", rx);
    telemetry.count(at_ns, "mb_tx", tx);
    telemetry.count(at_ns, "parse_errors", parse_errors);
    telemetry.count(at_ns, "not_for_us", not_for_us);
    telemetry.count(at_ns, "rule_drops", rule_drops);
    telemetry.count(at_ns, "emit_errors", emit_errors);
    telemetry.count(at_ns, "seq_gaps", seq_gaps);
    telemetry.count(at_ns, "seq_dups", seq_dups);
    telemetry.count(at_ns, "frames_corrupt", frames_corrupt);
    telemetry.count(at_ns, "seq_untracked", seq_untracked);
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
    use rb_core::telemetry::TelemetryEvent;

    #[test]
    fn worker_stats_merge_sums_every_field() {
        let mut a = WorkerStats {
            rx: 1,
            tx: 2,
            batches: 3,
            rx_ring_dropped: 4,
            tx_ring_dropped: 5,
            pool_grows: 6,
            ..WorkerStats::default()
        };
        a.batch_size.record(32);
        a.queue_depth.record(700);
        let mut sum = a.clone();
        sum.merge(&a);
        sum.merge(&WorkerStats::default());
        let mut want = WorkerStats {
            rx: 2,
            tx: 4,
            batches: 6,
            rx_ring_dropped: 8,
            tx_ring_dropped: 10,
            pool_grows: 12,
            ..WorkerStats::default()
        };
        for _ in 0..2 {
            want.batch_size.record(32);
            want.queue_depth.record(700);
        }
        assert_eq!(sum, want);
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

        let pipeline = HostStats { rule_drops: 4, seq_untracked: 9, ..HostStats::default() };
        export_pipeline(&pipeline, &tx, 456);
        let got = rx.drain();
        assert_eq!(got.len(), 10, "one counter per HostStats field");
        let has = |name, delta| {
            got.iter().any(|r| r.event == TelemetryEvent::Counter { name, delta } && r.at_ns == 456)
        };
        assert!(has("rule_drops", 4));
        assert!(has("seq_untracked", 9));
        assert!(has("mb_tx", 0), "zero counters are exported too");
    }
}
