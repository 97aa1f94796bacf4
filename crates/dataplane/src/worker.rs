//! The per-core worker loop.
//!
//! Each worker owns one ingress ring, one egress ring, and one private
//! [`MbPipeline`] — its own middlebox instance, symbol cache and sequence
//! state. Because the dispatcher hashes whole flows onto workers, no flow
//! state is ever shared between threads: the caches need no locks and the
//! per-(destination, eAxC) sequence counters stay strictly monotonic, the
//! same invariants the simulator provides for free by being
//! single-threaded.

use rb_core::middlebox::Middlebox;
use rb_core::pipeline::MbPipeline;
use rb_core::telemetry::{counters, TelemetrySender};
use rb_hotpath_macros::rb_hot_path;
use rb_netsim::time::SimTime;

use crate::io::RawFrame;
use crate::pool::BufferPool;
use crate::ring::{PushOutcome, RingConsumer, RingProducer};
use crate::stats::{WorkerReport, WorkerStats};

/// After this many empty polls the worker stops spinning and yields the
/// core between polls.
const SPIN_LIMIT: u32 = 64;

/// Run worker `id` until its ingress ring closes and drains: dequeue in
/// batches, run every frame through the pipeline at its capture
/// timestamp, push emissions onto the egress ring. Returns the worker's
/// report; final stats are exported through `telemetry` before returning.
#[rb_hot_path]
pub fn run<M: Middlebox>(
    id: usize,
    mut pipeline: MbPipeline<M>,
    rx: RingConsumer<RawFrame>,
    tx: RingProducer<RawFrame>,
    batch: usize,
    telemetry: TelemetrySender,
) -> WorkerReport {
    let batch = batch.max(1);
    let mut stats = WorkerStats::default();
    // Egress payloads cycle through this pool: the collector (or the
    // ring's shed policy) drops each frame after transmit, which returns
    // its buffer here. Sized so a full egress ring plus one in-flight
    // batch never forces a steady-state allocation.
    let pool = BufferPool::new(tx.capacity().saturating_add(batch));
    let mut buf: Vec<RawFrame> = Vec::with_capacity(batch);
    let mut idle_polls = 0u32;
    let mut last_at_ns = 0u64;
    loop {
        buf.clear();
        let n = rx.pop_batch(&mut buf, batch);
        if n == 0 {
            if rx.is_finished() {
                break;
            }
            idle_polls = idle_polls.saturating_add(1);
            if idle_polls > SPIN_LIMIT {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        idle_polls = 0;
        counters::bump(&mut stats.batches);
        stats.batch_size.record(counters::as_count(n));
        stats.queue_depth.record(counters::as_count(rx.len()));
        for f in buf.drain(..) {
            let at_ns = f.at_ns;
            last_at_ns = at_ns;
            let mut txed = 0u64;
            pipeline.process(SimTime(at_ns), &f.bytes, &mut |bytes: &[u8]| {
                let mut out = pool.take();
                out.copy_from(bytes);
                if tx.push(RawFrame { at_ns, bytes: out }) != PushOutcome::Closed {
                    txed = txed.saturating_add(1);
                }
            });
            counters::bump(&mut stats.rx);
            counters::bump_by(&mut stats.tx, txed);
        }
    }
    stats.pool_grows = pool.grows();
    stats.rx_ring_dropped = rx.dropped();
    stats.tx_ring_dropped = tx.dropped();
    // A worker that saw no frames has no clock: `last_at_ns` never left
    // the capture epoch, so stamping its (all-zero) shutdown export at
    // t = 0 would fabricate records dated before the run. Skip the export
    // instead — the WorkerReport still carries the zeros to the caller.
    if stats.rx > 0 {
        stats.export(&telemetry, last_at_ns);
        crate::stats::export_pipeline(&pipeline.stats, &telemetry, last_at_ns);
        telemetry.count(last_at_ns, "telemetry_dropped", telemetry.dropped());
    }
    tx.close();
    WorkerReport { id, stats, pipeline: pipeline.stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::middlebox::Passthrough;
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
    use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
    use rb_fronthaul::ether::EthernetAddress;
    use rb_fronthaul::msg::{Body, FhMessage};
    use rb_fronthaul::timing::SymbolId;
    use rb_fronthaul::Direction;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    fn cplane_bytes(dst: EthernetAddress) -> Vec<u8> {
        FhMessage::new(
            mac(1),
            dst,
            Eaxc::port(0),
            0,
            Body::CPlane(CPlaneRepr::single(
                Direction::Downlink,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, 0, 10, 1),
            )),
        )
        .to_bytes(&EaxcMapping::DEFAULT)
        .unwrap()
    }

    #[test]
    fn worker_processes_and_reports() {
        let (in_tx, in_rx) = crate::ring::ring(64);
        let (out_tx, out_rx) = crate::ring::ring(64);
        for k in 0..5u64 {
            in_tx.push(RawFrame { at_ns: k * 1000, bytes: cplane_bytes(mac(10)).into() });
        }
        in_tx.push(RawFrame { at_ns: 9000, bytes: vec![0u8; 9].into() }); // runt
        in_tx.close();
        let pipeline = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        let report = run(0, pipeline, in_rx, out_tx, 4, TelemetrySender::disconnected("w0"));
        assert_eq!(report.stats.rx, 6);
        assert_eq!(report.stats.tx, 5);
        assert_eq!(report.pipeline.parse_errors, 1);
        assert!(report.stats.batches >= 2, "6 frames at batch=4 is >=2 batches");
        let mut out = Vec::new();
        out_rx.pop_batch(&mut out, 64);
        assert_eq!(out.len(), 5);
        assert!(out_rx.is_finished(), "worker closes its egress ring");
        // Frames keep their ingress timestamps.
        assert_eq!(out[0].at_ns, 0);
        assert_eq!(out[4].at_ns, 4000);
    }

    #[test]
    fn idle_worker_exports_no_epoch_stamped_telemetry() {
        // Regression: a worker that never dequeued a frame exported its
        // final stats (and telemetry_dropped) at at_ns = 0 — the capture
        // epoch — because last_at_ns never advanced. It must now skip the
        // export entirely rather than fabricate epoch-dated records.
        let (in_tx, in_rx) = crate::ring::ring(8);
        let (out_tx, _out_rx) = crate::ring::ring(8);
        in_tx.close();
        let (tele_tx, tele_rx) = rb_core::telemetry::channel("dp");
        let pipeline = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        let report = run(0, pipeline, in_rx, out_tx, 4, tele_tx.with_source("dp/w0"));
        assert_eq!(report.stats.rx, 0);
        assert!(tele_rx.drain().is_empty(), "idle worker must export nothing");
        // A worker that did see frames still exports, stamped at the last
        // frame it processed.
        let (in_tx, in_rx) = crate::ring::ring(8);
        let (out_tx, _out_rx) = crate::ring::ring(8);
        in_tx.push(RawFrame { at_ns: 7_000, bytes: cplane_bytes(mac(10)).into() });
        in_tx.close();
        let pipeline = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        let report = run(1, pipeline, in_rx, out_tx, 4, tele_tx.with_source("dp/w1"));
        assert_eq!(report.stats.rx, 1);
        let records = tele_rx.drain();
        assert!(!records.is_empty());
        assert!(
            records.iter().all(|r| r.at_ns == 7_000),
            "shutdown export carries the last frame's timestamp, not the epoch"
        );
    }

    #[test]
    fn egress_pool_grows_stay_bounded_under_load() {
        // Many more frames than egress slots: the collector drains while
        // the worker runs, so buffers recycle and the pool only grows to
        // roughly cover the in-flight window — never once per frame.
        const FRAMES: u64 = 500;
        const EGRESS: usize = 8;
        let (in_tx, in_rx) = crate::ring::ring(1024);
        let (out_tx, out_rx) = crate::ring::ring(EGRESS);
        for k in 0..FRAMES {
            in_tx.push(RawFrame { at_ns: k * 1000, bytes: cplane_bytes(mac(10)).into() });
        }
        in_tx.close();
        let pipeline = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        let collector = std::thread::spawn(move || {
            let mut drained = 0u64;
            let mut buf = Vec::new();
            loop {
                buf.clear();
                let n = out_rx.pop_batch(&mut buf, 64);
                drained += n as u64;
                if n == 0 {
                    if out_rx.is_finished() {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
            drained
        });
        let report = run(0, pipeline, in_rx, out_tx, 32, TelemetrySender::disconnected("w0"));
        let drained = collector.join().unwrap();
        assert_eq!(report.stats.rx, FRAMES);
        assert_eq!(report.stats.tx, drained + report.stats.tx_ring_dropped);
        let bound = (EGRESS + 32 + 1) as u64;
        assert!(
            report.stats.pool_grows <= bound,
            "pool grew {} times for {} frames (bound {})",
            report.stats.pool_grows,
            FRAMES,
            bound
        );
        assert!(report.stats.pool_grows >= 1, "the pool started cold");
    }
}
