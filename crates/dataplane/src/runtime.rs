//! Assembling dispatcher, rings and workers into a running dataplane.
//!
//! The caller's thread plays two roles at once — **dispatcher** (pull
//! batches from the [`FrameIo`] backend, hash each frame's flow onto a
//! worker ring) and **collector** (drain the workers' egress rings back
//! into the backend). Worker threads run [`crate::worker::run`]. Overload
//! anywhere sheds oldest-first inside the rings instead of ever blocking
//! ingress, and shutdown is a drain, not a guillotine: when the source
//! reports EOF the ingress rings are closed, workers finish what is
//! queued, and the collector keeps draining until every egress ring is
//! closed and empty.

use rb_core::mgmt::SharedRules;
use rb_core::middlebox::Middlebox;
use rb_core::pipeline::{HostStats, MbPipeline, SeqMode};
use rb_core::telemetry::{counters, TelemetrySender};
use rb_fronthaul::eaxc::EaxcMapping;
use rb_fronthaul::ether::EthernetAddress;

use crate::dispatch::{flow_key, shard};
use crate::io::{FrameIo, RawFrame, RxPoll};
use crate::ring::{ring, RingConsumer, RingProducer};
use crate::stats::{CollectorStats, WorkerReport};
use crate::worker;

/// Receive/dequeue batch size, in frames.
const BATCH: usize = 32;

/// Configuration of one runtime instance.
#[derive(Clone)]
pub struct RuntimeConfig {
    /// Worker threads (flow shards). Clamped to at least 1.
    pub workers: usize,
    /// Capacity of each dispatcher→worker and worker→collector ring.
    pub ring_capacity: usize,
    /// The MAC address the hosted middleboxes receive on (the VF filter).
    pub mac: EthernetAddress,
    /// The deployment's eAxC bit allocation.
    pub mapping: EaxcMapping,
    /// Telemetry channel; each worker emits under a `…/w<i>` source
    /// derived from it. `None` leaves telemetry disconnected.
    pub telemetry: Option<TelemetrySender>,
    /// A management rule table shared across all workers. `None` gives
    /// every worker its own (empty) table — the lock-free default.
    pub rules: Option<SharedRules>,
    /// Outgoing eCPRI sequence-number policy for every worker pipeline.
    /// The default [`SeqMode::Restamp`] keeps per-`(dst, eAxC)` counters
    /// *per worker instance*, so when two input flows emit towards the
    /// same `(dst, eAxC)` stream the stamped bytes depend on how flows
    /// shard onto workers. Recovery deployments and replay-equivalence
    /// harnesses that need worker-count-independent output bytes run
    /// [`SeqMode::Preserve`].
    pub seq_mode: SeqMode,
}

impl RuntimeConfig {
    /// Defaults: 1 worker, 1024-slot rings, default eAxC mapping, no
    /// telemetry.
    pub fn new(mac: EthernetAddress) -> RuntimeConfig {
        RuntimeConfig {
            workers: 1,
            ring_capacity: 1024,
            mac,
            mapping: EaxcMapping::DEFAULT,
            telemetry: None,
            rules: None,
            seq_mode: SeqMode::default(),
        }
    }

    /// Use `n` worker threads.
    pub fn with_workers(mut self, n: usize) -> RuntimeConfig {
        self.workers = n;
        self
    }

    /// Use rings of `capacity` slots.
    pub fn with_ring_capacity(mut self, capacity: usize) -> RuntimeConfig {
        self.ring_capacity = capacity;
        self
    }

    /// Attach a telemetry sender.
    pub fn with_telemetry(mut self, telemetry: TelemetrySender) -> RuntimeConfig {
        self.telemetry = Some(telemetry);
        self
    }

    /// Select the outgoing sequence-number policy (see
    /// [`RuntimeConfig::seq_mode`]).
    pub fn with_seq_mode(mut self, mode: SeqMode) -> RuntimeConfig {
        self.seq_mode = mode;
        self
    }
}

/// What a completed run did, end to end.
#[derive(Debug, Clone, Default)]
pub struct RuntimeReport {
    /// Frames pulled from the backend.
    pub rx_frames: u64,
    /// Frames handed to worker rings (equals `rx_frames` today; kept
    /// separate for backends that can drop pre-dispatch).
    pub dispatched: u64,
    /// Frames successfully transmitted through the backend.
    pub tx_frames: u64,
    /// Frames the backend refused to transmit.
    pub io_tx_errors: u64,
    /// Frames shed by ingress rings (drop-oldest overload policy).
    pub in_ring_dropped: u64,
    /// Frames shed by egress rings.
    pub out_ring_dropped: u64,
    /// Worker threads that terminated abnormally.
    pub worker_failures: u64,
    /// Per-worker reports, in worker-id order.
    pub workers: Vec<WorkerReport>,
    /// Collector-side per-worker egress accounting, indexed by worker id
    /// (same order as `workers`). `tx_frames`/`io_tx_errors` above are
    /// the sums of these lanes.
    pub collectors: Vec<CollectorStats>,
}

impl RuntimeReport {
    /// Aggregate of the per-worker runtime counters and histograms,
    /// merged after the worker threads joined — the run-wide view built
    /// without a single cross-thread shared counter.
    pub fn worker_totals(&self) -> crate::stats::WorkerStats {
        let mut t = crate::stats::WorkerStats::default();
        for w in &self.workers {
            t.merge(&w.stats);
        }
        t
    }

    /// Sum of the per-worker pipeline statistics.
    pub fn pipeline_totals(&self) -> HostStats {
        let mut t = HostStats::default();
        for w in &self.workers {
            t.merge(&w.pipeline);
        }
        t
    }
}

struct WorkerHandle {
    join: std::thread::JoinHandle<WorkerReport>,
    out: RingConsumer<RawFrame>,
}

/// The dataplane runtime. Stateless by itself — [`Runtime::run`] owns the
/// whole lifecycle of one execution.
pub struct Runtime;

impl Runtime {
    /// Run `io` to exhaustion through `cfg.workers` middlebox instances
    /// built by `factory` (called once per worker with the worker id).
    ///
    /// Blocks the calling thread, which acts as dispatcher and collector,
    /// until the source reports EOF and every in-flight frame has been
    /// processed or counted as shed. Only thread-spawn failures error.
    pub fn run<M, F, Io>(
        cfg: &RuntimeConfig,
        io: &mut Io,
        factory: F,
    ) -> std::io::Result<RuntimeReport>
    where
        M: Middlebox + Send,
        F: Fn(usize) -> M,
        Io: FrameIo + ?Sized,
    {
        let n = cfg.workers.max(1);
        let mut report = RuntimeReport::default();
        report.collectors = vec![CollectorStats::default(); n];
        let mut in_rings: Vec<RingProducer<RawFrame>> = Vec::with_capacity(n);
        let mut handles: Vec<WorkerHandle> = Vec::with_capacity(n);
        for id in 0..n {
            let (in_tx, in_rx) = ring(cfg.ring_capacity);
            let (out_tx, out_rx) = ring(cfg.ring_capacity);
            let mut pipeline = MbPipeline::new(factory(id), cfg.mac);
            pipeline.set_mapping(cfg.mapping);
            pipeline.set_seq_mode(cfg.seq_mode);
            if let Some(rules) = &cfg.rules {
                pipeline.set_rules(rules.clone());
            }
            let telemetry = match &cfg.telemetry {
                Some(t) => {
                    let t = t.with_source(format!("dp/w{id}"));
                    pipeline.set_telemetry(t.clone());
                    t
                }
                None => TelemetrySender::disconnected(format!("dp/w{id}")),
            };
            let join = std::thread::Builder::new()
                .name(format!("rb-dp-w{id}"))
                .spawn(move || worker::run(id, pipeline, in_rx, out_tx, BATCH, telemetry))?;
            in_rings.push(in_tx);
            handles.push(WorkerHandle { join, out: out_rx });
        }

        // Dispatch until the source is exhausted, draining egress as we go
        // so the collector never falls a full run behind. Both scratch
        // buffers live for the whole run — the loop itself allocates
        // nothing per iteration.
        let mut rx_buf: Vec<RawFrame> = Vec::with_capacity(BATCH);
        let mut drain_buf: Vec<RawFrame> = Vec::with_capacity(BATCH);
        loop {
            rx_buf.clear();
            match io.rx_batch(&mut rx_buf, BATCH) {
                RxPoll::Eof => break,
                RxPoll::Idle => {
                    if Self::drain(&mut handles, io, &mut drain_buf, &mut report) == 0 {
                        std::thread::yield_now();
                    }
                }
                RxPoll::Ready(_) => {
                    for f in rx_buf.drain(..) {
                        report.rx_frames += 1;
                        let w = flow_key(&f.bytes).map_or(0, |k| shard(k, n));
                        if let Some(r) = in_rings.get(w) {
                            r.push(f);
                            report.dispatched += 1;
                        }
                    }
                    Self::drain(&mut handles, io, &mut drain_buf, &mut report);
                }
            }
        }

        // Shutdown: close ingress, keep collecting until every worker has
        // drained its queue and closed its egress ring.
        for r in &in_rings {
            report.in_ring_dropped += r.dropped();
            r.close();
        }
        loop {
            let drained = Self::drain(&mut handles, io, &mut drain_buf, &mut report);
            if drained == 0 && handles.iter().all(|h| h.out.is_finished()) {
                break;
            }
            if drained == 0 {
                std::thread::yield_now();
            }
        }
        for h in handles {
            report.out_ring_dropped += h.out.dropped();
            match h.join.join() {
                Ok(w) => report.workers.push(w),
                Err(_) => report.worker_failures += 1,
            }
        }
        report.workers.sort_by_key(|w| w.id);
        Ok(report)
    }

    /// Move frames from every egress ring into the backend, one
    /// [`FrameIo::tx_batch`] call per non-empty ring dequeue; returns how
    /// many were moved. `buf` is the caller's reusable scratch.
    fn drain<Io: FrameIo + ?Sized>(
        handles: &mut [WorkerHandle],
        io: &mut Io,
        buf: &mut Vec<RawFrame>,
        report: &mut RuntimeReport,
    ) -> usize {
        let mut moved = 0usize;
        for (lane, h) in handles.iter_mut().enumerate() {
            buf.clear();
            let n = h.out.pop_batch(buf, BATCH);
            if n == 0 {
                continue;
            }
            moved = moved.saturating_add(n);
            let offered = counters::as_count(buf.len());
            let sent = counters::as_count(io.tx_batch(buf));
            buf.clear(); // contract says empty already; stay safe if not
            let sent = sent.min(offered);
            let errs = offered.saturating_sub(sent);
            counters::bump_by(&mut report.tx_frames, sent);
            counters::bump_by(&mut report.io_tx_errors, errs);
            // Handles sit in worker-id order, so `lane` attributes this
            // drain to the worker whose egress ring it came from.
            if let Some(c) = report.collectors.get_mut(lane) {
                counters::bump_by(&mut c.collected, offered);
                counters::bump_by(&mut c.tx_frames, sent);
                counters::bump_by(&mut c.io_tx_errors, errs);
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemReplay;
    use rb_core::middlebox::Passthrough;
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
    use rb_fronthaul::eaxc::Eaxc;
    use rb_fronthaul::msg::{Body, FhMessage};
    use rb_fronthaul::pcap::PcapWriter;
    use rb_fronthaul::timing::SymbolId;
    use rb_fronthaul::Direction;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    fn capture(n: u64) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for k in 0..n {
            let eaxc = Eaxc::unpack((k % 16) as u16, &EaxcMapping::DEFAULT);
            let bytes = FhMessage::new(
                mac(1),
                mac(10),
                eaxc,
                0,
                Body::CPlane(CPlaneRepr::single(
                    Direction::Downlink,
                    SymbolId::ZERO,
                    CompressionMethod::BFP9,
                    SectionFields::data(0, 0, 10, 1),
                )),
            )
            .to_bytes(&EaxcMapping::DEFAULT)
            .unwrap();
            w.write_frame(k * 1_000, &bytes).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn end_to_end_over_pcap_replay() {
        let mut io = MemReplay::from_bytes(capture(100)).unwrap();
        let cfg = RuntimeConfig::new(mac(10)).with_workers(4);
        let report =
            Runtime::run(&cfg, &mut io, |_| Passthrough::new("pt", mac(10), mac(20))).unwrap();
        assert_eq!(report.rx_frames, 100);
        assert_eq!(report.dispatched, 100);
        assert_eq!(report.tx_frames, 100, "nothing lost below capacity");
        assert_eq!(report.in_ring_dropped + report.out_ring_dropped, 0);
        assert_eq!(report.worker_failures, 0);
        assert_eq!(report.workers.len(), 4);
        let totals = report.pipeline_totals();
        assert_eq!(totals.rx, 100);
        assert_eq!(totals.tx, 100);
        let out = io.take_tx();
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|f| {
            FhMessage::parse(&f.bytes, &EaxcMapping::DEFAULT).unwrap().eth.dst == mac(20)
        }));
        // 16 flows over 4 workers: every worker must have seen traffic.
        assert!(report.workers.iter().all(|w| w.stats.rx > 0), "flows spread across workers");
    }

    #[test]
    fn per_flow_ordering_survives_multiworker_dispatch() {
        let mut io = MemReplay::from_bytes(capture(200)).unwrap();
        let cfg = RuntimeConfig::new(mac(10)).with_workers(4);
        Runtime::run(&cfg, &mut io, |_| Passthrough::new("pt", mac(10), mac(20))).unwrap();
        let out = io.take_tx();
        // Within one flow (one eAxC id), capture timestamps must stay
        // monotonic: the flow never crossed a worker boundary.
        let mut last_at: std::collections::HashMap<u16, u64> = Default::default();
        for f in &out {
            let msg = FhMessage::parse(&f.bytes, &EaxcMapping::DEFAULT).unwrap();
            let raw = msg.eaxc.pack(&EaxcMapping::DEFAULT);
            let prev = last_at.insert(raw, f.at_ns);
            assert!(prev.map_or(true, |p| p <= f.at_ns), "flow {raw} reordered");
        }
    }

    #[test]
    fn shared_rules_reach_every_worker() {
        use rb_core::mgmt::{Match, Rule, RuleAction};

        // The paper's management interface, the one way it reaches a
        // runtime worker: one table, cloned into every pipeline.
        let rules = SharedRules::new();
        rules.write().push(Rule {
            matcher: Match { eaxc_raw: Some(5), ..Match::any() },
            action: RuleAction::Drop,
        });
        let mut cfg = RuntimeConfig::new(mac(10)).with_workers(2);
        cfg.rules = Some(rules);
        let mut io = MemReplay::from_bytes(capture(160)).unwrap();
        let report =
            Runtime::run(&cfg, &mut io, |_| Passthrough::new("pt", mac(10), mac(20))).unwrap();
        assert!(report.workers.iter().all(|w| w.stats.rx > 0), "both workers saw traffic");
        let totals = report.pipeline_totals();
        assert_eq!(totals.rule_drops, 10, "the 10 frames of eAxC 5, whichever worker got them");
        assert_eq!(totals.rx, totals.tx + totals.rule_drops);
        let out = io.take_tx();
        assert_eq!(out.len(), 150, "every other frame is transmitted");
        assert!(out.iter().all(|f| {
            let msg = FhMessage::parse(&f.bytes, &EaxcMapping::DEFAULT).unwrap();
            msg.eaxc.pack(&EaxcMapping::DEFAULT) != 5
        }));
    }

    /// A backend whose `tx_batch` accepts only every other frame (global
    /// parity, so the split is exact regardless of how the collector
    /// chops the stream into batches) — the partial-batch arm of the
    /// contract, exercised end to end through `Runtime::drain`.
    struct AlternatingTx {
        inner: MemReplay,
        parity: bool,
    }

    impl FrameIo for AlternatingTx {
        fn rx_batch(&mut self, out: &mut Vec<RawFrame>, max: usize) -> RxPoll {
            self.inner.rx_batch(out, max)
        }

        fn tx_batch(&mut self, frames: &mut Vec<RawFrame>) -> usize {
            frames.retain(|_| {
                self.parity = !self.parity;
                self.parity
            });
            self.inner.tx_batch(frames)
        }
    }

    #[test]
    fn batched_tx_conserves_frames_under_partial_batches() {
        let mut io =
            AlternatingTx { inner: MemReplay::from_bytes(capture(100)).unwrap(), parity: false };
        let cfg = RuntimeConfig::new(mac(10)).with_workers(2);
        let report =
            Runtime::run(&cfg, &mut io, |_| Passthrough::new("pt", mac(10), mac(20))).unwrap();
        assert_eq!(report.rx_frames, 100);
        let totals = report.pipeline_totals();
        assert_eq!(totals.tx, 100);
        assert_eq!(report.out_ring_dropped, 0, "rings sized above the workload");
        // Conservation: every frame a worker emitted is accounted as
        // either transmitted or a transmit error — partial batches lose
        // nothing silently.
        assert_eq!(report.tx_frames + report.io_tx_errors, totals.tx - report.out_ring_dropped);
        assert_eq!(report.tx_frames, 50, "alternating backend accepts exactly half");
        assert_eq!(report.io_tx_errors, 50);
        assert_eq!(io.inner.take_tx().len(), 50);
        // The same identity must hold per worker, not just in aggregate:
        // collector lane i accounts exactly for worker i's egress.
        assert_eq!(report.collectors.len(), report.workers.len());
        for (w, c) in report.workers.iter().zip(&report.collectors) {
            assert_eq!(
                c.tx_frames + c.io_tx_errors + w.stats.tx_ring_dropped,
                w.stats.tx,
                "worker {} egress not conserved",
                w.id
            );
            assert_eq!(c.collected, c.tx_frames + c.io_tx_errors);
        }
        // Lane sums reproduce the run-level counters.
        assert_eq!(report.collectors.iter().map(|c| c.tx_frames).sum::<u64>(), report.tx_frames);
        assert_eq!(
            report.collectors.iter().map(|c| c.io_tx_errors).sum::<u64>(),
            report.io_tx_errors
        );
        // Join-time aggregation: worker_totals is the lock-free merge.
        let agg = report.worker_totals();
        assert_eq!(agg.rx, 100);
        assert_eq!(agg.tx, totals.tx);
    }

    #[test]
    fn telemetry_flows_from_workers() {
        use rb_core::mgmt::{Match, Rule, RuleAction};
        use rb_core::telemetry::{TelemetryEvent, TelemetryRecord};

        let (tx, rx) = rb_core::telemetry::channel("dp");
        let mut io = MemReplay::from_bytes(capture(32)).unwrap();
        let mut cfg = RuntimeConfig::new(mac(10)).with_workers(2).with_telemetry(tx);
        let rules = SharedRules::new();
        rules.write().push(Rule {
            matcher: Match { eaxc_raw: Some(5), ..Match::any() },
            action: RuleAction::Drop,
        });
        cfg.rules = Some(rules);
        Runtime::run(&cfg, &mut io, |_| Passthrough::new("pt", mac(10), mac(20))).unwrap();
        let records = rx.drain();
        assert!(!records.is_empty());
        assert!(records.iter().any(|r| &*r.source == "dp/w0"));
        assert!(records.iter().any(|r| &*r.source == "dp/w1"));
        // Pipeline counters reach the receiver too: a rule drop on a
        // worker is visible without the run report.
        let deltas = |wanted: &str| -> Vec<u64> {
            let counter = |r: &TelemetryRecord| match r.event {
                TelemetryEvent::Counter { name, delta } if name == wanted => Some(delta),
                _ => None,
            };
            records.iter().filter_map(counter).collect()
        };
        let dropped: u64 = deltas("rule_drops").iter().sum();
        assert_eq!(dropped, 2, "the 2 frames of eAxC 5, whichever worker got them");
        assert_eq!(deltas("seq_untracked"), [0, 0], "each worker exports it, even at zero");
    }
}
