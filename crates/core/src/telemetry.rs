//! The middlebox telemetry interface.
//!
//! RANBooster middleboxes "expose monitoring and management interfaces …
//! to send telemetry data to applications" (paper §3.2). Telemetry is a
//! stream of timestamped events over a lock-free **bounded** channel: the
//! middlebox side holds a cheap-to-clone [`TelemetrySender`]; external
//! applications (e.g. the PRB-utilization consumer of §4.4) drain a
//! [`TelemetryReceiver`].
//!
//! Telemetry must never perturb the datapath. Sends never block: when the
//! consumer falls behind and the channel fills, new events are discarded
//! and counted in the shared `telemetry_dropped` counter instead — the
//! same back-pressure-free discipline the dataplane runtime applies to
//! its packet rings. Sends never allocate either: counter and gauge names
//! are `&'static str` (every name in the tree is a literal or a
//! [`counters`] constant), the source is a shared `Arc<str>`, and the
//! channel's slots are allocated when it is created.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// Default bound of a telemetry channel, in records. Deep enough to absorb
/// a burst of per-packet events between consumer polls, small enough that
/// an absent consumer costs bounded memory.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Well-known counter names shared between the recovery middleboxes, the
/// bonded dataplane adapter and the chaos benchmark, so producers and
/// consumers agree on spelling without a string dependency between crates.
pub mod counters {
    /// NACKs emitted by an ARQ receiver upon detecting a sequence gap.
    pub const ARQ_NACKS_SENT: &str = "arq_nacks_sent";
    /// Frames replayed from an ARQ sender's cache in answer to a NACK.
    pub const ARQ_RETRANSMITS: &str = "arq_retransmits";
    /// Previously-missing frames that arrived via ARQ retransmission.
    pub const FRAMES_RECOVERED_ARQ: &str = "frames_recovered_arq";
    /// Missing frames rebuilt from FEC parity by a decoder middlebox.
    pub const FRAMES_RECOVERED_FEC: &str = "frames_recovered_fec";
    /// Duplicate frames suppressed by a bonded link's dedup window.
    pub const BOND_DEDUP_DROPS: &str = "bond_dedup_drops";
    /// Times a bonded link changed which member link frames arrive on.
    pub const BOND_LINK_SWITCHES: &str = "bond_link_switches";

    /// Saturating counter increment — the spelling the `arith` lint
    /// sanctions for monotonic stats counters (a u64 pinned at MAX is a
    /// visibly broken reading; a silently wrapped one is a wrong one).
    #[inline]
    pub fn bump(c: &mut u64) {
        *c = c.saturating_add(1);
    }

    /// Saturating counter addition (see [`bump`]).
    #[inline]
    pub fn bump_by(c: &mut u64, n: u64) {
        *c = c.saturating_add(n);
    }

    /// A collection length as a u64 counter value, without a silent
    /// truncating cast on exotic pointer widths.
    #[inline]
    pub fn as_count(n: usize) -> u64 {
        u64::try_from(n).unwrap_or(u64::MAX)
    }
}

/// One telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A monotonically increasing counter changed by `delta`.
    Counter {
        /// Counter name, e.g. `"ul_packets"`.
        name: &'static str,
        /// Increment.
        delta: u64,
    },
    /// An instantaneous gauge reading.
    Gauge {
        /// Gauge name, e.g. `"pcie_util"`.
        name: &'static str,
        /// Current value.
        value: f64,
    },
    /// A per-symbol PRB utilization report (the §4.4 monitoring product).
    PrbUtilization {
        /// True for downlink, false for uplink.
        downlink: bool,
        /// PRBs estimated utilized this symbol.
        utilized: u32,
        /// Total PRBs in the carrier.
        total: u32,
    },
}

/// A timestamped, attributed telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRecord {
    /// Name of the emitting middlebox (shared with its sender).
    pub source: Arc<str>,
    /// Simulated time in nanoseconds.
    pub at_ns: u64,
    /// The event.
    pub event: TelemetryEvent,
}

/// The sending half held by middleboxes. Sends never block: events are
/// silently discarded when no receiver is attached, and discarded-and-
/// counted when the bounded channel is full (telemetry must not perturb
/// the datapath).
#[derive(Debug, Clone)]
pub struct TelemetrySender {
    source: Arc<str>,
    tx: Option<SyncSender<TelemetryRecord>>,
    dropped: Arc<AtomicU64>,
}

impl TelemetrySender {
    /// A sender with no attached receiver — all events are discarded
    /// (without counting them as drops: there is no consumer to starve).
    pub fn disconnected(source: impl Into<Arc<str>>) -> TelemetrySender {
        TelemetrySender { source: source.into(), tx: None, dropped: Arc::new(AtomicU64::new(0)) }
    }

    /// A sender on the same channel attributing its events to a different
    /// `source` (e.g. per-worker attribution in the dataplane runtime).
    pub fn with_source(&self, source: impl Into<Arc<str>>) -> TelemetrySender {
        TelemetrySender {
            source: source.into(),
            tx: self.tx.clone(),
            dropped: Arc::clone(&self.dropped),
        }
    }

    /// Emit an event at simulated time `at_ns`.
    pub fn emit(&self, at_ns: u64, event: TelemetryEvent) {
        if let Some(tx) = &self.tx {
            let record = TelemetryRecord { source: Arc::clone(&self.source), at_ns, event };
            if tx.try_send(record).is_err() {
                // Full or disconnected: either way the record is lost and
                // the consumer should know how many it missed.
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Shorthand for a counter bump.
    pub fn count(&self, at_ns: u64, name: &'static str, delta: u64) {
        self.emit(at_ns, TelemetryEvent::Counter { name, delta });
    }

    /// Shorthand for a gauge reading.
    pub fn gauge(&self, at_ns: u64, name: &'static str, value: f64) {
        self.emit(at_ns, TelemetryEvent::Gauge { name, value });
    }

    /// Records discarded because the channel was full (or the receiver was
    /// dropped), across all senders cloned from the same channel.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The receiving half held by monitoring applications.
#[derive(Debug)]
pub struct TelemetryReceiver {
    rx: Receiver<TelemetryRecord>,
    dropped: Arc<AtomicU64>,
}

impl TelemetryReceiver {
    /// Drain every currently queued record.
    pub fn drain(&self) -> Vec<TelemetryRecord> {
        let mut out = Vec::new();
        while let Ok(r) = self.rx.try_recv() {
            out.push(r);
        }
        out
    }

    /// Non-blocking single receive.
    pub fn try_recv(&self) -> Option<TelemetryRecord> {
        self.rx.try_recv().ok()
    }

    /// Records the senders discarded because this channel was full — the
    /// `telemetry_dropped` counter. A non-zero value means the drained
    /// stream has gaps and the consumer should poll more often (or the
    /// channel should be created with a larger capacity).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Create a connected telemetry channel for a middlebox named `source`,
/// bounded at [`DEFAULT_CAPACITY`] records.
pub fn channel(source: impl Into<Arc<str>>) -> (TelemetrySender, TelemetryReceiver) {
    channel_with_capacity(source, DEFAULT_CAPACITY)
}

/// Create a connected telemetry channel bounded at `capacity` records.
/// When the channel is full further events are dropped (and counted),
/// never blocking the emitting datapath.
pub fn channel_with_capacity(
    source: impl Into<Arc<str>>,
    capacity: usize,
) -> (TelemetrySender, TelemetryReceiver) {
    let (tx, rx) = sync_channel(capacity.max(1));
    let dropped = Arc::new(AtomicU64::new(0));
    (
        TelemetrySender { source: source.into(), tx: Some(tx), dropped: Arc::clone(&dropped) },
        TelemetryReceiver { rx, dropped },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_flow_with_attribution() {
        let (tx, rx) = channel("das-1");
        tx.count(100, "ul_packets", 3);
        tx.gauge(200, "cache_keys", 12.0);
        tx.emit(300, TelemetryEvent::PrbUtilization { downlink: true, utilized: 50, total: 273 });
        let got = rx.drain();
        assert_eq!(got.len(), 3);
        assert_eq!(&*got[0].source, "das-1");
        assert_eq!(got[0].at_ns, 100);
        assert_eq!(got[0].event, TelemetryEvent::Counter { name: "ul_packets", delta: 3 });
        assert!(matches!(got[2].event, TelemetryEvent::PrbUtilization { utilized: 50, .. }));
    }

    #[test]
    fn disconnected_sender_is_silent() {
        let tx = TelemetrySender::disconnected("x");
        tx.count(0, "anything", 1); // must not panic
        assert_eq!(tx.dropped(), 0, "no consumer, so nothing counts as dropped");
    }

    #[test]
    fn dropped_receiver_does_not_block_sender() {
        let (tx, rx) = channel("x");
        drop(rx);
        for _ in 0..1000 {
            tx.count(0, "n", 1);
        }
    }

    #[test]
    fn full_channel_drops_and_counts_instead_of_blocking() {
        let (tx, rx) = channel_with_capacity("x", 4);
        for k in 0..10 {
            tx.count(k, "n", 1);
        }
        assert_eq!(tx.dropped(), 6, "overflow counted on the sender");
        assert_eq!(rx.dropped(), 6, "and visible to the consumer");
        let got = rx.drain();
        assert_eq!(got.len(), 4, "the first `capacity` records survive");
        assert_eq!(got[0].at_ns, 0);
        // Draining frees capacity again; new events flow and the drop
        // counter keeps its history.
        tx.count(99, "n", 1);
        assert_eq!(rx.drain().len(), 1);
        assert_eq!(rx.dropped(), 6);
    }

    #[test]
    fn with_source_shares_channel_and_drop_counter() {
        let (tx, rx) = channel_with_capacity("rt", 2);
        let w0 = tx.with_source("rt/w0");
        let w1 = tx.with_source("rt/w1");
        w0.count(0, "rx", 1);
        w1.count(1, "rx", 1);
        w1.count(2, "rx", 1); // overflows
        let got = rx.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(&*got[0].source, "rt/w0");
        assert_eq!(&*got[1].source, "rt/w1");
        assert_eq!(tx.dropped(), 1, "drop counter shared across derived senders");
    }

    #[test]
    fn drain_empties_queue() {
        let (tx, rx) = channel("x");
        tx.count(0, "a", 1);
        assert_eq!(rx.drain().len(), 1);
        assert!(rx.drain().is_empty());
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn cloned_senders_share_channel() {
        let (tx, rx) = channel("x");
        let tx2 = tx.clone();
        tx.count(0, "a", 1);
        tx2.count(1, "b", 1);
        assert_eq!(rx.drain().len(), 2);
    }
}
