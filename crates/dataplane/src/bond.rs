//! Bonded dual-link [`FrameIo`] adapter.
//!
//! [`BondedIo`] presents two member backends as one link, in one of two
//! modes:
//!
//! * **[`BondMode::DuplicateDedup`]** — every transmitted frame goes out
//!   on *both* members; on receive, a bounded per-stream
//!   [`DedupWindow`] (keyed by source MAC, eAxC id and eCPRI message
//!   type) delivers the first copy and drops the second. A permanent
//!   single-link outage therefore costs **zero** frames and zero
//!   recovery round trips — the paper's strongest availability story,
//!   at 2× fronthaul capacity.
//! * **[`BondMode::Dwrr`]** — frames are striped across the members by
//!   deficit-weighted round robin on bytes: full aggregate capacity, no
//!   redundancy (losses fall through to the ARQ/FEC middleboxes).
//!
//! Frames the cheap header peek cannot classify (non-eCPRI) are
//! delivered unconditionally in dedup mode — the bond never drops what
//! it cannot prove is a duplicate.
//!
//! Transmit duplication copies payloads through an internal
//! [`BufferPool`], so the steady state allocates nothing per frame.

use std::collections::HashMap;

use rb_core::telemetry::{counters, TelemetrySender};
use rb_fronthaul::ecpri;
use rb_fronthaul::ether::{EtherType, Frame};
use rb_recover::dedup::DedupWindow;

use crate::io::{FrameIo, RawFrame, RxPoll};
use crate::pool::BufferPool;

/// Spare buffers the duplicate-mode transmitter keeps for frame copies.
const BOND_POOL_SLOTS: usize = 4096;

/// How the two member links share the traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BondMode {
    /// Transmit every frame on both links, deliver the first received
    /// copy, drop the second. Survives a total single-link failure
    /// without losing a frame.
    DuplicateDedup,
    /// Stripe frames across the links by deficit-weighted round robin
    /// over bytes; `quantum` is the per-turn byte budget of each link.
    Dwrr {
        /// Byte budget added to a link's deficit each time it takes over.
        quantum: usize,
    },
}

/// One stream for deduplication purposes: who sent it, which
/// antenna-carrier, and which eCPRI message type (data and recovery
/// messages number their sequences independently).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BondKey {
    src: [u8; 6],
    eaxc_raw: u16,
    msg_type: u8,
}

/// Peek the dedup key and sequence number off a raw frame.
fn bond_key(frame: &[u8]) -> Option<(BondKey, u8)> {
    let eth = Frame::new_checked(frame).ok()?;
    if eth.ethertype() != EtherType::ECPRI {
        return None;
    }
    let pkt = ecpri::Packet::new_checked(eth.payload()).ok()?;
    let msg_type = eth.payload().get(1).copied()?;
    Some((BondKey { src: eth.src().0, eaxc_raw: pkt.eaxc_raw(), msg_type }, pkt.seq_id()))
}

/// Aggregate counters of a [`BondedIo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BondStats {
    /// Frames handed to [`FrameIo::tx_batch`].
    pub tx_frames: u64,
    /// Frames delivered upstream by [`FrameIo::rx_batch`].
    pub rx_delivered: u64,
    /// Second copies dropped by the dedup window.
    pub dedup_drops: u64,
    /// Times the delivering link changed (dedup mode) or the striper
    /// rotated (DWRR mode).
    pub link_switches: u64,
    /// Frames delivered without a dedup decision (non-eCPRI).
    pub unkeyed: u64,
    /// Transmissions refused by both links (dedup) or by the link the
    /// striper chose (DWRR).
    pub tx_failures: u64,
}

/// Two [`FrameIo`] backends bonded into one. See the module docs.
pub struct BondedIo<A: FrameIo, B: FrameIo> {
    a: A,
    b: B,
    mode: BondMode,
    windows: HashMap<BondKey, DedupWindow>,
    pool: BufferPool,
    scratch: Vec<RawFrame>,
    /// Reusable per-batch transmit staging (twin copies in dedup mode,
    /// the b-member stripe in DWRR mode).
    tx_scratch: Vec<RawFrame>,
    /// Second reusable staging vector (the a-member stripe in DWRR mode).
    tx_scratch_a: Vec<RawFrame>,
    /// Member that delivered the most recent admitted frame: 0 = a, 1 = b.
    active_rx: u8,
    rx_primed: bool,
    /// Member the striper is currently filling: 0 = a, 1 = b.
    tx_link: u8,
    tx_deficit: u64,
    eof_a: bool,
    eof_b: bool,
    telemetry: Option<TelemetrySender>,
    stats: BondStats,
}

impl<A: FrameIo, B: FrameIo> BondedIo<A, B> {
    /// Bond `a` and `b` under `mode`.
    pub fn new(a: A, b: B, mode: BondMode) -> BondedIo<A, B> {
        let quantum = match mode {
            BondMode::Dwrr { quantum } => quantum.max(1) as u64,
            BondMode::DuplicateDedup => 0,
        };
        BondedIo {
            a,
            b,
            mode,
            windows: HashMap::new(),
            pool: BufferPool::new(BOND_POOL_SLOTS),
            scratch: Vec::new(),
            tx_scratch: Vec::new(),
            tx_scratch_a: Vec::new(),
            active_rx: 0,
            rx_primed: false,
            tx_link: 0,
            tx_deficit: quantum,
            eof_a: false,
            eof_b: false,
            telemetry: None,
            stats: BondStats::default(),
        }
    }

    /// Emit `bond_dedup_drops` / `bond_link_switches` counter events on
    /// this channel as they happen.
    pub fn with_telemetry(mut self, telemetry: TelemetrySender) -> BondedIo<A, B> {
        self.telemetry = Some(telemetry);
        self
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> BondStats {
        self.stats
    }

    /// The bonded mode.
    pub fn mode(&self) -> BondMode {
        self.mode
    }

    /// Shared access to the members (e.g. to inspect memory sinks).
    pub fn members(&self) -> (&A, &B) {
        (&self.a, &self.b)
    }

    fn note_switch(&mut self, at_ns: u64) {
        counters::bump(&mut self.stats.link_switches);
        if let Some(t) = &self.telemetry {
            t.count(at_ns, counters::BOND_LINK_SWITCHES, 1);
        }
    }

    /// Filter one received frame (dedup mode); `link` is 0 for a, 1 for b.
    fn admit_rx(&mut self, frame: RawFrame, link: u8, out: &mut Vec<RawFrame>) {
        match bond_key(&frame.bytes) {
            Some((key, seq)) => {
                if self.windows.entry(key).or_default().admit(seq) {
                    if self.rx_primed && self.active_rx != link {
                        self.note_switch(frame.at_ns);
                    }
                    self.rx_primed = true;
                    self.active_rx = link;
                    self.stats.rx_delivered += 1;
                    out.push(frame);
                } else {
                    self.stats.dedup_drops += 1;
                    if let Some(t) = &self.telemetry {
                        t.count(frame.at_ns, counters::BOND_DEDUP_DROPS, 1);
                    }
                }
            }
            None => {
                // Not provably a duplicate: deliver.
                self.stats.unkeyed += 1;
                self.stats.rx_delivered += 1;
                out.push(frame);
            }
        }
    }

    /// Pull from one member (dedup mode), filtering into `out`. Returns
    /// frames appended.
    fn pull_dedup(&mut self, link: u8, out: &mut Vec<RawFrame>, max: usize) -> usize {
        self.scratch.clear();
        let poll = {
            let mut scratch = std::mem::take(&mut self.scratch);
            let poll = if link == 0 {
                self.a.rx_batch(&mut scratch, max)
            } else {
                self.b.rx_batch(&mut scratch, max)
            };
            self.scratch = scratch;
            poll
        };
        if poll == RxPoll::Eof {
            if link == 0 {
                self.eof_a = true;
            } else {
                self.eof_b = true;
            }
        }
        let before = out.len();
        let mut scratch = std::mem::take(&mut self.scratch);
        for f in scratch.drain(..) {
            self.admit_rx(f, link, out);
        }
        self.scratch = scratch;
        out.len() - before
    }
}

impl<A: FrameIo, B: FrameIo> FrameIo for BondedIo<A, B> {
    fn rx_batch(&mut self, out: &mut Vec<RawFrame>, max: usize) -> RxPoll {
        if max == 0 {
            // Pure status poll (FrameIo contract): consume nothing. The
            // dedup quota split below floors each member's budget at 1,
            // which used to pull up to two frames out of a zero-budget
            // poll — learn member Eof state through their own status
            // polls instead (they append nothing by the same contract).
            if !self.eof_a && self.a.rx_batch(out, 0) == RxPoll::Eof {
                self.eof_a = true;
            }
            if !self.eof_b && self.b.rx_batch(out, 0) == RxPoll::Eof {
                self.eof_b = true;
            }
            return if self.eof_a && self.eof_b { RxPoll::Eof } else { RxPoll::Idle };
        }
        match self.mode {
            BondMode::DuplicateDedup => {
                // Split the poll budget between live members: polling
                // order must not let a backlogged link race further
                // ahead of its twin than the dedup window can absorb.
                // A lone surviving member takes the whole budget.
                let (quota_a, quota_b) = match (self.eof_a, self.eof_b) {
                    (false, false) => {
                        let half = usize::max(max / 2, 1);
                        (half, usize::max(max.saturating_sub(half), 1))
                    }
                    (false, true) => (max, 0),
                    (true, false) => (0, max),
                    (true, true) => (0, 0),
                };
                let mut n = 0;
                if quota_a > 0 {
                    n += self.pull_dedup(0, out, quota_a);
                }
                if quota_b > 0 {
                    n += self.pull_dedup(1, out, quota_b);
                }
                if n > 0 {
                    RxPoll::Ready(n)
                } else if self.eof_a && self.eof_b {
                    RxPoll::Eof
                } else {
                    RxPoll::Idle
                }
            }
            BondMode::Dwrr { .. } => {
                // Each frame exists on exactly one member: plain merge.
                let mut n = 0;
                if !self.eof_a {
                    match self.a.rx_batch(out, max) {
                        RxPoll::Ready(k) => n += k,
                        RxPoll::Eof => self.eof_a = true,
                        RxPoll::Idle => {}
                    }
                }
                if !self.eof_b && n < max {
                    match self.b.rx_batch(out, max - n) {
                        RxPoll::Ready(k) => n += k,
                        RxPoll::Eof => self.eof_b = true,
                        RxPoll::Idle => {}
                    }
                }
                self.stats.rx_delivered += n as u64;
                if n > 0 {
                    RxPoll::Ready(n)
                } else if self.eof_a && self.eof_b {
                    RxPoll::Eof
                } else {
                    RxPoll::Idle
                }
            }
        }
    }

    fn tx_batch(&mut self, frames: &mut Vec<RawFrame>) -> usize {
        let offered = frames.len();
        counters::bump_by(&mut self.stats.tx_frames, counters::as_count(offered));
        match self.mode {
            BondMode::DuplicateDedup => {
                // Stage the twin batch (pooled copies), then one batched
                // send per member. Failure attribution is aggregate: with
                // per-frame results unavailable, `min(fail_a, fail_b)`
                // upper-bounds the frames that reached *neither* member,
                // so the reported sent count never overclaims delivery.
                let mut twins = std::mem::take(&mut self.tx_scratch);
                twins.clear();
                for f in frames.iter() {
                    let mut copy = self.pool.take();
                    copy.copy_from(&f.bytes);
                    twins.push(RawFrame { at_ns: f.at_ns, bytes: copy });
                }
                let sent_a = self.a.tx_batch(frames);
                let sent_b = self.b.tx_batch(&mut twins);
                self.tx_scratch = twins;
                let failed = offered.saturating_sub(sent_a).min(offered.saturating_sub(sent_b));
                counters::bump_by(&mut self.stats.tx_failures, counters::as_count(failed));
                offered.saturating_sub(failed)
            }
            BondMode::Dwrr { quantum } => {
                // Stripe the batch by a byte-deficit walk, then one
                // batched send per member. A member that refuses frames
                // is not retried on its twin (batched sends report no
                // per-frame result): the failures are counted and the
                // striper's next walk moves on naturally.
                let mut stripe_b = std::mem::take(&mut self.tx_scratch);
                stripe_b.clear();
                let mut stripe_a = std::mem::take(&mut self.tx_scratch_a);
                stripe_a.clear();
                for f in frames.drain(..) {
                    let cost = counters::as_count(f.bytes.len().max(1));
                    if cost > self.tx_deficit {
                        self.tx_link ^= 1;
                        self.tx_deficit = counters::as_count(quantum.max(1)).max(cost);
                        self.note_switch(f.at_ns);
                    }
                    self.tx_deficit = self.tx_deficit.saturating_sub(cost);
                    if self.tx_link == 0 {
                        stripe_a.push(f);
                    } else {
                        stripe_b.push(f);
                    }
                }
                let sent =
                    self.a.tx_batch(&mut stripe_a).saturating_add(self.b.tx_batch(&mut stripe_b));
                self.tx_scratch = stripe_b;
                self.tx_scratch_a = stripe_a;
                let failed = offered.saturating_sub(sent);
                counters::bump_by(&mut self.stats.tx_failures, counters::as_count(failed));
                sent
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, ChaosIo, Outage};
    use crate::io::Loopback;
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
    use rb_fronthaul::ether::EthernetAddress;
    use rb_fronthaul::iq::Prb;
    use rb_fronthaul::msg::{Body, FhMessage};
    use rb_fronthaul::timing::SymbolId;
    use rb_fronthaul::uplane::{UPlaneRepr, USection};
    use rb_fronthaul::Direction;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    fn uframe(seq: u8, at_ns: u64) -> RawFrame {
        let s = USection::from_prbs(0, 0, &[Prb::ZERO], CompressionMethod::BFP9).unwrap();
        let bytes = FhMessage::new(
            mac(1),
            mac(2),
            Eaxc::port(0),
            seq,
            Body::UPlane(UPlaneRepr::single(Direction::Downlink, SymbolId::ZERO, s)),
        )
        .to_bytes(&EaxcMapping::DEFAULT)
        .unwrap();
        RawFrame { at_ns, bytes: bytes.into() }
    }

    fn drain(io: &mut dyn FrameIo) -> Vec<RawFrame> {
        let mut all = Vec::new();
        loop {
            match io.rx_batch(&mut all, 16) {
                RxPoll::Eof => break,
                RxPoll::Idle => break, // loopback peers still open: stop when dry
                RxPoll::Ready(_) => {}
            }
        }
        all
    }

    /// Two loopback pairs: (far ends, bond of near ends).
    fn bonded(mode: BondMode) -> ((Loopback, Loopback), BondedIo<Loopback, Loopback>) {
        let (a_near, a_far) = Loopback::pair(512);
        let (b_near, b_far) = Loopback::pair(512);
        ((a_far, b_far), BondedIo::new(a_near, b_near, mode))
    }

    #[test]
    fn dedup_delivers_each_frame_once() {
        let ((mut a_far, mut b_far), mut bond) = bonded(BondMode::DuplicateDedup);
        for seq in 0..20u8 {
            let f = uframe(seq, 1_000 + u64::from(seq));
            a_far.tx(f.clone());
            b_far.tx(f);
        }
        let got = drain(&mut bond);
        assert_eq!(got.len(), 20);
        let s = bond.stats();
        assert_eq!(s.dedup_drops, 20);
        assert_eq!(s.rx_delivered, 20);
        assert_eq!(s.link_switches, 0, "link a wins every race");
    }

    #[test]
    fn permanent_single_link_outage_costs_zero_frames() {
        // Link a dies permanently at t=5µs; every frame still arrives
        // exactly once via link b.
        let (a_near, a_far) = Loopback::pair(512);
        let (b_near, b_far) = Loopback::pair(512);
        let mut cfg = ChaosConfig::new(42);
        cfg.outage = Some(Outage { start_ns: 5_000, end_ns: u64::MAX, src: None });
        let impaired_a = ChaosIo::new(a_near, cfg);
        let mut bond = BondedIo::new(impaired_a, b_near, BondMode::DuplicateDedup);
        let (mut a_far, mut b_far) = (a_far, b_far);
        for seq in 0..100u8 {
            let f = uframe(seq, 1_000 * (1 + u64::from(seq)));
            a_far.tx(f.clone());
            b_far.tx(f);
        }
        drop(a_far);
        drop(b_far);
        let got = drain(&mut bond);
        assert_eq!(got.len(), 100, "zero frames lost across the outage");
        let mut seqs: Vec<u8> = Vec::new();
        for f in &got {
            let (_, seq) = bond_key(&f.bytes).unwrap();
            seqs.push(seq);
        }
        seqs.sort_unstable();
        assert_eq!(seqs, (0..100u8).collect::<Vec<u8>>(), "no gaps, no dups");
        let s = bond.stats();
        assert!(s.link_switches >= 1, "failover to link b counted");
        assert!(s.dedup_drops > 0, "pre-outage frames arrived twice");
    }

    #[test]
    fn dedup_tx_duplicates_to_both_members() {
        let ((mut a_far, mut b_far), mut bond) = bonded(BondMode::DuplicateDedup);
        let mut batch: Vec<RawFrame> = (0..10u8).map(|s| uframe(s, u64::from(s))).collect();
        assert_eq!(bond.tx_batch(&mut batch), 10);
        assert!(batch.is_empty());
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        a_far.rx_batch(&mut out_a, 64);
        b_far.rx_batch(&mut out_b, 64);
        assert_eq!(out_a.len(), 10);
        assert_eq!(out_b.len(), 10);
        for (x, y) in out_a.iter().zip(&out_b) {
            assert_eq!(x, y, "copies are bit-identical");
        }
        assert_eq!(bond.stats().tx_frames, 10);
        assert_eq!(bond.stats().tx_failures, 0);
    }

    #[test]
    fn dwrr_stripes_by_byte_quantum() {
        let ((mut a_far, mut b_far), mut bond) = bonded(BondMode::Dwrr { quantum: 256 });
        // Two batches: the deficit state carries across `tx_batch` calls.
        for half in [0..20u8, 20..40u8] {
            let mut batch: Vec<RawFrame> = half.map(|s| uframe(s, u64::from(s))).collect();
            assert_eq!(bond.tx_batch(&mut batch), 20);
        }
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        a_far.rx_batch(&mut out_a, 64);
        b_far.rx_batch(&mut out_b, 64);
        assert_eq!(out_a.len() + out_b.len(), 40, "every frame on exactly one link");
        assert!(!out_a.is_empty() && !out_b.is_empty(), "both links carry traffic");
        assert!(bond.stats().link_switches > 0);
        // How the stream is chopped into batches does not move the split
        // points: one frame per batch stripes identically.
        let ((mut c_far, mut d_far), mut singles) = bonded(BondMode::Dwrr { quantum: 256 });
        for s in 0..40u8 {
            assert!(singles.tx(uframe(s, u64::from(s))));
        }
        let mut out_c = Vec::new();
        let mut out_d = Vec::new();
        c_far.rx_batch(&mut out_c, 64);
        d_far.rx_batch(&mut out_d, 64);
        assert_eq!(out_a, out_c, "a-stripe independent of batch boundaries");
        assert_eq!(out_b, out_d, "b-stripe independent of batch boundaries");
        // Merge on receive: the bond's peer sees all 40.
        let ((mut e_far, f_far), mut rx_bond) = bonded(BondMode::Dwrr { quantum: 256 });
        for f in out_a.into_iter().chain(out_b) {
            e_far.tx(f);
        }
        drop(e_far);
        drop(f_far);
        assert_eq!(drain(&mut rx_bond).len(), 40);
    }

    #[test]
    fn non_ecpri_frames_pass_unfiltered() {
        let ((mut a_far, _b_far), mut bond) = bonded(BondMode::DuplicateDedup);
        let junk = RawFrame { at_ns: 1, bytes: vec![0xffu8; 30].into() };
        a_far.tx(junk.clone());
        a_far.tx(junk);
        let got = drain(&mut bond);
        assert_eq!(got.len(), 2, "cannot prove duplication, must deliver");
        assert_eq!(bond.stats().unkeyed, 2);
    }

    #[test]
    fn recovery_and_data_streams_dedup_independently() {
        use rb_fronthaul::recovery::RecoveryRepr;
        let ((mut a_far, _b_far), mut bond) = bonded(BondMode::DuplicateDedup);
        // A data frame and a NACK share (src, eaxc, seq 0) but differ in
        // eCPRI message type: both must be delivered.
        let nack = FhMessage::new(
            mac(1),
            mac(2),
            Eaxc::port(0),
            0,
            Body::Recovery(RecoveryRepr::nack(Direction::Uplink, 4, 0b1)),
        )
        .to_bytes(&EaxcMapping::DEFAULT)
        .unwrap();
        a_far.tx(uframe(0, 1));
        a_far.tx(RawFrame { at_ns: 2, bytes: nack.into() });
        let got = drain(&mut bond);
        assert_eq!(got.len(), 2);
        assert_eq!(bond.stats().dedup_drops, 0);
    }

    #[test]
    fn telemetry_counters_flow() {
        use rb_core::telemetry::{self, TelemetryEvent};
        let (tele, rx_tele) = telemetry::channel("bond");
        let ((mut a_far, mut b_far), bond) = bonded(BondMode::DuplicateDedup);
        let mut bond = bond.with_telemetry(tele);
        let f = uframe(0, 7);
        a_far.tx(f.clone());
        b_far.tx(f);
        drain(&mut bond);
        let names: Vec<&str> = rx_tele
            .drain()
            .into_iter()
            .filter_map(|r| match r.event {
                TelemetryEvent::Counter { name, .. } => Some(name),
                _ => None,
            })
            .collect();
        assert!(names.contains(&counters::BOND_DEDUP_DROPS));
    }
}
