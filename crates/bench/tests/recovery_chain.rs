//! End-to-end fronthaul recovery: the ARQ + FEC middlebox chain over a
//! deterministically lossy segment, and the bonded dual-link adapter
//! under a permanent single-link outage.
//!
//! The chain *is* the recovery deployment of the chaos benchmark
//! ([`RecoveryChain`], routed by `rb_core::chain::steer`):
//!
//! ```text
//! DU ─► ArqSender ─► FecEncoderMb ══(lossy, seeded)══► FecDecoderMb ─► ArqReceiver ─► sink
//!           ▲                                                              │
//!           └───────────────────── NACKs (lossless) ──────────────────────┘
//! ```
//!
//! Losses are drawn from a seeded `SplitMix64`, so every run of these
//! tests sees the exact same erasure schedule — the acceptance numbers
//! are deterministic replays, not flaky thresholds.

use std::collections::HashMap;

use ranbooster::apps::fec::{FecDecoderMb, FecEncoderMb};
use ranbooster::core::cache::SymbolCache;
use ranbooster::core::middlebox::{MbContext, Middlebox};
use ranbooster::core::telemetry::TelemetrySender;
use ranbooster::fronthaul::bfp::CompressionMethod;
use ranbooster::fronthaul::eaxc::{Eaxc, EaxcMapping};
use ranbooster::fronthaul::ether::EthernetAddress;
use ranbooster::fronthaul::iq::{IqSample, Prb};
use ranbooster::fronthaul::msg::{Body, FhMessage};
use ranbooster::fronthaul::timing::SymbolId;
use ranbooster::fronthaul::uplane::{UPlaneRepr, USection};
use ranbooster::fronthaul::Direction;
use ranbooster::netsim::time::SimTime;
use ranbooster::recover::fec::FecConfig;
use rb_bench::experiments::chaos::{RecoveryChain, Scheme};

fn mac(last: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, last)
}

const DU: u8 = 1;
const ARQ_TX: u8 = 30;
const FEC_ENC: u8 = 31;
const FEC_DEC: u8 = 32;
const ARQ_RX: u8 = 33;

/// A recovered frame must land within this many same-port sink
/// deliveries of its in-order position — the "deadline budget" of the
/// recovery chain (late IQ data is as useless as lost IQ data to the
/// receive-window scheduler).
const DEADLINE_BUDGET: usize = 64;

fn umsg(port: u8, seq: u8, fill: i16) -> FhMessage {
    let mut prb = Prb::ZERO;
    for (k, s) in prb.0.iter_mut().enumerate() {
        *s = IqSample::new(fill.wrapping_mul(13), fill.wrapping_add(k as i16 * 5));
    }
    let s = USection::from_prbs(0, 0, &[prb], CompressionMethod::NoCompression).unwrap();
    FhMessage::new(
        mac(DU),
        mac(ARQ_TX),
        Eaxc::port(port),
        seq,
        Body::UPlane(UPlaneRepr::single(Direction::Downlink, SymbolId::ZERO, s)),
    )
}

/// The full ARQ + FEC deployment over a hop that only loses.
fn arq_fec_chain(seed: u64, loss: f64, fec: FecConfig) -> RecoveryChain {
    RecoveryChain::new(Scheme { name: "arq+fec", arq: true, fec: true }, seed, loss, 0.0, fec)
}

#[test]
fn arq_fec_chain_recovers_90_percent_of_5_percent_loss() {
    let fec = FecConfig::new(8, 2).expect("8:2 is a valid geometry");
    let mut chain = arq_fec_chain(0xC0FFEE, 0.05, fec);
    const PORTS: u8 = 3;
    const FRAMES: u16 = 400; // crosses the 8-bit wrap once per port
    let mut emitted: HashMap<(u8, u8), u32> = HashMap::new();
    for n in 0..FRAMES {
        for port in 0..PORTS {
            *emitted.entry((port, n as u8)).or_insert(0) += 1;
            chain.inject(umsg(port, n as u8, n as i16 + i16::from(port)));
        }
    }
    let mut copies: HashMap<(u8, u8), u32> = HashMap::new();
    for key in &chain.delivered {
        *copies.entry(*key).or_insert(0) += 1;
    }
    // Frames that never reached the sink in any copy. The sequence space
    // wraps, so loss accounting is done on copy counts per (port, seq)
    // key — exact even when a generation-1 drop shares its key with a
    // generation-2 delivery.
    let residual: u64 = emitted
        .iter()
        .map(|(k, e)| u64::from(e.saturating_sub(copies.get(k).copied().unwrap_or(0))))
        .sum();
    let dropped = chain.dropped_first_tx().len() as u64;
    let recovered = dropped.saturating_sub(residual);
    assert!(chain.wire_losses() > 0, "5% loss must actually fire");
    assert!(dropped >= 30, "expect ~60 first-transmission losses, got {dropped}");
    let ratio = recovered as f64 / dropped as f64;
    assert!(
        ratio >= 0.90,
        "ARQ+FEC must recover >=90% of dropped U-plane frames: {recovered}/{dropped} \
         ({residual} residual gaps)"
    );

    // No frame reaches the sink twice, even where ARQ and FEC both
    // repaired the same loss. 400 frames span two 8-bit generations, so
    // a (port, seq) key may legitimately appear twice — never more.
    assert!(
        copies.values().all(|&c| c <= 2),
        "a frame was delivered more than once per generation"
    );

    // Deadline budget: every delivery lands close to its in-order slot.
    let mut in_order_pos: HashMap<(u8, u8), Vec<usize>> = HashMap::new();
    for n in 0..FRAMES {
        for port in 0..PORTS {
            in_order_pos.entry((port, n as u8)).or_default().push(usize::from(n));
        }
    }
    let mut per_port_seen = vec![0usize; usize::from(PORTS)];
    for (port, seq) in &chain.delivered {
        let deliver_pos = per_port_seen[usize::from(*port)];
        per_port_seen[usize::from(*port)] += 1;
        let positions = &in_order_pos[&(*port, *seq)];
        let displacement = positions
            .iter()
            .map(|p| p.abs_diff(deliver_pos))
            .min()
            .expect("every delivered seq was emitted");
        assert!(
            displacement <= DEADLINE_BUDGET,
            "port {port} seq {seq} displaced by {displacement} > {DEADLINE_BUDGET}"
        );
    }
}

#[test]
fn chain_is_bit_deterministic_from_seed() {
    let fec = FecConfig::new(8, 2).expect("valid geometry");
    let run = |seed: u64| {
        let mut chain = arq_fec_chain(seed, 0.05, fec);
        for n in 0..300u16 {
            chain.inject(umsg(0, n as u8, n as i16));
        }
        (chain.delivered.clone(), chain.wire_losses(), chain.dropped_first_tx().to_vec())
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "same seed must replay the identical delivery schedule");
    assert_ne!(a.1, 0, "the 5% schedule must eat something");
    let c = run(8);
    assert_ne!(a, c, "a different seed must draw a different schedule");
}

#[test]
fn fec_only_pair_repairs_every_isolated_loss_without_arq() {
    // No ARQ in the loop: encoder → (engineered eater) → decoder. One
    // loss per FEC window, always repairable from parity alone.
    let fec = FecConfig::new(8, 2).expect("valid geometry");
    let mut enc = FecEncoderMb::new("fec-enc", mac(FEC_ENC), mac(FEC_DEC), fec);
    let mut dec = FecDecoderMb::new("fec-dec", mac(FEC_DEC), mac(ARQ_RX), 128);
    let mut cache = SymbolCache::new(64);
    let tele = TelemetrySender::disconnected("fec-only");
    let mut delivered: Vec<u8> = Vec::new();
    let mut dropped: Vec<u8> = Vec::new();
    for n in 0..160u8 {
        let mut msg = umsg(0, n, i16::from(n));
        msg.eth.dst = mac(FEC_ENC);
        let mut ctx = MbContext {
            now: SimTime(1_000),
            cache: &mut cache,
            telemetry: &tele,
            mapping: EaxcMapping::DEFAULT,
            charges: Vec::new(),
        };
        for out in enc.handle(&mut ctx, msg) {
            let is_data = !matches!(out.body, Body::Recovery(_));
            if is_data && n % 16 == 8 && out.seq_id == n {
                dropped.push(n); // the engineered eater takes this one
                continue;
            }
            let mut ctx = MbContext {
                now: SimTime(1_000),
                cache: &mut cache,
                telemetry: &tele,
                mapping: EaxcMapping::DEFAULT,
                charges: Vec::new(),
            };
            for fwd in dec.handle(&mut ctx, out) {
                if !matches!(fwd.body, Body::Recovery(_)) {
                    delivered.push(fwd.seq_id);
                }
            }
        }
    }
    assert_eq!(dropped.len(), 10, "one engineered loss per 16 frames");
    assert_eq!(dec.stats.recovered, 10, "FEC rebuilds every isolated loss");
    for seq in &dropped {
        assert!(delivered.contains(seq), "seq {seq} repaired and forwarded");
    }
    assert_eq!(delivered.len(), 160, "each frame delivered exactly once");
}

mod bonded {
    //! The bonded dual-link acceptance: duplicate-and-dedup mode over a
    //! permanently failed member link delivers every frame exactly once.

    use ranbooster::dataplane::bond::{BondMode, BondedIo};
    use ranbooster::dataplane::chaos::{ChaosConfig, ChaosIo, Outage};
    use ranbooster::dataplane::io::{FrameIo, Loopback, RawFrame, RxPoll};
    use ranbooster::fronthaul::eaxc::EaxcMapping;
    use ranbooster::fronthaul::msg::FhMessage;

    use super::{mac, umsg, DU};

    #[test]
    fn bonded_dup_dedup_survives_permanent_outage_with_zero_gaps() {
        let (a_near, mut a_far) = Loopback::pair(2048);
        let (b_near, mut b_far) = Loopback::pair(2048);
        // Link a fails hard at t = 200µs and never comes back.
        let mut cfg = ChaosConfig::new(99);
        cfg.outage = Some(Outage { start_ns: 200_000, end_ns: u64::MAX, src: None });
        let mut bond = BondedIo::new(ChaosIo::new(a_near, cfg), b_near, BondMode::DuplicateDedup);

        let mapping = EaxcMapping::DEFAULT;
        const N: u8 = 250;
        for n in 0..N {
            let at_ns = 1_000 * (1 + u64::from(n));
            let bytes = umsg(0, n, i16::from(n)).to_bytes(&mapping).unwrap();
            let f = RawFrame { at_ns, bytes: bytes.into() };
            a_far.tx(f.clone());
            b_far.tx(f);
        }
        drop(a_far);
        drop(b_far);

        let mut got = Vec::new();
        loop {
            match bond.rx_batch(&mut got, 64) {
                RxPoll::Eof | RxPoll::Idle => break,
                RxPoll::Ready(_) => {}
            }
        }
        assert_eq!(got.len(), usize::from(N), "permanent single-link outage costs zero frames");
        let mut seqs: Vec<u8> = Vec::new();
        for f in &got {
            let msg = FhMessage::parse(&f.bytes, &mapping).unwrap();
            assert_eq!(msg.eth.src, mac(DU));
            seqs.push(msg.seq_id);
        }
        seqs.sort_unstable();
        assert_eq!(seqs, (0..N).collect::<Vec<u8>>(), "no gaps, no duplicates");
        let s = bond.stats();
        assert!(s.dedup_drops > 0, "the healthy phase must dedup");
        assert!(s.link_switches >= 1, "the failover must be observable");
        assert_eq!(s.unkeyed, 0);
    }
}
