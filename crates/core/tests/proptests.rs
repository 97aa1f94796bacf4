//! Property tests over the framework invariants: the symbol cache never
//! exceeds its capacity and never loses messages it did not evict; the
//! forwarding table is first-match-wins; replication preserves everything
//! but the addressing; the pipeline survives arbitrarily mangled frames
//! without emitting; the in-place IQ sum equals a decode-everything
//! reference; whichever way the pipeline serializes a replica — in full or
//! by rewriting the headers over its sibling's frame — the bytes are those
//! of a deep copy serialized on its own.

// Test code is exempt from the crate's panic-vector denies.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use proptest::prelude::*;
use rb_core::actions;
use rb_core::cache::{CacheKey, Plane, SymbolCache};
use rb_core::mgmt::{ForwardingTable, Match, Rule, RuleAction};
use rb_core::middlebox::{MbContext, Middlebox, Passthrough};
use rb_core::pipeline::{MbPipeline, SeqMode};
use rb_fronthaul::bfp::CompressionMethod;
use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::iq::{IqSample, Prb};
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::timing::SymbolId;
use rb_fronthaul::uplane::{UPlaneRepr, USection};
use rb_fronthaul::Direction;

fn mac(last: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, last)
}

fn msg(src: u8) -> FhMessage {
    FhMessage::new(
        mac(src),
        mac(0xff),
        Eaxc::port(0),
        0,
        Body::CPlane(CPlaneRepr::single(
            Direction::Downlink,
            SymbolId::ZERO,
            CompressionMethod::BFP9,
            SectionFields::data(0, 0, 10, 14),
        )),
    )
}

fn key(eaxc: u16, sym: u8) -> CacheKey {
    CacheKey {
        eaxc_raw: eaxc,
        direction: Direction::Uplink,
        plane: Plane::U,
        filter: 0,
        symbol: SymbolId { frame: 0, subframe: 0, slot: 0, symbol: sym % 14 },
    }
}

/// Bit-at-a-time BFP reference codec, shared with rb-fronthaul's tests:
/// the sum's oracle must not decode or encode with the kernels it checks.
#[path = "../../fronthaul/tests/support/bfp_reference.rs"]
mod reference;

/// Allocating reference for `actions::sum_sections_into`, through the
/// reference codec only: decode every section whole, add component by
/// component in order with saturation, encode with the first one's method.
fn sum_sections_oracle(sections: &[USection]) -> USection {
    let first = &sections[0];
    let mut acc = vec![[0i16; 24]; usize::from(first.num_prb())];
    for s in sections {
        for (sum, prb) in acc.iter_mut().zip(s.payload.chunks_exact(s.method.prb_wire_bytes())) {
            let v = match s.method {
                CompressionMethod::NoCompression => {
                    std::array::from_fn(|k| i16::from_be_bytes([prb[2 * k], prb[2 * k + 1]]))
                }
                CompressionMethod::BlockFloatingPoint { iq_width } => {
                    reference::decompress(&prb[1..], iq_width, prb[0] & 0x0f)
                }
            };
            for (a, c) in sum.iter_mut().zip(v) {
                *a = a.saturating_add(c);
            }
        }
    }
    let mut payload = Vec::new();
    for v in &acc {
        match first.method {
            CompressionMethod::NoCompression => {
                payload.extend(v.iter().flat_map(|c| c.to_be_bytes()));
            }
            CompressionMethod::BlockFloatingPoint { iq_width } => {
                let mut mantissas = vec![0u8; 3 * usize::from(iq_width)];
                payload.push(reference::compress(v, iq_width, &mut mantissas));
                payload.extend(mantissas);
            }
        }
    }
    USection { payload: payload.as_slice().into(), ..first.clone() }
}

fn arb_method() -> impl Strategy<Value = CompressionMethod> {
    prop_oneof![
        Just(CompressionMethod::NoCompression),
        Just(CompressionMethod::BFP9),
        (1u8..=16).prop_map(|w| CompressionMethod::BlockFloatingPoint { iq_width: w }),
    ]
}

/// The methods on either side of the sum's kernel dispatch: the paper's
/// BFP-9 (its own kernels, picked once per run), uncompressed and BFP-14
/// (the per-PRB path), and now and then any width at all.
fn arb_sum_method() -> impl Strategy<Value = CompressionMethod> {
    let bfp14 = CompressionMethod::BlockFloatingPoint { iq_width: 14 };
    prop_oneof![
        Just(CompressionMethod::BFP9),
        Just(CompressionMethod::BFP9),
        Just(CompressionMethod::NoCompression),
        Just(bfp14),
        arb_method(),
    ]
}

/// 1–5 sections over one PRB range, each with its own method and its own
/// IQ. Sizes sit on both sides of the sum's block boundary, plus the
/// paper's 273-PRB carrier. `quiet` shifts a source's samples down: 0 is
/// full scale (sums saturate, so their order shows), 15 and up leave only
/// 0 and −1 (every exponent in between is exercised). A `corrupt` source
/// has the exponents 8–15 written over every third PRB's `udCompParam` —
/// values no compressor emits and a wire can carry.
fn arb_sections() -> impl Strategy<Value = Vec<USection>> {
    let b = actions::SUM_BLOCK_PRBS;
    let sizes = prop_oneof![Just(1usize), Just(b - 1), Just(b), Just(b + 1), Just(273), 2..3 * b];
    let source = (arb_sum_method(), any::<u64>(), 0u32..24, any::<bool>());
    (sizes, 0u16..0x200, proptest::collection::vec(source, 1..=5)).prop_map(
        |(num_prb, start_prb, sources)| {
            sources
                .into_iter()
                .map(|(method, seed, quiet, corrupt)| {
                    let mut x = seed | 1;
                    let prbs: Vec<Prb> = (0..num_prb)
                        .map(|_| {
                            let mut prb = Prb::ZERO;
                            for s in &mut prb.0 {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                let [i, q] = [x as i16, (x >> 16) as i16];
                                *s = IqSample::new(i >> quiet.min(15), q >> quiet.min(15));
                            }
                            prb
                        })
                        .collect();
                    let mut section = USection::from_prbs(7, start_prb, &prbs, method).unwrap();
                    if corrupt && method.param_bytes() == 1 {
                        for idx in (0..num_prb as u16).step_by(3) {
                            section.prb_bytes_mut(idx).unwrap()[0] = 8 + (idx % 8) as u8;
                        }
                    }
                    section
                })
                .collect()
        },
    )
}

/// Replicates every input to `dsts` (action A2) and, if told to, queues
/// one message of its own after the first `extra.0` replicas.
struct Fanout {
    dsts: Vec<EthernetAddress>,
    extra: Option<(usize, FhMessage)>,
}

impl Fanout {
    fn run(&self, msg: FhMessage, out: &mut Vec<FhMessage>) {
        actions::replicate_into(msg, mac(10), &self.dsts, out);
        if let Some((after, extra)) = &self.extra {
            out.insert((*after).min(out.len()), extra.clone());
        }
    }
}

impl Middlebox for Fanout {
    fn name(&self) -> &str {
        "fanout"
    }
    fn on_cplane(&mut self, _: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.run(msg, out);
    }
    fn on_uplane(&mut self, _: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.run(msg, out);
    }
}

/// What the rule table does to the replica bound for one destination.
#[derive(Debug, Clone, Copy)]
enum RuleFor {
    Pass,
    SetEaxc(u8),
    /// Tag, retag or untag: the Ethernet header length of this replica may
    /// differ from its siblings'.
    SetVlan(Option<u16>),
    Drop,
}

fn arb_rule_for() -> impl Strategy<Value = RuleFor> {
    prop_oneof![
        Just(RuleFor::Pass),
        Just(RuleFor::Pass),
        (0u8..4).prop_map(RuleFor::SetEaxc),
        proptest::option::of(1u16..4095).prop_map(RuleFor::SetVlan),
        Just(RuleFor::Drop),
    ]
}

/// A DL message from the DU `mac(1)` to the middlebox `mac(10)`: C-plane,
/// or U-plane of one to three sections.
fn arb_input() -> impl Strategy<Value = FhMessage> {
    let cplane = (0u16..200).prop_map(|start| {
        Body::CPlane(CPlaneRepr::single(
            Direction::Downlink,
            SymbolId::ZERO,
            CompressionMethod::BFP9,
            SectionFields::data(0, start, 10, 14),
        ))
    });
    let uplane = proptest::collection::vec((arb_method(), any::<u8>(), 1usize..6), 1..4).prop_map(
        |sections| {
            let sections = sections
                .into_iter()
                .enumerate()
                .map(|(id, (method, fill, num_prb))| {
                    let s = IqSample::new(i16::from(fill) << 4, -i16::from(fill));
                    let prbs = vec![Prb([s; 12]); num_prb];
                    USection::from_prbs(id as u16, 0, &prbs, method).unwrap()
                })
                .collect();
            Body::UPlane(UPlaneRepr {
                direction: Direction::Downlink,
                filter_index: 0,
                symbol: SymbolId::ZERO,
                sections,
            })
        },
    );
    (prop_oneof![cplane, uplane], 0u8..4, proptest::option::of(1u16..4095)).prop_map(
        |(body, port, vlan)| {
            let mut m = FhMessage::new(mac(1), mac(10), Eaxc::port(port), 0, body);
            m.eth.vlan = vlan;
            m
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_emitted_frame_equals_a_deep_copy_serialized_alone(
        inputs in proptest::collection::vec(arb_input(), 1..4),
        rules in proptest::collection::vec(arb_rule_for(), 0..=5),
        // Where the handler's own message goes, what it is (an input-like
        // message, or one that cannot serialize) — if there is one.
        extra in proptest::option::of((0usize..6, arb_input(), any::<bool>())),
        preserve in any::<bool>(),
    ) {
        let mapping = EaxcMapping::DEFAULT;
        let dsts: Vec<EthernetAddress> = (0..rules.len() as u8).map(|k| mac(50 + k)).collect();
        let extra = extra.map(|(after, mut m, broken)| {
            actions::redirect(&mut m, mac(10), mac(99));
            if let (true, Some(up)) = (broken, m.as_uplane_mut()) {
                up.sections[0].section_id = 0x1000; // 13 bits: fails `validate`
            }
            (after, m)
        });
        let mut p = MbPipeline::new(Fanout { dsts: dsts.clone(), extra: extra.clone() }, mac(10));
        if preserve {
            p.set_seq_mode(SeqMode::Preserve);
        }
        for (&dst, rule) in dsts.iter().zip(&rules) {
            let action = match *rule {
                RuleFor::Pass => continue,
                RuleFor::SetEaxc(port) => RuleAction::SetEaxc(Eaxc::port(port)),
                RuleFor::SetVlan(vlan) => RuleAction::SetVlan(vlan),
                RuleFor::Drop => RuleAction::Drop,
            };
            p.rules().write().push(Rule { matcher: Match { dst: Some(dst), ..Match::any() }, action });
        }

        // The reference shares nothing with the pipeline: every expected
        // frame is parsed afresh from the input bytes (a deep copy), has
        // the rule and the stamp applied by hand, and is serialized alone.
        let mut next_seq = std::collections::HashMap::new();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let (mut drops, mut errors) = (0u64, 0u64);
        for (n, input) in inputs.iter().enumerate() {
            let mut input = input.clone();
            input.seq_id = n as u8;
            let wire = input.to_bytes(&mapping).unwrap();
            let mut planned: Vec<(FhMessage, RuleFor)> = dsts
                .iter()
                .zip(&rules)
                .map(|(&dst, &rule)| {
                    let mut copy = FhMessage::parse(&wire, &mapping).unwrap();
                    actions::redirect(&mut copy, mac(10), dst);
                    (copy, rule)
                })
                .collect();
            if let Some((after, m)) = &extra {
                planned.insert((*after).min(planned.len()), (m.clone(), RuleFor::Pass));
            }
            for (mut m, rule) in planned {
                match rule {
                    RuleFor::Pass => {}
                    RuleFor::SetEaxc(port) => m.eaxc = Eaxc::port(port),
                    RuleFor::SetVlan(vlan) => m.eth.vlan = vlan,
                    RuleFor::Drop => {
                        drops += 1;
                        continue;
                    }
                }
                if !preserve {
                    let seq = next_seq.entry((m.eth.dst, m.eaxc.pack(&mapping))).or_insert(0u8);
                    m.seq_id = *seq;
                    *seq = seq.wrapping_add(1);
                }
                match m.to_bytes(&mapping) {
                    Ok(bytes) => want.push(bytes),
                    Err(_) => errors += 1,
                }
            }
            p.process(rb_netsim::time::SimTime(0), &wire, &mut |b: &[u8]| got.push(b.to_vec()));
        }
        prop_assert_eq!(got.len(), want.len());
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g, w, "emitted frame {}", k);
        }
        prop_assert_eq!(p.stats.tx, want.len() as u64);
        prop_assert_eq!(p.stats.rule_drops, drops);
        prop_assert_eq!(p.stats.emit_errors, errors);
    }

    #[test]
    fn in_place_sum_equals_the_allocating_oracle(sections in arb_sections()) {
        let mut dst = sections[0].clone();
        actions::sum_sections_into(&mut dst, |k| sections.get(k + 1)).unwrap();
        prop_assert_eq!(dst, sum_sections_oracle(&sections));
    }

    #[test]
    fn cache_respects_capacity_and_accounts_evictions(
        capacity in 1usize..16,
        inserts in proptest::collection::vec((0u16..8, 0u8..14), 1..100),
    ) {
        let mut cache = SymbolCache::new(capacity);
        let mut inserted_keys = std::collections::HashSet::new();
        for (eaxc, sym) in &inserts {
            cache.insert(key(*eaxc, *sym), msg(1));
            inserted_keys.insert((*eaxc, *sym % 14));
            prop_assert!(cache.len() <= capacity, "len {} > cap {capacity}", cache.len());
        }
        // Every distinct key is live or was evicted at least once (a key
        // can be evicted and later re-inserted, so evictions may exceed
        // distinct − live).
        let live = cache.keys().count();
        prop_assert!(
            live as u64 + cache.evictions >= inserted_keys.len() as u64,
            "live {} + evicted {} covers {} distinct keys",
            live,
            cache.evictions,
            inserted_keys.len()
        );
    }

    #[test]
    fn forwarding_table_first_match_wins(
        n_rules in 1usize..6,
        src in 0u8..4,
    ) {
        let mut t = ForwardingTable::new();
        // Rules match sources 0..n; rule k rewrites dst to mac(100+k).
        for k in 0..n_rules {
            t.push(Rule {
                matcher: Match { src: Some(mac(k as u8 % 4)), ..Match::any() },
                action: RuleAction::SetDst(mac(100 + k as u8)),
            });
        }
        let mut m = msg(src);
        let passed = t.apply(&mut m, 0);
        prop_assert!(passed);
        // The first rule whose matcher hits this src decides the dst.
        let expected = (0..n_rules).find(|k| (*k as u8 % 4) == src);
        match expected {
            Some(k) => prop_assert_eq!(m.eth.dst, mac(100 + k as u8)),
            None => prop_assert_eq!(m.eth.dst, mac(0xff), "no match → untouched"),
        }
    }

    #[test]
    fn replicate_into_emits_the_input_once_per_destination_in_order(
        n in 0usize..8,
    ) {
        let original = msg(1);
        let dsts: Vec<EthernetAddress> = (0..n as u8).map(|k| mac(50 + k)).collect();
        let mut copies = Vec::new();
        actions::replicate_into(original.clone(), mac(42), &dsts, &mut copies);
        prop_assert_eq!(copies.len(), n, "zero destinations emit nothing");
        for (c, &dst) in copies.iter().zip(&dsts) {
            // Equal to the input except `eth.src`/`eth.dst`.
            let mut want = original.clone();
            actions::redirect(&mut want, mac(42), dst);
            prop_assert_eq!(c, &want);
        }
    }

    #[test]
    fn cache_take_returns_everything_inserted_for_live_keys(
        count in 1usize..20,
    ) {
        let mut cache = SymbolCache::new(64);
        let k = key(3, 5);
        for _ in 0..count {
            cache.insert(k, msg(2));
        }
        prop_assert_eq!(cache.count(&k), count);
        let taken = cache.take(&k);
        prop_assert_eq!(taken.len(), count);
        prop_assert!(cache.is_empty());
    }

    #[test]
    fn pipeline_counts_bit_flipped_frames_and_never_emits_them(
        src in 1u8..5,
        byte in 0usize..1024,
        bit in 0u8..8,
    ) {
        let bytes = msg(src).to_bytes(&EaxcMapping::DEFAULT).unwrap();
        let mut mutated = bytes.clone();
        let idx = byte % mutated.len();
        mutated[idx] ^= 1 << bit;
        let mut p = MbPipeline::new(Passthrough::new("pt", mac(0xff), mac(0xee)), mac(0xff));
        let mut emitted = 0u32;
        p.process(rb_netsim::time::SimTime(0), &mutated, &mut |_b: &[u8]| emitted += 1);
        // A flip may land in IQ payload (frame still parses and forwards),
        // in the MAC (frame is no longer for us), or in a structural field
        // (typed parse error). Whatever happens: no panic, and a frame
        // counted corrupt must never have produced output.
        if p.stats.frames_corrupt > 0 {
            prop_assert_eq!(emitted, 0, "corrupt frames must emit nothing");
            prop_assert_eq!(p.stats.parse_errors, 1);
        }
        prop_assert!(p.stats.frames_corrupt <= 1);
    }

    #[test]
    fn pipeline_counts_truncated_frames_and_never_emits_them(
        src in 1u8..5,
        keep in 0usize..1024,
    ) {
        let bytes = msg(src).to_bytes(&EaxcMapping::DEFAULT).unwrap();
        let keep = keep % bytes.len(); // strictly shorter than the frame
        let mut p = MbPipeline::new(Passthrough::new("pt", mac(0xff), mac(0xee)), mac(0xff));
        let mut emitted = 0u32;
        p.process(rb_netsim::time::SimTime(0), bytes.get(..keep).unwrap(), &mut |_b: &[u8]| {
            emitted += 1;
        });
        prop_assert_eq!(emitted, 0, "a truncated frame must never emit");
        prop_assert_eq!(p.stats.parse_errors, 1);
        if keep >= 14 {
            // The Ethernet header survived, so the eCPRI ethertype is
            // visible: this is wire damage, not foreign traffic.
            prop_assert_eq!(p.stats.frames_corrupt, 1);
        } else {
            prop_assert_eq!(p.stats.frames_corrupt, 0);
        }
    }
}
