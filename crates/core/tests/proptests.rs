//! Property tests over the framework invariants: the symbol cache never
//! exceeds its capacity and never loses messages it did not evict; the
//! forwarding table is first-match-wins; replication preserves everything
//! but the addressing; the pipeline survives arbitrarily mangled frames
//! without emitting; the in-place IQ sum equals a decode-everything
//! reference.

// Test code is exempt from the crate's panic-vector denies.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use proptest::prelude::*;
use rb_core::actions;
use rb_core::cache::{CacheKey, Plane, SymbolCache};
use rb_core::mgmt::{ForwardingTable, Match, Rule, RuleAction};
use rb_core::middlebox::Passthrough;
use rb_core::pipeline::MbPipeline;
use rb_fronthaul::bfp::CompressionMethod;
use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::iq::{IqSample, Prb};
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::timing::SymbolId;
use rb_fronthaul::uplane::USection;
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

/// Allocating reference for `actions::sum_sections_into`: decode every
/// section whole, add PRB by PRB in order, build a fresh section with the
/// first one's method.
fn sum_sections_oracle(sections: &[USection]) -> USection {
    let first = &sections[0];
    let mut acc = vec![Prb::ZERO; usize::from(first.num_prb())];
    for s in sections {
        for (slot, (prb, _exp)) in acc.iter_mut().zip(s.decode().unwrap()) {
            slot.add_assign_saturating(&prb);
        }
    }
    USection::from_prbs(first.section_id, first.start_prb, &acc, first.method).unwrap()
}

fn arb_method() -> impl Strategy<Value = CompressionMethod> {
    prop_oneof![
        Just(CompressionMethod::NoCompression),
        Just(CompressionMethod::BFP9),
        (1u8..=16).prop_map(|w| CompressionMethod::BlockFloatingPoint { iq_width: w }),
    ]
}

/// 1–5 sections over one PRB range, each with its own method and its own
/// IQ. Sizes sit on both sides of the sum's block boundary, plus the
/// paper's 273-PRB carrier. `quiet` shifts a source's samples down: 0 is
/// full scale (sums saturate, so their order shows), 15 and up leave only
/// 0 and −1 (every exponent in between is exercised).
fn arb_sections() -> impl Strategy<Value = Vec<USection>> {
    let b = actions::SUM_BLOCK_PRBS;
    let sizes = prop_oneof![Just(1usize), Just(b - 1), Just(b), Just(b + 1), Just(273), 2..3 * b];
    (sizes, 0u16..0x200, proptest::collection::vec((arb_method(), any::<u64>(), 0u32..24), 1..=5))
        .prop_map(|(num_prb, start_prb, sources)| {
            sources
                .into_iter()
                .map(|(method, seed, quiet)| {
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
                    USection::from_prbs(7, start_prb, &prbs, method).unwrap()
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
