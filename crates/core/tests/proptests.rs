//! Property tests over the framework invariants: the symbol cache never
//! exceeds its capacity and never loses messages it did not evict; the
//! forwarding table is first-match-wins; replication preserves everything
//! but the addressing; the pipeline survives arbitrarily mangled frames
//! without emitting; the in-place IQ sum equals a decode-everything
//! reference; whichever way the pipeline serializes a replica — in full or
//! by rewriting the headers over its sibling's frame — and whether the sink
//! copies the last frame or swaps it out, the bytes are those of a deep
//! copy serialized on its own; a stream table answers every lookup as an
//! ordered map would.

// Test code is exempt from the crate's panic-vector denies.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use rb_core::actions;
use rb_core::cache::{CacheKey, Plane, SymbolCache};
use rb_core::hash::{StreamKey, StreamMap};
use rb_core::mgmt::{ForwardingTable, Match, Rule, RuleAction};
use rb_core::middlebox::{MbContext, Middlebox, Passthrough};
use rb_core::pipeline::{Emit, MbPipeline, SeqMode};
use rb_fronthaul::bfp::CompressionMethod;
use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::iq::{IqSample, Prb};
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::timing::SymbolId;
use rb_fronthaul::uplane::{UPlaneRepr, USection};
use rb_fronthaul::Direction;

use rb_check::{check, Gen};

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

fn arb_method(g: &mut Gen) -> CompressionMethod {
    match g.below(3) {
        0 => CompressionMethod::NoCompression,
        1 => CompressionMethod::BFP9,
        _ => CompressionMethod::BlockFloatingPoint { iq_width: g.range(1..=16) },
    }
}

/// The methods on either side of the sum's kernel dispatch: the paper's
/// BFP-9 (its own kernels, picked once per run), uncompressed and BFP-14
/// (the per-PRB path), and now and then any width at all.
fn arb_sum_method(g: &mut Gen) -> CompressionMethod {
    match g.below(5) {
        0 | 1 => CompressionMethod::BFP9,
        2 => CompressionMethod::NoCompression,
        3 => CompressionMethod::BlockFloatingPoint { iq_width: 14 },
        _ => arb_method(g),
    }
}

/// 1–5 sections over one PRB range, each with its own method and its own
/// IQ. Sizes sit on both sides of the sum's block boundary, plus the
/// paper's 273-PRB carrier. `quiet` shifts a source's samples down: 0 is
/// full scale (sums saturate, so their order shows), 15 and up leave only
/// 0 and −1 (every exponent in between is exercised). A `corrupt` source
/// has the exponents 8–15 written over every third PRB's `udCompParam` —
/// values no compressor emits and a wire can carry.
fn arb_sections(g: &mut Gen) -> Vec<USection> {
    let b = actions::SUM_BLOCK_PRBS;
    let num_prb = match g.below(6) {
        0 => 1,
        1 => b - 1,
        2 => b,
        3 => b + 1,
        4 => 273,
        _ => g.range(2..3 * b),
    };
    let start_prb = g.range(0u16..0x200);
    g.vec(1..6, |g| {
        let (method, seed, quiet, corrupt) =
            (arb_sum_method(g), g.any::<u64>(), g.range(0u32..24), g.bool());
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

/// A sink that takes each input's last frame as the dataplane worker does,
/// by swapping in a buffer of its own, and hands the pipeline junk of a
/// varying length in exchange: what the pipeline emits next must not
/// depend on what it then finds in its buffer.
#[derive(Default)]
struct SwapSink {
    frames: Vec<Vec<u8>>,
    swaps: usize,
}

impl Emit for SwapSink {
    fn emit(&mut self, frame: &[u8]) {
        self.frames.push(frame.to_vec());
    }

    fn emit_last(&mut self, frame: &mut Vec<u8>) {
        let junk = vec![0xa5; [0, 9, 200, 9000][self.swaps % 4]];
        self.frames.push(std::mem::replace(frame, junk));
        self.swaps += 1;
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

fn arb_rule_for(g: &mut Gen) -> RuleFor {
    match g.below(5) {
        0 | 1 => RuleFor::Pass,
        2 => RuleFor::SetEaxc(g.range(0..4)),
        3 => RuleFor::SetVlan(g.option(|g| g.range(1..4095))),
        _ => RuleFor::Drop,
    }
}

/// A DL message from the DU `mac(1)` to the middlebox `mac(10)`: C-plane,
/// or U-plane of one to three sections.
fn arb_input(g: &mut Gen) -> FhMessage {
    let body = if g.bool() {
        let fields = SectionFields::data(0, g.range(0..200), 10, 14);
        let bfp9 = CompressionMethod::BFP9;
        Body::CPlane(CPlaneRepr::single(Direction::Downlink, SymbolId::ZERO, bfp9, fields))
    } else {
        let specs = g.vec(1..4, |g| (arb_method(g), g.any::<u8>(), g.range(1usize..6)));
        let sections = (0..)
            .zip(specs)
            .map(|(id, (method, fill, num_prb))| {
                let s = IqSample::new(i16::from(fill) << 4, -i16::from(fill));
                USection::from_prbs(id, 0, &vec![Prb([s; 12]); num_prb], method).unwrap()
            })
            .collect();
        let (direction, symbol) = (Direction::Downlink, SymbolId::ZERO);
        Body::UPlane(UPlaneRepr { direction, filter_index: 0, symbol, sections })
    };
    let mut m = FhMessage::new(mac(1), mac(10), Eaxc::port(g.range(0..4)), 0, body);
    m.eth.vlan = g.option(|g| g.range(1..4095));
    m
}

#[test]
fn every_emitted_frame_equals_a_deep_copy_serialized_alone() {
    check(64, |g| {
        let (inputs, rules) = (g.vec(1..4, arb_input), g.vec(0..6, arb_rule_for));
        // Where the handler's own message goes, what it is (an input-like
        // message, or one that cannot serialize) — if there is one.
        let extra = g.option(|g| (g.range(0usize..6), arb_input(g), g.bool()));
        let preserve = g.bool();
        let mapping = EaxcMapping::DEFAULT;
        let dsts: Vec<EthernetAddress> = (0..rules.len() as u8).map(|k| mac(50 + k)).collect();
        let extra = extra.map(|(after, mut m, broken)| {
            actions::redirect(&mut m, mac(10), mac(99));
            if let (true, Some(up)) = (broken, m.as_uplane_mut()) {
                up.sections[0].section_id = 0x1000; // 13 bits: fails `validate`
            }
            (after, m)
        });
        let pipeline = || {
            let mut p =
                MbPipeline::new(Fanout { dsts: dsts.clone(), extra: extra.clone() }, mac(10));
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
                let matcher = Match { dst: Some(dst), ..Match::any() };
                p.rules().write().push(Rule { matcher, action });
            }
            p
        };
        // One pipeline emits through the copying default, the other through
        // a sink that swaps each input's last frame out of it.
        let (mut p, mut q) = (pipeline(), pipeline());
        let mut swapped = SwapSink::default();

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
            q.process(rb_netsim::time::SimTime(0), &wire, &mut swapped);
        }
        assert_eq!(got.len(), want.len());
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "emitted frame {}", k);
        }
        assert_eq!(&swapped.frames, &want, "through the swapping sink");
        assert!(swapped.swaps <= inputs.len(), "at most one swap per input");
        for p in [&p, &q] {
            assert_eq!(p.stats.tx, want.len() as u64);
            assert_eq!(p.stats.rule_drops, drops);
            assert_eq!(p.stats.emit_errors, errors);
        }
    });
}

#[test]
fn in_place_sum_equals_the_allocating_oracle() {
    check(64, |g| {
        let sections = arb_sections(g);
        let mut dst = sections[0].clone();
        actions::sum_sections_into(&mut dst, |k| sections.get(k + 1)).unwrap();
        assert_eq!(dst, sum_sections_oracle(&sections));
    });
}

/// The cache holds at most `capacity` messages, and every distinct key is
/// live or was evicted at least once (a key can be evicted and later
/// re-inserted, so evictions may exceed distinct − live).
fn cache_accounts_for(capacity: usize, inserts: &[(u16, u8)]) {
    let mut cache = SymbolCache::new(capacity);
    let mut inserted_keys = std::collections::HashSet::new();
    for &(eaxc, sym) in inserts {
        cache.insert(key(eaxc, sym), msg(1));
        inserted_keys.insert((eaxc, sym % 14));
        assert!(cache.len() <= capacity, "len {} > cap {capacity}", cache.len());
    }
    let (live, evicted) = (cache.keys().count() as u64, cache.evictions);
    let distinct = inserted_keys.len() as u64;
    assert!(live + evicted >= distinct, "live {live} + evicted {evicted} covers {distinct} keys");
}

#[test]
fn cache_respects_capacity_and_accounts_evictions() {
    check(64, |g| {
        let capacity = g.range(1usize..16);
        cache_accounts_for(capacity, &g.vec(1..100, |g| (g.range(0u16..8), g.range(0u8..14))));
    });
}

/// A case proptest once shrank a failure of the property above to: one
/// slot, a key re-inserted after another evicted it.
#[test]
fn cache_of_one_slot_accounts_for_a_key_evicted_and_reinserted() {
    cache_accounts_for(1, &[(0, 7), (0, 0), (0, 7)]);
}

/// A key from a pool of 48 MACs × 4 eAxC ids × 3 tags (no direction,
/// downlink, uplink): small enough that keys recur, and that some differ
/// only in the tag; large enough to take the table through several
/// doublings (16 slots at first, 1 024 for all 576 keys).
fn arb_stream_key(g: &mut Gen) -> StreamKey {
    let mac = EthernetAddress::new(2, 0, 0, 0, g.range(0..2), g.range(0..24));
    let eaxc = g.range(0u16..4) * 0x111;
    match g.below(3) {
        0 => StreamKey::new(mac, eaxc),
        1 => StreamKey::directed(mac, eaxc, Direction::Downlink),
        _ => StreamKey::directed(mac, eaxc, Direction::Uplink),
    }
}

#[test]
fn stream_map_agrees_with_an_ordered_map() {
    check(64, |g| {
        let mut map = StreamMap::default();
        let mut model = std::collections::BTreeMap::new();
        for step in 0..g.range(1u32..800) {
            let key = arb_stream_key(g);
            match g.below(4) {
                0 => assert_eq!(map.insert(key, step), model.insert(key, step), "insert {key:?}"),
                1 => assert_eq!(map.find(key), model.get(&key), "find {key:?}"),
                2 => {
                    if let Some(v) = map.find_mut(key) {
                        *v = v.wrapping_mul(3);
                    }
                    if let Some(v) = model.get_mut(&key) {
                        *v = v.wrapping_mul(3);
                    }
                    assert_eq!(map.find(key), model.get(&key), "find_mut {key:?}");
                }
                _ => {
                    let got = map.find_or_insert_with(key, || step).map(|v| *v);
                    assert_eq!(got, Some(*model.entry(key).or_insert(step)), "or-insert {key:?}");
                }
            }
            assert_eq!(map.len(), model.len());
        }
        let mut values: Vec<u32> = map.values().copied().collect();
        values.sort_unstable();
        let mut want: Vec<u32> = model.values().copied().collect();
        want.sort_unstable();
        assert_eq!(values, want, "values");
        for key in model.keys() {
            assert_eq!(map.find(*key), model.get(key), "after the run: {key:?}");
        }
    });
}

#[test]
fn forwarding_table_first_match_wins() {
    check(64, |g| {
        let (n_rules, src) = (g.range(1usize..6), g.range(0u8..4));
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
        assert!(passed);
        // The first rule whose matcher hits this src decides the dst.
        let expected = (0..n_rules).find(|k| (*k as u8 % 4) == src);
        match expected {
            Some(k) => assert_eq!(m.eth.dst, mac(100 + k as u8)),
            None => assert_eq!(m.eth.dst, mac(0xff), "no match → untouched"),
        }
    });
}

#[test]
fn replicate_into_emits_the_input_once_per_destination_in_order() {
    check(64, |g| {
        let n = g.range(0usize..8);
        let original = msg(1);
        let dsts: Vec<EthernetAddress> = (0..n as u8).map(|k| mac(50 + k)).collect();
        let mut copies = Vec::new();
        actions::replicate_into(original.clone(), mac(42), &dsts, &mut copies);
        assert_eq!(copies.len(), n, "zero destinations emit nothing");
        for (c, &dst) in copies.iter().zip(&dsts) {
            // Equal to the input except `eth.src`/`eth.dst`.
            let mut want = original.clone();
            actions::redirect(&mut want, mac(42), dst);
            assert_eq!(c, &want);
        }
    });
}

#[test]
fn cache_take_returns_everything_inserted_for_live_keys() {
    check(64, |g| {
        let count = g.range(1usize..20);
        let mut cache = SymbolCache::new(64);
        let k = key(3, 5);
        for _ in 0..count {
            cache.insert(k, msg(2));
        }
        assert_eq!(cache.count(&k), count);
        let taken = cache.take(&k);
        assert_eq!(taken.len(), count);
        assert!(cache.is_empty());
    });
}

#[test]
fn pipeline_counts_bit_flipped_frames_and_never_emits_them() {
    check(64, |g| {
        let (src, byte, bit) = (g.range(1u8..5), g.range(0usize..1024), g.range(0u8..8));
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
            assert_eq!(emitted, 0, "corrupt frames must emit nothing");
            assert_eq!(p.stats.parse_errors, 1);
        }
        assert!(p.stats.frames_corrupt <= 1);
    });
}

#[test]
fn pipeline_counts_truncated_frames_and_never_emits_them() {
    check(64, |g| {
        let (src, keep) = (g.range(1u8..5), g.range(0usize..1024));
        let bytes = msg(src).to_bytes(&EaxcMapping::DEFAULT).unwrap();
        let keep = keep % bytes.len(); // strictly shorter than the frame
        let mut p = MbPipeline::new(Passthrough::new("pt", mac(0xff), mac(0xee)), mac(0xff));
        let mut emitted = 0u32;
        p.process(rb_netsim::time::SimTime(0), bytes.get(..keep).unwrap(), &mut |_b: &[u8]| {
            emitted += 1;
        });
        assert_eq!(emitted, 0, "a truncated frame must never emit");
        assert_eq!(p.stats.parse_errors, 1);
        if keep >= 14 {
            // The Ethernet header survived, so the eCPRI ethertype is
            // visible: this is wire damage, not foreign traffic.
            assert_eq!(p.stats.frames_corrupt, 1);
        } else {
            assert_eq!(p.stats.frames_corrupt, 0);
        }
    });
}

/// The DAS merge at 2, 3 and 4 BFP-9 sources, PRB for PRB against the
/// reference oracle: raw wire runs in which every lane of every source takes
/// every 9-bit mantissa, every exponent 0..=15 appears with the corrupt
/// 8..=15 mid-run, and the sums saturate at both `i16` bounds.
#[test]
fn sum_sections_into_matches_the_oracle_at_two_to_four_sources() {
    let num_prb = 512 + 3;
    let source = |salt: usize| {
        let mut wire = Vec::with_capacity(num_prb * 28);
        for p in 0..num_prb {
            wire.push(((p + 5 * salt) % 16) as u8);
            for group in 0..3 {
                let bits = (0..8).fold(0u128, |acc, k| {
                    (acc << 9) | ((5 * p + 97 * (group * 8 + k) + 131 * salt) % 512) as u128
                });
                wire.extend_from_slice(&bits.to_be_bytes()[7..]);
            }
        }
        let shape = USection::from_prbs(7, 3, &vec![Prb::ZERO; num_prb], CompressionMethod::BFP9);
        USection { payload: wire.as_slice().into(), ..shape.unwrap() }
    };
    let sources: Vec<USection> = (0..4).map(source).collect();
    let mut bounds = [false; 2];
    for n in 2..=4 {
        let sections = &sources[..n];
        let mut dst = sections[0].clone();
        actions::sum_sections_into(&mut dst, |k| sections.get(k + 1)).unwrap();
        assert_eq!(dst, sum_sections_oracle(sections), "{n} sources");
        // Where the wide sum leaves `i16`, the merge saturated.
        for p in 0..num_prb {
            let wide = (0..24).map(|j| {
                let terms = sections.iter().map(|s| {
                    let b = &s.payload[28 * p..28 * (p + 1)];
                    i32::from(reference::decompress(&b[1..], 9, b[0])[j])
                });
                terms.sum::<i32>()
            });
            for w in wide {
                bounds[0] |= w < i32::from(i16::MIN);
                bounds[1] |= w > i32::from(i16::MAX);
            }
        }
    }
    assert_eq!(bounds, [true; 2], "sums past both bounds");
}
