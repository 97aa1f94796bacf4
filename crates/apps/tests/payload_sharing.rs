//! The shared U-plane payload (`rb_fronthaul::uplane::Payload`) is safe to
//! alias and cheap to replicate: a write through one replica never shows
//! in its siblings, a message somebody holds keeps its bytes however often
//! the pipeline recycles the body it was cloned from, the recycler refills
//! a block in place exactly when nobody shares it, and the DAS fan-out and
//! merge allocate no payload-sized block. A binary of its own because the
//! counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rb_apps::das::{Das, DasConfig};
use rb_apps::tap::{Tap, TapConfig};
use rb_core::actions;
use rb_core::cache::{CacheKey, Plane, SymbolCache};
use rb_core::middlebox::{MbContext, Middlebox};
use rb_core::pipeline::MbPipeline;
use rb_core::telemetry::TelemetrySender;
use rb_fronthaul::bfp::CompressionMethod;
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::iq::{IqSample, Prb};
use rb_fronthaul::msg::{Body, FhMessage, MsgRecycler};
use rb_fronthaul::timing::{Numerology, SymbolId};
use rb_fronthaul::uplane::{UPlaneRepr, USection};
use rb_fronthaul::Direction;
use rb_netsim::time::SimTime;

/// Allocations at least this large count as "a payload": a 273-PRB BFP9
/// payload is 7 644 bytes, a section list or a cache slot a few dozen.
const PAYLOAD_SIZED: usize = 4096;

thread_local! {
    // Per thread, so each test counts only itself.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGE: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every request unchanged to `System`; the only addition is
// bumps of const-initialised, destructor-free thread-locals, which do not
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            if layout.size() >= PAYLOAD_SIZED {
                let _ = LARGE.try_with(|n| n.set(n.get() + 1));
            }
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(all, payload-sized)` allocations made by `f` on this thread.
fn allocations_during(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), LARGE.with(Cell::get));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(Cell::get) - before.0, LARGE.with(Cell::get) - before.1)
}

const MAPPING: EaxcMapping = EaxcMapping::DEFAULT;
const MB: u8 = 10;
const DU: u8 = 1;

fn mac(last: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, last)
}

/// A one-section U-plane message of `num_prb` PRBs whose every sample
/// derives from `tag`, so two tags never share a payload byte pattern.
fn uplane(src: u8, direction: Direction, symbol: SymbolId, num_prb: usize, tag: i16) -> FhMessage {
    let prbs: Vec<Prb> = (0..num_prb)
        .map(|k| Prb([IqSample::new(tag.wrapping_mul(3).wrapping_add(k as i16), tag); 12]))
        .collect();
    let section = USection::from_prbs(0, 0, &prbs, CompressionMethod::BFP9).unwrap();
    let body = Body::UPlane(UPlaneRepr::single(direction, symbol, section));
    FhMessage::new(mac(src), mac(MB), Eaxc::port(0), 0, body)
}

fn payload_of(msg: &FhMessage) -> &[u8] {
    &msg.as_uplane().unwrap().sections[0].payload
}

fn section_mut(msg: &mut FhMessage) -> &mut USection {
    &mut msg.as_uplane_mut().unwrap().sections[0]
}

fn das(rus: u8) -> Das {
    let ru_macs = (0..rus).map(|k| mac(20 + k)).collect();
    Das::new("das", DasConfig { mb_mac: mac(MB), du_mac: mac(DU), ru_macs })
}

#[test]
fn a_write_through_one_replica_never_shows_in_its_siblings() {
    let original = uplane(DU, Direction::Downlink, SymbolId::ZERO, 8, 7);
    let pristine = payload_of(&original).to_vec();
    let other = uplane(DU, Direction::Downlink, SymbolId::ZERO, 8, 99);
    let dsts = [mac(20), mac(21), mac(22), mac(23)];
    let mut replicas = Vec::new();
    actions::replicate_into(original.clone(), mac(MB), &dsts, &mut replicas);
    for r in &replicas {
        assert!(r.shares_wire_tail(&original), "replicas share the original's block");
    }

    // Each of the three payload-writing primitives, on a different replica.
    section_mut(&mut replicas[0]).prb_bytes_mut(2).unwrap().fill(0xaa);
    let src = other.as_uplane().unwrap().sections[0].clone();
    actions::copy_prbs(section_mut(&mut replicas[1]), &src, 0, 3, 4).unwrap();
    actions::sum_sections_into(section_mut(&mut replicas[2]), |k| [&src].get(k).copied()).unwrap();

    for (k, written) in replicas.iter().take(3).enumerate() {
        assert_ne!(payload_of(written), pristine, "replica {k} took its write");
        assert!(!written.shares_wire_tail(&original), "replica {k} moved to a private block");
    }
    assert_eq!(payload_of(&replicas[3]), pristine, "the untouched replica");
    assert_eq!(payload_of(&original), pristine, "the original");
    assert!(replicas[3].shares_wire_tail(&original), "and the two still share");
    // The writes did not leak between the written replicas either.
    assert_ne!(payload_of(&replicas[0]), payload_of(&replicas[1]));
    assert_ne!(payload_of(&replicas[1]), payload_of(&replicas[2]));
}

/// Caches a clone of each of its first `keep` frames, forwards every frame,
/// and takes the clones back out of the cache when frame `probe_at` comes.
struct Keeper {
    keep: u64,
    probe_at: u64,
    seen: u64,
    keys: Vec<CacheKey>,
    found: Vec<FhMessage>,
}

impl Middlebox for Keeper {
    fn name(&self) -> &str {
        "keeper"
    }
    fn on_cplane(&mut self, _: &mut MbContext<'_>, _: FhMessage, _: &mut Vec<FhMessage>) {}
    fn on_uplane(&mut self, ctx: &mut MbContext<'_>, mut msg: FhMessage, out: &mut Vec<FhMessage>) {
        let up = msg.as_uplane().unwrap();
        if self.seen < self.keep {
            let key = CacheKey {
                eaxc_raw: msg.eaxc.pack(&ctx.mapping),
                direction: up.direction,
                plane: Plane::U,
                filter: up.filter_index,
                symbol: up.symbol,
            };
            ctx.cache.insert(key, msg.clone());
            self.keys.push(key);
        }
        self.seen += 1;
        if self.seen == self.probe_at {
            for key in &self.keys {
                self.found.extend(ctx.cache.take(key));
            }
        }
        actions::redirect(&mut msg, mac(MB), mac(30));
        actions::emit(out, msg);
    }
}

/// Frame `k` of the held-message tests: its symbol and its payload both
/// derive from `k`, and the payload size varies so that a recycled block
/// is refilled by smaller, equal and larger payloads.
fn numbered_frame(k: u64) -> (FhMessage, Vec<u8>) {
    let symbol = SymbolId { frame: (k / 14) as u8, subframe: 0, slot: 0, symbol: (k % 14) as u8 };
    let msg = uplane(DU, Direction::Downlink, symbol, 4 + (k % 5) as usize, k as i16 + 1);
    let wire = msg.to_bytes(&MAPPING).unwrap();
    (msg, wire)
}

#[test]
fn a_message_held_by_the_symbol_cache_keeps_its_bytes_across_recycling() {
    let keeper = Keeper { keep: 6, probe_at: 1006, seen: 0, keys: Vec::new(), found: Vec::new() };
    let mut p = MbPipeline::new(keeper, mac(MB));
    for k in 0..1006 {
        let (_, wire) = numbered_frame(k);
        // Each forwarded body is recycled while its clone sits in the cache.
        p.process(SimTime(0), &wire, &mut |_: &[u8]| {});
    }
    let found = &p.middlebox().found;
    assert_eq!(found.len(), 6);
    for (k, held) in found.iter().enumerate() {
        let (want, _) = numbered_frame(k as u64);
        assert_eq!(held.body, want.body, "cached frame {k} after 1 000 more parses");
    }
}

#[test]
fn a_message_held_by_the_tap_ring_keeps_its_bytes_across_recycling() {
    let cfg = TapConfig { mb_mac: mac(MB), du_mac: mac(DU), ru_mac: mac(30), ring_capacity: 1100 };
    let mut p = MbPipeline::new(Tap::new("tap", cfg), mac(MB));
    let mut emitted = Vec::new();
    for k in 0..1010 {
        let (_, wire) = numbered_frame(k);
        p.process(SimTime(k), &wire, &mut |b: &[u8]| emitted.push(b.to_vec()));
    }
    let tap = p.middlebox();
    assert_eq!(tap.len(), 1010);
    for (k, captured) in tap.captured().enumerate() {
        let (want, _) = numbered_frame(k as u64);
        assert_eq!(captured.msg.body, want.body, "captured frame {k}");
    }
    // And what went out while the ring held its clone is right too.
    for (k, bytes) in emitted.iter().enumerate() {
        let (want, _) = numbered_frame(k as u64);
        assert_eq!(FhMessage::parse(bytes, &MAPPING).unwrap().body, want.body, "emitted {k}");
    }
}

#[test]
fn the_recycler_refills_in_place_only_when_nobody_shares_the_block() {
    let wire = |num_prb, tag| {
        uplane(DU, Direction::Downlink, SymbolId::ZERO, num_prb, tag).to_bytes(&MAPPING).unwrap()
    };
    let (big, small, big2) = (wire(273, 1), wire(100, 2), wire(273, 3));
    let mut rec = MsgRecycler::default();
    let warm = rec.parse(&big, &MAPPING).unwrap();
    rec.recycle(warm);

    // Unshared: a smaller and then an equal payload reuse the block.
    for frame in [&small, &big2, &big] {
        let mut parsed = None;
        let n = allocations_during(|| parsed = Some(rec.parse(frame, &MAPPING).unwrap()));
        assert_eq!(n, (0, 0), "an unshared body is refilled in place");
        let parsed = parsed.unwrap();
        assert_eq!(parsed, FhMessage::parse(frame, &MAPPING).unwrap());
        rec.recycle(parsed);
    }

    // Shared: somebody keeps a clone of the body that is handed back.
    let first = rec.parse(&big, &MAPPING).unwrap();
    let held = first.clone();
    rec.recycle(first);
    let mut second = None;
    let n = allocations_during(|| second = Some(rec.parse(&big2, &MAPPING).unwrap()));
    assert_eq!(n, (1, 1), "one fresh block; the section list is still reused");
    let second = second.unwrap();
    assert_eq!(held, FhMessage::parse(&big, &MAPPING).unwrap(), "never written through");
    assert_eq!(second, FhMessage::parse(&big2, &MAPPING).unwrap());
    assert!(!second.shares_wire_tail(&held));
}

#[test]
fn the_das_uplink_merge_allocates_nothing() {
    let mut mb = das(4);
    let mut cache = SymbolCache::new(64);
    let tel = TelemetrySender::disconnected("t");
    let mut out = Vec::with_capacity(4);
    let mut charges = Vec::with_capacity(8);
    let mut symbol = SymbolId::ZERO;
    // Two warm-up symbols, then the measured one.
    for round in 0..3 {
        for ru in 0..4u8 {
            // Parsed from the wire, as the pipeline's input is: unshared.
            let wire = uplane(20 + ru, Direction::Uplink, symbol, 273, i16::from(ru) * 50 + 9)
                .to_bytes(&MAPPING)
                .unwrap();
            let msg = FhMessage::parse(&wire, &MAPPING).unwrap();
            out.clear();
            charges.clear();
            let mut ctx = MbContext {
                now: SimTime(0),
                cache: &mut cache,
                telemetry: &tel,
                mapping: MAPPING,
                charges: std::mem::take(&mut charges),
            };
            let n = allocations_during(|| mb.handle_into(&mut ctx, msg, &mut out));
            charges = ctx.charges;
            if round == 2 && ru == 3 {
                assert_eq!(out.len(), 1, "the fourth RU's frame fires the merge");
                assert_eq!(n, (0, 0), "summed in place over the first cached payload");
            }
        }
        symbol = symbol.next(Numerology::Mu1);
    }
    assert_eq!(mb.stats.ul_merges, 3);
}

#[test]
fn a_four_ru_downlink_fan_out_allocates_three_section_lists_and_no_payload() {
    let mut p = MbPipeline::new(das(4), mac(MB));
    let mut symbol = SymbolId::ZERO;
    let mut frame = |p: &mut MbPipeline<Das>| {
        let wire = uplane(DU, Direction::Downlink, symbol, 273, 5).to_bytes(&MAPPING).unwrap();
        symbol = symbol.next(Numerology::Mu1);
        let mut emitted = 0;
        let n = allocations_during(|| {
            p.process(SimTime(0), &wire, &mut |b: &[u8]| {
                assert_eq!(b.len(), wire.len());
                emitted += 1;
            });
        });
        assert_eq!(emitted, 4);
        n
    };
    for _ in 0..16 {
        frame(&mut p);
    }
    for _ in 0..64 {
        let (all, payload_sized) = frame(&mut p);
        // One section list per clone (N − 1 of them); the parse reuses the
        // recycled body and the serialize buffer is warm.
        assert!(all <= 3, "{all} allocations for one replicated frame");
        assert_eq!(payload_sized, 0, "no 7.7 KB block: the payload is shared, not copied");
    }
}
