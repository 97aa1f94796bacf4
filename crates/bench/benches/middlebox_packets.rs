//! Criterion benchmarks of the per-packet middlebox datapaths —
//! the machine-measured counterpart of Figure 15b, plus the two design
//! ablations DESIGN.md calls out:
//!
//! * RU sharing: aligned compressed-copy fast path vs the misaligned
//!   decompress/shift/recompress path (Figure 6);
//! * PRB monitoring: exponent-peek estimator (Algorithm 1) vs the
//!   rejected decompress-and-threshold-energy alternative.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rb_apps::das::{Das, DasConfig};
use rb_apps::dmimo::{Dmimo, DmimoConfig, PhysicalRu, SsbBand};
use rb_apps::prbmon::{Estimator, PrbMon, PrbMonConfig};
use rb_apps::rushare::{CarrierSpec, RuShare, RuShareConfig, SharedDu};
use rb_core::cache::SymbolCache;
use rb_core::middlebox::{MbContext, Middlebox};
use rb_core::pipeline::MbPipeline;
use rb_core::telemetry::TelemetrySender;
use rb_fronthaul::bfp::CompressionMethod;
use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::freq;
use rb_fronthaul::iq::{IqSample, Prb};
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::timing::{Numerology, SymbolId};
use rb_fronthaul::uplane::{UPlaneRepr, USection};
use rb_fronthaul::Direction;
use rb_netsim::time::SimTime;

fn mac(last: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, last)
}

fn tone(seed: i16) -> Prb {
    let mut p = Prb::ZERO;
    for (k, s) in p.0.iter_mut().enumerate() {
        *s = IqSample::new(seed.wrapping_mul(k as i16 + 3), seed.wrapping_sub(k as i16 * 17));
    }
    p
}

fn uplane_msg(
    src: EthernetAddress,
    dir: Direction,
    symbol: SymbolId,
    n: usize,
    start: u16,
) -> FhMessage {
    let prbs: Vec<Prb> = (0..n).map(|k| tone(300 + k as i16)).collect();
    let section = USection::from_prbs(0, start, &prbs, CompressionMethod::BFP9).unwrap();
    FhMessage::new(
        src,
        mac(10),
        Eaxc::port(0),
        0,
        Body::UPlane(UPlaneRepr::single(dir, symbol, section)),
    )
}

fn with_ctx<R>(cache: &mut SymbolCache, f: impl FnOnce(&mut MbContext<'_>) -> R) -> R {
    let tel = TelemetrySender::disconnected("bench");
    let mut ctx = MbContext {
        now: SimTime(0),
        cache,
        telemetry: &tel,
        mapping: EaxcMapping::DEFAULT,
        charges: Vec::new(),
    };
    f(&mut ctx)
}

fn das(rus: u8) -> Das {
    let ru_macs = (0..rus).map(|k| mac(20 + k)).collect();
    Das::new("das", DasConfig { mb_mac: mac(10), du_mac: mac(1), ru_macs })
}

/// Figure 15b by machine measurement: the DAS handler per packet class.
fn bench_das(c: &mut Criterion) {
    let mut g = c.benchmark_group("das");
    g.bench_function("dl_uplane_replicate_x4", |b| {
        let mut das = das(4);
        let mut cache = SymbolCache::new(1024);
        let msg = uplane_msg(mac(1), Direction::Downlink, SymbolId::ZERO, 273, 0);
        b.iter(|| {
            with_ctx(&mut cache, |ctx| black_box(das.handle(ctx, msg.clone())));
        });
    });
    for rus in [2usize, 4] {
        g.bench_with_input(BenchmarkId::new("ul_merge_273prb", rus), &rus, |b, &rus| {
            let mut das = das(rus as u8);
            let mut cache = SymbolCache::new(1024);
            // Pre-built packets: the merge drains the cache each cycle, so
            // the same symbol can be replayed. Measures one full cycle:
            // (rus−1) cache inserts + 1 decompress-sum-recompress merge.
            let msgs: Vec<FhMessage> = (0..rus as u8)
                .map(|k| uplane_msg(mac(20 + k), Direction::Uplink, SymbolId::ZERO, 273, 0))
                .collect();
            b.iter(|| {
                for msg in &msgs {
                    with_ctx(&mut cache, |ctx| black_box(das.handle(ctx, msg.clone())));
                }
            });
        });
    }
    g.finish();
    // The same fan-out through the whole packet path (parse, handler,
    // rules, restamp, serialize), where sharing the payload pays twice: the
    // clones copy nothing, and three of the four emits rewrite ~22 header
    // bytes over the first one's frame.
    c.bench_function("pipeline/das_dl_process_x4_273prb", |b| {
        let mut p = MbPipeline::new(das(4), mac(10));
        let wire = uplane_msg(mac(1), Direction::Downlink, SymbolId::ZERO, 273, 0)
            .to_bytes(&EaxcMapping::DEFAULT)
            .unwrap();
        b.iter(|| {
            p.process(SimTime(0), &wire, &mut |frame: &[u8]| {
                black_box(frame);
            })
        });
    });
}

/// dMIMO's header-only remap (the Table 1 "kernel" class).
fn bench_dmimo(c: &mut Criterion) {
    c.bench_function("dmimo/remap_273prb", |b| {
        let mut mb = Dmimo::new(
            "dmimo",
            DmimoConfig {
                mb_mac: mac(10),
                du_mac: mac(1),
                rus: vec![
                    PhysicalRu { mac: mac(20), ports: 2 },
                    PhysicalRu { mac: mac(21), ports: 2 },
                ],
                ssb_copy: false,
                ssb: Some(SsbBand { start_prb: 126, num_prb: 20 }),
            },
        );
        let mut cache = SymbolCache::new(64);
        let mut msg = uplane_msg(mac(1), Direction::Downlink, SymbolId::ZERO, 273, 0);
        msg.eaxc = Eaxc::port(3);
        b.iter(|| {
            with_ctx(&mut cache, |ctx| black_box(mb.handle(ctx, msg.clone())));
        });
    });
}

/// RU sharing ablation: aligned byte-copy vs misaligned recompression.
fn bench_rushare_alignment(c: &mut Criterion) {
    let mut g = c.benchmark_group("rushare");
    const RU_CENTER: i64 = 3_460_000_000;
    let build = |misaligned: bool| -> RuShare {
        let mut center = freq::aligned_du_center_hz(RU_CENTER, 273, 106, 0, 30_000);
        if misaligned {
            center += 6 * 30_000;
        }
        RuShare::new(
            "share",
            RuShareConfig {
                mb_mac: mac(10),
                ru_mac: mac(9),
                ru: CarrierSpec { center_hz: RU_CENTER, num_prb: 273, scs_hz: 30_000 },
                dus: vec![SharedDu {
                    mac: mac(1),
                    du_id: 1,
                    carrier: CarrierSpec { center_hz: center, num_prb: 106, scs_hz: 30_000 },
                }],
            },
        )
    };
    for (label, misaligned) in [("aligned_fast_path", false), ("misaligned_recompress", true)] {
        g.bench_function(BenchmarkId::new("dl_mux_106prb", label), |b| {
            let mut mb = build(misaligned);
            let mut cache = SymbolCache::new(1024);
            let mut symbol = SymbolId::ZERO;
            b.iter(|| {
                // New slot each iteration: C-plane then one U-plane symbol.
                let cp = FhMessage::new(
                    mac(1),
                    mac(10),
                    Eaxc::port(0),
                    0,
                    Body::CPlane(CPlaneRepr::single(
                        Direction::Downlink,
                        symbol.slot_start(),
                        CompressionMethod::BFP9,
                        SectionFields::data(0, 0, 106, 14),
                    )),
                );
                with_ctx(&mut cache, |ctx| mb.handle(ctx, cp));
                let up = uplane_msg(mac(1), Direction::Downlink, symbol, 106, 0);
                with_ctx(&mut cache, |ctx| black_box(mb.handle(ctx, up)));
                symbol = symbol.next_slot(Numerology::Mu1);
            });
        });
    }
    g.finish();
}

/// PRB monitoring ablation: Algorithm 1's exponent peek vs decompressing
/// for an energy threshold.
fn bench_prbmon_estimators(c: &mut Criterion) {
    let mut g = c.benchmark_group("prbmon");
    for (label, estimator) in [
        ("exponent_alg1", Estimator::Exponent),
        ("energy_decompress", Estimator::Energy { threshold: 100_000.0 }),
    ] {
        g.bench_function(BenchmarkId::new("scan_273prb", label), |b| {
            let mut cfg = PrbMonConfig::standard(mac(10), mac(1), mac(9), 273);
            cfg.estimator = estimator;
            let mut mb = PrbMon::new("mon", cfg);
            let mut cache = SymbolCache::new(64);
            let msg = uplane_msg(mac(1), Direction::Downlink, SymbolId::ZERO, 273, 0);
            b.iter(|| {
                with_ctx(&mut cache, |ctx| black_box(mb.handle(ctx, msg.clone())));
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_das, bench_dmimo, bench_rushare_alignment, bench_prbmon_estimators);
criterion_main!(benches);
