//! Criterion microbenchmarks for the fronthaul hot paths: BFP
//! (de)compression, the in-place DAS uplink merge, U-plane parse/emit,
//! whole-frame round trips and the bare IQ sum — the primitives behind
//! the Figure 15b latencies.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use rb_fronthaul::bfp::{self, CompressionMethod};
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::iq::{IqSample, Prb};
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::timing::SymbolId;
use rb_fronthaul::uplane::{UPlaneRepr, USection};
use rb_fronthaul::Direction;

fn tone(seed: i16) -> Prb {
    let mut p = Prb::ZERO;
    for (k, s) in p.0.iter_mut().enumerate() {
        *s = IqSample::new(seed.wrapping_mul(k as i16 + 3), seed.wrapping_sub(k as i16 * 17));
    }
    p
}

fn prbs(n: usize) -> Vec<Prb> {
    (0..n).map(|k| tone(500 + k as i16 * 7)).collect()
}

fn bench_bfp(c: &mut Criterion) {
    let mut g = c.benchmark_group("bfp");
    let data = prbs(273);
    for width in [9u8, 14] {
        g.throughput(Throughput::Elements(273));
        g.bench_with_input(BenchmarkId::new("compress_273prb", width), &width, |b, &w| {
            let method = CompressionMethod::BlockFloatingPoint { iq_width: w };
            let mut out = vec![0u8; method.prb_wire_bytes() * 273];
            b.iter(|| {
                let per = method.prb_wire_bytes();
                for (k, prb) in data.iter().enumerate() {
                    bfp::compress_prb_wire(prb, method, &mut out[k * per..(k + 1) * per]).unwrap();
                }
                black_box(&out);
            });
        });
        g.bench_with_input(BenchmarkId::new("decompress_273prb", width), &width, |b, &w| {
            let method = CompressionMethod::BlockFloatingPoint { iq_width: w };
            let per = method.prb_wire_bytes();
            let mut wire = vec![0u8; per * 273];
            for (k, prb) in data.iter().enumerate() {
                bfp::compress_prb_wire(prb, method, &mut wire[k * per..(k + 1) * per]).unwrap();
            }
            b.iter(|| {
                for k in 0..273 {
                    black_box(
                        bfp::decompress_prb_wire(&wire[k * per..(k + 1) * per], method).unwrap(),
                    );
                }
            });
        });
    }
    // The DAS uplink combine (Figure 15b's merge bar): four 273-PRB BFP9
    // sections decompressed, summed and recompressed in place. The copy of
    // the first section stands in for the cached message the merge consumes.
    g.throughput(Throughput::Elements(4 * 273));
    g.bench_with_input(BenchmarkId::new("merge_4x273prb", 9), &9u8, |b, &w| {
        let method = CompressionMethod::BlockFloatingPoint { iq_width: w };
        let sections: Vec<USection> = (0..4i16)
            .map(|ru| {
                let prbs: Vec<Prb> = (0..273).map(|k| tone(300 + ru * 41 + k * 5)).collect();
                USection::from_prbs(0, 0, &prbs, method).unwrap()
            })
            .collect();
        let mut dst = sections[0].clone();
        b.iter(|| {
            dst.payload.copy_from_slice(&sections[0].payload);
            rb_core::actions::sum_sections_into(&mut dst, |k| sections.get(k + 1)).unwrap();
            black_box(&dst);
        });
    });
    // Algorithm 1's fast path: exponent peek without decompression.
    g.bench_function("peek_exponents_273prb", |b| {
        let method = CompressionMethod::BFP9;
        let per = method.prb_wire_bytes();
        let mut wire = vec![0u8; per * 273];
        for (k, prb) in data.iter().enumerate() {
            bfp::compress_prb_wire(prb, method, &mut wire[k * per..(k + 1) * per]).unwrap();
        }
        b.iter(|| {
            let mut utilized = 0u32;
            for k in 0..273 {
                if bfp::peek_exponent(&wire[k * per..], method).unwrap() > 0 {
                    utilized += 1;
                }
            }
            black_box(utilized)
        });
    });
    g.finish();
}

fn bench_iq_sum(c: &mut Criterion) {
    let mut g = c.benchmark_group("iq");
    let a = prbs(273);
    let b2 = prbs(273);
    g.throughput(Throughput::Elements(273 * 12));
    g.bench_function("sum_273prb", |bch| {
        bch.iter_batched(
            || a.clone(),
            |mut acc| {
                for (dst, src) in acc.iter_mut().zip(b2.iter()) {
                    dst.add_assign_saturating(src);
                }
                black_box(acc)
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn sample_frame(n_prbs: usize) -> Vec<u8> {
    let section = USection::from_prbs(0, 0, &prbs(n_prbs), CompressionMethod::BFP9).unwrap();
    FhMessage::new(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
        Eaxc::port(0),
        0,
        Body::UPlane(UPlaneRepr::single(Direction::Uplink, SymbolId::ZERO, section)),
    )
    .to_bytes(&EaxcMapping::DEFAULT)
    .unwrap()
}

fn bench_frame(c: &mut Criterion) {
    let mut g = c.benchmark_group("frame");
    for n in [106usize, 273] {
        let wire = sample_frame(n);
        g.throughput(Throughput::Bytes(wire.len() as u64));
        g.bench_with_input(BenchmarkId::new("parse_uplane", n), &wire, |b, wire| {
            b.iter(|| black_box(FhMessage::parse(wire, &EaxcMapping::DEFAULT).unwrap()));
        });
        let msg = FhMessage::parse(&wire, &EaxcMapping::DEFAULT).unwrap();
        g.bench_with_input(BenchmarkId::new("emit_uplane", n), &msg, |b, msg| {
            b.iter(|| black_box(msg.to_bytes(&EaxcMapping::DEFAULT).unwrap()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_bfp, bench_iq_sum, bench_frame);
criterion_main!(benches);
