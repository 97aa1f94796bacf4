//! Figure 15b — per-packet processing latency of the DAS middlebox by
//! traffic type and RU count.
//!
//! Unlike the CPU-utilization figures (which use the calibrated cost
//! model), this experiment measures **real wall-clock time** of the Rust
//! datapath: the middlebox handler is invoked directly on synthetic
//! 100 MHz (273-PRB) packets and timed with `std::time::Instant`. The
//! paper's shape to reproduce: DL C-plane and U-plane are sub-µs cheap;
//! ~75 % of UL packets are cheap cache inserts while the rest trigger
//! the decompress-sum-recompress merge, whose cost grows with RUs.

use std::time::Instant;

use ranbooster::apps::das::{Das, DasConfig};
use ranbooster::core::cache::SymbolCache;
use ranbooster::core::middlebox::{MbContext, Middlebox};
use ranbooster::core::telemetry::TelemetrySender;
use ranbooster::fronthaul::bfp::CompressionMethod;
use ranbooster::fronthaul::cplane::{CPlaneRepr, SectionFields};
use ranbooster::fronthaul::eaxc::{Eaxc, EaxcMapping};
use ranbooster::fronthaul::ether::EthernetAddress;
use ranbooster::fronthaul::msg::{Body, FhMessage};
use ranbooster::fronthaul::timing::{Numerology, SymbolId};
use ranbooster::fronthaul::uplane::{UPlaneRepr, USection};
use ranbooster::fronthaul::Direction;
use ranbooster::netsim::stats::Histogram;
use ranbooster::netsim::time::SimTime;
use ranbooster::radio::iqgen::PrbTemplates;

use crate::report::Report;

const PRBS: u16 = 273;

fn mac(last: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, last)
}

fn das(rus: usize) -> Das {
    Das::new(
        "das-bench",
        DasConfig {
            mb_mac: mac(10),
            du_mac: mac(1),
            ru_macs: (0..rus as u8).map(|k| mac(20 + k)).collect(),
        },
    )
}

fn dl_cplane(symbol: SymbolId) -> FhMessage {
    FhMessage::new(
        mac(1),
        mac(10),
        Eaxc::port(0),
        0,
        Body::CPlane(CPlaneRepr::single(
            Direction::Downlink,
            symbol,
            CompressionMethod::BFP9,
            SectionFields::data(0, 0, 255, 14),
        )),
    )
}

fn uplane(
    src: EthernetAddress,
    direction: Direction,
    symbol: SymbolId,
    templates: &mut PrbTemplates,
) -> FhMessage {
    let per = templates.wire_bytes();
    let mut payload = Vec::with_capacity(per * PRBS as usize);
    for k in 0..PRBS {
        payload.extend_from_slice(templates.signal(500.0 + k as f64 * 7.0));
    }
    let section = USection {
        section_id: 0,
        rb: false,
        sym_inc: false,
        start_prb: 0,
        method: CompressionMethod::BFP9,
        payload: payload.as_slice().into(),
    };
    FhMessage::new(
        src,
        mac(10),
        Eaxc::port(0),
        0,
        Body::UPlane(UPlaneRepr::single(direction, symbol, section)),
    )
}

/// Handler wall-clock times of one traffic class, in nanoseconds.
#[derive(Default)]
struct ClassTimes {
    hist: Histogram,
    /// Samples at or below the paper's 300 ns "cheap packet" line.
    cheap: u64,
}

#[derive(Default)]
struct Measured {
    dl_c: ClassTimes,
    dl_u: ClassTimes,
    ul_u: ClassTimes,
}

fn measure(rus: usize, rounds: usize) -> Measured {
    let mut mb = das(rus);
    let mut cache = SymbolCache::new(4096);
    let tel = TelemetrySender::disconnected("t");
    let mut templates = PrbTemplates::new(CompressionMethod::BFP9, 40.0, 7);
    let mut out = Measured::default();
    let mut symbol = SymbolId::ZERO;
    // The pipeline's reusable emit buffer, cleared outside the timed call.
    let mut emits = Vec::new();
    let mut time =
        |mb: &mut Das, cache: &mut SymbolCache, msg: FhMessage, times: &mut ClassTimes| {
            let mut ctx = MbContext {
                now: SimTime(0),
                cache,
                telemetry: &tel,
                mapping: EaxcMapping::DEFAULT,
                charges: Vec::new(),
            };
            emits.clear();
            let t0 = Instant::now();
            mb.handle_into(&mut ctx, msg, &mut emits);
            let ns = t0.elapsed().as_nanos() as u64;
            std::hint::black_box(&emits);
            times.hist.record(ns);
            times.cheap += u64::from(ns <= 300);
        };
    for _ in 0..rounds {
        time(&mut mb, &mut cache, dl_cplane(symbol), &mut out.dl_c);
        time(
            &mut mb,
            &mut cache,
            uplane(mac(1), Direction::Downlink, symbol, &mut templates),
            &mut out.dl_u,
        );
        // One UL packet per RU: the first rus−1 are cache inserts, the
        // last triggers the merge — the paper's 75/25 bimodality at 4 RUs.
        for k in 0..rus as u8 {
            let msg = uplane(mac(20 + k), Direction::Uplink, symbol, &mut templates);
            time(&mut mb, &mut cache, msg, &mut out.ul_u);
        }
        symbol = symbol.next(Numerology::Mu1);
    }
    out
}

fn fmt(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e3)
}

/// Run the experiment.
pub fn run(quick: bool) -> Report {
    let rounds = if quick { 200 } else { 1000 };
    let mut r = Report::new(
        "fig15b",
        "measured per-packet DAS processing latency (µs), 273-PRB packets",
        "DL C/U-plane < 0.3 µs; uplink bimodal — ~(N−1)/N of packets are \
         cheap cache inserts, the rest pay a 4–6 µs merge that grows with RUs",
    )
    .columns(vec!["RUs", "class", "p25 µs", "p50 µs", "p75 µs", "max µs", "<300 ns"]);

    for rus in [2usize, 3, 4] {
        let m = measure(rus, rounds);
        for (class, times) in
            [("DL C-plane", &m.dl_c), ("DL U-plane", &m.dl_u), ("UL U-plane", &m.ul_u)]
        {
            let h = &times.hist;
            r.row(vec![
                rus.to_string(),
                class.to_string(),
                fmt(h.quantile_bound(0.25)),
                fmt(h.quantile_bound(0.50)),
                fmt(h.quantile_bound(0.75)),
                fmt(h.max()),
                format!("{:.0}%", times.cheap as f64 * 100.0 / h.count() as f64),
            ]);
        }
    }
    r.note(
        "wall-clock measurement of the actual Rust handlers (release build), \
         percentiles read off the histogram's bucket bounds (at most 1/16 \
         above the sample); absolute values depend on this machine, the \
         bimodal uplink shape and the growth of the merge cost with RU count \
         are the reproduction target",
    );
    r
}
