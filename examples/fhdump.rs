//! Dissect live fronthaul traffic, Wireshark-style (paper Figure 2).
//!
//! Runs a single cell for a few slots with a tap middlebox that captures
//! frames, then prints the dissection of one C-plane and one U-plane
//! frame from each direction.
//!
//! ```sh
//! cargo run --release --example fhdump
//! ```

use ranbooster::core::actions;
use ranbooster::core::middlebox::{MbContext, Middlebox};
use ranbooster::fronthaul::dissect::dissect_message;
use ranbooster::fronthaul::eaxc::EaxcMapping;
use ranbooster::fronthaul::msg::{Body, FhMessage};
use ranbooster::fronthaul::Direction;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::scenario::{du_mac, ru_mac, Deployment};

/// A transparent tap: forwards everything, keeps one sample per class.
struct Tap {
    samples: Vec<(String, FhMessage)>,
}

impl Middlebox for Tap {
    fn name(&self) -> &str {
        "tap"
    }
    fn on_cplane(&mut self, _ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.keep(&msg);
        actions::emit(out, Self::forward(msg));
    }
    fn on_uplane(&mut self, _ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.keep(&msg);
        actions::emit(out, Self::forward(msg));
    }
}

impl Tap {
    fn class_of(msg: &FhMessage) -> String {
        let plane = match &msg.body {
            Body::CPlane(c) if c.filter_index == 1 => "C-plane (PRACH)",
            Body::CPlane(_) => "C-plane",
            Body::UPlane(u) if u.filter_index == 1 => "U-plane (PRACH)",
            Body::UPlane(_) => "U-plane",
            Body::Recovery(_) => "recovery",
        };
        let dir = match msg.body.direction() {
            Direction::Downlink => "DL",
            Direction::Uplink => "UL",
        };
        format!("{dir} {plane}")
    }

    fn keep(&mut self, msg: &FhMessage) {
        let class = Self::class_of(msg);
        if !self.samples.iter().any(|(c, _)| *c == class) {
            self.samples.push((class, msg.clone()));
        }
    }

    fn forward(mut msg: FhMessage) -> FhMessage {
        // Inline tap between one DU and one RU: flip by source.
        let dst = if msg.eth.src == du_mac(0) { ru_mac(0) } else { du_mac(0) };
        msg.eth.src = msg.eth.dst; // our own address becomes the source
        msg.eth.dst = dst;
        msg
    }
}

fn main() {
    // Reuse the prbmon deployment shape but with the tap instead: simplest
    // is to run prbmon (it's already a transparent inline monitor) and
    // capture via a manual engine… instead, run a single cell with the
    // Tap registered through the generic middlebox host.
    use ranbooster::core::host::MiddleboxHost;
    use ranbooster::netsim::cost::CostModel;
    use ranbooster::netsim::engine::{port, Engine};
    use ranbooster::netsim::switch::Switch;
    use ranbooster::netsim::time::{SimDuration, SimTime};
    use ranbooster::radio::du::{Du, DuConfig};
    use ranbooster::radio::medium::{Medium, MediumParams};
    use ranbooster::radio::ru::{Ru, RuConfig};
    use ranbooster::scenario::mb_mac;

    let medium = ranbooster::radio::medium::shared(Medium::new(MediumParams::default(), 3));
    let mut engine = Engine::new();
    let sw = engine.add_node(Box::new(Switch::new("sw", 3)));
    let cell = CellConfig::mhz100(1, 3_460_000_000, 4);
    let du = engine
        .add_node(Box::new(Du::new(DuConfig::new(cell, du_mac(0), mb_mac(0)), medium.clone())));
    let tap = engine.add_node(Box::new(MiddleboxHost::new(
        Tap { samples: vec![] },
        mb_mac(0),
        CostModel::dpdk(),
        1,
    )));
    let ru = engine.add_node(Box::new(Ru::new(
        RuConfig::new(
            ru_mac(0),
            mb_mac(0),
            3_460_000_000,
            273,
            4,
            Position::new(10.0, 10.0, 0),
            vec![1],
            1,
        ),
        medium.clone(),
    )));
    for (k, n) in [du, tap, ru].iter().enumerate() {
        engine.connect(port(sw, k), port(*n, 0), SimDuration::from_micros(5), 100.0);
    }
    Du::start(&mut engine, du, ranbooster::fronthaul::timing::Numerology::Mu1);
    Ru::start(
        &mut engine,
        ru,
        ranbooster::fronthaul::timing::Numerology::Mu1,
        SimDuration::from_micros(150),
    );
    medium.lock().add_ue(Position::new(12.0, 10.0, 0), 4);

    engine.run_until(SimTime(120_000_000));

    let host = engine.node_as::<MiddleboxHost<Tap>>(tap);
    println!("captured {} distinct frame classes:\n", host.middlebox().samples.len());
    for (class, msg) in &host.middlebox().samples {
        println!("════ {class} ════");
        println!("{}", dissect_message(msg, msg.wire_len()));
    }
    let _ = Deployment::single_cell; // keep scenario linked for docs
    let _ = EaxcMapping::DEFAULT;
}
