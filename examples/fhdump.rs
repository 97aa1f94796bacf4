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
use ranbooster::core::host::MiddleboxHost;
use ranbooster::core::middlebox::{MbContext, Middlebox};
use ranbooster::fronthaul::dissect::dissect_message;
use ranbooster::fronthaul::msg::{Body, FhMessage};
use ranbooster::fronthaul::Direction;
use ranbooster::netsim::cost::CostModel;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::radio::du::DuConfig;
use ranbooster::scenario::{du_mac, mb_mac, ru_mac, Deployment};

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
    // A single cell with the tap inline between its DU and its RU.
    let cell = CellConfig::mhz100(1, 3_460_000_000, 4);
    let (carrier, ports, pci) = ((cell.center_hz, cell.num_prb), cell.layers, cell.pci);
    let mut dep = Deployment::new();
    dep.add_du(DuConfig::new(cell, du_mac(0), mb_mac(0)));
    let tap = dep.add_mb(Tap { samples: vec![] }, mb_mac(0), CostModel::dpdk(), 1);
    dep.add_ru(0, mb_mac(0), carrier, ports, Position::new(10.0, 10.0, 0), vec![pci]);
    dep.add_ue(Position::new(12.0, 10.0, 0), 4);

    dep.run_ms(120);

    let host = dep.engine.node_as::<MiddleboxHost<Tap>>(tap);
    println!("captured {} distinct frame classes:\n", host.middlebox().samples.len());
    for (class, msg) in &host.middlebox().samples {
        println!("════ {class} ════");
        println!("{}", dissect_message(msg, msg.wire_len()));
    }
}
