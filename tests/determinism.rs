//! Determinism: nothing in a deployment draws from the environment and the
//! engine breaks timestamp ties by insertion order, so two fresh builds of
//! the same preset replay identically — on every wiring path.

use ranbooster::fronthaul::freq::aligned_du_center_hz;
use ranbooster::netsim::switch::Switch;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::scenario::{floor_ru_positions, Deployment};

const CENTER: i64 = 3_460_000_000;

fn cell(pci: u16) -> CellConfig {
    CellConfig::mhz100(pci, CENTER, 4)
}

/// Floor-0 RU position `k`.
fn at(k: usize) -> Position {
    floor_ru_positions(0)[k]
}

/// Two 40 MHz operator cells at PRB-aligned offsets inside a 100 MHz RU.
fn operator_cells() -> Vec<CellConfig> {
    [(1, 0), (2, 160)]
        .map(|(pci, offset)| {
            CellConfig::new(pci, aligned_du_center_hz(CENTER, 273, 106, offset, 30_000), 106, 4)
        })
        .to_vec()
}

/// A preset's name and a fresh build of it.
type Preset = (&'static str, fn() -> Deployment);

/// Per-UE `(dl_bits, ul_bits, attaches)` and the switch's flood count after
/// 150 ms with one UE per floor-0 RU position.
fn replay(build: fn() -> Deployment) -> (Vec<(u64, u64, u32)>, u64) {
    let mut dep = build();
    for pos in floor_ru_positions(0) {
        dep.add_ue(Position::new(pos.x + 2.0, pos.y, 0), 4);
    }
    dep.run_ms(150);
    let per_ue = (0..4)
        .map(|ue| {
            let st = dep.ue_stats(ue);
            (st.dl_bits, st.ul_bits, st.attaches)
        })
        .collect();
    (per_ue, dep.engine.node_as::<Switch>(dep.switch).floods)
}

#[test]
fn two_builds_replay_identically() {
    let presets: [Preset; 7] = [
        ("single_cell", || Deployment::single_cell(cell(1), at(0))),
        ("multi_cell", || Deployment::multi_cell(vec![(cell(1), at(0)), (cell(2), at(3))])),
        ("das", || Deployment::das(cell(1), &floor_ru_positions(0))),
        ("dmimo", || Deployment::dmimo(cell(1), &[(at(0), 2), (at(1), 2)], true)),
        ("rushare", || Deployment::rushare(CENTER, 273, operator_cells(), at(0))),
        ("prbmon", || Deployment::prbmon(cell(1), at(0))),
        ("rushare_das_chain", || {
            Deployment::rushare_das_chain(CENTER, 273, operator_cells(), &floor_ru_positions(0))
        }),
    ];
    for (name, build) in presets {
        let first = replay(build);
        assert!(first.0.iter().any(|&(dl, ..)| dl > 0), "{name}: no UE got downlink");
        assert_eq!(first, replay(build), "{name}: two builds must replay identically");
    }
}
