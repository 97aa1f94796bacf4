//! One module per paper table/figure. Each exposes
//! `run(quick: bool) -> Report`; `quick` shortens warm-up/measurement
//! windows (CI smoke mode) without changing the experiment's structure.
//! (`dataplane_scale::run` also takes the scenario to replay, so its unit
//! test can pass a small one; the binary always replays the city.)

pub mod appendix_a2;
pub mod chaos;
pub mod dataplane_scale;
pub mod fig10a_das;
pub mod fig10b_rushare;
pub mod fig10c_prbmon;
pub mod fig11_deployment;
pub mod fig12_chain;
pub mod fig13_upgrade;
pub mod fig14_power;
pub mod fig15a_scale;
pub mod fig15b_latency;
pub mod fig16_cpu;
pub mod table1_placement;
pub mod table2_dmimo;

use ranbooster::scengen::ScenarioSpec;

use crate::report::Report;

/// Every experiment, in paper order.
pub fn all(quick: bool) -> Vec<Report> {
    vec![
        fig10a_das::run(quick),
        table2_dmimo::run(quick),
        fig10b_rushare::run(quick),
        fig10c_prbmon::run(quick),
        fig11_deployment::run(quick),
        fig12_chain::run(quick),
        fig13_upgrade::run(quick),
        fig14_power::run(quick),
        fig15a_scale::run(quick),
        fig15b_latency::run(quick),
        fig16_cpu::run(quick),
        table1_placement::run(quick),
        appendix_a2::run(quick),
        dataplane_scale::run(ScenarioSpec::city(), quick),
        chaos::run(quick),
    ]
}

/// Look up one experiment by id.
pub fn by_id(id: &str, quick: bool) -> Option<Report> {
    Some(match id {
        "fig10a" => fig10a_das::run(quick),
        "table2" => table2_dmimo::run(quick),
        "fig10b" => fig10b_rushare::run(quick),
        "fig10c" => fig10c_prbmon::run(quick),
        "fig11" => fig11_deployment::run(quick),
        "fig12" => fig12_chain::run(quick),
        "fig13" => fig13_upgrade::run(quick),
        "fig14" => fig14_power::run(quick),
        "fig15a" => fig15a_scale::run(quick),
        "fig15b" => fig15b_latency::run(quick),
        "fig16" => fig16_cpu::run(quick),
        "table1" => table1_placement::run(quick),
        "a2" | "appendix_a2" => appendix_a2::run(quick),
        "dataplane" => dataplane_scale::run(ScenarioSpec::city(), quick),
        "chaos" => chaos::run(quick),
        _ => return None,
    })
}

/// The ids accepted by [`by_id`].
pub const IDS: &[&str] = &[
    "fig10a",
    "table2",
    "fig10b",
    "fig10c",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15a",
    "fig15b",
    "fig16",
    "table1",
    "a2",
    "dataplane",
    "chaos",
];
