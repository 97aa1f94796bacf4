//! Server power model (paper Figure 14).
//!
//! The paper measures total server power through the servers' out-of-band
//! management interface for two deployment configurations:
//!
//! * five dMIMO cells (one per floor) on two servers → ≈ 400 W;
//! * one DAS+dMIMO cell across all floors on one server (the other shut
//!   down, half the remaining cores clocked down) → ≈ 180 W.
//!
//! We model an HPE DL110-class server (Intel Xeon 6338N, 32 cores) as a
//! base/idle draw plus per-core increments that depend on the core's
//! state. The defaults reproduce the paper's two operating points exactly:
//!
//! * Fig 14a: `2 × idle(100) + 25 active cores × 8 = 400 W`
//! * Fig 14b: `idle(100) + 6 active × 8 + 16 low-freq × 2 = 180 W`

/// Operating state of one CPU core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreState {
    /// Parked / C-state, contributes nothing beyond the base draw.
    Idle,
    /// Running RAN or middlebox work at nominal frequency.
    Active,
    /// Forced to the lowest P-state (the Fig 14b energy-saving knob).
    LowFrequency,
}

/// Power model of one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerPowerModel {
    /// Number of physical cores.
    pub cores: usize,
    /// Base draw with every core idle (fans, PSU, NIC, DRAM), watts.
    pub idle_watts: f64,
    /// Incremental draw per active core, watts.
    pub active_core_watts: f64,
    /// Incremental draw per low-frequency core, watts.
    pub low_freq_core_watts: f64,
}

impl Default for ServerPowerModel {
    fn default() -> Self {
        // Calibrated to the paper's 400 W / 180 W operating points.
        ServerPowerModel {
            cores: 32,
            idle_watts: 100.0,
            active_core_watts: 8.0,
            low_freq_core_watts: 2.0,
        }
    }
}

impl ServerPowerModel {
    /// Power draw for a given core-state assignment. Panics if more core
    /// states are supplied than the server has cores; unlisted cores idle.
    pub fn power_watts(&self, states: &[CoreState]) -> f64 {
        assert!(states.len() <= self.cores, "more states than cores");
        self.idle_watts
            + states
                .iter()
                .map(|s| match s {
                    CoreState::Idle => 0.0,
                    CoreState::Active => self.active_core_watts,
                    CoreState::LowFrequency => self.low_freq_core_watts,
                })
                .sum::<f64>()
    }

    /// Shorthand: `active` cores active, `low` cores low-frequency, rest
    /// idle.
    pub fn power_for(&self, active: usize, low: usize) -> f64 {
        assert!(active + low <= self.cores);
        self.idle_watts
            + active as f64 * self.active_core_watts
            + low as f64 * self.low_freq_core_watts
    }
}

/// A rack of servers, some of which may be powered off entirely.
#[derive(Debug, Clone)]
pub struct Rack {
    /// Per-server (model, powered-on) entries.
    pub servers: Vec<(ServerPowerModel, bool)>,
}

impl Rack {
    /// A rack of `n` identical powered-on servers.
    pub fn uniform(n: usize, model: ServerPowerModel) -> Rack {
        Rack { servers: vec![(model, true); n] }
    }

    /// Power off a server (its draw drops to zero).
    pub fn power_off(&mut self, idx: usize) {
        self.servers[idx].1 = false;
    }

    /// Total rack power for per-server (active, low-frequency) core counts.
    pub fn total_watts(&self, usage: &[(usize, usize)]) -> f64 {
        assert_eq!(usage.len(), self.servers.len());
        self.servers
            .iter()
            .zip(usage)
            .map(
                |((model, on), (active, low))| {
                    if *on {
                        model.power_for(*active, *low)
                    } else {
                        0.0
                    }
                },
            )
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_14a_two_servers_five_cells() {
        // 5 cells × (4 DU cores + 1 middlebox core) = 25 active cores
        // split 15/10 across two servers.
        let rack = Rack::uniform(2, ServerPowerModel::default());
        let total = rack.total_watts(&[(15, 0), (10, 0)]);
        assert_eq!(total, 400.0);
    }

    #[test]
    fn figure_14b_single_cell_chained() {
        // One server off; the other runs 1 DU (4 cores) + DAS + dMIMO
        // middleboxes (2 cores) with 16 cores forced to low frequency.
        let mut rack = Rack::uniform(2, ServerPowerModel::default());
        rack.power_off(0);
        let total = rack.total_watts(&[(0, 0), (6, 16)]);
        assert_eq!(total, 180.0);
    }

    #[test]
    fn power_states_accumulate() {
        let m = ServerPowerModel::default();
        let p = m.power_watts(&[CoreState::Active, CoreState::LowFrequency, CoreState::Idle]);
        assert_eq!(p, 100.0 + 8.0 + 2.0);
        assert_eq!(m.power_watts(&[]), 100.0);
    }

    #[test]
    fn power_for_matches_power_watts() {
        let m = ServerPowerModel::default();
        let mut states = vec![CoreState::Active; 5];
        states.extend(vec![CoreState::LowFrequency; 3]);
        assert_eq!(m.power_watts(&states), m.power_for(5, 3));
    }

    #[test]
    #[should_panic(expected = "more states than cores")]
    fn too_many_states_panics() {
        let m = ServerPowerModel { cores: 2, ..Default::default() };
        m.power_watts(&[CoreState::Active; 3]);
    }

    #[test]
    fn savings_fraction_matches_paper() {
        // The paper reports a 16 % reduction in *overall network* power;
        // the server-side saving alone is (400−180)/400 = 55 %, the rest
        // of the network (RUs, switch) being unchanged. Check the server
        // delta is what Fig 14 shows.
        let rack_a = Rack::uniform(2, ServerPowerModel::default());
        let a = rack_a.total_watts(&[(15, 0), (10, 0)]);
        let mut rack_b = Rack::uniform(2, ServerPowerModel::default());
        rack_b.power_off(0);
        let b = rack_b.total_watts(&[(0, 0), (6, 16)]);
        assert!((a - b - 220.0).abs() < 1e-9);
    }
}
