//! The seeded event schedule: who hands over, when, to where.
//!
//! Explicit [`HandoverEvent`]s from the spec are merged with
//! seed-generated ones, sorted, and then *fixed up* per UE so the
//! timeline is always well-formed: an event may start no earlier than
//! the previous one's resume round (back-to-back handovers are legal,
//! overlapping interruptions are not) and never targets the site the UE
//! is already on. The fix-up walks UEs and events in sorted order, so
//! the result is a pure function of `(seed, spec, topology)`.

use rb_netsim::rng::SplitMix64;

use super::spec::{HandoverEvent, ScenarioSpec};
use super::topo::{SiteKind, Topology};

/// The resolved mobility timeline of one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSchedule {
    /// Rounds of generated traffic (copied from the spec).
    pub rounds: u32,
    /// All surviving handovers, sorted by `(at_round, ue)`.
    pub events: Vec<HandoverEvent>,
}

impl EventSchedule {
    /// Merge explicit and generated events for `topo`.
    pub fn build(seed: u64, spec: &ScenarioSpec, topo: &Topology) -> EventSchedule {
        let mut rng = SplitMix64::new(seed ^ 0x5eed_5eed_0e7e_a75e);
        // Handover targets: any cell or DAS site.
        let targets: Vec<usize> = topo
            .sites
            .iter()
            .filter(|s| matches!(s.kind, SiteKind::Cell | SiteKind::Das))
            .map(|s| s.id)
            .collect();
        let mut events = spec.events.clone();
        let span = spec.rounds.saturating_sub(2).saturating_sub(spec.interruption);
        if !targets.is_empty() && span >= 1 {
            for _ in 0..spec.handovers {
                events.push(HandoverEvent {
                    ue: rng.below(topo.ues.len().max(1)),
                    at_round: 1 + rng.below(span as usize) as u32,
                    to_site: targets[rng.below(targets.len())],
                    interruption: spec.interruption,
                    cut_legs: rng.below(16) as u8,
                });
            }
        }
        events.sort_by_key(|e| (e.at_round, e.ue));
        // Per-UE fix-up in sorted order: drop overlaps and self-targets,
        // clamp cut_legs to the source site's RU count.
        let mut kept: Vec<HandoverEvent> = Vec::with_capacity(events.len());
        for ue in 0..topo.ues.len() {
            let mut site = topo.ues[ue].home_site;
            let mut free_from = 0u32; // first round a new event may start
            for e in events.iter().filter(|e| e.ue == ue) {
                if e.at_round < free_from || e.to_site == site {
                    continue;
                }
                let mut e = *e;
                let src = &topo.sites[site];
                e.cut_legs = if matches!(src.kind, SiteKind::Das) && e.cut_legs != 0 {
                    // 1..rus-1 legs: always a real mid-merge cut.
                    1 + (e.cut_legs - 1) % (src.rus.len().max(2) as u8 - 1)
                } else {
                    0
                };
                site = e.to_site;
                free_from = e.resume_round();
                kept.push(e);
            }
        }
        kept.sort_by_key(|e| (e.at_round, e.ue));
        EventSchedule { rounds: spec.rounds, events: kept }
    }

    /// The site serving `ue` in `round`, or `None` while the UE is
    /// inside a handover interruption.
    pub fn site_of(&self, topo: &Topology, ue: usize, round: u32) -> Option<usize> {
        let mut site = topo.ues[ue].home_site;
        for e in self.events.iter().filter(|e| e.ue == ue) {
            if round <= e.at_round {
                break;
            }
            if round < e.resume_round() {
                return None;
            }
            site = e.to_site;
        }
        Some(site)
    }

    /// How many uplink legs of DAS site `site` deliver UE `ue`'s final
    /// symbol in `round`: `None` when no cut applies (not a handover
    /// round, not a DAS source, or an uncut handover).
    pub fn cut_legs_of(&self, ue: usize, round: u32) -> Option<u8> {
        self.events
            .iter()
            .find(|e| e.ue == ue && e.at_round == round && e.cut_legs != 0)
            .map(|e| e.cut_legs)
    }
}
