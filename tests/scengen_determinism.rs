//! Determinism contract of the `scengen` city generator (seed sweeps).
//!
//! Three claims, each swept over several seeds with plain loops (no
//! external property-testing dependency, so the suite runs identically
//! everywhere):
//!
//! 1. layout, schedule and capture are pure functions of `(seed, spec)`
//!    — two independent builds are bit-identical;
//! 2. different seeds genuinely produce different cities;
//! 3. replaying a capture through the dataplane runtime yields the same
//!    output multiset and the same pipeline counters at every worker
//!    count, matching the single-threaded reference pipeline.

use std::collections::HashMap;

use ranbooster::scengen::{reference_run, run_capture, Scenario, ScenarioSpec};
use ranbooster::scengen::{HandoverEvent, SiteKind};

const SEEDS: &[u64] = &[0, 1, 7, 42, 0xDEAD_BEEF];

fn multiset(frames: &[Vec<u8>]) -> HashMap<&[u8], usize> {
    let mut m = HashMap::new();
    for f in frames {
        *m.entry(f.as_slice()).or_insert(0) += 1;
    }
    m
}

#[test]
fn same_seed_and_spec_build_bit_identical_scenarios() {
    for &seed in SEEDS {
        let a = Scenario::new(seed, ScenarioSpec::ci()).expect("ci preset validates");
        let b = Scenario::new(seed, ScenarioSpec::ci()).expect("ci preset validates");
        assert_eq!(a.topo, b.topo, "seed {seed}: topology must be reproducible");
        assert_eq!(a.schedule, b.schedule, "seed {seed}: schedule must be reproducible");
        assert_eq!(a.capture(), b.capture(), "seed {seed}: capture must be bit-identical");
    }
    // Once at city scale too: the paper-sized preset is what BENCH
    // entries and the CI gate replay by seed.
    let a = Scenario::new(42, ScenarioSpec::city()).expect("city preset validates");
    let b = Scenario::new(42, ScenarioSpec::city()).expect("city preset validates");
    assert_eq!(a.topo, b.topo);
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.capture(), b.capture());
}

#[test]
fn different_seeds_produce_different_cities() {
    let base = Scenario::new(1, ScenarioSpec::ci()).expect("ci preset validates");
    let base_cap = base.capture();
    for &seed in &[2u64, 3, 99] {
        let other = Scenario::new(seed, ScenarioSpec::ci()).expect("ci preset validates");
        assert_ne!(
            (&base.topo, &base.schedule, &base_cap),
            (&other.topo, &other.schedule, &other.capture()),
            "seeds 1 and {seed} must not collide"
        );
    }
}

#[test]
fn replay_output_is_worker_count_independent() {
    for &seed in &[3u64, 11] {
        let scn = Scenario::new(seed, ScenarioSpec::ci()).expect("ci preset validates");
        let cap = scn.capture();
        let (ref_out, ref_stats) = reference_run(&scn, &cap);
        assert_eq!(ref_stats.parse_errors, 0, "generated frames must parse");
        assert_eq!(ref_stats.not_for_us, 0, "every frame addresses the gateway");
        assert_eq!((ref_stats.seq_gaps, ref_stats.seq_dups), (0, 0), "loss-free capture");
        for workers in [1usize, 2, 4] {
            let (report, out) = run_capture(&scn, &cap, workers).expect("memory replay");
            assert_eq!(report.worker_failures, 0, "seed {seed}, {workers}w: no panics");
            assert_eq!(
                multiset(&out),
                multiset(&ref_out),
                "seed {seed}, {workers}w: output multiset differs from the reference"
            );
            let totals = report.pipeline_totals();
            assert_eq!(
                (totals.rx, totals.tx, totals.parse_errors, totals.not_for_us),
                (ref_stats.rx, ref_stats.tx, 0, 0),
                "seed {seed}, {workers}w: pipeline totals differ from the reference"
            );
            assert_eq!(
                (totals.seq_gaps, totals.seq_dups),
                (0, 0),
                "seed {seed}, {workers}w: a lossless replay must observe no seq findings"
            );
        }
    }
}

#[test]
fn schedule_is_well_formed_for_every_seed() {
    for &seed in SEEDS {
        for spec in [ScenarioSpec::ci(), ScenarioSpec::city()] {
            let scn = Scenario::new(seed, spec).expect("presets validate");
            // Re-walk each UE's timeline and re-check the fix-up
            // invariants the generator promises.
            for ue in 0..scn.topo.ues.len() {
                let mut site = scn.topo.ues[ue].home_site;
                let mut free_from = 0u32;
                for e in scn.schedule.events.iter().filter(|e| e.ue == ue) {
                    assert!(
                        e.at_round >= free_from,
                        "seed {seed}, UE {ue}: event at {} overlaps the previous interruption",
                        e.at_round
                    );
                    assert_ne!(e.to_site, site, "seed {seed}, UE {ue}: self-handover survived");
                    let src = &scn.topo.sites[site];
                    if e.cut_legs != 0 {
                        assert!(matches!(src.kind, SiteKind::Das));
                        assert!(
                            (1..src.rus.len() as u8).contains(&e.cut_legs),
                            "seed {seed}, UE {ue}: cut_legs {} not a mid-merge cut of {} RUs",
                            e.cut_legs,
                            src.rus.len()
                        );
                    }
                    assert!(e.resume_round() < scn.schedule.rounds);
                    site = e.to_site;
                    free_from = e.resume_round();
                }
            }
        }
    }
}

#[test]
fn invalid_specs_are_rejected() {
    let ok = ScenarioSpec::ci();
    ok.validate().expect("the baseline must be valid");

    let cases: Vec<(&str, ScenarioSpec)> = vec![
        ("no DUs", ScenarioSpec { dus: 0, ..ok.clone() }),
        ("no operators", ScenarioSpec { operators: 0, ..ok.clone() }),
        ("more operators than DUs", ScenarioSpec { operators: 5, dus: 3, ..ok.clone() }),
        ("single-RU DAS", ScenarioSpec { das_rus_min: 1, ..ok.clone() }),
        ("inverted DAS range", ScenarioSpec { das_rus_min: 5, das_rus_max: 3, ..ok.clone() }),
        (
            "dMIMO virtual ports overflow",
            ScenarioSpec { dmimo_rus_per_site: 3, dmimo_ports_per_ru: 6, ..ok.clone() },
        ),
        ("rushare streams overflow", ScenarioSpec { rushare_streams_per_site: 17, ..ok.clone() }),
        ("zero rounds", ScenarioSpec { rounds: 0, ..ok.clone() }),
        ("rounds past the hyperperiod", ScenarioSpec { rounds: 71_681, ..ok.clone() }),
        ("zero payload", ScenarioSpec { payload_prbs: 0, ..ok.clone() }),
        (
            "event UE out of range",
            ScenarioSpec {
                events: vec![HandoverEvent {
                    ue: 99,
                    at_round: 2,
                    to_site: 1,
                    interruption: 1,
                    cut_legs: 0,
                }],
                ..ok.clone()
            },
        ),
        (
            "event resumes past the end",
            ScenarioSpec {
                events: vec![HandoverEvent {
                    ue: 0,
                    at_round: 7,
                    to_site: 1,
                    interruption: 3,
                    cut_legs: 0,
                }],
                ..ok.clone()
            },
        ),
        (
            "event targets a non-mobility site",
            ScenarioSpec {
                events: vec![HandoverEvent {
                    ue: 0,
                    at_round: 2,
                    to_site: 11,
                    interruption: 1,
                    cut_legs: 0,
                }],
                ..ok.clone()
            },
        ),
    ];
    for (what, spec) in cases {
        assert!(
            Scenario::new(0, spec).is_err(),
            "a spec with {what} must be rejected by validation"
        );
    }
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn seed_42_city_bytes_are_pinned() {
    // The byte-identity gate every refactor of the packet path quotes: the
    // generated capture (as pcap) and the reference pipeline's output
    // (each frame prefixed with its length as u64 LE) hash to constants.
    let scn = Scenario::new(42, ScenarioSpec::city()).expect("city preset validates");
    let cap = scn.capture();
    assert_eq!(cap.frames.len(), 24_737);
    assert_eq!(fnv1a(FNV_OFFSET, &cap.to_pcap()), 0x24f2_c2b5_b18e_8b59, "capture bytes moved");
    let (out, _) = reference_run(&scn, &cap);
    assert_eq!(out.len(), 26_794);
    let hash =
        out.iter().fold(FNV_OFFSET, |h, f| fnv1a(fnv1a(h, &(f.len() as u64).to_le_bytes()), f));
    assert_eq!(hash, 0x3a09_f91d_3a0a_388d, "reference_run output bytes moved");
}
