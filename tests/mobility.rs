//! Mobility across cells: a UE walking a multi-cell floor (the Figure 11
//! O1 setting) hands over between cells and keeps service; under a DAS
//! (O3) the same walk needs no handovers at all — the paper's
//! "handover-free mobility" claim.
//!
//! The second half of the suite pins down handover *edge cases* on the
//! generated-city dataplane (`scengen`): a handover that cuts a DAS
//! merge mid-window, back-to-back handovers on one UE, and a handover
//! overlapping a `ChaosIo` outage — each with exact counter assertions.

use std::collections::HashMap;

use ranbooster::core::pipeline::{MbPipeline, SeqMode};
use ranbooster::dataplane::chaos::{ChaosConfig, ChaosIo, Outage};
use ranbooster::dataplane::io::MemReplay;
use ranbooster::dataplane::runtime::Runtime;
use ranbooster::fronthaul::eaxc::EaxcMapping;
use ranbooster::fronthaul::msg::FhMessage;
use ranbooster::fronthaul::timing::Numerology;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::radio::medium::UeAttach;
use ranbooster::scenario::{floor_ru_positions, Deployment};
use ranbooster::scengen::{
    reference_run, run_capture, symbol_for_round, HandoverEvent, Scenario, ScenarioSpec,
};

fn walk(dep: &mut Deployment, ue: usize) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut now = 250u64;
    dep.run_ms(now);
    for x in [4.0, 14.0, 25.0, 36.0, 46.0] {
        dep.move_ue(ue, Position::new(x, 10.0, 0));
        now += 250;
        dep.run_ms(now);
        let before = dep.ue_stats(ue).dl_bits;
        now += 150;
        dep.run_ms(now);
        rates.push((dep.ue_stats(ue).dl_bits - before) as f64 / 0.15 / 1e6);
    }
    rates
}

#[test]
fn multi_cell_walk_hands_over_and_keeps_service() {
    // Four 25 MHz cells on disjoint frequencies, one per RU (O1).
    let cells: Vec<(CellConfig, Position)> = floor_ru_positions(0)
        .into_iter()
        .enumerate()
        .map(|(k, pos)| {
            (CellConfig::mhz25(k as u16 + 1, 3_430_000_000 + k as i64 * 25_000_000, 4), pos)
        })
        .collect();
    let mut dep = Deployment::multi_cell(cells);
    let ue = dep.add_ue(Position::new(4.0, 10.0, 0), 4);
    for du in 0..4 {
        dep.set_demand(du, ue, 150e6, 2e6);
    }
    let rates = walk(&mut dep, ue);
    let st = dep.ue_stats(ue);
    assert!(st.handovers >= 2, "walking the floor crosses cells: {} handovers", st.handovers);
    assert!(matches!(st.attach, UeAttach::Attached(_)));
    // Service held at every measured position (some loss near edges OK).
    for (k, r) in rates.iter().enumerate() {
        assert!(*r > 80.0, "position {k}: {r} Mbps");
    }
}

#[test]
fn das_walk_is_handover_free() {
    let cell = CellConfig::mhz100(1, 3_460_000_000, 4);
    let mut dep = Deployment::das(cell, &floor_ru_positions(0));
    let ue = dep.add_ue(Position::new(4.0, 10.0, 0), 4);
    dep.set_demand(0, ue, 150e6, 2e6);
    let rates = walk(&mut dep, ue);
    let st = dep.ue_stats(ue);
    assert_eq!(st.handovers, 0, "one cell, no handovers");
    assert_eq!(st.detaches, 0);
    assert_eq!(st.attaches, 1);
    for (k, r) in rates.iter().enumerate() {
        assert!((r - 150.0).abs() < 20.0, "position {k}: {r} Mbps");
    }
}

// ---------------------------------------------------------------------
// Dataplane handover edge cases on the generated city (scengen).
// ---------------------------------------------------------------------

fn multiset(frames: &[Vec<u8>]) -> HashMap<&[u8], usize> {
    let mut m = HashMap::new();
    for f in frames {
        *m.entry(f.as_slice()).or_insert(0) += 1;
    }
    m
}

/// The smallest mobility scenario: cell sites only, one DU, one UE,
/// handovers supplied explicitly per test.
fn cells_spec(events: Vec<HandoverEvent>) -> ScenarioSpec {
    ScenarioSpec {
        dus: 1,
        operators: 1,
        cell_sites: 2,
        streams_per_cell: 1,
        das_sites: 0,
        das_rus_min: 2,
        das_rus_max: 2,
        das_streams_per_site: 0,
        das_merge_window: 0,
        dmimo_sites: 0,
        dmimo_rus_per_site: 2,
        dmimo_ports_per_ru: 2,
        rushare_sites: 0,
        rushare_streams_per_site: 1,
        chain_sites: 0,
        chain_das_rus: 2,
        ues: 1,
        rounds: 12,
        handovers: 0,
        interruption: 1,
        events,
        payload_prbs: 1,
    }
}

#[test]
fn handover_inside_das_merge_window_strands_exactly_one_partial_merge() {
    // One cell site (0) and one 3-RU DAS site (1) with a 2-symbol merge
    // window. The UE visits the DAS, leaves it mid-merge at round 6 with
    // only 2 of 3 uplink legs delivered, and returns at round 11 — the
    // first same-stream symbol past the window, which is what flushes
    // the stranded partial (the DAS flush is stream-scoped by design).
    let spec = ScenarioSpec {
        cell_sites: 1,
        das_sites: 1,
        das_rus_min: 3,
        das_rus_max: 3,
        das_streams_per_site: 1,
        das_merge_window: 2,
        events: vec![
            HandoverEvent { ue: 0, at_round: 2, to_site: 1, interruption: 1, cut_legs: 0 },
            HandoverEvent { ue: 0, at_round: 6, to_site: 0, interruption: 1, cut_legs: 2 },
            HandoverEvent { ue: 0, at_round: 9, to_site: 1, interruption: 1, cut_legs: 0 },
        ],
        ..cells_spec(Vec::new())
    };
    let scn = Scenario::new(5, spec).expect("spec validates");
    assert_eq!(scn.schedule.events.len(), 3, "all three explicit events survive fix-up");
    let cap = scn.capture();

    // Reference pipeline, kept around so the DAS counters are readable.
    let mut pipeline = MbPipeline::new(scn.city_mb(), scn.topo.gateway);
    pipeline.set_seq_mode(SeqMode::Preserve);
    let mut ref_out = Vec::new();
    let frames = cap.frames.iter().map(|(at_ns, frame)| (*at_ns, frame.as_slice()));
    pipeline.replay(frames, None, &mut |_, b: &[u8]| ref_out.push(b.to_vec()));
    assert_eq!(pipeline.stats.parse_errors, 0);

    let das = pipeline.middlebox().das_stats_sum();
    // Exactly one window-forced partial merge: the 2-leg round-6 symbol.
    assert_eq!(das.ul_partial_merges, 1, "stats: {das:?}");
    assert_eq!(das.merge_errors, 0, "stats: {das:?}");
    // Baseline DAS stream merges all 12 rounds; the UE merges rounds 4
    // and 5 fully, round 6 partially (flushed at round 11), round 11
    // fully: 12 + 2 + 1 + 1.
    assert_eq!(das.ul_merges, 16, "stats: {das:?}");
    // Cached uplink legs: 12×3 baseline + (3 + 3 + 2 + 3) from the UE.
    assert_eq!(das.ul_cached, 47, "stats: {das:?}");
    // Replicated downlink: (C + U) × (12 baseline + 4 served UE rounds).
    assert_eq!(das.dl_replicated, 32, "stats: {das:?}");

    // The cut-merge path stays worker-count independent.
    for workers in [1usize, 2] {
        let (report, out) = run_capture(&scn, &cap, workers).expect("memory replay");
        assert_eq!(report.worker_failures, 0);
        assert_eq!(multiset(&out), multiset(&ref_out), "{workers}w diverged");
    }
}

#[test]
fn back_to_back_handovers_keep_the_timeline_and_streams_clean() {
    // The second handover starts on the first's resume round — the UE
    // gets exactly one served round between two interruptions.
    let scn = Scenario::new(
        9,
        cells_spec(vec![
            HandoverEvent { ue: 0, at_round: 3, to_site: 1, interruption: 2, cut_legs: 0 },
            HandoverEvent { ue: 0, at_round: 6, to_site: 0, interruption: 2, cut_legs: 0 },
        ]),
    )
    .expect("spec validates");
    assert_eq!(scn.schedule.events.len(), 2, "back-to-back events are legal and kept");

    let expect: Vec<Option<usize>> = vec![
        Some(0),
        Some(0),
        Some(0),
        Some(0), // rounds 0..=3 at home
        None,
        None,    // interruption 1
        Some(1), // the single served round
        None,
        None, // interruption 2
        Some(0),
        Some(0),
        Some(0), // back home
    ];
    for (round, want) in expect.iter().enumerate() {
        assert_eq!(scn.schedule.site_of(&scn.topo, 0, round as u32), *want, "round {round}");
    }

    // Radio silence is not frame loss: every stream's sequence numbers
    // stay contiguous through both interruptions, at any worker count.
    let cap = scn.capture();
    let (ref_out, stats) = reference_run(&scn, &cap);
    assert_eq!((stats.seq_gaps, stats.seq_dups), (0, 0), "stats: {stats:?}");
    assert_eq!(stats.parse_errors, 0);
    for workers in [1usize, 4] {
        let (report, out) = run_capture(&scn, &cap, workers).expect("memory replay");
        let totals = report.pipeline_totals();
        assert_eq!((totals.seq_gaps, totals.seq_dups), (0, 0));
        assert_eq!(multiset(&out), multiset(&ref_out), "{workers}w diverged");
    }
}

#[test]
fn handover_during_chaos_outage_counts_every_missing_sequence_number() {
    // A full-loss outage covers rounds 3..6, overlapping a handover at
    // round 4 (resume 6): the UE's last round on the old site and its
    // whole interruption fall inside the dark window.
    let scn = Scenario::new(
        13,
        cells_spec(vec![HandoverEvent {
            ue: 0,
            at_round: 4,
            to_site: 1,
            interruption: 1,
            cut_legs: 0,
        }]),
    )
    .expect("spec validates");
    let cap = scn.capture();
    let outage = Outage {
        start_ns: symbol_for_round(3).to_ns(Numerology::Mu1),
        end_ns: symbol_for_round(6).to_ns(Numerology::Mu1),
        src: None,
    };

    // Predict the pipeline's findings exactly: replay the outage filter
    // over the capture and count skipped sequence numbers per
    // `(src MAC, eAxC, direction)` stream, the pipeline's own detector
    // key.
    let mapping = EaxcMapping::DEFAULT;
    let mut last: HashMap<(_, u16, _), u8> = HashMap::new();
    let mut predicted_gaps = 0u64;
    let mut predicted_lost = 0u64;
    for (at_ns, frame) in &cap.frames {
        if *at_ns >= outage.start_ns && *at_ns < outage.end_ns {
            predicted_lost += 1;
            continue;
        }
        let msg = FhMessage::parse(frame, &mapping).expect("generated frames parse");
        let key = (msg.eth.src, msg.eaxc.pack(&mapping), msg.body.direction());
        let seq = msg.seq_id;
        if let Some(prev) = last.insert(key, seq) {
            let delta = seq.wrapping_sub(prev);
            assert!((1..=128).contains(&delta), "monotonic per-stream capture");
            predicted_gaps += u64::from(delta) - 1;
        }
    }
    assert!(predicted_lost > 0, "the outage window must cover traffic");
    assert!(predicted_gaps > 0, "losing whole rounds must skip sequence numbers");

    for workers in [1usize, 2] {
        let cfg = scn
            .runtime_config(workers)
            .with_ring_capacity(cap.frames.len().saturating_add(64).next_power_of_two());
        let replay = MemReplay::from_bytes(cap.to_pcap()).expect("valid capture");
        let mut io =
            ChaosIo::new(replay, ChaosConfig { outage: Some(outage), ..ChaosConfig::new(77) });
        let report = Runtime::run(&cfg, &mut io, |_| scn.city_mb()).expect("replay");
        assert_eq!(report.worker_failures, 0);
        assert_eq!(io.stats().rx.outage_dropped, predicted_lost, "{workers}w outage accounting");
        let totals = report.pipeline_totals();
        assert_eq!(totals.seq_gaps, predicted_gaps, "{workers}w gap count");
        assert_eq!(totals.seq_dups, 0, "{workers}w: an outage cannot duplicate frames");
        assert_eq!(totals.parse_errors, 0);
    }
}
