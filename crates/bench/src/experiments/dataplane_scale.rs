//! `dataplane` — DAS replication throughput on the `rb-dataplane` runtime
//! at 1, 2 and 4 workers (as many of those as the host has cores for).
//!
//! The workload is the paper's downlink DAS pattern: the DU sends C-plane
//! and U-plane frames across 16 eAxC ports and the middlebox replicates
//! each to both RUs. The same capture is replayed from memory through the
//! sharded runtime at each worker count; packets/sec is wall-clock
//! measured over the frames the workers actually processed. Results are
//! also written to `results/BENCH_dataplane.json` so CI can archive and
//! compare the scaling factor (the acceptance target is ≥1.8× going
//! 1→4 workers on real hardware).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use rb_apps::das::{Das, DasConfig};
use rb_dataplane::io::MemReplay;
use rb_dataplane::runtime::{Runtime, RuntimeConfig};
use rb_fronthaul::bfp::CompressionMethod;
use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::iq::{IqSample, Prb};
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::pcap::PcapWriter;
use rb_fronthaul::timing::SymbolId;
use rb_fronthaul::uplane::{UPlaneRepr, USection};
use rb_fronthaul::Direction;

use crate::report::Report;

/// Those of 1, 2 and 4 workers that a host with `host_cores` cores can run
/// in parallel (always at least the single-worker run). More workers than
/// cores time-share a core, and the "scaling factor" of such a run only
/// reports scheduler overhead, so those counts are not run at all.
fn subscribable_worker_counts(host_cores: usize) -> Vec<usize> {
    [1, 2, 4].into_iter().filter(|&w| w == 1 || w <= host_cores).collect()
}

/// eAxC ports in the capture — 16 flows so the FNV shard spreads work
/// across every worker count measured.
const PORTS: u8 = 16;

fn mac(last: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, last)
}

fn das() -> Das {
    Das::new(
        "das-bench",
        DasConfig { mb_mac: mac(10), du_mac: mac(1), ru_macs: vec![mac(21), mac(22)] },
    )
}

/// Build the replay capture: `rounds` symbols, each with one DL C-plane
/// and one DL U-plane frame per eAxC port (every one replicated to both
/// RUs by the middlebox).
fn capture(rounds: u32) -> Vec<u8> {
    let mapping = EaxcMapping::DEFAULT;
    let mut w = PcapWriter::new(Vec::new()).expect("in-memory pcap header");
    let mut at = 1_000u64;
    let mut prb = Prb::ZERO;
    for (k, s) in prb.0.iter_mut().enumerate() {
        *s = IqSample::new(90, k as i16 - 6);
    }
    for round in 0..rounds {
        let sym = SymbolId {
            frame: 0,
            subframe: 0,
            slot: (round / 14 % 2) as u8,
            symbol: (round % 14) as u8,
        };
        for p in 0..PORTS {
            let eaxc = Eaxc::port(p);
            let cp = FhMessage::new(
                mac(1),
                mac(10),
                eaxc,
                0,
                Body::CPlane(CPlaneRepr::single(
                    Direction::Downlink,
                    sym,
                    CompressionMethod::BFP9,
                    SectionFields::data(0, 0, 50, 14),
                )),
            );
            w.write_frame(at, &cp.to_bytes(&mapping).expect("serialize C-plane"))
                .expect("write to memory");
            at += 1_000;
            let section = USection::from_prbs(0, 0, &[prb; 12], CompressionMethod::NoCompression)
                .expect("section fits");
            let up = FhMessage::new(
                mac(1),
                mac(10),
                eaxc,
                0,
                Body::UPlane(UPlaneRepr::single(Direction::Downlink, sym, section)),
            );
            w.write_frame(at, &up.to_bytes(&mapping).expect("serialize U-plane"))
                .expect("write to memory");
            at += 1_000;
        }
    }
    w.finish().expect("finish in-memory pcap")
}

/// One measured run.
struct Run {
    workers: usize,
    processed: u64,
    emitted: u64,
    dropped: u64,
    secs: f64,
    pps: f64,
}

/// Replay `cap` through the runtime at `workers` workers, `reps` times,
/// keeping the fastest run (warm caches, least scheduler noise).
fn measure(cap: &[u8], workers: usize, reps: u32) -> Run {
    let mut best: Option<Run> = None;
    for _ in 0..reps {
        let mut io = MemReplay::from_bytes(cap.to_vec()).expect("valid capture");
        // Rings sized to hold the whole capture: this measures worker
        // throughput, not the overload policy.
        let cfg = RuntimeConfig::new(mac(10)).with_workers(workers).with_ring_capacity(1 << 16);
        let t0 = Instant::now();
        let report = Runtime::run(&cfg, &mut io, |_| das()).expect("replay never fails");
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(report.worker_failures, 0, "no worker may panic");
        let processed = report.pipeline_totals().rx;
        let run = Run {
            workers,
            processed,
            emitted: report.tx_frames,
            dropped: report.in_ring_dropped + report.out_ring_dropped,
            secs,
            pps: processed as f64 / secs,
        };
        if best.as_ref().map_or(true, |b| run.pps > b.pps) {
            best = Some(run);
        }
    }
    best.expect("reps >= 1")
}

/// Render `results/BENCH_dataplane.json` as hand-rolled JSON (no
/// serializer dependency in the hot loop's way). Pure function of its
/// inputs: `runs` holds only worker counts the host could run in parallel
/// (see [`subscribable_worker_counts`]), so `scaling_curve` states every
/// speedup there is to state.
fn render_json(runs: &[Run], quick: bool, host_cores: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"experiment\": \"dataplane\",\n");
    s.push_str("  \"workload\": \"DAS downlink replication, 16 eAxC flows\",\n");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"host_cores\": {host_cores},");
    s.push_str("  \"runs\": [\n");
    for (k, r) in runs.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"workers\": {}, \"frames_processed\": {}, \"frames_emitted\": {}, \
             \"ring_dropped\": {}, \"elapsed_s\": {:.6}, \"pps\": {:.0}}}",
            r.workers, r.processed, r.emitted, r.dropped, r.secs, r.pps,
        );
        s.push_str(if k + 1 < runs.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let base = runs.first().map_or(1.0, |r| r.pps).max(1e-9);
    s.push_str("  \"scaling_curve\": [");
    for (k, r) in runs.iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{{\"workers\": {}, \"speedup_vs_1w\": {:.3}}}", r.workers, r.pps / base);
    }
    s.push_str("]\n");
    s.push_str("}\n");
    s
}

/// Write the rendered JSON to `results/BENCH_dataplane.json` at the
/// repo root.
fn write_json(runs: &[Run], quick: bool, host_cores: usize) -> std::io::Result<PathBuf> {
    let root = option_env!("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../.."))
        .unwrap_or_else(|| PathBuf::from("."));
    let dir = root.join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("BENCH_dataplane.json");
    std::fs::write(&path, render_json(runs, quick, host_cores))?;
    Ok(path)
}

/// Run the experiment.
pub fn run(quick: bool) -> Report {
    let mut r = Report::new(
        "dataplane",
        "rb-dataplane packets/sec scaling on the DAS replication workload",
        "the sharded runtime scales DAS throughput ≥1.8× from 1 to 4 workers \
         (flow-hashed dispatch, per-worker middlebox state, no locks on the \
         packet path)",
    )
    .columns(vec!["workers", "frames", "emitted", "elapsed ms", "Mpps", "speedup"]);

    let rounds = if quick { 60 } else { 1_200 };
    let reps = if quick { 1 } else { 3 };
    let cap = capture(rounds);

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let runs: Vec<Run> =
        subscribable_worker_counts(cores).iter().map(|&w| measure(&cap, w, reps)).collect();
    let base = runs.first().map_or(1.0, |r| r.pps).max(1e-9);
    for run in &runs {
        r.row(vec![
            run.workers.to_string(),
            run.processed.to_string(),
            run.emitted.to_string(),
            format!("{:.2}", run.secs * 1e3),
            format!("{:.3}", run.pps / 1e6),
            format!("{:.2}x", run.pps / base),
        ]);
    }
    match write_json(&runs, quick, cores) {
        Ok(path) => r.note(format!("written to {}", path.display())),
        Err(e) => r.note(format!("could not write BENCH_dataplane.json: {e}")),
    }
    let measured = runs.last().map_or(1, |r| r.workers);
    let speedup = runs.last().map_or(0.0, |r| r.pps) / base;
    r.note(format!(
        "1→{measured} worker speedup {speedup:.2}x on a {cores}-core host (target \
         ≥1.8x at 4 workers; worker counts above the core count are not run); \
         every frame is replicated to 2 RUs, so emitted ≈ 2× processed"
    ));
    r
}

/// The generated-city variant (`repro dataplane --scenario <preset>`):
/// replay a seeded `scengen` capture through the runtime at 1, 2 and 4
/// workers, measure pps, and check the determinism contract on every
/// run — the output multiset must not depend on the worker count, and
/// each worker lane must conserve frames
/// (`collected + io_errors + shed == worker tx`).
pub fn run_scenario(preset: &str, quick: bool) -> Report {
    use ranbooster::scengen::{run_capture, Scenario, ScenarioSpec};

    let mut r = Report::new(
        "dataplane",
        format!("seeded '{preset}' scenario replay on the rb-dataplane runtime"),
        "a scengen city replays loss-free with a worker-count-independent \
         output multiset and exact per-lane frame conservation",
    )
    .columns(vec!["workers", "rx frames", "tx frames", "elapsed ms", "Mpps", "multiset"]);

    let spec = match preset {
        "city" => ScenarioSpec::city(),
        "ci" => ScenarioSpec::ci(),
        other => {
            r.note(format!("unknown scenario preset '{other}' (known: city, ci)"));
            return r;
        }
    };
    let scn = Scenario::new(42, spec).expect("preset specs validate");
    let capture = scn.capture();
    r.note(format!(
        "seed 42, preset '{preset}': {} RUs, {} DUs, {} eAxC streams, {} sites, \
         {} handover events, {} capture frames",
        scn.topo.ru_count(),
        scn.topo.dus.len(),
        scn.topo.stream_count(&scn.spec),
        scn.topo.sites.len(),
        scn.schedule.events.len(),
        capture.frames.len(),
    ));

    let reps = if quick { 1 } else { 3 };
    let mut baseline: Option<Vec<Vec<u8>>> = None;
    for &workers in &[1usize, 2, 4] {
        let mut best: Option<(f64, u64, u64, f64, bool)> = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let (report, out) = run_capture(&scn, &capture, workers).expect("memory replay");
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            assert_eq!(report.worker_failures, 0, "no worker may panic");
            for (lane, c) in report.collectors.iter().enumerate() {
                let w = &report.workers[lane];
                assert_eq!(
                    c.tx_frames + c.io_tx_errors + w.stats.tx_ring_dropped,
                    w.stats.tx,
                    "frame conservation on worker lane {lane} ({workers} workers)"
                );
            }
            let mut sorted = out;
            sorted.sort_unstable();
            let matches = match &baseline {
                Some(b) => *b == sorted,
                None => {
                    baseline = Some(sorted);
                    true
                }
            };
            let rx = report.rx_frames;
            let tx = report.tx_frames;
            let pps = rx as f64 / secs;
            if best.as_ref().map_or(true, |b| pps > b.0) {
                best = Some((pps, rx, tx, secs, matches));
            } else if !matches {
                // Never let a slower-but-divergent rep vanish from the
                // report: determinism failures outrank throughput.
                if let Some(b) = &mut best {
                    b.4 = false;
                }
            }
        }
        let (pps, rx, tx, secs, matches) = best.expect("reps >= 1");
        r.row(vec![
            workers.to_string(),
            rx.to_string(),
            tx.to_string(),
            format!("{:.2}", secs * 1e3),
            format!("{:.3}", pps / 1e6),
            if matches { "== 1w".into() } else { "DIVERGED".into() },
        ]);
        assert!(matches, "{workers}-worker output multiset diverged from the 1-worker run");
    }
    r.note(
        "output multisets are identical across 1/2/4 workers (SeqMode::Preserve; \
         see scengen's determinism contract) and every lane conserves frames"
            .to_string(),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_runs() -> Vec<Run> {
        [(1usize, 1.0e6), (2, 1.9e6), (4, 3.6e6)]
            .iter()
            .map(|&(workers, pps)| Run {
                workers,
                processed: 1_000,
                emitted: 2_000,
                dropped: 0,
                secs: 1_000.0 / pps,
                pps,
            })
            .collect()
    }

    #[test]
    fn worker_counts_never_exceed_the_host_cores() {
        assert_eq!(subscribable_worker_counts(0), [1], "unknown host: single worker only");
        assert_eq!(subscribable_worker_counts(1), [1]);
        assert_eq!(subscribable_worker_counts(2), [1, 2]);
        assert_eq!(subscribable_worker_counts(3), [1, 2]);
        assert_eq!(subscribable_worker_counts(8), [1, 2, 4]);
    }

    #[test]
    fn serializer_states_every_run_once_on_the_scaling_curve() {
        let s = render_json(&fake_runs(), false, 8);
        assert_eq!(s.matches("\"frames_processed\"").count(), 3, "{s}");
        assert!(
            s.contains(
                "\"scaling_curve\": [{\"workers\": 1, \"speedup_vs_1w\": 1.000}, \
                 {\"workers\": 2, \"speedup_vs_1w\": 1.900}, \
                 {\"workers\": 4, \"speedup_vs_1w\": 3.600}]"
            ),
            "{s}"
        );
        assert!(s.ends_with("]\n}\n"), "{s}");
        // A 2-core host only hands over two runs; nothing is synthesised.
        let s = render_json(&fake_runs()[..2], true, 2);
        assert!(
            s.contains(
                "\"scaling_curve\": [{\"workers\": 1, \"speedup_vs_1w\": 1.000}, \
                 {\"workers\": 2, \"speedup_vs_1w\": 1.900}]"
            ),
            "{s}"
        );
    }

    #[test]
    fn quick_mode_measures_every_subscribable_worker_count() {
        let r = run(true);
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let counts = subscribable_worker_counts(cores);
        assert_eq!(r.rows.len(), counts.len());
        for (row, workers) in r.rows.iter().zip(counts) {
            assert_eq!(row[0], workers.to_string());
            // Nothing sheds: rings hold the whole capture, so every frame
            // is processed and each produces two replicas.
            let processed: u64 = row[1].parse().unwrap();
            let emitted: u64 = row[2].parse().unwrap();
            assert_eq!(processed, 60 * u64::from(PORTS) * 2);
            assert_eq!(emitted, processed * 2);
        }
    }
}
