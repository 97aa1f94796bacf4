//! `dataplane` — the seed-42 `scengen` city replayed through the
//! `rb-dataplane` runtime at 1, 2 and 4 workers.
//!
//! Two things are read off it. The gate: the transmitted multiset must not
//! depend on the worker count, and every worker lane must conserve frames
//! (`tx_frames + io_tx_errors + shed == worker tx`). The scaling curve: the
//! 1-worker replay time over the N-worker one, stated only for worker
//! counts the host has cores for and written to
//! `results/BENCH_dataplane.json`. Absolute throughput is not reported
//! here: that number is `rb-perf`'s (`perf/`), measured under load control.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use ranbooster::scengen::{run_capture, Scenario, ScenarioSpec};

use crate::report::Report;

/// Those of 1, 2 and 4 workers that a host with `host_cores` cores can run
/// in parallel (always at least the single-worker run). More workers than
/// cores time-share a core, and the "scaling factor" of such a run only
/// reports scheduler overhead, so those counts are left off the curve.
fn subscribable_worker_counts(host_cores: usize) -> Vec<usize> {
    [1, 2, 4].into_iter().filter(|&w| w == 1 || w <= host_cores).collect()
}

/// Render `results/BENCH_dataplane.json` as hand-rolled JSON (no
/// serializer dependency). Pure function of its inputs: `curve` holds
/// `(workers, speedup over 1 worker)` for the worker counts the host could
/// run in parallel (see [`subscribable_worker_counts`]) and nothing else.
fn render_json(workload: &str, curve: &[(usize, f64)], quick: bool, host_cores: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"experiment\": \"dataplane\",\n");
    let _ = writeln!(s, "  \"workload\": \"{workload}\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"host_cores\": {host_cores},");
    s.push_str("  \"scaling_curve\": [");
    for (k, (workers, speedup)) in curve.iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{{\"workers\": {workers}, \"speedup_vs_1w\": {speedup:.3}}}");
    }
    s.push_str("]\n");
    s.push_str("}\n");
    s
}

/// Write `json` to `results/BENCH_dataplane.json` at the repo root.
fn write_json(json: &str) -> std::io::Result<PathBuf> {
    let root = option_env!("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../.."))
        .unwrap_or_else(|| PathBuf::from("."));
    let dir = root.join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("BENCH_dataplane.json");
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Run the experiment on the seed-42 scenario laid out from `spec` (the
/// binary passes [`ScenarioSpec::city`]).
pub fn run(spec: ScenarioSpec, quick: bool) -> Report {
    let mut r = Report::new(
        "dataplane",
        "seed-42 scengen city replay on the rb-dataplane runtime",
        "a scengen city replays loss-free with a worker-count-independent \
         output multiset and exact per-lane frame conservation; replay time \
         shrinks ≥1.8× from 1 to 4 workers on a host with the cores for it",
    )
    .columns(vec!["workers", "rx frames", "tx frames", "elapsed ms", "speedup", "multiset"]);

    let scn = Scenario::new(42, spec).expect("preset specs validate");
    let capture = scn.capture();
    let workload = format!(
        "seed-42 scengen city: {} RUs, {} DUs, {} eAxC streams, {} sites, \
         {} handover events, {} capture frames",
        scn.topo.ru_count(),
        scn.topo.dus.len(),
        scn.topo.stream_count(&scn.spec),
        scn.topo.sites.len(),
        scn.schedule.events.len(),
        capture.frames.len(),
    );
    r.note(workload.clone());

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let on_curve = subscribable_worker_counts(cores);
    let reps = if quick { 1 } else { 3 };
    let mut baseline: Option<Vec<Vec<u8>>> = None;
    let mut secs_1w = 0.0;
    let mut curve = Vec::new();
    for workers in [1usize, 2, 4] {
        // The fastest of `reps` replays (warm caches, least scheduler
        // noise); every one of them is held to the gate.
        let mut best = (f64::INFINITY, 0, 0);
        for _ in 0..reps {
            let t0 = Instant::now();
            let (report, mut out) = run_capture(&scn, &capture, workers).expect("memory replay");
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            assert_eq!(report.worker_failures, 0, "no worker may panic");
            for (lane, (c, w)) in report.collectors.iter().zip(&report.workers).enumerate() {
                assert_eq!(
                    c.tx_frames + c.io_tx_errors + w.stats.tx_ring_dropped,
                    w.stats.tx,
                    "frame conservation on worker lane {lane} ({workers} workers)"
                );
            }
            out.sort_unstable();
            match &baseline {
                Some(b) => assert!(
                    *b == out,
                    "{workers}-worker output multiset diverged from the 1-worker run"
                ),
                None => baseline = Some(out),
            }
            if secs < best.0 {
                best = (secs, report.rx_frames, report.tx_frames);
            }
        }
        let (secs, rx, tx) = best;
        if workers == 1 {
            secs_1w = secs;
        }
        let speedup = if on_curve.contains(&workers) {
            let speedup = secs_1w / secs;
            curve.push((workers, speedup));
            format!("{speedup:.2}x")
        } else {
            "—".to_string()
        };
        r.row(vec![
            workers.to_string(),
            rx.to_string(),
            tx.to_string(),
            format!("{:.2}", secs * 1e3),
            speedup,
            "== 1w".to_string(),
        ]);
    }
    match write_json(&render_json(&workload, &curve, quick, cores)) {
        Ok(path) => r.note(format!("written to {}", path.display())),
        Err(e) => r.note(format!("could not write BENCH_dataplane.json: {e}")),
    }
    r.note(format!(
        "output multisets are identical across 1/2/4 workers (SeqMode::Preserve; see \
         scengen's determinism contract) and every lane conserves frames; speedup is \
         stated for the worker counts a {cores}-core host runs in parallel (target \
         ≥1.8x at 4 workers)"
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let s = render_json("w", &[(1, 1.0), (2, 1.9), (4, 3.6)], false, 8);
        assert!(
            s.contains(
                "\"scaling_curve\": [{\"workers\": 1, \"speedup_vs_1w\": 1.000}, \
                 {\"workers\": 2, \"speedup_vs_1w\": 1.900}, \
                 {\"workers\": 4, \"speedup_vs_1w\": 3.600}]"
            ),
            "{s}"
        );
        assert!(s.contains("\"host_cores\": 8") && !s.contains("pps"), "{s}");
        assert!(s.ends_with("]\n}\n"), "{s}");
    }

    #[test]
    fn quick_mode_measures_every_subscribable_worker_count() {
        let r = run(ScenarioSpec::ci(), true);
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let on_curve = subscribable_worker_counts(cores);
        assert_eq!(r.rows.len(), 3);
        for (row, workers) in r.rows.iter().zip([1usize, 2, 4]) {
            assert_eq!(row[0], workers.to_string());
            // Lossless replay: every worker count sees and sends the same.
            assert_eq!(row[1..3], r.rows[0][1..3]);
            assert_eq!(row[4] != "—", on_curve.contains(&workers), "{row:?}");
            assert_eq!(row[5], "== 1w");
        }
    }
}
