//! Tier-1-sized check of the whole benchmark: every workload through
//! every phase at the smoke size, against the names in `BENCHMARK.json`.
//!
//! All workloads run in one test function on purpose: each run already uses
//! two threads (caller and worker), and the paced phase keeps a wall-clock
//! schedule, so the runs go one after another instead of competing for the
//! cores.

use std::path::Path;

use rb_perf::alloc::CountingAlloc;
use rb_perf::json::{self, Value};
use rb_perf::metrics::{self, END_TO_END, PER_LAYER};
use rb_perf::phases::{self, Outcome, Plan};
use rb_perf::report;
use rb_perf::workload::Kind;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn benchmark_json() -> (String, Value) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    let value = json::parse(&text).expect("BENCHMARK.json is JSON");
    (text, value)
}

fn names(manifest: &Value, table: &str) -> Vec<(String, String)> {
    manifest
        .get(table)
        .expect("table exists")
        .items()
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Every metric of `table` is in the result object: finite, with the
/// unit `BENCHMARK.json` gives it.
fn assert_reports(outcome: &Outcome, manifest: &Value, table: &str) {
    let defs = if table == "end_to_end" { END_TO_END } else { PER_LAYER };
    let result = report::result_json(outcome, defs)
        .unwrap_or_else(|missing| panic!("{}: missing {missing:?}", outcome.kind.name()));
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = result.get("metrics").unwrap();
    let expected = names(manifest, table);
    assert_eq!(metrics.members().len(), expected.len(), "exactly the table's metrics");
    for (name, unit) in expected {
        let m = metrics.get(&name).unwrap_or_else(|| panic!("{}: no {name}", outcome.kind.name()));
        let v = m.get("value").and_then(Value::as_f64).expect("a number");
        assert!(v.is_finite(), "{name} = {v}");
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{name}");
    }
}

#[test]
fn benchmark_json_is_the_registry() {
    let (text, manifest) = benchmark_json();
    assert_eq!(text, metrics::manifest().pretty(), "regenerate with `rb-perf manifest`");
    let keys: Vec<&str> = manifest.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let workloads: Vec<&str> = manifest
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, Kind::ALL.map(Kind::name));
}

#[test]
fn every_workload_reports_every_metric_and_loses_nothing() {
    let (_, manifest) = benchmark_json();
    for kind in Kind::ALL {
        let untraced = phases::run(kind, 42, &Plan::smoke(false));
        let traced = phases::run(kind, 42, &Plan::smoke(true));
        for o in [&untraced, &traced] {
            assert!(o.correct(), "{}: {:?}", kind.name(), o.errors);
            assert!(o.attempted > 0);
            assert_eq!(o.failed, 0, "{}", kind.name());
            assert_eq!(o.metrics["fail_share"], 0.0);
            for name in
                ["core.seq_gaps", "core.seq_dups", "core.parse_errors", "apps.partial_merges"]
            {
                assert_eq!(o.metrics[name], 0.0, "{}: {name}", kind.name());
            }
        }
        assert_reports(&untraced, &manifest, "end_to_end");
        assert_reports(&traced, &manifest, "per_layer");
        assert!(untraced.trace.is_none() && traced.trace.is_some());

        // Counts are exact: two runs of one seed agree to the last frame.
        for name in ["apps.emits_per_frame", "apps.merges", "scengen.frames", "scengen.streams"] {
            assert_eq!(untraced.metrics[name], traced.metrics[name], "{}: {name}", kind.name());
        }
        let emits = untraced.metrics["apps.emits_per_frame"];
        match kind {
            Kind::FwdSmall => assert_eq!(emits, 1.0),
            Kind::DasDl => assert_eq!(emits, 4.0),
            Kind::DasUl => {
                assert_eq!(emits, 0.25);
                assert_eq!(
                    untraced.metrics["apps.merges"],
                    untraced.metrics["scengen.frames"] / 4.0
                );
            }
            Kind::CityMix => assert!(emits > 0.5 && untraced.metrics["apps.merges"] > 0.0),
        }
        // The traced run's attribution is sane: stages are positive where
        // the workload has them and the health ratios are finite.
        assert!(traced.metrics["fronthaul.parse_ns"] > 0.0);
        assert!(traced.metrics["apps.handler_ns"] > 0.0);
        assert!(traced.metrics["harness.stage_sum_ratio"] > 0.0);
        if kind == Kind::DasUl {
            assert!(
                traced.metrics["apps.das.ul_merge_ns"] > traced.metrics["apps.das.ul_cache_ns"]
            );
            assert!(traced.metrics["fronthaul.bfp_compress_ns_per_prb"] > 0.0);
            assert!(traced.metrics["core.cache_ns"] > 0.0);
        }
    }
}
