//! Turning outcomes into output: the one-line result object (what the
//! driver reads, and what `rb-perf run` collects from its child
//! processes), the tables a person reads, and the result and trajectory
//! files.

use std::fmt::Write as _;

use crate::host::HostBlock;
use crate::json::{obj, Value};
use crate::metrics::{MetricDef, END_TO_END};
use crate::phases::Outcome;
use crate::stats::median;
use crate::workload::Kind;

/// Said in every result: what the traffic did not cross.
pub const TRAFFIC_NOTE: &str =
    "in-process memory only: frames crossed no link, NIC or loopback interface";

/// The result object of one run: exactly `correct`, `attempted`, `failed`
/// and `metrics` — `{"name": {"value", "unit"}}` for every metric of
/// `table`. `Err` names the metrics `outcome` lacks or holds a non-finite
/// value for.
pub fn result_json(outcome: &Outcome, table: &[MetricDef]) -> Result<Value, Vec<&'static str>> {
    let mut members = Vec::with_capacity(table.len());
    let mut missing = Vec::new();
    for m in table {
        match outcome.metrics.get(m.name) {
            Some(v) if v.is_finite() => members
                .push((m.name.to_string(), obj([("value", (*v).into()), ("unit", m.unit.into())]))),
            _ => missing.push(m.name),
        }
    }
    if !missing.is_empty() {
        return Err(missing);
    }
    Ok(obj([
        ("correct", outcome.correct().into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", Value::Obj(members)),
    ]))
}

/// Metric `name` of a result object.
pub fn value_of(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".into()
    } else if a >= 100_000.0 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// A table of `defs`' metrics, one row each, one column per result.
pub fn table(title: &str, defs: &[MetricDef], results: &[(Kind, Value)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = write!(s, "  {:<38} {:<12}", "metric", "unit");
    for (kind, _) in results {
        let _ = write!(s, " {:>14}", kind.name());
    }
    s.push('\n');
    for m in defs {
        let _ = write!(s, "  {:<38} {:<12}", m.name, m.unit);
        for (_, r) in results {
            let cell = value_of(r, m.name).map_or("-".to_string(), fmt_value);
            let _ = write!(s, " {cell:>14}");
        }
        s.push('\n');
    }
    s
}

/// Everything worth saying about one outcome besides its numbers.
pub fn remarks(o: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{}: {} — {} of {} frames failed",
        o.kind.name(),
        if o.correct() { "outputs correct" } else { "INCORRECT" },
        o.failed,
        o.attempted
    );
    for e in &o.errors {
        let _ = writeln!(s, "  error: {e}");
    }
    for n in &o.notes {
        let _ = writeln!(s, "  {n}");
    }
    s
}

/// One `rb-perf run` invocation's result file: the result objects of its
/// runs, keyed by workload.
pub struct ResultFile<'a> {
    /// Where and what.
    pub host: &'a HostBlock,
    /// Workload seed.
    pub seed: u64,
    /// Seconds each run measured.
    pub seconds: f64,
    /// Untraced repeats: one end-to-end result per workload in each.
    pub runs: &'a [Vec<(Kind, Value)>],
    /// The traced run: one per-layer result per workload.
    pub traced: &'a [(Kind, Value)],
}

impl ResultFile<'_> {
    /// The file's contents.
    pub fn to_json(&self) -> Value {
        let by_workload = |results: &[(Kind, Value)]| -> Value {
            Value::Obj(results.iter().map(|(k, r)| (k.name().to_string(), r.clone())).collect())
        };
        obj([
            ("schema", "rb-perf/1".into()),
            ("host", self.host.to_json()),
            ("seed", self.seed.into()),
            ("seconds", self.seconds.into()),
            ("traffic", TRAFFIC_NOTE.into()),
            ("runs", Value::Arr(self.runs.iter().map(|r| by_workload(r)).collect())),
            ("layers", by_workload(self.traced)),
        ])
    }

    /// One line for `trajectory.jsonl`: commit, host, seed and, per
    /// workload, the median over this invocation's runs of every
    /// end-to-end metric.
    pub fn trajectory_line(&self) -> String {
        let workloads = Kind::ALL
            .into_iter()
            .map(|k| {
                let medians = END_TO_END
                    .iter()
                    .map(|m| {
                        let vals: Vec<f64> = self
                            .runs
                            .iter()
                            .flatten()
                            .filter(|(kind, _)| *kind == k)
                            .filter_map(|(_, r)| value_of(r, m.name))
                            .collect();
                        (m.name.to_string(), median(&vals).into())
                    })
                    .collect();
                (k.name().to_string(), Value::Obj(medians))
            })
            .collect();
        obj([
            ("commit", self.host.commit.as_str().into()),
            ("host", self.host.to_json()),
            ("seed", self.seed.into()),
            ("seconds", self.seconds.into()),
            ("runs", (self.runs.len() as u64).into()),
            ("metrics", Value::Obj(workloads)),
        ])
        .compact()
    }
}

/// The values of `workload`'s end-to-end metric `name` in a result file
/// (one per run it holds).
pub fn values_in(file: &Value, workload: &str, name: &str) -> Vec<f64> {
    file.get("runs")
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| value_of(run.get(workload)?, name))
        .collect()
}
