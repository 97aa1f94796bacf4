//! `rb-perf compare <a.json>… -- <b.json>…`: do two sets of runs agree?
//!
//! One row per workload × end-to-end metric: each side's median and
//! quartiles, the ratio with its base, the metric's bound, and a verdict.
//! This is the tool behind "two sets of runs of one commit agree" and
//! behind any later before/after claim.

use std::fmt::Write as _;

use crate::json::Value;
use crate::metrics::{Better, END_TO_END};
use crate::report::values_in;
use crate::stats::quartiles;
use crate::workload::Kind;

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of a side is wider than the bound, and the
    /// sides' runs overlap: the data cannot say.
    Unresolved,
    /// A side has no value for this metric.
    Missing,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Judge B against A for one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    if am == 0.0 {
        // No relative change from a zero base: equal is ok, anything else
        // cannot be bounded.
        return if bm == 0.0 { Verdict::Ok } else { Verdict::Unresolved };
    }
    // B's median relative to A's, in the bad direction.
    let worse_by = match better {
        Better::Lower => (bm - am) / am.abs(),
        Better::Higher => (am - bm) / am.abs(),
    };
    let spread = ((a3 - a1) / am.abs()).max(if bm != 0.0 { (b3 - b1) / bm.abs() } else { 0.0 });
    if spread > bound {
        // Too noisy to bound — unless B wins every single comparison.
        let b_always_better = match better {
            Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
            Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
        };
        return if b_always_better { Verdict::Ok } else { Verdict::Unresolved };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The comparison table and whether any row regressed. Bounds are the
/// registry's, which `BENCHMARK.json` is printed from.
pub fn compare(a: &[Value], b: &[Value]) -> (String, bool) {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:<18} {:>12} {:>23} {:>12} {:>23} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A", "bound"
    );
    let mut regressed = false;
    for k in Kind::ALL {
        for m in END_TO_END {
            let side = |files: &[Value]| -> Vec<f64> {
                files.iter().flat_map(|f| values_in(f, k.name(), m.name)).collect()
            };
            let (va, vb) = (side(a), side(b));
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let verdict = judge(&va, &vb, m.better, bound);
            regressed |= verdict == Verdict::Regressed;
            let (a1, am, a3) = quartiles(&va);
            let (b1, bm, b3) = quartiles(&vb);
            let _ = writeln!(
                s,
                "{:<10} {:<18} {:>12.4e} {:>11.4e}..{:<10.4e} {:>12.4e} {:>11.4e}..{:<10.4e} {:>9.4} {:>5.0}%  {} (n={}/{}, base A={:.4e} {})",
                k.name(),
                m.name,
                am,
                a1,
                a3,
                bm,
                b1,
                b3,
                if am != 0.0 { bm / am } else { 0.0 },
                bound * 100.0,
                verdict.word(),
                va.len(),
                vb.len(),
                am,
                m.unit,
            );
        }
    }
    (s, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound either way.
        assert_eq!(judge(&a, &[103.0, 104.0, 102.0], Better::Lower, 0.05), Verdict::Ok);
        assert_eq!(judge(&a, &[90.0, 91.0, 89.0], Better::Lower, 0.05), Verdict::Ok);
        // Worse by more than the bound, in each direction's sense.
        assert_eq!(judge(&a, &[110.0, 111.0, 109.0], Better::Lower, 0.05), Verdict::Regressed);
        assert_eq!(judge(&a, &[90.0, 91.0, 89.0], Better::Higher, 0.05), Verdict::Regressed);
        assert_eq!(judge(&a, &[110.0, 111.0, 109.0], Better::Higher, 0.05), Verdict::Ok);
        // A spread wider than the bound cannot be judged...
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&a, &noisy, Better::Lower, 0.05), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        let fast_noisy = [40.0, 50.0, 60.0, 45.0, 55.0];
        assert_eq!(judge(&a, &fast_noisy, Better::Lower, 0.05), Verdict::Ok);
        assert_eq!(judge(&a, &[], Better::Lower, 0.05), Verdict::Missing);
        assert_eq!(judge(&[100.0], &[107.0], Better::Lower, 0.05), Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[104.0], Better::Lower, 0.05), Verdict::Ok);
    }

    #[test]
    fn table_covers_every_workload_and_metric() {
        let file = |svc: f64| {
            crate::json::parse(&format!(
                r#"{{"runs":[{{"fwd_small":{{"metrics":{{"svc_mean_ns":{{"value":{svc},"unit":"ns"}}}}}}}}]}}"#
            ))
            .unwrap()
        };
        let (table, regressed) = compare(&[file(100.0)], &[file(150.0)]);
        assert!(regressed);
        assert_eq!(table.lines().count(), 1 + Kind::ALL.len() * END_TO_END.len());
        let row = table.lines().find(|l| l.starts_with("fwd_small") && l.contains("svc_mean_ns"));
        assert!(row.unwrap().contains("regressed"));
        let (_, regressed) = compare(&[file(100.0)], &[file(101.0)]);
        assert!(!regressed);
    }
}
