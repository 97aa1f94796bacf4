//! `rb-perf` — see README.md in this directory.
//!
//! ```text
//! rb-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One run of one workload; the last line of stdout is one JSON object
//!     {"correct", "attempted", "failed", "metrics"} holding the end-to-end
//!     metrics (--trace 0) or the per-layer metrics (--trace 1). This is
//!     the form BENCHMARK.json's command is run in. With --trace 1,
//!     --trace-out <file> also writes the spans.
//! rb-perf run --seed <n> --out <file.json> [--seconds <s>] [--repeat <k>]
//!     All four workloads, <k> untraced runs and one traced run of each,
//!     every run a process of its own in the form above; prints every
//!     metric, writes the result file, the trace files
//!     (trace_<workload>.jsonl beside it) and one line of trajectory.jsonl.
//! rb-perf compare <a.json>... -- <b.json>...
//!     Do two sets of result files agree within BENCHMARK.json's bounds?
//! rb-perf manifest
//!     Print BENCHMARK.json from the metric registry.
//! ```

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rb_perf::alloc::CountingAlloc;
use rb_perf::host::HostBlock;
use rb_perf::metrics::{self, END_TO_END, PER_LAYER, RUN_SECONDS};
use rb_perf::phases::{self, Plan};
use rb_perf::report::{self, ResultFile};
use rb_perf::workload::Kind;
use rb_perf::{compare, json};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  rb-perf --workload <fwd_small|das_dl|das_ul|city_mix> --seed <n> --seconds <s> --trace <0|1>
  rb-perf run --seed <n> --out <file.json> [--seconds <s>] [--repeat <k>]
  rb-perf compare <a.json>... -- <b.json>...
  rb-perf manifest";

/// `--key value` pairs, in any order; anything else is an error.
fn options(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key.strip_prefix("--").ok_or_else(|| format!("unexpected argument {key:?}"))?;
        if !known.contains(&name) {
            return Err(format!("unknown option {key}"));
        }
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

fn option<T: std::str::FromStr>(
    opts: &[(String, String)],
    name: &str,
) -> Result<Option<T>, String> {
    match opts.iter().rev().find(|(k, _)| k == name) {
        None => Ok(None),
        Some((_, v)) => v.parse().map(Some).map_err(|_| format!("--{name}: cannot read {v:?}")),
    }
}

fn required<T: std::str::FromStr>(opts: &[(String, String)], name: &str) -> Result<T, String> {
    option(opts, name)?.ok_or_else(|| format!("--{name} is required"))
}

fn seconds_ok(s: f64) -> Result<f64, String> {
    if s.is_finite() && (0.5..=600.0).contains(&s) {
        Ok(s)
    } else {
        Err(format!("--seconds must be between 0.5 and 600, got {s}"))
    }
}

/// Driver mode: one workload, one result line.
fn one(args: &[String]) -> Result<ExitCode, String> {
    let opts = options(args, &["workload", "seed", "seconds", "trace", "trace-out"])?;
    let name: String = required(&opts, "workload")?;
    let kind = Kind::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = required(&opts, "seed")?;
    let seconds = seconds_ok(required(&opts, "seconds")?)?;
    let traced = match required::<u8>(&opts, "trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace is 0 or 1, got {t}")),
    };
    let trace_out: Option<String> = option(&opts, "trace-out")?;
    let plan = if traced { Plan::traced(seconds) } else { Plan::untraced(seconds) };
    let outcome = phases::run(kind, seed, &plan);
    eprint!("{}", report::remarks(&outcome));
    eprintln!("traffic: {}", report::TRAFFIC_NOTE);
    if !outcome.correct() {
        // A program whose output is wrong has no performance to report.
        return Ok(ExitCode::from(1));
    }
    let (title, table) = if traced { ("per-layer", PER_LAYER) } else { ("end-to-end", END_TO_END) };
    let result = report::result_json(&outcome, table)
        .map_err(|missing| format!("metrics missing or not finite: {}", missing.join(", ")))?;
    if let (Some(path), Some(trace)) = (trace_out, &outcome.trace) {
        let mut w = std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?,
        );
        trace.write_jsonl(&mut w).and_then(|()| w.flush()).map_err(|e| format!("{path}: {e}"))?;
    }
    eprint!("{}", report::table(title, table, &[(kind, result.clone())]));
    println!("{}", result.compact());
    Ok(ExitCode::SUCCESS)
}

/// Run one workload in a child process (this executable, driver mode) and
/// parse its result line. A process per run is what `peak_rss_mib` is
/// defined over, and it is how the benchmark's command is run: the
/// numbers of `rb-perf run` are the numbers that command gives. `Err` if
/// the child found the workload incorrect or printed no result.
fn child(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace_out: Option<&Path>,
) -> Result<json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", kind.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace_out.is_some() { "1" } else { "0" }]);
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    // stderr (the child's remarks) passes through; `output` waits for the
    // child, so it has ended before this returns.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {} run: {e}", kind.name()))?;
    if !out.status.success() {
        return Err(format!("the {} run failed ({})", kind.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.lines().last().unwrap_or_default())
        .map_err(|e| format!("result line of the {} run: {e}", kind.name()))
}

/// `run`: every workload, every metric, result files.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let opts = options(args, &["seed", "out", "seconds", "repeat"])?;
    let seed: u64 = required(&opts, "seed")?;
    let out: PathBuf = required::<String>(&opts, "out")?.into();
    let seconds = seconds_ok(option(&opts, "seconds")?.unwrap_or(RUN_SECONDS as f64))?;
    let repeat: usize = option(&opts, "repeat")?.unwrap_or(1).max(1);
    let dir = out.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let host = HostBlock::probe();
    println!(
        "rb-perf run: seed {seed}, {seconds} s per run, {repeat} untraced + 1 traced run per \
         workload, one process each"
    );
    println!("host: {} x {}, {}, commit {}", host.nproc, host.cpu_model, host.rustc, host.commit);
    println!("threads: caller (generator + dispatcher + collector) + 1 worker");
    println!("traffic: {}\n", report::TRAFFIC_NOTE);

    // Any incorrect or incomplete run ends everything here, before a file
    // is written.
    let mut runs = Vec::with_capacity(repeat);
    for r in 0..repeat {
        let results = Kind::ALL
            .into_iter()
            .map(|kind| Ok((kind, child(kind, seed, seconds, None)?)))
            .collect::<Result<Vec<_>, String>>()?;
        let title = format!("end-to-end, run {}/{repeat}", r + 1);
        println!("{}", report::table(&title, END_TO_END, &results));
        runs.push(results);
    }
    let traced = Kind::ALL
        .into_iter()
        .map(|kind| {
            let spans = dir.join(format!("trace_{}.jsonl", kind.name()));
            Ok((kind, child(kind, seed, seconds, Some(&spans))?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    println!("{}", report::table("per-layer (traced run)", PER_LAYER, &traced));
    println!(
        "svc_mean_calib is svc_mean_ns in units of harness.calib_ns (one copy + XOR-fold of 7.7 KB \
         on this host): compare it across hosts, never the raw ns."
    );

    let file = ResultFile { host: &host, seed, seconds, runs: &runs, traced: &traced };
    std::fs::write(&out, file.to_json().pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    let trajectory = dir.join("trajectory.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&trajectory)
        .and_then(|mut f| writeln!(f, "{}", file.trajectory_line()))
        .map_err(|e| format!("{}: {e}", trajectory.display()))?;
    println!("wrote {} and one line of {}", out.display(), trajectory.display());
    Ok(ExitCode::SUCCESS)
}

fn read_json(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare`: A files, `--`, B files.
fn compare_sets(args: &[String]) -> Result<ExitCode, String> {
    let split = args.iter().position(|a| a == "--").ok_or("compare needs `--` between the sets")?;
    let (a, b) = (&args[..split], &args[split + 1..]);
    if a.is_empty() || b.is_empty() {
        return Err("compare needs at least one file on each side of `--`".into());
    }
    let load = |paths: &[String]| paths.iter().map(|p| read_json(p)).collect::<Result<Vec<_>, _>>();
    let (table, regressed) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(if regressed { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_sets(&args[1..]),
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(a) if a.starts_with("--") => one(&args),
        _ => Err(format!("no command\n{USAGE}")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("rb-perf: {e}");
        ExitCode::from(2)
    })
}
