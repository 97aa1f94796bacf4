//! `cargo xtask` — workspace automation entry point.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{engine, report};

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  lint [options]   hot-path invariant linter

rules (on hot-path-reachable code unless noted):
  panic      unwrap/expect, panicking macros
  indexing   direct slice indexing / slicing
  unsafe     unsafe blocks and fns
  alloc      heap allocation (advisory unless --deny-alloc)
  block      locks, blocking recv, sleep/park/join, fs/net/stdio,
             process or thread spawning
  recursion  call-graph cycles reachable from a hot root
  ordering   Ordering::SeqCst; static mut / interior-mutable statics
             (statics checked crate-wide, not just hot paths)
  arith      bare + - * << >> on integer operands and `as` casts to
             integer types (use wrapping_*/checked_*/saturating_*,
             From/try_into; grants must state `range: ...`)
  growth     push/insert/extend/append/reserve/resize on collections
             without a preceding capacity guard (grants must state
             `bound: ...`)

lint options:
  --json           machine-readable output for CI (schema v3: version,
                   rules, findings with stable rule-id strings)
  --all            lint every non-test function in enforced crates,
                   not only the hot-path-reachable set
  --deny-alloc     promote heap-allocation findings from advisory to error
  --list-hot       print the hot-path-reachable function set and exit
  --root <path>    workspace root (default: auto-detected)
  --crates <a,b>   comma-separated enforced crates, or single modules
                   as crate::module (default: rb-fronthaul,rb-core,
                   rb-apps,rb-dataplane,rb-recover,rb-netsim::stats)
";

fn workspace_root() -> PathBuf {
    // When run via `cargo xtask`, cargo sets CARGO_MANIFEST_DIR to `xtask/`.
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(dir);
        if let Some(parent) = p.parent() {
            return parent.to_path_buf();
        }
    }
    PathBuf::from(".")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match cmd.as_str() {
        "lint" => lint(&args[1..]),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut opts = engine::Options::new(workspace_root());
    let mut json = false;
    let mut list_hot = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--all" => opts.all = true,
            "--deny-alloc" => opts.deny_alloc = true,
            "--list-hot" => list_hot = true,
            "--root" => match it.next() {
                Some(p) => opts.root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--crates" => match it.next() {
                Some(list) => {
                    opts.enforced = list.split(',').map(|s| s.trim().to_string()).collect();
                }
                None => {
                    eprintln!("--crates requires a comma-separated list");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown lint option `{other}`\n");
                eprint!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let rep = match engine::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    // A lint run that scanned nothing is a misconfigured invocation (wrong
    // --root, empty --crates), not a clean tree — fail loudly so CI cannot
    // silently pass on it.
    if rep.total_fns == 0 {
        eprintln!("xtask lint: no functions found under {} — wrong --root?", opts.root.display());
        return ExitCode::FAILURE;
    }
    if opts.enforced.iter().all(|c| c.is_empty()) {
        eprintln!("xtask lint: --crates resolved to an empty enforced set");
        return ExitCode::FAILURE;
    }

    if list_hot {
        for key in &rep.hot_fns {
            println!("{key}");
        }
        return ExitCode::SUCCESS;
    }

    if json {
        println!("{}", report::json(&rep));
    } else {
        print!("{}", report::human(&rep));
    }

    if rep.error_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
