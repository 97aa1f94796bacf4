//! Regenerate the paper's evaluation tables and figures.
//!
//! ```sh
//! repro --all            # every experiment, full windows
//! repro --quick --all    # shortened windows (CI smoke)
//! repro fig10a table2    # a subset
//! repro --markdown --all # Markdown tables (for EXPERIMENTS.md)
//! repro --list
//! ```

use rb_bench::experiments;

fn main() {
    let mut args: Vec<String> = Vec::new();
    let mut scenario: Option<String> = None;
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        if a == "--scenario" {
            scenario = raw.next();
            if scenario.is_none() {
                eprintln!("--scenario needs a preset name (city, ci)");
                std::process::exit(2);
            }
        } else if let Some(v) = a.strip_prefix("--scenario=") {
            scenario = Some(v.to_string());
        } else {
            args.push(a);
        }
    }
    let quick = args.iter().any(|a| a == "--quick");
    let markdown = args.iter().any(|a| a == "--markdown");
    let all = args.iter().any(|a| a == "--all");
    let list = args.iter().any(|a| a == "--list");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    if list || (!all && ids.is_empty()) {
        eprintln!("usage: repro [--quick] [--markdown] [--scenario <city|ci>] (--all | <id>...)");
        eprintln!("experiments: {}", experiments::IDS.join(" "));
        eprintln!("--scenario swaps the dataplane experiment's workload for a seeded scengen city");
        std::process::exit(if list { 0 } else { 2 });
    }
    if let Some(p) = &scenario {
        if p != "city" && p != "ci" {
            eprintln!("unknown scenario preset '{p}' (known: city, ci)");
            std::process::exit(2);
        }
    }

    let reports = if all {
        experiments::all(quick)
    } else {
        ids.iter()
            .map(|id| match (id.as_str(), &scenario) {
                // `--scenario` retargets the dataplane experiment at the
                // generated city instead of the synthetic DAS capture.
                ("dataplane", Some(preset)) => {
                    experiments::dataplane_scale::run_scenario(preset, quick)
                }
                _ => experiments::by_id(id, quick).unwrap_or_else(|| {
                    eprintln!("unknown experiment '{id}'; try --list");
                    std::process::exit(2);
                }),
            })
            .collect()
    };

    for report in &reports {
        if markdown {
            println!("{}", report.render_markdown());
        } else {
            println!("{}", report.render());
        }
    }
    eprintln!(
        "completed {} experiment(s){}",
        reports.len(),
        if quick { " in quick mode" } else { "" }
    );
}
