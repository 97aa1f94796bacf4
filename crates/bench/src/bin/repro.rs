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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let markdown = args.iter().any(|a| a == "--markdown");
    let all = args.iter().any(|a| a == "--all");
    let list = args.iter().any(|a| a == "--list");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    if list || (!all && ids.is_empty()) {
        eprintln!("usage: repro [--quick] [--markdown] (--all | <id>...)");
        eprintln!("experiments: {}", experiments::IDS.join(" "));
        std::process::exit(if list { 0 } else { 2 });
    }

    let reports = if all {
        experiments::all(quick)
    } else {
        ids.iter()
            .map(|id| {
                experiments::by_id(id, quick).unwrap_or_else(|| {
                    eprintln!("unknown experiment '{id}'; try --list");
                    std::process::exit(2);
                })
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
