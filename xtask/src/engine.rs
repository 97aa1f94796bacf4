//! Lint engine: crate discovery, extraction, reachability, rule checks,
//! allowlist application.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::allowlist::{self, Allowlist};
use crate::checks::{self, Rule};
use crate::extract::{self, StaticDef};
use crate::graph::{self, GlobalFn};
use crate::lexer;

/// Crates — or single modules, as `crate::module` — whose
/// hot-path-reachable functions are held to the deny rules. `rb-netsim` is
/// simulator code the packet path never runs, except `stats`: the workers
/// record into its histogram.
pub const DEFAULT_ENFORCED: &[&str] =
    &["rb-fronthaul", "rb-core", "rb-apps", "rb-dataplane", "rb-recover", "rb-netsim::stats"];

/// Directory names never scanned for sources.
const SKIP_DIRS: &[&str] = &["target", "tests", "benches", "examples", ".git"];

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Crates (`rb-core`) or modules (`rb-netsim::stats`) whose violations
    /// are enforced; the rest only contribute definitions for reachability.
    pub enforced: Vec<String>,
    /// Promote `alloc` findings from advisory to denied.
    pub deny_alloc: bool,
    /// Lint every non-test function in enforced crates, not only the
    /// hot-path-reachable set.
    pub all: bool,
    /// Allowlist path; defaults to `<root>/xtask/lint-allow.toml`.
    pub allowlist_path: Option<PathBuf>,
}

impl Options {
    /// True when `key` (a function, static or allowlist key) lies in an
    /// enforced crate or module.
    fn enforces(&self, key: &str) -> bool {
        self.enforced.iter().any(|e| {
            key.strip_prefix(e.as_str())
                .is_some_and(|rest| rest.is_empty() || rest.starts_with("::"))
        })
    }

    /// Default options rooted at `root`.
    pub fn new(root: PathBuf) -> Self {
        Options {
            root,
            enforced: DEFAULT_ENFORCED.iter().map(|s| s.to_string()).collect(),
            deny_alloc: false,
            all: false,
            allowlist_path: None,
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Function key (`crate::module::Type::name`).
    pub key: String,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line of the violating token.
    pub line: u32,
    /// Rule family.
    pub rule: Rule,
    /// Short snippet of the offending expression.
    pub what: String,
    /// Granted by the allowlist.
    pub allowed: bool,
    /// Advisory only (never fails the run).
    pub advisory: bool,
    /// Root→function call chain that makes this function hot.
    pub chain: Vec<String>,
}

impl Finding {
    /// True when this finding should fail the lint run.
    pub fn is_error(&self) -> bool {
        !self.allowed && !self.advisory
    }
}

/// Aggregate result of one lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, errors and advisories alike.
    pub findings: Vec<Finding>,
    /// Keys of all hot-path-reachable functions, sorted.
    pub hot_fns: Vec<String>,
    /// Total functions extracted across scanned crates.
    pub total_fns: usize,
    /// Problems in the allowlist file itself (these fail the run).
    pub allow_problems: Vec<String>,
    /// Allowlist entries that matched nothing (these fail the run: stale
    /// grants must be pruned, not accumulated).
    pub unused_allow: Vec<String>,
}

impl Report {
    /// Number of findings that fail the run.
    pub fn error_count(&self) -> usize {
        self.findings.iter().filter(|f| f.is_error()).count()
            + self.allow_problems.len()
            + self.unused_allow.len()
    }
}

/// Read the `name = "..."` of a Cargo.toml `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    let v = v.trim();
                    if v.len() >= 2 && v.starts_with('"') {
                        if let Some(close) = v[1..].find('"') {
                            return Some(v[1..1 + close].to_string());
                        }
                    }
                }
            }
        }
    }
    None
}

/// Find `(crate_name, crate_dir)` pairs under `root`, skipping `xtask`
/// itself (its helper names like `parse` would otherwise leak into the
/// name-based call graph as false candidates), `rb-loom` (compiled
/// only under `--cfg loom`, never linked into the packet path; its shim
/// method names — `push`, `pop`, `len` — shadow production ones and
/// would fabricate hot chains through the model checker) and `perf`
/// (the benchmark package and its stand-in crates sit outside the
/// workspace and only drive it; their `run`/`clear`/`fill` helpers
/// fabricate hot chains the same way).
fn discover_crates(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let mut stack = vec![(root.to_path_buf(), 0usize)];
    while let Some((dir, depth)) = stack.pop() {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)?;
            if let Some(name) = package_name(&text) {
                if name != "xtask" && name != "rb-loom" {
                    out.push((name, dir.clone()));
                }
            }
        }
        if depth >= 3 {
            continue;
        }
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if !path.is_dir() {
                continue;
            }
            let base = entry.file_name();
            let base = base.to_string_lossy();
            if SKIP_DIRS.contains(&base.as_ref())
                || base == "xtask"
                || base == "perf"
                || base.starts_with('.')
            {
                continue;
            }
            stack.push((path, depth + 1));
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Collect `.rs` files under `dir/src`, with their module path.
fn source_files(crate_dir: &Path) -> Vec<(PathBuf, String)> {
    let src = crate_dir.join("src");
    let mut out = Vec::new();
    let mut stack = vec![src.clone()];
    while let Some(dir) = stack.pop() {
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let base = entry.file_name();
            let base = base.to_string_lossy().to_string();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&base.as_str()) {
                    stack.push(path);
                }
                continue;
            }
            if !base.ends_with(".rs") {
                continue;
            }
            let rel = match path.strip_prefix(&src) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let mut parts: Vec<String> = rel
                .iter()
                .map(|c| c.to_string_lossy().trim_end_matches(".rs").to_string())
                .collect();
            if let Some(last) = parts.last() {
                if last == "lib" || last == "main" || last == "mod" {
                    parts.pop();
                }
            }
            out.push((path, parts.join("::")));
        }
    }
    out.sort();
    out
}

fn load_allowlist(opts: &Options) -> Allowlist {
    let path = opts
        .allowlist_path
        .clone()
        .unwrap_or_else(|| opts.root.join("xtask").join("lint-allow.toml"));
    match fs::read_to_string(&path) {
        Ok(text) => allowlist::parse(&text),
        Err(_) => Allowlist::default(),
    }
}

/// Run the lint over the workspace at `opts.root`.
pub fn run(opts: &Options) -> io::Result<Report> {
    let mut units: Vec<Vec<lexer::Token>> = Vec::new();
    let mut fns: Vec<GlobalFn> = Vec::new();
    // `(file, static)` pairs for the ordering-rule shared-state scan.
    let mut statics: Vec<(String, StaticDef)> = Vec::new();

    for (crate_name, crate_dir) in discover_crates(&opts.root)? {
        for (path, module) in source_files(&crate_dir) {
            let text = fs::read_to_string(&path)?;
            let toks = lexer::tokenize(&text);
            let items = extract::extract_file(&toks, &crate_name, &module);
            let unit = units.len();
            let file = path.strip_prefix(&opts.root).unwrap_or(&path).to_string_lossy().to_string();
            for def in items.fns {
                fns.push(GlobalFn { unit, file: file.clone(), def });
            }
            for s in items.statics {
                statics.push((file.clone(), s));
            }
            units.push(toks);
        }
    }

    let parent = graph::reachable(&units, &fns);
    let allow = load_allowlist(opts);
    let mut used = vec![false; allow.entries.len()];

    let mut report = Report {
        total_fns: fns.len(),
        allow_problems: allow.problems.clone(),
        ..Report::default()
    };

    let mut hot: BTreeSet<String> = BTreeSet::new();
    for &idx in parent.keys() {
        hot.insert(fns[idx].def.key.clone());
    }
    report.hot_fns = hot.into_iter().collect();

    let mark_used = |key: &str, rule: Rule, used: &mut Vec<bool>| -> bool {
        let allowed = allow.grants(key, rule);
        if allowed {
            for (ei, e) in allow.entries.iter().enumerate() {
                if e.rule == rule && e.function == key {
                    used[ei] = true;
                }
            }
        }
        allowed
    };

    for (idx, f) in fns.iter().enumerate() {
        if f.def.is_test {
            continue;
        }
        if !opts.enforces(&f.def.key) {
            continue;
        }
        let is_hot = parent.contains_key(&idx);
        if !is_hot && !opts.all {
            continue;
        }
        let violations =
            checks::scan_body(&units[f.unit], f.def.body, &f.def.nested, f.def.is_unsafe_fn);
        if violations.is_empty() {
            continue;
        }
        let chain = if is_hot { graph::chain(&fns, &parent, idx) } else { vec![f.def.key.clone()] };
        for v in violations {
            let advisory = v.rule == Rule::Alloc && !opts.deny_alloc;
            let allowed = mark_used(&f.def.key, v.rule, &mut used);
            report.findings.push(Finding {
                key: f.def.key.clone(),
                file: f.file.clone(),
                line: v.line,
                rule: v.rule,
                what: v.what,
                allowed,
                advisory,
                chain: chain.clone(),
            });
        }
    }

    // Recursion: call-graph cycles reachable from hot roots. Each cycle is
    // one finding against its representative (smallest-key) member, with
    // the full cycle path in the diagnostic.
    for cycle in graph::cycles(&units, &fns, &parent) {
        let rep = match cycle.path.first() {
            Some(&r) => r,
            None => continue,
        };
        let f = &fns[rep];
        if !opts.enforces(&f.def.key) {
            continue;
        }
        let mut what = String::from("cycle: ");
        for (n, &m) in cycle.path.iter().enumerate() {
            if n > 0 {
                what.push_str(" -> ");
            }
            what.push_str(&fns[m].def.key);
        }
        what.push_str(" -> ");
        what.push_str(&f.def.key);
        let allowed = mark_used(&f.def.key, Rule::Recursion, &mut used);
        report.findings.push(Finding {
            key: f.def.key.clone(),
            file: f.file.clone(),
            line: f.def.line,
            rule: Rule::Recursion,
            what,
            allowed,
            advisory: false,
            chain: graph::chain(&fns, &parent, rep),
        });
    }

    // Ordering: shared mutable state without atomics, at item scope.
    // Statics are process-wide, so they are checked in every enforced
    // crate regardless of hot-path reachability.
    for (file, s) in &statics {
        if s.is_test || !opts.enforces(&s.key) {
            continue;
        }
        let what = if s.is_mut {
            format!("static mut {}", s.name)
        } else if s.interior_mut {
            format!("interior-mutable static {}", s.name)
        } else {
            continue;
        };
        let allowed = mark_used(&s.key, Rule::Ordering, &mut used);
        report.findings.push(Finding {
            key: s.key.clone(),
            file: file.clone(),
            line: s.line,
            rule: Rule::Ordering,
            what,
            allowed,
            advisory: false,
            chain: vec![s.key.clone()],
        });
    }

    // An allowlist entry outside the enforced set cannot match in this
    // invocation (CI runs the lint with more than one --crates subset);
    // only entries inside it count as stale.
    for e in allow.unused(&used) {
        if !opts.enforces(&e.function) {
            continue;
        }
        report.unused_allow.push(format!(
            "unused allowlist entry: {} / {} ({})",
            e.function,
            e.rule.name(),
            e.reason
        ));
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule.name()).cmp(&(&b.file, b.line, b.rule.name())));
    Ok(report)
}
