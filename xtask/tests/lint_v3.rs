//! End-to-end tests for the overflow-safety rule families added in
//! schema v3 — `arith` and `growth` — over the seeded fixture crates
//! `arithcrate` and `growcrate`.

use std::path::PathBuf;

use xtask::checks::Rule;
use xtask::engine::{self, Options};

fn manifest_dir() -> PathBuf {
    PathBuf::from(option_env!("CARGO_MANIFEST_DIR").unwrap_or("xtask"))
}

fn opts_for(fixture: &str, krate: &str) -> Options {
    let root = manifest_dir().join("tests").join("fixtures").join(fixture);
    let mut opts = Options::new(root);
    opts.enforced = vec![krate.to_string()];
    opts
}

fn arith_opts() -> Options {
    opts_for("arithcrate", "rb-arithcrate")
}

fn grow_opts() -> Options {
    opts_for("growcrate", "rb-growcrate")
}

#[test]
fn arith_rule_flags_every_bare_spelling() {
    let report = engine::run(&arith_opts()).expect("lint run");
    let ariths: Vec<_> =
        report.findings.iter().filter(|f| f.rule == Rule::Arith && f.is_error()).collect();
    let hit = |key: &str, what: &str| {
        ariths.iter().any(|f| f.key.ends_with(key) && f.what.contains(what))
    };
    assert!(hit("bare_add", "a + b"), "bare addition: {ariths:?}");
    assert!(hit("bare_sub_one", "seq - 1"), "bare subtraction: {ariths:?}");
    assert!(hit("bare_mul", "n * stride"), "bare multiplication: {ariths:?}");
    assert!(hit("compound_accumulate", "total += step"), "compound assign: {ariths:?}");
    assert!(hit("variable_shift", "v << n"), "non-literal shift amount: {ariths:?}");
    assert!(hit("truncating_cast", "as u16"), "truncating cast: {ariths:?}");
    assert!(hit("sign_change", "as u32"), "sign-changing cast: {ariths:?}");
}

#[test]
fn enforced_entries_are_path_prefixes_cut_at_a_separator() {
    // `crate::path` enforces that path alone — how `rb-netsim::stats` is
    // held to the rules without the simulator around it.
    let mut opts = arith_opts();
    opts.enforced = vec!["rb-arithcrate::bare_add".to_string()];
    let report = engine::run(&opts).expect("lint run");
    assert!(!report.findings.is_empty());
    assert!(report.findings.iter().all(|f| f.key == "rb-arithcrate::bare_add"), "{report:?}");
    // A prefix that ends inside a name is not a path.
    opts.enforced = vec!["rb-arith".to_string()];
    assert!(engine::run(&opts).expect("lint run").findings.is_empty());
}

#[test]
fn arith_rule_spares_sanctioned_spellings() {
    let report = engine::run(&arith_opts()).expect("lint run");
    let ariths: Vec<_> = report.findings.iter().filter(|f| f.rule == Rule::Arith).collect();
    // Explicit-overflow-semantics methods, `From` widening, and handled
    // `try_from` are exactly what the rule steers toward.
    assert!(
        !ariths.iter().any(|f| f.key.ends_with("sanctioned_spellings")),
        "wrapping/checked/saturating/From/try_from are sanctioned: {ariths:?}"
    );
    // Literal shift amounts and const-folded literal math are checked by
    // rustc itself; floats cannot wrap; division is the panic family's beat.
    for name in ["literal_shift", "float_math", "const_folded", "division_is_out_of_scope"] {
        assert!(!ariths.iter().any(|f| f.key.ends_with(name)), "{name}: {ariths:?}");
    }
    // `+` joining trait bounds is not arithmetic.
    assert!(
        !ariths.iter().any(|f| f.key.ends_with("bound_plus_is_not_arith")),
        "trait-bound plus: {ariths:?}"
    );
    // Cold code is advisory, never a DENY error.
    assert!(
        !ariths.iter().any(|f| f.key.ends_with("cold_helper") && f.is_error()),
        "cold fns cannot produce errors: {ariths:?}"
    );
    // Test code is exempt even inside an enforced crate.
    assert!(!report.findings.iter().any(|f| f.key.contains("tests_do_math")));
}

#[test]
fn growth_rule_flags_unguarded_growth() {
    let report = engine::run(&grow_opts()).expect("lint run");
    let growths: Vec<_> =
        report.findings.iter().filter(|f| f.rule == Rule::Growth && f.is_error()).collect();
    let hit = |key: &str, what: &str| {
        growths.iter().any(|f| f.key.ends_with(key) && f.what.contains(what))
    };
    assert!(hit("unguarded_push", ".push(..)"), "vec push: {growths:?}");
    assert!(hit("unguarded_insert", ".insert(..)"), "map insert: {growths:?}");
    assert!(hit("unguarded_extend", ".extend_from_slice(..)"), "buffer extend: {growths:?}");
    assert!(hit("creeping_reserve", ".reserve(..)"), "reserve is growth too: {growths:?}");
    // A guard that only runs after the growth call bounds nothing.
    assert!(hit("guard_after_growth", ".push_back(..)"), "guard ordering: {growths:?}");
}

#[test]
fn growth_rule_honors_capacity_guards() {
    let report = engine::run(&grow_opts()).expect("lint run");
    let growths: Vec<_> = report.findings.iter().filter(|f| f.rule == Rule::Growth).collect();
    // Evict-first, fullness probes, capacity queries, and `with_capacity`
    // pre-sizing are the sanctioned shapes.
    for name in [
        "len_guarded_push",
        "fullness_guarded_insert",
        "capacity_guarded_extend",
        "preallocated_collect",
    ] {
        assert!(!growths.iter().any(|f| f.key.ends_with(name)), "{name}: {growths:?}");
    }
    // Cold code is advisory, never a DENY error.
    assert!(
        !growths.iter().any(|f| f.key.ends_with("cold_growth") && f.is_error()),
        "cold fns cannot produce errors: {growths:?}"
    );
    // Test code is exempt even inside an enforced crate.
    assert!(!report.findings.iter().any(|f| f.key.contains("tests_may_grow")));
}

#[test]
fn v3_grants_demand_quantified_reasons() {
    let dir = std::env::temp_dir().join("rb_lint_v3_allow_test");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let allow_path = dir.join("lint-allow.toml");
    std::fs::write(
        &allow_path,
        "[[allow]]\n\
         function = \"rb-arithcrate::bare_add\"\n\
         rule = \"arith\"\n\
         reason = \"fixture grant; range: both operands are u32-bounded, sum fits u64\"\n\
         \n\
         [[allow]]\n\
         function = \"rb-arithcrate::bare_mul\"\n\
         rule = \"arith\"\n\
         reason = \"fixture grant with no quantified justification\"\n\
         \n\
         [[allow]]\n\
         function = \"rb-growcrate::unguarded_push\"\n\
         rule = \"growth\"\n\
         reason = \"fixture grant; bound: caller drains the vec every slot\"\n\
         \n\
         [[allow]]\n\
         function = \"rb-growcrate::unguarded_insert\"\n\
         rule = \"growth\"\n\
         reason = \"fixture grant with no quantified justification\"\n",
    )
    .expect("write allowlist");

    // One allowlist, two invocations — like CI linting crate subsets.
    let mut aopts = arith_opts();
    aopts.allowlist_path = Some(allow_path.clone());
    let areport = engine::run(&aopts).expect("lint run");
    let mut gopts = grow_opts();
    gopts.allowlist_path = Some(allow_path.clone());
    let greport = engine::run(&gopts).expect("lint run");

    // Quantified grants apply.
    assert!(areport
        .findings
        .iter()
        .any(|f| f.key.ends_with("bare_add") && f.rule == Rule::Arith && f.allowed));
    assert!(greport
        .findings
        .iter()
        .any(|f| f.key.ends_with("unguarded_push") && f.rule == Rule::Growth && f.allowed));

    // Unquantified grants are rejected — reported as problems AND the
    // finding stays a DENY error, so a sloppy grant cannot unblock CI.
    assert!(
        areport.allow_problems.iter().any(|p| p.contains("bare_mul") && p.contains("range:")),
        "arith grant without `range:` must be a problem: {:?}",
        areport.allow_problems
    );
    assert!(
        greport
            .allow_problems
            .iter()
            .any(|p| p.contains("unguarded_insert") && p.contains("bound:")),
        "growth grant without `bound:` must be a problem: {:?}",
        greport.allow_problems
    );
    assert!(areport
        .findings
        .iter()
        .any(|f| f.key.ends_with("bare_mul") && f.rule == Rule::Arith && f.is_error()));
    assert!(greport
        .findings
        .iter()
        .any(|f| f.key.ends_with("unguarded_insert") && f.rule == Rule::Growth && f.is_error()));

    // Grants whose crate is outside a run's enforced set are not stale.
    assert!(
        areport.unused_allow.is_empty(),
        "foreign-crate grants are not stale: {:?}",
        areport.unused_allow
    );
    assert!(
        greport.unused_allow.is_empty(),
        "foreign-crate grants are not stale: {:?}",
        greport.unused_allow
    );

    std::fs::remove_file(&allow_path).ok();
}
