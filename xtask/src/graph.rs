//! Name-based call graph and hot-path reachability.
//!
//! Resolution is deliberately over-approximate: a call site `.foo(..)` links
//! to *every* known function named `foo`, and `T::foo(..)` prefers functions
//! whose `impl` target is `T` but falls back to any `foo`. Over-approximation
//! is the right failure mode for a lint — it can only widen the enforced set,
//! never silently exclude a function that really is on the packet path.
//!
//! Roots are:
//! * every method of a `Middlebox` impl (or default body in the trait
//!   definition itself), and
//! * every function carrying the `#[rb_hot_path]` marker attribute.
//!
//! Test-only functions are never roots and never linked.

use std::collections::HashMap;

use crate::extract::FnDef;
use crate::lexer::{TokKind, Token};

/// A function definition tied to the file (unit) it came from.
#[derive(Debug, Clone)]
pub struct GlobalFn {
    /// Index into the engine's unit (file) list.
    pub unit: usize,
    /// Repo-relative path of the defining file.
    pub file: String,
    /// The extracted definition.
    pub def: FnDef,
}

/// How a call site referred to its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.foo(..)` — method syntax.
    Method,
    /// `foo(..)` — plain path-less call.
    Plain,
    /// `Qual::foo(..)` — the last qualifying segment is carried.
    Qualified(String),
}

/// One extracted call site.
#[derive(Debug, Clone)]
pub struct Call {
    /// Shape of the call expression.
    pub kind: CallKind,
    /// Callee name.
    pub name: String,
    /// For method calls: the receiver is literally `self` (`self.foo(..)`),
    /// not a field or another object (`self.inner.foo(..)`, `x.foo(..)`).
    pub self_recv: bool,
}

/// Idents that look like `ident (` but are control flow, not calls.
const NOT_CALLS: &[&str] = &[
    "if", "while", "match", "return", "for", "in", "as", "let", "else", "loop", "move", "break",
    "continue", "where", "unsafe", "await", "fn", "dyn", "impl", "ref", "mut", "pub", "use",
];

fn in_nested(idx: usize, nested: &[(usize, usize)]) -> bool {
    nested.iter().any(|&(s, e)| idx >= s && idx < e)
}

/// Extract call sites from a function body (nested fn bodies excluded —
/// nested fns are linked through their own `fn name(` signature tokens,
/// which sit outside the nested body ranges).
pub fn calls_in_body(toks: &[Token], body: (usize, usize), nested: &[(usize, usize)]) -> Vec<Call> {
    let (start, end) = body;
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if in_nested(i, nested) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && i + 1 < end
            && toks[i + 1].is_punct('(')
            && !NOT_CALLS.contains(&t.text.as_str())
        {
            let name = t.text.clone();
            if i > start && toks[i - 1].is_punct('.') {
                let self_recv = i >= start + 2
                    && toks[i - 2].is_ident("self")
                    && (i < start + 3 || !toks[i - 3].is_punct('.'));
                out.push(Call { kind: CallKind::Method, name, self_recv });
            } else if i >= start + 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
                let qual = if i >= start + 3 && toks[i - 3].kind == TokKind::Ident {
                    toks[i - 3].text.clone()
                } else {
                    String::new()
                };
                out.push(Call { kind: CallKind::Qualified(qual), name, self_recv: false });
            } else {
                out.push(Call { kind: CallKind::Plain, name, self_recv: false });
            }
        }
        i += 1;
    }
    out
}

/// True when `f` is a hot-path root: a `Middlebox` method (impl or trait
/// default body) or a function carrying `#[rb_hot_path]`.
pub fn is_root(f: &GlobalFn) -> bool {
    if f.def.is_test {
        return false;
    }
    if f.def.trait_name.as_deref() == Some("Middlebox") {
        return true;
    }
    f.def.attrs.iter().any(|a| a.contains("rb_hot_path"))
}

/// Resolve one call site in `caller` to candidate definition indices.
///
/// Resolution by call shape: `.foo(..)` can only reach methods, bare
/// `foo(..)` can only reach free functions, and `T::foo(..)` prefers
/// methods of `T` (`Self` resolves to the caller's type) falling back to
/// free functions for module-qualified paths like `bfp::compress(..)`.
/// Without the shape filter, std calls like `Vec::new()` or `.all(..)`
/// would link to every same-named function in the workspace.
fn resolve(
    call: &Call,
    caller: &GlobalFn,
    fns: &[GlobalFn],
    by_name: &HashMap<&str, Vec<usize>>,
) -> Vec<usize> {
    let Some(cands) = by_name.get(call.name.as_str()) else {
        return Vec::new();
    };
    match &call.kind {
        CallKind::Method => {
            cands.iter().copied().filter(|&c| fns[c].def.impl_type.is_some()).collect()
        }
        CallKind::Plain => {
            cands.iter().copied().filter(|&c| fns[c].def.impl_type.is_none()).collect()
        }
        CallKind::Qualified(q) => {
            let qual = if q == "Self" {
                caller.def.impl_type.clone().unwrap_or_default()
            } else {
                q.clone()
            };
            let matching: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| fns[c].def.impl_type.as_deref() == Some(qual.as_str()))
                .collect();
            if matching.is_empty() {
                cands.iter().copied().filter(|&c| fns[c].def.impl_type.is_none()).collect()
            } else {
                matching
            }
        }
    }
}

/// Build the name → candidate index map (tests excluded outright).
fn name_index(fns: &[GlobalFn]) -> HashMap<&str, Vec<usize>> {
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (idx, f) in fns.iter().enumerate() {
        if !f.def.is_test {
            by_name.entry(f.def.name.as_str()).or_default().push(idx);
        }
    }
    by_name
}

/// Compute the hot-path-reachable set over `fns`, given per-unit token
/// streams. Returns a map from reachable function index to the index of the
/// function that pulled it in (roots map to themselves).
pub fn reachable(units: &[Vec<Token>], fns: &[GlobalFn]) -> HashMap<usize, usize> {
    let by_name = name_index(fns);

    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut queue: Vec<usize> = Vec::new();
    for (idx, f) in fns.iter().enumerate() {
        if is_root(f) {
            parent.insert(idx, idx);
            queue.push(idx);
        }
    }

    while let Some(cur) = queue.pop() {
        let f = &fns[cur];
        let toks = &units[f.unit];
        for call in calls_in_body(toks, f.def.body, &f.def.nested) {
            for tgt in resolve(&call, f, fns, &by_name) {
                if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(tgt) {
                    e.insert(cur);
                    queue.push(tgt);
                }
            }
        }
    }
    parent
}

/// One call-graph cycle reachable from a hot root: the member function
/// indices in cycle order, starting (and implicitly ending) at the
/// lexicographically-smallest key so reports are deterministic.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// Function indices along the cycle; `path[0]` is the representative.
    pub path: Vec<usize>,
}

/// Detect call-graph cycles within the hot-path-reachable set.
///
/// A cycle means unbounded stack depth and unbounded time on a
/// symbol-deadline path, so each one is reported (rule `recursion`)
/// against its representative function — the member with the smallest
/// key — keeping allowlist grants stable as the cycle's interior evolves.
///
/// The walk is iterative throughout (no recursion in the recursion
/// detector): shortest cycle back to the representative by BFS over the
/// edges restricted to the reachable set.
pub fn cycles(units: &[Vec<Token>], fns: &[GlobalFn], hot: &HashMap<usize, usize>) -> Vec<Cycle> {
    let by_name = name_index(fns);

    // Adjacency restricted to the hot set (sorted, deduped), keeping only
    // *strong* edges. Reachability deliberately over-approximates name
    // resolution (it can only widen the enforced set), but for cycle
    // detection that same aliasing fabricates loops: `fn len(&self) {
    // self.frames.len() }` would link to every `len` in the workspace,
    // itself included. An edge is strong when the callee is certain:
    // a plain call, a `self.foo(..)` receiver, a `Type::foo(..)` path, or
    // a method name with exactly one definition in the workspace.
    let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
    for (&idx, _) in hot.iter() {
        let f = &fns[idx];
        let toks = &units[f.unit];
        let mut outs: Vec<usize> = Vec::new();
        for call in calls_in_body(toks, f.def.body, &f.def.nested) {
            let targets = resolve(&call, f, fns, &by_name);
            let strong = match call.kind {
                CallKind::Method => call.self_recv || targets.len() == 1,
                CallKind::Plain | CallKind::Qualified(_) => true,
            };
            if !strong {
                continue;
            }
            for tgt in targets {
                // A method call on a non-`self` receiver that resolves back
                // to the caller itself is name aliasing over an invisible
                // std method (`self.slots.get(..)` inside `Cache::get`),
                // not recursion — true self-recursion is `self.foo(..)`,
                // `Self::foo(..)` or a plain `foo(..)`.
                if tgt == idx && matches!(call.kind, CallKind::Method) && !call.self_recv {
                    continue;
                }
                if hot.contains_key(&tgt) {
                    outs.push(tgt);
                }
            }
        }
        outs.sort_unstable();
        outs.dedup();
        adj.insert(idx, outs);
    }

    // For each candidate representative (smallest key first), BFS for the
    // shortest path back to itself using only nodes not yet claimed by an
    // earlier cycle's representative search. Claiming only the
    // representative (not the whole cycle) keeps distinct overlapping
    // cycles visible while deduping rotations of the same one.
    let mut order: Vec<usize> = adj.keys().copied().collect();
    order.sort_by(|a, b| fns[*a].def.key.cmp(&fns[*b].def.key));

    let mut reported: Vec<bool> = vec![false; fns.len()];
    let mut out = Vec::new();
    for &rep in &order {
        // BFS from rep's successors back to rep.
        let mut prev: HashMap<usize, usize> = HashMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &s in adj.get(&rep).into_iter().flatten() {
            if s == rep {
                // Direct self-recursion.
                if !reported[rep] {
                    reported[rep] = true;
                    out.push(Cycle { path: vec![rep] });
                }
                continue;
            }
            if !prev.contains_key(&s) {
                prev.insert(s, rep);
                queue.push_back(s);
            }
        }
        let mut found: Option<usize> = None;
        'bfs: while let Some(cur) = queue.pop_front() {
            for &nxt in adj.get(&cur).into_iter().flatten() {
                if nxt == rep {
                    found = Some(cur);
                    break 'bfs;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(nxt) {
                    e.insert(cur);
                    queue.push_back(nxt);
                }
            }
        }
        let Some(last) = found else {
            continue;
        };
        // Reconstruct rep -> ... -> last (which calls rep).
        let mut path = vec![last];
        let mut cur = last;
        let mut hops = 0;
        while let Some(&p) = prev.get(&cur) {
            if p == rep || hops > 256 {
                break;
            }
            path.push(p);
            cur = p;
            hops += 1;
        }
        path.push(rep);
        path.reverse();
        // Report each cycle once, keyed by its smallest member: if any
        // member already represented a reported cycle, this is a rotation
        // of the same loop.
        if path.iter().any(|&m| reported[m]) {
            continue;
        }
        reported[rep] = true;
        out.push(Cycle { path });
    }
    out
}

/// Reconstruct the root→function chain for a reachable function, as keys.
pub fn chain(fns: &[GlobalFn], parent: &HashMap<usize, usize>, mut idx: usize) -> Vec<String> {
    let mut out = vec![fns[idx].def.key.clone()];
    let mut hops = 0;
    while let Some(&p) = parent.get(&idx) {
        if p == idx || hops > 64 {
            break;
        }
        out.push(fns[p].def.key.clone());
        idx = p;
        hops += 1;
    }
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_fns;
    use crate::lexer::tokenize;

    fn build(src: &str) -> (Vec<Vec<Token>>, Vec<GlobalFn>) {
        let toks = tokenize(src);
        let defs = extract_fns(&toks, "t", "");
        let fns = defs
            .into_iter()
            .map(|def| GlobalFn { unit: 0, file: "t.rs".to_string(), def })
            .collect();
        (vec![toks], fns)
    }

    fn reach_names(src: &str) -> Vec<String> {
        let (units, fns) = build(src);
        let r = reachable(&units, &fns);
        let mut names: Vec<String> = r.keys().map(|&i| fns[i].def.name.clone()).collect();
        names.sort();
        names
    }

    #[test]
    fn middlebox_methods_are_roots() {
        let names = reach_names(
            "impl Middlebox for Mb { fn on_uplane(&self) { helper() } }\n\
             fn helper() { deep() }\n\
             fn deep() {}\n\
             fn cold() {}",
        );
        assert_eq!(names, vec!["deep", "helper", "on_uplane"]);
    }

    #[test]
    fn hot_path_attr_is_root() {
        let names = reach_names("#[rb_hot_path] fn entry() { step() } fn step() {} fn cold() {}");
        assert_eq!(names, vec!["entry", "step"]);
    }

    #[test]
    fn method_calls_link_by_name() {
        let names = reach_names(
            "#[rb_hot_path] fn entry(x: &P) { x.decode(); }\n\
             impl P { fn decode(&self) { self.raw() } fn raw(&self) {} }",
        );
        assert_eq!(names, vec!["decode", "entry", "raw"]);
    }

    #[test]
    fn qualified_calls_prefer_matching_impl() {
        let names = reach_names(
            "#[rb_hot_path] fn entry() { A::go(); }\n\
             impl A { fn go() {} }\n\
             impl B { fn go() { very_cold() } }\n\
             fn very_cold() {}",
        );
        assert_eq!(names, vec!["entry", "go"]);
    }

    #[test]
    fn test_fns_never_link() {
        let names = reach_names(
            "#[rb_hot_path] fn entry() { helper() }\n\
             #[cfg(test)] mod tests { pub fn helper() { panic!() } }",
        );
        assert_eq!(names, vec!["entry"]);
    }

    #[test]
    fn trait_default_bodies_are_roots() {
        let names = reach_names(
            "trait Middlebox { fn handle(&self) { self.dispatch() } }\n\
             impl Q { fn dispatch(&self) {} }",
        );
        assert_eq!(names, vec!["dispatch", "handle"]);
    }

    #[test]
    fn chains_trace_to_root() {
        let (units, fns) = build("#[rb_hot_path] fn a() { b() } fn b() { c() } fn c() {}");
        let r = reachable(&units, &fns);
        let c_idx = fns.iter().position(|f| f.def.name == "c").unwrap();
        let ch = chain(&fns, &r, c_idx);
        assert_eq!(ch, vec!["t::a", "t::b", "t::c"]);
    }

    fn cycle_keys(src: &str) -> Vec<Vec<String>> {
        let (units, fns) = build(src);
        let hot = reachable(&units, &fns);
        cycles(&units, &fns, &hot)
            .into_iter()
            .map(|c| c.path.into_iter().map(|i| fns[i].def.name.clone()).collect())
            .collect()
    }

    #[test]
    fn self_recursion_is_a_cycle() {
        let cs = cycle_keys("#[rb_hot_path] fn a(n: u32) { if n > 0 { a(n - 1) } }");
        assert_eq!(cs, vec![vec!["a".to_string()]]);
    }

    #[test]
    fn three_function_cycle_reports_full_path() {
        let cs = cycle_keys(
            "#[rb_hot_path] fn entry() { a() }\n\
             fn a() { b() } fn b() { c() } fn c() { a() }",
        );
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0], vec!["a".to_string(), "b".to_string(), "c".to_string()]);
    }

    #[test]
    fn rotations_are_deduped() {
        // a -> b -> a is one cycle, not two.
        let cs = cycle_keys("#[rb_hot_path] fn a() { b() } fn b() { a() }");
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn acyclic_graphs_report_nothing() {
        let cs = cycle_keys("#[rb_hot_path] fn a() { b() ; b() } fn b() { c() } fn c() {}");
        assert!(cs.is_empty());
    }

    #[test]
    fn cold_cycles_are_out_of_scope() {
        // The cycle exists but is not reachable from any root.
        let cs = cycle_keys("#[rb_hot_path] fn entry() {}\nfn a() { b() } fn b() { a() }");
        assert!(cs.is_empty());
    }
}
