//! Model-checked interleavings of the epoch-published rule tables.
//!
//! Build and run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p rb-core --test loom_models --release
//! ```
//!
//! Under `cfg(loom)` the crate's `sync` facade swaps its std lock and
//! atomics for `rb-loom`'s instrumented shims, and
//! [`rb_loom::model`] reruns each closure under **every** reachable
//! interleaving of the shim operations — the generation load, the
//! master-lock acquisitions, and the Release bump in the write guard's
//! drop. The code under test is the production [`rb_core::mgmt`]
//! source, not a copy.

#![cfg(loom)]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use rb_core::mgmt::{shared, Match, Rule, RuleAction, RulesCache};
use rb_fronthaul::bfp::CompressionMethod;
use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
use rb_fronthaul::eaxc::Eaxc;
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::timing::SymbolId;
use rb_fronthaul::Direction;
use rb_loom::thread;

fn pass_rule() -> Rule {
    Rule { matcher: Match::any(), action: RuleAction::Pass }
}

fn drop_rule() -> Rule {
    Rule { matcher: Match::any(), action: RuleAction::Drop }
}

fn msg() -> FhMessage {
    FhMessage::new(
        EthernetAddress::new(2, 0, 0, 0, 0, 1),
        EthernetAddress::new(2, 0, 0, 0, 0, 2),
        Eaxc::port(0),
        0,
        Body::CPlane(CPlaneRepr::single(
            Direction::Downlink,
            SymbolId::ZERO,
            CompressionMethod::BFP9,
            SectionFields::data(0, 0, 10, 1),
        )),
    )
}

/// Torn-publication check: a writer installs two rules under one write
/// guard while a reader polls the generation and the table. In every
/// interleaving the reader sees zero rules or both — never one — and a
/// moved generation implies the full update is visible (the Release
/// bump runs while the write lock is still held, so any reader that
/// observes it blocks until the mutation is complete).
#[test]
fn rule_publication_is_never_torn() {
    rb_loom::model(|| {
        let rules = shared();
        let rules_w = rules.clone();
        let writer = thread::spawn(move || {
            let mut w = rules_w.write();
            w.push(pass_rule());
            w.push(pass_rule());
        });
        let gen_before = rules.generation();
        let seen = rules.read().len();
        assert!(seen == 0 || seen == 2, "torn publication: reader saw {seen} of 2 rules");
        if gen_before > 1 {
            assert_eq!(seen, 2, "generation moved but the update was not visible");
        }
        assert!(rules.generation() >= gen_before, "generation must be monotonic");
        writer.join().expect("writer ok");
        assert_eq!(rules.generation(), 2, "exactly one publication");
        assert_eq!(rules.read().len(), 2);
    });
}

/// Cache-refresh staleness bound: a datapath `RulesCache` racing one
/// management update applies either the old (empty) table or the new
/// (drop-all) one to the in-flight message — never a torn mix — and is
/// guaranteed current on the first apply after the update completes.
#[test]
fn cache_is_at_most_one_update_stale_and_never_torn() {
    rb_loom::model(|| {
        let rules = shared();
        let rules_w = rules.clone();
        let writer = thread::spawn(move || {
            rules_w.write().push(drop_rule());
        });
        let mut cache = RulesCache::new();
        let mut in_flight = msg();
        let passed = cache.apply(&rules, &mut in_flight, 0);
        writer.join().expect("writer ok");
        let drops_racing = cache.drops();
        assert_eq!(
            drops_racing,
            u64::from(!passed),
            "drop accounting must match the verdict on the racing message"
        );
        let mut after = msg();
        assert!(
            !cache.apply(&rules, &mut after, 0),
            "first apply after the update completed must see the drop rule"
        );
        assert_eq!(cache.drops(), drops_racing.saturating_add(1));
    });
}
