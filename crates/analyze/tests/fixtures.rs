//! The lint driver against a seeded fixture tree: every rule must fire
//! at exactly the seeded (rule, path, line) — no more, no less. Message
//! wording is free to evolve; locations and rule ids are the contract.

use grm_analyze::{rules, walk};
use std::path::Path;

fn fixture_diags(name: &str) -> Vec<(String, String, usize)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let set = walk::collect(&root).expect("fixture tree is readable");
    rules::run_all(&set)
        .into_iter()
        .map(|d| (d.rule.to_string(), d.path, d.line))
        .collect()
}

#[test]
fn bad_tree_produces_exactly_the_seeded_diagnostics() {
    let got = fixture_diags("bad_tree");
    let want: Vec<(String, String, usize)> = [
        (
            "proof-model-linkage",
            "crates/analyze/src/model/lonely.rs",
            0,
        ),
        ("proof-model-linkage", "crates/analyze/src/model/mod.rs", 0),
        (
            "proof-model-linkage",
            "crates/analyze/src/model/rogue.rs",
            0,
        ),
        ("vendor-api-surface", "crates/core/src/lib.rs", 3),
        ("no-debug-print", "crates/core/src/lib.rs", 6),
        ("unsafe-without-safety", "crates/core/src/lib.rs", 8),
        ("malformed-allow", "crates/core/src/lib.rs", 13),
        ("panic-in-hot-path", "crates/core/src/miner.rs", 4),
        ("panic-in-hot-path", "crates/core/src/miner.rs", 5),
        ("panic-in-hot-path", "crates/core/src/miner.rs", 6),
        ("proof-model-linkage", "crates/core/src/service.rs", 2),
        ("proof-model-linkage", "crates/core/src/service.rs", 2),
        ("lock-order-cycle", "crates/core/src/service.rs", 7),
        ("lock-order-cycle", "crates/core/src/service.rs", 8),
        ("condvar-discipline", "crates/core/src/service.rs", 16),
        ("lock-order-cycle", "crates/core/src/service.rs", 22),
        ("lock-order-cycle", "crates/core/src/service.rs", 28),
        ("condvar-discipline", "crates/core/src/service.rs", 35),
        ("condvar-discipline", "crates/core/src/service.rs", 42),
        ("condvar-discipline", "crates/core/src/service.rs", 48),
        ("atomic-ordering-audit", "crates/core/src/topk.rs", 6),
        ("atomic-ordering-audit", "crates/core/src/topk.rs", 7),
        ("cast-truncation-audit", "crates/graph/src/shard.rs", 4),
        ("cast-truncation-audit", "crates/graph/src/shard.rs", 5),
        ("alloc-in-arena", "crates/graph/src/sort.rs", 4),
        ("alloc-in-arena", "crates/graph/src/sort.rs", 5),
        ("vendor-api-surface", "vendor/widgets/src/lib.rs", 8),
    ]
    .into_iter()
    .map(|(r, p, l)| (r.to_string(), p.to_string(), l))
    .collect();
    assert_eq!(got, want);
}

#[test]
fn every_rule_id_fires_in_the_fixture() {
    let fired: Vec<String> = fixture_diags("bad_tree")
        .into_iter()
        .map(|(rule, _, _)| rule)
        .collect();
    for (id, _) in rules::RULES {
        assert!(
            fired.iter().any(|r| r == id),
            "rule `{id}` never fires in the fixture — its teeth are untested"
        );
    }
}
