//! The real workspace must lint clean: `cargo test` fails the moment a
//! hot-path panic, an unjustified ordering, an arena allocation, or a
//! vendor-surface mismatch lands — the same gate `grm-analyze check`
//! enforces in CI.

use grm_analyze::{rules, walk};
use std::path::Path;

#[test]
fn the_workspace_lints_clean() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = walk::find_root(here).expect("the analyze crate lives inside the workspace");
    let set = walk::collect(&root).expect("workspace sources are readable");
    assert!(
        !set.files.is_empty(),
        "workspace discovery found no sources under {}",
        root.display()
    );
    let diags = rules::run_all(&set);
    assert!(
        diags.is_empty(),
        "the tree must lint clean; fix or annotate:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The flow-aware rules (PR 10) individually report zero findings on
/// the real tree — every lock site, wait/notify, narrowing cast, and
/// model citation is either clean or carries its proof annotation.
#[test]
fn the_flow_rules_run_and_find_nothing_in_the_real_tree() {
    assert_eq!(rules::RULES.len(), 10, "the rule roster is pinned");
    let flow_rules = [
        "lock-order-cycle",
        "condvar-discipline",
        "cast-truncation-audit",
        "proof-model-linkage",
    ];
    for r in flow_rules {
        assert!(
            rules::RULES.iter().any(|(id, _)| *id == r),
            "rule `{r}` is missing from the roster"
        );
    }
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = walk::find_root(here).expect("the analyze crate lives inside the workspace");
    let set = walk::collect(&root).expect("workspace sources are readable");
    let diags = rules::run_all(&set);
    for r in flow_rules {
        let hits: Vec<String> = diags
            .iter()
            .filter(|d| d.rule == r)
            .map(ToString::to_string)
            .collect();
        assert!(
            hits.is_empty(),
            "rule `{r}` must be clean on the real tree:\n{}",
            hits.join("\n")
        );
    }
}
