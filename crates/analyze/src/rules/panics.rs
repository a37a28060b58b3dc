//! `panic-in-hot-path`: the mining recursion and its substrate must not
//! contain panicking calls. A panic in a worker tears down the whole
//! pool (the engine re-raises it), so every `.unwrap()` / `.expect(` /
//! `panic!` / `unreachable!` / always-on `assert!` / `assert_eq!` /
//! `assert_ne!` in these files is either a latent
//! denial-of-service on degenerate input (PR 5 shipped exactly that) or
//! a provable invariant — and provable invariants carry their proof in
//! a `// lint: allow(panic-in-hot-path) — <proof>` annotation.

use crate::diag::Diagnostic;
use crate::walk::FileSet;

/// Rule id.
pub const RULE: &str = "panic-in-hot-path";

/// The files the rule covers: the counting/partition substrate, the
/// enumeration + parallel engine, and the shared bound its RIGHT loop
/// offers to.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/graph/src/sort.rs",
    "crates/graph/src/shard.rs",
    "crates/core/src/beta.rs",
    "crates/core/src/exec.rs",
    "crates/core/src/parallel.rs",
    "crates/core/src/miner.rs",
    "crates/core/src/sharded.rs",
    "crates/core/src/topk.rs",
];

/// `find_token` skips a match preceded by an identifier character, so
/// `debug_assert!(` and its `_eq`/`_ne` forms never match the asserts.
const PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
];

/// Scan the hot-path files.
pub fn run(set: &FileSet) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rel in HOT_PATH_FILES {
        let Some(f) = set.get(rel) else { continue };
        for (i, code) in f.scan.code.iter().enumerate() {
            if f.scan.in_test[i] || f.allowed(RULE, i) {
                continue;
            }
            for pat in PATTERNS {
                if !super::find_token(code, pat).is_empty() {
                    // `debug_assert!` may expand to panic! but is
                    // compiled out of release; the patterns above are
                    // the always-on ones.
                    out.push(Diagnostic::new(
                        RULE,
                        rel,
                        i + 1,
                        format!("`{pat}` in a hot-path file (annotate with `// lint: allow({RULE}) — <why it cannot fire>` if provably unreachable)"),
                    ));
                    break;
                }
            }
        }
    }
    out
}
