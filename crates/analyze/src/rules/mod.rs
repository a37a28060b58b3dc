//! The repo-specific rule set.
//!
//! Every rule consumes the pre-scanned [`FileSet`] (comments and literal
//! bodies already blanked, test regions marked, allow annotations
//! parsed) and emits [`Diagnostic`]s. A finding is suppressed by a
//! `// lint: allow(<rule-id>) — <reason>` annotation covering its line;
//! the reason is mandatory — an allow without one is itself reported.

use crate::diag::{self, Diagnostic};
use crate::walk::FileSet;

pub mod allocs;
pub mod atomics;
pub mod casts;
pub mod condvar;
pub mod ctx;
pub mod linkage;
pub mod lockorder;
pub mod misc;
pub mod panics;
pub mod vendor;

/// Stable rule ids and one-line descriptions, for `grm-analyze rules`.
pub const RULES: &[(&str, &str)] = &[
    (
        panics::RULE,
        "no .unwrap()/.expect(/panic!/unreachable!/assert!/assert_eq!/assert_ne! in the mining hot-path files",
    ),
    (
        atomics::RULE,
        "every atomic Ordering use needs an adjacent `// ordering:` justification; Relaxed stores/RMWs are publish-path errors",
    ),
    (
        allocs::RULE,
        "no Vec::new/vec!/to_vec/.collect() in the PartitionArena / MinerScratch modules",
    ),
    (
        misc::UNSAFE_RULE,
        "every `unsafe` needs an adjacent `// SAFETY:` comment",
    ),
    (
        misc::PRINT_RULE,
        "no dbg!/println!/print! in library crates",
    ),
    (
        vendor::RULE,
        "vendor stub public API surface must match what the workspace imports",
    ),
    (
        lockorder::RULE,
        "the workspace-merged lock-acquisition graph must be acyclic and match declared `lock-order:` annotations",
    ),
    (
        condvar::RULE,
        "Condvar waits must be predicate-looped and notifies must hold the declared paired mutex",
    ),
    (
        casts::RULE,
        "narrowing `as` casts in hot-path files need `try_into` or a `cast:` bound proof",
    ),
    (
        linkage::RULE,
        "model citations in proofs must resolve; every model module must be in full_suite() and run by CI",
    ),
];

/// Run every rule over the set and return the sorted findings.
pub fn run_all(set: &FileSet) -> Vec<Diagnostic> {
    let ctx = ctx::Ctx::build(set);
    let mut diags = Vec::new();
    for f in &set.files {
        diags.extend(f.annotation_errors.iter().cloned());
    }
    diags.extend(panics::run(set));
    diags.extend(atomics::run(set));
    diags.extend(allocs::run(set));
    diags.extend(misc::run(set));
    diags.extend(vendor::run(set));
    diags.extend(lockorder::run(set, &ctx));
    diags.extend(condvar::run(set, &ctx));
    diags.extend(casts::run(set, &ctx));
    diags.extend(linkage::run(set));
    diag::sort(&mut diags);
    diags
}

/// Positions in `line` where `pat` occurs as a call-ish token: the char
/// before the match must not be part of an identifier (so `eprintln!(`
/// never matches `println!(`, and `unwrap_or()` never matches
/// `.unwrap()` — the latter already by the closing paren in the
/// pattern).
pub(crate) fn find_token(line: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = line[from..].find(pat) {
        let at = from + p;
        from = at + pat.len();
        let before = line[..at].chars().next_back();
        if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        out.push(at);
    }
    out
}

/// Whether a justification marker (e.g. `ordering:` / `SAFETY:`) is
/// adjacent to 0-based `line`: in the trailing comment on the line
/// itself, or in the contiguous run of comment-only lines directly
/// above it.
pub(crate) fn justified(f: &crate::walk::SourceFile, line: usize, marker: &str) -> bool {
    if f.scan.comments[line].contains(marker) {
        return true;
    }
    // Walk up to the first line of the enclosing statement (a multi-line
    // method chain keeps its justification above the statement, not
    // above the line the Ordering token happens to land on)...
    let mut start = line;
    while start > 0 {
        let above = f.scan.code[start - 1].trim_end();
        let continues = !above.is_empty()
            && !above.ends_with([';', '{', '}'])
            && !above.trim_start().starts_with('#');
        if !continues {
            break;
        }
        if f.scan.comments[start - 1].contains(marker) {
            return true;
        }
        start -= 1;
    }
    // ...then through the contiguous comment block directly above it.
    let mut j = start;
    while j > 0 {
        j -= 1;
        let comment_only =
            f.scan.code[j].trim().is_empty() && !f.scan.comments[j].trim().is_empty();
        if !comment_only {
            break;
        }
        if f.scan.comments[j].contains(marker) {
            return true;
        }
    }
    false
}
