//! `cast-truncation-audit`: in the hot-path files of `crates/graph` and
//! `crates/core`, every narrowing `as` cast (`usize → u32`,
//! `u64 → u32`/`usize`, signed ↔ unsigned) must either become
//! `try_into()` with a typed error, or carry a `cast: <bound proof>`
//! comment citing the invariant that bounds the value — the u32 edge
//! cap is only as strong as the arithmetic that feeds it.
//!
//! The resolver is type-aware-lite: cast sources are resolved through
//! locals, struct fields, method returns and element types, so the
//! hundreds of *widening* `as usize` casts clear automatically and only
//! genuinely lossy (or unresolvable sub-word) narrowings demand proof.
//! `usize`/`isize` are pinned to 64 bits — the same host assumption the
//! shard format already encodes.

use super::ctx::Ctx;
use crate::diag::Diagnostic;
use crate::flow::{IntTy, Pos, Resolved};
use crate::walk::FileSet;

/// Stable rule id.
pub const RULE: &str = "cast-truncation-audit";

/// The audited hot-path files: index arithmetic in the graph kernel and
/// the mining engines.
pub const AUDITED_FILES: &[&str] = &[
    "crates/graph/src/builder.rs",
    "crates/graph/src/compact.rs",
    "crates/graph/src/io.rs",
    "crates/graph/src/kernel.rs",
    "crates/graph/src/shard.rs",
    "crates/graph/src/sort.rs",
    "crates/core/src/beta.rs",
    "crates/core/src/exec.rs",
    "crates/core/src/miner.rs",
    "crates/core/src/parallel.rs",
    "crates/core/src/sharded.rs",
];

/// Run the rule over the set.
pub fn run(set: &FileSet, ctx: &Ctx) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for rel in AUDITED_FILES {
        let Some(idx) = set.files.iter().position(|f| f.rel == *rel) else {
            continue;
        };
        let f = &set.files[idx];
        let fc = &ctx.files[idx];
        for (i, code) in f.scan.code.iter().enumerate() {
            if f.scan.in_test[i] || f.allowed(RULE, i) {
                continue;
            }
            // debug_assert arguments are dev-only diagnostics code.
            if code.contains("debug_assert") {
                continue;
            }
            let mut from = 0;
            while let Some(p) = code[from..].find(" as ") {
                let at = from + p;
                from = at + 4;
                let target_text: String = code[at + 4..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                let Resolved::Int(target) = ctx.types.classify(&target_text) else {
                    continue; // float casts, `use … as …`, pointer casts
                };
                let chain = chain_with_parens(code, at);
                let src = fc.resolve_int(&ctx.types, Pos { line: i, col: at }, &chain);
                let Some(detail) = flag_reason(&src, target) else {
                    continue;
                };
                // A `cast:` proof clears the finding — if it actually
                // says something.
                match proof_text(f, i) {
                    Some(proof) if proof.chars().any(|c| c.is_alphanumeric()) => continue,
                    Some(_) => {
                        diags.push(Diagnostic::new(
                            RULE,
                            &f.rel,
                            i + 1,
                            "`cast:` annotation with an empty bound proof — cite the invariant \
                             that bounds the value",
                        ));
                        break; // one per line is enough
                    }
                    None => {}
                }
                diags.push(Diagnostic::new(
                    RULE,
                    &f.rel,
                    i + 1,
                    format!(
                        "{detail} `as {target_text}` — use `try_into()` with a typed error or \
                         prove the bound with a `cast:` comment"
                    ),
                ));
                break; // one diagnostic per line
            }
        }
    }
    diags
}

/// Why a cast is flagged, or `None` if it is provably lossless.
fn flag_reason(src: &Resolved, target: IntTy) -> Option<String> {
    let name = |t: IntTy| {
        let mut s = String::from(if t.signed { "i" } else { "u" });
        s.push_str(&t.bits.to_string());
        s
    };
    match src {
        Resolved::Int(s) if s.narrows_into(target) => {
            Some(format!("narrowing cast `{}`", name(*s)))
        }
        Resolved::Int(_) => None,
        Resolved::Conflict(candidates) if candidates.iter().any(|s| s.narrows_into(target)) => {
            Some("cast with conflicting source candidates".to_string())
        }
        Resolved::Conflict(_) => None,
        Resolved::Literal(v) => {
            let fits = match (target.signed, target.bits) {
                (false, bits) if bits >= 128 => true,
                (false, bits) => *v < (1u128 << bits),
                (true, bits) => *v < (1u128 << (bits - 1)),
            };
            if fits {
                None
            } else {
                Some(format!("literal {v} overflows"))
            }
        }
        Resolved::NonInt => None, // enum discriminants etc.
        // Unresolvable sources casting into a sub-word target must be
        // proven; into 64-bit targets they cannot truncate on this host
        // unless the source is 128-bit, which the tree does not use.
        Resolved::Unknown if target.bits < 64 => Some("unresolved source cast".to_string()),
        Resolved::Unknown => None,
    }
}

/// The cast-source chain, including a leading parenthesized group.
fn chain_with_parens(code: &str, cast_at: usize) -> String {
    let end = code[..cast_at].trim_end().len();
    crate::flow::chain_before(code, end)
}

/// Find the `cast:` proof adjacent to 0-based `line`: the trailing
/// comment, the enclosing multi-line statement's lines, or the
/// contiguous comment block above — same adjacency as
/// [`super::justified`], but returning the proof text.
fn proof_text(f: &crate::walk::SourceFile, line: usize) -> Option<String> {
    let grab = |l: usize| -> Option<String> {
        let c = &f.scan.comments[l];
        let p = c.find("cast:")?;
        Some(c[p + 5..].trim().to_string())
    };
    if let Some(t) = grab(line) {
        return Some(t);
    }
    let mut start = line;
    while start > 0 {
        let above = f.scan.code[start - 1].trim_end();
        let continues = !above.is_empty()
            && !above.ends_with([';', '{', '}'])
            && !above.trim_start().starts_with('#');
        if !continues {
            break;
        }
        if let Some(t) = grab(start - 1) {
            return Some(t);
        }
        start -= 1;
    }
    let mut j = start;
    while j > 0 {
        j -= 1;
        let comment_only =
            f.scan.code[j].trim().is_empty() && !f.scan.comments[j].trim().is_empty();
        if !comment_only {
            break;
        }
        if let Some(t) = grab(j) {
            return Some(t);
        }
    }
    None
}
