//! Workspace discovery: find the repo root, collect the `.rs` sources
//! the rules operate on, and pre-compute each file's scanned views and
//! `// lint: allow(...)` annotation coverage.

use crate::diag::Diagnostic;
use crate::lexer::{self, ScannedFile};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// One collected source file with its scanned views and allow spans.
pub struct SourceFile {
    /// Repo-relative path, forward slashes.
    pub rel: String,
    /// Raw file contents.
    pub raw: String,
    /// Lexed views (code / comments / test regions), line-parallel.
    pub scan: ScannedFile,
    /// For each rule id: the set of 0-based lines an allow annotation
    /// covers.
    allows: HashMap<String, Vec<usize>>,
    /// Malformed annotations found while parsing (reported as findings).
    pub annotation_errors: Vec<Diagnostic>,
}

impl SourceFile {
    /// Scan `raw` (as `rel`) and extract its allow annotations.
    pub fn from_source(rel: &str, raw: String) -> SourceFile {
        let scan = lexer::scan(&raw);
        let mut f = SourceFile {
            rel: rel.to_string(),
            raw,
            scan,
            allows: HashMap::new(),
            annotation_errors: Vec::new(),
        };
        f.collect_allows();
        f
    }

    /// Whether `rule` is allowed on 0-based `line`.
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allows.get(rule).is_some_and(|v| v.contains(&line))
    }

    /// Parse `// lint: allow(<rule>) — <reason>` annotations.
    ///
    /// Coverage: an annotation trailing a code line covers that line
    /// only; an annotation on a comment-only line covers the following
    /// contiguous non-blank lines (paragraph scope), so one annotation
    /// can sit above a multi-line expression. A missing reason is a
    /// malformed annotation and is itself reported.
    fn collect_allows(&mut self) {
        let n = self.scan.comments.len();
        for i in 0..n {
            let comment = &self.scan.comments[i];
            let Some(pos) = comment.find("lint: allow(") else {
                continue;
            };
            let rest = &comment[pos + "lint: allow(".len()..];
            let Some(close) = rest.find(')') else {
                self.annotation_errors.push(Diagnostic::new(
                    "malformed-allow",
                    &self.rel,
                    i + 1,
                    "unclosed `lint: allow(` annotation",
                ));
                continue;
            };
            let rule = rest[..close].trim().to_string();
            let reason = rest[close + 1..]
                .trim_start_matches([' ', '\u{2014}', '-', ':'])
                .trim();
            if rule.is_empty() || !reason.chars().any(|c| c.is_alphanumeric()) {
                self.annotation_errors.push(Diagnostic::new(
                    "malformed-allow",
                    &self.rel,
                    i + 1,
                    "`lint: allow(<rule>)` needs a rule id and a non-empty reason",
                ));
                continue;
            }
            let mut covered = vec![i];
            if self.scan.code[i].trim().is_empty() {
                // Paragraph scope: cover this line and everything below
                // it until the first blank source line.
                let mut j = i + 1;
                while j < n && !self.raw_line_is_blank(j) {
                    covered.push(j);
                    j += 1;
                }
            }
            self.allows.entry(rule).or_default().extend(covered);
        }
    }

    fn raw_line_is_blank(&self, line: usize) -> bool {
        self.raw
            .lines()
            .nth(line)
            .is_none_or(|l| l.trim().is_empty())
    }
}

/// The collected workspace sources the rules run over.
pub struct FileSet {
    /// Absolute repo root.
    pub root: PathBuf,
    /// Library/binary sources under `src/` and `crates/*/src/`.
    pub files: Vec<SourceFile>,
}

impl FileSet {
    /// Fetch a file by repo-relative path, if collected.
    pub fn get(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// Walk up from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collect the workspace sources: `src/**/*.rs` and `crates/*/src/**/*.rs`
/// (vendor stubs are read separately by the vendor rule; `tests/`,
/// `benches/` and fixture data are deliberately out of scope).
pub fn collect(root: &Path) -> std::io::Result<FileSet> {
    let mut files = Vec::new();
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            let src = e.path().join("src");
            if src.is_dir() {
                dirs.push(src);
            }
        }
    }
    for dir in dirs {
        walk_rs(&dir, &mut |path| {
            let raw = fs::read_to_string(path)?;
            let rel = rel_path(root, path);
            files.push(SourceFile::from_source(&rel, raw));
            Ok(())
        })?;
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(FileSet {
        root: root.to_path_buf(),
        files,
    })
}

/// Depth-first walk calling `f` on every `.rs` file under `dir`.
pub fn walk_rs(dir: &Path, f: &mut dyn FnMut(&Path) -> std::io::Result<()>) -> std::io::Result<()> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(()); // absent dir: nothing to scan
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk_rs(&path, f)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            f(&path)?;
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_allow_covers_its_own_line_only() {
        let f = SourceFile::from_source(
            "x.rs",
            "let a = x.unwrap(); // lint: allow(panic-in-hot-path) — fine\nlet b = y.unwrap();\n"
                .to_string(),
        );
        assert!(f.allowed("panic-in-hot-path", 0));
        assert!(!f.allowed("panic-in-hot-path", 1));
    }

    #[test]
    fn standalone_allow_covers_the_paragraph() {
        let src = "// lint: allow(alloc-in-arena) — warm-up only\n// continues here.\nlet v =\n    Vec::new();\n\nlet w = Vec::new();\n";
        let f = SourceFile::from_source("x.rs", src.to_string());
        assert!(f.allowed("alloc-in-arena", 2));
        assert!(f.allowed("alloc-in-arena", 3));
        assert!(!f.allowed("alloc-in-arena", 5), "blank line ends the scope");
    }

    #[test]
    fn missing_reason_is_malformed() {
        let f = SourceFile::from_source("x.rs", "// lint: allow(some-rule)\nfoo();\n".to_string());
        assert_eq!(f.annotation_errors.len(), 1);
        assert!(!f.allowed("some-rule", 1));
    }
}
