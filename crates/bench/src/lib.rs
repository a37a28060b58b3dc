//! # grm-bench — experiment harness
//!
//! Shared utilities for regenerating every table and figure of the paper's
//! evaluation (§VI) on the synthetic Pokec-like / DBLP-like workloads:
//! dataset fixtures (generated once, cached on disk), wall-clock timing,
//! and plain-text table rendering. The entry points are the binaries
//!
//! * `table2` — Table IIa / IIb (top GRs by nhp vs conf);
//! * `fig4` — Fig. 4a–4d runtime sweeps plus the §VI-D DBLP runtime check;
//! * `experiments` — everything, as a markdown report for EXPERIMENTS.md;
//! * `bench_json` — the partition-engine micro cells as JSON;
//!
//! and the Criterion benches `micro` and `ablation`. The Fig. 4 sweeps
//! are timed by the `fig4` binary alone, the partition engine's cells by
//! `bench_json`, and whole mines by the repo benchmark, `perfbench/`.

use grm_datagen::{dblp_config_scaled, generate, pokec_config_scaled, GeneratorConfig};
use grm_graph::SocialGraph;
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Which synthetic dataset a fixture uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dataset {
    /// Pokec-like friendship network.
    Pokec,
    /// DBLP-like co-authorship network.
    Dblp,
}

impl Dataset {
    /// The generator config at `scale`.
    pub fn config(self, scale: f64) -> GeneratorConfig {
        match self {
            Dataset::Pokec => pokec_config_scaled(scale),
            Dataset::Dblp => dblp_config_scaled(scale),
        }
    }

    /// Short name for cache files and table headers.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Pokec => "pokec",
            Dataset::Dblp => "dblp",
        }
    }
}

/// Generate (or load from the on-disk cache in [`fixture_dir`]) the
/// dataset at the given scale. Caching makes repeated harness runs and
/// Criterion warm-ups cheap; delete the directory to force regeneration.
pub fn fixture(dataset: Dataset, scale: f64) -> SocialGraph {
    let dir = fixture_dir(std::env::var_os("CARGO_TARGET_DIR").as_deref());
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(format!("{}-{scale}.grm", dataset.name()));
    if let Ok(g) = grm_graph::io::load_graph(&path) {
        return g;
    }
    let g = generate(&dataset.config(scale)).expect("builtin configs are valid");
    grm_graph::io::save_graph(&g, &path).ok();
    g
}

/// The fixture cache: `grm-fixtures/` under the cargo target directory
/// `target_dir` (the value of `CARGO_TARGET_DIR`; `None`: `target`),
/// resolved against the workspace root when relative. Every harness
/// binary and bench therefore shares one cache, whatever directory it
/// runs from — `cargo bench` runs its benches from `crates/bench`.
pub fn fixture_dir(target_dir: Option<&OsStr>) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.join(target_dir.unwrap_or(OsStr::new("target")))
        .join("grm-fixtures")
}

/// Run `f` once and return (result, elapsed).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Minimal fixed-width table printer for harness output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Render with aligned columns (markdown-compatible pipes).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(&widths) {
                line.push_str(&format!(" {c:<w$} |"));
            }
            line
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format a duration as fractional seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(["metric", "value"]);
        t.row(["nhp", "0.687"]);
        t.row(["supp", "682715"]);
        let s = t.render();
        assert!(s.contains("| metric | value  |"));
        assert!(s.lines().count() == 4);
        assert!(s.lines().nth(1).unwrap().starts_with("|--"));
    }

    #[test]
    fn fixtures_cache_round_trip() {
        let a = fixture(Dataset::Dblp, 0.01);
        let b = fixture(Dataset::Dblp, 0.01);
        assert_eq!(a.edge_count(), b.edge_count());
        assert!(a.edge_count() > 0);
    }

    #[test]
    fn the_fixture_cache_sits_under_the_workspace_target_dir() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert!(root.join("crates/bench/Cargo.toml").exists(), "{root:?}");
        assert_eq!(
            fixture_dir(None),
            root.join("target").join("grm-fixtures"),
            "no CARGO_TARGET_DIR: the workspace's target/"
        );
        assert_eq!(
            fixture_dir(Some(OsStr::new(".bench_build"))),
            root.join(".bench_build").join("grm-fixtures"),
            "a relative CARGO_TARGET_DIR resolves against the workspace root"
        );
        assert_eq!(
            fixture_dir(Some(OsStr::new("/tmp/elsewhere"))),
            Path::new("/tmp/elsewhere").join("grm-fixtures"),
            "an absolute CARGO_TARGET_DIR is used as it is"
        );
        assert!(fixture_dir(None).is_absolute());
    }

    #[test]
    fn timed_measures() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
