//! Run the full experiment suite and emit a markdown report — the source
//! material for EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p grm-bench --bin experiments -- [pokec_scale]
//! ```
//!
//! Covers: Table IIa, Table IIb, Fig. 4a–4d, the §VI-D DBLP runtime check,
//! the §IV-A memory comparison, and the parallel-miner ablation.

use grm_bench::{fixture, secs, timed, Dataset, Table};
use grm_core::baseline::{mine_baseline_with_dims, BaselineKind};
use grm_core::parallel::{try_mine_parallel_with_opts, ParallelOptions};
use grm_core::{Dims, GrMiner, MinerConfig};
use grm_graph::{CompactModel, NodeAttrId, SingleTable};
use std::process::Command;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1);

    println!("# Experiment report (generated by `experiments` harness)\n");
    println!(
        "Host: {} cores; pokec scale {scale}; dblp scale 1.0 (paper scale).\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Tables and figures are produced by re-invoking the dedicated bins so
    // this report matches exactly what each bin prints; fall back to
    // in-process generation when the bins are unavailable (cargo test).
    for (bin, args) in [
        ("table2", vec!["pokec".to_string(), scale.to_string()]),
        ("table2", vec!["dblp".to_string(), "1.0".to_string()]),
        ("fig4", vec!["all".to_string(), scale.to_string()]),
    ] {
        let exe = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join(bin)));
        match exe.filter(|p| p.exists()) {
            Some(path) => {
                let out = Command::new(path).args(&args).output().expect("bin runs");
                print!("{}", String::from_utf8_lossy(&out.stdout));
            }
            None => eprintln!("[experiments] skipping `{bin}` (binary not built)"),
        }
    }

    // §IV-A memory comparison.
    let graph = fixture(Dataset::Pokec, scale);
    println!("## §IV-A storage comparison (cells)\n");
    let mut t = Table::new(["representation", "cells", "formula"]);
    let st = SingleTable::build(&graph);
    let cm = CompactModel::build(&graph);
    t.row([
        "single table (BL1)".to_string(),
        st.cells().to_string(),
        "|E|(2#AttrV+#AttrE)".to_string(),
    ]);
    t.row([
        "compact LArray/EArray/RArray".to_string(),
        cm.cells().to_string(),
        "|L|(#AttrV+2)+|E|(#AttrE+1)+|R|#AttrV".to_string(),
    ]);
    println!("{}", t.render());
    println!(
        "ratio: {:.2}x smaller\n",
        st.cells() as f64 / cm.cells() as f64
    );

    // Parallel ablation (extension beyond the paper).
    println!("## parallel miner ablation (extension)\n");
    let dims = Dims::subset(
        graph.schema(),
        &[NodeAttrId(1), NodeAttrId(2), NodeAttrId(3), NodeAttrId(4)],
        &[],
    );
    let cfg = MinerConfig::nhp(((graph.edge_count() / 10_000) as u64).max(2), 0.5, 100)
        .without_dynamic_topk();
    let mut t = Table::new(["configuration", "time (s)"]);
    let (seq, d_seq) = timed(|| GrMiner::with_dims(&graph, cfg.clone(), dims.clone()).mine());
    t.row(["sequential GRMiner".to_string(), secs(d_seq)]);
    for threads in [2usize, 4, 8] {
        let opts = ParallelOptions {
            threads,
            ..ParallelOptions::default()
        };
        let (par, d) = timed(|| {
            try_mine_parallel_with_opts(&graph, &cfg, &dims, opts)
                .expect("an uncancellable mine cannot fail")
        });
        assert_eq!(
            par.top.len(),
            seq.top.len(),
            "parallel result must match sequential"
        );
        t.row([format!("parallel x{threads}"), secs(d)]);
    }
    println!("{}", t.render());

    // Baseline sanity: same answers, slower path.
    let (bl, d_bl) = timed(|| mine_baseline_with_dims(&graph, &cfg, &dims, BaselineKind::Bl2));
    println!(
        "BL2 cross-check: {} GRs in {}s (sequential GRMiner: {}s)\n",
        bl.top.len(),
        secs(d_bl),
        secs(d_seq)
    );
}
