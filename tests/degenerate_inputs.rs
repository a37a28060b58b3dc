//! Degenerate-graph suite: the inputs a production service sees at the
//! edges of its domain — zero nodes, zero edges, a single self-loop,
//! all-null attribute columns — run through the stats front-end, the
//! sequential miner, and the 2-thread parallel miner. Nothing here may
//! panic; results must be the obvious empty/zero outcomes.

use social_ties::core::parallel::{try_mine_parallel_with_opts, ParallelOptions};
use social_ties::core::Dims;
use social_ties::graph::stats::{
    audit_report, degree_summary, homophily_scores, node_marginal, suggest_homophily_attrs,
    DegreeStats,
};
use social_ties::graph::NodeAttrId;
use social_ties::{GrMiner, GraphBuilder, MinerConfig, Schema, SchemaBuilder, SocialGraph};

fn schema() -> Schema {
    SchemaBuilder::new()
        .node_attr("A", 3, true)
        .node_attr("B", 2, false)
        .build()
        .unwrap()
}

/// Stats front-end + sequential miner + 2-thread parallel miner, with
/// both the default config and a threshold-free one. Returns the
/// default-config result sizes for the caller's expectations.
fn drive_everything(g: &SocialGraph, label: &str) -> usize {
    // Stats front-end.
    let report = audit_report(g);
    assert!(report.contains("out-degree:"), "{label}: audit rendered");
    let scores = homophily_scores(g);
    assert_eq!(scores.len(), 2, "{label}: one score per node attribute");
    for s in &scores {
        assert!(s.assortativity().is_finite(), "{label}");
        assert!(s.lift().is_finite(), "{label}");
    }
    suggest_homophily_attrs(g, 0.1);
    node_marginal(g, NodeAttrId(0));
    degree_summary(g.out_degrees());

    // Miners: default thresholds and the permissive corner (min_supp 1,
    // no score threshold, tiny k) — both must run panic-free,
    // sequentially and with 2 workers, and agree with each other.
    let mut default_len = 0;
    for cfg in [
        MinerConfig::default(),
        MinerConfig::nhp(1, 0.0, 3).without_dynamic_topk(),
    ] {
        let seq = GrMiner::new(g, cfg.clone()).mine();
        let opts = ParallelOptions {
            threads: 2,
            ..ParallelOptions::default()
        };
        let par = try_mine_parallel_with_opts(g, &cfg, &Dims::all(g.schema()), opts)
            .expect("a mine without a token or deadline completes");
        assert_eq!(seq.top, par.top, "{label}: parallel diverged");
        assert_eq!(
            seq.stats.semantic(),
            par.stats.semantic(),
            "{label}: semantic counters diverged across worker counts"
        );
        if cfg == MinerConfig::default() {
            default_len = seq.top.len();
        }
    }
    default_len
}

#[test]
fn zero_node_graph() {
    let g = GraphBuilder::new(schema()).build().unwrap();
    assert_eq!(g.node_count(), 0);
    assert_eq!(g.edge_count(), 0);
    assert_eq!(drive_everything(&g, "zero-node"), 0);
    assert_eq!(degree_summary(g.out_degrees()), DegreeStats::default());
}

#[test]
fn nodes_but_zero_edges() {
    let mut b = GraphBuilder::new(schema());
    for i in 0..5u16 {
        b.add_node(&[i % 4, i % 3]).unwrap();
    }
    let g = b.build().unwrap();
    assert_eq!(g.edge_count(), 0);
    assert_eq!(drive_everything(&g, "zero-edge"), 0);
    let deg = degree_summary(g.out_degrees());
    assert_eq!((deg.min, deg.max), (0, 0), "all out-degrees are zero");
}

#[test]
fn single_node_with_self_loop() {
    let mut b = GraphBuilder::new(schema()).allow_self_loops();
    let v = b.add_node(&[1, 1]).unwrap();
    b.add_edge(v, v, &[]).unwrap();
    let g = b.build().unwrap();
    assert_eq!((g.node_count(), g.edge_count()), (1, 1));
    drive_everything(&g, "self-loop");
    // The loop is perfectly homophilous on A by construction.
    let s = &homophily_scores(&g)[0];
    assert_eq!(s.measured_edges, 1);
    assert_eq!(s.observed_same, 1.0);
    // A permissive mine surfaces the (A:1) -> (A:1)-shaped patterns
    // under conf (trivial GRs kept); nothing panics with k pinned tiny.
    let conf = GrMiner::new(&g, MinerConfig::conf(1, 0.0, 1)).mine();
    assert!(conf.top.len() <= 1);
}

#[test]
fn all_null_attribute_column() {
    // Attribute A is null on every node: no A partition is enumerable,
    // homophily on A is unmeasurable, and the miner must still mine B
    // relations without panicking.
    let mut b = GraphBuilder::new(schema());
    let ids: Vec<u32> = (0..4u16)
        .map(|i| b.add_node(&[0, i % 2 + 1]).unwrap())
        .collect();
    for i in 0..ids.len() {
        b.add_edge(ids[i], ids[(i + 1) % ids.len()], &[]).unwrap();
    }
    let g = b.build().unwrap();
    drive_everything(&g, "all-null-A");
    let s = &homophily_scores(&g)[0];
    assert_eq!(s.measured_edges, 0, "null endpoints are unmeasurable");
    assert_eq!(s.assortativity(), 0.0);
    // No mined GR may constrain the all-null attribute.
    let r = GrMiner::new(&g, MinerConfig::nhp(1, 0.0, 100).without_dynamic_topk()).mine();
    for sgr in &r.top {
        for &(a, _) in sgr.gr.l.pairs().iter().chain(sgr.gr.r.pairs()) {
            assert_ne!(a, NodeAttrId(0), "GR constrains the all-null column");
        }
    }
}
