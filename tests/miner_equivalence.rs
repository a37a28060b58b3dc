//! Differential testing: five independent implementations of Definition 5
//! must agree — GRMiner (static threshold), GRMiner(k) (dynamic), BL1,
//! BL2, the parallel miner, and the brute-force reference. This file
//! holds the Definition-5 gate: the dynamic mine equals the static one.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use social_ties::core::baseline::{mine_baseline, BaselineKind};
use social_ties::core::parallel::{try_mine_parallel_with_opts, ParallelOptions};
use social_ties::core::reference::mine_reference;
use social_ties::core::Dims;
use social_ties::{Gr, GrMiner, MineResult, MinerConfig, SchemaBuilder, SocialGraph};

/// A three-worker in-core mine of `g`.
fn mine_three_workers(g: &SocialGraph, cfg: &MinerConfig) -> MineResult {
    let opts = ParallelOptions {
        threads: 3,
        ..ParallelOptions::default()
    };
    try_mine_parallel_with_opts(g, cfg, &Dims::all(g.schema()), opts)
        .expect("a mine without a token or deadline completes")
}

fn random_graph(seed: u64, nodes: u32, edges: u32) -> SocialGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = SchemaBuilder::new()
        .node_attr("A", 3, true)
        .node_attr("B", 2, false)
        .node_attr("C", 2, true)
        .edge_attr("W", 2)
        .build()
        .unwrap();
    let mut b = social_ties::GraphBuilder::new(schema);
    for _ in 0..nodes {
        b.add_node(&[
            rng.gen_range(0..=3),
            rng.gen_range(0..=2),
            rng.gen_range(0..=2),
        ])
        .unwrap();
    }
    for _ in 0..edges {
        let s = rng.gen_range(0..nodes);
        let mut t = rng.gen_range(0..nodes);
        if t == s {
            t = (t + 1) % nodes;
        }
        b.add_edge(s, t, &[rng.gen_range(0..=2)]).unwrap();
    }
    b.build().unwrap()
}

fn keys(v: &[social_ties::ScoredGr]) -> Vec<(Gr, u64, u64, u64)> {
    v.iter()
        .map(|s| (s.gr.clone(), s.supp, s.supp_lw, s.heff))
        .collect()
}

#[test]
fn all_miners_agree_with_reference() {
    for seed in 0..8u64 {
        let g = random_graph(seed, 12, 60);
        for cfg in [
            MinerConfig::nhp(1, 0.5, 10),
            MinerConfig::nhp(2, 0.25, 15),
            MinerConfig::nhp(1, 0.0, 40),
            MinerConfig::conf(2, 0.5, 10),
        ] {
            let cfg = cfg.without_dynamic_topk();
            let oracle = mine_reference(&g, &cfg);
            let fast = GrMiner::new(&g, cfg.clone()).mine();
            assert_eq!(keys(&fast.top), keys(&oracle), "GRMiner seed {seed}");
            let bl1 = mine_baseline(&g, &cfg, BaselineKind::Bl1);
            assert_eq!(keys(&bl1.top), keys(&oracle), "BL1 seed {seed}");
            let bl2 = mine_baseline(&g, &cfg, BaselineKind::Bl2);
            assert_eq!(keys(&bl2.top), keys(&oracle), "BL2 seed {seed}");
            let par = mine_three_workers(&g, &cfg);
            assert_eq!(keys(&par.top), keys(&oracle), "parallel seed {seed}");
        }
    }
}

#[test]
fn dynamic_topk_is_sound_on_random_workloads() {
    // GRMiner(k)'s dynamic threshold can cut a *suppressor* (a general
    // GR that passes the user threshold but not the upgraded bound)
    // before it is seen; the execution core's verified post-pass checks
    // the top-k against every such cut, so the dynamic mine returns
    // exactly the static Definition-5 top-k while never examining more
    // GRs. Seeds 21, 23, 24, 25 and 27 each lose a suppressor to the
    // bound.
    for seed in 20..28u64 {
        let g = random_graph(seed, 15, 80);
        let cfg = MinerConfig::nhp(2, 0.3, 8);
        let dynamic = GrMiner::new(&g, cfg.clone()).mine();
        let exact = GrMiner::new(&g, cfg.clone().without_dynamic_topk()).mine();
        assert!(dynamic.stats.grs_examined <= exact.stats.grs_examined);
        assert_eq!(dynamic.top, exact.top, "seed {seed}");
        assert_eq!(
            keys(&exact.top),
            keys(&mine_reference(&g, &cfg)),
            "seed {seed}"
        );
    }
}

#[test]
fn alt_metrics_match_reference() {
    use social_ties::RankMetric;
    for seed in 0..4u64 {
        let g = random_graph(seed, 12, 60);
        for metric in [
            RankMetric::Laplace { k: 2 },
            RankMetric::Gain { theta: 0.3 },
            RankMetric::Lift,
            RankMetric::PiatetskyShapiro,
            RankMetric::Conviction,
        ] {
            let cfg = MinerConfig {
                min_supp: 2,
                min_score: if metric.anti_monotone() {
                    0.1
                } else {
                    f64::NEG_INFINITY
                },
                k: 12,
                dynamic_topk: false,
                ..MinerConfig::default().with_metric(metric)
            };
            let fast = GrMiner::new(&g, cfg.clone()).mine();
            let oracle = mine_reference(&g, &cfg);
            assert_eq!(
                keys(&fast.top),
                keys(&oracle),
                "metric {metric} seed {seed}"
            );
            // The parallel miner shares one RHS marginal table across
            // workers for the metrics that need supp(r); it must stay
            // bit-identical too.
            if metric.needs_r_marginal() {
                let par = mine_three_workers(&g, &cfg);
                assert_eq!(
                    keys(&par.top),
                    keys(&oracle),
                    "parallel metric {metric} seed {seed}"
                );
            }
            for (a, b) in fast.top.iter().zip(&oracle) {
                assert!(
                    (a.score - b.score).abs() < 1e-9
                        || (a.score.is_infinite() && b.score.is_infinite()),
                    "score mismatch under {metric}"
                );
            }
        }
    }
}

#[test]
fn restricted_dims_agree() {
    use social_ties::core::reference::mine_reference_with_dims;
    use social_ties::Dims;
    for seed in 0..4u64 {
        let g = random_graph(seed, 12, 60);
        let schema = g.schema();
        // Only attributes A and B, no edge dims (a Fig. 4d-style subset).
        let dims = Dims::subset(
            schema,
            &[grm_graph::NodeAttrId(0), grm_graph::NodeAttrId(1)],
            &[],
        );
        let cfg = MinerConfig::nhp(1, 0.3, 10).without_dynamic_topk();
        let fast = GrMiner::with_dims(&g, cfg.clone(), dims.clone()).mine();
        let oracle = mine_reference_with_dims(&g, &cfg, &dims);
        assert_eq!(keys(&fast.top), keys(&oracle), "seed {seed}");
        // No result mentions the excluded attribute or edge dims.
        for x in &fast.top {
            assert!(x.gr.w.is_empty());
            for &(a, _) in x.gr.l.pairs().iter().chain(x.gr.r.pairs()) {
                assert!(a.0 < 2);
            }
        }
    }
}

#[test]
fn width_limits_agree_with_reference() {
    for seed in 0..4u64 {
        let g = random_graph(seed, 12, 60);
        for (max_l, max_r) in [(1, 1), (1, 2), (2, 1)] {
            let cfg = MinerConfig::nhp(1, 0.3, 15)
                .without_dynamic_topk()
                .with_max_widths(max_l, max_r);
            let fast = GrMiner::new(&g, cfg.clone()).mine();
            let oracle = mine_reference(&g, &cfg);
            assert_eq!(
                keys(&fast.top),
                keys(&oracle),
                "seed {seed} widths ({max_l},{max_r})"
            );
            for x in &fast.top {
                assert!(x.gr.l.len() <= max_l);
                assert!(x.gr.r.len() <= max_r);
            }
        }
    }
}
