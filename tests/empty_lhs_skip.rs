//! The default mine skips exactly the empty-LHS subtree.
//!
//! Without `allow_empty_lhs` no engine runs Algorithm 1's RIGHT(nil) and
//! EDGE(nil) subtrees, whose GRs all have an empty LHS. An
//! `allow_empty_lhs` mine capped at `max_lhs = 0` runs those subtrees
//! alone, so on every engine the default mine's work plus that mine's
//! must equal the work of an `allow_empty_lhs` mine — while the default
//! answer stays the Definition-5 top-k of an independent oracle.

use social_ties::core::baseline::{mine_baseline, BaselineKind};
use social_ties::core::parallel::{try_mine_parallel_with_opts, ParallelOptions};
use social_ties::core::reference::mine_reference;
use social_ties::core::sharded::{mine_sharded, ShardedOptions};
use social_ties::core::Dims;
use social_ties::datagen::{dblp_config_scaled, pokec_config_scaled};
use social_ties::graph::shard::ShardStore;
use social_ties::graph::CompactModel;
use social_ties::{
    generate, toy_network, Gr, GrMiner, MineResult, MinerConfig, ScoredGr, SocialGraph,
};
use std::path::PathBuf;

fn store_for(g: &SocialGraph, name: &str, shards: usize) -> ShardStore {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "grm-empty-lhs-skip-{}-{name}-{shards}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    ShardStore::build_from_graph(g, dir, shards, CompactModel::MAX_EDGES).expect("store builds")
}

/// One engine of the check.
#[derive(Clone, Copy)]
enum Engine<'s> {
    Sequential,
    TwoWorkers,
    Sharded(&'s ShardStore),
}

impl Engine<'_> {
    fn label(&self) -> String {
        match self {
            Engine::Sequential => "sequential".into(),
            Engine::TwoWorkers => "2 workers".into(),
            Engine::Sharded(store) => format!("{} shards", store.shard_count()),
        }
    }

    fn mine(&self, g: &SocialGraph, cfg: &MinerConfig) -> MineResult {
        match self {
            Engine::Sequential => GrMiner::new(g, cfg.clone()).try_mine(),
            Engine::TwoWorkers => try_mine_parallel_with_opts(
                g,
                cfg,
                &Dims::all(g.schema()),
                ParallelOptions {
                    threads: 2,
                    ..ParallelOptions::default()
                },
            ),
            Engine::Sharded(store) => mine_sharded(
                store,
                cfg,
                &ShardedOptions {
                    threads: store.shard_count().min(2),
                    memory_budget: None,
                },
            ),
        }
        .unwrap_or_else(|e| panic!("{}: {e}", self.label()))
    }
}

fn keys(top: &[ScoredGr]) -> Vec<(Gr, u64, u64, u64)> {
    top.iter()
        .map(|s| (s.gr.clone(), s.supp, s.supp_lw, s.heff))
        .collect()
}

/// Check the identity on every engine at minNhp 0.5 and 0.2, and the
/// default and `allow_empty_lhs` answers against `oracle`.
fn assert_skip_is_exact(
    label: &str,
    g: &SocialGraph,
    min_supp: u64,
    oracle: impl Fn(&MinerConfig) -> Vec<ScoredGr>,
) {
    let stores = [store_for(g, label, 1), store_for(g, label, 3)];
    let engines = [
        Engine::Sequential,
        Engine::TwoWorkers,
        Engine::Sharded(&stores[0]),
        Engine::Sharded(&stores[1]),
    ];
    for min_nhp in [0.5, 0.2] {
        let default = MinerConfig::nhp(min_supp, min_nhp, 50).without_dynamic_topk();
        let all = default.clone().with_empty_lhs();
        let empty_only = MinerConfig {
            max_lhs: Some(0),
            ..all.clone()
        };
        let (want, want_all) = (keys(&oracle(&default)), keys(&oracle(&all)));
        for engine in &engines {
            let tag = format!("{label}, minNhp {min_nhp}, {}", engine.label());
            let d = engine.mine(g, &default);
            let e = engine.mine(g, &empty_only);
            let a = engine.mine(g, &all);
            assert!(
                e.stats.grs_examined > 0,
                "{tag}: the empty-LHS subtree must examine GRs"
            );
            assert_eq!(
                d.stats.grs_examined + e.stats.grs_examined,
                a.stats.grs_examined,
                "{tag}: grs_examined"
            );
            assert_eq!(
                d.stats.partitions_examined + e.stats.partitions_examined,
                a.stats.partitions_examined,
                "{tag}: partitions_examined"
            );
            assert_eq!(
                d.stats.partition_passes + e.stats.partition_passes,
                a.stats.partition_passes,
                "{tag}: partition_passes"
            );
            assert!(
                e.top.iter().all(|s| s.gr.l.is_empty()),
                "{tag}: max_lhs 0 reports empty LHSes only"
            );
            assert!(
                d.top.iter().all(|s| !s.gr.l.is_empty()),
                "{tag}: the default reports no empty LHS"
            );
            assert_eq!(keys(&d.top), want, "{tag}: default top vs the oracle");
            assert_eq!(
                keys(&a.top),
                want_all,
                "{tag}: allow_empty_lhs top vs the oracle"
            );
        }
    }
    for store in stores {
        let dir = store.dir().to_path_buf();
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn toy_network_skips_exactly_the_empty_lhs_subtree() {
    let g = toy_network();
    assert_skip_is_exact("toy", &g, 1, |cfg| mine_reference(&g, cfg));
}

#[test]
fn dblp_like_skips_exactly_the_empty_lhs_subtree() {
    let g = generate(&dblp_config_scaled(0.05)).unwrap();
    assert_skip_is_exact("dblp", &g, 3, |cfg| mine_reference(&g, cfg));
}

#[test]
fn pokec_like_skips_exactly_the_empty_lhs_subtree() {
    // The brute-force reference enumerates the full product of the
    // attribute domains (Region alone has 187 values), far beyond a
    // test's budget here; BL2, the paper's BUC baseline, is the
    // independent oracle instead. It still enumerates every empty-LHS
    // pattern and filters them afterwards.
    let g = generate(&pokec_config_scaled(0.02)).unwrap();
    let min_supp = (g.edge_count() as u64 / 1000).max(1);
    assert_skip_is_exact("pokec", &g, min_supp, |cfg| {
        mine_baseline(&g, cfg, BaselineKind::Bl2).top
    });
}
