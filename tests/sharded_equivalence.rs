//! Sharded out-of-core mining vs the in-core engines: at every shard
//! count and thread count, `mine_sharded` must return the bit-identical
//! `top` of the sequential miner (static semantics) with identical
//! semantic counters — on the Fig. 1 toy network and the Pokec-like /
//! DBLP-like workloads, with and without `allow_empty_lhs` — and it
//! must do so under a fixed memory budget, with the pool's resident
//! peak never exceeding it.

use social_ties::core::sharded::{mine_sharded, ShardedOptions};
use social_ties::core::MinerError;
use social_ties::datagen::{dblp_config_scaled, pokec_config_scaled};
use social_ties::graph::shard::{resident_cost, ShardStore};
use social_ties::graph::{CompactModel, GraphError, NodeId, ResidentUnit};
use social_ties::{generate, toy_network, GrMiner, MinerConfig, RankMetric, SocialGraph};
use std::path::PathBuf;

/// Fresh scratch directory for one store (removed by the caller; the
/// store's own files are removed by its `Drop`).
fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("grm-sharded-eq-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn store_for(g: &SocialGraph, name: &str, shards: usize) -> ShardStore {
    ShardStore::build_from_graph(g, tdir(name), shards, CompactModel::MAX_EDGES)
        .expect("store builds")
}

/// Slice sets a mine of `cfg` spills: one per non-dominant LHS
/// dimension, plus one per RHS and edge dimension when empty LHSes are
/// reportable.
fn slice_sets(g: &SocialGraph, cfg: &MinerConfig) -> u64 {
    let (nodes, edges) = (g.schema().node_attr_count(), g.schema().edge_attr_count());
    let empty_lhs = if cfg.allow_empty_lhs {
        nodes + edges
    } else {
        0
    };
    (nodes - 1 + empty_lhs) as u64
}

/// The matrix for `cfg` as given and with `allow_empty_lhs`, the only
/// setting that runs the `Right`/`Edge` root tasks and their slice
/// units.
fn assert_sharded_matches(g: &SocialGraph, cfg: &MinerConfig, label: &str) {
    for cfg in [cfg.clone(), cfg.clone().with_empty_lhs()] {
        assert_sharded_matches_one(g, &cfg, label);
    }
}

fn assert_sharded_matches_one(g: &SocialGraph, cfg: &MinerConfig, name: &str) {
    let label = format!("{name}, allow_empty_lhs {}", cfg.allow_empty_lhs);
    let stat = cfg.clone().without_dynamic_topk();
    let seq = GrMiner::new(g, stat.clone()).mine();
    for shards in [1usize, 2, 3, 7] {
        let store_name = format!("{name}-{}-{shards}", cfg.allow_empty_lhs);
        let store = store_for(g, &store_name, shards);
        for threads in [1usize, 2, 4] {
            // Static: bit-identical top AND semantic counters.
            let opts = ShardedOptions {
                threads,
                memory_budget: None,
            };
            let out = mine_sharded(&store, &stat, &opts).expect("sharded mine");
            assert_eq!(
                seq.top, out.top,
                "{label}: sharded diverged (shards {shards}, threads {threads})"
            );
            assert_eq!(
                seq.stats.semantic(),
                out.stats.semantic(),
                "{label}: semantic counters diverged (shards {shards}, threads {threads})"
            );
            assert_eq!(out.edge_count, g.edge_count() as u64);
            assert_eq!(out.stats.shards_built, shards as u64);
            assert_eq!(out.stats.slice_sets_built, slice_sets(g, cfg), "{label}");

            // Dynamic: the shared bound + verified post-pass must still
            // reproduce the static Definition-5 output exactly.
            let dynamic = mine_sharded(&store, cfg, &opts).expect("dynamic sharded mine");
            assert_eq!(
                seq.top, dynamic.top,
                "{label}: dynamic sharded deviated (shards {shards}, threads {threads})"
            );
        }
        let dir = store.dir().to_path_buf();
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn toy_network_bit_identical() {
    let g = toy_network();
    for cfg in [
        MinerConfig::nhp(1, 0.5, 10),
        MinerConfig::nhp(1, 0.0, 100),
        MinerConfig::conf(1, 0.4, 20),
    ] {
        assert_sharded_matches(&g, &cfg, "toy");
    }
}

#[test]
fn pokec_like_bit_identical() {
    let g = generate(&pokec_config_scaled(0.02)).unwrap();
    let min_supp = (g.edge_count() as u64 / 1000).max(1);
    assert_sharded_matches(&g, &MinerConfig::nhp(min_supp, 0.5, 50), "pokec");
}

#[test]
fn dblp_like_bit_identical() {
    let g = generate(&dblp_config_scaled(0.05)).unwrap();
    assert_sharded_matches(&g, &MinerConfig::nhp(3, 0.5, 50), "dblp");
}

#[test]
fn concurrent_mines_on_one_store_keep_their_own_slices() {
    // Every mine spills its slice sets under the store's directory; two
    // mines at once must neither sweep nor delete each other's files.
    let g = generate(&pokec_config_scaled(0.05)).unwrap();
    let min_supp = (g.edge_count() as u64 / 1000).max(1);
    let cfg = MinerConfig::nhp(min_supp, 0.5, 25).without_dynamic_topk();
    let seq = GrMiner::new(&g, cfg.clone()).mine();
    let store = store_for(&g, "concurrent", 2);
    let opts = ShardedOptions {
        threads: 1,
        memory_budget: None,
    };
    // Both threads start each round together, so their slice builds,
    // loads and cleanups overlap.
    let round_start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        let mines: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    (0..10)
                        .map(|_| {
                            round_start.wait();
                            mine_sharded(&store, &cfg, &opts).map(|r| r.top)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (t, mine) in mines.into_iter().enumerate() {
            for (round, got) in mine.join().unwrap().into_iter().enumerate() {
                let top = got.unwrap_or_else(|e| panic!("thread {t}, round {round}: {e}"));
                assert_eq!(seq.top, top, "thread {t}, round {round}");
            }
        }
    });
    // Each mine removed its own slice directory on return.
    let left: Vec<_> = std::fs::read_dir(store.dir())
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|n| !n.to_string_lossy().starts_with("shard-"))
        .collect();
    assert!(left.is_empty(), "slice files left behind: {left:?}");
    let dir = store.dir().to_path_buf();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

/// The largest edge set any single planned unit of a mine makes
/// resident: the per-shard maximum and the largest per-value source
/// group of any node attribute (a dominant-attribute group lies inside
/// one shard, so it never raises the maximum). Destination and
/// edge-attribute groups are units only when empty LHSes are
/// reportable (`allow_empty_lhs`), so only then do they count.
fn max_unit_edges(g: &SocialGraph, store: &ShardStore, allow_empty_lhs: bool) -> usize {
    let schema = g.schema();
    let mut max = (0..store.shard_count())
        .map(|s| store.edge_count(s) as usize)
        .max()
        .unwrap_or(0);
    for a in schema.node_attr_ids() {
        let mut by_src = vec![0usize; schema.node_attr(a).bucket_count()];
        let mut by_dst = vec![0usize; schema.node_attr(a).bucket_count()];
        for e in g.edge_ids() {
            by_src[g.src_attr(e, a) as usize] += 1;
            by_dst[g.dst_attr(e, a) as usize] += 1;
        }
        max = max.max(by_src[1..].iter().copied().max().unwrap_or(0));
        if allow_empty_lhs {
            max = max.max(by_dst[1..].iter().copied().max().unwrap_or(0));
        }
    }
    if allow_empty_lhs {
        for a in schema.edge_attr_ids() {
            let mut by_val = vec![0usize; schema.edge_attr(a).bucket_count()];
            for e in g.edge_ids() {
                by_val[g.edge_attr(e, a) as usize] += 1;
            }
            max = max.max(by_val[1..].iter().copied().max().unwrap_or(0));
        }
    }
    max
}

#[test]
fn tight_budget_forces_evictions_and_respects_the_peak() {
    let g = generate(&pokec_config_scaled(0.02)).unwrap();
    let store = store_for(&g, "budget", 3);
    for allow_empty_lhs in [false, true] {
        let cfg = MinerConfig {
            allow_empty_lhs,
            ..MinerConfig::nhp(5, 0.5, 25).without_dynamic_topk()
        };
        let seq = GrMiner::new(&g, cfg.clone()).mine();
        // Just enough for the single largest planned unit: every unit
        // still fits, but no two can be resident together, so the pool
        // must evict between shard units.
        let budget = resident_cost(
            g.schema(),
            g.node_count(),
            max_unit_edges(&g, &store, allow_empty_lhs).max(1),
        );
        let out = mine_sharded(
            &store,
            &cfg,
            &ShardedOptions {
                threads: 2,
                memory_budget: Some(budget),
            },
        )
        .expect("budgeted mine");
        let label = format!("allow_empty_lhs {allow_empty_lhs}");
        assert_eq!(seq.top, out.top, "{label}: tight budget changed results");
        assert!(
            out.stats.shard_evictions > 0,
            "{label}: a one-unit budget must force evictions"
        );
        assert!(
            out.stats.shard_resident_bytes_peak <= budget,
            "{label}: resident peak {} exceeded the budget {budget}",
            out.stats.shard_resident_bytes_peak
        );
        assert!(out.stats.shard_loads >= out.stats.shards_built);
    }
    let dir = store.dir().to_path_buf();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn the_reported_minimum_budget_mines() {
    // On this fixture the largest unit is a value slice, not a shard: a
    // budget check over shards alone reported a minimum that failed
    // again once the slice was reserved. The eager check prices every
    // planned unit, so mining at the reported minimum succeeds, one byte
    // less fails, and the message does not offer more shards, which
    // cannot shrink a slice.
    let g = generate(&dblp_config_scaled(0.05)).unwrap();
    let store = store_for(&g, "minimum", 3);
    let opts = |budget| ShardedOptions {
        threads: 2,
        memory_budget: Some(budget),
    };
    for cfg in [
        MinerConfig::nhp(3, 0.5, 50),
        MinerConfig::nhp(3, 0.5, 50).with_empty_lhs(),
    ] {
        let label = format!("allow_empty_lhs {}", cfg.allow_empty_lhs);
        let err = mine_sharded(&store, &cfg, &opts(1)).expect_err("a 1-byte budget");
        let MinerError::Graph(GraphError::MemoryBudgetTooSmall {
            needed,
            budget: 1,
            unit,
        }) = err
        else {
            panic!("{label}: expected MemoryBudgetTooSmall, got {err:?}");
        };
        assert_eq!(unit, ResidentUnit::Slice, "{label}: a slice binds here");
        let largest_shard = (0..store.shard_count())
            .map(|s| resident_cost(g.schema(), g.node_count(), store.edge_count(s) as usize))
            .max()
            .unwrap();
        assert!(
            needed > largest_shard,
            "{label}: {needed} vs {largest_shard}"
        );
        let msg = err.to_string();
        assert!(msg.contains("minimum viable budget"), "{label}: {msg}");
        assert!(!msg.contains("--shards"), "{label}: {msg}");

        let out = mine_sharded(&store, &cfg, &opts(needed))
            .unwrap_or_else(|e| panic!("{label}: the reported minimum {needed} failed: {e}"));
        let seq = GrMiner::new(&g, cfg.clone().without_dynamic_topk()).mine();
        assert_eq!(seq.top, out.top, "{label}");
        assert!(out.stats.shard_resident_bytes_peak <= needed, "{label}");
        match mine_sharded(&store, &cfg, &opts(needed - 1)) {
            Err(MinerError::Graph(GraphError::MemoryBudgetTooSmall { needed: n, .. })) => {
                assert_eq!(n, needed, "{label}")
            }
            other => panic!("{label}: one byte below the minimum: {other:?}"),
        }
    }
    let dir = store.dir().to_path_buf();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn slice_sets_follow_the_root_task_list() {
    // Pokec has six node attributes and no edge attribute. A default
    // mine spills one slice set per non-dominant LHS dimension (5); the
    // empty-LHS RIGHT chain adds one per RHS dimension (11 in all). An
    // in-core mine spills none.
    let g = generate(&pokec_config_scaled(0.01)).unwrap();
    let store = store_for(&g, "slice-sets", 2);
    let cfg = MinerConfig::nhp(5, 0.5, 25);
    let opts = ShardedOptions::default();
    let default = mine_sharded(&store, &cfg, &opts).unwrap();
    assert_eq!(default.stats.slice_sets_built, 5);
    let all = mine_sharded(&store, &cfg.clone().with_empty_lhs(), &opts).unwrap();
    assert_eq!(all.stats.slice_sets_built, 11);
    assert_eq!(GrMiner::new(&g, cfg).mine().stats.slice_sets_built, 0);
    let dir = store.dir().to_path_buf();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn impossible_budget_fails_with_the_remedy() {
    let g = toy_network();
    let store = store_for(&g, "impossible", 2);
    let err = mine_sharded(
        g_config_store(&store),
        &MinerConfig::nhp(1, 0.5, 10).without_dynamic_topk(),
        &ShardedOptions {
            threads: 1,
            memory_budget: Some(1),
        },
    )
    .expect_err("a 1-byte budget cannot hold anything");
    match err {
        MinerError::Graph(GraphError::MemoryBudgetTooSmall { .. }) => {
            assert!(err.to_string().contains("--memory-budget"));
        }
        other => panic!("unexpected error: {other:?}"),
    }
    let dir = store.dir().to_path_buf();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

/// Identity helper so the borrow in the test above reads naturally.
fn g_config_store(store: &ShardStore) -> &ShardStore {
    store
}

#[test]
fn graph_beyond_the_per_shard_cap_mines_under_sharding() {
    // Scaled-down acceptance criterion: with the per-shard capacity
    // lowered below the edge count, a single shard cannot hold the
    // graph (TooManyEdges points at --shards), but four shards can —
    // and the sharded mine over them is bit-identical to in-core.
    let g = generate(&pokec_config_scaled(0.02)).unwrap();
    let edges = g.edge_count();
    // The split is by attribute-value ranges, so it is skewed; probe the
    // real largest shard of the 8-way split and pin the cap right there.
    let cap = {
        let probe = ShardStore::build_from_graph(&g, tdir("cap-probe"), 8, CompactModel::MAX_EDGES)
            .expect("probe store");
        let max = (0..probe.shard_count())
            .map(|s| probe.edge_count(s) as usize)
            .max()
            .unwrap_or(0);
        let dir = probe.dir().to_path_buf();
        drop(probe);
        let _ = std::fs::remove_dir_all(dir);
        max
    };
    assert!(
        cap < edges,
        "the 8-way split must actually divide the graph"
    );
    let err = ShardStore::build_from_graph(&g, tdir("cap-1"), 1, cap)
        .expect_err("one shard must overflow the lowered cap");
    assert!(
        err.to_string().contains("--shards"),
        "TooManyEdges must point at the sharding remedy: {err}"
    );

    let store = ShardStore::build_from_graph(&g, tdir("cap-8"), 8, cap)
        .expect("eight shards fit the lowered cap");
    let cfg = MinerConfig::nhp(5, 0.5, 25).without_dynamic_topk();
    let seq = GrMiner::new(&g, cfg.clone()).mine();
    let budget = resident_cost(
        g.schema(),
        g.node_count(),
        max_unit_edges(&g, &store, false).max(1),
    ) * 2;
    let out = mine_sharded(
        &store,
        &cfg,
        &ShardedOptions {
            threads: 2,
            memory_budget: Some(budget),
        },
    )
    .expect("sharded mine beyond the single-shard cap");
    assert_eq!(seq.top, out.top);
    assert!(out.stats.shard_resident_bytes_peak <= budget);
    let dir = store.dir().to_path_buf();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn marginal_metrics_are_rejected() {
    let g = toy_network();
    let store = store_for(&g, "metric", 2);
    for metric in [
        RankMetric::Lift,
        RankMetric::PiatetskyShapiro,
        RankMetric::Conviction,
    ] {
        let cfg = MinerConfig::nhp(1, 0.0, 10).with_metric(metric);
        match mine_sharded(&store, &cfg, &ShardedOptions::default()) {
            Err(MinerError::UnsupportedMetric(m)) => assert_eq!(m, metric),
            other => panic!("{metric:?} must be rejected, got {other:?}"),
        }
    }
    let dir = store.dir().to_path_buf();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

/// Self-check for the `NodeId` import (used via `node_row` in other
/// integration suites); keeps the import list honest.
#[test]
fn store_preserves_node_rows() {
    let g = toy_network();
    let store = store_for(&g, "rows", 2);
    for n in g.node_ids() {
        assert_eq!(store.node_row(n as NodeId), g.node_row(n));
    }
    let dir = store.dir().to_path_buf();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}
