//! Parallel-vs-sequential equivalence for the work-stealing engine: the
//! full matrix of 1/2/4/8 threads × `split_min` {heuristic, 1} must
//! return bit-identical `top` AND identical `MinerStats::semantic()`
//! under the static threshold, on the Fig. 1 toy network and the
//! Pokec-like / DBLP-like workloads, with and without
//! `allow_empty_lhs`. Dynamic mode
//! (the shared top-k bound + exactness-verified post-pass) must *also*
//! be bit-identical to the static Definition-5 semantics — the
//! engine-level guarantee that pruning only ever removes work, never
//! results.

use social_ties::core::parallel::{try_mine_parallel_with_opts, ParallelOptions};
use social_ties::core::Dims;
use social_ties::datagen::{dblp_config_scaled, pokec_config_scaled};
use social_ties::{generate, toy_network, GrMiner, MinerConfig, SocialGraph};

/// The engine matrix of the tentpole acceptance criteria. With
/// `split_min` 0 the production heuristic detaches nothing on these
/// small fixtures, so those cells run the unsplit multi-worker path;
/// `split_min` 1 detaches every shallow surviving subtree.
fn engine_matrix() -> Vec<ParallelOptions> {
    let mut m = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        for split_min in [0usize, 1] {
            m.push(ParallelOptions { threads, split_min });
        }
    }
    m
}

/// `cfg` as given and with `allow_empty_lhs`, the only setting that runs
/// the `Right`/`Edge` root tasks, each with its label.
fn with_and_without_empty_lhs(cfg: &MinerConfig, label: &str) -> [(MinerConfig, String); 2] {
    [cfg.clone(), cfg.clone().with_empty_lhs()].map(|c| {
        let label = format!("{label}, allow_empty_lhs {}", c.allow_empty_lhs);
        (c, label)
    })
}

fn assert_matrix_matches_sequential(g: &SocialGraph, cfg: &MinerConfig, label: &str) {
    for (cfg, label) in with_and_without_empty_lhs(cfg, label) {
        let cfg = cfg.without_dynamic_topk();
        let seq = GrMiner::new(g, cfg.clone()).mine();
        let dims = Dims::all(g.schema());
        for opts in engine_matrix() {
            let par = try_mine_parallel_with_opts(g, &cfg, &dims, opts).unwrap();
            assert_eq!(seq.top, par.top, "{label}: parallel diverged ({opts:?})");
            assert_eq!(
                seq.stats.semantic(),
                par.stats.semantic(),
                "{label}: semantic counters diverged ({opts:?})"
            );
        }
    }
}

/// Dynamic mode: shared bound + verified post-pass must reproduce the
/// static Definition-5 output exactly, with and without
/// `allow_empty_lhs`. (The post-pass debug-asserts that the published
/// bound never exceeds the true k-th score of the result.)
fn assert_dynamic_matches_static(g: &SocialGraph, cfg: &MinerConfig, label: &str) {
    assert!(cfg.dynamic_topk, "{label}: fixture must exercise the bound");
    for (cfg, label) in with_and_without_empty_lhs(cfg, label) {
        let seq_static = GrMiner::new(g, cfg.clone().without_dynamic_topk()).mine();
        let dims = Dims::all(g.schema());
        for threads in [2usize, 4, 8] {
            let opts = ParallelOptions {
                threads,
                split_min: 1,
            };
            let par = try_mine_parallel_with_opts(g, &cfg, &dims, opts).unwrap();
            assert_eq!(
                seq_static.top, par.top,
                "{label}: dynamic parallel deviated from static semantics (threads {threads})"
            );
        }
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
        assert_matrix_matches_sequential(&g, &cfg, "toy");
    }
    assert_dynamic_matches_static(&g, &MinerConfig::nhp(1, 0.2, 5), "toy");
}

#[test]
fn pokec_like_bit_identical() {
    let g = generate(&pokec_config_scaled(0.02)).unwrap();
    assert!(g.edge_count() > 0);
    let min_supp = (g.edge_count() as u64 / 1000).max(1);
    for cfg in [
        MinerConfig::nhp(min_supp, 0.5, 50),
        MinerConfig::conf(min_supp, 0.5, 50),
    ] {
        assert_matrix_matches_sequential(&g, &cfg, "pokec");
    }
    assert_dynamic_matches_static(&g, &MinerConfig::nhp(min_supp, 0.5, 25), "pokec");
}

#[test]
fn dblp_like_bit_identical() {
    let g = generate(&dblp_config_scaled(0.05)).unwrap();
    assert!(g.edge_count() > 0);
    assert_matrix_matches_sequential(&g, &MinerConfig::nhp(3, 0.5, 50), "dblp");
    assert_dynamic_matches_static(&g, &MinerConfig::nhp(3, 0.5, 20), "dblp");
}

#[test]
fn stealing_and_splitting_engage_on_skewed_workloads() {
    // The counters must show the engine actually working: with the
    // production split heuristic forced on (split_min 1) and several
    // workers on the Region-skewed Pokec workload, subtrees are detached
    // and stolen.
    let g = generate(&pokec_config_scaled(0.02)).unwrap();
    let cfg = MinerConfig::nhp(5, 0.5, 25).without_dynamic_topk();
    let par = try_mine_parallel_with_opts(
        &g,
        &cfg,
        &Dims::all(g.schema()),
        ParallelOptions {
            threads: 4,
            split_min: 1,
        },
    )
    .unwrap();
    assert!(par.stats.subtree_splits > 0, "no subtree was ever detached");
    assert!(par.stats.tasks_stolen > 0, "no task was ever stolen");
}

#[test]
fn oversubscribed_and_degenerate_pools_on_pokec_like_workload() {
    // Satellite coverage for the shared-context miner: a pool far larger
    // than the task list (32) and a single-thread pool must stay
    // bit-identical to sequential and semantic-counters-identical to
    // each other on the workload whose dominant `Region` dimension the
    // splitter targets (one worker mines it whole, more split it into
    // value ranges). (The work counters — partition passes, scratch
    // peak, steals, splits, elapsed — legitimately vary with the
    // execution strategy.)
    let g = generate(&pokec_config_scaled(0.01)).unwrap();
    let cfg = MinerConfig::nhp(5, 0.5, 25).without_dynamic_topk();
    let seq = GrMiner::new(&g, cfg.clone()).mine();
    let dims = Dims::all(g.schema());
    let mut counters: Option<social_ties::MinerStats> = None;
    for threads in [1usize, 2, 32] {
        let opts = ParallelOptions {
            threads,
            ..ParallelOptions::default()
        };
        let par = try_mine_parallel_with_opts(&g, &cfg, &dims, opts).unwrap();
        assert_eq!(seq.top, par.top, "threads {threads}");
        let sem = par.stats.semantic();
        match &counters {
            None => counters = Some(sem),
            Some(c) => assert_eq!(c, &sem, "counters diverged at threads {threads}"),
        }
    }
}

/// All three fixture families at 1/2/4 threads, with the split
/// heuristic and with splitting forced (`split_min: 1`): the parallel
/// miner reproduces the sequential `top` and semantic counters under the
/// static threshold, and a dynamic mine — sequential or parallel —
/// returns the static top-k. The sequential run's work counters show
/// the partition engine live, and the retired rows at 0.
#[test]
fn fused_engine_bit_identical_on_toy_pokec_dblp() {
    let workloads: Vec<(&str, SocialGraph, MinerConfig)> = vec![
        ("toy", toy_network(), MinerConfig::nhp(1, 0.0, 100)),
        (
            "pokec",
            generate(&pokec_config_scaled(0.02)).unwrap(),
            MinerConfig::nhp(5, 0.5, 50),
        ),
        (
            "dblp",
            generate(&dblp_config_scaled(0.05)).unwrap(),
            MinerConfig::nhp(3, 0.5, 50),
        ),
    ];
    for (label, g, dynamic) in &workloads {
        let cfg = dynamic.clone().without_dynamic_topk();
        let seq = GrMiner::new(g, cfg.clone()).mine();
        assert!(seq.stats.partition_passes > 0);
        assert!(seq.stats.scratch_bytes_peak > 0);
        assert_eq!(seq.stats.kernel_batches, 0);
        assert_eq!(seq.stats.fused_passes, 0);
        assert_eq!(
            seq.top,
            GrMiner::new(g, dynamic.clone()).mine().top,
            "{label}: dynamic sequential deviated from static semantics"
        );
        let dims = Dims::all(g.schema());
        for threads in [1usize, 2, 4] {
            for split_min in [0usize, 1] {
                let opts = ParallelOptions { threads, split_min };
                let par = try_mine_parallel_with_opts(g, &cfg, &dims, opts).unwrap();
                assert_eq!(seq.top, par.top, "{label}: parallel diverged ({opts:?})");
                assert_eq!(
                    seq.stats.semantic(),
                    par.stats.semantic(),
                    "{label}: semantic counters diverged ({opts:?})"
                );
                let par = try_mine_parallel_with_opts(g, dynamic, &dims, opts).unwrap();
                assert_eq!(
                    seq.top, par.top,
                    "{label}: dynamic parallel deviated from static semantics ({opts:?})"
                );
            }
        }
    }
}

#[test]
fn default_entry_point_splits_and_matches() {
    // The default options (stealing, splitting and dominant-range
    // chunking on) equal sequential too.
    let g = generate(&pokec_config_scaled(0.01)).unwrap();
    let cfg = MinerConfig::nhp(5, 0.5, 25).without_dynamic_topk();
    let seq = GrMiner::new(&g, cfg.clone()).mine();
    let dims = Dims::all(g.schema());
    for threads in [2usize, 4] {
        let opts = ParallelOptions {
            threads,
            ..ParallelOptions::default()
        };
        let par = try_mine_parallel_with_opts(&g, &cfg, &dims, opts)
            .expect("a mine without a token or deadline completes");
        assert_eq!(seq.top, par.top, "threads {threads}");
    }
}
