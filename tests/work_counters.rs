//! The work of a static mine, pinned exactly.
//!
//! A static config (no shared dynamic bound) enumerates one tree on
//! every run, so its semantic counters and the work counters of its
//! passes — `partition_passes`, `positions_counted` and
//! `positions_scattered` — are deterministic. This suite pins them to
//! committed constants for the default static config on a Pokec-like
//! and a DBLP-like fixture, on the sequential engine and on the
//! out-of-core engine at one shard and one worker. None of them depends
//! on the order of the EArray positions (the recursion is invariant
//! under a permutation of its positions), so a change that only makes
//! the passes faster passes this suite unchanged, and a change that
//! moves the work on purpose updates the constants.

use social_ties::core::sharded::{mine_sharded, ShardedOptions};
use social_ties::datagen::{dblp_config_scaled, pokec_config_scaled};
use social_ties::graph::shard::ShardStore;
use social_ties::graph::CompactModel;
use social_ties::{generate, GrMiner, MinerConfig, MinerStats, SocialGraph};

/// The pinned counters, in the order of [`work`].
const COUNTERS: [&str; 11] = [
    "partitions_examined",
    "grs_examined",
    "pruned_by_supp",
    "pruned_by_score",
    "rejected_trivial",
    "rejected_generality",
    "accepted",
    "heff_scans",
    "partition_passes",
    "positions_counted",
    "positions_scattered",
];

/// The eight semantic counters, then the three work counters of the
/// passes.
fn work(s: &MinerStats) -> [u64; 11] {
    [
        s.partitions_examined,
        s.grs_examined,
        s.pruned_by_supp,
        s.pruned_by_score,
        s.rejected_trivial,
        s.rejected_generality,
        s.accepted,
        s.heff_scans,
        s.partition_passes,
        s.positions_counted,
        s.positions_scattered,
    ]
}

/// The default static config: `min_supp = |E|/1000`, minNhp 0.5, k 100.
fn static_config(g: &SocialGraph) -> MinerConfig {
    MinerConfig::nhp((g.edge_count() as u64 / 1000).max(1), 0.5, 100).without_dynamic_topk()
}

/// Assert `stats` reads `want`, naming each counter.
fn assert_work(stats: &MinerStats, want: [u64; 11], label: &str) {
    let named = |values: [u64; 11]| COUNTERS.into_iter().zip(values).collect::<Vec<_>>();
    assert_eq!(named(work(stats)), named(want), "{label}");
}

/// Mine `g` on both engines and check each against its constants.
fn assert_pinned(g: &SocialGraph, name: &str, in_core: [u64; 11], sharded: [u64; 11]) {
    let cfg = static_config(g);
    let seq = GrMiner::new(g, cfg.clone()).mine();
    assert_work(&seq.stats, in_core, &format!("{name}, sequential"));

    let dir = std::env::temp_dir().join(format!("grm-work-counters-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        ShardStore::build_from_graph(g, &dir, 1, CompactModel::MAX_EDGES).expect("store builds");
    let opts = ShardedOptions {
        threads: 1,
        memory_budget: None,
    };
    let out = mine_sharded(&store, &cfg, &opts).expect("sharded mine");
    assert_eq!(out.top, seq.top, "{name}: sharded answer");
    assert_work(&out.stats, sharded, &format!("{name}, 1 shard, 1 worker"));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn static_pokec_mines_do_the_pinned_work() {
    let g = generate(&pokec_config_scaled(0.05).with_seed(1)).unwrap();
    assert_pinned(
        &g,
        "pokec-0.05",
        [
            744_651, 724_669, 682_539, 44_738, 1_923, 4_591, 5_170, 2_364, 80_481, 11_396_093,
            2_514_451,
        ],
        [
            744_651, 724_669, 682_539, 44_738, 1_923, 4_591, 5_170, 2_364, 80_518, 11_390_122,
            2_508_480,
        ],
    );
}

#[test]
fn static_dblp_mines_do_the_pinned_work() {
    let g = generate(&dblp_config_scaled(0.1).with_seed(1)).unwrap();
    assert_pinned(
        &g,
        "dblp-0.1",
        [980, 886, 267, 367, 66, 167, 195, 41, 338, 171_039, 67_284],
        [980, 886, 267, 367, 66, 167, 195, 41, 341, 171_039, 67_284],
    );
}
