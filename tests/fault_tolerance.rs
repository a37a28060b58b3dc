//! Fault-tolerant mining, the always-on half: cooperative cancellation
//! and deadlines across all three engines, spill-integrity rejection of
//! corrupted/truncated shard files, eager budget validation, and the
//! property that a cancelled mine never deadlocks, always drains its
//! counters, and never perturbs a later fault-free run. The seeded
//! failpoint matrix (injected I/O errors, short reads, budget shrinks,
//! worker panics) lives in `tests/fault_injection.rs` behind
//! `--features fault-inject`.

use proptest::prelude::*;
use social_ties::core::parallel::{try_mine_parallel_with_opts, ParallelOptions};
use social_ties::core::sharded::{mine_sharded, ShardedOptions};
use social_ties::core::{Dims, MinerError};
use social_ties::datagen::dblp_config_scaled;
use social_ties::graph::shard::ShardStore;
use social_ties::graph::{io, CancelToken, CompactModel, EdgeAttrId, GraphError, ShardIoError};
use social_ties::{generate, toy_network, GrMiner, MinerConfig, ScoredGr, SocialGraph};
use std::path::PathBuf;

fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("grm-fault-tol-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn store_for(g: &SocialGraph, name: &str, shards: usize) -> ShardStore {
    ShardStore::build_from_graph(g, tdir(name), shards, CompactModel::MAX_EDGES)
        .expect("store builds")
}

fn cleanup(store: ShardStore) {
    let dir = store.dir().to_path_buf();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
}

fn workload() -> SocialGraph {
    generate(&dblp_config_scaled(0.05)).unwrap()
}

/// Run every engine under `cfg` and return the three outcomes
/// (sequential, parallel 2-thread, sharded 2×2).
fn mine_everywhere(
    g: &SocialGraph,
    cfg: &MinerConfig,
    store: &ShardStore,
) -> [Result<Vec<ScoredGr>, MinerError>; 3] {
    let seq = GrMiner::new(g, cfg.clone()).try_mine().map(|r| r.top);
    let par = try_mine_parallel_with_opts(
        g,
        cfg,
        &Dims::all(g.schema()),
        ParallelOptions {
            threads: 2,
            ..ParallelOptions::default()
        },
    )
    .map(|r| r.top);
    let sharded = mine_sharded(
        store,
        cfg,
        &ShardedOptions {
            threads: 2,
            memory_budget: None,
        },
    )
    .map(|r| r.top);
    [seq, par, sharded]
}

#[test]
fn a_pre_cancelled_token_stops_every_engine_with_drained_stats() {
    let g = workload();
    let store = store_for(&g, "precancel", 2);
    let token = CancelToken::new();
    token.cancel();
    let cfg = MinerConfig::nhp(3, 0.5, 10).with_cancel(token);
    for (i, out) in mine_everywhere(&g, &cfg, &store).into_iter().enumerate() {
        match out {
            Err(e @ MinerError::Cancelled { .. }) => {
                let partial = e.partial_stats().expect("cancellation carries stats");
                // A pre-tripped token means the engine must have probed
                // it at least once before giving up.
                assert!(partial.cancel_checks > 0, "engine {i}: {partial:?}");
                assert!(e.to_string().contains("cancelled"), "engine {i}");
            }
            other => panic!("engine {i}: expected Cancelled, got {other:?}"),
        }
    }
    cleanup(store);
}

#[test]
fn an_expired_deadline_cancels_every_engine() {
    let g = workload();
    let store = store_for(&g, "deadline", 2);
    let cfg = MinerConfig::nhp(3, 0.5, 10).with_deadline_ms(0);
    for (i, out) in mine_everywhere(&g, &cfg, &store).into_iter().enumerate() {
        assert!(
            matches!(out, Err(MinerError::Cancelled { .. })),
            "engine {i}: an already-expired deadline must cancel, got {out:?}"
        );
    }
    cleanup(store);
}

#[test]
fn a_generous_deadline_changes_nothing() {
    let g = workload();
    let cfg = MinerConfig::nhp(3, 0.5, 10);
    let plain = GrMiner::new(&g, cfg.clone()).mine();
    let bounded = GrMiner::new(&g, cfg.with_deadline_ms(600_000))
        .try_mine()
        .expect("a ten-minute deadline never expires here");
    assert_eq!(plain.top, bounded.top);
    assert_eq!(plain.stats.semantic(), bounded.stats.semantic());
}

#[test]
fn cancellation_at_fixed_depths_drains_and_never_perturbs_reruns() {
    let g = workload();
    let cfg = MinerConfig::nhp(3, 0.5, 10);
    let oracle = GrMiner::new(&g, cfg.clone()).mine();
    for trip in [1u64, 3, 17, 121, 1009] {
        let token = CancelToken::tripping_after(trip);
        let out = GrMiner::new(&g, cfg.clone().with_cancel(token)).try_mine();
        match out {
            Err(e @ MinerError::Cancelled { .. }) => {
                let partial = e.partial_stats().unwrap();
                assert!(
                    partial.cancel_checks >= 1,
                    "trip {trip}: counters must be drained, got {partial:?}"
                );
            }
            Ok(r) => assert_eq!(r.top, oracle.top, "trip {trip}: late trip, full result"),
            Err(other) => panic!("trip {trip}: unexpected error {other}"),
        }
        // The cancelled run left no residue: a fresh uncancelled mine is
        // bit-identical to the oracle.
        let rerun = GrMiner::new(&g, cfg.clone()).mine();
        assert_eq!(rerun.top, oracle.top, "trip {trip}: rerun diverged");
        assert_eq!(rerun.stats.semantic(), oracle.stats.semantic());
    }
}

#[test]
fn corrupted_spill_files_are_rejected_with_typed_errors() {
    let g = workload();

    // Flipping a payload byte breaks the per-chunk checksum.
    let store = store_for(&g, "corrupt-body", 2);
    let victim = store.dir().join("shard-0.edges");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&victim, &bytes).unwrap();
    let err = store.load_shard(0).expect_err("corrupted shard must fail");
    assert!(
        matches!(
            err,
            GraphError::ShardIo(ShardIoError::ChecksumMismatch { .. })
                | GraphError::ShardIo(ShardIoError::ShortRead { .. })
        ),
        "got {err:?}"
    );
    // The full mine surfaces the same typed error instead of panicking
    // or returning silently wrong results.
    let cfg = MinerConfig::nhp(3, 0.5, 10);
    let out = mine_sharded(&store, &cfg, &ShardedOptions::default());
    assert!(
        matches!(out, Err(MinerError::Graph(GraphError::ShardIo(_)))),
        "got {out:?}"
    );
    cleanup(store);

    // Clobbering the header magic is caught before any chunk is read.
    let store = store_for(&g, "corrupt-magic", 2);
    let victim = store.dir().join("shard-1.edges");
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&victim, &bytes).unwrap();
    let err = store.load_shard(1).expect_err("bad magic must fail");
    assert!(
        matches!(err, GraphError::ShardIo(ShardIoError::BadMagic)),
        "got {err:?}"
    );
    cleanup(store);

    // Truncation surfaces as a typed short read.
    let store = store_for(&g, "corrupt-trunc", 2);
    let victim = store.dir().join("shard-0.edges");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() - 7]).unwrap();
    let err = store.load_shard(0).expect_err("truncated shard must fail");
    assert!(
        matches!(
            err,
            GraphError::ShardIo(ShardIoError::ShortRead { .. })
                | GraphError::ShardIo(ShardIoError::ChecksumMismatch { .. })
        ),
        "got {err:?}"
    );
    cleanup(store);
}

#[test]
fn out_of_range_spill_values_are_typed_errors_not_panics() {
    // A chunk with a correct checksum can still carry values the store
    // never wrote: an endpoint past the node count, or an edge value
    // outside its domain. The mine reads them while it builds its slice
    // sets, before any worker runs, and must return the typed error.
    let g = workload();
    let nodes = g.node_count();
    let cols = g.schema().edge_attr_count();
    let bad_value = g.schema().edge_attr(EdgeAttrId(0)).domain_size() + 1;
    for (src, dst, value) in [(3_000_000, 0, 1), (0, 3_000_000, 1), (0, 1, bad_value)] {
        let store = store_for(&g, "bad-values", 2);
        let mut bytes = Vec::new();
        io::write_spill_header(&mut bytes).unwrap();
        let mut attrs = vec![vec![1]; cols];
        attrs[0] = vec![value];
        io::encode_edge_chunk(&[src], &[dst], &attrs, &mut bytes);
        std::fs::write(store.dir().join("shard-1.edges"), &bytes).unwrap();
        for threads in [1, 2] {
            let opts = ShardedOptions {
                threads,
                memory_budget: None,
            };
            match mine_sharded(&store, &MinerConfig::nhp(3, 0.5, 10), &opts) {
                Err(MinerError::Graph(GraphError::DanglingEndpoint { node, nodes: n })) => {
                    assert_eq!((node, n), (3_000_000, nodes));
                }
                Err(MinerError::Graph(GraphError::ValueOutOfDomain { value: v, .. })) => {
                    assert_eq!(v, bad_value);
                }
                other => panic!("({src}, {dst}, {value}): got {other:?}"),
            }
        }
        cleanup(store);
    }
}

#[test]
fn impossible_budget_fails_eagerly_with_zero_work_done() {
    let g = toy_network();
    let store = store_for(&g, "eager-budget", 2);
    let err = mine_sharded(
        &store,
        &MinerConfig::nhp(1, 0.5, 10),
        &ShardedOptions {
            threads: 4,
            memory_budget: Some(1),
        },
    )
    .expect_err("a 1-byte budget cannot hold a shard");
    match err {
        MinerError::Graph(GraphError::MemoryBudgetTooSmall { needed, budget, .. }) => {
            assert_eq!(budget, 1);
            assert!(needed > 1);
            // The message carries the minimum viable budget — validation
            // happened at pool construction, before any worker ran.
            let msg = err.to_string();
            assert!(msg.contains("minimum viable budget"), "got: {msg}");
        }
        other => panic!("expected MemoryBudgetTooSmall, got {other:?}"),
    }
    cleanup(store);
}

#[test]
fn infallible_entry_points_panic_with_a_redirect_when_cancellable() {
    // `mine()` cannot report a typed cancellation; its documented
    // contract is a panic pointing at `try_mine`.
    let g = toy_network();
    let token = CancelToken::new();
    token.cancel();
    let cfg = MinerConfig::nhp(1, 0.5, 10).with_cancel(token);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        GrMiner::new(&g, cfg).mine()
    }));
    let payload = caught.expect_err("mine() must panic on cancellation");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("try_mine"), "got: {msg}");
}

proptest! {
    // Each case mines the toy network up to three times; keep the count
    // moderate. The fixed-depth deterministic sweep above covers the
    // larger workload.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cancelling at an arbitrary probe depth, under an arbitrary thread
    /// count, never deadlocks (the test completing is the proof), always
    /// drains counters into the typed error, and never perturbs an
    /// uncancelled re-run.
    #[test]
    fn random_depth_cancellation_is_safe(
        trip in 1u64..4000,
        threads in 1usize..4,
        parallel in any::<bool>(),
    ) {
        let g = toy_network();
        // Static threshold: the exactness anchor every engine reproduces
        // bit-identically (sequential *dynamic* has the documented
        // generality corner case, so it is not a cross-engine oracle).
        let cfg = MinerConfig::nhp(1, 0.0, 50).without_dynamic_topk();
        let oracle = GrMiner::new(&g, cfg.clone()).mine();
        let cancellable = cfg.clone().with_cancel(CancelToken::tripping_after(trip));
        let out = if parallel {
            try_mine_parallel_with_opts(
                &g,
                &cancellable,
                &Dims::all(g.schema()),
                ParallelOptions { threads, ..ParallelOptions::default() },
            )
        } else {
            GrMiner::new(&g, cancellable).try_mine()
        };
        match out {
            Ok(r) => prop_assert_eq!(r.top, oracle.top.clone()),
            Err(e @ MinerError::Cancelled { .. }) => {
                let partial = e.partial_stats().unwrap();
                prop_assert!(partial.cancel_checks > 0, "drained: {:?}", partial);
            }
            Err(other) => prop_assert!(false, "unexpected error {}", other),
        }
        // Re-run without cancellation: bit-identical to the oracle.
        let rerun = GrMiner::new(&g, cfg).mine();
        prop_assert_eq!(rerun.top, oracle.top);
        prop_assert_eq!(rerun.stats.semantic(), oracle.stats.semantic());
    }
}
