//! The seeded fault-injection matrix, compiled only with
//! `--features fault-inject`: every armed failpoint schedule must turn
//! into a typed [`MinerError`] (or a clean recovery), never an abort,
//! with the pool's resident peak inside the budget and a fault-free
//! re-run over the same store still bit-identical to the in-core
//! oracle (which doubles as the no-leaked-pins / no-wedged-state
//! check).
//!
//! The failpoint registry is process-global, so every test here takes
//! the shared [`guard`] and disarms on both sides of its scenario.
#![cfg(feature = "fault-inject")]

use social_ties::core::parallel::{try_mine_parallel_with_opts, ParallelOptions};
use social_ties::core::sharded::{mine_sharded, ShardedOptions};
use social_ties::core::{Dims, MinerError};
use social_ties::datagen::dblp_config_scaled;
use social_ties::graph::failpoint::{self, FaultKind};
use social_ties::graph::shard::{resident_cost, ShardStore};
use social_ties::graph::{CompactModel, GraphError};
use social_ties::{generate, GrMiner, MinerConfig, SocialGraph};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("grm-fault-inj-{}-{name}", std::process::id()));
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

fn cfg() -> MinerConfig {
    MinerConfig::nhp(3, 0.5, 10).without_dynamic_topk()
}

#[test]
fn one_transient_spill_failure_is_retried_and_recovered() {
    let _g = guard();
    let g = workload();
    let oracle = GrMiner::new(&g, cfg()).mine();

    failpoint::disarm_all();
    failpoint::arm("spill.write", 0, 1, FaultKind::IoError);
    let store = store_for(&g, "spill-retry", 2);
    failpoint::disarm_all();
    assert!(
        store.spill_retries() >= 1,
        "the injected write failure must be visible as a retry"
    );
    let out = mine_sharded(&store, &cfg(), &ShardedOptions::default()).expect("recovered mine");
    assert_eq!(out.top, oracle.top, "retry must not corrupt the spill");
    assert!(
        out.stats.spill_retries >= 1,
        "the retry rides out through MinerStats: {:?}",
        out.stats
    );
    cleanup(store);
}

#[test]
fn exhausted_spill_retries_surface_a_typed_io_error() {
    let _g = guard();
    let g = workload();
    failpoint::disarm_all();
    // Two consecutive failures at the same chunk: the single bounded
    // retry is exhausted and the build fails with the *first* error.
    failpoint::arm("spill.write", 0, 2, FaultKind::IoError);
    let err = ShardStore::build_from_graph(&g, tdir("spill-exhaust"), 2, CompactModel::MAX_EDGES)
        .expect_err("doubly-failed spill must not succeed");
    failpoint::disarm_all();
    assert!(
        matches!(err, GraphError::Io { ref message } if message.contains("spill.write")),
        "got {err:?}"
    );
    let _ = std::fs::remove_dir_all(tdir("spill-exhaust"));
}

#[test]
fn slice_spill_failures_during_the_mine_are_retried_too() {
    let _g = guard();
    let g = workload();
    let oracle = GrMiner::new(&g, cfg()).mine();
    // Build the store fault-free, then arm: the next spill writes are
    // the mine's own per-value slice spills.
    let store = store_for(&g, "slice-retry", 2);
    failpoint::disarm_all();
    failpoint::arm("spill.write", 0, 1, FaultKind::IoError);
    let out = mine_sharded(&store, &cfg(), &ShardedOptions::default());
    failpoint::disarm_all();
    let out = out.expect("one transient slice-spill failure must recover");
    assert_eq!(out.top, oracle.top);
    assert!(out.stats.spill_retries >= 1, "{:?}", out.stats);
    assert!(out.stats.faults_injected >= 1, "{:?}", out.stats);
    cleanup(store);
}

#[test]
fn shard_load_faults_become_typed_errors_and_leave_no_wedged_state() {
    let _g = guard();
    let g = workload();
    let oracle = GrMiner::new(&g, cfg()).mine();
    let store = store_for(&g, "load-faults", 3);
    // Shard loads and value-slice key loads alike.
    for site in ["shard.load", "slice.load"] {
        for kind in [FaultKind::IoError, FaultKind::ShortRead] {
            failpoint::disarm_all();
            failpoint::arm(site, 0, 1, kind);
            let out = mine_sharded(&store, &cfg(), &ShardedOptions::default());
            failpoint::disarm_all();
            match out {
                Err(MinerError::Graph(GraphError::Io { .. }))
                | Err(MinerError::Graph(GraphError::ShardIo(_))) => {}
                other => panic!("{site} {kind:?}: expected a typed storage error, got {other:?}"),
            }
            // No leaked pins or reservations, no wedged store: the same
            // store mines clean.
            let rerun = mine_sharded(&store, &cfg(), &ShardedOptions::default())
                .expect("fault-free rerun over the same store");
            assert_eq!(rerun.top, oracle.top, "{site} {kind:?}: rerun diverged");
        }
    }
    cleanup(store);
}

#[test]
fn a_mid_mine_budget_shrink_stays_typed_and_inside_the_original_budget() {
    let _g = guard();
    let g = workload();
    let oracle = GrMiner::new(&g, cfg()).mine();
    let store = store_for(&g, "shrink", 3);
    let generous = resident_cost(g.schema(), g.node_count(), g.edge_count()) * 4;
    for shrink_to in [1u64, 1024, generous / 2] {
        failpoint::disarm_all();
        failpoint::arm("pool.evict", 0, 1, FaultKind::ShrinkBudget(shrink_to));
        let out = mine_sharded(
            &store,
            &cfg(),
            &ShardedOptions {
                threads: 2,
                memory_budget: Some(generous),
            },
        );
        failpoint::disarm_all();
        match out {
            Ok(r) => {
                assert_eq!(r.top, oracle.top, "shrink {shrink_to}: wrong results");
                assert!(
                    r.stats.shard_resident_bytes_peak <= generous,
                    "shrink {shrink_to}: peak {} over the budget {generous}",
                    r.stats.shard_resident_bytes_peak
                );
            }
            Err(MinerError::Graph(GraphError::MemoryBudgetTooSmall { .. })) => {
                // The shrunk budget can no longer hold a unit — the
                // typed remedy, never a deadlock or an abort.
            }
            Err(other) => panic!("shrink {shrink_to}: unexpected error {other}"),
        }
    }
    cleanup(store);
}

#[test]
fn an_injected_worker_panic_is_contained_in_the_parallel_engine() {
    let _g = guard();
    let g = workload();
    let oracle = GrMiner::new(&g, cfg()).mine();
    failpoint::disarm_all();
    failpoint::arm("worker.body", 0, 1, FaultKind::Panic);
    let out = try_mine_parallel_with_opts(
        &g,
        &cfg(),
        &Dims::all(g.schema()),
        ParallelOptions {
            threads: 4,
            ..ParallelOptions::default()
        },
    );
    failpoint::disarm_all();
    match out {
        Err(e @ MinerError::WorkerPanicked { .. }) => {
            assert!(
                e.to_string().contains("injected panic at worker.body"),
                "payload must survive verbatim: {e}"
            );
            let partial = e.partial_stats().unwrap();
            assert!(partial.faults_injected >= 1, "{partial:?}");
            assert!(partial.cancel_checks > 0, "siblings drained: {partial:?}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    // The panic left nothing behind: a clean re-run is bit-identical.
    let rerun = try_mine_parallel_with_opts(
        &g,
        &cfg(),
        &Dims::all(g.schema()),
        ParallelOptions {
            threads: 4,
            ..ParallelOptions::default()
        },
    )
    .expect("clean rerun");
    assert_eq!(rerun.top, oracle.top);
}

#[test]
fn an_injected_worker_panic_is_contained_in_the_sharded_engine() {
    let _g = guard();
    let g = workload();
    let oracle = GrMiner::new(&g, cfg()).mine();
    let store = store_for(&g, "worker-panic", 3);
    failpoint::disarm_all();
    failpoint::arm("worker.body", 1, 1, FaultKind::Panic);
    let out = mine_sharded(
        &store,
        &cfg(),
        &ShardedOptions {
            threads: 2,
            memory_budget: None,
        },
    );
    failpoint::disarm_all();
    match out {
        Err(e @ MinerError::WorkerPanicked { .. }) => {
            assert!(e.to_string().contains("injected panic at worker.body"));
            let partial = e.partial_stats().unwrap();
            assert!(partial.faults_injected >= 1, "{partial:?}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    let rerun = mine_sharded(&store, &cfg(), &ShardedOptions::default()).expect("clean rerun");
    assert_eq!(rerun.top, oracle.top);
    cleanup(store);
}

/// The acceptance matrix: a fixed seed grid over every site and a range
/// of hit indices. Each cell must end in a typed error or a clean,
/// bit-identical result — zero aborts, peak ≤ budget throughout.
#[test]
fn the_seeded_matrix_never_aborts_and_never_returns_wrong_results() {
    let _g = guard();
    let g = workload();
    let oracle = GrMiner::new(&g, cfg()).mine();
    let store = store_for(&g, "matrix", 3);
    let budget = resident_cost(g.schema(), g.node_count(), g.edge_count()) * 4;
    let matrix: &[(&'static str, FaultKind)] = &[
        ("spill.write", FaultKind::IoError),
        ("shard.load", FaultKind::IoError),
        ("shard.load", FaultKind::ShortRead),
        ("slice.load", FaultKind::IoError),
        ("slice.load", FaultKind::ShortRead),
        ("pool.evict", FaultKind::ShrinkBudget(4096)),
        ("worker.body", FaultKind::Panic),
    ];
    for &(site, kind) in matrix {
        for after in [0u64, 1, 2, 5, 50] {
            failpoint::disarm_all();
            failpoint::arm(site, after, 1, kind);
            let out = mine_sharded(
                &store,
                &cfg(),
                &ShardedOptions {
                    threads: 2,
                    memory_budget: Some(budget),
                },
            );
            failpoint::disarm_all();
            match out {
                // A schedule past the site's actual hit count injects
                // nothing — the mine must then be bit-identical.
                Ok(r) => {
                    assert_eq!(r.top, oracle.top, "{site}@{after}: wrong results");
                    assert!(
                        r.stats.shard_resident_bytes_peak <= budget,
                        "{site}@{after}: peak over budget"
                    );
                }
                Err(e) => {
                    // Typed, never an abort; partial stats (when the
                    // error carries them) also respect the budget.
                    if let Some(partial) = e.partial_stats() {
                        assert!(
                            partial.shard_resident_bytes_peak <= budget,
                            "{site}@{after}: drained peak over budget: {partial:?}"
                        );
                    }
                    match e {
                        MinerError::Graph(_) | MinerError::WorkerPanicked { .. } => {}
                        other => panic!("{site}@{after}: unexpected error {other}"),
                    }
                }
            }
        }
    }
    // The store survived the whole matrix: one final clean mine.
    let rerun = mine_sharded(&store, &cfg(), &ShardedOptions::default()).expect("final clean mine");
    assert_eq!(rerun.top, oracle.top);
    cleanup(store);
}
