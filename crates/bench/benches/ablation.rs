//! Ablations of the miner's main design choices:
//!
//! * dynamic top-k bound on/off (GRMiner(k) vs GRMiner);
//! * generality filter on/off;
//! * nhp pruning vs support-only (emulating a BUC-style traversal by
//!   setting min_score to 0 with a huge k);
//! * sequential vs parallel miner at 1/2/4/8 threads;
//! * lift mining, whose `supp(r)` marginals the shared context serves
//!   from one precomputed table instead of per-task rescans.
//!
//! The `fused_partition_off` and `scalar_kernel_off` cells are gone with
//! the fused partition passes and the kernels-off mode they measured.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grm_bench::{fixture, Dataset};
use grm_core::parallel::{try_mine_parallel_with_opts, ParallelOptions};
use grm_core::{Dims, GrMiner, MinerConfig, RankMetric};
use grm_graph::NodeAttrId;

fn bench(c: &mut Criterion) {
    let graph = fixture(Dataset::Pokec, 0.05);
    let dims = Dims::subset(
        graph.schema(),
        &[NodeAttrId(1), NodeAttrId(2), NodeAttrId(3), NodeAttrId(4)],
        &[],
    );
    let base = MinerConfig::nhp(30, 0.5, 100);

    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    group.bench_function("dynamic_topk_on", |b| {
        b.iter(|| GrMiner::with_dims(&graph, base.clone(), dims.clone()).mine())
    });
    group.bench_function("dynamic_topk_off", |b| {
        let cfg = base.clone().without_dynamic_topk();
        b.iter(|| GrMiner::with_dims(&graph, cfg.clone(), dims.clone()).mine())
    });
    group.bench_function("generality_off", |b| {
        let cfg = MinerConfig {
            generality_filter: false,
            ..base.clone()
        };
        b.iter(|| GrMiner::with_dims(&graph, cfg.clone(), dims.clone()).mine())
    });
    group.bench_function("score_pruning_off", |b| {
        // Support-only pruning: what the search costs without Theorem 3.
        let cfg = MinerConfig {
            min_score: 0.0,
            k: usize::MAX >> 1,
            dynamic_topk: false,
            ..base.clone()
        };
        b.iter(|| GrMiner::with_dims(&graph, cfg.clone(), dims.clone()).mine())
    });
    // Lift needs an RHS marginal per candidate; the shared context
    // precomputes the single-attribute table once per run and shares the
    // multi-attribute memo across parallel tasks.
    let lift = MinerConfig {
        min_score: f64::NEG_INFINITY,
        dynamic_topk: false,
        ..base.clone().with_metric(RankMetric::Lift)
    };
    group.bench_function("lift_marginals_seq", |b| {
        b.iter(|| GrMiner::with_dims(&graph, lift.clone(), dims.clone()).mine())
    });
    group.bench_with_input(
        BenchmarkId::new("lift_marginals_par", 4),
        &4usize,
        |b, &t| {
            b.iter(|| {
                try_mine_parallel_with_opts(
                    &graph,
                    &lift,
                    &dims,
                    ParallelOptions {
                        threads: t,
                        ..ParallelOptions::default()
                    },
                )
                .expect("an uncancellable mine cannot fail")
            })
        },
    );
    // Parallel scaling, with and without dominant-task splitting: the
    // delta at high thread counts is the granularity bound the split
    // removes (Pokec's Region dominates the unsplit task list).
    for split_dominant in [false, true] {
        for threads in [1usize, 2, 4, 8] {
            if split_dominant && threads == 1 {
                // A single-threaded pool never splits; this cell would
                // duplicate parallel/1.
                continue;
            }
            let cfg = base.clone().without_dynamic_topk();
            let tag = if split_dominant {
                "parallel_split"
            } else {
                "parallel"
            };
            group.bench_with_input(BenchmarkId::new(tag, threads), &threads, |b, &t| {
                b.iter(|| {
                    try_mine_parallel_with_opts(
                        &graph,
                        &cfg,
                        &dims,
                        ParallelOptions {
                            threads: t,
                            split_dominant,
                            ..ParallelOptions::default()
                        },
                    )
                    .expect("an uncancellable mine cannot fail")
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
