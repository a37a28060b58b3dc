//! Thread scaling of the work-stealing parallel engine on the
//! Region-skewed Pokec workload — the scenario the engine exists for:
//!
//! * `steal/T` — the full engine (deques, steal-half, dynamic subtree
//!   splitting, shared top-k bound) at T threads;
//! * `seq` — the sequential GRMiner(k) reference (the same engine at
//!   one worker).
//!
//! All cells produce bit-identical results; only the wall clock moves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grm_bench::{fixture, Dataset};
use grm_core::parallel::{try_mine_parallel_with_opts, ParallelOptions};
use grm_core::{Dims, GrMiner, MinerConfig};

fn bench(c: &mut Criterion) {
    let graph = fixture(Dataset::Pokec, 0.05);
    let dims = Dims::all(graph.schema());
    let base = MinerConfig::nhp(30, 0.5, 100);

    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);

    group.bench_function("seq", |b| {
        b.iter(|| GrMiner::new(&graph, base.clone()).mine())
    });

    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("steal", threads), &threads, |b, &t| {
            b.iter(|| {
                try_mine_parallel_with_opts(
                    &graph,
                    &base,
                    &dims,
                    ParallelOptions {
                        threads: t,
                        ..ParallelOptions::default()
                    },
                )
                .expect("an uncancellable mine cannot fail")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
