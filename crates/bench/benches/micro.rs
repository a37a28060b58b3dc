//! Micro-benchmarks for the substrate primitives: counting-sort
//! partitioning (§V), key-column and single-table construction (§IV-A),
//! key loads and the β group-by, single-GR query evaluation (Remark 3),
//! row-major and over key columns, and dataset generation. The partition
//! engine's before/after cells are `bench_json --group partition`'s.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grm_bench::{fixture, Dataset};
use grm_core::beta::heff_table;
use grm_core::{query, GrBuilder};
use grm_datagen::{generate, pokec_config_scaled};
use grm_graph::sort::PartitionArena;
use grm_graph::{AttrValue, KeyColumns, NodeAttrId, SingleTable};

fn bench_counting_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("counting_sort");
    for n in [1_000usize, 10_000, 100_000] {
        group.throughput(Throughput::Elements(n as u64));
        // Partition by a 188-value key (the Pokec Region domain).
        group.bench_with_input(BenchmarkId::new("region_domain", n), &n, |b, &n| {
            let base: Vec<u32> = (0..n as u32).collect();
            let mut scratch = PartitionArena::new();
            b.iter(|| {
                let mut data = base.clone();
                let frame = scratch
                    .partition_with(&mut data, 189, |i| (i % 188 + 1) as u16)
                    .unwrap();
                let parts = frame.len();
                scratch.pop_frame(frame);
                parts
            });
        });
    }
    group.finish();
}

fn bench_model_builds(c: &mut Criterion) {
    let graph = fixture(Dataset::Pokec, 0.05);
    let mut group = c.benchmark_group("model_build");
    group.sample_size(20);
    group.throughput(Throughput::Elements(graph.edge_count() as u64));
    group.bench_function("key_columns", |b| {
        b.iter(|| KeyColumns::build(&graph).unwrap())
    });
    group.bench_function("single_table", |b| b.iter(|| SingleTable::build(&graph)));
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let graph = fixture(Dataset::Pokec, 0.05);
    let gr = GrBuilder::new(graph.schema())
        .l("Education", "Basic")
        .r("Education", "Secondary")
        .build()
        .unwrap();
    let keys = KeyColumns::build(&graph).unwrap();
    let mut group = c.benchmark_group("query");
    group.throughput(Throughput::Elements(graph.edge_count() as u64));
    // Row-major: the scan `grmine query` runs, through the node table.
    group.bench_function("evaluate_single_gr", |b| {
        b.iter(|| query::evaluate(&graph, &gr))
    });
    // Columnar: the blocked mask count `grmined` runs over the key
    // columns it holds resident.
    group.bench_function("counts_key_columns", |b| {
        b.iter(|| query::counts(graph.schema(), &keys, &gr))
    });
    group.finish();
}

fn bench_generator(c: &mut Criterion) {
    let mut group = c.benchmark_group("datagen");
    group.sample_size(10);
    let cfg = pokec_config_scaled(0.02);
    group.throughput(Throughput::Elements(cfg.edges as u64));
    group.bench_function("pokec_scale_0_02", |b| b.iter(|| generate(&cfg).unwrap()));
    group.finish();
}

fn bench_heff_keys(c: &mut Criterion) {
    // The r_key load is the hottest lookup of the RIGHT recursion.
    let graph = fixture(Dataset::Pokec, 0.05);
    let keys = KeyColumns::build(&graph).unwrap();
    let positions: Vec<u32> = (0..keys.edge_count() as u32).collect();
    let mut group = c.benchmark_group("key_lookup");
    group.throughput(Throughput::Elements(positions.len() as u64));
    group.bench_function("r_key_scan", |b| {
        b.iter(|| {
            positions
                .iter()
                .map(|&p| keys.r_key(p, NodeAttrId(2)) as u64)
                .sum::<u64>()
        })
    });
    group.bench_function("l_key_scan", |b| {
        b.iter(|| {
            positions
                .iter()
                .map(|&p| keys.l_key(p, NodeAttrId(2)) as u64)
                .sum::<u64>()
        })
    });
    group.finish();
}

fn bench_heff_supports(c: &mut Criterion) {
    // The homophily-effect supports of one l∧w node: the seed re-filtered
    // the whole snapshot once per distinct β; the shared-context miner
    // fills every β support with one group-by counting pass
    // (`grm_core::beta::heff_table`). Both variants compute the supports
    // of all non-empty β over the full edge set.
    let graph = fixture(Dataset::Pokec, 0.05);
    let keys = KeyColumns::build(&graph).unwrap();
    let schema = graph.schema();
    let pairs: Vec<(NodeAttrId, AttrValue)> = schema
        .node_attr_ids()
        .filter(|&a| schema.node_attr(a).is_homophily())
        .map(|a| (a, 1))
        .collect();
    assert!(pairs.len() >= 2, "Pokec has multiple homophily attributes");
    let snapshot: Vec<u32> = (0..keys.edge_count() as u32).collect();
    let betas = (1u32 << pairs.len()) - 1;
    let mut group = c.benchmark_group("heff");
    group.throughput(Throughput::Elements(snapshot.len() as u64 * betas as u64));
    group.bench_function("per_beta_rescan", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for mask in 1..=betas {
                let needed: Vec<(NodeAttrId, AttrValue)> = pairs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &p)| p)
                    .collect();
                total += snapshot
                    .iter()
                    .filter(|&&p| needed.iter().all(|&(a, v)| keys.r_key(p, a) == v))
                    .count() as u64;
            }
            total
        })
    });
    group.bench_function("group_by_table", |b| {
        b.iter(|| {
            let table = heff_table(&snapshot, &pairs, |a| keys.r_col(a));
            table[1..].iter().sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_counting_sort,
    bench_model_builds,
    bench_query,
    bench_generator,
    bench_heff_keys,
    bench_heff_supports
);
criterion_main!(benches);
