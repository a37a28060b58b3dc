//! Micro-benchmarks for the substrate primitives: counting-sort
//! partitioning (§V), compact-model and single-table construction (§IV-A),
//! single-GR query evaluation (Remark 3) and dataset generation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use grm_bench::{fixture, Dataset};
use grm_core::beta::heff_table;
use grm_core::{query, GrBuilder};
use grm_datagen::{generate, pokec_config_scaled};
use grm_graph::sort::PartitionArena;
use grm_graph::{AttrValue, CompactModel, NodeAttrId, SingleTable};

/// The pre-PR partition primitive, reimplemented for the before/after
/// comparison: per call it allocates the offsets, cursor and scatter
/// vectors plus the returned partition `Vec` (what the partition
/// primitive did before the arena).
fn legacy_partition(
    data: &mut [u32],
    bucket_count: usize,
    counts: &mut Vec<u32>,
    keybuf: &mut Vec<u32>,
    col: &[AttrValue],
) -> Vec<(AttrValue, std::ops::Range<usize>)> {
    counts.clear();
    counts.resize(bucket_count, 0);
    keybuf.clear();
    keybuf.reserve(data.len());
    for &id in data.iter() {
        let k = col[id as usize];
        counts[k as usize] += 1;
        keybuf.push(k as u32);
    }
    let mut offsets = Vec::with_capacity(bucket_count);
    let mut acc = 0u32;
    for &c in counts.iter() {
        offsets.push(acc);
        acc += c;
    }
    let mut cursor = offsets.clone();
    let mut out = vec![0u32; data.len()];
    for (i, &id) in data.iter().enumerate() {
        let k = keybuf[i] as usize;
        out[cursor[k] as usize] = id;
        cursor[k] += 1;
    }
    data.copy_from_slice(&out);
    let mut parts = Vec::new();
    for (v, &c) in counts.iter().enumerate() {
        if c > 0 {
            let start = offsets[v] as usize;
            parts.push((v as AttrValue, start..start + c as usize));
        }
    }
    parts
}

/// The tentpole's before/after cells: the allocating pre-PR primitive vs
/// the arena pass (on the 188-value Pokec `Region` domain), and a
/// two-level (parent + children) partition on a narrow parent (small
/// parent domain, so children are large). The `_leaf` cell makes the
/// children count-only, as the miner runs the first pass of a RIGHT
/// chain; `arena_count_only` is the `arena` pass without its scatter,
/// also at n = 600, below the count's stripe threshold
/// (`STRIPES × 189` = 756), so each histogram branch has a cell. The
/// fused two-level pass is gone, and its `two_level_fused_leaf` cell
/// with it.
fn bench_partition_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition");
    for n in [10_000usize, 100_000] {
        group.throughput(Throughput::Elements(n as u64));
        let col: Vec<AttrValue> = (0..n).map(|i| (i % 188 + 1) as u16).collect();
        let narrow: Vec<AttrValue> = (0..n).map(|i| (i % 5 + 1) as u16).collect();
        let next: Vec<AttrValue> = (0..n).map(|i| (i * 7 % 5) as u16).collect();
        let base: Vec<u32> = (0..n as u32).map(|i| (i * 31) % n as u32).collect();

        group.bench_with_input(BenchmarkId::new("alloc_per_call", n), &n, |b, _| {
            let mut counts = Vec::new();
            let mut keybuf = Vec::new();
            let mut data = base.clone();
            b.iter(|| {
                data.copy_from_slice(&base);
                legacy_partition(&mut data, 189, &mut counts, &mut keybuf, &col)
            });
        });
        group.bench_with_input(BenchmarkId::new("arena", n), &n, |b, _| {
            let mut arena = PartitionArena::new();
            let mut data = base.clone();
            b.iter(|| {
                data.copy_from_slice(&base);
                let frame = arena.partition_col(&mut data, 189, &col).unwrap();
                let parts = frame.len();
                arena.pop_frame(frame);
                parts
            });
        });
        group.bench_with_input(BenchmarkId::new("arena_count_only", n), &n, |b, _| {
            let mut arena = PartitionArena::new();
            let mut data = base.clone();
            b.iter(|| {
                data.copy_from_slice(&base);
                let frame = arena.count_col(&data, 189, &col).unwrap();
                let parts = frame.len();
                arena.pop_frame(frame);
                parts
            });
        });
        // Two-level cells: partition by a narrow parent dimension, then
        // every child partition by the next dimension — the RIGHT-chain
        // shape.
        group.bench_with_input(BenchmarkId::new("two_level_unfused", n), &n, |b, _| {
            let mut arena = PartitionArena::new();
            let mut data = base.clone();
            b.iter(|| {
                data.copy_from_slice(&base);
                let frame = arena.partition_col(&mut data, 6, &narrow).unwrap();
                let mut total = 0usize;
                for idx in frame.indices() {
                    let part = arena.record(idx);
                    let sub = &mut data[part.range()];
                    let child = arena.partition_col(sub, 5, &next).unwrap();
                    total += child.len();
                    arena.pop_frame(child);
                }
                arena.pop_frame(frame);
                total
            });
        });
        group.bench_with_input(BenchmarkId::new("two_level_unfused_leaf", n), &n, |b, _| {
            let mut arena = PartitionArena::new();
            let mut data = base.clone();
            b.iter(|| {
                data.copy_from_slice(&base);
                let frame = arena.partition_col(&mut data, 6, &narrow).unwrap();
                let mut total = 0usize;
                for idx in frame.indices() {
                    let part = arena.record(idx);
                    let child = arena.count_col(&data[part.range()], 5, &next).unwrap();
                    total += child.len();
                    arena.pop_frame(child);
                }
                arena.pop_frame(frame);
                total
            });
        });
    }
    // The count-only pass below the stripe threshold: 600 positions over
    // 189 buckets count in the plain loop.
    let n = 600usize;
    group.throughput(Throughput::Elements(n as u64));
    let col: Vec<AttrValue> = (0..n).map(|i| (i % 188 + 1) as u16).collect();
    let data: Vec<u32> = (0..n as u32).map(|i| (i * 31) % n as u32).collect();
    group.bench_with_input(BenchmarkId::new("arena_count_only", n), &n, |b, _| {
        let mut arena = PartitionArena::new();
        b.iter(|| {
            let frame = arena.count_col(&data, 189, &col).unwrap();
            let parts = frame.len();
            arena.pop_frame(frame);
            parts
        });
    });
    group.finish();
}

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
    group.bench_function("compact_model", |b| b.iter(|| CompactModel::build(&graph)));
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
    let mut group = c.benchmark_group("query");
    group.throughput(Throughput::Elements(graph.edge_count() as u64));
    group.bench_function("evaluate_single_gr", |b| {
        b.iter(|| query::evaluate(&graph, &gr))
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
    // The r_key indirection (EArray Ptr -> RArray row -> attribute cell)
    // is the hottest lookup of the RIGHT recursion.
    let graph = fixture(Dataset::Pokec, 0.05);
    let model = CompactModel::build(&graph);
    let positions = model.all_positions();
    let mut group = c.benchmark_group("key_lookup");
    group.throughput(Throughput::Elements(positions.len() as u64));
    group.bench_function("r_key_scan", |b| {
        b.iter(|| {
            positions
                .iter()
                .map(|&p| model.keys().r_key(p, NodeAttrId(2)) as u64)
                .sum::<u64>()
        })
    });
    group.bench_function("l_key_scan", |b| {
        b.iter(|| {
            positions
                .iter()
                .map(|&p| model.keys().l_key(p, NodeAttrId(2)) as u64)
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
    let model = CompactModel::build(&graph);
    let schema = graph.schema();
    let pairs: Vec<(NodeAttrId, AttrValue)> = schema
        .node_attr_ids()
        .filter(|&a| schema.node_attr(a).is_homophily())
        .map(|a| (a, 1))
        .collect();
    assert!(pairs.len() >= 2, "Pokec has multiple homophily attributes");
    let snapshot = model.all_positions();
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
                    .filter(|&&p| needed.iter().all(|&(a, v)| model.keys().r_key(p, a) == v))
                    .count() as u64;
            }
            total
        })
    });
    group.bench_function("group_by_table", |b| {
        b.iter(|| {
            let table = heff_table(&snapshot, &pairs, |a| model.keys().r_col(a));
            table[1..].iter().sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_partition_engine,
    bench_counting_sort,
    bench_model_builds,
    bench_query,
    bench_generator,
    bench_heff_keys,
    bench_heff_supports
);
criterion_main!(benches);
