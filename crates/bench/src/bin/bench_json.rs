//! `bench_json` — machine-readable perf numbers for the CI trajectory.
//!
//! Three cell groups, selected with `--group` (plain `Instant` timing —
//! no criterion, so the output shape is stable and trivially diffable
//! across commits):
//!
//! * `partition` (default) — the partition-engine micro cells
//!   (allocating legacy primitive vs arena pass vs count-only arena pass,
//!   and the two-level shapes: unfused with full child passes, and
//!   unfused vs fused with count-only children, as the miner runs the
//!   first pass of a RIGHT chain);
//! * `kernel` — the vectorized counting-kernel cells (scalar histogram
//!   vs SWAR stripes, scalar vs batched gather, and the full arena
//!   counting pass with the kernels on/off — the micro before/after of
//!   the `scalar_kernel_off` ablation);
//! * `parallel` — end-to-end thread scaling of the work-stealing miner
//!   on full-dims Pokec: sequential GRMiner(k) and GRMiner, and the
//!   work-stealing engine at 1/2/4 threads;
//! * `shard` — the sharded out-of-core engine on the same Pokec
//!   fixture: spill-store build cost, the sharded mine at 1/4 shards and
//!   1/4 workers, and the 4-shard mine under a whole-graph memory
//!   budget — the out-of-core overhead relative to the in-core mine.
//!
//! ```text
//! bench_json [--group partition|kernel|parallel|shard] [out.json]
//! # defaults: --group partition → BENCH_partition.json
//! #           --group kernel    → BENCH_kernel.json
//! #           --group parallel  → BENCH_parallel.json
//! #           --group shard     → BENCH_shard.json
//! ```
//!
//! Schema (`grm-bench-<group>/1`): `results[]` of
//! `{group, bench, n, median_ns, ns_per_item}`, medians over a handful
//! of timed repetitions after a warm-up (`n` is the input size the cell
//! works over — items for micro cells, edges for mining cells).
//! Consumers key on `(group, bench, n)` — append new cells, never
//! repurpose old names. `two_level_fused` (fused parent, children
//! scattered from a pre-counted histogram) is no longer emitted: the
//! arena has no pre-counted scatter since passes became count-first;
//! `two_level_fused_leaf` times the fused shape the miner runs now.

use grm_bench::{fixture, Dataset, Table};
use grm_core::parallel::{try_mine_parallel_with_opts, ParallelOptions};
use grm_core::{Dims, GrMiner, MinerConfig};
use grm_graph::kernel;
use grm_graph::sort::PartitionArena;
use grm_graph::AttrValue;
use std::time::Instant;

/// Timed repetitions per micro cell (median reported).
const SAMPLES: usize = 15;

/// Timed repetitions per end-to-end mining cell — each run is a full
/// mine over the Pokec fixture, so fewer samples suffice for a stable
/// median.
const MINE_SAMPLES: usize = 9;

struct Cell {
    group: &'static str,
    bench: &'static str,
    n: usize,
    median_ns: u128,
}

fn median_ns_over(samples: usize, mut f: impl FnMut() -> u64) -> u128 {
    // One warm-up (grows arenas, faults pages), then `samples` timed
    // runs.
    let mut sink = f();
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            sink = sink.wrapping_add(f());
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    // Keep the checksum observable so the work cannot be optimized away.
    if sink == u64::MAX {
        eprintln!("checksum {sink}");
    }
    times[times.len() / 2]
}

fn median_ns(f: impl FnMut() -> u64) -> u128 {
    median_ns_over(SAMPLES, f)
}

/// The pre-PR partition primitive — the baseline the arena is measured
/// against; mirrors the cell in `benches/micro.rs` exactly:
/// `counts`/`keybuf` are reused scratch (the old `SortScratch`), while
/// offsets, cursor, the scatter buffer and the result Vec are allocated
/// per call.
fn legacy_partition(
    data: &mut [u32],
    bucket_count: usize,
    counts: &mut Vec<u32>,
    keybuf: &mut Vec<u32>,
    col: &[AttrValue],
) -> u64 {
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
    counts.iter().filter(|&&c| c > 0).count() as u64
}

fn partition_cells() -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::new();

    for n in [10_000usize, 100_000] {
        let col: Vec<AttrValue> = (0..n).map(|i| (i % 188 + 1) as u16).collect();
        let narrow: Vec<AttrValue> = (0..n).map(|i| (i % 5 + 1) as u16).collect();
        let next: Vec<AttrValue> = (0..n).map(|i| (i * 7 % 5) as u16).collect();
        let base: Vec<u32> = (0..n as u32).map(|i| (i * 31) % n as u32).collect();

        let mut data = base.clone();
        let mut counts = Vec::new();
        let mut keybuf = Vec::new();
        cells.push(Cell {
            group: "partition",
            bench: "alloc_per_call",
            n,
            median_ns: median_ns(|| {
                data.copy_from_slice(&base);
                legacy_partition(&mut data, 189, &mut counts, &mut keybuf, &col)
            }),
        });

        let mut arena = PartitionArena::new();
        let mut data = base.clone();
        cells.push(Cell {
            group: "partition",
            bench: "arena",
            n,
            median_ns: median_ns(|| {
                data.copy_from_slice(&base);
                let frame = arena.partition_col(&mut data, 189, &col).unwrap();
                let parts = frame.len() as u64;
                arena.pop_frame(frame);
                parts
            }),
        });

        let mut arena = PartitionArena::new();
        let mut data = base.clone();
        cells.push(Cell {
            group: "partition",
            bench: "arena_count_only",
            n,
            median_ns: median_ns(|| {
                data.copy_from_slice(&base);
                let frame = arena.count_col(&data, 189, &col).unwrap();
                let parts = frame.len() as u64;
                arena.pop_frame(frame);
                parts
            }),
        });

        let mut arena = PartitionArena::new();
        let mut data = base.clone();
        cells.push(Cell {
            group: "partition",
            bench: "two_level_unfused",
            n,
            median_ns: median_ns(|| {
                data.copy_from_slice(&base);
                let frame = arena.partition_col(&mut data, 6, &narrow).unwrap();
                let mut total = 0u64;
                for idx in frame.indices() {
                    let part = arena.record(idx);
                    let sub = &mut data[part.range()];
                    let child = arena.partition_col(sub, 5, &next).unwrap();
                    total += child.len() as u64;
                    arena.pop_frame(child);
                }
                arena.pop_frame(frame);
                total
            }),
        });

        let mut arena = PartitionArena::new();
        let mut data = base.clone();
        cells.push(Cell {
            group: "partition",
            bench: "two_level_unfused_leaf",
            n,
            median_ns: median_ns(|| {
                data.copy_from_slice(&base);
                let frame = arena.partition_col(&mut data, 6, &narrow).unwrap();
                let mut total = 0u64;
                for idx in frame.indices() {
                    let part = arena.record(idx);
                    let child = arena.count_col(&data[part.range()], 5, &next).unwrap();
                    total += child.len() as u64;
                    arena.pop_frame(child);
                }
                arena.pop_frame(frame);
                total
            }),
        });

        let mut arena = PartitionArena::new();
        let mut data = base.clone();
        cells.push(Cell {
            group: "partition",
            bench: "two_level_fused_leaf",
            n,
            median_ns: median_ns(|| {
                data.copy_from_slice(&base);
                let frame = arena.count_col(&data, 6, &narrow).unwrap();
                let level = arena.scatter_fused(&mut data, &frame, &next, 5).unwrap();
                let mut total = 0u64;
                for idx in frame.indices() {
                    let hist = arena.child_hist(level, arena.record(idx));
                    let child = arena.partition_pre_counted(5, hist);
                    total += child.len() as u64;
                    arena.pop_frame(child);
                }
                arena.pop_fused(level);
                arena.pop_frame(frame);
                total
            }),
        });
    }
    cells
}

/// The counting-kernel micro cells: scalar histogram vs the SWAR
/// striped histogram (8- and 189-bucket domains), scalar vs batched
/// gather with the hoisted range check, and the full arena counting
/// pass with the kernels on and off.
fn kernel_cells() -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::new();
    for n in [10_000usize, 100_000] {
        for (buckets, scalar_name, swar_name) in [
            (8usize, "hist_scalar_b8", "hist_swar_b8"),
            (189, "hist_scalar_b189", "hist_swar_b189"),
        ] {
            let keys: Vec<AttrValue> = (0..n).map(|i| ((i * 7) % buckets) as u16).collect();
            let mut counts = vec![0u32; buckets];
            cells.push(Cell {
                group: "kernel",
                bench: scalar_name,
                n,
                median_ns: median_ns(|| {
                    counts.iter_mut().for_each(|c| *c = 0);
                    for &k in &keys {
                        counts[k as usize] += 1;
                    }
                    counts[buckets / 2] as u64
                }),
            });
            let mut counts = vec![0u32; buckets];
            let mut stripes = vec![0u32; kernel::STRIPES * buckets];
            cells.push(Cell {
                group: "kernel",
                bench: swar_name,
                n,
                median_ns: median_ns(|| {
                    counts.iter_mut().for_each(|c| *c = 0);
                    kernel::histogram_u32(&keys, &mut counts, &mut stripes);
                    counts[buckets / 2] as u64
                }),
            });
        }

        let col: Vec<AttrValue> = (0..n).map(|i| (i % 188 + 1) as u16).collect();
        let data: Vec<u32> = (0..n as u32).map(|i| (i * 31) % n as u32).collect();
        let mut keys = vec![0u16; n];
        cells.push(Cell {
            group: "kernel",
            bench: "gather_scalar",
            n,
            median_ns: median_ns(|| {
                let mut max = 0u16;
                for (k, &id) in keys.iter_mut().zip(&data) {
                    let v = col[id as usize];
                    max = max.max(v);
                    *k = v;
                }
                max as u64
            }),
        });
        let mut keys = vec![0u16; n];
        cells.push(Cell {
            group: "kernel",
            bench: "gather_kernel",
            n,
            median_ns: median_ns(|| kernel::gather_keys(&data, &col, &mut keys).0 as u64),
        });

        for (bench, on) in [("count_pass_scalar", false), ("count_pass_kernel", true)] {
            let mut arena = PartitionArena::new();
            arena.set_kernel_enabled(on);
            let mut d = data.clone();
            cells.push(Cell {
                group: "kernel",
                bench,
                n,
                median_ns: median_ns(|| {
                    d.copy_from_slice(&data);
                    let frame = arena.partition_col(&mut d, 189, &col).unwrap();
                    let parts = frame.len() as u64;
                    arena.pop_frame(frame);
                    parts
                }),
            });
        }
    }
    cells
}

/// End-to-end thread scaling on full-dims Pokec (minSupp 30, k 100, nhp
/// — the ablation bench's configuration): the sequential miners and the
/// work-stealing engine at 1/2/4 threads, plus 4 threads at minNhp 0.2.
/// `n` is the edge count.
fn parallel_cells() -> Vec<Cell> {
    let graph = fixture(Dataset::Pokec, 0.05);
    let dims = Dims::all(graph.schema());
    let base = MinerConfig::nhp(30, 0.5, 100);
    let n = graph.edge_count() as usize;
    let mut cells: Vec<Cell> = Vec::new();

    let mine_cell = |bench: &'static str, cfg: MinerConfig, opts: Option<ParallelOptions>| Cell {
        group: "parallel",
        bench,
        n,
        median_ns: median_ns_over(MINE_SAMPLES, || {
            let r = match opts {
                Some(o) => try_mine_parallel_with_opts(&graph, &cfg, &dims, o)
                    .expect("an uncancellable mine cannot fail"),
                None => GrMiner::with_dims(&graph, cfg.clone(), dims.clone()).mine(),
            };
            r.top.len() as u64 + r.stats.grs_examined
        }),
    };

    cells.push(mine_cell("seq_dynamic", base.clone(), None));
    cells.push(mine_cell(
        "seq_static",
        base.clone().without_dynamic_topk(),
        None,
    ));
    for (bench, threads) in [
        ("steal_threads_1", 1usize),
        ("steal_threads_2", 2),
        ("steal_threads_4", 4),
    ] {
        cells.push(mine_cell(
            bench,
            base.clone(),
            Some(ParallelOptions {
                threads,
                ..ParallelOptions::default()
            }),
        ));
    }
    // Low-threshold cell (minNhp 0.2): here the user threshold prunes
    // little and the shared dynamic bound carries the run.
    cells.push(mine_cell(
        "steal_threads_4_minnhp02",
        MinerConfig::nhp(30, 0.2, 100),
        Some(ParallelOptions {
            threads: 4,
            ..ParallelOptions::default()
        }),
    ));
    cells
}

/// The sharded out-of-core engine on the Pokec fixture (minSupp 30,
/// k 100, nhp — the ablation configuration): the in-core sequential
/// mine as the baseline, the one-off spill-store build, and the sharded
/// mine across shard/worker counts, including a run capped at the
/// whole-graph resident cost (every unit fits alone, so the pool must
/// juggle residency instead of erroring). `n` is the edge count.
fn shard_cells() -> Vec<Cell> {
    use grm_core::{mine_sharded, ShardedOptions};
    use grm_graph::shard::{resident_cost, ShardStore};

    let graph = fixture(Dataset::Pokec, 0.05);
    let base = MinerConfig::nhp(30, 0.5, 100);
    let n = graph.edge_count() as usize;
    let root = std::env::temp_dir().join(format!("grm-bench-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cells: Vec<Cell> = Vec::new();

    cells.push(Cell {
        group: "shard",
        bench: "in_core_seq",
        n,
        median_ns: median_ns_over(MINE_SAMPLES, || {
            let r = GrMiner::new(&graph, base.clone()).mine();
            r.top.len() as u64 + r.stats.grs_examined
        }),
    });

    cells.push(Cell {
        group: "shard",
        bench: "store_build_4",
        n,
        median_ns: median_ns_over(MINE_SAMPLES, || {
            let d = root.join("build");
            let _ = std::fs::remove_dir_all(&d);
            let store =
                ShardStore::build_from_graph(&graph, &d, 4, grm_graph::CompactModel::MAX_EDGES)
                    .unwrap();
            store.total_edges()
        }),
    });

    let store1 = ShardStore::build_from_graph(
        &graph,
        root.join("s1"),
        1,
        grm_graph::CompactModel::MAX_EDGES,
    )
    .unwrap();
    let store4 = ShardStore::build_from_graph(
        &graph,
        root.join("s4"),
        4,
        grm_graph::CompactModel::MAX_EDGES,
    )
    .unwrap();
    let whole_graph_budget = resident_cost(graph.schema(), graph.node_count(), n);
    for (bench, store, threads, memory_budget) in [
        ("sharded_1_seq", &store1, 1usize, None),
        ("sharded_4_seq", &store4, 1, None),
        ("sharded_4_threads_4", &store4, 4, None),
        (
            "sharded_4_threads_4_budgeted",
            &store4,
            4,
            Some(whole_graph_budget),
        ),
    ] {
        cells.push(Cell {
            group: "shard",
            bench,
            n,
            median_ns: median_ns_over(MINE_SAMPLES, || {
                let opts = ShardedOptions {
                    threads,
                    memory_budget,
                };
                let r = mine_sharded(store, &base, &opts).unwrap();
                r.top.len() as u64 + r.stats.shard_loads
            }),
        });
    }
    drop(store1);
    drop(store4);
    let _ = std::fs::remove_dir_all(&root);
    cells
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().filter(|a| *a == "--group").count() > 1 {
        eprintln!("--group given more than once");
        std::process::exit(2);
    }
    let group = match args.iter().position(|a| a == "--group") {
        Some(i) => match args.get(i + 1) {
            Some(g) => g.clone(),
            None => {
                eprintln!("--group is missing its value (partition|kernel|parallel|shard)");
                std::process::exit(2);
            }
        },
        None => "partition".to_string(),
    };
    let positional: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| a != "--group" && !(i > 0 && args[i - 1] == "--group"))
        .map(|(_, a)| a)
        .collect();
    // A mistyped flag must fail, not become the output filename.
    if let Some(flagish) = positional.iter().find(|a| a.starts_with('-')) {
        eprintln!(
            "unknown flag `{flagish}` (usage: bench_json [--group partition|kernel|parallel|shard] [out.json])"
        );
        std::process::exit(2);
    }
    if positional.len() > 1 {
        eprintln!("at most one output path expected, got {positional:?}");
        std::process::exit(2);
    }
    let out_path = positional
        .first()
        .map(|a| a.to_string())
        .unwrap_or_else(|| format!("BENCH_{group}.json"));
    let cells = match group.as_str() {
        "partition" => partition_cells(),
        "kernel" => kernel_cells(),
        "parallel" => parallel_cells(),
        "shard" => shard_cells(),
        other => {
            eprintln!("unknown --group `{other}` (expected partition|kernel|parallel|shard)");
            std::process::exit(2);
        }
    };

    // JSON by hand: the shape is flat and the vendored serde stub would
    // add nothing but indirection here.
    let mut json = format!("{{\n  \"schema\": \"grm-bench-{group}/1\",\n  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let per_item = c.median_ns as f64 / c.n as f64;
        json.push_str(&format!(
            "    {{\"group\": \"{}\", \"bench\": \"{}\", \"n\": {}, \"median_ns\": {}, \"ns_per_item\": {:.3}}}{}\n",
            c.group,
            c.bench,
            c.n,
            c.median_ns,
            per_item,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }

    // Human-readable echo for the CI log.
    let mut table = Table::new(["group/bench", "n", "median_ns", "ns/item"]);
    for c in &cells {
        table.row([
            format!("{}/{}", c.group, c.bench),
            c.n.to_string(),
            c.median_ns.to_string(),
            format!("{:.3}", c.median_ns as f64 / c.n as f64),
        ]);
    }
    println!("{}", table.render());
    eprintln!("wrote {out_path}");
}
