//! `bench_json` — machine-readable perf numbers for the CI trajectory.
//!
//! One cell group, `partition`, selected with `--group` (plain `Instant`
//! timing — no criterion, so the output shape is stable and trivially
//! diffable across commits): the partition-engine micro cells
//! (allocating legacy primitive vs arena pass vs count-only arena pass,
//! and the two-level shapes: full child passes, and count-only children,
//! as the miner runs the first pass of a RIGHT chain). The count-only
//! pass runs at n = 600 too, below the count's stripe threshold
//! (`STRIPES × 189` = 756), so each histogram branch has a cell. These
//! are the partition engine's only before/after cells: the Criterion
//! `micro` bench keeps no copy of them.
//! End-to-end and out-of-core timings come from the repo benchmark,
//! `perfbench/` (its `mine-inmem` and `mine-outofcore` workloads), which
//! also checks every answer.
//!
//! ```text
//! bench_json [--group partition] [out.json]
//! # default: BENCH_partition.json
//! ```
//!
//! Schema (`grm-bench-<group>/1`): `results[]` of
//! `{group, bench, n, median_ns, ns_per_item}`, medians over a handful
//! of timed repetitions after a warm-up (`n` is the input size the cell
//! works over). Consumers key on `(group, bench, n)` — append new cells,
//! never repurpose old names. No longer emitted: `two_level_fused` and
//! `two_level_fused_leaf` (the arena has no fused two-level pass),
//! `count_pass_scalar` (the arena has no kernels-off mode), the whole
//! `kernel` group — `hist_scalar_b8`, `hist_swar_b8`,
//! `hist_scalar_b189`, `hist_swar_b189`, `gather_scalar`,
//! `gather_kernel` and `count_pass_kernel` — whose SWAR kernels are gone
//! (the arena's count is one routine; `partition/arena` times the pass
//! `count_pass_kernel` timed), and the `parallel` and `shard` groups,
//! which re-timed what `perfbench` times without its answer checks.

use grm_bench::Table;
use grm_graph::sort::PartitionArena;
use grm_graph::AttrValue;
use std::time::Instant;

/// Timed repetitions per micro cell (median reported).
const SAMPLES: usize = 15;

struct Cell {
    group: &'static str,
    bench: &'static str,
    n: usize,
    median_ns: u128,
}

fn median_ns(mut f: impl FnMut() -> u64) -> u128 {
    // One warm-up (grows arenas, faults pages), then `SAMPLES` timed
    // runs.
    let mut sink = f();
    let mut times: Vec<u128> = (0..SAMPLES)
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

/// The pre-PR partition primitive — the baseline the arena is measured
/// against: `counts`/`keybuf` are reused scratch (the old `SortScratch`), while
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
    }

    // The count-only pass below the stripe threshold: 600 positions over
    // 189 buckets count in the plain loop.
    let n = 600usize;
    let col: Vec<AttrValue> = (0..n).map(|i| (i % 188 + 1) as u16).collect();
    let data: Vec<u32> = (0..n as u32).map(|i| (i * 31) % n as u32).collect();
    let mut arena = PartitionArena::new();
    cells.push(Cell {
        group: "partition",
        bench: "arena_count_only",
        n,
        median_ns: median_ns(|| {
            let frame = arena.count_col(&data, 189, &col).unwrap();
            let parts = frame.len() as u64;
            arena.pop_frame(frame);
            parts
        }),
    });
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
                eprintln!("--group is missing its value (partition)");
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
        eprintln!("unknown flag `{flagish}` (usage: bench_json [--group partition] [out.json])");
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
        other => {
            eprintln!("unknown --group `{other}` (expected partition)");
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
