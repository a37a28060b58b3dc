//! The zero-allocation guarantee of the partition engine, asserted with a
//! counting allocator: after one warm-up pass over a workload, driving a
//! full mining-shaped recursion (counts, lazy scatters, count-only
//! leaves, varied slice sizes and bucket counts) through a
//! [`PartitionArena`] performs **zero** heap allocations — per recursion
//! node and in total.

use grm_graph::sort::PartitionArena;
use grm_graph::AttrValue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, with every allocation and reallocation counted.
struct CountingAlloc;

thread_local! {
    /// Per thread: the test harness's own threads (and sibling tests)
    /// allocate while a test runs, and a process-wide count would put
    /// their allocations inside the steady-state measurement window.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // Fails only while this thread's locals are being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Synthetic columnar workload: `dims` key columns over `n` positions,
/// deterministic values, mixed domain sizes.
fn columns(n: usize, dims: usize) -> Vec<Vec<AttrValue>> {
    (0..dims)
        .map(|d| {
            let domain = [3usize, 7, 19, 5][d % 4];
            (0..n)
                .map(|i| ((i * (d * 2 + 3) + d) % domain) as AttrValue)
                .collect()
        })
        .collect()
}

/// A mining-shaped recursion, in the miner's count-first shape: count by
/// `cols[depth]`, and scatter only before the first partition that reads
/// its slice. Odd-valued partitions stand in for the miner's support and
/// score pruning and never read theirs, and a pass on the last column is
/// a count-only leaf, as the first pass of a RIGHT chain is: its children
/// have nothing left to partition. Returns a checksum so nothing is
/// optimized out.
fn recurse(
    arena: &mut PartitionArena,
    data: &mut [u32],
    cols: &[Vec<AttrValue>],
    buckets: &[usize],
    depth: usize,
) -> u64 {
    let mut sum = 0u64;
    let leaf = depth + 1 == cols.len();
    let frame = arena.count_col(data, buckets[depth], &cols[depth]).unwrap();
    let mut scattered = false;
    for idx in frame.indices() {
        let part = arena.record(idx);
        sum += part.value as u64 * part.len() as u64;
        if leaf || part.value % 2 == 1 {
            continue;
        }
        if !scattered {
            scattered = true;
            arena.scatter(data, &frame);
        }
        sum += recurse(arena, &mut data[part.range()], cols, buckets, depth + 1);
    }
    arena.pop_frame(frame);
    sum
}

#[test]
fn steady_state_recursion_allocates_nothing() {
    let n = 20_000usize;
    let cols = columns(n, 4);
    let buckets: Vec<usize> = [3, 7, 19, 5].to_vec();
    let mut arena = PartitionArena::new();
    let mut data: Vec<u32> = (0..n as u32).collect();

    // Warm-up: grows every arena buffer to this workload's sizes.
    let warm = recurse(&mut arena, &mut data, &cols, &buckets, 0);
    let peak = arena.peak_bytes();
    assert!(peak > 0);

    // Steady state: repeat the full recursion; the allocator must not be
    // touched once, and the arena must not grow.
    data.clear();
    data.extend(0..n as u32);
    let before = allocs();
    let again = recurse(&mut arena, &mut data, &cols, &buckets, 0);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state partition recursion performed heap allocations"
    );
    assert_eq!(warm, again, "recursion must be deterministic");
    assert_eq!(arena.peak_bytes(), peak, "arena grew after warm-up");
}

#[test]
fn partitions_stay_correct_under_reuse() {
    // Same harness, smaller, with output verification: after the full
    // recursion the data is sorted by the composite key prefix.
    let n = 3_000usize;
    let cols = columns(n, 3);
    let buckets: Vec<usize> = [3, 7, 19].to_vec();
    let mut arena = PartitionArena::new();
    let mut data: Vec<u32> = (0..n as u32).collect();
    recurse(&mut arena, &mut data, &cols, &buckets, 0);
    // The first-level partition dominates the final order.
    for w in data.windows(2) {
        assert!(cols[0][w[0] as usize] <= cols[0][w[1] as usize]);
    }
    let mut sorted: Vec<u32> = data.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>(), "permutation");
}
