//! The zero-allocation guarantee of the partition engine, asserted with a
//! counting allocator: after one warm-up pass over a workload, driving a
//! full mining-shaped recursion (counts, lazy scatters, count-only
//! leaves, varied slice sizes and bucket counts) through a
//! [`PartitionArena`] performs **zero** heap allocations — per recursion
//! node and in total. The same allocator bounds what loading one value
//! slice of a shard store costs: its edges' key columns, never a copy of
//! the store's node table, and one set of chunk buffers however many
//! chunks the slice spans.

use grm_graph::shard::{ShardStoreWriter, SliceKey, SliceSet};
use grm_graph::sort::PartitionArena;
use grm_graph::{AttrValue, CompactModel, EdgeAttrId, SchemaBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, with every allocation and reallocation counted, in calls
/// and in bytes.
struct CountingAlloc;

thread_local! {
    /// Per thread: the test harness's own threads (and sibling tests)
    /// allocate while a test runs, and a process-wide count would put
    /// their allocations inside the steady-state measurement window.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by this thread's allocations and reallocations.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // Fails only while this thread's locals are being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes allocated so far by the calling thread.
fn bytes() -> u64 {
    BYTES.with(Cell::get)
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

#[test]
fn loading_a_small_slice_allocates_less_than_the_node_table() {
    let nodes = 50_000usize;
    let schema = SchemaBuilder::new()
        .node_attr("A", 4, true)
        .node_attr("B", 3, false)
        .edge_attr("W", 2)
        .build()
        .unwrap();
    let node_table_bytes = (nodes * schema.node_attr_count() * 2) as u64;
    let dir = std::env::temp_dir().join(format!("grm-slice-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut w = ShardStoreWriter::create(schema, &dir, 2, CompactModel::MAX_EDGES).unwrap();
    for i in 0..nodes {
        w.add_node(&[(i % 5) as AttrValue, (i % 4) as AttrValue])
            .unwrap();
    }
    // Ten edges carry W = 1 (the slice under test), a thousand W = 2.
    for e in 0..1010u32 {
        let value = if e < 10 { 1 } else { 2 };
        w.add_edge(e * 7, e * 13 + 1, &[value]).unwrap();
    }
    let store = w.finish().unwrap();
    let set = SliceSet::build(&store, SliceKey::Edge(EdgeAttrId(0)), dir.join("slices")).unwrap();
    assert_eq!(set.edge_count(1), 10);

    let before = bytes();
    let keys = set.load_keys(1).unwrap();
    let loaded = bytes() - before;
    assert_eq!(keys.edge_count(), 10);
    assert!(
        loaded < node_table_bytes,
        "loading a 10-edge slice allocated {loaded} bytes, one node table is {node_table_bytes}"
    );
    drop(set);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loading_a_multi_chunk_slice_allocates_its_columns_and_one_chunk_buffer_set() {
    // Spill files hold chunks of 4 096 edges (the writers' chunk size).
    const CHUNK_EDGES: usize = 4096;
    let schema = SchemaBuilder::new()
        .node_attr("A", 4, true)
        .node_attr("B", 3, false)
        .edge_attr("W", 2)
        .build()
        .unwrap();
    let (na, ea) = (schema.node_attr_count(), schema.edge_attr_count());
    let dir = std::env::temp_dir().join(format!("grm-slice-chunks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut w = ShardStoreWriter::create(schema, &dir, 2, CompactModel::MAX_EDGES).unwrap();
    let nodes = 1000u32;
    for i in 0..nodes {
        w.add_node(&[(i % 5) as AttrValue, (i % 4) as AttrValue])
            .unwrap();
    }
    // Five chunks' worth but one hundred edges carry W = 1 (the slice
    // under test), every fifth of the rest W = 2.
    let slice = 5 * CHUNK_EDGES - 100;
    for e in 0..(slice * 5 / 4) as u32 {
        let value = if e % 5 == 4 { 2 } else { 1 };
        w.add_edge(e % nodes, (e * 7 + 1) % nodes, &[value])
            .unwrap();
    }
    let store = w.finish().unwrap();
    let set = SliceSet::build(&store, SliceKey::Edge(EdgeAttrId(0)), dir.join("slices")).unwrap();
    assert_eq!(set.edge_count(1), slice as u64);

    let before = bytes();
    let keys = set.load_keys(1).unwrap();
    let loaded = bytes() - before;
    assert_eq!(keys.edge_count(), slice);
    // The key columns, plus at most four chunks' worth of buffers: the
    // decoder's byte buffer and decoded columns are allocated once for
    // the file, not once per chunk.
    let columns = (slice * (2 * na + ea) * 2) as u64;
    let chunk = (CHUNK_EDGES * (8 + 2 * ea)) as u64;
    assert!(
        loaded <= columns + 4 * chunk,
        "loading a 5-chunk slice allocated {loaded} bytes: {columns} of key columns and {} more, over 4 chunk buffers of {chunk}",
        loaded - columns.min(loaded)
    );
    drop(set);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
