//! Counting-sort partitioning — the zero-allocation, count-first engine.
//!
//! GRMiner (§V) "adopts a linear sorting method, Counting Sort, to sort and
//! get the aggregate of each partition. It sorts in O(N) time without any
//! key comparisons." This module provides that primitive as a
//! [`PartitionArena`]: the bucket histograms and a partition-record stack
//! with [`Frame`]-based windows. A pass reads its input slice and, when
//! scattered, writes a separate output buffer the caller owns; the miner
//! draws those from a pool. So once the arena and the pool have warmed up
//! to the workload's sizes, a partition pass performs **zero heap
//! allocations**, however deep the recursion (`arena_alloc.rs` asserts
//! this with a counting allocator).
//!
//! ### Count first, scatter when read
//!
//! A pass has two halves. The **count** ([`PartitionArena::count_col`])
//! reads each item's key from its column once, histograms it, and pushes
//! the records of the partitions the scatter will produce — value and
//! index range, hence every partition's size. The **scatter**
//! ([`PartitionArena::scatter`]) then moves `data` into an output buffer
//! at those ranges, rereading each key from the column. Support,
//! thresholds and scores read only the records; the sorted order is read
//! only by a child that recurses into its slice of the output. So the
//! mining recursion scatters a pass just before the first child that
//! reads its partition, and a pass whose children are all pruned, or have
//! nothing left to partition, never scatters.
//!
//! The count is one loop over the slice: each key is read once, clamped
//! to `bucket_count`, and counted. A key at or beyond `bucket_count`
//! lands in an **overflow bucket** past the last one, and the pass tests
//! that bucket once, after the loop, so no range check sits in it. When the
//! pass has at least [`STRIPES`] items per bucket, the increments rotate
//! over [`STRIPES`] independent histograms, so a run of equal keys does
//! not chain store-to-load stalls through one counter, and the stripes
//! are summed into `counts` at the end. The sum costs
//! `O(STRIPES × bucket_count)`, so a smaller pass counts in one plain
//! loop instead. Counting is order-independent: both branches give the
//! same histogram.
//!
//! The scatter is **stable** and **out of place**. Scan order is kept
//! within a partition, which keeps partition contents deterministic
//! across runs — important because the paper's rank (Def. 5) breaks ties
//! alphabetically and our tests pin exact outputs. And `data` is never
//! written: a child reads a sub-slice of its parent's output, so every
//! slice of the miner's recursion is a stable subsequence of the position
//! set it started from. Nothing is cached between the halves: no key
//! cache ties a scatter to the last count, and a pass may scatter after
//! its children's passes have counted and scattered.
//!
//! [`PartitionArena::partition_with`] runs both halves at once, in place,
//! for keys no single column holds (the EArray placement and the
//! baselines read theirs through a closure): it pairs each item with its
//! key in a buffer of its own, calling the closure once per item, counts
//! the pairs and scatters them back into `data`, through the same two
//! routines.
//!
//! ### Frames
//!
//! Partition records are pushed onto an internal stack and addressed by a
//! [`Frame`] of plain indices, so a recursive caller can copy one
//! [`PartRec`] out ([`PartitionArena::record`] — records are `Copy`),
//! recurse into its sub-slice (the recursion pushes and pops its own
//! frames above), and finally release the level with
//! [`PartitionArena::pop_frame`]. Nothing borrows the arena across the
//! recursion, and no pass allocates a result vector.
//!
//! ### Errors
//!
//! A key at or beyond `bucket_count` is a **checked error in release
//! builds** ([`GraphError::KeyOutOfRange`], naming the first offender in
//! scan order) — not a `debug_assert!` — since an oversized key would
//! otherwise corrupt the histogram. On error the arena rolls its state
//! back and stays usable, and `data` is left as it was.

use crate::error::{GraphError, Result};
use crate::value::AttrValue;
use std::ops::Range;

/// Independent histograms a count spreads its increments over, once the
/// pass has at least `STRIPES` items per bucket (module docs).
pub const STRIPES: usize = 4;

/// One partition record on the arena's stack: items whose key is `value`
/// occupy `start..end` of the partitioned slice. `Copy`, so recursive
/// callers lift it out of the arena before descending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartRec {
    /// The shared key value of the partition.
    pub value: AttrValue,
    start: u32,
    end: u32,
}

impl PartRec {
    /// The index range within the partitioned slice.
    pub fn range(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    /// Number of items in the partition (never zero as emitted).
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the partition is empty (never true as emitted).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A window of partition records on the arena's stack, produced by one
/// pass. Plain indices — nothing borrows the arena — so the holder can
/// recurse freely and must release the window with
/// [`PartitionArena::pop_frame`] when the level is done.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    start: u32,
    end: u32,
}

impl Frame {
    /// Record indices of this frame, for [`PartitionArena::record`].
    pub fn indices(&self) -> Range<u32> {
        self.start..self.end
    }

    /// Number of (non-empty) partitions the pass produced.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the pass produced no partitions (empty input).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The scratch of the counting-sort partition layer (module docs): bucket
/// histograms and the partition-record stack. Buffers only ever grow;
/// steady-state passes allocate nothing. [`PartitionArena::peak_bytes`]
/// reports the high-water mark (part of the `scratch_bytes_peak` miner
/// counter).
///
/// Internal invariant: `counts` is all-zeros between passes — a count
/// re-zeroes each bucket as it emits the bucket's record, and a scatter
/// re-zeroes the cursors of its frame's records, so a pass costs
/// `O(n + bucket_count)` without a full clear of the largest histogram
/// ever seen. The stripe scratch keeps the same discipline: a striped
/// count re-zeroes each stripe as it sums it into `counts`.
#[derive(Debug, Clone, Default)]
pub struct PartitionArena {
    /// Bucket histogram during a count, with the overflow bucket at
    /// index `bucket_count`; cursors during a scatter.
    counts: Vec<u32>,
    /// The partition-record stack, windowed by [`Frame`]s.
    records: Vec<PartRec>,
    /// The [`STRIPES`] histograms of a striped count, back to back, each
    /// with its overflow bucket (all-zero between passes).
    stripes: Vec<u32>,
    peak: usize,
}

impl PartitionArena {
    /// Fresh, empty arena (no allocations until the first pass).
    pub fn new() -> Self {
        Self::default()
    }

    /// Stable counting-sort pass keyed by a closure, both halves at once
    /// and in place, for keys no single column holds (module docs). The
    /// closure runs once per item. `bucket_count` must exceed every key
    /// (`domain_size + 1`, see [`crate::AttrDef::bucket_count`]); an
    /// out-of-range key is a [`GraphError::KeyOutOfRange`] error and
    /// leaves `data` as it was and the arena usable.
    /// The frame holds the non-empty partitions in increasing key order.
    pub fn partition_with<K>(
        &mut self,
        data: &mut [u32],
        bucket_count: usize,
        mut key: K,
    ) -> Result<Frame>
    where
        K: FnMut(u32) -> AttrValue,
    {
        // lint: allow(alloc-in-arena) — closure-keyed passes (the EArray
        // placement, the baselines) run outside the mining recursion; the
        // pairs are what keeps the pass in place with one key call per
        // item.
        let keyed: Vec<(u32, AttrValue)> = data.iter().map(|&id| (id, key(id))).collect();
        let frame = self.count(&keyed, bucket_count, |(_, k)| k)?;
        self.place(&keyed, &frame, data, |pair| pair);
        Ok(frame)
    }

    /// The count half of a pass over a contiguous key column (module
    /// docs): item `id`'s key is `col[id]` (one indexed load — the
    /// miner's columnar caches), read once. Returns the frame of the
    /// partitions [`PartitionArena::scatter`] will produce, in increasing
    /// key order. `data` is not touched; until the scatter, only the
    /// records' values and lengths describe the partitions.
    pub fn count_col(
        &mut self,
        data: &[u32],
        bucket_count: usize,
        col: &[AttrValue],
    ) -> Result<Frame> {
        self.count(data, bucket_count, |id| col[id as usize])
    }

    /// The scatter half of the pass that produced `frame`: stable-move
    /// `data` (the slice that count saw) into `out` at the frame's
    /// partition ranges, rereading each key from `col` (the column that
    /// count read), at any time before the frame is popped. `data` is not
    /// written.
    ///
    /// # Panics
    ///
    /// If `out` is not as long as `data`; in debug builds also if `data`
    /// and `col` do not hold the keys the count saw.
    pub fn scatter(&mut self, data: &[u32], frame: &Frame, col: &[AttrValue], out: &mut [u32]) {
        self.place(data, frame, out, |id| (id, col[id as usize]));
    }

    /// Copy one partition record out of a frame.
    pub fn record(&self, index: u32) -> PartRec {
        self.records[index as usize]
    }

    /// Borrow a frame's records for non-recursive iteration.
    pub fn records(&self, frame: &Frame) -> &[PartRec] {
        &self.records[frame.start as usize..frame.end as usize]
    }

    /// Release a frame, truncating the record stack back to its start.
    /// Frames must be popped in LIFO order (innermost recursion first).
    pub fn pop_frame(&mut self, frame: Frame) {
        debug_assert_eq!(self.records.len() as u32, frame.end, "non-LIFO pop");
        self.records.truncate(frame.start as usize);
    }

    /// High-water mark of the arena's owned scratch, in bytes. Stable
    /// across repeated runs of the same workload — the arena-reuse /
    /// zero-allocation guarantee made measurable.
    pub fn peak_bytes(&self) -> usize {
        self.peak
    }

    /// The count half of every pass (module docs): one loop reads each
    /// item's key once and counts it, a key at or beyond `bucket_count`
    /// in the overflow bucket; a non-empty overflow bucket fails the pass
    /// with its first offender in scan order, and otherwise the records
    /// of the partitions the scatter will produce are pushed.
    fn count<T: Copy>(
        &mut self,
        items: &[T],
        bucket_count: usize,
        key: impl Fn(T) -> AttrValue,
    ) -> Result<Frame> {
        let n = items.len();
        // lint: allow(panic-in-hot-path) — every slice a mine counts is a
        // subset of an edge set that `check_edge_capacity` capped at
        // `CompactModel::MAX_EDGES` (u32::MAX) positions before any pass.
        assert!(
            n <= u32::MAX as usize,
            "partition slices are indexed by u32 ({n} items)"
        );

        // One bucket per key value, then the overflow bucket.
        let width = bucket_count + 1;
        if self.counts.len() < width {
            self.counts.resize(width, 0);
        }
        if self.stripes.len() < STRIPES * width {
            self.stripes.resize(STRIPES * width, 0);
        }
        let bucket = |t: T| usize::from(key(t)).min(bucket_count);
        let counts = &mut self.counts[..width];
        if n >= STRIPES * bucket_count {
            let (s0, rest) = self.stripes.split_at_mut(width);
            let (s1, rest) = rest.split_at_mut(width);
            let (s2, rest) = rest.split_at_mut(width);
            let s3 = &mut rest[..width];
            let mut chunks = items.chunks_exact(STRIPES);
            for ch in &mut chunks {
                s0[bucket(ch[0])] += 1;
                s1[bucket(ch[1])] += 1;
                s2[bucket(ch[2])] += 1;
                s3[bucket(ch[3])] += 1;
            }
            for &t in chunks.remainder() {
                counts[bucket(t)] += 1;
            }
            for v in 0..width {
                counts[v] += s0[v] + s1[v] + s2[v] + s3[v];
                s0[v] = 0;
                s1[v] = 0;
                s2[v] = 0;
                s3[v] = 0;
            }
        } else {
            for &t in items {
                counts[bucket(t)] += 1;
            }
        }
        if counts[bucket_count] > 0 {
            // Cold path: roll the histogram back, and report the first
            // offender in scan order (the overflow bucket holds one).
            counts.fill(0);
            let key = items
                .iter()
                .map(|&t| key(t))
                .find(|&k| usize::from(k) >= bucket_count)
                .unwrap_or(AttrValue::MAX);
            return Err(GraphError::KeyOutOfRange { key, bucket_count });
        }
        let frame = self.emit_records(bucket_count);
        self.note_peak();
        Ok(frame)
    }

    /// The scatter half of every pass: stable-move `items` into `out` at
    /// `frame`'s ranges, `item` splitting each into the id written and
    /// the key that places it.
    fn place<T: Copy>(
        &mut self,
        items: &[T],
        frame: &Frame,
        out: &mut [u32],
        item: impl Fn(T) -> (u32, AttrValue),
    ) {
        // lint: allow(panic-in-hot-path) — the miner's `scatter_pass`
        // hands the scatter an output slice cut to its input's length, and
        // `partition_with` scatters back into the slice it counted.
        assert_eq!(
            out.len(),
            items.len(),
            "scatter into an output of another length than its input"
        );

        let records = &self.records[frame.start as usize..frame.end as usize];
        debug_assert_eq!(
            records.last().map_or(0, |r| r.end as usize),
            items.len(),
            "scatter over a slice of another length than its count"
        );
        // Each record's cursor starts at its range and ends at the range's
        // end, where it is re-zeroed.
        let counts = &mut self.counts;
        for r in records {
            counts[usize::from(r.value)] = r.start;
        }
        for &t in items {
            let (id, k) = item(t);
            let cursor = &mut counts[usize::from(k)];
            out[*cursor as usize] = id;
            *cursor += 1;
        }
        for r in records {
            let cursor = &mut counts[usize::from(r.value)];
            debug_assert_eq!(*cursor, r.end, "scatter by other keys than its count's");
            *cursor = 0;
        }
    }

    /// End a count: push one record per non-empty bucket of the
    /// histogram, in increasing value order with ranges tiling the slice,
    /// re-zeroing each bucket as it goes.
    fn emit_records(&mut self, bucket_count: usize) -> Frame {
        // cast: ≤ one record per element, and n ≤ the u32 edge cap
        let start = self.records.len() as u32;
        let mut at = 0u32;
        for (v, c) in self.counts[..bucket_count].iter_mut().enumerate() {
            if *c > 0 {
                self.records.push(PartRec {
                    value: v as AttrValue, // cast: v < bucket_count ≤ u16 domain + 1
                    start: at,
                    end: at + *c,
                });
                at += *c;
                *c = 0;
            }
        }
        Frame {
            start,
            // cast: ≤ one record per element, and n ≤ the u32 edge cap
            end: self.records.len() as u32,
        }
    }

    /// Update the high-water mark after a pass (capacities are monotone).
    fn note_peak(&mut self) {
        let bytes = self.counts.capacity() * std::mem::size_of::<u32>()
            + self.records.capacity() * std::mem::size_of::<PartRec>()
            + self.stripes.capacity() * std::mem::size_of::<u32>();
        self.peak = self.peak.max(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A count followed by its scatter into a fresh buffer of `data`'s
    /// length: the output and the frame.
    fn sorted(
        arena: &mut PartitionArena,
        data: &[u32],
        b: usize,
        col: &[u16],
    ) -> (Vec<u32>, Frame) {
        let frame = arena.count_col(data, b, col).unwrap();
        let mut out = vec![0; data.len()];
        arena.scatter(data, &frame, col, &mut out);
        (out, frame)
    }

    /// An empty pass has no key to reject: it succeeds with an empty
    /// frame for every bucket count, zero included.
    #[test]
    fn empty_input() {
        let mut arena = PartitionArena::new();
        for bucket_count in [0usize, 1, 4, 189] {
            let frame = arena.partition_with(&mut [], bucket_count, |_| 0).unwrap();
            assert!(frame.is_empty(), "bucket_count = {bucket_count}");
            arena.pop_frame(frame);
            let frame = arena.count_col(&[], bucket_count, &[]).unwrap();
            assert!(frame.is_empty(), "bucket_count = {bucket_count}");
            arena.scatter(&[], &frame, &[], &mut []);
            arena.pop_frame(frame);
        }
    }

    #[test]
    fn partitions_are_contiguous_and_sorted() {
        let mut arena = PartitionArena::new();
        let mut data = vec![0, 1, 2, 3, 4, 5, 6];
        let keys = [2u16, 0, 1, 2, 1, 0, 2];
        let frame = arena
            .partition_with(&mut data, 3, |i| keys[i as usize])
            .unwrap();
        let parts = arena.records(&frame);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].value, 0);
        assert_eq!(parts[1].value, 1);
        assert_eq!(parts[2].value, 2);
        assert_eq!(&data[parts[0].range()], &[1, 5]);
        assert_eq!(&data[parts[1].range()], &[2, 4]);
        assert_eq!(&data[parts[2].range()], &[0, 3, 6]);
        arena.pop_frame(frame);
    }

    #[test]
    fn stability_preserves_input_order_within_partition() {
        let mut arena = PartitionArena::new();
        let mut data = vec![9, 3, 7, 1];
        let frame = arena.partition_with(&mut data, 2, |_| 1).unwrap();
        assert_eq!(frame.len(), 1);
        assert_eq!(data, vec![9, 3, 7, 1]);
        assert_eq!(arena.record(frame.indices().start).len(), 4);
        arena.pop_frame(frame);
    }

    #[test]
    fn skips_empty_values() {
        let mut arena = PartitionArena::new();
        let mut data = vec![0, 1];
        let frame = arena
            .partition_with(&mut data, 10, |i| if i == 0 { 2 } else { 9 })
            .unwrap();
        let values: Vec<_> = arena.records(&frame).iter().map(|p| p.value).collect();
        assert_eq!(values, vec![2, 9]);
        arena.pop_frame(frame);
    }

    #[test]
    fn is_a_permutation() {
        let mut arena = PartitionArena::new();
        let mut data: Vec<u32> = (0..100).collect();
        let frame = arena
            .partition_with(&mut data, 7, |i| (i % 7) as u16)
            .unwrap();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        let total: usize = arena.records(&frame).iter().map(|p| p.len()).sum();
        assert_eq!(total, 100);
        arena.pop_frame(frame);
    }

    /// The in-place pass calls its key closure once per item, on either
    /// histogram branch.
    #[test]
    fn partition_with_calls_its_key_once_per_item() {
        let mut arena = PartitionArena::new();
        for n in [10u32, 1000] {
            let mut calls = 0u32;
            let mut data: Vec<u32> = (0..n).rev().collect();
            let frame = arena
                .partition_with(&mut data, 3, |i| {
                    calls += 1;
                    (i % 3) as u16
                })
                .unwrap();
            assert_eq!(calls, n);
            arena.pop_frame(frame);
        }
    }

    #[test]
    fn arena_reuse_across_sizes() {
        let mut arena = PartitionArena::new();
        let mut a: Vec<u32> = (0..10).collect();
        let frame = arena.partition_with(&mut a, 3, |i| (i % 3) as u16).unwrap();
        arena.pop_frame(frame);
        let mut b: Vec<u32> = (0..1000).collect();
        let frame = arena
            .partition_with(&mut b, 11, |i| (i % 11) as u16)
            .unwrap();
        assert_eq!(frame.len(), 11);
        let total: usize = arena.records(&frame).iter().map(|p| p.len()).sum();
        assert_eq!(total, 1000);
        arena.pop_frame(frame);
        // Going back to a smaller bucket count must not see stale counts.
        let mut c: Vec<u32> = (0..20).collect();
        let frame = arena.partition_with(&mut c, 2, |i| (i % 2) as u16).unwrap();
        let total: usize = arena.records(&frame).iter().map(|p| p.len()).sum();
        assert_eq!(total, 20);
        arena.pop_frame(frame);
        // A count that is never scattered leaves the histogram all-zero,
        // and its records still size every partition; the next pass is
        // unaffected.
        let col: Vec<u16> = (0..1000).map(|i| (i % 11) as u16).collect();
        let d: Vec<u32> = (0..1000).rev().collect();
        let frame = arena.count_col(&d, 11, &col).unwrap();
        assert!(
            arena.counts.iter().all(|&c| c == 0),
            "count left counts dirty"
        );
        let lens: Vec<usize> = arena.records(&frame).iter().map(|p| p.len()).collect();
        assert_eq!(lens, [91, 91, 91, 91, 91, 91, 91, 91, 91, 91, 90]);
        arena.pop_frame(frame);
        let (out, frame) = sorted(&mut arena, &d, 11, &col);
        assert_eq!(arena.records(&frame).len(), 11);
        assert!(out[..91].iter().all(|&id| id % 11 == 0));
        arena.pop_frame(frame);
        assert!(
            arena.counts.iter().all(|&c| c == 0),
            "scatter left cursors dirty"
        );
    }

    #[test]
    fn ranges_tile_the_slice() {
        let mut arena = PartitionArena::new();
        let mut data: Vec<u32> = (0..57).collect();
        let frame = arena
            .partition_with(&mut data, 5, |i| (i % 5) as u16)
            .unwrap();
        let mut next = 0;
        for p in arena.records(&frame) {
            assert_eq!(p.range().start, next);
            next = p.range().end;
        }
        assert_eq!(next, 57);
        arena.pop_frame(frame);
    }

    /// An out-of-range key fails the pass on either histogram branch:
    /// 10 items over 3 buckets count in the plain loop, 200 through the
    /// stripes. The error names the first offender in scan order, not
    /// the largest; `data`, `counts` and the stripes are left as they
    /// were; and the next pass is correct.
    #[test]
    fn out_of_range_key_is_an_error_and_arena_survives() {
        let mut arena = PartitionArena::new();
        for n in [10u32, 200] {
            let mut data: Vec<u32> = (0..n).collect();
            let err = arena
                .partition_with(&mut data, 3, |i| if i == 7 { 9 } else { 1 })
                .unwrap_err();
            assert_eq!(
                err,
                GraphError::KeyOutOfRange {
                    key: 9,
                    bucket_count: 3
                }
            );
            assert!(err.to_string().contains("9") && err.to_string().contains("3 buckets"));
            // Columnar too, with a larger offender after the first.
            let col: Vec<u16> = (0..n)
                .map(|i| match i {
                    4 => 3,
                    7 => 9,
                    _ => 0,
                })
                .collect();
            let err = arena.count_col(&data, 3, &col).unwrap_err();
            assert!(
                matches!(err, GraphError::KeyOutOfRange { key: 3, .. }),
                "n = {n}"
            );
            // A key equal to the bucket count is out of range too, and
            // so is the largest key there is.
            for high in [3, AttrValue::MAX] {
                let edge: Vec<u16> = (0..n)
                    .map(|i| if i == 5 { high } else { (i % 3) as u16 })
                    .collect();
                let err = arena.partition_with(&mut data, 3, |i| edge[i as usize]);
                assert_eq!(
                    err.unwrap_err(),
                    GraphError::KeyOutOfRange {
                        key: high,
                        bucket_count: 3
                    },
                    "n = {n}"
                );
            }
            assert_eq!(data, (0..n).collect::<Vec<u32>>(), "n = {n}: data moved");
            assert!(arena.counts.iter().all(|&c| c == 0), "n = {n}: counts");
            assert!(arena.stripes.iter().all(|&c| c == 0), "n = {n}: stripes");
            // The failed passes rolled back: a good pass still works, and
            // leaves the histograms all-zero too.
            let frame = arena
                .partition_with(&mut data, 3, |i| (i % 3) as u16)
                .unwrap();
            let recs = arena.records(&frame);
            assert_eq!(recs.iter().map(|r| r.len()).sum::<usize>(), n as usize);
            for r in recs {
                assert!(data[r.range()].iter().all(|&id| (id % 3) as u16 == r.value));
            }
            arena.pop_frame(frame);
            assert!(arena.counts.iter().all(|&c| c == 0), "n = {n}: counts");
            assert!(arena.stripes.iter().all(|&c| c == 0), "n = {n}: stripes");
        }
    }

    #[test]
    fn frames_nest_like_a_recursion() {
        // Two-level manual recursion exercising the frame stack: partition
        // by i % 3, then each partition by i % 2, checking LIFO pops.
        let mut arena = PartitionArena::new();
        let mut data: Vec<u32> = (0..30).collect();
        let outer = arena
            .partition_with(&mut data, 3, |i| (i % 3) as u16)
            .unwrap();
        assert_eq!(outer.len(), 3);
        for idx in outer.indices() {
            let part = arena.record(idx);
            let sub = &mut data[part.range()];
            let inner = arena.partition_with(sub, 2, |i| (i % 2) as u16).unwrap();
            for j in inner.indices() {
                let p = arena.record(j);
                for &id in &sub[p.range()] {
                    assert_eq!((id % 2) as u16, p.value);
                }
            }
            arena.pop_frame(inner);
            for &id in sub.iter() {
                assert_eq!((id % 3) as u16, part.value);
            }
        }
        arena.pop_frame(outer);
    }

    /// Nothing ties a scatter to the last count: a pass scatters
    /// correctly after a child pass over part of its slice has counted,
    /// scattered and been popped, and it leaves its input as it was.
    #[test]
    fn a_scatter_may_follow_other_passes() {
        let mut arena = PartitionArena::new();
        let col: Vec<u16> = (0..40).map(|i| (i * 7 % 3) as u16).collect();
        let data: Vec<u32> = (0..40).rev().collect();
        let outer = arena.count_col(&data, 3, &col).unwrap();
        let (_, inner) = sorted(&mut arena, &data[..10], 3, &col);
        arena.pop_frame(inner);
        let mut out = vec![0; data.len()];
        arena.scatter(&data, &outer, &col, &mut out);
        let mut oracle = data.clone();
        oracle.sort_by_key(|&id| col[id as usize]);
        assert_eq!(out, oracle);
        assert_eq!(data, (0..40).rev().collect::<Vec<u32>>(), "input moved");
        arena.pop_frame(outer);
    }

    /// The scatter writes exactly its input's length: an output of
    /// another length is a caller bug it rejects before moving anything.
    #[test]
    #[should_panic(expected = "output of another length")]
    fn scatter_into_an_output_of_another_length_panics() {
        let mut arena = PartitionArena::new();
        let col: Vec<u16> = (0..40).map(|i| (i % 3) as u16).collect();
        let data: Vec<u32> = (0..40).collect();
        let frame = arena.count_col(&data, 3, &col).unwrap();
        let mut out = vec![0; 41];
        arena.scatter(&data, &frame, &col, &mut out);
    }

    /// A count followed by its scatter is the one-shot pass: a columnar
    /// count and the closure pass produce the same order and records, on
    /// both histogram branches — striped (n = 1013 and 300, at least
    /// `STRIPES` items per bucket) and plain (n = 50 over 23 buckets) —
    /// and the columnar pass leaves its input as it was.
    #[test]
    fn kernel_and_scalar_passes_are_bit_identical() {
        for n in [1013u32, 300, 50] {
            let col: Vec<u16> = (0..n).map(|i| (i * 7 % 23) as u16).collect();
            let base: Vec<u32> = (0..n).map(|i| (i * 31) % n).collect();
            let mut arena = PartitionArena::new();
            let mut one_shot = base.clone();
            let f = arena
                .partition_with(&mut one_shot, 23, |id| col[id as usize])
                .unwrap();
            let one_shot_recs = arena.records(&f).to_vec();
            arena.pop_frame(f);
            let f = arena.count_col(&base, 23, &col).unwrap();
            let counted_recs = arena.records(&f).to_vec();
            let mut out = vec![0; base.len()];
            arena.scatter(&base, &f, &col, &mut out);
            assert_eq!(
                arena.records(&f),
                &counted_recs[..],
                "a scatter changes no record"
            );
            arena.pop_frame(f);
            assert_eq!(
                out, one_shot,
                "n = {n}: count + scatter is the one-shot pass"
            );
            assert_eq!(base, (0..n).map(|i| (i * 31) % n).collect::<Vec<_>>());
            assert_eq!(counted_recs, one_shot_recs, "n = {n}");
        }
    }

    #[test]
    fn peak_bytes_is_stable_across_repeated_workloads() {
        let mut arena = PartitionArena::new();
        let col: Vec<u16> = (0..5000).map(|i| (i % 189) as u16).collect();
        let data: Vec<u32> = (0..5000).collect();
        let mut out = vec![0; data.len()];
        let mut run = |arena: &mut PartitionArena| {
            let f = arena.count_col(&data, 189, &col).unwrap();
            arena.scatter(&data, &f, &col, &mut out);
            arena.pop_frame(f);
        };
        run(&mut arena);
        let after_first = arena.peak_bytes();
        assert!(after_first > 0);
        for _ in 0..10 {
            run(&mut arena);
        }
        assert_eq!(
            arena.peak_bytes(),
            after_first,
            "steady-state passes must not grow the arena"
        );
    }
}
