//! Counting-sort partitioning — the zero-allocation fused engine.
//!
//! GRMiner (§V) "adopts a linear sorting method, Counting Sort, to sort and
//! get the aggregate of each partition. It sorts in O(N) time without any
//! key comparisons." This module provides that primitive as a
//! [`PartitionArena`]: one object owning **all** scratch of the mining
//! recursion — the bucket histogram, the per-item key cache, the scatter
//! buffer, a partition-record stack with [`Frame`]-based windows, and a
//! stack of *fused* child histograms — so that once the arena has warmed up
//! to the workload's sizes, a partition pass performs **zero heap
//! allocations**, however deep the recursion (`arena_alloc.rs` asserts this
//! with a counting allocator).
//!
//! Every pass is **stable** (scatter in scan order), which keeps partition
//! contents deterministic across runs — important because the paper's rank
//! (Def. 5) breaks ties alphabetically and our tests pin exact outputs.
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
//! ### Fused two-level passes
//!
//! The mining recursion almost always knows which dimension a child will
//! partition next (the first dynamic RHS dimension — Eqn. 8). A *fused*
//! pass ([`PartitionArena::partition_col_fused`]) therefore, while
//! scattering the parent's partitions, (1) builds the histogram of the
//! **next** dimension for every child at once and (2) caches each item's
//! next-dimension key *in scattered order*. The child consumes both with
//! [`PartitionArena::partition_pre_counted`]: no counting phase and **no
//! column gathers at all** — its keys stream sequentially out of the
//! parent's cache — one memory pass over the child data instead of two,
//! with the random column loads paid once instead of twice. Outputs are
//! bit-identical to the unfused pass: a histogram is order-independent,
//! and the scatter order is unchanged.
//!
//! ### Errors
//!
//! A key at or beyond `bucket_count` is a **checked error in release
//! builds** ([`GraphError::KeyOutOfRange`]) — not a `debug_assert!` — since
//! an oversized key would otherwise corrupt the histogram. On error the
//! arena rolls its state back and stays usable.

use crate::error::{GraphError, Result};
use crate::kernel;
use crate::value::AttrValue;
use std::ops::Range;

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

/// Handle to one level of fused child histograms plus the scattered-order
/// next-key cache, returned by [`PartitionArena::partition_col_fused`].
/// Addresses `parent_buckets × next_buckets` counters and `len` cached
/// keys on the arena's fused stacks; release with
/// [`PartitionArena::pop_fused`] after the partition loop.
#[derive(Debug, Clone, Copy)]
pub struct FusedLevel {
    base: usize,
    keys_base: usize,
    len: usize,
    parent_buckets: u32,
    next_buckets: u32,
}

/// One child partition's pre-counted histogram and key-cache window,
/// carved out of a [`FusedLevel`] by [`PartitionArena::child_hist`].
/// Consumed (destroyed) by [`PartitionArena::partition_pre_counted`].
#[derive(Debug, Clone, Copy)]
pub struct FusedHist {
    offset: usize,
    keys_at: usize,
    buckets: usize,
}

impl FusedHist {
    /// Bucket count the histogram was counted for — the consuming pass
    /// must use the same.
    pub fn buckets(&self) -> usize {
        self.buckets
    }
}

/// All scratch of the counting-sort partition layer (module docs): bucket
/// histogram, key cache, scatter buffer, partition-record stack, fused
/// child-histogram stack. Buffers only ever grow; steady-state passes
/// allocate nothing. [`PartitionArena::peak_bytes`] reports the high-water
/// mark (the `scratch_bytes_peak` miner counter).
///
/// Internal invariant: `counts` is all-zeros between passes — each pass
/// re-zeroes exactly the buckets it touched while emitting records, so a
/// pass costs `O(n + bucket_count)` without a full clear of the largest
/// histogram ever seen. The kernel stripe scratch keeps the same
/// discipline (see [`kernel::histogram_u32`]).
#[derive(Debug, Clone)]
pub struct PartitionArena {
    /// Bucket histogram, then (in place) prefix offsets, then cursors.
    counts: Vec<u32>,
    /// Per-item key cache: each key function / column load runs once.
    keys: Vec<AttrValue>,
    /// Scatter buffer (copied back into the caller's slice — stable).
    scatter: Vec<u32>,
    /// The partition-record stack, windowed by [`Frame`]s.
    records: Vec<PartRec>,
    /// The fused child-histogram stack, windowed by [`FusedLevel`]s.
    fused: Vec<u32>,
    fused_top: usize,
    /// Scattered-order next-key cache per fused level (same discipline).
    fused_keys: Vec<AttrValue>,
    fused_keys_top: usize,
    /// Per-lane histogram scratch of the counting kernel
    /// ([`kernel::STRIPES`] stripes; all-zero between passes).
    stripes: Vec<u32>,
    /// Route hot loops through the batch kernels (`grm_graph::kernel`).
    /// On by default; outputs are bit-identical either way, so the
    /// toggle exists for the `scalar_kernel_off` ablation and the
    /// differential oracles.
    use_kernel: bool,
    /// Full kernel batches processed since the last
    /// [`PartitionArena::take_kernel_batches`].
    kernel_batches: u64,
    peak: usize,
}

impl Default for PartitionArena {
    fn default() -> Self {
        // lint: allow(alloc-in-arena) — construction site, not a pass:
        // every buffer starts empty (no capacity) and warms up in place.
        PartitionArena {
            counts: Vec::new(),
            keys: Vec::new(),
            scatter: Vec::new(),
            records: Vec::new(),
            fused: Vec::new(),
            fused_top: 0,
            fused_keys: Vec::new(),
            fused_keys_top: 0,
            stripes: Vec::new(),
            use_kernel: true,
            kernel_batches: 0,
            peak: 0,
        }
    }
}

impl PartitionArena {
    /// Fresh, empty arena (no allocations until the first pass), with
    /// the batch kernels enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable or disable the batch kernels for subsequent passes.
    /// Outputs are bit-identical either way (the scalar loops are kept
    /// as the ablation/differential baseline).
    pub fn set_kernel_enabled(&mut self, on: bool) {
        self.use_kernel = on;
    }

    /// Whether passes currently run through the batch kernels.
    pub fn kernel_enabled(&self) -> bool {
        self.use_kernel
    }

    /// Drain the accumulated count of full [`kernel::LANES`]-wide
    /// batches processed by kernel-backed loops (the miner's
    /// `kernel_batches` counter; resets to zero).
    pub fn take_kernel_batches(&mut self) -> u64 {
        std::mem::take(&mut self.kernel_batches)
    }

    /// Stable counting-sort pass keyed by a closure, for keys no single
    /// column holds (the baselines read theirs through a table view);
    /// columnar passes should prefer [`PartitionArena::partition_col`].
    /// `bucket_count` must exceed every key (`domain_size + 1`, see
    /// [`crate::AttrDef::bucket_count`]); an out-of-range key is a
    /// [`GraphError::KeyOutOfRange`] error and leaves the arena usable.
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
        self.prepare(data.len(), bucket_count);
        let n = data.len();
        // Fill and validate the key cache first (the closure is opaque
        // to the kernels), then count it positionally — on a bad key the
        // histogram was never touched, so the all-zeros invariant holds.
        for (i, &id) in data.iter().enumerate() {
            let k = key(id);
            if (k as usize) >= bucket_count {
                return Err(GraphError::KeyOutOfRange {
                    key: k,
                    bucket_count,
                });
            }
            self.keys[i] = k;
        }
        self.count_keys(n, bucket_count);
        let frame = self.scatter_and_emit(data, bucket_count);
        self.note_peak();
        Ok(frame)
    }

    /// Stable counting-sort pass keyed by a conjunction match mask over
    /// columnar `(column, value)` pairs: item `id`'s key has bit `i` set
    /// iff `pairs[i].0[id as usize] == pairs[i].1` — the β group-by of
    /// `grm_core::beta`, vectorized one dimension at a time through
    /// [`kernel::mask_eq_accumulate`]. The bucket count is
    /// `1 << pairs.len()`; every mask lies below it by construction, so
    /// the pass cannot fail. At most 15 pairs (the mask must fit an
    /// [`AttrValue`]); columns must cover every id in `data`.
    pub fn partition_mask_cols(
        &mut self,
        data: &mut [u32],
        pairs: &[(&[AttrValue], AttrValue)],
    ) -> Frame {
        assert!(
            pairs.len() < AttrValue::BITS as usize,
            "match masks are AttrValue-wide ({} pairs)",
            pairs.len()
        );
        let bucket_count = 1usize << pairs.len();
        self.prepare(data.len(), bucket_count);
        let n = data.len();
        self.keys[..n].fill(0);
        if self.use_kernel && kernel::batching_pays_off(n) {
            for (bit, &(col, v)) in pairs.iter().enumerate() {
                self.kernel_batches +=
                    // cast: bit < pairs.len() ≤ AttrValue::BITS = 16
                    kernel::mask_eq_accumulate(data, col, v, bit as u32, &mut self.keys[..n]);
            }
        } else {
            for (i, &id) in data.iter().enumerate() {
                let mut mask: AttrValue = 0;
                for (bit, &(col, v)) in pairs.iter().enumerate() {
                    mask |= AttrValue::from(col[id as usize] == v) << bit;
                }
                self.keys[i] = mask;
            }
        }
        self.count_keys(n, bucket_count);
        let frame = self.scatter_and_emit(data, bucket_count);
        self.note_peak();
        frame
    }

    /// Stable counting-sort pass over a contiguous key column: item `id`'s
    /// key is `col[id]` (one indexed load — the miner's columnar caches).
    /// The counting loop is chunked so the eight gather loads of a chunk
    /// issue independently of the histogram increments.
    pub fn partition_col(
        &mut self,
        data: &mut [u32],
        bucket_count: usize,
        col: &[AttrValue],
    ) -> Result<Frame> {
        self.prepare(data.len(), bucket_count);
        self.count_col(data, bucket_count, col)?;
        let frame = self.scatter_and_emit(data, bucket_count);
        self.note_peak();
        Ok(frame)
    }

    /// Fused two-level pass (module docs): partition `data` by `col` and,
    /// while scattering, count each child partition's histogram over
    /// `next_col` **and** cache each item's next key in scattered order,
    /// into a fresh [`FusedLevel`]. Children consume both via
    /// [`PartitionArena::child_hist`] +
    /// [`PartitionArena::partition_pre_counted`]; the caller pops the
    /// level with [`PartitionArena::pop_fused`] after its partition loop.
    pub fn partition_col_fused(
        &mut self,
        data: &mut [u32],
        bucket_count: usize,
        col: &[AttrValue],
        next_col: &[AttrValue],
        next_buckets: usize,
    ) -> Result<(Frame, FusedLevel)> {
        if next_buckets == 0 && !data.is_empty() {
            // Deterministic bail before any arena state is touched: a
            // zero-bucket next dimension cannot key any item. Report the
            // first item's *actual* key; a next column that does not
            // even cover the data is its own error — never a fabricated
            // key 0 (which downstream cost models would mistake for a
            // real NULL key).
            return Err(match next_col.get(data[0] as usize) {
                Some(&key) => GraphError::KeyOutOfRange {
                    key,
                    bucket_count: 0,
                },
                None => GraphError::ColumnTooShort {
                    len: next_col.len(),
                    index: data[0] as usize,
                },
            });
        }
        self.prepare(data.len(), bucket_count);
        self.count_col(data, bucket_count, col)?;
        let n = data.len();
        // Push a zeroed histogram level and an (uninitialized — every
        // slot is written exactly once) next-key level.
        let base = self.fused_top;
        let size = bucket_count * next_buckets;
        if self.fused.len() < base + size {
            self.fused.resize(base + size, 0);
        }
        self.fused[base..base + size].fill(0);
        self.fused_top = base + size;
        let keys_base = self.fused_keys_top;
        if self.fused_keys.len() < keys_base + n {
            self.fused_keys.resize(keys_base + n, 0);
        }
        self.fused_keys_top = keys_base + n;
        // Prefix offsets, then scatter while counting and caching the
        // next dimension. Slice-local views keep the hot loop's bounds
        // arithmetic simple; the key-range check is branchless (clamp +
        // sticky flag) so it never breaks the loop's pipelining — the
        // cold rollback below discards anything a clamped key touched.
        self.prefix(bucket_count);
        let mut bad = false;
        {
            let counts = &mut self.counts[..bucket_count];
            let keys = &self.keys[..n];
            let scatter = &mut self.scatter[..n];
            let fused = &mut self.fused[base..base + size];
            let fused_keys = &mut self.fused_keys[keys_base..keys_base + n];
            if self.use_kernel && kernel::batching_pays_off(n) {
                let (b, batches) = kernel::scatter_with_count(
                    data,
                    keys,
                    counts,
                    scatter,
                    next_col,
                    next_buckets,
                    fused,
                    fused_keys,
                );
                bad = b;
                self.kernel_batches += batches;
            } else {
                let clamp = next_buckets.saturating_sub(1);
                for i in 0..n {
                    let id = data[i];
                    let k = keys[i] as usize;
                    let dst = counts[k] as usize;
                    counts[k] += 1;
                    scatter[dst] = id;
                    let nk = next_col[id as usize] as usize;
                    bad |= nk > clamp;
                    let nk = nk.min(clamp);
                    fused[k * next_buckets + nk] += 1;
                    fused_keys[dst] = nk as AttrValue; // cast: nk ≤ clamp < next_buckets ≤ u16 domain
                }
            }
        }
        if bad {
            // Roll back: cursors are dirty and the level is garbage.
            // lint: allow(panic-in-hot-path) — cold error-recovery scan:
            // `bad` was set by exactly this predicate one loop earlier, so
            // the offender must still be found on the re-scan.
            let key = data
                .iter()
                .map(|&id| next_col[id as usize])
                .find(|&nk| nk as usize >= next_buckets)
                .expect("a key beyond the clamp set the flag");
            self.counts.iter_mut().for_each(|c| *c = 0);
            self.fused_top = base;
            self.fused_keys_top = keys_base;
            return Err(GraphError::KeyOutOfRange {
                key,
                bucket_count: next_buckets,
            });
        }
        data.copy_from_slice(&self.scatter[..n]);
        let frame = self.emit_records(bucket_count);
        self.note_peak();
        Ok((
            frame,
            FusedLevel {
                base,
                keys_base,
                len: n,
                parent_buckets: bucket_count as u32, // cast: bucket counts ≤ u16 domain + 1
                next_buckets: next_buckets as u32,   // cast: bucket counts ≤ u16 domain + 1
            },
        ))
    }

    /// The pre-counted histogram and key-cache window of one child
    /// partition (`part`, a record of the pass that produced `level`).
    pub fn child_hist(&self, level: FusedLevel, part: PartRec) -> FusedHist {
        debug_assert!((part.value as u32) < level.parent_buckets);
        debug_assert!(part.end as usize <= level.len, "record outside level");
        FusedHist {
            offset: level.base + part.value as usize * level.next_buckets as usize,
            keys_at: level.keys_base + part.start as usize,
            buckets: level.next_buckets as usize,
        }
    }

    /// Stable counting-sort pass that consumes a child histogram and key
    /// cache produced by the parent's fused pass: no counting phase and no
    /// key-column loads — the keys stream sequentially out of the cache
    /// (which is why no column argument exists). The histogram is
    /// destroyed; each [`FusedHist`] may be consumed once, on exactly the
    /// sub-slice its [`PartRec`] described.
    pub fn partition_pre_counted(
        &mut self,
        data: &mut [u32],
        bucket_count: usize,
        hist: FusedHist,
    ) -> Frame {
        debug_assert_eq!(hist.buckets, bucket_count, "histogram/bucket mismatch");
        debug_assert_eq!(
            self.fused[hist.offset..hist.offset + bucket_count]
                .iter()
                .map(|&c| c as usize)
                .sum::<usize>(),
            data.len(),
            "pre-counted histogram does not cover the slice"
        );
        self.prepare(data.len(), bucket_count);
        // Prefix offsets in place within the fused slice, then scatter by
        // the cached keys (validated < bucket_count by the producer; a
        // misused handle still lands on the slice bounds checks below).
        let mut acc = 0u32;
        for c in &mut self.fused[hist.offset..hist.offset + bucket_count] {
            let v = *c;
            *c = acc;
            acc += v;
        }
        let n = data.len();
        for (i, &id) in data.iter().enumerate() {
            let k = self.fused_keys[hist.keys_at + i] as usize;
            let cursor = &mut self.fused[hist.offset + k];
            self.scatter[*cursor as usize] = id;
            *cursor += 1;
        }
        data.copy_from_slice(&self.scatter[..n]);
        // Emit records from the fused cursors (now partition ends).
        // cast: ≤ one record per element, and n ≤ the u32 edge cap
        let start = self.records.len() as u32;
        let mut prev = 0u32;
        for v in 0..bucket_count {
            let end = self.fused[hist.offset + v];
            if end > prev {
                self.records.push(PartRec {
                    value: v as AttrValue, // cast: v < bucket_count ≤ u16 domain + 1
                    start: prev,
                    end,
                });
            }
            prev = end;
        }
        self.note_peak();
        Frame {
            start,
            // cast: ≤ one record per element, and n ≤ the u32 edge cap
            end: self.records.len() as u32,
        }
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

    /// Release a fused level. LIFO, after the producing partition loop.
    pub fn pop_fused(&mut self, level: FusedLevel) {
        debug_assert_eq!(
            self.fused_top,
            level.base + level.parent_buckets as usize * level.next_buckets as usize,
            "non-LIFO fused pop"
        );
        debug_assert_eq!(self.fused_keys_top, level.keys_base + level.len);
        self.fused_top = level.base;
        self.fused_keys_top = level.keys_base;
    }

    /// High-water mark of the arena's owned scratch, in bytes. Stable
    /// across repeated runs of the same workload — the arena-reuse /
    /// zero-allocation guarantee made measurable.
    pub fn peak_bytes(&self) -> usize {
        self.peak
    }

    /// Grow the per-pass buffers; `counts` keeps its all-zeros invariant
    /// (`resize` only appends zeros).
    fn prepare(&mut self, n: usize, bucket_count: usize) {
        assert!(
            n <= u32::MAX as usize,
            "partition slices are indexed by u32 ({n} items)"
        );
        if self.counts.len() < bucket_count {
            self.counts.resize(bucket_count, 0);
        }
        if self.keys.len() < n {
            self.keys.resize(n, 0);
        }
        if self.scatter.len() < n {
            self.scatter.resize(n, 0);
        }
        if self.use_kernel {
            let want = kernel::STRIPES * bucket_count;
            if self.stripes.len() < want {
                self.stripes.resize(want, 0);
            }
        }
    }

    /// Counting phase over a contiguous key column. With the kernels on
    /// and a slice large enough for the stripes to pay
    /// ([`kernel::stripes_pay_off`]): one gather pass fills the key
    /// cache and returns the key maximum (the range check hoisted out
    /// of the loop), then the striped histogram counts the cache
    /// positionally — on a bad key the histogram was never touched, and
    /// the first offender in scan order is recovered from the cache for
    /// the error (cold path). Small passes — the bulk of a
    /// heavily-pruned mining recursion — use the single fused
    /// gather-and-count loop below, which is also the
    /// `scalar_kernel_off` baseline.
    fn count_col(&mut self, data: &[u32], bucket_count: usize, col: &[AttrValue]) -> Result<()> {
        let n = data.len();
        if self.use_kernel && kernel::stripes_pay_off(n, bucket_count) {
            let (max, batches) = kernel::gather_keys(data, col, &mut self.keys[..n]);
            self.kernel_batches += batches;
            if (max as usize) >= bucket_count {
                // lint: allow(panic-in-hot-path) — cold error-recovery
                // scan: `max >= bucket_count` guarantees the key cache
                // holds at least one offender to report.
                let key = self.keys[..n]
                    .iter()
                    .copied()
                    .find(|&k| (k as usize) >= bucket_count)
                    .expect("the key maximum exceeded the bucket count");
                return Err(GraphError::KeyOutOfRange { key, bucket_count });
            }
            self.kernel_batches += kernel::histogram_u32(
                &self.keys[..n],
                &mut self.counts[..bucket_count],
                &mut self.stripes[..kernel::STRIPES * bucket_count],
            );
            return Ok(());
        }
        if self.use_kernel {
            // The small-pass strategy still processes whole batches (the
            // chunked gathers below); account for them.
            self.kernel_batches += kernel::batches(n);
        }
        // One-pass chunked loop (small kernel passes and the
        // `scalar_kernel_off` baseline): gathers for a whole chunk issue
        // before the (serially dependent) increments.
        let counts = &mut self.counts[..bucket_count];
        let keys = &mut self.keys[..n];
        let mut bad: Option<AttrValue> = None;
        let mut i = 0usize;
        let chunks = data.chunks_exact(8);
        let rem = chunks.remainder();
        'count: {
            for ch in chunks {
                let ks: [AttrValue; 8] = [
                    col[ch[0] as usize],
                    col[ch[1] as usize],
                    col[ch[2] as usize],
                    col[ch[3] as usize],
                    col[ch[4] as usize],
                    col[ch[5] as usize],
                    col[ch[6] as usize],
                    col[ch[7] as usize],
                ];
                for (j, &k) in ks.iter().enumerate() {
                    if (k as usize) >= bucket_count {
                        bad = Some(k);
                        break 'count;
                    }
                    counts[k as usize] += 1;
                    keys[i + j] = k;
                }
                i += 8;
            }
            for &id in rem {
                let k = col[id as usize];
                if (k as usize) >= bucket_count {
                    bad = Some(k);
                    break 'count;
                }
                counts[k as usize] += 1;
                keys[i] = k;
                i += 1;
            }
        }
        match bad {
            Some(k) => Err(self.count_failed(k, bucket_count)),
            None => Ok(()),
        }
    }

    /// Count the first `n` cached keys into the histogram — striped
    /// kernel counting when enabled, the plain loop otherwise. Keys
    /// must already be validated `< bucket_count`.
    fn count_keys(&mut self, n: usize, bucket_count: usize) {
        let keys = &self.keys[..n];
        let counts = &mut self.counts[..bucket_count];
        if self.use_kernel {
            self.kernel_batches += kernel::histogram_u32(
                keys,
                counts,
                &mut self.stripes[..kernel::STRIPES * bucket_count],
            );
        } else {
            for &k in keys {
                counts[k as usize] += 1;
            }
        }
    }

    /// Restore the all-zeros `counts` invariant after a failed counting
    /// phase and build the error (cold path).
    fn count_failed(&mut self, key: AttrValue, bucket_count: usize) -> GraphError {
        self.counts.iter_mut().for_each(|c| *c = 0);
        GraphError::KeyOutOfRange { key, bucket_count }
    }

    /// Exclusive prefix sums in place: `counts[v]` becomes the start
    /// offset of value `v`'s partition.
    fn prefix(&mut self, bucket_count: usize) {
        let mut acc = 0u32;
        for c in &mut self.counts[..bucket_count] {
            let v = *c;
            *c = acc;
            acc += v;
        }
    }

    /// Prefix, stable scatter via the key cache, copy back, emit records.
    fn scatter_and_emit(&mut self, data: &mut [u32], bucket_count: usize) -> Frame {
        self.prefix(bucket_count);
        let n = data.len();
        for (i, &id) in data.iter().enumerate() {
            let k = self.keys[i] as usize;
            let cursor = &mut self.counts[k];
            self.scatter[*cursor as usize] = id;
            *cursor += 1;
        }
        data.copy_from_slice(&self.scatter[..n]);
        self.emit_records(bucket_count)
    }

    /// Emit non-empty partitions in increasing key order from the
    /// post-scatter cursors (`counts[v]` = end offset of `v`'s partition),
    /// re-zeroing each touched bucket to restore the invariant.
    fn emit_records(&mut self, bucket_count: usize) -> Frame {
        // cast: ≤ one record per element, and n ≤ the u32 edge cap
        let start = self.records.len() as u32;
        let mut prev = 0u32;
        for v in 0..bucket_count {
            let end = self.counts[v];
            self.counts[v] = 0;
            if end > prev {
                self.records.push(PartRec {
                    value: v as AttrValue, // cast: v < bucket_count ≤ u16 domain + 1
                    start: prev,
                    end,
                });
            }
            prev = end;
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
            + self.keys.capacity() * std::mem::size_of::<AttrValue>()
            + self.scatter.capacity() * std::mem::size_of::<u32>()
            + self.records.capacity() * std::mem::size_of::<PartRec>()
            + self.fused.capacity() * std::mem::size_of::<u32>()
            + self.fused_keys.capacity() * std::mem::size_of::<AttrValue>()
            + self.stripes.capacity() * std::mem::size_of::<u32>();
        self.peak = self.peak.max(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let mut arena = PartitionArena::new();
        let frame = arena.partition_with(&mut [], 4, |_| 0).unwrap();
        assert!(frame.is_empty());
        arena.pop_frame(frame);
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

    #[test]
    fn out_of_range_key_is_an_error_and_arena_survives() {
        let mut arena = PartitionArena::new();
        let mut data: Vec<u32> = (0..10).collect();
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
        // Columnar variant too.
        let col: Vec<u16> = (0..10).map(|i| if i == 4 { 3 } else { 0 }).collect();
        let err = arena.partition_col(&mut data, 3, &col).unwrap_err();
        assert!(matches!(err, GraphError::KeyOutOfRange { key: 3, .. }));
        // The failed passes rolled back: a good pass still works.
        let frame = arena
            .partition_with(&mut data, 3, |i| (i % 3) as u16)
            .unwrap();
        assert_eq!(
            arena.records(&frame).iter().map(|r| r.len()).sum::<usize>(),
            10
        );
        arena.pop_frame(frame);
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

    /// Reference: the fused and pre-counted pair must equal two plain
    /// passes bit for bit (same data order, same records).
    #[test]
    fn fused_pair_matches_unfused_passes() {
        let n = 257u32;
        let col: Vec<u16> = (0..n).map(|i| (i * 7 % 5) as u16).collect();
        let next: Vec<u16> = (0..n).map(|i| (i * 13 % 4) as u16).collect();
        let base: Vec<u32> = (0..n).map(|i| (i * 31) % n).collect();

        // Unfused reference.
        let mut ref_arena = PartitionArena::new();
        let mut ref_data = base.clone();
        let ref_outer = ref_arena.partition_col(&mut ref_data, 5, &col).unwrap();
        let ref_parts: Vec<PartRec> = ref_arena.records(&ref_outer).to_vec();
        ref_arena.pop_frame(ref_outer);
        let mut ref_children: Vec<(Vec<u32>, Vec<PartRec>)> = Vec::new();
        for part in &ref_parts {
            let sub = &mut ref_data[part.range()];
            let f = ref_arena.partition_col(sub, 4, &next).unwrap();
            ref_children.push((sub.to_vec(), ref_arena.records(&f).to_vec()));
            ref_arena.pop_frame(f);
        }

        // Fused.
        let mut arena = PartitionArena::new();
        let mut data = base.clone();
        let (outer, level) = arena
            .partition_col_fused(&mut data, 5, &col, &next, 4)
            .unwrap();
        let parts: Vec<PartRec> = arena.records(&outer).to_vec();
        assert_eq!(parts, ref_parts);
        for (i, part) in parts.iter().enumerate() {
            let hist = arena.child_hist(level, *part);
            assert_eq!(hist.buckets(), 4);
            let sub = &mut data[part.range()];
            let f = arena.partition_pre_counted(sub, 4, hist);
            assert_eq!(sub.to_vec(), ref_children[i].0, "child {i} data");
            assert_eq!(
                arena.records(&f),
                &ref_children[i].1[..],
                "child {i} records"
            );
            arena.pop_frame(f);
        }
        arena.pop_frame(outer);
        arena.pop_fused(level);
        assert_eq!(data, ref_data);
    }

    #[test]
    fn fused_rejects_out_of_range_next_key() {
        let mut arena = PartitionArena::new();
        let mut data: Vec<u32> = (0..10).collect();
        let col: Vec<u16> = vec![1; 10];
        let next: Vec<u16> = (0..10).map(|i| if i == 6 { 7 } else { 0 }).collect();
        let err = arena
            .partition_col_fused(&mut data, 3, &col, &next, 2)
            .unwrap_err();
        assert!(matches!(err, GraphError::KeyOutOfRange { key: 7, .. }));
        // Arena rolled back and works again (counts invariant intact).
        let mut data2: Vec<u32> = (0..10).collect();
        let (f, lvl) = arena
            .partition_col_fused(&mut data2, 3, &col, &col, 3)
            .unwrap();
        assert_eq!(f.len(), 1);
        arena.pop_frame(f);
        arena.pop_fused(lvl);
    }

    #[test]
    fn fused_zero_next_buckets_is_an_error_not_a_panic() {
        // Degenerate public-API call: non-empty data, zero next buckets.
        // Must be a checked error, not an index panic inside the error
        // construction — and the reported key must be the item's *real*
        // key when the column covers it, never a fabricated 0.
        let mut arena = PartitionArena::new();
        let mut data = vec![0u32];
        let err = arena
            .partition_col_fused(&mut data, 1, &[0u16], &[7u16], 0)
            .unwrap_err();
        assert_eq!(
            err,
            GraphError::KeyOutOfRange {
                key: 7,
                bucket_count: 0
            },
            "the error must carry the real first key"
        );
        // A next column that does not cover the data is its own error
        // (the old path fabricated key 0 here).
        let err = arena
            .partition_col_fused(&mut data, 1, &[0u16], &[], 0)
            .unwrap_err();
        assert_eq!(err, GraphError::ColumnTooShort { len: 0, index: 0 });
        assert!(err.to_string().contains("cannot cover position 0"));
        // Either bail leaves the arena fully usable.
        let (f, lvl) = arena
            .partition_col_fused(&mut data, 1, &[0u16], &[0u16], 1)
            .unwrap();
        assert_eq!(f.len(), 1);
        arena.pop_frame(f);
        arena.pop_fused(lvl);
        // Empty data with zero next buckets is a valid empty level.
        let mut empty: Vec<u32> = vec![];
        let (f, lvl) = arena
            .partition_col_fused(&mut empty, 1, &[], &[], 0)
            .unwrap();
        assert!(f.is_empty());
        arena.pop_frame(f);
        arena.pop_fused(lvl);
    }

    /// The batch kernels are a pure execution strategy: every pass kind
    /// produces bit-identical data, records and fused state with the
    /// kernels on and off.
    #[test]
    fn kernel_and_scalar_passes_are_bit_identical() {
        let n = 1013u32;
        let col: Vec<u16> = (0..n).map(|i| (i * 7 % 23) as u16).collect();
        let next: Vec<u16> = (0..n).map(|i| (i * 13 % 6) as u16).collect();
        let base: Vec<u32> = (0..n).map(|i| (i * 31) % n).collect();
        let mask_col: Vec<u16> = (0..n).map(|i| (i % 3) as u16).collect();

        let run = |kernel_on: bool| {
            let mut arena = PartitionArena::new();
            arena.set_kernel_enabled(kernel_on);
            assert_eq!(arena.kernel_enabled(), kernel_on);
            let mut data = base.clone();
            // Plain columnar pass.
            let f = arena.partition_col(&mut data, 23, &col).unwrap();
            let plain_recs = arena.records(&f).to_vec();
            arena.pop_frame(f);
            let plain_data = data.clone();
            // Fused pass + every child consumed.
            let mut data2 = base.clone();
            let (f, lvl) = arena
                .partition_col_fused(&mut data2, 23, &col, &next, 6)
                .unwrap();
            let fused_recs = arena.records(&f).to_vec();
            let mut children = Vec::new();
            for rec in fused_recs.clone() {
                let hist = arena.child_hist(lvl, rec);
                let sub = &mut data2[rec.range()];
                let cf = arena.partition_pre_counted(sub, 6, hist);
                children.push((sub.to_vec(), arena.records(&cf).to_vec()));
                arena.pop_frame(cf);
            }
            arena.pop_frame(f);
            arena.pop_fused(lvl);
            // Mask pass (the β group-by shape).
            let mut data3 = base.clone();
            let mf = arena.partition_mask_cols(
                &mut data3,
                &[(mask_col.as_slice(), 1), (next.as_slice(), 2)],
            );
            let mask_recs = arena.records(&mf).to_vec();
            arena.pop_frame(mf);
            let batches = arena.take_kernel_batches();
            (
                plain_data, plain_recs, data2, fused_recs, children, data3, mask_recs, batches,
            )
        };
        let with_kernel = run(true);
        let without = run(false);
        assert_eq!(with_kernel.0, without.0, "plain pass data");
        assert_eq!(with_kernel.1, without.1, "plain pass records");
        assert_eq!(with_kernel.2, without.2, "fused pass data");
        assert_eq!(with_kernel.3, without.3, "fused pass records");
        assert_eq!(with_kernel.4, without.4, "pre-counted children");
        assert_eq!(with_kernel.5, without.5, "mask pass data");
        assert_eq!(with_kernel.6, without.6, "mask pass records");
        assert!(with_kernel.7 > 0, "kernel batches counted when enabled");
        assert_eq!(without.7, 0, "no kernel batches in scalar mode");
    }

    #[test]
    fn kernel_batches_drain() {
        let mut arena = PartitionArena::new();
        let col: Vec<u16> = (0..100).map(|i| (i % 7) as u16).collect();
        let mut data: Vec<u32> = (0..100).collect();
        let f = arena.partition_col(&mut data, 7, &col).unwrap();
        arena.pop_frame(f);
        let first = arena.take_kernel_batches();
        assert!(first > 0);
        assert_eq!(arena.take_kernel_batches(), 0, "draining resets");
    }

    #[test]
    fn mask_pass_matches_closure_pass() {
        // partition_mask_cols must equal partition_with on the same
        // match-mask key, bit for bit.
        let n = 317u32;
        let c1: Vec<u16> = (0..n).map(|i| (i % 4) as u16).collect();
        let c2: Vec<u16> = (0..n).map(|i| (i * 11 % 5) as u16).collect();
        let base: Vec<u32> = (0..n).map(|i| (i * 13) % n).collect();
        let mut arena = PartitionArena::new();

        let mut by_closure = base.clone();
        let f = arena
            .partition_with(&mut by_closure, 4, |id| {
                u16::from(c1[id as usize] == 2) | (u16::from(c2[id as usize] == 3) << 1)
            })
            .unwrap();
        let closure_recs = arena.records(&f).to_vec();
        arena.pop_frame(f);

        let mut by_mask = base.clone();
        let f = arena.partition_mask_cols(&mut by_mask, &[(c1.as_slice(), 2), (c2.as_slice(), 3)]);
        assert_eq!(arena.records(&f), &closure_recs[..]);
        arena.pop_frame(f);
        assert_eq!(by_mask, by_closure);
    }

    #[test]
    fn peak_bytes_is_stable_across_repeated_workloads() {
        let mut arena = PartitionArena::new();
        let col: Vec<u16> = (0..5000).map(|i| (i % 189) as u16).collect();
        let run = |arena: &mut PartitionArena| {
            let mut data: Vec<u32> = (0..5000).collect();
            let f = arena.partition_col(&mut data, 189, &col).unwrap();
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
