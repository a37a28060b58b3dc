//! Vectorized counting primitives — the batch layer under the
//! counting-sort partitioner.
//!
//! GRMiner's inner loops are histogram counting, key gathers and stable
//! scatters over `u32` position slices and `u16` key columns (§V of the
//! paper). This module provides those three primitives as explicit
//! batch kernels:
//!
//! * [`gather_keys`] — `keys[i] = col[data[i]]` plus the running key
//!   maximum (the range check hoisted out of the counting loop);
//! * [`histogram_u32`] — positional key counting through four
//!   independent per-lane `u32` histograms, merged at the end;
//! * [`scatter_with_count`] — the fused scatter: stable scatter by
//!   cached keys while gathering, clamp-checking and counting each
//!   item's *next*-dimension key into its partition's histogram.
//!
//! ### The SWAR backend (default, stable Rust)
//!
//! Each kernel processes [`LANES`] keys per iteration in SWAR style:
//! the batch is loaded up front so the (independent) gather loads issue
//! together, and the serially-dependent parts — histogram increments,
//! running maxima — are spread over multiple independent accumulators
//! so a run of equal keys does not chain store-to-load stalls through
//! one counter. Per-lane partial results (four `u32` histograms, eight
//! `u16` maxima) are merged after the loop; the merge is
//! order-independent, so outputs are **bit-identical** to the scalar
//! loops they replace.
//!
//! ### The `simd` backend (feature-gated)
//!
//! With the `simd` cargo feature **on a nightly toolchain**, the lane
//! arithmetic (key maxima, clamps, range flags) runs through
//! `std::simd` vectors behind the same function signatures. On stable
//! toolchains the feature deliberately no-ops to the SWAR backend —
//! `build.rs` probes the toolchain channel — so `--features simd` is
//! always safe to pass. Histogram increments and stable scatters are
//! inherently serial per bucket and stay scalar in both backends; the
//! win there is the batched gather front-end.
//!
//! ### Batches
//!
//! Every kernel reports how many full [`LANES`]-wide batches it
//! processed; [`crate::sort::PartitionArena`] accumulates the count and
//! the miner surfaces it as `MinerStats::kernel_batches` — a *work*
//! counter (it varies with task splitting, never with semantics).

use crate::value::AttrValue;

/// Keys processed per kernel batch (the SWAR unroll width and the
/// `std::simd` vector width of the gated backend).
pub const LANES: usize = 8;

/// Number of independent histogram accumulators [`histogram_u32`]
/// spreads its increments over; its `stripes` scratch must hold
/// `STRIPES × counts.len()` zeroed counters.
pub const STRIPES: usize = 4;

/// Below this many keys per bucket the striped histogram falls back to
/// the plain loop: merging the stripes costs `O(STRIPES × buckets)`,
/// which only pays off once the counting loop dominates it.
const STRIPE_MIN_KEYS_PER_BUCKET: usize = STRIPES;

/// Whether the two-pass strategy — [`gather_keys`] then
/// [`histogram_u32`] through the stripes — beats a single fused
/// gather-and-count pass for `n` keys over `buckets` buckets. The
/// stripes pay a second read of the key cache plus an
/// `O(STRIPES × buckets)` merge, which only amortizes on large slices.
/// The absolute floor was measured on the Pokec-shaped workloads: below
/// ~512 items the second sweep over the key cache costs more than the
/// dependency breaking wins. The mining recursion's passes are not
/// tiny, since each partitions a slice that survived `minSupp`: on the
/// benchmark's sequential mine (Pokec-like, scale 1.0, minSupp 600)
/// none of the 61 607 LEFT/EDGE/RIGHT passes had fewer than 600 items,
/// 42 % had 600–1 023, and the mean was ≈ 3 055 (README, "The
/// vectorized counting kernel").
#[inline]
pub fn stripes_pay_off(n: usize, buckets: usize) -> bool {
    n >= STRIPE_MIN_KEYS_PER_BUCKET * buckets && n >= 512
}

/// Whether a batched (gather-up-front) loop beats the plain interleaved
/// loop for `n` items at all: below a few batches the per-batch lane
/// staging is pure overhead. Applied by the arena to the fused-scatter
/// kernel.
#[inline]
pub fn batching_pays_off(n: usize) -> bool {
    n >= 8 * LANES
}

/// Gather `col[id]` for every id of `data` into `keys` (same length,
/// overwritten) and return `(max_key, batches)` — the maximum gathered
/// key (`0` for empty input) and the number of full [`LANES`]-wide
/// batches processed.
///
/// The caller compares `max_key` against its bucket count *once*
/// instead of range-checking inside the counting loop; on violation the
/// first offending key in scan order is still observable in `keys`.
///
/// # Panics
/// Panics (slice bounds) if some `data[i] as usize >= col.len()` —
/// columns must cover every position, as everywhere in the partition
/// layer.
#[inline]
pub fn gather_keys(data: &[u32], col: &[AttrValue], keys: &mut [AttrValue]) -> (AttrValue, u64) {
    debug_assert_eq!(data.len(), keys.len());
    let mut chunks = data.chunks_exact(LANES);
    let mut out = keys.chunks_exact_mut(LANES);
    let mut maxes = [0 as AttrValue; LANES];
    let mut batches = 0u64;
    for (ch, ks) in (&mut chunks).zip(&mut out) {
        let lanes = gather_lane_batch(ch, col);
        lane_max(&mut maxes, &lanes);
        ks.copy_from_slice(&lanes);
        batches += 1;
    }
    let mut max = lane_fold_max(&maxes);
    let tail = data.len() - chunks.remainder().len();
    for (&id, k) in chunks.remainder().iter().zip(&mut keys[tail..]) {
        let v = col[id as usize];
        max = max.max(v);
        *k = v;
    }
    (max, batches)
}

/// Count `keys` into `counts` (`counts[k] += 1`; all keys must be
/// `< counts.len()` — validate via [`gather_keys`]' maximum first).
/// Returns the number of full batches counted through the stripes.
///
/// `stripes` is caller-owned scratch of `STRIPES × counts.len()`
/// counters that must be **all-zero on entry** and is restored to
/// all-zero on exit (the same discipline the partition arena keeps for
/// `counts` itself, so steady-state passes never re-zero the largest
/// histogram ever seen). Increments go to `STRIPES` independent
/// histograms round-robin and are merged into `counts` at the end;
/// counting is order-independent, so the result is bit-identical to the
/// plain loop.
#[inline]
pub fn histogram_u32(keys: &[AttrValue], counts: &mut [u32], stripes: &mut [u32]) -> u64 {
    let b = counts.len();
    debug_assert!(stripes.len() >= STRIPES * b, "stripe scratch undersized");
    if keys.len() < STRIPE_MIN_KEYS_PER_BUCKET * b {
        for &k in keys {
            counts[k as usize] += 1;
        }
        return 0;
    }
    let (s0, rest) = stripes.split_at_mut(b);
    let (s1, rest) = rest.split_at_mut(b);
    let (s2, rest) = rest.split_at_mut(b);
    let s3 = &mut rest[..b];
    let chunks = keys.chunks_exact(LANES);
    let rem = chunks.remainder();
    let mut batches = 0u64;
    for ch in chunks {
        s0[ch[0] as usize] += 1;
        s1[ch[1] as usize] += 1;
        s2[ch[2] as usize] += 1;
        s3[ch[3] as usize] += 1;
        s0[ch[4] as usize] += 1;
        s1[ch[5] as usize] += 1;
        s2[ch[6] as usize] += 1;
        s3[ch[7] as usize] += 1;
        batches += 1;
    }
    for &k in rem {
        counts[k as usize] += 1;
    }
    for v in 0..b {
        counts[v] += s0[v] + s1[v] + s2[v] + s3[v];
        s0[v] = 0;
        s1[v] = 0;
        s2[v] = 0;
        s3[v] = 0;
    }
    batches
}

/// The fused scatter (see
/// [`crate::sort::PartitionArena::scatter_fused`]): stable-scatter
/// `data` by its cached `keys` through `cursors` into `scatter`, while
/// gathering each item's key on `next_col` and counting it (clamped to
/// `next_buckets - 1`) into the per-child histogram block of `fused`.
/// Returns `(any_next_key_out_of_range, batches)`; on `true` the caller
/// rolls back exactly as with the scalar loop — the clamp keeps every
/// write in bounds, so nothing outside the pass's own scratch is
/// touched.
///
/// The scatter chain through `cursors` is serially dependent and stays
/// scalar; the batching front-loads the next-key gathers per [`LANES`]
/// items.
#[inline]
pub fn scatter_with_count(
    data: &[u32],
    keys: &[AttrValue],
    cursors: &mut [u32],
    scatter: &mut [u32],
    next_col: &[AttrValue],
    next_buckets: usize,
    fused: &mut [u32],
) -> (bool, u64) {
    debug_assert_eq!(data.len(), keys.len());
    // cast: bucket counts are attribute-domain sized, ≤ u16::MAX + 1
    let clamp = (next_buckets.saturating_sub(1)) as AttrValue;
    let mut bad = false;
    let mut batches = 0u64;
    let mut i = 0usize;
    let chunks = data.chunks_exact(LANES);
    let rem_start = data.len() - chunks.remainder().len();
    for ch in chunks {
        let nks = gather_lane_batch(ch, next_col);
        bad |= lane_any_gt(&nks, clamp);
        let nks = lane_min(&nks, clamp);
        for j in 0..LANES {
            let k = keys[i + j] as usize;
            let dst = cursors[k] as usize;
            cursors[k] += 1;
            scatter[dst] = ch[j];
            fused[k * next_buckets + nks[j] as usize] += 1;
        }
        i += LANES;
        batches += 1;
    }
    for (i, &id) in data.iter().enumerate().skip(rem_start) {
        let nk = next_col[id as usize];
        bad |= nk > clamp;
        let nk = nk.min(clamp);
        let k = keys[i] as usize;
        let dst = cursors[k] as usize;
        cursors[k] += 1;
        scatter[dst] = id;
        fused[k * next_buckets + nk as usize] += 1;
    }
    (bad, batches)
}

/// Full [`LANES`]-wide batches in `n` items — the batch count a scalar
/// replacement of a kernel loop would have processed.
#[inline]
pub fn batches(n: usize) -> u64 {
    (n / LANES) as u64
}

// --- lane helpers -------------------------------------------------------
//
// The per-batch lane arithmetic, switched between the SWAR and the
// `std::simd` implementation. The gather itself is LANES independent
// scalar loads in both backends (`std::simd`'s `gather_or` needs a
// `usize` index vector and offers no win over the unrolled loads here;
// the point of batching is issuing them without intervening stores).

/// Load the keys of one batch of ids.
#[inline(always)]
fn gather_lane_batch(ch: &[u32], col: &[AttrValue]) -> [AttrValue; LANES] {
    [
        col[ch[0] as usize],
        col[ch[1] as usize],
        col[ch[2] as usize],
        col[ch[3] as usize],
        col[ch[4] as usize],
        col[ch[5] as usize],
        col[ch[6] as usize],
        col[ch[7] as usize],
    ]
}

#[cfg(not(all(feature = "simd", grm_nightly_simd)))]
mod lanes {
    use super::{AttrValue, LANES};

    /// `maxes[j] = max(maxes[j], lanes[j])` — eight independent maxima.
    #[inline(always)]
    pub fn lane_max(maxes: &mut [AttrValue; LANES], lanes: &[AttrValue; LANES]) {
        for j in 0..LANES {
            maxes[j] = maxes[j].max(lanes[j]);
        }
    }

    /// Horizontal maximum of the per-lane maxima.
    #[inline(always)]
    pub fn lane_fold_max(maxes: &[AttrValue; LANES]) -> AttrValue {
        maxes.iter().copied().fold(0, AttrValue::max)
    }

    /// Whether any lane exceeds `clamp`.
    #[inline(always)]
    pub fn lane_any_gt(lanes: &[AttrValue; LANES], clamp: AttrValue) -> bool {
        let mut any = false;
        for &v in lanes {
            any |= v > clamp;
        }
        any
    }

    /// Per-lane `min(v, clamp)`.
    #[inline(always)]
    pub fn lane_min(lanes: &[AttrValue; LANES], clamp: AttrValue) -> [AttrValue; LANES] {
        let mut out = *lanes;
        for v in &mut out {
            *v = (*v).min(clamp);
        }
        out
    }
}

#[cfg(all(feature = "simd", grm_nightly_simd))]
mod lanes {
    //! `std::simd` lane arithmetic — compiled only with the `simd`
    //! feature on a nightly toolchain (`build.rs` probes the channel);
    //! everywhere else the SWAR module above serves the same API.
    use super::{AttrValue, LANES};
    use std::simd::cmp::{SimdOrd, SimdPartialOrd};
    use std::simd::Simd;

    type V = Simd<AttrValue, LANES>;

    #[inline(always)]
    pub fn lane_max(maxes: &mut [AttrValue; LANES], lanes: &[AttrValue; LANES]) {
        *maxes = V::from_array(*maxes)
            .simd_max(V::from_array(*lanes))
            .to_array();
    }

    #[inline(always)]
    pub fn lane_fold_max(maxes: &[AttrValue; LANES]) -> AttrValue {
        use std::simd::num::SimdUint;
        V::from_array(*maxes).reduce_max()
    }

    #[inline(always)]
    pub fn lane_any_gt(lanes: &[AttrValue; LANES], clamp: AttrValue) -> bool {
        V::from_array(*lanes).simd_gt(V::splat(clamp)).any()
    }

    #[inline(always)]
    pub fn lane_min(lanes: &[AttrValue; LANES], clamp: AttrValue) -> [AttrValue; LANES] {
        V::from_array(*lanes).simd_min(V::splat(clamp)).to_array()
    }
}

use lanes::{lane_any_gt, lane_fold_max, lane_max, lane_min};

#[cfg(test)]
mod tests {
    use super::*;

    fn col(n: usize) -> Vec<AttrValue> {
        (0..n).map(|i| ((i * 7 + 3) % 19) as AttrValue).collect()
    }

    #[test]
    fn gather_matches_scalar_and_reports_max() {
        for n in [0usize, 1, 7, 8, 9, 64, 100] {
            let col = col(256);
            let data: Vec<u32> = (0..n as u32).map(|i| (i * 13) % 256).collect();
            let mut keys = vec![0 as AttrValue; n];
            let (max, batches) = gather_keys(&data, &col, &mut keys);
            let expect: Vec<AttrValue> = data.iter().map(|&id| col[id as usize]).collect();
            assert_eq!(keys, expect, "n = {n}");
            assert_eq!(max, expect.iter().copied().max().unwrap_or(0), "n = {n}");
            assert_eq!(batches, (n / LANES) as u64);
        }
    }

    #[test]
    fn histogram_matches_scalar_with_and_without_stripes() {
        for n in [0usize, 3, 8, 31, 200, 1000] {
            for b in [1usize, 2, 19, 64] {
                let keys: Vec<AttrValue> =
                    (0..n).map(|i| ((i * 11 + 5) % b) as AttrValue).collect();
                let mut counts = vec![0u32; b];
                let mut stripes = vec![0u32; STRIPES * b];
                histogram_u32(&keys, &mut counts, &mut stripes);
                let mut expect = vec![0u32; b];
                for &k in &keys {
                    expect[k as usize] += 1;
                }
                assert_eq!(counts, expect, "n = {n}, b = {b}");
                assert!(
                    stripes.iter().all(|&s| s == 0),
                    "stripes must be re-zeroed (n = {n}, b = {b})"
                );
            }
        }
    }

    #[test]
    fn scatter_with_count_matches_scalar_reference() {
        let n = 203;
        let buckets = 5usize;
        let next_buckets = 4usize;
        let keys: Vec<AttrValue> = (0..n).map(|i| (i % buckets) as AttrValue).collect();
        let next_col: Vec<AttrValue> = (0..n)
            .map(|i| ((i * 3) % next_buckets) as AttrValue)
            .collect();
        let data: Vec<u32> = (0..n as u32).map(|i| (i * 31) % n as u32).collect();
        // Prefix offsets for the keys.
        let mut counts = vec![0u32; buckets];
        for &k in &keys {
            counts[k as usize] += 1;
        }
        let mut cursors = vec![0u32; buckets];
        let mut acc = 0;
        for (c, k) in cursors.iter_mut().zip(&counts) {
            *c = acc;
            acc += k;
        }
        // Scalar reference.
        let mut ref_cursors = cursors.clone();
        let mut ref_scatter = vec![0u32; n];
        let mut ref_fused = vec![0u32; buckets * next_buckets];
        for (i, &id) in data.iter().enumerate() {
            let k = keys[i] as usize;
            let dst = ref_cursors[k] as usize;
            ref_cursors[k] += 1;
            ref_scatter[dst] = id;
            let nk = next_col[id as usize];
            ref_fused[k * next_buckets + nk as usize] += 1;
        }
        // Kernel.
        let mut scatter = vec![0u32; n];
        let mut fused = vec![0u32; buckets * next_buckets];
        let (bad, batches) = scatter_with_count(
            &data,
            &keys,
            &mut cursors,
            &mut scatter,
            &next_col,
            next_buckets,
            &mut fused,
        );
        assert!(!bad);
        assert_eq!(batches, (n / LANES) as u64);
        assert_eq!(scatter, ref_scatter);
        assert_eq!(fused, ref_fused);
        assert_eq!(cursors, ref_cursors);
    }

    #[test]
    fn scatter_with_count_flags_out_of_range_next_keys() {
        let data: Vec<u32> = (0..20).collect();
        let keys = vec![0 as AttrValue; 20];
        let mut next_col = vec![0 as AttrValue; 20];
        next_col[13] = 9; // beyond next_buckets = 2
        let mut cursors = vec![0u32];
        let mut scatter = vec![0u32; 20];
        let mut fused = vec![0u32; 2];
        let (bad, _) = scatter_with_count(
            &data,
            &keys,
            &mut cursors,
            &mut scatter,
            &next_col,
            2,
            &mut fused,
        );
        assert!(bad, "the sticky flag must catch a clamped key");
        // All writes stayed in bounds (the clamp): total counted = 20.
        assert_eq!(fused.iter().sum::<u32>(), 20);
    }

    #[test]
    fn batches_counts_full_chunks() {
        assert_eq!(batches(0), 0);
        assert_eq!(batches(7), 0);
        assert_eq!(batches(8), 1);
        assert_eq!(batches(17), 2);
    }
}
