//! Vectorized counting primitives — the batch layer under the
//! counting-sort partitioner.
//!
//! GRMiner's inner loops are histogram counting, key gathers and stable
//! scatters over `u32` position slices and `u16` key columns (§V of the
//! paper). This module provides the first two as explicit batch
//! kernels; the stable scatter is serially dependent through its
//! cursors and stays a plain loop in [`crate::sort::PartitionArena`]:
//!
//! * [`gather_keys`] — `keys[i] = col[data[i]]` plus the running key
//!   maximum (the range check hoisted out of the counting loop);
//! * [`histogram_u32`] — positional key counting through four
//!   independent per-lane `u32` histograms, merged at the end.
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
//! arithmetic (the key maxima) runs through `std::simd` vectors behind
//! the same function signatures. On stable toolchains the feature
//! deliberately no-ops to the SWAR backend — `build.rs` probes the
//! toolchain channel — so `--features simd` is always safe to pass.
//! Histogram increments are inherently serial per bucket and stay
//! scalar in both backends; the win there is the batched gather
//! front-end.
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
/// [`histogram_u32`] through the stripes — beats a single one-pass
/// gather-and-count loop for `n` keys over `buckets` buckets. The
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

/// Full [`LANES`]-wide batches in `n` items — the batch count of a loop
/// that gathers a batch at a time outside these kernels (the arena's
/// one-pass gather-and-count loop for small slices).
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
}

#[cfg(all(feature = "simd", grm_nightly_simd))]
mod lanes {
    //! `std::simd` lane arithmetic — compiled only with the `simd`
    //! feature on a nightly toolchain (`build.rs` probes the channel);
    //! everywhere else the SWAR module above serves the same API.
    use super::{AttrValue, LANES};
    use std::simd::cmp::SimdOrd;
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
}

use lanes::{lane_fold_max, lane_max};

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
    fn batches_counts_full_chunks() {
        assert_eq!(batches(0), 0);
        assert_eq!(batches(7), 0);
        assert_eq!(batches(8), 1);
        assert_eq!(batches(17), 2);
    }
}
