//! The dynamic `minNhp` upgrade of GRMiner(k) (§V, line 28 of
//! Algorithm 1) as the cross-worker [`SharedBound`] every pool engine's
//! workers prune against. The upgrade needs only the k-th best *score*;
//! the top-k itself is ranked once, by Def. 5(3), in the execution
//! core's post-pass.

use parking_lot::Mutex;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// A score in `f64::total_cmp` order, the order `ScoredGr::rank_cmp`
/// ranks scores by, so the k best scores held here are those of the k
/// best-ranked GRs offered.
#[derive(Debug, Clone, Copy)]
struct Score(f64);

impl PartialEq for Score {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Score {}
impl PartialOrd for Score {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Score {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Sentinel for "no bound published yet": `f64::from_bits(u64::MAX)` is a
/// NaN, which no metric score ever equals, so real bounds are never
/// confused with it.
const BOUND_UNSET: u64 = u64::MAX;

/// The dynamic top-k bound shared by the parallel miner's workers: a
/// monotonically tightening lower bound on the k-th best score of the
/// *final merged* result, published through an `AtomicU64` so the
/// hot-path read ([`SharedBound::get`]) is one uncontended atomic load.
///
/// Soundness is the whole design: the bound is fed only candidates that
/// are **guaranteed to survive the sequential post-pass** — when the
/// generality filter is off, that is every collected candidate; when it
/// is on, it is the candidates whose every strictly-more-general form is
/// excluded from collection by construction (empty edge descriptor and
/// the minimal reportable LHS width, see `Run::feeds_shared_bound`).
/// The k-th best score over any subset of the final survivor stream is a
/// lower bound on the k-th best score over all of it, and the heap only
/// grows, so every value ever published stays valid forever — stale reads
/// are merely conservative, which is why relaxed atomics suffice. With
/// `k = 0` the heap never fills and no bound is ever published.
#[derive(Debug)]
pub struct SharedBound {
    /// Bits of the current bound, `BOUND_UNSET` until the heap first
    /// fills to k. Written only while `scores`' lock is held.
    bits: AtomicU64,
    k: usize,
    /// The k best scores of the sure-survivor candidates offered so far,
    /// the lowest (the k-th) on top. It reserves only what it holds: `k`
    /// may be effectively unbounded (support-only configurations).
    scores: Mutex<BinaryHeap<Reverse<Score>>>,
}

impl SharedBound {
    /// An unset bound for a run returning `k` GRs.
    pub fn new(k: usize) -> Self {
        SharedBound {
            bits: AtomicU64::new(BOUND_UNSET),
            k,
            scores: Mutex::new(BinaryHeap::new()),
        }
    }

    /// The current published bound, if the heap has filled. Any returned
    /// value is ≤ the final k-th best score (see type docs), so pruning
    /// strictly below it never cuts a final top-k member.
    pub fn get(&self) -> Option<f64> {
        // ordering: Acquire pairs with the Release publish in `offer`.
        // The loaded bits are the entire payload, so even a fully
        // Relaxed load is sound — stale values are older (smaller)
        // bounds and pruning against them is merely conservative; the
        // analyze crate's model checker proves exactly that under
        // coherence-only load semantics (`grm_analyze::model::bound`).
        // Acquire is kept because it is free on x86/aarch64 loads and
        // documents the publish edge for future fields.
        let bits = self.bits.load(AtomicOrdering::Acquire);
        (bits != BOUND_UNSET).then(|| f64::from_bits(bits))
    }

    /// Offer the score of a candidate known to survive the final merge.
    /// Returns `true` when the published bound tightened (including its
    /// first publication). Cheap pre-check: a score at or below the
    /// current bound can neither enter the heap's top-k scores nor raise
    /// the k-th, so it skips the lock entirely.
    pub fn offer(&self, score: f64) -> bool {
        if let Some(b) = self.get() {
            if score <= b {
                return false;
            }
        }
        let mut scores = self.scores.lock();
        if scores.len() < self.k {
            scores.push(Reverse(Score(score)));
            if scores.len() < self.k {
                return false;
            }
        } else {
            match scores.peek_mut() {
                // Replacing the k-th re-sifts the heap when `kth` drops.
                Some(mut kth) if kth.0 < Score(score) => *kth = Reverse(Score(score)),
                // `k = 0`, or not above the k-th: the bound stands.
                _ => return false,
            }
        }
        let Some(&Reverse(Score(new_bound))) = scores.peek() else {
            return false;
        };
        // ordering: Relaxed is exact here, not an optimization gamble —
        // every store to `bits` happens while `scores`' lock is held (we
        // hold it now), so the previous store happens-before this load
        // via the mutex release/acquire pair and coherence forbids
        // reading anything older than the latest value.
        let prev = self.bits.load(AtomicOrdering::Relaxed);
        if prev == BOUND_UNSET || new_bound > f64::from_bits(prev) {
            // ordering: Release publish, paired with the Acquire load in
            // `get`. The cross-thread store path of the shared bound:
            // monotone non-decreasing values written only under the heap
            // lock, read lock-free by pruning workers.
            self.bits
                .store(new_bound.to_bits(), AtomicOrdering::Release);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k() {
        // Tied scores are kept apart: two 0.8s are two of the k best, and
        // a third moves the k-th up to 0.8 once the 0.5 leaves.
        let b = SharedBound::new(3);
        for score in [0.5, 0.8, 0.8] {
            b.offer(score);
        }
        assert_eq!(b.get(), Some(0.5));
        assert!(b.offer(0.8), "evicts the 0.5");
        assert_eq!(b.get(), Some(0.8));
        assert!(!b.offer(0.8), "equal to the k-th: skipped");
        assert!(!b.offer(0.4), "worse than all three");
        assert_eq!(b.get(), Some(0.8));
    }

    #[test]
    fn dynamic_bound_appears_when_full() {
        let b = SharedBound::new(3);
        assert_eq!(b.get(), None);
        b.offer(0.9);
        b.offer(0.8);
        assert_eq!(b.get(), None, "not full yet");
        b.offer(0.7);
        assert_eq!(b.get(), Some(0.7));
        b.offer(0.95);
        assert_eq!(b.get(), Some(0.8), "bound tightens");
    }

    #[test]
    fn k_of_one() {
        let b = SharedBound::new(1);
        assert!(b.offer(0.2));
        assert_eq!(b.get(), Some(0.2));
        assert!(b.offer(0.6));
        assert_eq!(b.get(), Some(0.6));
        assert!(!b.offer(0.3));
    }

    #[test]
    fn zero_k_never_publishes() {
        let b = SharedBound::new(0);
        for score in [0.1, 0.9, f64::INFINITY] {
            assert!(!b.offer(score));
        }
        assert_eq!(b.get(), None);
    }

    #[test]
    fn shared_bound_publishes_only_when_full_and_tightens_monotonically() {
        let b = SharedBound::new(2);
        assert_eq!(b.get(), None);
        assert!(!b.offer(0.5), "not full yet");
        assert_eq!(b.get(), None);
        assert!(b.offer(0.9), "fills the heap: first bound");
        assert_eq!(b.get(), Some(0.5));
        assert!(!b.offer(0.4), "below the bound: rejected");
        assert_eq!(b.get(), Some(0.5));
        assert!(b.offer(0.7), "evicts the 0.5");
        assert_eq!(b.get(), Some(0.7));
        // Equal to the bound: cannot raise the k-th score, skipped.
        assert!(!b.offer(0.7));
        assert_eq!(b.get(), Some(0.7));
    }

    #[test]
    fn shared_bound_is_sound_under_concurrent_offers() {
        // Whatever the interleaving, the published bound equals the k-th
        // best of all offered scores (here: 16 distinct scores, k = 4).
        let b = std::sync::Arc::new(SharedBound::new(4));
        crossbeam::thread::scope(|scope| {
            for t in 0..4u16 {
                let b = std::sync::Arc::clone(&b);
                scope.spawn(move |_| {
                    for i in 0..4u16 {
                        b.offer(f64::from(t * 4 + i) / 16.0);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(b.get(), Some(12.0 / 16.0));
    }
}
