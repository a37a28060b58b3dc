//! Model of `SharedBound` (crates/core/src/topk.rs): the dynamic top-k
//! bound published through an `AtomicU64` and read lock-free by pruning
//! workers.
//!
//! The model mirrors `offer`/`get` step-for-step at atomic granularity:
//!
//! - **read** — the lock-free pre-check load in `offer` (and the `get`
//!   every pruning site performs). Loads branch over *every* version the
//!   thread's coherence floor allows: a thread that last observed
//!   version `j` may see any version `≥ j` (or `j` itself — arbitrarily
//!   stale). This is coherence-only semantics, i.e. what `Relaxed`
//!   guarantees; proving the invariants under it proves the Relaxed
//!   pre-check load sound, and a fortiori the Acquire load.
//! - **insert+publish** — the mutex critical section of `offer` (lock,
//!   heap insert, read `prev`, conditional Release store, unlock) as one
//!   atomic action: everything it touches is only touched under the
//!   same lock, so no other thread can observe an intermediate state.
//!   The in-lock `prev` load reads the *latest* version — that is the
//!   mutex-ordering argument the `// ordering:` comment in `offer`
//!   makes, and the [`Variant::StalePrevUnderLock`] teeth-check shows
//!   the monotonicity proof genuinely depends on it.
//!
//! Checked invariants (every state, every interleaving):
//! 1. the published sequence is strictly increasing (monotone bound);
//! 2. every published value is ≤ the true k-th best score of the whole
//!    workload — so pruning strictly below any observable bound never
//!    cuts a final top-k member, however stale the read;
//! 3. terminally, the bound equals the true k-th best score exactly
//!    (skipped offers lose nothing).

use super::sched::{self, Model};
use super::Report;

/// Which implementation to check: the real one, or a deliberately
/// broken teeth-check.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Variant {
    /// The shipped protocol.
    Correct,
    /// The in-lock `prev` load may return stale versions (as if the
    /// mutex did not order the Relaxed load): breaks strict
    /// monotonicity by double-publishing.
    StalePrevUnderLock,
    /// Publishes the *best* heap score instead of the k-th: unsound
    /// bound (prunes future top-k members).
    PublishMax,
    /// Publishes before the heap has k elements: unsound bound.
    EarlyPublish,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    /// Passed the pre-check with this score; about to enter the lock.
    Armed(u64),
}

/// Model state. Scores are integers: the real heap holds bare f64 scores
/// ordered by `f64::total_cmp`, a total order like the integers' (ties
/// included in configs below).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BoundModel {
    variant: Variant,
    k: usize,
    /// k-th best of every score in `todo` at construction.
    true_kth: u64,
    /// Per-thread pending offers, consumed from the back.
    todo: Vec<Vec<u64>>,
    pc: Vec<Pc>,
    /// All inserted scores, sorted descending (the top-k heap's
    /// contents; keeping all of them only strengthens the k-th).
    heap: Vec<u64>,
    /// Published bound values, in publication order.
    versions: Vec<u64>,
    /// Per-thread coherence floor: how many versions this thread has
    /// definitely observed (a later load may not see fewer).
    seen: Vec<usize>,
}

impl BoundModel {
    /// A model where thread `t` offers `scripts[t]` (in order) into a
    /// shared bound of size `k`.
    pub fn new(variant: Variant, k: usize, scripts: &[&[u64]]) -> Self {
        let mut all: Vec<u64> = scripts.iter().flat_map(|s| s.iter().copied()).collect();
        all.sort_unstable_by(|a, b| b.cmp(a));
        let true_kth = all.get(k - 1).copied().unwrap_or(0);
        BoundModel {
            variant,
            k,
            true_kth,
            todo: scripts
                .iter()
                .map(|s| s.iter().rev().copied().collect())
                .collect(),
            pc: vec![Pc::Idle; scripts.len()],
            heap: Vec::new(),
            versions: Vec::new(),
            seen: vec![0; scripts.len()],
        }
    }

    /// The bound the critical section would publish, per variant.
    fn publishable(&self, heap: &[u64]) -> Option<u64> {
        match self.variant {
            Variant::PublishMax if heap.len() >= self.k => heap.first().copied(),
            Variant::EarlyPublish => heap.last().copied(),
            _ if heap.len() >= self.k => Some(heap[self.k - 1]),
            _ => None,
        }
    }
}

impl Model for BoundModel {
    fn threads(&self) -> usize {
        self.pc.len()
    }

    fn runnable(&self, tid: usize) -> bool {
        !matches!(self.pc[tid], Pc::Idle) || !self.todo[tid].is_empty()
    }

    fn step(&self, tid: usize) -> Vec<(String, Self)> {
        let mut out = Vec::new();
        match self.pc[tid] {
            Pc::Idle => {
                let Some(&score) = self.todo[tid].last() else {
                    return out;
                };
                // The pre-check load: any version ≥ the thread's floor
                // may be observed (coherence-only / Relaxed semantics).
                for j in self.seen[tid]..=self.versions.len() {
                    let observed = j.checked_sub(1).map(|i| self.versions[i]);
                    let mut s = self.clone();
                    s.seen[tid] = j;
                    match observed {
                        Some(b) if score <= b => {
                            // Skip the lock: cannot raise the k-th.
                            s.todo[tid].pop();
                            out.push((format!("t{tid}:read v{j}→skip {score}"), s));
                        }
                        _ => {
                            s.pc[tid] = Pc::Armed(score);
                            out.push((format!("t{tid}:read v{j}→arm {score}"), s));
                        }
                    }
                }
            }
            Pc::Armed(score) => {
                // The critical section, one atomic action (see module
                // docs). `prev` is the latest version — except in the
                // StalePrevUnderLock teeth-check, where it branches.
                let prev_choices: Vec<usize> = if self.variant == Variant::StalePrevUnderLock {
                    (self.seen[tid]..=self.versions.len()).collect()
                } else {
                    vec![self.versions.len()]
                };
                for j in prev_choices {
                    let mut s = self.clone();
                    s.todo[tid].pop();
                    s.pc[tid] = Pc::Idle;
                    let at = s.heap.partition_point(|&h| h >= score);
                    s.heap.insert(at, score);
                    let prev = j.checked_sub(1).map(|i| self.versions[i]);
                    if let Some(new_bound) = s.publishable(&s.heap) {
                        if prev.is_none_or(|p| new_bound > p) {
                            s.versions.push(new_bound);
                        }
                    }
                    s.seen[tid] = s.versions.len();
                    out.push((format!("t{tid}:insert {score} (prev v{j})"), s));
                }
            }
        }
        out
    }

    fn invariant(&self) -> Result<(), String> {
        if let Some(w) = self.versions.windows(2).find(|w| w[1] <= w[0]) {
            return Err(format!(
                "published bound not strictly increasing: {} then {}",
                w[0], w[1]
            ));
        }
        if let Some(v) = self.versions.iter().find(|&&v| v > self.true_kth) {
            return Err(format!(
                "published bound {v} exceeds the true k-th score {} — a reader pruning below it could cut a final top-k member",
                self.true_kth
            ));
        }
        Ok(())
    }

    fn final_check(&self) -> Result<(), String> {
        let offered: usize = self.heap.len() + self.todo.iter().map(|t| t.len()).sum::<usize>();
        if offered < self.k {
            return Ok(()); // config never fills the heap: nothing to pin
        }
        match self.versions.last() {
            Some(&v) if v == self.true_kth => Ok(()),
            Some(&v) => Err(format!(
                "final bound {v} != true k-th score {}",
                self.true_kth
            )),
            None => Err("no bound was ever published".to_string()),
        }
    }
}

/// The verification runs: correct protocol proved on two
/// configurations (plus a deeper one when `deep`), three broken
/// variants refuted.
pub fn suite(deep: bool) -> Vec<Report> {
    let mut reports = vec![
        Report {
            name: "bound: correct, 2 threads, k=2, distinct scores",
            expect_flaw: false,
            outcome: sched::explore(
                BoundModel::new(Variant::Correct, 2, &[&[5, 1], &[4, 3]]),
                200_000,
            ),
        },
        Report {
            name: "bound: correct, 2 threads, k=2, tied scores",
            expect_flaw: false,
            outcome: sched::explore(
                BoundModel::new(Variant::Correct, 2, &[&[4, 4], &[4, 2]]),
                200_000,
            ),
        },
        Report {
            name: "bound: stale prev under lock is refuted",
            expect_flaw: true,
            outcome: sched::explore(
                BoundModel::new(Variant::StalePrevUnderLock, 2, &[&[5, 1], &[4, 3]]),
                200_000,
            ),
        },
        Report {
            name: "bound: publishing the max instead of the k-th is refuted",
            expect_flaw: true,
            outcome: sched::explore(
                BoundModel::new(Variant::PublishMax, 2, &[&[5, 1], &[4, 3]]),
                200_000,
            ),
        },
        Report {
            name: "bound: publishing before the heap fills is refuted",
            expect_flaw: true,
            outcome: sched::explore(
                BoundModel::new(Variant::EarlyPublish, 2, &[&[5, 1], &[4, 3]]),
                200_000,
            ),
        },
    ];
    if deep {
        reports.push(Report {
            name: "bound: correct, 3 threads, k=3",
            expect_flaw: false,
            outcome: sched::explore(
                BoundModel::new(Variant::Correct, 3, &[&[6, 2], &[5, 3], &[4, 1]]),
                5_000_000,
            ),
        });
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::super::sched::Outcome;
    use super::*;

    #[test]
    fn fast_suite_holds() {
        for r in suite(false) {
            assert!(
                r.ok(),
                "{}: unexpected outcome {:?}",
                r.name,
                match r.outcome {
                    Outcome::Proved { states } => format!("proved ({states})"),
                    Outcome::Flaw(ref ce) => format!("flaw: {} via {:?}", ce.reason, ce.trace),
                    Outcome::Truncated { states } => format!("truncated ({states})"),
                }
            );
        }
    }

    #[cfg(feature = "model-check")]
    #[test]
    fn deep_suite_holds() {
        for r in suite(true) {
            assert!(r.ok(), "{}", r.name);
        }
    }

    #[test]
    fn stale_prev_counterexample_is_a_double_publish() {
        let out = sched::explore(
            BoundModel::new(Variant::StalePrevUnderLock, 2, &[&[5, 1], &[4, 3]]),
            200_000,
        );
        match out {
            Outcome::Flaw(ce) => assert!(ce.reason.contains("strictly increasing")),
            other => panic!("expected monotonicity flaw, got {other:?}"),
        }
    }
}
