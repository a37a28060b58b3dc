//! Loom-lite: a deterministic explicit-state model checker for the two
//! concurrency protocols the miner's correctness rests on.
//!
//! [`sched`] is the exhaustive bounded-interleaving explorer: a model is
//! a finite state machine whose per-thread steps are exactly the
//! protocol's atomic actions (one lock acquisition, one atomic
//! load/store/RMW, one deque operation), and the explorer enumerates
//! *every* interleaving (with stale-read branching standing in for
//! weak-memory load semantics), checking an invariant in every reached
//! state and a completeness property in every terminal state.
//!
//! [`bound`] models [`SharedBound`](../../core/src/topk.rs): the
//! lock-free published top-k bound. It proves, under coherence-only
//! (i.e. fully relaxed) load semantics, that every value a reader can
//! observe is ≤ the true k-th best score, that the published sequence is
//! strictly increasing, and that the final published bound equals the
//! true k-th score — and it proves the checker has teeth by finding
//! counterexamples in three deliberately broken variants.
//!
//! [`term`] models the pending-counter termination protocol of the
//! pool engines' shared execution core,
//! [`exec.rs`](../../core/src/exec.rs): register-before-push
//! spawning, complete-before-decrement, and exit on a zero read during
//! an empty scan. It proves no worker ever exits while any task is
//! queued or running (no premature exit, no lost work), and finds the
//! premature-exit counterexample when spawning pushes before it
//! registers.
//!
//! [`shard`] models the shard-residency/eviction protocol of
//! [`shard.rs`](../../graph/src/shard.rs): pin-on-acquire,
//! evict-unpinned-LRU-to-fit, release-decrements. It proves no shard is
//! evicted while a task is mining it, residency stays inside the memory
//! budget, no scripted root task is lost, and the blocked wait (every
//! resident shard pinned) is not a deadlock — and refutes the
//! evict-under-pin, budget-blind and leaky-release variants.
//!
//! [`cancel`] models the cooperative cancellation/drain protocol of the
//! execution core both pool engines run on,
//! [`exec.rs`](../../core/src/exec.rs): a once-set shared flag
//! observed at every loop top, drain-exactly-once on every exit path
//! (cancel, empty queue, and the `catch_unwind` panic path), at most
//! one stale task start per worker after cancellation. It proves no
//! counters are lost or double-merged on any interleaving — and
//! refutes the exit-without-drain, double-drain, and
//! panic-skips-publish variants.
//!
//! [`admission`] models the service admission-control protocol of
//! [`service.rs`](../../core/src/service.rs): one mutex-guarded slot
//! pool with a bounded wait queue, typed `Overloaded` shedding, and
//! RAII release on every exit path (complete, cancel, panic). It
//! proves slot conservation (`available + holders == capacity`
//! always), true queue accounting, shed-only-under-pressure, and a
//! full pool at quiescence — and refutes the leak-on-panic,
//! leak-queue-on-cancel, and double-release variants.
//!
//! [`singleflight`] models the result cache's single-flight
//! publication protocol of [`service.rs`](../../core/src/service.rs):
//! probe/install under one lock, leader mines, publish-or-abandon with
//! `notify_all`, followers recheck under the lock on every wake. It
//! proves at most one leader mines a key at a time, every served value
//! is the published one, a failed leader hands off to exactly one
//! follower, and coalescing is real (one mine per key absent failures)
//! — and refutes the late-insert (double mine), fail-leaves-InFlight
//! (stuck followers), and serve-without-recheck variants.
//!
//! Small configurations run in plain `cargo test`; the larger sweeps are
//! behind the `model-check` feature (CI's deep leg) and all of them run
//! via `grm-analyze model`.

pub mod admission;
pub mod bound;
pub mod cancel;
pub mod sched;
pub mod shard;
pub mod singleflight;
pub mod term;

use sched::Outcome;

/// One named verification run, for `grm-analyze model` output.
pub struct Report {
    /// Which protocol/configuration ran.
    pub name: &'static str,
    /// Whether a counterexample was *expected* (a teeth-check of a
    /// deliberately broken variant).
    pub expect_flaw: bool,
    /// What the explorer found.
    pub outcome: Outcome,
}

impl Report {
    /// Did the run match expectations?
    pub fn ok(&self) -> bool {
        match &self.outcome {
            Outcome::Proved { .. } => !self.expect_flaw,
            Outcome::Flaw(_) => self.expect_flaw,
            Outcome::Truncated { .. } => false,
        }
    }
}

/// The full verification suite (deep configurations included — the
/// feature gate only trims what runs under `cargo test -q`).
pub fn full_suite() -> Vec<Report> {
    let mut reports = bound::suite(true);
    reports.extend(term::suite(true));
    reports.extend(shard::suite(true));
    reports.extend(cancel::suite(true));
    reports.extend(admission::suite(true));
    reports.extend(singleflight::suite(true));
    reports
}
