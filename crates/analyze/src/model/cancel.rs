//! Model of the cooperative cancellation/drain protocol
//! (crates/core/src/exec.rs, the one worker loop both pool engines run
//! on): a shared cancel flag is set once (by a deadline, a caller, or a
//! panicking sibling), every worker re-checks it at the top of its task
//! loop, a worker that observes it *drains* — publishes its locally
//! accumulated counters into the shared results exactly once — and then
//! exits; a
//! worker that panics mid-stream publishes its completed-task counters
//! on the unwind path before cancelling its siblings.
//!
//! The model's atomic actions mirror the code's: the flag check and the
//! task take are *separate* steps (the queue pop happens after the
//! check, so one stale task start per worker is admissible — that is
//! the cooperative part), task execution bumps a worker-local counter
//! (the code's per-worker `MinerStats`), and the drain is one step (the
//! code's single `drained.lock().absorb`). A scripted panic replaces
//! one worker's task completion, exactly where `catch_unwind` sits.
//!
//! Checked invariants:
//! 1. **Publish-exactly-once** (no double-drain): no worker's counters
//!    are ever merged twice. The [`Variant::DoubleDrain`] teeth-check
//!    publishes on the cancel path and then falls back into the loop.
//! 2. **Sibling-stop eventually observed**: after the flag is set, a
//!    worker starts at most one further task (the one racing its last
//!    clear-flag check) — it can never take two.
//! 3. **No lost work on cancel** (terminal): every worker published
//!    exactly once — on the cancel path, the normal empty-queue path,
//!    *or* the panic unwind path — and the merged total equals the
//!    total work executed. The [`Variant::ExitWithoutDrain`] and
//!    [`Variant::PanicSkipsPublish`] teeth-checks each lose counters.
//! 4. **Termination**: cancellation can strand queued tasks by design,
//!    but never a worker — every interleaving reaches all-exited.

use super::sched::{self, Model};
use super::Report;

/// Which protocol to check.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Variant {
    /// The shipped drain-exactly-once protocol.
    Correct,
    /// A worker that observes the cancel flag exits without publishing
    /// its local counters — partial stats silently lose work.
    ExitWithoutDrain,
    /// A worker that observes the cancel flag publishes and then falls
    /// back into the task loop — and publishes again on the next
    /// observation.
    DoubleDrain,
    /// The panic path cancels the siblings but skips the unwind-side
    /// publish — the panicking worker's completed tasks vanish.
    PanicSkipsPublish,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum Pc {
    /// Loop top: about to load the cancel flag.
    Check,
    /// Flag observed clear: about to pop the shared queue (the flag may
    /// be set between these two steps — the admissible stale start).
    Take,
    /// Executing one task.
    Exec,
    /// Exited.
    Done,
}

/// Model state.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CancelModel {
    variant: Variant,
    /// Tasks remaining in the shared queue.
    queue: u8,
    /// The shared cancel flag (set once, never cleared).
    flag: bool,
    /// The one-shot canceller thread (deadline/caller) still to fire.
    canceller_armed: bool,
    pc: Vec<Pc>,
    /// Per-worker completed-task counters (the local `MinerStats`).
    executed: Vec<u8>,
    /// Per-worker publish events (must end at exactly 1).
    published: Vec<u8>,
    /// Sum of all drained counters (the shared merged stats).
    merged: u8,
    /// Per-worker tasks started after the flag was set.
    stale_starts: Vec<u8>,
    /// Scripted panic: worker `.0` panics in place of completing a task
    /// once it has `.1` completions behind it.
    panic_at: Option<(usize, u8)>,
}

impl CancelModel {
    /// `workers` workers over a queue of `tasks`; `canceller` arms the
    /// external one-shot cancel, `panic_at` scripts an unwinding worker.
    pub fn new(
        variant: Variant,
        workers: usize,
        tasks: u8,
        canceller: bool,
        panic_at: Option<(usize, u8)>,
    ) -> Self {
        CancelModel {
            variant,
            queue: tasks,
            flag: false,
            canceller_armed: canceller,
            pc: vec![Pc::Check; workers],
            executed: vec![0; workers],
            published: vec![0; workers],
            merged: 0,
            stale_starts: vec![0; workers],
            panic_at,
        }
    }

    fn workers(&self) -> usize {
        self.pc.len()
    }

    fn publish(&mut self, tid: usize) {
        self.merged += self.executed[tid];
        self.published[tid] += 1;
    }
}

impl Model for CancelModel {
    fn threads(&self) -> usize {
        // Workers plus the one-shot canceller.
        self.workers() + 1
    }

    fn runnable(&self, tid: usize) -> bool {
        if tid == self.workers() {
            self.canceller_armed
        } else {
            self.pc[tid] != Pc::Done
        }
    }

    fn step(&self, tid: usize) -> Vec<(String, Self)> {
        let mut s = self.clone();
        if tid == self.workers() {
            s.flag = true;
            s.canceller_armed = false;
            return vec![("canceller:set flag".to_string(), s)];
        }
        match self.pc[tid] {
            Pc::Done => Vec::new(),
            Pc::Check => {
                if self.flag {
                    let label;
                    match self.variant {
                        Variant::ExitWithoutDrain => {
                            // Broken: exit, counters never merged.
                            s.pc[tid] = Pc::Done;
                            label = format!("w{tid}:cancelled → exit WITHOUT drain");
                        }
                        Variant::DoubleDrain => {
                            // Broken: publish, then fall back into the
                            // loop — the next check publishes again.
                            s.publish(tid);
                            s.pc[tid] = Pc::Check;
                            label = format!("w{tid}:cancelled → drain, loop again");
                        }
                        Variant::Correct | Variant::PanicSkipsPublish => {
                            s.publish(tid);
                            s.pc[tid] = Pc::Done;
                            label = format!("w{tid}:cancelled → drain once, exit");
                        }
                    }
                    vec![(label, s)]
                } else {
                    s.pc[tid] = Pc::Take;
                    vec![(format!("w{tid}:flag clear"), s)]
                }
            }
            Pc::Take => {
                if self.queue > 0 {
                    s.queue -= 1;
                    if self.flag {
                        // The admissible race: the flag was set after
                        // this worker's clear-flag check.
                        s.stale_starts[tid] += 1;
                    }
                    s.pc[tid] = Pc::Exec;
                    vec![(format!("w{tid}:take task"), s)]
                } else {
                    // Queue exhausted: the normal exit also drains.
                    s.publish(tid);
                    s.pc[tid] = Pc::Done;
                    vec![(format!("w{tid}:queue empty → drain, exit"), s)]
                }
            }
            Pc::Exec => {
                if self.panic_at == Some((tid, self.executed[tid])) {
                    // The task body unwinds: `catch_unwind` cancels the
                    // siblings and (correctly) still drains the
                    // counters of the tasks completed before it.
                    s.flag = true;
                    if self.variant != Variant::PanicSkipsPublish {
                        s.publish(tid);
                    }
                    s.pc[tid] = Pc::Done;
                    let suffix = if self.variant == Variant::PanicSkipsPublish {
                        "exit WITHOUT drain"
                    } else {
                        "drain partials, exit"
                    };
                    vec![(format!("w{tid}:panic → cancel siblings, {suffix}"), s)]
                } else {
                    s.executed[tid] += 1;
                    s.pc[tid] = Pc::Check;
                    vec![(format!("w{tid}:complete task"), s)]
                }
            }
        }
    }

    fn invariant(&self) -> Result<(), String> {
        for tid in 0..self.workers() {
            if self.published[tid] > 1 {
                return Err(format!(
                    "double drain: w{tid} published its counters {} times",
                    self.published[tid]
                ));
            }
            if self.stale_starts[tid] > 1 {
                return Err(format!(
                    "sibling-stop not observed: w{tid} started {} tasks after cancellation",
                    self.stale_starts[tid]
                ));
            }
        }
        if self.variant == Variant::Correct {
            // Merged stats always equal the drained workers' work.
            let drained: u8 = (0..self.workers())
                .filter(|&t| self.published[t] > 0)
                .map(|t| self.executed[t])
                .sum();
            if self.merged != drained {
                return Err(format!(
                    "merge drift: merged={} but drained workers executed {drained}",
                    self.merged
                ));
            }
        }
        Ok(())
    }

    fn final_check(&self) -> Result<(), String> {
        if self.pc.iter().any(|p| *p != Pc::Done) {
            return Err("terminal state with a non-exited worker".to_string());
        }
        for tid in 0..self.workers() {
            if self.published[tid] != 1 {
                return Err(format!(
                    "lost work: w{tid} exited having published {} times (want exactly 1)",
                    self.published[tid]
                ));
            }
        }
        let total: u8 = self.executed.iter().sum();
        if self.merged != total {
            return Err(format!(
                "lost work: merged {} of {} executed tasks",
                self.merged, total
            ));
        }
        Ok(())
    }
}

/// The verification runs: the shipped protocol proved with an external
/// canceller and with a panicking worker (plus, when `deep`, a larger
/// configuration), and all three broken variants refuted.
pub fn suite(deep: bool) -> Vec<Report> {
    let mut reports = vec![
        Report {
            name: "cancel: correct, 2 workers, 3 tasks, cancel at any point",
            expect_flaw: false,
            outcome: sched::explore(
                CancelModel::new(Variant::Correct, 2, 3, true, None),
                2_000_000,
            ),
        },
        Report {
            name: "cancel: correct, worker panic drains its partial counters",
            expect_flaw: false,
            outcome: sched::explore(
                CancelModel::new(Variant::Correct, 2, 3, false, Some((0, 1))),
                2_000_000,
            ),
        },
        Report {
            name: "cancel: exit-without-drain is refuted",
            expect_flaw: true,
            outcome: sched::explore(
                CancelModel::new(Variant::ExitWithoutDrain, 2, 3, true, None),
                2_000_000,
            ),
        },
        Report {
            name: "cancel: double-drain is refuted",
            expect_flaw: true,
            outcome: sched::explore(
                CancelModel::new(Variant::DoubleDrain, 2, 3, true, None),
                2_000_000,
            ),
        },
        Report {
            name: "cancel: panic-skips-publish is refuted",
            expect_flaw: true,
            outcome: sched::explore(
                CancelModel::new(Variant::PanicSkipsPublish, 2, 3, true, Some((0, 1))),
                2_000_000,
            ),
        },
    ];
    if deep {
        reports.push(Report {
            name: "cancel: correct, 3 workers, 4 tasks, cancel + panic",
            expect_flaw: false,
            outcome: sched::explore(
                CancelModel::new(Variant::Correct, 3, 4, true, Some((1, 1))),
                8_000_000,
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
    fn lost_drain_counterexample_names_the_bug() {
        let out = sched::explore(
            CancelModel::new(Variant::ExitWithoutDrain, 2, 3, true, None),
            2_000_000,
        );
        match out {
            Outcome::Flaw(ce) => assert!(ce.reason.contains("lost work"), "{}", ce.reason),
            other => panic!("expected lost-work flaw, got {other:?}"),
        }
    }

    #[test]
    fn double_drain_counterexample_names_the_bug() {
        let out = sched::explore(
            CancelModel::new(Variant::DoubleDrain, 2, 3, true, None),
            2_000_000,
        );
        match out {
            Outcome::Flaw(ce) => assert!(ce.reason.contains("double drain"), "{}", ce.reason),
            other => panic!("expected double-drain flaw, got {other:?}"),
        }
    }
}
