//! Model of the work-stealing pool's termination protocol
//! (crates/core/src/exec.rs): a `pending` counter registers every
//! task *before* it becomes stealable, decrements only *after* the task
//! (and all its spawn registrations) completed, and an idle worker
//! exits only when a full empty sweep of every queue is followed by a
//! zero read of `pending`.
//!
//! The model's atomic actions mirror the code's: each queue probe of
//! the idle sweep is its own step (the sweep is *not* atomic — a task
//! may land in an already-probed queue mid-sweep, which is exactly
//! where naive protocols lose work), each spawn is two steps
//! (`fetch_add`, then push), and completion is one (`fetch_sub`).
//! Tasks are shaped `Task(n)`: executing it spawns `n` children
//! `Task(n-1)`, so one root task exercises nested spawning while
//! stolen.
//!
//! Checked invariants:
//! 1. **No premature exit**: whenever any worker has exited, no task is
//!    queued anywhere and no worker is mid-execution. (A worker exits
//!    only on `pending == 0`; register-before-push makes that read
//!    prove the system empty. The [`Variant::PushBeforeRegister`]
//!    teeth-check loses the race and exits with work outstanding.)
//! 2. **Counter accounting** (correct variant): `pending` always equals
//!    queued tasks + executing workers + registered-but-unpushed
//!    children.
//! 3. **Terminally**: all workers exited, every task executed, nothing
//!    queued — no lost work. No state has a blocked worker (the pool
//!    spins through its sweep; there is no wait to miss a wakeup on).

use super::sched::{self, Model};
use super::Report;

/// Which protocol to check.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Variant {
    /// The shipped register-before-push protocol.
    Correct,
    /// Spawns push the child before registering it — the classic
    /// premature-exit bug.
    PushBeforeRegister,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum Pc {
    /// Idle sweep, probing one source per step: 0 = own deque,
    /// 1 = injector, 2.. = victims in order, last = the pending read.
    Scan(u8),
    /// Executing `Task(task)`, `left` children still to spawn;
    /// `mid` = the first half of the current child's spawn is done.
    Exec { task: u8, left: u8, mid: bool },
    /// Exited.
    Done,
}

/// Model state.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TermModel {
    variant: Variant,
    /// The shared counter (i32: the broken variant may underflow — the
    /// model keeps the value exact rather than wrapping).
    pending: i32,
    /// Shared FIFO injector (front = index 0).
    injector: Vec<u8>,
    /// Per-worker deques: owner pops the back, thieves take the front.
    deques: Vec<Vec<u8>>,
    pc: Vec<Pc>,
    executed: u32,
    /// Total tasks the configuration generates.
    total: u32,
}

/// 1 + n·size(n-1): `Task(n)` spawns n children `Task(n-1)`.
fn task_tree_size(n: u8) -> u32 {
    1 + (n as u32) * if n > 0 { task_tree_size(n - 1) } else { 0 }
}

impl TermModel {
    /// `workers` workers over an injector seeded with `roots` (each
    /// pre-registered, as the pool does with its root tasks).
    pub fn new(variant: Variant, workers: usize, roots: &[u8]) -> Self {
        TermModel {
            variant,
            pending: roots.len() as i32,
            injector: roots.to_vec(),
            deques: vec![Vec::new(); workers],
            pc: vec![Pc::Scan(0); workers],
            executed: 0,
            total: roots.iter().map(|&r| task_tree_size(r)).sum(),
        }
    }

    fn workers(&self) -> usize {
        self.pc.len()
    }

    fn start_exec(&self, s: &mut TermModel, tid: usize, task: u8) {
        s.pc[tid] = Pc::Exec {
            task,
            left: task,
            mid: false,
        };
    }
}

impl Model for TermModel {
    fn threads(&self) -> usize {
        self.workers()
    }

    fn runnable(&self, tid: usize) -> bool {
        self.pc[tid] != Pc::Done
    }

    fn step(&self, tid: usize) -> Vec<(String, Self)> {
        let mut s = self.clone();
        match self.pc[tid] {
            Pc::Done => Vec::new(),
            Pc::Scan(stage) => {
                let victims: Vec<usize> = (0..self.workers()).filter(|&w| w != tid).collect();
                let label;
                if stage == 0 {
                    // Own deque, LIFO pop.
                    if let Some(task) = s.deques[tid].pop() {
                        self.start_exec(&mut s, tid, task);
                        label = format!("w{tid}:pop local Task({task})");
                    } else {
                        s.pc[tid] = Pc::Scan(1);
                        label = format!("w{tid}:local empty");
                    }
                } else if stage == 1 {
                    if !s.injector.is_empty() {
                        let task = s.injector.remove(0);
                        self.start_exec(&mut s, tid, task);
                        label = format!("w{tid}:take injector Task({task})");
                    } else {
                        s.pc[tid] = Pc::Scan(2);
                        label = format!("w{tid}:injector empty");
                    }
                } else if let Some(&v) = victims.get(stage as usize - 2) {
                    if !s.deques[v].is_empty() {
                        let task = s.deques[v].remove(0);
                        self.start_exec(&mut s, tid, task);
                        label = format!("w{tid}:steal Task({task}) from w{v}");
                    } else {
                        s.pc[tid] = Pc::Scan(stage + 1);
                        label = format!("w{tid}:w{v} empty");
                    }
                } else {
                    // The termination read.
                    if self.pending == 0 {
                        s.pc[tid] = Pc::Done;
                        label = format!("w{tid}:pending==0 → exit");
                    } else {
                        s.pc[tid] = Pc::Scan(0);
                        label = format!("w{tid}:pending={} → rescan", self.pending);
                    }
                }
                vec![(label, s)]
            }
            Pc::Exec { task, left, mid } => {
                if left == 0 {
                    // Completion: everything this task spawned is
                    // already registered, so the decrement cannot free
                    // the exit check early.
                    s.pending -= 1;
                    s.executed += 1;
                    s.pc[tid] = Pc::Scan(0);
                    return vec![(format!("w{tid}:complete Task({task})"), s)];
                }
                let child = task - 1;
                let register_first = self.variant == Variant::Correct;
                if !mid {
                    if register_first {
                        s.pending += 1;
                    } else {
                        s.deques[tid].push(child);
                    }
                    s.pc[tid] = Pc::Exec {
                        task,
                        left,
                        mid: true,
                    };
                    let what = if register_first { "register" } else { "push" };
                    vec![(format!("w{tid}:{what} child Task({child})"), s)]
                } else {
                    if register_first {
                        s.deques[tid].push(child);
                    } else {
                        s.pending += 1;
                    }
                    s.pc[tid] = Pc::Exec {
                        task,
                        left: left - 1,
                        mid: false,
                    };
                    let what = if register_first { "push" } else { "register" };
                    vec![(format!("w{tid}:{what} child Task({child})"), s)]
                }
            }
        }
    }

    fn invariant(&self) -> Result<(), String> {
        let queued: usize =
            self.injector.len() + self.deques.iter().map(|d| d.len()).sum::<usize>();
        let executing = self
            .pc
            .iter()
            .filter(|p| matches!(p, Pc::Exec { .. }))
            .count();
        if self.pc.contains(&Pc::Done) && (queued > 0 || executing > 0) {
            return Err(format!(
                "premature exit: a worker exited with {queued} task(s) queued and {executing} executing"
            ));
        }
        if self.variant == Variant::Correct {
            let registered_unpushed = self
                .pc
                .iter()
                .filter(|p| matches!(p, Pc::Exec { mid: true, .. }))
                .count();
            let expected = (queued + executing + registered_unpushed) as i32;
            if self.pending != expected {
                return Err(format!(
                    "counter drift: pending={} but {queued} queued + {executing} executing + {registered_unpushed} registered-unpushed",
                    self.pending
                ));
            }
        }
        Ok(())
    }

    fn final_check(&self) -> Result<(), String> {
        if self.pc.iter().any(|p| *p != Pc::Done) {
            return Err("terminal state with a non-exited worker".to_string());
        }
        if self.executed != self.total {
            return Err(format!(
                "lost work: executed {} of {} tasks",
                self.executed, self.total
            ));
        }
        if self.pending != 0 {
            return Err(format!("terminal pending = {}", self.pending));
        }
        Ok(())
    }
}

/// The verification runs: the shipped protocol proved on one (plus,
/// when `deep`, a second larger) configuration; push-before-register
/// refuted.
pub fn suite(deep: bool) -> Vec<Report> {
    let mut reports = vec![
        Report {
            name: "term: correct, 2 workers, Task(2) root",
            expect_flaw: false,
            outcome: sched::explore(TermModel::new(Variant::Correct, 2, &[2]), 2_000_000),
        },
        Report {
            name: "term: push-before-register is refuted",
            expect_flaw: true,
            outcome: sched::explore(
                TermModel::new(Variant::PushBeforeRegister, 2, &[2]),
                2_000_000,
            ),
        },
    ];
    if deep {
        reports.push(Report {
            name: "term: correct, 2 workers, two roots",
            expect_flaw: false,
            outcome: sched::explore(TermModel::new(Variant::Correct, 2, &[2, 1]), 8_000_000),
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
    fn premature_exit_counterexample_names_the_bug() {
        let out = sched::explore(
            TermModel::new(Variant::PushBeforeRegister, 2, &[2]),
            2_000_000,
        );
        match out {
            Outcome::Flaw(ce) => assert!(ce.reason.contains("premature exit"), "{}", ce.reason),
            other => panic!("expected premature-exit flaw, got {other:?}"),
        }
    }

    #[test]
    fn task_tree_sizes() {
        assert_eq!(task_tree_size(0), 1);
        assert_eq!(task_tree_size(1), 2);
        assert_eq!(task_tree_size(2), 5);
    }
}
