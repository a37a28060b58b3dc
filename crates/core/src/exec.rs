//! The execution core shared by the in-core ([`crate::parallel`], and
//! [`crate::GrMiner`] as its one-worker pool) and sharded
//! ([`crate::sharded`]) engines.
//!
//! Algorithm 1's Main loop splits into independent root subtrees, and
//! both pool engines mine exactly those subtrees in collect mode under
//! one GRMiner(k) shared bound. They differ only in where a subtree's
//! edges come from — one shared in-core model, or a shard or value slice
//! made resident per unit — and that is all an [`Engine`] supplies.
//! Everything else lives here, once:
//!
//! * **Scheduling.** One work-stealing schedule for every engine: the
//!   units seed a shared [`Injector`] in list order; each worker owns a
//!   LIFO deque, refills it from the injector in batches and steals
//!   *half* of a sibling's deque when idle
//!   ([`Stealer::steal_batch_and_pop`]), and a `pending` counter decides
//!   termination. A unit is only a description until its worker mines
//!   it, so a batch costs no residency: each worker still holds at most
//!   one resident unit. With a split policy the workers also detach
//!   oversized recursion subtrees as new units.
//! * **The loop-top probe.** Every worker iteration counts one
//!   `cancel_checks` probe and stops on the token, an expired deadline
//!   (which trips the token for the siblings), or a sibling's typed
//!   error — the protocol `grm_analyze::model::cancel` checks.
//! * **Containment.** Each unit runs under `catch_unwind` (with the
//!   `worker.body` failpoint): the first panic is latched and trips the
//!   token, the first typed error is latched and stops the siblings at
//!   their next loop top. Every worker drains its harvest exactly once on
//!   every exit path, and the typed exits (`WorkerPanicked`, `Cancelled`,
//!   or the latched error) carry the drained counters.
//! * **The collect-mode harvest** ([`Worker::mine`]) and the sequential
//!   post-pass below.
//!
//! **The shared dynamic top-k bound.** Workers run in *collect* mode
//! (generality is order-sensitive across subtrees, so Def. 5(2) and the
//! top-k rank run in a sequential post-pass). GRMiner(k)'s dynamic
//! threshold upgrade (line 28) is a [`SharedBound`]: an
//! `AtomicU64`-published, monotonically tightening lower bound on the
//! final k-th score, fed only with candidates *guaranteed to survive*
//! the post-pass (every collected candidate when the generality filter
//! is off; otherwise exactly the candidates whose strictly more general
//! forms are excluded from collection by construction — empty edge
//! descriptor, minimal reportable LHS width). Those candidates are a
//! subset of the static run's survivor stream, and a k-th best score
//! over a subset never exceeds the k-th best over the whole, so the
//! published bound `B` satisfies `B ≤ F`, the k-th score of the static
//! result. Combined with anti-monotonicity (a pruned subtree's
//! candidates all score below the candidate that was cut, hence below
//! `B ≤ F`) this gives the exactness backbone: **no candidate scoring
//! ≥ F is ever lost**, at any timing. The post-pass debug-asserts the
//! bound's soundness on every run.
//!
//! **Exact generality under pruning.** What bound pruning *can* lose are
//! below-bound candidates that Def. 5(2) would have used as suppressors
//! (where depends on worker timing). Workers record the `l ∧ w` chains in
//! which the bound cut a subtree at a threshold-passing score — the only
//! places a suppressor can have been lost (LEFT/EDGE descent is never
//! score-pruned, and losses below `min_supp`/`min_score` cannot hide a
//! valid suppressor). The post-pass verifies each would-be top-k
//! member's generality **exactly**: a collected strict generalization
//! suppresses outright, and an uncollected one is a suppressor only if
//! its `l ∧ w` sits on a recorded pruned frontier *and*
//! [`Engine::evaluate`] over the complete edge set (memoized) passes the
//! thresholds. Verification touches only the ranked prefix of the
//! survivors against the (typically empty) frontier set; with no
//! frontier the selection is the plain rank of the generality survivors.
//! The result: every engine in dynamic mode is **bit-identical to the
//! static Definition-5 semantics**, and deterministic across runs,
//! thread counts, splitting and sharding.

use crate::config::MinerConfig;
use crate::context::MiningContext;
use crate::descriptor::{EdgeDescriptor, NodeDescriptor};
use crate::error::{panic_message, MinerError};
use crate::generality::GeneralityIndex;
use crate::gr::{Gr, ScoredGr};
use crate::metrics::MetricInputs;
use crate::miner::{MineResult, MinerScratch, Run, SplitPolicy, SubtreeTask};
use crate::stats::MinerStats;
use crate::tail::Dims;
use crate::topk::SharedBound;
use crossbeam::deque::{Injector, Steal, Stealer, Worker as Deque};
use grm_graph::{failpoint, CancelToken, GraphError, Schema};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Resolve the worker count: `requested` when non-zero, otherwise the
/// detected available parallelism — degrading to **one worker with a
/// warning** (never an abort) when detection fails, since a mining run
/// on a restricted platform should fall back to the sequential plan.
fn resolve_threads(requested: usize) -> usize {
    resolve_threads_from(
        requested,
        std::thread::available_parallelism().map(|n| n.get()),
    )
    .0
}

/// Testable core of [`resolve_threads`]; returns `(threads, warned)`.
pub(crate) fn resolve_threads_from(
    requested: usize,
    detected: std::io::Result<usize>,
) -> (usize, bool) {
    if requested != 0 {
        return (requested, false);
    }
    match detected {
        Ok(n) => (n.max(1), false),
        Err(e) => {
            eprintln!(
                "grm_core: cannot detect available parallelism ({e}); \
                 falling back to 1 worker"
            );
            (1, true)
        }
    }
}

/// An engine's side of a pool mine: how one of its units is made
/// resident and mined, and how a GR is measured over its complete edge
/// set.
pub(crate) trait Engine: Sync {
    /// One independent unit of work.
    type Unit: Send;

    /// Mine `unit`: make its edge set resident and hand it to
    /// [`Worker::mine`]. A typed error stops the siblings at their next
    /// loop top and ends the mine with that error.
    fn mine(&self, unit: Self::Unit, worker: &mut Worker<'_>) -> Result<(), MinerError>;

    /// Count `gr` over the complete edge set (the post-pass's
    /// suppressor check).
    fn evaluate(&self, gr: &Gr) -> Result<MetricInputs, MinerError>;

    /// Fold the engine's own counters into the stats of a finished or
    /// failed mine.
    fn finish(&self, _stats: &mut MinerStats) {}
}

/// Detach recursion subtrees the policy admits, wrapped as new units by
/// the function.
pub(crate) type Split<U> = Option<(SplitPolicy, fn(SubtreeTask) -> U)>;

/// One pool mine, begun at an engine's entry point: the clock, the
/// fault count, the materialized token and deadline, the worker count,
/// and what every unit is mined against.
pub(crate) struct Exec<'a> {
    config: &'a MinerConfig,
    schema: &'a Schema,
    dims: &'a Dims,
    threads: usize,
    start: Instant,
    faults_before: u64,
    token: CancelToken,
    deadline: Option<Instant>,
}

impl<'a> Exec<'a> {
    /// Start the clock for a mine of `config` with `threads` workers
    /// (0 = available parallelism).
    pub(crate) fn start(
        config: &'a MinerConfig,
        schema: &'a Schema,
        dims: &'a Dims,
        threads: usize,
    ) -> Self {
        let start = Instant::now();
        Exec {
            config,
            schema,
            dims,
            threads: resolve_threads(threads),
            start,
            faults_before: failpoint::fired_total(),
            // Materialized so an expired deadline or a panicking worker
            // always has a real flag to trip for its siblings (and for a
            // shard pool's blocked waiters), even when the caller passed
            // the inert default token.
            token: config.cancel.materialize(),
            deadline: config
                .deadline_ms
                .map(|ms| start + Duration::from_millis(ms)),
        }
    }

    /// The resolved worker count.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// The token every worker, run and shard-pool wait observes.
    pub(crate) fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Mine `units` (over `edge_count` edges in all) on the pool, then
    /// select the top-k in the sequential post-pass.
    pub(crate) fn run<E: Engine>(
        self,
        engine: &E,
        units: Vec<E::Unit>,
        split: Split<E::Unit>,
        edge_count: u64,
    ) -> Result<MineResult, MinerError> {
        let bound = SharedBound::new(self.config.k);
        let mut harvest = Harvest::default();
        if edge_count > 0 && !units.is_empty() {
            let (drained, panicked, failed) = self.pool(engine, units, split, &bound);
            harvest = drained;
            // Typed exits, after the drain: every worker that exited
            // cleanly has published its counters into the harvest.
            if panicked.is_some() || failed.is_some() || self.token.is_cancelled() {
                return Err(self.fail(engine, harvest.stats, panicked, failed));
            }
        }
        let Harvest {
            candidates,
            mut stats,
            frontiers,
        } = harvest;
        let candidates = candidates.into_iter().flatten().collect();
        match self.select(engine, candidates, frontiers, bound.get(), &mut stats) {
            Ok(top) => {
                self.finish(engine, &mut stats);
                Ok(MineResult {
                    top,
                    stats,
                    edge_count,
                })
            }
            Err(e) => Err(self.fail(engine, stats, None, Some(e))),
        }
    }

    /// Run the worker pool over `units` and return the drained harvest
    /// with the first panic message and the first typed error.
    fn pool<E: Engine>(
        &self,
        engine: &E,
        units: Vec<E::Unit>,
        split: Split<E::Unit>,
        bound: &SharedBound,
    ) -> (Harvest, Option<String>, Option<MinerError>) {
        // Without splitting no new units ever appear, so workers beyond
        // the unit count could only ever spin.
        let workers = if split.is_some() {
            self.threads
        } else {
            self.threads.min(units.len())
        };
        let deques: Vec<Deque<E::Unit>> = (0..workers).map(|_| Deque::new_lifo()).collect();
        let pool = Pool {
            exec: self,
            bound,
            split,
            pending: AtomicUsize::new(units.len()),
            injector: Injector::new(),
            stealers: deques.iter().map(|d| d.stealer()).collect(),
            panicked: Mutex::new(None),
            failed: Mutex::new(None),
            drained: Mutex::new(Harvest::default()),
        };
        for u in units {
            pool.injector.push(u);
        }
        crossbeam::thread::scope(|scope| {
            for (wid, deque) in deques.into_iter().enumerate() {
                let pool = &pool;
                scope.spawn(move |_| pool.work(engine, wid, deque));
            }
        })
        // lint: allow(panic-in-hot-path) — unit panics are contained by
        // the catch_unwind envelope in `Pool::work`, so this fires only
        // if the containment bookkeeping itself panicked; re-raising
        // that is the only correct move.
        .expect("worker panicked outside the containment envelope");
        (
            pool.drained.into_inner(),
            pool.panicked.into_inner(),
            pool.failed.into_inner(),
        )
    }

    /// The typed error of a stopped mine, carrying `stats` as its
    /// partial counters where the variant has them.
    fn fail<E: Engine>(
        &self,
        engine: &E,
        mut stats: MinerStats,
        panicked: Option<String>,
        failed: Option<MinerError>,
    ) -> MinerError {
        self.finish(engine, &mut stats);
        let partial_stats = Box::new(stats);
        match (panicked, failed) {
            (Some(message), _) => MinerError::WorkerPanicked {
                message,
                partial_stats,
            },
            // A unit that lost a shard-pool wait to the flag surfaces
            // GraphError::Cancelled — the same condition as the flag.
            (None, None) | (None, Some(MinerError::Graph(GraphError::Cancelled))) => {
                MinerError::Cancelled { partial_stats }
            }
            (None, Some(e)) => e,
        }
    }

    /// Fold the engine's counters, the fault-injection delta since the
    /// mine began (always zero without the `fault-inject` feature) and
    /// the wall time into `stats`.
    fn finish<E: Engine>(&self, engine: &E, stats: &mut MinerStats) {
        engine.finish(stats);
        stats.faults_injected += failpoint::fired_total().saturating_sub(self.faults_before);
        stats.elapsed = self.start.elapsed();
    }

    /// Sequential post-pass: the top-k selection, with generality
    /// verified exactly against the recorded pruned frontiers (module
    /// docs).
    fn select<E: Engine>(
        &self,
        engine: &E,
        candidates: Vec<ScoredGr>,
        frontiers: Vec<(NodeDescriptor, EdgeDescriptor)>,
        bound: Option<f64>,
        stats: &mut MinerStats,
    ) -> Result<Vec<ScoredGr>, MinerError> {
        let config = self.config;
        let top = select_topk(
            self.schema,
            &|g: &Gr| engine.evaluate(g),
            config,
            candidates,
            frontiers,
            stats,
        )?;
        // A published bound implies k sure survivors existed, so the
        // result is a full top-k whose weakest member scores at least the
        // bound.
        debug_assert!(
            bound
                .is_none_or(|b| top.len() == config.k
                    && top.last().is_some_and(|kth| b <= kth.score + 1e-12)),
            "shared bound {bound:?} exceeds the final top-k ({} of k = {})",
            top.len(),
            config.k
        );
        Ok(top)
    }
}

/// Candidates, counters and pruned `l ∧ w` frontiers of completed units.
#[derive(Default)]
struct Harvest {
    /// One batch per unit, concatenated once for the post-pass (growing
    /// one vector per worker instead would copy every candidate on each
    /// regrowth and hold old and new buffers at once).
    candidates: Vec<Vec<ScoredGr>>,
    stats: MinerStats,
    frontiers: Vec<(NodeDescriptor, EdgeDescriptor)>,
}

impl Harvest {
    fn absorb(&mut self, mut other: Harvest) {
        self.candidates.append(&mut other.candidates);
        self.stats.merge(&other.stats);
        self.frontiers.append(&mut other.frontiers);
    }
}

/// The state every worker of one pool shares.
struct Pool<'p, U> {
    exec: &'p Exec<'p>,
    bound: &'p SharedBound,
    split: Split<U>,
    /// Units registered and not yet completed. A unit is registered
    /// *before* it is pushed, and its own registration outlives every
    /// subtree it spawns, so `pending == 0` is a stable "all work done"
    /// signal (the protocol `grm_analyze::model::term` checks).
    pending: AtomicUsize,
    injector: Injector<U>,
    stealers: Vec<Stealer<U>>,
    /// The first panic message; its writer also trips the token.
    panicked: Mutex<Option<String>>,
    /// The first typed error; siblings stop at their next loop top.
    failed: Mutex<Option<MinerError>>,
    /// Every worker's harvest, each drained exactly once.
    drained: Mutex<Harvest>,
}

impl<U: Send> Pool<'_, U> {
    /// One worker's loop: take a unit, mine it inside the containment
    /// envelope, repeat until the pool is empty or the mine stops; then
    /// drain.
    fn work<E: Engine<Unit = U>>(&self, engine: &E, wid: usize, deque: Deque<U>) {
        let exec = self.exec;
        let local = &deque;
        let spawn = self.split.map(|(policy, unit)| {
            let spawn = move |t: SubtreeTask| {
                // ordering: SeqCst. The registration must be visible
                // before the unit can be stolen (the push), and the
                // termination check below reasons about one total order
                // of registrations, completions, and zero-reads.
                // Release here + Acquire on the zero-read is the
                // minimum; SeqCst keeps all three operations in a single
                // total order so the exit argument needs no per-edge
                // pairing, and it costs nothing measurable at
                // per-subtree frequency. The protocol
                // (register-before-push, complete-before-decrement) is
                // exhaustively checked by `grm_analyze::model::term`.
                self.pending.fetch_add(1, Ordering::SeqCst);
                local.push(unit(t));
            };
            (policy, spawn)
        });
        let mut worker = Worker {
            exec,
            bound: self.bound,
            spawner: spawn
                .as_ref()
                .map(|(policy, f)| (*policy, f as &dyn Fn(SubtreeTask))),
            scratch: MinerScratch::default(),
            positions: Vec::new(),
            harvest: Harvest::default(),
        };
        let mut stolen = 0u64;
        // Idle backoff: a few yields for the race-y case, then short
        // sleeps — a spinning thief on an oversubscribed (or single-core)
        // host would otherwise steal cycles from the workers doing real
        // work.
        let mut idle_rounds = 0u32;
        loop {
            // The model's loop-top flag check (see
            // grm_analyze::model::cancel): at most one stale unit starts
            // after the flag is set, and the drain below runs exactly
            // once on every exit path.
            worker.harvest.stats.cancel_checks += 1;
            if exec.token.is_cancelled() || self.failed.lock().is_some() {
                break;
            }
            if exec.deadline.is_some_and(|d| Instant::now() >= d) {
                exec.token.cancel();
                break;
            }
            let Some(unit) = self.next_unit(local, wid, &mut stolen) else {
                // ordering: SeqCst zero-read of the termination
                // protocol. Needs at least Acquire (pairing with the
                // Release half of every completion decrement) so that a
                // zero read happens-after all completions; SeqCst
                // matches the registration and decrement sites for one
                // total order. A zero here proves no registered unit is
                // unfinished, and register-before-push proves no
                // unregistered unit is visible.
                if self.pending.load(Ordering::SeqCst) == 0 {
                    break;
                }
                // Without splitting no unit is ever spawned, so an empty
                // sweep means every remaining unit is owned by the
                // worker that will run it — waiting could never yield
                // work.
                if self.split.is_none() {
                    break;
                }
                idle_rounds += 1;
                if idle_rounds < 16 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(100));
                }
                continue;
            };
            idle_rounds = 0;
            // Containment envelope: a panic inside the unit (the miner, a
            // storage layer bug, or an injected "worker.body" fault) is
            // caught, latched, and converted into a cancellation of the
            // siblings — never a process abort, never a silently
            // incomplete merge. AssertUnwindSafe is sound because on the
            // Err path this worker publishes only the harvest of its
            // completed units and exits; the possibly inconsistent run
            // and scratch of the panicked unit are dropped.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(failpoint::FaultKind::Panic) = failpoint::hit("worker.body") {
                    // lint: allow(panic-in-hot-path) — deliberate injected fault, caught by this very envelope.
                    panic!("injected panic at worker.body");
                }
                engine.mine(unit, &mut worker)
            }));
            match caught {
                Ok(Ok(())) => {
                    // ordering: SeqCst completion decrement. Needs at
                    // least Release so the unit's effects (and the
                    // registrations of everything it spawned — a unit's
                    // own registration outlives its spawns)
                    // happen-before any zero-read; SeqCst for the same
                    // single-total-order reasoning as the registration.
                    self.pending.fetch_sub(1, Ordering::SeqCst);
                }
                Ok(Err(e)) => {
                    self.failed.lock().get_or_insert(e);
                    break;
                }
                Err(payload) => {
                    // Latch the first message *before* tripping the flag
                    // (`cancel`'s Release publishes it to every observer).
                    self.panicked.lock().get_or_insert(panic_message(payload));
                    exec.token.cancel();
                    break;
                }
            }
        }
        worker.harvest.stats.tasks_stolen += stolen;
        self.drained.lock().absorb(worker.harvest);
    }

    /// Take the next unit: local deque first (LIFO), then a batch from
    /// the injector, then half of a sibling's deque. Counts successful
    /// sibling steals into `stolen`.
    fn next_unit(&self, local: &Deque<U>, wid: usize, stolen: &mut u64) -> Option<U> {
        if let Some(t) = local.pop() {
            return Some(t);
        }
        loop {
            let mut retry = false;
            match self.injector.steal_batch_and_pop(local) {
                Steal::Success(t) => return Some(t),
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
            for (i, s) in self.stealers.iter().enumerate() {
                if i == wid {
                    continue;
                }
                match s.steal_batch_and_pop(local) {
                    Steal::Success(t) => {
                        *stolen += 1;
                        return Some(t);
                    }
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
            if !retry {
                return None;
            }
        }
    }
}

/// One pool worker's state, lent to [`Engine::mine`] for each unit. Its
/// scratch (arena, buffer pools) and position buffer persist across the
/// worker's units.
pub(crate) struct Worker<'w> {
    exec: &'w Exec<'w>,
    bound: &'w SharedBound,
    spawner: Option<(SplitPolicy, &'w dyn Fn(SubtreeTask))>,
    scratch: MinerScratch,
    positions: Vec<u32>,
    harvest: Harvest,
}

impl Worker<'_> {
    /// Mine one root task or detached subtree over `ctx` in collect mode:
    /// `task` drives the [`Run`] over the worker's reusable position
    /// buffer (or the subtree's own positions), and the run's candidates,
    /// counters and pruned frontiers join this worker's harvest.
    pub(crate) fn mine(
        &mut self,
        ctx: &MiningContext,
        task: impl FnOnce(&mut Run<'_>, &mut Vec<u32>),
    ) {
        let exec = self.exec;
        let mut run = Run::new(
            ctx,
            exec.schema,
            exec.dims,
            exec.config,
            exec.token.clone(),
            exec.deadline,
        )
        .with_scratch(std::mem::take(&mut self.scratch));
        if let Some((policy, spawn)) = self.spawner {
            run = run.with_spawner(policy, spawn);
        }
        if exec.config.dynamic_topk {
            run = run.with_shared_bound(self.bound);
        }
        task(&mut run, &mut self.positions);
        self.harvest.stats.merge(&run.stats);
        self.harvest.frontiers.append(&mut run.pruned_lw);
        let (collected, warm) = run.into_collected_and_scratch();
        self.scratch = warm;
        self.harvest.candidates.push(collected);
    }
}

/// A GR's counts over an engine's complete edge set.
type Evaluate<'e> = &'e dyn Fn(&Gr) -> Result<MetricInputs, MinerError>;

/// Top-k selection (Def. 5(3)) with **exact** Def. 5(2) generality,
/// also for runs whose collected candidate set may be missing
/// below-bound suppressors.
///
/// Two stages. First, with the generality filter on, the
/// most-general-first merge over the collected candidates (size order
/// suffices — a proper generalization has strictly fewer `l ∧ w`
/// conditions, and equal-size GRs never generalize one another). Its
/// rejections are *sound* (a collected suppressor passed the thresholds
/// at collection, so the complete run rejects too, and suppression is
/// transitive); it just may fail to reject. Then the survivors are
/// walked in rank order (`rank_cmp` is a total order) and each would-be
/// top-k member is verified against the *complete* lattice: a stage-one
/// survivor has no collected generalization at all (any collected one —
/// recorded or transitively covered — would have rejected it), and an
/// absent generalization can only have been *lost* (rather than failed)
/// if the shared bound cut inside its `l ∧ w` chain at a
/// threshold-passing score — the recorded `pruned_frontiers` — every
/// LEFT/EDGE node itself being reached unconditionally (only `min_supp`
/// prunes those, and an anti-monotone loss below `min_supp` cannot hide
/// a threshold-passing suppressor). So only generalizations whose
/// `l ∧ w` appears in the frontier set are evaluated against the
/// complete edge set (memoized); all other absent ones provably fail the
/// thresholds. A candidate is suppressed here iff some
/// threshold-passing strict generalization exists (take a minimal one —
/// nothing suppresses it, so it is recorded first), which is Def. 5(2).
///
/// The miner records a frontier only after the bound has been
/// published, and only with the generality filter on; with no frontier
/// (every static run, every run with the filter off) stage two is the
/// plain rank of the collected survivors. The frontiers arrive in worker
/// order, possibly repeated; they are walked sorted and deduplicated, so
/// which suppressor checks run, and in what order, is the same on every
/// run of one config.
fn select_topk(
    schema: &Schema,
    evaluate: Evaluate<'_>,
    config: &MinerConfig,
    mut candidates: Vec<ScoredGr>,
    mut pruned_frontiers: Vec<(NodeDescriptor, EdgeDescriptor)>,
    stats: &mut MinerStats,
) -> Result<Vec<ScoredGr>, MinerError> {
    pruned_frontiers.sort_unstable();
    pruned_frontiers.dedup();
    // Stage 1: the most-general-first merge, keeping every survivor.
    if config.generality_filter {
        candidates.sort_by_key(|c| c.gr.l.len() + c.gr.w.len());
        let mut index = GeneralityIndex::new();
        candidates.retain(|cand| {
            if index.has_more_general(&cand.gr) {
                stats.rejected_generality += 1;
                return false;
            }
            index.record(&cand.gr);
            true
        });
    }
    // Stage 2: exactness verification of the ranked prefix. Nothing to
    // verify when no threshold-passing subtree was ever cut.
    candidates.sort_by(|a, b| a.rank_cmp(b));
    let mut memo: HashMap<Gr, bool> = HashMap::new();
    // `k` may be "effectively unbounded" (baseline and ablation
    // configurations), so reserve no more than there are candidates.
    let mut out: Vec<ScoredGr> = Vec::with_capacity(config.k.min(candidates.len()));
    for cand in candidates {
        if out.len() == config.k {
            break;
        }
        if !pruned_frontiers.is_empty()
            && has_lost_passing_generalization(
                schema,
                evaluate,
                config,
                &cand.gr,
                &pruned_frontiers,
                &mut memo,
                stats,
            )?
        {
            stats.rejected_generality += 1;
            continue;
        }
        out.push(cand);
    }
    Ok(out)
}

/// Does any strict generalization of `gr` (same RHS, `l' ⊆ l`, `w' ⊆ w`,
/// `(l', w') ≠ (l, w)`) that may have been *lost to bound pruning* — its
/// `l ∧ w` chain is in `pruned_frontiers` — satisfy the run's thresholds
/// and reporting gates? Caller guarantees none of `gr`'s generalizations
/// were collected (stage-one survivors), so frontier hits are evaluated
/// against the complete edge set, memoized across candidates. A chain
/// absent from the frontier set was enumerated in full above the user
/// threshold, so an uncollected candidate there failed the thresholds
/// and cannot suppress — which is why scanning the (typically
/// near-empty) frontier set suffices and the candidate's own
/// generalization lattice is never enumerated. Each check sent to
/// `evaluate` counts one `post_pass_evaluations` in `stats`.
fn has_lost_passing_generalization(
    schema: &Schema,
    evaluate: Evaluate<'_>,
    config: &MinerConfig,
    gr: &Gr,
    pruned_frontiers: &[(NodeDescriptor, EdgeDescriptor)],
    memo: &mut HashMap<Gr, bool>,
    stats: &mut MinerStats,
) -> Result<bool, MinerError> {
    for (l2, w2) in pruned_frontiers {
        // Frontiers are recorded only in subtrees the root task list
        // ran, and it runs empty-LHS ones only when they are reportable.
        debug_assert!(
            config.allow_empty_lhs || !l2.is_empty(),
            "an empty-LHS frontier was recorded without allow_empty_lhs"
        );
        if !l2.is_subset_of(&gr.l) || !w2.is_subset_of(&gr.w) {
            continue;
        }
        if l2.len() == gr.l.len() && w2.len() == gr.w.len() {
            // Equal condition sets: gr itself, not a *strict*
            // generalization (equal-size subsets are equal descriptors).
            continue;
        }
        let g2 = Gr::new(l2.clone(), w2.clone(), gr.r.clone());
        let passes = match memo.get(&g2) {
            Some(&p) => p,
            None => {
                let p = generalization_passes(schema, evaluate, config, &g2, stats)?;
                memo.insert(g2, p);
                p
            }
        };
        if passes {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Direct threshold evaluation of a candidate suppressor that was not
/// collected (its score is below the final bound, but Def. 5(2) only
/// requires it to pass the *user* thresholds).
fn generalization_passes(
    schema: &Schema,
    evaluate: Evaluate<'_>,
    config: &MinerConfig,
    g: &Gr,
    stats: &mut MinerStats,
) -> Result<bool, MinerError> {
    if config.suppress_trivial && g.is_trivial(schema) {
        return Ok(false);
    }
    stats.post_pass_evaluations += 1;
    let m = evaluate(g)?;
    if m.supp < config.min_supp {
        return Ok(false);
    }
    Ok(config.metric.evaluate(m) >= config.min_score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_graph::{NodeAttrId, SchemaBuilder};
    use std::cell::RefCell;

    /// `(A0:v, A1:v, A2:v, A3:v) -> (A4:v)`, ranked by `score`.
    fn candidate(v: u16, score: f64) -> ScoredGr {
        let l = NodeDescriptor::from_pairs((0..4).map(|a| (NodeAttrId(a), v)));
        let r = NodeDescriptor::from_pairs([(NodeAttrId(4), v)]);
        ScoredGr {
            gr: Gr::new(l, EdgeDescriptor::empty(), r),
            supp: 10,
            supp_lw: 10,
            heff: 0,
            score,
        }
    }

    #[test]
    fn post_pass_checks_suppressors_in_one_order_whatever_the_frontier_order() {
        let mut sb = SchemaBuilder::new();
        for a in 0..5 {
            sb = sb.node_attr(format!("A{a}"), 3, false);
        }
        let schema = sb.build().unwrap();
        let config = MinerConfig::nhp(1, 0.5, 2);
        let candidates = vec![candidate(1, 0.9), candidate(2, 0.8), candidate(3, 0.7)];
        // Every non-empty strict sub-LHS of each candidate: 3 × 14
        // frontiers, in the order a worker might record them.
        let frontiers: Vec<(NodeDescriptor, EdgeDescriptor)> = (1..=3u16)
            .flat_map(|v| {
                (1..15u8).map(move |mask| {
                    let l = (0..4)
                        .filter(|a| mask & (1 << a) != 0)
                        .map(|a| (NodeAttrId(a), v));
                    (NodeDescriptor::from_pairs(l), EdgeDescriptor::empty())
                })
            })
            .collect();
        // Two-condition generalizations pass the thresholds and the
        // others fail, so the first check that passes decides how many
        // checks a candidate runs.
        let run = |frontiers: Vec<(NodeDescriptor, EdgeDescriptor)>| {
            let calls = RefCell::new(Vec::new());
            let evaluate = |g: &Gr| -> Result<MetricInputs, MinerError> {
                calls.borrow_mut().push(g.clone());
                let supp = if g.l.len() == 2 { 10 } else { 1 };
                Ok(MetricInputs {
                    supp,
                    supp_lw: 10,
                    heff: 0,
                    supp_r: 0,
                    edges: 100,
                })
            };
            let mut stats = MinerStats::default();
            let top = select_topk(
                &schema,
                &evaluate,
                &config,
                candidates.clone(),
                frontiers,
                &mut stats,
            )
            .unwrap();
            let calls = calls.into_inner();
            assert_eq!(stats.post_pass_evaluations, calls.len() as u64);
            (top, stats.rejected_generality, calls)
        };
        let recorded = run(frontiers.clone());
        // Reversed, and with every third frontier recorded twice, as two
        // workers cutting in one `l ∧ w` chain would.
        let mut reordered: Vec<_> = frontiers.iter().rev().cloned().collect();
        reordered.extend(frontiers.iter().step_by(3).cloned());
        let other = run(reordered);
        assert!(recorded.0.is_empty(), "every candidate has a suppressor");
        assert_eq!(recorded.1, 3);
        assert!(recorded.2.len() >= 3, "{:?}", recorded.2);
        assert_eq!(recorded.2, other.2, "suppressor checks in one order");
        assert_eq!((recorded.0, recorded.1), (other.0, other.1));
    }
}
