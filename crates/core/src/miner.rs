//! **GRMiner** — Algorithm 1 of the paper.
//!
//! The miner enumerates attribute subsets `LWR` in Subset-First Depth-First
//! order (§IV-C) by three mutually recursive procedures — `LEFT`, `EDGE`,
//! `RIGHT` — that partition an edge set with counting sort on one dimension
//! at a time (§V). Four constraints are pushed into the recursion:
//!
//! 1. `minSupp` — support is anti-monotone in every direction
//!    (Theorem 2(1));
//! 2. `minNhp` (or the configured metric's threshold) — anti-monotone
//!    under RHS extension thanks to the dynamic tail ordering (Theorem 3);
//! 3. the **top-k dynamic bound** — GRMiner(k) upgrades the pruning
//!    threshold to the k-th best score found so far (line 28), here the
//!    execution core's [`SharedBound`];
//! 4. **generality** — a GR passing the thresholds is *collected*; the
//!    execution core (`exec.rs`) applies Def. 5(2) and the top-k
//!    rank in one post-pass over every subtree's candidates, verified
//!    exactly against the subtrees the bound cut, so a dynamic mine
//!    returns the static Definition-5 top-k.
//!
//! Algorithm 1's Main loop runs `RIGHT(nil)`, `EDGE(nil)` and
//! `LEFT(nil)` over the attribute tails, and `RootTask` cuts it into the
//! disjoint top-level units every engine mines: one per `RIGHT(nil)` and
//! `EDGE(nil)` dimension, and value ranges of each `LEFT(nil)` dimension.
//! [`GrMiner`] is that core's in-core engine at one worker.
//!
//! ### A correctness subtlety the pseudo-code glosses over
//!
//! Theorem 3 is stated for **non-trivial** GRs: a *trivial* GR `g`
//! (all-homophily RHS contained in the LHS) has `β = ∅` and
//! `nhp(g) = conf(g)`, while extending its RHS with a differing homophily
//! value flips `β ≠ ∅` and may *increase* nhp (Remark 2's problematic
//! case, reachable because the trivial value equals the LHS value and so
//! never enters β). The miner therefore never score-prunes the subtree of
//! a trivial GR under the nhp metric. For plain confidence, laplace and
//! gain the metric is anti-monotone unconditionally and pruning applies
//! everywhere.

use crate::beta::{beta, heff_table_into, BetaSet, MAX_GROUPBY_ATTRS, MAX_NODE_ATTRS};
use crate::config::MinerConfig;
use crate::context::MiningContext;
use crate::descriptor::{EdgeDescriptor, NodeDescriptor};
use crate::error::MinerError;
use crate::gr::{Gr, ScoredGr};
use crate::metrics::{MetricInputs, RankMetric};
use crate::parallel::{try_mine_parallel_with_opts, ParallelOptions};
use crate::stats::MinerStats;
use crate::tail::Dims;
use crate::topk::SharedBound;
use grm_graph::shard::ShardSpec;
use grm_graph::sort::{Frame, PartitionArena};
use grm_graph::{AttrValue, CancelToken, NodeAttrId, Schema, SocialGraph, NULL};
use std::collections::HashMap;
use std::time::Instant;

/// Cancellation probes between two wall-clock reads on deadline-bounded
/// runs: token probes are an atomic load and run at recursion-node
/// granularity, but `Instant::now` is a syscall-class cost, so the
/// deadline is re-checked only every this many probes.
const DEADLINE_PROBE_INTERVAL: u32 = 1024;

/// Outcome of a mining run: the top-k GRs (best first) and instrumentation.
#[derive(Debug, Clone)]
pub struct MineResult {
    /// The top-k GRs in rank order (Def. 5(3)), best first.
    pub top: Vec<ScoredGr>,
    /// Counters for the run.
    pub stats: MinerStats,
    /// `|E|` of the mined graph, for converting supports to relative form.
    pub edge_count: u64,
}

impl MineResult {
    /// Pretty-print the result as a ranked table.
    pub fn report(&self, schema: &Schema) -> String {
        let mut out = String::new();
        for (i, s) in self.top.iter().enumerate() {
            out.push_str(&format!("{:>3}. {}\n", i + 1, s.display(schema)));
        }
        out
    }
}

/// The GRMiner algorithm bound to a graph and configuration.
///
/// ```
/// # use grm_graph::{SchemaBuilder, GraphBuilder};
/// # use grm_core::{GrMiner, MinerConfig};
/// # let schema = SchemaBuilder::new()
/// #     .node_attr("A", 2, true).node_attr("B", 2, false).build().unwrap();
/// # let mut b = GraphBuilder::new(schema);
/// # let x = b.add_node(&[1, 1]).unwrap();
/// # let y = b.add_node(&[2, 2]).unwrap();
/// # b.add_edge(x, y, &[]).unwrap();
/// # let graph = b.build().unwrap();
/// let result = GrMiner::new(&graph, MinerConfig::nhp(1, 0.5, 10)).mine();
/// assert!(result.top.len() <= 10);
/// ```
#[derive(Debug)]
pub struct GrMiner<'g> {
    graph: &'g SocialGraph,
    dims: Dims,
    config: MinerConfig,
}

impl<'g> GrMiner<'g> {
    /// Mine over every attribute in the graph's schema.
    pub fn new(graph: &'g SocialGraph, config: MinerConfig) -> Self {
        let dims = Dims::all(graph.schema());
        Self::with_dims(graph, config, dims)
    }

    /// Mine over a restricted dimension set (Fig. 4d's sweep).
    pub fn with_dims(graph: &'g SocialGraph, config: MinerConfig, dims: Dims) -> Self {
        GrMiner {
            graph,
            dims,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// Run Algorithm 1 and return the top-k GRs.
    ///
    /// The infallible entry: a config whose [`MinerConfig::cancel`]
    /// token trips (or whose [`MinerConfig::deadline_ms`] expires)
    /// mid-run is a caller contract violation here — use
    /// [`GrMiner::try_mine`] for cancellable mines.
    pub fn mine(&self) -> MineResult {
        match self.try_mine() {
            Ok(r) => r,
            // lint: allow(panic-in-hot-path) — the infallible entry was
            // called with a cancellable config and the mine stopped;
            // swallowing that would return a silently partial result.
            Err(e) => panic!("GrMiner::mine cannot report {e}; use try_mine"),
        }
    }

    /// Run Algorithm 1 on the in-core pool engine with one worker,
    /// observing the config's cancellation token and deadline. A mine
    /// stopped early returns [`MinerError::Cancelled`] carrying the
    /// counters accumulated so far; an undisturbed run is identical to
    /// [`GrMiner::mine`].
    pub fn try_mine(&self) -> Result<MineResult, MinerError> {
        let opts = ParallelOptions {
            threads: 1,
            ..ParallelOptions::default()
        };
        try_mine_parallel_with_opts(self.graph, &self.config, &self.dims, opts)
    }
}

/// One top-level unit of enumeration work: a piece of one top-level
/// dimension of Algorithm 1's Main loop (lines 3–5). The subtrees are
/// disjoint, so the engines distribute them freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RootTask {
    /// The partitions of `LEFT(LArray, tail(nil))`'s dimension
    /// `dims.l[dim]` whose value lies in `lo..=hi`: subsets whose first
    /// constrained dimension is that one, fixed to a value in the range.
    /// A dimension's ranges tile its non-null values, so together they
    /// visit exactly the nodes of the whole dimension. Bounds are
    /// inclusive because the domain may extend to `AttrValue::MAX`, where
    /// an exclusive end would overflow.
    Left {
        /// Index into `dims.l`.
        dim: usize,
        /// First partition value (inclusive, never `NULL`).
        lo: AttrValue,
        /// Last partition value (inclusive).
        hi: AttrValue,
    },
    /// One dimension of `EDGE(EArray, tail(nil))`: subsets whose first
    /// constrained dimension is `dims.w[dim]`. Every GR below it has an
    /// empty LHS, so it runs only with [`MinerConfig::allow_empty_lhs`].
    Edge {
        /// Index into `dims.w`.
        dim: usize,
    },
    /// One dimension of `RIGHT(RArray, tail(nil))`: the iteration of its
    /// top-level partition loop that partitions on `r_order(∅)[dim]`.
    /// Its `supp_lw` is the context's edge total, which the sharded miner
    /// ([`crate::sharded`]) sets to the *global* edge count when it runs
    /// the dimension over per-value edge slices. Every GR below it has an
    /// empty LHS, so it runs only with [`MinerConfig::allow_empty_lhs`].
    Right {
        /// Index into the empty-LHS RHS order `dims.r_order(0)`.
        dim: usize,
    },
}

impl RootTask {
    /// Every root task whose subtree can report a GR, in the sequential
    /// Main order: one `Right` per dimension of the empty-LHS RHS order
    /// and one `Edge` per edge dimension, then one `Left` per LHS
    /// dimension over all its values — except `split`'s attribute, which
    /// gets one `Left` per non-empty range of the spec. The `Right` and
    /// `Edge` subtrees hold exactly the empty-LHS GRs, so they are listed
    /// only when `allow_empty_lhs` is set: this list is the one place
    /// reportability of an empty LHS is decided, for every engine.
    pub(crate) fn all(
        schema: &Schema,
        dims: &Dims,
        allow_empty_lhs: bool,
        split: Option<&ShardSpec>,
    ) -> Vec<RootTask> {
        // lint: allow(alloc-in-arena) — tiny once-per-run task list.
        let mut v = Vec::new();
        if allow_empty_lhs {
            v.extend((0..dims.r_static.len()).map(|dim| RootTask::Right { dim }));
            v.extend((0..dims.w.len()).map(|dim| RootTask::Edge { dim }));
        }
        for (dim, &attr) in dims.l.iter().enumerate() {
            match split.filter(|spec| spec.attr() == attr) {
                Some(spec) => v.extend(
                    (0..spec.shard_count())
                        .map(|s| spec.range(s))
                        .filter(|&(lo, hi)| lo <= hi)
                        .map(|(lo, hi)| RootTask::Left { dim, lo, hi }),
                ),
                None => v.push(RootTask::Left {
                    dim,
                    lo: 1,
                    hi: schema.node_attr(attr).domain_size(),
                }),
            }
        }
        v
    }
}

/// All reusable mutable scratch of a mining run, movable between [`Run`]s
/// so a parallel worker carries it across its tasks: the counting-sort
/// [`PartitionArena`], the pool of output buffers passes scatter into
/// (used as a stack, so the buffer at each height of the recursion grows
/// to the longest slice scattered there), pools for the per-`l∧w`-node
/// buffers (homophily pairs, β support table), and pools for the
/// per-partition descriptor extensions (`l.with(...)` / `r.with(...)` on
/// the descend path). Once warm, recursion nodes draw everything from
/// here and allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct MinerScratch {
    arena: PartitionArena,
    outs: Vec<Vec<u32>>,
    pairs_bufs: Vec<Vec<(NodeAttrId, AttrValue)>>,
    heff_tables: Vec<Vec<u64>>,
    node_descs: Vec<NodeDescriptor>,
    edge_descs: Vec<EdgeDescriptor>,
}

/// A recursion subtree detached by a worker for other workers to steal:
/// the subtree root's descriptors plus an owned copy of its edge
/// positions (the partition's slice of its parent's scatter, in the order
/// an inline descent would read). Executing it via [`Run::run_subtree`]
/// performs exactly the recursive calls the spawning worker skipped, so
/// the collect-mode merge (and every semantic counter) is independent of
/// where and when the subtree runs.
pub(crate) struct SubtreeTask {
    pub(crate) data: Vec<u32>,
    pub(crate) l: NodeDescriptor,
    pub(crate) w: EdgeDescriptor,
    pub(crate) kind: SubtreeKind,
}

/// Which recursion frame a [`SubtreeTask`] resumes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SubtreeKind {
    /// The body of `left_partitions`' partition loop: RIGHT, EDGE over
    /// the full edge tail, LEFT over the prefix tail `0..l_tail`.
    Left {
        /// LHS tail length of the subtree root (the partitioned
        /// dimension's index in `dims.l`).
        l_tail: usize,
    },
    /// The body of `edge_range`'s partition loop: RIGHT, EDGE over the
    /// prefix tail `0..w_tail`.
    Edge {
        /// Edge tail length of the subtree root.
        w_tail: usize,
    },
}

/// When a partition's subtree is worth detaching into a [`SubtreeTask`]:
/// only near the root (`|l| + |w|` of the subtree root at most
/// `max_frame` — deep frames are small and numerous) and only when the
/// partition is big enough (`min_len`) that the position copy is noise
/// against the subtree's own work.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SplitPolicy {
    pub(crate) max_frame: usize,
    pub(crate) min_len: usize,
}

/// One counting pass of the recursion over a slice it never moves, whose
/// scatter waits for the first child that reads its partition (see
/// `grm_graph::sort`): counted by [`Run::count_pass`], scattered at most
/// once by [`Run::scatter_pass`] into an output buffer drawn from the
/// [`MinerScratch`] pool, whose sub-slices its children read, and ended
/// after its partition loop by [`Run::end_pass`], which pops its records
/// and returns the buffer.
struct Pass<'a> {
    frame: Frame,
    /// The column the pass counted, reread by its scatter.
    col: &'a [AttrValue],
    /// The scattered order, once a child has asked for it.
    out: Option<Vec<u32>>,
}

/// Mutable state of one mining run: one root task or detached subtree
/// of a pool worker ([`crate::exec::Worker::mine`]). Everything
/// immutable — the key columns, the canonical position set, the RHS
/// marginal table — lives in the shared [`MiningContext`].
pub(crate) struct Run<'a> {
    ctx: &'a MiningContext,
    schema: &'a Schema,
    dims: &'a Dims,
    cfg: &'a MinerConfig,
    scratch: MinerScratch,
    pub(crate) stats: MinerStats,
    edges_total: u64,
    /// Threshold-passing, reportable candidates, in enumeration order.
    /// Generality and the top-k rank run after the cross-task merge, in
    /// the execution core's post-pass.
    collector: Vec<ScoredGr>,
    /// Work-stealing hook: the split policy plus the worker's spawner
    /// callback. When a partition qualifies, its subtree is handed out as
    /// a [`SubtreeTask`] instead of being descended inline.
    spawner: Option<(SplitPolicy, &'a dyn Fn(SubtreeTask))>,
    /// The cross-worker dynamic top-k bound, when the config asks for
    /// one. Consulted in the score pruning check and fed with
    /// guaranteed-survivor candidates.
    shared_bound: Option<&'a SharedBound>,
    /// The `l ∧ w` descriptors of RIGHT chains in which the shared bound
    /// cut a subtree at a score that still passed the *user* threshold —
    /// the only places a Def. 5(2) suppressor can have been lost.
    /// Deduplicated per chain (depth-first order makes a chain's prune
    /// events consecutive); drained by the execution core for the
    /// exactness-verified post-pass.
    pub(crate) pruned_lw: Vec<(NodeDescriptor, EdgeDescriptor)>,
    /// Cooperative cancellation flag, probed at recursion-node
    /// granularity ([`Run::check_cancelled`]).
    cancel: CancelToken,
    /// Wall-clock deadline; an expired deadline trips `cancel` (so
    /// sibling workers sharing the token stop too) and ends this run.
    deadline: Option<Instant>,
    /// Latched once a probe observes cancellation: the recursion
    /// unwinds through cheap early returns without re-probing the
    /// shared flag.
    cancelled: bool,
    /// Probes until the next wall-clock deadline read
    /// ([`DEADLINE_PROBE_INTERVAL`]).
    deadline_probe: u32,
}

impl<'a> Run<'a> {
    /// A run observing `cancel` (a real token, so an expired deadline
    /// and a panicking sibling have a flag to trip) and `deadline`.
    pub(crate) fn new(
        ctx: &'a MiningContext,
        schema: &'a Schema,
        dims: &'a Dims,
        cfg: &'a MinerConfig,
        cancel: CancelToken,
        deadline: Option<Instant>,
    ) -> Self {
        Run {
            ctx,
            schema,
            dims,
            cfg,
            scratch: MinerScratch::default(),
            stats: MinerStats::default(),
            edges_total: ctx.edges_total(),
            // lint: allow(alloc-in-arena) — Run construction site; one
            // candidate batch per unit, handed to the harvest.
            collector: Vec::new(),
            spawner: None,
            shared_bound: None,
            // lint: allow(alloc-in-arena) — Run construction site; the
            // buffer warms up once and is reused across the run.
            pruned_lw: Vec::new(),
            cancel,
            deadline,
            cancelled: false,
            // The first probe reads the clock (so an already-expired
            // deadline stops even a tiny run), later ones every
            // DEADLINE_PROBE_INTERVAL.
            deadline_probe: 1,
        }
    }

    /// The loop-top cancellation probe (the protocol step proved in
    /// `grm_analyze::model::cancel`): latched once true, one `Acquire`
    /// load otherwise. An expired deadline trips the token so every
    /// clone sharing it — sibling workers, the pool's blocked waiters —
    /// stops too.
    fn check_cancelled(&mut self) -> bool {
        if self.cancelled {
            return true;
        }
        self.stats.cancel_checks += 1;
        if self.cancel.is_cancelled() {
            self.cancelled = true;
            return true;
        }
        if let Some(d) = self.deadline {
            self.deadline_probe -= 1;
            if self.deadline_probe == 0 {
                self.deadline_probe = DEADLINE_PROBE_INTERVAL;
                if Instant::now() >= d {
                    self.cancel.cancel();
                    self.cancelled = true;
                    return true;
                }
            }
        }
        false
    }

    /// Adopt an already-warm [`MinerScratch`] (parallel workers reuse one
    /// across all their tasks so only the first task pays the warm-up
    /// allocations).
    pub(crate) fn with_scratch(mut self, scratch: MinerScratch) -> Self {
        self.scratch = scratch;
        self
    }

    /// Enable depth-adaptive subtree splitting: partitions that satisfy
    /// `policy` are detached through `spawn` instead of descended inline.
    pub(crate) fn with_spawner(
        mut self,
        policy: SplitPolicy,
        spawn: &'a dyn Fn(SubtreeTask),
    ) -> Self {
        self.spawner = Some((policy, spawn));
        self
    }

    /// Consult (and feed) the cross-worker dynamic top-k bound.
    pub(crate) fn with_shared_bound(mut self, bound: &'a SharedBound) -> Self {
        self.shared_bound = Some(bound);
        self
    }

    /// Recover the collected candidates and the warm scratch.
    pub(crate) fn into_collected_and_scratch(self) -> (Vec<ScoredGr>, MinerScratch) {
        (self.collector, self.scratch)
    }

    /// Execute one top-level task over `data` (the unit's position set),
    /// which the recursion reads and never moves.
    pub(crate) fn run_root(&mut self, data: &[u32], task: RootTask) {
        if self.check_cancelled() {
            return;
        }
        match task {
            RootTask::Left { dim, lo, hi } => self.left_root(data, dim, lo, hi),
            RootTask::Edge { dim } => self.edge_range(
                data,
                dim..dim + 1,
                &NodeDescriptor::empty(),
                &EdgeDescriptor::empty(),
            ),
            RootTask::Right { dim } => self.right_nil_root(data, dim),
        }
        self.record_scratch_peak();
    }

    /// Execute a detached recursion subtree (see [`SubtreeTask`]): the
    /// exact recursive calls the spawning worker's partition loop would
    /// have made inline.
    pub(crate) fn run_subtree(
        &mut self,
        data: &[u32],
        l: &NodeDescriptor,
        w: &EdgeDescriptor,
        kind: SubtreeKind,
    ) {
        if self.check_cancelled() {
            return;
        }
        match kind {
            SubtreeKind::Left { l_tail } => {
                debug_assert!(w.is_empty(), "LEFT partitions precede all EDGE dimensions");
                self.right_root(data, l, w);
                self.edge(data, self.dims.w.len(), l, w);
                self.left(data, l_tail, l);
            }
            SubtreeKind::Edge { w_tail } => {
                self.right_root(data, l, w);
                self.edge(data, w_tail, l, w);
            }
        }
        self.record_scratch_peak();
    }

    /// Record the scratch high-water mark: the arena's, plus the output
    /// buffers, which are all back in their pool when a task ends. A
    /// worker's scratch persists across its tasks and only grows, so the
    /// peak is monotone per worker (the cross-task merge takes the max
    /// either way).
    fn record_scratch_peak(&mut self) {
        let outs: usize = self.scratch.outs.iter().map(Vec::capacity).sum();
        let bytes = self.scratch.arena.peak_bytes() + outs * std::mem::size_of::<u32>();
        self.stats.scratch_bytes_peak = self.stats.scratch_bytes_peak.max(bytes as u64);
    }

    /// If the split policy admits this partition (subtree-root frame size
    /// `frame`, `part_len` positions), detach it through the spawner and
    /// return `true`; the caller then skips the inline descent.
    fn spawn_subtree(
        &mut self,
        part_len: usize,
        frame: usize,
        make: impl FnOnce() -> SubtreeTask,
    ) -> bool {
        let Some((policy, spawn)) = self.spawner else {
            return false;
        };
        if frame > policy.max_frame || part_len < policy.min_len {
            return false;
        }
        self.stats.subtree_splits += 1;
        spawn(make());
        true
    }

    /// Whether a collected candidate `l -w-> r` is **guaranteed** to
    /// survive the sequential post-pass and may therefore feed the
    /// [`SharedBound`]. With the generality filter off, every collected
    /// candidate survives. With it on, survival is certain only when
    /// every strictly more general form of the candidate is excluded
    /// from collection *by construction*: the edge descriptor is empty
    /// and the LHS already has the minimum reportable width — 1
    /// condition normally (the only generalization, the empty LHS, is
    /// never enumerated without `allow_empty_lhs`), or 0 when empty
    /// LHSes are reportable (nothing generalizes the empty descriptor
    /// pair).
    /// Feeding only such candidates keeps every published bound a true
    /// lower bound on the final k-th score (see [`SharedBound`]).
    fn feeds_shared_bound(&self, l: &NodeDescriptor, w: &EdgeDescriptor) -> bool {
        !self.cfg.generality_filter
            || (w.is_empty() && l.len() == usize::from(!self.cfg.allow_empty_lhs))
    }

    /// Execute the partitions of top-level LHS dimension `i` whose value
    /// falls in `lo..=hi`: the body of `left`'s partition loop restricted
    /// to one value range. Each range repeats the counting-sort pass over
    /// its position set (the duplication splitting trades for balance —
    /// which is why the in-core engine bounds the range count), then
    /// recurses only into its own partitions, so counters and candidates
    /// sum across ranges to exactly the whole dimension's.
    fn left_root(&mut self, data: &[u32], i: usize, lo: AttrValue, hi: AttrValue) {
        debug_assert_ne!(lo, NULL, "null partitions are never enumerated");
        // Mirror `left`'s max_lhs guard: constraining this dimension
        // would already exceed the cap when it is zero.
        if self.cfg.max_lhs.is_some_and(|m| m == 0) {
            return;
        }
        self.left_partitions(data, i, &NodeDescriptor::empty(), Some((lo, hi)));
    }
}

/// The `l ∧ w` node a RIGHT chain scores against, with the β group-by
/// table of homophily-effect supports (§IV-D). `supp(l -w-> l[β])` is
/// counted over the *whole* `l ∧ w` set, and `edges` is that set: the
/// slice the chain began with, read where it lies, since no pass moves a
/// slice it was given (each scatters into a buffer of its own).
///
/// The owned buffers (`pairs`, `table`) are drawn from the
/// [`MinerScratch`] pools by [`Run::right_root`] and returned there when
/// the chain finishes, so steady-state `l ∧ w` nodes allocate nothing
/// (the `memo` map is used — and allocates — only on the wide-LHS
/// fallback path).
struct LwContext<'d> {
    /// The LHS homophily conditions `H_l` — group-by dimensions for heff.
    /// Eqn. 4 keeps every reachable β inside them, so an empty `H_l`
    /// never reads `edges`.
    pairs: Vec<(NodeAttrId, AttrValue)>,
    edges: &'d [u32],
    supp_lw: u64,
    /// All β supports for this `l ∧ w` node, filled by one group-by
    /// counting pass on the first non-empty β (`None` until
    /// then; index by [`BetaSet::local_mask`] over `pairs`).
    table: Option<Vec<u64>>,
    /// Per-β memo for the wide-LHS fallback path
    /// (`pairs.len() > MAX_GROUPBY_ATTRS`).
    memo: HashMap<u64, u64>,
}

impl<'a> Run<'a> {
    /// `LEFT(data, Tail)`: partition on each LHS dimension in the tail;
    /// for each surviving partition recurse into RIGHT, EDGE and LEFT with
    /// the prefix tail (Algorithm 1 lines 7–14).
    fn left(&mut self, data: &[u32], l_tail_len: usize, l: &NodeDescriptor) {
        if self.cfg.max_lhs.is_some_and(|m| l.len() >= m) {
            return;
        }
        for i in 0..l_tail_len {
            self.left_partitions(data, i, l, None);
        }
    }

    /// The LEFT partition loop over one dimension `dims.l[i]`, shared by
    /// the tail walk and the top-level [`RootTask::Left`] ranges:
    /// partition `data`, then recurse into every surviving partition
    /// whose value lies in `values` (inclusive; `None` = all non-null).
    fn left_partitions(
        &mut self,
        data: &[u32],
        i: usize,
        l: &NodeDescriptor,
        values: Option<(AttrValue, AttrValue)>,
    ) {
        let keys = self.ctx.keys();
        let d = self.dims.l[i];
        let buckets = self.schema.node_attr(d).bucket_count();
        let mut pass = self.count_pass(data, buckets, keys.l_col(d));
        for idx in pass.frame.indices() {
            if self.check_cancelled() {
                break;
            }
            let part = self.scratch.arena.record(idx);
            if part.value == NULL {
                continue;
            }
            if values.is_some_and(|(lo, hi)| part.value < lo || part.value > hi) {
                continue;
            }
            self.stats.partitions_examined += 1;
            if (part.len() as u64) < self.cfg.min_supp {
                self.stats.pruned_by_supp += 1;
                continue;
            }
            // Every surviving child reads its slice, detached or inline.
            let sub = &self.scatter_pass(data, &mut pass)[part.range()];
            let l2 = l.with_pooled(d, part.value, &mut self.scratch.node_descs);
            if self.spawn_subtree(part.len(), l2.len(), || SubtreeTask {
                // lint: allow(alloc-in-arena) — a detached stealable task
                // must own its slice; paid only when a subtree splits.
                data: sub.to_vec(),
                l: l2.clone(),
                w: EdgeDescriptor::empty(),
                kind: SubtreeKind::Left { l_tail: i },
            }) {
                self.scratch.node_descs.push(l2);
                continue;
            }
            self.right_root(sub, &l2, &EdgeDescriptor::empty());
            self.edge(sub, self.dims.w.len(), &l2, &EdgeDescriptor::empty());
            self.left(sub, i, &l2);
            self.scratch.node_descs.push(l2);
        }
        self.end_pass(pass);
    }

    /// `EDGE(data, Tail)`: partition on each edge dimension in the tail;
    /// recurse into RIGHT and EDGE (lines 15–21).
    fn edge(&mut self, data: &[u32], w_tail_len: usize, l: &NodeDescriptor, w: &EdgeDescriptor) {
        self.edge_range(data, 0..w_tail_len, l, w);
    }

    fn edge_range(
        &mut self,
        data: &[u32],
        range: std::ops::Range<usize>,
        l: &NodeDescriptor,
        w: &EdgeDescriptor,
    ) {
        let keys = self.ctx.keys();
        for i in range {
            if self.check_cancelled() {
                return;
            }
            let d = self.dims.w[i];
            let buckets = self.schema.edge_attr(d).bucket_count();
            let mut pass = self.count_pass(data, buckets, keys.w_col(d));
            for idx in pass.frame.indices() {
                if self.check_cancelled() {
                    break;
                }
                let part = self.scratch.arena.record(idx);
                if part.value == NULL {
                    continue;
                }
                self.stats.partitions_examined += 1;
                if (part.len() as u64) < self.cfg.min_supp {
                    self.stats.pruned_by_supp += 1;
                    continue;
                }
                let sub = &self.scatter_pass(data, &mut pass)[part.range()];
                let w2 = w.with_pooled(d, part.value, &mut self.scratch.edge_descs);
                if self.spawn_subtree(part.len(), l.len() + w2.len(), || SubtreeTask {
                    // lint: allow(alloc-in-arena) — a detached stealable
                    // task must own its slice; paid only on splits.
                    data: sub.to_vec(),
                    l: l.clone(),
                    w: w2.clone(),
                    kind: SubtreeKind::Edge { w_tail: i },
                }) {
                    self.scratch.edge_descs.push(w2);
                    continue;
                }
                self.right_root(sub, l, &w2);
                self.edge(sub, i, l, &w2);
                self.scratch.edge_descs.push(w2);
            }
            self.end_pass(pass);
        }
    }

    /// Entry into a RIGHT chain for a fixed `l ∧ w`: hand the β group-by
    /// the `l ∧ w` slice itself, fix the dynamic RHS order (Eqn. 8) for
    /// the whole subtree, and recurse. All per-node buffers come from the
    /// [`MinerScratch`] pools (and the RHS order lives on the stack), so a
    /// steady-state `l ∧ w` node allocates nothing here.
    fn right_root(&mut self, data: &[u32], l: &NodeDescriptor, w: &EdgeDescriptor) {
        let l_mask = l.attrs().fold(0u64, |m, a| m | (1u64 << a.0));
        // Pooled H_l buffer — the homophily conditions of the LHS.
        let mut pairs = self.scratch.pairs_bufs.pop().unwrap_or_default();
        pairs.clear();
        pairs.extend(
            l.pairs()
                .iter()
                .copied()
                .filter(|&(a, _)| self.dims.is_homophily(a)),
        );
        let mut ctx = LwContext {
            supp_lw: data.len() as u64,
            table: None,
            memo: HashMap::new(),
            pairs,
            edges: data,
        };
        let mut r_buf = [NodeAttrId(0); MAX_NODE_ATTRS];
        let len = self.dims.r_order_into(l_mask, &mut r_buf);
        self.right(
            &mut ctx,
            data,
            &r_buf[..len],
            0..len,
            l,
            w,
            &NodeDescriptor::empty(),
        );
        // Return the pooled buffers for the next l∧w node.
        let LwContext { pairs, table, .. } = ctx;
        self.scratch.pairs_bufs.push(pairs);
        if let Some(t) = table {
            self.scratch.heff_tables.push(t);
        }
    }

    /// One top-level dimension of the empty-LHS RIGHT chain
    /// ([`RootTask::Right`]). With `l = ∅` there are no homophily
    /// conditions (β ⊆ H_l = ∅), so no β table is ever needed and the
    /// chain's `edges` are never read; the one difference from
    /// [`Run::right_root`] is the `supp_lw` denominator, the context's
    /// edge total (`Run::edges_total`) rather than `data`'s length,
    /// because the empty-LHS `l ∧ w` group is the whole edge set — also
    /// when the sharded miner runs the dimension over a per-value edge
    /// slice.
    fn right_nil_root(&mut self, data: &[u32], dim: usize) {
        let mut ctx = LwContext {
            supp_lw: self.edges_total,
            table: None,
            memo: HashMap::new(),
            // lint: allow(alloc-in-arena) — empty Vec, never grows
            // (l = ∅ has no homophily pairs).
            pairs: Vec::new(),
            edges: data,
        };
        let mut r_buf = [NodeAttrId(0); MAX_NODE_ATTRS];
        let len = self.dims.r_order_into(0, &mut r_buf);
        debug_assert!(dim < len, "RIGHT(nil) dimension out of the RHS order");
        self.right(
            &mut ctx,
            data,
            &r_buf[..len],
            dim..(dim + 1).min(len),
            &NodeDescriptor::empty(),
            &EdgeDescriptor::empty(),
            &NodeDescriptor::empty(),
        );
        self.scratch.pairs_bufs.push(ctx.pairs);
    }

    /// Count one pass of the recursion over `col`; its scatter waits for
    /// the first child that reads its partition (see [`Pass`]).
    fn count_pass(&mut self, data: &[u32], buckets: usize, col: &'a [AttrValue]) -> Pass<'a> {
        self.stats.partition_passes += 1;
        self.stats.positions_counted += data.len() as u64;
        let frame = self
            .scratch
            .arena
            .count_col(data, buckets, col)
            // lint: allow(panic-in-hot-path) — KeyOutOfRange is
            // impossible here: every column holds values checked against
            // the same Schema that supplied `buckets` (a validated
            // graph's rows, or spill chunks domain-checked on read).
            .expect("schema-validated keys fit their bucket counts");
        Pass {
            frame,
            col,
            out: None,
        }
    }

    /// `data` (the slice `pass` counted) in the pass's partition order,
    /// scattered on the first call into a buffer from the pool: the slice
    /// whose partitions the children read.
    fn scatter_pass<'p>(&mut self, data: &[u32], pass: &'p mut Pass<'a>) -> &'p [u32] {
        let n = data.len();
        if pass.out.is_none() {
            self.stats.positions_scattered += n as u64;
            let mut out = self.scratch.outs.pop().unwrap_or_default();
            if out.len() < n {
                out.reserve_exact(n - out.len());
                out.resize(n, 0);
            }
            self.scratch
                .arena
                .scatter(data, &pass.frame, pass.col, &mut out[..n]);
            pass.out = Some(out);
        }
        pass.out.as_deref().map_or(&[], |out| &out[..n])
    }

    /// End `pass` after its partition loop: pop its records, and return
    /// its output buffer, if it scattered, to the pool.
    fn end_pass(&mut self, pass: Pass<'a>) {
        self.scratch.arena.pop_frame(pass.frame);
        if let Some(out) = pass.out {
            self.scratch.outs.push(out);
        }
    }

    /// `RIGHT(data, Tail)` (lines 22–29): partition on each RHS dimension,
    /// score each partition as a GR, apply all four constraints, recurse.
    #[allow(clippy::too_many_arguments)]
    fn right(
        &mut self,
        ctx: &mut LwContext<'_>,
        data: &[u32],
        r_order: &[NodeAttrId],
        r_range: std::ops::Range<usize>,
        l: &NodeDescriptor,
        w: &EdgeDescriptor,
        r: &NodeDescriptor,
    ) {
        if self.cfg.max_rhs.is_some_and(|m| r.len() >= m) {
            return;
        }
        let keys = self.ctx.keys();
        for i in r_range {
            let d = r_order[i];
            let buckets = self.schema.node_attr(d).bucket_count();
            // Children of iteration i partition the prefix tail `0..i`:
            // they have passes to run only for i ≥ 1 and below
            // `max_rhs`, so only then do they read their slices.
            let children_partition = i >= 1 && self.cfg.max_rhs.is_none_or(|m| r.len() + 1 < m);
            let mut pass = self.count_pass(data, buckets, keys.r_col(d));
            for idx in pass.frame.indices() {
                if self.check_cancelled() {
                    break;
                }
                let part = self.scratch.arena.record(idx);
                if part.value == NULL {
                    continue;
                }
                self.stats.partitions_examined += 1;
                self.stats.grs_examined += 1;
                let supp = part.len() as u64;
                if supp < self.cfg.min_supp {
                    self.stats.pruned_by_supp += 1;
                    continue;
                }
                let r2 = r.with_pooled(d, part.value, &mut self.scratch.node_descs);

                // Score the GR l -w-> r2.
                let b = beta(self.schema, l, &r2);
                let heff = if b.is_empty() { 0 } else { self.heff(ctx, b) };
                let supp_r = if self.cfg.metric.needs_r_marginal() {
                    self.ctx.r_marginal(&r2)
                } else {
                    0
                };
                let score = self.cfg.metric.evaluate(MetricInputs {
                    supp,
                    supp_lw: ctx.supp_lw,
                    heff,
                    supp_r,
                    edges: self.edges_total,
                });

                // Triviality is decided on the loose parts; the `Gr`
                // itself (three descriptor clones) is assembled only for
                // candidates that are actually recorded.
                let trivial = Gr::parts_are_trivial(self.schema, l, &r2);

                // Collect if it satisfies Def. 5 condition (1). An empty
                // LHS is reportable here: the root task list runs its
                // subtrees only when `MinerConfig::allow_empty_lhs` is
                // set. Generality and top-k run after the cross-task
                // merge; guaranteed survivors feed the shared dynamic
                // bound on the way through.
                debug_assert!(
                    self.cfg.allow_empty_lhs || !l.is_empty(),
                    "an empty-LHS subtree ran without allow_empty_lhs"
                );
                if score >= self.cfg.min_score {
                    if trivial && self.cfg.suppress_trivial {
                        self.stats.rejected_trivial += 1;
                    } else {
                        self.stats.accepted += 1;
                        let scored = ScoredGr {
                            gr: Gr::new(l.clone(), w.clone(), r2.clone()),
                            supp,
                            supp_lw: ctx.supp_lw,
                            heff,
                            score,
                        };
                        if let Some(sb) = self.shared_bound {
                            if self.feeds_shared_bound(l, w) && sb.offer(score) {
                                self.stats.bound_tightenings += 1;
                            }
                        }
                        self.collector.push(scored);
                    }
                }

                // Subtree pruning by score. Valid only for anti-monotone
                // metrics, and — for nhp — only below non-trivial GRs
                // (Theorem 3's precondition; see module docs).
                let score_prunable = self.cfg.metric.anti_monotone()
                    && !(trivial && matches!(self.cfg.metric, RankMetric::Nhp));
                let mut descend = true;
                if score_prunable {
                    // Both cuts are strict `<`: a candidate equal to the
                    // user threshold satisfies Def. 5(1), and one equal to
                    // the k-th best may still win the supp/alphabetical
                    // tie-break, so neither may be cut at equality.
                    let mut bound = self.cfg.min_score;
                    if let Some(dyn_bound) = self.shared_bound.and_then(SharedBound::get) {
                        bound = bound.max(dyn_bound);
                    }
                    if score < bound {
                        self.stats.pruned_by_score += 1;
                        descend = false;
                        // A cut above the user threshold can only come
                        // from the shared bound, and the lost descendants
                        // may include threshold-passing suppressors:
                        // remember this chain's l∧w for the verified
                        // post-pass. Chains prune depth-first, so
                        // consecutive dedup is exact per chain.
                        if self.cfg.generality_filter
                            && score >= self.cfg.min_score
                            && self
                                .pruned_lw
                                .last()
                                .is_none_or(|(pl, pw)| pl != l || pw != w)
                        {
                            self.pruned_lw.push((l.clone(), w.clone()));
                        }
                    }
                }

                // A child with nothing to partition returns at once, so
                // it is skipped rather than scattered for.
                if descend && children_partition {
                    let sub = &self.scatter_pass(data, &mut pass)[part.range()];
                    self.right(ctx, sub, r_order, 0..i, l, w, &r2);
                }
                self.scratch.node_descs.push(r2);
            }
            self.end_pass(pass);
        }
    }

    /// `supp(l -w-> l[β])` over the `l ∧ w` slice (§IV-D: the needed
    /// supports are computable at or before the current node). The first
    /// non-empty β at this `l ∧ w` node triggers one group-by counting
    /// pass that fills the supports of *every* β ⊆ `H_l` at once
    /// ([`crate::beta::heff_table`]); later lookups are a table index.
    /// Only its counts matter, so the pass runs beside the arena: it
    /// pushes no records and scatters nothing.
    fn heff(&mut self, ctx: &mut LwContext<'_>, b: BetaSet) -> u64 {
        debug_assert!(!b.is_empty(), "empty β is scored as heff = 0 upstream");
        if ctx.pairs.len() > MAX_GROUPBY_ATTRS {
            return self.heff_scan(ctx, b);
        }
        if ctx.table.is_none() {
            self.stats.heff_scans += 1;
            self.stats.partition_passes += 1;
            self.stats.positions_counted += ctx.edges.len() as u64;
            let keys = self.ctx.keys();
            let mut table = self.scratch.heff_tables.pop().unwrap_or_default();
            heff_table_into(ctx.edges, &ctx.pairs, &mut table, |a| keys.r_col(a));
            ctx.table = Some(table);
        }
        let Some(table) = ctx.table.as_ref() else {
            // Filled by the branch above on this very call; degrade to an
            // empty homophily effect rather than panicking if that ever
            // changes.
            debug_assert!(false, "β table missing after fill");
            return 0;
        };
        match b.local_mask(&ctx.pairs) {
            Some(mask) => table[mask],
            None => {
                debug_assert!(false, "β outside the LHS homophily set");
                0
            }
        }
    }

    /// Per-β scan of the `l ∧ w` slice, memoized per β — the fallback for
    /// LHSes wider than [`MAX_GROUPBY_ATTRS`] homophily attributes, where
    /// the group-by table (`2^|H_l|` counters) would dwarf the slice.
    fn heff_scan(&mut self, ctx: &mut LwContext<'_>, b: BetaSet) -> u64 {
        if let Some(&v) = ctx.memo.get(&b.0) {
            return v;
        }
        self.stats.heff_scans += 1;
        // lint: allow(alloc-in-arena) — wide-LHS fallback path, memoized
        // per β: at most one small allocation per distinct β per node.
        let needed: Vec<(NodeAttrId, AttrValue)> = ctx
            .pairs
            .iter()
            .copied()
            .filter(|&(a, _)| b.contains(a))
            .collect();
        debug_assert_eq!(needed.len(), b.len(), "β outside the LHS homophily set");
        let keys = self.ctx.keys();
        let count = ctx
            .edges
            .iter()
            .filter(|&&p| needed.iter().all(|&(a, v)| keys.r_key(p, a) == v))
            .count() as u64;
        ctx.memo.insert(b.0, count);
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_graph::{GraphBuilder, SchemaBuilder};

    /// Small two-attribute graph: A (homophily, 2 values), B (non-homophily,
    /// 2 values). Edges engineered so that a beyond-homophily preference
    /// exists from A:1 to A:2 once homophilous A:1->A:1 edges are excluded.
    fn toy() -> SocialGraph {
        let schema = SchemaBuilder::new()
            .node_attr("A", 2, true)
            .node_attr("B", 2, false)
            .build()
            .unwrap();
        let mut b = GraphBuilder::new(schema);
        // Nodes: 0..4 with (A,B) rows.
        let rows = [[1, 1], [1, 2], [2, 1], [2, 2], [1, 1], [2, 1]];
        let ids: Vec<_> = rows.iter().map(|r| b.add_node(r).unwrap()).collect();
        // 6 edges from A:1 nodes: 4 homophilous (to A:1), 2 to A:2 nodes
        // that both have B:1.
        b.add_edge(ids[0], ids[1], &[]).unwrap();
        b.add_edge(ids[0], ids[4], &[]).unwrap();
        b.add_edge(ids[1], ids[0], &[]).unwrap();
        b.add_edge(ids[1], ids[4], &[]).unwrap();
        b.add_edge(ids[0], ids[2], &[]).unwrap();
        b.add_edge(ids[1], ids[5], &[]).unwrap();
        // 2 edges from A:2 nodes.
        b.add_edge(ids[2], ids[3], &[]).unwrap();
        b.add_edge(ids[3], ids[2], &[]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn finds_beyond_homophily_preference() {
        let g = toy();
        let result = GrMiner::new(&g, MinerConfig::nhp(1, 0.9, 10)).mine();
        // (A:1) -> (A:2): supp 2, supp_lw 6, heff 4 => nhp = 2/(6-4) = 1.0.
        let s = g.schema();
        let found = result
            .top
            .iter()
            .find(|sgr| sgr.gr.display(s) == "(A:1) -> (A:2)")
            .expect("the beyond-homophily GR must be found");
        assert_eq!(found.supp, 2);
        assert_eq!(found.supp_lw, 6);
        assert_eq!(found.heff, 4);
        assert!((found.score - 1.0).abs() < 1e-12);
        assert!((found.conf() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn trivial_grs_suppressed_under_nhp() {
        let g = toy();
        let result = GrMiner::new(&g, MinerConfig::nhp(1, 0.0, 100)).mine();
        let s = g.schema();
        for sgr in &result.top {
            assert!(
                !sgr.gr.is_trivial(s),
                "trivial GR in nhp results: {}",
                sgr.gr.display(s)
            );
        }
        assert!(result.stats.rejected_trivial > 0);
    }

    #[test]
    fn conf_mode_keeps_trivial_grs() {
        let g = toy();
        // minConf 0.6: the general ∅ -> (A:1) (conf 0.5) fails the
        // threshold and cannot suppress the trivial (A:1) -> (A:1)
        // (conf 4/6) — the Table II situation where the conf ranking is
        // dominated by homophily restatements.
        let result = GrMiner::new(&g, MinerConfig::conf(1, 0.6, 100)).mine();
        let s = g.schema();
        assert!(
            result.top.iter().any(|sgr| sgr.gr.is_trivial(s)),
            "conf ranking should surface trivial homophily GRs (Table II)"
        );
    }

    #[test]
    fn respects_min_supp() {
        let g = toy();
        let result = GrMiner::new(&g, MinerConfig::nhp(3, 0.0, 100)).mine();
        for sgr in &result.top {
            assert!(sgr.supp >= 3);
        }
        assert!(result.stats.pruned_by_supp > 0);
    }

    #[test]
    fn respects_k() {
        let g = toy();
        let result = GrMiner::new(&g, MinerConfig::nhp(1, 0.0, 2)).mine();
        assert!(result.top.len() <= 2);
        // Rank order: best first.
        if result.top.len() == 2 {
            assert_ne!(
                result.top[0].rank_cmp(&result.top[1]),
                std::cmp::Ordering::Greater
            );
        }
    }

    #[test]
    fn dynamic_and_static_topk_agree_here() {
        let g = toy();
        let a = GrMiner::new(&g, MinerConfig::nhp(1, 0.2, 5)).mine();
        let b = GrMiner::new(&g, MinerConfig::nhp(1, 0.2, 5).without_dynamic_topk()).mine();
        let da: Vec<_> = a.top.iter().map(|s| s.gr.clone()).collect();
        let db: Vec<_> = b.top.iter().map(|s| s.gr.clone()).collect();
        assert_eq!(da, db);
        // The dynamic variant must not do more work.
        assert!(a.stats.grs_examined <= b.stats.grs_examined);
    }

    #[test]
    fn empty_graph_yields_empty_result() {
        let schema = SchemaBuilder::new()
            .node_attr("A", 2, true)
            .build()
            .unwrap();
        let g = GraphBuilder::new(schema).build().unwrap();
        let result = GrMiner::new(&g, MinerConfig::default()).mine();
        assert!(result.top.is_empty());
        assert_eq!(result.edge_count, 0);
    }

    #[test]
    fn null_values_never_appear_in_descriptors() {
        let schema = SchemaBuilder::new()
            .node_attr("A", 2, true)
            .node_attr("B", 2, false)
            .build()
            .unwrap();
        let mut b = GraphBuilder::new(schema);
        let x = b.add_node(&[1, 0]).unwrap(); // B null
        let y = b.add_node(&[0, 2]).unwrap(); // A null
        let z = b.add_node(&[2, 1]).unwrap();
        b.add_edge(x, y, &[]).unwrap();
        b.add_edge(y, z, &[]).unwrap();
        b.add_edge(x, z, &[]).unwrap();
        let g = b.build().unwrap();
        let result = GrMiner::new(&g, MinerConfig::nhp(1, 0.0, 100)).mine();
        for sgr in &result.top {
            for &(_, v) in sgr.gr.l.pairs().iter().chain(sgr.gr.r.pairs()) {
                assert_ne!(v, NULL);
            }
        }
        assert!(!result.top.is_empty());
    }

    #[test]
    fn generality_suppression_drops_specializations() {
        let g = toy();
        let result = GrMiner::new(&g, MinerConfig::nhp(1, 0.0, 1000)).mine();
        // No result may be a strict specialization of another result.
        for (i, a) in result.top.iter().enumerate() {
            for (j, b) in result.top.iter().enumerate() {
                if i != j {
                    assert!(
                        !a.gr.is_more_general_than(&b.gr),
                        "{:?} generalizes {:?}",
                        a.gr,
                        b.gr
                    );
                }
            }
        }
    }

    #[test]
    fn multi_homophily_lhs_takes_group_by_path_and_matches_reference() {
        // Two homophily attributes (A, C) and one non-homophily (B):
        // LHSes constraining both A and C reach RHS partitions with
        // β = {A}, {C} and {A, C}, all of which the group-by pass must
        // fill from a single snapshot scan. Differential check against
        // the brute-force oracle pins every heff value.
        let schema = SchemaBuilder::new()
            .node_attr("A", 3, true)
            .node_attr("B", 2, false)
            .node_attr("C", 3, true)
            .build()
            .unwrap();
        let mut b = GraphBuilder::new(schema);
        let mut state = 0xC0FFEEu32 | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for _ in 0..20 {
            b.add_node(&[
                (next() % 4) as u16,
                (next() % 3) as u16,
                (next() % 4) as u16,
            ])
            .unwrap();
        }
        for _ in 0..120 {
            let s = next() % 20;
            let mut t = next() % 20;
            if t == s {
                t = (t + 1) % 20;
            }
            b.add_edge(s, t, &[]).unwrap();
        }
        let g = b.build().unwrap();
        // Generality off so specialized (two-condition) LHSes stay in the
        // result and their heff values are pinned by the oracle.
        let cfg = MinerConfig {
            generality_filter: false,
            ..MinerConfig::nhp(1, 0.0, 100_000).without_dynamic_topk()
        };
        let fast = GrMiner::new(&g, cfg.clone()).mine();
        let oracle = crate::reference::mine_reference(&g, &cfg);
        let key = |v: &[ScoredGr]| {
            v.iter()
                .map(|s| (s.gr.clone(), s.supp, s.supp_lw, s.heff))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&fast.top), key(&oracle));
        assert!(
            fast.top.iter().any(|s| s.gr.l.len() >= 2 && s.heff > 0),
            "a multi-homophily LHS with a non-trivial homophily effect must be reachable"
        );
        assert!(fast.stats.heff_scans > 0);
        // The group-by fills all β supports of an l∧w node in one scan,
        // so there can be at most one scan per examined GR's l∧w node —
        // far fewer than the per-β scans the seed performed.
        assert!(fast.stats.heff_scans <= fast.stats.grs_examined);
    }

    #[test]
    fn wide_homophily_lhs_takes_the_per_beta_scan_and_matches_query_counts() {
        // One homophily attribute more than the group-by table takes, so
        // an LHS constraining all of them scores its RHSes through
        // `heff_scan`. Two all-1 sources each tie to an all-1 destination
        // and to one that differs on the last attribute, so every LHS
        // holding that attribute's 1 has a homophily effect on it.
        let n = MAX_GROUPBY_ATTRS + 1;
        let mut sb = SchemaBuilder::new();
        for a in 0..n {
            sb = sb.node_attr(format!("H{a}"), 2, true);
        }
        let mut b = GraphBuilder::new(sb.build().unwrap());
        let ones = vec![1; n];
        let mut differs = ones.clone();
        differs[n - 1] = 2;
        let same = b.add_node(&ones).unwrap();
        let other = b.add_node(&differs).unwrap();
        for _ in 0..2 {
            let src = b.add_node(&ones).unwrap();
            b.add_edge(src, same, &[]).unwrap();
            b.add_edge(src, other, &[]).unwrap();
        }
        let g = b.build().unwrap();
        let cfg = MinerConfig {
            generality_filter: false,
            max_rhs: Some(1),
            ..MinerConfig::nhp(1, 0.0, usize::MAX).without_dynamic_topk()
        };
        let result = GrMiner::new(&g, cfg).mine();
        for s in &result.top {
            let m = crate::query::row_counts(&g, &s.gr);
            assert_eq!(
                (s.supp, s.supp_lw, s.heff),
                (m.supp, m.supp_lw, m.heff),
                "{}",
                s.gr.display(g.schema())
            );
        }
        assert!(
            result.top.iter().any(|s| s.gr.l.len() == n && s.heff > 0),
            "a {n}-condition LHS with a homophily effect must be mined"
        );
    }

    #[test]
    fn try_mine_observes_a_tripping_token_and_reports_partial_stats() {
        let g = toy();
        let cfg = MinerConfig::nhp(1, 0.0, 100).with_cancel(CancelToken::tripping_after(3));
        let err = GrMiner::new(&g, cfg).try_mine().unwrap_err();
        match err {
            MinerError::Cancelled { partial_stats } => {
                assert!(partial_stats.cancel_checks >= 3, "{partial_stats:?}");
            }
            other => panic!("expected Cancelled, got {other}"),
        }
        // Without a token or deadline, try_mine is mine.
        let cfg = MinerConfig::nhp(1, 0.0, 100);
        let a = GrMiner::new(&g, cfg.clone()).try_mine().unwrap();
        let b = GrMiner::new(&g, cfg).mine();
        assert_eq!(a.top, b.top);
    }

    #[test]
    fn an_expired_deadline_trips_the_shared_token() {
        let g = toy();
        let token = CancelToken::new();
        let cfg = MinerConfig::nhp(1, 0.0, 100)
            .with_deadline_ms(0)
            .with_cancel(token.clone());
        let err = GrMiner::new(&g, cfg).try_mine().unwrap_err();
        assert!(matches!(err, MinerError::Cancelled { .. }), "{err}");
        assert!(
            token.is_cancelled(),
            "an expired deadline must trip the caller's token too"
        );
    }

    /// A root task reads its position buffer and never moves it (each
    /// pass scatters into a pooled buffer of its own), which is what lets
    /// a worker fill the buffer once and hand it to every root task: the
    /// buffer is the canonical set after every task, and a second round
    /// of tasks over it collects the same candidates and counters.
    #[test]
    fn a_root_task_leaves_its_position_buffer_as_it_found_it() {
        let g = toy();
        let cfg = MinerConfig {
            allow_empty_lhs: true,
            ..MinerConfig::nhp(1, 0.0, 100).without_dynamic_topk()
        };
        let ctx = MiningContext::build(&g, false);
        let dims = Dims::all(g.schema());
        let mut data = Vec::new();
        ctx.fill_positions(&mut data);
        let canonical = data.clone();
        let tasks = RootTask::all(g.schema(), &dims, true, None);
        let mut rounds = Vec::new();
        for _ in 0..2 {
            let mut run = Run::new(&ctx, g.schema(), &dims, &cfg, CancelToken::new(), None);
            for &task in &tasks {
                run.run_root(&data, task);
                assert_eq!(data, canonical, "{task:?} moved its positions");
            }
            assert!(run.stats.positions_scattered > 0, "no task scattered");
            let stats = run.stats.clone();
            let (collected, _) = run.into_collected_and_scratch();
            rounds.push((collected, stats));
        }
        assert_eq!(rounds[0].0, rounds[1].0);
        assert_eq!(rounds[0].1.semantic(), rounds[1].1.semantic());
    }

    /// The scratch high-water mark (arena plus pooled output buffers)
    /// repeats exactly across identical one-worker runs.
    #[test]
    fn scratch_peak_repeats_across_identical_runs() {
        let g = toy();
        let cfg = MinerConfig::nhp(1, 0.0, 100);
        let a = GrMiner::new(&g, cfg.clone())
            .mine()
            .stats
            .scratch_bytes_peak;
        let b = GrMiner::new(&g, cfg).mine().stats.scratch_bytes_peak;
        assert!(a > 0);
        assert_eq!(a, b);
    }

    #[test]
    fn report_formats_rows() {
        let g = toy();
        let result = GrMiner::new(&g, MinerConfig::nhp(1, 0.5, 3)).mine();
        let report = result.report(g.schema());
        assert!(report.contains("1. "));
        assert!(report.contains("score="));
    }
}
