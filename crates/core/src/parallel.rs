//! Parallel GRMiner — a work-stealing, depth-adaptive multi-core engine.
//!
//! The SFDF enumeration tree decomposes at the root: Algorithm 1's Main
//! loop runs `RIGHT`, `EDGE` and `LEFT` over the attribute tails, and the
//! top-level subtrees are disjoint. The root task list
//! (`RootTask::all`) holds one unit per top-level dimension — the
//! `RIGHT` and `EDGE` ones only when `allow_empty_lhs` makes their
//! empty-LHS GRs reportable — with the dominant LHS dimension split into
//! value ranges. This module turns those root tasks into units of the
//! shared execution core (`crate::exec`), which runs them with work
//! stealing over per-worker deques under the shared dynamic top-k bound
//! and the exactness-verified post-pass. All read-only run state — the
//! key columns, the canonical position set, the RHS marginal table —
//! lives in one shared [`MiningContext`], built by
//! [`try_mine_parallel_with_opts`] or wrapped by `grmined` around the
//! columns it holds resident; each worker owns a reusable
//! edge-position buffer and a warm `crate::miner::MinerScratch`
//! carried across its tasks. With one worker this engine is
//! [`crate::GrMiner`].
//!
//! **Static split.** The dominant LHS dimension — the widest domain,
//! the best static proxy for subtree size at the root, where partition
//! cardinality (Pokec's `Region`) concentrates work — is tiled into
//! `min(values, 2 × threads)` value ranges by a [`ShardSpec`], the rule
//! and formula the sharded engine's stores partition by. Every range
//! repeats the top-level `O(|E|)` counting-sort pass, so the count is
//! bounded (enough slack for the pool to rebalance around a skewed
//! range), and a single-worker pool mines the dimension whole.
//!
//! **Depth-adaptive splitting.** Static root tasks bound speedup by the
//! largest subtree, so workers *detach oversized recursion frames* as
//! they descend: a LEFT or EDGE partition whose subtree root is shallow
//! (`|l| + |w| ≤ 2`) and whose edge set is large
//! (`≥ split_min`) becomes a stealable `SubtreeTask` — an owned copy
//! of the partition's positions plus the descriptors — instead of being
//! descended inline. The detached subtree performs exactly the recursive
//! calls the spawner skipped, over the positions an inline descent would
//! read, so the collect-mode merge and every semantic counter are
//! independent of where the subtree runs.

use crate::config::MinerConfig;
use crate::context::MiningContext;
use crate::error::MinerError;
use crate::exec::{Engine, Exec, Worker};
use crate::gr::Gr;
use crate::metrics::MetricInputs;
use crate::miner::{MineResult, RootTask, SplitPolicy, SubtreeTask};
use crate::query;
use crate::tail::Dims;
use grm_graph::shard::ShardSpec;
use grm_graph::{Schema, SocialGraph};

/// Subtrees rooted at most this many descriptor conditions deep
/// (`|l| + |w|`) may be detached. Depth 2 covers the skew observed in
/// practice (a dominant LHS partition, optionally refined once) while
/// keeping the number of position copies small.
const SPLIT_DEPTH: usize = 2;

/// Floor of the automatic [`ParallelOptions::split_min`] heuristic: below
/// this many positions a subtree is cheaper to mine than to copy and
/// schedule.
const SPLIT_MIN_FLOOR: usize = 4096;

/// Tuning knobs for [`try_mine_parallel_with_opts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelOptions {
    /// Worker count (0 = available parallelism, with a warning-and-one
    /// fallback when detection fails).
    pub threads: usize,
    /// Minimum edge-position count for a subtree to be worth detaching;
    /// 0 picks a heuristic from `|E|` and the thread count. (Tests pin
    /// this to 1 to force splitting on small fixtures.)
    pub split_min: usize,
}

/// Parallel mining with explicit [`ParallelOptions`]: observes the
/// config's cancellation token and deadline, and contains worker panics.
/// A mine stopped early returns [`MinerError::Cancelled`] /
/// [`MinerError::WorkerPanicked`] carrying the counters every
/// cleanly-exited worker drained.
pub fn try_mine_parallel_with_opts(
    graph: &SocialGraph,
    config: &MinerConfig,
    dims: &Dims,
    opts: ParallelOptions,
) -> Result<MineResult, MinerError> {
    mine_in_context(graph.schema(), config, dims, opts, || {
        MiningContext::build(graph, config.metric.needs_r_marginal())
    })
}

/// Mine over the context `context` builds, a context of `schema`: the
/// one in-core engine path, taken by [`try_mine_parallel_with_opts`]
/// (which gathers the graph's columns) and by the daemon's cold mines
/// (which wrap the columns it holds resident). The context is built once
/// the clock runs, so the mine's `elapsed` covers it.
pub(crate) fn mine_in_context(
    schema: &Schema,
    config: &MinerConfig,
    dims: &Dims,
    opts: ParallelOptions,
    context: impl FnOnce() -> MiningContext,
) -> Result<MineResult, MinerError> {
    let exec = Exec::start(config, schema, dims, opts.threads);
    let ctx = &context();
    let threads = exec.threads();
    let edge_count = ctx.keys().edge_count();
    let split = (threads > 1).then(|| {
        let policy = SplitPolicy {
            max_frame: SPLIT_DEPTH,
            min_len: if opts.split_min > 0 {
                opts.split_min
            } else {
                (edge_count / (8 * threads)).max(SPLIT_MIN_FLOOR)
            },
        };
        (policy, PoolTask::Subtree as fn(SubtreeTask) -> PoolTask)
    });
    let engine = InCore { schema, ctx };
    let tasks = root_tasks(schema, dims, config, threads)
        .into_iter()
        .map(PoolTask::Root)
        .collect();
    exec.run(&engine, tasks, split, edge_count as u64)
}

/// The root task list with the dominant LHS dimension tiled into
/// `2 × threads` value ranges — one, the whole dimension, at one worker
/// (module docs). A spec with more ranges than values leaves the extra
/// ones empty, and the list drops those, so `min(values, 2 × threads)`
/// remain.
fn root_tasks(schema: &Schema, dims: &Dims, config: &MinerConfig, threads: usize) -> Vec<RootTask> {
    let ranges = if threads > 1 { 2 * threads } else { 1 };
    let split = ShardSpec::dominant(schema, dims.l.iter().copied())
        .map(|attr| ShardSpec::with_attr(schema, attr, ranges));
    RootTask::all(schema, dims, config.allow_empty_lhs, split.as_ref())
}

/// One unit of pool work: a static root task or a dynamically detached
/// recursion subtree.
enum PoolTask {
    Root(RootTask),
    Subtree(SubtreeTask),
}

/// The in-core engine: every unit runs over one shared [`MiningContext`],
/// and the post-pass counts suppressors over its key columns.
struct InCore<'g> {
    schema: &'g Schema,
    ctx: &'g MiningContext,
}

impl Engine for InCore<'_> {
    type Unit = PoolTask;

    fn mine(&self, task: PoolTask, worker: &mut Worker<'_>) -> Result<(), MinerError> {
        match task {
            // The worker's position buffer is filled on its first root
            // task and *not* refilled between tasks: nothing moves it,
            // since every pass scatters into a buffer of its own.
            PoolTask::Root(t) => worker.mine(self.ctx, |run, data| {
                if data.is_empty() {
                    self.ctx.fill_positions(data);
                }
                run.run_root(data, t);
            }),
            PoolTask::Subtree(SubtreeTask { data, l, w, kind }) => {
                worker.mine(self.ctx, |run, _| run.run_subtree(&data, &l, &w, kind))
            }
        }
        Ok(())
    }

    fn evaluate(&self, gr: &Gr) -> Result<MetricInputs, MinerError> {
        Ok(query::counts(self.schema, self.ctx.keys(), gr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::resolve_threads_from;
    use crate::miner::GrMiner;
    use crate::stats::MinerStats;
    use grm_graph::{GraphBuilder, SchemaBuilder};

    /// An uncancellable mine of `g` over every dimension with `threads`
    /// workers and default splitting.
    fn mine(g: &SocialGraph, cfg: &MinerConfig, threads: usize) -> MineResult {
        let opts = ParallelOptions {
            threads,
            ..ParallelOptions::default()
        };
        try_mine_parallel_with_opts(g, cfg, &Dims::all(g.schema()), opts)
            .expect("a mine without a token or deadline completes")
    }

    fn sample(seedish: u32, n: u32, m: u32) -> SocialGraph {
        let schema = SchemaBuilder::new()
            .node_attr("A", 3, true)
            .node_attr("B", 2, false)
            .node_attr("C", 4, true)
            .edge_attr("W", 2)
            .build()
            .unwrap();
        let mut b = GraphBuilder::new(schema);
        let mut state = seedish.wrapping_mul(0x9E3779B9) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for _ in 0..n {
            b.add_node(&[
                (next() % 4) as u16,
                (next() % 3) as u16,
                (next() % 5) as u16,
            ])
            .unwrap();
        }
        for _ in 0..m {
            let s = next() % n;
            let mut t = next() % n;
            if t == s {
                t = (t + 1) % n;
            }
            b.add_edge(s, t, &[(next() % 3) as u16]).unwrap();
        }
        b.build().unwrap()
    }

    fn keys(r: &MineResult) -> Vec<(Gr, u64)> {
        r.top.iter().map(|s| (s.gr.clone(), s.supp)).collect()
    }

    /// Options that force the dynamic-splitting path even on tiny test
    /// graphs (`split_min: 1` — every surviving shallow partition is
    /// detached).
    fn forced_split(threads: usize) -> ParallelOptions {
        ParallelOptions {
            threads,
            split_min: 1,
        }
    }

    #[test]
    fn parallel_matches_sequential_static() {
        for seed in 0..4u32 {
            let g = sample(seed, 30, 200);
            for cfg in [
                MinerConfig::nhp(2, 0.4, 10),
                MinerConfig::nhp(1, 0.0, 25),
                MinerConfig::conf(2, 0.5, 10),
            ] {
                let cfg = cfg.without_dynamic_topk();
                let seq = GrMiner::new(&g, cfg.clone()).mine();
                for threads in [1, 2, 4] {
                    let par = mine(&g, &cfg, threads);
                    assert_eq!(
                        keys(&seq),
                        keys(&par),
                        "seed {seed} threads {threads} cfg {cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn steal_and_split_matrix_is_bit_identical_with_invariant_counters() {
        // The tentpole guarantee at unit scale: every engine
        // configuration — the split heuristic, which detaches nothing on
        // these small graphs, and splitting forced everywhere — returns
        // bit-identical `top` and identical semantic counters under the
        // static threshold, and so does the sequential miner.
        for seed in [3u32, 8] {
            let g = sample(seed, 40, 300);
            let cfg = MinerConfig::nhp(2, 0.3, 20).without_dynamic_topk();
            let seq = GrMiner::new(&g, cfg.clone()).mine();
            let dims = Dims::all(g.schema());
            let counters = seq.stats.semantic();
            for threads in [1usize, 2, 4, 8] {
                for split_min in [0, 1] {
                    let par = try_mine_parallel_with_opts(
                        &g,
                        &cfg,
                        &dims,
                        ParallelOptions { threads, split_min },
                    )
                    .unwrap();
                    let label = format!("seed {seed} threads {threads} split_min {split_min}");
                    assert_eq!(seq.top, par.top, "{label}");
                    assert_eq!(counters, par.stats.semantic(), "{label}");
                }
            }
        }
    }

    #[test]
    fn forced_splitting_actually_detaches_subtrees() {
        let g = sample(5, 40, 300);
        let cfg = MinerConfig::nhp(1, 0.3, 20).without_dynamic_topk();
        let par =
            try_mine_parallel_with_opts(&g, &cfg, &Dims::all(g.schema()), forced_split(4)).unwrap();
        assert!(
            par.stats.subtree_splits > 0,
            "split_min = 1 must detach shallow subtrees"
        );
        let seq = GrMiner::new(&g, cfg).mine();
        assert_eq!(seq.top, par.top);
    }

    #[test]
    fn split_tasks_tile_the_unsplit_left_task() {
        // Only the schema shapes the list. C has the widest domain, so it
        // is the dominant dimension.
        let schema = SchemaBuilder::new()
            .node_attr("A", 3, true)
            .node_attr("C", 9, true)
            .edge_attr("W", 2)
            .build()
            .unwrap();
        let dims = Dims::all(&schema);
        let dominant = dims
            .l
            .iter()
            .position(|&a| schema.node_attr(a).name() == "C")
            .expect("C is an LHS dimension");
        // With empty LHSes reportable the list also holds the Right and
        // Edge tasks, which splitting must leave alone.
        let cfg = MinerConfig::default().with_empty_lhs();
        let ranges = |tasks: &[RootTask]| -> Vec<(u16, u16)> {
            tasks
                .iter()
                .filter_map(|t| match *t {
                    RootTask::Left { dim, lo, hi } if dim == dominant => Some((lo, hi)),
                    _ => None,
                })
                .collect()
        };
        let others = |tasks: &[RootTask]| -> Vec<RootTask> {
            tasks
                .iter()
                .filter(|t| !matches!(t, RootTask::Left { dim, .. } if *dim == dominant))
                .copied()
                .collect()
        };
        // A single-threaded pool mines the dimension whole.
        let whole = root_tasks(&schema, &dims, &cfg, 1);
        assert_eq!(ranges(&whole), [(1, 9)]);
        for threads in [2usize, 4, 8] {
            let split = root_tasks(&schema, &dims, &cfg, threads);
            let chunks = ranges(&split);
            // The chunks are the dominant dimension's ShardSpec ranges,
            // min(values, 2 × threads) of them, tiling 1..=values.
            let spec = ShardSpec::with_attr(&schema, dims.l[dominant], 2 * threads);
            let spec_ranges: Vec<(u16, u16)> = (0..spec.shard_count())
                .map(|s| spec.range(s))
                .filter(|&(lo, hi)| lo <= hi)
                .collect();
            assert_eq!(chunks, spec_ranges, "threads {threads}");
            assert_eq!(chunks.len(), 9.min(2 * threads), "threads {threads}");
            assert_eq!(chunks.first().unwrap().0, 1, "chunks start after NULL");
            assert_eq!(chunks.last().unwrap().1, 9, "chunks cover the domain");
            for w in chunks.windows(2) {
                assert_eq!(w[0].1 + 1, w[1].0, "chunks tile without gap or overlap");
            }
            // Every other task is preserved, in order.
            assert_eq!(others(&split), others(&whole), "threads {threads}");
        }
    }

    #[test]
    fn empty_lhs_subtrees_are_root_tasks_only_when_reportable() {
        // The default list holds the LHS dimensions alone; the RIGHT(nil)
        // dimensions and the EDGE roots, whose GRs all have an empty LHS,
        // join it in the sequential Main order only with
        // `allow_empty_lhs`.
        let g = sample(11, 30, 200);
        let schema = g.schema();
        let dims = Dims::all(schema);
        let lhs: Vec<RootTask> = dims
            .l
            .iter()
            .enumerate()
            .map(|(dim, &a)| RootTask::Left {
                dim,
                lo: 1,
                hi: schema.node_attr(a).domain_size(),
            })
            .collect();
        assert_eq!(RootTask::all(schema, &dims, false, None), lhs);
        let mut all: Vec<RootTask> = (0..dims.r_order(0).len())
            .map(|dim| RootTask::Right { dim })
            .collect();
        all.extend((0..dims.w.len()).map(|dim| RootTask::Edge { dim }));
        all.extend(lhs);
        assert_eq!(RootTask::all(schema, &dims, true, None), all);
        let tasks = root_tasks(schema, &dims, &MinerConfig::default(), 4);
        assert!(tasks.iter().all(|t| matches!(t, RootTask::Left { .. })));
    }

    #[test]
    fn split_and_unsplit_are_bit_identical_to_sequential() {
        for seed in 0..4u32 {
            let g = sample(seed.wrapping_add(100), 40, 300);
            let cfg = MinerConfig::nhp(2, 0.3, 20).without_dynamic_topk();
            let seq = GrMiner::new(&g, cfg.clone()).mine();
            // One worker mines the dominant dimension whole; more split
            // it into value ranges.
            for threads in [1, 2, 4] {
                let par = mine(&g, &cfg, threads);
                assert_eq!(seq.top, par.top, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn split_does_not_change_counters() {
        // Each split task counts only its own partition, so the merged
        // *semantic* counters equal the unsplit run's. (The work counters
        // — elapsed, partition passes, scratch peak, steals, splits —
        // legitimately vary with the execution strategy.)
        // One worker runs the dominant dimension unsplit, four split it.
        let g = sample(5, 40, 300);
        let cfg = MinerConfig::nhp(1, 0.4, 10).without_dynamic_topk();
        let (unsplit, split) = (mine(&g, &cfg, 1).stats, mine(&g, &cfg, 4).stats);
        assert_eq!(unsplit.semantic(), split.semantic());
        // Splitting repeats top-level passes; it never removes any.
        assert!(split.partition_passes >= unsplit.partition_passes);
    }

    #[test]
    fn split_respects_zero_max_lhs() {
        // max_lhs = 0 forbids any LHS condition; the split tasks fix one
        // LHS value each and must mirror `left_range`'s guard, or the
        // parallel miner invents GRs the sequential miner never emits.
        let g = sample(2, 30, 200);
        let mut cfg = MinerConfig::nhp(1, 0.0, 100).without_dynamic_topk();
        cfg.max_lhs = Some(0);
        cfg.allow_empty_lhs = true;
        let seq = GrMiner::new(&g, cfg.clone()).mine();
        let par = try_mine_parallel_with_opts(
            &g,
            &cfg,
            &Dims::all(g.schema()),
            ParallelOptions {
                threads: 2,
                ..ParallelOptions::default()
            },
        )
        .unwrap();
        assert_eq!(seq.top, par.top);
    }

    #[test]
    fn oversubscribed_and_degenerate_pools_stay_identical() {
        // threads > task_count (64) and a single-thread pool must return
        // bit-identical `top` and — since the value-range filter runs
        // before any counter increments — identical merged *semantic*
        // counters, under the shared context (the work counters vary
        // with splitting by design).
        let g = sample(9, 40, 300);
        let cfg = MinerConfig::nhp(2, 0.3, 15).without_dynamic_topk();
        let seq = GrMiner::new(&g, cfg.clone()).mine();
        let mut counters: Option<MinerStats> = None;
        for threads in [1usize, 2, 64] {
            let par = mine(&g, &cfg, threads);
            assert_eq!(seq.top, par.top, "threads {threads}");
            let sem = par.stats.semantic();
            match &counters {
                None => counters = Some(sem),
                Some(c) => assert_eq!(c, &sem, "counters diverged at threads {threads}"),
            }
        }
    }

    #[test]
    fn parallel_is_deterministic_across_runs() {
        let g = sample(7, 40, 300);
        let cfg = MinerConfig::nhp(2, 0.3, 15);
        let a = mine(&g, &cfg, 4);
        let b = mine(&g, &cfg, 4);
        assert_eq!(keys(&a), keys(&b));
    }

    #[test]
    fn dynamic_topk_parallel_matches_static_results_here() {
        // With `dynamic_topk` on, workers prune against the shared
        // bound. Results must still equal the static-threshold output,
        // under stealing and forced splitting.
        for seed in [1u32, 6, 13] {
            let g = sample(seed, 40, 300);
            for k in [3usize, 10] {
                let cfg = MinerConfig::nhp(2, 0.2, k);
                let seq_static = GrMiner::new(&g, cfg.clone().without_dynamic_topk()).mine();
                for threads in [2usize, 4] {
                    // The post-pass debug-asserts soundness: a published
                    // bound never exceeds the true k-th score.
                    let par = try_mine_parallel_with_opts(
                        &g,
                        &cfg,
                        &Dims::all(g.schema()),
                        forced_split(threads),
                    )
                    .unwrap();
                    assert_eq!(
                        seq_static.top, par.top,
                        "seed {seed} k {k} threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_bound_prunes_work_in_collect_mode() {
        // The restored dynamic bound must actually cut work: with a tiny
        // k, the dynamic parallel run examines no more GRs than the
        // static one, and strictly fewer when the bound ever tightens.
        let g = sample(4, 60, 600);
        let dims = Dims::all(g.schema());
        let run = |dynamic: bool| {
            let cfg = MinerConfig::nhp(1, 0.0, 2);
            let cfg = if dynamic {
                cfg
            } else {
                cfg.without_dynamic_topk()
            };
            try_mine_parallel_with_opts(
                &g,
                &cfg,
                &dims,
                ParallelOptions {
                    threads: 2,
                    ..ParallelOptions::default()
                },
            )
            .unwrap()
        };
        let (dynamic, stat) = (run(true), run(false));
        assert_eq!(dynamic.top, stat.top, "pruning must not change results");
        assert!(dynamic.stats.grs_examined <= stat.stats.grs_examined);
        if dynamic.stats.bound_tightenings > 0 {
            assert!(dynamic.stats.pruned_by_score >= stat.stats.pruned_by_score);
        }
    }

    #[test]
    fn cancelled_parallel_mine_returns_typed_error_with_drained_counters() {
        use grm_graph::CancelToken;
        let g = sample(6, 40, 300);
        let dims = Dims::all(g.schema());
        let opts = ParallelOptions {
            threads: 4,
            ..ParallelOptions::default()
        };
        let cfg = MinerConfig::nhp(1, 0.0, 50).with_cancel(CancelToken::tripping_after(5));
        let err = try_mine_parallel_with_opts(&g, &cfg, &dims, opts).unwrap_err();
        match err {
            MinerError::Cancelled { partial_stats } => {
                assert!(partial_stats.cancel_checks > 0, "{partial_stats:?}");
            }
            other => panic!("expected Cancelled, got {other}"),
        }
        // The same mine without the token completes and matches the
        // sequential oracle — cancellation left no residue.
        let cfg = MinerConfig::nhp(1, 0.0, 50).without_dynamic_topk();
        let par = try_mine_parallel_with_opts(&g, &cfg, &dims, opts).unwrap();
        let seq = GrMiner::new(&g, cfg).mine();
        assert_eq!(keys(&seq), keys(&par));
    }

    #[test]
    fn an_expired_deadline_cancels_every_worker() {
        let g = sample(2, 40, 300);
        let cfg = MinerConfig::nhp(1, 0.0, 50).with_deadline_ms(0);
        let err = try_mine_parallel_with_opts(
            &g,
            &cfg,
            &Dims::all(g.schema()),
            ParallelOptions {
                threads: 4,
                ..ParallelOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, MinerError::Cancelled { .. }), "{err}");
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let g = sample(3, 20, 100);
        let cfg = MinerConfig::nhp(1, 0.5, 5).without_dynamic_topk();
        let r = mine(&g, &cfg, 0);
        let seq = GrMiner::new(&g, cfg).mine();
        assert_eq!(keys(&r), keys(&seq));
    }

    #[test]
    fn thread_resolution_falls_back_to_one_worker_on_detection_failure() {
        // Satellite regression: `threads: 0` with an unavailable
        // `available_parallelism` must degrade to 1 worker (warning),
        // never panic or abort.
        let err = || std::io::Error::new(std::io::ErrorKind::Unsupported, "no sysinfo");
        assert_eq!(resolve_threads_from(0, Err(err())), (1, true));
        assert_eq!(resolve_threads_from(0, Ok(8)), (8, false));
        assert_eq!(resolve_threads_from(3, Err(err())), (3, false));
        assert_eq!(resolve_threads_from(3, Ok(8)), (3, false));
    }

    #[test]
    fn unbounded_k_selects_every_generality_survivor() {
        // An "effectively unbounded" k (the ablation bench's support-only
        // cell) reserves nothing up front and returns every collected
        // candidate that survives the generality filter, in rank order.
        let g = sample(4, 40, 300);
        let cfg = MinerConfig {
            k: usize::MAX >> 1,
            ..MinerConfig::nhp(2, 0.0, 1).without_dynamic_topk()
        };
        let r = mine(&g, &cfg, 2);
        assert!(!r.top.is_empty());
        assert_eq!(
            r.top.len() as u64,
            r.stats.accepted - r.stats.rejected_generality
        );
        assert!(r.top.windows(2).all(|w| w[0].rank_cmp(&w[1]).is_lt()));
    }

    #[test]
    fn empty_graph() {
        let schema = SchemaBuilder::new()
            .node_attr("A", 2, true)
            .build()
            .unwrap();
        let g = GraphBuilder::new(schema).build().unwrap();
        let r = mine(&g, &MinerConfig::default(), 2);
        assert!(r.top.is_empty());
    }
}
