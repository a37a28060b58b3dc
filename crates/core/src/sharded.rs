//! Sharded, memory-budgeted out-of-core mining — breaking the in-core
//! u32 edge cap.
//!
//! The in-core engines ([`crate::miner`], [`crate::parallel`]) require
//! the whole edge set resident as one [`KeyColumns`], whose position
//! indices are `u32` ([`CompactModel::MAX_EDGES`]). This module mines a
//! [`ShardStore`] instead: the edges live in columnar per-shard spill
//! files on disk (partitioned by the dominant LHS attribute's values),
//! and at any moment only the shards/slices the active root tasks need
//! are resident, managed by an LRU [`ShardPool`] under a fixed memory
//! budget.
//!
//! ## The per-value slice decomposition
//!
//! Naively mining each shard and merging is *not* bit-identical to the
//! unsharded run: every support a root task other than the dominant
//! LEFT dimension counts (`supp_lw`, partition lengths, β group-bys)
//! spans edges from *all* shards. The engine instead builds its units
//! from the same root task list as the in-core engine (`RootTask::all`,
//! with the store's [`ShardSpec`](grm_graph::shard::ShardSpec) as the
//! dominant dimension's ranges), each unit exactly one top-level
//! partition-value subtree over an edge set that provably contains every
//! edge that subtree touches:
//!
//! * **`Left`, dominant dimension** (the store's partition attribute):
//!   one unit per range, over the shard of that range. Shard `s` holds
//!   *precisely* the edges whose source carries a value in the shard's
//!   range, so the task on shard `s`'s columns is the identical
//!   enumeration (the partitioner emits only non-empty partitions, and
//!   the value filter precedes every counter).
//! * **`Left`, other dimensions**: one unit per non-null value `v`,
//!   over the [`SliceSet`] keyed `Src(dims.l[dim])` — the slice is the
//!   `v` partition of the top-level LEFT pass, mined with
//!   `Left { lo: v, hi: v }`.
//!
//! Two more kinds apply only with
//! [`MinerConfig::allow_empty_lhs`]: without it the root task list
//! leaves out the empty-LHS subtrees, so a default mine builds neither
//! their slice sets nor their units (5 slice sets on the Pokec schema
//! instead of 11).
//!
//! * **`Edge`**: one unit per value over the `Edge(dims.w[dim])`
//!   slices; the slice is the `v` partition of the top-level EDGE pass.
//! * **`Right`**: one unit per value over the `Dst(r_order(∅)[dim])`
//!   slices. Its `supp_lw` is the context's edge total, which a unit's
//!   context sets to the *global* edge count — the one denominator a
//!   slice cannot supply.
//!
//! NULL-keyed edges are dropped from slices exactly as the recursion
//! skips NULL partitions, and empty slices are skipped exactly as the
//! partitioner never emits empty partitions, so every *semantic*
//! counter ([`MinerStats::semantic`]) matches the in-core engines
//! bit-for-bit (static configurations; dynamic top-k counters are
//! timing-dependent in any parallel engine).
//!
//! ## What a unit loads
//!
//! The recursion reads only the per-position key columns
//! ([`KeyColumns`]), so that is all a unit makes resident, and both kinds
//! load them the same way: gathered from the spill file against the
//! store's resident node table — no graph, no node rows, no model.
//! Positions come in the order the file holds: EArray order for a store
//! built from a graph ([`ShardStore::build_from_graph`] spills its edges
//! as an in-core mine places them, source groups clustered by their
//! attribute rows widest attribute first, and a slice is a stable filter
//! of the store), so a unit's columns are in an in-core mine's order —
//! a shard's are a contiguous range of the in-core columns, since the
//! shard key is the attribute that order compares first — and arrival
//! order for a store streamed through a
//! [`ShardStoreWriter`](grm_graph::shard::ShardStoreWriter). No unit
//! sorts at load time. A shard
//! unit leases its columns from the pool, which loads them on a miss
//! ([`ShardStore::load_shard`]), keeps them for the post-pass and shares
//! them with the unit's [`MiningContext`]; a slice unit reserves its
//! budget and loads its columns ([`SliceSet::load_keys`]). The recursion
//! is invariant under a permutation of its positions, so the order
//! changes no result and no counter, only how fast a unit mines.
//!
//! Each unit is a collect-mode run whose [`MiningContext`] carries the
//! global edge total ([`MiningContext::with_edges_total`]), on the same
//! execution core, shared bound and exactness-verified post-pass as the
//! parallel engine (`crate::exec`) — with one twist: the post-pass
//! counts a candidate suppressor by summing its [`MetricInputs`] from
//! [`query::counts`] over every shard's columns (each field is a sum of
//! per-edge indicators, hence additive over any partition of the
//! edges) and scores the sum, so the verification is exact without ever
//! holding the whole graph. It counts over the shards the pool holds
//! first and leases the others after, so under a budget smaller than the
//! store a check reloads only the shards the pool lacks.
//!
//! Metrics that need global RHS marginal tables (lift,
//! Piatetsky-Shapiro, conviction —
//! [`RankMetric::needs_r_marginal`](crate::metrics::RankMetric::needs_r_marginal))
//! are rejected with [`MinerError::UnsupportedMetric`]: their
//! per-descriptor marginal memo assumes one resident model.
//!
//! ## Fault tolerance
//!
//! The units run on the shared execution core (`crate::exec`), which
//! observes the config's [`CancelToken`](grm_graph::CancelToken) and
//! deadline at every unit and recursion node (the pool's blocked
//! waiters observe the same token), contains worker panics, stops the
//! siblings after a unit's first storage error, and drains every
//! cleanly-exited worker's counters into the typed error — see
//! [`MinerError`]. Each call spills its slice sets into a directory of
//! its own under the store's, removed when the call returns, so
//! concurrent mines over one store never touch each other's files.

use crate::config::MinerConfig;
use crate::context::MiningContext;
use crate::error::MinerError;
use crate::exec::{Engine, Exec, Worker};
use crate::gr::Gr;
use crate::metrics::MetricInputs;
use crate::miner::{MineResult, RootTask};
use crate::query;
use crate::stats::MinerStats;
use crate::tail::Dims;
use grm_graph::shard::{resident_cost, ShardPool, ShardStore, SliceKey, SliceSet};
use grm_graph::{
    check_edge_capacity, AttrValue, CompactModel, GraphError, KeyColumns, ResidentUnit,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning knobs for [`mine_sharded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardedOptions {
    /// Worker count (0 = available parallelism). Workers take units in
    /// batches and steal from each other like the in-core engine's
    /// (`crate::exec`); a unit is made resident only when its worker
    /// mines it, so each worker holds at most one resident shard/slice at
    /// a time, and `threads` bounds concurrent residency.
    pub threads: usize,
    /// Maximum resident bytes of loaded shards/slices (`None` =
    /// unbounded), each priced at its key columns plus its position
    /// buffer ([`resident_cost`]). Enforced by the [`ShardPool`]:
    /// `shard_resident_bytes_peak ≤ budget` holds by construction, and
    /// a budget too small for the largest planned shard or slice fails
    /// before any unit runs with [`GraphError::MemoryBudgetTooSmall`],
    /// whose `needed` is the minimum viable budget.
    pub memory_budget: Option<u64>,
}

/// One independent unit of sharded work: a root task over one resident
/// edge set (module docs).
#[derive(Debug, Clone, Copy)]
enum Unit {
    /// A persistent shard, leased from the pool.
    Shard { shard: usize, task: RootTask },
    /// One value slice of a [`SliceSet`], loaded under a reservation.
    Slice {
        set: usize,
        value: AttrValue,
        task: RootTask,
    },
}

/// Mine the top-k GRs of an out-of-core [`ShardStore`] under
/// `opts.memory_budget`, bit-identical to the in-core engines on the
/// same edge set (module docs). Results are deterministic across thread
/// counts and shard counts.
pub fn mine_sharded(
    store: &ShardStore,
    config: &MinerConfig,
    opts: &ShardedOptions,
) -> Result<MineResult, MinerError> {
    if config.metric.needs_r_marginal() {
        return Err(MinerError::UnsupportedMetric(config.metric));
    }
    let schema = store.schema();
    let dims = Dims::all(schema);
    let exec = Exec::start(config, schema, &dims, opts.threads);

    // Build the slice sets and the unit list from the root task list,
    // in the sequential Main order, so a subtree the list leaves out
    // (every empty-LHS one, unless `allow_empty_lhs` is set) spills no
    // slice set. Every slice is capacity-checked up front: a value slice
    // beyond the u32 position space cannot be mined, and the check here
    // turns that into a typed error before any unit runs.
    let spec = store.spec();
    let r_nil = dims.r_order(0);
    let mut slices = Slices::new(store);
    let mut units: Vec<Unit> = Vec::new();
    for task in RootTask::all(schema, &dims, config.allow_empty_lhs, Some(spec)) {
        match task {
            RootTask::Right { dim } => {
                slices.add(&mut units, SliceKey::Dst(r_nil[dim]), |_| task)?
            }
            RootTask::Edge { dim } => {
                slices.add(&mut units, SliceKey::Edge(dims.w[dim]), |_| task)?
            }
            // One of the spec's non-empty ranges: exactly its shard.
            RootTask::Left { dim, lo, .. } if dims.l[dim] == spec.attr() => {
                let shard = spec.shard_of(lo);
                if store.edge_count(shard) > 0 {
                    units.push(Unit::Shard { shard, task });
                }
            }
            RootTask::Left { dim, .. } => {
                slices.add(&mut units, SliceKey::Src(dims.l[dim]), |v| RootTask::Left {
                    dim,
                    lo: v,
                    hi: v,
                })?;
            }
        }
    }
    // A budget below the largest planned unit fails here, before any
    // unit runs, with that unit's cost as the minimum viable budget:
    // no eviction schedule could ever make the unit resident.
    if let Some(budget) = opts.memory_budget {
        let largest = units.iter().map(|&u| slices.cost(u)).max();
        if let Some((needed, unit)) = largest.filter(|&(needed, _)| needed > budget) {
            return Err(GraphError::MemoryBudgetTooSmall {
                needed,
                budget,
                unit,
            }
            .into());
        }
    }

    let pool = ShardPool::new(store, opts.memory_budget)?.with_cancel(exec.token().clone());
    let engine = Sharded {
        store,
        slices,
        pool,
    };
    exec.run(&engine, units, None, store.total_edges())
}

/// One mine's slice sets, spilled into a directory of their own under
/// the store's, unique within the process, so concurrent mines over one
/// store never sweep or delete each other's files. Dropping the value
/// removes the directory with everything in it, on every path out of
/// the mine.
struct Slices<'s> {
    store: &'s ShardStore,
    dir: PathBuf,
    sets: Vec<SliceSet<'s>>,
}

impl<'s> Slices<'s> {
    fn new(store: &'s ShardStore) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // ordering: AcqRel — only the RMW's atomicity matters (each
        // call takes a distinct number); no other memory is published
        // through it. A Relaxed RMW is banned repo-wide.
        let n = NEXT.fetch_add(1, Ordering::AcqRel);
        Slices {
            store,
            dir: store.dir().join(format!("mine-{}-{n}", std::process::id())),
            sets: Vec::new(),
        }
    }

    /// Build the [`SliceSet`] for `key` and append one [`Unit::Slice`]
    /// per non-empty value, with `task_of(value)` as its root task.
    /// Empty values are skipped — the in-core partitioner never emits
    /// empty partitions, so the skip is counter-exact — and every slice
    /// is capacity-checked against the u32 position space.
    fn add(
        &mut self,
        units: &mut Vec<Unit>,
        key: SliceKey,
        task_of: impl Fn(AttrValue) -> RootTask,
    ) -> Result<(), MinerError> {
        let dir = self.dir.join(format!("slice-{}", self.sets.len()));
        let set = SliceSet::build(self.store, key, dir)?;
        for v in 1..=set.value_count() {
            let v = v as AttrValue;
            let edges = set.edge_count(v);
            if edges == 0 {
                continue;
            }
            check_edge_capacity(edges as usize, CompactModel::MAX_EDGES)?;
            units.push(Unit::Slice {
                set: self.sets.len(),
                value: v,
                task: task_of(v),
            });
        }
        self.sets.push(set);
        Ok(())
    }

    /// The bytes `unit` holds while it runs ([`resident_cost`]), and
    /// what it is.
    fn cost(&self, unit: Unit) -> (u64, ResidentUnit) {
        let (edges, kind) = match unit {
            Unit::Shard { shard, .. } => (self.store.edge_count(shard), ResidentUnit::Shard),
            Unit::Slice { set, value, .. } => {
                (self.sets[set].edge_count(value), ResidentUnit::Slice)
            }
        };
        (resident_cost(self.store.schema(), edges as usize), kind)
    }
}

impl Drop for Slices<'_> {
    fn drop(&mut self) {
        self.sets.clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The out-of-core engine: each unit makes its shard or slice resident
/// under the pool's budget, and the post-pass sums per-shard counts.
struct Sharded<'s> {
    store: &'s ShardStore,
    slices: Slices<'s>,
    pool: ShardPool<'s>,
}

impl Engine for Sharded<'_> {
    type Unit = Unit;

    fn mine(&self, unit: Unit, worker: &mut Worker<'_>) -> Result<(), MinerError> {
        let total_edges = self.store.total_edges();
        match unit {
            Unit::Shard { shard, task } => {
                // The lease keeps the shard pinned, and its bytes
                // accounted, until the unit finishes.
                let lease = self.pool.acquire(shard)?;
                mine_keys(Arc::clone(lease.keys()), task, total_edges, worker);
            }
            Unit::Slice { set, value, task } => {
                let slice = &self.slices.sets[set];
                let (cost, _) = self.slices.cost(unit);
                // Hold the budget before loading; dropped with the keys
                // when this unit finishes.
                let _hold = self.pool.reserve(cost)?;
                let keys = Arc::new(slice.load_keys(value)?);
                mine_keys(keys, task, total_edges, worker);
            }
        }
        Ok(())
    }

    /// Sum `gr`'s counts over every non-empty shard, the resident ones
    /// first: an LRU pool that holds fewer than all shards would miss on
    /// every lease of a walk in index order, where this walk reloads only
    /// the shards the pool does not hold. The sum does not depend on the
    /// order.
    fn evaluate(&self, gr: &Gr) -> Result<MetricInputs, MinerError> {
        let shards = (0..self.store.shard_count()).filter(|&s| self.store.edge_count(s) > 0);
        let (resident, absent): (Vec<usize>, Vec<usize>) =
            shards.partition(|&s| self.pool.is_resident(s));
        let mut sum = MetricInputs::default();
        for s in resident.into_iter().chain(absent) {
            let lease = self.pool.acquire(s)?;
            sum += query::counts(self.store.schema(), &**lease.keys(), gr);
        }
        Ok(sum)
    }

    /// Fold the storage-layer counters into `stats`: pool residency and
    /// the bounded spill retries the store and the slice sets performed.
    fn finish(&self, stats: &mut MinerStats) {
        let pool_stats = self.pool.stats();
        stats.shards_built = self.store.shard_count() as u64;
        stats.slice_sets_built = self.slices.sets.len() as u64;
        stats.shard_loads = pool_stats.loads;
        stats.shard_evictions = pool_stats.evictions;
        stats.shard_resident_bytes_peak = pool_stats.resident_bytes_peak;
        let slice_retries: u64 = self.slices.sets.iter().map(|s| s.spill_retries()).sum();
        stats.spill_retries += self.store.spill_retries() + slice_retries;
    }
}

/// One collect-mode run of `task` over a unit's key columns (see
/// [`MiningContext::with_edges_total`] for the denominator override).
fn mine_keys(keys: Arc<KeyColumns>, task: RootTask, total_edges: u64, worker: &mut Worker<'_>) {
    let ctx = MiningContext::with_edges_total(keys, total_edges);
    worker.mine(&ctx, |run, _| {
        // A buffer per unit, freed with it: the worker's reusable one
        // would keep the largest unit's positions resident outside the
        // pool's budget. The worker does keep its pool of output buffers
        // (`MinerScratch`) across units, bounded by its largest unit's
        // slices and outside the budget, as the scratch of every engine
        // is.
        let mut data = Vec::new();
        ctx.fill_positions(&mut data);
        run.run_root(&data, task);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{EdgeDescriptor, NodeDescriptor};
    use grm_graph::{GraphBuilder, NodeAttrId, SchemaBuilder, SocialGraph};

    /// 8 nodes over A (domain 4, the shard key) and B (domain 2), each
    /// with edges to the next three: sources carry every A value, so
    /// both shards of a 2-shard store hold edges.
    fn graph() -> SocialGraph {
        let schema = SchemaBuilder::new()
            .node_attr("A", 4, true)
            .node_attr("B", 2, false)
            .build()
            .unwrap();
        let mut b = GraphBuilder::new(schema);
        for n in 0..8u16 {
            b.add_node(&[1 + n % 4, 1 + n % 2]).unwrap();
        }
        for s in 0..8u32 {
            for d in 1..=3 {
                b.add_edge(s, (s + d) % 8, &[]).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn post_pass_counts_lease_resident_shards_first() {
        let g = graph();
        let dir =
            std::env::temp_dir().join(format!("grm-sharded-resident-first-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ShardStore::build_from_graph(&g, &dir, 2, CompactModel::MAX_EDGES).unwrap();
        assert!((0..2).all(|s| store.edge_count(s) > 0));
        // A budget of one shard: the pool never holds both.
        let one = (0..2)
            .map(|s| resident_cost(store.schema(), store.edge_count(s) as usize))
            .max()
            .unwrap();
        let engine = Sharded {
            store: &store,
            slices: Slices::new(&store),
            pool: ShardPool::new(&store, Some(one)).unwrap(),
        };
        let a = |v| (NodeAttrId(0), v);
        let b = |v| (NodeAttrId(1), v);
        let grs = [
            (vec![a(1)], vec![b(1)]),
            (vec![b(2)], vec![a(3)]),
            (vec![a(2), b(2)], vec![a(4)]),
            (vec![], vec![b(1)]),
        ];
        for (i, (l, r)) in grs.into_iter().enumerate() {
            let gr = Gr::new(
                NodeDescriptor::from_pairs(l),
                EdgeDescriptor::empty(),
                NodeDescriptor::from_pairs(r),
            );
            let before = engine.pool.stats().loads;
            let sum = engine.evaluate(&gr).unwrap();
            assert_eq!(sum, query::counts(g.schema(), &g, &gr), "{gr:?}");
            // The first call loads both shards; each later one starts
            // with the shard the last call left resident and loads the
            // other, where an index-order walk would reload both.
            let loads = engine.pool.stats().loads - before;
            assert_eq!(loads, if i == 0 { 2 } else { 1 }, "call {i}");
        }
        drop(engine);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
