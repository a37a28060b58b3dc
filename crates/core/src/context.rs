//! The shared, read-only mining context.
//!
//! One [`MiningContext`] is built per mine call (or per out-of-core unit),
//! whatever the worker count, and sits between the edge set's
//! [`KeyColumns`] and the per-task [`crate::miner`] recursion state. It
//! holds its columns and borrows no graph: an in-core mine gathers them
//! with [`KeyColumns::build`] in EArray order (source groups clustered by
//! their attribute rows, widest attribute first, so an LHS partition is a
//! few long runs of positions rather than one short run per source), and
//! an out-of-core unit shares the columns its shard or value slice loads
//! from its spill file ([`ShardPool`](grm_graph::shard::ShardPool)), in
//! EArray order for a store built from a graph and in arrival order for
//! a streamed one. `grmined` gathers its graph's columns once, at load,
//! and wraps them in a fresh context per mine ([`MiningContext::new`]),
//! so a cold mine gathers none. The recursion is invariant under a
//! permutation of its positions, so the order decides how fast a pass
//! reads, never what it counts.
//! Everything in it is immutable (or internally synchronized) and safe to
//! share by reference across worker threads, so the per-task costs the
//! §IV-A model was designed to avoid are paid once per run instead of
//! once per task:
//!
//! * the **canonical position set** `0..|E|`: every worker fills one
//!   reusable buffer ([`MiningContext::fill_positions`]) instead of
//!   allocating a fresh `Vec` per root task;
//! * the **RHS marginal table** for lift / Piatetsky-Shapiro / conviction
//!   (§VII) is precomputed per `(attribute, value)` in one columnar pass,
//!   and multi-attribute marginals are memoized in a shared map, so a
//!   distinct descriptor is scanned at most once per *run* rather than
//!   once per parallel task.
//!
//! Sharing the marginal memo across workers cannot change results:
//! `supp(r)` is a pure function of the graph, so whichever worker computes
//! it first stores the same value every other worker would have. The memo
//! lives as long as its context, one mine, so a long-lived daemon that
//! shares the columns does not pile up marginals across requests.

use crate::descriptor::NodeDescriptor;
use grm_graph::{KeyColumns, Schema, SocialGraph};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Immutable per-run state shared by every mining task (module docs).
#[derive(Debug)]
pub struct MiningContext {
    keys: Arc<KeyColumns>,
    edges_total: u64,
    /// Per node attribute: `supp(A:v)` over all edges, indexed by value
    /// (including the never-queried null slot). Built iff the run's
    /// metric needs RHS marginals.
    r_base: Option<Vec<Vec<u64>>>,
    /// Shared memo for multi-attribute RHS marginals, keyed by
    /// descriptor. Lock-protected but cold: only lift / PS / conviction
    /// runs with multi-attribute RHS descriptors ever take it.
    r_memo: Mutex<HashMap<NodeDescriptor, u64>>,
}

impl MiningContext {
    /// Build the context for `graph`: gather its key columns
    /// ([`KeyColumns::build`]) and wrap them ([`MiningContext::new`]).
    /// `needs_r_marginal` opts into the eager RHS marginal table
    /// ([`crate::metrics::RankMetric`] knows — pass
    /// `metric.needs_r_marginal()`).
    ///
    /// # Panics
    ///
    /// On a graph beyond [`grm_graph::CompactModel::MAX_EDGES`] edges,
    /// which its `u32` positions cannot index (mine it sharded).
    pub fn build(graph: &SocialGraph, needs_r_marginal: bool) -> Self {
        let keys = KeyColumns::build(graph).unwrap_or_else(|e| panic!("{e}"));
        Self::new(graph.schema(), Arc::new(keys), needs_r_marginal)
    }

    /// A context over built key columns of `schema`, shared with their
    /// other holders (`grmined` keeps one set resident and wraps it once
    /// per mine). The marginal memo starts empty, and the RHS marginal
    /// table is counted from the columns only when `needs_r_marginal`.
    pub fn new(schema: &Schema, keys: Arc<KeyColumns>, needs_r_marginal: bool) -> Self {
        let r_base = needs_r_marginal.then(|| {
            schema
                .node_attr_ids()
                .map(|a| {
                    let mut counts = vec![0u64; schema.node_attr(a).bucket_count()];
                    for &v in keys.r_col(a) {
                        counts[v as usize] += 1;
                    }
                    counts
                })
                .collect()
        });
        MiningContext {
            edges_total: keys.edge_count() as u64,
            keys,
            r_base,
            r_memo: Mutex::new(HashMap::new()),
        }
    }

    /// A context over the key columns of one *shard or value slice* of a
    /// larger edge set: support denominators (`supp_rel`, the empty-RHS
    /// marginal) use `edges_total` — the global edge count — while
    /// position buffers stay sized to the resident columns. No marginal
    /// table: the out-of-core engine rejects the metrics that need one.
    pub fn with_edges_total(keys: Arc<KeyColumns>, edges_total: u64) -> Self {
        MiningContext {
            keys,
            edges_total,
            r_base: None,
            r_memo: Mutex::new(HashMap::new()),
        }
    }

    /// The key columns the context wraps.
    pub fn keys(&self) -> &KeyColumns {
        &self.keys
    }

    /// `|E|` as a support denominator.
    pub fn edges_total(&self) -> u64 {
        self.edges_total
    }

    /// Fill `buf` with the canonical position set `0..|E|`, reusing its
    /// capacity: a worker fills its buffer once and keeps reusing it,
    /// because nothing moves it — the recursion reads the positions it is
    /// given, and every pass scatters into a buffer of its own.
    pub fn fill_positions(&self, buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend(0..self.keys.edge_count() as u32);
    }

    /// RHS marginal `supp(r)` over all edges (lift / PS / conviction —
    /// §VII). Single-attribute descriptors hit the precomputed table;
    /// wider ones are scanned columnar at most once per run via the
    /// shared memo.
    pub fn r_marginal(&self, r: &NodeDescriptor) -> u64 {
        match (r.pairs(), &self.r_base) {
            ([], _) => self.edges_total,
            (&[(a, v)], Some(base)) => base[a.index()][v as usize],
            (pairs, _) => {
                if let Some(&count) = self.r_memo.lock().get(r) {
                    return count;
                }
                // Scan outside the lock so concurrent workers computing
                // *different* descriptors do not serialize; a duplicated
                // scan of the same descriptor is benign (supp(r) is a
                // pure function, both workers insert the same value).
                let cols: Vec<&[u16]> = pairs.iter().map(|&(a, _)| self.keys.r_col(a)).collect();
                let count = (0..self.keys.edge_count())
                    .filter(|&p| cols.iter().zip(pairs).all(|(col, &(_, v))| col[p] == v))
                    .count() as u64;
                self.r_memo.lock().insert(r.clone(), count);
                count
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_graph::{GraphBuilder, NodeAttrId, SchemaBuilder};

    fn sample() -> SocialGraph {
        let schema = SchemaBuilder::new()
            .node_attr("A", 3, true)
            .node_attr("B", 2, false)
            .build()
            .unwrap();
        let mut b = GraphBuilder::new(schema);
        let rows = [[1, 1], [2, 2], [3, 1], [1, 2]];
        let ids: Vec<_> = rows.iter().map(|r| b.add_node(r).unwrap()).collect();
        for (s, t) in [(0, 1), (0, 2), (1, 2), (3, 0), (2, 0)] {
            b.add_edge(ids[s], ids[t], &[]).unwrap();
        }
        b.build().unwrap()
    }

    fn brute_marginal(g: &SocialGraph, r: &NodeDescriptor) -> u64 {
        g.edge_ids()
            .filter(|&e| r.pairs().iter().all(|&(a, v)| g.dst_attr(e, a) == v))
            .count() as u64
    }

    #[test]
    fn positions_and_fill() {
        let g = sample();
        let ctx = MiningContext::build(&g, false);
        assert_eq!(ctx.edges_total(), 5);
        let mut buf = vec![9, 9];
        ctx.fill_positions(&mut buf);
        assert_eq!(buf, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn r_marginals_match_brute_force() {
        let g = sample();
        for needs in [false, true] {
            let ctx = MiningContext::build(&g, needs);
            assert_eq!(ctx.r_base.is_some(), needs);
            for (a, domain) in [(0u8, 3u16), (1, 2)] {
                for v in 1..=domain {
                    let r = NodeDescriptor::from_pairs([(NodeAttrId(a), v)]);
                    assert_eq!(
                        ctx.r_marginal(&r),
                        brute_marginal(&g, &r),
                        "needs={needs} {r:?}"
                    );
                }
            }
            let wide = NodeDescriptor::from_pairs([(NodeAttrId(0), 1), (NodeAttrId(1), 2)]);
            assert_eq!(ctx.r_marginal(&wide), brute_marginal(&g, &wide));
            // Memoized second call agrees.
            assert_eq!(ctx.r_marginal(&wide), brute_marginal(&g, &wide));
            assert_eq!(ctx.r_marginal(&NodeDescriptor::empty()), 5);
        }
    }
}
