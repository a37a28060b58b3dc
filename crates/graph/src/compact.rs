//! The compact data model of §IV-A: **LArray**, **EArray**, **RArray**.
//!
//! * `LArray` — one record per node that can occur on the LHS of a GR
//!   (out-degree > 0), with its attribute values plus `Out` (out-degree) and
//!   `Ind` (starting position of its outgoing edges in `EArray`).
//! * `EArray` — one record per edge, grouped by source record, carrying the
//!   edge-attribute values plus `Ptr`, the index of the destination's record
//!   in `RArray`.
//! * `RArray` — one record per node that can occur on the RHS (in-degree
//!   > 0) with its attribute values.
//!
//! Node attributes are stored once per node, so the model occupies
//! `|V|·(#AttrV + 2) + |E|·(#AttrE + 1) + |V|·#AttrV` cells instead of the
//! single table's `|E|·(2·#AttrV + #AttrE)` — eliminating the
//! `|E| × 2 × #AttrV` bottleneck term (§IV-A). [`CompactModel`] is that
//! account: [`CompactModel::cells`] and [`crate::SingleTable::cells`] make
//! the comparison measurable.
//!
//! Mining operates on **EArray positions**: a pattern's edge set is a slice
//! of positions, partitioned with counting sort on LHS / edge / RHS
//! dimensions via the key functions below.
//!
//! ### EArray order
//!
//! §IV-A groups the EArray by LArray record but leaves the order of the
//! records to us, and node ids (which a generator or a crawl assigns
//! without regard to attributes) would make every LHS partition one
//! short run per source. So the records are **clustered by their
//! attribute rows**: the groups are ordered by their sources' node
//! attributes compared widest domain first (`bucket_count` descending,
//! the lower attribute id first on ties — the rule
//! [`crate::shard::ShardSpec::dominant`] picks the shard key by), equal
//! rows in node-id order, and each group holds its edges in edge-id
//! order. A partition on the widest attribute is then one contiguous run
//! of positions, one on the next widest a run per value of the widest,
//! and so on; selections become position ranges, as in a column store's
//! sorted projection (Stonebraker et al., "C-Store", VLDB 2005). The
//! recursion is invariant under a permutation of its positions, so the
//! order moves no answer and no counter, only where each pass reads.
//! [`Placement`] alone decides it, with one stable counting-sort pass
//! per node attribute, least significant first (O(|V|·#AttrV), the §V
//! primitive).
//!
//! ### Key columns
//!
//! The key functions are the hottest loads of the mining recursion — every
//! counting-sort pass calls one of them once per position — so the miner
//! reads no structural column at all. It reads a [`KeyColumns`]: one flat
//! `Vec<AttrValue>` per (side, attribute) pair, indexed directly by
//! position, so `l_key`/`w_key`/`r_key` are a single indexed load. This
//! is a deliberate time/space trade *on top of* the §IV-A model: the
//! columns occupy `|E|·(2·#AttrV + #AttrE)` u16 cells (the single-table
//! shape), but the §IV-A win — building them in O(|V| + |E|) from the
//! once-per-node storage instead of joining per edge — is unchanged.
//! [`KeyColumns::build`] gathers an in-memory graph's columns in EArray
//! order, and the out-of-core engine gathers a shard's or value slice's
//! columns straight from its spill file in the order the file holds
//! ([`crate::shard::ShardStore::load_shard`],
//! [`crate::shard::SliceSet::load_keys`]): EArray order for a store
//! built from a graph, which places its edges with the same [`Placement`]
//! (so its shards, read in shard order, are the in-core columns cut into
//! contiguous ranges), and arrival order for a streamed one.

use crate::error::{GraphError, Result};
use crate::graph::SocialGraph;
use crate::sort::PartitionArena;
use crate::value::{AttrValue, EdgeAttrId, EdgeId, NodeAttrId, NodeId};
use std::cmp::Reverse;
use std::ops::Range;

/// The columnar per-position key caches (module docs): per node
/// attribute a source-side and a destination-side column, per edge
/// attribute one column, each indexed by edge position. Everything the
/// mining recursion reads of an edge set.
#[derive(Debug, Clone)]
pub struct KeyColumns {
    edges: usize,
    /// Per node attribute: source-side values by position.
    l: Vec<Vec<AttrValue>>,
    /// Per edge attribute: values by position.
    w: Vec<Vec<AttrValue>>,
    /// Per node attribute: destination-side values by position.
    r: Vec<Vec<AttrValue>>,
}

impl KeyColumns {
    /// Gather `graph`'s columns in EArray order (module docs: source
    /// groups clustered by their attribute rows), rejecting graphs with
    /// more than [`CompactModel::MAX_EDGES`] edges with
    /// [`GraphError::TooManyEdges`] instead of truncating positions.
    /// O(|V|·#AttrV + |E|): `Placement` orders the source groups and
    /// places each edge's destination and edge id at its position, then
    /// one pass in position order fills every column, reading each
    /// source's attribute row once.
    pub fn build(graph: &SocialGraph) -> Result<Self> {
        let place = Placement::of(graph)?;
        let m = graph.edge_count();
        let na = graph.schema().node_attr_count();
        let ea = graph.schema().edge_attr_count();
        let mut l = vec![vec![0 as AttrValue; m]; na];
        let mut w = vec![vec![0 as AttrValue; m]; ea];
        let mut r = vec![vec![0 as AttrValue; m]; na];
        for (v, group) in place.groups() {
            for (col, &value) in l.iter_mut().zip(graph.node_row(v)) {
                col[group.clone()].fill(value);
            }
            for p in group {
                let (dst, e) = place.edges[p];
                for (col, &value) in r.iter_mut().zip(graph.node_row(dst)) {
                    col[p] = value;
                }
                for (col, &value) in w.iter_mut().zip(graph.edge_row(e)) {
                    col[p] = value;
                }
            }
        }
        Ok(KeyColumns::from_columns(m, l, w, r))
    }

    /// Assemble from whole columns; every column must hold `edges`
    /// values.
    pub(crate) fn from_columns(
        edges: usize,
        l: Vec<Vec<AttrValue>>,
        w: Vec<Vec<AttrValue>>,
        r: Vec<Vec<AttrValue>>,
    ) -> Self {
        debug_assert!(l.iter().chain(&w).chain(&r).all(|c| c.len() == edges));
        KeyColumns { edges, l, w, r }
    }

    /// Number of positions (edges).
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// LHS key function: node attribute `a` of the source of position `p`.
    #[inline]
    pub fn l_key(&self, p: u32, a: NodeAttrId) -> AttrValue {
        self.l[a.index()][p as usize]
    }

    /// Edge key function: edge attribute `a` of position `p`.
    #[inline]
    pub fn w_key(&self, p: u32, a: EdgeAttrId) -> AttrValue {
        self.w[a.index()][p as usize]
    }

    /// RHS key function: node attribute `a` of the destination of `p`.
    #[inline]
    pub fn r_key(&self, p: u32, a: NodeAttrId) -> AttrValue {
        self.r[a.index()][p as usize]
    }

    /// The whole source-side column of node attribute `a` (counting-sort
    /// passes, marginal tables, group-bys).
    #[inline]
    pub fn l_col(&self, a: NodeAttrId) -> &[AttrValue] {
        &self.l[a.index()]
    }

    /// The whole column of edge attribute `a`.
    #[inline]
    pub fn w_col(&self, a: EdgeAttrId) -> &[AttrValue] {
        &self.w[a.index()]
    }

    /// The whole destination-side column of node attribute `a`.
    #[inline]
    pub fn r_col(&self, a: NodeAttrId) -> &[AttrValue] {
        &self.r[a.index()]
    }

    /// Cell count: one value per (side, attribute, position), i.e.
    /// `|E|·(2·#AttrV + #AttrE)` — the single-table shape, spent
    /// deliberately for single-load keys on top of the
    /// [`CompactModel::cells`] structural model.
    pub fn cells(&self) -> usize {
        self.edges * (self.l.len() + self.w.len() + self.r.len())
    }
}

/// Where each of a graph's edges sits in EArray order (module docs): the
/// source groups in clustered order, with the range of positions each
/// holds, and per position the edge's destination and edge id. The one
/// place the order is decided: [`KeyColumns::build`] gathers the in-core
/// columns from it, and [`crate::shard::ShardStore::build_from_graph`]
/// spills the edges in its order.
pub(crate) struct Placement {
    /// The LArray records — sources with out-edges — in EArray order.
    sources: Vec<NodeId>,
    /// Per node id, one past the last position of its group.
    end: Vec<u32>,
    /// The `(destination, edge id)` of the edge at each position, side by
    /// side so placing an edge writes one cache line, not two.
    pub(crate) edges: Vec<(NodeId, EdgeId)>,
}

impl Placement {
    /// Place `graph`'s edges, rejecting more than
    /// [`CompactModel::MAX_EDGES`] with [`GraphError::TooManyEdges`]:
    /// positions are `u32`. The sources are sorted by their attribute
    /// rows with one stable counting-sort pass per node attribute, least
    /// significant first, so the widest attribute decides first and
    /// equal rows keep node-id order; one counting pass over the
    /// out-degrees then places each edge, in edge-id order within its
    /// group.
    pub(crate) fn of(graph: &SocialGraph) -> Result<Self> {
        check_edge_capacity(graph.edge_count(), CompactModel::MAX_EDGES)?;
        let schema = graph.schema();
        let mut end = graph.out_degrees();
        let mut sources: Vec<NodeId> = graph.node_ids().filter(|&v| end[v as usize] > 0).collect();
        // Widest domain first; the sort is stable, so ties keep id order.
        let mut attrs: Vec<NodeAttrId> = schema.node_attr_ids().collect();
        attrs.sort_by_key(|&a| Reverse(schema.node_attr(a).bucket_count()));
        let mut arena = PartitionArena::new();
        for &a in attrs.iter().rev() {
            let buckets = schema.node_attr(a).bucket_count();
            arena.partition_with(&mut sources, buckets, |v| graph.node_attr(v, a))?;
        }
        // `end[v]`: the start of source `v`'s group, advanced to one past
        // its end by the scatter below.
        let mut acc = 0u32;
        for &v in &sources {
            let d = &mut end[v as usize];
            acc += *d;
            *d = acc - *d;
        }
        let mut edges = vec![(0 as NodeId, 0 as EdgeId); graph.edge_count()];
        for e in graph.edge_ids() {
            let cursor = &mut end[graph.src(e) as usize];
            edges[*cursor as usize] = (graph.dst(e), e);
            *cursor += 1;
        }
        Ok(Placement {
            sources,
            end,
            edges,
        })
    }

    /// Each source with out-edges and the positions of its group, in
    /// EArray order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = (NodeId, Range<usize>)> + '_ {
        let mut lo = 0;
        self.sources.iter().map(move |&v| {
            let group = lo..self.end[v as usize] as usize;
            lo = group.end;
            (v, group)
        })
    }
}

/// The §IV-A cell account of a graph's LArray/EArray/RArray model:
/// the record counts and attribute widths the paper's formula needs,
/// and nothing else (module docs).
#[derive(Debug, Clone, Copy)]
pub struct CompactModel {
    nodes: usize,
    /// LArray records: nodes with out-degree > 0.
    lrows: usize,
    edges: usize,
    /// RArray records: nodes with in-degree > 0.
    rrows: usize,
    node_attrs: usize,
    edge_attrs: usize,
}

impl CompactModel {
    /// Maximum number of edges one set of EArray positions can index:
    /// positions are `u32`, so a larger edge set cannot be addressed
    /// (positions beyond the limit would silently wrap).
    pub const MAX_EDGES: usize = u32::MAX as usize;

    /// Count the model's records from `graph`'s degree vectors: O(|V| +
    /// |E|).
    pub fn build(graph: &SocialGraph) -> Self {
        let nonzero = |degrees: Vec<u32>| degrees.iter().filter(|&&d| d > 0).count();
        CompactModel {
            nodes: graph.node_count(),
            lrows: nonzero(graph.out_degrees()),
            edges: graph.edge_count(),
            rrows: nonzero(graph.in_degrees()),
            node_attrs: graph.schema().node_attr_count(),
            edge_attrs: graph.schema().edge_attr_count(),
        }
    }

    /// Number of LArray records (nodes with out-degree > 0).
    pub fn lrow_count(&self) -> usize {
        self.lrows
    }

    /// Number of RArray records (nodes with in-degree > 0).
    pub fn rrow_count(&self) -> usize {
        self.rrows
    }

    /// Number of EArray records (= `|E|`).
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Cell count of the compact model per the §IV-A formula, using the
    /// actual LArray/RArray row counts (the paper notes zero-out-degree /
    /// zero-in-degree nodes are dropped):
    /// `|L|·(#AttrV+2) + |E|·(#AttrE+1) + |R|·#AttrV`.
    pub fn cells(&self) -> usize {
        let (na, ea) = (self.node_attrs, self.edge_attrs);
        self.lrows * (na + 2) + self.edges * (ea + 1) + self.rrows * na
    }

    /// Cell count using the paper's headline formula with the full `|V|`
    /// on both sides: `|V|·(#AttrV+2) + |E|·(#AttrE+1) + |V|·#AttrV`.
    pub fn cells_paper_formula(&self) -> usize {
        let (na, ea, v) = (self.node_attrs, self.edge_attrs, self.nodes);
        v * (na + 2) + self.edges * (ea + 1) + v * na
    }
}

/// Reject edge counts beyond `max` — positions are `u32`, and an
/// oversized edge set would silently truncate them. The cap is a
/// parameter because sharded mining applies the check **per shard and
/// per slice** (each is mined over its own positions, so the u32 limit
/// binds the unit, not the whole graph; see [`crate::shard::ShardStore`]).
pub fn check_edge_capacity(edges: usize, max: usize) -> Result<()> {
    if edges > max {
        return Err(GraphError::TooManyEdges { edges, max });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, SchemaBuilder};

    /// src->dst: 0->1, 0->2, 1->2, 3->0 (node 2 has no out-edges, node 3 no
    /// in-edges).
    fn sample() -> SocialGraph {
        sample_with_edges(&[(0, 1, 1), (0, 2, 2), (1, 2, 1), (3, 0, 2)])
    }

    /// `sample`'s schema and nodes with the edges `(src, dst, W)`.
    fn sample_with_edges(edges: &[(NodeId, NodeId, AttrValue)]) -> SocialGraph {
        let schema = SchemaBuilder::new()
            .node_attr("A", 3, true)
            .node_attr("B", 2, false)
            .edge_attr("W", 2)
            .build()
            .unwrap();
        let mut b = GraphBuilder::new(schema);
        for row in [[1, 1], [2, 2], [3, 1], [1, 2]] {
            b.add_node(&row).unwrap();
        }
        for &(s, t, w) in edges {
            b.add_edge(s, t, &[w]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn rows_exclude_zero_degree_nodes() {
        let g = sample();
        let cm = CompactModel::build(&g);
        assert_eq!(cm.lrow_count(), 3, "nodes 0,1,3 have out-edges");
        assert_eq!(cm.rrow_count(), 3, "nodes 0,1,2 have in-edges");
        assert_eq!(cm.edge_count(), 4);
    }

    #[test]
    fn key_functions() {
        let g = sample();
        let keys = KeyColumns::build(&g).unwrap();
        let a = NodeAttrId(0);
        let b = NodeAttrId(1);
        let w = EdgeAttrId(0);
        // EArray order compares A (the wider domain), then B: node 3's
        // group (A=1, B=2) sits between node 0's (A=1, B=1) and node
        // 1's (A=2), so position 2 is edge 3->0.
        assert_eq!(keys.l_key(2, a), 1, "node 3 has A=1");
        assert_eq!(keys.l_key(2, b), 2);
        assert_eq!(keys.r_key(2, a), 1, "node 0 has A=1");
        assert_eq!(keys.w_key(2, w), 2);
        // Position 1 is edge 0->2, and position 3 edge 1->2.
        assert_eq!(keys.r_key(1, a), 3);
        assert_eq!(keys.l_key(3, a), 2, "node 1 has A=2");
        assert_eq!(keys.r_key(3, a), 3);
    }

    /// Edges 0..5 as 1->2, 0->1, 3->0, 0->2, 1->0, with the edge ids
    /// EArray order puts at positions 0..5: the source groups ordered by
    /// (A, B) — node 0 (1, 1), node 3 (1, 2), node 1 (2, 2) — each in
    /// edge-id order, the positions hold edges 1, 3 (node 0), 2 (node 3)
    /// and 0, 4 (node 1); node 2 has no out-edges and no group.
    fn unsorted_sample() -> (SocialGraph, [EdgeId; 5]) {
        let g = sample_with_edges(&[(1, 2, 1), (0, 1, 2), (3, 0, 1), (0, 2, 1), (1, 0, 2)]);
        (g, [1, 3, 2, 0, 4])
    }

    #[test]
    fn earray_grouped_by_source_with_correct_ptrs() {
        // Each position's source side is its group's node, and its
        // destination side (the paper's Ptr) is that edge's destination.
        let (g, order) = unsorted_sample();
        let keys = KeyColumns::build(&g).unwrap();
        assert_eq!(keys.edge_count(), 5);
        for (p, e) in (0u32..).zip(order) {
            for a in g.schema().node_attr_ids() {
                assert_eq!(keys.l_key(p, a), g.src_attr(e, a), "l_key p={p} {a}");
                assert_eq!(keys.r_key(p, a), g.dst_attr(e, a), "r_key p={p} {a}");
            }
            for a in g.schema().edge_attr_ids() {
                assert_eq!(keys.w_key(p, a), g.edge_attr(e, a), "w_key p={p} {a}");
            }
        }
    }

    #[test]
    fn columnar_caches_agree_with_structural_lookups() {
        // Every whole column equals the graph's per-edge lookups read
        // in EArray order.
        let (g, order) = unsorted_sample();
        let keys = KeyColumns::build(&g).unwrap();
        let column = |f: &dyn Fn(EdgeId) -> AttrValue| order.map(f).to_vec();
        for a in g.schema().node_attr_ids() {
            assert_eq!(keys.l_col(a), column(&|e| g.src_attr(e, a)), "l_col {a}");
            assert_eq!(keys.r_col(a), column(&|e| g.dst_attr(e, a)), "r_col {a}");
        }
        for a in g.schema().edge_attr_ids() {
            assert_eq!(keys.w_col(a), column(&|e| g.edge_attr(e, a)), "w_col {a}");
        }
    }

    #[test]
    fn earray_clusters_sources_widest_attribute_first() {
        // X (2 values), Y and Z (4 values each): EArray order compares
        // Y (the widest, and listed before Z), then Z, then X.
        let schema = SchemaBuilder::new()
            .node_attr("X", 2, false)
            .node_attr("Y", 4, true)
            .node_attr("Z", 4, false)
            .build()
            .unwrap();
        let mut b = GraphBuilder::new(schema);
        // Node 2's Y is NULL, nodes 0 and 4 carry equal rows, and node 6
        // has no out-edges.
        for row in [
            [1, 2, 1],
            [2, 1, 3],
            [1, 0, 4],
            [2, 2, 1],
            [1, 2, 1],
            [2, 1, 2],
            [1, 1, 1],
        ] {
            b.add_node(&row).unwrap();
        }
        let edges = [
            (0, 6),
            (4, 0),
            (1, 2),
            (0, 3),
            (2, 5),
            (3, 1),
            (5, 4),
            (4, 6),
        ];
        for (s, t) in edges {
            b.add_edge(s, t, &[]).unwrap();
        }
        let g = b.build().unwrap();
        // (Y, Z, X): node 2 (NULL, 4, 1), 5 (1, 2, 2), 1 (1, 3, 2), then
        // 0 and 4 (2, 1, 1) in node-id order, then 3 (2, 1, 2).
        let place = Placement::of(&g).unwrap();
        let sources: Vec<NodeId> = place.groups().map(|(v, _)| v).collect();
        assert_eq!(sources, [2, 5, 1, 0, 4, 3]);
        // Each group keeps its edges in edge-id order: node 0's are
        // edges 0 and 3, node 4's 1 and 7.
        let order: [EdgeId; 8] = [4, 6, 2, 0, 3, 1, 7, 5];
        let placed: Vec<EdgeId> = place.edges.iter().map(|&(_, e)| e).collect();
        assert_eq!(placed, order);
        let keys = KeyColumns::build(&g).unwrap();
        for a in g.schema().node_attr_ids() {
            let l: Vec<AttrValue> = order.iter().map(|&e| g.src_attr(e, a)).collect();
            let r: Vec<AttrValue> = order.iter().map(|&e| g.dst_attr(e, a)).collect();
            assert_eq!(keys.l_col(a), l, "l_col {a}");
            assert_eq!(keys.r_col(a), r, "r_col {a}");
        }
    }

    #[test]
    fn cell_accounting_beats_single_table() {
        let g = sample();
        let cm = CompactModel::build(&g);
        // |L|=3, |R|=3, |E|=4, na=2, ea=1.
        assert_eq!(cm.cells(), 3 * 4 + 4 * 2 + 3 * 2);
        assert_eq!(cm.cells_paper_formula(), 4 * 4 + 4 * 2 + 4 * 2);
        assert_eq!(KeyColumns::build(&g).unwrap().cells(), 4 * (2 * 2 + 1));
        let st = crate::SingleTable::build(&g);
        assert_eq!(st.cells(), 4 * (2 * 2 + 1));
    }

    #[test]
    fn edge_capacity_guard() {
        assert!(check_edge_capacity(0, CompactModel::MAX_EDGES).is_ok());
        assert!(check_edge_capacity(CompactModel::MAX_EDGES, CompactModel::MAX_EDGES).is_ok());
        let err =
            check_edge_capacity(CompactModel::MAX_EDGES + 1, CompactModel::MAX_EDGES).unwrap_err();
        assert!(matches!(err, GraphError::TooManyEdges { .. }));
        assert!(err.to_string().contains("u32"));
        // The remedy for an over-cap edge set is sharding, and the
        // message says so.
        assert!(err.to_string().contains("--shards"));
        // The check is per-shard: a lowered cap rejects a small edge
        // set the same way the u32 cap rejects a huge one.
        let err = check_edge_capacity(5, 4).unwrap_err();
        assert!(matches!(err, GraphError::TooManyEdges { edges: 5, max: 4 }));
        // The fallible gather accepts every constructible graph.
        let g = sample();
        assert!(KeyColumns::build(&g).is_ok());
    }
}
