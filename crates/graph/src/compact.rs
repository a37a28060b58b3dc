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
//! `|E| × 2 × #AttrV` bottleneck term (§IV-A). [`CompactModel::cells`] and
//! [`crate::SingleTable::cells`] make the comparison measurable.
//!
//! Mining operates on **EArray positions**: a pattern's edge set is a slice
//! of positions, partitioned with counting sort on LHS / edge / RHS
//! dimensions via the key functions below.
//!
//! ### Columnar key caches
//!
//! The key functions are the hottest loads of the mining recursion — every
//! counting-sort pass calls one of them once per position — and resolving
//! them through the structural columns costs two dependent indirections
//! (`src_row`/`ptr` into the graph's row-major attribute table). The model
//! therefore also materializes **columnar caches**, a [`KeyColumns`]: one
//! flat `Vec<AttrValue>` per (side, attribute) pair, indexed directly by
//! EArray position, so `l_key`/`w_key`/`r_key` are a single indexed load.
//! This is a deliberate time/space trade *on top of* the §IV-A model: the
//! caches occupy `|E|·(2·#AttrV + #AttrE)` u16 cells (the single-table
//! shape), but the §IV-A win — building them in O(|E|) from the
//! once-per-node storage instead of joining per edge — is unchanged, and
//! [`CompactModel::cells`] keeps reporting the paper's formula for the
//! structural model.
//!
//! The key columns are the miner's only reads of the model, so they are an
//! owned type of their own: [`CompactModel::into_keys`] keeps them and
//! drops the structural columns, and the out-of-core engine gathers a
//! shard's or value slice's columns straight from its spill file
//! ([`crate::shard::ShardStore::load_shard`],
//! [`crate::shard::SliceSet::load_keys`]) without building a graph or a
//! model at all.

use crate::error::{GraphError, Result};
use crate::graph::SocialGraph;
use crate::value::{AttrValue, EdgeAttrId, EdgeId, NodeAttrId, NodeId};

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

/// The LArray/EArray/RArray view over a [`SocialGraph`].
///
/// Borrow-based: attribute cells live in the graph; the model adds the
/// structural columns (`Out`, `Ind`, `Ptr`, row maps) plus the columnar
/// per-position [`KeyColumns`] (module docs). Cell accounting in
/// [`CompactModel::cells`] reports the full §IV-A formula, i.e. what a
/// standalone materialization of the structural model would occupy.
#[derive(Debug, Clone)]
pub struct CompactModel<'g> {
    graph: &'g SocialGraph,
    /// Node ids with out-degree > 0, in node-id order (LArray rows).
    lrows: Vec<NodeId>,
    /// `Out` column: out-degree per LArray row.
    out: Vec<u32>,
    /// `Ind` column: first EArray position per LArray row.
    ind: Vec<u32>,
    /// Per EArray position: the original edge id (edge-attribute lookup).
    eid: Vec<EdgeId>,
    /// `Ptr` column: per EArray position, the destination's RArray row.
    ptr: Vec<u32>,
    /// Node ids with in-degree > 0, in node-id order (RArray rows).
    rrows: Vec<NodeId>,
    /// The columnar key caches, by EArray position.
    keys: KeyColumns,
}

impl<'g> CompactModel<'g> {
    /// Maximum number of edges the model can index: EArray positions are
    /// `u32`, so a graph with more than `u32::MAX` edges cannot be
    /// addressed (positions beyond the limit would silently wrap).
    pub const MAX_EDGES: usize = u32::MAX as usize;

    /// Build the model, panicking on graphs beyond [`Self::MAX_EDGES`]
    /// (see [`Self::try_build`] for the fallible form): O(|V| + |E|), one
    /// stable counting pass over edges plus one pass per cached column.
    pub fn build(graph: &'g SocialGraph) -> Self {
        Self::try_build(graph).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build the model, rejecting graphs with more than
    /// [`Self::MAX_EDGES`] edges with [`GraphError::TooManyEdges`] instead
    /// of silently truncating position indices.
    pub fn try_build(graph: &'g SocialGraph) -> Result<Self> {
        check_edge_capacity(graph.edge_count(), Self::MAX_EDGES)?;
        let n = graph.node_count();
        let m = graph.edge_count();

        let out_deg = graph.out_degrees();
        let in_deg = graph.in_degrees();

        // LArray rows and the inverse map node -> lrow.
        let mut lrows = Vec::new();
        let mut lrow_of = vec![u32::MAX; n];
        for v in 0..n {
            if out_deg[v] > 0 {
                lrow_of[v] = lrows.len() as u32; // cast: ≤ n, and node ids fit u32 by construction
                lrows.push(v as NodeId); // cast: v < n = node_count, ids fit u32
            }
        }
        // RArray rows and the inverse map node -> rrow.
        let mut rrows = Vec::new();
        let mut rrow_of = vec![u32::MAX; n];
        for v in 0..n {
            if in_deg[v] > 0 {
                rrow_of[v] = rrows.len() as u32; // cast: ≤ n, and node ids fit u32 by construction
                rrows.push(v as NodeId); // cast: v < n = node_count, ids fit u32
            }
        }

        // Out / Ind columns.
        let mut out = Vec::with_capacity(lrows.len());
        let mut ind = Vec::with_capacity(lrows.len());
        let mut acc = 0u32;
        for &v in &lrows {
            out.push(out_deg[v as usize]);
            ind.push(acc);
            acc += out_deg[v as usize];
        }

        // Scatter edges into EArray grouped by source row (stable).
        // `src_row` is only needed to seed the columnar caches below; the
        // cached columns replace it as the runtime lookup path.
        let mut cursor = ind.clone();
        let mut src_row = vec![0u32; m];
        let mut eid = vec![0 as EdgeId; m];
        let mut ptr = vec![0u32; m];
        // cast: m = edge_count() ≤ MAX_EDGES, checked above
        for e in 0..m as u32 {
            let s = lrow_of[graph.src(e) as usize];
            let pos = cursor[s as usize] as usize;
            cursor[s as usize] += 1;
            src_row[pos] = s;
            eid[pos] = e;
            ptr[pos] = rrow_of[graph.dst(e) as usize];
        }

        // Columnar key caches: resolve the src_row/Ptr indirections once so
        // every later key lookup is a single indexed load (module docs).
        let na = graph.schema().node_attr_count();
        let ea = graph.schema().edge_attr_count();
        let mut l_cols = vec![vec![0 as AttrValue; m]; na];
        let mut w_cols = vec![vec![0 as AttrValue; m]; ea];
        let mut r_cols = vec![vec![0 as AttrValue; m]; na];
        for p in 0..m {
            let src = graph.node_row(lrows[src_row[p] as usize]);
            let dst = graph.node_row(rrows[ptr[p] as usize]);
            for a in 0..na {
                l_cols[a][p] = src[a];
                r_cols[a][p] = dst[a];
            }
            let edge = graph.edge_row(eid[p]);
            for a in 0..ea {
                w_cols[a][p] = edge[a];
            }
        }

        Ok(CompactModel {
            graph,
            lrows,
            out,
            ind,
            eid,
            ptr,
            rrows,
            keys: KeyColumns::from_columns(m, l_cols, w_cols, r_cols),
        })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g SocialGraph {
        self.graph
    }

    /// Number of LArray records (nodes with out-degree > 0).
    pub fn lrow_count(&self) -> usize {
        self.lrows.len()
    }

    /// Number of RArray records (nodes with in-degree > 0).
    pub fn rrow_count(&self) -> usize {
        self.rrows.len()
    }

    /// Number of EArray records (= `|E|`).
    pub fn edge_count(&self) -> usize {
        self.eid.len()
    }

    /// Node id of LArray row `r`.
    pub fn lrow_node(&self, r: u32) -> NodeId {
        self.lrows[r as usize]
    }

    /// Node id of RArray row `r`.
    pub fn rrow_node(&self, r: u32) -> NodeId {
        self.rrows[r as usize]
    }

    /// `Out` of LArray row `r`.
    pub fn out(&self, r: u32) -> u32 {
        self.out[r as usize]
    }

    /// `Ind` of LArray row `r`.
    pub fn ind(&self, r: u32) -> u32 {
        self.ind[r as usize]
    }

    /// Original edge id of EArray position `p`.
    #[inline]
    pub fn edge_id(&self, p: u32) -> EdgeId {
        self.eid[p as usize]
    }

    /// `Ptr` (RArray row of the destination) of EArray position `p`.
    #[inline]
    pub fn ptr(&self, p: u32) -> u32 {
        self.ptr[p as usize]
    }

    /// The columnar key caches, by EArray position.
    pub fn keys(&self) -> &KeyColumns {
        &self.keys
    }

    /// Keep the key caches and drop the structural columns: the mining
    /// recursion reads nothing else.
    pub fn into_keys(self) -> KeyColumns {
        self.keys
    }

    /// All EArray positions, the root edge set of the mining recursion.
    pub fn all_positions(&self) -> Vec<u32> {
        // cast: edge_count ≤ MAX_EDGES = u32::MAX, checked in try_build
        (0..self.edge_count() as u32).collect()
    }

    /// Cell count of the compact model per the §IV-A formula, using the
    /// actual LArray/RArray row counts (the paper notes zero-out-degree /
    /// zero-in-degree nodes are dropped):
    /// `|L|·(#AttrV+2) + |E|·(#AttrE+1) + |R|·#AttrV`.
    pub fn cells(&self) -> usize {
        let na = self.graph.schema().node_attr_count();
        let ea = self.graph.schema().edge_attr_count();
        self.lrows.len() * (na + 2) + self.eid.len() * (ea + 1) + self.rrows.len() * na
    }

    /// Cell count using the paper's headline formula with the full `|V|`
    /// on both sides: `|V|·(#AttrV+2) + |E|·(#AttrE+1) + |V|·#AttrV`.
    pub fn cells_paper_formula(&self) -> usize {
        let na = self.graph.schema().node_attr_count();
        let ea = self.graph.schema().edge_attr_count();
        let v = self.graph.node_count();
        v * (na + 2) + self.eid.len() * (ea + 1) + v * na
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
        b.add_edge(0, 1, &[1]).unwrap();
        b.add_edge(0, 2, &[2]).unwrap();
        b.add_edge(1, 2, &[1]).unwrap();
        b.add_edge(3, 0, &[2]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn rows_exclude_zero_degree_nodes() {
        let g = sample();
        let cm = CompactModel::build(&g);
        assert_eq!(cm.lrow_count(), 3, "nodes 0,1,3 have out-edges");
        assert_eq!(cm.rrow_count(), 3, "nodes 0,1,2 have in-edges");
        assert_eq!(cm.lrow_node(0), 0);
        assert_eq!(cm.lrow_node(1), 1);
        assert_eq!(cm.lrow_node(2), 3);
        assert_eq!(cm.rrow_node(2), 2);
    }

    #[test]
    fn out_ind_columns() {
        let g = sample();
        let cm = CompactModel::build(&g);
        assert_eq!(cm.out(0), 2);
        assert_eq!(cm.out(1), 1);
        assert_eq!(cm.out(2), 1);
        assert_eq!(cm.ind(0), 0);
        assert_eq!(cm.ind(1), 2);
        assert_eq!(cm.ind(2), 3);
    }

    #[test]
    fn earray_grouped_by_source_with_correct_ptrs() {
        let g = sample();
        let cm = CompactModel::build(&g);
        // Positions 0..2 are node 0's edges in insertion order.
        assert_eq!(cm.edge_id(0), 0);
        assert_eq!(cm.edge_id(1), 1);
        assert_eq!(cm.edge_id(2), 2);
        assert_eq!(cm.edge_id(3), 3);
        // Ptr points at RArray rows: dsts 1,2,2,0 -> rrows 1,2,2,0.
        assert_eq!(cm.rrow_node(cm.ptr(0)), 1);
        assert_eq!(cm.rrow_node(cm.ptr(1)), 2);
        assert_eq!(cm.rrow_node(cm.ptr(2)), 2);
        assert_eq!(cm.rrow_node(cm.ptr(3)), 0);
    }

    #[test]
    fn key_functions() {
        let g = sample();
        let cm = CompactModel::build(&g);
        let keys = cm.keys();
        let a = NodeAttrId(0);
        let b = NodeAttrId(1);
        let w = EdgeAttrId(0);
        // Position 3 is edge 3->0.
        assert_eq!(keys.l_key(3, a), 1, "node 3 has A=1");
        assert_eq!(keys.l_key(3, b), 2);
        assert_eq!(keys.r_key(3, a), 1, "node 0 has A=1");
        assert_eq!(keys.w_key(3, w), 2);
        // Position 1 is edge 0->2.
        assert_eq!(keys.r_key(1, a), 3);
    }

    #[test]
    fn cell_accounting_beats_single_table() {
        let g = sample();
        let cm = CompactModel::build(&g);
        // |L|=3, |R|=3, |E|=4, na=2, ea=1.
        assert_eq!(cm.cells(), 3 * 4 + 4 * 2 + 3 * 2);
        assert_eq!(cm.cells_paper_formula(), 4 * 4 + 4 * 2 + 4 * 2);
        assert_eq!(cm.keys().cells(), 4 * (2 * 2 + 1));
        let st = crate::SingleTable::build(&g);
        assert_eq!(st.cells(), 4 * (2 * 2 + 1));
    }

    #[test]
    fn all_positions_covers_edges() {
        let g = sample();
        let cm = CompactModel::build(&g);
        assert_eq!(cm.all_positions(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn columnar_caches_agree_with_structural_lookups() {
        let g = sample();
        let cm = CompactModel::build(&g);
        let keys = cm.keys();
        assert_eq!(keys.edge_count(), cm.edge_count());
        for p in 0..cm.edge_count() as u32 {
            let e = cm.edge_id(p);
            for a in g.schema().node_attr_ids() {
                assert_eq!(keys.l_key(p, a), g.src_attr(e, a), "l_key p={p} {a}");
                assert_eq!(keys.r_key(p, a), g.dst_attr(e, a), "r_key p={p} {a}");
                assert_eq!(keys.l_col(a)[p as usize], keys.l_key(p, a));
                assert_eq!(keys.r_col(a)[p as usize], keys.r_key(p, a));
            }
            for a in g.schema().edge_attr_ids() {
                assert_eq!(keys.w_key(p, a), g.edge_attr(e, a), "w_key p={p} {a}");
                assert_eq!(keys.w_col(a)[p as usize], keys.w_key(p, a));
            }
        }
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
        // The fallible entry point accepts every constructible graph.
        let g = sample();
        assert!(CompactModel::try_build(&g).is_ok());
    }
}
