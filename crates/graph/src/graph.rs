//! The attributed, directed social network `G = (V, E)` of §III.
//!
//! Nodes and edges each carry a fixed-width row of discrete attribute
//! values. Node attributes are stored **once per node** (row-major), never
//! per incident edge — this is the storage discipline that the compact data
//! model of §IV-A builds on and that the single-table representation
//! ([`crate::SingleTable`], used by baseline BL1) deliberately violates.

use crate::error::Result;
use crate::schema::Schema;
use crate::value::{AttrValue, EdgeAttrId, EdgeId, NodeAttrId, NodeId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A directed social network with multidimensional nodes and edges.
///
/// Construct via [`crate::GraphBuilder`]. An undirected tie is represented
/// by two directed edges in opposite directions (§III).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SocialGraph {
    schema: Arc<Schema>,
    /// `node_count × node_attr_count`, row-major.
    node_values: Vec<AttrValue>,
    /// Edge sources, indexed by `EdgeId`.
    srcs: Vec<NodeId>,
    /// Edge destinations, indexed by `EdgeId`.
    dsts: Vec<NodeId>,
    /// `edge_count × edge_attr_count`, row-major.
    edge_values: Vec<AttrValue>,
}

impl SocialGraph {
    pub(crate) fn from_parts(
        schema: Arc<Schema>,
        node_values: Vec<AttrValue>,
        srcs: Vec<NodeId>,
        dsts: Vec<NodeId>,
        edge_values: Vec<AttrValue>,
    ) -> Self {
        debug_assert_eq!(srcs.len(), dsts.len());
        debug_assert_eq!(node_values.len() % schema.node_attr_count().max(1), 0);
        SocialGraph {
            schema,
            node_values,
            srcs,
            dsts,
            edge_values,
        }
    }

    /// The attribute schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// `|V|`.
    pub fn node_count(&self) -> usize {
        if self.schema.node_attr_count() == 0 {
            0
        } else {
            self.node_values.len() / self.schema.node_attr_count()
        }
    }

    /// `|E|`.
    pub fn edge_count(&self) -> usize {
        self.srcs.len()
    }

    /// Value of node attribute `a` on node `n`.
    #[inline]
    pub fn node_attr(&self, n: NodeId, a: NodeAttrId) -> AttrValue {
        self.node_values[n as usize * self.schema.node_attr_count() + a.index()]
    }

    /// The full attribute row of node `n`.
    #[inline]
    pub fn node_row(&self, n: NodeId) -> &[AttrValue] {
        let w = self.schema.node_attr_count();
        &self.node_values[n as usize * w..(n as usize + 1) * w]
    }

    /// Source node of edge `e`.
    #[inline]
    pub fn src(&self, e: EdgeId) -> NodeId {
        self.srcs[e as usize]
    }

    /// Destination node of edge `e`.
    #[inline]
    pub fn dst(&self, e: EdgeId) -> NodeId {
        self.dsts[e as usize]
    }

    /// Value of edge attribute `a` on edge `e`.
    #[inline]
    pub fn edge_attr(&self, e: EdgeId, a: EdgeAttrId) -> AttrValue {
        self.edge_values[e as usize * self.schema.edge_attr_count() + a.index()]
    }

    /// The full attribute row of edge `e` (empty slice if the schema has no
    /// edge attributes).
    #[inline]
    pub fn edge_row(&self, e: EdgeId) -> &[AttrValue] {
        let w = self.schema.edge_attr_count();
        &self.edge_values[e as usize * w..(e as usize + 1) * w]
    }

    /// Value of node attribute `a` on the *source* of edge `e` — the key
    /// function used when partitioning edges on an LHS dimension.
    #[inline]
    pub fn src_attr(&self, e: EdgeId, a: NodeAttrId) -> AttrValue {
        self.node_attr(self.src(e), a)
    }

    /// Value of node attribute `a` on the *destination* of edge `e` — the
    /// key function used when partitioning edges on an RHS dimension.
    #[inline]
    pub fn dst_attr(&self, e: EdgeId, a: NodeAttrId) -> AttrValue {
        self.node_attr(self.dst(e), a)
    }

    /// Iterate over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        0..self.edge_count() as EdgeId
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.node_count() as NodeId
    }

    /// Out-degree of every node (the LArray `Out` column of §IV-A's
    /// compact model).
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.node_count()];
        for &s in &self.srcs {
            d[s as usize] += 1;
        }
        d
    }

    /// In-degree of every node.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.node_count()];
        for &t in &self.dsts {
            d[t as usize] += 1;
        }
        d
    }

    /// Re-validate every stored value against the schema. The builder
    /// guarantees this at construction; the check exists for graphs
    /// deserialized from untrusted bytes.
    pub fn validate(&self) -> Result<()> {
        let n = self.node_count();
        for i in 0..n {
            self.schema.check_node_values(self.node_row(i as NodeId))?;
        }
        for e in self.edge_ids() {
            self.schema.check_edge_values(self.edge_row(e))?;
            for end in [self.src(e), self.dst(e)] {
                if end as usize >= n {
                    return Err(crate::error::GraphError::DanglingEndpoint {
                        node: end,
                        nodes: n,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{GraphBuilder, SchemaBuilder};

    #[test]
    fn basic_accessors() {
        let schema = SchemaBuilder::new()
            .node_attr("A", 3, true)
            .node_attr("B", 2, false)
            .edge_attr("W", 2)
            .build()
            .unwrap();
        let mut b = GraphBuilder::new(schema);
        let n0 = b.add_node(&[1, 2]).unwrap();
        let n1 = b.add_node(&[3, 1]).unwrap();
        let n2 = b.add_node(&[2, 0]).unwrap();
        b.add_edge(n0, n1, &[1]).unwrap();
        b.add_edge(n1, n2, &[2]).unwrap();
        b.add_edge(n0, n2, &[1]).unwrap();
        let g = b.build().unwrap();

        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.node_attr(n1, crate::NodeAttrId(0)), 3);
        assert_eq!(g.node_row(n2), &[2, 0]);
        assert_eq!(g.src(1), n1);
        assert_eq!(g.dst(1), n2);
        assert_eq!(g.edge_attr(1, crate::EdgeAttrId(0)), 2);
        assert_eq!(g.src_attr(2, crate::NodeAttrId(1)), 2);
        assert_eq!(g.dst_attr(2, crate::NodeAttrId(0)), 2);
        assert_eq!(g.out_degrees(), vec![2, 1, 0]);
        assert_eq!(g.in_degrees(), vec![0, 1, 2]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn empty_edge_schema_has_empty_rows() {
        let schema = SchemaBuilder::new()
            .node_attr("A", 2, false)
            .build()
            .unwrap();
        let mut b = GraphBuilder::new(schema);
        let n0 = b.add_node(&[1]).unwrap();
        let n1 = b.add_node(&[2]).unwrap();
        b.add_edge(n0, n1, &[]).unwrap();
        let g = b.build().unwrap();
        assert!(g.edge_row(0).is_empty());
    }
}
