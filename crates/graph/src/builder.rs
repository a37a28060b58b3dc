//! Incremental construction of [`SocialGraph`]s with validation.

use crate::error::{GraphError, Result};
use crate::graph::SocialGraph;
use crate::schema::Schema;
use crate::value::{AttrValue, EdgeId, NodeId};
use std::sync::Arc;

/// Most values a capacity hint reserves per buffer: well above the
/// benchmark fixtures (50 000 nodes, 600 000 edges), so their loads never
/// regrow, while a count from an untrusted header cannot drive an
/// allocation before a single row has been read.
const MAX_HINT: usize = 1 << 24;

/// A reservation of `rows × width` values, clamped to [`MAX_HINT`] (an
/// overflowing product clamps too).
fn hint(rows: usize, width: usize) -> usize {
    rows.checked_mul(width)
        .map_or(MAX_HINT, |n| n.min(MAX_HINT))
}

/// Validating builder for [`SocialGraph`].
///
/// Every node and edge row is checked against the schema as it is added, so
/// a successfully built graph never contains out-of-domain values or
/// dangling endpoints.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    schema: Arc<Schema>,
    node_values: Vec<AttrValue>,
    srcs: Vec<NodeId>,
    dsts: Vec<NodeId>,
    edge_values: Vec<AttrValue>,
    allow_self_loops: bool,
}

impl GraphBuilder {
    /// Start building a graph over `schema`. Self-loops are rejected by
    /// default (a dyadic social tie relates two distinct actors); enable
    /// them with [`GraphBuilder::allow_self_loops`].
    pub fn new(schema: Schema) -> Self {
        GraphBuilder {
            schema: Arc::new(schema),
            node_values: Vec::new(),
            srcs: Vec::new(),
            dsts: Vec::new(),
            edge_values: Vec::new(),
            allow_self_loops: false,
        }
    }

    /// Pre-size internal buffers for `nodes` nodes and `edges` edges. The
    /// counts are hints: each buffer reserves at most 16 Mi values up
    /// front, so an absurd count read from a file header ends in a parse
    /// error on the missing rows instead of a failed allocation.
    pub fn with_capacity(schema: Schema, nodes: usize, edges: usize) -> Self {
        let na = schema.node_attr_count();
        let ea = schema.edge_attr_count();
        let mut b = GraphBuilder::new(schema);
        b.node_values.reserve(hint(nodes, na));
        b.srcs.reserve(hint(edges, 1));
        b.dsts.reserve(hint(edges, 1));
        b.edge_values.reserve(hint(edges, ea));
        b
    }

    /// Permit self-loop edges.
    pub fn allow_self_loops(mut self) -> Self {
        self.allow_self_loops = true;
        self
    }

    /// The schema being built against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        if self.schema.node_attr_count() == 0 {
            0
        } else {
            self.node_values.len() / self.schema.node_attr_count()
        }
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.srcs.len()
    }

    /// Add a node with the given attribute row; returns its id.
    pub fn add_node(&mut self, values: &[AttrValue]) -> Result<NodeId> {
        self.schema.check_node_values(values)?;
        let id = crate::value::next_node_id(self.node_count())?;
        self.node_values.extend_from_slice(values);
        Ok(id)
    }

    /// Add a directed edge `src -> dst` with the given edge-attribute row;
    /// returns its id.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, values: &[AttrValue]) -> Result<EdgeId> {
        // Compare in usize: narrowing the count instead would wrap to 0
        // once the graph reaches 2^32 nodes and reject every edge.
        let n = self.node_count();
        for end in [src, dst] {
            if end as usize >= n {
                return Err(GraphError::DanglingEndpoint {
                    node: end,
                    nodes: n,
                });
            }
        }
        if src == dst && !self.allow_self_loops {
            return Err(GraphError::SelfLoop { node: src });
        }
        self.schema.check_edge_values(values)?;
        let id = crate::value::next_edge_id(self.edge_count())?;
        self.srcs.push(src);
        self.dsts.push(dst);
        self.edge_values.extend_from_slice(values);
        Ok(id)
    }

    /// Add an undirected tie as two directed edges in opposite directions
    /// sharing the same edge-attribute row (§III). Returns both edge ids.
    pub fn add_undirected(
        &mut self,
        a: NodeId,
        b: NodeId,
        values: &[AttrValue],
    ) -> Result<(EdgeId, EdgeId)> {
        let e1 = self.add_edge(a, b, values)?;
        let e2 = self.add_edge(b, a, values)?;
        Ok((e1, e2))
    }

    /// Finish building.
    pub fn build(self) -> Result<SocialGraph> {
        Ok(SocialGraph::from_parts(
            self.schema,
            self.node_values,
            self.srcs,
            self.dsts,
            self.edge_values,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchemaBuilder;

    fn schema() -> Schema {
        SchemaBuilder::new()
            .node_attr("A", 3, true)
            .edge_attr("W", 2)
            .build()
            .unwrap()
    }

    #[test]
    fn rejects_bad_node_row() {
        let mut b = GraphBuilder::new(schema());
        assert!(b.add_node(&[4]).is_err(), "out of domain");
        assert!(b.add_node(&[1, 2]).is_err(), "wrong arity");
        assert!(b.add_node(&[3]).is_ok());
    }

    #[test]
    fn rejects_dangling_edge() {
        let mut b = GraphBuilder::new(schema());
        let n = b.add_node(&[1]).unwrap();
        assert!(matches!(
            b.add_edge(n, 5, &[1]),
            Err(GraphError::DanglingEndpoint { node: 5, .. })
        ));
    }

    #[test]
    fn self_loop_policy() {
        let mut b = GraphBuilder::new(schema());
        let n = b.add_node(&[1]).unwrap();
        assert!(matches!(
            b.add_edge(n, n, &[1]),
            Err(GraphError::SelfLoop { .. })
        ));

        let mut b = GraphBuilder::new(schema()).allow_self_loops();
        let n = b.add_node(&[1]).unwrap();
        assert!(b.add_edge(n, n, &[1]).is_ok());
    }

    #[test]
    fn undirected_adds_two_edges() {
        let mut b = GraphBuilder::new(schema());
        let x = b.add_node(&[1]).unwrap();
        let y = b.add_node(&[2]).unwrap();
        let (e1, e2) = b.add_undirected(x, y, &[2]).unwrap();
        let g = b.build().unwrap();
        assert_eq!((g.src(e1), g.dst(e1)), (x, y));
        assert_eq!((g.src(e2), g.dst(e2)), (y, x));
        assert_eq!(g.edge_attr(e1, crate::EdgeAttrId(0)), 2);
        assert_eq!(g.edge_attr(e2, crate::EdgeAttrId(0)), 2);
    }

    #[test]
    fn with_capacity_matches_plain() {
        let mut b = GraphBuilder::with_capacity(schema(), 10, 10);
        let x = b.add_node(&[1]).unwrap();
        let y = b.add_node(&[2]).unwrap();
        b.add_edge(x, y, &[1]).unwrap();
        assert_eq!(b.node_count(), 2);
        assert_eq!(b.edge_count(), 1);
        assert!(b.build().is_ok());
    }
}
