//! Attribute ordering for the Subset-First Depth-First enumeration
//! (§IV-C, Eqns. 7–8).
//!
//! The static order τ over all dimensions is
//!
//! ```text
//! τ:  NHʳ, Hʳ, W, NHˡ, Hˡ                    (Eqn. 7)
//! ```
//!
//! Each tree node's children are labelled by the attributes of its *tail*
//! (the prefix of τ to the left of its own label), so along any root-to-leaf
//! path attributes are added right-to-left: LHS attributes first, then edge
//! attributes, then RHS attributes (Property 1), and every subset `LWR` is
//! enumerated exactly once, subsets before supersets (Property 2).
//!
//! The **dynamic ordering** (Eqn. 8) re-sorts the RHS attributes per node:
//!
//! ```text
//! NHʳ, Hʳ₁, Hʳ₂, W, NHˡ, Hˡ                  (Eqn. 8)
//! ```
//!
//! where `Hʳ₂` holds the homophily attributes whose LHS counterpart occurs
//! in the current path and `Hʳ₁` the rest. Since tail attributes are added
//! to a path right-to-left, `Hʳ₂` values enter the RHS *before* `Hʳ₁` and
//! `NHʳ` values — exactly the condition under which Theorem 3 restores the
//! anti-monotonicity of nhp.

use grm_graph::{EdgeAttrId, NodeAttrId, Schema};

/// The dimension universe of one mining run, pre-split into the tail
/// segments of Eqn. 7. A run may restrict itself to a subset of the
/// schema's attributes (the Fig. 4d dimensionality sweep does).
#[derive(Debug, Clone)]
pub struct Dims {
    /// LHS node dimensions in tail order `[NHˡ…, Hˡ…]` (children iterate
    /// left→right; higher indices are added to paths first).
    pub l: Vec<NodeAttrId>,
    /// Edge dimensions.
    pub w: Vec<EdgeAttrId>,
    /// RHS node dimensions in *static* tail order `[NHʳ…, Hʳ…]`.
    pub r_static: Vec<NodeAttrId>,
    /// Bitmask of homophily attributes among the node dimensions.
    homophily_mask: u64,
}

impl Dims {
    /// Use every attribute in the schema.
    pub fn all(schema: &Schema) -> Self {
        let node: Vec<NodeAttrId> = schema.node_attr_ids().collect();
        let edge: Vec<EdgeAttrId> = schema.edge_attr_ids().collect();
        Self::subset(schema, &node, &edge)
    }

    /// Use only the given node/edge attributes (e.g. the first `l` node
    /// attributes for the Fig. 4d dimensionality experiment, giving `2l`
    /// node dimensions plus the edge dimensions).
    pub fn subset(schema: &Schema, node_attrs: &[NodeAttrId], edge_attrs: &[EdgeAttrId]) -> Self {
        assert!(
            schema.node_attr_count() <= crate::beta::MAX_NODE_ATTRS,
            "at most {} node attributes supported",
            crate::beta::MAX_NODE_ATTRS
        );
        let mut homophily_mask = 0u64;
        let mut nh = Vec::new();
        let mut h = Vec::new();
        for &a in node_attrs {
            if schema.node_attr(a).is_homophily() {
                homophily_mask |= 1u64 << a.0;
                h.push(a);
            } else {
                nh.push(a);
            }
        }
        let mut ordered = nh;
        ordered.extend_from_slice(&h);
        Dims {
            l: ordered.clone(),
            w: edge_attrs.to_vec(),
            r_static: ordered,
            homophily_mask,
        }
    }

    /// Total dimensionality of the GR search space: LHS + RHS node
    /// dimensions plus edge dimensions (the paper counts `2l` for `l` node
    /// attributes, edge attributes held fixed).
    pub fn dimensionality(&self) -> usize {
        self.l.len() + self.r_static.len() + self.w.len()
    }

    /// Whether node attribute `a` is homophilous in this run.
    pub fn is_homophily(&self, a: NodeAttrId) -> bool {
        self.homophily_mask & (1u64 << a.0) != 0
    }

    /// The dynamic RHS tail order of Eqn. 8 for a path whose LHS
    /// constrains the attributes in `l_mask`: `[NHʳ…, Hʳ₁…, Hʳ₂…]`.
    ///
    /// `Hʳ₂` (homophily attributes whose counterpart is constrained on the
    /// LHS) is placed *last* so that — children receiving prefix tails —
    /// its values are the first added to any RHS within the subtree.
    pub fn r_order(&self, l_mask: u64) -> Vec<NodeAttrId> {
        let mut buf = [NodeAttrId(0); crate::beta::MAX_NODE_ATTRS];
        let n = self.r_order_into(l_mask, &mut buf);
        buf[..n].to_vec()
    }

    /// [`Dims::r_order`] into a caller-provided buffer (at least
    /// `r_static.len()` long — [`crate::beta::MAX_NODE_ATTRS`] always
    /// suffices), returning the order's length. The miner uses this with a
    /// stack array so entering a RIGHT chain allocates nothing.
    pub fn r_order_into(&self, l_mask: u64, out: &mut [NodeAttrId]) -> usize {
        let mut n = 0;
        for &a in &self.r_static {
            if !self.is_homophily(a) {
                out[n] = a;
                n += 1;
            }
        }
        for &a in &self.r_static {
            if self.is_homophily(a) && l_mask & (1u64 << a.0) == 0 {
                out[n] = a;
                n += 1;
            }
        }
        for &a in &self.r_static {
            if self.is_homophily(a) && l_mask & (1u64 << a.0) != 0 {
                out[n] = a;
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_graph::SchemaBuilder;

    fn schema() -> Schema {
        // A: homophily, B: homophily, C: non-homophily; one edge attr W.
        SchemaBuilder::new()
            .node_attr("A", 3, true)
            .node_attr("B", 3, true)
            .node_attr("C", 3, false)
            .edge_attr("W", 2)
            .build()
            .unwrap()
    }

    #[test]
    fn static_order_groups_non_homophily_first() {
        let d = Dims::all(&schema());
        assert_eq!(
            d.r_static,
            vec![NodeAttrId(2), NodeAttrId(0), NodeAttrId(1)],
            "NH attrs first, then H attrs"
        );
        assert_eq!(d.l, d.r_static);
        assert_eq!(d.w, vec![EdgeAttrId(0)]);
        assert_eq!(d.dimensionality(), 7);
    }

    #[test]
    fn fig3_example_dynamic_order() {
        // Paper's running example at node t8: path = {Bˡ}, so
        // Hʳ₂ = {Bʳ}, Hʳ₁ = {Aʳ}; the dynamic order is (Aʳ, Bʳ) in tail
        // terms — Bʳ last, hence added to paths first.
        let s = SchemaBuilder::new()
            .node_attr("A", 3, true)
            .node_attr("B", 3, true)
            .build()
            .unwrap();
        let d = Dims::all(&s);
        let order = d.r_order(1u64 << 1); // l constrains B
        assert_eq!(order, vec![NodeAttrId(0), NodeAttrId(1)]);
        // With nothing on the LHS, Hʳ₁ = {Aʳ, Bʳ}: static order stands.
        let order = d.r_order(0);
        assert_eq!(order, vec![NodeAttrId(0), NodeAttrId(1)]);
        // With A on the LHS, A moves to the Hʳ₂ block (end of the tail).
        let order = d.r_order(1u64 << 0);
        assert_eq!(order, vec![NodeAttrId(1), NodeAttrId(0)]);
    }

    #[test]
    fn dynamic_order_keeps_nh_first() {
        let d = Dims::all(&schema());
        // LHS constrains A and C; C is non-homophily and must stay first;
        // A (Hʳ₂) goes last; B (Hʳ₁) in between.
        let mask = (1u64 << 0) | (1u64 << 2);
        assert_eq!(
            d.r_order(mask),
            vec![NodeAttrId(2), NodeAttrId(1), NodeAttrId(0)]
        );
    }

    #[test]
    fn subset_restricts_dimensions() {
        let s = schema();
        let d = Dims::subset(&s, &[NodeAttrId(0), NodeAttrId(2)], &[]);
        assert_eq!(d.dimensionality(), 4);
        assert!(d.is_homophily(NodeAttrId(0)));
        assert!(!d.is_homophily(NodeAttrId(2)));
        assert!(d.w.is_empty());
    }
}
