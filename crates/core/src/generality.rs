//! The generality constraint of Def. 5(2).
//!
//! A GR `g₂` is redundant when a more general `g₁` (same RHS, `l₁ ⊆ l₂`,
//! `w₁ ⊆ w₂`) already satisfies the thresholds: "g₁ is a similar tendency
//! to g₂ but covers more nodes on LHS … g₁ would make g₂ redundant."
//!
//! Its callers offer candidates most general first (by `l ∧ w` condition
//! count — a proper generalization has strictly fewer), so every
//! potential suppressor is seen before the GRs it suppresses (§V: "once
//! a GR passes this checking, no later GR can be more general than it").
//! The index therefore only needs to record accepted GRs and answer
//! "is there a recorded GR more general than this candidate?".

use crate::descriptor::{EdgeDescriptor, NodeDescriptor};
use crate::gr::Gr;
use std::collections::HashMap;

/// Index of threshold-satisfying GRs keyed by RHS, supporting the
/// more-general test. Generality is transitive, so recording only GRs that
/// themselves passed the generality check is sufficient.
#[derive(Debug, Default, Clone)]
pub struct GeneralityIndex {
    by_rhs: HashMap<NodeDescriptor, Vec<(NodeDescriptor, EdgeDescriptor)>>,
    len: usize,
}

impl GeneralityIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded GRs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Does a strictly-or-equally more general recorded GR exist for
    /// `candidate`? (Equality cannot occur during mining — each GR is
    /// enumerated once — but the test is inclusive for safety.)
    pub fn has_more_general(&self, candidate: &Gr) -> bool {
        match self.by_rhs.get(&candidate.r) {
            None => false,
            Some(list) => list
                .iter()
                .any(|(l, w)| l.is_subset_of(&candidate.l) && w.is_subset_of(&candidate.w)),
        }
    }

    /// Record an accepted GR as a potential suppressor of later, more
    /// special GRs.
    pub fn record(&mut self, gr: &Gr) {
        self.by_rhs
            .entry(gr.r.clone())
            .or_default()
            .push((gr.l.clone(), gr.w.clone()));
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_graph::{EdgeAttrId, NodeAttrId};

    fn nd(pairs: &[(u8, u16)]) -> NodeDescriptor {
        NodeDescriptor::from_pairs(pairs.iter().map(|&(a, v)| (NodeAttrId(a), v)))
    }

    fn ed(pairs: &[(u8, u16)]) -> EdgeDescriptor {
        EdgeDescriptor::from_pairs(pairs.iter().map(|&(a, v)| (EdgeAttrId(a), v)))
    }

    #[test]
    fn suppresses_more_special_lhs() {
        let mut idx = GeneralityIndex::new();
        let general = Gr::new(nd(&[(0, 1)]), EdgeDescriptor::empty(), nd(&[(1, 2)]));
        idx.record(&general);

        let special = Gr::new(
            nd(&[(0, 1), (2, 3)]),
            EdgeDescriptor::empty(),
            nd(&[(1, 2)]),
        );
        assert!(idx.has_more_general(&special));

        // Different RHS: not suppressed.
        let other_rhs = Gr::new(
            nd(&[(0, 1), (2, 3)]),
            EdgeDescriptor::empty(),
            nd(&[(1, 3)]),
        );
        assert!(!idx.has_more_general(&other_rhs));
    }

    #[test]
    fn edge_descriptor_must_also_be_superset() {
        let mut idx = GeneralityIndex::new();
        let general = Gr::new(nd(&[(0, 1)]), ed(&[(0, 2)]), nd(&[(1, 2)]));
        idx.record(&general);

        // Candidate with empty w is *more* general on w: not suppressed.
        let cand = Gr::new(
            nd(&[(0, 1), (2, 2)]),
            EdgeDescriptor::empty(),
            nd(&[(1, 2)]),
        );
        assert!(!idx.has_more_general(&cand));

        // Candidate with the same w and bigger l: suppressed.
        let cand = Gr::new(nd(&[(0, 1), (2, 2)]), ed(&[(0, 2)]), nd(&[(1, 2)]));
        assert!(idx.has_more_general(&cand));
    }

    #[test]
    fn empty_lhs_suppresses_everything_with_same_rhs() {
        let mut idx = GeneralityIndex::new();
        idx.record(&Gr::new(
            NodeDescriptor::empty(),
            EdgeDescriptor::empty(),
            nd(&[(1, 1)]),
        ));
        let cand = Gr::new(nd(&[(0, 2)]), ed(&[(0, 1)]), nd(&[(1, 1)]));
        assert!(idx.has_more_general(&cand));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn same_attr_different_value_is_not_general() {
        let mut idx = GeneralityIndex::new();
        idx.record(&Gr::new(
            nd(&[(0, 1)]),
            EdgeDescriptor::empty(),
            nd(&[(1, 1)]),
        ));
        let cand = Gr::new(nd(&[(0, 2)]), EdgeDescriptor::empty(), nd(&[(1, 1)]));
        assert!(!idx.has_more_general(&cand));
    }
}
