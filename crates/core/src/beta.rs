//! The β set and the homophily effect (Eqns. 4–5).
//!
//! For a GR `l -w-> r`, β is the set of **homophily attributes** that occur
//! in both sides *with different values*:
//!
//! ```text
//! β = { Aʳ ∈ R  |  Aˡ ∈ L,  r[Aʳ] ≠ l[Aˡ] }          (Eqn. 4)
//! ```
//!
//! The *homophily effect* is the trivial GR `l -w-> l[β]` (Eqn. 5): the
//! portion of `l ∧ w`'s edges that merely follow homophily on β. Its support
//! is subtracted from the confidence denominator to obtain the
//! non-homophily preference (Def. 4).
//!
//! β sets are represented as bitmasks over node-attribute ids, which keeps
//! the per-`l∧w` memoization of homophily-effect supports allocation-free.
//!
//! ### The β group-by ([`heff_table`])
//!
//! Every β reachable at an `l ∧ w` enumeration node is a subset of
//! `H_l` — the homophily attributes `l` constrains, which `Run::right_root`
//! lists in attribute order.
//! Instead of re-filtering the `l ∧ w` edge set once per distinct β, a
//! single counting pass histograms the set by its **match mask**
//! (bit `i` set iff position `p` agrees with `l` on `H_l[i]`), and a
//! superset-sum sweep turns the mask histogram into `supp(l -w-> l[β])`
//! for *every* β at once: `heff(β) = Σ_{mask ⊇ β} hist[mask]`. The masks
//! are read from the compact model's key *columns*, and the histogram is
//! the table itself: only the counts matter, so the pass reads the
//! `l ∧ w` slice where it lies and needs no partition arena.

use crate::descriptor::NodeDescriptor;
use grm_graph::{AttrValue, NodeAttrId, Schema};

/// Maximum number of node attributes supported by the bitmask
/// representation. Far above any realistic schema (the paper's widest has
/// 6); enforced by [`Schema::new`].
pub use grm_graph::MAX_NODE_ATTRS;

/// A set of node attributes encoded as a bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BetaSet(pub u64);

impl BetaSet {
    /// The empty set.
    pub fn empty() -> Self {
        BetaSet(0)
    }

    /// Whether β = ∅ (the homophily effect is empty and nhp degenerates to
    /// confidence — Remark 1).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of attributes in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Insert an attribute.
    pub fn insert(&mut self, a: NodeAttrId) {
        self.0 |= 1u64 << a.0;
    }

    /// Membership test.
    pub fn contains(self, a: NodeAttrId) -> bool {
        self.0 & (1u64 << a.0) != 0
    }

    /// Iterate members in increasing attribute order.
    pub fn iter(self) -> impl Iterator<Item = NodeAttrId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                // cast: trailing_zeros of a nonzero u16 mask is < 16
                let i = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                Some(NodeAttrId(i))
            }
        })
    }
}

/// Widest LHS homophily set the group-by table handles: the table holds
/// `2^|H_l|` counters, so the miner falls back to per-β scans of the slice
/// beyond this width (no realistic schema comes close — the paper's
/// widest has 6 node attributes total).
pub const MAX_GROUPBY_ATTRS: usize = 12;

impl BetaSet {
    /// Compress this set into a bitmask over `pairs` (sorted by attribute
    /// id, as `Run::right_root` lists `H_l`): bit `i` is set iff
    /// `pairs[i]`'s attribute is a member. Returns `None` when some
    /// member does not occur in `pairs` — for the miner that would mean a
    /// β outside the LHS homophily set, which Eqn. 4 rules out.
    pub fn local_mask(self, pairs: &[(NodeAttrId, AttrValue)]) -> Option<usize> {
        let mut mask = 0usize;
        'member: for a in self.iter() {
            for (i, &(pa, _)) in pairs.iter().enumerate() {
                if pa == a {
                    mask |= 1 << i;
                    continue 'member;
                }
            }
            return None;
        }
        Some(mask)
    }
}

/// One group-by counting pass over `edges`, the positions of an `l ∧ w`
/// node (module docs): returns
/// `table` of length `2^pairs.len()` where `table[m]` is the number of
/// positions agreeing with `l` on every attribute in local mask `m` —
/// i.e. `supp(l -w-> l[β])` for the β that `m` encodes
/// ([`BetaSet::local_mask`]).
///
/// `r_col` resolves each group-by attribute to its RHS key *column*
/// (indexed by edge position — `KeyColumns::r_col`). Each position's
/// match mask is counted straight into the table, and a superset-sum
/// sweep (`O(k·2^k)`) completes it. `pairs.len()` must be at most
/// [`MAX_GROUPBY_ATTRS`].
pub fn heff_table<'c>(
    edges: &[u32],
    pairs: &[(NodeAttrId, AttrValue)],
    r_col: impl FnMut(NodeAttrId) -> &'c [AttrValue],
) -> Vec<u64> {
    let mut table = Vec::new();
    heff_table_into(edges, pairs, &mut table, r_col);
    table
}

/// [`heff_table`] into a caller-provided (pooled) buffer, so steady-state
/// mining fills the β supports of an `l ∧ w` node without allocating.
pub fn heff_table_into<'c>(
    edges: &[u32],
    pairs: &[(NodeAttrId, AttrValue)],
    table: &mut Vec<u64>,
    mut r_col: impl FnMut(NodeAttrId) -> &'c [AttrValue],
) {
    let k = pairs.len();
    // lint: allow(panic-in-hot-path) — the miner's only call, in
    // `Run::heff`, takes the per-β scan for an LHS wider than this first.
    assert!(
        k <= MAX_GROUPBY_ATTRS,
        "group-by over {k} homophily attributes exceeds {MAX_GROUPBY_ATTRS}"
    );

    let buckets = 1usize << k;
    // Resolve the group-by dimensions to their columns once (a stack
    // array — steady-state mining allocates nothing here).
    let mut cols: [(&[AttrValue], AttrValue); MAX_GROUPBY_ATTRS] = [(&[], 0); MAX_GROUPBY_ATTRS];
    for (slot, &(a, v)) in cols.iter_mut().zip(pairs) {
        *slot = (r_col(a), v);
    }
    let cols = &cols[..k];
    table.clear();
    table.resize(buckets, 0);
    for &p in edges {
        let mut mask = 0usize;
        for (bit, &(col, v)) in cols.iter().enumerate() {
            mask |= usize::from(col[p as usize] == v) << bit;
        }
        table[mask] += 1;
    }
    // Superset sum: after sweeping bit i, table[m] counts positions whose
    // mask restricted to bits ≥ processed agrees with a superset of m.
    for i in 0..k {
        let bit = 1usize << i;
        for m in 0..buckets {
            if m & bit == 0 {
                table[m] += table[m | bit];
            }
        }
    }
}

/// Compute β for the GR `l -w-> r` (Eqn. 4): homophily attributes
/// constrained on both sides with differing values.
pub fn beta(schema: &Schema, l: &NodeDescriptor, r: &NodeDescriptor) -> BetaSet {
    let mut set = BetaSet::empty();
    for &(a, rv) in r.pairs() {
        if !schema.node_attr(a).is_homophily() {
            continue;
        }
        if let Some(lv) = l.get(a) {
            if lv != rv {
                set.insert(a);
            }
        }
    }
    set
}

/// The RHS condition `l[β]` of the homophily effect (Eqn. 5): `l`'s values
/// restricted to the attributes of β. Returns `(attr, value)` pairs in
/// attribute order. A β attribute absent from `l` — impossible for a β
/// built by [`beta`], which only inserts attributes constrained on both
/// sides — is skipped rather than panicking on a hand-built pair.
pub fn l_beta(l: &NodeDescriptor, beta: BetaSet) -> Vec<(NodeAttrId, AttrValue)> {
    beta.iter()
        .filter_map(|a| {
            let v = l.get(a);
            debug_assert!(v.is_some(), "β attrs occur in l by construction (Eqn. 4)");
            v.map(|v| (a, v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_graph::SchemaBuilder;

    fn schema() -> Schema {
        // SEX non-homophily; RACE, EDU homophily.
        SchemaBuilder::new()
            .node_attr("SEX", 2, false)
            .node_attr("RACE", 3, true)
            .node_attr("EDU", 3, true)
            .build()
            .unwrap()
    }

    fn nd(pairs: &[(u8, u16)]) -> NodeDescriptor {
        NodeDescriptor::from_pairs(pairs.iter().map(|&(a, v)| (NodeAttrId(a), v)))
    }

    #[test]
    fn beta_of_example_gr4() {
        // GR4: (SEX:F, EDU:Grad) -> (SEX:M, EDU:College); EDU homophily.
        // β = {EDU} because EDU occurs on both sides with different values;
        // SEX is non-homophily so it never enters β.
        let s = schema();
        let l = nd(&[(0, 1), (2, 3)]);
        let r = nd(&[(0, 2), (2, 2)]);
        let b = beta(&s, &l, &r);
        assert_eq!(b.len(), 1);
        assert!(b.contains(NodeAttrId(2)));
        assert_eq!(l_beta(&l, b), vec![(NodeAttrId(2), 3)]);
    }

    #[test]
    fn beta_empty_when_values_agree() {
        // Same EDU value on both sides: not in β (that is the trivial case).
        let s = schema();
        let l = nd(&[(2, 3)]);
        let r = nd(&[(2, 3)]);
        assert!(beta(&s, &l, &r).is_empty());
    }

    #[test]
    fn beta_empty_when_attr_missing_from_lhs() {
        // EDU on RHS only: Aˡ ∉ L, so not in β.
        let s = schema();
        let l = nd(&[(0, 1)]);
        let r = nd(&[(2, 2)]);
        assert!(beta(&s, &l, &r).is_empty());
    }

    #[test]
    fn beta_multiple_attrs() {
        let s = schema();
        let l = nd(&[(1, 1), (2, 1)]);
        let r = nd(&[(1, 2), (2, 3)]);
        let b = beta(&s, &l, &r);
        assert_eq!(b.len(), 2);
        assert_eq!(l_beta(&l, b), vec![(NodeAttrId(1), 1), (NodeAttrId(2), 1)]);
    }

    #[test]
    fn local_mask_compresses_into_pair_order() {
        let pairs = vec![(NodeAttrId(1), 3), (NodeAttrId(4), 2), (NodeAttrId(9), 1)];
        let mut b = BetaSet::empty();
        b.insert(NodeAttrId(1));
        b.insert(NodeAttrId(9));
        assert_eq!(b.local_mask(&pairs), Some(0b101));
        assert_eq!(BetaSet::empty().local_mask(&pairs), Some(0));
        let mut stray = BetaSet::empty();
        stray.insert(NodeAttrId(7));
        assert_eq!(stray.local_mask(&pairs), None, "β outside the LHS set");
    }

    #[test]
    fn heff_table_matches_per_beta_filters() {
        // Synthetic snapshot: positions 0..12, r_key(p, a) derived from p
        // so every mask combination occurs. Compare the single-pass table
        // against a naive per-β filter for every β ⊆ pairs.
        let pairs = vec![(NodeAttrId(1), 1), (NodeAttrId(2), 2)];
        let r_key = |p: u32, a: NodeAttrId| match a.0 {
            1 => (p % 2) as AttrValue + 1, // matches value 1 on even p
            2 => (p % 3) as AttrValue,     // matches value 2 on p ≡ 2 (mod 3)
            _ => 0,
        };
        // The columnar form the group-by pass consumes.
        let col1: Vec<AttrValue> = (0..12).map(|p| r_key(p, NodeAttrId(1))).collect();
        let col2: Vec<AttrValue> = (0..12).map(|p| r_key(p, NodeAttrId(2))).collect();
        let snapshot: Vec<u32> = (0..12).rev().collect();
        let table = heff_table(&snapshot, &pairs, |a| match a.0 {
            1 => col1.as_slice(),
            2 => col2.as_slice(),
            _ => unreachable!("only the group-by attributes are resolved"),
        });
        assert_eq!(table.len(), 4);
        for (mask, &got) in table.iter().enumerate() {
            let expected = (0..12u32)
                .filter(|&p| {
                    pairs
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| mask & (1 << i) != 0)
                        .all(|(_, &(a, v))| r_key(p, a) == v)
                })
                .count() as u64;
            assert_eq!(got, expected, "mask {mask:#b}");
        }
        // β = ∅ maps to the full snapshot size.
        assert_eq!(table[0], 12);
    }

    #[test]
    fn bitset_iteration_order() {
        let mut b = BetaSet::empty();
        b.insert(NodeAttrId(5));
        b.insert(NodeAttrId(1));
        let v: Vec<_> = b.iter().collect();
        assert_eq!(v, vec![NodeAttrId(1), NodeAttrId(5)]);
        assert!(b.contains(NodeAttrId(5)));
        assert!(!b.contains(NodeAttrId(0)));
        assert_eq!(b.len(), 2);
    }
}
