//! Ad-hoc evaluation of a single GR — the hypothesis cycle of Remark 3.
//!
//! The paper's workflow: mine top-k GRs as an *entry point*, then "the
//! human analyst starts with top-k GRs found, forms new hypothesis through
//! varying the GRs found, and compares such hypothesis as well as data
//! distribution" (Remark 3; the P5/P207 variations of §VI-B are exactly
//! this). [`evaluate`] measures any user-supplied GR in one scan.
//!
//! A GR is counted one of two ways, each returning the [`MetricInputs`] a
//! metric scores, so a post-pass scores a suppressor from its counts
//! directly:
//!
//! * [`counts`] scans [`KeyColumns`] — a mine's, a shard's, or the set
//!   `grmined` keeps resident — as a column store evaluates a conjunctive
//!   predicate (Abadi, Madden & Hachem, "Column-Stores vs. Row-Stores",
//!   SIGMOD 2008; Boncz, Zukowski & Nes, "MonetDB/X100", CIDR 2005): a
//!   block of [`BLOCK`] positions at a time, each condition ANDs one
//!   column's comparison into a byte mask, and the masks are summed in
//!   `u8` lanes. Both engines' post-passes and the daemon's `query`
//!   count this way.
//! * [`row_counts`] is the row-major reference: one pass over a graph's
//!   edges, reading each attribute through the node table. [`evaluate`]
//!   counts with it, since gathering columns for a single GR costs more
//!   than the scan they save.
//!
//! [`GrMeasures::from_inputs`] turns either count into the full measures.

use crate::beta::{beta, l_beta};
use crate::gr::Gr;
use crate::metrics::MetricInputs;
use grm_graph::{AttrValue, KeyColumns, NodeAttrId, Schema, SocialGraph};
use serde::{Deserialize, Serialize};

/// Full measurement of one GR against a graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrMeasures {
    /// Absolute support `|E(l ∧ w ∧ r)|`.
    pub supp: u64,
    /// `|E(l ∧ w)|`.
    pub supp_lw: u64,
    /// `|E(r)|` (RHS marginal over all edges).
    pub supp_r: u64,
    /// Homophily-effect support `|E(l -w-> l[β])|`.
    pub heff: u64,
    /// `|E|`.
    pub edges: u64,
    /// The β attributes (Eqn. 4).
    pub beta_attrs: Vec<NodeAttrId>,
    /// Relative support `supp / |E|` (Def. 2).
    pub supp_rel: f64,
    /// Confidence (Def. 3); `None` when `supp_lw = 0`.
    pub conf: Option<f64>,
    /// Non-homophily preference (Def. 4); `None` when undefined
    /// (`supp = 0` and the denominator vanishes, or `supp_lw = 0`).
    pub nhp: Option<f64>,
}

/// Measure `gr` against `graph` in a single pass over the edges
/// ([`row_counts`]).
pub fn evaluate(graph: &SocialGraph, gr: &Gr) -> GrMeasures {
    GrMeasures::from_inputs(graph.schema(), gr, row_counts(graph, gr))
}

/// The raw edge counts of `gr` over `graph`'s edges, read row by row
/// through the node table: the reference [`counts`] must equal.
pub fn row_counts(graph: &SocialGraph, gr: &Gr) -> MetricInputs {
    let b = beta(graph.schema(), &gr.l, &gr.r);
    let lbeta = l_beta(&gr.l, b);
    let mut out = MetricInputs {
        edges: graph.edge_count() as u64,
        ..MetricInputs::default()
    };
    for e in graph.edge_ids() {
        let r_match = gr.r.pairs().iter().all(|&(a, v)| graph.dst_attr(e, a) == v);
        out.supp_r += u64::from(r_match);
        let lw_match = gr.l.pairs().iter().all(|&(a, v)| graph.src_attr(e, a) == v)
            && gr
                .w
                .pairs()
                .iter()
                .all(|&(a, v)| graph.edge_attr(e, a) == v);
        if !lw_match {
            continue;
        }
        out.supp_lw += 1;
        out.supp += u64::from(r_match);
        if !b.is_empty() && lbeta.iter().all(|&(a, v)| graph.dst_attr(e, a) == v) {
            out.heff += 1;
        }
    }
    out
}

/// Positions per block of [`counts`]: its three `u8` masks, 12 KiB in
/// all, stay in L1 while the block's column slices stream past.
pub const BLOCK: usize = 4096;

/// Mask bytes summed into one `u8` before it is flushed into a `u64`:
/// 255 ones are the most a byte holds.
const FLUSH: usize = u8::MAX as usize;

/// The raw edge counts of `gr` over `keys`, key columns of `schema`,
/// with `edges` set to the columns' edge count (module docs). Per block
/// of [`BLOCK`] positions, the LHS and edge conditions AND into one
/// mask, the RHS conditions into another, and when β ≠ ∅ the `l[β]`
/// conditions on the destination side into a copy of the first; `supp`
/// counts where the first two are both set. Each field is a sum of
/// per-edge indicators, so all five are *additive over any partition of
/// the edge set* — the sharded miner ([`crate::sharded`]) counts a GR on
/// an out-of-core graph by summing them per shard.
pub fn counts(schema: &Schema, keys: &KeyColumns, gr: &Gr) -> MetricInputs {
    let b = beta(schema, &gr.l, &gr.r);
    let n = keys.edge_count();
    let mut out = MetricInputs {
        edges: n as u64,
        ..MetricInputs::default()
    };
    let (mut lw, mut r, mut h) = ([0u8; BLOCK], [0u8; BLOCK], [0u8; BLOCK]);
    for start in (0..n).step_by(BLOCK) {
        let block = start..n.min(start + BLOCK);
        let (lw, r) = (&mut lw[..block.len()], &mut r[..block.len()]);
        lw.fill(1);
        for &(a, v) in gr.l.pairs() {
            and_eq(lw, &keys.l_col(a)[block.clone()], v);
        }
        for &(a, v) in gr.w.pairs() {
            and_eq(lw, &keys.w_col(a)[block.clone()], v);
        }
        r.fill(1);
        for &(a, v) in gr.r.pairs() {
            and_eq(r, &keys.r_col(a)[block.clone()], v);
        }
        out.supp_lw += ones(lw);
        out.supp_r += ones(r);
        out.supp += ones_of_both(lw, r);
        if !b.is_empty() {
            let h = &mut h[..block.len()];
            h.copy_from_slice(lw);
            for &(a, v) in gr.l.pairs().iter().filter(|&&(a, _)| b.contains(a)) {
                and_eq(h, &keys.r_col(a)[block.clone()], v);
            }
            out.heff += ones(h);
        }
    }
    out
}

/// Clear `mask[i]` wherever `col[i] != v`.
fn and_eq(mask: &mut [u8], col: &[AttrValue], v: AttrValue) {
    for (m, &k) in mask.iter_mut().zip(col) {
        *m &= u8::from(k == v);
    }
}

/// The set bytes of a 0/1 mask, summed in `u8` lanes and flushed every
/// [`FLUSH`] positions.
fn ones(mask: &[u8]) -> u64 {
    mask.chunks(FLUSH)
        .map(|c| u64::from(c.iter().sum::<u8>()))
        .sum()
}

/// The positions set in both 0/1 masks, summed as [`ones`] sums.
fn ones_of_both(a: &[u8], b: &[u8]) -> u64 {
    a.chunks(FLUSH)
        .zip(b.chunks(FLUSH))
        .map(|(x, y)| u64::from(x.iter().zip(y).fold(0u8, |s, (&p, &q)| s + (p & q))))
        .sum()
}

impl GrMeasures {
    /// The measures of `gr` over `schema` from its counts, by either
    /// count ([`counts`] or [`row_counts`]).
    pub fn from_inputs(schema: &Schema, gr: &Gr, counts: MetricInputs) -> Self {
        let MetricInputs {
            supp,
            supp_lw,
            heff,
            supp_r,
            edges,
        } = counts;
        let denom = supp_lw.saturating_sub(heff);
        GrMeasures {
            supp,
            supp_lw,
            supp_r,
            heff,
            edges,
            beta_attrs: beta(schema, &gr.l, &gr.r).iter().collect(),
            supp_rel: if edges > 0 {
                supp as f64 / edges as f64
            } else {
                0.0
            },
            conf: (supp_lw > 0).then(|| supp as f64 / supp_lw as f64),
            nhp: (denom > 0).then(|| supp as f64 / denom as f64),
        }
    }

    /// One-line summary, e.g. `supp=2 (13.3%), conf=33.3%, nhp=100.0%`.
    pub fn summary(&self) -> String {
        let pct = |v: Option<f64>| match v {
            Some(x) => format!("{:.1}%", x * 100.0),
            None => "n/a".to_string(),
        };
        format!(
            "supp={} ({:.1}%), conf={}, nhp={}",
            self.supp,
            self.supp_rel * 100.0,
            pct(self.conf),
            pct(self.nhp)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gr::GrBuilder;
    use grm_graph::{GraphBuilder, SchemaBuilder};

    /// The Example-2 situation: females with Grad education mostly date
    /// Grad men (homophily), but *always* College men otherwise.
    fn example2_graph() -> SocialGraph {
        let schema = SchemaBuilder::new()
            .node_attr_named("SEX", false, ["F", "M"])
            .node_attr_named("EDU", true, ["HS", "College", "Grad"])
            .build()
            .unwrap();
        let mut b = GraphBuilder::new(schema);
        let f = b.add_node(&[1, 3]).unwrap(); // F, Grad
        let f2 = b.add_node(&[1, 3]).unwrap();
        let m_grad = b.add_node(&[2, 3]).unwrap();
        let m_coll = b.add_node(&[2, 2]).unwrap();
        // 6 edges from F-Grad: 4 to Grad men, 2 to College men.
        b.add_edge(f, m_grad, &[]).unwrap();
        b.add_edge(f2, m_grad, &[]).unwrap();
        b.add_edge(f, m_grad, &[]).unwrap();
        b.add_edge(f2, m_grad, &[]).unwrap();
        b.add_edge(f, m_coll, &[]).unwrap();
        b.add_edge(f2, m_coll, &[]).unwrap();
        // Noise edges from other groups.
        for _ in 0..9 {
            b.add_edge(m_grad, f, &[]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn gr4_nhp_is_100_percent() {
        let g = example2_graph();
        let s = g.schema();
        let gr4 = GrBuilder::new(s)
            .l("SEX", "F")
            .l("EDU", "Grad")
            .r("SEX", "M")
            .r("EDU", "College")
            .build()
            .unwrap();
        let m = evaluate(&g, &gr4);
        assert_eq!(m.supp, 2);
        assert_eq!(m.supp_lw, 6);
        assert_eq!(m.heff, 4, "homophily effect = edges to EDU:Grad");
        assert_eq!(m.beta_attrs.len(), 1);
        assert!((m.conf.unwrap() - 2.0 / 6.0).abs() < 1e-12);
        assert!((m.nhp.unwrap() - 1.0).abs() < 1e-12, "Example 2's 100%");
        assert!(m.summary().contains("nhp=100.0%"));
    }

    #[test]
    fn gr3_nhp_equals_conf_for_trivial_pattern() {
        let g = example2_graph();
        let s = g.schema();
        let gr3 = GrBuilder::new(s)
            .l("SEX", "F")
            .l("EDU", "Grad")
            .r("SEX", "M")
            .r("EDU", "Grad")
            .build()
            .unwrap();
        let m = evaluate(&g, &gr3);
        // Same EDU value on both sides: β = ∅, nhp degenerates to conf.
        assert!(m.beta_attrs.is_empty());
        assert_eq!(m.conf, m.nhp);
        assert_eq!(m.supp, 4);
    }

    #[test]
    fn unmatched_lhs_yields_none() {
        let g = example2_graph();
        let s = g.schema();
        let gr = GrBuilder::new(s)
            .l("SEX", "M")
            .l("EDU", "HS")
            .r("SEX", "F")
            .build()
            .unwrap();
        let m = evaluate(&g, &gr);
        assert_eq!(m.supp_lw, 0);
        assert_eq!(m.conf, None);
        assert_eq!(m.nhp, None);
        assert!(m.summary().contains("n/a"));
    }

    #[test]
    fn marginal_counts_whole_graph() {
        let g = example2_graph();
        let s = g.schema();
        let gr = GrBuilder::new(s).r("SEX", "F").build().unwrap();
        let m = evaluate(&g, &gr);
        assert_eq!(m.supp_r, 9, "nine noise edges point at females");
        assert_eq!(m.edges, 15);
    }
}
