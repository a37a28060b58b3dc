//! Ad-hoc evaluation of a single GR — the hypothesis cycle of Remark 3.
//!
//! The paper's workflow: mine top-k GRs as an *entry point*, then "the
//! human analyst starts with top-k GRs found, forms new hypothesis through
//! varying the GRs found, and compares such hypothesis as well as data
//! distribution" (Remark 3; the P5/P207 variations of §VI-B are exactly
//! this). [`evaluate`] measures any user-supplied GR in one scan.
//!
//! [`counts`] is the one loop that counts a GR, over any [`EdgeView`]:
//! a graph's row-major tables (the reference behind [`evaluate`]) or a
//! mine's [`KeyColumns`], which the engines' post-passes count over. It
//! returns the [`MetricInputs`] a metric scores, so a post-pass scores a
//! suppressor from its counts directly.

use crate::beta::{beta, l_beta, BetaSet};
use crate::gr::Gr;
use crate::metrics::MetricInputs;
use grm_graph::{AttrValue, EdgeAttrId, KeyColumns, NodeAttrId, Schema, SocialGraph};
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

/// Measure `gr` against `graph` in a single pass over the edges.
pub fn evaluate(graph: &SocialGraph, gr: &Gr) -> GrMeasures {
    let schema = graph.schema();
    let MetricInputs {
        supp,
        supp_lw,
        heff,
        supp_r,
        edges,
    } = counts(schema, graph, gr);
    let conf = (supp_lw > 0).then(|| supp as f64 / supp_lw as f64);
    let denom = supp_lw.saturating_sub(heff);
    let nhp = (denom > 0).then(|| supp as f64 / denom as f64);
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
        conf,
        nhp,
    }
}

/// Per-edge attribute reads: what [`counts`] scans. A graph reads them
/// through its node table, key columns by position.
pub trait EdgeView {
    /// Number of edges.
    fn edge_count(&self) -> usize;
    /// Node attribute `a` of edge `e`'s source.
    fn src_attr(&self, e: u32, a: NodeAttrId) -> AttrValue;
    /// Node attribute `a` of edge `e`'s destination.
    fn dst_attr(&self, e: u32, a: NodeAttrId) -> AttrValue;
    /// Edge attribute `a` of edge `e`.
    fn edge_attr(&self, e: u32, a: EdgeAttrId) -> AttrValue;
}

impl EdgeView for SocialGraph {
    fn edge_count(&self) -> usize {
        SocialGraph::edge_count(self)
    }
    fn src_attr(&self, e: u32, a: NodeAttrId) -> AttrValue {
        SocialGraph::src_attr(self, e, a)
    }
    fn dst_attr(&self, e: u32, a: NodeAttrId) -> AttrValue {
        SocialGraph::dst_attr(self, e, a)
    }
    fn edge_attr(&self, e: u32, a: EdgeAttrId) -> AttrValue {
        SocialGraph::edge_attr(self, e, a)
    }
}

impl EdgeView for KeyColumns {
    fn edge_count(&self) -> usize {
        KeyColumns::edge_count(self)
    }
    fn src_attr(&self, p: u32, a: NodeAttrId) -> AttrValue {
        self.l_key(p, a)
    }
    fn dst_attr(&self, p: u32, a: NodeAttrId) -> AttrValue {
        self.r_key(p, a)
    }
    fn edge_attr(&self, p: u32, a: EdgeAttrId) -> AttrValue {
        self.w_key(p, a)
    }
}

/// The raw edge counts of `gr` over `edges`, a graph or key columns of
/// `schema`, with `edges` set to the view's edge count. Each field is a
/// sum of per-edge indicators, so all five are *additive over any
/// partition of the edge set* — the sharded miner ([`crate::sharded`])
/// counts a GR on an out-of-core graph by summing them per shard.
pub fn counts<E: EdgeView>(schema: &Schema, edges: &E, gr: &Gr) -> MetricInputs {
    let b: BetaSet = beta(schema, &gr.l, &gr.r);
    let lbeta = l_beta(&gr.l, b);

    let mut supp = 0u64;
    let mut supp_lw = 0u64;
    let mut supp_r = 0u64;
    let mut heff = 0u64;

    // cast: edge ids and positions are u32 (EdgeId, CompactModel::MAX_EDGES)
    for e in 0..edges.edge_count() as u32 {
        let r_match = gr.r.pairs().iter().all(|&(a, v)| edges.dst_attr(e, a) == v);
        if r_match {
            supp_r += 1;
        }
        let lw_match = gr.l.pairs().iter().all(|&(a, v)| edges.src_attr(e, a) == v)
            && gr
                .w
                .pairs()
                .iter()
                .all(|&(a, v)| edges.edge_attr(e, a) == v);
        if !lw_match {
            continue;
        }
        supp_lw += 1;
        if r_match {
            supp += 1;
        }
        if !b.is_empty() && lbeta.iter().all(|&(a, v)| edges.dst_attr(e, a) == v) {
            heff += 1;
        }
    }
    MetricInputs {
        supp,
        supp_lw,
        heff,
        supp_r,
        edges: edges.edge_count() as u64,
    }
}

impl GrMeasures {
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
