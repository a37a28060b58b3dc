//! Brute-force reference miner: Definition 5, implemented literally.
//!
//! This module exists as a correctness oracle for GRMiner. It enumerates
//! *every* candidate GR by exhaustive product over attribute subsets and
//! value assignments, counts supports by scanning the raw edge list (no
//! compact model, no counting sort, no pruning — a completely independent
//! code path), and then applies Def. 5's three conditions verbatim.
//!
//! Complexity is exponential in the number of attributes and linear in
//! `|E|` per candidate; use only on small graphs/schemas (the differential
//! tests do).

use crate::config::MinerConfig;
use crate::descriptor::{EdgeDescriptor, NodeDescriptor};
use crate::gr::{Gr, ScoredGr};
use crate::metrics::MetricInputs;
use crate::tail::Dims;
use grm_graph::{EdgeId, SocialGraph};

/// Exhaustively mine the top-k GRs per Definition 5.
pub fn mine_reference(graph: &SocialGraph, config: &MinerConfig) -> Vec<ScoredGr> {
    mine_reference_with_dims(graph, config, &Dims::all(graph.schema()))
}

/// Exhaustive mining over a restricted dimension set.
pub fn mine_reference_with_dims(
    graph: &SocialGraph,
    config: &MinerConfig,
    dims: &Dims,
) -> Vec<ScoredGr> {
    let schema = graph.schema();
    let edges: Vec<EdgeId> = graph.edge_ids().collect();
    if edges.is_empty() {
        return Vec::new();
    }

    // All candidate descriptors (including the empty ones for l and w).
    let mut node_attrs = dims.l.clone();
    node_attrs.sort_unstable();
    let lhs_descs = all_node_descriptors(graph, &node_attrs);
    let rhs_descs = lhs_descs.clone();
    let w_descs = all_edge_descriptors(graph, &dims.w);

    let matches_l =
        |e: EdgeId, d: &NodeDescriptor| d.pairs().iter().all(|&(a, v)| graph.src_attr(e, a) == v);
    let matches_r =
        |e: EdgeId, d: &NodeDescriptor| d.pairs().iter().all(|&(a, v)| graph.dst_attr(e, a) == v);
    let matches_w =
        |e: EdgeId, d: &EdgeDescriptor| d.pairs().iter().all(|&(a, v)| graph.edge_attr(e, a) == v);

    // Condition (1): thresholds (plus the trivial-GR policy).
    let mut satisfying: Vec<ScoredGr> = Vec::new();
    for l in &lhs_descs {
        if l.is_empty() && !config.allow_empty_lhs {
            continue;
        }
        if config.max_lhs.is_some_and(|m| l.len() > m) {
            continue;
        }
        for w in &w_descs {
            let lw: Vec<EdgeId> = edges
                .iter()
                .copied()
                .filter(|&e| matches_l(e, l) && matches_w(e, w))
                .collect();
            if lw.is_empty() {
                continue;
            }
            let supp_lw = lw.len() as u64;
            for r in &rhs_descs {
                if r.is_empty() || config.max_rhs.is_some_and(|m| r.len() > m) {
                    continue;
                }
                let supp = lw.iter().filter(|&&e| matches_r(e, r)).count() as u64;
                if supp == 0 || supp < config.min_supp {
                    continue;
                }
                let gr = Gr::new(l.clone(), w.clone(), r.clone());
                if config.suppress_trivial && gr.is_trivial(schema) {
                    continue;
                }
                let b = crate::beta::beta(schema, l, r);
                let heff = if b.is_empty() {
                    0
                } else {
                    let pairs = crate::beta::l_beta(l, b);
                    lw.iter()
                        .filter(|&&e| pairs.iter().all(|&(a, v)| graph.dst_attr(e, a) == v))
                        .count() as u64
                };
                let supp_r = if config.metric.needs_r_marginal() {
                    edges.iter().filter(|&&e| matches_r(e, r)).count() as u64
                } else {
                    0
                };
                let score = config.metric.evaluate(MetricInputs {
                    supp,
                    supp_lw,
                    heff,
                    supp_r,
                    edges: edges.len() as u64,
                });
                if score < config.min_score {
                    continue;
                }
                satisfying.push(ScoredGr {
                    gr,
                    supp,
                    supp_lw,
                    heff,
                    score,
                });
            }
        }
    }

    // Condition (2): remove GRs with a strictly more general GR in the
    // satisfying set.
    let mut kept: Vec<ScoredGr> = satisfying
        .iter()
        .filter(|cand| {
            !config.generality_filter
                || !satisfying
                    .iter()
                    .any(|other| other.gr != cand.gr && other.gr.is_more_general_than(&cand.gr))
        })
        .cloned()
        .collect();

    // Condition (3): rank and truncate to k.
    kept.sort_by(|a, b| a.rank_cmp(b));
    kept.truncate(config.k);
    kept
}

fn all_node_descriptors(
    graph: &SocialGraph,
    attrs: &[grm_graph::NodeAttrId],
) -> Vec<NodeDescriptor> {
    let mut out = vec![NodeDescriptor::empty()];
    for &a in attrs {
        let domain = graph.schema().node_attr(a).domain_size();
        let mut next = out.clone();
        for d in &out {
            for v in 1..=domain {
                next.push(d.with(a, v));
            }
        }
        out = next;
    }
    out
}

fn all_edge_descriptors(
    graph: &SocialGraph,
    attrs: &[grm_graph::EdgeAttrId],
) -> Vec<EdgeDescriptor> {
    let mut out = vec![EdgeDescriptor::empty()];
    for &a in attrs {
        let domain = graph.schema().edge_attr(a).domain_size();
        let mut next = out.clone();
        for d in &out {
            for v in 1..=domain {
                next.push(d.with(a, v));
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::GrMiner;
    use grm_graph::{GraphBuilder, SchemaBuilder};

    fn small_graph(seedish: u32) -> SocialGraph {
        // Deterministic pseudo-random small graph without external RNG.
        let schema = SchemaBuilder::new()
            .node_attr("A", 2, true)
            .node_attr("B", 2, false)
            .edge_attr("W", 2)
            .build()
            .unwrap();
        let mut b = GraphBuilder::new(schema);
        let mut state = seedish.wrapping_mul(2654435761).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let n = 8;
        for _ in 0..n {
            let a = (next() % 3) as u16; // includes null
            let bb = (next() % 3) as u16;
            b.add_node(&[a, bb]).unwrap();
        }
        for _ in 0..20 {
            let s = next() % n;
            let mut t = next() % n;
            if t == s {
                t = (t + 1) % n;
            }
            let w = (next() % 3) as u16;
            b.add_edge(s, t, &[w]).unwrap();
        }
        b.build().unwrap()
    }

    fn keys(v: &[ScoredGr]) -> Vec<(Gr, u64)> {
        v.iter().map(|s| (s.gr.clone(), s.supp)).collect()
    }

    #[test]
    fn grminer_matches_reference_across_seeds_and_configs() {
        for seed in 0..12u32 {
            let g = small_graph(seed);
            for cfg in [
                MinerConfig::nhp(1, 0.5, 10),
                MinerConfig::nhp(2, 0.3, 5),
                MinerConfig::nhp(1, 0.0, 50),
                MinerConfig::conf(1, 0.5, 10),
            ] {
                // Static-threshold GRMiner is exact w.r.t. Definition 5.
                let cfg = cfg.without_dynamic_topk();
                let fast = GrMiner::new(&g, cfg.clone()).mine();
                let slow = mine_reference(&g, &cfg);
                assert_eq!(keys(&fast.top), keys(&slow), "seed {seed}, cfg {cfg:?}");
                // Scores agree too.
                for (a, b) in fast.top.iter().zip(&slow) {
                    assert!((a.score - b.score).abs() < 1e-12);
                    assert_eq!(a.supp_lw, b.supp_lw);
                    assert_eq!(a.heff, b.heff);
                }
            }
        }
    }

    #[test]
    fn dynamic_topk_is_subset_consistent_with_reference_ranks() {
        // GRMiner(k) returns the Definition-5 top-k.
        for seed in 0..12u32 {
            let g = small_graph(seed);
            let cfg = MinerConfig::nhp(1, 0.4, 8);
            let fast = GrMiner::new(&g, cfg.clone()).mine();
            let slow = mine_reference(&g, &cfg);
            assert_eq!(keys(&fast.top), keys(&slow), "seed {seed}");
        }
    }

    #[test]
    fn reference_empty_graph() {
        let schema = SchemaBuilder::new()
            .node_attr("A", 2, true)
            .build()
            .unwrap();
        let g = GraphBuilder::new(schema).build().unwrap();
        assert!(mine_reference(&g, &MinerConfig::default()).is_empty());
    }
}
