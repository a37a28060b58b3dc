//! The baseline miners **BL1** and **BL2** of §VI-D.
//!
//! Both apply the BUC bottom-up iceberg-cube algorithm \[23\] to enumerate
//! *every* attribute-value combination above `minSupp`, then construct GRs,
//! score them and extract the top-k **in a post-processing step** (the
//! generality filter and rank of every engine's post-pass). Neither
//! pushes the `minNhp` threshold or the dynamic top-k bound into the
//! search — that is exactly the handicap the paper's Fig. 4 measures.
//!
//! * **BL1** stores node and edge attributes in a single joined table of
//!   `|E| × (2·#AttrV + #AttrE)` cells ([`grm_graph::SingleTable`]) — the
//!   representation whose size term `|E|·2·#AttrV` §IV-A calls the
//!   bottleneck.
//! * **BL2** works with the node and edge attribute information "separately
//!   stored in three tables": it reads attribute values through the graph's
//!   per-node storage (one indirection per access) and materializes
//!   nothing.

use crate::config::MinerConfig;
use crate::descriptor::{EdgeDescriptor, NodeDescriptor};
use crate::exec::select_topk;
use crate::gr::{Gr, ScoredGr};
use crate::metrics::MetricInputs;
use crate::miner::MineResult;
use crate::query;
use crate::stats::MinerStats;
use crate::tail::Dims;
use grm_graph::sort::PartitionArena;
use grm_graph::{AttrValue, SingleTable, SocialGraph, NULL};
use std::collections::HashMap;
use std::time::Instant;

/// Which baseline representation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Single joined table (materialized).
    Bl1,
    /// Three separate arrays (graph storage, indirection per access).
    Bl2,
}

/// A flat pattern over the baseline's dimension space: `(dim, value)`
/// pairs with dims in increasing order.
type Pattern = Vec<(u16, AttrValue)>;

/// Row-keyed view over the dimension space `[L…, W…, R…]`, implemented by
/// both representations.
trait TableView {
    fn key(&self, row: u32, dim: usize) -> AttrValue;
}

struct Bl1View<'a> {
    table: &'a SingleTable,
    dims: &'a DimMap,
}

impl TableView for Bl1View<'_> {
    #[inline]
    fn key(&self, row: u32, dim: usize) -> AttrValue {
        match self.dims.split(dim) {
            DimRole::L(a) => self.table.l_attr(row, a),
            DimRole::W(a) => self.table.w_attr(row, a),
            DimRole::R(a) => self.table.r_attr(row, a),
        }
    }
}

struct Bl2View<'a> {
    graph: &'a SocialGraph,
    dims: &'a DimMap,
}

impl TableView for Bl2View<'_> {
    #[inline]
    fn key(&self, row: u32, dim: usize) -> AttrValue {
        match self.dims.split(dim) {
            DimRole::L(a) => self.graph.src_attr(row, a),
            DimRole::W(a) => self.graph.edge_attr(row, a),
            DimRole::R(a) => self.graph.dst_attr(row, a),
        }
    }
}

enum DimRole {
    L(grm_graph::NodeAttrId),
    W(grm_graph::EdgeAttrId),
    R(grm_graph::NodeAttrId),
}

/// Maps flat dimension indices to L/W/R attributes. Order: all LHS node
/// dims, then edge dims, then RHS node dims — the L→W→R discipline keeps
/// `l ∧ w` sub-patterns of any GR pattern at dims that BUC enumerated
/// earlier, so their supports are in the pattern map.
struct DimMap {
    l: Vec<grm_graph::NodeAttrId>,
    w: Vec<grm_graph::EdgeAttrId>,
    r: Vec<grm_graph::NodeAttrId>,
    buckets: Vec<usize>,
}

impl DimMap {
    fn new(graph: &SocialGraph, dims: &Dims) -> Self {
        let schema = graph.schema();
        // Deterministic attr-id order inside each segment.
        let mut l = dims.l.clone();
        l.sort_unstable();
        let w = dims.w.clone();
        let mut r = dims.r_static.clone();
        r.sort_unstable();
        let mut buckets = Vec::new();
        buckets.extend(l.iter().map(|&a| schema.node_attr(a).bucket_count()));
        buckets.extend(w.iter().map(|&a| schema.edge_attr(a).bucket_count()));
        buckets.extend(r.iter().map(|&a| schema.node_attr(a).bucket_count()));
        DimMap { l, w, r, buckets }
    }

    fn count(&self) -> usize {
        self.l.len() + self.w.len() + self.r.len()
    }

    fn split(&self, dim: usize) -> DimRole {
        if dim < self.l.len() {
            DimRole::L(self.l[dim])
        } else if dim < self.l.len() + self.w.len() {
            DimRole::W(self.w[dim - self.l.len()])
        } else {
            DimRole::R(self.r[dim - self.l.len() - self.w.len()])
        }
    }

    fn r_dim(&self, idx: usize) -> usize {
        self.l.len() + self.w.len() + idx
    }
}

/// Run a baseline miner. The result's `top` matches GRMiner's output for
/// the same configuration (the baselines are *correct*, just slower).
pub fn mine_baseline(graph: &SocialGraph, config: &MinerConfig, kind: BaselineKind) -> MineResult {
    mine_baseline_with_dims(graph, config, &Dims::all(graph.schema()), kind)
}

/// Baseline mining over a restricted dimension set (Fig. 4d).
pub fn mine_baseline_with_dims(
    graph: &SocialGraph,
    config: &MinerConfig,
    dims: &Dims,
    kind: BaselineKind,
) -> MineResult {
    let start = Instant::now();
    let dim_map = DimMap::new(graph, dims);
    let mut stats = MinerStats::default();

    let table; // keep the BL1 join alive for the view's lifetime
    let frequent = match kind {
        BaselineKind::Bl1 => {
            table = SingleTable::build(graph);
            let view = Bl1View {
                table: &table,
                dims: &dim_map,
            };
            buc_all_frequent(graph, &view, &dim_map, config.min_supp, &mut stats)
        }
        BaselineKind::Bl2 => {
            let view = Bl2View {
                graph,
                dims: &dim_map,
            };
            buc_all_frequent(graph, &view, &dim_map, config.min_supp, &mut stats)
        }
    };

    // Post-processing: build GRs out of frequent patterns, score, filter,
    // rank. (The expensive part the paper charges baselines with: the
    // pattern map holds *all* frequent combinations.)
    let edges_total = graph.edge_count() as u64;
    let schema = graph.schema();
    let r_dim_start = dim_map.l.len() + dim_map.w.len();

    // A helper pattern below minSupp is counted by a full rescan, once:
    // many candidates share one homophily-effect or RHS pattern.
    let mut rescanned: HashMap<Pattern, u64> = HashMap::new();
    let mut support = |pattern: Pattern| match frequent.get(&pattern) {
        Some(&v) => v,
        None => *rescanned
            .entry(pattern)
            .or_insert_with_key(|p| count_pattern(graph, &dim_map, p)),
    };

    let mut candidates: Vec<ScoredGr> = Vec::new();
    for (pattern, &supp) in &frequent {
        // A GR needs a non-empty RHS.
        if pattern.iter().all(|&(d, _)| (d as usize) < r_dim_start) {
            continue;
        }
        // ... and, unless configured otherwise, a non-empty LHS.
        if !config.allow_empty_lhs && !pattern.iter().any(|&(d, _)| (d as usize) < dim_map.l.len())
        {
            continue;
        }
        let (l, w, r) = split_pattern(&dim_map, pattern);
        let lw_pattern: Pattern = pattern
            .iter()
            .copied()
            .filter(|&(d, _)| (d as usize) < r_dim_start)
            .collect();
        let supp_lw = if lw_pattern.is_empty() {
            edges_total
        } else {
            *frequent
                .get(&lw_pattern)
                .expect("l∧w sub-pattern is frequent when the full pattern is")
        };

        let b = crate::beta::beta(schema, &l, &r);
        let heff = if b.is_empty() {
            0
        } else {
            let lbeta = crate::beta::l_beta(&l, b);
            let mut heff_pattern = lw_pattern.clone();
            for (a, v) in &lbeta {
                let idx = dim_map.r.iter().position(|x| x == a).expect("β attr mined");
                heff_pattern.push((dim_map.r_dim(idx) as u16, *v));
            }
            heff_pattern.sort_unstable_by_key(|&(d, _)| d);
            support(heff_pattern)
        };
        let supp_r = if config.metric.needs_r_marginal() {
            support(
                pattern
                    .iter()
                    .copied()
                    .filter(|&(d, _)| (d as usize) >= r_dim_start)
                    .collect(),
            )
        } else {
            0
        };

        let score = config.metric.evaluate(MetricInputs {
            supp,
            supp_lw,
            heff,
            supp_r,
            edges: edges_total,
        });
        if score < config.min_score {
            continue;
        }
        let gr = Gr::new(l, w, r);
        if config.suppress_trivial && gr.is_trivial(schema) {
            stats.rejected_trivial += 1;
            continue;
        }
        candidates.push(ScoredGr {
            gr,
            supp,
            supp_lw,
            heff,
            score,
        });
    }

    // Generality and rank: the engines' post-pass. With no pruned
    // frontier it evaluates nothing, and only its generality merge
    // rejects.
    let offered = candidates.len() as u64;
    let top = select_topk(
        schema,
        &|g: &Gr| Ok(query::counts(schema, graph, g)),
        config,
        candidates,
        Vec::new(),
        &mut stats,
    )
    .expect("no pruned frontier, so nothing is evaluated");
    stats.accepted = offered - stats.rejected_generality;

    stats.elapsed = start.elapsed();
    MineResult {
        top,
        stats,
        edge_count: edges_total,
    }
}

/// BUC [23]: enumerate all frequent `(dim, value)` combinations with
/// support-only pruning, recording each with its support.
fn buc_all_frequent<V: TableView>(
    graph: &SocialGraph,
    view: &V,
    dims: &DimMap,
    min_supp: u64,
    stats: &mut MinerStats,
) -> HashMap<Pattern, u64> {
    let mut out = HashMap::new();
    let mut rows: Vec<u32> = (0..graph.edge_count() as u32).collect();
    if rows.is_empty() {
        return out;
    }
    let mut scratch = PartitionArena::new();
    let mut pattern: Pattern = Vec::new();
    buc_rec(
        view,
        dims,
        &mut rows[..],
        0,
        min_supp,
        &mut pattern,
        &mut scratch,
        &mut out,
        stats,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn buc_rec<V: TableView>(
    view: &V,
    dims: &DimMap,
    data: &mut [u32],
    dim_start: usize,
    min_supp: u64,
    pattern: &mut Pattern,
    scratch: &mut PartitionArena,
    out: &mut HashMap<Pattern, u64>,
    stats: &mut MinerStats,
) {
    for d in dim_start..dims.count() {
        let frame = scratch
            .partition_with(data, dims.buckets[d], |row| view.key(row, d))
            .expect("baseline keys come from the same schema-validated model");
        for idx in frame.indices() {
            let part = scratch.record(idx);
            if part.value == NULL {
                continue;
            }
            stats.partitions_examined += 1;
            let supp = part.len() as u64;
            if supp < min_supp {
                stats.pruned_by_supp += 1;
                continue;
            }
            pattern.push((d as u16, part.value));
            out.insert(pattern.clone(), supp);
            stats.grs_examined += 1;
            let sub = &mut data[part.range()];
            buc_rec(
                view,
                dims,
                sub,
                d + 1,
                min_supp,
                pattern,
                scratch,
                out,
                stats,
            );
            pattern.pop();
        }
        scratch.pop_frame(frame);
    }
}

fn split_pattern(
    dims: &DimMap,
    pattern: &Pattern,
) -> (NodeDescriptor, EdgeDescriptor, NodeDescriptor) {
    let mut l = Vec::new();
    let mut w = Vec::new();
    let mut r = Vec::new();
    for &(d, v) in pattern {
        match dims.split(d as usize) {
            DimRole::L(a) => l.push((a, v)),
            DimRole::W(a) => w.push((a, v)),
            DimRole::R(a) => r.push((a, v)),
        }
    }
    (
        NodeDescriptor::from_pairs(l),
        EdgeDescriptor::from_pairs(w),
        NodeDescriptor::from_pairs(r),
    )
}

/// Support of `pattern` by a direct scan of the graph; used only for
/// infrequent helper patterns.
fn count_pattern(graph: &SocialGraph, dims: &DimMap, pattern: &Pattern) -> u64 {
    let view = Bl2View { graph, dims };
    (0..graph.edge_count() as u32)
        .filter(|&row| pattern.iter().all(|&(d, v)| view.key(row, d as usize) == v))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::GrMiner;
    use grm_graph::{GraphBuilder, SchemaBuilder};

    fn sample(seedish: u32) -> SocialGraph {
        let schema = SchemaBuilder::new()
            .node_attr("A", 3, true)
            .node_attr("B", 2, false)
            .edge_attr("W", 2)
            .build()
            .unwrap();
        let mut b = GraphBuilder::new(schema);
        let mut state = seedish.wrapping_mul(0x9E3779B9).wrapping_add(7);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let n = 10;
        for _ in 0..n {
            b.add_node(&[(next() % 4) as u16, (next() % 3) as u16])
                .unwrap();
        }
        for _ in 0..40 {
            let s = next() % n;
            let mut t = next() % n;
            if t == s {
                t = (t + 1) % n;
            }
            b.add_edge(s, t, &[(next() % 3) as u16]).unwrap();
        }
        b.build().unwrap()
    }

    fn keys(r: &MineResult) -> Vec<(Gr, u64)> {
        r.top.iter().map(|s| (s.gr.clone(), s.supp)).collect()
    }

    #[test]
    fn baselines_agree_with_grminer() {
        for seed in 0..6u32 {
            let g = sample(seed);
            for cfg in [
                MinerConfig::nhp(1, 0.5, 10),
                MinerConfig::nhp(3, 0.2, 20),
                MinerConfig::conf(2, 0.4, 10),
            ] {
                let cfg = cfg.without_dynamic_topk();
                let miner = GrMiner::new(&g, cfg.clone()).mine();
                let bl1 = mine_baseline(&g, &cfg, BaselineKind::Bl1);
                let bl2 = mine_baseline(&g, &cfg, BaselineKind::Bl2);
                assert_eq!(keys(&miner), keys(&bl1), "BL1 seed {seed} cfg {cfg:?}");
                assert_eq!(keys(&miner), keys(&bl2), "BL2 seed {seed} cfg {cfg:?}");
            }
        }
    }

    #[test]
    fn baseline_does_no_score_pruning() {
        let g = sample(1);
        let cfg = MinerConfig::nhp(1, 0.9, 5);
        let bl = mine_baseline(&g, &cfg, BaselineKind::Bl2);
        assert_eq!(bl.stats.pruned_by_score, 0, "BUC prunes on support only");
    }

    #[test]
    fn baseline_examines_more_than_grminer() {
        let g = sample(2);
        // A high threshold lets GRMiner's nhp pruning bite.
        let cfg = MinerConfig::nhp(1, 0.9, 3);
        let fast = GrMiner::new(&g, cfg.clone()).mine();
        let slow = mine_baseline(&g, &cfg, BaselineKind::Bl2);
        assert!(
            slow.stats.partitions_examined >= fast.stats.partitions_examined,
            "baseline should not examine fewer partitions"
        );
    }

    #[test]
    fn empty_graph() {
        let schema = SchemaBuilder::new()
            .node_attr("A", 2, true)
            .build()
            .unwrap();
        let g = GraphBuilder::new(schema).build().unwrap();
        let r = mine_baseline(&g, &MinerConfig::default(), BaselineKind::Bl1);
        assert!(r.top.is_empty());
    }
}
