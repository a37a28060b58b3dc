//! The synthetic attributed-network generator.
//!
//! ## Edge model
//!
//! Nodes draw each attribute independently from its configured marginal
//! (with the configured null probability). Edges are then generated one at
//! a time:
//!
//! 1. a source node is drawn uniformly;
//! 2. the **planted rules** are consulted in order; the first rule whose
//!    source conditions match fires with its `strength`, drawing the
//!    destination from nodes with `target_attr = target_value` (and
//!    forcing the rule's edge attribute, if any);
//! 3. otherwise, with probability `homophily_prob` the edge is
//!    **homophily-driven**: a homophilous attribute is chosen by its
//!    `homophily_weight` (among those the source has non-null) and the
//!    destination is drawn from nodes sharing the source's value;
//! 4. otherwise the destination is uniform random — background noise.
//!
//! Self-loops are rejected and duplicate ties are retried a few times, so
//! the output is (almost always) a simple directed graph. This mixture is
//! exactly the structure the paper's metrics dissect: step 3 produces the
//! high-confidence homophily ties that dominate a conf ranking, step 2 the
//! "secondary bonds" that only the nhp ranking surfaces, and step 4 the
//! noise floor.

use crate::config::{GeneratorConfig, PlantedRule, ValueCorrelation};
use crate::distributions::Categorical;
use crate::index::ValueIndex;
use grm_graph::{AttrValue, GraphBuilder, Result, Schema, SchemaBuilder, SocialGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// A streaming consumer of generated graph data.
///
/// `generate_into` drives a sink with every node row (in node-id order)
/// and then every directed edge (in generation order; an undirected
/// config emits both directions back to back, exactly like
/// [`GraphBuilder::add_undirected`]). This lets a graph larger than an
/// in-core [`SocialGraph`] stream straight into an out-of-core store —
/// the sharded spill writer implements it — while [`generate`] remains a
/// thin builder-backed wrapper producing byte-identical graphs.
pub trait GraphSink {
    /// Consume the next node's attribute row; nodes arrive in id order.
    fn node(&mut self, values: &[AttrValue]) -> Result<()>;
    /// Consume one directed edge between already-emitted nodes.
    fn edge(&mut self, src: u32, dst: u32, values: &[AttrValue]) -> Result<()>;
}

impl GraphSink for GraphBuilder {
    fn node(&mut self, values: &[AttrValue]) -> Result<()> {
        self.add_node(values).map(|_| ())
    }
    fn edge(&mut self, src: u32, dst: u32, values: &[AttrValue]) -> Result<()> {
        self.add_edge(src, dst, values).map(|_| ())
    }
}

impl GraphSink for grm_graph::shard::ShardStoreWriter {
    fn node(&mut self, values: &[AttrValue]) -> Result<()> {
        self.add_node(values).map(|_| ())
    }
    fn edge(&mut self, src: u32, dst: u32, values: &[AttrValue]) -> Result<()> {
        self.add_edge(src, dst, values)
    }
}

/// Generate a graph from `config`. Deterministic in `(config, seed)`.
pub fn generate(config: &GeneratorConfig) -> Result<SocialGraph> {
    let schema = build_schema(config)?;
    let mut builder = GraphBuilder::with_capacity(
        schema,
        config.nodes,
        if config.undirected {
            config.edges * 2
        } else {
            config.edges
        },
    );
    generate_into(config, &mut builder)?;
    builder.build()
}

/// Stream the generated graph into `sink` instead of materializing it.
/// Deterministic in `(config, seed)`; the node/edge sequence is
/// byte-identical to what [`generate`] builds.
pub fn generate_into(config: &GeneratorConfig, sink: &mut dyn GraphSink) -> Result<()> {
    let mut rng = StdRng::seed_from_u64(config.seed);

    // --- Nodes ------------------------------------------------------------
    let node_dists: Vec<Categorical> = config
        .node_attrs
        .iter()
        .map(|a| {
            if a.weights.is_empty() {
                Categorical::uniform(a.domain as usize)
            } else {
                Categorical::new(&a.weights)
            }
        })
        .collect();
    let correlations: Vec<ResolvedCorrelation> = config
        .correlations
        .iter()
        .map(|c| ResolvedCorrelation::resolve(c, config))
        .collect::<Result<_>>()?;
    let mut rows: Vec<Vec<AttrValue>> = Vec::with_capacity(config.nodes);
    for _ in 0..config.nodes {
        let mut row: Vec<AttrValue> = config
            .node_attrs
            .iter()
            .zip(&node_dists)
            .map(|(spec, dist)| {
                if spec.null_prob > 0.0 && rng.gen::<f64>() < spec.null_prob {
                    0
                } else {
                    dist.sample(&mut rng)
                }
            })
            .collect();
        for c in &correlations {
            if row[c.if_attr] == c.if_value && row[c.then_attr] != 0 {
                row[c.then_attr] = c.dist.sample(&mut rng);
            }
        }
        rows.push(row);
    }

    let domains: Vec<u16> = config.node_attrs.iter().map(|a| a.domain).collect();
    // Per-node attractiveness: product of the per-value dst multipliers.
    let node_weights: Vec<f64> = rows
        .iter()
        .map(|row| {
            config
                .node_attrs
                .iter()
                .zip(row)
                .map(|(spec, &v)| match (&spec.dst_weights, v) {
                    (Some(w), v) if v != 0 => w[v as usize - 1],
                    _ => 1.0,
                })
                .product()
        })
        .collect();
    let index = ValueIndex::build_weighted(&domains, &rows, &node_weights);

    // Resolve rule attribute names once.
    let resolved_rules: Vec<ResolvedRule> = config
        .rules
        .iter()
        .map(|r| ResolvedRule::resolve(r, config))
        .collect::<Result<_>>()?;

    // Homophily driver distribution (per-source renormalized over non-null
    // attrs; we pre-build the unconditional chooser and re-draw on nulls).
    let homo_attrs: Vec<usize> = config
        .node_attrs
        .iter()
        .enumerate()
        .filter(|(_, a)| a.homophily && a.homophily_weight > 0.0)
        .map(|(i, _)| i)
        .collect();
    let homo_chooser = if homo_attrs.is_empty() {
        None
    } else {
        Some(Categorical::new(
            &homo_attrs
                .iter()
                .map(|&i| config.node_attrs[i].homophily_weight)
                .collect::<Vec<_>>(),
        ))
    };

    let edge_dists: Vec<Categorical> = config
        .edge_attrs
        .iter()
        .map(|a| {
            if a.weights.is_empty() {
                Categorical::uniform(a.values.len())
            } else {
                Categorical::new(&a.weights)
            }
        })
        .collect();

    // --- Edges ------------------------------------------------------------
    for row in &rows {
        sink.node(row)?;
    }

    let n = config.nodes as u32;
    if n < 2 {
        return Ok(());
    }
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(config.edges * 2);
    let mut edge_vals: Vec<AttrValue> = vec![0; config.edge_attrs.len()];

    'edges: for _ in 0..config.edges {
        // A handful of attempts to find a fresh, loop-free tie; a fully
        // saturated bucket structure could otherwise livelock.
        for _attempt in 0..32 {
            let src = rng.gen_range(0..n);
            let src_row = &rows[src as usize];

            // Sample edge attributes; a firing rule may overwrite one.
            for (i, d) in edge_dists.iter().enumerate() {
                edge_vals[i] = d.sample(&mut rng);
            }

            let mut dst: Option<u32> = None;
            // Step 2: planted rules.
            for rule in &resolved_rules {
                if rule.matches(src_row) && rng.gen::<f64>() < rule.strength {
                    dst = index.sample(&mut rng, rule.target_attr, rule.target_value, src);
                    if dst.is_some() {
                        if let Some((ea, ev)) = rule.edge_attr {
                            edge_vals[ea] = ev;
                        }
                    }
                    break;
                }
            }
            // Step 3: homophily.
            if dst.is_none() {
                if let Some(chooser) = &homo_chooser {
                    if rng.gen::<f64>() < config.homophily_prob {
                        // Re-draw a few times if the source is null there.
                        for _ in 0..4 {
                            let pick = homo_attrs[chooser.sample(&mut rng) as usize - 1];
                            let v = src_row[pick];
                            if v != 0 {
                                dst = index.sample(&mut rng, pick, v, src);
                                break;
                            }
                        }
                    }
                }
            }
            // Step 4: noise (attractiveness-weighted).
            let dst = match dst {
                Some(d) => d,
                None => match index.sample_any(&mut rng, src) {
                    Some(d) => d,
                    None => continue,
                },
            };
            if dst == src {
                continue;
            }
            let key = if config.undirected && src > dst {
                (dst, src)
            } else {
                (src, dst)
            };
            if !seen.insert(key) {
                continue;
            }
            sink.edge(src, dst, &edge_vals)?;
            if config.undirected {
                sink.edge(dst, src, &edge_vals)?;
            }
            continue 'edges;
        }
        // Dense corner case: give up on this tie rather than loop forever.
    }

    Ok(())
}

/// Build the [`Schema`] implied by a generator config (also used by tests
/// and the harness to construct queries against generated graphs).
pub fn build_schema(config: &GeneratorConfig) -> Result<Schema> {
    let mut sb = SchemaBuilder::new();
    for a in &config.node_attrs {
        sb = match &a.values {
            Some(names) => sb.node_attr_named(a.name.clone(), a.homophily, names.clone()),
            None => sb.node_attr(a.name.clone(), a.domain, a.homophily),
        };
    }
    for a in &config.edge_attrs {
        sb = sb.edge_attr_named(a.name.clone(), a.values.clone());
    }
    sb.build()
}

struct ResolvedCorrelation {
    if_attr: usize,
    if_value: AttrValue,
    then_attr: usize,
    dist: Categorical,
}

impl ResolvedCorrelation {
    fn resolve(c: &ValueCorrelation, config: &GeneratorConfig) -> Result<Self> {
        let pos = |name: &str| -> Result<usize> {
            config
                .node_attrs
                .iter()
                .position(|a| a.name == name)
                .ok_or_else(|| grm_graph::GraphError::UnknownName { name: name.into() })
        };
        Ok(ResolvedCorrelation {
            if_attr: pos(&c.if_attr)?,
            if_value: c.if_value,
            then_attr: pos(&c.then_attr)?,
            dist: Categorical::new(&c.weights),
        })
    }
}

struct ResolvedRule {
    conditions: Vec<(usize, AttrValue)>,
    target_attr: usize,
    target_value: AttrValue,
    strength: f64,
    edge_attr: Option<(usize, AttrValue)>,
}

impl ResolvedRule {
    fn resolve(rule: &PlantedRule, config: &GeneratorConfig) -> Result<Self> {
        let node_pos = |name: &str| -> Result<usize> {
            config
                .node_attrs
                .iter()
                .position(|a| a.name == name)
                .ok_or_else(|| grm_graph::GraphError::UnknownName { name: name.into() })
        };
        let edge_pos = |name: &str| -> Result<usize> {
            config
                .edge_attrs
                .iter()
                .position(|a| a.name == name)
                .ok_or_else(|| grm_graph::GraphError::UnknownName { name: name.into() })
        };
        Ok(ResolvedRule {
            conditions: rule
                .src_conditions
                .iter()
                .map(|(name, v)| Ok((node_pos(name)?, *v)))
                .collect::<Result<_>>()?,
            target_attr: node_pos(&rule.target_attr)?,
            target_value: rule.target_value,
            strength: rule.strength,
            edge_attr: match &rule.edge_attr {
                Some((name, v)) => Some((edge_pos(name)?, *v)),
                None => None,
            },
        })
    }

    fn matches(&self, row: &[AttrValue]) -> bool {
        self.conditions.iter().all(|&(a, v)| row[a] == v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EdgeAttrSpec, NodeAttrSpec};

    fn small_config() -> GeneratorConfig {
        GeneratorConfig {
            nodes: 200,
            edges: 1000,
            node_attrs: vec![
                NodeAttrSpec::named("G", false, vec!["F".into(), "M".into()], vec![0.5, 0.5]),
                NodeAttrSpec::named(
                    "E",
                    true,
                    vec!["Basic".into(), "Secondary".into(), "College".into()],
                    vec![0.5, 0.3, 0.2],
                ),
            ],
            edge_attrs: vec![EdgeAttrSpec::named("T", vec!["dates".into()], vec![1.0])],
            rules: vec![PlantedRule::new("R1", vec![("E".into(), 1)], "E", 2, 0.3)],
            correlations: vec![],
            homophily_prob: 0.5,
            undirected: false,
            seed: 11,
        }
    }

    #[test]
    fn generates_requested_sizes() {
        let g = generate(&small_config()).unwrap();
        assert_eq!(g.node_count(), 200);
        assert_eq!(g.edge_count(), 1000);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small_config()).unwrap();
        let b = generate(&small_config()).unwrap();
        assert_eq!(a.edge_count(), b.edge_count());
        for e in a.edge_ids() {
            assert_eq!(a.src(e), b.src(e));
            assert_eq!(a.dst(e), b.dst(e));
        }
        let c = generate(&small_config().with_seed(99)).unwrap();
        let differs = a
            .edge_ids()
            .any(|e| a.src(e) != c.src(e) || a.dst(e) != c.dst(e));
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn no_self_loops_or_duplicate_ties() {
        let g = generate(&small_config()).unwrap();
        let mut seen = std::collections::HashSet::new();
        for e in g.edge_ids() {
            assert_ne!(g.src(e), g.dst(e));
            assert!(seen.insert((g.src(e), g.dst(e))), "duplicate edge");
        }
    }

    #[test]
    fn homophily_shows_up_in_edge_mix() {
        let g = generate(&small_config()).unwrap();
        let e_attr = grm_graph::NodeAttrId(1);
        let same = g
            .edge_ids()
            .filter(|&e| g.src_attr(e, e_attr) == g.dst_attr(e, e_attr))
            .count() as f64;
        let frac = same / g.edge_count() as f64;
        // Base rate of same-E under independence ≈ 0.25+0.09+0.04 = 0.38;
        // with homophily_prob 0.5 the fraction must be clearly above it.
        assert!(frac > 0.45, "same-value fraction {frac}");
    }

    #[test]
    fn planted_rule_beats_background() {
        let g = generate(&small_config()).unwrap();
        let e_attr = grm_graph::NodeAttrId(1);
        // Among edges from E:Basic sources not going to E:Basic (the nhp
        // conditioning), Secondary must dominate College well beyond the
        // 0.3 : 0.2 marginal ratio.
        let mut to_secondary = 0.0;
        let mut to_college = 0.0;
        for e in g.edge_ids() {
            if g.src_attr(e, e_attr) != 1 {
                continue;
            }
            match g.dst_attr(e, e_attr) {
                2 => to_secondary += 1.0,
                3 => to_college += 1.0,
                _ => {}
            }
        }
        assert!(
            to_secondary > 2.0 * to_college,
            "secondary {to_secondary} vs college {to_college}"
        );
    }

    #[test]
    fn undirected_doubles_edges_symmetrically() {
        let mut cfg = small_config();
        cfg.undirected = true;
        cfg.edges = 300;
        let g = generate(&cfg).unwrap();
        assert_eq!(g.edge_count(), 600);
        let set: std::collections::HashSet<(u32, u32)> =
            g.edge_ids().map(|e| (g.src(e), g.dst(e))).collect();
        for &(s, t) in &set {
            assert!(set.contains(&(t, s)), "missing reverse of {s}->{t}");
        }
    }

    #[test]
    fn streaming_is_byte_identical_to_building() {
        // `generate` is now a sink wrapper; this pins the contract the
        // out-of-core path relies on: the streamed node/edge sequence IS
        // the built graph, for directed and undirected configs alike.
        struct Tape {
            nodes: Vec<Vec<AttrValue>>,
            edges: Vec<(u32, u32, Vec<AttrValue>)>,
        }
        impl GraphSink for Tape {
            fn node(&mut self, values: &[AttrValue]) -> Result<()> {
                self.nodes.push(values.to_vec());
                Ok(())
            }
            fn edge(&mut self, src: u32, dst: u32, values: &[AttrValue]) -> Result<()> {
                self.edges.push((src, dst, values.to_vec()));
                Ok(())
            }
        }
        for undirected in [false, true] {
            let mut cfg = small_config();
            cfg.undirected = undirected;
            cfg.edges = 400;
            let g = generate(&cfg).unwrap();
            let mut tape = Tape {
                nodes: Vec::new(),
                edges: Vec::new(),
            };
            generate_into(&cfg, &mut tape).unwrap();
            assert_eq!(tape.nodes.len(), g.node_count());
            for (i, row) in tape.nodes.iter().enumerate() {
                assert_eq!(row.as_slice(), g.node_row(i as u32));
            }
            assert_eq!(tape.edges.len(), g.edge_count());
            for (i, (s, t, vals)) in tape.edges.iter().enumerate() {
                let e = i as u32;
                assert_eq!((*s, *t), (g.src(e), g.dst(e)));
                assert_eq!(vals.as_slice(), g.edge_row(e));
            }
        }
    }

    #[test]
    fn streaming_into_a_shard_store_preserves_the_graph() {
        let cfg = small_config();
        let g = generate(&cfg).unwrap();
        let dir = std::env::temp_dir().join(format!("grm-datagen-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = grm_graph::shard::ShardStoreWriter::create(
            build_schema(&cfg).unwrap(),
            &dir,
            3,
            usize::MAX,
        )
        .unwrap();
        generate_into(&cfg, &mut w).unwrap();
        let store = w.finish().unwrap();
        assert_eq!(store.total_edges(), g.edge_count() as u64);
        assert_eq!(store.node_count(), g.node_count());
        // Every routed edge carries its exact endpoint + attribute row.
        let mut seen = 0usize;
        for s in 0..store.shard_count() {
            store
                .for_each_chunk(s, |chunk| {
                    for i in 0..chunk.len() {
                        seen += 1;
                        let (src, dst) = (chunk.srcs[i], chunk.dsts[i]);
                        let row: Vec<_> = chunk.attrs.iter().map(|col| col[i]).collect();
                        assert!(g
                            .edge_ids()
                            .any(|e| g.src(e) == src && g.dst(e) == dst && g.edge_row(e) == row));
                    }
                    Ok(())
                })
                .unwrap();
        }
        assert_eq!(seen, g.edge_count());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_rule_attr_is_an_error() {
        let mut cfg = small_config();
        cfg.rules = vec![PlantedRule::new("bad", vec![], "NOPE", 1, 0.5)];
        assert!(generate(&cfg).is_err());
    }

    #[test]
    fn null_prob_leaves_fields_unfilled() {
        let mut cfg = small_config();
        cfg.node_attrs[1] = cfg.node_attrs[1].clone().with_null_prob(0.4);
        cfg.rules.clear();
        let g = generate(&cfg).unwrap();
        let nulls = g
            .node_ids()
            .filter(|&v| g.node_attr(v, grm_graph::NodeAttrId(1)) == 0)
            .count() as f64;
        let frac = nulls / g.node_count() as f64;
        assert!((frac - 0.4).abs() < 0.12, "null fraction {frac}");
    }
}
