//! Declarative configuration of synthetic attributed social networks.
//!
//! The generator model (see the `generator` module docs) produces
//! graphs with three ingredients the paper's evaluation relies on:
//!
//! 1. **marginals** — per-attribute value distributions (skew matters: the
//!    paper explains P2 by the 19.54% share of `Secondary` and D1/D3/D5 by
//!    the 91.18% share of `Poor`);
//! 2. **homophily** — per-attribute propensity of edges to connect
//!    same-valued endpoints (the "primary bonds");
//! 3. **planted preference rules** — beyond-homophily "secondary bonds"
//!    like `(E:Basic) -> (E:Secondary)` that the nhp metric is designed to
//!    surface.

use serde::{Deserialize, Serialize};

/// One node attribute of a synthetic network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeAttrSpec {
    /// Attribute name.
    pub name: String,
    /// Names of the non-null values (domain size = `values.len()`), or
    /// `None` with `domain` for purely numeric attributes.
    pub values: Option<Vec<String>>,
    /// Domain size when `values` is `None`.
    pub domain: u16,
    /// Whether the attribute follows the homophily principle.
    pub homophily: bool,
    /// Sampling weights for values `1..=domain` (uniform if empty).
    pub weights: Vec<f64>,
    /// Probability a node leaves this attribute null (unfilled profile
    /// field).
    pub null_prob: f64,
    /// Relative strength of this attribute as a homophily driver (only
    /// meaningful when `homophily`): the chance that a homophily-driven
    /// edge matches on *this* attribute is proportional to this weight.
    pub homophily_weight: f64,
    /// Per-value destination *attractiveness* multipliers (index 0 =
    /// value 1). A node's attractiveness is the product over attributes;
    /// destinations are drawn proportionally to it. Models hubs such as
    /// productive authors whose edge share far exceeds their population
    /// share (the paper's supervisor/student explanation of D1/D3/D5).
    /// `None` = uniform.
    pub dst_weights: Option<Vec<f64>>,
}

impl NodeAttrSpec {
    /// Named, homophilous or not, with explicit weights.
    pub fn named(
        name: impl Into<String>,
        homophily: bool,
        values: Vec<String>,
        weights: Vec<f64>,
    ) -> Self {
        let domain = values.len() as u16;
        NodeAttrSpec {
            name: name.into(),
            values: Some(values),
            domain,
            homophily,
            weights,
            null_prob: 0.0,
            homophily_weight: if homophily { 1.0 } else { 0.0 },
            dst_weights: None,
        }
    }

    /// Numeric with `domain` values and the given weights (empty = uniform).
    pub fn numeric(
        name: impl Into<String>,
        homophily: bool,
        domain: u16,
        weights: Vec<f64>,
    ) -> Self {
        NodeAttrSpec {
            name: name.into(),
            values: None,
            domain,
            homophily,
            weights,
            null_prob: 0.0,
            homophily_weight: if homophily { 1.0 } else { 0.0 },
            dst_weights: None,
        }
    }

    /// Set the per-value destination attractiveness multipliers.
    pub fn with_dst_weights(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), self.domain as usize, "one weight per value");
        self.dst_weights = Some(weights);
        self
    }

    /// Set the null (unfilled) probability.
    pub fn with_null_prob(mut self, p: f64) -> Self {
        self.null_prob = p;
        self
    }

    /// Set the homophily-driver weight.
    pub fn with_homophily_weight(mut self, w: f64) -> Self {
        self.homophily_weight = w;
        self
    }
}

/// One edge attribute of a synthetic network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeAttrSpec {
    /// Attribute name.
    pub name: String,
    /// Names of the non-null values.
    pub values: Vec<String>,
    /// Sampling weights for values `1..=domain` (uniform if empty).
    pub weights: Vec<f64>,
}

impl EdgeAttrSpec {
    /// Named edge attribute with weights.
    pub fn named(name: impl Into<String>, values: Vec<String>, weights: Vec<f64>) -> Self {
        EdgeAttrSpec {
            name: name.into(),
            values,
            weights,
        }
    }
}

/// A planted beyond-homophily preference: when the source of an edge
/// matches `src_conditions`, with probability `strength` the destination
/// is drawn from nodes with `target_attr = target_value` (and the edge
/// attribute is forced when `edge_attr` is set).
///
/// Rules are the ground truth the evaluation recovers: a planted rule
/// should surface in the nhp top-k while staying invisible to the
/// confidence ranking whenever homophily on the same attribute dominates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlantedRule {
    /// Human-readable tag used in tests and EXPERIMENTS.md (e.g. "P2").
    pub tag: String,
    /// Conditions on the source node: `(attr name, value)` pairs.
    pub src_conditions: Vec<(String, u16)>,
    /// The destination attribute the rule drives.
    pub target_attr: String,
    /// The destination value the rule drives toward.
    pub target_value: u16,
    /// Probability the rule fires for a matching source.
    pub strength: f64,
    /// Forced edge-attribute value, e.g. collaboration strength "often".
    pub edge_attr: Option<(String, u16)>,
}

impl PlantedRule {
    /// Construct a rule.
    pub fn new(
        tag: impl Into<String>,
        src_conditions: Vec<(String, u16)>,
        target_attr: impl Into<String>,
        target_value: u16,
        strength: f64,
    ) -> Self {
        PlantedRule {
            tag: tag.into(),
            src_conditions,
            target_attr: target_attr.into(),
            target_value,
            strength,
            edge_attr: None,
        }
    }

    /// Force an edge-attribute value on rule-driven edges.
    pub fn with_edge_attr(mut self, attr: impl Into<String>, value: u16) -> Self {
        self.edge_attr = Some((attr.into(), value));
        self
    }
}

/// A conditional dependency between node attributes: nodes matching
/// `(if_attr = if_value)` have `then_attr` re-sampled from `weights`.
/// Applied in declaration order after independent sampling — the mechanism
/// behind patterns like the paper's D4, where excellent authors cluster in
/// the DB area and area homophily then routes their ties to DB partners.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValueCorrelation {
    /// Condition attribute (by name).
    pub if_attr: String,
    /// Condition value.
    pub if_value: u16,
    /// Attribute to re-sample.
    pub then_attr: String,
    /// Replacement sampling weights for values `1..=domain`.
    pub weights: Vec<f64>,
}

impl ValueCorrelation {
    /// Construct a correlation.
    pub fn new(
        if_attr: impl Into<String>,
        if_value: u16,
        then_attr: impl Into<String>,
        weights: Vec<f64>,
    ) -> Self {
        ValueCorrelation {
            if_attr: if_attr.into(),
            if_value,
            then_attr: then_attr.into(),
            weights,
        }
    }
}

/// Full generator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges (directed), or of undirected ties when
    /// `undirected` is set (each tie becomes two directed edges).
    pub edges: usize,
    /// Node attributes.
    pub node_attrs: Vec<NodeAttrSpec>,
    /// Edge attributes.
    pub edge_attrs: Vec<EdgeAttrSpec>,
    /// Planted preference rules, checked in order (first match may fire).
    pub rules: Vec<PlantedRule>,
    /// Conditional attribute dependencies, applied in order at node
    /// creation.
    #[serde(default)]
    pub correlations: Vec<ValueCorrelation>,
    /// Probability an edge (that no rule claimed) is homophily-driven.
    pub homophily_prob: f64,
    /// Represent ties as undirected (two directed edges), as in the DBLP
    /// co-authorship network.
    pub undirected: bool,
    /// RNG seed; identical configs and seeds yield identical graphs.
    pub seed: u64,
}

impl GeneratorConfig {
    /// Scale node and edge counts by `factor` (for the `--scale` knobs of
    /// the experiment harness), keeping at least 10 nodes and 10 edges.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.nodes = ((self.nodes as f64 * factor) as usize).max(10);
        self.edges = ((self.edges as f64 * factor) as usize).max(10);
        self
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_fill_defaults() {
        let a = NodeAttrSpec::named(
            "EDU",
            true,
            vec!["HS".into(), "College".into()],
            vec![0.7, 0.3],
        );
        assert_eq!(a.domain, 2);
        assert_eq!(a.homophily_weight, 1.0);
        let b = NodeAttrSpec::numeric("Region", true, 188, vec![]).with_homophily_weight(2.0);
        assert_eq!(b.domain, 188);
        assert_eq!(b.homophily_weight, 2.0);
        let c = NodeAttrSpec::named("SEX", false, vec!["F".into(), "M".into()], vec![])
            .with_null_prob(0.1);
        assert_eq!(c.homophily_weight, 0.0);
        assert_eq!(c.null_prob, 0.1);
    }

    #[test]
    fn rule_builder() {
        let r = PlantedRule::new("D2", vec![("Area".into(), 1)], "Area", 2, 0.06)
            .with_edge_attr("S", 3);
        assert_eq!(r.tag, "D2");
        assert_eq!(r.edge_attr, Some(("S".into(), 3)));
    }

    #[test]
    fn scaling_clamps() {
        let cfg = GeneratorConfig {
            nodes: 1000,
            edges: 5000,
            node_attrs: vec![],
            edge_attrs: vec![],
            rules: vec![],
            correlations: vec![],
            homophily_prob: 0.5,
            undirected: false,
            seed: 1,
        };
        let s = cfg.clone().scaled(0.001);
        assert_eq!(s.nodes, 10);
        assert_eq!(s.edges, 10);
        let big = cfg.scaled(2.0);
        assert_eq!(big.nodes, 2000);
        assert_eq!(big.edges, 10000);
    }
}
