//! Attribute schemas with homophily annotations.
//!
//! The problem setting of the paper (§III-B) assumes that the analyst
//! specifies, per node attribute, whether it is a *homophily attribute*
//! (individuals sharing a value are more likely to connect — e.g. `EDU` on a
//! dating site) or a *non-homophily attribute* (e.g. `SEX`). This
//! specification drives the β computation (Eqn. 4), the trivial-GR test and
//! the dynamic tail ordering (Eqn. 8), so it lives in the schema next to the
//! domain declarations.

use crate::error::{GraphError, Result};
use crate::value::{AttrValue, EdgeAttrId, NodeAttrId, NULL};
use serde::{Deserialize, Serialize};

/// The most node attributes a schema may declare: the miner encodes a
/// set of node attributes as one `u64` bitmask.
pub const MAX_NODE_ATTRS: usize = 64;

/// Declaration of one attribute: its name, domain size and (for node
/// attributes) whether it follows the homophily principle.
///
/// The domain is `{0, 1, …, domain_size}` where 0 is null; `domain_size`
/// is the largest non-null value (`|A|` in the paper's notation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttrDef {
    name: String,
    domain_size: AttrValue,
    homophily: bool,
    /// Optional human-readable names for values `0..=domain_size`
    /// (index 0 names the null value).
    value_names: Option<Vec<String>>,
}

impl AttrDef {
    /// Declare an attribute with numeric values only.
    pub fn new(name: impl Into<String>, domain_size: AttrValue, homophily: bool) -> Self {
        AttrDef {
            name: name.into(),
            domain_size,
            homophily,
            value_names: None,
        }
    }

    /// Declare an attribute whose non-null values are named. The domain size
    /// is the number of names; null keeps the conventional name `"?"`.
    pub fn with_values<S: Into<String>>(
        name: impl Into<String>,
        homophily: bool,
        values: impl IntoIterator<Item = S>,
    ) -> Self {
        let mut names = vec!["?".to_string()];
        names.extend(values.into_iter().map(Into::into));
        AttrDef {
            name: name.into(),
            domain_size: (names.len() - 1) as AttrValue,
            homophily,
            value_names: Some(names),
        }
    }

    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `|A|`: the largest non-null value.
    pub fn domain_size(&self) -> AttrValue {
        self.domain_size
    }

    /// Number of distinct storable values including null (`|A| + 1`),
    /// i.e. the bucket count a counting sort over this attribute needs.
    pub fn bucket_count(&self) -> usize {
        self.domain_size as usize + 1
    }

    /// Whether the attribute follows the homophily principle.
    pub fn is_homophily(&self) -> bool {
        self.homophily
    }

    /// Human-readable name of `value`, falling back to the numeric form.
    pub fn value_name(&self, value: AttrValue) -> String {
        match &self.value_names {
            Some(names) if (value as usize) < names.len() => names[value as usize].clone(),
            _ if value == NULL => "?".to_string(),
            _ => value.to_string(),
        }
    }

    /// Resolve a value by its human-readable name.
    pub fn value_by_name(&self, name: &str) -> Option<AttrValue> {
        self.value_names
            .as_ref()?
            .iter()
            .position(|n| n == name)
            .map(|i| i as AttrValue)
    }

    fn validate(&self) -> Result<()> {
        if self.domain_size == 0 {
            return Err(GraphError::EmptyDomain {
                attr: self.name.clone(),
            });
        }
        if let Some(names) = &self.value_names {
            if names.len() != self.domain_size as usize + 1 {
                return Err(GraphError::DictionarySize {
                    attr: self.name.clone(),
                    expected: self.domain_size as usize + 1,
                    got: names.len(),
                });
            }
        }
        Ok(())
    }
}

/// The attribute schema of a social network: node attributes (with homophily
/// flags) and edge attributes.
///
/// Edge attributes carry no homophily flag — homophily is defined between
/// the two *endpoints* of a tie (§III-B), so only node attributes can be
/// homophilous.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    node_attrs: Vec<AttrDef>,
    edge_attrs: Vec<AttrDef>,
}

impl Schema {
    /// Build a schema from attribute declarations, validating domains,
    /// name uniqueness (within each namespace) and the node attribute
    /// count ([`MAX_NODE_ATTRS`]).
    pub fn new(node_attrs: Vec<AttrDef>, edge_attrs: Vec<AttrDef>) -> Result<Self> {
        if node_attrs.is_empty() {
            return Err(GraphError::EmptySchema);
        }
        if node_attrs.len() > MAX_NODE_ATTRS {
            return Err(GraphError::TooManyNodeAttrs {
                count: node_attrs.len(),
                max: MAX_NODE_ATTRS,
            });
        }
        for set in [&node_attrs, &edge_attrs] {
            for (i, a) in set.iter().enumerate() {
                a.validate()?;
                if set[..i].iter().any(|b| b.name == a.name) {
                    return Err(GraphError::DuplicateAttribute {
                        attr: a.name.clone(),
                    });
                }
            }
        }
        Ok(Schema {
            node_attrs,
            edge_attrs,
        })
    }

    /// Number of node attributes (`#AttrV` in §IV-A).
    pub fn node_attr_count(&self) -> usize {
        self.node_attrs.len()
    }

    /// Number of edge attributes (`#AttrE` in §IV-A).
    pub fn edge_attr_count(&self) -> usize {
        self.edge_attrs.len()
    }

    /// Declaration of node attribute `a`.
    pub fn node_attr(&self, a: NodeAttrId) -> &AttrDef {
        &self.node_attrs[a.index()]
    }

    /// Declaration of edge attribute `a`.
    pub fn edge_attr(&self, a: EdgeAttrId) -> &AttrDef {
        &self.edge_attrs[a.index()]
    }

    /// All node attribute ids in declaration order.
    pub fn node_attr_ids(&self) -> impl Iterator<Item = NodeAttrId> + '_ {
        (0..self.node_attrs.len()).map(|i| NodeAttrId(i as u8))
    }

    /// All edge attribute ids in declaration order.
    pub fn edge_attr_ids(&self) -> impl Iterator<Item = EdgeAttrId> + '_ {
        (0..self.edge_attrs.len()).map(|i| EdgeAttrId(i as u8))
    }

    /// Node attributes flagged as homophily attributes (`H` in Eqn. 7).
    pub fn homophily_attr_ids(&self) -> impl Iterator<Item = NodeAttrId> + '_ {
        self.node_attr_ids()
            .filter(|a| self.node_attr(*a).is_homophily())
    }

    /// Node attributes *not* flagged as homophily attributes (`NH`).
    pub fn non_homophily_attr_ids(&self) -> impl Iterator<Item = NodeAttrId> + '_ {
        self.node_attr_ids()
            .filter(|a| !self.node_attr(*a).is_homophily())
    }

    /// Look up a node attribute by name.
    pub fn node_attr_by_name(&self, name: &str) -> Result<NodeAttrId> {
        self.node_attrs
            .iter()
            .position(|a| a.name == name)
            .map(|i| NodeAttrId(i as u8))
            .ok_or_else(|| GraphError::UnknownName { name: name.into() })
    }

    /// Look up an edge attribute by name.
    pub fn edge_attr_by_name(&self, name: &str) -> Result<EdgeAttrId> {
        self.edge_attrs
            .iter()
            .position(|a| a.name == name)
            .map(|i| EdgeAttrId(i as u8))
            .ok_or_else(|| GraphError::UnknownName { name: name.into() })
    }

    /// Check one row of node attribute values against the schema.
    pub fn check_node_values(&self, values: &[AttrValue]) -> Result<()> {
        Self::check_values(&self.node_attrs, values)
    }

    /// Check one row of edge attribute values against the schema.
    pub fn check_edge_values(&self, values: &[AttrValue]) -> Result<()> {
        Self::check_values(&self.edge_attrs, values)
    }

    fn check_values(defs: &[AttrDef], values: &[AttrValue]) -> Result<()> {
        if defs.len() != values.len() {
            return Err(GraphError::ArityMismatch {
                expected: defs.len(),
                got: values.len(),
            });
        }
        for (def, &v) in defs.iter().zip(values) {
            if v > def.domain_size {
                return Err(GraphError::ValueOutOfDomain {
                    attr: def.name.clone(),
                    value: v,
                    domain: def.domain_size,
                });
            }
        }
        Ok(())
    }
}

/// Fluent construction of a [`Schema`].
///
/// ```
/// use grm_graph::SchemaBuilder;
/// let schema = SchemaBuilder::new()
///     .node_attr_named("SEX", false, ["F", "M"])
///     .node_attr_named("EDU", true, ["HighSchool", "College", "Grad"])
///     .edge_attr("TYPE", 2)
///     .build()
///     .unwrap();
/// assert_eq!(schema.node_attr_count(), 2);
/// assert_eq!(schema.edge_attr_count(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct SchemaBuilder {
    node_attrs: Vec<AttrDef>,
    edge_attrs: Vec<AttrDef>,
}

impl SchemaBuilder {
    /// Start an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a numeric node attribute.
    pub fn node_attr(
        mut self,
        name: impl Into<String>,
        domain_size: AttrValue,
        homophily: bool,
    ) -> Self {
        self.node_attrs
            .push(AttrDef::new(name, domain_size, homophily));
        self
    }

    /// Add a node attribute with named values.
    pub fn node_attr_named<S: Into<String>>(
        mut self,
        name: impl Into<String>,
        homophily: bool,
        values: impl IntoIterator<Item = S>,
    ) -> Self {
        self.node_attrs
            .push(AttrDef::with_values(name, homophily, values));
        self
    }

    /// Add a numeric edge attribute.
    pub fn edge_attr(mut self, name: impl Into<String>, domain_size: AttrValue) -> Self {
        self.edge_attrs.push(AttrDef::new(name, domain_size, false));
        self
    }

    /// Add an edge attribute with named values.
    pub fn edge_attr_named<S: Into<String>>(
        mut self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = S>,
    ) -> Self {
        self.edge_attrs
            .push(AttrDef::with_values(name, false, values));
        self
    }

    /// Validate and produce the schema.
    pub fn build(self) -> Result<Schema> {
        Schema::new(self.node_attrs, self.edge_attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dating_schema() -> Schema {
        SchemaBuilder::new()
            .node_attr_named("SEX", false, ["F", "M"])
            .node_attr_named("RACE", true, ["Asian", "Latino", "White"])
            .node_attr_named("EDU", true, ["HighSchool", "College", "Grad"])
            .edge_attr_named("TYPE", ["dates"])
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_counts() {
        let s = dating_schema();
        assert_eq!(s.node_attr_count(), 3);
        assert_eq!(s.edge_attr_count(), 1);
        assert_eq!(s.node_attr(NodeAttrId(1)).domain_size(), 3);
        assert_eq!(s.node_attr(NodeAttrId(1)).bucket_count(), 4);
    }

    #[test]
    fn homophily_partition() {
        let s = dating_schema();
        let h: Vec<_> = s.homophily_attr_ids().collect();
        let nh: Vec<_> = s.non_homophily_attr_ids().collect();
        assert_eq!(h, vec![NodeAttrId(1), NodeAttrId(2)]);
        assert_eq!(nh, vec![NodeAttrId(0)]);
    }

    #[test]
    fn name_lookups() {
        let s = dating_schema();
        assert_eq!(s.node_attr_by_name("EDU").unwrap(), NodeAttrId(2));
        assert_eq!(s.edge_attr_by_name("TYPE").unwrap(), EdgeAttrId(0));
        assert!(s.node_attr_by_name("NOPE").is_err());
    }

    #[test]
    fn value_names_round_trip() {
        let s = dating_schema();
        let edu = s.node_attr(NodeAttrId(2));
        assert_eq!(edu.value_name(3), "Grad");
        assert_eq!(edu.value_by_name("Grad"), Some(3));
        assert_eq!(edu.value_name(0), "?");
        assert_eq!(edu.value_by_name("?"), Some(0));
        assert_eq!(edu.value_by_name("PhD"), None);
    }

    #[test]
    fn numeric_value_name_fallback() {
        let a = AttrDef::new("Region", 188, true);
        assert_eq!(a.value_name(27), "27");
        assert_eq!(a.value_name(0), "?");
        assert_eq!(a.value_by_name("27"), None, "no dictionary, no lookup");
    }

    #[test]
    fn rejects_empty_schema() {
        assert!(matches!(
            Schema::new(vec![], vec![]),
            Err(GraphError::EmptySchema)
        ));
    }

    #[test]
    fn rejects_zero_domain() {
        let r = SchemaBuilder::new().node_attr("X", 0, false).build();
        assert!(matches!(r, Err(GraphError::EmptyDomain { .. })));
    }

    #[test]
    fn rejects_more_node_attrs_than_the_miner_bitmask_holds() {
        let wide = |n: usize| {
            (0..n).fold(SchemaBuilder::new(), |b, i| {
                b.node_attr(format!("A{i}"), 2, false)
            })
        };
        assert!(wide(MAX_NODE_ATTRS).build().is_ok());
        let r = wide(MAX_NODE_ATTRS + 1).build();
        assert_eq!(
            r,
            Err(GraphError::TooManyNodeAttrs {
                count: MAX_NODE_ATTRS + 1,
                max: MAX_NODE_ATTRS
            })
        );
    }

    #[test]
    fn rejects_duplicate_names_within_namespace() {
        let r = SchemaBuilder::new()
            .node_attr("X", 2, false)
            .node_attr("X", 3, true)
            .build();
        assert!(matches!(r, Err(GraphError::DuplicateAttribute { .. })));
    }

    #[test]
    fn same_name_across_namespaces_is_fine() {
        // A node attribute and an edge attribute may share a name.
        let r = SchemaBuilder::new()
            .node_attr("X", 2, false)
            .edge_attr("X", 2)
            .build();
        assert!(r.is_ok());
    }

    #[test]
    fn value_checks() {
        let s = dating_schema();
        assert!(s.check_node_values(&[1, 2, 3]).is_ok());
        assert!(s.check_node_values(&[0, 0, 0]).is_ok(), "nulls allowed");
        assert!(matches!(
            s.check_node_values(&[1, 2]),
            Err(GraphError::ArityMismatch { .. })
        ));
        assert!(matches!(
            s.check_node_values(&[1, 9, 3]),
            Err(GraphError::ValueOutOfDomain { .. })
        ));
        assert!(s.check_edge_values(&[1]).is_ok());
        assert!(s.check_edge_values(&[2]).is_err());
    }

    #[test]
    fn dictionary_size_enforced() {
        let bad = AttrDef {
            name: "X".into(),
            domain_size: 3,
            homophily: false,
            value_names: Some(vec!["?".into(), "a".into()]),
        };
        assert!(matches!(
            Schema::new(vec![bad], vec![]),
            Err(GraphError::DictionarySize { .. })
        ));
    }

    #[test]
    fn serde_round_trip() {
        let s = dating_schema();
        let json = serde_json::to_string(&s).unwrap();
        let back: Schema = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
