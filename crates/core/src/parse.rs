//! Parsing GRs from their display syntax.
//!
//! The grammar matches what [`crate::Gr::display`] emits, so any GR printed
//! by the miner can be pasted back into the query API (the Remark-3
//! hypothesis cycle from a shell):
//!
//! ```text
//! gr   := lhs ws* arrow ws* rhs
//! arrow:= "->" | "-[" conds "]->"
//! lhs  := "(" conds? ")"        rhs := "(" conds ")"
//! conds:= cond ("," ws* cond)*  cond := name ":" value
//! ```
//!
//! Attribute and value names are resolved against a [`Schema`]; numeric
//! values are accepted for dictionary-less attributes.

use crate::descriptor::{EdgeDescriptor, NodeDescriptor};
use crate::gr::Gr;
use grm_graph::{AttrDef, AttrValue, GraphError, Result, Schema};

/// Parse a GR like `(SEX:F, EDU:Grad) -[TYPE:dates]-> (EDU:College)`.
pub fn parse_gr(schema: &Schema, input: &str) -> Result<Gr> {
    let err = |message: &str| GraphError::Parse {
        line: 1,
        message: format!("{message} in `{input}`"),
    };

    let (lhs_raw, rest) = split_once_trim(input, "-").ok_or_else(|| err("missing arrow"))?;
    // rest is like "> (...)" or "[..]-> (...)".
    let (w_raw, rhs_raw) = if let Some(stripped) = rest.strip_prefix('[') {
        let (w, tail) = stripped
            .split_once("]->")
            .ok_or_else(|| err("unterminated edge descriptor"))?;
        (Some(w), tail.trim())
    } else if let Some(tail) = rest.strip_prefix('>') {
        (None, tail.trim())
    } else {
        return Err(err("malformed arrow"));
    };

    let l = parse_node_conds(
        schema,
        strip_parens(lhs_raw).ok_or_else(|| err("LHS needs (…)"))?,
    )?;
    let r = parse_node_conds(
        schema,
        strip_parens(rhs_raw).ok_or_else(|| err("RHS needs (…)"))?,
    )?;
    let w = match w_raw {
        None => EdgeDescriptor::empty(),
        Some(raw) => parse_edge_conds(schema, raw)?,
    };
    if r.is_empty() {
        return Err(err("RHS must not be empty"));
    }
    Ok(Gr::new(l, w, r))
}

fn split_once_trim<'a>(s: &'a str, sep: &str) -> Option<(&'a str, &'a str)> {
    // Split at the first separator that appears *after* the closing paren
    // of the LHS (names may not contain parentheses).
    let close = s.find(')')?;
    let idx = s[close..].find(sep)? + close;
    Some((s[..idx].trim(), s[idx + sep.len()..].trim()))
}

fn strip_parens(s: &str) -> Option<&str> {
    s.trim().strip_prefix('(')?.strip_suffix(')')
}

fn parse_node_conds(schema: &Schema, raw: &str) -> Result<NodeDescriptor> {
    let pairs = parse_conds(raw, |name| {
        let a = schema.node_attr_by_name(name)?;
        Ok((a, schema.node_attr(a)))
    })?;
    Ok(NodeDescriptor::from_pairs(pairs))
}

fn parse_edge_conds(schema: &Schema, raw: &str) -> Result<EdgeDescriptor> {
    let pairs = parse_conds(raw, |name| {
        let a = schema.edge_attr_by_name(name)?;
        Ok((a, schema.edge_attr(a)))
    })?;
    Ok(EdgeDescriptor::from_pairs(pairs))
}

/// The `NAME:VALUE` conditions of one descriptor, each name resolved by
/// `attr` to its attribute and definition. A descriptor constrains an
/// attribute at most once, so a repeated name is a parse error.
fn parse_conds<'s, A: Copy + PartialEq>(
    raw: &str,
    attr: impl Fn(&str) -> Result<(A, &'s AttrDef)>,
) -> Result<Vec<(A, AttrValue)>> {
    let mut pairs: Vec<(A, AttrValue)> = Vec::new();
    for cond in split_conds(raw) {
        let (name, value) = cond.split_once(':').ok_or(GraphError::Parse {
            line: 1,
            message: format!("condition `{cond}` needs NAME:VALUE"),
        })?;
        let (a, def) = attr(name.trim())?;
        if pairs.iter().any(|&(b, _)| b == a) {
            return Err(GraphError::Parse {
                line: 1,
                message: format!(
                    "attribute `{}` appears twice in one descriptor",
                    name.trim()
                ),
            });
        }
        let v = def
            .value_by_name(value.trim())
            .or_else(|| value.trim().parse().ok())
            .filter(|&v| v != 0 && v <= def.domain_size())
            .ok_or(GraphError::UnknownName {
                name: format!("{name}:{value}"),
            })?;
        pairs.push((a, v));
    }
    Ok(pairs)
}

fn split_conds(raw: &str) -> impl Iterator<Item = &str> {
    raw.split(',').map(str::trim).filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grm_graph::SchemaBuilder;

    fn schema() -> Schema {
        SchemaBuilder::new()
            .node_attr_named("SEX", false, ["F", "M"])
            .node_attr_named("EDU", true, ["HS", "College", "Grad"])
            .node_attr("Region", 188, true)
            .edge_attr_named("TYPE", ["dates", "friends"])
            .build()
            .unwrap()
    }

    #[test]
    fn round_trips_display_syntax() {
        let s = schema();
        for text in [
            "(SEX:F, EDU:Grad) -> (EDU:College)",
            "(SEX:M) -[TYPE:dates]-> (SEX:F)",
            "() -> (EDU:HS)",
            "(Region:27) -> (Region:27)",
        ] {
            let gr = parse_gr(&s, text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(gr.display(&s), text, "display must round-trip");
            let again = parse_gr(&s, &gr.display(&s)).unwrap();
            assert_eq!(gr, again);
        }
    }

    #[test]
    fn whitespace_tolerant() {
        let s = schema();
        let gr = parse_gr(&s, "( SEX:F ,EDU:Grad )  ->  ( EDU:College )").unwrap();
        assert_eq!(gr.display(&s), "(SEX:F, EDU:Grad) -> (EDU:College)");
    }

    #[test]
    fn rejects_malformed() {
        let s = schema();
        for bad in [
            "(SEX:F)",                        // no arrow
            "(SEX:F) -> ()",                  // empty RHS
            "(SEX:F) -> (NOPE:1)",            // unknown attr
            "(SEX:F) -> (EDU:PhD)",           // unknown value
            "(SEX:F) -[TYPE:dates-> (SEX:M)", // unterminated edge part
            "(SEX:F) -> (Region:0)",          // null value
            "(SEX:F) -> (Region:9999)",       // out of domain
            "SEX:F -> (SEX:M)",               // missing parens
        ] {
            assert!(parse_gr(&s, bad).is_err(), "should reject `{bad}`");
        }
    }

    /// A descriptor names each attribute once: a repeat on the LHS, the
    /// RHS or the edge is a parse error naming the attribute, whether the
    /// repeated values differ or agree.
    #[test]
    fn rejects_a_repeated_attribute() {
        let s = schema();
        for (bad, name) in [
            ("(EDU:HS, EDU:Grad) -> (SEX:F)", "EDU"),
            ("(SEX:F, EDU:HS, SEX:F) -> (EDU:Grad)", "SEX"),
            ("(SEX:F) -> (EDU:HS, EDU:College)", "EDU"),
            ("(Region:3) -> (Region:4, Region:4)", "Region"),
            ("(SEX:F) -[TYPE:dates, TYPE:friends]-> (SEX:M)", "TYPE"),
        ] {
            match parse_gr(&s, bad) {
                Err(GraphError::Parse { message, .. }) => assert!(
                    message.contains(&format!("`{name}` appears twice")),
                    "`{bad}`: {message}"
                ),
                other => panic!("`{bad}` should be a parse error, got {other:?}"),
            }
        }
        // The same attribute on both sides is a GR, not a repeat.
        assert!(parse_gr(&s, "(EDU:HS) -> (EDU:Grad)").is_ok());
    }

    #[test]
    fn numeric_values_for_dictionaryless_attrs() {
        let s = schema();
        let gr = parse_gr(&s, "(Region:42) -> (Region:7)").unwrap();
        assert_eq!(gr.l.pairs()[0].1, 42);
        assert_eq!(gr.r.pairs()[0].1, 7);
    }
}
