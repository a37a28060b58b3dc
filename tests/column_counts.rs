//! Counting a GR over key columns equals counting it over the graph's
//! rows. The in-core engine's post-pass counts its `MiningContext`
//! columns, the sharded engine's sums every shard's loaded columns, and
//! `query::evaluate` keeps the row-major scan as the reference: the
//! `MetricInputs` (`supp`, `supp_lw`, `heff`, `supp_r` and the edge count
//! `|E|`) must agree on all three. Random graphs bring NULL values and
//! homophily (β) attributes, random GRs bring empty descriptors, and the
//! DBLP fixture brings an edge attribute at scale.

use proptest::prelude::*;
use social_ties::core::query::counts;
use social_ties::core::{MetricInputs, MiningContext};
use social_ties::datagen::dblp_config_scaled;
use social_ties::graph::shard::ShardStore;
use social_ties::graph::{CompactModel, KeyColumns};
use social_ties::{
    generate, EdgeDescriptor, Gr, GraphBuilder, NodeDescriptor, Schema, SchemaBuilder, SocialGraph,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// A xorshift stream from `seed`.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A small attributed graph: 1–3 node attributes with random homophily
/// flags, 0–2 edge attributes, and NULL among every attribute's values.
fn arb_graph() -> impl Strategy<Value = SocialGraph> {
    (
        prop::collection::vec(any::<bool>(), 1..=3),
        2u16..=3,
        0usize..=2,
        2u32..=12,
        0u32..=60,
        any::<u64>(),
    )
        .prop_map(|(flags, domain, ea, nodes, edges, seed)| {
            let mut sb = SchemaBuilder::new();
            for (i, &h) in flags.iter().enumerate() {
                sb = sb.node_attr(format!("N{i}"), domain, h);
            }
            for i in 0..ea {
                sb = sb.edge_attr(format!("E{i}"), 2);
            }
            let mut b = GraphBuilder::new(sb.build().unwrap());
            let mut next = rng(seed);
            for _ in 0..nodes {
                let row: Vec<u16> = (0..flags.len())
                    .map(|_| (next() % (domain as u64 + 1)) as u16)
                    .collect();
                b.add_node(&row).unwrap();
            }
            for _ in 0..edges {
                let s = (next() % nodes as u64) as u32;
                let t = (s + 1 + (next() % (nodes as u64 - 1)) as u32) % nodes;
                let row: Vec<u16> = (0..ea).map(|_| (next() % 3) as u16).collect();
                b.add_edge(s, t, &row).unwrap();
            }
            b.build().unwrap()
        })
}

/// A GR over `schema` that constrains each attribute with probability
/// one half, to a non-null value: any of its descriptors may be empty,
/// and a homophily attribute constrained on both sides with different
/// values is a β attribute.
fn random_gr(schema: &Schema, next: &mut impl FnMut() -> u64) -> Gr {
    let mut value = |domain: u16| -> Option<u16> {
        next()
            .is_multiple_of(2)
            .then(|| (1 + next() % domain as u64) as u16)
    };
    let mut node_side = || {
        let pairs: Vec<_> = schema
            .node_attr_ids()
            .filter_map(|a| value(schema.node_attr(a).domain_size()).map(|v| (a, v)))
            .collect();
        NodeDescriptor::from_pairs(pairs)
    };
    let (l, r) = (node_side(), node_side());
    let w: Vec<_> = schema
        .edge_attr_ids()
        .filter_map(|a| value(schema.edge_attr(a).domain_size()).map(|v| (a, v)))
        .collect();
    Gr::new(l, EdgeDescriptor::from_pairs(w), r)
}

/// Every shard's key columns, for a store of `g` in `shards` shards.
fn shard_keys(g: &SocialGraph, shards: usize) -> Vec<KeyColumns> {
    static STORE: AtomicU64 = AtomicU64::new(0);
    let n = STORE.fetch_add(1, Ordering::AcqRel);
    let dir = std::env::temp_dir().join(format!("grm-column-counts-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ShardStore::build_from_graph(g, &dir, shards, CompactModel::MAX_EDGES)
        .expect("store builds");
    let keys = (0..store.shard_count())
        .map(|s| store.load_shard(s).expect("shard loads"))
        .collect();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    keys
}

/// The row counts of every GR in `grs`, after checking that the context's
/// columns and the summed shard columns (1, 2, 3 and 7 shards) give the
/// same counts, the edge count `|E|` among them.
fn assert_column_counts(g: &SocialGraph, grs: &[Gr]) -> Vec<MetricInputs> {
    let schema = g.schema();
    let rows: Vec<MetricInputs> = grs.iter().map(|gr| counts(schema, g, gr)).collect();
    let ctx = MiningContext::build(g, false);
    for (gr, &want) in grs.iter().zip(&rows) {
        assert_eq!(
            counts(schema, ctx.keys(), gr),
            want,
            "context columns, {gr:?}"
        );
    }
    for shards in [1usize, 2, 3, 7] {
        let keys = shard_keys(g, shards);
        for (gr, &want) in grs.iter().zip(&rows) {
            let mut sum = MetricInputs::default();
            for k in &keys {
                sum += counts(schema, k, gr);
            }
            assert_eq!(sum, want, "{shards} shards, {gr:?}");
        }
    }
    rows
}

/// `n` random GRs plus the GR with every descriptor empty.
fn grs_for(schema: &Schema, seed: u64, n: usize) -> Vec<Gr> {
    let mut next = rng(seed);
    let mut grs: Vec<Gr> = (0..n).map(|_| random_gr(schema, &mut next)).collect();
    grs.push(Gr::new(
        NodeDescriptor::empty(),
        EdgeDescriptor::empty(),
        NodeDescriptor::empty(),
    ));
    grs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn column_counts_equal_row_counts(g in arb_graph(), seed in any::<u64>()) {
        let grs = grs_for(g.schema(), seed, 24);
        let rows = assert_column_counts(&g, &grs);
        // The empty GR counts every edge as supp, supp_lw and supp_r.
        let all = g.edge_count() as u64;
        prop_assert_eq!(
            rows.last().copied(),
            Some(MetricInputs { supp: all, supp_lw: all, heff: 0, supp_r: all, edges: all })
        );
    }
}

#[test]
fn dblp_column_counts_equal_row_counts() {
    let g = generate(&dblp_config_scaled(0.05)).unwrap();
    let grs = grs_for(g.schema(), 7, 400);
    let rows = assert_column_counts(&g, &grs);
    // The sample reaches what it is meant to cover: a β attribute with a
    // non-zero homophily effect, and a matched edge-attribute condition.
    let schema = g.schema();
    assert!(grs.iter().zip(&rows).any(|(gr, c)| {
        c.heff > 0 && !social_ties::core::beta::beta(schema, &gr.l, &gr.r).is_empty()
    }));
    assert!(grs
        .iter()
        .zip(&rows)
        .any(|(gr, c)| !gr.w.is_empty() && c.supp_lw > 0));
}
