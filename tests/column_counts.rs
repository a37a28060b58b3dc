//! Counting a GR over key columns equals counting it over the graph's
//! rows. The in-core engine's post-pass counts its `MiningContext`
//! columns, the sharded engine's sums every shard's loaded columns, and
//! `query::row_counts` (behind `query::evaluate`) keeps the row-major
//! scan as the reference: the `MetricInputs` (`supp`, `supp_lw`, `heff`,
//! `supp_r` and the edge count `|E|`) must agree on all three. Random
//! graphs bring NULL values and homophily (β) attributes, random GRs
//! bring empty descriptors, and the DBLP fixture brings an edge attribute
//! at scale. Graphs of one edge fewer than a `query::BLOCK`, one block,
//! one edge more and two blocks and one edge reach the block edges of the
//! columnar count, and the GR with every descriptor empty sets a whole
//! block, so its `u8` sums must flush in time. The context's columns
//! themselves are checked against EArray order — the edges sorted by
//! their source's attribute row, widest domain first, then by source
//! id — computed here from the edge list by a comparison sort, and so
//! are a store's: each shard of a store built from a graph loads the
//! EArray-order subsequence of the edges routed to it, the shards read
//! in shard order are the context's columns cut into ranges, and each
//! value slice keyed on a source attribute is the stable subsequence of
//! the store's order.

use proptest::prelude::*;
use social_ties::core::query::{counts, row_counts, BLOCK};
use social_ties::core::{MetricInputs, MiningContext};
use social_ties::datagen::dblp_config_scaled;
use social_ties::graph::shard::{ShardSpec, ShardStore, SliceKey, SliceSet};
use social_ties::graph::{CompactModel, KeyColumns, NodeAttrId};
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

/// A small attributed graph: 1–3 node attributes, each with its own
/// domain (2–5 values, so the widest need not come first and ties
/// occur) and a random homophily flag, 0–2 edge attributes, and NULL
/// among every attribute's values.
fn arb_graph() -> impl Strategy<Value = SocialGraph> {
    (
        prop::collection::vec((any::<bool>(), 2u16..=5), 1..=3),
        0usize..=2,
        2u32..=12,
        0u32..=60,
        any::<u64>(),
    )
        .prop_map(|(attrs, ea, nodes, edges, seed)| {
            let mut sb = SchemaBuilder::new();
            for (i, &(h, domain)) in attrs.iter().enumerate() {
                sb = sb.node_attr(format!("N{i}"), domain, h);
            }
            for i in 0..ea {
                sb = sb.edge_attr(format!("E{i}"), 2);
            }
            let mut b = GraphBuilder::new(sb.build().unwrap());
            let mut next = rng(seed);
            for _ in 0..nodes {
                let row: Vec<u16> = attrs
                    .iter()
                    .map(|&(_, domain)| (next() % (domain as u64 + 1)) as u16)
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

/// A fresh directory for one store.
fn store_dir() -> std::path::PathBuf {
    static STORE: AtomicU64 = AtomicU64::new(0);
    let n = STORE.fetch_add(1, Ordering::AcqRel);
    let dir = std::env::temp_dir().join(format!("grm-column-counts-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every shard's key columns, for a store of `g` in `shards` shards.
fn shard_keys(g: &SocialGraph, shards: usize) -> Vec<KeyColumns> {
    let dir = store_dir();
    let store = ShardStore::build_from_graph(g, &dir, shards, CompactModel::MAX_EDGES)
        .expect("store builds");
    let keys = (0..store.shard_count())
        .map(|s| store.load_shard(s).expect("shard loads"))
        .collect();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    keys
}

/// `g`'s edge ids in EArray order, by a comparison sort: ordered by
/// their source's attribute row read widest domain first (the lower
/// attribute id first on equal domains), then by source id. The sort is
/// stable, so each source's edges stay in edge-id order.
fn earray_order(g: &SocialGraph) -> Vec<u32> {
    let schema = g.schema();
    let mut attrs: Vec<NodeAttrId> = schema.node_attr_ids().collect();
    attrs.sort_by(|&a, &b| {
        let width = |x: NodeAttrId| schema.node_attr(x).domain_size();
        width(b).cmp(&width(a)).then(a.cmp(&b))
    });
    let mut order: Vec<u32> = g.edge_ids().collect();
    order.sort_by_key(|&e| {
        let s = g.src(e);
        let row: Vec<u16> = attrs.iter().map(|&a| g.node_attr(s, a)).collect();
        (row, s)
    });
    order
}

/// `keys`' columns, each concatenated across the units in turn.
fn concatenated(keys: &[KeyColumns], col: impl Fn(&KeyColumns) -> &[u16]) -> Vec<u16> {
    keys.iter().flat_map(|k| col(k).iter().copied()).collect()
}

/// Assert that `keys` holds exactly the edges `order`, position by
/// position, in every column.
fn assert_holds_in_order(keys: &KeyColumns, g: &SocialGraph, order: &[u32]) {
    assert_eq!(keys.edge_count(), order.len());
    let schema = g.schema();
    for a in schema.node_attr_ids() {
        let l: Vec<u16> = order.iter().map(|&e| g.src_attr(e, a)).collect();
        let r: Vec<u16> = order.iter().map(|&e| g.dst_attr(e, a)).collect();
        assert_eq!(keys.l_col(a), &l[..], "source side of {a:?}");
        assert_eq!(keys.r_col(a), &r[..], "destination side of {a:?}");
    }
    for a in schema.edge_attr_ids() {
        let w: Vec<u16> = order.iter().map(|&e| g.edge_attr(e, a)).collect();
        assert_eq!(keys.w_col(a), &w[..], "edge attribute {a:?}");
    }
}

/// The row counts of every GR in `grs`, after checking that the context's
/// columns and the summed shard columns (1, 2, 3 and 7 shards) give the
/// same counts, the edge count `|E|` among them.
fn assert_column_counts(g: &SocialGraph, grs: &[Gr]) -> Vec<MetricInputs> {
    let schema = g.schema();
    let rows: Vec<MetricInputs> = grs.iter().map(|gr| row_counts(g, gr)).collect();
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

/// A graph of exactly `edges` edges among 40 nodes: two homophily
/// attributes and a plain one, each with NULL among its values, and one
/// edge attribute.
fn graph_with_edges(edges: usize, seed: u64) -> SocialGraph {
    let schema = SchemaBuilder::new()
        .node_attr("H0", 3, true)
        .node_attr("H1", 2, true)
        .node_attr("P", 4, false)
        .edge_attr("E", 2)
        .build()
        .unwrap();
    let mut b = GraphBuilder::new(schema);
    let mut next = rng(seed);
    let nodes = 40u64;
    for _ in 0..nodes {
        let row = [3u64, 2, 4].map(|domain| (next() % (domain + 1)) as u16);
        b.add_node(&row).unwrap();
    }
    for _ in 0..edges {
        let s = next() % nodes;
        let t = (s + 1 + next() % (nodes - 1)) % nodes;
        b.add_edge(s as u32, t as u32, &[(next() % 3) as u16])
            .unwrap();
    }
    b.build().unwrap()
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

    #[test]
    fn key_columns_gather_edges_stably_sorted_by_source(g in arb_graph()) {
        let keys = KeyColumns::build(&g).unwrap();
        assert_holds_in_order(&keys, &g, &earray_order(&g));
    }

    #[test]
    fn shard_stores_and_their_source_slices_load_in_earray_order(g in arb_graph()) {
        let order = earray_order(&g);
        let schema = g.schema();
        let whole = KeyColumns::build(&g).unwrap();
        for shards in [1usize, 2, 3, 7] {
            let dir = store_dir();
            let store = ShardStore::build_from_graph(&g, &dir, shards, CompactModel::MAX_EDGES)
                .expect("store builds");
            let loaded: Vec<KeyColumns> = (0..store.shard_count())
                .map(|s| store.load_shard(s).expect("shard loads"))
                .collect();
            // Shard s holds the EArray-order subsequence of the edges
            // whose source routes to s; the store's order is the shards'
            // in turn.
            let spec = ShardSpec::new(schema, shards);
            let mut store_order = Vec::new();
            for (s, keys) in loaded.iter().enumerate() {
                let want: Vec<u32> = order
                    .iter()
                    .copied()
                    .filter(|&e| spec.shard_of(g.src_attr(e, spec.attr())) == s)
                    .collect();
                assert_holds_in_order(keys, &g, &want);
                store_order.extend(want);
            }
            // The shard key is the widest attribute, which EArray order
            // compares first: the shards, read in shard order, are the
            // in-core columns cut into contiguous ranges.
            for a in schema.node_attr_ids() {
                prop_assert_eq!(concatenated(&loaded, |k| k.l_col(a)), whole.l_col(a));
                prop_assert_eq!(concatenated(&loaded, |k| k.r_col(a)), whole.r_col(a));
            }
            for a in schema.edge_attr_ids() {
                prop_assert_eq!(concatenated(&loaded, |k| k.w_col(a)), whole.w_col(a));
            }
            // A slice keyed on a source attribute is the stable
            // subsequence of the store's order carrying its value.
            for a in schema.node_attr_ids() {
                let set = SliceSet::build(&store, SliceKey::Src(a), dir.join("slices"))
                    .expect("slice set builds");
                for v in 1..=set.value_count() as u16 {
                    let want: Vec<u32> = store_order
                        .iter()
                        .copied()
                        .filter(|&e| g.src_attr(e, a) == v)
                        .collect();
                    assert_holds_in_order(&set.load_keys(v).expect("slice loads"), &g, &want);
                }
            }
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn column_counts_equal_row_counts_at_block_edges() {
    for (seed, edges) in [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
        .into_iter()
        .enumerate()
    {
        let g = graph_with_edges(edges, seed as u64 + 1);
        assert_eq!(g.edge_count(), edges);
        let grs = grs_for(g.schema(), seed as u64 + 100, 24);
        let rows = assert_column_counts(&g, &grs);
        let all = edges as u64;
        assert_eq!(
            rows.last().copied(),
            Some(MetricInputs {
                supp: all,
                supp_lw: all,
                heff: 0,
                supp_r: all,
                edges: all
            }),
            "{edges} edges"
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
