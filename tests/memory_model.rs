//! The §IV-A storage claim: the compact LArray/EArray/RArray model
//! eliminates the `|E| × 2 × #AttrV` bottleneck of the single-table
//! representation.

use social_ties::datagen::pokec_config_scaled;
use social_ties::generate;
use social_ties::graph::{CompactModel, SingleTable};
use social_ties::SocialGraph;
use std::collections::HashSet;

/// `(|L|, |R|)`: the distinct sources and destinations of `g`'s edge
/// list, the nodes that keep an LArray or RArray record.
fn record_nodes(g: &SocialGraph) -> (usize, usize) {
    let sources: HashSet<_> = g.edge_ids().map(|e| g.src(e)).collect();
    let dests: HashSet<_> = g.edge_ids().map(|e| g.dst(e)).collect();
    (sources.len(), dests.len())
}

/// `cm`'s record counts and cells against `g`'s edge list.
fn assert_account(cm: &CompactModel, g: &SocialGraph) {
    let (l, r) = record_nodes(g);
    let (e, na, ea) = (
        g.edge_count(),
        g.schema().node_attr_count(),
        g.schema().edge_attr_count(),
    );
    assert_eq!(
        (cm.lrow_count(), cm.edge_count(), cm.rrow_count()),
        (l, e, r)
    );
    assert_eq!(cm.cells(), l * (na + 2) + e * (ea + 1) + r * na);
}

#[test]
fn formulas_match_the_paper() {
    let g = generate(&pokec_config_scaled(0.01)).unwrap();
    let v = g.node_count();
    let e = g.edge_count();
    let na = g.schema().node_attr_count();
    let ea = g.schema().edge_attr_count();

    let st = SingleTable::build(&g);
    assert_eq!(
        st.cells(),
        e * (2 * na + ea),
        "single table: |E|(2#AttrV+#AttrE)"
    );

    let cm = CompactModel::build(&g);
    assert_eq!(
        cm.cells_paper_formula(),
        v * (na + 2) + e * (ea + 1) + v * na,
        "compact: |V|(#AttrV+2) + |E|(#AttrE+1) + |V|#AttrV"
    );
    // Actual cells use only rows with nonzero degree.
    assert!(cm.cells() <= cm.cells_paper_formula());
    assert_account(&cm, &g);
}

#[test]
fn compact_model_is_much_smaller_on_dense_graphs() {
    // Pokec-like: 6 node attrs, no edge attrs, avg degree ~12. The
    // single-table term |E|·2·#AttrV dominates.
    let g = generate(&pokec_config_scaled(0.01)).unwrap();
    let st = SingleTable::build(&g).cells();
    let cm = CompactModel::build(&g).cells();
    assert!(
        (cm as f64) < (st as f64) / 3.0,
        "compact {cm} cells vs single-table {st} cells"
    );
}

#[test]
fn sparse_graph_still_no_worse_than_single_table_bottleneck() {
    // Even at low density the compact model's edge term stays
    // |E|·(#AttrE+1) versus the single table's |E|·(2·#AttrV+#AttrE).
    let cfg = {
        let mut c = pokec_config_scaled(0.01);
        c.edges = c.nodes; // avg degree 1
        c
    };
    let g = generate(&cfg).unwrap();
    let st = SingleTable::build(&g);
    let cm = CompactModel::build(&g);
    let edge_term_compact = g.edge_count() * (g.schema().edge_attr_count() + 1);
    let edge_term_single =
        g.edge_count() * (2 * g.schema().node_attr_count() + g.schema().edge_attr_count());
    assert!(edge_term_compact < edge_term_single);
    // Zero-degree nodes are dropped from LArray/RArray (§IV-A).
    assert!(cm.lrow_count() < g.node_count());
    assert!(cm.rrow_count() < g.node_count());
    assert_account(&cm, &g);
    assert!(cm.cells() > 0 && st.cells() > 0);
}
