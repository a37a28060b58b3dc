//! Property-based tests (proptest) for the paper's theorems and the
//! miner's end-to-end correctness on arbitrary attributed graphs.

use proptest::prelude::*;
use social_ties::core::reference::mine_reference;
use social_ties::graph::io;
use social_ties::graph::sort::{PartitionArena, STRIPES};
use social_ties::{Gr, GrMiner, MinerConfig, SchemaBuilder, SocialGraph};

/// An arbitrary small attributed graph: up to 3 node attrs (random
/// homophily flags), up to 1 edge attr, up to 10 nodes / 40 edges.
fn arb_graph() -> impl Strategy<Value = SocialGraph> {
    (
        prop::collection::vec(any::<bool>(), 1..=3), // homophily flags
        2u16..=3,                                    // node domain size
        0usize..=1,                                  // edge attr count
        2u32..=10,                                   // nodes
        1u32..=40,                                   // edges
        any::<u64>(),                                // value seed
    )
        .prop_map(|(flags, domain, ea, nodes, edges, seed)| {
            let mut sb = SchemaBuilder::new();
            for (i, &h) in flags.iter().enumerate() {
                sb = sb.node_attr(format!("N{i}"), domain, h);
            }
            for i in 0..ea {
                sb = sb.edge_attr(format!("E{i}"), 2);
            }
            let schema = sb.build().unwrap();
            let mut b = social_ties::GraphBuilder::new(schema);
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for _ in 0..nodes {
                let row: Vec<u16> = (0..flags.len())
                    .map(|_| (next() % (domain as u64 + 1)) as u16)
                    .collect();
                b.add_node(&row).unwrap();
            }
            for _ in 0..edges {
                let s = (next() % nodes as u64) as u32;
                let mut t = (next() % nodes as u64) as u32;
                if t == s {
                    t = (t + 1) % nodes;
                }
                let ev: Vec<u16> = (0..ea).map(|_| (next() % 3) as u16).collect();
                b.add_edge(s, t, &ev).unwrap();
            }
            b.build().unwrap()
        })
}

proptest! {
    // Each case runs a brute-force reference mine (exponential in attrs),
    // so keep the case count moderate; the deterministic differential
    // tests in miner_equivalence.rs cover many more seeds cheaply.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: GRMiner (static threshold) equals the
    /// brute-force Definition-5 oracle on arbitrary graphs and thresholds.
    #[test]
    fn grminer_equals_reference(
        g in arb_graph(),
        min_supp in 1u64..=3,
        min_nhp in prop::sample::select(vec![0.2, 0.45, 0.75]),
        k in 1usize..=20,
    ) {
        let cfg = MinerConfig::nhp(min_supp, min_nhp, k).without_dynamic_topk();
        let fast = GrMiner::new(&g, cfg.clone()).mine();
        let oracle = mine_reference(&g, &cfg);
        let fk: Vec<(Gr, u64)> = fast.top.iter().map(|s| (s.gr.clone(), s.supp)).collect();
        let ok: Vec<(Gr, u64)> = oracle.iter().map(|s| (s.gr.clone(), s.supp)).collect();
        prop_assert_eq!(fk, ok);
    }

    /// Theorem 1: for every examined GR, nhp ∈ [0, 1], the denominator is
    /// positive, and nhp ≥ conf (Remark 1).
    #[test]
    fn theorem1_nhp_bounds(g in arb_graph()) {
        let result = GrMiner::new(&g, MinerConfig::nhp(1, 0.0, 1000)).mine();
        for x in &result.top {
            prop_assert!(x.supp > 0);
            prop_assert!(x.supp_lw > x.heff, "denominator must stay positive");
            let nhp = x.nhp();
            prop_assert!((0.0..=1.0 + 1e-12).contains(&nhp));
            prop_assert!(nhp + 1e-12 >= x.conf(), "nhp >= conf (Remark 1)");
            prop_assert!((x.score - nhp).abs() < 1e-12);
        }
    }

    /// Theorem 2(1): results respect minSupp; Def. 5(1): results respect
    /// minNhp; Def. 5(3): results are rank-sorted and at most k.
    #[test]
    fn definition5_conditions(
        g in arb_graph(),
        min_supp in 1u64..=4,
        k in 1usize..=10,
    ) {
        let cfg = MinerConfig::nhp(min_supp, 0.4, k);
        let result = GrMiner::new(&g, cfg).mine();
        prop_assert!(result.top.len() <= k);
        for w in result.top.windows(2) {
            prop_assert_ne!(
                w[0].rank_cmp(&w[1]),
                std::cmp::Ordering::Greater,
                "output must be rank-sorted"
            );
        }
        for x in &result.top {
            prop_assert!(x.supp >= min_supp);
            prop_assert!(x.score >= 0.4);
            prop_assert!(!x.gr.is_trivial(g.schema()));
        }
        // Def. 5(2): no result generalizes another.
        for a in &result.top {
            for b in &result.top {
                if a.gr != b.gr {
                    prop_assert!(!a.gr.is_more_general_than(&b.gr));
                }
            }
        }
    }

    /// GRMiner(k) never does more work than GRMiner, and it returns
    /// exactly the static Definition-5 top-k.
    #[test]
    fn dynamic_pruning_is_sound(g in arb_graph(), k in 1usize..=8) {
        let cfg = MinerConfig::nhp(1, 0.3, k);
        let dynamic = GrMiner::new(&g, cfg.clone()).mine();
        let exact = GrMiner::new(&g, cfg.without_dynamic_topk()).mine();
        prop_assert!(dynamic.stats.grs_examined <= exact.stats.grs_examined);
        prop_assert_eq!(&dynamic.top, &exact.top);
    }

    /// The two-level partition engine against a naive stable
    /// `sort_by_key` oracle, across random domains and key columns
    /// (value 0 plays the NULL role — the engine treats it like any other
    /// bucket; the miner skips it later). The parent's count and scatter
    /// on `col1` must agree with the oracle's value grouping; counting
    /// then scattering every child on `col2` must yield the oracle's
    /// composite order (stability included); and the one-shot columnar
    /// passes must match bit for bit as well.
    #[test]
    fn fused_partition_engine_matches_sort_by_key_oracle(
        domain1 in 1u16..=9,
        domain2 in 1u16..=6,
        seed in any::<u64>(),
        n in 0usize..300,
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let col1: Vec<u16> = (0..n).map(|_| (next() % domain1 as u64) as u16).collect();
        let col2: Vec<u16> = (0..n).map(|_| (next() % domain2 as u64) as u16).collect();
        let (b1, b2) = (domain1 as usize, domain2 as usize);

        // Oracle: a stable comparison sort by the composite key.
        let mut oracle: Vec<u32> = (0..n as u32).collect();
        oracle.sort_by_key(|&id| (col1[id as usize], col2[id as usize]));

        // Count-first engine: parent count + scatter on col1, then every
        // child counted and scattered on col2.
        let mut arena = PartitionArena::new();
        let mut data: Vec<u32> = (0..n as u32).collect();
        let frame = arena
            .count_col(&data, b1, &col1)
            .expect("keys lie below their domains");
        arena.scatter(&mut data, &frame);
        let parts: Vec<_> = arena.records(&frame).to_vec();
        // Parent records match the oracle's value grouping.
        let mut at = 0usize;
        for part in &parts {
            prop_assert_eq!(part.range().start, at);
            for &id in &data[part.range()] {
                prop_assert_eq!(col1[id as usize], part.value);
            }
            at = part.range().end;
        }
        prop_assert_eq!(at, n, "partitions tile the slice");
        for part in &parts {
            let sub = &mut data[part.range()];
            let counted = arena.count_col(sub, b2, &col2).unwrap();
            arena.scatter(sub, &counted);
            let mut cat = 0usize;
            for c in arena.records(&counted) {
                prop_assert_eq!(c.range().start, cat);
                for &id in &sub[c.range()] {
                    prop_assert_eq!(col2[id as usize], c.value);
                }
                cat = c.range().end;
            }
            prop_assert_eq!(cat, sub.len());
            arena.pop_frame(counted);
        }
        arena.pop_frame(frame);
        // Content + stability: the two-level result IS the stable
        // composite sort.
        prop_assert_eq!(&data, &oracle, "count + scatter diverged from sort_by_key");

        // The one-shot columnar passes produce the identical result.
        let mut plain: Vec<u32> = (0..n as u32).collect();
        let f1 = arena.partition_col(&mut plain, b1, &col1).unwrap();
        let plain_parts: Vec<_> = arena.records(&f1).to_vec();
        prop_assert_eq!(&plain_parts, &parts, "one-shot parent records differ");
        for part in &plain_parts {
            let sub = &mut plain[part.range()];
            let f2 = arena.partition_col(sub, b2, &col2).unwrap();
            arena.pop_frame(f2);
        }
        arena.pop_frame(f1);
        prop_assert_eq!(&plain, &oracle, "one-shot passes diverged from sort_by_key");
    }

    /// The arena's count against a naive oracle, on arbitrary key
    /// material and on both sides of the stripe threshold
    /// (`n = STRIPES × buckets`): an empty pass, a pass below it (plain
    /// histogram) and one at or above it (striped), most not a multiple
    /// of `STRIPES`. `count_col` records are the naive histogram's
    /// non-empty buckets (values ascending, lengths equal to the counts),
    /// and count-then-scatter is the one-shot `partition_with` pass and a
    /// stable `sort_by_key`.
    #[test]
    fn arena_count_matches_naive_oracle(
        domain in 1u16..=24,
        seed in any::<u64>(),
        r in 0usize..300,
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let b = domain as usize;
        let threshold = STRIPES * b;
        let mut arena = PartitionArena::new();
        for n in [0, r % threshold, threshold + r] {
            let col: Vec<u16> = (0..n).map(|_| (next() % domain as u64) as u16).collect();
            let data: Vec<u32> = {
                let mut d: Vec<u32> = (0..n as u32).collect();
                // A deterministic shuffle so key loads are non-sequential.
                for i in (1..d.len()).rev() {
                    d.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                d
            };
            let mut naive = vec![0usize; b];
            for &id in &data {
                naive[col[id as usize] as usize] += 1;
            }
            let want: Vec<(u16, usize)> = (0..domain)
                .zip(naive.iter().copied())
                .filter(|&(_, c)| c > 0)
                .collect();

            let mut counted = data.clone();
            let f = arena.count_col(&counted, b, &col).unwrap();
            let recs = arena.records(&f).to_vec();
            let got: Vec<(u16, usize)> = recs.iter().map(|p| (p.value, p.len())).collect();
            prop_assert_eq!(&got, &want, "n = {}: records are the naive histogram", n);
            arena.scatter(&mut counted, &f);
            arena.pop_frame(f);

            let mut one_shot = data.clone();
            let f = arena
                .partition_with(&mut one_shot, b, |id| col[id as usize])
                .unwrap();
            prop_assert_eq!(arena.records(&f), &recs[..], "n = {}: one-shot records", n);
            arena.pop_frame(f);
            prop_assert_eq!(&counted, &one_shot, "n = {}: count + scatter is the one-shot pass", n);

            let mut oracle = data.clone();
            oracle.sort_by_key(|&id| col[id as usize]);
            prop_assert_eq!(&counted, &oracle, "n = {}: count + scatter is a stable sort", n);
        }
    }

    /// Counting sort: output is a permutation, partitions tile the slice
    /// in increasing key order, and the sort is stable.
    #[test]
    fn counting_sort_properties(
        keys in prop::collection::vec(0u16..8, 0..200),
    ) {
        let mut data: Vec<u32> = (0..keys.len() as u32).collect();
        let mut arena = PartitionArena::new();
        let frame = arena.partition_with(&mut data, 8, |i| keys[i as usize]).unwrap();
        let parts = arena.records(&frame);
        // Permutation.
        let mut sorted = data.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..keys.len() as u32).collect::<Vec<_>>());
        // Tiling, ordering, stability.
        let mut next = 0usize;
        for p in parts {
            prop_assert_eq!(p.range().start, next);
            next = p.range().end;
            let ids = &data[p.range()];
            for w in ids.windows(2) {
                prop_assert!(w[0] < w[1], "stability preserves input order");
            }
            for &id in ids {
                prop_assert_eq!(keys[id as usize], p.value);
            }
        }
        arena.pop_frame(frame);
        prop_assert_eq!(next, keys.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// GRMGRAPH persistence is lossless on arbitrary graphs: every node
    /// row, edge endpoint, edge row and schema flag survives, and mining
    /// the reloaded graph yields identical results.
    #[test]
    fn io_round_trip_lossless(g in arb_graph()) {
        let mut buf = Vec::new();
        io::write_graph(&g, &mut buf).unwrap();
        let back = io::read_graph(&buf[..]).unwrap();
        prop_assert_eq!(back.node_count(), g.node_count());
        prop_assert_eq!(back.edge_count(), g.edge_count());
        prop_assert_eq!(back.schema(), g.schema());
        for n in g.node_ids() {
            prop_assert_eq!(back.node_row(n), g.node_row(n));
        }
        for e in g.edge_ids() {
            prop_assert_eq!(back.src(e), g.src(e));
            prop_assert_eq!(back.dst(e), g.dst(e));
            prop_assert_eq!(back.edge_row(e), g.edge_row(e));
        }
        let cfg = MinerConfig::nhp(1, 0.5, 10);
        let a = GrMiner::new(&g, cfg.clone()).mine();
        let b = GrMiner::new(&back, cfg).mine();
        let ka: Vec<Gr> = a.top.iter().map(|x| x.gr.clone()).collect();
        let kb: Vec<Gr> = b.top.iter().map(|x| x.gr.clone()).collect();
        prop_assert_eq!(ka, kb);
    }

    /// The homophily-effect identity: for every mined GR,
    /// `heff <= supp_lw - supp` is NOT generally true, but
    /// `supp + heff <= supp_lw` is (Theorem 1's disjointness argument:
    /// the edges counted by supp go to r, those by heff to l[β], and the
    /// two sets are disjoint whenever β ≠ ∅).
    #[test]
    fn theorem1_disjointness(g in arb_graph()) {
        let result = GrMiner::new(&g, MinerConfig::nhp(1, 0.0, 500)).mine();
        for x in &result.top {
            if x.heff > 0 {
                prop_assert!(
                    x.supp + x.heff <= x.supp_lw,
                    "supp {} + heff {} > supp_lw {}",
                    x.supp, x.heff, x.supp_lw
                );
            }
        }
    }
}

proptest! {
    // The work-stealing engine's exactness contract on arbitrary graphs:
    // each case mines sequentially (static) and in parallel (dynamic,
    // forced splitting), so keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sharded out-of-core engine is exact on arbitrary graphs: for
    /// every shard count, thread count, and top-k mode, `mine_sharded`
    /// over a spilled `ShardStore` reproduces the static sequential
    /// output bit for bit, and (static mode) its semantic counters equal
    /// the in-core miner's.
    #[test]
    fn sharded_mine_equals_sequential(
        g in arb_graph(),
        shards in prop::sample::select(vec![1usize, 2, 3, 7]),
        threads in 1usize..=4,
        dynamic in any::<bool>(),
        k in 1usize..=8,
    ) {
        use social_ties::core::{mine_sharded, ShardedOptions};
        use social_ties::graph::shard::ShardStore;
        use social_ties::graph::CompactModel;
        static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("grm-prop-shard-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ShardStore::build_from_graph(&g, dir.clone(), shards, CompactModel::MAX_EDGES)
            .expect("store builds");
        let mut cfg = MinerConfig::nhp(1, 0.3, k);
        if !dynamic {
            cfg = cfg.without_dynamic_topk();
        }
        let seq = GrMiner::new(&g, cfg.clone().without_dynamic_topk()).mine();
        let out = mine_sharded(&store, &cfg, &ShardedOptions { threads, memory_budget: None })
            .expect("sharded mine");
        prop_assert_eq!(&seq.top, &out.top, "sharded deviated from sequential");
        if !dynamic {
            prop_assert_eq!(seq.stats.semantic(), out.stats.semantic());
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The shared dynamic top-k bound is sound: it never exceeds the
    /// true k-th score of the final result (debug-asserted by the pool's
    /// post-pass on every mine), and the dynamic parallel engine (bound
    /// pruning + exactness-verified post-pass) reproduces the static
    /// Definition-5 output bit for bit — on arbitrary graphs, thresholds,
    /// k, and thread counts.
    #[test]
    fn shared_bound_never_exceeds_true_kth_score(
        g in arb_graph(),
        k in 1usize..=8,
        min_nhp in prop::sample::select(vec![0.0, 0.3, 0.6]),
        threads in 1usize..=4,
    ) {
        use social_ties::core::parallel::{try_mine_parallel_with_opts, ParallelOptions};
        let cfg = MinerConfig::nhp(1, min_nhp, k);
        let par = try_mine_parallel_with_opts(
            &g,
            &cfg,
            &social_ties::core::Dims::all(g.schema()),
            ParallelOptions {
                threads,
                split_min: 1,
            },
        )
        .unwrap();
        let seq = GrMiner::new(&g, cfg.without_dynamic_topk()).mine();
        prop_assert_eq!(&seq.top, &par.top, "dynamic parallel deviated from static");
    }
}
