//! Property-based tests (proptest) for the paper's theorems and the
//! miner's end-to-end correctness on arbitrary attributed graphs.

use proptest::prelude::*;
use social_ties::core::reference::mine_reference;
use social_ties::graph::io;
use social_ties::graph::kernel;
use social_ties::graph::sort::PartitionArena;
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

    /// The fused two-level engine against a naive stable `sort_by_key`
    /// oracle, across random domains and key columns (value 0 plays the
    /// NULL role — the engine treats it like any other bucket; the miner
    /// skips it later). The parent's count and fused scatter must agree
    /// with the oracle's value grouping; each child's pre-counted
    /// (count-only) records must equal a plain count of `col2` over its
    /// slice; and counting then scattering every child must yield the
    /// oracle's composite order (stability included). The unfused
    /// columnar pass must match bit for bit as well.
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

        // Fused engine: parent count + fused scatter on col1, children
        // pre-counted on col2.
        let mut arena = PartitionArena::new();
        let mut data: Vec<u32> = (0..n as u32).collect();
        let frame = arena
            .count_col(&data, b1, &col1)
            .expect("keys lie below their domains");
        let level = arena
            .scatter_fused(&mut data, &frame, &col2, b2)
            .expect("keys lie below their domains");
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
            let hist = arena.child_hist(level, *part);
            let child = arena.partition_pre_counted(b2, hist);
            let pre_counted = arena.records(&child).to_vec();
            arena.pop_frame(child);
            let sub = &mut data[part.range()];
            let counted = arena.count_col(sub, b2, &col2).unwrap();
            prop_assert_eq!(
                arena.records(&counted),
                &pre_counted[..],
                "pre-counted records differ from a plain count"
            );
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
        arena.pop_fused(level);
        arena.pop_frame(frame);
        // Content + stability: the two-level result IS the stable
        // composite sort.
        prop_assert_eq!(&data, &oracle, "fused engine diverged from sort_by_key");

        // The unfused columnar passes produce the identical result.
        let mut plain: Vec<u32> = (0..n as u32).collect();
        let f1 = arena.partition_col(&mut plain, b1, &col1).unwrap();
        let plain_parts: Vec<_> = arena.records(&f1).to_vec();
        prop_assert_eq!(&plain_parts, &parts, "fusion changed the parent records");
        for part in &plain_parts {
            let sub = &mut plain[part.range()];
            let f2 = arena.partition_col(sub, b2, &col2).unwrap();
            arena.pop_frame(f2);
        }
        arena.pop_frame(f1);
        prop_assert_eq!(&plain, &oracle, "unfused engine diverged from sort_by_key");
    }

    /// The vectorized counting kernels against their scalar oracles, on
    /// arbitrary key material: the gather reproduces `col[data[i]]` and
    /// reports the true maximum; the striped histogram equals the naive
    /// count (and re-zeroes its stripes); and a full arena pass — one-shot,
    /// count then scatter, and count then fused scatter with count-only
    /// children — is bit-identical with the kernels on and off, the split
    /// passes equal to the one-shot pass.
    #[test]
    fn kernel_primitives_match_scalar_oracle(
        domain in 1u16..=24,
        next_domain in 1u16..=6,
        seed in any::<u64>(),
        n in 0usize..400,
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let col: Vec<u16> = (0..n).map(|_| (next() % domain as u64) as u16).collect();
        let next_col: Vec<u16> = (0..n).map(|_| (next() % next_domain as u64) as u16).collect();
        let data: Vec<u32> = {
            let mut d: Vec<u32> = (0..n as u32).collect();
            // A deterministic shuffle so gathers are non-sequential.
            for i in (1..d.len()).rev() {
                d.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            d
        };

        // gather_keys: exact values + exact maximum.
        let mut keys = vec![0u16; n];
        let (max, _) = kernel::gather_keys(&data, &col, &mut keys);
        let expect: Vec<u16> = data.iter().map(|&id| col[id as usize]).collect();
        prop_assert_eq!(&keys, &expect);
        prop_assert_eq!(max, expect.iter().copied().max().unwrap_or(0));

        // histogram_u32: equals the naive count; stripes re-zeroed.
        let b = domain as usize;
        let mut counts = vec![0u32; b];
        let mut stripes = vec![0u32; kernel::STRIPES * b];
        kernel::histogram_u32(&keys, &mut counts, &mut stripes);
        let mut naive = vec![0u32; b];
        for &k in &keys {
            naive[k as usize] += 1;
        }
        prop_assert_eq!(&counts, &naive);
        prop_assert!(stripes.iter().all(|&s| s == 0), "stripes must re-zero");

        // Arena passes: kernel on vs off, plain and fused, bit for bit.
        let nb = next_domain as usize;
        let run = |on: bool| {
            let mut arena = PartitionArena::new();
            arena.set_kernel_enabled(on);
            let mut one_shot = data.clone();
            let f = arena
                .partition_with(&mut one_shot, b, |id| col[id as usize])
                .unwrap();
            let orecs = arena.records(&f).to_vec();
            arena.pop_frame(f);
            let mut plain = data.clone();
            let f = arena.count_col(&plain, b, &col).unwrap();
            arena.scatter(&mut plain, &f);
            let precs = arena.records(&f).to_vec();
            arena.pop_frame(f);
            let mut fused = data.clone();
            let f = arena.count_col(&fused, b, &col).unwrap();
            let lvl = arena.scatter_fused(&mut fused, &f, &next_col, nb).unwrap();
            let frecs = arena.records(&f).to_vec();
            let mut kids = Vec::new();
            for rec in frecs.clone() {
                let cf = arena.partition_pre_counted(nb, arena.child_hist(lvl, rec));
                kids.push(arena.records(&cf).to_vec());
                arena.pop_frame(cf);
            }
            arena.pop_fused(lvl);
            arena.pop_frame(f);
            (one_shot, orecs, plain, precs, fused, frecs, kids)
        };
        let (on, off) = (run(true), run(false));
        prop_assert_eq!(&on, &off, "kernel must be a pure execution strategy");
        prop_assert_eq!(&on.2, &on.0, "count + scatter must equal the one-shot pass");
        prop_assert_eq!(&on.3, &on.1);
        prop_assert_eq!(&on.4, &on.0, "count + fused scatter must equal the one-shot pass");
        prop_assert_eq!(&on.5, &on.1);
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
                ..ParallelOptions::default()
            },
        )
        .unwrap();
        let seq = GrMiner::new(&g, cfg.without_dynamic_topk()).mine();
        prop_assert_eq!(&seq.top, &par.top, "dynamic parallel deviated from static");
    }
}
