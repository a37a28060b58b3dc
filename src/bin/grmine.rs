//! `grmine` — command-line GR mining and querying.
//!
//! ```text
//! grmine mine  <graph.grm> [--min-supp N] [--min-score F] [--k N]
//!              [--metric nhp|conf|laplace|gain|ps|conviction|lift]
//!              [--no-dynamic] [--threads N | --parallel N]
//!              [--shards N [--memory-budget BYTES]]
//!              [--timeout MS] [--json] [--stats-json]
//!              [--allow-empty-lhs] [--baseline-bl1 | --baseline-bl2]
//! grmine query <graph.grm> "<GR>"            # e.g. "(SEX:F) -> (EDU:Grad)"
//! grmine gen   <pokec|dblp> <out.grm> [--scale F] [--seed N]
//! grmine info  <graph.grm>
//! ```
//!
//! A flag its subcommand does not know, or one given twice, is a usage
//! error (exit 2), like a malformed value.
//!
//! Degenerate numeric flags are strict: `--k` and `--min-supp` must be
//! at least 1 (a zero would silently disable top-k selection / support
//! pruning). `--threads 0` is *documented* behavior, not an error: it
//! means "auto-detect available parallelism" (falling back to one
//! worker, with a warning, when detection fails).
//!
//! `--shards N` routes the mine through the sharded out-of-core engine:
//! the graph is spilled to an N-way on-disk `ShardStore` in a scratch
//! directory and mined shard by shard, optionally under a resident-set
//! cap of `--memory-budget` bytes (which therefore requires `--shards`).
//! `--threads` composes with it (sharded workers; 0 = auto); the
//! sequential baselines do not.
//!
//! `--timeout MS` bounds the mine's wall-clock time: when the deadline
//! expires every engine drains its counters and exits with a typed
//! `cancelled` error (exit code 1, partial `--stats-json` counters still
//! on stdout). `--timeout 0` is a deadline that is already expired — it
//! deterministically exercises the cancellation drain path. The
//! baselines do not observe deadlines, so `--timeout` rejects
//! `--baseline-bl1`/`--baseline-bl2` rather than silently ignoring them.
//!
//! The graph format is the self-describing GRMGRAPH text format written by
//! `grm_graph::io` (and by `grmine gen`).

use social_ties::core::baseline::{mine_baseline, BaselineKind};
use social_ties::core::parallel::{try_mine_parallel_with_opts, ParallelOptions};
use social_ties::core::{mine_sharded, parse_gr, query, Dims, MinerError, ShardedOptions};
use social_ties::graph::io;
use social_ties::graph::shard::ShardStore;
use social_ties::{generate, GrMiner, MinerConfig, RankMetric};
use std::process::exit;

mod flags;
use flags::{check_flags, parse_flag};

/// Every flag `grmine mine` reads.
const MINE_FLAGS: &[&str] = &[
    "--min-supp",
    "--min-score",
    "--k",
    "--metric",
    "--no-dynamic",
    "--allow-empty-lhs",
    "--threads",
    "--parallel",
    "--shards",
    "--memory-budget",
    "--timeout",
    "--json",
    "--stats-json",
    "--baseline-bl1",
    "--baseline-bl2",
];

/// A subcommand: its arguments (after the subcommand name) to an exit code.
type Subcommand = fn(&[String]) -> i32;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, known): (Subcommand, &[&str]) = match args.first().map(String::as_str) {
        Some("mine") => (cmd_mine, MINE_FLAGS),
        Some("query") => (cmd_query, &[]),
        Some("gen") => (cmd_gen, &["--scale", "--seed"]),
        Some("info") => (cmd_info, &[]),
        _ => {
            eprintln!("usage: grmine <mine|query|gen|info> …  (see --help in source)");
            exit(2);
        }
    };
    if let Err(e) = check_flags(&args[1..], known) {
        eprintln!("{e}");
        exit(2);
    }
    exit(cmd(&args[1..]));
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn load(path: &str) -> Option<social_ties::SocialGraph> {
    match io::load_graph(path) {
        Ok(g) => Some(g),
        Err(e) => {
            eprintln!("error loading `{path}`: {e}");
            None
        }
    }
}

fn cmd_mine(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: grmine mine <graph.grm> [flags]");
        return 2;
    };
    let Some(graph) = load(path) else { return 1 };

    let metric_name = match parse_flag::<String>(args, "--metric") {
        Ok(v) => v.unwrap_or_else(|| "nhp".to_string()),
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let Some(metric) = RankMetric::from_name(&metric_name) else {
        eprintln!("unknown metric `{metric_name}`");
        return 2;
    };
    let defaults = MinerConfig::for_request(metric, graph.edge_count() as u64);
    type MineFlags = (u64, f64, usize, Option<usize>);
    let parsed = (|| -> Result<MineFlags, String> {
        let threads = match (
            parse_flag::<usize>(args, "--parallel")?,
            parse_flag::<usize>(args, "--threads")?,
        ) {
            (Some(_), Some(_)) => {
                return Err("--parallel and --threads are aliases; pass one".to_string())
            }
            (p, t) => p.or(t),
        };
        Ok((
            parse_flag(args, "--min-supp")?.unwrap_or(defaults.min_supp),
            parse_flag(args, "--min-score")?.unwrap_or(defaults.min_score),
            parse_flag(args, "--k")?.unwrap_or(defaults.k),
            threads,
        ))
    })();
    let (min_supp, min_score, k, parallel) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // Strict degenerate-value checks (module docs): a zero here would
    // not crash so much as silently run a meaningless configuration —
    // `--k 0` selects nothing and `--min-supp 0` disables support
    // pruning entirely.
    if k == 0 {
        eprintln!("--k must be at least 1 (0 would select no GRs)");
        return 2;
    }
    if min_supp == 0 {
        eprintln!("--min-supp must be at least 1 (0 would disable support pruning)");
        return 2;
    }
    let (shards, memory_budget) = match (|| -> Result<(Option<usize>, Option<u64>), String> {
        Ok((
            parse_flag(args, "--shards")?,
            parse_flag(args, "--memory-budget")?,
        ))
    })() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if shards == Some(0) {
        eprintln!("--shards must be at least 1 (0 shards could hold no edges)");
        return 2;
    }
    if memory_budget.is_some() && shards.is_none() {
        eprintln!("--memory-budget caps the sharded engine's resident set; add --shards N");
        return 2;
    }
    if memory_budget == Some(0) {
        eprintln!("--memory-budget must be at least 1 byte (0 could hold no shard)");
        return 2;
    }
    // `--timeout 0` is deliberately legal: a deadline that is already
    // expired, the deterministic way to exercise the cancellation drain
    // path (module docs).
    let timeout_ms = match parse_flag::<u64>(args, "--timeout") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut cfg = MinerConfig {
        min_supp,
        min_score,
        k,
        deadline_ms: timeout_ms,
        ..defaults
    };
    if has_flag(args, "--no-dynamic") {
        cfg.dynamic_topk = false;
    }
    if has_flag(args, "--allow-empty-lhs") {
        cfg.allow_empty_lhs = true;
    }
    let stats_json = has_flag(args, "--stats-json");
    if stats_json && has_flag(args, "--json") {
        // Each mode promises stdout to exactly one JSON document.
        eprintln!("--stats-json and --json are mutually exclusive");
        return 2;
    }

    if parallel.is_some() && (has_flag(args, "--baseline-bl1") || has_flag(args, "--baseline-bl2"))
    {
        // The baselines are sequential by design; silently running the
        // parallel GRMiner instead would mislabel the numbers.
        eprintln!("--baseline-bl1/--baseline-bl2 are sequential; drop --threads");
        return 2;
    }
    if shards.is_some() && (has_flag(args, "--baseline-bl1") || has_flag(args, "--baseline-bl2")) {
        eprintln!("--baseline-bl1/--baseline-bl2 are in-core; drop --shards");
        return 2;
    }
    if timeout_ms.is_some()
        && (has_flag(args, "--baseline-bl1") || has_flag(args, "--baseline-bl2"))
    {
        // The baselines never probe the deadline; accepting the flag
        // would silently mine without a time bound.
        eprintln!("--timeout needs a cancellable engine; drop --baseline-bl1/--baseline-bl2");
        return 2;
    }
    let engine = parallel.map(|threads| ParallelOptions {
        threads,
        ..ParallelOptions::default()
    });
    let outcome = if let Some(shards) = shards {
        // Out-of-core path: spill the graph into an N-way shard store in
        // a scratch directory, mine it under the budget, and clean up.
        // The store's own files go with its `Drop`; the directory after.
        let dir = std::env::temp_dir().join(format!("grmine-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = match ShardStore::build_from_graph(
            &graph,
            dir,
            shards,
            social_ties::graph::CompactModel::MAX_EDGES,
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot build the shard store: {e}");
                return 1;
            }
        };
        let opts = ShardedOptions {
            threads: parallel.unwrap_or(1),
            memory_budget,
        };
        let out = mine_sharded(&store, &cfg, &opts);
        let dir = store.dir().to_path_buf();
        drop(store);
        let _ = std::fs::remove_dir_all(dir);
        out
    } else if let Some(opts) = engine {
        // The work-stealing engine honors `dynamic_topk` (shared bound +
        // exactness-verified post-pass), so the config passes through
        // unchanged — `--no-dynamic` controls it, exactly as
        // sequentially.
        try_mine_parallel_with_opts(&graph, &cfg, &Dims::all(graph.schema()), opts)
    } else if has_flag(args, "--baseline-bl1") {
        Ok(mine_baseline(&graph, &cfg, BaselineKind::Bl1))
    } else if has_flag(args, "--baseline-bl2") {
        Ok(mine_baseline(&graph, &cfg, BaselineKind::Bl2))
    } else {
        GrMiner::new(&graph, cfg.clone()).try_mine()
    };
    let result = match outcome {
        Ok(r) => r,
        Err(e @ MinerError::UnsupportedMetric(_)) => {
            eprintln!("{e}");
            return 2;
        }
        Err(e) => {
            // Cancellation / deadline expiry / a contained worker panic:
            // the run still drained its counters, so `--stats-json` keeps
            // its stdout contract (one JSON stats document) while the
            // typed error goes to stderr with a failing exit code.
            if stats_json {
                if let Some(partial) = e.partial_stats() {
                    println!(
                        "{}",
                        serde_json::to_string(partial).expect("stats serialize")
                    );
                }
            }
            eprintln!("mine failed: {e}");
            return 1;
        }
    };

    if stats_json {
        // One JSON object on stdout: the run's MinerStats (including the
        // partition- and parallel-engine counters). The engine settings
        // and the ranked report go to stderr so stdout stays a single
        // machine-readable document.
        println!(
            "{}",
            serde_json::to_string(&result.stats).expect("stats serialize")
        );
        if let Some(shards) = shards {
            // threads = 0 means "auto-detect"; echoing the literal 0
            // would read as zero workers.
            let threads = match parallel.unwrap_or(1) {
                0 => "auto".to_string(),
                n => n.to_string(),
            };
            let budget = match memory_budget {
                Some(b) => b.to_string(),
                None => "none".to_string(),
            };
            eprintln!(
                "engine: sharded shards={} threads={} budget={} dynamic={}",
                shards, threads, budget, cfg.dynamic_topk
            );
        } else if let Some(opts) = engine {
            // threads = 0 means "auto-detect"; echoing the literal 0
            // would read as zero workers.
            let threads = match opts.threads {
                0 => "auto".to_string(),
                n => n.to_string(),
            };
            eprintln!("engine: threads={} dynamic={}", threads, cfg.dynamic_topk);
        }
        eprint!("{}", result.report(graph.schema()));
    } else if has_flag(args, "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&result.top).expect("results serialize")
        );
    } else {
        println!(
            "# {} GRs (metric {}, minSupp {}, minScore {}, k {})",
            result.top.len(),
            cfg.metric,
            cfg.min_supp,
            cfg.min_score,
            cfg.k
        );
        print!("{}", result.report(graph.schema()));
        eprintln!("{}", result.stats);
    }
    0
}

fn cmd_query(args: &[String]) -> i32 {
    let (Some(path), Some(text)) = (args.first(), args.get(1)) else {
        eprintln!("usage: grmine query <graph.grm> \"<GR>\"");
        return 2;
    };
    let Some(graph) = load(path) else { return 1 };
    match parse_gr(graph.schema(), text) {
        Ok(gr) => {
            let m = query::evaluate(&graph, &gr);
            println!("{}", gr.display(graph.schema()));
            println!("{}", m.summary());
            println!(
                "supp_lw={} heff={} supp_r={} |E|={} beta={:?}",
                m.supp_lw, m.heff, m.supp_r, m.edges, m.beta_attrs
            );
            0
        }
        Err(e) => {
            eprintln!("cannot parse GR: {e}");
            2
        }
    }
}

fn cmd_gen(args: &[String]) -> i32 {
    let (Some(which), Some(out)) = (args.first(), args.get(1)) else {
        eprintln!("usage: grmine gen <pokec|dblp> <out.grm> [--scale F] [--seed N]");
        return 2;
    };
    let (scale, seed) = match (|| -> Result<(f64, Option<u64>), String> {
        Ok((
            parse_flag(args, "--scale")?.unwrap_or(0.1),
            parse_flag(args, "--seed")?,
        ))
    })() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // Reject NaN/inf and runaway magnitudes: `scaled()` multiplies node
    // and edge counts by this factor, so an extreme value turns a typo
    // into an allocation abort instead of an error.
    if !(scale.is_finite() && scale > 0.0 && scale <= 1e4) {
        eprintln!("invalid --scale {scale}: must be a positive number <= 10000");
        return 2;
    }
    let mut cfg = match which.as_str() {
        "pokec" => social_ties::datagen::pokec_config_scaled(scale),
        "dblp" => social_ties::datagen::dblp_config_scaled(scale),
        other => {
            eprintln!("unknown dataset `{other}`");
            return 2;
        }
    };
    if let Some(seed) = seed {
        cfg = cfg.with_seed(seed);
    }
    let graph = match generate(&cfg) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("cannot generate `{which}` at scale {scale}: {e}");
            return 2;
        }
    };
    if let Err(e) = io::save_graph(&graph, out) {
        eprintln!("error writing `{out}`: {e}");
        return 1;
    }
    eprintln!(
        "wrote {} nodes / {} edges to {out}",
        graph.node_count(),
        graph.edge_count()
    );
    0
}

fn cmd_info(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: grmine info <graph.grm>");
        return 2;
    };
    let Some(graph) = load(path) else { return 1 };
    let s = graph.schema();
    println!("nodes: {}", graph.node_count());
    println!("edges: {}", graph.edge_count());
    println!("node attributes:");
    for a in s.node_attr_ids() {
        let def = s.node_attr(a);
        println!(
            "  {} (|A|={}, {})",
            def.name(),
            def.domain_size(),
            if def.is_homophily() {
                "homophily"
            } else {
                "non-homophily"
            }
        );
    }
    println!("edge attributes:");
    for a in s.edge_attr_ids() {
        let def = s.edge_attr(a);
        println!("  {} (|A|={})", def.name(), def.domain_size());
    }
    let cm = social_ties::graph::CompactModel::build(&graph);
    let st = social_ties::graph::SingleTable::build(&graph);
    println!(
        "compact model: {} cells; single table: {} cells ({:.1}x)",
        cm.cells(),
        st.cells(),
        st.cells() as f64 / cm.cells() as f64
    );
    let keys = match social_ties::graph::KeyColumns::build(&graph) {
        Ok(keys) => keys,
        Err(e) => {
            eprintln!("cannot build the key columns: {e}");
            return 1;
        }
    };
    println!(
        "columnar key caches: {} cells (runtime acceleration on top of the compact model)",
        keys.cells()
    );
    0
}
