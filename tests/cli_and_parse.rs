//! The `grmine` CLI and the GR text parser, end to end: generate a graph,
//! inspect it, mine it, and re-query a mined GR — all through the shipped
//! binary and the parse API.

use social_ties::core::{parse_gr, query};
use social_ties::graph::{io, CompactModel, KeyColumns, SingleTable};
use social_ties::{toy_network, GrMiner, MinerConfig};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn grmine() -> Command {
    Command::new(env!("CARGO_BIN_EXE_grmine"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("grmine-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn parser_round_trips_every_mined_gr() {
    let g = toy_network();
    let s = g.schema();
    let result = GrMiner::new(&g, MinerConfig::nhp(1, 0.0, 500)).mine();
    assert!(!result.top.is_empty());
    for x in &result.top {
        let text = x.gr.display(s);
        let parsed = parse_gr(s, &text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(parsed, x.gr, "parse(display(gr)) == gr for {text}");
        // And the parsed GR re-queries to the same counts.
        let m = query::evaluate(&g, &parsed);
        assert_eq!(m.supp, x.supp);
        assert_eq!(m.supp_lw, x.supp_lw);
        assert_eq!(m.heff, x.heff);
    }
}

#[test]
fn cli_gen_info_mine_query_pipeline() {
    let path = tmp("pipeline.grm");
    let out = grmine()
        .args([
            "gen",
            "dblp",
            path.to_str().unwrap(),
            "--scale",
            "0.03",
            "--seed",
            "5",
        ])
        .output()
        .expect("gen runs");
    assert!(out.status.success(), "gen failed: {out:?}");

    let out = grmine()
        .args(["info", path.to_str().unwrap()])
        .output()
        .expect("info runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Area (|A|=4, homophily)"));
    // The §IV-A cell counts printed are the generated graph's own.
    let g = io::load_graph(&path).unwrap();
    let cells = |label: &str| -> usize {
        let at = text
            .find(label)
            .unwrap_or_else(|| panic!("no `{label}` in {text}"));
        let rest = text[at + label.len()..].trim_start();
        rest.split(' ').next().unwrap().parse().unwrap()
    };
    assert_eq!(cells("compact model:"), CompactModel::build(&g).cells());
    assert_eq!(cells("single table:"), SingleTable::build(&g).cells());
    assert_eq!(
        cells("columnar key caches:"),
        KeyColumns::build(&g).unwrap().cells()
    );

    let out = grmine()
        .args([
            "mine",
            path.to_str().unwrap(),
            "--k",
            "5",
            "--min-supp",
            "3",
        ])
        .output()
        .expect("mine runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("metric nhp"), "got: {text}");

    let out = grmine()
        .args([
            "query",
            path.to_str().unwrap(),
            "(Productivity:Fair) -> (Productivity:Poor)",
        ])
        .output()
        .expect("query runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("supp="), "got: {text}");
}

#[test]
fn cli_mine_json_is_parseable() {
    let path = tmp("json.grm");
    assert!(grmine()
        .args(["gen", "dblp", path.to_str().unwrap(), "--scale", "0.03"])
        .output()
        .unwrap()
        .status
        .success());
    let out = grmine()
        .args([
            "mine",
            path.to_str().unwrap(),
            "--k",
            "3",
            "--min-supp",
            "3",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let parsed: Vec<social_ties::ScoredGr> =
        serde_json::from_slice(&out.stdout).expect("valid JSON results");
    assert!(parsed.len() <= 3);
}

#[test]
fn cli_stats_json_pins_the_counter_schema() {
    let path = tmp("stats.grm");
    assert!(grmine()
        .args(["gen", "dblp", path.to_str().unwrap(), "--scale", "0.03"])
        .output()
        .unwrap()
        .status
        .success());
    let out = grmine()
        .args([
            "mine",
            path.to_str().unwrap(),
            "--k",
            "5",
            "--min-supp",
            "3",
            "--stats-json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    // Stdout is exactly one flat JSON object with the pinned keys, in
    // emission order: the `stats.rs` table sets that order, so a moved
    // row changes the bytes even when the key set stays the same. (All
    // values are numbers, so every quoted token followed by `:` is a
    // key — the vendored serde_json has no raw-Value parse.)
    let text = String::from_utf8(out.stdout.clone()).unwrap();
    assert!(text.trim_start().starts_with('{') && text.trim_end().ends_with('}'));
    let mut keys: Vec<String> = Vec::new();
    let mut rest = text.as_str();
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('"') else { break };
        let tail = &after[end + 1..];
        if tail.trim_start().starts_with(':') {
            keys.push(after[..end].to_string());
        }
        rest = tail;
    }
    assert_eq!(
        keys,
        vec![
            "partitions_examined",
            "grs_examined",
            "pruned_by_supp",
            "pruned_by_score",
            "rejected_trivial",
            "rejected_generality",
            "accepted",
            "heff_scans",
            "partition_passes",
            "positions_counted",
            "positions_scattered",
            "post_pass_evaluations",
            "fused_passes",
            "kernel_batches",
            "scratch_bytes_peak",
            "tasks_stolen",
            "subtree_splits",
            "bound_tightenings",
            "shards_built",
            "slice_sets_built",
            "shard_loads",
            "shard_evictions",
            "shard_resident_bytes_peak",
            "cancel_checks",
            "faults_injected",
            "spill_retries",
            "requests_served",
            "requests_shed",
            "cache_hits",
            "cache_coalesced",
            "elapsed",
        ],
        "MinerStats JSON schema changed — update consumers and this pin"
    );
    // The partition-engine counters are live, and it round-trips.
    let stats: social_ties::MinerStats = serde_json::from_slice(&out.stdout).unwrap();
    assert!(stats.partition_passes > 0);
    assert!(stats.scratch_bytes_peak > 0);
    assert_eq!(stats.fused_passes, 0, "no pass is pre-counted any more");
    assert_eq!(stats.kernel_batches, 0, "no pass counts in kernel batches");
    // The human report still arrives, on stderr.
    assert!(String::from_utf8_lossy(&out.stderr).contains("score="));

    // --stats-json refuses to share stdout with --json.
    let out = grmine()
        .args([
            "mine",
            path.to_str().unwrap(),
            "--min-supp",
            "3",
            "--stats-json",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(!out.stderr.is_empty());

    let run = |extra: &[&str]| {
        let mut a = vec![
            "mine",
            path.to_str().unwrap(),
            "--k",
            "5",
            "--min-supp",
            "3",
            "--stats-json",
        ];
        a.extend_from_slice(extra);
        let out = grmine().args(&a).output().unwrap();
        assert!(out.status.success());
        let stats: social_ties::MinerStats = serde_json::from_slice(&out.stdout).unwrap();
        (stats, String::from_utf8_lossy(&out.stderr).to_string())
    };
    let (_, seq_report) = run(&[]);

    // The parallel engine flags: `--threads` (alias of `--parallel`)
    // surfaces the engine settings on stderr in --stats-json mode and
    // must reproduce the sequential static report. The sequential run
    // never reports engine settings.
    assert!(!seq_report.contains("engine:"));
    let ranked = |report: &str| {
        report
            .lines()
            .filter(|l| !l.starts_with("engine:"))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let (seq_static, _) = run(&["--no-dynamic"]);
    let (par_stats, par_report) = run(&["--threads", "2", "--no-dynamic"]);
    assert!(par_report.contains("engine: threads=2 dynamic=false"));
    // The static enumeration is identical to sequential-static (the
    // dynamic sequential baseline prunes more).
    assert_eq!(par_stats.semantic(), seq_static.semantic());
    assert_eq!(
        ranked(&par_report),
        ranked(&seq_report),
        "parallel static report must match sequential"
    );
    // Dynamic parallel (the default) matches the static results too —
    // the exactness-verified post-pass at the CLI surface.
    let (dyn_stats, dyn_report) = run(&["--threads", "2"]);
    assert!(dyn_report.contains("engine: threads=2 dynamic=true"));
    assert_eq!(
        ranked(&dyn_report),
        ranked(&seq_report),
        "dynamic parallel results must match static"
    );
    // Work counters may differ under the bound, but never the results.
    assert!(dyn_stats.grs_examined <= par_stats.grs_examined);

    // Conflicting aliases are rejected.
    let out = grmine()
        .args([
            "mine",
            path.to_str().unwrap(),
            "--parallel",
            "2",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn cli_sharded_mine_matches_in_core() {
    let path = tmp("sharded.grm");
    assert!(grmine()
        .args(["gen", "dblp", path.to_str().unwrap(), "--scale", "0.05"])
        .output()
        .unwrap()
        .status
        .success());
    let run = |extra: &[&str]| -> Vec<social_ties::ScoredGr> {
        let mut args = vec![
            "mine",
            path.to_str().unwrap(),
            "--k",
            "5",
            "--min-supp",
            "5",
            "--json",
        ];
        args.extend_from_slice(extra);
        let out = grmine().args(&args).output().unwrap();
        assert!(out.status.success(), "{out:?}");
        serde_json::from_slice(&out.stdout).unwrap()
    };
    // The exactness anchor is the static sequential mine: sequential
    // *dynamic* may add extra entries (the documented generality corner
    // case), while the sharded engine — like the parallel one — verifies
    // its way back to the static Definition-5 output even with the
    // dynamic bound on.
    let plain = run(&["--no-dynamic"]);
    // Sharded runs — sequential, multi-worker, budgeted, dynamic and
    // static — all bit-identical to the in-core static mine.
    assert_eq!(plain, run(&["--shards", "3"]));
    assert_eq!(plain, run(&["--shards", "3", "--threads", "2"]));
    assert_eq!(plain, run(&["--shards", "2", "--no-dynamic"]));
    assert_eq!(
        plain,
        run(&["--shards", "3", "--memory-budget", "100000000"])
    );

    // The sharded engine echoes its settings (and the shard counters are
    // live) in --stats-json mode.
    let out = grmine()
        .args([
            "mine",
            path.to_str().unwrap(),
            "--k",
            "5",
            "--min-supp",
            "5",
            "--shards",
            "3",
            "--stats-json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("engine: sharded shards=3 threads=1 budget=none dynamic=true"),
        "got: {stderr}"
    );
    let stats: social_ties::MinerStats = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(stats.shards_built, 3);
    assert!(stats.shard_loads > 0);
    assert!(stats.shard_resident_bytes_peak > 0);
}

#[test]
fn cli_sharded_flag_validation() {
    let path = tmp("shardedflags.grm");
    assert!(grmine()
        .args(["gen", "dblp", path.to_str().unwrap(), "--scale", "0.03"])
        .output()
        .unwrap()
        .status
        .success());
    let p = path.to_str().unwrap();
    // Degenerate values, orphaned/conflicting flags, and metrics that
    // need a global RHS marginal are all rejected loudly.
    for bad in [
        vec!["mine", p, "--shards", "0"],
        vec!["mine", p, "--shards", "two"],
        vec!["mine", p, "--memory-budget", "1000000"],
        vec!["mine", p, "--shards", "2", "--memory-budget", "0"],
        vec!["mine", p, "--shards", "2", "--memory-budget", "lots"],
        vec!["mine", p, "--shards", "2", "--baseline-bl1"],
        vec![
            "mine",
            p,
            "--shards",
            "2",
            "--metric",
            "lift",
            "--min-score",
            "1.0",
        ],
    ] {
        let out = grmine().args(&bad).output().unwrap();
        assert!(!out.status.success(), "expected failure for {bad:?}");
        assert!(!out.stderr.is_empty(), "expected stderr for {bad:?}");
    }
    // An impossible budget fails *eagerly* — at pool construction, before
    // any worker runs — with the minimum viable budget in the message.
    let out = grmine()
        .args(["mine", p, "--shards", "2", "--memory-budget", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--memory-budget"), "got: {stderr}");
    assert!(stderr.contains("minimum viable budget"), "got: {stderr}");
}

#[test]
fn cli_rejects_bad_input() {
    assert!(!grmine()
        .args(["mine", "/nonexistent.grm"])
        .output()
        .unwrap()
        .status
        .success());
    assert!(!grmine()
        .args(["gen", "nope", "/tmp/x.grm"])
        .output()
        .unwrap()
        .status
        .success());
    assert!(!grmine().args(["bogus"]).output().unwrap().status.success());

    let path = tmp("badquery.grm");
    assert!(grmine()
        .args(["gen", "dblp", path.to_str().unwrap(), "--scale", "0.03"])
        .output()
        .unwrap()
        .status
        .success());
    assert!(!grmine()
        .args(["query", path.to_str().unwrap(), "(Nope:1) -> (Area:DB)"])
        .output()
        .unwrap()
        .status
        .success());
}

#[test]
fn cli_rejects_malformed_flag_values() {
    let path = tmp("flags.grm");
    assert!(grmine()
        .args(["gen", "dblp", path.to_str().unwrap(), "--scale", "0.03"])
        .output()
        .unwrap()
        .status
        .success());

    // A present numeric flag with a bad, missing, or degenerate value
    // must fail loudly, not silently fall back to a default (or worse,
    // run a meaningless configuration: `--k 0` would select nothing,
    // `--min-supp 0` would disable support pruning, and negative values
    // must die in the unsigned parse).
    for bad in [
        vec!["mine", path.to_str().unwrap(), "--min-supp", "three"],
        vec!["mine", path.to_str().unwrap(), "--k", "many"],
        vec!["mine", path.to_str().unwrap(), "--min-score", "high"],
        vec!["mine", path.to_str().unwrap(), "--parallel", "all"],
        vec!["mine", path.to_str().unwrap(), "--k"],
        vec!["mine", path.to_str().unwrap(), "--k", "0"],
        vec!["mine", path.to_str().unwrap(), "--k", "-1"],
        vec!["mine", path.to_str().unwrap(), "--min-supp", "0"],
        vec!["mine", path.to_str().unwrap(), "--min-supp", "-3"],
        vec!["gen", "dblp", "/tmp/x.grm", "--scale", "big"],
        vec!["gen", "dblp", "/tmp/x.grm", "--scale", "0"],
        vec!["gen", "dblp", "/tmp/x.grm", "--seed", "yes"],
        vec!["mine", path.to_str().unwrap(), "--metric", "vibes"],
        // A flag the subcommand does not know, or a repeated one, would
        // otherwise be ignored and the run would use the default or the
        // first value.
        vec!["mine", path.to_str().unwrap(), "--kk", "5"],
        vec!["mine", path.to_str().unwrap(), "--k=5"],
        vec!["mine", path.to_str().unwrap(), "--k", "5", "--k", "7"],
        vec!["gen", "dblp", "/tmp/x.grm", "--k", "5"],
        // Removed flags are unknown flags now, with or without the
        // engine they used to configure.
        vec!["mine", path.to_str().unwrap(), "--no-fuse"],
        vec!["mine", path.to_str().unwrap(), "--no-kernel"],
        vec!["mine", path.to_str().unwrap(), "--split-depth", "2"],
        vec![
            "mine",
            path.to_str().unwrap(),
            "--threads",
            "2",
            "--split-depth",
            "2",
        ],
    ] {
        let out = grmine().args(&bad).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "expected a usage error for {bad:?}, got: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            !out.stderr.is_empty(),
            "expected a message on stderr for {bad:?}"
        );
    }

    // The daemon checks its flags before it loads the graph or binds, so
    // a misspelt flag exits 2 without a ready line. Bounded wait: a
    // daemon that accepted the flags would serve until killed.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_grmined"))
        .args([
            path.to_str().unwrap(),
            "--thread",
            "4",
            "--max-concurent",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while daemon.try_wait().unwrap().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = daemon.kill();
    let out = daemon.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "no ready line: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("`--thread`"));
}

#[test]
fn cli_threads_zero_is_documented_auto_detect() {
    // `--threads 0` means "auto-detect available parallelism" — a
    // documented degenerate value, not an error and never a panic. The
    // engine echo reports it as `auto`.
    let path = tmp("threads0.grm");
    assert!(grmine()
        .args(["gen", "dblp", path.to_str().unwrap(), "--scale", "0.03"])
        .output()
        .unwrap()
        .status
        .success());
    let out = grmine()
        .args([
            "mine",
            path.to_str().unwrap(),
            "--k",
            "5",
            "--min-supp",
            "3",
            "--threads",
            "0",
            "--stats-json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "--threads 0 must run: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("engine: threads=auto"), "got: {stderr}");
}

#[test]
fn cli_timeout_cancels_each_engine_and_validates_strictly() {
    let path = tmp("timeout.grm");
    assert!(grmine()
        .args(["gen", "dblp", path.to_str().unwrap(), "--scale", "0.03"])
        .output()
        .unwrap()
        .status
        .success());
    let p = path.to_str().unwrap();

    // Malformed / conflicting uses fail loudly (exit 2, usage error).
    for bad in [
        vec!["mine", p, "--timeout", "soon"],
        vec!["mine", p, "--timeout", "-5"],
        vec!["mine", p, "--timeout"],
        vec!["mine", p, "--timeout", "100", "--baseline-bl1"],
        vec!["mine", p, "--timeout", "100", "--baseline-bl2"],
    ] {
        let out = grmine().args(&bad).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "expected usage error for {bad:?}"
        );
        assert!(!out.stderr.is_empty(), "expected stderr for {bad:?}");
    }

    // `--timeout 0` is an already-expired deadline: every cancellable
    // engine must return the typed cancellation (exit 1, "cancelled" on
    // stderr) instead of panicking or mining to completion.
    for engine in [
        vec![],
        vec!["--threads", "2"],
        vec!["--shards", "2"],
        vec!["--shards", "2", "--threads", "2"],
    ] {
        let mut args = vec!["mine", p, "--min-supp", "3", "--timeout", "0"];
        args.extend_from_slice(&engine);
        let out = grmine().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "engine {engine:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cancelled"), "engine {engine:?}: {stderr}");
    }

    // In --stats-json mode a cancelled mine still honors the stdout
    // contract: one JSON document with the drained partial counters.
    let out = grmine()
        .args([
            "mine",
            p,
            "--min-supp",
            "3",
            "--timeout",
            "0",
            "--stats-json",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let partial: social_ties::MinerStats = serde_json::from_slice(&out.stdout).unwrap();
    assert!(partial.cancel_checks > 0, "the drain carried its counters");

    // A generous deadline changes nothing: same results as no deadline.
    let run = |extra: &[&str]| -> Vec<social_ties::ScoredGr> {
        let mut args = vec!["mine", p, "--k", "5", "--min-supp", "3", "--json"];
        args.extend_from_slice(extra);
        let out = grmine().args(&args).output().unwrap();
        assert!(out.status.success(), "{out:?}");
        serde_json::from_slice(&out.stdout).unwrap()
    };
    assert_eq!(run(&[]), run(&["--timeout", "600000"]));
}

#[test]
fn cli_rejects_corrupt_graph_file() {
    // A non-graph, a header claiming 4e18 nodes (once an 8 EB
    // allocation and an abort), and an edge endpoint past the u32 id
    // space (once truncated onto node 0): each is a typed parse error.
    // A schema wider than the miner's 64-attribute bitmask (once a panic
    // in `mine` after `info` had printed it) is a typed schema error.
    let wide: String = (0..65).map(|i| format!("NODEATTR\tA{i}\t2\tn\n")).collect();
    let wide = format!(
        "GRMGRAPH\t1\n{wide}NODES\t1\n{}\nEDGES\t0\n",
        ["1"; 65].join("\t")
    );
    for (name, text, message) in [
        (
            "corrupt.grm",
            "this is not a GRMGRAPH file\n",
            "parse error",
        ),
        (
            "huge-nodes.grm",
            "GRMGRAPH\t1\nNODEATTR\tA\t2\tn\nNODES\t4000000000000000000\n1\n",
            "parse error",
        ),
        (
            "wide-endpoint.grm",
            "GRMGRAPH\t1\nNODEATTR\tA\t2\tn\nNODES\t2\n1\n2\nEDGES\t1\n4294967296\t1\n",
            "parse error",
        ),
        (
            "wide-schema.grm",
            wide.as_str(),
            "schema declares 65 node attributes; at most 64 are supported",
        ),
    ] {
        let path = tmp(name);
        std::fs::write(&path, text).unwrap();
        for cmd in ["mine", "info"] {
            let out = grmine()
                .args([cmd, path.to_str().unwrap()])
                .output()
                .unwrap();
            assert!(!out.status.success(), "{cmd} accepted {name}");
            assert!(!out.stderr.is_empty());
            assert_eq!(out.status.code(), Some(1), "{cmd} {name}: {out:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(message), "{cmd} {name}: {err}");
        }
    }
}

#[test]
fn cli_parallel_and_baseline_modes_agree() {
    let path = tmp("modes.grm");
    assert!(grmine()
        .args(["gen", "dblp", path.to_str().unwrap(), "--scale", "0.05"])
        .output()
        .unwrap()
        .status
        .success());
    let run = |extra: &[&str]| -> Vec<social_ties::ScoredGr> {
        let mut args = vec![
            "mine",
            path.to_str().unwrap(),
            "--k",
            "5",
            "--min-supp",
            "5",
            "--no-dynamic",
            "--json",
        ];
        args.extend_from_slice(extra);
        let out = grmine().args(&args).output().unwrap();
        assert!(out.status.success());
        serde_json::from_slice(&out.stdout).unwrap()
    };
    let plain = run(&[]);
    let parallel = run(&["--parallel", "2"]);
    let bl1 = run(&["--baseline-bl1"]);
    let bl2 = run(&["--baseline-bl2"]);
    let keys = |v: &[social_ties::ScoredGr]| -> Vec<(social_ties::Gr, u64)> {
        v.iter().map(|x| (x.gr.clone(), x.supp)).collect()
    };
    assert_eq!(keys(&plain), keys(&parallel));
    assert_eq!(keys(&plain), keys(&bl1));
    assert_eq!(keys(&plain), keys(&bl2));
}
