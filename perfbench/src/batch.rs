//! The batch workloads: in-core mines (`mine-inmem`) and spill-and-mine
//! through the out-of-core engine (`mine-outofcore`), both on the
//! scale-1.0 Pokec-like fixture at the default config (nhp,
//! minSupp = |E|/1000, k = 100).

use crate::fixture::{self, PROBES};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{peak_rss_mb, Outcome, Run};
use grm_core::parallel::{try_mine_parallel_with_opts, ParallelOptions};
use grm_core::{
    mine_sharded, Dims, GrMiner, MineResult, MinerConfig, MinerError, MinerStats, MiningContext,
    ScoredGr, ShardedOptions,
};
use grm_graph::shard::{ShardPool, ShardStore};
use grm_graph::{CompactModel, SocialGraph};
use std::path::Path;

const SCALE: f64 = 1.0;
const K: usize = 100;

/// The default nhp config at threshold `min_nhp`.
pub fn default_config(graph: &SocialGraph, min_nhp: f64) -> MinerConfig {
    MinerConfig::nhp((graph.edge_count() as u64 / 1000).max(1), min_nhp, K)
}

/// The Definition-5 top-k of `cfg`, by the static sequential engine.
pub fn reference(graph: &SocialGraph, cfg: &MinerConfig) -> Result<Vec<ScoredGr>, String> {
    GrMiner::new(graph, cfg.clone().without_dynamic_topk())
        .try_mine()
        .map(|r| r.top)
        .map_err(|e| format!("reference mine: {e}"))
}

/// Count one mine against its reference; the stats of a correct one.
fn check(
    out: &mut Outcome,
    what: &str,
    got: Result<MineResult, MinerError>,
    want: &[ScoredGr],
) -> Option<MinerStats> {
    match got {
        Ok(r) if r.top == want => {
            out.check(true, String::new);
            Some(r.stats)
        }
        Ok(_) => {
            out.check(false, || {
                format!("{what}: top-k differs from the reference")
            });
            None
        }
        Err(e) => {
            out.check(false, || format!("{what}: {e}"));
            None
        }
    }
}

fn two_workers() -> ParallelOptions {
    ParallelOptions {
        threads: 2,
        ..ParallelOptions::default()
    }
}

/// Time `MiningContext::build` and an in-core `GrMiner::try_mine` of
/// `cfg` [`PROBES`] times, outside the measured cycles.
pub fn probe_in_core(
    tracer: &mut Tracer,
    graph: &SocialGraph,
    cfg: &MinerConfig,
) -> Option<MinerStats> {
    let mut stats = None;
    for _ in 0..PROBES {
        tracer.next_op();
        tracer.time("context.build", |_| {
            MiningContext::build(graph, cfg.metric.needs_r_marginal())
        });
        stats = tracer
            .time("miner.try_mine", |_| {
                GrMiner::new(graph, cfg.clone()).try_mine()
            })
            .0
            .ok()
            .map(|r| r.stats);
    }
    stats
}

/// `context.*` and `miner.*` from the spans and the sequential stats.
pub fn miner_layers(tracer: &Tracer, out: &mut Outcome, seq: &MinerStats) {
    let build = median(&tracer.values("context.build", false));
    let self_s = median(&tracer.values("miner.try_mine", false)) - build;
    let grs = seq.grs_examined as f64;
    let m = &mut out.metrics;
    m.insert("context.build_s", build);
    m.insert("miner.self_s", self_s);
    m.insert("miner.grs_examined", grs);
    m.insert("miner.partitions_examined", seq.partitions_examined as f64);
    m.insert("miner.partition_passes", seq.partition_passes as f64);
    m.insert("miner.fused_passes", seq.fused_passes as f64);
    m.insert("miner.kernel_batches", seq.kernel_batches as f64);
    m.insert("miner.scratch_bytes_peak", seq.scratch_bytes_peak as f64);
    if grs > 0.0 {
        m.insert("miner.accept_ratio", seq.accepted as f64 / grs);
        m.insert("miner.ns_per_gr", self_s * 1e9 / grs);
    }
}

pub fn mine_inmem(run: &Run, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let fx = fixture::set_up(run, tracer, &mut out, SCALE, |_, _| Ok(()))?;
    let g = &fx.graph;
    let dims = Dims::all(g.schema());
    let (hi, lo) = (default_config(g, 0.5), default_config(g, 0.2));
    let (want_hi, want_lo) = (reference(g, &hi)?, reference(g, &lo)?);
    let mut last: [Option<MinerStats>; 3] = Default::default();
    fixture::cycles(run, tracer, &mut out, |t, out| {
        let (got, secs) = t.time("miner.try_mine", |_| GrMiner::new(g, hi.clone()).try_mine());
        out.sample("mine_seq_s", secs);
        last[0] = check(out, "sequential mine at minNhp 0.5", got, &want_hi);
        let (got, secs) = t.time("parallel.mine", |_| {
            try_mine_parallel_with_opts(g, &hi, &dims, two_workers())
        });
        out.sample("mine_par_s", secs);
        last[1] = check(out, "2-worker mine at minNhp 0.5", got, &want_hi);
        let (got, secs) = t.time("parallel.mine_low", |_| {
            try_mine_parallel_with_opts(g, &lo, &dims, two_workers())
        });
        out.sample("mine_par_low_s", secs);
        last[2] = check(out, "2-worker mine at minNhp 0.2", got, &want_lo);
        Ok(())
    })?;
    out.metrics.insert("peak_rss_mb", peak_rss_mb("self")?);
    if !run.trace {
        return Ok(out);
    }

    for _ in 0..PROBES {
        tracer.next_op();
        tracer.time("context.build", |_| {
            MiningContext::build(g, hi.metric.needs_r_marginal())
        });
    }
    fixture::setup_layers(tracer, &mut out, &fx);
    let [Some(seq), Some(par), Some(low)] = last else {
        return Ok(out);
    };
    miner_layers(tracer, &mut out, &seq);
    let build = out.metrics["context.build_s"];
    let cell = |name| median(&tracer.values(name, false));
    let (seq_s, par_s, low_s) = (
        cell("miner.try_mine"),
        cell("parallel.mine"),
        cell("parallel.mine_low"),
    );
    let m = &mut out.metrics;
    m.insert("mine_seq_s", seq_s);
    m.insert("mine_par_s", par_s);
    m.insert("mine_par_low_s", low_s);
    m.insert("parallel.self_s", par_s - build);
    m.insert("parallel.low.self_s", low_s - build);
    m.insert("parallel.speedup", (seq_s - build) / (par_s - build));
    m.insert(
        "parallel.tasks_stolen",
        (par.tasks_stolen + low.tasks_stolen) as f64,
    );
    m.insert(
        "parallel.subtree_splits",
        (par.subtree_splits + low.subtree_splits) as f64,
    );
    m.insert(
        "parallel.bound_tightenings",
        (par.bound_tightenings + low.bound_tightenings) as f64,
    );
    m.insert(
        "parallel.dup_pass_ratio",
        par.partition_passes as f64 / seq.partition_passes.max(1) as f64,
    );
    Ok(out)
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                _ => e.metadata().map_or(0, |m| m.len()),
            })
            .sum()
    })
}

fn spill(graph: &SocialGraph, dir: &Path, shards: usize) -> Result<ShardStore, String> {
    let _ = std::fs::remove_dir_all(dir);
    ShardStore::build_from_graph(graph, dir, shards, CompactModel::MAX_EDGES)
        .map_err(|e| format!("spill to {}: {e}", dir.display()))
}

/// A resident-set budget that holds the two largest of four shards, so
/// the pool must evict.
fn half_budget(graph: &SocialGraph, dir: &Path) -> Result<u64, String> {
    let store = spill(graph, dir, 4)?;
    let pool = ShardPool::new(&store, None).map_err(|e| format!("shard pool: {e}"))?;
    let mut costs: Vec<u64> = (0..store.shard_count())
        .map(|s| pool.shard_cost(s))
        .collect();
    costs.sort_unstable_by(|a, b| b.cmp(a));
    drop(pool);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(costs.iter().take(2).sum())
}

/// One spill-and-mine cell of `mine-outofcore`, with its span names.
struct ShardCell {
    metric: &'static str,
    span: &'static str,
    spill: &'static str,
    mine: &'static str,
    shards: usize,
    opts: ShardedOptions,
}

pub fn mine_outofcore(run: &Run, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let fx = fixture::set_up(run, tracer, &mut out, SCALE, |_, _| Ok(()))?;
    let g = &fx.graph;
    let cfg = default_config(g, 0.5);
    let want = reference(g, &cfg)?;
    let dir = run.work.join("shards");
    let budget = half_budget(g, &dir)?;
    let cells = [
        ShardCell {
            metric: "mine_sharded_s",
            span: "cell.sharded",
            spill: "shard.spill",
            mine: "sharded.mine",
            shards: 4,
            opts: ShardedOptions {
                threads: 2,
                memory_budget: Some(budget),
            },
        },
        ShardCell {
            metric: "mine_sharded_fit_s",
            span: "cell.sharded_fit",
            spill: "shard.spill_fit",
            mine: "sharded.mine_fit",
            shards: 1,
            opts: ShardedOptions {
                threads: 1,
                memory_budget: None,
            },
        },
    ];
    let mut last: [Option<MinerStats>; 2] = Default::default();
    let mut spill_bytes = 0;
    fixture::cycles(run, tracer, &mut out, |t, out| {
        for (i, c) in cells.iter().enumerate() {
            let (got, secs) = t.time(c.span, |t| -> Result<_, String> {
                let store = t.time(c.spill, |_| spill(g, &dir, c.shards)).0?;
                if i == 0 {
                    spill_bytes = dir_bytes(&dir);
                }
                Ok(t.time(c.mine, |_| mine_sharded(&store, &cfg, &c.opts)).0)
            });
            out.sample(c.metric, secs);
            let what = format!("{}-shard {}-worker mine", c.shards, c.opts.threads);
            last[i] = check(out, &what, got?, &want);
        }
        Ok(())
    })?;
    out.metrics.insert("peak_rss_mb", peak_rss_mb("self")?);
    if !run.trace {
        let _ = std::fs::remove_dir_all(&dir);
        return Ok(out);
    }

    let store = spill(g, &dir, 4)?;
    let mut load_s = 0.0;
    for _ in 0..PROBES {
        tracer.next_op();
        for s in 0..store.shard_count() {
            let (loaded, secs) = tracer.time("shard.load_shard", |_| store.load_shard(s));
            loaded.map_err(|e| format!("load shard {s}: {e}"))?;
            load_s += secs / PROBES as f64;
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let seq = probe_in_core(tracer, g, &cfg);
    fixture::setup_layers(tracer, &mut out, &fx);
    if let Some(seq) = &seq {
        miner_layers(tracer, &mut out, seq);
    }
    let in_core = median(&tracer.values("miner.try_mine", false));
    let cell = |name, self_time| median(&tracer.values(name, self_time));
    let fit_self = cell("sharded.mine_fit", true);
    let m = &mut out.metrics;
    m.insert("mine_sharded_s", cell("cell.sharded", false));
    m.insert("mine_sharded_fit_s", cell("cell.sharded_fit", false));
    m.insert("shard.spill_s", cell("shard.spill", true));
    m.insert("shard.spill_bytes", spill_bytes as f64);
    m.insert("shard.load_s", load_s);
    m.insert("sharded.self_s", cell("sharded.mine", true));
    m.insert("sharded.fit.self_s", fit_self);
    if in_core > 0.0 {
        m.insert("sharded.overhead", fit_self / in_core);
    }
    if let Some(st) = &last[0] {
        m.insert("shard.loads", st.shard_loads as f64);
        m.insert("shard.evictions", st.shard_evictions as f64);
        m.insert("shard.reload_ratio", (st.shard_loads as f64 - 4.0) / 4.0);
        m.insert(
            "shard.resident_peak_bytes",
            st.shard_resident_bytes_peak as f64,
        );
    }
    Ok(out)
}
