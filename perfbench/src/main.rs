//! `perfbench` — the repository's benchmark: one workload, one seed, one
//! JSON result line.
//!
//! ```text
//! python3 perfbench/run.py --workload <mine-inmem|mine-outofcore|serve-mixed>
//!                          --seed N --seconds S --trace 0|1
//! ```
//!
//! `run.py` builds the release `grmined` and this harness from source and
//! passes `--grmined` and `--work` on to the binary. Every workload makes
//! its inputs from the seed with the Pokec-like generator, checks every
//! answer against a reference computed in-process, and prints, as the
//! last stdout line, `{"correct", "attempted", "failed", "metrics"}`. An
//! untraced run (`--trace 0`) reports the [`END_TO_END`] metrics; a
//! traced run (`--trace 1`) reports the [`PER_LAYER`] metrics, which are
//! zero for a layer the workload does not call. The line before it
//! carries provenance and every timing's median, sample count and tail.
//! Any wrong answer makes the exit code 1.

mod batch;
mod calib;
mod fixture;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics `(name, unit)`; every workload reports each.
/// `setup_s` is the median of the set-ups (generate, write and load the
/// fixture; for serve-mixed also start `grmined` up to its ready line);
/// `cycle_s` the median time of one pass over a batch workload's mines,
/// or serve-mixed's wall time per 100 answered requests; `peak_rss_mb` the
/// VmHWM of the mining process (this harness, or `grmined`). `setup_s`
/// and the batch `cycle_s` are host-adjusted seconds ([`calib`]).
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("cycle_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics `(name, unit)` of the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mine_seq_s", "s"),
    ("mine_par_s", "s"),
    ("mine_par_low_s", "s"),
    ("mine_sharded_s", "s"),
    ("mine_sharded_fit_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("mine_hit_p50_ms", "ms"),
    ("mine_cold_p50_ms", "ms"),
    ("serve_rps", "req/s"),
    ("fail_frac", "ratio"),
    ("datagen.generate_s", "s"),
    ("io.write_s", "s"),
    ("io.load_s", "s"),
    ("io.bytes_per_s", "B/s"),
    ("daemon.spawn_s", "s"),
    ("context.build_s", "s"),
    ("miner.self_s", "s"),
    ("miner.grs_examined", "count"),
    ("miner.partitions_examined", "count"),
    ("miner.partition_passes", "count"),
    ("miner.fused_passes", "count"),
    ("miner.kernel_batches", "count"),
    ("miner.scratch_bytes_peak", "B"),
    ("miner.accept_ratio", "ratio"),
    ("miner.ns_per_gr", "ns"),
    ("parallel.self_s", "s"),
    ("parallel.low.self_s", "s"),
    ("parallel.speedup", "ratio"),
    ("parallel.tasks_stolen", "count"),
    ("parallel.subtree_splits", "count"),
    ("parallel.bound_tightenings", "count"),
    ("parallel.dup_pass_ratio", "ratio"),
    ("shard.spill_s", "s"),
    ("shard.spill_bytes", "B"),
    ("shard.load_s", "s"),
    ("shard.loads", "count"),
    ("shard.evictions", "count"),
    ("shard.reload_ratio", "ratio"),
    ("shard.resident_peak_bytes", "B"),
    ("sharded.self_s", "s"),
    ("sharded.fit.self_s", "s"),
    ("sharded.overhead", "ratio"),
    ("query.parse_us", "us"),
    ("query.evaluate_ms", "ms"),
    ("service.query_ms", "ms"),
    ("service.mine_hit_ms", "ms"),
    ("service.stats_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_coalesced", "count"),
    ("service.requests_shed", "count"),
    ("transport.stats_ms", "ms"),
    ("transport.query_ms", "ms"),
    ("host.calib_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

pub const WORKLOADS: &[&str] = &["mine-inmem", "mine-outofcore", "serve-mixed"];

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; per-layer names absent here print as 0.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Raw samples behind each timing, for the report line.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub nodes: usize,
    pub edges: usize,
}

impl Outcome {
    /// Count one checked operation; a wrong or failed one is logged.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: FAILED {}", what());
            }
        }
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }
}

/// Everything a workload needs from the command line.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
    pub grmined: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 --grmined PATH --work DIR",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    Some(
        args.get(i + 1)
            .unwrap_or_else(|| usage(&format!("{name} needs a value"))),
    )
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> T {
    let raw = flag(args, name).unwrap_or_else(|| usage(&format!("missing {name}")));
    raw.parse()
        .unwrap_or_else(|_| usage(&format!("bad value `{raw}` for {name}")))
}

/// VmHWM (peak resident set) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("string serialization is infallible")
}

/// The report line: provenance plus each timing's median, count and tail.
fn report_line(workload: &str, run: &Run, out: &Outcome, root: &Path) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut timings = Vec::new();
    for (name, samples) in &out.samples {
        if let Some(s) = stats::summarize(samples) {
            let tail = s.tail.map_or("null".to_string(), |(p, v)| {
                format!("{{\"pct\":{p},\"value\":{v}}}")
            });
            timings.push(format!(
                "{}:{{\"median\":{},\"n\":{},\"tail\":{tail}}}",
                json_str(name),
                s.median,
                s.n
            ));
        }
    }
    format!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"git_commit\":{},\"fixture_nodes\":{},\"fixture_edges\":{}}},\"timings\":{{{}}}}}",
        json_str(workload),
        run.seed,
        run.seconds,
        run.trace,
        json_str(&cpu),
        json_str(&command_line("rustc", &["--version"], root)),
        json_str(&command_line("git", &["rev-parse", "HEAD"], root)),
        out.nodes,
        out.edges,
        timings.join(",")
    )
}

/// The final line: exactly the metric set of the run's mode.
fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("workload did not measure `{name}`")),
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {value}"));
        }
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = flag(&args, "--workload").unwrap_or_else(|| usage("missing --workload"));
    if !WORKLOADS.contains(&workload) {
        usage(&format!("unknown workload `{workload}`"));
    }
    let trace = match flag(&args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => usage(&format!("--trace takes 0 or 1, not `{other}`")),
    };
    let seconds: f64 = parse(&args, "--seconds");
    if !(seconds.is_finite() && seconds > 0.0) {
        usage("--seconds must be positive");
    }
    let work: PathBuf = parse(&args, "--work");
    let run = Run {
        seed: parse(&args, "--seed"),
        seconds,
        trace,
        work: work.join(format!("{workload}-{}", std::process::id())),
        grmined: parse(&args, "--grmined"),
    };
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if let Err(e) = std::fs::create_dir_all(&run.work) {
        eprintln!("perfbench: cannot create {}: {e}", run.work.display());
        std::process::exit(1);
    }

    let mut tracer = Tracer::new(run.trace, Instant::now());
    let outcome = match workload {
        "mine-inmem" => batch::mine_inmem(&run, &mut tracer),
        "mine-outofcore" => batch::mine_outofcore(&run, &mut tracer),
        _ => serve::serve_mixed(&run, &mut tracer),
    };
    let _ = std::fs::remove_dir_all(&run.work);
    let mut out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    };
    let calib = stats::median(out.samples.get("calib_s").map_or(&[][..], Vec::as_slice));
    out.metrics.insert("host.calib_s", calib);
    if trace {
        let path = work.join(format!("trace-{workload}-seed{}.jsonl", run.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans in {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", report_line(workload, &run, &out, &root));
    match result_line(&out, trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if out.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed",
            out.failed, out.attempted
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(seen.insert(name), "metric `{name}` listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit `{unit}`");
        }
    }

    fn field<'a>(map: &'a [(String, Content)], key: &str) -> &'a Content {
        &map.iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no `{key}`"))
            .1
    }

    fn names(doc: &[(String, Content)], key: &str) -> Vec<(String, String)> {
        let Content::Seq(items) = field(doc, key) else {
            panic!("`{key}` is not a list")
        };
        items
            .iter()
            .map(|m| {
                let Content::Map(m) = m else {
                    panic!("metric is not an object")
                };
                let (Content::Str(n), Content::Str(u)) = (field(m, "name"), field(m, "unit"))
                else {
                    panic!("metric name/unit are not strings")
                };
                (n.clone(), u.clone())
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_command_prints() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let Content::Map(doc) = serde_json::from_str::<Content>(&text).unwrap() else {
            panic!("BENCHMARK.json is not an object")
        };
        assert_eq!(names(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), owned(PER_LAYER));
        let Content::Seq(ws) = field(&doc, "workloads") else {
            panic!("no workloads")
        };
        let listed: Vec<&Content> = ws
            .iter()
            .map(|w| match w {
                Content::Map(m) => field(m, "name"),
                _ => panic!("workload is not an object"),
            })
            .collect();
        let expected: Vec<Content> = WORKLOADS
            .iter()
            .map(|w| Content::Str(w.to_string()))
            .collect();
        assert_eq!(listed, expected.iter().collect::<Vec<_>>());
    }

    #[test]
    fn result_line_prints_exactly_the_mode_metrics() {
        let mut out = Outcome::default();
        for &(name, _) in END_TO_END {
            out.metrics.insert(name, 1.5);
        }
        out.attempted = 3;
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let line = result_line(&out, trace).unwrap();
            let Content::Map(doc) = serde_json::from_str::<Content>(&line).unwrap() else {
                panic!("result line is not an object")
            };
            let keys: Vec<&str> = doc.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Content::Map(metrics) = field(&doc, "metrics") else {
                panic!("no metrics")
            };
            let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let listed: Vec<&str> = table.iter().map(|&(n, _)| n).collect();
            assert_eq!(printed, listed);
        }
        out.metrics.remove("cycle_s");
        assert!(result_line(&out, false).is_err());
    }
}
