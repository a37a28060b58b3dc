//! `serve-mixed`: the release `grmined` on a seeded scale-0.1 Pokec-like
//! fixture (`--threads 2`, one admission slot, an 8-entry result cache),
//! driven over TCP by two closed-loop clients (each sends its next
//! request only after the previous answer arrived).
//!
//! Each client draws a seeded mix: ~85% `query` over a pool of GRs with
//! narrow and wide descriptors, ~12% `mine` drawn with Zipf skew from 24
//! configs (more than the daemon's result cache holds, so hits, cold
//! mines and coalescing all recur), ~3% `stats`/`schema`. Requests go
//! out in one write on a `TCP_NODELAY` socket and nothing else is tuned,
//! so latencies are what a stock client sees. Every answer is checked:
//! query measures against in-process `query::evaluate`, mine top-k
//! against the static sequential engine.

use crate::batch::{default_config, miner_layers, probe_in_core};
use crate::fixture::{self, PROBES};
use crate::stats::{capped_percentile, median};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Outcome, Run};
use grm_core::{
    parse_gr, query, EdgeDescriptor, Gr, GrMiner, MinerConfig, NodeDescriptor, RankMetric, Service,
    ServiceConfig,
};
use grm_graph::{io, NodeAttrId, SocialGraph};
use serde::{to_content, Content};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SCALE: f64 = 0.1;
const CLIENTS: usize = 2;
/// Mining threads per mine; with one admission slot, at most this many
/// mining threads run at once, matching a 2-core host.
const WORKERS: usize = 2;
const SLOTS: usize = 1;
/// Result-cache entries in the daemon: fewer than the mine configs.
const CACHE: usize = 8;
const QUERY_POOL: usize = 64;
/// Requests each client sends before the measured traffic starts.
const WARMUP_REQUESTS: usize = 10;
/// `cycle_s` of this workload is the wall time per this many answers. It
/// is not host-adjusted ([`crate::calib`]): answers wait mostly on TCP
/// timers, which do not slow down with the CPU.
const CYCLE_REQUESTS: f64 = 100.0;

/// Semantic mine configs `(metric, k, min_score)`; each is requested with
/// 1 and with 2 threads, in popularity order.
const MINES: [(&str, usize, f64); 12] = [
    ("nhp", 100, 0.5),
    ("nhp", 10, 0.3),
    ("conf", 50, 0.5),
    ("nhp", 20, 0.4),
    ("conf", 10, 0.3),
    ("nhp", 50, 0.6),
    ("nhp", 100, 0.3),
    ("conf", 100, 0.6),
    ("nhp", 10, 0.6),
    ("conf", 20, 0.4),
    ("nhp", 50, 0.4),
    ("nhp", 20, 0.5),
];

/// splitmix64: small, seedable, and the same on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Query,
    MineHit,
    MineCold,
    Stats,
    Schema,
}

/// The request pools and the answer each request must get.
struct Pools {
    /// `(request gr text, expected gr display, expected measures JSON)`.
    queries: Vec<(String, String, String)>,
    /// `(request body fields, index into `mine_answers`)`, popularity order.
    mines: Vec<(String, usize)>,
    mine_answers: Vec<String>,
    /// Cumulative Zipf weights over `mines`.
    zipf: Vec<f64>,
    nodes: u64,
    edges: u64,
}

fn json(c: &Content) -> String {
    serde_json::to_string(c).expect("content serialization is infallible")
}

/// The config the daemon builds for a `mine` request without `min_supp`,
/// made static: the reference engine.
fn mine_config(
    graph: &SocialGraph,
    metric: &str,
    k: usize,
    min_score: f64,
) -> Result<MinerConfig, String> {
    let metric = RankMetric::from_name(metric).ok_or_else(|| format!("unknown metric {metric}"))?;
    Ok(MinerConfig {
        min_supp: (graph.edge_count() as u64 / 1000).max(1),
        min_score,
        k,
        dynamic_topk: false,
        ..MinerConfig::default()
    }
    .with_metric(metric))
}

/// A random descriptor over `width` distinct node attributes.
fn descriptor(graph: &SocialGraph, rng: &mut Rng, width: usize) -> NodeDescriptor {
    let schema = graph.schema();
    let mut attrs: Vec<u8> = (0..schema.node_attr_count() as u8).collect();
    let mut pairs = Vec::new();
    for _ in 0..width.min(attrs.len()) {
        let a = NodeAttrId(attrs.swap_remove(rng.below(attrs.len())));
        let domain = schema.node_attr(a).domain_size() as usize;
        pairs.push((a, 1 + rng.below(domain) as u16));
    }
    NodeDescriptor::from_pairs(pairs)
}

fn pools(graph: &SocialGraph, seed: u64) -> Result<Pools, String> {
    let schema = graph.schema();
    let mut rng = Rng(seed ^ 0x0005_EED0_F9E7);
    let mut queries = Vec::with_capacity(QUERY_POOL);
    for i in 0..QUERY_POOL {
        let (lw, rw) = if i % 2 == 0 { (1, 1) } else { (3, 2) };
        let gr = Gr::new(
            descriptor(graph, &mut rng, lw),
            EdgeDescriptor::empty(),
            descriptor(graph, &mut rng, rw),
        );
        let text = gr.display(schema);
        let parsed = parse_gr(schema, &text).map_err(|e| format!("pool GR `{text}`: {e}"))?;
        let measures = json(&to_content(&query::evaluate(graph, &parsed)));
        queries.push((text, parsed.display(schema), measures));
    }
    let mut mine_answers = Vec::new();
    for &(metric, k, score) in &MINES {
        let cfg = mine_config(graph, metric, k, score)?;
        let top = GrMiner::new(graph, cfg)
            .try_mine()
            .map_err(|e| format!("reference mine: {e}"))?
            .top;
        mine_answers.push(json(&to_content(&top)));
    }
    let mut mines = Vec::new();
    for (i, &(metric, k, score)) in MINES.iter().enumerate() {
        for threads in [1, 2] {
            mines.push((
                format!(
                    "\"metric\":\"{metric}\",\"k\":{k},\"min_score\":{score},\"threads\":{threads}"
                ),
                i,
            ));
        }
    }
    let zipf = (0..mines.len())
        .scan(0.0, |acc, i| {
            *acc += 1.0 / (i + 1) as f64;
            Some(*acc)
        })
        .collect();
    Ok(Pools {
        queries,
        mines,
        mine_answers,
        zipf,
        nodes: graph.node_count() as u64,
        edges: graph.edge_count() as u64,
    })
}

/// The request a client sends next: `(line, kind, pool index)`.
fn draw(pools: &Pools, rng: &mut Rng, id: u64) -> (String, Kind, usize) {
    let u = rng.unit();
    if u < 0.85 {
        let i = rng.below(pools.queries.len());
        let gr = serde_json::to_string(pools.queries[i].0.as_str())
            .expect("string serialization is infallible");
        (
            format!("{{\"id\":{id},\"type\":\"query\",\"gr\":{gr}}}\n"),
            Kind::Query,
            i,
        )
    } else if u < 0.97 {
        let total = pools.zipf.last().copied().unwrap_or(0.0);
        let x = rng.unit() * total;
        let i = pools
            .zipf
            .iter()
            .position(|&c| x < c)
            .unwrap_or(pools.zipf.len() - 1);
        (
            format!("{{\"id\":{id},\"type\":\"mine\",{}}}\n", pools.mines[i].0),
            Kind::MineCold,
            i,
        )
    } else if u < 0.985 {
        (
            format!("{{\"id\":{id},\"type\":\"stats\"}}\n"),
            Kind::Stats,
            0,
        )
    } else {
        (
            format!("{{\"id\":{id},\"type\":\"schema\"}}\n"),
            Kind::Schema,
            0,
        )
    }
}

fn field<'a>(c: &'a Content, key: &str) -> Option<&'a Content> {
    match c {
        Content::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Check one response; the request's final kind (a mine is a hit when
/// answered from the cache) or why it is wrong.
fn verify(pools: &Pools, kind: Kind, index: usize, id: u64, line: &str) -> Result<Kind, String> {
    let doc: Content =
        serde_json::from_str(line).map_err(|e| format!("unparseable response: {e}"))?;
    if field(&doc, "id") != Some(&Content::U64(id)) {
        return Err(format!(
            "response to request {id} carries another id: {line}"
        ));
    }
    if field(&doc, "ok") != Some(&Content::Bool(true)) {
        return Err(format!("typed error: {line}"));
    }
    let result = field(&doc, "result").ok_or("response without result")?;
    match kind {
        Kind::Query => {
            let (_, gr, measures) = &pools.queries[index];
            let got_gr = field(result, "gr");
            let got = field(result, "measures").map(json);
            if got_gr != Some(&Content::Str(gr.clone())) || got.as_ref() != Some(measures) {
                return Err(format!("query `{gr}` answered {line}"));
            }
            Ok(Kind::Query)
        }
        Kind::MineCold | Kind::MineHit => {
            let want = &pools.mine_answers[pools.mines[index].1];
            if field(result, "top").map(json).as_ref() != Some(want) {
                return Err(format!(
                    "mine {{{}}}: top-k differs from the reference",
                    pools.mines[index].0
                ));
            }
            Ok(match field(result, "cached") {
                Some(Content::Bool(true)) => Kind::MineHit,
                _ => Kind::MineCold,
            })
        }
        Kind::Schema => {
            let counts = (field(result, "nodes"), field(result, "edges"));
            if counts
                != (
                    Some(&Content::U64(pools.nodes)),
                    Some(&Content::U64(pools.edges)),
                )
            {
                return Err(format!("schema reports other counts: {line}"));
            }
            Ok(Kind::Schema)
        }
        Kind::Stats => Ok(Kind::Stats),
    }
}

/// One answered request, as a client saw it.
struct Sample {
    kind: Kind,
    start: Instant,
    end: Instant,
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    attempted: u64,
    failures: Vec<String>,
}

/// A line-oriented connection: one write per request, one line back.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Conn { stream, reader })
    }

    /// Send `line` (newline included) and read the one-line answer.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut answer = String::new();
        match self.reader.read_line(&mut answer) {
            Ok(0) => Err("connection closed by the daemon".to_string()),
            Ok(_) => Ok(answer),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A closed-loop client: warm-up requests, then requests until `stop`.
fn client(addr: &str, pools: &Pools, seed: u64, conn_id: u64, stop: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.failures.push(e);
            return log;
        }
    };
    let mut rng = Rng(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ conn_id);
    let mut sent = 0;
    while sent < WARMUP_REQUESTS || Instant::now() < stop {
        let id = conn_id << 32 | sent as u64;
        let (line, kind, index) = draw(pools, &mut rng, id);
        let start = Instant::now();
        let answer = conn.call(&line);
        let end = Instant::now();
        log.attempted += 1;
        sent += 1;
        let answer = match answer {
            Ok(a) => a,
            Err(e) => {
                log.failures.push(e);
                break;
            }
        };
        match verify(pools, kind, index, id, answer.trim_end()) {
            Ok(kind) if sent > WARMUP_REQUESTS => log.samples.push(Sample { kind, start, end }),
            Ok(_) => {}
            Err(e) => log.failures.push(e),
        }
    }
    log
}

/// The daemon process; killed and reaped if dropped before a clean stop.
struct Daemon {
    child: Option<Child>,
    addr: String,
}

impl Daemon {
    fn spawn(grmined: &Path, fixture: &Path) -> Result<Self, String> {
        let mut child = Command::new(grmined)
            .arg(fixture)
            .args(["--threads", &WORKERS.to_string()])
            .args(["--max-concurrent", &SLOTS.to_string()])
            .args(["--cache", &CACHE.to_string()])
            // One malloc arena: otherwise the peak RSS depends on which
            // per-thread arenas the short-lived mining threads land on.
            // Over eight seeds on a 2-core host, the IQR of `peak_rss_mb`
            // was 13% of its median with the default arenas, 4% with one.
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", grmined.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
        };
        let mut ready = String::new();
        BufReader::new(stdout)
            .read_line(&mut ready)
            .map_err(|e| format!("read the ready line: {e}"))?;
        let doc: Content =
            serde_json::from_str(&ready).map_err(|e| format!("ready line `{ready}`: {e}"))?;
        match field(&doc, "addr") {
            Some(Content::Str(a)) => daemon.addr = a.clone(),
            _ => return Err(format!("ready line without addr: `{ready}`")),
        }
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Ask the daemon to shut down and wait for it; Ok if it exits 0.
    fn stop(mut self) -> Result<(), String> {
        let asked =
            Conn::open(&self.addr).and_then(|mut c| c.call("{\"id\":0,\"type\":\"shutdown\"}\n"));
        let mut child = self.child.take().expect("a live daemon has its child");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => break Err("daemon did not exit within 30 s of shutdown".to_string()),
                Err(e) => break Err(format!("wait for the daemon: {e}")),
            }
        };
        if status.is_err() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let status = status?;
        asked?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The daemon's service counters, from a `stats` request.
fn counters(addr: &str) -> Result<Content, String> {
    let answer = Conn::open(addr)?.call("{\"id\":1,\"type\":\"stats\"}\n")?;
    let doc: Content = serde_json::from_str(&answer).map_err(|e| format!("stats answer: {e}"))?;
    field(&doc, "result")
        .and_then(|r| field(r, "counters"))
        .cloned()
        .ok_or_else(|| format!("stats answer without counters: {answer}"))
}

fn count(c: &Content, key: &str) -> f64 {
    match field(c, key) {
        Some(Content::U64(v)) => *v as f64,
        _ => 0.0,
    }
}

pub fn serve_mixed(run: &Run, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut daemons = Vec::new();
    let fx = fixture::set_up(run, tracer, &mut out, SCALE, |path, t| {
        daemons.push(
            t.time("daemon.spawn", |_| Daemon::spawn(&run.grmined, path))
                .0?,
        );
        Ok(())
    })?;
    let daemon = daemons.pop().expect("set-up spawned a daemon");
    for d in daemons {
        d.stop()?;
    }
    let pools = pools(&fx.graph, run.seed)?;

    let started = Instant::now();
    let stop = started + Duration::from_secs_f64(run.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let (addr, pools) = (&daemon.addr, &pools);
                s.spawn(move || client(addr, pools, run.seed, c, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let counters = counters(&daemon.addr);
    let rss = peak_rss_mb(&daemon.pid());
    let stopped = daemon.stop();

    let mut lat: [Vec<f64>; 5] = Default::default();
    let (mut first, mut last) = (stop, started);
    for log in &logs {
        out.attempted += log.attempted - log.failures.len() as u64;
        for e in &log.failures {
            out.check(false, || e.clone());
        }
        for s in &log.samples {
            lat[s.kind as usize].push((s.end - s.start).as_secs_f64() * 1e3);
            first = first.min(s.start);
            last = last.max(s.end);
            tracer.next_op();
            tracer.record(span_name(s.kind), s.start, s.end);
        }
    }
    out.check(stopped.is_ok(), || {
        format!("daemon shutdown: {}", stopped.err().unwrap_or_default())
    });
    let counters = counters?;
    let answered: usize = lat.iter().map(Vec::len).sum();
    let window = (last - first).as_secs_f64();
    if answered == 0 || window <= 0.0 {
        return Err("no request was answered in the measured window".to_string());
    }
    for (kind, name) in [
        (Kind::Query, "query_ms"),
        (Kind::MineHit, "mine_hit_ms"),
        (Kind::MineCold, "mine_cold_ms"),
        (Kind::Stats, "stats_ms"),
        (Kind::Schema, "schema_ms"),
    ] {
        out.samples.insert(name, lat[kind as usize].clone());
    }
    let m = &mut out.metrics;
    m.insert("cycle_s", CYCLE_REQUESTS * window / answered as f64);
    m.insert("peak_rss_mb", rss?);
    if !run.trace {
        return Ok(out);
    }

    m.insert("query_p50_ms", median(&lat[Kind::Query as usize]));
    m.insert(
        "query_p99_ms",
        capped_percentile(&lat[Kind::Query as usize], 99.0),
    );
    m.insert("mine_hit_p50_ms", median(&lat[Kind::MineHit as usize]));
    m.insert("mine_cold_p50_ms", median(&lat[Kind::MineCold as usize]));
    m.insert("serve_rps", answered as f64 / window);
    m.insert("fail_frac", out.failed as f64 / out.attempted.max(1) as f64);
    // Client spans are built from timestamps every run takes, so tracing
    // adds nothing to the measured requests.
    m.insert("trace.overhead_frac", 0.0);
    let served = count(&counters, "requests_served");
    let hits = count(&counters, "cache_hits") + count(&counters, "cache_coalesced");
    m.insert(
        "service.cache_hit_ratio",
        if served > 0.0 { hits / served } else { 0.0 },
    );
    m.insert(
        "service.cache_coalesced",
        count(&counters, "cache_coalesced"),
    );
    m.insert("service.requests_shed", count(&counters, "requests_shed"));

    probe_layers(tracer, &mut out, &fx, &pools)?;
    Ok(out)
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Query => "request.query",
        Kind::MineHit => "request.mine_hit",
        Kind::MineCold => "request.mine_cold",
        Kind::Stats => "request.stats",
        Kind::Schema => "request.schema",
    }
}

/// In-process timings of the layers under the daemon: GR parsing and
/// evaluation, `Service::handle_line` without a socket, and the miner.
fn probe_layers(
    tracer: &mut Tracer,
    out: &mut Outcome,
    fx: &fixture::Fixture,
    pools: &Pools,
) -> Result<(), String> {
    let g = &fx.graph;
    for _ in 0..PROBES {
        tracer.next_op();
        for (text, _, _) in &pools.queries {
            let gr = tracer
                .time("query.parse_gr", |_| parse_gr(g.schema(), text))
                .0;
            let gr = gr.map_err(|e| format!("parse `{text}`: {e}"))?;
            tracer.time("query.evaluate", |_| query::evaluate(g, &gr));
        }
    }
    let graph = io::load_graph(&fx.path).map_err(|e| format!("load {}: {e}", fx.path.display()))?;
    let service = Service::new(
        graph,
        ServiceConfig {
            max_concurrent: SLOTS,
            cache_capacity: CACHE,
            threads: WORKERS,
            ..ServiceConfig::default()
        },
    );
    let conn = service.shutdown_token().child();
    let mine = format!("{{\"id\":1,\"type\":\"mine\",{}}}", pools.mines[0].0);
    let mut answers = vec![(Kind::MineCold, 0, 1, service.handle_line(&mine, &conn))];
    for _ in 0..PROBES {
        tracer.next_op();
        for (i, (text, _, _)) in pools.queries.iter().enumerate() {
            let gr =
                serde_json::to_string(text.as_str()).expect("string serialization is infallible");
            let line = format!("{{\"id\":2,\"type\":\"query\",\"gr\":{gr}}}");
            let answer = tracer
                .time("service.query", |_| service.handle_line(&line, &conn))
                .0;
            answers.push((Kind::Query, i, 2, answer));
            tracer.time("service.stats", |_| {
                service.handle_line("{\"id\":3,\"type\":\"stats\"}", &conn)
            });
        }
        for _ in 0..10 {
            let answer = tracer
                .time("service.mine_hit", |_| service.handle_line(&mine, &conn))
                .0;
            answers.push((Kind::MineHit, 0, 1, answer));
        }
    }
    for (kind, index, id, answer) in answers {
        let checked = verify(pools, kind, index, id, &answer);
        out.check(checked.is_ok(), || {
            format!("in-process {}", checked.unwrap_err())
        });
    }
    if let Some(seq) = probe_in_core(tracer, g, &default_config(g, 0.5)) {
        miner_layers(tracer, out, &seq);
    }
    fixture::setup_layers(tracer, out, fx);

    let ms = |name: &str| median(&tracer.values(name, false)) * 1e3;
    let m = &mut out.metrics;
    m.insert(
        "daemon.spawn_s",
        median(&tracer.values("daemon.spawn", false)),
    );
    m.insert("query.parse_us", ms("query.parse_gr") * 1e3);
    m.insert("query.evaluate_ms", ms("query.evaluate"));
    m.insert("service.query_ms", ms("service.query"));
    m.insert("service.stats_ms", ms("service.stats"));
    m.insert("service.mine_hit_ms", ms("service.mine_hit"));
    m.insert(
        "transport.stats_ms",
        ms("request.stats") - ms("service.stats"),
    );
    m.insert(
        "transport.query_ms",
        ms("request.query") - ms("service.query"),
    );
    Ok(())
}
