//! In-process contract tests of the `grmined` request protocol
//! (`grm_core::service`): response envelopes, the pinned introspection
//! schemas, mining parity with the library engines, result caching and
//! single-flight coalescing, typed overload/cancellation errors, and
//! counter accounting.

use serde::{to_content, Content};
use social_ties::core::service::{Service, ServiceConfig};
use social_ties::core::Dims;
use social_ties::datagen::dblp_config_scaled;
use social_ties::graph::CancelToken;
use social_ties::{generate, GrMiner, MinerConfig, RankMetric, SocialGraph};
use std::sync::Arc;

fn workload() -> SocialGraph {
    generate(&dblp_config_scaled(0.05)).unwrap()
}

fn service(cfg: ServiceConfig) -> Service {
    Service::new(workload(), cfg)
}

fn send(svc: &Service, line: &str) -> Content {
    let conn = CancelToken::default();
    serde_json::from_str(&svc.handle_line(line, &conn)).expect("responses are valid JSON")
}

fn get<'a>(map: &'a Content, key: &str) -> &'a Content {
    match map {
        Content::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key `{key}` in {map:?}")),
        other => panic!("expected map, got {other:?}"),
    }
}

fn keys(map: &Content) -> Vec<&str> {
    match map {
        Content::Map(entries) => {
            let mut ks: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            ks.sort_unstable();
            ks
        }
        other => panic!("expected map, got {other:?}"),
    }
}

fn assert_ok(resp: &Content) -> &Content {
    assert_eq!(get(resp, "ok"), &Content::Bool(true), "{resp:?}");
    get(resp, "result")
}

fn assert_err<'a>(resp: &'a Content, code: &str) -> &'a Content {
    assert_eq!(get(resp, "ok"), &Content::Bool(false), "{resp:?}");
    let err = get(resp, "error");
    assert_eq!(
        get(err, "code"),
        &Content::Str(code.to_string()),
        "{resp:?}"
    );
    err
}

/// The service's defaults are the `grmine mine` CLI's.
fn default_cfg(graph: &SocialGraph) -> MinerConfig {
    MinerConfig::for_request(RankMetric::Nhp, graph.edge_count() as u64)
}

#[test]
fn response_envelope_echoes_id_and_type() {
    let svc = service(ServiceConfig::default());
    let resp = send(&svc, "{\"id\":\"req-7\",\"type\":\"schema\"}");
    assert_eq!(get(&resp, "id"), &Content::Str("req-7".to_string()));
    assert_eq!(get(&resp, "type"), &Content::Str("schema".to_string()));
    assert_eq!(
        keys(&resp),
        vec!["id", "ok", "result", "type"],
        "success envelope is pinned"
    );
    // Errors echo the id too, and swap `result` for `error`.
    let resp = send(&svc, "{\"id\":3,\"type\":\"nope\"}");
    assert_eq!(get(&resp, "id"), &Content::U64(3));
    assert_eq!(keys(&resp), vec!["error", "id", "ok", "type"]);
}

#[test]
fn schema_introspection_is_pinned() {
    let g = workload();
    let svc = Service::new(g.clone(), ServiceConfig::default());
    let resp = send(&svc, "{\"id\":1,\"type\":\"schema\"}");
    let result = assert_ok(&resp);
    assert_eq!(
        keys(result),
        vec!["edge_attrs", "edges", "node_attrs", "nodes"]
    );
    assert_eq!(get(result, "nodes"), &Content::U64(g.node_count() as u64));
    assert_eq!(get(result, "edges"), &Content::U64(g.edge_count() as u64));
    let node_attrs = match get(result, "node_attrs") {
        Content::Seq(s) => s,
        other => panic!("node_attrs must be a list, got {other:?}"),
    };
    assert_eq!(node_attrs.len(), g.schema().node_attr_ids().count());
    for attr in node_attrs {
        assert_eq!(keys(attr), vec!["domain_size", "homophily", "name"]);
    }
    for attr in match get(result, "edge_attrs") {
        Content::Seq(s) => s,
        other => panic!("edge_attrs must be a list, got {other:?}"),
    } {
        assert_eq!(keys(attr), vec!["domain_size", "name"]);
    }
}

#[test]
fn stats_introspection_is_pinned_and_counts_service_events() {
    let svc = service(ServiceConfig::default());
    let resp = send(&svc, "{\"id\":1,\"type\":\"stats\"}");
    let result = assert_ok(&resp);
    assert_eq!(
        keys(result),
        vec![
            "cache_entries",
            "counters",
            "max_concurrent",
            "queue_depth",
            "slots_available",
        ],
        "introspection schema is pinned"
    );
    assert_eq!(get(result, "max_concurrent"), &Content::U64(4));
    assert_eq!(get(result, "slots_available"), &Content::U64(4));
    // The counters object is the pinned MinerStats schema (the full
    // 28-key order is pinned in tests/cli_and_parse.rs); the service
    // counters must be present and must move.
    let counters = get(result, "counters");
    for key in [
        "requests_served",
        "requests_shed",
        "cache_hits",
        "cache_coalesced",
    ] {
        assert_eq!(get(counters, key), &Content::U64(0), "fresh service");
    }
    send(&svc, "{\"id\":2,\"type\":\"mine\"}");
    send(&svc, "{\"id\":3,\"type\":\"mine\"}");
    let resp = send(&svc, "{\"id\":4,\"type\":\"stats\"}");
    let result = assert_ok(&resp);
    let counters = get(result, "counters");
    assert_eq!(get(counters, "requests_served"), &Content::U64(2));
    assert_eq!(get(counters, "cache_hits"), &Content::U64(1));
    assert_eq!(get(result, "cache_entries"), &Content::U64(1));
}

#[test]
fn query_measures_match_the_library() {
    let g = workload();
    let svc = Service::new(g.clone(), ServiceConfig::default());
    // Mine one GR to query back through the round-trip display syntax.
    let mined = GrMiner::new(&g, default_cfg(&g)).try_mine().unwrap();
    let gr = &mined.top.first().expect("workload mines something").gr;
    let text = gr.display(g.schema());
    let expected = social_ties::core::query::evaluate(&g, gr);
    let resp = send(
        &svc,
        &format!("{{\"id\":1,\"type\":\"query\",\"gr\":\"{text}\"}}"),
    );
    let result = assert_ok(&resp);
    assert_eq!(get(result, "gr"), &Content::Str(text));
    assert_eq!(get(result, "measures"), &to_content(&expected));
    // A malformed GR is a BadRequest, not a panic.
    let resp = send(&svc, "{\"id\":2,\"type\":\"query\",\"gr\":\"(Nope:1) ->\"}");
    assert_err(&resp, "BadRequest");
}

/// A GR naming one attribute twice in a descriptor is a `BadRequest`
/// naming the attribute, on the LHS, the RHS and the edge alike — never
/// a panic, and never an answer for a descriptor no edge can match.
#[test]
fn query_with_a_repeated_attribute_is_a_bad_request() {
    let svc = service(ServiceConfig::default());
    for (id, gr) in [
        "(Area:DB, Area:DM) -> (Area:DM)",
        "(Area:DB) -> (Area:DM, Area:DB)",
        "(Area:DB) -[S:often, S:often]-> (Area:DM)",
    ]
    .iter()
    .enumerate()
    {
        let resp = send(
            &svc,
            &format!("{{\"id\":{id},\"type\":\"query\",\"gr\":\"{gr}\"}}"),
        );
        let err = assert_err(&resp, "BadRequest");
        let Content::Str(message) = get(err, "message") else {
            panic!("{resp:?}");
        };
        assert!(message.contains("appears twice"), "{gr}: {message}");
    }
    // The daemon still answers a well-formed query after the rejects.
    let resp = send(
        &svc,
        "{\"id\":9,\"type\":\"query\",\"gr\":\"(Area:DB) -> (Area:DM)\"}",
    );
    assert_ok(&resp);
}

#[test]
fn mine_defaults_are_bit_identical_to_the_sequential_engine() {
    let g = workload();
    let svc = Service::new(g.clone(), ServiceConfig::default());
    let expected = GrMiner::new(&g, default_cfg(&g)).try_mine().unwrap();
    let resp = send(&svc, "{\"id\":1,\"type\":\"mine\"}");
    let result = assert_ok(&resp);
    assert_eq!(
        get(result, "top"),
        &to_content(&expected.top),
        "service defaults mirror the CLI and the pinned --json schema"
    );
    assert_eq!(
        get(result, "edge_count"),
        &Content::U64(g.edge_count() as u64)
    );
    assert_eq!(get(result, "cached"), &Content::Bool(false));
}

#[test]
fn parallel_requests_are_bit_identical_to_the_parallel_engine() {
    let g = workload();
    let svc = Service::new(
        g.clone(),
        ServiceConfig {
            threads: 4,
            ..ServiceConfig::default()
        },
    );
    let cfg = default_cfg(&g);
    let expected = social_ties::core::parallel::try_mine_parallel_with_opts(
        &g,
        &cfg,
        &Dims::all(g.schema()),
        social_ties::core::parallel::ParallelOptions {
            threads: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let resp = send(&svc, "{\"id\":1,\"type\":\"mine\",\"threads\":2}");
    assert_eq!(get(assert_ok(&resp), "top"), &to_content(&expected.top));
    // `threads` beyond the service cap clamps instead of erroring.
    let resp = send(&svc, "{\"id\":2,\"type\":\"mine\",\"threads\":64}");
    assert_ok(&resp);
}

#[test]
fn identical_requests_hit_the_cache_and_merge_stats_once() {
    let g = workload();
    let svc = Service::new(
        g.clone(),
        ServiceConfig {
            threads: 2,
            ..ServiceConfig::default()
        },
    );
    let first = send(&svc, "{\"id\":1,\"type\":\"mine\"}");
    let second = send(&svc, "{\"id\":2,\"type\":\"mine\"}");
    // Every engine returns the same top-k for one config, so the thread
    // count is not part of the cache key.
    let third = send(&svc, "{\"id\":3,\"type\":\"mine\",\"threads\":2}");
    assert_eq!(get(assert_ok(&first), "cached"), &Content::Bool(false));
    assert_eq!(get(assert_ok(&second), "cached"), &Content::Bool(true));
    assert_eq!(get(assert_ok(&third), "cached"), &Content::Bool(true));
    assert_eq!(
        get(assert_ok(&first), "top"),
        get(assert_ok(&second), "top")
    );
    // The aggregate merged exactly one engine run: its work counters
    // equal a solo run's, while the service counters saw every request.
    let solo = GrMiner::new(&g, default_cfg(&g)).try_mine().unwrap();
    let agg = svc.aggregate_stats();
    assert_eq!(agg.grs_examined, solo.stats.grs_examined);
    assert_eq!(agg.partitions_examined, solo.stats.partitions_examined);
    assert_eq!(agg.requests_served, 3);
    assert_eq!(agg.cache_hits, 2);
    // Different parameters miss the cache and mine again.
    send(&svc, "{\"id\":4,\"type\":\"mine\",\"k\":5}");
    let solo5 = GrMiner::new(
        &g,
        MinerConfig {
            k: 5,
            ..default_cfg(&g)
        },
    )
    .try_mine()
    .unwrap();
    let agg = svc.aggregate_stats();
    assert_eq!(
        agg.grs_examined,
        solo.stats.grs_examined + solo5.stats.grs_examined
    );
    assert_eq!(agg.cache_hits, 2);
}

#[test]
fn concurrent_identical_requests_coalesce_on_one_mine() {
    let g = workload();
    let svc = Arc::new(Service::new(g.clone(), ServiceConfig::default()));
    let clients = 4;
    let mut handles = Vec::new();
    for i in 0..clients {
        let svc = Arc::clone(&svc);
        handles.push(std::thread::spawn(move || {
            let conn = CancelToken::default();
            svc.handle_line(&format!("{{\"id\":{i},\"type\":\"mine\"}}"), &conn)
        }));
    }
    let responses: Vec<Content> = handles
        .into_iter()
        .map(|h| serde_json::from_str(&h.join().unwrap()).unwrap())
        .collect();
    let tops: Vec<&Content> = responses.iter().map(|r| get(assert_ok(r), "top")).collect();
    for top in &tops[1..] {
        assert_eq!(*top, tops[0], "coalesced results are bit-identical");
    }
    let solo = GrMiner::new(&g, default_cfg(&g)).try_mine().unwrap();
    let agg = svc.aggregate_stats();
    assert_eq!(
        agg.grs_examined, solo.stats.grs_examined,
        "exactly one engine run behind {clients} identical requests"
    );
    assert_eq!(agg.requests_served, clients as u64);
    assert_eq!(agg.cache_hits + agg.cache_coalesced, clients as u64 - 1);
}

#[test]
fn timeout_zero_is_a_typed_cancellation_with_partial_stats() {
    let svc = service(ServiceConfig::default());
    let resp = send(&svc, "{\"id\":1,\"type\":\"mine\",\"timeout_ms\":0}");
    let err = assert_err(&resp, "Cancelled");
    let partial = get(err, "partial_stats");
    for key in ["cancel_checks", "grs_examined", "requests_served"] {
        assert!(
            keys(partial).contains(&key),
            "partial stats carry the pinned counter schema (missing {key})"
        );
    }
    // A cancelled mine is not cached; the next un-deadlined request mines.
    let resp = send(&svc, "{\"id\":2,\"type\":\"mine\"}");
    assert_eq!(get(assert_ok(&resp), "cached"), &Content::Bool(false));
}

#[test]
fn overload_sheds_with_a_typed_retry_hint() {
    let g = generate(&dblp_config_scaled(0.3)).unwrap();
    let svc = Arc::new(Service::new(
        g,
        ServiceConfig {
            max_concurrent: 1,
            queue_depth: 0,
            retry_after_ms: 77,
            ..ServiceConfig::default()
        },
    ));
    // Occupy the only slot with a slow mine, then probe with a
    // *different* config (so the probe cannot coalesce). Retry the
    // cycle in the unlikely event the slow mine finishes first.
    let mut shed = None;
    for attempt in 0..5u32 {
        let slow_svc = Arc::clone(&svc);
        let slow = std::thread::spawn(move || {
            let conn = CancelToken::default();
            slow_svc.handle_line(
                &format!(
                    "{{\"id\":\"slow-{attempt}\",\"type\":\"mine\",\
                     \"min_supp\":1,\"min_score\":0.01,\"k\":{},\"dynamic\":false}}",
                    1000 + attempt
                ),
                &conn,
            )
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while svc.slots_available() > 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let conn = CancelToken::default();
        let probe = svc.handle_line(
            &format!(
                "{{\"id\":\"probe-{attempt}\",\"type\":\"mine\",\"k\":{}}}",
                10 + attempt
            ),
            &conn,
        );
        let slow_resp: Content = serde_json::from_str(&slow.join().unwrap()).unwrap();
        assert_ok(&slow_resp);
        let probe: Content = serde_json::from_str(&probe).unwrap();
        if get(&probe, "ok") == &Content::Bool(false) {
            shed = Some(probe);
            break;
        }
    }
    let shed = shed.expect("a probe against a held slot sheds");
    let err = assert_err(&shed, "Overloaded");
    assert_eq!(get(err, "retry_after_ms"), &Content::U64(77));
    assert!(svc.aggregate_stats().requests_shed >= 1);
    assert_eq!(
        svc.slots_available(),
        1,
        "shedding never leaks an admission slot"
    );
}

#[test]
fn bad_requests_are_typed_and_do_not_disturb_the_service() {
    let svc = service(ServiceConfig::default());
    for (line, code) in [
        ("{\"id\":1,\"type\":\"mine\",\"k\":0}", "BadRequest"),
        ("{\"id\":1,\"type\":\"mine\",\"min_supp\":0}", "BadRequest"),
        (
            "{\"id\":1,\"type\":\"mine\",\"metric\":\"zzz\"}",
            "UnsupportedMetric",
        ),
        ("{\"id\":1,\"type\":\"mine\",\"k\":\"ten\"}", "BadRequest"),
        ("{\"id\":1,\"type\":\"mine\",\"bogus\":true}", "BadRequest"),
        ("{\"id\":1,\"type\":\"query\"}", "BadRequest"),
        ("{\"id\":1,\"type\":\"schema\",\"extra\":1}", "BadRequest"),
        ("{\"id\":1}", "BadRequest"),
        ("{\"id\":1,\"type\":7}", "BadRequest"),
    ] {
        let resp = send(&svc, line);
        assert_err(&resp, code);
    }
    assert_eq!(svc.slots_available(), svc.capacity());
    let resp = send(&svc, "{\"id\":2,\"type\":\"mine\"}");
    assert_ok(&resp);
}

#[test]
fn failpoint_requests_are_rejected_without_the_feature() {
    // This suite compiles without `fault-inject`; the chaos matrix in
    // tests/service_chaos.rs covers the armed paths.
    if cfg!(feature = "fault-inject") {
        return;
    }
    let svc = service(ServiceConfig::default());
    let resp = send(
        &svc,
        "{\"id\":1,\"type\":\"failpoint\",\"action\":\"arm\",\
         \"site\":\"request.handle\",\"kind\":\"panic\"}",
    );
    let err = assert_err(&resp, "BadRequest");
    match get(err, "message") {
        Content::Str(m) => assert!(m.contains("fault-inject"), "{m}"),
        other => panic!("message must be a string, got {other:?}"),
    }
}

#[test]
fn shutdown_request_drains_and_gates() {
    let svc = service(ServiceConfig::default());
    let resp = send(&svc, "{\"id\":1,\"type\":\"shutdown\"}");
    assert_eq!(
        get(assert_ok(&resp), "stopping"),
        &Content::Bool(true),
        "shutdown acknowledges before gating"
    );
    assert!(svc.shutdown_token().is_cancelled());
    let resp = send(&svc, "{\"id\":2,\"type\":\"mine\"}");
    assert_err(&resp, "ShuttingDown");
}
