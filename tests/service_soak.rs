//! Soak tests of the live `grmined` surfaces: a seeded
//! disconnect-mid-mine storm over real TCP connections (dropped peers
//! must release their admission slots and never corrupt later results),
//! the request reader's framing and line limit, round-trip latency on
//! one connection, and graceful SIGTERM shutdown of the spawned daemon
//! binary.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use social_ties::core::service::{serve, Service, ServiceConfig};
use social_ties::datagen::dblp_config_scaled;
use social_ties::graph::io;
use social_ties::{generate, GrMiner, MinerConfig, SocialGraph};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn workload() -> SocialGraph {
    generate(&dblp_config_scaled(0.2)).unwrap()
}

/// Bind a listener, serve `svc` on a background thread, and return the
/// address plus the join handle (resolved by `svc.shut_down()`).
fn spawn_server(svc: &Arc<Service>) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server_svc = Arc::clone(svc);
    let handle = std::thread::spawn(move || {
        serve(listener, &server_svc).expect("serve runs until shutdown");
    });
    (addr, handle)
}

/// Send one request line in one write, as a client without
/// `TCP_NODELAY` must: a separate newline write would wait for the
/// daemon's delayed ACK.
fn send_line(stream: &mut TcpStream, line: &str) {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("request write");
}

fn read_line(stream: &mut TcpStream) -> String {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("response read");
    line.trim_end().to_string()
}

#[test]
fn disconnect_storm_releases_slots_and_keeps_results_bit_identical() {
    let graph = workload();
    let svc = Arc::new(Service::new(
        graph.clone(),
        ServiceConfig {
            max_concurrent: 2,
            queue_depth: 16,
            cache_capacity: 0, // every request must really mine
            ..ServiceConfig::default()
        },
    ));
    let (addr, server) = spawn_server(&svc);

    // Seeded storm: every session starts a real mine (unique k so no
    // two share anything), half the peers vanish without reading.
    let mut rng = StdRng::seed_from_u64(0x50a6_5eed);
    let sessions = 12;
    let mut survivors = Vec::new();
    for i in 0..sessions {
        let addr = addr.clone();
        let drop_mid_mine = i % 2 == 0;
        let jitter = Duration::from_millis(rng.gen_range(0..20));
        survivors.push(std::thread::spawn(move || {
            std::thread::sleep(jitter);
            let mut stream = TcpStream::connect(&addr).expect("connect");
            send_line(
                &mut stream,
                &format!(
                    "{{\"id\":{i},\"type\":\"mine\",\"min_supp\":1,\
                     \"min_score\":0.2,\"k\":{},\"dynamic\":false}}",
                    100 + i
                ),
            );
            if drop_mid_mine {
                // Vanish without reading: the reader thread sees EOF and
                // cancels the in-flight mine through the token tree.
                drop(stream);
                return None;
            }
            let line = read_line(&mut stream);
            assert!(line.contains("\"ok\":true"), "survivor got: {line}");
            assert!(line.contains(&format!("\"id\":{i}")), "{line}");
            Some(line)
        }));
    }
    let served: Vec<Option<String>> = survivors.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(served.iter().flatten().count(), sessions / 2);

    // Every admission slot must come back, dropped peers included.
    let deadline = Instant::now() + Duration::from_secs(30);
    while svc.slots_available() < svc.capacity() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        svc.slots_available(),
        svc.capacity(),
        "disconnects leaked admission slots"
    );

    // A fresh connection gets results bit-identical to the library run.
    let cfg = MinerConfig {
        min_supp: 1,
        min_score: 0.2,
        k: 100,
        dynamic_topk: false,
        ..MinerConfig::default()
    };
    let expected = GrMiner::new(&graph, cfg).try_mine().unwrap();
    let expected_top = serde_json::to_string(&serde::to_content(&expected.top)).expect("serialize");
    let mut stream = TcpStream::connect(&addr).expect("connect");
    send_line(
        &mut stream,
        "{\"id\":\"fresh\",\"type\":\"mine\",\"min_supp\":1,\
         \"min_score\":0.2,\"k\":100,\"dynamic\":false}",
    );
    let line = read_line(&mut stream);
    assert!(
        line.contains(&format!("\"top\":{expected_top}")),
        "post-storm mine diverged: {}",
        &line[..line.len().min(400)]
    );

    svc.shut_down();
    server.join().expect("server drains");
}

fn small_service() -> Arc<Service> {
    Arc::new(Service::new(
        generate(&dblp_config_scaled(0.05)).unwrap(),
        ServiceConfig::default(),
    ))
}

#[test]
fn oversized_request_line_gets_one_bad_request_then_eof() {
    let svc = small_service();
    let (addr, server) = spawn_server(&svc);
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // 4 MiB without a newline. The daemon stops reading at its limit,
    // so these writes may fail once it closes the connection.
    let mut flood = stream.try_clone().expect("clone");
    let flooder = std::thread::spawn(move || {
        let block = [b'x'; 64 * 1024];
        for _ in 0..64 {
            if flood.write_all(&block).is_err() {
                break;
            }
        }
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("an answer within the read timeout");
    assert!(
        line.starts_with(
            "{\"id\":null,\"ok\":false,\"type\":\"error\",\"error\":{\"code\":\"BadRequest\""
        ),
        "{line}"
    );
    line.clear();
    let eof = reader.read_line(&mut line).expect("EOF, not a reset");
    assert_eq!(eof, 0, "the connection closes after the error: {line}");
    flooder.join().expect("flood thread");

    let mut fresh = TcpStream::connect(&addr).expect("connect");
    send_line(&mut fresh, "{\"id\":2,\"type\":\"schema\"}");
    assert!(read_line(&mut fresh).starts_with("{\"id\":2,\"ok\":true"));
    svc.shut_down();
    server.join().expect("server drains");
}

#[test]
fn split_and_pipelined_requests_are_answered_once_in_order() {
    let svc = small_service();
    let (addr, server) = spawn_server(&svc);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    // Each 1-byte write leaves in a segment of its own.
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut answers = BufReader::new(stream.try_clone().expect("clone")).lines();
    let mut next_id = || {
        let line = answers.next().expect("an answer").expect("answer read");
        assert!(line.contains("\"ok\":true"), "{line}");
        line.split(',').next().expect("id first").to_string()
    };

    for byte in b"{\"id\":\"split\",\"type\":\"schema\"}\n" {
        stream
            .write_all(std::slice::from_ref(byte))
            .expect("byte write");
    }
    assert_eq!(next_id(), "{\"id\":\"split\"");
    stream
        .write_all(
            b"{\"id\":1,\"type\":\"schema\"}\n\
              {\"id\":2,\"type\":\"stats\"}\n\
              {\"id\":3,\"type\":\"query\",\"gr\":\"(Area:DB) -> (Area:DM)\"}\n",
        )
        .expect("pipelined write");
    for id in 1..=3 {
        assert_eq!(next_id(), format!("{{\"id\":{id}"));
    }
    // Answers come in request order, so if this one is next, no earlier
    // request was answered twice.
    send_line(&mut stream, "{\"id\":\"last\",\"type\":\"schema\"}");
    assert_eq!(next_id(), "{\"id\":\"last\"");
    svc.shut_down();
    server.join().expect("server drains");
}

#[test]
fn round_trips_do_not_wait_for_delayed_acks() {
    let svc = small_service();
    let (addr, server) = spawn_server(&svc);
    // A stock client: one write per request, Nagle left on.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    let started = Instant::now();
    for i in 0..100 {
        send_line(&mut stream, &format!("{{\"id\":{i},\"type\":\"schema\"}}"));
        line.clear();
        reader.read_line(&mut line).expect("schema answer");
        assert!(
            line.starts_with(&format!("{{\"id\":{i},\"ok\":true")),
            "{line}"
        );
    }
    // An answer held back until the client's delayed ACK costs ≥ 40 ms,
    // which would take these 100 round trips past 3 s.
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "100 schema round trips took {elapsed:?}"
    );

    send_line(
        &mut stream,
        "{\"id\":\"top\",\"type\":\"mine\",\"min_supp\":1,\"k\":100}",
    );
    line.clear();
    reader.read_line(&mut line).expect("mine answer");
    assert!(line.ends_with('\n'), "unterminated answer");
    let answer: serde::Content =
        serde_json::from_str(&line).expect("one line holds the whole answer");
    let serde::Content::Map(fields) = answer else {
        panic!("answer is not an object: {line}")
    };
    assert!(
        fields.contains(&("ok".to_string(), serde::Content::Bool(true))),
        "{line}"
    );
    svc.shut_down();
    server.join().expect("server drains");
}

#[test]
fn cancelled_sessions_drain_partial_stats_exactly_once() {
    // In-process twin of the storm's accounting claim: a request whose
    // connection token cancels mid-mine merges its partial counters
    // into the aggregate exactly once — the counter total moves by the
    // partial drain, and replaying the mine afterwards is unperturbed.
    let graph = workload();
    let svc = Service::new(graph.clone(), ServiceConfig::default());
    let before = svc.aggregate_stats();
    assert_eq!(before.cancel_checks, 0);
    let conn = social_ties::graph::CancelToken::default();
    let resp = svc.handle_line(
        "{\"id\":1,\"type\":\"mine\",\"timeout_ms\":0,\"min_supp\":1,\"k\":50}",
        &conn,
    );
    assert!(resp.contains("\"Cancelled\""), "{resp}");
    let after = svc.aggregate_stats();
    assert!(
        after.cancel_checks > 0,
        "the cancelled mine drained its counters into the aggregate"
    );
    assert_eq!(after.requests_served, 0, "a cancelled mine is not served");
    // The drain happened exactly once: a second stats read is stable.
    assert_eq!(svc.aggregate_stats().cancel_checks, after.cancel_checks);
}

#[test]
fn sigterm_shuts_the_daemon_down_with_exit_zero() {
    let dir = std::env::temp_dir().join(format!("grm-svc-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("soak.grm");
    io::save_graph(&generate(&dblp_config_scaled(0.05)).unwrap(), &path).expect("save");

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_grmined"))
        .arg(&path)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let stdout = child.stdout.take().expect("stdout");
    let mut ready = String::new();
    BufReader::new(stdout)
        .read_line(&mut ready)
        .expect("ready line");
    assert!(ready.contains("\"ready\":true"), "{ready}");

    // The ready line carries the bound address; exercise one request so
    // the daemon is provably serving when the signal lands.
    let addr = ready
        .split("\"addr\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("addr in ready line")
        .to_string();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    send_line(&mut stream, "{\"id\":1,\"type\":\"schema\"}");
    assert!(read_line(&mut stream).contains("\"ok\":true"));

    let kill = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "graceful shutdown exits 0");
    let _ = std::fs::remove_dir_all(&dir);
}
