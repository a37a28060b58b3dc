//! Chaos matrix against a live service (`--features fault-inject`):
//! faults armed over the wire at `request.handle` and `worker.body`
//! must surface as typed error responses — never an abort, never a
//! leaked admission slot — and once the registry drains, identical
//! requests return bit-identical results.
//!
//! Everything runs inside one `#[test]` because the failpoint registry
//! is process-global.

#![cfg(feature = "fault-inject")]

use social_ties::core::service::{serve, Service, ServiceConfig};
use social_ties::datagen::dblp_config_scaled;
use social_ties::generate;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn request(&mut self, line: &str) -> String {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("request write");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("response read");
        assert!(!response.is_empty(), "daemon hung up mid-matrix");
        response.trim_end().to_string()
    }
}

fn arm(client: &mut Client, site: &str, after: u64, kind: &str) {
    let resp = client.request(&format!(
        "{{\"id\":\"arm\",\"type\":\"failpoint\",\"action\":\"arm\",\
         \"site\":\"{site}\",\"after\":{after},\"times\":1,\"kind\":\"{kind}\"}}"
    ));
    assert!(resp.contains("\"armed\":true"), "{resp}");
}

fn disarm(client: &mut Client) {
    let resp = client.request("{\"id\":\"disarm\",\"type\":\"failpoint\",\"action\":\"disarm\"}");
    assert!(resp.contains("\"disarmed\":true"), "{resp}");
}

#[test]
fn chaos_matrix_yields_typed_errors_and_recovers_bit_identically() {
    let svc = Arc::new(Service::new(
        generate(&dblp_config_scaled(0.05)).unwrap(),
        ServiceConfig {
            max_concurrent: 2,
            threads: 2,
            // Every request must reach the engine: a cache hit would
            // skip an armed `worker.body` and desynchronize the matrix.
            cache_capacity: 0,
            ..ServiceConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server_svc = Arc::clone(&svc);
    let server = std::thread::spawn(move || serve(listener, &server_svc).expect("serve"));
    let mut client = Client::connect(&addr);

    let mine = "{\"id\":\"m\",\"type\":\"mine\",\"min_supp\":1,\"k\":10}";
    let baseline = client.request(mine);
    assert!(baseline.contains("\"ok\":true"), "{baseline}");
    let baseline_top = baseline
        .split("\"top\":")
        .nth(1)
        .and_then(|s| s.split(",\"stats\":").next())
        .expect("baseline has a top list")
        .to_string();

    // request.handle × fault kind × hit index. `after` counts probes
    // *after arming*, so index 1 lets one innocent request through and
    // fails the one behind it.
    for kind in ["io-error", "short-read", "panic"] {
        for after in [0u64, 1] {
            arm(&mut client, "request.handle", after, kind);
            for victim_index in 0..=after {
                let resp = client.request(mine);
                let expect_fault = victim_index == after;
                let code = if kind == "panic" {
                    "WorkerPanicked"
                } else {
                    "Internal"
                };
                if expect_fault {
                    assert!(resp.contains("\"ok\":false"), "{kind}/{after}: {resp}");
                    assert!(resp.contains(code), "{kind}/{after}: {resp}");
                } else {
                    assert!(resp.contains("\"ok\":true"), "{kind}/{after}: {resp}");
                }
            }
            // The registry drained (times=1): the same request now
            // succeeds, bit-identically to the pre-chaos baseline.
            let resp = client.request(mine);
            assert!(resp.contains("\"ok\":true"), "{kind}/{after}: {resp}");
            assert!(
                resp.contains(&baseline_top),
                "{kind}/{after}: post-fault mine diverged"
            );
            assert_eq!(
                svc.slots_available(),
                svc.capacity(),
                "{kind}/{after}: fault leaked an admission slot"
            );
        }
    }

    // worker.body panic inside the parallel engine: contained by the
    // engine, surfaced as WorkerPanicked with drained partial stats.
    let par_mine = "{\"id\":\"p\",\"type\":\"mine\",\"min_supp\":1,\"k\":10,\"threads\":2}";
    let par_baseline = client.request(par_mine);
    assert!(par_baseline.contains("\"ok\":true"), "{par_baseline}");
    let par_baseline_top = par_baseline
        .split("\"top\":")
        .nth(1)
        .and_then(|s| s.split(",\"stats\":").next())
        .expect("parallel baseline has a top list")
        .to_string();
    arm(&mut client, "worker.body", 0, "panic");
    let resp = client.request(par_mine);
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("WorkerPanicked"), "{resp}");
    assert!(resp.contains("partial_stats"), "{resp}");
    assert!(resp.contains("injected panic at worker.body"), "{resp}");
    assert_eq!(svc.slots_available(), svc.capacity());
    let recovered = client.request(par_mine);
    assert!(recovered.contains("\"ok\":true"), "{recovered}");
    assert!(
        recovered.contains(&par_baseline_top),
        "post-panic parallel mine diverged"
    );

    // Drain the registry over the wire and account for every firing:
    // 3 kinds × 2 indices at request.handle, plus one worker panic.
    disarm(&mut client);

    // The daemon survived the whole matrix: still serving, zero aborts.
    let resp = client.request("{\"id\":\"end\",\"type\":\"stats\"}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"slots_available\":2"), "{resp}");

    svc.shut_down();
    std::thread::sleep(Duration::from_millis(10));
    server.join().expect("server drains");
}
