//! `grmined` — the fault-contained GR-mining daemon.
//!
//! ```text
//! grmined <graph.grm> [--addr HOST:PORT] [--threads N]
//!         [--max-concurrent N] [--queue-depth N] [--cache N]
//!         [--default-timeout MS] [--retry-after MS]
//! ```
//!
//! Loads the graph once, gathers its key columns (a graph of more than
//! `CompactModel::MAX_EDGES` edges exits 1), binds a TCP listener
//! (default `127.0.0.1:0` — an OS-assigned port), prints a single JSON
//! ready line with the bound address on stdout, and then serves
//! line-delimited JSON requests until shut down. The request protocol,
//! error codes and failure model live in `grm_core::service` (see also
//! README "Service mode").
//!
//! Shutdown is graceful on SIGTERM / SIGINT and on a `shutdown` request:
//! the listener stops accepting, in-flight mines observe cancellation
//! through the token tree and drain their partial counters, connection
//! threads are joined, and the process exits 0.
//!
//! `--default-timeout 0` disables the default per-request deadline
//! (requests may still set their own `timeout_ms`). An unknown or
//! repeated flag exits 2 before the graph is loaded.

use social_ties::core::service::{serve, Service, ServiceConfig};
use social_ties::graph::{check_edge_capacity, io, CompactModel};
use std::io::Write;
use std::net::TcpListener;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod flags;
use flags::{check_flags, parse_flag};

/// Set from the signal handler, polled by the watcher thread. A plain
/// atomic store is async-signal-safe; everything else (locks, the
/// service shutdown fan-out) happens on the watcher thread.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // ordering: Release pairs with the watcher thread's Acquire load so
    // the flag is the only cross-thread communication out of the
    // handler; no other writes need to be ordered by it.
    SIGNALLED.store(true, Ordering::Release);
}

// Minimal libc binding: `std` exposes no signal API and the workspace
// vendors no libc, so declare the one symbol we need.
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit(run(&args));
}

fn run(args: &[String]) -> i32 {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: grmined <graph.grm> [--addr HOST:PORT] [--threads N] [--max-concurrent N] [--queue-depth N] [--cache N] [--default-timeout MS] [--retry-after MS]");
        return 2;
    };
    let known = [
        "--addr",
        "--threads",
        "--max-concurrent",
        "--queue-depth",
        "--cache",
        "--default-timeout",
        "--retry-after",
    ];
    if let Err(e) = check_flags(&args[1..], &known) {
        eprintln!("{e}");
        return 2;
    }
    let flags = |name| parse_flag::<usize>(args, name);
    let (addr, threads, max_concurrent, queue_depth, cache, default_timeout, retry_after) = match (
        parse_flag::<String>(args, "--addr"),
        flags("--threads"),
        flags("--max-concurrent"),
        flags("--queue-depth"),
        flags("--cache"),
        parse_flag::<u64>(args, "--default-timeout"),
        parse_flag::<u64>(args, "--retry-after"),
    ) {
        (Ok(a), Ok(t), Ok(m), Ok(q), Ok(c), Ok(d), Ok(r)) => (a, t, m, q, c, d, r),
        (a, t, m, q, c, d, r) => {
            for e in [
                a.err(),
                t.err(),
                m.err(),
                q.err(),
                c.err(),
                d.err(),
                r.err(),
            ]
            .into_iter()
            .flatten()
            {
                eprintln!("{e}");
            }
            return 2;
        }
    };

    let defaults = ServiceConfig::default();
    let cfg = ServiceConfig {
        max_concurrent: max_concurrent.unwrap_or(defaults.max_concurrent),
        queue_depth: queue_depth.unwrap_or(defaults.queue_depth),
        retry_after_ms: retry_after.unwrap_or(defaults.retry_after_ms),
        default_deadline_ms: match default_timeout {
            Some(0) => None,
            Some(ms) => Some(ms),
            None => defaults.default_deadline_ms,
        },
        cache_capacity: cache.unwrap_or(defaults.cache_capacity),
        threads: threads.unwrap_or(defaults.threads),
    };

    let graph = match io::load_graph(path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error loading `{path}`: {e}");
            return 1;
        }
    };
    // The service keeps the graph's key columns resident, and their
    // positions are u32.
    if let Err(e) = check_edge_capacity(graph.edge_count(), CompactModel::MAX_EDGES) {
        eprintln!("cannot serve `{path}`: {e}");
        return 1;
    }

    let addr = addr.unwrap_or_else(|| "127.0.0.1:0".to_string());
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error binding `{addr}`: {e}");
            return 1;
        }
    };
    let bound = match listener.local_addr() {
        Ok(a) => a.to_string(),
        Err(e) => {
            eprintln!("error reading bound address: {e}");
            return 1;
        }
    };

    let threads_cap = cfg.threads.max(1);
    let service = Arc::new(Service::new(graph, cfg));

    // SAFETY: `on_signal` only stores to a static AtomicBool, which is
    // async-signal-safe; the previous handlers (SIG_DFL) are discarded
    // deliberately — this process owns its signal disposition.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
    let watcher_service = Arc::clone(&service);
    let watcher = std::thread::spawn(move || loop {
        // ordering: Acquire pairs with the handler's Release store; the
        // flag is a latch, so a stale read only delays shutdown one tick.
        if SIGNALLED.load(Ordering::Acquire) {
            watcher_service.shut_down();
            return;
        }
        if watcher_service.shutdown_token().is_cancelled() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    // One machine-readable ready line so harnesses can find the port.
    println!(
        "{{\"ready\":true,\"addr\":\"{bound}\",\"max_concurrent\":{},\"threads\":{threads_cap}}}",
        service.capacity(),
    );
    let _ = std::io::stdout().flush();

    let served = serve(listener, &service);
    let _ = watcher.join();
    match served {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("serve error: {e}");
            1
        }
    }
}
