//! Fault-contained GR-mining service: the engine behind `grmined`.
//!
//! A [`Service`] wraps one loaded [`SocialGraph`] and answers
//! line-delimited JSON requests — ad-hoc GR queries ([`crate::query`]),
//! top-k mines ([`crate::GrMiner`] / [`crate::parallel`]), schema and
//! stats introspection — while keeping the overload and failure behavior
//! *typed*:
//!
//! * **Admission control.** At most `max_concurrent` mines run at once;
//!   up to `queue_depth` more wait. Beyond that a request is shed with an
//!   `Overloaded` error carrying `retry_after_ms` — never queued
//!   unboundedly, never silently dropped. The slot-accounting protocol is
//!   model-checked in `grm_analyze::model::admission` (leak / double-free
//!   / ghost-shed variants are refuted there).
//! * **Per-request deadlines and disconnect cancellation.** Every request
//!   gets a [`CancelToken::child`] of its connection token, which is
//!   itself a child of the service shutdown token; a dropped connection
//!   or an expired `timeout_ms` cancels the mine mid-flight and the
//!   engine drains partial [`MinerStats`] into the typed `Cancelled`
//!   error.
//! * **Single-flight result cache.** Identical mining configs coalesce on
//!   one leader; followers block on the published result and are counted
//!   in `cache_coalesced`. The publication protocol is model-checked in
//!   `grm_analyze::model::singleflight` (double-mine / lost-wakeup /
//!   serve-unpublished variants are refuted there).
//! * **Panic containment.** A panicking handler (or an armed
//!   `request.handle` failpoint) produces a typed `WorkerPanicked`
//!   response; RAII guards release the admission slot and abandon the
//!   in-flight cache entry during unwinding, so the daemon keeps serving.
//!
//! Locking uses `std::sync::{Mutex, Condvar}` (the vendored
//! `parking_lot` stub has no condvar) with poison-robust acquisition:
//! a panic while holding a lock must not wedge every later request.

use crate::config::MinerConfig;
use crate::error::{panic_message, MinerError};
use crate::metrics::RankMetric;
use crate::miner::MineResult;
use crate::parallel::{try_mine_parallel_with_opts, ParallelOptions};
use crate::parse::parse_gr;
use crate::query;
use crate::stats::MinerStats;
use crate::tail::Dims;
use grm_graph::{failpoint, CancelToken, SocialGraph};
use serde::{to_content, Content};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a wait loop sleeps between re-checks of its predicate and
/// its cancellation context. Bounds how stale a disconnect observation
/// can get while parked on a condvar.
const WAIT_TICK: Duration = Duration::from_millis(25);

/// The longest request line a connection buffers, newline excluded. A
/// longer line is answered with one `BadRequest` and the connection
/// closes.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Tuning knobs of a [`Service`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Mines allowed to run concurrently (clamped to ≥ 1).
    pub max_concurrent: usize,
    /// Requests allowed to wait for a slot before new arrivals are shed.
    pub queue_depth: usize,
    /// The backoff hint attached to `Overloaded` errors.
    pub retry_after_ms: u64,
    /// Deadline applied to mines whose request carries no `timeout_ms`
    /// (`None` = unbounded).
    pub default_deadline_ms: Option<u64>,
    /// Published mine results kept for reuse (0 disables the cache and
    /// with it single-flight coalescing).
    pub cache_capacity: usize,
    /// Upper bound on the per-request `threads` parameter. 1 pins every
    /// mine to one worker.
    pub threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_concurrent: 4,
            queue_depth: 16,
            retry_after_ms: 250,
            default_deadline_ms: Some(30_000),
            cache_capacity: 64,
            threads: 1,
        }
    }
}

/// Lock a mutex, recovering the data from a poisoned lock. Handlers are
/// panic-contained; a poisoned admission or cache lock must degrade to
/// "the panicking request's guards already restored the invariants",
/// not "every future request panics on `unwrap`".
//
// The daemon's intended global acquisition order, checked by
// grm-analyze's `lock-order-cycle` rule against the observed graph:
// lock-order: Admission.state < ResultCache.state < Service.agg
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------------
// Cancellation context
// ---------------------------------------------------------------------------

/// What a waiting request checks to decide "stop waiting": its cancel
/// token (connection drop, daemon shutdown) and the service-level mirror
/// of its deadline. The engine enforces the deadline itself via
/// [`MinerConfig::deadline_ms`]; this mirror only keeps *queued* requests
/// from outliving it.
struct RequestCtx {
    token: CancelToken,
    deadline: Option<Instant>,
}

impl RequestCtx {
    fn is_cancelled(&self) -> bool {
        self.token.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Semaphore-style admission: `available` slots, `waiting` queued
/// requests, one condvar. The protocol (take in one critical section,
/// shed only under pressure, release exactly once via RAII) is the one
/// proved in `grm_analyze::model::admission`.
struct Admission {
    capacity: usize,
    queue_depth: usize,
    state: Mutex<AdmissionState>,
    // condvar: Admission.freed pairs Admission.state
    freed: Condvar,
}

struct AdmissionState {
    available: usize,
    waiting: usize,
}

enum AdmitOutcome<'a> {
    Admitted(SlotGuard<'a>),
    Shed,
    Cancelled,
}

/// RAII slot release: exactly one `available += 1` per admitted request,
/// on *every* exit path including panic unwinding (the model's
/// `LeakOnPanic` variant is the bug this shape rules out).
struct SlotGuard<'a> {
    adm: &'a Admission,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.adm.state);
        st.available += 1;
        debug_assert!(st.available <= self.adm.capacity, "slot minted");
        self.adm.freed.notify_all();
    }
}

impl Admission {
    fn new(capacity: usize, queue_depth: usize) -> Self {
        Admission {
            capacity,
            queue_depth,
            state: Mutex::new(AdmissionState {
                available: capacity,
                waiting: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// One critical section decides the arrival's fate: take a slot,
    /// join the bounded queue, or shed. Queued waiters re-check their
    /// cancellation context every [`WAIT_TICK`] so a disconnect releases
    /// the queue position promptly.
    fn admit(&self, ctx: &RequestCtx) -> AdmitOutcome<'_> {
        let mut st = lock(&self.state);
        if st.available > 0 {
            st.available -= 1;
            return AdmitOutcome::Admitted(SlotGuard { adm: self });
        }
        if st.waiting >= self.queue_depth {
            return AdmitOutcome::Shed;
        }
        st.waiting += 1;
        loop {
            if ctx.is_cancelled() {
                st.waiting -= 1;
                return AdmitOutcome::Cancelled;
            }
            if st.available > 0 {
                st.available -= 1;
                st.waiting -= 1;
                return AdmitOutcome::Admitted(SlotGuard { adm: self });
            }
            let (guard, _) = self
                .freed
                .wait_timeout(st, WAIT_TICK)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
    }

    fn available(&self) -> usize {
        lock(&self.state).available
    }
}

// ---------------------------------------------------------------------------
// Single-flight result cache
// ---------------------------------------------------------------------------

/// A cached mine, keyed by the full normalized mining config. The
/// requested thread count is not part of the key: every engine returns
/// the same Definition-5 top-k for one config.
enum CacheSlot {
    /// A leader is mining this key; followers wait on `published`.
    InFlight,
    /// Published result, shared by reference.
    Ready(Arc<MineResult>),
}

struct CacheState {
    entries: HashMap<String, CacheSlot>,
    /// Publication order of `Ready` keys, oldest first (FIFO eviction).
    /// `InFlight` keys are never listed here, so eviction can never
    /// drop an entry a leader still owns.
    order: Vec<String>,
}

struct ResultCache {
    capacity: usize,
    state: Mutex<CacheState>,
    // condvar: ResultCache.published pairs ResultCache.state
    published: Condvar,
}

enum CacheOutcome<'a> {
    /// A published result for this key.
    Hit(Arc<MineResult>),
    /// This request leads the mine for its key.
    Lead(LeadGuard<'a>),
    /// The request's context cancelled while waiting on a leader.
    Cancelled,
    /// Caching is disabled (`cache_capacity = 0`); mine uncached.
    Disabled,
}

/// The leader's obligation: either [`LeadGuard::publish`] a result or —
/// on any other exit, including unwinding — remove the `InFlight` entry
/// and wake the followers so one of them re-leads. Abandon-without-wake
/// is the lost-wakeup deadlock refuted as `FailLeavesInFlight` in
/// `grm_analyze::model::singleflight`.
struct LeadGuard<'a> {
    cache: &'a ResultCache,
    key: String,
    published: bool,
}

impl LeadGuard<'_> {
    fn publish(mut self, value: Arc<MineResult>) {
        let mut st = lock(&self.cache.state);
        st.entries.insert(self.key.clone(), CacheSlot::Ready(value));
        st.order.push(self.key.clone());
        if st.order.len() > self.cache.capacity {
            let evicted = st.order.remove(0);
            st.entries.remove(&evicted);
        }
        self.published = true;
        self.cache.published.notify_all();
    }
}

impl Drop for LeadGuard<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        let mut st = lock(&self.cache.state);
        st.entries.remove(&self.key);
        self.cache.published.notify_all();
    }
}

impl ResultCache {
    fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                order: Vec::new(),
            }),
            published: Condvar::new(),
        }
    }

    /// Probe the cache; the boolean reports whether this request waited
    /// on an in-flight leader (it coalesced rather than hit cold).
    /// Followers always re-check the slot after waking — the condvar
    /// wait is time-bounded and the slot may have been abandoned, in
    /// which case the woken follower installs itself as the new leader
    /// (the `ServeWithoutRecheck` variant is the bug this loop avoids).
    fn acquire(&self, key: &str, ctx: &RequestCtx) -> (CacheOutcome<'_>, bool) {
        if self.capacity == 0 {
            return (CacheOutcome::Disabled, false);
        }
        let mut waited = false;
        let mut st = lock(&self.state);
        loop {
            match st.entries.get(key) {
                Some(CacheSlot::Ready(v)) => return (CacheOutcome::Hit(Arc::clone(v)), waited),
                Some(CacheSlot::InFlight) => {
                    if ctx.is_cancelled() {
                        return (CacheOutcome::Cancelled, waited);
                    }
                    waited = true;
                    let (guard, _) = self
                        .published
                        .wait_timeout(st, WAIT_TICK)
                        .unwrap_or_else(|p| p.into_inner());
                    st = guard;
                }
                None => {
                    st.entries.insert(key.to_string(), CacheSlot::InFlight);
                    return (
                        CacheOutcome::Lead(LeadGuard {
                            cache: self,
                            key: key.to_string(),
                            published: false,
                        }),
                        waited,
                    );
                }
            }
        }
    }

    fn len(&self) -> usize {
        lock(&self.state).entries.len()
    }
}

// ---------------------------------------------------------------------------
// Request / response envelope
// ---------------------------------------------------------------------------

/// A typed request failure, rendered as the `error` object of a
/// response line.
struct ErrorBody {
    code: &'static str,
    message: String,
    extra: Vec<(String, Content)>,
}

impl ErrorBody {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        ErrorBody {
            code,
            message: message.into(),
            extra: Vec::new(),
        }
    }

    fn bad_request(message: impl Into<String>) -> Self {
        Self::new("BadRequest", message)
    }

    fn with(mut self, key: &str, value: Content) -> Self {
        self.extra.push((key.to_string(), value));
        self
    }
}

type Handled = Result<Content, ErrorBody>;

fn render(id: Content, ty: &str, outcome: Handled) -> String {
    let content = match outcome {
        Ok(result) => Content::Map(vec![
            ("id".to_string(), id),
            ("ok".to_string(), Content::Bool(true)),
            ("type".to_string(), Content::Str(ty.to_string())),
            ("result".to_string(), result),
        ]),
        Err(e) => {
            let mut err = vec![
                ("code".to_string(), Content::Str(e.code.to_string())),
                ("message".to_string(), Content::Str(e.message)),
            ];
            err.extend(e.extra);
            Content::Map(vec![
                ("id".to_string(), id),
                ("ok".to_string(), Content::Bool(false)),
                ("type".to_string(), Content::Str(ty.to_string())),
                ("error".to_string(), Content::Map(err)),
            ])
        }
    };
    serde_json::to_string(&content).expect("content serialization is infallible")
}

/// Typed field extraction from a decoded request map. Every helper
/// rejects a wrong-typed value with `BadRequest` instead of guessing.
mod field {
    use super::{Content, ErrorBody};

    fn take(map: &mut Vec<(String, Content)>, key: &str) -> Option<Content> {
        serde::take_field(map, key)
    }

    pub fn u64(map: &mut Vec<(String, Content)>, key: &str) -> Result<Option<u64>, ErrorBody> {
        match take(map, key) {
            None => Ok(None),
            Some(Content::U64(v)) => Ok(Some(v)),
            Some(Content::I64(v)) if v >= 0 => Ok(Some(v as u64)),
            Some(other) => Err(ErrorBody::bad_request(format!(
                "`{key}` must be a non-negative integer, got {other:?}"
            ))),
        }
    }

    pub fn usize(map: &mut Vec<(String, Content)>, key: &str) -> Result<Option<usize>, ErrorBody> {
        Ok(u64(map, key)?.map(|v| v as usize))
    }

    pub fn f64(map: &mut Vec<(String, Content)>, key: &str) -> Result<Option<f64>, ErrorBody> {
        match take(map, key) {
            None => Ok(None),
            Some(Content::F64(v)) => Ok(Some(v)),
            Some(Content::U64(v)) => Ok(Some(v as f64)),
            Some(Content::I64(v)) => Ok(Some(v as f64)),
            Some(other) => Err(ErrorBody::bad_request(format!(
                "`{key}` must be a number, got {other:?}"
            ))),
        }
    }

    pub fn bool(map: &mut Vec<(String, Content)>, key: &str) -> Result<Option<bool>, ErrorBody> {
        match take(map, key) {
            None => Ok(None),
            Some(Content::Bool(v)) => Ok(Some(v)),
            Some(other) => Err(ErrorBody::bad_request(format!(
                "`{key}` must be a boolean, got {other:?}"
            ))),
        }
    }

    pub fn str(map: &mut Vec<(String, Content)>, key: &str) -> Result<Option<String>, ErrorBody> {
        match take(map, key) {
            None => Ok(None),
            Some(Content::Str(v)) => Ok(Some(v)),
            Some(other) => Err(ErrorBody::bad_request(format!(
                "`{key}` must be a string, got {other:?}"
            ))),
        }
    }

    /// Reject leftover keys: a typo'd parameter must fail loudly, not
    /// silently fall back to a default.
    pub fn reject_unknown(map: &[(String, Content)]) -> Result<(), ErrorBody> {
        if let Some((k, _)) = map.first() {
            return Err(ErrorBody::bad_request(format!("unknown parameter `{k}`")));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// One loaded graph plus the shared state that serves it: admission
/// slots, the single-flight result cache, aggregated counters, and the
/// shutdown token every connection token descends from.
pub struct Service {
    graph: SocialGraph,
    cfg: ServiceConfig,
    admission: Admission,
    cache: ResultCache,
    agg: Mutex<MinerStats>,
    shutdown: CancelToken,
}

impl Service {
    /// Wrap `graph` with the given tuning. `max_concurrent` is clamped
    /// to ≥ 1 (a service that can never admit anything is a misconfig,
    /// not a mode).
    pub fn new(graph: SocialGraph, cfg: ServiceConfig) -> Self {
        let capacity = cfg.max_concurrent.max(1);
        Service {
            admission: Admission::new(capacity, cfg.queue_depth),
            cache: ResultCache::new(cfg.cache_capacity),
            agg: Mutex::new(MinerStats::default()),
            shutdown: CancelToken::new(),
            graph,
            cfg,
        }
    }

    /// The root token of the service's cancellation tree. Connection
    /// tokens are children of it; request tokens are grandchildren.
    pub fn shutdown_token(&self) -> &CancelToken {
        &self.shutdown
    }

    /// Begin graceful shutdown: new requests get `ShuttingDown`,
    /// in-flight mines observe cancellation through their token chain,
    /// and [`serve`] stops accepting and drains.
    pub fn shut_down(&self) {
        self.shutdown.cancel();
    }

    /// Admission slots currently free (capacity when idle).
    pub fn slots_available(&self) -> usize {
        self.admission.available()
    }

    /// The admission capacity after clamping.
    pub fn capacity(&self) -> usize {
        self.admission.capacity
    }

    /// Snapshot of the aggregated counters: every completed mine's
    /// [`MinerStats`] merged together, plus the service counters
    /// (`requests_served`, `requests_shed`, `cache_hits`,
    /// `cache_coalesced`).
    pub fn aggregate_stats(&self) -> MinerStats {
        lock(&self.agg).clone()
    }

    /// Handle one request line and produce one response line (without a
    /// trailing newline). Panics in handlers are contained here and
    /// surface as a typed `WorkerPanicked` response — the caller's loop
    /// keeps serving.
    pub fn handle_line(&self, line: &str, conn: &CancelToken) -> String {
        let content: Content = match serde_json::from_str(line) {
            Ok(c) => c,
            Err(e) => {
                return render(
                    Content::Null,
                    "error",
                    Err(ErrorBody::bad_request(format!("invalid JSON: {e}"))),
                )
            }
        };
        let mut map = match content {
            Content::Map(m) => m,
            other => {
                return render(
                    Content::Null,
                    "error",
                    Err(ErrorBody::bad_request(format!(
                        "request must be a JSON object, got {other:?}"
                    ))),
                )
            }
        };
        let id = serde::take_field(&mut map, "id").unwrap_or(Content::Null);
        let ty = match field::str(&mut map, "type") {
            Ok(Some(t)) => t,
            Ok(None) => return render(id, "error", Err(ErrorBody::bad_request("missing `type`"))),
            Err(e) => return render(id, "error", Err(e)),
        };
        if self.shutdown.is_cancelled() {
            return render(
                id,
                &ty,
                Err(ErrorBody::new("ShuttingDown", "service is shutting down")),
            );
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| self.dispatch(&ty, map, conn)));
        let outcome = outcome.unwrap_or_else(|payload| {
            Err(ErrorBody::new("WorkerPanicked", "request handler panicked")
                .with("message", Content::Str(panic_message(payload))))
        });
        render(id, &ty, outcome)
    }

    fn dispatch(&self, ty: &str, mut map: Vec<(String, Content)>, conn: &CancelToken) -> Handled {
        match failpoint::hit("request.handle") {
            Some(failpoint::FaultKind::Panic) => panic!("injected fault at request.handle"),
            Some(failpoint::FaultKind::IoError) | Some(failpoint::FaultKind::ShortRead) => {
                return Err(ErrorBody::new(
                    "Internal",
                    "injected fault at request.handle",
                ))
            }
            Some(failpoint::FaultKind::ShrinkBudget(_)) | None => {}
        }
        match ty {
            "query" => self.handle_query(&mut map),
            "mine" => self.handle_mine(&mut map, conn),
            "schema" => self.handle_schema(&map),
            "stats" => self.handle_stats(&map),
            "shutdown" => {
                field::reject_unknown(&map)?;
                self.shut_down();
                Ok(Content::Map(vec![(
                    "stopping".to_string(),
                    Content::Bool(true),
                )]))
            }
            "failpoint" => self.handle_failpoint(&mut map),
            other => Err(ErrorBody::bad_request(format!(
                "unknown request type `{other}`"
            ))),
        }
    }

    // -- query --------------------------------------------------------------

    fn handle_query(&self, map: &mut Vec<(String, Content)>) -> Handled {
        let gr_text = field::str(map, "gr")?
            .ok_or_else(|| ErrorBody::bad_request("query needs a `gr` string"))?;
        field::reject_unknown(map)?;
        let gr = parse_gr(self.graph.schema(), &gr_text)
            .map_err(|e| ErrorBody::bad_request(format!("bad GR: {e}")))?;
        let measures = query::evaluate(&self.graph, &gr);
        Ok(Content::Map(vec![
            (
                "gr".to_string(),
                Content::Str(gr.display(self.graph.schema())),
            ),
            ("measures".to_string(), to_content(&measures)),
        ]))
    }

    // -- mine ---------------------------------------------------------------

    fn handle_mine(&self, map: &mut Vec<(String, Content)>, conn: &CancelToken) -> Handled {
        // Defaults are the `grmine mine` CLI's, so the two front-ends
        // answer identically for identical inputs.
        let metric_name = field::str(map, "metric")?.unwrap_or_else(|| "nhp".to_string());
        let Some(metric) = RankMetric::from_name(&metric_name) else {
            return Err(ErrorBody::new(
                "UnsupportedMetric",
                format!("unknown metric `{metric_name}`"),
            ));
        };
        let defaults = MinerConfig::for_request(metric, self.graph.edge_count() as u64);
        let min_supp = field::u64(map, "min_supp")?.unwrap_or(defaults.min_supp);
        let min_score = field::f64(map, "min_score")?.unwrap_or(defaults.min_score);
        let k = field::usize(map, "k")?.unwrap_or(defaults.k);
        let dynamic = field::bool(map, "dynamic")?.unwrap_or(true);
        let timeout_ms = field::u64(map, "timeout_ms")?;
        let threads = field::usize(map, "threads")?
            .unwrap_or(1)
            .clamp(1, self.cfg.threads.max(1));
        let max_lhs = field::usize(map, "max_lhs")?;
        let max_rhs = field::usize(map, "max_rhs")?;
        let allow_empty_lhs = field::bool(map, "allow_empty_lhs")?.unwrap_or(false);
        field::reject_unknown(map)?;
        if k == 0 {
            return Err(ErrorBody::bad_request("k must be >= 1"));
        }
        if min_supp == 0 {
            return Err(ErrorBody::bad_request("min_supp must be >= 1"));
        }

        let deadline_ms = timeout_ms.or(self.cfg.default_deadline_ms);
        let token = conn.child();
        let mut cfg = MinerConfig {
            min_supp,
            min_score,
            k,
            dynamic_topk: dynamic,
            max_lhs,
            max_rhs,
            allow_empty_lhs,
            deadline_ms,
            ..defaults
        };
        cfg.cancel = token.clone();

        // Cache key: the full normalized config. The deadline and token
        // are runtime state, not semantics — two requests differing only
        // there (or in `threads`) must coalesce.
        let mut norm = cfg.clone();
        norm.deadline_ms = None;
        norm.cancel = CancelToken::default();
        let key = serde_json::to_string(&norm).expect("config serialization is infallible");

        let ctx = RequestCtx {
            token,
            deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        };

        let (outcome, waited) = self.cache.acquire(&key, &ctx);
        match outcome {
            CacheOutcome::Hit(result) => {
                {
                    let mut agg = lock(&self.agg);
                    agg.requests_served += 1;
                    if waited {
                        agg.cache_coalesced += 1;
                    } else {
                        agg.cache_hits += 1;
                    }
                }
                Ok(mine_result_content(&result, true, waited))
            }
            CacheOutcome::Cancelled => Err(cancelled_error(None)),
            CacheOutcome::Disabled => self.admit_and_mine(&ctx, cfg, threads, None),
            CacheOutcome::Lead(guard) => self.admit_and_mine(&ctx, cfg, threads, Some(guard)),
        }
    }

    /// Take an admission slot, run the engine, publish on success. The
    /// `LeadGuard` (when caching) abandons its entry on every error
    /// path simply by being dropped.
    fn admit_and_mine(
        &self,
        ctx: &RequestCtx,
        cfg: MinerConfig,
        threads: usize,
        lead: Option<LeadGuard<'_>>,
    ) -> Handled {
        let slot = match self.admission.admit(ctx) {
            AdmitOutcome::Admitted(slot) => slot,
            AdmitOutcome::Shed => {
                lock(&self.agg).requests_shed += 1;
                return Err(ErrorBody::new(
                    "Overloaded",
                    format!(
                        "no admission slot free and {} requests already queued",
                        self.admission.queue_depth
                    ),
                )
                .with("retry_after_ms", Content::U64(self.cfg.retry_after_ms)));
            }
            AdmitOutcome::Cancelled => return Err(cancelled_error(None)),
        };
        let outcome = try_mine_parallel_with_opts(
            &self.graph,
            &cfg,
            &Dims::all(self.graph.schema()),
            ParallelOptions {
                threads,
                ..ParallelOptions::default()
            },
        );
        drop(slot);
        match outcome {
            Ok(result) => {
                let result = Arc::new(result);
                if let Some(guard) = lead {
                    guard.publish(Arc::clone(&result));
                }
                let mut agg = lock(&self.agg);
                agg.merge(&result.stats);
                agg.requests_served += 1;
                drop(agg);
                Ok(mine_result_content(&result, false, false))
            }
            Err(e) => {
                if let Some(partial) = e.partial_stats() {
                    lock(&self.agg).merge(partial);
                }
                Err(miner_error_body(e))
            }
        }
    }

    // -- introspection ------------------------------------------------------

    fn handle_schema(&self, map: &[(String, Content)]) -> Handled {
        field::reject_unknown(map)?;
        let schema = self.graph.schema();
        let node_attrs: Vec<Content> = schema
            .node_attr_ids()
            .map(|a| {
                let def = schema.node_attr(a);
                Content::Map(vec![
                    ("name".to_string(), Content::Str(def.name().to_string())),
                    (
                        "domain_size".to_string(),
                        Content::U64(u64::from(def.domain_size())),
                    ),
                    ("homophily".to_string(), Content::Bool(def.is_homophily())),
                ])
            })
            .collect();
        let edge_attrs: Vec<Content> = schema
            .edge_attr_ids()
            .map(|a| {
                let def = schema.edge_attr(a);
                Content::Map(vec![
                    ("name".to_string(), Content::Str(def.name().to_string())),
                    (
                        "domain_size".to_string(),
                        Content::U64(u64::from(def.domain_size())),
                    ),
                ])
            })
            .collect();
        Ok(Content::Map(vec![
            (
                "nodes".to_string(),
                Content::U64(self.graph.node_count() as u64),
            ),
            (
                "edges".to_string(),
                Content::U64(self.graph.edge_count() as u64),
            ),
            ("node_attrs".to_string(), Content::Seq(node_attrs)),
            ("edge_attrs".to_string(), Content::Seq(edge_attrs)),
        ]))
    }

    fn handle_stats(&self, map: &[(String, Content)]) -> Handled {
        field::reject_unknown(map)?;
        Ok(Content::Map(vec![
            ("counters".to_string(), to_content(&self.aggregate_stats())),
            (
                "max_concurrent".to_string(),
                Content::U64(self.admission.capacity as u64),
            ),
            (
                "queue_depth".to_string(),
                Content::U64(self.admission.queue_depth as u64),
            ),
            (
                "slots_available".to_string(),
                Content::U64(self.slots_available() as u64),
            ),
            (
                "cache_entries".to_string(),
                Content::U64(self.cache.len() as u64),
            ),
        ]))
    }

    // -- fault injection ----------------------------------------------------

    fn handle_failpoint(&self, map: &mut Vec<(String, Content)>) -> Handled {
        if !cfg!(feature = "fault-inject") {
            return Err(ErrorBody::bad_request(
                "fault injection is not compiled in (build with --features fault-inject)",
            ));
        }
        let action = field::str(map, "action")?
            .ok_or_else(|| ErrorBody::bad_request("failpoint needs an `action`"))?;
        match action.as_str() {
            "disarm" => {
                field::reject_unknown(map)?;
                failpoint::disarm_all();
                Ok(Content::Map(vec![
                    ("disarmed".to_string(), Content::Bool(true)),
                    (
                        "fired_total".to_string(),
                        Content::U64(failpoint::fired_total()),
                    ),
                ]))
            }
            "arm" => {
                let site_name = field::str(map, "site")?
                    .ok_or_else(|| ErrorBody::bad_request("arm needs a `site`"))?;
                let after = field::u64(map, "after")?.unwrap_or(0);
                let times = field::u64(map, "times")?.unwrap_or(1);
                let kind_name = field::str(map, "kind")?
                    .ok_or_else(|| ErrorBody::bad_request("arm needs a `kind`"))?;
                let bytes = field::u64(map, "bytes")?;
                field::reject_unknown(map)?;
                // The registry takes `&'static str`; resolve through the
                // published site table rather than leaking request strings.
                let Some(site) = failpoint::SITES.iter().copied().find(|s| *s == site_name) else {
                    return Err(ErrorBody::bad_request(format!(
                        "unknown failpoint site `{site_name}` (known: {})",
                        failpoint::SITES.join(", ")
                    )));
                };
                let kind = match kind_name.as_str() {
                    "io-error" => failpoint::FaultKind::IoError,
                    "short-read" => failpoint::FaultKind::ShortRead,
                    "panic" => failpoint::FaultKind::Panic,
                    "shrink-budget" => failpoint::FaultKind::ShrinkBudget(
                        bytes
                            .ok_or_else(|| ErrorBody::bad_request("shrink-budget needs `bytes`"))?,
                    ),
                    other => {
                        return Err(ErrorBody::bad_request(format!(
                            "unknown fault kind `{other}`"
                        )))
                    }
                };
                failpoint::arm(site, after, times, kind);
                Ok(Content::Map(vec![
                    ("armed".to_string(), Content::Bool(true)),
                    ("site".to_string(), Content::Str(site.to_string())),
                ]))
            }
            other => Err(ErrorBody::bad_request(format!(
                "unknown failpoint action `{other}`"
            ))),
        }
    }
}

fn cancelled_error(partial: Option<&MinerStats>) -> ErrorBody {
    let mut e = ErrorBody::new("Cancelled", "request cancelled before completion");
    if let Some(stats) = partial {
        e = e.with("partial_stats", to_content(stats));
    }
    e
}

fn miner_error_body(e: MinerError) -> ErrorBody {
    match e {
        MinerError::Cancelled { partial_stats } => cancelled_error(Some(&partial_stats)),
        MinerError::WorkerPanicked {
            message,
            partial_stats,
        } => ErrorBody::new("WorkerPanicked", "a mining worker panicked")
            .with("message", Content::Str(message))
            .with("partial_stats", to_content(&*partial_stats)),
        MinerError::UnsupportedMetric(m) => {
            ErrorBody::new("UnsupportedMetric", format!("metric {m} unsupported here"))
        }
        MinerError::Graph(g) => ErrorBody::new("Internal", g.to_string()),
    }
}

/// Render a mine result with the pinned `--json` GR schema
/// ([`crate::ScoredGr`]'s serialization) and the pinned `--stats-json`
/// counter schema ([`MinerStats`]'s serialization).
fn mine_result_content(result: &MineResult, cached: bool, coalesced: bool) -> Content {
    Content::Map(vec![
        ("top".to_string(), to_content(&result.top)),
        ("stats".to_string(), to_content(&result.stats)),
        ("edge_count".to_string(), Content::U64(result.edge_count)),
        ("cached".to_string(), Content::Bool(cached)),
        ("coalesced".to_string(), Content::Bool(coalesced)),
    ])
}

// ---------------------------------------------------------------------------
// Connection plumbing
// ---------------------------------------------------------------------------

/// Serve one TCP connection until it disconnects or the service shuts
/// down. A dedicated reader thread detects disconnect *while a request
/// is being handled* and cancels the connection token, which cancels
/// every in-flight request token derived from it.
///
/// Each response line goes out in one write. Written apart, the newline
/// costs a segment of its own on a `TCP_NODELAY` socket; on any other,
/// Nagle's algorithm holds it until the peer ACKs the body, which a
/// peer still waiting for that newline delays by ~40 ms.
pub fn serve_connection(service: &Service, stream: TcpStream) {
    let conn = service.shutdown_token().child();
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let _ = reader_stream.set_read_timeout(Some(Duration::from_millis(50)));
    let (tx, rx) = mpsc::channel::<Result<String, ErrorBody>>();
    let reader_conn = conn.clone();
    let reader = std::thread::spawn(move || read_lines(reader_stream, &tx, &reader_conn));
    let mut out = stream;
    // The reader drops the sender when it returns (EOF, a read error, an
    // over-long line, or a cancelled token, which it checks at every
    // read timeout), so this loop needs no timeout of its own.
    while let Ok(next) = rx.recv() {
        match next {
            Ok(line) => {
                if write_line(&mut out, service.handle_line(&line, &conn)).is_err() {
                    break;
                }
            }
            Err(e) => {
                let _ = write_line(&mut out, render(Content::Null, "error", Err(e)));
                // Half-close so the peer reads EOF after this line: the
                // bytes of the line left unread make the close a reset,
                // which reads as an error unless a FIN came first.
                let _ = out.shutdown(Shutdown::Write);
                break;
            }
        }
    }
    conn.cancel();
    let _ = reader.join();
}

fn write_line(out: &mut TcpStream, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Feed complete lines from the socket into the channel; on EOF or a
/// hard read error, cancel the connection token so in-flight requests
/// stop mining for a peer that is gone. Each byte is scanned once, and
/// a line longer than [`MAX_REQUEST_BYTES`] ends the connection's input
/// with one error after the lines before it.
fn read_lines(
    mut stream: TcpStream,
    tx: &mpsc::Sender<Result<String, ErrorBody>>,
    conn: &CancelToken,
) {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if conn.is_cancelled() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                conn.cancel();
                return;
            }
            Ok(n) => {
                for piece in chunk[..n].split_inclusive(|&b| b == b'\n') {
                    let (body, complete) = match piece.split_last() {
                        Some((b'\n', body)) => (body, true),
                        _ => (piece, false),
                    };
                    buf.extend_from_slice(body);
                    if buf.len() > MAX_REQUEST_BYTES {
                        let _ = tx.send(Err(ErrorBody::bad_request(format!(
                            "request line exceeds {MAX_REQUEST_BYTES} bytes"
                        ))));
                        return;
                    }
                    if complete {
                        let line = String::from_utf8_lossy(&buf).into_owned();
                        buf.clear();
                        if !line.trim().is_empty() && tx.send(Ok(line)).is_err() {
                            return;
                        }
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                conn.cancel();
                return;
            }
        }
    }
}

/// Accept connections until the service shuts down, then drain every
/// connection thread and return. The accept loop polls so it can
/// observe shutdown without a wakeup socket.
pub fn serve(listener: TcpListener, service: &Arc<Service>) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !service.shutdown_token().is_cancelled() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                // A response longer than one segment must not wait on
                // the peer's delayed ACK for its last, partial segment.
                let _ = stream.set_nodelay(true);
                let svc = Arc::clone(service);
                handles.push(std::thread::spawn(move || serve_connection(&svc, stream)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(WAIT_TICK);
            }
            Err(_) => std::thread::sleep(WAIT_TICK),
        }
        handles.retain(|h| !h.is_finished());
    }
    for h in handles {
        let _ = h.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_service(cfg: ServiceConfig) -> Service {
        let schema = grm_graph::SchemaBuilder::new()
            .node_attr_named("SEX", false, ["F", "M"])
            .node_attr_named("EDU", true, ["HS", "College", "Grad"])
            .build()
            .unwrap();
        let mut b = grm_graph::GraphBuilder::new(schema);
        let f_grad = b.add_node(&[1, 3]).unwrap();
        let m_grad = b.add_node(&[2, 3]).unwrap();
        let m_coll = b.add_node(&[2, 2]).unwrap();
        b.add_edge(f_grad, m_grad, &[]).unwrap();
        b.add_edge(f_grad, m_coll, &[]).unwrap();
        Service::new(b.build().unwrap(), cfg)
    }

    #[test]
    fn admission_sheds_beyond_queue_and_releases_on_drop() {
        let adm = Admission::new(1, 1);
        let ctx = RequestCtx {
            token: CancelToken::default(),
            deadline: None,
        };
        let slot = match adm.admit(&ctx) {
            AdmitOutcome::Admitted(s) => s,
            _ => panic!("first arrival takes the slot"),
        };
        assert_eq!(adm.available(), 0);
        // Queue is empty; an already-expired deadline cancels out of it.
        let expired = RequestCtx {
            token: CancelToken::default(),
            deadline: Some(Instant::now()),
        };
        assert!(matches!(adm.admit(&expired), AdmitOutcome::Cancelled));
        drop(slot);
        assert_eq!(adm.available(), 1, "RAII release restores the slot");
    }

    #[test]
    fn cache_leads_then_hits_and_abandon_wakes() {
        let cache = ResultCache::new(4);
        let ctx = RequestCtx {
            token: CancelToken::default(),
            deadline: None,
        };
        let (outcome, waited) = cache.acquire("k", &ctx);
        assert!(!waited);
        let guard = match outcome {
            CacheOutcome::Lead(g) => g,
            _ => panic!("cold cache leads"),
        };
        // Abandon: the entry disappears, the next probe leads again.
        drop(guard);
        let (outcome, _) = cache.acquire("k", &ctx);
        let guard = match outcome {
            CacheOutcome::Lead(g) => g,
            _ => panic!("abandoned entry re-leads"),
        };
        let result = Arc::new(MineResult {
            top: Vec::new(),
            stats: MinerStats::default(),
            edge_count: 7,
        });
        guard.publish(Arc::clone(&result));
        let (outcome, _) = cache.acquire("k", &ctx);
        match outcome {
            CacheOutcome::Hit(hit) => assert_eq!(hit.edge_count, 7),
            _ => panic!("published entry hits"),
        }
    }

    #[test]
    fn cache_eviction_is_fifo_and_skips_inflight() {
        let cache = ResultCache::new(1);
        let ctx = RequestCtx {
            token: CancelToken::default(),
            deadline: None,
        };
        let publish = |key: &str| {
            let (outcome, _) = cache.acquire(key, &ctx);
            match outcome {
                CacheOutcome::Lead(g) => g.publish(Arc::new(MineResult {
                    top: Vec::new(),
                    stats: MinerStats::default(),
                    edge_count: 0,
                })),
                _ => panic!("expected lead for {key}"),
            }
        };
        publish("a");
        publish("b");
        assert_eq!(cache.len(), 1, "capacity 1 evicted the older entry");
        let (outcome, _) = cache.acquire("b", &ctx);
        match outcome {
            CacheOutcome::Hit(_) => {}
            _ => panic!("newest entry survives"),
        }
    }

    #[test]
    fn handle_line_rejects_garbage_with_typed_errors() {
        let svc = toy_service(ServiceConfig::default());
        let conn = CancelToken::default();
        for (line, expect) in [
            ("not json", "BadRequest"),
            ("[1,2]", "BadRequest"),
            ("{\"id\":1}", "BadRequest"),
            ("{\"id\":1,\"type\":\"nope\"}", "BadRequest"),
            ("{\"id\":1,\"type\":\"mine\",\"k\":0}", "BadRequest"),
            ("{\"id\":1,\"type\":\"mine\",\"bogus\":1}", "BadRequest"),
            (
                "{\"id\":1,\"type\":\"mine\",\"metric\":\"zzz\"}",
                "UnsupportedMetric",
            ),
        ] {
            let resp = svc.handle_line(line, &conn);
            assert!(resp.contains("\"ok\":false"), "{line} -> {resp}");
            assert!(resp.contains(expect), "{line} -> {resp}");
        }
    }

    #[test]
    fn shutdown_gates_new_requests() {
        let svc = toy_service(ServiceConfig::default());
        let conn = CancelToken::default();
        svc.shut_down();
        let resp = svc.handle_line("{\"id\":9,\"type\":\"schema\"}", &conn);
        assert!(resp.contains("ShuttingDown"), "{resp}");
        assert!(resp.contains("\"id\":9"), "{resp}");
    }
}
