//! Deterministic fault injection, compiled in under the `fault-inject`
//! cargo feature and zero-cost otherwise.
//!
//! A *failpoint* is a named site in a failure-prone path (shard spill
//! writes, shard and slice loads, pool eviction, worker bodies). Tests [`arm`] a
//! site with a hit index and a [`FaultKind`]; the site's [`hit`] probe
//! returns the fault exactly once, on exactly that hit — driven by the
//! test's seeded schedule, never by a clock — so every injected short
//! read, corrupted section, budget shrink, and worker panic is
//! reproducible. Without the feature every probe compiles to `None`
//! and the registry does not exist.
//!
//! The registry is process-global: tests that arm failpoints must
//! serialize themselves (the injection suite shares one mutex) and
//! [`disarm_all`] when done.

/// What an armed failpoint injects at its site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The site fails with a synthetic I/O error.
    IoError,
    /// The site observes a truncated read (surfaces as
    /// [`crate::ShardIoError::ShortRead`]).
    ShortRead,
    /// The site panics (exercises worker containment).
    Panic,
    /// The site shrinks the pool's memory budget to the given byte
    /// count (exercises mid-mine budget pressure).
    ShrinkBudget(u64),
}

/// Known failpoint sites, for discoverability (the API takes plain
/// strings so call sites stay dependency-free).
pub const SITES: &[&str] = &[
    "spill.write",
    "shard.load",
    "slice.load",
    "pool.evict",
    "worker.body",
    "request.handle",
];

#[cfg(feature = "fault-inject")]
mod imp {
    use super::FaultKind;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    struct Plan {
        /// Fire on the hit with this 0-based index…
        after: u64,
        /// …and on the `times - 1` hits after it…
        times: u64,
        /// …injecting this fault.
        kind: FaultKind,
        hits: u64,
    }

    static PLANS: OnceLock<Mutex<HashMap<&'static str, Plan>>> = OnceLock::new();
    static FIRED: AtomicU64 = AtomicU64::new(0);

    fn plans() -> MutexGuard<'static, HashMap<&'static str, Plan>> {
        PLANS
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            // An injected panic can unwind through a thread that held
            // nothing here, but a poisoned registry must not cascade —
            // the map itself is always left consistent.
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Arm `site` to inject `kind` on its `after`-th hit (0 = next)
    /// and the `times - 1` hits after it (`times` > 1 exercises
    /// bounded-retry exhaustion).
    pub fn arm(site: &'static str, after: u64, times: u64, kind: FaultKind) {
        plans().insert(
            site,
            Plan {
                after,
                times,
                kind,
                hits: 0,
            },
        );
    }

    /// Clear every armed site (hit counters included).
    pub fn disarm_all() {
        plans().clear();
    }

    /// Total faults injected since process start.
    pub fn fired_total() -> u64 {
        // ordering: Acquire pairs with the AcqRel bump in `hit`; a
        // mine reading its faults_injected delta after joining its
        // workers must observe every fault those workers fired.
        FIRED.load(Ordering::Acquire)
    }

    /// Probe `site`: `Some(kind)` exactly when an armed plan fires.
    pub fn hit(site: &str) -> Option<FaultKind> {
        let mut plans = plans();
        let plan = plans.get_mut(site)?;
        let n = plan.hits;
        plan.hits += 1;
        if n >= plan.after && n < plan.after.saturating_add(plan.times) {
            // ordering: AcqRel so concurrent sites bump a single total
            // count and `fired_total` readers (see there) see it.
            FIRED.fetch_add(1, Ordering::AcqRel);
            Some(plan.kind)
        } else {
            None
        }
    }
}

#[cfg(not(feature = "fault-inject"))]
mod imp {
    use super::FaultKind;

    /// No-op without the `fault-inject` feature.
    #[inline(always)]
    pub fn arm(_site: &'static str, _after: u64, _times: u64, _kind: FaultKind) {}

    /// No-op without the `fault-inject` feature.
    #[inline(always)]
    pub fn disarm_all() {}

    /// Always zero without the `fault-inject` feature.
    #[inline(always)]
    pub fn fired_total() -> u64 {
        0
    }

    /// Always `None` without the `fault-inject` feature — the probe
    /// and its branch fold away entirely.
    #[inline(always)]
    pub fn hit(_site: &str) -> Option<FaultKind> {
        None
    }
}

pub use imp::{arm, disarm_all, fired_total, hit};

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The registry is process-global; serialize the tests that use it.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn fires_exactly_on_the_scheduled_hits() {
        let _g = guard();
        disarm_all();
        let before = fired_total();
        arm("spill.write", 2, 1, FaultKind::IoError);
        assert_eq!(hit("spill.write"), None);
        assert_eq!(hit("spill.write"), None);
        assert_eq!(hit("spill.write"), Some(FaultKind::IoError));
        assert_eq!(hit("spill.write"), None);
        assert_eq!(fired_total() - before, 1);

        // times > 1: consecutive hits all fire (retry exhaustion).
        arm("spill.write", 0, 2, FaultKind::IoError);
        assert_eq!(hit("spill.write"), Some(FaultKind::IoError));
        assert_eq!(hit("spill.write"), Some(FaultKind::IoError));
        assert_eq!(hit("spill.write"), None);
        disarm_all();
    }

    #[test]
    fn unarmed_sites_do_not_fire() {
        let _g = guard();
        disarm_all();
        assert_eq!(hit("shard.load"), None);
    }
}
