//! Instrumentation counters for mining runs.
//!
//! Theorem 4(2) claims GRMiner's work is proportional to the number of GRs
//! examined; these counters make that claim measurable (and drive the
//! Fig. 4 analyses, where the pruning power of `minNhp` and the dynamic
//! top-k threshold is the whole story).
//!
//! Each counter is declared once, as one row of the `miner_stats!` table
//! below: doc comment, field, `Display` label, merge rule and class.
//! - The merge rule says how [`MinerStats::merge`] combines two run
//!   segments: `sum` adds, `max` keeps the larger high-water mark.
//! - The class says what [`MinerStats::semantic`] keeps: a `semantic`
//!   counter describes the enumeration itself, a `work` counter one
//!   execution of it (threads, splitting, shards, faults, service
//!   traffic).
//!
//! The struct, `merge`, `semantic` and `Display` are generated from the
//! table, and serde emits the fields in row order, so adding a counter
//! means one row plus the pinned `--stats-json` key list in
//! `tests/cli_and_parse.rs`.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One row's merge rule, applied to `self.field` and `other.field`.
macro_rules! merge_counter {
    (sum, $a:expr, $b:expr) => {
        $a += $b
    };
    (max, $a:expr, $b:expr) => {
        $a = $a.max($b)
    };
}

/// One row's value in [`MinerStats::semantic`].
macro_rules! semantic_value {
    (semantic, $v:expr) => {
        $v
    };
    (work, $v:expr) => {
        0
    };
}

/// Generates [`MinerStats`], `merge`, `semantic` and `Display` from the
/// counter table (module docs).
macro_rules! miner_stats {
    ($(
        $(#[doc = $doc:literal])*
        $name:ident: $label:literal, $merge:ident, $class:ident;
    )*) => {
        /// Counters collected during one mining run.
        #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
        pub struct MinerStats {
            $(
                $(#[doc = $doc])*
                ///
                #[doc = concat!("Class `", stringify!($class), "`, merged by `", stringify!($merge), "`.")]
                pub $name: u64,
            )*
            /// Wall-clock time of the run. Merged by `max`; zeroed by
            /// [`MinerStats::semantic`].
            #[serde(with = "duration_serde")]
            pub elapsed: Duration,
        }

        impl MinerStats {
            /// Merge counters from another run segment (an engine worker's,
            /// or a finished mine into the service's aggregate): a `sum`
            /// counter adds, a `max` counter keeps the larger high-water
            /// mark, and `elapsed` takes the max.
            pub fn merge(&mut self, other: &MinerStats) {
                $(merge_counter!($merge, self.$name, other.$name);)*
                self.elapsed = self.elapsed.max(other.elapsed);
            }

            /// Copy with every `work` counter and `elapsed` zeroed, keeping
            /// only the `semantic` counters — the ones that must be
            /// bit-identical across execution strategies (thread counts,
            /// work stealing, dominant-task and subtree splitting, shard
            /// counts) for the same enumeration.
            pub fn semantic(&self) -> MinerStats {
                MinerStats {
                    $($name: semantic_value!($class, self.$name),)*
                    elapsed: Duration::ZERO,
                }
            }
        }

        /// `label=value` pairs in row order, then `elapsed`.
        impl std::fmt::Display for MinerStats {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                $(write!(f, concat!($label, "={} "), self.$name)?;)*
                write!(f, "elapsed={:?}", self.elapsed)
            }
        }
    };
}

miner_stats! {
    /// Enumeration-tree nodes visited (attribute-set × partition).
    partitions_examined: "partitions", sum, semantic;
    /// Candidate GRs examined at RIGHT nodes (r non-empty).
    grs_examined: "grs", sum, semantic;
    /// Partitions discarded by the `minSupp` threshold.
    pruned_by_supp: "pruned_supp", sum, semantic;
    /// RIGHT partitions whose subtree was cut by the score threshold
    /// (user `min_score`, or the dynamically upgraded top-k bound).
    pruned_by_score: "pruned_score", sum, semantic;
    /// GRs rejected as trivial (§III-B).
    rejected_trivial: "trivial", sum, semantic;
    /// Collected GRs the post-pass rejected because a more general GR
    /// passes the thresholds (Def. 5(2)).
    rejected_generality: "general", sum, semantic;
    /// GRs collected for the post-pass: threshold-passing, reportable
    /// and non-trivial, before the generality filter and the top-k rank.
    accepted: "accepted", sum, semantic;
    /// Homophily-effect snapshot scans performed. One group-by pass fills
    /// every β support of an `l ∧ w` node at once, so this counts at most
    /// one scan per node reaching a non-empty β (on the wide-LHS fallback
    /// path it counts per-β memo misses, as before).
    heff_scans: "heff_scans", sum, semantic;
    /// Every counting pass over an edge-position slice, scattered or not
    /// (LEFT/EDGE/RIGHT dimensions plus β group-by passes). A *work*
    /// counter, not a semantic one: the parallel miner's value-chunk
    /// splitting legitimately repeats top-level passes, so this varies
    /// with threading while [`MinerStats::semantic`] stays fixed.
    partition_passes: "passes", sum, work;
    /// Positions read by the passes `partition_passes` counts, β
    /// group-by passes included: each pass adds its slice length once.
    /// A *work* counter for the same reason as `partition_passes`; a
    /// permutation of the positions leaves it unchanged.
    positions_counted: "counted", sum, work;
    /// Positions moved by the recursion's scatters: each scatter adds
    /// its slice length once. A *work* counter, like
    /// `partition_passes`.
    positions_scattered: "scattered", sum, work;
    /// Suppressor checks the top-k post-pass sent to the engine's
    /// complete-edge-set count (memo misses only). A *work* counter: it
    /// follows which subtrees the shared dynamic bound cut, so it
    /// varies with worker timing, and a static mine reads 0.
    post_pass_evaluations: "post_pass_evaluations", sum, work;
    /// Always 0. It counted the passes a parent's fused two-level scatter
    /// pre-counted; every pass now counts its own slice. The row stays
    /// only because the repo benchmark (`perfbench/`) reads it as
    /// `miner.fused_passes`; it goes with the next benchmark change.
    fused_passes: "fused", sum, work;
    /// Always 0. It counted the 8-wide batches of the counting kernels;
    /// every pass now counts through one routine in `grm_graph::sort`.
    /// The row stays only because the repo benchmark (`perfbench/`)
    /// reads it as `miner.kernel_batches`; it goes with the next
    /// benchmark change.
    kernel_batches: "kernel_batches", sum, work;
    /// High-water mark, in bytes, of the partition arena's owned scratch
    /// (`grm_graph::sort::PartitionArena::peak_bytes`). Stable across
    /// repeated identical runs — the zero-allocation guarantee made
    /// observable.
    scratch_bytes_peak: "scratch_peak", max, work;
    /// Successful cross-worker steal operations of a pool engine, in-core
    /// or sharded (each moves a steal-half batch from a sibling's deque).
    /// A *work* counter: inherently timing-dependent, zero with one
    /// worker.
    tasks_stolen: "stolen", sum, work;
    /// Oversized recursion subtrees the parallel miner detached into
    /// stealable tasks (`SubtreeTask`). A *work* counter: depends on the
    /// split policy and thread count, never on the mined data's
    /// semantics.
    subtree_splits: "splits", sum, work;
    /// Times a worker tightened the shared dynamic top-k bound (the
    /// collect-mode restoration of Algorithm 1 line 28). A *work*
    /// counter: the tightening sequence depends on worker timing even
    /// though the final results do not.
    bound_tightenings: "tightenings", sum, work;
    /// Persistent shards the sharded miner's store was partitioned into
    /// (`grm_core::sharded`). A *work* counter: zero for in-core runs,
    /// and any shard count yields bit-identical results.
    shards_built: "shards", sum, work;
    /// Slice sets the sharded miner spilled for one mine: one per
    /// non-dominant LHS dimension, plus one per RHS and edge dimension
    /// when empty LHSes are reportable (5 and 11 on the Pokec schema).
    /// Each is a full re-spill of the edge set. A *work* counter: zero
    /// for in-core runs.
    slice_sets_built: "slice_sets", sum, work;
    /// Shard loads performed by the sharded miner's residency pool —
    /// cold acquisitions that read a spill file into memory. A *work*
    /// counter: depends on the memory budget and worker timing.
    shard_loads: "shard_loads", sum, work;
    /// Resident shards evicted by the residency pool to make room under
    /// the memory budget. A *work* counter: `shard_loads - shard_count`
    /// re-loads were caused by these.
    shard_evictions: "shard_evictions", sum, work;
    /// High-water mark, in bytes, of resident shard/slice bytes in the
    /// sharded miner's pool (`≤` the configured memory budget by
    /// construction). An unbudgeted multi-worker mine's peak depends on
    /// worker timing — on which shard leases and slice reservations the
    /// workers happen to hold at once — so it is not compared across
    /// runs or gated; a one-worker mine repeats it exactly.
    shard_resident_bytes_peak: "shard_peak", max, work;
    /// Cancellation-flag probes performed (worker loop-top,
    /// recursion-node and shard-load granularity; see
    /// `grm_graph::cancel`). A *work* counter: varies with task
    /// splitting and thread count. Every engine materializes a token
    /// for its workers, so every mine probes.
    cancel_checks: "cancel_checks", sum, work;
    /// Faults injected by the deterministic failpoint registry
    /// (`grm_graph::failpoint`). Always zero without the `fault-inject`
    /// feature; a *work* counter driven entirely by the test schedule.
    faults_injected: "faults_injected", sum, work;
    /// Transient spill-write failures that were retried (and recovered
    /// from) while writing shard/slice files — bounded to one retry per
    /// chunk. A *work* counter: zero for in-core runs and fault-free
    /// sharded runs.
    spill_retries: "spill_retries", sum, work;
    /// Requests the GR service (`grm_core::service`) answered with a
    /// success response — any request type, over the daemon's lifetime.
    /// A *work* counter: zero outside service mode, and aggregated in
    /// the service's long-lived stats, never in a single mine's.
    requests_served: "requests_served", sum, work;
    /// Requests the service's admission controller shed with a typed
    /// `Overloaded` response (no slot free, bounded queue full). A
    /// *work* counter: purely a function of concurrent load.
    requests_shed: "requests_shed", sum, work;
    /// Mine requests served straight from the deterministic result
    /// cache (a mine is a pure function of its config). A *work*
    /// counter: depends on request history, not mining semantics.
    cache_hits: "cache_hits", sum, work;
    /// Mine requests that coalesced onto another request's in-flight
    /// identical mine (single-flight deduplication) instead of mining
    /// themselves. A *work* counter: purely a function of request
    /// timing.
    cache_coalesced: "cache_coalesced", sum, work;
}

mod duration_serde {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        d.as_secs_f64().serialize(s)
    }

    /// Stats JSON may come from untrusted files; a negative, NaN,
    /// infinite, or overflowing `elapsed` must surface as a serde error,
    /// not the panic `Duration::from_secs_f64` would raise.
    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        let secs = f64::deserialize(d)?;
        Duration::try_from_secs_f64(secs)
            .map_err(|e| serde::de::Error::custom(format!("invalid elapsed seconds {secs}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    /// Every counter in declaration order, spelled out by hand: the
    /// tests below must not read the table they check.
    const COUNTERS: [&str; 30] = [
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
    ];

    /// Stats with counter `i` set to `value(i)`, built through serde.
    fn filled(value: impl Fn(usize) -> u64, elapsed_secs: f64) -> MinerStats {
        let fields: Vec<String> = COUNTERS
            .iter()
            .enumerate()
            .map(|(i, key)| format!("\"{key}\":{}", value(i)))
            .collect();
        let json = format!("{{{},\"elapsed\":{elapsed_secs}}}", fields.join(","));
        serde_json::from_str(&json).unwrap()
    }

    /// `(key, value)` of every counter, in serialization order.
    fn counters(s: &MinerStats) -> Vec<(String, u64)> {
        let Content::Map(fields) = serde::to_content(s) else {
            panic!("MinerStats serializes as a map");
        };
        fields
            .into_iter()
            .filter_map(|(key, v)| match v {
                Content::U64(n) => Some((key, n)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn merge_and_semantic_follow_each_counters_rule_and_class() {
        // a's counters are 1..=30, b's all 100: a sum and a max differ
        // for every counter, and every counter is non-zero in both.
        let a = filled(|i| i as u64 + 1, 0.25);
        let b = filled(|_| 100, 0.5);
        let keys: Vec<String> = counters(&a).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, COUNTERS, "30 counters, serialized in this order");

        let kept: Vec<String> = counters(&a.semantic())
            .into_iter()
            .filter(|&(_, v)| v != 0)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(
            kept,
            [
                "partitions_examined",
                "grs_examined",
                "pruned_by_supp",
                "pruned_by_score",
                "rejected_trivial",
                "rejected_generality",
                "accepted",
                "heff_scans",
            ],
            "semantic() keeps exactly the enumeration counters"
        );
        assert_eq!(a.semantic().elapsed, Duration::ZERO);

        let mut merged = a.clone();
        merged.merge(&b);
        let mut maxed = Vec::new();
        for ((key, m), ((_, x), (_, y))) in counters(&merged)
            .into_iter()
            .zip(counters(&a).into_iter().zip(counters(&b)))
        {
            if m == x.max(y) {
                maxed.push(key);
            } else {
                assert_eq!(m, x + y, "{key} adds");
            }
        }
        assert_eq!(maxed, ["scratch_bytes_peak", "shard_resident_bytes_peak"]);
        assert_eq!(merged.elapsed, Duration::from_millis(500));
    }

    #[test]
    fn merge_adds_counts_and_maxes_time() {
        let mut a = MinerStats {
            partitions_examined: 5,
            grs_examined: 3,
            elapsed: Duration::from_millis(10),
            ..Default::default()
        };
        let b = MinerStats {
            partitions_examined: 7,
            pruned_by_supp: 2,
            elapsed: Duration::from_millis(25),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.partitions_examined, 12);
        assert_eq!(a.grs_examined, 3);
        assert_eq!(a.pruned_by_supp, 2);
        assert_eq!(a.elapsed, Duration::from_millis(25));
    }

    #[test]
    fn merge_adds_passes_and_maxes_peak() {
        let mut a = MinerStats {
            partition_passes: 10,
            fused_passes: 4,
            kernel_batches: 100,
            scratch_bytes_peak: 1000,
            ..Default::default()
        };
        let b = MinerStats {
            partition_passes: 5,
            fused_passes: 1,
            kernel_batches: 40,
            scratch_bytes_peak: 800,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.partition_passes, 15);
        assert_eq!(a.fused_passes, 5);
        assert_eq!(a.kernel_batches, 140);
        assert_eq!(a.scratch_bytes_peak, 1000, "peak merges with max");
    }

    #[test]
    fn semantic_clears_only_instrumentation() {
        let s = MinerStats {
            grs_examined: 7,
            accepted: 3,
            partition_passes: 99,
            fused_passes: 12,
            kernel_batches: 777,
            scratch_bytes_peak: 4096,
            tasks_stolen: 6,
            subtree_splits: 4,
            bound_tightenings: 11,
            shards_built: 4,
            slice_sets_built: 5,
            shard_loads: 9,
            shard_evictions: 5,
            shard_resident_bytes_peak: 1 << 20,
            elapsed: Duration::from_millis(5),
            ..Default::default()
        };
        let sem = s.semantic();
        assert_eq!(sem.grs_examined, 7);
        assert_eq!(sem.accepted, 3);
        assert_eq!(sem.partition_passes, 0);
        assert_eq!(sem.fused_passes, 0);
        assert_eq!(sem.kernel_batches, 0);
        assert_eq!(sem.scratch_bytes_peak, 0);
        assert_eq!(sem.tasks_stolen, 0);
        assert_eq!(sem.subtree_splits, 0);
        assert_eq!(sem.bound_tightenings, 0);
        assert_eq!(sem.shards_built, 0);
        assert_eq!(sem.slice_sets_built, 0);
        assert_eq!(sem.shard_loads, 0);
        assert_eq!(sem.shard_evictions, 0);
        assert_eq!(sem.shard_resident_bytes_peak, 0);
        assert_eq!(sem.elapsed, Duration::ZERO);
    }

    #[test]
    fn merge_adds_shard_counters_and_maxes_resident_peak() {
        let mut a = MinerStats {
            shards_built: 4,
            shard_loads: 6,
            shard_evictions: 2,
            shard_resident_bytes_peak: 900,
            ..Default::default()
        };
        let b = MinerStats {
            shard_loads: 3,
            shard_evictions: 1,
            shard_resident_bytes_peak: 1200,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.shards_built, 4);
        assert_eq!(a.shard_loads, 9);
        assert_eq!(a.shard_evictions, 3);
        assert_eq!(a.shard_resident_bytes_peak, 1200, "peak merges with max");
    }

    #[test]
    fn merge_adds_engine_work_counters() {
        let mut a = MinerStats {
            tasks_stolen: 2,
            subtree_splits: 1,
            bound_tightenings: 3,
            ..Default::default()
        };
        let b = MinerStats {
            tasks_stolen: 5,
            subtree_splits: 4,
            bound_tightenings: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.tasks_stolen, 7);
        assert_eq!(a.subtree_splits, 5);
        assert_eq!(a.bound_tightenings, 4);
    }

    #[test]
    fn merge_adds_fault_tolerance_counters_and_semantic_clears_them() {
        let mut a = MinerStats {
            cancel_checks: 10,
            faults_injected: 1,
            spill_retries: 2,
            ..Default::default()
        };
        let b = MinerStats {
            cancel_checks: 5,
            faults_injected: 2,
            spill_retries: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cancel_checks, 15);
        assert_eq!(a.faults_injected, 3);
        assert_eq!(a.spill_retries, 3);
        let sem = a.semantic();
        assert_eq!(sem.cancel_checks, 0);
        assert_eq!(sem.faults_injected, 0);
        assert_eq!(sem.spill_retries, 0);
    }

    #[test]
    fn merge_adds_service_counters_and_semantic_clears_them() {
        let mut a = MinerStats {
            requests_served: 10,
            requests_shed: 2,
            cache_hits: 4,
            cache_coalesced: 1,
            ..Default::default()
        };
        let b = MinerStats {
            requests_served: 5,
            requests_shed: 1,
            cache_hits: 2,
            cache_coalesced: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.requests_served, 15);
        assert_eq!(a.requests_shed, 3);
        assert_eq!(a.cache_hits, 6);
        assert_eq!(a.cache_coalesced, 4);
        let sem = a.semantic();
        assert_eq!(sem.requests_served, 0);
        assert_eq!(sem.requests_shed, 0);
        assert_eq!(sem.cache_hits, 0);
        assert_eq!(sem.cache_coalesced, 0);
    }

    #[test]
    fn display_includes_counters() {
        assert_eq!(
            MinerStats::default().to_string(),
            "partitions=0 grs=0 pruned_supp=0 pruned_score=0 trivial=0 general=0 \
             accepted=0 heff_scans=0 passes=0 counted=0 scattered=0 post_pass_evaluations=0 \
             fused=0 kernel_batches=0 scratch_peak=0 \
             stolen=0 splits=0 tightenings=0 shards=0 slice_sets=0 shard_loads=0 \
             shard_evictions=0 shard_peak=0 cancel_checks=0 faults_injected=0 spill_retries=0 \
             requests_served=0 requests_shed=0 cache_hits=0 cache_coalesced=0 elapsed=0ns"
        );
    }

    // Corrupt-`elapsed` rejection (negative / NaN / overflow JSON) is
    // covered by the integration regression tests in `tests/serde_io.rs`.

    #[test]
    fn serde_round_trip() {
        let s = MinerStats {
            accepted: 9,
            elapsed: Duration::from_millis(1500),
            ..Default::default()
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: MinerStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.accepted, 9);
        assert!((back.elapsed.as_secs_f64() - 1.5).abs() < 1e-9);
    }
}
