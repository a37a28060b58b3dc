//! Mining configuration (the problem parameters of Def. 5).

use crate::metrics::RankMetric;
use grm_graph::CancelToken;
use serde::{Deserialize, Serialize};

/// Parameters of a top-k GR mining run.
///
/// Defaults mirror the paper's Pokec experiments: `minSupp` relative 0.1%,
/// `minNhp` 50%, `k = 100`, nhp metric, dynamic top-k threshold (the
/// GRMiner(k) variant).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinerConfig {
    /// Absolute minimum support (`minSupp · |E|` if you start from the
    /// paper's relative thresholds — see [`MinerConfig::with_relative_supp`]).
    pub min_supp: u64,
    /// Minimum value of the ranking metric (`minNhp` for the nhp metric,
    /// `minConf` for confidence, …).
    pub min_score: f64,
    /// Number of GRs to return.
    pub k: usize,
    /// The ranking metric.
    pub metric: RankMetric,
    /// GRMiner(k) vs GRMiner (§VI-D): when `true`, `min_score` is
    /// dynamically upgraded to the k-th best score found so far, greatly
    /// tightening pruning; when `false` only the user threshold prunes.
    /// Every engine honors it through the execution core's shared bound
    /// and exactness-verified post-pass, so the result is the same
    /// Definition-5 top-k either way; only the work differs.
    pub dynamic_topk: bool,
    /// Suppress trivial GRs from results. Defaults to `true`; Table II's
    /// confidence column is produced with `false` (the paper reports the
    /// trivial GRs that dominate the conf ranking).
    pub suppress_trivial: bool,
    /// Apply the generality constraint of Def. 5(2): drop a GR when a more
    /// general GR satisfying the thresholds exists.
    pub generality_filter: bool,
    /// Maximum number of LHS conditions (`None` = unbounded). A practical
    /// complexity knob: wide LHS patterns are hard to act on, and capping
    /// them bounds the LEFT recursion depth.
    pub max_lhs: Option<usize>,
    /// Maximum number of RHS conditions (`None` = unbounded).
    pub max_rhs: Option<usize>,
    /// Report GRs whose LHS is empty (`() -> r`). Defaults to `false`: a
    /// group relationship relates two *described* groups, and every GR in
    /// the paper's tables has a non-empty LHS — with empty LHS allowed,
    /// `() -> (Productivity:Poor)` (conf ≈ dst marginal) would suppress
    /// most of Table IIb under Def. 5(2). The flag gates enumeration, not
    /// just reporting: without it no engine runs Algorithm 1's RIGHT(nil)
    /// and EDGE(nil) subtrees (the root task list leaves them out), so
    /// none of their GRs is examined, collected or counted. Every
    /// reportable GR and every possible suppressor of one has a
    /// non-empty LHS, so the answer is the same as enumerating and then
    /// filtering them.
    pub allow_empty_lhs: bool,
    /// Wall-clock deadline for the whole mine, in milliseconds measured
    /// from the engine's start (`None` = unbounded). An expired deadline
    /// trips the [`MinerConfig::cancel`] token and the mine returns
    /// `MinerError::Cancelled` with the partial counters drained so far.
    pub deadline_ms: Option<u64>,
    /// Cooperative cancellation token, observed at recursion-node and
    /// shard-load granularity. The default is inert (never cancels); the
    /// engine then makes a private token, so a deadline or a worker
    /// panic still has a flag to trip. Runtime-only shared state: it
    /// serializes as a placeholder and always deserializes inert.
    #[serde(default, with = "cancel_serde")]
    pub cancel: CancelToken,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            min_supp: 1,
            min_score: 0.5,
            k: 100,
            metric: RankMetric::Nhp,
            dynamic_topk: true,
            suppress_trivial: true,
            generality_filter: true,
            max_lhs: None,
            max_rhs: None,
            allow_empty_lhs: false,
            deadline_ms: None,
            cancel: CancelToken::default(),
        }
    }
}

impl MinerConfig {
    /// Config ranked by nhp with the given thresholds and k (GRMiner(k)).
    pub fn nhp(min_supp: u64, min_nhp: f64, k: usize) -> Self {
        MinerConfig {
            min_supp,
            min_score: min_nhp,
            k,
            ..Self::default()
        }
    }

    /// Config ranked by plain confidence — the comparison column of
    /// Table II. Trivial GRs are *not* suppressed (the paper's point is
    /// that conf ranks them on top).
    pub fn conf(min_supp: u64, min_conf: f64, k: usize) -> Self {
        MinerConfig {
            min_supp,
            min_score: min_conf,
            k,
            metric: RankMetric::Conf,
            suppress_trivial: false,
            ..Self::default()
        }
    }

    /// Replace the absolute `min_supp` with `rel · |E|` (the paper quotes
    /// relative supports: 0.1% of 21,078,140 edges = 21,078 absolute).
    pub fn with_relative_supp(mut self, rel: f64, edge_count: u64) -> Self {
        self.min_supp = ((rel * edge_count as f64).floor() as u64).max(1);
        self
    }

    /// Disable the dynamic top-k threshold upgrade (the plain GRMiner of
    /// §VI-D, exact w.r.t. Definition 5).
    pub fn without_dynamic_topk(mut self) -> Self {
        self.dynamic_topk = false;
        self
    }

    /// Cap the number of LHS / RHS conditions of mined GRs.
    pub fn with_max_widths(mut self, max_lhs: usize, max_rhs: usize) -> Self {
        self.max_lhs = Some(max_lhs);
        self.max_rhs = Some(max_rhs);
        self
    }

    /// Permit empty-LHS GRs in results (see [`MinerConfig::allow_empty_lhs`]).
    pub fn with_empty_lhs(mut self) -> Self {
        self.allow_empty_lhs = true;
        self
    }

    /// Switch the ranking metric, adjusting the trivial-GR policy to the
    /// metric's convention (suppressed only under nhp).
    pub fn with_metric(mut self, metric: RankMetric) -> Self {
        self.metric = metric;
        self.suppress_trivial = metric.excludes_homophily();
        self
    }

    /// Bound the mine's wall-clock time (see [`MinerConfig::deadline_ms`]).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Observe `token` during the mine (see [`MinerConfig::cancel`]).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }
}

mod cancel_serde {
    use grm_graph::CancelToken;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    /// A [`CancelToken`] is live runtime state, not configuration: it
    /// serializes as a placeholder `false` (so configs with a token
    /// still round-trip through JSON) and always deserializes inert.
    pub fn serialize<S: Serializer>(_: &CancelToken, s: S) -> Result<S::Ok, S::Error> {
        false.serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<CancelToken, D::Error> {
        let _ = bool::deserialize(d)?;
        Ok(CancelToken::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let c = MinerConfig::default();
        assert_eq!(c.metric, RankMetric::Nhp);
        assert!(c.dynamic_topk);
        assert!(c.suppress_trivial);
        assert!(c.generality_filter);
    }

    #[test]
    fn relative_supp_matches_paper_pokec() {
        // 0.1% of 21,078,140 = 21,078 (paper §VI-B).
        let c = MinerConfig::nhp(1, 0.5, 300).with_relative_supp(0.001, 21_078_140);
        assert_eq!(c.min_supp, 21_078);
    }

    #[test]
    fn relative_supp_floors_at_one() {
        let c = MinerConfig::nhp(1, 0.5, 10).with_relative_supp(0.001, 10);
        assert_eq!(c.min_supp, 1);
    }

    #[test]
    fn conf_config_keeps_trivial() {
        let c = MinerConfig::conf(10, 0.5, 5);
        assert!(!c.suppress_trivial);
        assert_eq!(c.metric, RankMetric::Conf);
    }

    #[test]
    fn cancel_and_deadline_builders_set_the_fields() {
        let t = CancelToken::new();
        let c = MinerConfig::default()
            .with_deadline_ms(250)
            .with_cancel(t.clone());
        assert_eq!(c.deadline_ms, Some(250));
        assert_eq!(c.cancel, t);
        assert!(MinerConfig::default().cancel.is_inert());
    }

    #[test]
    fn cancel_token_deserializes_inert() {
        let c = MinerConfig::default().with_cancel(CancelToken::new());
        let json = serde_json::to_string(&c).unwrap();
        let back: MinerConfig = serde_json::from_str(&json).unwrap();
        assert!(back.cancel.is_inert(), "tokens never survive serialization");
        // A config JSON without the field at all also parses (default).
        let json = json
            .replace("\"cancel\":false,", "")
            .replace(",\"cancel\":false", "");
        let back: MinerConfig = serde_json::from_str(&json).unwrap();
        assert!(back.cancel.is_inert());
    }

    #[test]
    fn metric_switch_adjusts_trivial_policy() {
        let c = MinerConfig::default().with_metric(RankMetric::Lift);
        assert!(!c.suppress_trivial);
        let c = c.with_metric(RankMetric::Nhp);
        assert!(c.suppress_trivial);
    }
}
