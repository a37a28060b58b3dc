//! Interestingness metrics: support, confidence, non-homophily preference
//! (Defs. 2–4) and the alternative metrics of §VII.
//!
//! Every metric here is a function of at most four counts, all of which the
//! miner has on hand when it examines a GR (§VII: "all the above
//! alternative metrics are defined using three supports … and these
//! supports are easily computed"):
//!
//! * `supp`    = |E(l ∧ w ∧ r)|
//! * `supp_lw` = |E(l ∧ w)|
//! * `heff`    = `|E(l -w-> l[β])|`, the homophily effect (nhp only)
//! * `supp_r`  = |E(r)|, the RHS marginal (lift / PS / conviction only)
//! * `edges`   = |E|

use serde::{Deserialize, Serialize};

/// The counts a metric is evaluated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricInputs {
    /// `|E(l ∧ w ∧ r)|`.
    pub supp: u64,
    /// `|E(l ∧ w)|`.
    pub supp_lw: u64,
    /// `|E(l -w-> l[β])|`; 0 when β = ∅.
    pub heff: u64,
    /// `|E(r)|`. Only consulted by lift / Piatetsky-Shapiro / conviction;
    /// the recursion fills it lazily for those metrics and leaves 0
    /// otherwise.
    pub supp_r: u64,
    /// `|E|`.
    pub edges: u64,
}

/// Field-wise sum. Counted over disjoint edge sets
/// ([`crate::query::counts`]), every field is a sum of per-edge
/// indicators, so the inputs of the parts add up to those of the union.
impl std::ops::AddAssign for MetricInputs {
    fn add_assign(&mut self, rhs: Self) {
        self.supp += rhs.supp;
        self.supp_lw += rhs.supp_lw;
        self.heff += rhs.heff;
        self.supp_r += rhs.supp_r;
        self.edges += rhs.edges;
    }
}

/// Confidence `P(r | l ∧ w)` (Def. 3, Eqn. 3).
#[inline]
pub fn confidence(supp: u64, supp_lw: u64) -> f64 {
    debug_assert!(supp <= supp_lw);
    supp as f64 / supp_lw as f64
}

/// Non-homophily preference `P(r | l ∧ w ∧ ¬l[β])` (Def. 4, Eqn. 6).
///
/// With `β = ∅` (`heff = 0`) this degenerates to confidence (Remark 1).
/// Theorem 1 guarantees the denominator is positive whenever `supp > 0`;
/// the `debug_assert`s encode exactly the theorem's claims.
#[inline]
pub fn nhp(supp: u64, supp_lw: u64, heff: u64) -> f64 {
    debug_assert!(supp > 0, "nhp is defined for supported GRs (Theorem 1)");
    debug_assert!(
        supp_lw > heff,
        "Theorem 1(i): denominator nonzero when supp > 0"
    );
    let v = supp as f64 / (supp_lw - heff) as f64;
    debug_assert!(
        (0.0..=1.0 + 1e-12).contains(&v),
        "Theorem 1(ii): nhp ∈ [0,1]"
    );
    v
}

/// The ranking metric a miner scores GRs with.
///
/// `Nhp` is the paper's contribution; `Conf` reproduces the standard
/// support/confidence mining the paper compares against in Table II; the
/// rest are the §VII alternatives (Eqns. 10–14).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RankMetric {
    /// Non-homophily preference (Def. 4) — the default.
    Nhp,
    /// Plain confidence (Def. 3); homophily effect *not* excluded.
    Conf,
    /// Laplace-corrected confidence `(supp+1)/(supp_lw+k)` (Eqn. 10),
    /// `k ≥ 2`.
    Laplace {
        /// The additive-smoothing constant (an integer > 1 in Eqn. 10).
        k: u32,
    },
    /// `gain = supp − θ·supp_lw` (Eqn. 11), `0 < θ < 1`. Reported in
    /// *relative* form (divided by `|E|`) so thresholds stay in [−1, 1].
    Gain {
        /// The fractional constant θ.
        theta: f64,
    },
    /// Piatetsky-Shapiro leverage `supp − supp_lw·supp(r)/|E|` (Eqn. 12),
    /// reported in relative form.
    PiatetskyShapiro,
    /// `conviction = (|E| − supp(r)) / (|E|·(1 − conf))` (Eqn. 13).
    Conviction,
    /// `lift = |E|·conf / supp(r)` (Eqn. 14) — corrects for RHS-population
    /// skew (the paper's D1 discussion).
    Lift,
}

impl RankMetric {
    /// Evaluate the metric.
    pub fn evaluate(self, m: MetricInputs) -> f64 {
        match self {
            RankMetric::Nhp => nhp(m.supp, m.supp_lw, m.heff),
            RankMetric::Conf => confidence(m.supp, m.supp_lw),
            RankMetric::Laplace { k } => (m.supp as f64 + 1.0) / (m.supp_lw as f64 + k as f64),
            RankMetric::Gain { theta } => {
                (m.supp as f64 - theta * m.supp_lw as f64) / m.edges as f64
            }
            RankMetric::PiatetskyShapiro => {
                (m.supp as f64 - m.supp_lw as f64 * m.supp_r as f64 / m.edges as f64)
                    / m.edges as f64
            }
            RankMetric::Conviction => {
                let conf = confidence(m.supp, m.supp_lw);
                let denom = m.edges as f64 * (1.0 - conf);
                if denom == 0.0 {
                    // conf = 1: conviction diverges; report +inf so such
                    // GRs rank first, matching the metric's intent.
                    f64::INFINITY
                } else {
                    (m.edges - m.supp_r) as f64 / denom
                }
            }
            RankMetric::Lift => m.edges as f64 * confidence(m.supp, m.supp_lw) / m.supp_r as f64,
        }
    }

    /// Whether the metric is anti-monotone under RHS extension, enabling
    /// threshold pruning in the SFDF enumeration. §VII: laplace and gain
    /// keep the anti-monotonicity; Piatetsky-Shapiro, conviction and lift
    /// do not, so for those "the top-k GRs have to be found in a
    /// post-processing step" with support-based pruning only.
    ///
    /// `Nhp` is anti-monotone *only under the dynamic tail ordering*
    /// (Theorem 3), which the miner always applies.
    pub fn anti_monotone(self) -> bool {
        matches!(
            self,
            RankMetric::Nhp
                | RankMetric::Conf
                | RankMetric::Laplace { .. }
                | RankMetric::Gain { .. }
        )
    }

    /// Whether evaluating the metric requires the RHS marginal `supp(r)`.
    pub fn needs_r_marginal(self) -> bool {
        matches!(
            self,
            RankMetric::PiatetskyShapiro | RankMetric::Conviction | RankMetric::Lift
        )
    }

    /// Whether the metric excludes the homophily effect. Only nhp does;
    /// this also controls whether miners suppress trivial GRs by default
    /// (under plain confidence the paper's Table II *shows* the trivial
    /// GRs that dominate the top of the list).
    pub fn excludes_homophily(self) -> bool {
        matches!(self, RankMetric::Nhp)
    }

    /// Parse the user-facing metric name shared by the `grmine` CLI and
    /// the `grmined` request protocol (`None` for an unknown name).
    /// Parameterized metrics get the paper's constants (`laplace` k=2,
    /// `gain` θ=0.5).
    pub fn from_name(name: &str) -> Option<RankMetric> {
        Some(match name {
            "nhp" => RankMetric::Nhp,
            "conf" => RankMetric::Conf,
            "laplace" => RankMetric::Laplace { k: 2 },
            "gain" => RankMetric::Gain { theta: 0.5 },
            "ps" => RankMetric::PiatetskyShapiro,
            "conviction" => RankMetric::Conviction,
            "lift" => RankMetric::Lift,
            _ => return None,
        })
    }
}

impl std::fmt::Display for RankMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankMetric::Nhp => write!(f, "nhp"),
            RankMetric::Conf => write!(f, "conf"),
            RankMetric::Laplace { k } => write!(f, "laplace(k={k})"),
            RankMetric::Gain { theta } => write!(f, "gain(theta={theta})"),
            RankMetric::PiatetskyShapiro => write!(f, "piatetsky-shapiro"),
            RankMetric::Conviction => write!(f, "conviction"),
            RankMetric::Lift => write!(f, "lift"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example1_gr1_support_confidence() {
        // GR1: supp = 7/15, conf = 7/14 (Example 1).
        assert!((confidence(7, 14) - 0.5).abs() < 1e-12);
        assert!((7.0_f64 / 15.0 - 0.4667).abs() < 1e-3);
    }

    #[test]
    fn example2_gr4_nhp_is_one() {
        // GR4: supp(l∧w)=6, supp=2, homophily effect supp=4 (GR3).
        // nhp = 2/(6-4) = 100% (§III-B).
        assert!((nhp(2, 6, 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nhp_degenerates_to_conf_when_beta_empty() {
        // Remark 1.
        for (s, lw) in [(1u64, 4u64), (3, 7), (10, 10)] {
            assert_eq!(nhp(s, lw, 0), confidence(s, lw));
        }
    }

    #[test]
    fn nhp_geq_conf_always() {
        // Remark 1: β ≠ ∅ implies nhp ≥ conf.
        for heff in 0..5u64 {
            assert!(nhp(2, 8, heff) >= confidence(2, 8));
        }
    }

    #[test]
    fn laplace_and_gain() {
        let m = MetricInputs {
            supp: 9,
            supp_lw: 18,
            heff: 0,
            supp_r: 0,
            edges: 100,
        };
        let lap = RankMetric::Laplace { k: 2 }.evaluate(m);
        assert!((lap - 10.0 / 20.0).abs() < 1e-12);
        let gain = RankMetric::Gain { theta: 0.25 }.evaluate(m);
        assert!((gain - (9.0 - 0.25 * 18.0) / 100.0).abs() < 1e-12);
    }

    #[test]
    fn lift_corrects_population_skew() {
        // RHS covering 90% of edges: conf 0.9 is unimpressive, lift = 1.
        let skewed = MetricInputs {
            supp: 9,
            supp_lw: 10,
            heff: 0,
            supp_r: 90,
            edges: 100,
        };
        assert!((RankMetric::Lift.evaluate(skewed) - 1.0).abs() < 1e-12);
        // Rare RHS hit far above its base rate: lift >> 1.
        let sharp = MetricInputs {
            supp: 5,
            supp_lw: 10,
            heff: 0,
            supp_r: 5,
            edges: 100,
        };
        assert!(RankMetric::Lift.evaluate(sharp) > 9.0);
    }

    #[test]
    fn piatetsky_shapiro_zero_at_independence() {
        let m = MetricInputs {
            supp: 6,
            supp_lw: 20,
            heff: 0,
            supp_r: 30,
            edges: 100,
        };
        assert!(RankMetric::PiatetskyShapiro.evaluate(m).abs() < 1e-12);
    }

    #[test]
    fn conviction_diverges_at_full_confidence() {
        let m = MetricInputs {
            supp: 10,
            supp_lw: 10,
            heff: 0,
            supp_r: 50,
            edges: 100,
        };
        assert!(RankMetric::Conviction.evaluate(m).is_infinite());
        let m2 = MetricInputs { supp: 5, ..m };
        let v = RankMetric::Conviction.evaluate(m2);
        assert!((v - 50.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn pruning_capabilities() {
        assert!(RankMetric::Nhp.anti_monotone());
        assert!(RankMetric::Conf.anti_monotone());
        assert!(RankMetric::Laplace { k: 2 }.anti_monotone());
        assert!(RankMetric::Gain { theta: 0.5 }.anti_monotone());
        assert!(!RankMetric::Lift.anti_monotone());
        assert!(!RankMetric::PiatetskyShapiro.anti_monotone());
        assert!(!RankMetric::Conviction.anti_monotone());

        assert!(RankMetric::Lift.needs_r_marginal());
        assert!(!RankMetric::Nhp.needs_r_marginal());
        assert!(RankMetric::Nhp.excludes_homophily());
        assert!(!RankMetric::Conf.excludes_homophily());
    }

    #[test]
    fn display_names() {
        assert_eq!(RankMetric::Nhp.to_string(), "nhp");
        assert_eq!(RankMetric::Laplace { k: 3 }.to_string(), "laplace(k=3)");
    }
}
