//! Pokec-like synthetic dataset (a §VI-A substitution, explained below).
//!
//! The real Pokec dump (SNAP `soc-pokec`: 1,436,515 profiles, 21,078,140
//! directed friendship edges after the paper's preprocessing) is not
//! redistributable here, so this module generates a synthetic stand-in
//! with the paper's exact attribute schema —
//!
//! | attr | abbrev | domain | homophily |
//! |---|---|---|---|
//! | Gender | G | 3 | no |
//! | Age (discretized) | A | 11 | yes |
//! | Region | R | 188 | yes |
//! | Education | E | 10 | yes |
//! | What-Looking-For | L | 11 | yes |
//! | Marital-Status | S | 7 | no |
//!
//! — plus planted beyond-homophily preferences mirroring the findings the
//! paper reports in Table IIa (P1–P5) and §VI-B (P207 and its gender
//! variations). The default scale is 50k nodes / 600k edges (the paper's
//! average degree ≈ 14.7; ours ≈ 12); pass a factor to
//! [`pokec_config_scaled`] or use `GeneratorConfig::scaled`.

use crate::config::{EdgeAttrSpec, GeneratorConfig, NodeAttrSpec, PlantedRule};

/// Value index of `Gender`: F=1, M=2, Other=3.
pub mod gender {
    /// Female.
    pub const F: u16 = 1;
    /// Male.
    pub const M: u16 = 2;
}

/// Value indices of discretized `Age` (paper's brackets, §VI-A).
pub mod age {
    /// "18-24".
    pub const A18_24: u16 = 4;
    /// "25-34".
    pub const A25_34: u16 = 5;
}

/// Value indices of `Education`.
pub mod edu {
    /// "Preschool".
    pub const PRESCHOOL: u16 = 1;
    /// "Hardly Any".
    pub const HARDLY_ANY: u16 = 2;
    /// "Basic".
    pub const BASIC: u16 = 3;
    /// "Training".
    pub const TRAINING: u16 = 4;
    /// "Secondary".
    pub const SECONDARY: u16 = 5;
}

/// Value indices of `What-Looking-For`.
pub mod looking_for {
    /// "Chat".
    pub const CHAT: u16 = 1;
    /// "Good Friend".
    pub const GOOD_FRIEND: u16 = 2;
    /// "Sexual Partner".
    pub const SEXUAL_PARTNER: u16 = 4;
}

/// The default Pokec-like configuration (50k nodes, 600k directed edges,
/// seed 20160516 — the ICDE'16 opening date).
pub fn pokec_config() -> GeneratorConfig {
    GeneratorConfig {
        nodes: 50_000,
        edges: 600_000,
        node_attrs: vec![
            NodeAttrSpec::named(
                "Gender",
                false,
                vec!["F".into(), "M".into(), "Other".into()],
                vec![0.49, 0.49, 0.02],
            ),
            NodeAttrSpec::named(
                "Age",
                true,
                vec![
                    "0-6".into(),
                    "7-13".into(),
                    "14-17".into(),
                    "18-24".into(),
                    "25-34".into(),
                    "35-44".into(),
                    "45-54".into(),
                    "55-64".into(),
                    "65-79".into(),
                    "80+".into(),
                    "Unknown".into(),
                ],
                vec![
                    0.01, 0.04, 0.12, 0.30, 0.25, 0.12, 0.07, 0.04, 0.02, 0.01, 0.02,
                ],
            )
            .with_homophily_weight(0.5)
            .with_null_prob(0.02),
            NodeAttrSpec::numeric("Region", true, 188, zipf_weights(188, 1.0))
                .with_homophily_weight(16.0),
            NodeAttrSpec::named(
                "Education",
                true,
                vec![
                    "Preschool".into(),
                    "HardlyAny".into(),
                    "Basic".into(),
                    "Training".into(),
                    "Secondary".into(),
                    "Apprentice".into(),
                    "Bachelor".into(),
                    "Master".into(),
                    "PhD".into(),
                    "Other".into(),
                ],
                // The paper reports Secondary ≈ 19.54% and Training ≈ 1.9%
                // (the skew behind P2's high nhp).
                vec![0.05, 0.04, 0.28, 0.02, 0.20, 0.12, 0.10, 0.05, 0.02, 0.12],
            )
            .with_homophily_weight(1.0)
            .with_null_prob(0.05),
            NodeAttrSpec::named(
                "Looking",
                true,
                vec![
                    "Chat".into(),
                    "GoodFriend".into(),
                    "Love".into(),
                    "SexualPartner".into(),
                    "Marriage".into(),
                    "Penpal".into(),
                    "Sport".into(),
                    "Party".into(),
                    "Music".into(),
                    "Travel".into(),
                    "Other".into(),
                ],
                vec![
                    0.25, 0.20, 0.15, 0.12, 0.05, 0.04, 0.05, 0.06, 0.04, 0.02, 0.02,
                ],
            )
            .with_homophily_weight(1.0)
            .with_null_prob(0.05),
            NodeAttrSpec::named(
                "Marital",
                false,
                vec![
                    "Single".into(),
                    "Married".into(),
                    "Divorced".into(),
                    "Widowed".into(),
                    "InRelationship".into(),
                    "Complicated".into(),
                    "Other".into(),
                ],
                vec![0.45, 0.20, 0.08, 0.02, 0.18, 0.05, 0.02],
            )
            .with_null_prob(0.10),
        ],
        edge_attrs: Vec::<EdgeAttrSpec>::new(),
        rules: vec![
            // Table IIa P1: chatters befriend; excluding Chat-Chat
            // homophily, GoodFriend dominates.
            PlantedRule::new(
                "P1",
                vec![("Looking".into(), looking_for::CHAT)],
                "Looking",
                looking_for::GOOD_FRIEND,
                0.30,
            ),
            // P2: Basic education prefers Secondary once same-EDU ties are
            // excluded (Training, the "closer" level, is rare).
            PlantedRule::new(
                "P2",
                vec![("Education".into(), edu::BASIC)],
                "Education",
                edu::SECONDARY,
                0.30,
            ),
            // P3 / P4: the low-education ladder climbs to Basic.
            PlantedRule::new(
                "P3",
                vec![("Education".into(), edu::PRESCHOOL)],
                "Education",
                edu::BASIC,
                0.30,
            ),
            PlantedRule::new(
                "P4",
                vec![("Education".into(), edu::HARDLY_ANY)],
                "Education",
                edu::BASIC,
                0.30,
            ),
            // P5 and its §VI-B gender split: males looking for sexual
            // partners target females far more than the converse.
            PlantedRule::new(
                "P5m",
                vec![
                    ("Gender".into(), gender::M),
                    ("Looking".into(), looking_for::SEXUAL_PARTNER),
                ],
                "Gender",
                gender::F,
                0.55,
            ),
            PlantedRule::new(
                "P5f",
                vec![
                    ("Gender".into(), gender::F),
                    ("Looking".into(), looking_for::SEXUAL_PARTNER),
                ],
                "Gender",
                gender::M,
                0.05,
            ),
            // P207 and its gender variation: men 25-34 prefer 18-24
            // partners much more than women do.
            PlantedRule::new(
                "P207m",
                vec![("Gender".into(), gender::M), ("Age".into(), age::A25_34)],
                "Age",
                age::A18_24,
                0.28,
            ),
            PlantedRule::new(
                "P207f",
                vec![("Gender".into(), gender::F), ("Age".into(), age::A25_34)],
                "Age",
                age::A18_24,
                0.08,
            ),
        ],
        correlations: vec![],
        homophily_prob: 0.90,
        undirected: false,
        seed: 20_160_516,
    }
}

/// Pokec-like config scaled by `factor` in both nodes and edges.
pub fn pokec_config_scaled(factor: f64) -> GeneratorConfig {
    pokec_config().scaled(factor)
}

fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use grm_graph::NodeAttrId;

    const GENDER: NodeAttrId = NodeAttrId(0);
    const AGE: NodeAttrId = NodeAttrId(1);
    const REGION: NodeAttrId = NodeAttrId(2);
    const EDUCATION: NodeAttrId = NodeAttrId(3);
    const LOOKING: NodeAttrId = NodeAttrId(4);

    fn small() -> grm_graph::SocialGraph {
        generate(&pokec_config_scaled(0.04)).unwrap()
    }

    #[test]
    fn schema_matches_paper_table() {
        let g = small();
        let s = g.schema();
        assert_eq!(s.node_attr_count(), 6);
        assert_eq!(s.edge_attr_count(), 0);
        assert_eq!(s.node_attr(REGION).domain_size(), 188);
        assert_eq!(s.node_attr(AGE).domain_size(), 11);
        // Homophily setting: A, R, E, L homophilous; G, S not (§VI-A).
        let flags: Vec<bool> = s
            .node_attr_ids()
            .map(|a| s.node_attr(a).is_homophily())
            .collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn region_homophily_dominates() {
        let g = small();
        let same = g
            .edge_ids()
            .filter(|&e| {
                let v = g.src_attr(e, REGION);
                v != 0 && v == g.dst_attr(e, REGION)
            })
            .count() as f64;
        let frac = same / g.edge_count() as f64;
        assert!(
            frac > 0.5,
            "same-region fraction {frac}: conf ranking should be dominated by (R:x)->(R:x)"
        );
    }

    #[test]
    fn p2_preference_visible_beyond_homophily() {
        let g = small();
        let mut to_secondary = 0u32;
        let mut non_basic = 0u32;
        for e in g.edge_ids() {
            if g.src_attr(e, EDUCATION) != edu::BASIC {
                continue;
            }
            let dst = g.dst_attr(e, EDUCATION);
            if dst != edu::BASIC && dst != 0 {
                non_basic += 1;
                if dst == edu::SECONDARY {
                    to_secondary += 1;
                }
            }
        }
        let nhp_ish = to_secondary as f64 / non_basic as f64;
        assert!(nhp_ish > 0.5, "P2 empirical nhp {nhp_ish}");
    }

    #[test]
    fn p5_gender_asymmetry() {
        let g = small();
        let pref = |src_gender: u16, dst_gender: u16| {
            let mut hit = 0u32;
            let mut tot = 0u32;
            for e in g.edge_ids() {
                if g.src_attr(e, GENDER) == src_gender
                    && g.src_attr(e, LOOKING) == looking_for::SEXUAL_PARTNER
                {
                    tot += 1;
                    if g.dst_attr(e, GENDER) == dst_gender {
                        hit += 1;
                    }
                }
            }
            hit as f64 / tot.max(1) as f64
        };
        let male_to_female = pref(gender::M, gender::F);
        let female_to_male = pref(gender::F, gender::M);
        assert!(
            male_to_female > female_to_male + 0.1,
            "paper's §VI-B finding: {male_to_female} vs {female_to_male}"
        );
    }

    #[test]
    fn p207_age_asymmetry() {
        let g = small();
        let pref = |src_gender: u16| {
            let mut hit = 0u32;
            let mut non_same = 0u32;
            for e in g.edge_ids() {
                if g.src_attr(e, GENDER) == src_gender && g.src_attr(e, AGE) == age::A25_34 {
                    let dst = g.dst_attr(e, AGE);
                    if dst != age::A25_34 && dst != 0 {
                        non_same += 1;
                        if dst == age::A18_24 {
                            hit += 1;
                        }
                    }
                }
            }
            hit as f64 / non_same.max(1) as f64
        };
        assert!(
            pref(gender::M) > pref(gender::F) + 0.1,
            "men 25-34 prefer 18-24 much more: {} vs {}",
            pref(gender::M),
            pref(gender::F)
        );
    }

    #[test]
    fn default_scale_shape() {
        let cfg = pokec_config();
        assert_eq!(cfg.nodes, 50_000);
        assert_eq!(cfg.edges, 600_000);
        assert!(!cfg.undirected);
    }
}
