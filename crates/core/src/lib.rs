//! # grm-core — mining social ties beyond homophily
//!
//! Rust implementation of **GRMiner** (Liang, Wang, Zhu: "Mining Social
//! Ties Beyond Homophily", ICDE 2016): mining the top-k group relationships
//! `l -w-> r` of an attributed social network, ranked by **non-homophily
//! preference** — the conditional probability of a tie once the homophily
//! effect is excluded (Def. 4).
//!
//! ## Quick start
//!
//! ```
//! use grm_graph::{SchemaBuilder, GraphBuilder};
//! use grm_core::{GrMiner, MinerConfig};
//!
//! // A dating network: EDU is a homophily attribute, SEX is not.
//! let schema = SchemaBuilder::new()
//!     .node_attr_named("SEX", false, ["F", "M"])
//!     .node_attr_named("EDU", true, ["HS", "College", "Grad"])
//!     .build().unwrap();
//! let mut b = GraphBuilder::new(schema);
//! let f_grad = b.add_node(&[1, 3]).unwrap();
//! let m_grad = b.add_node(&[2, 3]).unwrap();
//! let m_coll = b.add_node(&[2, 2]).unwrap();
//! b.add_edge(f_grad, m_grad, &[]).unwrap();
//! b.add_edge(f_grad, m_coll, &[]).unwrap();
//! let graph = b.build().unwrap();
//!
//! let result = GrMiner::new(&graph, MinerConfig::nhp(1, 0.5, 10)).mine();
//! for gr in &result.top {
//!     println!("{}", gr.display(graph.schema()));
//! }
//! ```
//!
//! ## Module map
//!
//! | paper concept | module |
//! |---|---|
//! | descriptors & GRs (Def. 1) | [`descriptor`], [`gr`] |
//! | supp / conf / nhp (Defs. 2–4) and §VII alternatives | [`metrics`] |
//! | β and the homophily effect (Eqns. 4–5) | [`beta`] |
//! | shared read-only run context | [`context`] |
//! | SFDF & dynamic tail ordering (§IV-C) | [`tail`] |
//! | GRMiner, Algorithm 1 (§V) | [`miner`] |
//! | top-k & generality (Def. 5) | [`topk`], [`generality`] |
//! | baselines BL1 / BL2 (§VI-D) | [`baseline`] |
//! | brute-force oracle | [`reference`](mod@reference) |
//! | ad-hoc GR queries (Remark 3) | [`query`] |
//! | GR text parsing | [`parse`] |
//! | influence matrices (§II, class propagation) | [`influence`] |
//! | parallel extension | [`parallel`] |
//! | sharded out-of-core extension | [`sharded`] |

#![warn(missing_docs)]

pub mod baseline;
pub mod beta;
pub mod config;
pub mod context;
pub mod descriptor;
pub mod error;
mod exec;
pub mod generality;
pub mod gr;
pub mod influence;
pub mod metrics;
pub mod miner;
pub mod parallel;
pub mod parse;
pub mod query;
pub mod reference;
pub mod service;
pub mod sharded;
pub mod stats;
pub mod tail;
pub mod topk;

pub use config::MinerConfig;
pub use context::MiningContext;
pub use descriptor::{EdgeDescriptor, NodeDescriptor};
pub use error::MinerError;
pub use gr::{Gr, GrBuilder, ScoredGr};
pub use metrics::{MetricInputs, RankMetric};
pub use miner::{GrMiner, MineResult};
pub use parse::parse_gr;
pub use service::{Service, ServiceConfig};
pub use sharded::{mine_sharded, ShardedOptions};
pub use stats::MinerStats;
pub use tail::Dims;
pub use topk::TopK;
