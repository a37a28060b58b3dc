//! # grm-graph — attributed social-network substrate
//!
//! The data substrate for mining group relationships beyond homophily
//! (Liang, Wang, Zhu; ICDE 2016): heterogeneous, multidimensional social
//! networks whose nodes and edges carry discrete attribute values (§III of
//! the paper), plus the storage machinery the GRMiner algorithm relies on:
//!
//! * [`Schema`] / [`AttrDef`] — attribute declarations with domain sizes,
//!   value dictionaries and per-node-attribute **homophily flags**;
//! * [`SocialGraph`] / [`GraphBuilder`] — validated attributed digraphs;
//! * [`CompactModel`] — the cell account of §IV-A's LArray/EArray/RArray
//!   compact data model (node attributes stored once, `Ptr`-linked edge
//!   records), and the per-position [`KeyColumns`] the mining recursion
//!   reads, gathered in EArray order (source groups clustered by their
//!   attribute rows, so each partition is a few long runs of positions);
//! * [`SingleTable`] — the joined `|E| × (2·#AttrV + #AttrE)` table used by
//!   baseline BL1, kept around to measure the §IV-A size comparison;
//! * [`sort`] — the stable counting-sort partitioner of §V;
//! * [`stats`] — network audits and data-driven homophily detection (the
//!   \[27\]-style front-end that produces the homophily flags §III-B assumes);
//! * [`io`] — plain-text persistence; [`csv`] — import of node-table +
//!   edge-list dataset pairs (the shape of the SNAP Pokec dump);
//! * [`shard`] — sharded, memory-budgeted out-of-core edge storage that
//!   breaks the in-core u32 edge cap: columnar per-shard spill
//!   files (checksummed, written via temp-and-rename, in EArray order
//!   when built from a graph, so the shards are contiguous ranges of
//!   the in-core columns) plus an LRU shard-residency pool;
//! * [`cancel`] — the cooperative [`CancelToken`] the mining engines
//!   observe at recursion-node and shard-load granularity;
//! * [`failpoint`] — deterministic fault injection behind the
//!   `fault-inject` feature (zero-cost otherwise).
//!
//! Mining itself lives in the `grm-core` crate; synthetic workloads in
//! `grm-datagen`.

#![warn(missing_docs)]

mod builder;
pub mod cancel;
mod compact;
pub mod csv;
mod error;
pub mod failpoint;
mod graph;
pub mod io;
mod schema;
pub mod shard;
mod single_table;
pub mod sort;
pub mod stats;
mod value;

pub use builder::GraphBuilder;
pub use cancel::CancelToken;
pub use compact::{check_edge_capacity, CompactModel, KeyColumns};
pub use error::{GraphError, ResidentUnit, Result, ShardIoError};
pub use graph::SocialGraph;
pub use schema::{AttrDef, Schema, SchemaBuilder, MAX_NODE_ATTRS};
pub use single_table::SingleTable;
pub use value::{AttrValue, EdgeAttrId, EdgeId, NodeAttrId, NodeId, NULL};
