//! Error type shared by the graph substrate.

use std::fmt;

/// Integrity failures detected while reading a shard spill file back
/// from disk. Every spill file carries a magic/version header and every
/// chunk a trailing checksum (see [`crate::io`]), so a torn write, a
/// truncated file, or bit rot surfaces as a typed error here instead of
/// a decoded garbage graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardIoError {
    /// The file does not start with the spill magic — not a spill file,
    /// or its header was destroyed.
    BadMagic,
    /// The file's format version is not the one this build writes.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// A chunk's recomputed checksum does not match the stored one —
    /// the payload was corrupted after it was written.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the payload read back.
        computed: u64,
    },
    /// The file ended mid-structure (torn write or truncation).
    ShortRead {
        /// Which structure was being read when the bytes ran out.
        context: &'static str,
    },
}

impl fmt::Display for ShardIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardIoError::BadMagic => {
                write!(f, "spill file does not start with the GRMSPILL magic")
            }
            ShardIoError::VersionMismatch { found, expected } => {
                write!(f, "spill file version {found}, this build reads {expected}")
            }
            ShardIoError::ChecksumMismatch { stored, computed } => write!(
                f,
                "spill chunk checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            ShardIoError::ShortRead { context } => {
                write!(f, "spill file truncated while reading {context}")
            }
        }
    }
}

/// What a [`GraphError::MemoryBudgetTooSmall`] budget could not hold.
/// Ordered so that, between equal costs, a slice binds: more shards can
/// shrink a shard, never a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ResidentUnit {
    /// A persistent shard of the store.
    Shard,
    /// One value slice of a slice set, resident under a reservation.
    Slice,
}

/// Errors produced while building, validating, or loading graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant docs describe the named fields
pub enum GraphError {
    /// A schema was declared with no attributes at all; GR mining needs at
    /// least one node attribute to describe groups.
    EmptySchema,
    /// An attribute was declared with a zero domain (only null possible).
    EmptyDomain { attr: String },
    /// Two attributes in the same namespace (node or edge) share a name.
    DuplicateAttribute { attr: String },
    /// A schema declares more node attributes than the miner's bitmask
    /// holds ([`crate::MAX_NODE_ATTRS`]).
    TooManyNodeAttrs { count: usize, max: usize },
    /// A value-name dictionary does not match its declared domain size.
    DictionarySize {
        attr: String,
        expected: usize,
        got: usize,
    },
    /// A node/edge row supplied the wrong number of attribute values.
    ArityMismatch { expected: usize, got: usize },
    /// An attribute value exceeds its declared domain size.
    ValueOutOfDomain {
        attr: String,
        value: u16,
        domain: u16,
    },
    /// An edge endpoint references a node that does not exist. `nodes`
    /// is a `usize` so a graph that has grown past the u32 id space can
    /// still report its true size.
    DanglingEndpoint { node: u32, nodes: usize },
    /// Adding one more node would exhaust the u32 node-id space
    /// ([`crate::value::NodeId`]); ids are assigned by
    /// [`crate::value::next_node_id`], never by raw `as` narrowing.
    TooManyNodes { nodes: usize },
    /// Adding one more edge would exhaust the u32 edge-id space
    /// ([`crate::value::EdgeId`]).
    TooManyEdgeIds { edges: usize },
    /// The graph has more edges than the compact model can index
    /// (EArray positions are `u32`).
    TooManyEdges { edges: usize, max: usize },
    /// A shard-pool memory budget cannot hold even one resident unit on
    /// its own (see [`crate::shard::ShardPool`]); `needed` is the
    /// minimum viable budget, and `unit` says what binds it.
    MemoryBudgetTooSmall {
        needed: u64,
        budget: u64,
        unit: ResidentUnit,
    },
    /// A self-loop was supplied while the builder forbids them.
    SelfLoop { node: u32 },
    /// A partition pass saw a key at or beyond its declared bucket count
    /// (see [`crate::sort::PartitionArena`]). Checked in release builds:
    /// an unchecked oversized key would silently corrupt the histogram.
    KeyOutOfRange { key: u16, bucket_count: usize },
    /// A key column handed to a partition pass does not cover every
    /// position of the data slice — reported instead of fabricating a
    /// key for positions the column cannot describe.
    ColumnTooShort { len: usize, index: usize },
    /// Unknown attribute or value name in a lookup.
    UnknownName { name: String },
    /// Malformed input while parsing a serialized graph.
    Parse { line: usize, message: String },
    /// Underlying I/O failure (message-only so the error stays `Clone + Eq`).
    Io { message: String },
    /// A shard spill file failed an integrity check on read-back.
    ShardIo(ShardIoError),
    /// The operation observed a tripped [`crate::cancel::CancelToken`]
    /// and stopped cooperatively.
    Cancelled,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EmptySchema => {
                write!(f, "schema has no node attributes")
            }
            GraphError::EmptyDomain { attr } => {
                write!(f, "attribute `{attr}` has an empty domain")
            }
            GraphError::DuplicateAttribute { attr } => {
                write!(f, "duplicate attribute name `{attr}`")
            }
            GraphError::TooManyNodeAttrs { count, max } => write!(
                f,
                "schema declares {count} node attributes; at most {max} are supported"
            ),
            GraphError::DictionarySize {
                attr,
                expected,
                got,
            } => write!(
                f,
                "value dictionary for `{attr}` has {got} entries, expected {expected} (domain + null)"
            ),
            GraphError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} attribute values, got {got}")
            }
            GraphError::ValueOutOfDomain {
                attr,
                value,
                domain,
            } => write!(
                f,
                "value {value} out of domain 0..={domain} for attribute `{attr}`"
            ),
            GraphError::DanglingEndpoint { node, nodes } => {
                write!(f, "edge endpoint {node} out of range (graph has {nodes} nodes)")
            }
            GraphError::TooManyNodes { nodes } => write!(
                f,
                "graph already has {nodes} nodes; adding another would overflow the u32 \
                 node-id space"
            ),
            GraphError::TooManyEdgeIds { edges } => write!(
                f,
                "graph already has {edges} edges; adding another would overflow the u32 \
                 edge-id space"
            ),
            GraphError::TooManyEdges { edges, max } => write!(
                f,
                "graph has {edges} edges, exceeding the compact model's capacity of {max} \
                 (EArray positions are u32); mine with --shards so every per-shard model \
                 stays under the cap"
            ),
            GraphError::MemoryBudgetTooSmall {
                needed,
                budget,
                unit: ResidentUnit::Shard,
            } => write!(
                f,
                "memory budget of {budget} bytes cannot hold a {needed}-byte resident shard \
                 (minimum viable budget: {needed} bytes); raise --memory-budget or increase \
                 --shards"
            ),
            GraphError::MemoryBudgetTooSmall {
                needed,
                budget,
                unit: ResidentUnit::Slice,
            } => write!(
                f,
                "memory budget of {budget} bytes cannot hold a {needed}-byte value slice \
                 (minimum viable budget: {needed} bytes); raise --memory-budget (a slice holds \
                 every edge of one attribute value, whatever the shard count)"
            ),
            GraphError::SelfLoop { node } => {
                write!(f, "self-loop on node {node} rejected by builder policy")
            }
            GraphError::KeyOutOfRange { key, bucket_count } => write!(
                f,
                "partition key {key} out of range for {bucket_count} buckets"
            ),
            GraphError::ColumnTooShort { len, index } => write!(
                f,
                "key column of length {len} cannot cover position {index}"
            ),
            GraphError::UnknownName { name } => {
                write!(f, "unknown attribute or value name `{name}`")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io { message } => write!(f, "i/o error: {message}"),
            GraphError::ShardIo(e) => write!(f, "shard spill integrity: {e}"),
            GraphError::Cancelled => write!(f, "operation cancelled"),
        }
    }
}

impl From<ShardIoError> for GraphError {
    fn from(e: ShardIoError) -> Self {
        GraphError::ShardIo(e)
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io {
            message: e.to_string(),
        }
    }
}

/// Convenience alias used across the substrate.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_facts() {
        let e = GraphError::ValueOutOfDomain {
            attr: "Age".into(),
            value: 99,
            domain: 11,
        };
        let s = e.to_string();
        assert!(s.contains("Age") && s.contains("99") && s.contains("11"));

        let e = GraphError::DanglingEndpoint { node: 7, nodes: 3 };
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::Io { .. }));
        assert!(e.to_string().contains("gone"));
    }
}
