//! Plain-text persistence for attributed graphs.
//!
//! A single self-describing, tab-separated format (schema + nodes + edges)
//! so experiment datasets can be generated once and re-used across harness
//! runs. The format is line-oriented:
//!
//! ```text
//! GRMGRAPH 1
//! NODEATTR <name> <domain> <h|n> [<name0> <name1> ...]
//! EDGEATTR <name> <domain> - [<name0> ...]
//! NODES <count>
//! <v1> <v2> ...                    (one row per node)
//! EDGES <count>
//! <src> <dst> <v1> ...             (one row per edge)
//! ```
//!
//! All fields are tab-separated (value names may contain spaces). For
//! programmatic interchange, [`SocialGraph`] and [`Schema`] also derive
//! `serde::{Serialize, Deserialize}`.
//!
//! ### The binary shard-spill chunk format
//!
//! Sharded out-of-core mining ([`crate::shard`]) spills edges to disk in
//! a columnar little-endian chunk stream, one file per shard or slice.
//! Every file opens with a 12-byte header — the [`SPILL_MAGIC`] bytes
//! plus the u32 [`SPILL_VERSION`] — and each chunk is:
//!
//! ```text
//! u32 len | len × u32 srcs | len × u32 dsts | per edge attr: len × u16 | u64 checksum
//! ```
//!
//! Columns (not rows) so a streaming reader touches each attribute
//! contiguously, matching the [`crate::KeyColumns`] a shard or slice
//! load gathers from them. The trailing checksum is [`spill_checksum`] over
//! the chunk's column bytes; mining re-reads every spilled byte as a
//! correctness input (the out-of-core engine trusts nothing else), so
//! the decoder verifies it and surfaces torn writes, truncation, and
//! bit rot as typed [`ShardIoError`]s instead of decoding garbage.
//! [`encode_edge_chunk`] / [`read_edge_chunk`] are the only
//! encoder/decoder; the shard store never parses bytes itself. Both work
//! a whole chunk at a time through buffers their caller keeps: the
//! encoder appends to a byte buffer the writer reuses, and the decoder
//! refills one [`EdgeChunk`] for every chunk of a file.
//!
//! Within a file, chunks hold edges in the order they were spilled: a
//! shard file of a store built from a graph holds its edges in EArray
//! order (source groups clustered by their attribute rows, widest
//! attribute first, as [`crate::KeyColumns::build`] places them), a
//! shard file of a streamed store in arrival order, and a slice file the
//! stable subsequence of its store's order. The format records no order
//! and no reader sorts.

use crate::builder::GraphBuilder;
use crate::error::{GraphError, Result, ShardIoError};
use crate::graph::SocialGraph;
use crate::schema::{AttrDef, Schema};
use crate::value::{AttrValue, NodeId};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &str = "GRMGRAPH";
const VERSION: &str = "1";

/// Serialize `graph` to `w` in the GRMGRAPH text format.
pub fn write_graph<W: Write>(graph: &SocialGraph, w: W) -> Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "{MAGIC}\t{VERSION}")?;
    let schema = graph.schema();
    for a in schema.node_attr_ids() {
        write_attr(&mut w, "NODEATTR", schema.node_attr(a))?;
    }
    for a in schema.edge_attr_ids() {
        write_attr(&mut w, "EDGEATTR", schema.edge_attr(a))?;
    }
    writeln!(w, "NODES\t{}", graph.node_count())?;
    for n in graph.node_ids() {
        let row: Vec<String> = graph.node_row(n).iter().map(|v| v.to_string()).collect();
        writeln!(w, "{}", row.join("\t"))?;
    }
    writeln!(w, "EDGES\t{}", graph.edge_count())?;
    for e in graph.edge_ids() {
        let mut row = vec![graph.src(e).to_string(), graph.dst(e).to_string()];
        row.extend(graph.edge_row(e).iter().map(|v| v.to_string()));
        writeln!(w, "{}", row.join("\t"))?;
    }
    w.flush()?;
    Ok(())
}

fn write_attr<W: Write>(w: &mut W, tag: &str, def: &AttrDef) -> Result<()> {
    let flag = if def.is_homophily() { "h" } else { "n" };
    let mut line = format!("{tag}\t{}\t{}\t{flag}", def.name(), def.domain_size());
    // Emit the dictionary only when at least one value has a real name.
    let named: Vec<String> = (0..=def.domain_size()).map(|v| def.value_name(v)).collect();
    let has_dict = (1..=def.domain_size()).any(|v| def.value_name(v) != v.to_string());
    if has_dict {
        for name in named {
            line.push('\t');
            line.push_str(&name);
        }
    }
    writeln!(w, "{line}")?;
    Ok(())
}

/// Parse a graph from `r` in the GRMGRAPH text format.
pub fn read_graph<R: Read>(r: R) -> Result<SocialGraph> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines().enumerate();

    let mut next_line = |expect: &str| -> Result<(usize, String)> {
        match lines.next() {
            Some((i, Ok(l))) => Ok((i + 1, l)),
            Some((i, Err(e))) => Err(GraphError::Parse {
                line: i + 1,
                message: e.to_string(),
            }),
            None => Err(GraphError::Parse {
                line: 0,
                message: format!("unexpected end of input, expected {expect}"),
            }),
        }
    };

    // Header.
    let (ln, header) = next_line("header")?;
    let mut parts = header.split('\t');
    if parts.next() != Some(MAGIC) || parts.next() != Some(VERSION) {
        return Err(GraphError::Parse {
            line: ln,
            message: format!("bad header, expected `{MAGIC}\\t{VERSION}`"),
        });
    }

    // Attribute declarations until the NODES marker.
    let mut node_attrs = Vec::new();
    let mut edge_attrs = Vec::new();
    let node_count: usize;
    loop {
        let (ln, line) = next_line("NODEATTR/EDGEATTR/NODES")?;
        let fields: Vec<&str> = line.split('\t').collect();
        match fields[0] {
            "NODEATTR" => node_attrs.push(parse_attr(ln, &fields)?),
            "EDGEATTR" => edge_attrs.push(parse_attr(ln, &fields)?),
            "NODES" => {
                node_count = parse_num(ln, fields.get(1).copied())?;
                break;
            }
            other => {
                return Err(GraphError::Parse {
                    line: ln,
                    message: format!("unexpected tag `{other}`"),
                })
            }
        }
    }

    let schema = Schema::new(node_attrs, edge_attrs)?;
    let na = schema.node_attr_count();
    let ea = schema.edge_attr_count();
    let mut builder = GraphBuilder::with_capacity(schema, node_count, 0).allow_self_loops();

    // Node rows.
    let mut row = Vec::with_capacity(na);
    for _ in 0..node_count {
        let (ln, line) = next_line("node row")?;
        row.clear();
        for f in line.split('\t') {
            row.push(parse_value(ln, f)?);
        }
        builder.add_node(&row).map_err(|e| GraphError::Parse {
            line: ln,
            message: e.to_string(),
        })?;
    }

    // Edge header + rows.
    let (ln, line) = next_line("EDGES")?;
    let fields: Vec<&str> = line.split('\t').collect();
    if fields[0] != "EDGES" {
        return Err(GraphError::Parse {
            line: ln,
            message: format!("expected EDGES, got `{}`", fields[0]),
        });
    }
    let edge_count: usize = parse_num(ln, fields.get(1).copied())?;
    let mut evals = Vec::with_capacity(ea);
    for _ in 0..edge_count {
        let (ln, line) = next_line("edge row")?;
        let mut it = line.split('\t');
        let src = parse_node(ln, it.next())?;
        let dst = parse_node(ln, it.next())?;
        evals.clear();
        for f in it {
            evals.push(parse_value(ln, f)?);
        }
        builder
            .add_edge(src, dst, &evals)
            .map_err(|e| GraphError::Parse {
                line: ln,
                message: e.to_string(),
            })?;
    }

    builder.build()
}

fn parse_attr(ln: usize, fields: &[&str]) -> Result<AttrDef> {
    if fields.len() < 4 {
        return Err(GraphError::Parse {
            line: ln,
            message: "attribute line needs name, domain, flag".into(),
        });
    }
    let name = fields[1];
    let domain: AttrValue = fields[2].parse().map_err(|_| GraphError::Parse {
        line: ln,
        message: format!("bad domain `{}`", fields[2]),
    })?;
    let homophily = fields[3] == "h";
    if fields.len() > 4 {
        let names = &fields[4..];
        if names.len() != domain as usize + 1 {
            return Err(GraphError::Parse {
                line: ln,
                message: format!(
                    "dictionary for `{name}` has {} entries, expected {}",
                    names.len(),
                    domain + 1
                ),
            });
        }
        Ok(AttrDef::with_values(
            name,
            homophily,
            names[1..].iter().map(|s| s.to_string()),
        ))
    } else {
        Ok(AttrDef::new(name, domain, homophily))
    }
}

fn parse_num(ln: usize, f: Option<&str>) -> Result<usize> {
    f.and_then(|s| s.parse().ok()).ok_or(GraphError::Parse {
        line: ln,
        message: "expected a number".into(),
    })
}

/// An edge endpoint: a node id in the u32 id space. A wider number is a
/// parse error — truncated, it would silently name an unrelated node.
fn parse_node(ln: usize, f: Option<&str>) -> Result<NodeId> {
    NodeId::try_from(parse_num(ln, f)?).map_err(|_| GraphError::Parse {
        line: ln,
        message: format!("node id `{}` is out of range", f.unwrap_or_default()),
    })
}

fn parse_value(ln: usize, f: &str) -> Result<AttrValue> {
    f.parse().map_err(|_| GraphError::Parse {
        line: ln,
        message: format!("bad attribute value `{f}`"),
    })
}

/// One columnar chunk of shard-spilled edges (module docs): the edges a
/// writer buffers before it spills them, or the chunk the decoder last
/// read. [`read_edge_chunk`] refills one chunk in place, so a reader
/// allocates its buffers once per file, not once per chunk.
#[derive(Debug, Clone)]
pub struct EdgeChunk {
    /// Edge sources.
    pub srcs: Vec<NodeId>,
    /// Edge destinations, same length as `srcs`.
    pub dsts: Vec<NodeId>,
    /// One column per edge attribute, each the chunk's length.
    pub attrs: Vec<Vec<AttrValue>>,
    /// The raw bytes of the last chunk read into this one, kept so the
    /// next read reuses their allocation.
    bytes: Vec<u8>,
}

impl EdgeChunk {
    /// An empty chunk with `edge_attrs` attribute columns, each column
    /// with room for `capacity` edges.
    pub fn new(edge_attrs: usize, capacity: usize) -> Self {
        EdgeChunk {
            srcs: Vec::with_capacity(capacity),
            dsts: Vec::with_capacity(capacity),
            attrs: (0..edge_attrs)
                .map(|_| Vec::with_capacity(capacity))
                .collect(),
            bytes: Vec::new(),
        }
    }

    /// Edges in the chunk.
    pub fn len(&self) -> usize {
        self.srcs.len()
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.srcs.is_empty()
    }

    /// Drop every edge, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.srcs.clear();
        self.dsts.clear();
        for col in &mut self.attrs {
            col.clear();
        }
    }
}

/// First bytes of every spill file.
pub const SPILL_MAGIC: &[u8; 8] = b"GRMSPILL";

/// Spill format version this build reads and writes. Version 1 was the
/// header-less, checksum-less chunk stream of the first out-of-core
/// engine; 2 added the file header and per-chunk checksums.
pub const SPILL_VERSION: u32 = 2;

/// Hand-rolled 64-bit checksum for spill chunks (xxhash-style lane
/// mixing with a final avalanche; no dependency). Not cryptographic —
/// it detects torn writes, truncation, and bit rot, which is what the
/// out-of-core engine needs from bytes it wrote itself.
pub fn spill_checksum(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    let mut h = P3 ^ (bytes.len() as u64).wrapping_mul(P1);
    let mut lanes = bytes.chunks_exact(8);
    for c in lanes.by_ref() {
        let v = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        h = (h ^ v.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1);
    }
    for &b in lanes.remainder() {
        h = (h ^ u64::from(b).wrapping_mul(P1))
            .rotate_left(11)
            .wrapping_mul(P2);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^= h >> 32;
    h
}

/// Write the 12-byte spill file header (magic + version).
pub fn write_spill_header<W: Write>(w: &mut W) -> Result<()> {
    w.write_all(SPILL_MAGIC)?;
    w.write_all(&SPILL_VERSION.to_le_bytes())?;
    Ok(())
}

/// Read and validate the spill file header written by
/// [`write_spill_header`].
pub fn read_spill_header<R: Read>(r: &mut R) -> Result<()> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|_| ShardIoError::ShortRead {
            context: "spill header magic",
        })?;
    if &magic != SPILL_MAGIC {
        return Err(ShardIoError::BadMagic.into());
    }
    let mut ver = [0u8; 4];
    r.read_exact(&mut ver)
        .map_err(|_| ShardIoError::ShortRead {
            context: "spill header version",
        })?;
    let found = u32::from_le_bytes(ver);
    if found != SPILL_VERSION {
        return Err(ShardIoError::VersionMismatch {
            found,
            expected: SPILL_VERSION,
        }
        .into());
    }
    Ok(())
}

/// Append one encoded columnar edge chunk — length prefix, columns,
/// trailing [`spill_checksum`] over the column bytes — to `out`, so a
/// writer can retry the whole chunk on a transient failure without
/// re-walking its sources, and reuse `out` for the next chunk.
/// `attrs` holds one column per edge attribute; every column must match
/// `srcs`/`dsts` in length.
pub fn encode_edge_chunk(
    srcs: &[NodeId],
    dsts: &[NodeId],
    attrs: &[Vec<AttrValue>],
    out: &mut Vec<u8>,
) {
    debug_assert_eq!(srcs.len(), dsts.len());
    let n = srcs.len();
    // cast: n ≤ shard::CHUNK_EDGES (4096) — the shard writers spill a chunk at that size
    out.extend_from_slice(&(n as u32).to_le_bytes());
    let columns = out.len();
    for col in [srcs, dsts] {
        put_column(out, col, u32::to_le_bytes);
    }
    for col in attrs {
        debug_assert_eq!(col.len(), n);
        put_column(out, col, AttrValue::to_le_bytes);
    }
    let sum = spill_checksum(&out[columns..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Append `col` to `out`, each value as its `W` little-endian bytes.
fn put_column<T: Copy, const W: usize>(out: &mut Vec<u8>, col: &[T], le: fn(T) -> [u8; W]) {
    let start = out.len();
    out.resize(start + W * col.len(), 0);
    for (bytes, &v) in out[start..].chunks_exact_mut(W).zip(col) {
        bytes.copy_from_slice(&le(v));
    }
}

/// Refill `col` from `bytes`, `W` little-endian bytes per value.
fn take_column<T, const W: usize>(col: &mut Vec<T>, bytes: &[u8], le: fn([u8; W]) -> T) {
    col.clear();
    col.extend(bytes.chunks_exact(W).map(|b| {
        let mut v = [0u8; W];
        v.copy_from_slice(b);
        le(v)
    }));
}

/// Read into `buf` until it is full or `r` ends; returns the bytes read.
fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(k) => got += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(got)
}

/// Bytes a chunk read asks for at a time: a corrupted length prefix runs
/// out of file bytes before its buffer grows further than this past
/// them.
const READ_PIECE: usize = 64 * 1024;

/// Read the next edge chunk from `r` into `chunk`, decoding one column
/// per attribute column `chunk` has and verifying the trailing checksum;
/// every column is refilled, so nothing of the previous chunk remains.
/// Returns `Ok(false)` on a clean end of stream; truncation is a typed
/// [`ShardIoError::ShortRead`] and a checksum failure a
/// [`ShardIoError::ChecksumMismatch`].
pub fn read_edge_chunk<R: Read>(r: &mut R, chunk: &mut EdgeChunk) -> Result<bool> {
    let mut lenb = [0u8; 4];
    match fill(r, &mut lenb)? {
        0 => return Ok(false),
        4 => {}
        _ => {
            return Err(ShardIoError::ShortRead {
                context: "chunk length prefix",
            }
            .into())
        }
    }
    let n = u32::from_le_bytes(lenb) as usize;
    let columns = n * 8 + chunk.attrs.len() * n * 2;
    // Grow the buffer a piece at a time, so a corrupted length prefix
    // cannot demand a multi-gigabyte allocation — it runs out of file
    // bytes first and surfaces as the short read it is.
    let bytes = &mut chunk.bytes;
    bytes.clear();
    while bytes.len() < columns + 8 {
        let start = bytes.len();
        bytes.resize((columns + 8).min(start + READ_PIECE), 0);
        let got = fill(r, &mut bytes[start..])?;
        if start + got < bytes.len() {
            let context = if start + got < columns {
                "chunk columns"
            } else {
                "chunk checksum"
            };
            return Err(ShardIoError::ShortRead { context }.into());
        }
    }
    let (body, sum) = bytes.split_at(columns);
    let mut sumb = [0u8; 8];
    sumb.copy_from_slice(sum);
    let stored = u64::from_le_bytes(sumb);
    let computed = spill_checksum(body);
    if stored != computed {
        return Err(ShardIoError::ChecksumMismatch { stored, computed }.into());
    }
    let (srcs, rest) = body.split_at(n * 4);
    let (dsts, mut rest) = rest.split_at(n * 4);
    take_column(&mut chunk.srcs, srcs, u32::from_le_bytes);
    take_column(&mut chunk.dsts, dsts, u32::from_le_bytes);
    for col in &mut chunk.attrs {
        let (values, tail) = rest.split_at(n * 2);
        take_column(col, values, AttrValue::from_le_bytes);
        rest = tail;
    }
    Ok(true)
}

/// Save a graph to `path`.
pub fn save_graph(graph: &SocialGraph, path: impl AsRef<Path>) -> Result<()> {
    write_graph(graph, std::fs::File::create(path)?)
}

/// Load a graph from `path`.
pub fn load_graph(path: impl AsRef<Path>) -> Result<SocialGraph> {
    read_graph(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeAttrId, NodeAttrId, SchemaBuilder};

    fn sample() -> SocialGraph {
        let schema = SchemaBuilder::new()
            .node_attr_named("SEX", false, ["F", "M"])
            .node_attr("Region", 188, true)
            .edge_attr_named("TYPE", ["dates", "friend of"])
            .build()
            .unwrap();
        let mut b = GraphBuilder::new(schema);
        let a = b.add_node(&[1, 27]).unwrap();
        let c = b.add_node(&[2, 0]).unwrap();
        let d = b.add_node(&[2, 188]).unwrap();
        b.add_edge(a, c, &[1]).unwrap();
        b.add_edge(c, d, &[2]).unwrap();
        b.add_edge(d, a, &[0]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let g = sample();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let back = read_graph(&buf[..]).unwrap();

        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.schema(), g.schema());
        for n in g.node_ids() {
            assert_eq!(back.node_row(n), g.node_row(n));
        }
        for e in g.edge_ids() {
            assert_eq!(back.src(e), g.src(e));
            assert_eq!(back.dst(e), g.dst(e));
            assert_eq!(back.edge_row(e), g.edge_row(e));
        }
        // Dictionaries survive (value names with spaces included).
        assert_eq!(
            back.schema().edge_attr(EdgeAttrId(0)).value_name(2),
            "friend of"
        );
        assert!(back.schema().node_attr(NodeAttrId(1)).is_homophily());
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_graph(&b"not a graph"[..]).is_err());
        assert!(read_graph(&b"GRMGRAPH\t9\n"[..]).is_err());
        let truncated = b"GRMGRAPH\t1\nNODEATTR\tA\t2\tn\nNODES\t3\n1\n";
        assert!(read_graph(&truncated[..]).is_err());
    }

    #[test]
    fn file_round_trip() {
        let g = sample();
        let dir = std::env::temp_dir().join("grm_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.grm");
        save_graph(&g, &path).unwrap();
        let back = load_graph(&path).unwrap();
        assert_eq!(back.edge_count(), 3);
        std::fs::remove_file(&path).ok();
    }

    /// `chunks` encoded back to back.
    fn encoded(chunks: &[EdgeChunk]) -> Vec<u8> {
        let mut buf = Vec::new();
        for c in chunks {
            encode_edge_chunk(&c.srcs, &c.dsts, &c.attrs, &mut buf);
        }
        buf
    }

    /// A chunk of the given columns.
    fn chunk(srcs: Vec<NodeId>, dsts: Vec<NodeId>, attrs: Vec<Vec<AttrValue>>) -> EdgeChunk {
        EdgeChunk {
            srcs,
            dsts,
            attrs,
            bytes: Vec::new(),
        }
    }

    /// The decoded columns of `chunk`, to compare with an input chunk.
    fn columns_of(chunk: &EdgeChunk) -> (&[NodeId], &[NodeId], &[Vec<AttrValue>]) {
        (&chunk.srcs, &chunk.dsts, &chunk.attrs)
    }

    #[test]
    fn edge_chunk_round_trip() {
        let buf = encoded(&[
            chunk(vec![1, 2, 3], vec![4, 5, 6], vec![vec![7, 8, 9]]),
            chunk(vec![10], vec![11], vec![vec![1]]),
            // Empty chunks are legal (a flush with nothing buffered).
            chunk(vec![], vec![], vec![vec![]]),
        ]);
        let mut r = &buf[..];
        let mut c = EdgeChunk::new(1, 0);
        assert!(read_edge_chunk(&mut r, &mut c).unwrap());
        assert_eq!(c.srcs, vec![1, 2, 3]);
        assert_eq!(c.dsts, vec![4, 5, 6]);
        assert_eq!(c.attrs, vec![vec![7, 8, 9]]);
        assert_eq!(c.len(), 3);
        assert!(read_edge_chunk(&mut r, &mut c).unwrap());
        assert_eq!((c.srcs[0], c.dsts[0], c.attrs[0][0]), (10, 11, 1));
        assert!(read_edge_chunk(&mut r, &mut c).unwrap());
        assert!(c.is_empty());
        assert!(!read_edge_chunk(&mut r, &mut c).unwrap(), "clean EOF");
    }

    #[test]
    fn edge_chunk_no_attrs() {
        let buf = encoded(&[chunk(vec![0, 1], vec![1, 0], vec![])]);
        let mut c = EdgeChunk::new(0, 0);
        assert!(read_edge_chunk(&mut &buf[..], &mut c).unwrap());
        assert_eq!(c.srcs, vec![0, 1]);
        assert!(c.attrs.is_empty());
    }

    #[test]
    fn one_reused_chunk_decodes_every_chunk_exactly() {
        // Long, short, empty, long: a decoder that kept any part of the
        // previous chunk would show it as a stale tail or a stale value.
        for ea in [0usize, 2] {
            let inputs: Vec<EdgeChunk> = [4096usize, 3, 0, 4096]
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    let seed = i as u32 * 7919 + 1;
                    let column = |k: u32| -> Vec<u32> {
                        (0..len as u32)
                            .map(|e| (e * 31 + seed * k) % 50_000)
                            .collect()
                    };
                    let attrs = (0..ea as u32)
                        .map(|a| column(3 + a).iter().map(|&v| (v % 5) as u16).collect())
                        .collect();
                    chunk(column(1), column(2), attrs)
                })
                .collect();
            let buf = encoded(&inputs);
            let mut r = &buf[..];
            let mut out = EdgeChunk::new(ea, 0);
            for (i, want) in inputs.iter().enumerate() {
                assert!(read_edge_chunk(&mut r, &mut out).unwrap(), "chunk {i}");
                assert_eq!(columns_of(&out), columns_of(want), "chunk {i}, {ea} attrs");
            }
            assert!(!read_edge_chunk(&mut r, &mut out).unwrap(), "clean EOF");
        }
    }

    #[test]
    fn edge_chunk_truncation_is_a_typed_short_read() {
        let buf = encoded(&[chunk(vec![1, 2, 3], vec![4, 5, 6], vec![vec![7, 8, 9]])]);
        // Cut mid-checksum, mid-column, and mid-length-prefix: the
        // length prefix promises bytes that never arrive.
        for cut_at in [buf.len() - 3, 10, 2] {
            let cut = &buf[..cut_at];
            let err = read_edge_chunk(&mut &cut[..], &mut EdgeChunk::new(1, 0)).unwrap_err();
            assert!(
                matches!(err, GraphError::ShardIo(ShardIoError::ShortRead { .. })),
                "cut at {cut_at}: {err:?}"
            );
        }
    }

    #[test]
    fn edge_chunk_corruption_is_a_checksum_mismatch() {
        let mut buf = encoded(&[chunk(vec![1, 2, 3], vec![4, 5, 6], vec![vec![7, 8, 9]])]);
        // Flip one payload bit (in a column, past the length prefix).
        buf[6] ^= 0x10;
        let err = read_edge_chunk(&mut &buf[..], &mut EdgeChunk::new(1, 0)).unwrap_err();
        assert!(
            matches!(
                err,
                GraphError::ShardIo(ShardIoError::ChecksumMismatch { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn oversized_length_prefix_is_a_short_read_not_an_allocation() {
        let mut buf = encoded(&[chunk(vec![1], vec![2], vec![])]);
        // Corrupt the length prefix to claim ~4 billion edges.
        buf[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_edge_chunk(&mut &buf[..], &mut EdgeChunk::new(0, 0)).unwrap_err();
        assert!(
            matches!(err, GraphError::ShardIo(ShardIoError::ShortRead { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn spill_header_round_trip_and_rejections() {
        let mut buf = Vec::new();
        write_spill_header(&mut buf).unwrap();
        assert_eq!(buf.len(), 12);
        read_spill_header(&mut &buf[..]).unwrap();

        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_spill_header(&mut &bad[..]).unwrap_err(),
            GraphError::ShardIo(ShardIoError::BadMagic)
        ));
        // Future version.
        let mut vnext = buf.clone();
        vnext[8..12].copy_from_slice(&(SPILL_VERSION + 1).to_le_bytes());
        assert!(matches!(
            read_spill_header(&mut &vnext[..]).unwrap_err(),
            GraphError::ShardIo(ShardIoError::VersionMismatch { expected, .. })
                if expected == SPILL_VERSION
        ));
        // Truncated header.
        assert!(matches!(
            read_spill_header(&mut &buf[..5]).unwrap_err(),
            GraphError::ShardIo(ShardIoError::ShortRead { .. })
        ));
    }

    #[test]
    fn spill_checksum_is_stable_and_sensitive() {
        // Pinned values: the on-disk format depends on this function
        // never changing.
        assert_eq!(spill_checksum(b""), spill_checksum(b""));
        assert_ne!(spill_checksum(b"a"), spill_checksum(b"b"));
        assert_ne!(spill_checksum(b"abcdefgh"), spill_checksum(b"abcdefgi"));
        // Length is mixed in: a zero-padded prefix is not a collision.
        assert_ne!(spill_checksum(&[0u8; 8]), spill_checksum(&[0u8; 16]));
    }

    #[test]
    fn a_huge_header_node_count_is_a_parse_error_not_an_allocation() {
        let text = "GRMGRAPH\t1\nNODEATTR\tA\t2\tn\nNODES\t4000000000000000000\n1\n";
        let err = read_graph(text.as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn an_edge_endpoint_beyond_u32_is_a_parse_error_at_its_line() {
        let text = "GRMGRAPH\t1\nNODEATTR\tA\t2\tn\nNODES\t2\n1\n2\nEDGES\t1\n4294967296\t1\n";
        let err = read_graph(text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, GraphError::Parse { line: 7, ref message } if message.contains("4294967296")),
            "{err:?}"
        );
    }

    #[test]
    fn value_out_of_domain_rejected_at_load() {
        let text = "GRMGRAPH\t1\nNODEATTR\tA\t2\tn\nNODES\t1\n7\nEDGES\t0\n";
        let err = read_graph(text.as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }
}
