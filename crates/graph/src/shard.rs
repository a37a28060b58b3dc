//! Sharded, memory-budgeted out-of-core edge storage.
//!
//! [`CompactModel`] indexes EArray positions with `u32`, capping any
//! single resident model at [`CompactModel::MAX_EDGES`] edges.
//! This module breaks that cap by partitioning the edge set into
//! independently loadable **shards**, each small enough to be mined over
//! its own positions:
//!
//! * [`ShardSpec`] — the partitioning function: edges are routed by the
//!   *dominant* LHS dimension's value on their source node (the widest
//!   node-attribute domain, the dimension the in-core engine splits into
//!   value ranges by the same rule), tiled into contiguous value ranges
//!   with NULL joining shard 0.
//! * [`ShardStoreWriter`] / [`ShardStore`] — a streaming writer that
//!   spills edges to one columnar chunk file per shard (format in
//!   [`crate::io`]) without ever materializing the whole edge set, and
//!   the finished store. Capacity is checked **per shard** at finish
//!   time.
//! * [`SliceSet`] — per-value re-partitions of the whole store keyed by
//!   an arbitrary source/destination/edge attribute: the unit of work
//!   for root tasks whose top dimension is not the shard key.
//! * [`ShardPool`] — the LRU residency manager: `acquire` pins a shard
//!   (loading it if absent, evicting unpinned least-recently-used
//!   residents to stay inside a fixed byte budget), `release` unpins.
//!   The pin/evict/budget protocol is model-checked in
//!   `grm_analyze::model::shard`: no shard is evicted while pinned,
//!   residency never exceeds the budget, and the blocked wait (every
//!   resident pinned) is not a deadlock.
//!
//! A shard and a slice load the same way: as the [`KeyColumns`] a mining
//! unit reads ([`ShardStore::load_shard`], [`SliceSet::load_keys`]),
//! gathered from the spill file against the store's resident node table
//! in spill order — no graph, no node rows, no compact model.
//!
//! Every reader — shard loads, slice-set builds, key loads — goes
//! through one read path: the decoder verifies the file header and each
//! chunk's checksum, and each decoded chunk's endpoints and edge values
//! are then checked against the store. A spill file whose checksums hold
//! but whose values the store never wrote is a typed error before any
//! reader indexes with them, never a panic.
//!
//! Residency accounting uses [`resident_cost`], the bytes a mining unit
//! holds — its key columns plus its position buffer, the same formula
//! for a shard and a slice. The pool keeps one ledger, under its mutex:
//! the budget, the resident shards and reservations, and the peak of
//! their sum, raised wherever a shard or a reservation is admitted. So
//! `shard_resident_bytes_peak ≤ budget` holds by construction whenever
//! the pool hands out a lease.

use crate::cancel::CancelToken;
use crate::compact::{check_edge_capacity, CompactModel, KeyColumns};
use crate::error::{GraphError, ResidentUnit, Result, ShardIoError};
use crate::failpoint;
use crate::graph::SocialGraph;
use crate::io::EdgeChunk;
use crate::schema::Schema;
use crate::value::{AttrValue, EdgeAttrId, NodeAttrId, NodeId, NULL};
use parking_lot::Mutex;
use std::fs;
use std::io::Write as _;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Edges buffered per shard before a chunk is spilled to disk.
const CHUNK_EDGES: usize = 4096;

/// How the edge set is partitioned: by a source-node attribute, tiled
/// into contiguous inclusive value ranges (one per shard). NULL values
/// route to shard 0, mirroring how the miner's `Left` root tasks skip
/// NULL before counting. The in-core engine splits its dominant root
/// task into the ranges of a spec too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    attr: NodeAttrId,
    ranges: Vec<(AttrValue, AttrValue)>,
}

impl ShardSpec {
    /// Partition on the schema's dominant node attribute
    /// ([`Self::dominant`]).
    pub fn new(schema: &Schema, shards: usize) -> Self {
        // A schema declares at least one node attribute.
        let attr = Self::dominant(schema, schema.node_attr_ids()).unwrap_or(NodeAttrId(0));
        Self::with_attr(schema, attr, shards)
    }

    /// The dominant attribute among `attrs`: the widest domain, the first
    /// listed on ties; `None` when `attrs` is empty.
    pub fn dominant(
        schema: &Schema,
        attrs: impl IntoIterator<Item = NodeAttrId>,
    ) -> Option<NodeAttrId> {
        let mut best: Option<(usize, NodeAttrId)> = None;
        for a in attrs {
            let width = schema.node_attr(a).bucket_count();
            if best.is_none_or(|(w, _)| width > w) {
                best = Some((width, a));
            }
        }
        best.map(|(_, a)| a)
    }

    /// Partition on an explicit attribute.
    pub fn with_attr(schema: &Schema, attr: NodeAttrId, shards: usize) -> Self {
        let shards = shards.max(1);
        let values = schema
            .node_attr(attr)
            .bucket_count()
            .saturating_sub(1)
            .max(1);
        let mut ranges = Vec::with_capacity(shards);
        for s in 0..shards {
            let lo = 1 + s * values / shards;
            let hi = (s + 1) * values / shards;
            // cast: lo, hi ≤ values = bucket_count − 1 < u16 domain
            ranges.push((lo as AttrValue, hi as AttrValue));
        }
        ShardSpec { attr, ranges }
    }

    /// The attribute edges are routed on.
    pub fn attr(&self) -> NodeAttrId {
        self.attr
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }

    /// Inclusive value range of shard `s` (`lo > hi` means the shard is
    /// empty — more shards were requested than the domain has values).
    pub fn range(&self, s: usize) -> (AttrValue, AttrValue) {
        self.ranges[s]
    }

    /// Which shard holds edges whose source carries `value`.
    pub fn shard_of(&self, value: AttrValue) -> usize {
        if value == NULL {
            return 0;
        }
        for (s, &(lo, hi)) in self.ranges.iter().enumerate() {
            if lo <= value && value <= hi {
                return s;
            }
        }
        // Schema-valid values always land in a range; out-of-domain
        // values (rejected upstream by validation) fold into the last
        // shard rather than panicking in the hot path.
        self.ranges.len() - 1
    }
}

/// Buffered many-bucket chunk spiller shared by the shard writer and
/// the slice builder: routes edges into per-bucket columnar files.
struct ChunkRouter {
    dir: PathBuf,
    prefix: &'static str,
    writers: Vec<BufWriter<fs::File>>,
    srcs: Vec<Vec<NodeId>>,
    dsts: Vec<Vec<NodeId>>,
    attrs: Vec<Vec<Vec<AttrValue>>>,
    counts: Vec<u64>,
    spill_retries: u64,
}

impl ChunkRouter {
    fn create(dir: &Path, prefix: &'static str, buckets: usize, ea: usize) -> Result<Self> {
        fs::create_dir_all(dir)?;
        Self::sweep_stale_temps(dir, prefix);
        let mut writers = Vec::with_capacity(buckets);
        let mut srcs = Vec::with_capacity(buckets);
        let mut dsts = Vec::with_capacity(buckets);
        let mut attrs = Vec::with_capacity(buckets);
        let mut counts = Vec::with_capacity(buckets);
        for b in 0..buckets {
            let f = fs::File::create(Self::tmp_file_at(dir, prefix, b))?;
            let mut w = BufWriter::new(f);
            crate::io::write_spill_header(&mut w)?;
            writers.push(w);
            srcs.push(Vec::with_capacity(CHUNK_EDGES));
            dsts.push(Vec::with_capacity(CHUNK_EDGES));
            let mut cols = Vec::with_capacity(ea);
            for _ in 0..ea {
                cols.push(Vec::with_capacity(CHUNK_EDGES));
            }
            attrs.push(cols);
            counts.push(0);
        }
        Ok(ChunkRouter {
            dir: dir.to_path_buf(),
            prefix,
            writers,
            srcs,
            dsts,
            attrs,
            counts,
            spill_retries: 0,
        })
    }

    fn file_at(dir: &Path, prefix: &str, bucket: usize) -> PathBuf {
        dir.join(format!("{prefix}-{bucket}.edges"))
    }

    /// In-progress spills live at a `.tmp` sibling until
    /// [`Self::finish`] renames them into place, so a crash mid-write
    /// never leaves a file a reader would mistake for a complete spill.
    fn tmp_file_at(dir: &Path, prefix: &str, bucket: usize) -> PathBuf {
        dir.join(format!("{prefix}-{bucket}.edges.tmp"))
    }

    /// Remove temp files a crashed earlier run left under `dir` for
    /// this prefix (best-effort; they are garbage by construction).
    fn sweep_stale_temps(dir: &Path, prefix: &str) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(prefix) && name.ends_with(".edges.tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    fn push(&mut self, b: usize, src: NodeId, dst: NodeId, vals: &[AttrValue]) -> Result<()> {
        self.srcs[b].push(src);
        self.dsts[b].push(dst);
        for (a, &v) in vals.iter().enumerate() {
            self.attrs[b][a].push(v);
        }
        self.counts[b] += 1;
        if self.srcs[b].len() >= CHUNK_EDGES {
            self.flush_bucket(b)?;
        }
        Ok(())
    }

    fn flush_bucket(&mut self, b: usize) -> Result<()> {
        if self.srcs[b].is_empty() {
            return Ok(());
        }
        let chunk = crate::io::encode_edge_chunk(&self.srcs[b], &self.dsts[b], &self.attrs[b]);
        if let Err(first) = Self::write_chunk(&mut self.writers[b], &chunk) {
            // One bounded retry for transient spill failures. A retry
            // after a real partial write can append a garbled chunk,
            // but the on-read checksum rejects it — a doubly-failed
            // spill may surface as a typed integrity error, never as
            // silently wrong data.
            self.spill_retries += 1;
            Self::write_chunk(&mut self.writers[b], &chunk).map_err(|_| first)?;
        }
        self.srcs[b].clear();
        self.dsts[b].clear();
        for col in &mut self.attrs[b] {
            col.clear();
        }
        Ok(())
    }

    fn write_chunk(w: &mut BufWriter<fs::File>, chunk: &[u8]) -> Result<()> {
        if let Some(failpoint::FaultKind::IoError) = failpoint::hit("spill.write") {
            return Err(GraphError::Io {
                message: "injected fault at spill.write".into(),
            });
        }
        w.write_all(chunk)?;
        Ok(())
    }

    /// Flush everything, rename each temp file into its final place,
    /// and return `(dir, per-bucket edge counts, spill retries)`.
    fn finish(mut self) -> Result<(PathBuf, Vec<u64>, u64)> {
        for b in 0..self.writers.len() {
            self.flush_bucket(b)?;
        }
        for w in &mut self.writers {
            w.flush()?;
        }
        // Close every temp file before renaming it into place: a
        // reader that can open `{prefix}-{b}.edges` therefore always
        // sees a complete, flushed spill.
        drop(std::mem::take(&mut self.writers));
        for b in 0..self.counts.len() {
            fs::rename(
                Self::tmp_file_at(&self.dir, self.prefix, b),
                Self::file_at(&self.dir, self.prefix, b),
            )?;
        }
        Ok((self.dir, self.counts, self.spill_retries))
    }
}

/// The injected faults of a load site (`shard.load`, `slice.load`): a
/// synthetic I/O error or a short read.
fn injected_load_fault(site: &'static str, context: &'static str) -> Result<()> {
    match failpoint::hit(site) {
        Some(failpoint::FaultKind::IoError) => Err(GraphError::Io {
            message: context.into(),
        }),
        Some(failpoint::FaultKind::ShortRead) => Err(ShardIoError::ShortRead { context }.into()),
        _ => Ok(()),
    }
}

/// `count` empty columns with room for `len` values each.
fn columns(count: usize, len: usize) -> Vec<Vec<AttrValue>> {
    let mut cols = Vec::with_capacity(count);
    cols.resize_with(count, || Vec::with_capacity(len));
    cols
}

/// Streaming writer for a [`ShardStore`]: nodes accumulate in memory
/// (rows are small), edges spill straight to per-shard chunk files, so
/// an edge set far beyond one `CompactModel`'s capacity is written in
/// O(nodes + chunk) memory.
pub struct ShardStoreWriter {
    schema: Arc<Schema>,
    spec: ShardSpec,
    router: ChunkRouter,
    node_values: Vec<AttrValue>,
    max_edges_per_shard: usize,
    total_edges: u64,
}

impl ShardStoreWriter {
    /// Start a store under `dir` with the dominant-attribute spec.
    /// `max_edges_per_shard` is the per-shard capacity checked at
    /// [`Self::finish`] (pass [`crate::CompactModel::MAX_EDGES`] for
    /// the real u32 cap; tests lower it to force sharding on small
    /// inputs).
    pub fn create(
        schema: Schema,
        dir: impl AsRef<Path>,
        shards: usize,
        max_edges_per_shard: usize,
    ) -> Result<Self> {
        let spec = ShardSpec::new(&schema, shards);
        let router = ChunkRouter::create(
            dir.as_ref(),
            "shard",
            spec.shard_count(),
            schema.edge_attr_count(),
        )?;
        Ok(ShardStoreWriter {
            schema: Arc::new(schema),
            spec,
            router,
            node_values: Vec::with_capacity(0),
            max_edges_per_shard,
            total_edges: 0,
        })
    }

    /// The schema being written against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_values.len() / self.schema.node_attr_count().max(1)
    }

    /// Edges added so far.
    pub fn edge_count(&self) -> u64 {
        self.total_edges
    }

    /// Add a node row (all nodes must precede the edges that use them).
    pub fn add_node(&mut self, values: &[AttrValue]) -> Result<NodeId> {
        self.schema.check_node_values(values)?;
        let id = crate::value::next_node_id(self.node_count())?;
        self.node_values.extend_from_slice(values);
        Ok(id)
    }

    /// Route one directed edge to its shard and spill it. Self-loops
    /// are accepted (the writer is a storage layer, not a policy one).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, values: &[AttrValue]) -> Result<()> {
        // Compare in usize: narrowing the count instead would wrap to 0
        // once the writer reaches 2^32 nodes and reject every edge.
        let n = self.node_count();
        for end in [src, dst] {
            if end as usize >= n {
                return Err(GraphError::DanglingEndpoint {
                    node: end,
                    nodes: n,
                });
            }
        }
        self.schema.check_edge_values(values)?;
        let na = self.schema.node_attr_count();
        let key = self.node_values[src as usize * na + self.spec.attr.index()];
        let shard = self.spec.shard_of(key);
        self.total_edges += 1;
        self.router.push(shard, src, dst, values)
    }

    /// Flush, verify every shard fits its per-shard capacity, and
    /// return the finished store (which owns the on-disk files).
    pub fn finish(self) -> Result<ShardStore> {
        let ShardStoreWriter {
            schema,
            spec,
            router,
            node_values,
            max_edges_per_shard,
            total_edges,
        } = self;
        let (dir, edge_counts, spill_retries) = router.finish()?;
        for &c in &edge_counts {
            check_edge_capacity(c as usize, max_edges_per_shard)?;
        }
        Ok(ShardStore {
            dir,
            schema,
            spec,
            node_values,
            edge_counts,
            total_edges,
            max_edges_per_shard,
            spill_retries,
        })
    }
}

/// A finished sharded edge store: node rows in memory, one columnar
/// chunk file per shard on disk. Dropping the store removes its files.
#[derive(Debug)]
pub struct ShardStore {
    dir: PathBuf,
    schema: Arc<Schema>,
    spec: ShardSpec,
    node_values: Vec<AttrValue>,
    edge_counts: Vec<u64>,
    total_edges: u64,
    max_edges_per_shard: usize,
    spill_retries: u64,
}

impl ShardStore {
    /// Shard an in-memory graph: the convenience path for inputs that
    /// already fit in one piece (equivalence tests, the CLI's default).
    pub fn build_from_graph(
        graph: &SocialGraph,
        dir: impl AsRef<Path>,
        shards: usize,
        max_edges_per_shard: usize,
    ) -> Result<Self> {
        let mut w =
            ShardStoreWriter::create(graph.schema().clone(), dir, shards, max_edges_per_shard)?;
        for n in graph.node_ids() {
            w.add_node(graph.node_row(n))?;
        }
        for e in graph.edge_ids() {
            w.add_edge(graph.src(e), graph.dst(e), graph.edge_row(e))?;
        }
        w.finish()
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The partitioning spec.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.spec.shard_count()
    }

    /// Edges in shard `s`.
    pub fn edge_count(&self, s: usize) -> u64 {
        self.edge_counts[s]
    }

    /// Edges across all shards.
    pub fn total_edges(&self) -> u64 {
        self.total_edges
    }

    /// Nodes (shared by every shard).
    pub fn node_count(&self) -> usize {
        self.node_values.len() / self.schema.node_attr_count().max(1)
    }

    /// Attribute row of node `n`.
    pub fn node_row(&self, n: NodeId) -> &[AttrValue] {
        let w = self.schema.node_attr_count();
        &self.node_values[n as usize * w..(n as usize + 1) * w]
    }

    /// Transient spill-write failures retried (and recovered from)
    /// while the store was written; bounded to one retry per chunk.
    pub fn spill_retries(&self) -> u64 {
        self.spill_retries
    }

    /// Directory holding the spill files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn edge_file(&self, s: usize) -> PathBuf {
        ChunkRouter::file_at(&self.dir, "shard", s)
    }

    /// Stream shard `s`'s edges without materializing them.
    pub fn for_each_edge<F>(&self, s: usize, mut f: F) -> Result<()>
    where
        F: FnMut(NodeId, NodeId, &[AttrValue]) -> Result<()>,
    {
        let mut row = Vec::with_capacity(self.schema.edge_attr_count());
        self.for_each_chunk_in(&self.edge_file(s), self.edge_counts[s], &mut |chunk| {
            for i in 0..chunk.len() {
                row.clear();
                row.extend(chunk.attrs.iter().map(|col| col[i]));
                f(chunk.srcs[i], chunk.dsts[i], &row)?;
            }
            Ok(())
        })
    }

    /// Stream one spill file of this store chunk by chunk: the read path
    /// every store reader shares. The decoder verifies the header and
    /// each chunk's checksum, and [`Self::check_chunk`] each decoded
    /// chunk's values, before `f` sees it. The file must hold exactly
    /// `edges` edges, the count recorded when it was written: a chunk
    /// that would carry the running count past it fails before `f` sees
    /// it (so no reader grows a buffer beyond the size it reserved), and
    /// so does a file that ends below it — a spill cut at a chunk
    /// boundary ends cleanly as far as the decoder can tell.
    fn for_each_chunk_in(
        &self,
        path: &Path,
        edges: u64,
        f: &mut dyn FnMut(&EdgeChunk) -> Result<()>,
    ) -> Result<()> {
        let mut r = BufReader::new(fs::File::open(path)?);
        crate::io::read_spill_header(&mut r)?;
        let mut read = 0u64;
        while let Some(chunk) = crate::io::read_edge_chunk(&mut r, self.schema.edge_attr_count())? {
            read += chunk.len() as u64;
            if read > edges {
                return Err(ShardIoError::ShortRead {
                    context: "edges beyond the recorded count",
                }
                .into());
            }
            self.check_chunk(&chunk)?;
            f(&chunk)?;
        }
        if read < edges {
            return Err(ShardIoError::ShortRead {
                context: "edges up to the recorded count",
            }
            .into());
        }
        Ok(())
    }

    /// Reject a chunk whose checksum holds but whose values this store
    /// never wrote: an endpoint at or past the node count, or an edge
    /// value outside its attribute's domain. Readers index the node
    /// table and per-value tables with these values, so they are
    /// checked once here, before any reader sees them.
    fn check_chunk(&self, chunk: &EdgeChunk) -> Result<()> {
        let nodes = self.node_count();
        if let Some(&node) = chunk.srcs.iter().chain(&chunk.dsts).max() {
            if node as usize >= nodes {
                return Err(GraphError::DanglingEndpoint { node, nodes });
            }
        }
        for (a, col) in self.schema.edge_attr_ids().zip(&chunk.attrs) {
            let def = self.schema.edge_attr(a);
            if let Some(&value) = col.iter().max() {
                if value > def.domain_size() {
                    return Err(GraphError::ValueOutOfDomain {
                        attr: def.name().into(),
                        value,
                        domain: def.domain_size(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Load shard `s` as the key columns a mining unit reads, positions
    /// in spill order, through the store's one key loader. A shard over
    /// the store's per-shard capacity fails before any byte is read.
    pub fn load_shard(&self, s: usize) -> Result<KeyColumns> {
        injected_load_fault("shard.load", "injected fault at shard.load")?;
        check_edge_capacity(self.edge_counts[s] as usize, self.max_edges_per_shard)?;
        self.gather_keys(Some(&self.edge_file(s)), self.edge_counts[s])
    }

    /// Gather the key columns of the spill file `file` (`None`: no
    /// edges), which holds the recorded `edges` edges, positions in spill
    /// order: the source and destination columns from the resident node
    /// table, the edge columns copied from the chunks, which pass the
    /// checked read path. The one loader of both unit kinds; it builds no
    /// graph, no node rows and no model, so a unit costs its columns
    /// alone.
    fn gather_keys(&self, file: Option<&Path>, edges: u64) -> Result<KeyColumns> {
        let na = self.schema.node_attr_count();
        // cast: usize is 64 bits (the spill format's host assumption), and
        // callers check `edges` against a u32 position capacity first
        let len = edges as usize;
        let (mut l, mut r) = (columns(na, len), columns(na, len));
        let mut w = columns(self.schema.edge_attr_count(), len);
        let mut loaded = 0;
        if let Some(path) = file {
            let nodes = &self.node_values;
            self.for_each_chunk_in(path, edges, &mut |chunk| {
                for a in 0..na {
                    l[a].extend(chunk.srcs.iter().map(|&n| nodes[n as usize * na + a]));
                    r[a].extend(chunk.dsts.iter().map(|&n| nodes[n as usize * na + a]));
                }
                for (col, values) in w.iter_mut().zip(&chunk.attrs) {
                    col.extend_from_slice(values);
                }
                loaded += chunk.len();
                Ok(())
            })?;
        }
        Ok(KeyColumns::from_columns(loaded, l, w, r))
    }
}

impl Drop for ShardStore {
    fn drop(&mut self) {
        for s in 0..self.shard_count() {
            let _ = fs::remove_file(self.edge_file(s));
        }
    }
}

/// Which attribute a [`SliceSet`] re-partitions the store on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceKey {
    /// A node attribute read on the edge's source (LHS dimension).
    Src(NodeAttrId),
    /// A node attribute read on the edge's destination (RHS dimension).
    Dst(NodeAttrId),
    /// An edge attribute (W dimension).
    Edge(EdgeAttrId),
}

impl SliceKey {
    /// Non-null values of the keyed attribute.
    pub fn domain(&self, schema: &Schema) -> usize {
        match *self {
            SliceKey::Src(a) | SliceKey::Dst(a) => {
                schema.node_attr(a).bucket_count().saturating_sub(1)
            }
            SliceKey::Edge(a) => schema.edge_attr(a).bucket_count().saturating_sub(1),
        }
    }
}

/// Per-value re-partition of a whole [`ShardStore`]: one chunk file per
/// non-null value of the key attribute, built in a single streaming
/// pass over every shard file. NULL-keyed edges are dropped — the
/// miner never descends into NULL partitions, so a root task over a
/// value slice sees exactly the edges its first partition pass would
/// keep. A slice loads as key columns ([`Self::load_keys`]). Dropping
/// the set removes its files.
pub struct SliceSet<'s> {
    store: &'s ShardStore,
    dir: PathBuf,
    edge_counts: Vec<u64>,
    spill_retries: u64,
}

impl<'s> SliceSet<'s> {
    /// Build the per-value spill files under `dir`.
    pub fn build(store: &'s ShardStore, key: SliceKey, dir: impl AsRef<Path>) -> Result<Self> {
        let schema = store.schema();
        let values = key.domain(schema);
        let mut router =
            ChunkRouter::create(dir.as_ref(), "slice", values, schema.edge_attr_count())?;
        let na = schema.node_attr_count();
        for s in 0..store.shard_count() {
            store.for_each_edge(s, |src, dst, vals| {
                let v = match key {
                    SliceKey::Src(a) => store.node_values[src as usize * na + a.index()],
                    SliceKey::Dst(a) => store.node_values[dst as usize * na + a.index()],
                    SliceKey::Edge(a) => vals[a.index()],
                };
                if v == NULL {
                    return Ok(());
                }
                router.push(v as usize - 1, src, dst, vals)
            })?;
        }
        let (dir, edge_counts, spill_retries) = router.finish()?;
        Ok(SliceSet {
            store,
            dir,
            edge_counts,
            spill_retries,
        })
    }

    /// Transient spill-write failures retried (and recovered from)
    /// while this slice set was built; bounded to one retry per chunk.
    pub fn spill_retries(&self) -> u64 {
        self.spill_retries
    }

    /// Number of non-null values (slices).
    pub fn value_count(&self) -> usize {
        self.edge_counts.len()
    }

    /// Edges carrying `value` on the key attribute.
    pub fn edge_count(&self, value: AttrValue) -> u64 {
        if value == NULL {
            return 0;
        }
        self.edge_counts[value as usize - 1]
    }

    fn slice_file(&self, value: AttrValue) -> PathBuf {
        ChunkRouter::file_at(&self.dir, "slice", value as usize - 1)
    }

    /// Load the slice for `value` as the key columns a mining unit
    /// reads, positions in spill order, through the store's one key
    /// loader. The slice must fit the u32 position space. `NULL` loads
    /// no edges.
    pub fn load_keys(&self, value: AttrValue) -> Result<KeyColumns> {
        injected_load_fault("slice.load", "injected fault at slice.load")?;
        let edges = self.edge_count(value);
        check_edge_capacity(edges as usize, CompactModel::MAX_EDGES)?;
        let file = (value != NULL).then(|| self.slice_file(value));
        self.store.gather_keys(file.as_deref(), edges)
    }
}

impl Drop for SliceSet<'_> {
    fn drop(&mut self) {
        for b in 0..self.edge_counts.len() {
            let _ = fs::remove_file(ChunkRouter::file_at(&self.dir, "slice", b));
        }
    }
}

/// Resident bytes of one mining unit over `edges` edges, shard or value
/// slice alike: its key columns (one value per position for each node
/// attribute on either side and each edge attribute) plus the position
/// buffer it mines. Both are allocated at exactly this size, so the pool
/// budgets and accounts what a unit holds.
pub fn resident_cost(schema: &Schema, edges: usize) -> u64 {
    let columns = 2 * schema.node_attr_count() + schema.edge_attr_count();
    let per_edge = columns * std::mem::size_of::<AttrValue>() + std::mem::size_of::<u32>();
    edges as u64 * per_edge as u64
}

/// Snapshot of a pool's ledger, feeding the miner's
/// `shard_loads` / `shard_evictions` / `shard_resident_bytes_peak`
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Shard loads from disk (cache misses).
    pub loads: u64,
    /// Budget-pressure evictions.
    pub evictions: u64,
    /// Bytes accounted resident now: resident shards plus reservations.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    pub resident_bytes_peak: u64,
}

struct Resident {
    keys: Arc<KeyColumns>,
    bytes: u64,
    pins: u32,
    last_used: u64,
}

/// The pool's one ledger, guarded by its mutex.
struct PoolState {
    resident: Vec<Option<Resident>>,
    tick: u64,
    reserved: u64,
    /// Accounted-byte budget: set at construction, and shrunk mid-mine
    /// only by the `pool.evict` failpoint under `fault-inject`.
    budget: u64,
    /// High-water mark of the accounted bytes, raised wherever a shard
    /// or a reservation is admitted.
    peak: u64,
    loads: u64,
    evictions: u64,
}

impl PoolState {
    /// Bytes accounted resident: resident shards plus reservations.
    fn accounted(&self) -> u64 {
        let mut sum = self.reserved;
        for r in self.resident.iter().flatten() {
            sum += r.bytes;
        }
        sum
    }

    /// Evict unpinned LRU residents until `need` more bytes of `unit`
    /// fit. `Ok(true)`: fits now. `Ok(false)`: blocked on pins — drop
    /// the lock and retry. `Err`: no schedule can ever fit `need`.
    fn make_room(&mut self, need: u64, unit: ResidentUnit) -> Result<bool> {
        if let Some(failpoint::FaultKind::ShrinkBudget(b)) = failpoint::hit("pool.evict") {
            self.budget = self.budget.min(b);
        }
        while self.accounted() + need > self.budget {
            let mut victim: Option<(usize, u64)> = None;
            for (i, slot) in self.resident.iter().enumerate() {
                if let Some(r) = slot {
                    if r.pins == 0 && victim.is_none_or(|(_, lu)| r.last_used < lu) {
                        victim = Some((i, r.last_used));
                    }
                }
            }
            match victim {
                Some((v, _)) => {
                    self.resident[v] = None;
                    self.evictions += 1;
                }
                None => {
                    // Everything resident is pinned (or reserved). If
                    // nothing is, no future release frees room: the
                    // budget is simply too small for `need`.
                    let held = self.reserved > 0 || self.resident.iter().any(|x| x.is_some());
                    if !held {
                        return Err(GraphError::MemoryBudgetTooSmall {
                            needed: need,
                            budget: self.budget,
                            unit,
                        });
                    }
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

/// The LRU shard-residency manager (module docs; protocol proved in
/// `grm_analyze::model::shard`).
pub struct ShardPool<'s> {
    store: &'s ShardStore,
    /// Observed in the blocked wait of [`Self::acquire`] and
    /// [`Self::reserve`], so a cancelled mine never spins forever
    /// waiting for pins that will not be released.
    cancel: CancelToken,
    state: Mutex<PoolState>,
}

impl std::fmt::Debug for ShardPool<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("ShardPool")
            .field("budget", &st.budget)
            .field("resident_bytes", &st.accounted())
            .finish()
    }
}

/// A pinned resident shard: its key columns stay loaded until the lease
/// drops.
pub struct ShardLease<'p, 's> {
    pool: &'p ShardPool<'s>,
    shard: usize,
    keys: Arc<KeyColumns>,
}

impl std::fmt::Debug for ShardLease<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardLease")
            .field("shard", &self.shard)
            .finish()
    }
}

impl ShardLease<'_, '_> {
    /// The resident shard's key columns, shared with whoever mines them.
    pub fn keys(&self) -> &Arc<KeyColumns> {
        &self.keys
    }

    /// Which shard is pinned.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

impl Drop for ShardLease<'_, '_> {
    fn drop(&mut self) {
        self.pool.release(self.shard);
    }
}

/// Budget headroom reserved for a transient resident (a value slice):
/// the bytes stay accounted until the reservation drops, in the same
/// ledger and under the same budget as pinned shards.
pub struct Reservation<'p, 's> {
    pool: &'p ShardPool<'s>,
    bytes: u64,
}

impl std::fmt::Debug for Reservation<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reservation")
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl Drop for Reservation<'_, '_> {
    fn drop(&mut self) {
        self.pool.unreserve(self.bytes);
    }
}

impl<'s> ShardPool<'s> {
    /// A pool over `store` with `budget` accounted bytes (`None` =
    /// unbounded). Fails eagerly — before any mining starts — when the
    /// budget cannot hold the store's largest shard, since no eviction
    /// schedule could ever make such a shard resident; the error
    /// reports the minimum viable budget.
    pub fn new(store: &'s ShardStore, budget: Option<u64>) -> Result<Self> {
        let budget = budget.unwrap_or(u64::MAX);
        let mut needed = 0u64;
        for s in 0..store.shard_count() {
            needed = needed.max(resident_cost(store.schema(), store.edge_count(s) as usize));
        }
        if budget < needed {
            return Err(GraphError::MemoryBudgetTooSmall {
                needed,
                budget,
                unit: ResidentUnit::Shard,
            });
        }
        let mut resident = Vec::with_capacity(store.shard_count());
        for _ in 0..store.shard_count() {
            resident.push(None);
        }
        Ok(ShardPool {
            store,
            cancel: CancelToken::default(),
            state: Mutex::new(PoolState {
                resident,
                tick: 0,
                reserved: 0,
                budget,
                peak: 0,
                loads: 0,
                evictions: 0,
            }),
        })
    }

    /// Observe `token` in the pool's blocked wait: once it trips,
    /// [`Self::acquire`] and [`Self::reserve`] return
    /// [`GraphError::Cancelled`] instead of waiting for room.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The effective byte budget.
    pub fn budget(&self) -> u64 {
        self.state.lock().budget
    }

    /// Resident bytes of shard `s` ([`resident_cost`]).
    pub fn shard_cost(&self, s: usize) -> u64 {
        resident_cost(self.store.schema(), self.store.edge_count(s) as usize)
    }

    /// The one blocked wait of [`Self::acquire`] and [`Self::reserve`].
    /// Each attempt checks the cancel token and takes the lock; `hit`
    /// may then answer without new bytes (a resident shard). Otherwise
    /// the attempt evicts to fit `need` more bytes of `unit`, and once
    /// they fit `admit` accounts them and the peak is raised, all under
    /// the one lock. While every evictable byte is pinned the lock is
    /// dropped for 1 ms between attempts.
    fn wait<T>(
        &self,
        need: u64,
        unit: ResidentUnit,
        mut hit: impl FnMut(&mut PoolState) -> Option<T>,
        mut admit: impl FnMut(&mut PoolState) -> Result<T>,
    ) -> Result<T> {
        loop {
            if self.cancel.is_cancelled() {
                return Err(GraphError::Cancelled);
            }
            {
                let mut st = self.state.lock();
                if let Some(out) = hit(&mut st) {
                    return Ok(out);
                }
                if st.make_room(need, unit)? {
                    let out = admit(&mut st)?;
                    st.peak = st.peak.max(st.accounted());
                    return Ok(out);
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Pin shard `s`, loading it (and evicting unpinned LRU residents)
    /// if absent. Blocks — releasing the lock between attempts — while
    /// every evictable byte is pinned; the model's blocked-wait self-loop
    /// proves this wait is not a deadlock.
    pub fn acquire(&self, s: usize) -> Result<ShardLease<'_, 's>> {
        let need = self.shard_cost(s);
        let hit = |st: &mut PoolState| {
            st.tick += 1;
            let tick = st.tick;
            let r = st.resident[s].as_mut()?;
            r.pins += 1;
            r.last_used = tick;
            Some(Arc::clone(&r.keys))
        };
        let keys = self.wait(need, ResidentUnit::Shard, hit, |st| {
            // Load inside the lock: the model's acquire is one atomic
            // step (grm_analyze::model::shard), and holding the mutex
            // through the load keeps the budget check and the insertion
            // indivisible — a concurrent acquirer can neither
            // double-load nor observe the budget mid-update.
            let keys = Arc::new(self.store.load_shard(s)?);
            st.loads += 1;
            st.resident[s] = Some(Resident {
                keys: Arc::clone(&keys),
                bytes: need,
                pins: 1,
                last_used: st.tick,
            });
            Ok(keys)
        })?;
        Ok(ShardLease {
            pool: self,
            shard: s,
            keys,
        })
    }

    fn release(&self, s: usize) {
        let mut st = self.state.lock();
        if let Some(r) = st.resident[s].as_mut() {
            r.pins = r.pins.saturating_sub(1);
        }
    }

    /// Reserve `bytes` of budget headroom for a transient resident,
    /// evicting unpinned shards to make room (the same blocked wait as
    /// [`Self::acquire`]).
    pub fn reserve(&self, bytes: u64) -> Result<Reservation<'_, 's>> {
        self.wait(
            bytes,
            ResidentUnit::Slice,
            |_| None,
            |st| {
                st.reserved += bytes;
                Ok(Reservation { pool: self, bytes })
            },
        )
    }

    fn unreserve(&self, bytes: u64) {
        let mut st = self.state.lock();
        st.reserved = st.reserved.saturating_sub(bytes);
    }

    /// Ledger snapshot.
    pub fn stats(&self) -> PoolStats {
        let st = self.state.lock();
        PoolStats {
            loads: st.loads,
            evictions: st.evictions,
            resident_bytes: st.accounted(),
            resident_bytes_peak: st.peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompactModel, GraphBuilder, SchemaBuilder};

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("grm_shard_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// 6 nodes over A (domain 4, dominant) and B (domain 2); 8 edges
    /// with one edge attribute.
    fn sample() -> SocialGraph {
        let schema = SchemaBuilder::new()
            .node_attr("A", 4, true)
            .node_attr("B", 2, false)
            .edge_attr("W", 2)
            .build()
            .unwrap();
        let mut b = GraphBuilder::new(schema);
        for row in [[1, 1], [2, 2], [3, 1], [4, 2], [0, 1], [2, 0]] {
            b.add_node(&row).unwrap();
        }
        for (s, d, w) in [
            (0u32, 1u32, 1u16),
            (1, 2, 2),
            (2, 3, 1),
            (3, 4, 2),
            (4, 5, 1),
            (5, 0, 2),
            (1, 0, 1),
            (2, 0, 2),
        ] {
            b.add_edge(s, d, &[w]).unwrap();
        }
        b.build().unwrap()
    }

    fn edge_set(g: &SocialGraph) -> Vec<(u32, u32, Vec<u16>)> {
        let mut v: Vec<_> = g
            .edge_ids()
            .map(|e| (g.src(e), g.dst(e), g.edge_row(e).to_vec()))
            .collect();
        v.sort();
        v
    }

    /// Shard `s`'s edges as [`ShardStore::for_each_edge`] streams them,
    /// sorted like [`edge_set`].
    fn shard_edges(store: &ShardStore, s: usize) -> Vec<(u32, u32, Vec<u16>)> {
        let mut v = Vec::new();
        store
            .for_each_edge(s, |src, dst, row| {
                v.push((src, dst, row.to_vec()));
                Ok(())
            })
            .unwrap();
        v.sort();
        v
    }

    #[test]
    fn spec_tiles_the_domain_and_routes_null_to_shard_zero() {
        let g = sample();
        let spec = ShardSpec::new(g.schema(), 3);
        assert_eq!(spec.attr(), NodeAttrId(0), "A has the widest domain");
        assert_eq!(spec.shard_count(), 3);
        // Every non-null value lands in exactly one shard; ranges tile.
        for v in 1..=4u16 {
            let s = spec.shard_of(v);
            let (lo, hi) = spec.range(s);
            assert!(lo <= v && v <= hi, "value {v} outside its shard range");
        }
        assert_eq!(spec.shard_of(NULL), 0);
        // More shards than values: trailing shards are empty, no panic.
        let wide = ShardSpec::new(g.schema(), 7);
        for v in 1..=4u16 {
            let (lo, hi) = wide.range(wide.shard_of(v));
            assert!(lo <= v && v <= hi);
        }
    }

    #[test]
    fn store_round_trips_the_edge_multiset() {
        let g = sample();
        for shards in [1usize, 2, 3, 7] {
            let dir = tdir(&format!("rt{shards}"));
            let store =
                ShardStore::build_from_graph(&g, &dir, shards, CompactModel::MAX_EDGES).unwrap();
            assert_eq!(store.total_edges(), g.edge_count() as u64);
            assert_eq!(store.node_count(), g.node_count());
            let counts: u64 = (0..store.shard_count()).map(|s| store.edge_count(s)).sum();
            assert_eq!(counts, g.edge_count() as u64);
            assert_eq!(store.schema(), g.schema());
            // The union of the shards' streamed edges is the original
            // edge multiset.
            let mut union = Vec::new();
            for s in 0..store.shard_count() {
                let edges = shard_edges(&store, s);
                // Every edge in shard s carries a source value in s's range.
                let (lo, hi) = store.spec().range(s);
                for (src, _, _) in &edges {
                    let v = store.node_row(*src)[store.spec().attr().index()];
                    assert!(v == NULL && s == 0 || (lo <= v && v <= hi));
                }
                union.extend(edges);
            }
            union.sort();
            assert_eq!(union, edge_set(&g));
            drop(store);
            assert!(
                fs::read_dir(&dir).unwrap().next().is_none(),
                "drop removes spill files"
            );
        }
    }

    #[test]
    fn per_shard_capacity_is_enforced_with_the_shards_remedy() {
        let g = sample();
        let dir = tdir("cap");
        // Cap below the biggest shard: finish() must fail and the
        // message must point at --shards.
        let err = ShardStore::build_from_graph(&g, &dir, 1, 4).unwrap_err();
        assert!(matches!(err, GraphError::TooManyEdges { .. }));
        assert!(err.to_string().contains("--shards"), "{err}");
        // Enough shards and the same cap passes: the check is per shard.
        let dir = tdir("cap_ok");
        let store = ShardStore::build_from_graph(&g, &dir, 4, 4).unwrap();
        for s in 0..store.shard_count() {
            assert!(store.edge_count(s) <= 4);
        }
    }

    /// One position's (source row, edge row, destination row).
    type KeyTuple = (Vec<u16>, Vec<u16>, Vec<u16>);

    /// The loaded columns as a sorted multiset of per-position tuples.
    fn key_tuples(keys: &KeyColumns, schema: &Schema) -> Vec<KeyTuple> {
        let mut v: Vec<KeyTuple> = (0..keys.edge_count() as u32)
            .map(|p| {
                (
                    schema.node_attr_ids().map(|a| keys.l_key(p, a)).collect(),
                    schema.edge_attr_ids().map(|a| keys.w_key(p, a)).collect(),
                    schema.node_attr_ids().map(|a| keys.r_key(p, a)).collect(),
                )
            })
            .collect();
        v.sort();
        v
    }

    /// Every slice key of `schema`: each node attribute on either side
    /// and each edge attribute.
    fn every_key(schema: &Schema) -> Vec<SliceKey> {
        let mut keys: Vec<SliceKey> = schema.node_attr_ids().map(SliceKey::Src).collect();
        keys.extend(schema.node_attr_ids().map(SliceKey::Dst));
        keys.extend(schema.edge_attr_ids().map(SliceKey::Edge));
        keys
    }

    fn key_of(g: &SocialGraph, e: u32, key: SliceKey) -> AttrValue {
        match key {
            SliceKey::Src(a) => g.src_attr(e, a),
            SliceKey::Dst(a) => g.dst_attr(e, a),
            SliceKey::Edge(a) => g.edge_attr(e, a),
        }
    }

    #[test]
    fn slices_partition_by_each_key_kind() {
        let g = sample();
        let dir = tdir("slices");
        let store = ShardStore::build_from_graph(&g, &dir, 2, CompactModel::MAX_EDGES).unwrap();
        for key in every_key(g.schema()) {
            let sdir = tdir("slices_inner");
            let set = SliceSet::build(&store, key, &sdir).unwrap();
            assert_eq!(set.value_count(), key.domain(g.schema()));
            let mut total = 0u64;
            for v in 1..=set.value_count() as u16 {
                let keys = set.load_keys(v).unwrap();
                assert_eq!(keys.edge_count() as u64, set.edge_count(v));
                total += set.edge_count(v);
                // The loaded columns are exactly the graph's edges with
                // this key value, as (source row, edge row, destination
                // row) tuples.
                let mut want: Vec<KeyTuple> = g
                    .edge_ids()
                    .filter(|&e| key_of(&g, e, key) == v)
                    .map(|e| {
                        (
                            g.node_row(g.src(e)).to_vec(),
                            g.edge_row(e).to_vec(),
                            g.node_row(g.dst(e)).to_vec(),
                        )
                    })
                    .collect();
                want.sort();
                assert_eq!(key_tuples(&keys, g.schema()), want, "{key:?} = {v}");
            }
            assert_eq!(set.load_keys(NULL).unwrap().edge_count(), 0, "{key:?}");
            // NULL-keyed edges are dropped, everything else lands once.
            let nulls = g.edge_ids().filter(|&e| key_of(&g, e, key) == NULL).count() as u64;
            assert_eq!(total + nulls, g.edge_count() as u64);
        }
    }

    #[test]
    fn pool_caches_pins_and_evicts_lru_within_budget() {
        let g = sample();
        let dir = tdir("pool");
        let store = ShardStore::build_from_graph(&g, &dir, 2, CompactModel::MAX_EDGES).unwrap();
        // Budget fits one shard at a time: the larger shard's cost.
        let one = largest_shard_cost(&store);
        let pool = ShardPool::new(&store, Some(one)).unwrap();
        {
            let a = pool.acquire(0).unwrap();
            assert!(a.keys().edge_count() > 0 || store.edge_count(0) == 0);
            // Re-acquire while pinned: cache hit, no second load.
            let b = pool.acquire(0).unwrap();
            assert_eq!(b.shard(), 0);
        }
        assert_eq!(pool.stats().loads, 1, "second acquire was a hit");
        // Acquiring the other shard evicts the now-unpinned shard 0.
        {
            let _b = pool.acquire(1).unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.loads, 2);
        assert!(stats.evictions >= 1, "budget forced an eviction");
        assert!(
            stats.resident_bytes_peak <= pool.budget(),
            "peak {} exceeds budget {}",
            stats.resident_bytes_peak,
            pool.budget()
        );
        assert_eq!(stats.resident_bytes, pool.shard_cost(1), "shard 1 resident");
    }

    /// The resident cost of `store`'s largest shard.
    fn largest_shard_cost(store: &ShardStore) -> u64 {
        (0..store.shard_count())
            .map(|s| resident_cost(store.schema(), store.edge_count(s) as usize))
            .max()
            .unwrap()
    }

    #[test]
    fn pool_rejects_an_impossible_budget_eagerly() {
        let g = sample();
        let dir = tdir("pool_tiny");
        let store = ShardStore::build_from_graph(&g, &dir, 2, CompactModel::MAX_EDGES).unwrap();
        // Construction fails before any acquire: the budget cannot
        // hold the largest shard and no eviction schedule ever will.
        let err = ShardPool::new(&store, Some(1)).unwrap_err();
        let max_shard = largest_shard_cost(&store);
        assert!(
            matches!(err, GraphError::MemoryBudgetTooSmall { needed, budget: 1, unit: ResidentUnit::Shard } if needed == max_shard),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("--memory-budget") && msg.contains("minimum viable"),
            "{msg}"
        );
        // A budget that holds every shard but not an oversized
        // transient reservation still fails deep, at the reservation.
        let pool = ShardPool::new(&store, Some(max_shard)).unwrap();
        let err = pool.reserve(max_shard + 1).unwrap_err();
        assert!(matches!(
            err,
            GraphError::MemoryBudgetTooSmall {
                unit: ResidentUnit::Slice,
                ..
            }
        ));
        assert!(!err.to_string().contains("--shards"), "{err}");
    }

    #[test]
    fn blocked_pool_waits_observe_cancellation() {
        let g = sample();
        let dir = tdir("pool_cancel");
        let store = ShardStore::build_from_graph(&g, &dir, 2, CompactModel::MAX_EDGES).unwrap();
        let one = largest_shard_cost(&store);
        let token = CancelToken::new();
        let pool = ShardPool::new(&store, Some(one))
            .unwrap()
            .with_cancel(token.clone());
        let _pinned = pool.acquire(0).unwrap();
        token.cancel();
        // Shard 1 cannot fit while shard 0 stays pinned; instead of
        // spinning forever the blocked wait returns the typed error.
        assert!(matches!(
            pool.acquire(1).unwrap_err(),
            GraphError::Cancelled
        ));
        assert!(matches!(
            pool.reserve(one).unwrap_err(),
            GraphError::Cancelled
        ));
    }

    #[test]
    fn finish_renames_temps_and_sweeps_stale_ones() {
        let g = sample();
        let dir = tdir("tmp_rename");
        // A stale temp from a crashed earlier run is swept on create.
        fs::write(dir.join("shard-0.edges.tmp"), b"junk").unwrap();
        let store = ShardStore::build_from_graph(&g, &dir, 2, CompactModel::MAX_EDGES).unwrap();
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            names.iter().all(|n| !n.ends_with(".tmp")),
            "no temps survive finish: {names:?}"
        );
        assert_eq!(names.len(), 2, "one spill file per shard: {names:?}");
        assert_eq!(store.spill_retries(), 0);
    }

    #[test]
    fn corrupted_spill_files_surface_typed_errors_on_load() {
        let g = sample();
        let dir = tdir("corrupt");
        let store = ShardStore::build_from_graph(&g, &dir, 1, CompactModel::MAX_EDGES).unwrap();
        let path = dir.join("shard-0.edges");
        let pristine = fs::read(&path).unwrap();
        // Flip one payload byte (header is 12 bytes, chunk length
        // prefix 4 — byte 20 is inside the columns): checksum
        // mismatch.
        let mut bytes = pristine.clone();
        bytes[20] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = store.load_shard(0).unwrap_err();
        assert!(
            matches!(
                err,
                GraphError::ShardIo(ShardIoError::ChecksumMismatch { .. })
            ),
            "{err}"
        );
        // Truncate mid-structure: short read.
        let mut bytes = pristine.clone();
        bytes.truncate(bytes.len() - 3);
        fs::write(&path, &bytes).unwrap();
        let err = store.load_shard(0).unwrap_err();
        assert!(
            matches!(err, GraphError::ShardIo(ShardIoError::ShortRead { .. })),
            "{err}"
        );
        // Destroy the header: bad magic.
        fs::write(&path, b"NOTSPILLxxxx").unwrap();
        let err = store.load_shard(0).unwrap_err();
        assert!(
            matches!(err, GraphError::ShardIo(ShardIoError::BadMagic)),
            "{err}"
        );
        // Restore and the load works again — the store itself is fine.
        fs::write(&path, &pristine).unwrap();
        assert_eq!(
            store.load_shard(0).unwrap().edge_count(),
            g.edge_count(),
            "the restored shard loads"
        );
        assert_eq!(shard_edges(&store, 0), edge_set(&g));

        // A file cut at a chunk boundary, or with a valid chunk appended
        // again, decodes cleanly chunk by chunk: only the recorded edge
        // count tells. 5 000 edges without edge attributes spill as a
        // 12-byte header, a 4 096-edge chunk (32 780 bytes) and a
        // 904-edge one, in the shard file and in the slice file of the
        // value every source carries alike.
        let dir = tdir("corrupt_count");
        let schema = SchemaBuilder::new()
            .node_attr("A", 2, true)
            .node_attr("B", 3, false)
            .build()
            .unwrap();
        let mut w = ShardStoreWriter::create(schema, &dir, 1, CompactModel::MAX_EDGES).unwrap();
        for n in 0..100u16 {
            w.add_node(&[1, 1 + n % 3]).unwrap();
        }
        for e in 0..5_000u32 {
            w.add_edge(e % 100, (e * 7 + 1) % 100, &[]).unwrap();
        }
        let store = w.finish().unwrap();
        let sdir = tdir("corrupt_count_slices");
        let set = SliceSet::build(&store, SliceKey::Src(NodeAttrId(0)), &sdir).unwrap();
        let files = [dir.join("shard-0.edges"), sdir.join("slice-0.edges")];
        let pristine: Vec<Vec<u8>> = files.iter().map(|f| fs::read(f).unwrap()).collect();
        assert!(pristine.iter().all(|b| b.len() == 40_036));
        let short = |err: Option<GraphError>| {
            let err = err.expect("a miscounted spill file must not load");
            assert!(
                matches!(err, GraphError::ShardIo(ShardIoError::ShortRead { .. })),
                "{err}"
            );
        };
        let cut = |b: &[u8]| b[..32_792].to_vec();
        let again = |b: &[u8]| [b, &b[12..32_792]].concat();
        for corrupt in [cut, again] {
            for (file, bytes) in files.iter().zip(&pristine) {
                fs::write(file, corrupt(bytes)).unwrap();
            }
            short(store.load_shard(0).err());
            short(
                SliceSet::build(
                    &store,
                    SliceKey::Src(NodeAttrId(1)),
                    tdir("corrupt_count_b"),
                )
                .err(),
            );
            short(set.load_keys(1).err());
        }
        for (file, bytes) in files.iter().zip(&pristine) {
            fs::write(file, bytes).unwrap();
        }
        assert_eq!(store.load_shard(0).unwrap().edge_count(), 5_000);
        assert_eq!(set.load_keys(1).unwrap().edge_count(), 5_000);
    }

    #[test]
    fn shard_load_equals_the_source_rows_of_its_streamed_edges() {
        let g = sample();
        for shards in [1, 2, 3] {
            let dir = tdir(&format!("shard_keys{shards}"));
            let store =
                ShardStore::build_from_graph(&g, &dir, shards, CompactModel::MAX_EDGES).unwrap();
            for s in 0..shards {
                let keys = store.load_shard(s).unwrap();
                assert_eq!(keys.edge_count() as u64, store.edge_count(s));
                // The columns are exactly the shard's streamed edges, as
                // (source row, edge row, destination row) tuples read
                // from the source graph.
                let mut want: Vec<KeyTuple> = shard_edges(&store, s)
                    .into_iter()
                    .map(|(src, dst, row)| {
                        (g.node_row(src).to_vec(), row, g.node_row(dst).to_vec())
                    })
                    .collect();
                want.sort();
                assert_eq!(key_tuples(&keys, g.schema()), want, "shard {s} of {shards}");
            }
        }
    }

    #[test]
    fn shard_key_load_rejects_corruption_and_capacity() {
        let g = sample();
        let dir = tdir("shard_keys_corrupt");
        let mut store = ShardStore::build_from_graph(&g, &dir, 1, CompactModel::MAX_EDGES).unwrap();
        let path = dir.join("shard-0.edges");
        let pristine = fs::read(&path).unwrap();
        // A flipped payload byte is a checksum mismatch…
        let mut bytes = pristine.clone();
        bytes[20] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = store.load_shard(0).unwrap_err();
        assert!(
            matches!(
                err,
                GraphError::ShardIo(ShardIoError::ChecksumMismatch { .. })
            ),
            "{err}"
        );
        // …truncation is a short read…
        let mut bytes = pristine.clone();
        bytes.truncate(bytes.len() - 3);
        fs::write(&path, &bytes).unwrap();
        let err = store.load_shard(0).unwrap_err();
        assert!(
            matches!(err, GraphError::ShardIo(ShardIoError::ShortRead { .. })),
            "{err}"
        );
        fs::write(&path, &pristine).unwrap();
        assert_eq!(store.load_shard(0).unwrap().edge_count(), g.edge_count());
        // …and a shard over the store's per-shard cap is rejected before
        // any byte is read.
        store.max_edges_per_shard = g.edge_count() - 1;
        let err = store.load_shard(0).unwrap_err();
        assert!(
            matches!(err, GraphError::TooManyEdges { edges, max } if edges == g.edge_count() && max == edges - 1),
            "{err}"
        );
    }

    /// Replace the spill file at `path` with a well-formed one (valid
    /// header and checksum) holding the single edge `src -> dst`, `w`.
    fn write_one_edge(path: &Path, src: NodeId, dst: NodeId, w: AttrValue) {
        let mut bytes = Vec::new();
        crate::io::write_spill_header(&mut bytes).unwrap();
        bytes.extend(crate::io::encode_edge_chunk(&[src], &[dst], &[vec![w]]));
        fs::write(path, bytes).unwrap();
    }

    #[test]
    fn out_of_range_spill_values_are_typed_errors_at_every_reader() {
        let g = sample();
        let nodes = g.node_count();
        // (src, dst, w): checksums hold, values do not.
        for (src, dst, w) in [(3_000_000, 0, 1), (0, 3_000_000, 1), (0, 1, 9)] {
            let expect = |err: GraphError| match err {
                GraphError::DanglingEndpoint { node, nodes: n } => {
                    assert_eq!((node, n), (3_000_000, nodes));
                }
                GraphError::ValueOutOfDomain { value, domain, .. } => {
                    assert_eq!((value, domain, w), (9, 2, 9));
                }
                other => panic!("({src}, {dst}, {w}): {other:?}"),
            };
            let dir = tdir("bad_values");
            let store = ShardStore::build_from_graph(&g, &dir, 1, CompactModel::MAX_EDGES).unwrap();
            // The key loader, over a slice file of a set built clean.
            let sdir = tdir("bad_values_slices");
            let set = SliceSet::build(&store, SliceKey::Edge(EdgeAttrId(0)), &sdir).unwrap();
            write_one_edge(&sdir.join("slice-0.edges"), src, dst, w);
            expect(set.load_keys(1).unwrap_err());
            // The shard load and the slice-set build, over a shard file.
            write_one_edge(&dir.join("shard-0.edges"), src, dst, w);
            expect(store.load_shard(0).unwrap_err());
            for key in every_key(g.schema()) {
                let err = SliceSet::build(&store, key, tdir("bad_values_rebuild")).err();
                expect(err.expect("a bad chunk fails the build"));
            }
        }
    }

    #[test]
    fn reservations_share_the_budget_with_shards() {
        let g = sample();
        let dir = tdir("pool_reserve");
        let store = ShardStore::build_from_graph(&g, &dir, 2, CompactModel::MAX_EDGES).unwrap();
        // Budget fits one shard at a time: the larger shard's cost.
        let one = largest_shard_cost(&store);
        let pool = ShardPool::new(&store, Some(one)).unwrap();
        {
            let _l = pool.acquire(0).unwrap();
        }
        // A reservation evicts the unpinned shard to make room.
        let r = pool.reserve(one).unwrap();
        assert_eq!(pool.stats().resident_bytes, one);
        assert!(pool.stats().evictions >= 1);
        drop(r);
        assert_eq!(pool.stats().resident_bytes, 0);
        assert!(pool.stats().resident_bytes_peak <= pool.budget());
    }

    #[test]
    fn pool_ledger_holds_under_concurrent_leases_and_reservations() {
        let g = sample();
        let dir = tdir("pool_threads");
        let store = ShardStore::build_from_graph(&g, &dir, 4, CompactModel::MAX_EDGES).unwrap();
        let costs: Vec<u64> = (0..4)
            .map(|s| resident_cost(store.schema(), store.edge_count(s) as usize))
            .collect();
        let mut largest = costs.clone();
        largest.sort_unstable_by(|a, b| b.cmp(a));
        // Room for the two largest shards: four workers must evict and
        // wait for each other's pins.
        let budget = largest[0] + largest[1];
        let pool = ShardPool::new(&store, Some(budget)).unwrap();
        let check = |st: PoolStats| {
            assert!(st.resident_bytes <= budget, "{st:?} over {budget}");
            assert!(st.resident_bytes_peak <= budget, "{st:?} over {budget}");
        };
        // All four start together, so their first loads already contend.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (pool, costs, store, start) = (&pool, &costs, &store, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut state = 0x9E37_79B9_7F4A_7C15 ^ (t + 1);
                    for _ in 0..100 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let s = (state % 4) as usize;
                        // One handle at a time, held across a snapshot
                        // and a yield so the others contend for it.
                        if state & 4 == 0 {
                            let lease = pool.acquire(s).unwrap();
                            assert_eq!(lease.keys().edge_count() as u64, store.edge_count(s));
                            check(pool.stats());
                        } else {
                            let _hold = pool.reserve(costs[s]).unwrap();
                            check(pool.stats());
                        }
                        std::thread::yield_now();
                    }
                });
            }
        });
        // Every handle has dropped: the ledger holds resident shards
        // only, `loads − evictions` distinct ones.
        let st = pool.stats();
        check(st);
        assert!(st.evictions > 0, "the budget forced evictions: {st:?}");
        let resident = st.loads - st.evictions;
        let matches = (0u32..16).any(|set| {
            let cost: u64 = (0..4)
                .filter(|s| set & (1 << s) != 0)
                .map(|s| costs[s])
                .sum();
            u64::from(set.count_ones()) == resident && cost == st.resident_bytes
        });
        assert!(matches, "{st:?} is no set of {resident} shards: {costs:?}");
    }

    #[test]
    fn streaming_writer_matches_build_from_graph() {
        let g = sample();
        let d1 = tdir("stream_a");
        let d2 = tdir("stream_b");
        let built = ShardStore::build_from_graph(&g, &d1, 3, CompactModel::MAX_EDGES).unwrap();
        let mut w =
            ShardStoreWriter::create(g.schema().clone(), &d2, 3, CompactModel::MAX_EDGES).unwrap();
        for n in g.node_ids() {
            w.add_node(g.node_row(n)).unwrap();
        }
        for e in g.edge_ids() {
            w.add_edge(g.src(e), g.dst(e), g.edge_row(e)).unwrap();
        }
        let streamed = w.finish().unwrap();
        for s in 0..3 {
            assert_eq!(streamed.edge_count(s), built.edge_count(s));
            assert_eq!(shard_edges(&streamed, s), shard_edges(&built, s));
        }
    }

    #[test]
    fn writer_validates_rows_and_endpoints() {
        let g = sample();
        let dir = tdir("validate");
        let mut w =
            ShardStoreWriter::create(g.schema().clone(), &dir, 2, CompactModel::MAX_EDGES).unwrap();
        assert!(w.add_node(&[9, 1]).is_err(), "out of domain");
        w.add_node(&[1, 1]).unwrap();
        assert!(w.add_edge(0, 5, &[1]).is_err(), "dangling endpoint");
        assert!(w.add_edge(0, 0, &[7]).is_err(), "edge value out of domain");
        assert!(w.add_edge(0, 0, &[1]).is_ok(), "self-loops accepted");
    }
}
