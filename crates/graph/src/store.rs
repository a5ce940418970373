//! Graph storage: the coded segment, the view it lends, and the stores
//! that hold segments.
//!
//! A [`Graph`] is its nodes' adjacency lists in both directions, cut
//! into [`Segment`]s of `seg_span` consecutive nodes. The
//! [`GraphStore`] trait is everything a backend must answer for the
//! search kernel to run unchanged: [`ResidentStore`] holds every segment
//! for the graph's life (the in-RAM graph), and the `banks-pager`
//! crate's segment-paged store decodes segments on demand under a memory
//! budget. [`Adjacency`] is the one view of a node's list both hand out,
//! and [`StorageStats`] is the paging telemetry a paged backend exposes
//! to `/stats`.
//!
//! # The adjacency view
//!
//! An [`Adjacency`] is a node's neighbour ids plus, per position, a
//! small weight *code* into its segment's dictionary of distinct
//! weights; forward segments also keep one log-mode edge score
//! `log2(1 + w/w_min)` per dictionary entry. That is about 6 bytes per
//! edge where per-edge `f64` weight and score lanes took 12–20.
//! [`Adjacency::for_each`] matches the code width once and then runs a
//! loop specialised to it, so the relaxation loop of the search kernel
//! pays no branch per *edge*.
//!
//! # Reading a view
//!
//! A view is lent to a closure, never returned:
//! [`Graph::with_out_adjacency`] calls `f` with the view and returns
//! when `f` does. The graph maps the node to its segment
//! (`node / seg_span`), takes the segment's `Arc` from the store
//! ([`GraphStore::segment`], one page-cache lookup when paged) and holds
//! it for exactly that call, with no cache lock, so `f` may read other
//! nodes, and a paged cache may evict the segment meanwhile, without
//! invalidating the view. The borrow checker proves the rest: a view
//! cannot escape the closure. Code that must hold a list past the call
//! copies it, as the owned [`Graph::out_edges`] iterator does.
//!
//! A search reads through a [`GraphReader`] bound to its arena's page
//! table instead ([`SearchArena::with_reader`]): the first read of a
//! segment takes it from the store, and the table holds its `Arc` until
//! the query ends, so every later read of that segment is a slot load —
//! no lock, no hash, no atomic read-modify-write and no virtual call.
//! Resident and paged graphs share this one read path.
//!
//! [`Graph`]: crate::Graph
//! [`Graph::with_out_adjacency`]: crate::Graph::with_out_adjacency
//! [`Graph::out_edges`]: crate::Graph::out_edges
//! [`GraphReader`]: crate::GraphReader
//! [`SearchArena::with_reader`]: crate::SearchArena::with_reader

use crate::graph::Graph;
use crate::patch::GraphPatch;
use banks_util::fxhash::FxFoldHashMap;
use std::fmt;
use std::mem::size_of;
use std::sync::Arc;

/// Per-edge indexes into a segment's weight dictionary, in the
/// narrowest width the dictionary's size allows.
#[derive(Debug, Clone, Copy)]
pub enum Codes<'a> {
    /// Dictionaries of at most 256 entries.
    U8(&'a [u8]),
    /// Dictionaries of at most 65 536 entries.
    U16(&'a [u16]),
    /// Larger dictionaries.
    U32(&'a [u32]),
}

impl Codes<'_> {
    fn len(&self) -> usize {
        match self {
            Codes::U8(c) => c.len(),
            Codes::U16(c) => c.len(),
            Codes::U32(c) => c.len(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> usize {
        match self {
            Codes::U8(c) => usize::from(c[i]),
            Codes::U16(c) => usize::from(c[i]),
            Codes::U32(c) => c[i] as usize,
        }
    }
}

/// One node's adjacency list: neighbour ids sorted ascending without
/// duplicates, one weight-dictionary code per position, the segment's
/// dictionary and — on forward lists — one log-mode edge score per
/// dictionary entry. See the [module docs](self) for how a view is lent
/// out.
#[derive(Clone, Copy)]
pub struct Adjacency<'a> {
    ids: &'a [u32],
    codes: Codes<'a>,
    dict: &'a [f64],
    escores: &'a [f64],
}

/// Call `f` on each `(id, weight)` pair: the one loop every code width
/// is specialised into.
#[inline(always)]
fn zip_each(ids: &[u32], weights: impl Iterator<Item = f64>, f: &mut impl FnMut(u32, f64)) {
    for (&id, w) in ids.iter().zip(weights) {
        f(id, w);
    }
}

impl<'a> Adjacency<'a> {
    /// A view over dictionary codes: position `i` weighs
    /// `dict[codes[i]]` and scores `escores[codes[i]]`. `escores` holds
    /// one score per dictionary entry, or nothing for reverse lists.
    /// Every code must index `dict`.
    pub fn coded(
        ids: &'a [u32],
        codes: Codes<'a>,
        dict: &'a [f64],
        escores: &'a [f64],
    ) -> Adjacency<'a> {
        debug_assert_eq!(ids.len(), codes.len());
        debug_assert!(escores.is_empty() || escores.len() == dict.len());
        Adjacency {
            ids,
            codes,
            dict,
            escores,
        }
    }

    /// The neighbour ids, ascending.
    #[inline]
    pub fn ids(&self) -> &'a [u32] {
        self.ids
    }

    /// Number of edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the node has no edges in this direction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dictionary code of the edge at position `i`.
    #[inline]
    pub fn code(&self, i: usize) -> usize {
        self.codes.get(i)
    }

    /// Weight of the edge at position `i`.
    #[inline]
    pub fn weight(&self, i: usize) -> f64 {
        self.dict[self.codes.get(i)]
    }

    /// Log-mode edge score of the edge at position `i`, bit-identical to
    /// `log2(1 + w/w_min)` of its weight (0 when the graph has no
    /// positive weight).
    ///
    /// # Panics
    ///
    /// On a reverse list, which carries no scores.
    #[inline]
    pub fn escore(&self, i: usize) -> f64 {
        self.escores[self.codes.get(i)]
    }

    /// Call `f(id, weight)` for every edge, in id order. The code width
    /// is matched once; each arm is its own loop.
    #[inline]
    pub fn for_each(self, mut f: impl FnMut(u32, f64)) {
        let (ids, dict) = (self.ids, self.dict);
        match self.codes {
            Codes::U8(c) => zip_each(ids, c.iter().map(|&c| dict[usize::from(c)]), &mut f),
            Codes::U16(c) => zip_each(ids, c.iter().map(|&c| dict[usize::from(c)]), &mut f),
            Codes::U32(c) => zip_each(ids, c.iter().map(|&c| dict[c as usize]), &mut f),
        }
    }

    /// The edges as `(id, weight)` pairs, for callers off the hot path
    /// (this iterator matches the code width per edge; the kernel uses
    /// [`Adjacency::for_each`]).
    pub fn iter(self) -> impl Iterator<Item = (u32, f64)> + 'a {
        (0..self.len()).map(move |i| (self.ids[i], self.weight(i)))
    }
}

/// Two views are equal when they list the same ids with equal weights,
/// whatever their dictionaries.
impl PartialEq for Adjacency<'_> {
    fn eq(&self, other: &Adjacency<'_>) -> bool {
        self.ids == other.ids && self.iter().zip(other.iter()).all(|(a, b)| a.1 == b.1)
    }
}

impl fmt::Debug for Adjacency<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The log-mode edge score of weight `w` under the normalizer `w_min`:
/// `log2(1 + w/w_min)`, or 0 when the graph has no positive weight
/// (`w_min` infinite). Every segment scores its dictionary entries with
/// this one expression, whether it was built in RAM or decoded from a
/// paged blob, so both score every edge bit-identically.
#[inline]
pub fn edge_log_score(w: f64, w_min: f64) -> f64 {
    if !w_min.is_finite() || w_min <= 0.0 {
        return 0.0;
    }
    (1.0 + w / w_min).log2()
}

/// Local edge offsets of a segment's nodes, `span + 1` entries.
#[derive(Debug)]
enum Offsets {
    U16(Box<[u16]>),
    U32(Box<[u32]>),
}

impl Offsets {
    fn new(offsets: &[u32]) -> Offsets {
        match offsets.last() {
            Some(&total) if total <= u32::from(u16::MAX) => {
                Offsets::U16(offsets.iter().map(|&o| o as u16).collect())
            }
            _ => Offsets::U32(offsets.into()),
        }
    }

    /// The edge range of local node `local`.
    #[inline]
    fn range(&self, local: usize) -> (usize, usize) {
        match self {
            Offsets::U16(o) => (usize::from(o[local]), usize::from(o[local + 1])),
            Offsets::U32(o) => (o[local] as usize, o[local + 1] as usize),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Offsets::U16(o) => o.len() * size_of::<u16>(),
            Offsets::U32(o) => o.len() * size_of::<u32>(),
        }
    }
}

/// One dictionary code per edge.
#[derive(Debug)]
enum CodeLane {
    U8(Box<[u8]>),
    U16(Box<[u16]>),
    U32(Box<[u32]>),
}

impl CodeLane {
    /// Narrow `codes` (each `< dict_len`) to the width `dict_len` needs.
    fn new(codes: &[u32], dict_len: usize) -> CodeLane {
        if dict_len <= 1 << 8 {
            CodeLane::U8(codes.iter().map(|&c| c as u8).collect())
        } else if dict_len <= 1 << 16 {
            CodeLane::U16(codes.iter().map(|&c| c as u16).collect())
        } else {
            CodeLane::U32(codes.into())
        }
    }

    #[inline]
    fn slice(&self, lo: usize, hi: usize) -> Codes<'_> {
        match self {
            CodeLane::U8(c) => Codes::U8(&c[lo..hi]),
            CodeLane::U16(c) => Codes::U16(&c[lo..hi]),
            CodeLane::U32(c) => Codes::U32(&c[lo..hi]),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            CodeLane::U8(c) => c.len(),
            CodeLane::U16(c) => c.len() * size_of::<u16>(),
            CodeLane::U32(c) => c.len() * size_of::<u32>(),
        }
    }
}

/// A resident segment: the adjacency lists of the nodes
/// `[first_node, first_node + span)` in one direction, weights
/// dictionary-coded. Per edge it keeps a `u32` id and one code in the
/// narrowest width the dictionary allows (`u8` up to 256 entries, then
/// `u16`, then `u32`); per node a local offset (`u16` while the segment
/// has at most 65 535 edges); plus the dictionary and, for forward
/// segments, one log score per entry. Its store (a [`ResidentStore`]
/// or a paged store's cache) and a query's page table hold it by `Arc`,
/// and it lends [`Adjacency::coded`] views.
#[derive(Debug)]
pub struct Segment {
    first_node: u32,
    offsets: Offsets,
    /// Neighbor ids (targets for forward segments, sources for reverse).
    ids: Box<[u32]>,
    codes: CodeLane,
    /// Distinct weights.
    dict: Box<[f64]>,
    /// Log-mode edge score of each dictionary entry; empty for reverse
    /// segments (only the forward direction is scored).
    escores: Box<[f64]>,
}

impl Segment {
    /// A segment from its lanes: node `first_node + i` owns the edges
    /// `offsets[i]..offsets[i + 1]` of `ids` and `codes`, and `codes[e]`
    /// indexes `dict` (and `escores`, when not empty). The offset and
    /// code lanes are narrowed into copies here.
    pub fn new(
        first_node: u32,
        offsets: &[u32],
        ids: Vec<u32>,
        codes: &[u32],
        dict: Box<[f64]>,
        escores: Box<[f64]>,
    ) -> Segment {
        debug_assert_eq!(offsets.last().map_or(0, |&o| o as usize), ids.len());
        debug_assert_eq!(ids.len(), codes.len());
        debug_assert!(escores.is_empty() || escores.len() == dict.len());
        Segment {
            first_node,
            offsets: Offsets::new(offsets),
            ids: ids.into_boxed_slice(),
            codes: CodeLane::new(codes, dict.len()),
            dict,
            escores,
        }
    }

    /// Number of edges.
    pub fn edges(&self) -> usize {
        self.ids.len()
    }

    /// The distinct weights, in the order the codes index them.
    pub fn dict(&self) -> &[f64] {
        &self.dict
    }

    /// Resident heap footprint in bytes: every lane above (what a
    /// store's memory budget counts).
    pub fn bytes(&self) -> usize {
        self.offsets.bytes()
            + self.ids.len() * size_of::<u32>()
            + self.codes.bytes()
            + (self.dict.len() + self.escores.len()) * size_of::<f64>()
    }

    /// Adjacency of `node`, which must be in this segment's range.
    #[inline]
    pub fn adjacency(&self, node: u32) -> Adjacency<'_> {
        let (lo, hi) = self.offsets.range((node - self.first_node) as usize);
        Adjacency::coded(
            &self.ids[lo..hi],
            self.codes.slice(lo, hi),
            &self.dict,
            &self.escores,
        )
    }
}

/// Paging telemetry for a [`GraphStore`] backend, surfaced through the
/// server's `/stats` endpoint as the `storage` object.
///
/// Byte figures count *resident* segments — ids, weight codes, the
/// weight dictionary and its edge scores — not on-disk compressed
/// bytes; `resident_bytes` is what the `--memory-budget` bound
/// constrains. A segment that a running read still holds after the
/// cache evicted it is not counted: it is freed when that read returns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StorageStats {
    /// Bytes of resident segment data currently held in memory.
    pub resident_bytes: usize,
    /// The configured memory budget the cache evicts against, in bytes
    /// (shared with the snapshot's tuple blocks).
    pub budget_bytes: usize,
    /// Total segments in the store (forward + backward directions).
    pub segment_count: usize,
    /// Segments currently resident.
    pub resident_segments: usize,
    /// Cumulative count of segment lookups in the page cache, hits and
    /// misses: one per segment a search reads (on its first read, see
    /// [`SearchArena::with_reader`](crate::SearchArena::with_reader)),
    /// one per read outside a search.
    pub lookups: u64,
    /// Cumulative count of segment decodes (cold page-ins; a re-decode
    /// after eviction counts again).
    pub page_ins: u64,
    /// Cumulative count of segments evicted from the cache.
    pub evictions: u64,
    /// Cumulative wall-clock time spent paging segments in — the read,
    /// the checksum and the decode into the resident form — in
    /// nanoseconds.
    pub decode_nanos: u64,
}

/// A storage backend for [`Graph`]: everything the search kernel, the
/// scorer, and the ingest pipeline need to answer about the data graph,
/// with the freedom to keep its segments out of core.
///
/// Two implementations exist: [`ResidentStore`] (every segment held for
/// the graph's life: the in-RAM graph) and `banks_pager::PagedGraphStore`
/// (segment-paged, budget-bounded). Node arguments are raw dense indexes
/// (`NodeId.0`); passing an out-of-range node may panic.
///
/// See the [module docs](self) for how an adjacency view is lent out.
pub trait GraphStore: Send + Sync + std::fmt::Debug {
    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Number of directed edges.
    fn edge_count(&self) -> usize;

    /// Prestige weight of `node` (§2.2 node weight).
    fn node_weight(&self, node: u32) -> f64;

    /// Smallest strictly-positive edge weight (the paper's `w_min`
    /// normalizer); infinity for an edgeless graph.
    fn min_edge_weight(&self) -> f64;

    /// Largest node weight (`w_max`); zero for an empty graph.
    fn max_node_weight(&self) -> f64;

    /// Nodes per segment: the lists of node `v` live in segment
    /// `v / seg_span()` of each direction.
    fn seg_span(&self) -> u32;

    /// The resident segment `seg` of the forward (`forward`) or reverse
    /// lists, paged in if it is not cached: one page-cache lookup.
    /// Forward views carry targets, weights, and log-mode edge scores
    /// bit-identical to recomputing `log2(1 + w/w_min)` from this
    /// store's weights and [`min_edge_weight`](GraphStore::min_edge_weight);
    /// reverse views carry sources and weights (no scores). The caller's
    /// `Arc` keeps the segment alive whatever the cache evicts.
    fn segment(&self, forward: bool, seg: u32) -> Arc<Segment>;

    /// Current in-memory footprint in bytes (resident segments plus
    /// node weights and directories), i.e. what this backend actually
    /// costs in RAM right now.
    fn memory_bytes(&self) -> usize;

    /// Paging telemetry snapshot; `None` for a store that pages nothing.
    fn storage_stats(&self) -> Option<StorageStats>;

    /// Copy-on-write fast path for ingest: produce a new [`Graph`]
    /// equal to this store patched by `patch`, sharing unchanged
    /// segments with `self`. Returns `None` when the backend cannot
    /// apply this patch structurally (e.g. the patch renumbers nodes)
    /// or has no such path, in which case the caller falls back to an
    /// in-RAM merge followed by [`reencode`](GraphStore::reencode).
    ///
    /// `patch` is pre-normalized by the caller: replacements sorted by
    /// `(from, to)` and deduplicated keeping the minimum weight.
    fn apply_patch(&self, patch: &GraphPatch) -> Option<Graph> {
        let _ = patch;
        None
    }

    /// Re-encode an in-RAM `graph` into a fresh store of this backend's
    /// kind, so a fallback in-RAM patch application can return to paged
    /// form. Returns `None` when the in-RAM graph is already this
    /// backend's kind (the caller then publishes it as-is).
    fn reencode(&self, graph: &Graph) -> Option<Arc<dyn GraphStore>> {
        let _ = graph;
        None
    }
}

/// Nodes per segment of a graph built in RAM and of the paged blob a
/// bundle stores: with DBLP-shaped degrees (~3 edges per node) a
/// segment holds ~4.4 KB resident, and a backward expansion that
/// touches a few nodes of a paged segment decodes a few kilobytes for
/// them (2048-node segments spent most of a page-in on neighbours
/// nobody asked for). Readers take the span from the store, so blobs
/// written at another span stay readable.
pub const DEFAULT_SEG_SPAN: u32 = 256;

/// The graph held in RAM: every forward and reverse [`Segment`] for the
/// graph's life, plus the node-weight lane. It is what
/// [`GraphBuilder::build`](crate::GraphBuilder::build),
/// [`GraphPatch::apply`]'s in-RAM merge and a non-paged bundle load
/// produce. A read takes the segment's `Arc` like a paged read does, so
/// a search reads both stores through one path; nothing is ever paged,
/// and [`GraphStore::storage_stats`] is `None`.
#[derive(Debug)]
pub struct ResidentStore {
    node_weights: Box<[f64]>,
    span: u32,
    edge_count: usize,
    /// Forward segments, then reverse.
    segments: Box<[Arc<Segment>]>,
    min_edge_weight: f64,
    max_node_weight: f64,
}

impl ResidentStore {
    /// Hold `forward` and `reverse`, the segments of `node_weights.len()`
    /// nodes at `span` nodes per segment in each direction. The forward
    /// segments' scores must be [`edge_log_score`] of their entries under
    /// the smallest positive forward weight.
    pub fn new(
        node_weights: Vec<f64>,
        span: u32,
        forward: Vec<Arc<Segment>>,
        reverse: Vec<Arc<Segment>>,
    ) -> ResidentStore {
        let nodes = u32::try_from(node_weights.len()).expect("more than u32::MAX nodes");
        assert!(span > 0, "segment span must be positive");
        let segs = nodes.div_ceil(span) as usize;
        assert!(
            forward.len() == segs && reverse.len() == segs,
            "one segment per span"
        );
        let edge_count = forward.iter().map(|s| s.edges()).sum();
        debug_assert_eq!(edge_count, reverse.iter().map(|s| s.edges()).sum::<usize>());
        let min_edge_weight = forward
            .iter()
            .flat_map(|s| s.dict.iter().copied())
            .filter(|&w| w > 0.0)
            .fold(f64::INFINITY, f64::min);
        let max_node_weight = node_weights.iter().copied().fold(0.0f64, f64::max);
        ResidentStore {
            node_weights: node_weights.into_boxed_slice(),
            span,
            edge_count,
            segments: forward.into_iter().chain(reverse).collect(),
            min_edge_weight,
            max_node_weight,
        }
    }

    /// Build the segments of both directions straight from `edges`,
    /// which are sorted by `(from, to)` without duplicate pairs.
    pub(crate) fn from_sorted_edges(
        node_weights: Vec<f64>,
        edges: &[(u32, u32, f64)],
        span: u32,
    ) -> ResidentStore {
        let n = u32::try_from(node_weights.len()).expect("more than u32::MAX nodes");
        debug_assert!(
            edges
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "edges must be sorted by (from, to) and duplicate-free"
        );
        debug_assert!(edges.iter().all(|&(f, t, _)| f < n && t < n));
        let w_min = edges
            .iter()
            .map(|e| e.2)
            .filter(|&w| w > 0.0)
            .fold(f64::INFINITY, f64::min);
        let segs = n.div_ceil(span);
        let mut builder = SegmentBuilder::default();

        // Forward lists are runs of the (from, to) order.
        let mut forward = Vec::with_capacity(segs as usize);
        let mut next = 0;
        for seg in 0..segs {
            let first = seg * span;
            for node in first..(first + span).min(n) {
                while let Some(&(_, to, w)) = edges.get(next).filter(|e| e.0 == node) {
                    builder.edge(to, w);
                    next += 1;
                }
                builder.end_list();
            }
            forward.push(Arc::new(builder.finish(first, Some(w_min))));
        }

        // Reverse lists: a stable counting sort of edge indexes by
        // target keeps each list sorted by source.
        let mut starts = vec![0u32; n as usize + 1];
        for &(_, to, _) in edges {
            starts[to as usize + 1] += 1;
        }
        for i in 0..n as usize {
            starts[i + 1] += starts[i];
        }
        let mut order = vec![0u32; edges.len()];
        let mut cursor = starts.clone();
        for (e, &(_, to, _)) in edges.iter().enumerate() {
            order[cursor[to as usize] as usize] = e as u32;
            cursor[to as usize] += 1;
        }
        let mut reverse = Vec::with_capacity(segs as usize);
        for seg in 0..segs {
            let first = seg * span;
            for node in first..(first + span).min(n) {
                let (lo, hi) = (starts[node as usize], starts[node as usize + 1]);
                for &e in &order[lo as usize..hi as usize] {
                    let (from, _, w) = edges[e as usize];
                    builder.edge(from, w);
                }
                builder.end_list();
            }
            reverse.push(Arc::new(builder.finish(first, None)));
        }
        ResidentStore::new(node_weights, span, forward, reverse)
    }
}

impl GraphStore for ResidentStore {
    fn node_count(&self) -> usize {
        self.node_weights.len()
    }

    fn edge_count(&self) -> usize {
        self.edge_count
    }

    #[inline]
    fn node_weight(&self, node: u32) -> f64 {
        self.node_weights[node as usize]
    }

    fn min_edge_weight(&self) -> f64 {
        self.min_edge_weight
    }

    fn max_node_weight(&self) -> f64 {
        self.max_node_weight
    }

    fn seg_span(&self) -> u32 {
        self.span
    }

    #[inline]
    fn segment(&self, forward: bool, seg: u32) -> Arc<Segment> {
        let segs = self.segments.len() / 2;
        assert!((seg as usize) < segs, "segment out of range");
        let slot = if forward {
            seg as usize
        } else {
            segs + seg as usize
        };
        Arc::clone(&self.segments[slot])
    }

    fn memory_bytes(&self) -> usize {
        self.node_weights.len() * size_of::<f64>()
            + self
                .segments
                .iter()
                .map(|s| size_of::<Arc<Segment>>() + s.bytes())
                .sum::<usize>()
    }

    fn storage_stats(&self) -> Option<StorageStats> {
        None
    }
}

/// Collects one segment's lists edge by edge into a [`Segment`],
/// dictionary-coding the weights in first-seen order — the order the
/// paged blob stores a dictionary in. Its buffers are reused from
/// segment to segment.
#[derive(Default)]
pub struct SegmentBuilder {
    offsets: Vec<u32>,
    ids: Vec<u32>,
    codes: Vec<u32>,
    dict: Vec<f64>,
    /// The dictionary's index, keyed by weight bits (whose low bits are
    /// all zero for the small integers most weights are; plain Fx would
    /// put every key in one bucket).
    index: FxFoldHashMap<u64, u32>,
}

impl SegmentBuilder {
    /// Append an edge to the current node's list; ids ascend within a
    /// list.
    #[inline]
    pub fn edge(&mut self, id: u32, w: f64) {
        let dict = &mut self.dict;
        let code = *self.index.entry(w.to_bits()).or_insert_with(|| {
            dict.push(w);
            (dict.len() - 1) as u32
        });
        self.ids.push(id);
        self.codes.push(code);
    }

    /// Close the current node's list.
    pub fn end_list(&mut self) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.offsets.push(self.ids.len() as u32);
    }

    /// The segment of the lists closed so far, which start at node
    /// `first`; a forward segment is scored under the graph's `w_min`.
    /// The builder is left empty.
    pub fn finish(&mut self, first: u32, w_min: Option<f64>) -> Segment {
        let escores = match w_min {
            Some(w_min) => self
                .dict
                .iter()
                .map(|&w| edge_log_score(w, w_min))
                .collect(),
            None => Box::default(),
        };
        let segment = Segment::new(
            first,
            &self.offsets,
            self.ids.drain(..).collect(),
            &self.codes,
            std::mem::take(&mut self.dict).into_boxed_slice(),
            escores,
        );
        self.offsets.clear();
        self.codes.clear();
        self.index.clear();
        segment
    }
}
