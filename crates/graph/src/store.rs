//! Pluggable graph storage backends.
//!
//! [`Graph`] began life as a plain in-RAM CSR. To serve corpora larger
//! than memory, the graph can instead be backed by an out-of-core store
//! (the `banks-pager` crate's segment-paged CSR) that decodes adjacency
//! on demand. This module defines the seam between the two worlds: the
//! [`GraphStore`] trait is everything a backend must answer for the
//! search kernel to run unchanged, [`Adjacency`] is the one view of a
//! node's adjacency list both backends hand out, and [`StorageStats`]
//! is the paging telemetry a backend exposes to `/stats`.
//!
//! # The adjacency view
//!
//! An [`Adjacency`] is a node's neighbour ids plus, per position, the
//! edge weight and (forward lists only) the precomputed log-mode edge
//! score `log2(1 + w/w_min)`. The in-RAM CSR serves it from per-edge
//! `f64` lanes. A paged [`Segment`] keeps one small weight *code* per
//! edge and a per-segment dictionary of distinct weights with one log
//! score per entry, so the resident page is a fraction of the `f64`
//! lanes' size. [`Adjacency::for_each`] matches the representation once
//! and then runs a loop specialised to it, so the relaxation loop of the
//! search kernel pays no branch per *edge*.
//!
//! # Reading a view
//!
//! A view is lent to a closure, never returned:
//! [`Graph::with_out_adjacency`] calls `f` with the view and returns
//! when `f` does. A paged graph maps the node to its segment
//! (`node / seg_span`), takes the segment's `Arc` from the store
//! ([`GraphStore::segment`], one page-cache lookup) and holds it for
//! exactly that call, with no cache lock, so `f` may read other nodes,
//! and the cache may evict the segment meanwhile, without invalidating
//! the view. The borrow checker proves the rest: a view cannot escape
//! the closure. Code that must hold a list past the call copies it, as
//! the owned [`Graph::out_edges`] iterator does on a paged graph.
//!
//! A search reads through a [`GraphReader`] bound to its arena's page
//! table instead ([`SearchArena::with_reader`]): the first read of a
//! segment looks it up, and the table holds its `Arc` until the query
//! ends, so every later read of that segment is a slot load — no lock,
//! no hash, no atomic read-modify-write and no virtual call.
//!
//! [`Graph`]: crate::Graph
//! [`Graph::with_out_adjacency`]: crate::Graph::with_out_adjacency
//! [`Graph::out_edges`]: crate::Graph::out_edges
//! [`GraphReader`]: crate::GraphReader
//! [`SearchArena::with_reader`]: crate::SearchArena::with_reader

use crate::graph::Graph;
use crate::patch::GraphPatch;
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

/// Where an [`Adjacency`] reads its weights and edge scores from.
#[derive(Clone, Copy)]
enum Lane<'a> {
    /// One weight and one edge score per edge (the in-RAM CSR).
    Plain {
        weights: &'a [f64],
        escores: &'a [f64],
    },
    /// One dictionary code per edge; weights and edge scores are
    /// dictionary entries (a paged segment).
    Coded {
        codes: Codes<'a>,
        dict: &'a [f64],
        escores: &'a [f64],
    },
}

/// One node's adjacency list: neighbour ids sorted ascending without
/// duplicates, a weight for each position, and — on forward lists — the
/// log-mode edge score for each position. See the [module docs](self)
/// for the representations behind it and how a view is lent out.
#[derive(Clone, Copy)]
pub struct Adjacency<'a> {
    ids: &'a [u32],
    lane: Lane<'a>,
}

/// Call `f` on each `(id, weight)` pair: the one loop every
/// representation is specialised into.
#[inline(always)]
fn zip_each(ids: &[u32], weights: impl Iterator<Item = f64>, f: &mut impl FnMut(u32, f64)) {
    for (&id, w) in ids.iter().zip(weights) {
        f(id, w);
    }
}

impl<'a> Adjacency<'a> {
    /// A view over per-edge lanes: `weights[i]` and `escores[i]` belong
    /// to `ids[i]`. `escores` is empty for reverse lists, which are
    /// never scored.
    pub fn plain(ids: &'a [u32], weights: &'a [f64], escores: &'a [f64]) -> Adjacency<'a> {
        debug_assert_eq!(ids.len(), weights.len());
        debug_assert!(escores.is_empty() || escores.len() == ids.len());
        Adjacency {
            ids,
            lane: Lane::Plain { weights, escores },
        }
    }

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
            lane: Lane::Coded {
                codes,
                dict,
                escores,
            },
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

    /// Weight of the edge at position `i`.
    #[inline]
    pub fn weight(&self, i: usize) -> f64 {
        match self.lane {
            Lane::Plain { weights, .. } => weights[i],
            Lane::Coded { codes, dict, .. } => dict[codes.get(i)],
        }
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
        match self.lane {
            Lane::Plain { escores, .. } => escores[i],
            Lane::Coded { codes, escores, .. } => escores[codes.get(i)],
        }
    }

    /// Call `f(id, weight)` for every edge, in id order. The
    /// representation is matched once; each arm is its own loop.
    #[inline]
    pub fn for_each(self, mut f: impl FnMut(u32, f64)) {
        let ids = self.ids;
        match self.lane {
            Lane::Plain { weights, .. } => zip_each(ids, weights.iter().copied(), &mut f),
            Lane::Coded { codes, dict, .. } => match codes {
                Codes::U8(c) => zip_each(ids, c.iter().map(|&c| dict[usize::from(c)]), &mut f),
                Codes::U16(c) => zip_each(ids, c.iter().map(|&c| dict[usize::from(c)]), &mut f),
                Codes::U32(c) => zip_each(ids, c.iter().map(|&c| dict[c as usize]), &mut f),
            },
        }
    }

    /// The edges as `(id, weight)` pairs, for callers off the hot path
    /// (this iterator matches the representation per edge; the kernel
    /// uses [`Adjacency::for_each`]).
    pub fn iter(self) -> impl Iterator<Item = (u32, f64)> + 'a {
        (0..self.len()).map(move |i| (self.ids[i], self.weight(i)))
    }
}

/// Two views are equal when they list the same ids with equal weights,
/// whatever their representations.
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
/// (`w_min` infinite). Both backends evaluate this one expression, the
/// in-RAM CSR per edge and a paged segment per dictionary entry, so
/// their scores are bit-identical.
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
    fn new(offsets: Vec<u32>) -> Offsets {
        match offsets.last() {
            Some(&total) if total <= u32::from(u16::MAX) => {
                Offsets::U16(offsets.iter().map(|&o| o as u16).collect())
            }
            _ => Offsets::U32(offsets.into_boxed_slice()),
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
    fn new(codes: Vec<u32>, dict_len: usize) -> CodeLane {
        if dict_len <= 1 << 8 {
            CodeLane::U8(codes.iter().map(|&c| c as u8).collect())
        } else if dict_len <= 1 << 16 {
            CodeLane::U16(codes.iter().map(|&c| c as u16).collect())
        } else {
            CodeLane::U32(codes.into_boxed_slice())
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

/// A resident segment of a paged store: the adjacency lists of the
/// nodes `[first_node, first_node + span)` in one direction, weights
/// dictionary-coded. Per edge it keeps a `u32` id and one code in the
/// narrowest width the dictionary allows (`u8` up to 256 entries, then
/// `u16`, then `u32`); per node a local offset (`u16` while the segment
/// has at most 65 535 edges); plus the dictionary and, for forward
/// segments, one log score per entry. Both the store's cache and a
/// query's page table hold it by `Arc`, and it lends
/// [`Adjacency::coded`] views.
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
    /// A segment from decoded lanes: node `first_node + i` owns the
    /// edges `offsets[i]..offsets[i + 1]` of `ids` and `codes`, and
    /// `codes[e]` indexes `dict` (and `escores`, when not empty). The
    /// offset and code lanes are narrowed here.
    pub fn new(
        first_node: u32,
        offsets: Vec<u32>,
        ids: Vec<u32>,
        codes: Vec<u32>,
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
/// scorer, and the ingest pipeline need to answer about a CSR graph,
/// with the freedom to keep the underlying data out of core.
///
/// Two implementations exist: the built-in in-RAM CSR (the `InRam`
/// variant inside [`Graph`], which does not go through this trait on
/// its hot path) and `banks_pager::PagedGraphStore` (segment-paged,
/// budget-bounded). Node arguments are raw dense indexes (`NodeId.0`);
/// passing an out-of-range node may panic, as with the in-RAM arrays.
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

    /// Current in-memory footprint in bytes (resident pages plus
    /// directories/bookkeeping), i.e. what this backend actually costs
    /// in RAM right now — not the full decoded size of the graph.
    fn memory_bytes(&self) -> usize;

    /// Paging telemetry snapshot.
    fn storage_stats(&self) -> StorageStats;

    /// Copy-on-write fast path for ingest: produce a new [`Graph`]
    /// equal to this store patched by `patch`, sharing unchanged
    /// segments with `self`. Returns `None` when the backend cannot
    /// apply this patch structurally (e.g. the patch renumbers nodes),
    /// in which case the caller falls back to an in-RAM merge followed
    /// by [`reencode`](GraphStore::reencode).
    ///
    /// `patch` is pre-normalized by the caller: replacements sorted by
    /// `(from, to)` and deduplicated keeping the minimum weight.
    fn apply_patch(&self, patch: &GraphPatch) -> Option<Graph> {
        let _ = patch;
        None
    }

    /// Re-encode an in-RAM `graph` into a fresh store of this backend's
    /// kind, so a fallback in-RAM patch application can return to paged
    /// form. Returns `None` if the backend does not support re-encoding
    /// (the caller then publishes the in-RAM graph as-is).
    fn reencode(&self, graph: &Graph) -> Option<Arc<dyn GraphStore>> {
        let _ = graph;
        None
    }
}
