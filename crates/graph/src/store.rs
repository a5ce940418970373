//! Pluggable graph storage backends.
//!
//! [`Graph`] began life as a plain in-RAM CSR. To serve corpora larger
//! than memory, the graph can instead be backed by an out-of-core store
//! (the `banks-pager` crate's segment-paged CSR) that decodes adjacency
//! on demand. This module defines the seam between the two worlds: the
//! [`GraphStore`] trait is everything a backend must answer for the
//! search kernel to run unchanged, and [`StorageStats`] is the paging
//! telemetry a backend exposes to `/stats`.
//!
//! The trait deliberately mirrors the slice-returning accessors of the
//! in-RAM CSR (`out_adjacency` and friends) rather than an iterator
//! protocol: the `DijkstraState` relaxation loop is written against raw
//! `(&[u32], &[f64])` slices and must not grow an allocation or a
//! virtual call per *edge* — one virtual call per *node expansion* is
//! the entire dispatch cost of a paged backend.
//!
//! # Slice lifetime contract
//!
//! A paged backend cannot hand out slices borrowed from a cache entry
//! that a later access might evict. Backends therefore guarantee, and
//! callers rely on, the following contract for every slice-returning
//! method ([`GraphStore::out_adjacency`], [`GraphStore::in_adjacency`],
//! [`GraphStore::out_escores`]):
//!
//! > The returned slices stay valid until the same thread performs
//! > **63 further** adjacency accesses on *any* paged store, or the
//! > store is dropped, whichever comes first.
//!
//! (The pager implements this with a per-thread keep-alive ring of the
//! last 64 *distinct* decoded segments — consecutive accesses to one
//! segment do not advance it, which only lengthens the guarantee; the
//! in-RAM backend trivially satisfies it
//! since its arrays live as long as the graph.) The contract is exactly
//! what the search kernel needs: the relaxation loop consumes each
//! adjacency slice before requesting the next node's, and path
//! reconstruction looks up one hop's weight in the parent's adjacency
//! and drops the slice before the next hop. Code that must hold many
//! adjacency lists at once (e.g. graph analysis sweeps) should copy the
//! slices or use the owned [`Graph::out_edges`] iterator.
//!
//! [`Graph`]: crate::Graph
//! [`Graph::out_edges`]: crate::Graph::out_edges

use crate::graph::Graph;
use crate::patch::GraphPatch;
use std::sync::Arc;

/// Paging telemetry for a [`GraphStore`] backend, surfaced through the
/// server's `/stats` endpoint as the `storage` object.
///
/// All byte figures count *decoded* (resident) data, not on-disk
/// compressed bytes; `resident_bytes` is what the `--memory-budget`
/// bound constrains.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StorageStats {
    /// Bytes of decoded segment data currently held in memory.
    pub resident_bytes: usize,
    /// The configured memory budget the cache evicts against, in bytes
    /// (shared with the snapshot's tuple blocks).
    pub budget_bytes: usize,
    /// Total segments in the store (forward + backward directions).
    pub segment_count: usize,
    /// Segments currently decoded and resident.
    pub resident_segments: usize,
    /// Cumulative count of segment decodes (cold page-ins; a re-decode
    /// after eviction counts again).
    pub page_ins: u64,
    /// Cumulative count of segments evicted from the cache.
    pub evictions: u64,
    /// Cumulative wall-clock time spent decoding segments, in
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
/// See the [module docs](self) for the slice lifetime contract that
/// all slice-returning methods share.
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

    /// Forward adjacency of `node` as `(targets, weights)`, targets
    /// sorted ascending without duplicates — the shape
    /// `Graph::out_adjacency` promises the kernel.
    fn out_adjacency(&self, node: u32) -> (&[u32], &[f64]);

    /// Reverse adjacency of `node` as `(sources, weights)`, sources
    /// sorted ascending without duplicates.
    fn in_adjacency(&self, node: u32) -> (&[u32], &[f64]);

    /// Precomputed log-mode edge scores parallel to the forward
    /// adjacency of `node` — bit-identical to recomputing
    /// `log2(1 + w/w_min)` from this store's weights and
    /// [`min_edge_weight`](GraphStore::min_edge_weight).
    fn out_escores(&self, node: u32) -> &[f64];

    /// Current in-memory footprint in bytes (resident decoded data plus
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
