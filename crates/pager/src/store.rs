//! [`PagedGraphStore`]: the out-of-core [`GraphStore`] backend.
//!
//! The store keeps only the blob *directory* (32 bytes per segment) and
//! the node-weight lane (8 bytes per node) in memory. Adjacency
//! requests page the owning segment in on first touch — one positioned
//! read, a checksum, and a varint decode — into the snapshot's
//! [`PageCache`], which holds decoded segments and tuple blocks under
//! one hard memory budget (see [`crate::budget`]).
//!
//! # Why the adjacency slices are sound
//!
//! [`GraphStore`] methods hand out `&[u32]`/`&[f64]` borrowed, morally,
//! from a cache entry that eviction could free. The store prevents that
//! with a per-thread **keep-alive ring**: every adjacency access parks
//! an `Arc` of the decoded segment in a 64-slot thread-local ring
//! before returning, unless that segment is the one parked last. The
//! ring therefore holds the 64 most recent *distinct* segments, and a
//! segment's arrays outlive the returned slices for at least the next
//! 63 adjacency accesses on that thread (longer when consecutive
//! accesses share a segment, which never advances the ring) regardless
//! of what the shared cache does. This is the bounded lifetime contract
//! documented in `banks_graph::store`; the `unsafe` below is exactly
//! the lifetime extension that contract licenses.
//!
//! The ring is outside the budget: in the worst case each thread holds
//! 64 evicted segments alive, ~12 KB each at the default span (~100 KB
//! each at the 2048-node span older blobs were written with).

use crate::blob::{
    encode_paged_blob, read_layout, seg_count_for, seg_edges, seg_range, segment_checksum,
    ByteSource, DEFAULT_SEG_SPAN,
};
use crate::budget::{Page, PageCache};
use crate::codec::{decode_segment, encode_segment, DecodedSegment};
use crate::error::PagerError;
use banks_graph::store::{GraphStore, StorageStats};
use banks_graph::{FxHashSet, Graph, GraphPatch};
use std::cell::RefCell;
use std::fs::File;
use std::sync::Arc;

/// Slots in the per-thread keep-alive ring; a returned adjacency slice
/// stays valid for at least `RING_SLOTS − 1` further accesses on its
/// thread.
const RING_SLOTS: usize = 64;

thread_local! {
    static KEEPALIVE: RefCell<(usize, Vec<Option<Arc<DecodedSegment>>>)> =
        RefCell::new((0, vec![None; RING_SLOTS]));
}

/// Park `seg` in this thread's keep-alive ring, unless it is the
/// segment parked last (consecutive pops mostly share a segment).
fn keep_alive(seg: &Arc<DecodedSegment>) {
    KEEPALIVE.with(|cell| {
        let (next, ring) = &mut *cell.borrow_mut();
        let last = &ring[(*next + RING_SLOTS - 1) % RING_SLOTS];
        if last.as_ref().is_some_and(|parked| Arc::ptr_eq(parked, seg)) {
            return;
        }
        ring[*next] = Some(Arc::clone(seg));
        *next = (*next + 1) % RING_SLOTS;
    });
}

/// Extend a slice's lifetime to the caller's choosing.
///
/// # Safety
///
/// The slice's backing storage must be kept alive by an external
/// mechanism for as long as the caller is permitted (by the documented
/// contract) to use it — here, the keep-alive ring.
unsafe fn extend_slice<'a, T>(s: &[T]) -> &'a [T] {
    std::slice::from_raw_parts(s.as_ptr(), s.len())
}

/// Where one segment's encoded bytes live, plus its directory row.
#[derive(Debug, Clone)]
struct SegMeta {
    src: ByteSource,
    offset: u64,
    len: u32,
    slot_start: u32,
    min_pos_weight: f64,
    checksum: u64,
}

/// A segment-paged, budget-bounded graph store over a paged blob (see
/// [`crate::blob`] for the on-disk layout).
#[derive(Debug)]
pub struct PagedGraphStore {
    node_count: u32,
    edge_count: u32,
    seg_span: u32,
    seg_count: u32,
    node_weights: Box<[f64]>,
    min_edge_weight: f64,
    max_node_weight: f64,
    /// Forward then reverse metadata, `seg_count` entries each.
    metas: Vec<SegMeta>,
    /// Shared with the paged tuple store of the same snapshot, so
    /// `--memory-budget` bounds graph segments + tuple blocks together.
    /// Pages are keyed `dir * seg_count + seg` under `cache_id`.
    cache: Arc<PageCache>,
    cache_id: u32,
}

impl PagedGraphStore {
    /// Open a paged blob living at `[base, base + len)` of `file`,
    /// keeping decoded segments in `cache`.
    ///
    /// Reads and verifies the header, node-weight lane, and segment
    /// directories (rejecting torn or corrupt directories with a typed
    /// error); segment payloads stay on disk until first touch.
    pub fn open_file(
        file: Arc<File>,
        base: u64,
        len: u64,
        cache: Arc<PageCache>,
    ) -> Result<Arc<PagedGraphStore>, PagerError> {
        PagedGraphStore::open_source(ByteSource::File { file, base, len }, cache)
    }

    /// Open an in-memory paged blob (used for re-encoded epochs and
    /// tests; the *encoded* bytes stay resident, decoded segments are
    /// still paged and budgeted).
    pub fn open_mem(
        bytes: Arc<[u8]>,
        cache: Arc<PageCache>,
    ) -> Result<Arc<PagedGraphStore>, PagerError> {
        PagedGraphStore::open_source(ByteSource::Mem(bytes), cache)
    }

    /// Open a blob from any [`ByteSource`].
    pub fn open_source(
        src: ByteSource,
        cache: Arc<PageCache>,
    ) -> Result<Arc<PagedGraphStore>, PagerError> {
        let layout = read_layout(&src)?;
        let seg_count = seg_count_for(layout.node_count, layout.seg_span);
        let mut metas = Vec::with_capacity(seg_count as usize * 2);
        for e in layout.fwd.iter().chain(&layout.rev) {
            metas.push(SegMeta {
                src: src.clone(),
                offset: e.offset,
                len: e.len,
                slot_start: e.slot_start,
                min_pos_weight: e.min_pos_weight,
                checksum: e.checksum,
            });
        }
        let min_edge_weight = layout
            .fwd
            .iter()
            .map(|e| e.min_pos_weight)
            .fold(f64::INFINITY, f64::min);
        let max_node_weight = layout.node_weights.iter().copied().fold(0.0f64, f64::max);
        Ok(Arc::new(PagedGraphStore::assemble(
            layout.node_count,
            layout.edge_count as u32,
            layout.seg_span,
            layout.node_weights.into_boxed_slice(),
            min_edge_weight,
            max_node_weight,
            metas,
            cache,
        )))
    }

    /// Shared constructor: registers the store with `cache`.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        node_count: u32,
        edge_count: u32,
        seg_span: u32,
        node_weights: Box<[f64]>,
        min_edge_weight: f64,
        max_node_weight: f64,
        metas: Vec<SegMeta>,
        cache: Arc<PageCache>,
    ) -> PagedGraphStore {
        let seg_count = seg_count_for(node_count, seg_span);
        debug_assert_eq!(metas.len(), seg_count as usize * 2);
        PagedGraphStore {
            node_count,
            edge_count,
            seg_span,
            seg_count,
            node_weights,
            min_edge_weight,
            max_node_weight,
            metas,
            cache_id: cache.register(),
            cache,
        }
    }

    /// The segment span this store was encoded with.
    pub fn seg_span(&self) -> u32 {
        self.seg_span
    }

    /// Fully decode the blob behind `src` into an in-RAM [`Graph`] —
    /// the non-paged bundle load path. Only forward segments are
    /// decoded; the reverse CSR (and the escore lane) are re-derived by
    /// [`Graph::from_csr`].
    pub fn decode_full(src: &ByteSource) -> Result<Graph, PagerError> {
        let layout = read_layout(src)?;
        let n = layout.node_count;
        let m = layout.edge_count as usize;
        let mut fwd_offsets = Vec::with_capacity(n as usize + 1);
        fwd_offsets.push(0u32);
        let mut fwd_targets: Vec<u32> = Vec::with_capacity(m);
        let mut fwd_weights: Vec<f64> = Vec::with_capacity(m);
        for (i, entry) in layout.fwd.iter().enumerate() {
            let (first, end) = seg_range(i as u32, layout.seg_span, n);
            let edges = seg_edges(&layout.fwd, i, layout.edge_count);
            let mut payload = vec![0u8; entry.len as usize];
            src.read_at(entry.offset, &mut payload)?;
            if segment_checksum(&payload) != entry.checksum {
                return Err(PagerError::BadSegmentChecksum {
                    direction: "fwd",
                    segment: i as u32,
                });
            }
            let seg = decode_segment(
                &payload,
                end - first,
                edges,
                first,
                entry.slot_start,
                n,
                f64::NAN,
                false,
            )?;
            for node in first..end {
                let (_, ids, weights) = seg.adjacency(node);
                fwd_targets.extend_from_slice(ids);
                fwd_weights.extend_from_slice(weights);
                fwd_offsets.push(fwd_targets.len() as u32);
            }
        }
        if fwd_targets.len() != m {
            return Err(PagerError::Malformed(
                "segments disagree with edge count".to_string(),
            ));
        }
        Ok(Graph::from_csr(
            layout.node_weights,
            fwd_offsets,
            fwd_targets,
            fwd_weights,
        ))
    }

    /// Fetch (paging in if needed) the decoded segment `seg` of
    /// direction `dir` (0 = forward, 1 = reverse).
    ///
    /// # Panics
    ///
    /// On I/O failure or a payload checksum/structure failure — the
    /// adjacency accessors have no error channel. Directory-level
    /// corruption is caught (typed) at open instead.
    fn segment(&self, dir: u32, seg: u32) -> Arc<DecodedSegment> {
        let key = dir * self.seg_count + seg;
        let page = self
            .cache
            .get_or_load(self.cache_id, u64::from(key), || {
                self.load_segment(dir, seg)
                    .map(|s| Page::Segment(Arc::new(s)))
            })
            .unwrap_or_else(|e| {
                let direction = if dir == 0 { "fwd" } else { "rev" };
                panic!("paged graph {direction} segment {seg}: {e}")
            });
        match page {
            Page::Segment(seg) => seg,
            Page::Block(_) => unreachable!("cache ids are unique per store"),
        }
    }

    /// Read, verify and decode one segment from its byte source.
    fn load_segment(&self, dir: u32, seg: u32) -> Result<DecodedSegment, PagerError> {
        let meta = &self.metas[(dir * self.seg_count + seg) as usize];
        banks_util::fault::maybe_fault("pager.page_in")?;
        let mut payload = vec![0u8; meta.len as usize];
        meta.src.read_at(meta.offset, &mut payload)?;
        if segment_checksum(&payload) != meta.checksum {
            return Err(PagerError::BadSegmentChecksum {
                direction: if dir == 0 { "fwd" } else { "rev" },
                segment: seg,
            });
        }
        let (first, end) = seg_range(seg, self.seg_span, self.node_count);
        decode_segment(
            &payload,
            end - first,
            self.seg_edge_count(dir, seg),
            first,
            meta.slot_start,
            self.node_count,
            self.min_edge_weight,
            dir == 0,
        )
    }

    /// Edge count of segment `seg` in direction `dir` per the directory.
    fn seg_edge_count(&self, dir: u32, seg: u32) -> u32 {
        let base = (dir * self.seg_count) as usize;
        let entries = &self.metas[base..base + self.seg_count as usize];
        let next = entries
            .get(seg as usize + 1)
            .map(|m| m.slot_start)
            .unwrap_or(self.edge_count);
        next - entries[seg as usize].slot_start
    }

    /// Adjacency of `node` in direction `dir`, with the keep-alive
    /// lifetime extension the module docs describe.
    fn adjacency(&self, dir: u32, node: u32) -> (u32, &[u32], &[f64]) {
        assert!(node < self.node_count, "node out of range");
        let seg = self.segment(dir, node / self.seg_span);
        keep_alive(&seg);
        let (slot, ids, weights) = seg.adjacency(node);
        // SAFETY: `seg` was just parked in this thread's keep-alive
        // ring, so its arrays outlive the returned slices for the next
        // RING_SLOTS − 1 adjacency accesses on this thread — the
        // documented contract of `banks_graph::store`.
        unsafe { (slot, extend_slice(ids), extend_slice(weights)) }
    }

    /// Owning segment index (within a direction's directory) of a
    /// global CSR slot.
    fn seg_of_slot(&self, dir: u32, slot: u32) -> u32 {
        let base = (dir * self.seg_count) as usize;
        let entries = &self.metas[base..base + self.seg_count as usize];
        (entries.partition_point(|m| m.slot_start <= slot) - 1) as u32
    }

    /// Copy-on-write patch application: see [`GraphStore::apply_patch`].
    fn apply_patch_cow(&self, patch: &GraphPatch) -> Option<Graph> {
        if !patch.remap_is_identity_extend() {
            return None;
        }
        let old_n = self.node_count;
        let new_n = u32::try_from(patch.new_node_weights().len()).ok()?;
        debug_assert!(new_n >= old_n);
        let span = self.seg_span;
        let new_seg_count = seg_count_for(new_n, span);

        // Segments whose payload must be re-encoded: those owning a
        // dirty pair's endpoint, plus every segment whose node range
        // includes appended nodes (their spans grew).
        let mut fwd_dirty: FxHashSet<u32> = FxHashSet::default();
        let mut rev_dirty: FxHashSet<u32> = FxHashSet::default();
        for (f, t) in patch.dirty() {
            debug_assert!(f < new_n && t < new_n);
            fwd_dirty.insert(f / span);
            rev_dirty.insert(t / span);
        }
        if new_n > old_n {
            for s in (old_n / span)..new_seg_count {
                fwd_dirty.insert(s);
                rev_dirty.insert(s);
            }
        }

        // Replacements re-sorted by (to, from) for reverse-direction
        // merging; `patch.apply` normalized the (from, to) order.
        let repl = patch.replacements();
        let mut rev_repl: Vec<(u32, u32, f64)> = repl.iter().map(|&(f, t, w)| (t, f, w)).collect();
        rev_repl.sort_unstable_by_key(|a| (a.0, a.1));

        let mut metas = Vec::with_capacity(new_seg_count as usize * 2);
        let mut totals = [0u64; 2];
        for dir in 0..2u32 {
            let dirty = if dir == 0 { &fwd_dirty } else { &rev_dirty };
            let mut slot_start = 0u64;
            for s in 0..new_seg_count {
                if !dirty.contains(&s) {
                    // Clean segment: share the encoded bytes; only its
                    // slot_start can shift.
                    let old = &self.metas[(dir * self.seg_count + s) as usize];
                    let edges = self.seg_edge_count(dir, s);
                    metas.push(SegMeta {
                        slot_start: u32::try_from(slot_start).ok()?,
                        ..old.clone()
                    });
                    slot_start += u64::from(edges);
                    continue;
                }
                let (first, end) = seg_range(s, span, new_n);
                let mut lists: Vec<(Vec<u32>, Vec<f64>)> =
                    Vec::with_capacity((end - first) as usize);
                for node in first..end {
                    lists.push(self.merge_node(dir, node, old_n, patch, repl, &rev_repl));
                }
                let borrowed: Vec<(&[u32], &[f64])> = lists
                    .iter()
                    .map(|(ids, ws)| (ids.as_slice(), ws.as_slice()))
                    .collect();
                let mut payload = Vec::new();
                let min_pos = encode_segment(&borrowed, &mut payload);
                let edges: usize = lists.iter().map(|(ids, _)| ids.len()).sum();
                metas.push(SegMeta {
                    checksum: segment_checksum(&payload),
                    len: u32::try_from(payload.len()).ok()?,
                    src: ByteSource::Mem(payload.into()),
                    offset: 0,
                    slot_start: u32::try_from(slot_start).ok()?,
                    min_pos_weight: min_pos,
                });
                slot_start += edges as u64;
            }
            totals[dir as usize] = slot_start;
        }
        debug_assert_eq!(totals[0], totals[1], "fwd/rev edge totals diverge");
        let new_m = u32::try_from(totals[0]).ok()?;

        let min_edge_weight = metas[..new_seg_count as usize]
            .iter()
            .map(|m| m.min_pos_weight)
            .fold(f64::INFINITY, f64::min);
        let node_weights: Box<[f64]> = patch.new_node_weights().into();
        let max_node_weight = node_weights.iter().copied().fold(0.0f64, f64::max);

        Some(Graph::from_store(Arc::new(PagedGraphStore::assemble(
            new_n,
            new_m,
            span,
            node_weights,
            min_edge_weight,
            max_node_weight,
            metas,
            Arc::clone(&self.cache),
        ))))
    }

    /// The patched adjacency list of one node: the old list minus dirty
    /// pairs, merged (by neighbor id) with the replacement edges aimed
    /// at this node. `repl` is sorted by `(from, to)` and `rev_repl` by
    /// `(to, from)`, so each node's replacements are a contiguous run.
    fn merge_node(
        &self,
        dir: u32,
        node: u32,
        old_n: u32,
        patch: &GraphPatch,
        repl: &[(u32, u32, f64)],
        rev_repl: &[(u32, u32, f64)],
    ) -> (Vec<u32>, Vec<f64>) {
        let keyed = if dir == 0 { repl } else { rev_repl };
        let lo = keyed.partition_point(|&(a, _, _)| a < node);
        let hi = keyed.partition_point(|&(a, _, _)| a <= node);
        let mine = &keyed[lo..hi];

        let mut ids = Vec::new();
        let mut weights = Vec::new();
        let mut r = 0usize;
        if node < old_n {
            let seg = self.segment(dir, node / self.seg_span);
            let (_, old_ids, old_ws) = seg.adjacency(node);
            for (&other, &w) in old_ids.iter().zip(old_ws) {
                let live = if dir == 0 {
                    !patch.is_dirty(node, other)
                } else {
                    !patch.is_dirty(other, node)
                };
                if !live {
                    continue;
                }
                while r < mine.len() && mine[r].1 < other {
                    ids.push(mine[r].1);
                    weights.push(mine[r].2);
                    r += 1;
                }
                debug_assert!(
                    r >= mine.len() || mine[r].1 != other,
                    "replacement edges must target dirty pairs only"
                );
                ids.push(other);
                weights.push(w);
            }
        }
        for &(_, other, w) in &mine[r..] {
            ids.push(other);
            weights.push(w);
        }
        (ids, weights)
    }
}

impl GraphStore for PagedGraphStore {
    fn node_count(&self) -> usize {
        self.node_count as usize
    }

    fn edge_count(&self) -> usize {
        self.edge_count as usize
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

    fn out_adjacency_slots(&self, node: u32) -> (u32, &[u32], &[f64]) {
        self.adjacency(0, node)
    }

    fn in_adjacency_slots(&self, node: u32) -> (u32, &[u32], &[f64]) {
        self.adjacency(1, node)
    }

    fn out_escores(&self, node: u32) -> &[f64] {
        assert!(node < self.node_count, "node out of range");
        let seg = self.segment(0, node / self.seg_span);
        keep_alive(&seg);
        let escores = seg.escores_of(node);
        // SAFETY: as in `adjacency` — the segment was just parked in
        // the keep-alive ring.
        unsafe { extend_slice(escores) }
    }

    fn fwd_weight_at(&self, slot: u32) -> f64 {
        let seg = self.seg_of_slot(0, slot);
        self.segment(0, seg).weight_at(slot)
    }

    fn rev_weight_at(&self, slot: u32) -> f64 {
        let seg = self.seg_of_slot(1, slot);
        self.segment(1, seg).weight_at(slot)
    }

    fn memory_bytes(&self) -> usize {
        self.node_weights.len() * 8
            + self.metas.len() * std::mem::size_of::<SegMeta>()
            + self.cache.stats(self.cache_id).resident_bytes
    }

    fn storage_stats(&self) -> StorageStats {
        let stats = self.cache.stats(self.cache_id);
        StorageStats {
            resident_bytes: stats.resident_bytes,
            budget_bytes: self.cache.budget(),
            segment_count: self.metas.len(),
            resident_segments: stats.resident_pages,
            page_ins: stats.page_ins,
            evictions: stats.evictions,
            decode_nanos: stats.decode_nanos,
        }
    }

    fn apply_patch(&self, patch: &GraphPatch) -> Option<Graph> {
        self.apply_patch_cow(patch)
    }

    fn reencode(&self, graph: &Graph) -> Option<Arc<dyn GraphStore>> {
        let blob = encode_paged_blob(graph, self.seg_span);
        let store = PagedGraphStore::open_mem(blob.into(), Arc::clone(&self.cache))
            .expect("freshly encoded blob must be valid");
        Some(store)
    }
}

impl Drop for PagedGraphStore {
    fn drop(&mut self) {
        // A dropped epoch's segments must not starve the stores that
        // replaced it.
        self.cache.release(self.cache_id);
    }
}

/// Encode `graph` and reopen it as a paged store with the given budget
/// — the one-call path tests and tools use.
pub fn page_graph(
    graph: &Graph,
    seg_span: Option<u32>,
    budget: usize,
) -> Result<Arc<PagedGraphStore>, PagerError> {
    let blob = encode_paged_blob(graph, seg_span.unwrap_or(DEFAULT_SEG_SPAN));
    PagedGraphStore::open_mem(blob.into(), PageCache::new(budget))
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::{GraphBuilder, NodeId};

    /// A deterministic pseudo-random graph with a few distinct weights
    /// (dictionary-friendly, like real schema-derived weights).
    fn scrambled_graph(n: u32, edges_per_node: u32, seed: u64) -> Graph {
        let mut b = GraphBuilder::with_capacity(n as usize, (n * edges_per_node) as usize);
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(1.0 + (i % 7) as f64)).collect();
        let weights = [0.5, 1.0, 2.0, 3.5];
        for i in 0..n {
            for _ in 0..edges_per_node {
                let to = next() % n;
                let w = weights[(next() % 4) as usize];
                b.add_edge(ids[i as usize], ids[to as usize], w);
            }
        }
        b.build()
    }

    fn assert_graphs_identical(a: &Graph, b: &Graph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.min_edge_weight().to_bits(), b.min_edge_weight().to_bits());
        assert_eq!(a.max_node_weight().to_bits(), b.max_node_weight().to_bits());
        for v in a.nodes() {
            assert_eq!(a.node_weight(v).to_bits(), b.node_weight(v).to_bits());
            let (alo, at, aw) = a.out_adjacency_slots(v);
            let (blo, bt, bw) = b.out_adjacency_slots(v);
            assert_eq!((alo, at.to_vec()), (blo, bt.to_vec()));
            assert_eq!(
                aw.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                bw.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(
                a.out_escores(v)
                    .iter()
                    .map(|w| w.to_bits())
                    .collect::<Vec<_>>(),
                b.out_escores(v)
                    .iter()
                    .map(|w| w.to_bits())
                    .collect::<Vec<_>>()
            );
            let (rlo, rs, rw) = a.in_adjacency_slots(v);
            let (blo2, bs, bw2) = b.in_adjacency_slots(v);
            assert_eq!((rlo, rs.to_vec()), (blo2, bs.to_vec()));
            assert_eq!(
                rw.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                bw2.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
            );
        }
        for slot in 0..a.edge_count() as u32 {
            assert_eq!(
                a.fwd_weight_at(slot).to_bits(),
                b.fwd_weight_at(slot).to_bits()
            );
            assert_eq!(
                a.rev_weight_at(slot).to_bits(),
                b.rev_weight_at(slot).to_bits()
            );
        }
    }

    #[test]
    fn paged_accessors_match_in_ram_under_tiny_budget() {
        let g = scrambled_graph(500, 3, 42);
        // Span 16 → ~32 segments per direction; a 16 KB budget forces
        // constant eviction while the comparison sweeps every node.
        let store = page_graph(&g, Some(16), 16 << 10).unwrap();
        let paged = Graph::from_store(store.clone());
        assert_graphs_identical(&g, &paged);
        let stats = store.storage_stats();
        assert!(stats.page_ins > 0, "no page-ins recorded");
        assert!(stats.evictions > 0, "tiny budget must evict");
        assert!(stats.decode_nanos > 0);
        assert_eq!(stats.budget_bytes, 16 << 10);
        // No 16-node segment of this graph decodes to anywhere near
        // 16 KB, so the bound is hard.
        assert!(
            stats.resident_bytes <= stats.budget_bytes,
            "resident {} past budget {}",
            stats.resident_bytes,
            stats.budget_bytes
        );
    }

    #[test]
    fn decode_full_round_trips() {
        let g = scrambled_graph(200, 4, 7);
        let blob = encode_paged_blob(&g, 32);
        let src = ByteSource::Mem(blob.into());
        let back = PagedGraphStore::decode_full(&src).unwrap();
        assert_graphs_identical(&g, &back);
        assert!(back.store().is_none(), "decode_full yields in-RAM");
    }

    #[test]
    fn open_file_pages_from_disk() {
        let g = scrambled_graph(120, 3, 3);
        let blob = encode_paged_blob(&g, 16);
        let dir = std::env::temp_dir().join(format!(
            "banks_pager_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.pgr");
        std::fs::write(&path, &blob).unwrap();
        let file = Arc::new(File::open(&path).unwrap());
        let store = PagedGraphStore::open_file(file, 0, blob.len() as u64, PageCache::new(1 << 20))
            .unwrap();
        assert_graphs_identical(&g, &Graph::from_store(store));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_or_corrupt_directory_rejected_with_typed_error() {
        let g = scrambled_graph(100, 3, 9);
        let blob = encode_paged_blob(&g, 16);

        // Bad magic.
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        match PagedGraphStore::open_mem(bad.into(), PageCache::new(1 << 20)) {
            Err(PagerError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }

        // A flipped byte inside the directory (node-weight lane or
        // entries) must surface as a checksum mismatch.
        let mut torn = blob.clone();
        torn[40] ^= 0x01;
        match PagedGraphStore::open_mem(torn.into(), PageCache::new(1 << 20)) {
            Err(
                PagerError::BadDirectoryChecksum | PagerError::Malformed(_) | PagerError::Truncated,
            ) => {}
            other => panic!("expected typed directory error, got {other:?}"),
        }

        // Truncated mid-directory.
        let cut = blob[..64].to_vec();
        match PagedGraphStore::open_mem(cut.into(), PageCache::new(1 << 20)) {
            Err(PagerError::Truncated) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_segment_payload_detected_on_full_decode() {
        let g = scrambled_graph(100, 3, 11);
        let mut blob = encode_paged_blob(&g, 16);
        // Flip a byte provably inside a forward segment payload (the
        // ones decode_full actually reads) by consulting the directory.
        let layout = crate::blob::read_layout(&ByteSource::Mem(blob.clone().into())).unwrap();
        let target = layout.fwd[0].offset as usize + 2;
        blob[target] ^= 0x40;
        let src = ByteSource::Mem(blob.into());
        match PagedGraphStore::decode_full(&src) {
            Err(PagerError::BadSegmentChecksum { .. }) => {}
            other => panic!("expected BadSegmentChecksum, got {other:?}"),
        }
    }

    #[test]
    fn cow_patch_matches_in_ram_patch() {
        let g = scrambled_graph(300, 3, 21);
        let paged = Graph::from_store(page_graph(&g, Some(16), 1 << 20).unwrap());

        // Identity remap + two appended nodes, edits spread across
        // segments.
        let old_n = g.node_count();
        let remap: Vec<Option<u32>> = (0..old_n as u32).map(Some).collect();
        let mut weights: Vec<f64> = g.nodes().map(|v| g.node_weight(v)).collect();
        weights.push(5.0);
        weights.push(6.0);
        let build_patch = || {
            let mut p = GraphPatch::new(remap.clone(), weights.clone());
            p.set_edge(NodeId(3), NodeId(250), 0.25);
            p.mark_dirty(NodeId(10), NodeId(11));
            p.set_edge(NodeId(old_n as u32), NodeId(0), 1.5);
            p.set_edge(NodeId(17), NodeId(old_n as u32 + 1), 2.5);
            // Touch an existing pair too: replace whatever 40→? had.
            let (targets, _) = g.out_adjacency(NodeId(40));
            if let Some(&t) = targets.first() {
                p.set_edge(NodeId(40), NodeId(t), 0.125);
            }
            p
        };
        let expect = build_patch().apply(&g);
        let got = build_patch().apply(&paged);
        assert!(got.store().is_some(), "COW result must stay paged");
        assert_graphs_identical(&expect, &got);
    }

    #[test]
    fn non_identity_remap_falls_back_to_reencode() {
        let g = scrambled_graph(120, 3, 33);
        let paged = Graph::from_store(page_graph(&g, Some(16), 1 << 20).unwrap());
        // Remove node 5: ids shift, the COW fast path must decline.
        let remap: Vec<Option<u32>> = (0..g.node_count() as u32)
            .map(|i| match i.cmp(&5) {
                std::cmp::Ordering::Less => Some(i),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some(i - 1),
            })
            .collect();
        let weights: Vec<f64> = g
            .nodes()
            .filter(|v| v.0 != 5)
            .map(|v| g.node_weight(v))
            .collect();
        let expect = GraphPatch::new(remap.clone(), weights.clone()).apply(&g);
        let got = GraphPatch::new(remap, weights).apply(&paged);
        assert!(got.store().is_some(), "fallback must re-encode to paged");
        assert_graphs_identical(&expect, &got);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new().build();
        let store = page_graph(&g, None, 0).unwrap();
        let paged = Graph::from_store(store);
        assert_eq!(paged.node_count(), 0);
        assert_eq!(paged.edge_count(), 0);
        assert!(paged.min_edge_weight().is_infinite());
        assert_eq!(paged.max_node_weight(), 0.0);
    }
}
