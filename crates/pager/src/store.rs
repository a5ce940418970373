//! [`PagedGraphStore`]: the out-of-core [`GraphStore`] backend, and
//! [`decode_paged_blob`], which decodes a whole blob into a resident
//! graph instead.
//!
//! The store keeps only the blob *directory* (32 bytes per segment) and
//! the node-weight lane (8 bytes per node) in memory. Adjacency
//! requests page the owning segment in on first touch — one positioned
//! read, a checksum, and a varint decode into the compact resident form
//! of [`crate::codec`] (weights stay dictionary-coded) — into the
//! snapshot's [`PageCache`], which holds resident segments and tuple
//! blocks under one hard memory budget (see [`crate::budget`]). A
//! resident graph holds the very same [`Segment`]s, every one of them
//! for its life, so both answer with the same coded views.
//!
//! # How a view stays valid
//!
//! [`GraphStore::segment`] clones the resident segment's `Arc` out of
//! the cache and releases the cache lock; the caller reads views from
//! that `Arc`. A plain [`Graph`] read holds it on its own stack for the
//! one call, and a search's page table holds it until the query ends
//! (see `banks_graph::SearchArena::with_reader`). The segment therefore lives while it
//! is read, even if the cache evicts it meanwhile, and the borrow
//! checker keeps a view from outliving its holder. Outside the budget,
//! a running query holds every segment it touched, shared with the
//! cache while they stay resident.

use crate::blob::{encode_paged_blob, read_layout, seg_count_for, seg_range, ByteSource};
use crate::budget::{Page, PageCache};
use crate::codec::{decode_segment, encode_segment};
use crate::error::PagerError;
use banks_graph::store::{GraphStore, ResidentStore, StorageStats};
use banks_graph::{Graph, GraphPatch, Segment, SegmentBuilder};
use banks_util::fault::{self, Site};
use banks_util::fxhash::{checksum, FxHashSet};
use std::fs::File;
use std::sync::Arc;

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
    /// keeping resident segments in `cache`.
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
        PagedGraphStore::open_source(ByteSource::File { file, base, len }, cache).map(Arc::new)
    }

    /// Open an in-memory paged blob (used for re-encoded epochs and
    /// tests; the *encoded* bytes stay resident, decoded segments are
    /// still paged and budgeted).
    pub fn open_mem(
        bytes: Arc<[u8]>,
        cache: Arc<PageCache>,
    ) -> Result<Arc<PagedGraphStore>, PagerError> {
        PagedGraphStore::open_source(ByteSource::Mem(bytes), cache).map(Arc::new)
    }

    /// Open a blob from any [`ByteSource`].
    fn open_source(src: ByteSource, cache: Arc<PageCache>) -> Result<PagedGraphStore, PagerError> {
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
        Ok(PagedGraphStore::assemble(
            layout.node_count,
            layout.edge_count as u32,
            layout.seg_span,
            layout.node_weights.into_boxed_slice(),
            min_edge_weight,
            max_node_weight,
            metas,
            cache,
        ))
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

    /// Fetch (paging in if needed) the resident segment `seg` of
    /// direction `dir` (0 = forward, 1 = reverse).
    ///
    /// # Panics
    ///
    /// On I/O failure or a payload checksum/structure failure — the
    /// adjacency accessors have no error channel. Directory-level
    /// corruption is caught (typed) at open instead.
    fn fetch_segment(&self, dir: u32, seg: u32) -> Arc<Segment> {
        let key = dir * self.seg_count + seg;
        let page = self
            .cache
            .get_or_load(self.cache_id, u64::from(key), || {
                fault::maybe_fault(Site::PagerPageIn)?;
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
    fn load_segment(&self, dir: u32, seg: u32) -> Result<Segment, PagerError> {
        let meta = &self.metas[(dir * self.seg_count + seg) as usize];
        let mut payload = vec![0u8; meta.len as usize];
        meta.src.read_at(meta.offset, &mut payload)?;
        if checksum(&payload) != meta.checksum {
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
        let mut builder = SegmentBuilder::default();
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
                for node in first..end {
                    self.merge_node(&mut builder, dir, node, old_n, patch, repl, &rev_repl);
                }
                let segment = builder.finish(first, None);
                let (payload, min_pos) = encode_segment(&segment, first, end);
                metas.push(SegMeta {
                    checksum: checksum(&payload),
                    len: u32::try_from(payload.len()).ok()?,
                    src: ByteSource::Mem(payload.into()),
                    offset: 0,
                    slot_start: u32::try_from(slot_start).ok()?,
                    min_pos_weight: min_pos,
                });
                slot_start += segment.edges() as u64;
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

    /// Append to `builder` the patched adjacency list of one node: the
    /// old list minus dirty pairs, merged (by neighbor id) with the
    /// replacement edges aimed at this node. `repl` is sorted by
    /// `(from, to)` and `rev_repl` by `(to, from)`, so each node's
    /// replacements are a contiguous run.
    #[allow(clippy::too_many_arguments)]
    fn merge_node(
        &self,
        builder: &mut SegmentBuilder,
        dir: u32,
        node: u32,
        old_n: u32,
        patch: &GraphPatch,
        repl: &[(u32, u32, f64)],
        rev_repl: &[(u32, u32, f64)],
    ) {
        let keyed = if dir == 0 { repl } else { rev_repl };
        let lo = keyed.partition_point(|&(a, _, _)| a < node);
        let hi = keyed.partition_point(|&(a, _, _)| a <= node);
        let mine = &keyed[lo..hi];

        let mut r = 0usize;
        if node < old_n {
            let seg = self.fetch_segment(dir, node / self.seg_span);
            for (other, w) in seg.adjacency(node).iter() {
                let live = if dir == 0 {
                    !patch.is_dirty(node, other)
                } else {
                    !patch.is_dirty(other, node)
                };
                if !live {
                    continue;
                }
                while r < mine.len() && mine[r].1 < other {
                    builder.edge(mine[r].1, mine[r].2);
                    r += 1;
                }
                debug_assert!(
                    r >= mine.len() || mine[r].1 != other,
                    "replacement edges must target dirty pairs only"
                );
                builder.edge(other, w);
            }
        }
        for &(_, other, w) in &mine[r..] {
            builder.edge(other, w);
        }
        builder.end_list();
    }
}

/// Decode every segment of both directions of the blob behind `src`
/// into a resident graph (a [`ResidentStore`]) — the non-paged bundle
/// load. Each payload is checksummed and validated like a page-in.
pub fn decode_paged_blob(src: ByteSource) -> Result<Graph, PagerError> {
    let mut store = PagedGraphStore::open_source(src, PageCache::new(0))?;
    let mut segments = [Vec::new(), Vec::new()];
    for (dir, segments) in (0..).zip(&mut segments) {
        for seg in 0..store.seg_count {
            segments.push(Arc::new(store.load_segment(dir, seg)?));
        }
    }
    let [forward, reverse] = segments;
    let node_weights = std::mem::take(&mut store.node_weights).into_vec();
    let resident = ResidentStore::new(node_weights, store.seg_span, forward, reverse);
    Ok(Graph::from_store(Arc::new(resident)))
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

    fn seg_span(&self) -> u32 {
        self.seg_span
    }

    fn segment(&self, forward: bool, seg: u32) -> Arc<Segment> {
        assert!(seg < self.seg_count, "segment out of range");
        self.fetch_segment(u32::from(!forward), seg)
    }

    fn memory_bytes(&self) -> usize {
        self.node_weights.len() * 8
            + self.metas.len() * std::mem::size_of::<SegMeta>()
            + self.cache.stats(self.cache_id).resident_bytes
    }

    fn storage_stats(&self) -> Option<StorageStats> {
        let stats = self.cache.stats(self.cache_id);
        Some(StorageStats {
            resident_bytes: stats.resident_bytes,
            budget_bytes: self.cache.budget(),
            segment_count: self.metas.len(),
            resident_segments: stats.resident_pages,
            lookups: stats.lookups,
            page_ins: stats.page_ins,
            evictions: stats.evictions,
            decode_nanos: stats.decode_nanos,
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::DEFAULT_SEG_SPAN;
    use banks_graph::{Adjacency, Dijkstra, Direction, GraphBuilder, NodeId, SearchArena};
    use std::collections::{BTreeMap, BTreeSet};

    /// Encode `graph` and reopen it as a paged store with the given budget.
    fn page_graph(
        graph: &Graph,
        seg_span: Option<u32>,
        budget: usize,
    ) -> Result<Arc<PagedGraphStore>, PagerError> {
        let blob = encode_paged_blob(graph, seg_span.unwrap_or(DEFAULT_SEG_SPAN));
        PagedGraphStore::open_mem(blob.into(), PageCache::new(budget))
    }

    /// The edges of a deterministic pseudo-random graph with a few
    /// distinct weights (dictionary-friendly, like real schema-derived
    /// weights), parallel pairs included.
    fn scrambled_edges(n: u32, edges_per_node: u32, seed: u64) -> Vec<(u32, u32, f64)> {
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let weights = [0.5, 1.0, 2.0, 3.5];
        let mut edges = Vec::new();
        for i in 0..n {
            for _ in 0..edges_per_node {
                let to = next() % n;
                edges.push((i, to, weights[(next() % 4) as usize]));
            }
        }
        edges
    }

    /// The graph of [`scrambled_edges`], node `i` weighing `1 + i % 7`.
    fn scrambled_graph(n: u32, edges_per_node: u32, seed: u64) -> Graph {
        let mut b = GraphBuilder::with_capacity(n as usize, (n * edges_per_node) as usize);
        let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(1.0 + (i % 7) as f64)).collect();
        for (from, to, w) in scrambled_edges(n, edges_per_node, seed) {
            b.add_edge(ids[from as usize], ids[to as usize], w);
        }
        b.build()
    }

    /// Ids, weight bits and (forward) edge-score bits per position.
    fn bits(adjacency: Adjacency<'_>, scored: bool) -> Vec<(u32, u64, u64)> {
        (0..adjacency.len())
            .map(|i| {
                let escore = if scored {
                    adjacency.escore(i).to_bits()
                } else {
                    0
                };
                (adjacency.ids()[i], adjacency.weight(i).to_bits(), escore)
            })
            .collect()
    }

    /// `graph` holds exactly `edges` (parallel pairs at their minimum
    /// weight), read off a `BTreeMap` rather than another graph: every
    /// node's forward and reverse lists, degrees, weights and node
    /// weight, and each forward edge scores `(1 + w/w_min).log2()`.
    fn assert_matches_oracle(graph: &Graph, n: u32, edges: &[(u32, u32, f64)]) {
        let mut oracle: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for &(from, to, w) in edges {
            let e = oracle.entry((from, to)).or_insert(f64::INFINITY);
            *e = e.min(w);
        }
        let w_min = oracle.values().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(graph.node_count(), n as usize);
        assert_eq!(graph.edge_count(), oracle.len());
        assert_eq!(graph.min_edge_weight(), w_min);
        for v in graph.nodes() {
            assert_eq!(graph.node_weight(v), 1.0 + (v.0 % 7) as f64);
            let out: Vec<(u32, u64, u64)> = oracle
                .range((v.0, 0)..=(v.0, u32::MAX))
                .map(|(&(_, to), &w)| (to, w.to_bits(), (1.0 + w / w_min).log2().to_bits()))
                .collect();
            let inc: Vec<(u32, u64, u64)> = oracle
                .iter()
                .filter(|(&(_, to), _)| to == v.0)
                .map(|(&(from, _), &w)| (from, w.to_bits(), 0))
                .collect();
            assert_eq!(graph.out_degree(v), out.len(), "{v}");
            assert_eq!(graph.in_degree(v), inc.len(), "{v}");
            assert_eq!(
                graph.with_out_adjacency(v, |adj| bits(adj, true)),
                out,
                "{v}"
            );
            assert_eq!(
                graph.with_in_adjacency(v, |adj| bits(adj, false)),
                inc,
                "{v}"
            );
        }
    }

    fn assert_graphs_identical(a: &Graph, b: &Graph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.min_edge_weight().to_bits(), b.min_edge_weight().to_bits());
        assert_eq!(a.max_node_weight().to_bits(), b.max_node_weight().to_bits());
        for v in a.nodes() {
            assert_eq!(a.node_weight(v).to_bits(), b.node_weight(v).to_bits());
            assert_eq!(
                a.with_out_adjacency(v, |adj| bits(adj, true)),
                b.with_out_adjacency(v, |adj| bits(adj, true))
            );
            assert_eq!(
                a.with_in_adjacency(v, |adj| bits(adj, false)),
                b.with_in_adjacency(v, |adj| bits(adj, false))
            );
        }
    }

    #[test]
    fn paged_accessors_match_in_ram_under_tiny_budget() {
        let g = scrambled_graph(500, 3, 42);
        // Span 16 → ~32 segments per direction; a 16 KB budget forces
        // constant eviction while the comparisons sweep every node. The
        // resident and the paged graph read the same segment code, so
        // each is also checked against the edges themselves.
        let store = page_graph(&g, Some(16), 16 << 10).unwrap();
        let paged = Graph::from_store(store.clone());
        let edges = scrambled_edges(500, 3, 42);
        assert_matches_oracle(&g, 500, &edges);
        assert_matches_oracle(&paged, 500, &edges);
        assert_graphs_identical(&g, &paged);
        let stats = store.storage_stats().unwrap();
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
    fn a_view_outlives_the_eviction_of_its_segment() {
        // 2 000 nodes at span 8 is 250 segments per direction. The
        // budget holds a few of them, so the 100 segment reads inside
        // the closure evict `v`'s segment while its view is in use; the
        // view must still read exactly what the in-RAM graph holds.
        let g = scrambled_graph(2_000, 3, 5);
        let store = page_graph(&g, Some(8), 1 << 10).unwrap();
        let paged = Graph::from_store(store.clone());
        let v = NodeId(3);
        let expect: Vec<(u32, u64)> =
            g.with_out_adjacency(v, |adj| adj.iter().map(|(t, w)| (t, w.to_bits())).collect());
        let got: Vec<(u32, u64)> = paged.with_out_adjacency(v, |adj| {
            for other in (0..100).map(|i| NodeId(16 + i * 8 * 2)) {
                let in_ram = g.out_edges(other).collect::<Vec<_>>();
                assert_eq!(paged.out_edges(other).collect::<Vec<_>>(), in_ram);
            }
            adj.iter().map(|(t, w)| (t, w.to_bits())).collect()
        });
        assert_eq!(got, expect);
        // The nested reads evicted `v`'s segment: reading it again
        // pages it back in.
        let page_ins = store.storage_stats().unwrap().page_ins;
        assert_eq!(paged.out_degree(v), expect.len());
        assert_eq!(store.storage_stats().unwrap().page_ins, page_ins + 1);

        // A query's page table holds `v`'s segment while the cache
        // evicts it: the query's later reads of `v` still see the same
        // list and page nothing in, and only a read after the query
        // ends pages the segment in again.
        let mut arena = SearchArena::new();
        arena.with_reader(&paged, |_, reader| {
            let read_v = || {
                reader.with_adjacency(true, v, |adj| {
                    adj.iter()
                        .map(|(t, w)| (t, w.to_bits()))
                        .collect::<Vec<_>>()
                })
            };
            assert_eq!(read_v(), expect);
            for other in (0..100).map(|i| NodeId(16 + i * 8 * 2)) {
                assert_eq!(paged.out_degree(other), g.out_degree(other));
            }
            let page_ins = store.storage_stats().unwrap().page_ins;
            assert_eq!(read_v(), expect);
            assert_eq!(
                store.storage_stats().unwrap().page_ins,
                page_ins,
                "held, not paged"
            );
        });
        let page_ins = store.storage_stats().unwrap().page_ins;
        assert_eq!(paged.out_degree(v), expect.len());
        assert_eq!(
            store.storage_stats().unwrap().page_ins,
            page_ins + 1,
            "evicted meanwhile"
        );
    }

    #[test]
    fn a_query_looks_each_segment_up_once_and_holds_it_until_it_ends() {
        // 2 000 nodes at span 16 is 125 segments per direction, all of
        // which fit the budget.
        let g = scrambled_graph(2_000, 3, 13);
        let store = page_graph(&g, Some(16), 1 << 20).unwrap();
        let paged = Graph::from_store(store.clone());
        let before = store.storage_stats().unwrap().lookups;
        let mut arena = SearchArena::new();
        let mut touched = BTreeSet::new();
        let reads = arena.with_reader(&paged, |arena, reader| {
            let mut reads = 0;
            for origin in [0, 777, 1_500] {
                let state = arena.checkout();
                let mut it = Dijkstra::new_in(reader, NodeId(origin), Direction::Reverse, state);
                // Each settled node reads its reverse list once.
                for visit in it.by_ref() {
                    touched.insert(visit.node.0 / 16);
                    reads += 1;
                }
                arena.recycle(it.into_state());
            }
            // While the query runs, its table shares every segment it
            // touched with the cache.
            for &seg in &touched {
                assert_eq!(Arc::strong_count(&store.fetch_segment(1, seg)), 3);
            }
            reads
        });
        let lookups = store.storage_stats().unwrap().lookups - before - touched.len() as u64;
        assert!(reads > 4 * touched.len(), "{reads} reads, {touched:?}");
        assert_eq!(lookups, touched.len() as u64, "one lookup per segment");
        // After the query only the cache (and the probe) hold them.
        for &seg in &touched {
            assert_eq!(Arc::strong_count(&store.fetch_segment(1, seg)), 2);
        }
    }

    #[test]
    fn decode_paged_blob_round_trips() {
        let g = scrambled_graph(200, 4, 7);
        let blob = encode_paged_blob(&g, 32);
        let back = decode_paged_blob(ByteSource::Mem(blob.into())).unwrap();
        assert_graphs_identical(&g, &back);
        assert_matches_oracle(&back, 200, &scrambled_edges(200, 4, 7));
        assert!(back.storage_stats().is_none(), "decoded resident");
        assert_eq!(back.store().seg_span(), 32, "at the blob's span");
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
        let blob = encode_paged_blob(&g, 16);
        // Flip a byte provably inside a forward segment payload, then
        // one inside a reverse one, by consulting the directory: the
        // full decode reads both directions.
        let layout = crate::blob::read_layout(&ByteSource::Mem(blob.clone().into())).unwrap();
        for entry in [layout.fwd[0], layout.rev[2]] {
            let mut bad = blob.clone();
            bad[entry.offset as usize + 2] ^= 0x40;
            match decode_paged_blob(ByteSource::Mem(bad.into())) {
                Err(PagerError::BadSegmentChecksum { .. }) => {}
                other => panic!("expected BadSegmentChecksum, got {other:?}"),
            }
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
            if let Some(t) = g.with_out_adjacency(NodeId(40), |adj| adj.ids().first().copied()) {
                p.set_edge(NodeId(40), NodeId(t), 0.125);
            }
            p
        };
        let expect = build_patch().apply(&g);
        let got = build_patch().apply(&paged);
        assert!(got.storage_stats().is_some(), "COW result must stay paged");
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
        assert!(
            got.storage_stats().is_some(),
            "fallback must re-encode to paged"
        );
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
