//! Compact CSR graph: the in-memory representation of the BANKS data graph.
//!
//! Since the out-of-core work, [`Graph`] is a thin dispatch wrapper over
//! one of two storage backends: the original in-RAM CSR (the default —
//! every constructor here produces it, and its accessors compile to the
//! same direct array indexing as before) or a pluggable
//! [`GraphStore`] such as the segment-paged
//! store in `banks-pager`. The search kernel and every other caller see
//! a single `Graph` type either way.

use crate::arena::PageTable;
use crate::store::{edge_log_score, Adjacency, GraphStore, StorageStats};
use std::fmt;
use std::sync::Arc;

/// A node identifier: a dense index into the graph's node arrays.
///
/// `banks-core` maintains the bijection between [`NodeId`]s and tuple RIDs;
/// the graph itself knows nothing about tuples, matching the paper's note
/// that the in-memory representation stores only the RID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Mutable construction buffer for [`Graph`].
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    node_weights: Vec<f64>,
    edges: Vec<(u32, u32, f64)>,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> GraphBuilder {
        GraphBuilder::default()
    }

    /// A builder pre-sized for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> GraphBuilder {
        GraphBuilder {
            node_weights: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add a node with the given weight (prestige). Returns its id.
    pub fn add_node(&mut self, weight: f64) -> NodeId {
        let id = u32::try_from(self.node_weights.len()).expect("more than u32::MAX nodes");
        self.node_weights.push(weight);
        NodeId(id)
    }

    /// Add a directed edge. Duplicate `(from, to)` pairs are coalesced at
    /// [`GraphBuilder::build`] time by keeping the **minimum** weight — the
    /// `min` of the paper's equation (1) when both a forward and a backward
    /// contribution exist between the same pair of nodes.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: f64) {
        debug_assert!(from.index() < self.node_weights.len(), "from out of range");
        debug_assert!(to.index() < self.node_weights.len(), "to out of range");
        debug_assert!(weight.is_finite() && weight >= 0.0, "bad edge weight");
        self.edges.push((from.0, to.0, weight));
    }

    /// Overwrite the weight of an existing node (used by prestige
    /// post-passes such as authority transfer).
    pub fn set_node_weight(&mut self, node: NodeId, weight: f64) {
        self.node_weights[node.index()] = weight;
    }

    /// Freeze into an immutable CSR graph.
    pub fn build(mut self) -> Graph {
        // Coalesce parallel edges, keeping the minimum weight.
        self.edges
            .sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        self.edges.dedup_by(|next, prev| {
            // `prev` is kept; because of the sort it carries the min weight.
            next.0 == prev.0 && next.1 == prev.1
        });
        Graph::from_sorted_edges(self.node_weights, self.edges)
    }
}

/// The fully-decoded CSR arrays: the original in-RAM backend.
///
/// Kept as a plain struct (not a `GraphStore` impl) so the hot path —
/// accessors on an in-RAM [`Graph`] — is one enum discriminant test
/// plus direct array indexing, with no virtual dispatch.
#[derive(Debug, Clone)]
struct InRamGraph {
    node_weights: Box<[f64]>,
    fwd_offsets: Box<[u32]>,
    fwd_targets: Box<[u32]>,
    fwd_weights: Box<[f64]>,
    /// Precomputed per-edge log score `log2(1 + w/w_min)` parallel to
    /// `fwd_weights` — the term the scorer would otherwise re-derive for
    /// every edge of every generated connection tree. Zeroed when the
    /// graph has no positive edge weight (matching the scorer's
    /// degenerate edge score of 0).
    fwd_escores: Box<[f64]>,
    rev_offsets: Box<[u32]>,
    rev_sources: Box<[u32]>,
    rev_weights: Box<[f64]>,
    min_edge_weight: f64,
    max_node_weight: f64,
}

/// A paged backend plus the segment geometry a read needs, read once
/// from the store so that mapping a node to its segment costs no
/// virtual call.
#[derive(Debug, Clone)]
struct PagedGraph {
    store: Arc<dyn GraphStore>,
    nodes: u32,
    /// Nodes per segment.
    span: u32,
    /// Segments per direction.
    segs: u32,
}

impl PagedGraph {
    /// The segment holding `node`'s lists, and its [`PageTable`] slot in
    /// direction `forward` (forward segments first, then reverse).
    #[inline]
    fn locate(&self, forward: bool, node: u32) -> (u32, usize) {
        assert!(node < self.nodes, "node out of range");
        let seg = node / self.span;
        let slot = if forward { seg } else { self.segs + seg };
        (seg, slot as usize)
    }
}

/// Which backend a [`Graph`] dispatches to.
#[derive(Debug, Clone)]
enum Repr {
    /// Fully decoded CSR arrays in RAM (the default).
    InRam(InRamGraph),
    /// A pluggable out-of-core backend (see `banks-pager`).
    Paged(PagedGraph),
}

/// An immutable directed graph in CSR form, with both forward and reverse
/// adjacency so the backward expanding search can traverse edges in reverse
/// at the same cost as forward.
///
/// Backed either by in-RAM arrays or by a paged [`GraphStore`]. An
/// adjacency list is read inside a closure
/// ([`Graph::with_out_adjacency`], [`Graph::with_in_adjacency`]), so a
/// view never outlives the page it borrows from (see [`crate::store`]).
#[derive(Debug, Clone)]
pub struct Graph {
    repr: Repr,
}

impl InRamGraph {
    /// The cached normalization bounds both constructors derive: the
    /// smallest positive edge weight (the `w_min` of the paper's edge
    /// score) and the largest node weight (`w_max` of the node score).
    fn weight_bounds(node_weights: &[f64], fwd_weights: &[f64]) -> (f64, f64) {
        let min_edge_weight = fwd_weights
            .iter()
            .copied()
            .filter(|w| *w > 0.0)
            .fold(f64::INFINITY, f64::min);
        let max_node_weight = node_weights.iter().copied().fold(0.0f64, f64::max);
        (min_edge_weight, max_node_weight)
    }

    /// The precomputed log-mode edge scores: the exact expression the
    /// scorer evaluates (`(1.0 + w / w_min).log2()`), so a lookup and a
    /// recomputation are bit-identical.
    fn log_scores(fwd_weights: &[f64], min_edge_weight: f64) -> Vec<f64> {
        fwd_weights
            .iter()
            .map(|&w| edge_log_score(w, min_edge_weight))
            .collect()
    }

    fn from_sorted_edges(node_weights: Vec<f64>, edges: Vec<(u32, u32, f64)>) -> InRamGraph {
        let n = node_weights.len();
        let m = edges.len();
        debug_assert!(
            edges
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "edges must be sorted by (from, to) and duplicate-free"
        );
        debug_assert!(edges
            .iter()
            .all(|&(f, t, _)| (f as usize) < n && (t as usize) < n));

        let mut fwd_offsets = vec![0u32; n + 1];
        for &(from, _, _) in &edges {
            fwd_offsets[from as usize + 1] += 1;
        }
        for i in 0..n {
            fwd_offsets[i + 1] += fwd_offsets[i];
        }
        // Edges are sorted by `from`, so the forward arrays are a direct
        // column extraction.
        let mut fwd_targets = Vec::with_capacity(m);
        let mut fwd_weights = Vec::with_capacity(m);
        for &(_, to, w) in &edges {
            fwd_targets.push(to);
            fwd_weights.push(w);
        }

        let mut rev_offsets = vec![0u32; n + 1];
        for &(_, to, _) in &edges {
            rev_offsets[to as usize + 1] += 1;
        }
        for i in 0..n {
            rev_offsets[i + 1] += rev_offsets[i];
        }
        let mut rev_sources = vec![0u32; m];
        let mut rev_weights = vec![0f64; m];
        {
            let mut cursor = rev_offsets.clone();
            // edges are sorted by (from, to), so each reverse adjacency list
            // ends up sorted by source — good for binary search and cache use.
            for &(from, to, w) in &edges {
                let slot = cursor[to as usize] as usize;
                rev_sources[slot] = from;
                rev_weights[slot] = w;
                cursor[to as usize] += 1;
            }
        }

        let (min_edge_weight, max_node_weight) =
            InRamGraph::weight_bounds(&node_weights, &fwd_weights);
        let fwd_escores = InRamGraph::log_scores(&fwd_weights, min_edge_weight);

        InRamGraph {
            node_weights: node_weights.into_boxed_slice(),
            fwd_offsets: fwd_offsets.into_boxed_slice(),
            fwd_targets: fwd_targets.into_boxed_slice(),
            fwd_weights: fwd_weights.into_boxed_slice(),
            fwd_escores: fwd_escores.into_boxed_slice(),
            rev_offsets: rev_offsets.into_boxed_slice(),
            rev_sources: rev_sources.into_boxed_slice(),
            rev_weights: rev_weights.into_boxed_slice(),
            min_edge_weight,
            max_node_weight,
        }
    }

    fn from_csr(
        node_weights: Vec<f64>,
        fwd_offsets: Vec<u32>,
        fwd_targets: Vec<u32>,
        fwd_weights: Vec<f64>,
    ) -> InRamGraph {
        let n = node_weights.len();
        let m = fwd_targets.len();
        debug_assert_eq!(fwd_offsets.len(), n + 1);
        debug_assert_eq!(fwd_weights.len(), m);
        debug_assert!(fwd_offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(fwd_targets.iter().all(|&t| (t as usize) < n));

        let mut rev_offsets = vec![0u32; n + 1];
        for &to in &fwd_targets {
            rev_offsets[to as usize + 1] += 1;
        }
        for i in 0..n {
            rev_offsets[i + 1] += rev_offsets[i];
        }
        let mut rev_sources = vec![0u32; m];
        let mut rev_weights = vec![0f64; m];
        {
            let mut cursor = rev_offsets.clone();
            // Walking nodes in id order keeps each reverse adjacency
            // list sorted by source, matching `from_sorted_edges`.
            for from in 0..n {
                let (lo, hi) = (fwd_offsets[from] as usize, fwd_offsets[from + 1] as usize);
                for e in lo..hi {
                    let to = fwd_targets[e] as usize;
                    let slot = cursor[to] as usize;
                    rev_sources[slot] = from as u32;
                    rev_weights[slot] = fwd_weights[e];
                    cursor[to] += 1;
                }
            }
        }

        let (min_edge_weight, max_node_weight) =
            InRamGraph::weight_bounds(&node_weights, &fwd_weights);
        let fwd_escores = InRamGraph::log_scores(&fwd_weights, min_edge_weight);

        InRamGraph {
            node_weights: node_weights.into_boxed_slice(),
            fwd_offsets: fwd_offsets.into_boxed_slice(),
            fwd_targets: fwd_targets.into_boxed_slice(),
            fwd_weights: fwd_weights.into_boxed_slice(),
            fwd_escores: fwd_escores.into_boxed_slice(),
            rev_offsets: rev_offsets.into_boxed_slice(),
            rev_sources: rev_sources.into_boxed_slice(),
            rev_weights: rev_weights.into_boxed_slice(),
            min_edge_weight,
            max_node_weight,
        }
    }

    /// The view of `node`'s forward (`forward`) or reverse adjacency,
    /// straight over the CSR lanes.
    #[inline]
    fn adjacency(&self, forward: bool, node: NodeId) -> Adjacency<'_> {
        let (offsets, ids, weights) = if forward {
            (&self.fwd_offsets, &self.fwd_targets, &self.fwd_weights)
        } else {
            (&self.rev_offsets, &self.rev_sources, &self.rev_weights)
        };
        let (lo, hi) = (
            offsets[node.index()] as usize,
            offsets[node.index() + 1] as usize,
        );
        let escores = if forward {
            &self.fwd_escores[lo..hi]
        } else {
            &[]
        };
        Adjacency::plain(&ids[lo..hi], &weights[lo..hi], escores)
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.node_weights.len() * size_of::<f64>()
            + self.fwd_offsets.len() * size_of::<u32>()
            + self.fwd_targets.len() * size_of::<u32>()
            + self.fwd_weights.len() * size_of::<f64>()
            + self.fwd_escores.len() * size_of::<f64>()
            + self.rev_offsets.len() * size_of::<u32>()
            + self.rev_sources.len() * size_of::<u32>()
            + self.rev_weights.len() * size_of::<f64>()
    }
}

/// The edges of a view as `(neighbour, weight)` pairs.
fn edge_list(adjacency: Adjacency<'_>) -> Vec<(NodeId, f64)> {
    adjacency.iter().map(|(id, w)| (NodeId(id), w)).collect()
}

impl Graph {
    /// Assemble the CSR arrays from edges that are **already sorted by
    /// `(from, to)` with no duplicate pairs** — the shared final step of
    /// [`GraphBuilder::build`] and the O(m) fast path of
    /// [`crate::patch::GraphPatch::apply`], which produces its merged
    /// edge stream in sorted order and must not pay a global re-sort.
    pub(crate) fn from_sorted_edges(node_weights: Vec<f64>, edges: Vec<(u32, u32, f64)>) -> Graph {
        Graph {
            repr: Repr::InRam(InRamGraph::from_sorted_edges(node_weights, edges)),
        }
    }

    /// Assemble a graph directly from forward CSR arrays — the bundle
    /// restore path, where `fwd_offsets`/`fwd_targets`/`fwd_weights`
    /// were decoded verbatim and re-expanding them into an edge
    /// triple list (as `Graph::from_sorted_edges` consumes) would just
    /// copy ~24 bytes per edge to immediately shred them back into
    /// columns. Only the reverse CSR is derived here.
    ///
    /// The caller guarantees what the builder normally establishes:
    /// offsets monotone with the right endpoints, targets in range, and
    /// each node's adjacency sorted by target with no duplicates (the
    /// paged-blob decoder validates all of this before calling).
    pub fn from_csr(
        node_weights: Vec<f64>,
        fwd_offsets: Vec<u32>,
        fwd_targets: Vec<u32>,
        fwd_weights: Vec<f64>,
    ) -> Graph {
        Graph {
            repr: Repr::InRam(InRamGraph::from_csr(
                node_weights,
                fwd_offsets,
                fwd_targets,
                fwd_weights,
            )),
        }
    }

    /// Wrap a pluggable storage backend as a [`Graph`]. Every accessor
    /// dispatches to `store`; the search kernel runs against it
    /// unchanged.
    pub fn from_store(store: Arc<dyn GraphStore>) -> Graph {
        let nodes = u32::try_from(store.node_count()).expect("more than u32::MAX nodes");
        let span = store.seg_span();
        assert!(span > 0, "a paged store has a positive segment span");
        Graph {
            repr: Repr::Paged(PagedGraph {
                nodes,
                span,
                segs: nodes.div_ceil(span),
                store,
            }),
        }
    }

    /// Slots a [`PageTable`] needs for this graph: one per segment and
    /// direction (none in RAM).
    pub(crate) fn page_slots(&self) -> usize {
        match &self.repr {
            Repr::InRam(_) => 0,
            Repr::Paged(p) => 2 * p.segs as usize,
        }
    }

    /// The storage backend, if this graph is backed by one (`None` for
    /// the in-RAM representation). Used by the ingest pipeline to route
    /// patches through the backend's copy-on-write path.
    pub fn store(&self) -> Option<&Arc<dyn GraphStore>> {
        match &self.repr {
            Repr::InRam(_) => None,
            Repr::Paged(p) => Some(&p.store),
        }
    }

    /// Paging telemetry, if this graph is backed by a paged store
    /// (`None` for in-RAM, which has nothing to page).
    pub fn storage_stats(&self) -> Option<StorageStats> {
        match &self.repr {
            Repr::InRam(_) => None,
            Repr::Paged(p) => Some(p.store.storage_stats()),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        match &self.repr {
            Repr::InRam(g) => g.node_weights.len(),
            Repr::Paged(p) => p.store.node_count(),
        }
    }

    /// Number of directed edges (after coalescing).
    pub fn edge_count(&self) -> usize {
        match &self.repr {
            Repr::InRam(g) => g.fwd_targets.len(),
            Repr::Paged(p) => p.store.edge_count(),
        }
    }

    /// The prestige weight of a node (§2.2 node weight).
    #[inline]
    pub fn node_weight(&self, node: NodeId) -> f64 {
        match &self.repr {
            Repr::InRam(g) => g.node_weights[node.index()],
            Repr::Paged(p) => p.store.node_weight(node.0),
        }
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Outgoing edges of `node` as `(target, weight)`, copied out of
    /// the adjacency view so they may be held across further reads.
    pub fn out_edges(&self, node: NodeId) -> impl ExactSizeIterator<Item = (NodeId, f64)> {
        self.with_out_adjacency(node, edge_list).into_iter()
    }

    /// Incoming edges of `node` as `(source, weight)`.
    #[cfg(test)]
    pub(crate) fn in_edges(&self, node: NodeId) -> impl ExactSizeIterator<Item = (NodeId, f64)> {
        self.with_in_adjacency(node, edge_list).into_iter()
    }

    /// Call `f` on the outgoing adjacency of `node`: targets, weights
    /// and log-mode edge scores — the allocation-free view the search
    /// kernel's relaxation loop and the scorer read (through a query's
    /// [`GraphReader`]) — and return what `f` returns.
    ///
    /// The view lives only as long as the call: a paged graph looks the
    /// node's segment up in the page cache and holds it for exactly that
    /// long, whatever other reads `f` makes or the cache evicts
    /// meanwhile. On either backend `f` runs on the lanes directly, with
    /// no dynamic dispatch.
    #[inline]
    pub fn with_out_adjacency<R>(&self, node: NodeId, f: impl FnOnce(Adjacency<'_>) -> R) -> R {
        self.with_adjacency(true, node, f)
    }

    /// Call `f` on the incoming adjacency of `node`: sources and
    /// weights. See [`Graph::with_out_adjacency`].
    #[inline]
    pub fn with_in_adjacency<R>(&self, node: NodeId, f: impl FnOnce(Adjacency<'_>) -> R) -> R {
        self.with_adjacency(false, node, f)
    }

    /// [`Graph::with_out_adjacency`] (`forward`) or
    /// [`Graph::with_in_adjacency`].
    #[inline]
    pub(crate) fn with_adjacency<R>(
        &self,
        forward: bool,
        node: NodeId,
        f: impl FnOnce(Adjacency<'_>) -> R,
    ) -> R {
        GraphReader::from(self).with_adjacency(forward, node, f)
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.with_out_adjacency(node, |adjacency| adjacency.len())
    }

    /// In-degree of `node`.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.with_in_adjacency(node, |adjacency| adjacency.len())
    }

    /// Weight of the directed edge `(from, to)`, if present.
    ///
    /// Binary search over the (sorted) forward adjacency of `from`.
    pub fn edge_weight(&self, from: NodeId, to: NodeId) -> Option<f64> {
        self.with_out_adjacency(from, |adjacency| {
            let i = adjacency.ids().binary_search(&to.0).ok()?;
            Some(adjacency.weight(i))
        })
    }

    /// Smallest strictly-positive edge weight — the `w_min` normalizer of
    /// the paper's edge score (§2.3). Infinity for an edgeless graph.
    pub fn min_edge_weight(&self) -> f64 {
        match &self.repr {
            Repr::InRam(g) => g.min_edge_weight,
            Repr::Paged(p) => p.store.min_edge_weight(),
        }
    }

    /// Largest node weight — the `w_max` normalizer of the node score
    /// (§2.3). Zero for an empty graph.
    pub fn max_node_weight(&self) -> f64 {
        match &self.repr {
            Repr::InRam(g) => g.max_node_weight,
            Repr::Paged(p) => p.store.max_node_weight(),
        }
    }

    /// Actual heap footprint of the graph, in bytes. For the in-RAM
    /// backend this is the full CSR array size, reproducing the §5.2
    /// space measurement; for a paged backend it is the *resident*
    /// footprint (decoded segments plus directories), not the full
    /// decoded size.
    pub fn memory_bytes(&self) -> usize {
        match &self.repr {
            Repr::InRam(g) => g.memory_bytes(),
            Repr::Paged(p) => p.store.memory_bytes(),
        }
    }
}

/// A [`Graph`] read on behalf of one query: its paged reads go through
/// the query's page table, so each segment is looked up in the page
/// cache once per query and every later read of it is a slot load with
/// no lock, hash, atomic read-modify-write or virtual call. The view
/// is then lent to the closure monomorphically, as on an in-RAM graph.
///
/// [`SearchArena::with_reader`](crate::SearchArena::with_reader) makes
/// one; a reader made `from` a bare `&Graph` has no table and reads like
/// [`Graph::with_out_adjacency`], one lookup per read. On an in-RAM
/// graph both read the CSR lanes.
#[derive(Debug, Clone, Copy)]
pub struct GraphReader<'q> {
    graph: &'q Graph,
    pages: Option<&'q PageTable>,
}

impl<'q> From<&'q Graph> for GraphReader<'q> {
    fn from(graph: &'q Graph) -> GraphReader<'q> {
        GraphReader { graph, pages: None }
    }
}

impl<'q> GraphReader<'q> {
    /// A reader filling `pages`, which must be sized for `graph`.
    pub(crate) fn new(graph: &'q Graph, pages: &'q PageTable) -> GraphReader<'q> {
        GraphReader {
            graph,
            pages: Some(pages),
        }
    }

    /// The graph read.
    #[inline]
    pub fn graph(&self) -> &'q Graph {
        self.graph
    }

    /// Call `f` on the forward (`forward`) or reverse adjacency of
    /// `node` and return what it returns (see
    /// [`Graph::with_out_adjacency`]).
    #[inline]
    pub fn with_adjacency<R>(
        &self,
        forward: bool,
        node: NodeId,
        f: impl FnOnce(Adjacency<'_>) -> R,
    ) -> R {
        match &self.graph.repr {
            Repr::InRam(g) => f(g.adjacency(forward, node)),
            Repr::Paged(p) => {
                let (seg, slot) = p.locate(forward, node.0);
                let load = || p.store.segment(forward, seg);
                match self.pages {
                    Some(pages) => f(pages.segment(slot, load).adjacency(node.0)),
                    None => f(load().adjacency(node.0)),
                }
            }
        }
    }

    /// Precomputed log-mode score (`log2(1 + w/w_min)`) of the directed
    /// edge `(from, to)`, provided the edge exists and its stored weight
    /// is bit-identical to `weight`. The weight check makes the lookup a
    /// drop-in for recomputation: a caller holding a weight that differs
    /// from the CSR's (e.g. a synthetic tree) falls back to computing,
    /// so results never depend on whether the lookup hit. One adjacency
    /// access answers it.
    #[inline]
    pub fn log_edge_score(&self, from: NodeId, to: NodeId, weight: f64) -> Option<f64> {
        self.with_adjacency(true, from, |adjacency| {
            let i = adjacency.ids().binary_search(&to.0).ok()?;
            (adjacency.weight(i).to_bits() == weight.to_bits()).then(|| adjacency.escore(i))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph, [NodeId; 4]) {
        // a → b → d, a → c → d
        let mut b = GraphBuilder::new();
        let na = b.add_node(1.0);
        let nb = b.add_node(2.0);
        let nc = b.add_node(3.0);
        let nd = b.add_node(4.0);
        b.add_edge(na, nb, 1.0);
        b.add_edge(na, nc, 2.0);
        b.add_edge(nb, nd, 3.0);
        b.add_edge(nc, nd, 4.0);
        (b.build(), [na, nb, nc, nd])
    }

    #[test]
    fn csr_adjacency_both_directions() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        let out_a: Vec<_> = g.out_edges(a).collect();
        assert_eq!(out_a, vec![(b, 1.0), (c, 2.0)]);
        let in_d: Vec<_> = g.in_edges(d).collect();
        assert_eq!(in_d, vec![(b, 3.0), (c, 4.0)]);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.out_degree(d), 0);
    }

    #[test]
    fn edge_weight_lookup() {
        let (g, [a, b, _c, d]) = diamond();
        assert_eq!(g.edge_weight(a, b), Some(1.0));
        assert_eq!(g.edge_weight(b, d), Some(3.0));
        assert_eq!(g.edge_weight(d, a), None);
    }

    #[test]
    fn duplicate_edges_keep_min_weight() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(1.0);
        let y = b.add_node(1.0);
        b.add_edge(x, y, 5.0);
        b.add_edge(x, y, 2.0);
        b.add_edge(x, y, 7.0);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(x, y), Some(2.0));
    }

    #[test]
    fn normalizers() {
        let (g, _) = diamond();
        assert_eq!(g.min_edge_weight(), 1.0);
        assert_eq!(g.max_node_weight(), 4.0);
        let empty = GraphBuilder::new().build();
        assert!(empty.min_edge_weight().is_infinite());
        assert_eq!(empty.max_node_weight(), 0.0);
        assert_eq!(empty.node_count(), 0);
    }

    #[test]
    fn memory_accounting_scales_with_size() {
        let (g, _) = diamond();
        let small = g.memory_bytes();
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..100).map(|_| b.add_node(1.0)).collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], 1.0);
        }
        let big = b.build().memory_bytes();
        assert!(big > small);
    }

    #[test]
    fn self_loops_and_isolated_nodes() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(1.0);
        let _iso = b.add_node(9.0);
        b.add_edge(x, x, 1.5);
        let g = b.build();
        assert_eq!(g.edge_weight(x, x), Some(1.5));
        assert_eq!(g.out_degree(NodeId(1)), 0);
        assert_eq!(g.max_node_weight(), 9.0);
    }

    #[test]
    fn precomputed_log_scores_match_recomputation() {
        let (g, [a, b, _c, d]) = diamond();
        for v in g.nodes() {
            let edges = g.with_out_adjacency(v, |adjacency| {
                (0..adjacency.len())
                    .map(|i| (adjacency.ids()[i], adjacency.weight(i), adjacency.escore(i)))
                    .collect::<Vec<_>>()
            });
            for (t, w, escore) in edges {
                let expect = (1.0 + w / g.min_edge_weight()).log2();
                assert_eq!(escore.to_bits(), expect.to_bits());
                assert_eq!(
                    GraphReader::from(&g)
                        .log_edge_score(v, NodeId(t), w)
                        .map(f64::to_bits),
                    Some(expect.to_bits())
                );
                // A weight that differs even in the last bit misses.
                assert_eq!(
                    GraphReader::from(&g).log_edge_score(v, NodeId(t), w + 1e-9),
                    None
                );
            }
        }
        assert_eq!(
            GraphReader::from(&g).log_edge_score(d, a, 1.0),
            None,
            "absent edge"
        );
        // The views agree with the owned edge iterators.
        for v in [a, b, d] {
            let out = g.with_out_adjacency(v, edge_list);
            assert_eq!(out, g.out_edges(v).collect::<Vec<_>>());
            let inc = g.with_in_adjacency(v, edge_list);
            assert_eq!(inc, g.in_edges(v).collect::<Vec<_>>());
        }
        // Edgeless graphs degenerate to empty views.
        let mut eb = GraphBuilder::new();
        let lone = eb.add_node(1.0);
        assert!(eb
            .build()
            .with_out_adjacency(lone, |adjacency| adjacency.is_empty()));
    }

    #[test]
    fn set_node_weight_applies() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(1.0);
        b.set_node_weight(x, 10.0);
        let g = b.build();
        assert_eq!(g.node_weight(x), 10.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_edges() -> impl Strategy<Value = (usize, Vec<(usize, usize, u32)>)> {
            (2usize..20).prop_flat_map(|n| {
                (
                    Just(n),
                    proptest::collection::vec((0..n, 0..n, 1u32..9), 0..60),
                )
            })
        }

        proptest! {
            /// CSR construction preserves the edge multiset (after
            /// min-coalescing): forward and reverse adjacency agree, and
            /// `edge_weight` returns the minimum weight of parallel edges.
            #[test]
            fn csr_faithful_to_input((n, edges) in arb_edges()) {
                let mut b = GraphBuilder::with_capacity(n, edges.len());
                let ids: Vec<_> = (0..n).map(|i| b.add_node(i as f64)).collect();
                for &(f, t, w) in &edges {
                    b.add_edge(ids[f], ids[t], w as f64);
                }
                let g = b.build();

                // Expected: min weight per distinct (from, to).
                let mut expected: std::collections::BTreeMap<(usize, usize), f64> =
                    std::collections::BTreeMap::new();
                for &(f, t, w) in &edges {
                    let e = expected.entry((f, t)).or_insert(f64::INFINITY);
                    *e = e.min(w as f64);
                }
                prop_assert_eq!(g.edge_count(), expected.len());
                for (&(f, t), &w) in &expected {
                    prop_assert_eq!(g.edge_weight(ids[f], ids[t]), Some(w));
                }
                // Forward and reverse views carry the same edges.
                let mut fwd: Vec<(usize, usize, u64)> = Vec::new();
                let mut rev: Vec<(usize, usize, u64)> = Vec::new();
                for v in g.nodes() {
                    for (t, w) in g.out_edges(v) {
                        fwd.push((v.index(), t.index(), w.to_bits()));
                    }
                    for (s, w) in g.in_edges(v) {
                        rev.push((s.index(), v.index(), w.to_bits()));
                    }
                }
                fwd.sort_unstable();
                rev.sort_unstable();
                prop_assert_eq!(fwd, rev);
                // Degree sums match the edge count.
                let out_sum: usize = g.nodes().map(|v| g.out_degree(v)).sum();
                let in_sum: usize = g.nodes().map(|v| g.in_degree(v)).sum();
                prop_assert_eq!(out_sum, g.edge_count());
                prop_assert_eq!(in_sum, g.edge_count());
            }

            /// min_edge_weight is the smallest positive weight present.
            #[test]
            fn min_edge_weight_correct((n, edges) in arb_edges()) {
                let mut b = GraphBuilder::new();
                let ids: Vec<_> = (0..n).map(|_| b.add_node(1.0)).collect();
                for &(f, t, w) in &edges {
                    b.add_edge(ids[f], ids[t], w as f64);
                }
                let g = b.build();
                let expected = edges
                    .iter()
                    .map(|&(_, _, w)| w as f64)
                    .fold(f64::INFINITY, f64::min);
                prop_assert_eq!(g.min_edge_weight(), expected);
            }
        }
    }
}
