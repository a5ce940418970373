//! The BANKS data graph: every node's forward and reverse adjacency,
//! held in dictionary-coded segments.
//!
//! A [`Graph`] maps node `v` to segment `v / seg_span` of each direction
//! and takes that segment from its [`GraphStore`]: a [`ResidentStore`]
//! holding every segment for the graph's life (what
//! [`GraphBuilder::build`], [`GraphPatch::apply`](crate::GraphPatch::apply)
//! and a non-paged bundle load produce), or a pluggable out-of-core store
//! such as the segment-paged store in `banks-pager`. The search kernel
//! and every other caller see a single `Graph` type and one read path
//! either way.

use crate::arena::PageTable;
use crate::store::{Adjacency, GraphStore, ResidentStore, StorageStats, DEFAULT_SEG_SPAN};
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

    /// Freeze into an immutable graph held in RAM.
    pub fn build(self) -> Graph {
        self.build_at(DEFAULT_SEG_SPAN)
    }

    /// [`GraphBuilder::build`] with `span` nodes per segment.
    pub(crate) fn build_at(mut self, span: u32) -> Graph {
        // Coalesce parallel edges, keeping the minimum weight.
        self.edges
            .sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        self.edges.dedup_by(|next, prev| {
            // `prev` is kept; because of the sort it carries the min weight.
            next.0 == prev.0 && next.1 == prev.1
        });
        Graph::from_sorted_edges(self.node_weights, &self.edges, span)
    }
}

/// An immutable directed graph with both forward and reverse adjacency,
/// so the backward expanding search can traverse edges in reverse at the
/// same cost as forward.
///
/// Backed by a [`GraphStore`] of coded segments, resident or paged. An
/// adjacency list is read inside a closure
/// ([`Graph::with_out_adjacency`], [`Graph::with_in_adjacency`]), so a
/// view never outlives the segment it borrows from (see [`crate::store`]).
/// Cloning shares the store.
#[derive(Debug, Clone)]
pub struct Graph {
    store: Arc<dyn GraphStore>,
    nodes: u32,
    /// Nodes per segment.
    span: u32,
    /// Segments per direction.
    segs: u32,
}

/// The edges of a view as `(neighbour, weight)` pairs.
fn edge_list(adjacency: Adjacency<'_>) -> Vec<(NodeId, f64)> {
    adjacency.iter().map(|(id, w)| (NodeId(id), w)).collect()
}

impl Graph {
    /// Hold the segments of edges that are **already sorted by
    /// `(from, to)` with no duplicate pairs**, `span` nodes per segment
    /// — the shared final step of [`GraphBuilder::build`] and of the
    /// O(m) in-RAM merge of [`crate::patch::GraphPatch::apply`], which
    /// produces its merged edge stream in sorted order and must not pay
    /// a global re-sort.
    pub(crate) fn from_sorted_edges(
        node_weights: Vec<f64>,
        edges: &[(u32, u32, f64)],
        span: u32,
    ) -> Graph {
        Graph::from_store(Arc::new(ResidentStore::from_sorted_edges(
            node_weights,
            edges,
            span,
        )))
    }

    /// Wrap a storage backend as a [`Graph`]. Every accessor reads
    /// through `store`; the search kernel runs against it unchanged.
    pub fn from_store(store: Arc<dyn GraphStore>) -> Graph {
        let nodes = u32::try_from(store.node_count()).expect("more than u32::MAX nodes");
        let span = store.seg_span();
        assert!(span > 0, "a graph store has a positive segment span");
        Graph {
            nodes,
            span,
            segs: nodes.div_ceil(span),
            store,
        }
    }

    /// The segment holding `node`'s lists, and its [`PageTable`] slot in
    /// direction `forward` (forward segments first, then reverse).
    #[inline]
    fn locate(&self, forward: bool, node: u32) -> (u32, usize) {
        assert!(node < self.nodes, "node out of range");
        let seg = node / self.span;
        let slot = if forward { seg } else { self.segs + seg };
        (seg, slot as usize)
    }

    /// Slots a [`PageTable`] needs for this graph: one per segment and
    /// direction.
    pub(crate) fn page_slots(&self) -> usize {
        2 * self.segs as usize
    }

    /// The storage backend. Used by the ingest pipeline to route patches
    /// through the backend's copy-on-write path.
    pub fn store(&self) -> &Arc<dyn GraphStore> {
        &self.store
    }

    /// Paging telemetry, if this graph is backed by a paged store
    /// (`None` for a resident one, which has nothing to page).
    pub fn storage_stats(&self) -> Option<StorageStats> {
        self.store.storage_stats()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes as usize
    }

    /// Number of directed edges (after coalescing).
    pub fn edge_count(&self) -> usize {
        self.store.edge_count()
    }

    /// The prestige weight of a node (§2.2 node weight).
    #[inline]
    pub fn node_weight(&self, node: NodeId) -> f64 {
        self.store.node_weight(node.0)
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes).map(NodeId)
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
    /// The view lives only as long as the call: the graph takes the
    /// node's segment from its store (one page-cache lookup when paged)
    /// and holds it for exactly that long, whatever other reads `f`
    /// makes or a paged cache evicts meanwhile. `f` runs on the coded
    /// lanes directly, with no dynamic dispatch.
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
        self.store.min_edge_weight()
    }

    /// Largest node weight — the `w_max` normalizer of the node score
    /// (§2.3). Zero for an empty graph.
    pub fn max_node_weight(&self) -> f64 {
        self.store.max_node_weight()
    }

    /// Heap footprint of the graph, in bytes: for a resident store every
    /// coded segment plus the node weights, reproducing the §5.2 space
    /// measurement; for a paged backend the *resident* footprint
    /// (segments in its cache plus directories), not the full decoded
    /// size.
    pub fn memory_bytes(&self) -> usize {
        self.store.memory_bytes()
    }
}

/// A [`Graph`] read on behalf of one query: its reads go through the
/// query's page table, so each segment is taken from the store (looked
/// up in the page cache, when paged) once per query and every later read
/// of it is a slot load with no lock, hash, atomic read-modify-write or
/// virtual call. The view is then lent to the closure monomorphically.
///
/// [`SearchArena::with_reader`](crate::SearchArena::with_reader) makes
/// one; a reader made `from` a bare `&Graph` has no table and reads like
/// [`Graph::with_out_adjacency`], one store read per adjacency read.
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
        let (seg, slot) = self.graph.locate(forward, node.0);
        let load = || self.graph.store.segment(forward, seg);
        match self.pages {
            Some(pages) => f(pages.segment(slot, load).adjacency(node.0)),
            None => f(load().adjacency(node.0)),
        }
    }

    /// Precomputed log-mode score (`log2(1 + w/w_min)`) of the directed
    /// edge `(from, to)`, provided the edge exists and its stored weight
    /// is bit-identical to `weight`. The weight check makes the lookup a
    /// drop-in for recomputation: a caller holding a weight that differs
    /// from the graph's (e.g. a synthetic tree) falls back to computing,
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
        use std::collections::BTreeMap;

        fn arb_edges() -> impl Strategy<Value = (usize, Vec<(usize, usize, u32)>)> {
            (2usize..20).prop_flat_map(|n| {
                (
                    Just(n),
                    proptest::collection::vec((0..n, 0..n, 1u32..9), 0..60),
                )
            })
        }

        proptest! {
            /// Building keeps the edge set (after min-coalescing) in both
            /// directions at any segment span: each node's forward and
            /// reverse lists, its degrees, its weights and its edge-score
            /// bits equal an edge oracle's, and `edge_weight` returns the
            /// minimum weight of parallel edges.
            #[test]
            fn segments_match_an_edge_oracle(
                (n, edges) in arb_edges(),
                span in prop_oneof![1u32..8, Just(DEFAULT_SEG_SPAN)],
            ) {
                let mut b = GraphBuilder::with_capacity(n, edges.len());
                let ids: Vec<_> = (0..n).map(|i| b.add_node(i as f64)).collect();
                for &(f, t, w) in &edges {
                    b.add_edge(ids[f], ids[t], w as f64);
                }
                let g = b.build_at(span);

                // The oracle: min weight per distinct (from, to).
                let mut oracle: BTreeMap<(u32, u32), f64> = BTreeMap::new();
                for &(f, t, w) in &edges {
                    let e = oracle.entry((f as u32, t as u32)).or_insert(f64::INFINITY);
                    *e = e.min(w as f64);
                }
                let w_min = oracle.values().copied().fold(f64::INFINITY, f64::min);
                prop_assert_eq!(g.edge_count(), oracle.len());
                prop_assert_eq!(g.min_edge_weight(), w_min);
                for (&(f, t), &w) in &oracle {
                    prop_assert_eq!(g.edge_weight(NodeId(f), NodeId(t)), Some(w));
                }
                let bits = |adjacency: Adjacency<'_>, scored: bool| -> Vec<(u32, u64, u64)> {
                    (0..adjacency.len())
                        .map(|i| {
                            let escore = if scored { adjacency.escore(i).to_bits() } else { 0 };
                            (adjacency.ids()[i], adjacency.weight(i).to_bits(), escore)
                        })
                        .collect()
                };
                for v in g.nodes() {
                    let out: Vec<(u32, u64, u64)> = oracle
                        .range((v.0, 0)..=(v.0, u32::MAX))
                        .map(|(&(_, t), &w)| (t, w.to_bits(), (1.0 + w / w_min).log2().to_bits()))
                        .collect();
                    let inc: Vec<(u32, u64, u64)> = oracle
                        .iter()
                        .filter(|(&(_, t), _)| t == v.0)
                        .map(|(&(f, _), &w)| (f, w.to_bits(), 0))
                        .collect();
                    prop_assert_eq!(g.out_degree(v), out.len());
                    prop_assert_eq!(g.in_degree(v), inc.len());
                    prop_assert_eq!(g.with_out_adjacency(v, |adj| bits(adj, true)), out);
                    prop_assert_eq!(g.with_in_adjacency(v, |adj| bits(adj, false)), inc);
                }
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
