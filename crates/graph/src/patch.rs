//! Incremental patching of an immutable [`Graph`] — the mutable
//! counterpart of [`GraphBuilder`](crate::GraphBuilder) for graphs that
//! evolve under live ingestion.
//!
//! A [`GraphPatch`] describes the difference between an old snapshot and
//! its successor as three pieces:
//!
//! 1. a **monotone node remap** — every surviving old node keeps its
//!    relative order (tuple scan order is append-only per relation, so
//!    deletions only shift ids down and insertions splice new ids in);
//! 2. the complete **new node weight vector** (callers recompute weights
//!    only for touched nodes and copy the rest through);
//! 3. a set of **dirty pairs** with replacement edges: ordered node
//!    pairs whose edge (weight) may have changed. Edges of the old graph
//!    on clean pairs are copied through untouched.
//!
//! [`GraphPatch::apply`] exploits the monotone remap: the old graph's
//! edges stream out already sorted by `(from, to)` after remapping, the
//! (small) replacement set is sorted on its own, and a linear merge
//! fills the new graph's resident segments of both directions straight
//! from the merged list — so a patch costs O(m + r log r) with no
//! per-edge hashing of tuples and **no global re-sort**, where `r` is
//! the number of replacement edges. That is the asymptotic edge a
//! delta-apply has over a from-scratch rebuild, which pays foreign-key
//! resolution (hash lookups on composite keys) per edge plus an
//! O(m log m) sort. A paged graph is first offered the patch
//! copy-on-write (see [`GraphPatch::apply`]).

use crate::graph::{Graph, NodeId};
use crate::store::DEFAULT_SEG_SPAN;
use banks_util::fxhash::FxHashSet;

/// A pending incremental update of a [`Graph`]. See the module docs.
#[derive(Debug, Clone)]
pub struct GraphPatch {
    /// `remap[old_id]` = new id, or `None` when the node was removed.
    /// Must be strictly increasing over the `Some` entries.
    remap: Vec<Option<u32>>,
    /// Weight of every node of the **new** graph.
    new_node_weights: Vec<f64>,
    /// New-id pairs excluded from the copy-through; their edges (if any)
    /// come exclusively from `replacements`.
    dirty: FxHashSet<(u32, u32)>,
    /// Replacement edges, in new-id space. Every pair here is dirty.
    replacements: Vec<(u32, u32, f64)>,
}

impl GraphPatch {
    /// Start a patch. `remap` maps every old node id to its new id (or
    /// `None` for removed nodes) and must be monotone on surviving
    /// nodes; `new_node_weights` carries the weight of every node of
    /// the target graph, including brand-new ones.
    pub fn new(remap: Vec<Option<u32>>, new_node_weights: Vec<f64>) -> GraphPatch {
        debug_assert!(
            remap
                .iter()
                .filter_map(|m| *m)
                .collect::<Vec<_>>()
                .windows(2)
                .all(|w| w[0] < w[1]),
            "node remap must be strictly increasing on surviving nodes"
        );
        debug_assert!(remap
            .iter()
            .flatten()
            .all(|&v| (v as usize) < new_node_weights.len()));
        GraphPatch {
            remap,
            new_node_weights,
            dirty: FxHashSet::default(),
            replacements: Vec::new(),
        }
    }

    /// Mark the ordered pair `(from, to)` (new-id space) as dirty: any
    /// old edge on it is dropped, and only edges supplied via
    /// [`GraphPatch::set_edge`] survive. Marking a pair without setting
    /// an edge deletes the edge.
    pub fn mark_dirty(&mut self, from: NodeId, to: NodeId) {
        self.dirty.insert((from.0, to.0));
    }

    /// Provide the edge for a (necessarily dirty) pair in new-id space.
    /// Implies [`GraphPatch::mark_dirty`]. Supplying the same pair twice
    /// keeps the minimum weight, matching
    /// [`GraphBuilder`](crate::GraphBuilder) coalescing.
    pub fn set_edge(&mut self, from: NodeId, to: NodeId, weight: f64) {
        debug_assert!(weight.is_finite() && weight >= 0.0, "bad edge weight");
        self.mark_dirty(from, to);
        self.replacements.push((from.0, to.0, weight));
    }

    /// Number of dirty pairs so far (diagnostics).
    pub fn dirty_pairs(&self) -> usize {
        self.dirty.len()
    }

    /// Weight of every node of the **new** graph. Exposed (with the
    /// other read accessors below) so a
    /// [`GraphStore`](crate::store::GraphStore) backend can apply the
    /// patch copy-on-write without materializing the old graph.
    pub fn new_node_weights(&self) -> &[f64] {
        &self.new_node_weights
    }

    /// Whether the ordered pair `(from, to)` (new-id space) is dirty.
    pub fn is_dirty(&self, from: u32, to: u32) -> bool {
        self.dirty.contains(&(from, to))
    }

    /// Iterate the dirty pairs in new-id space (arbitrary order).
    pub fn dirty(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.dirty.iter().copied()
    }

    /// The replacement edges in new-id space. Sorted by `(from, to)` and
    /// min-coalesced once [`GraphPatch::apply`] has normalized the patch
    /// (which it does before consulting any storage backend); in raw
    /// insertion order before that.
    pub fn replacements(&self) -> &[(u32, u32, f64)] {
        &self.replacements
    }

    /// True when the remap is the identity on all old nodes (possibly
    /// followed by appended new nodes) — the shape ingest produces for
    /// pure insert/update batches, and the shape a paged backend can
    /// patch segment-by-segment without renumbering.
    pub fn remap_is_identity_extend(&self) -> bool {
        self.remap
            .iter()
            .enumerate()
            .all(|(i, m)| *m == Some(i as u32))
    }

    /// Sort + min-coalesce the replacement set (small), making
    /// [`GraphPatch::replacements`] canonical.
    fn normalize(&mut self) {
        self.replacements
            .sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        self.replacements
            .dedup_by(|next, prev| next.0 == prev.0 && next.1 == prev.1);
    }

    /// Produce the patched graph.
    ///
    /// The patch is first offered to `old`'s [`GraphStore::apply_patch`]
    /// (a paged backend's copy-on-write fast path); if the backend
    /// declines, the merge runs in RAM and the result is handed to
    /// [`GraphStore::reencode`], so a paged graph's successor stays paged
    /// and a resident graph's successor is the resident merge.
    ///
    /// [`GraphStore::apply_patch`]: crate::store::GraphStore::apply_patch
    /// [`GraphStore::reencode`]: crate::store::GraphStore::reencode
    pub fn apply(mut self, old: &Graph) -> Graph {
        assert_eq!(
            self.remap.len(),
            old.node_count(),
            "remap must cover every old node"
        );
        self.normalize();
        let store = old.store();
        if let Some(patched) = store.apply_patch(&self) {
            return patched;
        }
        let patched = self.apply_in_ram(old);
        match store.reencode(&patched) {
            Some(reencoded) => Graph::from_store(reencoded),
            None => patched,
        }
    }

    /// The in-RAM merge: stream the old graph's edges against the
    /// (normalized) replacement set. Works on any backend — a paged
    /// `old` decodes each node's adjacency on the fly — but always
    /// produces a resident graph.
    fn apply_in_ram(self, old: &Graph) -> Graph {
        // Copy-through stream: old edges remapped, dead endpoints and
        // dirty pairs dropped. Monotone remap ⇒ still sorted.
        let mut merged: Vec<(u32, u32, f64)> =
            Vec::with_capacity(old.edge_count() + self.replacements.len());
        let mut repl = self.replacements.into_iter().peekable();
        for from_old in old.nodes() {
            let Some(from_new) = self.remap[from_old.index()] else {
                continue;
            };
            old.with_out_adjacency(from_old, |adjacency| {
                adjacency.for_each(|to_old, w| {
                    let Some(to_new) = self.remap[to_old as usize] else {
                        return;
                    };
                    if self.dirty.contains(&(from_new, to_new)) {
                        return;
                    }
                    // Splice in any replacement edges ordered before this one.
                    while repl
                        .peek()
                        .is_some_and(|&(f, t, _)| (f, t) < (from_new, to_new))
                    {
                        merged.push(repl.next().expect("peeked"));
                    }
                    debug_assert!(
                        repl.peek()
                            .is_none_or(|&(f, t, _)| (f, t) != (from_new, to_new)),
                        "replacement edges must target dirty pairs only"
                    );
                    merged.push((from_new, to_new, w));
                });
            });
        }
        merged.extend(repl);
        Graph::from_sorted_edges(self.new_node_weights, &merged, DEFAULT_SEG_SPAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// Old graph: 5 nodes in a ring plus a chord, distinct weights.
    fn ring() -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..5).map(|i| b.add_node(i as f64)).collect();
        for i in 0..5 {
            b.add_edge(n[i], n[(i + 1) % 5], 1.0 + i as f64);
        }
        b.add_edge(n[0], n[3], 9.0);
        b.build()
    }

    fn edges_of(g: &Graph) -> Vec<(u32, u32, f64)> {
        let mut out = Vec::new();
        for v in g.nodes() {
            for (t, w) in g.out_edges(v) {
                out.push((v.0, t.0, w));
            }
        }
        out
    }

    #[test]
    fn identity_patch_reproduces_graph() {
        let g = ring();
        let remap = (0..g.node_count() as u32).map(Some).collect();
        let weights = g.nodes().map(|v| g.node_weight(v)).collect();
        let h = GraphPatch::new(remap, weights).apply(&g);
        assert_eq!(edges_of(&g), edges_of(&h));
        assert_eq!(g.min_edge_weight(), h.min_edge_weight());
        assert_eq!(g.max_node_weight(), h.max_node_weight());
    }

    #[test]
    fn node_removal_shifts_ids_and_drops_incident_edges() {
        let g = ring();
        // Remove node 2: nodes 3, 4 shift down.
        let remap = vec![Some(0), Some(1), None, Some(2), Some(3)];
        let weights = vec![0.0, 1.0, 3.0, 4.0];
        let h = GraphPatch::new(remap, weights).apply(&g);
        assert_eq!(h.node_count(), 4);
        // Surviving edges: 0→1 (1.0), 3→4→0 are now 2→3 (4.0), 3→0 (5.0),
        // chord 0→3 was 0→old3 = new 2 (9.0). Edges 1→2 and 2→3 died.
        assert_eq!(
            edges_of(&h),
            vec![(0, 1, 1.0), (0, 2, 9.0), (2, 3, 4.0), (3, 0, 5.0)]
        );
    }

    #[test]
    fn node_addition_and_edge_replacement() {
        let g = ring();
        let remap: Vec<Option<u32>> = (0..5).map(Some).collect();
        let mut weights: Vec<f64> = (0..5).map(|i| i as f64).collect();
        weights.push(42.0); // new node 5
        let mut p = GraphPatch::new(remap, weights);
        // Reweight 0→1, delete the chord 0→3, wire the new node in.
        p.set_edge(NodeId(0), NodeId(1), 0.5);
        p.mark_dirty(NodeId(0), NodeId(3));
        p.set_edge(NodeId(5), NodeId(0), 2.0);
        p.set_edge(NodeId(2), NodeId(5), 3.0);
        assert_eq!(p.dirty_pairs(), 4);
        let h = p.apply(&g);
        assert_eq!(h.node_count(), 6);
        assert_eq!(h.node_weight(NodeId(5)), 42.0);
        assert_eq!(
            edges_of(&h),
            vec![
                (0, 1, 0.5),
                (1, 2, 2.0),
                (2, 3, 3.0),
                (2, 5, 3.0),
                (3, 4, 4.0),
                (4, 0, 5.0),
                (5, 0, 2.0),
            ]
        );
        // Reverse adjacency stays consistent.
        let in0: Vec<_> = h.in_edges(NodeId(0)).map(|(s, w)| (s.0, w)).collect();
        assert_eq!(in0, vec![(4, 5.0), (5, 2.0)]);
    }

    #[test]
    fn set_edge_coalesces_min_like_builder() {
        let g = ring();
        let remap: Vec<Option<u32>> = (0..5).map(Some).collect();
        let weights: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let mut p = GraphPatch::new(remap, weights);
        p.set_edge(NodeId(0), NodeId(1), 7.0);
        p.set_edge(NodeId(0), NodeId(1), 3.0);
        p.set_edge(NodeId(0), NodeId(1), 5.0);
        let h = p.apply(&g);
        assert_eq!(h.edge_weight(NodeId(0), NodeId(1)), Some(3.0));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// `(n, base edges, keep mask, appended nodes, replacements)`.
        type Case = (
            usize,
            Vec<(usize, usize, u32)>,
            Vec<bool>,
            usize,
            Vec<(usize, usize, u32)>,
        );

        /// Random base edges, a removal mask, and replacement edges.
        fn arb_case() -> impl Strategy<Value = Case> {
            (3usize..12).prop_flat_map(|n| {
                (
                    Just(n),
                    proptest::collection::vec((0..n, 0..n, 1u32..9), 0..40),
                    proptest::collection::vec(proptest::bool::ANY, n),
                    0usize..4, // nodes appended
                    proptest::collection::vec((0..n + 4, 0..n + 4, 1u32..9), 0..15),
                )
            })
        }

        proptest! {
            /// A patch (remove masked nodes, append new ones, replace a
            /// set of pairs) produces exactly the graph a from-scratch
            /// builder produces from the equivalent edge list.
            #[test]
            fn patch_equals_rebuild((n, base, keep, added, repl) in arb_case()) {
                let mut b = GraphBuilder::new();
                let ids: Vec<_> = (0..n).map(|i| b.add_node(i as f64)).collect();
                for &(f, t, w) in &base {
                    b.add_edge(ids[f], ids[t], w as f64);
                }
                let old = b.build();

                // Remap: surviving old nodes in order, then new nodes.
                let mut remap: Vec<Option<u32>> = Vec::with_capacity(n);
                let mut next = 0u32;
                for &k in &keep {
                    remap.push(if k { let v = next; next += 1; Some(v) } else { None });
                }
                let new_n = next as usize + added;
                let weights: Vec<f64> = (0..new_n).map(|i| i as f64 * 0.5).collect();

                // Replacement pairs in new-id space, valid ids only.
                let mut patch = GraphPatch::new(remap.clone(), weights.clone());
                let mut repl_pairs = std::collections::BTreeMap::new();
                for &(f, t, w) in &repl {
                    if f < new_n && t < new_n {
                        patch.set_edge(NodeId(f as u32), NodeId(t as u32), w as f64);
                        let e = repl_pairs.entry((f as u32, t as u32)).or_insert(f64::INFINITY);
                        *e = e.min(w as f64);
                    }
                }
                let patched = patch.apply(&old);

                // Expected: rebuild from surviving remapped edges with
                // replacement pairs overridden.
                let mut eb = GraphBuilder::new();
                for &w in &weights {
                    eb.add_node(w);
                }
                let mut expected_edges = std::collections::BTreeMap::new();
                for v in old.nodes() {
                    let Some(f) = remap[v.index()] else { continue };
                    for (t_old, w) in old.out_edges(v) {
                        let Some(t) = remap[t_old.index()] else { continue };
                        if !repl_pairs.contains_key(&(f, t)) {
                            expected_edges.insert((f, t), w);
                        }
                    }
                }
                expected_edges.extend(repl_pairs.iter().map(|(&k, &v)| (k, v)));
                for (&(f, t), &w) in &expected_edges {
                    eb.add_edge(NodeId(f), NodeId(t), w);
                }
                let expected = eb.build();

                prop_assert_eq!(patched.node_count(), expected.node_count());
                prop_assert_eq!(edges_of(&patched), edges_of(&expected));
                for v in expected.nodes() {
                    prop_assert_eq!(patched.node_weight(v), expected.node_weight(v));
                }
                prop_assert_eq!(patched.min_edge_weight(), expected.min_edge_weight());
                prop_assert_eq!(patched.max_node_weight(), expected.max_node_weight());
            }
        }
    }
}
