//! Lazy single-source shortest-path iterators.
//!
//! The backward expanding search of the paper (§3, Figure 3) runs one copy
//! of "Dijkstra's single source shortest path algorithm" per keyword node,
//! "run concurrently by creating an iterator interface to the shortest path
//! algorithm". [`Dijkstra`] is that iterator: each `next()` settles and
//! yields the nearest unsettled node; [`Dijkstra::peek_dist`] reports the
//! distance of the node `next()` would yield, which is the key the
//! iterator heap orders on.
//!
//! The iterator's working memory is a sparse [`DijkstraState`] — one
//! table entry per node it has touched, so an iterator that settles one
//! node costs one entry whatever the graph size — and the distance queue
//! is a 4-ary heap. Relaxing an edge probes the table once, and so does
//! settling a node; a settled node's queue slot is reused by its first
//! relaxation. States come
//! from a [`crate::SearchArena`] via [`Dijkstra::new_in`] so a long-lived
//! worker reuses their allocations; the plain [`Dijkstra::new`]
//! constructor starts from an empty state for callers that don't pool.

use crate::arena::{DijkstraState, NIL};
use crate::graph::{GraphReader, NodeId};

/// Which way the iterator walks the graph's edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges from source to target.
    Forward,
    /// Follow edges from target to source. Backward expanding search uses
    /// this: reaching node `u` from origin `o` at distance `d` proves a
    /// *forward* path `u → o` of weight `d`.
    Reverse,
}

/// One settled node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Visit {
    /// The settled node.
    pub node: NodeId,
    /// Shortest distance from the origin (along the traversal direction).
    pub dist: f64,
}

/// A lazy Dijkstra iterator with parent tracking for path reconstruction.
#[derive(Debug, Clone)]
pub struct Dijkstra<'g> {
    graph: GraphReader<'g>,
    origin: NodeId,
    direction: Direction,
    state: DijkstraState,
    /// Stop expanding past this distance (§3 needs only proximate answers;
    /// callers may bound the search).
    max_dist: f64,
    /// Stop after settling this many nodes.
    max_settled: usize,
}

impl<'g> Dijkstra<'g> {
    /// Start a shortest-path iteration from `origin` with a fresh state.
    /// Pooling callers use [`Dijkstra::new_in`].
    pub fn new(
        graph: impl Into<GraphReader<'g>>,
        origin: NodeId,
        direction: Direction,
    ) -> Dijkstra<'g> {
        Dijkstra::new_in(graph, origin, direction, DijkstraState::new())
    }

    /// Start a shortest-path iteration reusing `state` (typically checked
    /// out of a [`crate::SearchArena`]). The state is cleared first, so
    /// any block can serve any graph. `graph` is a `&Graph` or, in a
    /// search, the query's [`GraphReader`].
    pub fn new_in(
        graph: impl Into<GraphReader<'g>>,
        origin: NodeId,
        direction: Direction,
        mut state: DijkstraState,
    ) -> Dijkstra<'g> {
        state.reset();
        state.start(origin.0, 0.0);
        Dijkstra {
            graph: graph.into(),
            origin,
            direction,
            state,
            max_dist: f64::INFINITY,
            max_settled: usize::MAX,
        }
    }

    /// Give the state back (to be recycled into an arena).
    pub fn into_state(self) -> DijkstraState {
        self.state
    }

    /// Bound the search radius: nodes farther than `max_dist` are never
    /// yielded.
    pub fn with_max_dist(mut self, max_dist: f64) -> Self {
        self.max_dist = max_dist;
        self
    }

    /// Start the origin at a non-zero distance.
    ///
    /// Backward expanding search uses this for the §3 extension "the
    /// distance measure can be extended to include node weights of nodes
    /// matching keywords": a low-prestige keyword node is handicapped so
    /// iterators from prestigious origins expand (and connect) first.
    /// Must be called before the first `next()`/`peek_dist()`, and is
    /// idempotent: a repeat call simply replaces the pending start
    /// distance (the queue is rebuilt to exactly one origin entry, so no
    /// stale tentative entry can survive).
    ///
    /// # Panics
    ///
    /// If `dist` is negative (or `-0.0`): the state keeps its settled
    /// flags in the sign bit of non-negative distances.
    pub fn with_initial_dist(mut self, dist: f64) -> Self {
        assert!(dist.is_sign_positive(), "negative initial distance {dist}");
        debug_assert_eq!(self.state.settled_count(), 0, "origin already expanded");
        self.state.start(self.origin.0, dist);
        self
    }

    /// Bound the number of settled nodes.
    pub fn with_max_settled(mut self, max_settled: usize) -> Self {
        self.max_settled = max_settled;
        self
    }

    /// Number of nodes settled so far.
    #[cfg(test)]
    pub(crate) fn settled_count(&self) -> usize {
        self.state.settled_count()
    }

    /// Final distance of a settled node (`None` if not yet settled).
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        self.state.settled(node.0).map(|s| s.dist())
    }

    /// Heap bytes the iterator's node table and queue hold.
    pub fn state_bytes(&self) -> usize {
        self.state.retained_bytes()
    }

    /// Distance of the node the next `next()` call will yield, without
    /// consuming it. `None` when the iterator is exhausted.
    pub fn peek_dist(&mut self) -> Option<f64> {
        self.state.skim(self.max_dist, self.max_settled);
        self.state.heap.peek().map(|(dist, _)| dist)
    }

    /// [`Dijkstra::path_edges_into`] into a fresh buffer; `None` if
    /// `node` is unsettled.
    #[cfg(test)]
    pub(crate) fn path_edges(&self, node: NodeId) -> Option<Vec<(NodeId, NodeId, f64)>> {
        let mut edges = Vec::new();
        self.path_edges_into(node, &mut edges).then_some(edges)
    }

    /// Append the traversal path from `node` back to the origin to `out`
    /// as a list of `(from, to, weight)` *graph* edges (i.e. already
    /// oriented the way they exist in the graph, regardless of traversal
    /// direction). The cross-product enumerator reuses one buffer for
    /// every tree. Returns `false` — appending nothing — if `node` is
    /// unsettled.
    ///
    /// With `Direction::Reverse`, the edges form the forward path
    /// `node → … → origin`, which is exactly the root-to-leaf path of a
    /// BANKS connection tree.
    ///
    /// Each hop's weight is read back from the parent's adjacency: the
    /// first edge to the child whose `dist(parent) + w` equals the
    /// child's distance. That is the same float sum the relaxation
    /// computed, and relaxation replaces only on a strictly smaller
    /// distance, so the first edge reaching the minimum is exactly the
    /// one that set the child's parent.
    pub fn path_edges_into(&self, node: NodeId, out: &mut Vec<(NodeId, NodeId, f64)>) -> bool {
        let Some(mut entry) = self.state.settled(node.0) else {
            return false;
        };
        let mut cur = node.0;
        while cur != self.origin.0 {
            let prev = entry.parent;
            debug_assert_ne!(prev, NIL, "settled non-origin node must have a parent");
            let parent = self
                .state
                .settled(prev)
                .expect("a settled node's parent is settled");
            let w = self.hop_weight(prev, parent.dist(), cur, entry.dist());
            match self.direction {
                // Traversal relaxed prev→cur over a forward edge.
                Direction::Forward => out.push((NodeId(prev), NodeId(cur), w)),
                // Traversal relaxed prev→cur over a *reverse* view of the
                // graph edge cur→prev.
                Direction::Reverse => out.push((NodeId(cur), NodeId(prev), w)),
            }
            cur = prev;
            entry = parent;
        }
        true
    }

    /// Weight of the first edge `prev → cur` (in the traversal
    /// direction) with `prev_dist + w == cur_dist`.
    fn hop_weight(&self, prev: u32, prev_dist: f64, cur: u32, cur_dist: f64) -> f64 {
        self.graph
            .with_adjacency(
                self.direction == Direction::Forward,
                NodeId(prev),
                |adjacency| {
                    let neighbours = adjacency.ids();
                    // Adjacency is sorted by neighbour id.
                    let first = neighbours.partition_point(|&v| v < cur);
                    (first..neighbours.len())
                        .take_while(|&i| neighbours[i] == cur)
                        .map(|i| adjacency.weight(i))
                        .find(|&w| prev_dist + w == cur_dist)
                },
            )
            .expect("the parent edge reaches the settled distance")
    }
}

impl Iterator for Dijkstra<'_> {
    type Item = Visit;

    fn next(&mut self) -> Option<Visit> {
        let (dist, node, parent) = self.state.settle_next(self.max_dist, self.max_settled)?;

        // The settled entry is still the queue's top: the first
        // relaxation overwrites it, and it is popped only if none does.
        // The parent is settled, so no edge to it can relax; skipping it
        // saves the probe that would say so.
        let (graph, max_dist) = (self.graph, self.max_dist);
        let forward = self.direction == Direction::Forward;
        let state = &mut self.state;
        let top_taken = graph.with_adjacency(forward, NodeId(node), |adjacency| {
            let mut top_taken = false;
            adjacency.for_each(|next, w| {
                let cand = dist + w;
                if next != parent && cand <= max_dist && state.relax(next, cand, node) {
                    if top_taken {
                        state.heap.push(cand, next);
                    } else {
                        state.heap.replace_top(cand, next);
                        top_taken = true;
                    }
                }
            });
            top_taken
        });
        if !top_taken {
            state.heap.pop();
        }
        Some(Visit {
            node: NodeId(node),
            dist,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::SearchArena;
    use crate::graph::{Graph, GraphBuilder};
    use proptest::prelude::*;

    /// a →1 b →1 c →1 d, plus shortcut a →2.5 c
    fn chain() -> (Graph, [NodeId; 4]) {
        let mut b = GraphBuilder::new();
        let na = b.add_node(1.0);
        let nb = b.add_node(1.0);
        let nc = b.add_node(1.0);
        let nd = b.add_node(1.0);
        b.add_edge(na, nb, 1.0);
        b.add_edge(nb, nc, 1.0);
        b.add_edge(nc, nd, 1.0);
        b.add_edge(na, nc, 2.5);
        (b.build(), [na, nb, nc, nd])
    }

    #[test]
    fn forward_distances_nondecreasing_and_correct() {
        let (g, [a, b, c, d]) = chain();
        let visits: Vec<_> = Dijkstra::new(&g, a, Direction::Forward).collect();
        assert_eq!(
            visits,
            vec![
                Visit { node: a, dist: 0.0 },
                Visit { node: b, dist: 1.0 },
                Visit { node: c, dist: 2.0 },
                Visit { node: d, dist: 3.0 },
            ]
        );
    }

    #[test]
    fn reverse_traversal_finds_ancestors() {
        let (g, [a, b, c, d]) = chain();
        let visits: Vec<_> = Dijkstra::new(&g, d, Direction::Reverse).collect();
        let nodes: Vec<_> = visits.iter().map(|v| v.node).collect();
        assert_eq!(nodes, vec![d, c, b, a]);
        // a reaches d through b,c at total weight 3.
        assert_eq!(visits[3].dist, 3.0);
    }

    #[test]
    fn peek_matches_next() {
        let (g, [a, ..]) = chain();
        let mut it = Dijkstra::new(&g, a, Direction::Forward);
        loop {
            let peeked = it.peek_dist();
            match it.next() {
                Some(v) => assert_eq!(peeked, Some(v.dist)),
                None => {
                    assert_eq!(peeked, None);
                    break;
                }
            }
        }
    }

    #[test]
    fn path_edges_reverse_direction_returns_forward_edges() {
        let (g, [a, b, c, d]) = chain();
        let mut it = Dijkstra::new(&g, d, Direction::Reverse);
        it.by_ref().for_each(drop);
        // Path from a (settled) back to origin d: forward edges a→b→c→d.
        let path = it.path_edges(a).unwrap();
        assert_eq!(path, vec![(a, b, 1.0), (b, c, 1.0), (c, d, 1.0)]);
        // Origin's own path is empty.
        assert_eq!(it.path_edges(d).unwrap(), vec![]);
    }

    #[test]
    fn path_edges_unsettled_is_none() {
        let (g, [a, _b, _c, d]) = chain();
        let mut it = Dijkstra::new(&g, a, Direction::Forward);
        it.next(); // settles only a
        assert!(it.path_edges(d).is_none());
        let mut buf = vec![(a, a, 0.0)];
        assert!(!it.path_edges_into(d, &mut buf));
        assert_eq!(buf.len(), 1, "failed reconstruction appends nothing");
    }

    #[test]
    fn max_dist_bounds_search() {
        let (g, [a, ..]) = chain();
        let visits: Vec<_> = Dijkstra::new(&g, a, Direction::Forward)
            .with_max_dist(1.5)
            .collect();
        assert_eq!(visits.len(), 2, "only a and b are within 1.5");
    }

    #[test]
    fn max_settled_bounds_search() {
        let (g, [a, ..]) = chain();
        let visits: Vec<_> = Dijkstra::new(&g, a, Direction::Forward)
            .with_max_settled(2)
            .collect();
        assert_eq!(visits.len(), 2);
    }

    #[test]
    fn shortcut_not_taken_when_longer() {
        let (g, [a, _b, c, _d]) = chain();
        let mut it = Dijkstra::new(&g, a, Direction::Forward);
        it.by_ref().for_each(drop);
        // c is reached via b (dist 2.0), not the 2.5 shortcut.
        assert_eq!(it.distance(c), Some(2.0));
        let path = it.path_edges(c).unwrap();
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn disconnected_node_never_yielded() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(1.0);
        let _lonely = b.add_node(1.0);
        let g = b.build();
        let visits: Vec<_> = Dijkstra::new(&g, x, Direction::Forward).collect();
        assert_eq!(visits.len(), 1);
    }

    #[test]
    fn distance_query_only_for_settled() {
        let (g, [a, b, ..]) = chain();
        let mut it = Dijkstra::new(&g, a, Direction::Forward);
        assert_eq!(it.distance(a), None);
        it.next();
        assert_eq!(it.distance(a), Some(0.0));
        assert_eq!(it.distance(b), None);
        assert_eq!(it.settled_count(), 1);
    }

    #[test]
    fn initial_distance_offsets_everything() {
        let (g, [a, b, c, d]) = chain();
        let visits: Vec<_> = Dijkstra::new(&g, a, Direction::Forward)
            .with_initial_dist(10.0)
            .collect();
        assert_eq!(
            visits,
            vec![
                Visit {
                    node: a,
                    dist: 10.0
                },
                Visit {
                    node: b,
                    dist: 11.0
                },
                Visit {
                    node: c,
                    dist: 12.0
                },
                Visit {
                    node: d,
                    dist: 13.0
                },
            ]
        );
        // Paths are unaffected by the offset.
        let mut it = Dijkstra::new(&g, a, Direction::Forward).with_initial_dist(5.0);
        it.by_ref().for_each(drop);
        assert_eq!(it.path_edges(d).unwrap().len(), 3);
    }

    #[test]
    fn initial_distance_is_idempotent() {
        let (g, [a, b, ..]) = chain();
        // A repeat call replaces the pending start distance outright; no
        // stale entry from the first call survives in queue or state.
        let visits: Vec<_> = Dijkstra::new(&g, a, Direction::Forward)
            .with_initial_dist(10.0)
            .with_initial_dist(3.0)
            .collect();
        assert_eq!(visits[0], Visit { node: a, dist: 3.0 });
        assert_eq!(visits[1], Visit { node: b, dist: 4.0 });
        assert_eq!(visits.len(), 4);
    }

    #[test]
    fn zero_weight_edges_are_fine() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(1.0);
        let y = b.add_node(1.0);
        b.add_edge(x, y, 0.0);
        let g = b.build();
        let visits: Vec<_> = Dijkstra::new(&g, x, Direction::Forward).collect();
        assert_eq!(visits[1], Visit { node: y, dist: 0.0 });
    }

    type Edge = (NodeId, NodeId, f64);

    /// A plain Dijkstra that records, for each node, the index within
    /// its parent's adjacency of the edge that set it — the reference
    /// the slot-free reconstruction must reproduce edge for edge.
    fn slot_recording_paths(
        g: &Graph,
        origin: NodeId,
        direction: Direction,
        initial: f64,
    ) -> Vec<(NodeId, Vec<Edge>)> {
        let list = |v: u32| -> Vec<(u32, f64)> {
            g.with_adjacency(direction == Direction::Forward, NodeId(v), |adjacency| {
                adjacency.iter().collect()
            })
        };
        let n = g.node_count();
        let mut dist = vec![f64::INFINITY; n];
        // (parent, index of the edge within the parent's adjacency)
        let mut via: Vec<Option<(u32, usize)>> = vec![None; n];
        let mut settled = vec![false; n];
        let mut order = Vec::new();
        let mut queue = vec![(initial, origin.0)];
        dist[origin.index()] = initial;
        while !queue.is_empty() {
            let (i, _) = queue
                .iter()
                .enumerate()
                .fold((0, queue[0]), |best, (i, &e)| {
                    let better = e.0.total_cmp(&best.1 .0).then(e.1.cmp(&best.1 .1)).is_lt();
                    if better {
                        (i, e)
                    } else {
                        best
                    }
                });
            let (d, v) = queue.swap_remove(i);
            if settled[v as usize] {
                continue;
            }
            settled[v as usize] = true;
            order.push(v);
            for (slot, (u, w)) in list(v).into_iter().enumerate() {
                let cand = d + w;
                if !settled[u as usize] && cand < dist[u as usize] {
                    dist[u as usize] = cand;
                    via[u as usize] = Some((v, slot));
                    queue.push((cand, u));
                }
            }
        }
        order
            .into_iter()
            .map(|node| {
                let mut edges = Vec::new();
                let mut cur = node;
                while let Some((prev, slot)) = via[cur as usize] {
                    let w = list(prev)[slot].1;
                    edges.push(match direction {
                        Direction::Forward => (NodeId(prev), NodeId(cur), w),
                        Direction::Reverse => (NodeId(cur), NodeId(prev), w),
                    });
                    cur = prev;
                }
                (NodeId(node), edges)
            })
            .collect()
    }

    mod prop {
        use super::*;

        /// Weights chosen so that ties abound: repeats, a zero, and a
        /// 1e-17 that vanishes when added to anything near 1, so
        /// different paths' float sums round to the same distance.
        const WEIGHTS: [f64; 8] = [0.0, 1e-17, 0.1, 0.2, 0.3, 0.5, 1.0, 1.0];
        const HANDICAPS: [f64; 4] = [0.0, 0.1, 0.7, 2.5];

        proptest! {
            /// Slot-free path reconstruction emits exactly the edges a
            /// slot-recording Dijkstra records, on random multigraphs
            /// (parallel input edges coalesce to their minimum), both
            /// directions, with and without an initial handicap.
            #[test]
            fn path_edges_match_a_slot_recording_reference(
                n in 2usize..24,
                raw in proptest::collection::vec((0usize..24, 0usize..24, 0usize..8), 0..90),
                origin in 0usize..24,
                handicap in 0usize..4,
            ) {
                let mut b = GraphBuilder::new();
                let ids: Vec<_> = (0..n).map(|_| b.add_node(1.0)).collect();
                for &(f, t, w) in &raw {
                    b.add_edge(ids[f % n], ids[t % n], WEIGHTS[w]);
                    // A parallel twin with a weight that may tie or lose.
                    if w % 3 == 0 {
                        b.add_edge(ids[f % n], ids[t % n], WEIGHTS[(w + 1) % 8]);
                    }
                }
                let g = b.build();
                let origin = ids[origin % n];
                let initial = HANDICAPS[handicap];
                for direction in [Direction::Forward, Direction::Reverse] {
                    let expected = slot_recording_paths(&g, origin, direction, initial);
                    let mut it = Dijkstra::new(&g, origin, direction).with_initial_dist(initial);
                    let order: Vec<NodeId> = it.by_ref().map(|v| v.node).collect();
                    prop_assert_eq!(
                        order,
                        expected.iter().map(|(v, _)| *v).collect::<Vec<_>>()
                    );
                    for (node, edges) in &expected {
                        prop_assert_eq!(it.path_edges(*node).as_ref(), Some(edges));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "negative initial distance")]
    fn negative_initial_distance_is_rejected() {
        let (g, [a, ..]) = chain();
        let _ = Dijkstra::new(&g, a, Direction::Forward).with_initial_dist(-0.0);
    }

    #[test]
    fn reused_state_matches_fresh_state() {
        let (g, [a, _b, _c, d]) = chain();
        let mut arena = SearchArena::new();
        // Warm the block on one origin, then reuse it on another: the
        // reset must fully isolate the runs.
        let mut warm = Dijkstra::new_in(&g, d, Direction::Reverse, arena.checkout());
        warm.by_ref().for_each(drop);
        arena.recycle(warm.into_state());

        let mut fresh = Dijkstra::new(&g, a, Direction::Forward);
        let mut reused = Dijkstra::new_in(&g, a, Direction::Forward, arena.checkout());
        loop {
            let (f, r) = (fresh.next(), reused.next());
            assert_eq!(f, r);
            if f.is_none() {
                break;
            }
            let node = f.unwrap().node;
            assert_eq!(fresh.path_edges(node), reused.path_edges(node));
        }
        arena.recycle(reused.into_state());
        assert_eq!(arena.states.pooled_states(), 1);
    }

    /// Nodes reachable from `start` following forward edges (including
    /// `start`). Plain BFS: the oracle for Dijkstra coverage.
    fn reachable_from(graph: &Graph, start: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; graph.node_count()];
        let mut queue = std::collections::VecDeque::new();
        seen[start.index()] = true;
        queue.push_back(start);
        let mut out = Vec::new();
        while let Some(v) = queue.pop_front() {
            out.push(v);
            for (nbr, _) in graph.out_edges(v) {
                if !seen[nbr.index()] {
                    seen[nbr.index()] = true;
                    queue.push_back(nbr);
                }
            }
        }
        out
    }

    /// Random-graph strategy: up to 24 nodes, arbitrary edges with small
    /// positive weights.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        (2usize..24).prop_flat_map(|n| {
            proptest::collection::vec((0..n, 0..n, 1u32..10), 0..80).prop_map(move |edges| {
                let mut b = GraphBuilder::new();
                let ids: Vec<_> = (0..n).map(|_| b.add_node(1.0)).collect();
                for (f, t, w) in edges {
                    b.add_edge(ids[f], ids[t], w as f64);
                }
                b.build()
            })
        })
    }

    proptest! {
        /// Dijkstra settles exactly the BFS-reachable set, in
        /// nondecreasing distance order.
        #[test]
        fn dijkstra_matches_bfs_reachability(g in arb_graph()) {
            let start = NodeId(0);
            let visits: Vec<_> = Dijkstra::new(&g, start, Direction::Forward).collect();
            let mut reach: Vec<_> = reachable_from(&g, start);
            reach.sort();
            let mut settled: Vec<_> = visits.iter().map(|v| v.node).collect();
            settled.sort();
            prop_assert_eq!(settled, reach);
            for w in visits.windows(2) {
                prop_assert!(w[0].dist <= w[1].dist);
            }
        }

        /// Triangle inequality of settled distances along any edge.
        #[test]
        fn dijkstra_distances_respect_edges(g in arb_graph()) {
            let start = NodeId(0);
            let mut it = Dijkstra::new(&g, start, Direction::Forward);
            it.by_ref().for_each(drop);
            for u in g.nodes() {
                if let Some(du) = it.distance(u) {
                    for (v, w) in g.out_edges(u) {
                        if let Some(dv) = it.distance(v) {
                            prop_assert!(dv <= du + w + 1e-9);
                        }
                    }
                }
            }
        }

        /// Path edges reconstruct to the reported distance.
        #[test]
        fn path_weights_sum_to_distance(g in arb_graph()) {
            let start = NodeId(0);
            let mut it = Dijkstra::new(&g, start, Direction::Forward);
            it.by_ref().for_each(drop);
            for u in g.nodes() {
                if let Some(d) = it.distance(u) {
                    let path = it.path_edges(u).unwrap();
                    let sum: f64 = path.iter().map(|e| e.2).sum();
                    prop_assert!((sum - d).abs() < 1e-9);
                    // every edge on the path exists in the graph with a
                    // weight no larger than recorded
                    for (f, t, w) in path {
                        let gw = g.edge_weight(f, t).unwrap();
                        prop_assert!(gw <= w + 1e-9);
                    }
                }
            }
        }

        /// Reverse iteration from t finds s iff forward from s finds t,
        /// with equal distance.
        #[test]
        fn forward_reverse_symmetry(g in arb_graph()) {
            let s = NodeId(0);
            let t = NodeId((g.node_count() - 1) as u32);
            let mut fwd = Dijkstra::new(&g, s, Direction::Forward);
            fwd.by_ref().for_each(drop);
            let mut rev = Dijkstra::new(&g, t, Direction::Reverse);
            rev.by_ref().for_each(drop);
            match (fwd.distance(t), rev.distance(s)) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
                (None, None) => {}
                (a, b) => prop_assert!(false, "asymmetry: {a:?} vs {b:?}"),
            }
        }
    }
}
