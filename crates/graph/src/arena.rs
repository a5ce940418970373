//! Reusable scratch memory for the search kernel.
//!
//! The backward expanding search (§3) creates one Dijkstra iterator per
//! keyword node per query; the original kernel paid three hash-map
//! allocations per iterator plus a `Vec<Vec<u32>>` origin list per visited
//! node. A [`SearchArena`] makes the whole expansion allocation-free in
//! steady state:
//!
//! * [`DijkstraState`] — one sparse table per iterator, node →
//!   `{parent, dist}` with the settled flag in the distance's sign bit,
//!   holding only the nodes the iterator touched. A bucket is 16 bytes.
//!   Relaxing an edge is one table probe; clearing the state for the
//!   next iterator keeps its allocation. The distance queue is a
//!   recycled 4-ary heap of 12-byte entries (`crate::heap::DistHeap`).
//! * [`OriginListPool`] — the per-node, per-term origin lists (`u.Lᵢ` in
//!   the paper) flattened into one entry pool of forward-linked lists, so
//!   visiting a node allocates nothing.
//! * [`CrossScratch`] — the mixed-radix counter, cursor, origin and edge
//!   buffers the cross-product enumerator reuses across connection trees.
//!
//! A server worker keeps one arena for its lifetime; `checkout`/`recycle`
//! hand states to iterators and take them back when a query ends. A
//! state has no notion of graph size, so one arena safely outlives
//! live-ingestion publishes that grow or shrink the graph.

use crate::graph::NodeId;
use crate::heap::DistHeap;
use banks_util::fxhash::FxHashMap;
use std::collections::hash_map::Entry;
use std::mem::size_of;

/// Sentinel for "no parent" / "no list entry" — the terminator
/// [`OriginListPool::head`] and [`OriginListPool::next`] return.
pub const NIL: u32 = u32::MAX;

/// Heap bytes of a std (hashbrown) hash table whose `capacity()` is
/// `capacity`: one `T` and one control byte per bucket, plus one
/// trailing 16-byte control group. Buckets are a power of two, and a
/// table of 8 or more buckets holds at most 7/8 of them.
fn table_bytes<T>(capacity: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = if capacity < 8 {
        capacity + 1
    } else {
        capacity / 7 * 8
    }
    .next_power_of_two();
    buckets * (size_of::<T>() + 1) + 16
}

/// One touched node of a [`DijkstraState`]: 12 bytes with 4-byte
/// alignment (`packed(4)`), so a `(u32, NodeSlot)` table bucket is 16.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
pub(crate) struct NodeSlot {
    /// Best-path predecessor ([`NIL`] for the origin).
    pub(crate) parent: u32,
    /// The tentative (or, once settled, final) distance, negated once
    /// settled: distances are never negative, so the sign bit is free
    /// to carry the flag.
    signed_dist: f64,
}

impl NodeSlot {
    #[inline]
    fn unsettled(dist: f64, parent: u32) -> NodeSlot {
        debug_assert!(dist.is_sign_positive(), "negative distance {dist}");
        NodeSlot {
            parent,
            signed_dist: dist,
        }
    }

    /// The distance.
    #[inline]
    pub(crate) fn dist(&self) -> f64 {
        { self.signed_dist }.abs()
    }
}

/// Sparse single-source shortest-path state: one table entry per node
/// the iterator has touched, so its size follows the work the iterator
/// does, not the size of the graph.
#[derive(Debug, Clone, Default)]
pub struct DijkstraState {
    nodes: FxHashMap<u32, NodeSlot>,
    /// The distance queue (recycled allocation).
    pub(crate) heap: DistHeap,
    settled_count: usize,
}

impl DijkstraState {
    /// An empty state; it serves a graph of any size.
    pub(crate) fn new() -> DijkstraState {
        DijkstraState::default()
    }

    /// Forget every node and empty the queue, keeping the allocations.
    pub(crate) fn reset(&mut self) {
        self.nodes.clear();
        self.heap.clear();
        self.settled_count = 0;
    }

    /// Make `n` the unsettled origin at distance `dist`, with exactly one
    /// queue entry — a repeat call replaces the earlier start.
    pub(crate) fn start(&mut self, n: u32, dist: f64) {
        self.nodes.insert(n, NodeSlot::unsettled(dist, NIL));
        self.heap.clear();
        self.heap.push(dist, n);
    }

    /// Offer `n` the tentative distance `cand`, reached from `parent`,
    /// with one table probe. Records it and returns `true` when `n` is
    /// new, or unsettled at a larger distance.
    #[inline]
    pub(crate) fn relax(&mut self, n: u32, cand: f64, parent: u32) -> bool {
        match self.nodes.entry(n) {
            Entry::Vacant(e) => {
                e.insert(NodeSlot::unsettled(cand, parent));
                true
            }
            Entry::Occupied(mut e) => {
                let known = e.get_mut();
                // A settled entry reads as a non-positive distance, which
                // no candidate beats.
                let better = cand < known.signed_dist;
                if better {
                    *known = NodeSlot::unsettled(cand, parent);
                }
                better
            }
        }
    }

    /// Mark a touched node's distance final.
    #[inline]
    pub(crate) fn settle(&mut self, n: u32) {
        let known = self.nodes.get_mut(&n).expect("settling an untouched node");
        known.signed_dist = -known.dist();
        self.settled_count += 1;
    }

    /// The entry of `n` once its distance is final (`None` before).
    #[inline]
    pub(crate) fn settled(&self, n: u32) -> Option<&NodeSlot> {
        self.nodes
            .get(&n)
            .filter(|s| { s.signed_dist }.is_sign_negative())
    }

    #[inline]
    pub(crate) fn settled_count(&self) -> usize {
        self.settled_count
    }

    /// Recycle-time shrink policy: drop this run's content and clamp the
    /// node table and the distance queue to about `max_entries` entries
    /// each, so one iterator that touched much of a large graph does not
    /// pin that table in a long-lived pool.
    pub(crate) fn shrink(&mut self, max_entries: usize) {
        self.reset();
        self.nodes.shrink_to(max_entries);
        self.heap.shrink_to_entries(max_entries);
    }

    /// Heap bytes this state holds (node table + queue buffer).
    pub fn retained_bytes(&self) -> usize {
        table_bytes::<(u32, NodeSlot)>(self.nodes.capacity()) + self.heap.retained_bytes()
    }
}

/// The paper's per-node origin lists `u.Lᵢ`, flattened: one shared entry
/// pool of forward-linked lists plus a per-node block of `n_terms`
/// (head, tail, len) triples. Appends and whole-pool resets never free
/// memory, so a reused pool allocates only while it is still growing
/// toward the high-water mark of its workload.
#[derive(Debug, Clone, Default)]
pub struct OriginListPool {
    n_terms: usize,
    /// node id → base slot of its `n_terms`-wide block.
    node_base: FxHashMap<u32, u32>,
    heads: Vec<u32>,
    tails: Vec<u32>,
    lens: Vec<u32>,
    /// `(origin, next-entry)` cells; [`NIL`] terminates a list.
    entries: Vec<(u32, u32)>,
}

impl OriginListPool {
    /// Empty the pool for a query over `n_terms` search terms.
    pub fn reset(&mut self, n_terms: usize) {
        self.n_terms = n_terms;
        self.node_base.clear();
        self.heads.clear();
        self.tails.clear();
        self.lens.clear();
        self.entries.clear();
    }

    /// Base slot of `node`'s list block, allocating an empty block on
    /// first visit.
    pub fn ensure(&mut self, node: u32) -> u32 {
        if let Some(&base) = self.node_base.get(&node) {
            return base;
        }
        let base = self.heads.len() as u32;
        self.heads.resize(self.heads.len() + self.n_terms, NIL);
        self.tails.resize(self.tails.len() + self.n_terms, NIL);
        self.lens.resize(self.lens.len() + self.n_terms, 0);
        self.node_base.insert(node, base);
        base
    }

    /// Append `origin` to the `term` list of the block at `base`,
    /// preserving insertion order.
    pub fn push(&mut self, base: u32, term: usize, origin: u32) {
        let slot = base as usize + term;
        let entry = self.entries.len() as u32;
        self.entries.push((origin, NIL));
        if self.tails[slot] == NIL {
            self.heads[slot] = entry;
        } else {
            self.entries[self.tails[slot] as usize].1 = entry;
        }
        self.tails[slot] = entry;
        self.lens[slot] += 1;
    }

    /// Length of the `term` list at `base`.
    #[inline]
    pub fn len(&self, base: u32, term: usize) -> usize {
        self.lens[base as usize + term] as usize
    }

    /// First entry index of the `term` list at `base` ([`NIL`] if empty).
    #[inline]
    pub fn head(&self, base: u32, term: usize) -> u32 {
        self.heads[base as usize + term]
    }

    /// The origin stored at `entry`.
    #[inline]
    pub fn origin(&self, entry: u32) -> u32 {
        self.entries[entry as usize].0
    }

    /// The entry after `entry` ([`NIL`] at the end of a list).
    #[inline]
    pub fn next(&self, entry: u32) -> u32 {
        self.entries[entry as usize].1
    }

    /// Iterate a list in insertion order (a test observer).
    #[cfg(test)]
    pub(crate) fn iter(&self, base: u32, term: usize) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.head(base, term);
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let origin = self.origin(cur);
            cur = self.next(cur);
            Some(origin)
        })
    }

    /// Shrink policy: drop this query's content and clamp every backing
    /// buffer to at most `max_entries` entries, so one broad query does
    /// not pin its high-water mark in a long-lived worker arena forever.
    /// Called at the end of a search — the next query `reset`s anyway.
    pub(crate) fn shrink(&mut self, max_entries: usize) {
        self.node_base.clear();
        self.heads.clear();
        self.tails.clear();
        self.lens.clear();
        self.entries.clear();
        if self.entries.capacity() > max_entries {
            self.entries.shrink_to(max_entries);
        }
        if self.heads.capacity() > max_entries {
            self.heads.shrink_to(max_entries);
            self.tails.shrink_to(max_entries);
            self.lens.shrink_to(max_entries);
        }
        if self.node_base.capacity() > max_entries {
            self.node_base.shrink_to(max_entries);
        }
    }

    /// Bytes retained by the pool's backing buffers.
    pub fn retained_bytes(&self) -> usize {
        self.entries.capacity() * size_of::<(u32, u32)>()
            + (self.heads.capacity() + self.tails.capacity() + self.lens.capacity())
                * size_of::<u32>()
            + table_bytes::<(u32, u32)>(self.node_base.capacity())
    }
}

/// Reusable buffers for the cross-product enumerator: one dimension per
/// *other* search term (`terms`/`heads`/`lens`), the mixed-radix odometer
/// (`counter` + linked-list `cursors`), and the per-tree `origins`/`edges`
/// assembly buffers.
#[derive(Debug, Clone, Default)]
pub struct CrossScratch {
    /// Term index of each enumerated dimension.
    pub terms: Vec<usize>,
    /// List head entry per dimension (for odometer wrap-around).
    pub heads: Vec<u32>,
    /// List length per dimension.
    pub lens: Vec<usize>,
    /// Mixed-radix counter, one digit per dimension.
    pub counter: Vec<usize>,
    /// Current list entry per dimension (tracks `counter` in O(1)).
    pub cursors: Vec<u32>,
    /// Per-term chosen keyword node of the tree being assembled.
    pub origins: Vec<NodeId>,
    /// Union of root→origin path edges of the tree being assembled.
    pub edges: Vec<(NodeId, NodeId, f64)>,
}

impl CrossScratch {
    /// Drop all dimensions (allocation-preserving).
    pub fn clear_dims(&mut self) {
        self.terms.clear();
        self.heads.clear();
        self.lens.clear();
    }

    /// Add one enumerated dimension.
    pub fn push_dim(&mut self, term: usize, head: u32, len: usize) {
        self.terms.push(term);
        self.heads.push(head);
        self.lens.push(len);
    }

    /// Bytes retained by the scratch buffers.
    pub(crate) fn retained_bytes(&self) -> usize {
        (self.terms.capacity() + self.counter.capacity()) * size_of::<usize>()
            + (self.heads.capacity() + self.cursors.capacity()) * size_of::<u32>()
            + self.lens.capacity() * size_of::<usize>()
            + self.origins.capacity() * size_of::<NodeId>()
            + self.edges.capacity() * size_of::<(NodeId, NodeId, f64)>()
    }
}

/// Idle [`DijkstraState`] blocks, at most
/// `SearchArena::MAX_IDLE_STATES` of them: recycling into a full pool
/// frees the block instead, and every retained block is shrunk to
/// `SearchArena::RETAINED_STATE_ENTRIES`.
#[derive(Debug, Default)]
pub struct StatePool {
    idle: Vec<DijkstraState>,
    states_created: u64,
    states_reused: u64,
}

impl StatePool {
    /// Take a block, reusing an idle one when available. The block is
    /// cleared by [`crate::Dijkstra::new_in`].
    pub(crate) fn checkout(&mut self) -> DijkstraState {
        match self.idle.pop() {
            Some(state) => {
                self.states_reused += 1;
                state
            }
            None => {
                self.states_created += 1;
                DijkstraState::new()
            }
        }
    }

    /// Return a block (dropped once the pool is full; the retained
    /// table and queue are clamped by the shrink policy).
    pub(crate) fn recycle(&mut self, mut state: DijkstraState) {
        if self.idle.len() < SearchArena::MAX_IDLE_STATES {
            state.shrink(SearchArena::RETAINED_STATE_ENTRIES);
            self.idle.push(state);
        }
    }

    /// Number of idle pooled blocks.
    #[cfg(test)]
    pub(crate) fn pooled_states(&self) -> usize {
        self.idle.len()
    }

    /// `(created, reused)` checkout counters since construction.
    pub fn state_counters(&self) -> (u64, u64) {
        (self.states_created, self.states_reused)
    }

    /// Bytes retained by the idle blocks.
    pub(crate) fn retained_bytes(&self) -> usize {
        self.idle.iter().map(DijkstraState::retained_bytes).sum()
    }
}

/// Cooperative cancellation for one in-flight search.
///
/// The serving layer arms the token with the request's absolute
/// deadline before dispatching a search; the expansion loops poll
/// [`DeadlineToken::expired`] once per pop. A poll reads the monotonic
/// clock only every `DeadlineToken::POLL_INTERVAL` calls, so the hot
/// loop pays one decrement-and-branch per pop. Unarmed (the default),
/// every poll is `false` — searches outside a server never expire.
#[derive(Debug, Default)]
pub struct DeadlineToken {
    deadline: Option<std::time::Instant>,
    expired: bool,
    countdown: u32,
}

impl DeadlineToken {
    /// Polls between clock reads. At BANKS pop rates (millions/s) this
    /// bounds deadline overshoot to well under a millisecond.
    pub(crate) const POLL_INTERVAL: u32 = 256;

    /// Arm with an absolute deadline (`None` disarms). Resets the
    /// sticky expired flag; the first poll after arming reads the
    /// clock, so an already-lapsed deadline is caught immediately.
    pub fn arm(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
        self.expired = false;
        self.countdown = 0;
    }

    /// Disarm the token (between queries on a pooled arena).
    pub fn clear(&mut self) {
        self.arm(None);
    }

    /// Has the armed deadline passed? Sticky once `true` until re-armed.
    #[inline]
    pub fn expired(&mut self) -> bool {
        if self.expired {
            return true;
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        if self.countdown > 0 {
            self.countdown -= 1;
            return false;
        }
        self.countdown = Self::POLL_INTERVAL;
        self.expired = std::time::Instant::now() >= deadline;
        self.expired
    }
}

/// Pooled scratch memory for one search worker.
///
/// Owns a [`StatePool`] of idle [`DijkstraState`] blocks plus the
/// kernel's origin-list and cross-product buffers. One arena serves one
/// thread at a time; a server gives each worker thread its own persistent
/// arena, and since a state is sized by the nodes its iterator touches,
/// the same blocks serve every graph across ingestion epochs.
///
/// **Memory.** The backward search checks out one block per keyword
/// origin, so a query's transient state is O(nodes touched), summed over
/// its iterators. So that one broad query cannot permanently inflate a
/// long-lived worker, the idle pool retains at most
/// `SearchArena::MAX_IDLE_STATES` blocks — excess blocks are freed on
/// recycle — and each retained block is shrunk to
/// `SearchArena::RETAINED_STATE_ENTRIES`.
#[derive(Debug, Default)]
pub struct SearchArena {
    /// Per-query trace spans. Disabled by default (one branch per probe
    /// point); the serving layer enables it for traced queries and
    /// drains it after the search returns.
    pub spans: banks_telemetry::SpanBuffer,
    /// Idle state blocks for the search kernels.
    pub states: StatePool,
    /// Flattened `u.Lᵢ` origin lists.
    pub lists: OriginListPool,
    /// Cross-product enumeration buffers.
    pub cross: CrossScratch,
    /// Cooperative-cancellation token polled by the expansion loops.
    pub deadline: DeadlineToken,
}

impl SearchArena {
    /// An empty arena; memory is acquired on first use and retained.
    pub fn new() -> SearchArena {
        SearchArena::default()
    }

    /// Blocks the idle pool retains; recycling beyond this frees the
    /// block instead, bounding the pool at ~2.9 MiB (this cap × one
    /// shrunk block) whatever the graph size and however broad the
    /// keyword set.
    pub(crate) const MAX_IDLE_STATES: usize = 32;

    /// Node-table and distance-queue entries a recycled block keeps (its
    /// shrink policy): 2 K entries, a table of 4 K 16-byte buckets plus
    /// their control bytes (~68 KiB) and 24 KiB of queue.
    pub(crate) const RETAINED_STATE_ENTRIES: usize = 1 << 11;

    /// Origin-list pool entries retained between queries: 512 KiB of
    /// list cells, 768 KiB of per-node head/tail/length lanes and a
    /// node table of up to 128 K 8-byte buckets (~1.1 MiB).
    pub(crate) const RETAINED_LIST_ENTRIES: usize = 1 << 16;

    /// Take a state block from [`SearchArena::states`].
    pub fn checkout(&mut self) -> DijkstraState {
        self.states.checkout()
    }

    /// Return a block to [`SearchArena::states`].
    pub fn recycle(&mut self, state: DijkstraState) {
        self.states.recycle(state);
    }

    /// End-of-query shrink policy: drop per-query content and clamp
    /// every pooled buffer to its retention cap, so one pathological
    /// query cannot pin its worst-case footprint in a worker forever.
    pub fn trim(&mut self) {
        self.lists.shrink(Self::RETAINED_LIST_ENTRIES);
    }

    /// Bytes currently pinned by the arena's pooled memory (idle state
    /// blocks, origin lists, cross-product scratch) — surfaced as
    /// `SearchStats::arena_retained_bytes`.
    pub fn retained_bytes(&self) -> usize {
        self.states.retained_bytes() + self.lists.retained_bytes() + self.cross.retained_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A state that touched `n` nodes with ids spread over ~97 × `n`.
    fn state_touching(n: u32) -> DijkstraState {
        let mut s = DijkstraState::new();
        s.start(0, 0.0);
        for v in 1..n {
            assert!(s.relax(v * 97, f64::from(v), 0));
            s.heap.push(f64::from(v), v * 97);
        }
        s
    }

    #[test]
    fn recycled_state_is_indistinguishable_from_fresh() {
        let mut used = state_touching(1000);
        used.settle(0);
        used.settle(97);
        let mut arena = SearchArena::new();
        arena.recycle(used);
        let mut recycled = arena.checkout();
        let observe = |s: &mut DijkstraState| {
            let nodes: Vec<_> = [0u32, 97, 194, 5]
                .iter()
                .map(|&n| s.settled(n).map(|e| (e.dist(), e.parent)))
                .collect();
            let queued = s.heap.peek();
            let count = s.settled_count();
            // A stale entry at distance 1.0 would refuse this offer.
            let took = s.relax(97, 50.0, 3);
            s.settle(97);
            let after = s.settled(97).map(|e| (e.dist(), e.parent));
            (nodes, queued, count, took, after)
        };
        assert_eq!(observe(&mut recycled), observe(&mut DijkstraState::new()));
    }

    #[test]
    fn node_table_buckets_are_sixteen_bytes() {
        assert_eq!(size_of::<NodeSlot>(), 12);
        assert_eq!(size_of::<(u32, NodeSlot)>(), 16);
    }

    #[test]
    fn settled_flag_rides_in_the_sign_bit() {
        let mut s = DijkstraState::new();
        s.start(4, 0.0);
        assert!(s.relax(5, 2.5, 4));
        assert!(!s.relax(5, 2.5, 6), "an equal offer is refused");
        assert!(s.relax(5, 1.5, 6));
        assert!(s.settled(5).is_none());
        s.settle(4);
        s.settle(5);
        let (origin, five) = (s.settled(4).unwrap(), s.settled(5).unwrap());
        assert_eq!(
            (origin.dist().to_bits(), origin.parent),
            (0.0f64.to_bits(), NIL)
        );
        assert_eq!((five.dist(), five.parent), (1.5, 6));
        // Settled distances are final, even against a zero offer.
        assert!(!s.relax(4, 0.0, 5));
        assert!(!s.relax(5, 0.0, 4));
        assert_eq!(s.settled_count(), 2);
    }

    #[test]
    fn table_bytes_counts_buckets_and_control_bytes() {
        assert_eq!(table_bytes::<(u32, NodeSlot)>(0), 0);
        assert_eq!(table_bytes::<(u32, NodeSlot)>(3), 4 * 17 + 16);
        assert_eq!(table_bytes::<(u32, NodeSlot)>(7), 8 * 17 + 16);
        assert_eq!(table_bytes::<(u32, NodeSlot)>(14), 16 * 17 + 16);
        assert_eq!(table_bytes::<(u32, NodeSlot)>(3584), 4096 * 17 + 16);
        // The inversion holds for every capacity a growing table reports:
        // a power-of-two bucket count of which it can fill `capacity`.
        let mut map: FxHashMap<u32, NodeSlot> = FxHashMap::default();
        for n in 0..5000u32 {
            map.insert(n, NodeSlot::unsettled(0.0, n));
            let cap = map.capacity();
            let buckets = (table_bytes::<(u32, NodeSlot)>(cap) - 16) / 17;
            assert!(buckets.is_power_of_two());
            let fill = if buckets < 8 {
                buckets - 1
            } else {
                buckets / 8 * 7
            };
            assert_eq!(fill, cap, "{n} entries");
        }
        let mut shrunk = map.clone();
        shrunk.clear();
        shrunk.shrink_to(SearchArena::RETAINED_STATE_ENTRIES);
        assert_eq!(
            table_bytes::<(u32, NodeSlot)>(shrunk.capacity()),
            4096 * 17 + 16
        );
    }

    #[test]
    fn one_state_serves_graphs_of_different_sizes() {
        use crate::{Dijkstra, Direction, GraphBuilder, NodeId};
        let path = |n: usize| {
            let mut b = GraphBuilder::new();
            let nodes: Vec<_> = (0..n).map(|_| b.add_node(1.0)).collect();
            for w in nodes.windows(2) {
                b.add_edge(w[0], w[1], 1.0);
            }
            b.build()
        };
        let (small, large) = (path(4), path(300));
        let mut state = DijkstraState::new();
        for (graph, origin) in [(&large, 250), (&small, 3), (&large, 299)] {
            let fresh: Vec<_> = Dijkstra::new(graph, NodeId(origin), Direction::Reverse).collect();
            let mut reused = Dijkstra::new_in(graph, NodeId(origin), Direction::Reverse, state);
            assert_eq!(reused.by_ref().collect::<Vec<_>>(), fresh);
            state = reused.into_state();
        }
    }

    #[test]
    fn recycled_table_keeps_at_most_the_shrink_cap() {
        let cap = SearchArena::RETAINED_STATE_ENTRIES as u32;
        let mut at_cap = SearchArena::new();
        at_cap.recycle(state_touching(cap));
        let cap_bytes = at_cap.retained_bytes();
        for n in [cap / 2, cap, 100_000] {
            let state = state_touching(n);
            if n > cap {
                assert!(state.retained_bytes() > 10 * cap_bytes);
            }
            let mut arena = SearchArena::new();
            arena.recycle(state);
            assert!(arena.retained_bytes() <= cap_bytes, "{n} nodes touched");
        }
    }

    #[test]
    fn origin_lists_preserve_insertion_order() {
        let mut p = OriginListPool::default();
        p.reset(3);
        let b7 = p.ensure(7);
        let b9 = p.ensure(9);
        assert_eq!(p.ensure(7), b7, "ensure is idempotent");
        p.push(b7, 0, 100);
        p.push(b7, 0, 101);
        p.push(b7, 2, 200);
        p.push(b9, 0, 300);
        assert_eq!(p.iter(b7, 0).collect::<Vec<_>>(), vec![100, 101]);
        assert_eq!(p.iter(b7, 1).collect::<Vec<_>>(), Vec::<u32>::new());
        assert_eq!(p.iter(b7, 2).collect::<Vec<_>>(), vec![200]);
        assert_eq!(p.iter(b9, 0).collect::<Vec<_>>(), vec![300]);
        assert_eq!(p.len(b7, 0), 2);
        // Walk the links by hand: head → next → NIL.
        let h = p.head(b7, 0);
        assert_eq!(p.origin(h), 100);
        assert_eq!(p.origin(p.next(h)), 101);
        assert_eq!(p.next(p.next(h)), NIL);
        // Reset keeps capacity but drops content.
        p.reset(2);
        let b = p.ensure(7);
        assert_eq!(p.len(b, 0), 0);
    }

    #[test]
    fn arena_pools_states() {
        let mut a = SearchArena::new();
        let s1 = a.checkout();
        let s2 = a.checkout();
        assert_eq!(a.states.state_counters(), (2, 0));
        a.recycle(s1);
        a.recycle(s2);
        assert_eq!(a.states.pooled_states(), 2);
        let _s = a.checkout();
        assert_eq!(a.states.state_counters(), (2, 1));
        assert_eq!(a.states.pooled_states(), 1);
    }

    #[test]
    fn idle_pool_is_bounded() {
        let mut a = SearchArena::new();
        let blocks: Vec<_> = (0..SearchArena::MAX_IDLE_STATES + 10)
            .map(|_| a.checkout())
            .collect();
        for b in blocks {
            a.recycle(b);
        }
        assert_eq!(
            a.states.pooled_states(),
            SearchArena::MAX_IDLE_STATES,
            "one broad query must not permanently inflate the pool"
        );
    }

    #[test]
    fn state_recycle_caps_pool_and_queue() {
        let mut a = SearchArena::new();
        let p = &mut a.states;
        let blocks: Vec<_> = (0..SearchArena::MAX_IDLE_STATES + 4)
            .map(|_| {
                let mut s = p.checkout();
                for i in 0..100_000u32 {
                    s.heap.push(i as f64, i % 4);
                }
                s
            })
            .collect();
        for b in blocks {
            p.recycle(b);
        }
        assert_eq!(p.pooled_states(), SearchArena::MAX_IDLE_STATES);
        assert!(
            p.retained_bytes()
                <= SearchArena::MAX_IDLE_STATES * SearchArena::RETAINED_STATE_ENTRIES * 16,
            "recycled queue buffers must be clamped by the shrink policy"
        );
    }

    #[test]
    fn trim_unpins_a_huge_query() {
        let mut a = SearchArena::new();
        a.lists.reset(2);
        for node in 0..200_000u32 {
            let base = a.lists.ensure(node);
            a.lists.push(base, 0, node);
        }
        let before = a.retained_bytes();
        a.trim();
        let after = a.retained_bytes();
        assert!(
            after < before / 4,
            "trim must release the bulk of a pathological query's memory \
             ({before} -> {after})"
        );
        // The pools remain usable after trimming.
        a.lists.reset(2);
        let base = a.lists.ensure(7);
        a.lists.push(base, 1, 9);
        assert_eq!(a.lists.iter(base, 1).collect::<Vec<_>>(), vec![9]);
    }
}
