//! Intra-query parallel backward expansion.
//!
//! BANKS runs one independent backward Dijkstra expansion per keyword
//! set `Sᵢ`; the expansions only interact when settled nodes join the
//! per-node origin lists and spawn cross products. This executor
//! exploits that: each keyword set becomes an **expansion shard** that
//! runs its multi-origin Dijkstra on a scoped thread (shards beyond the
//! configured thread count share a thread), publishing settled-node
//! events into a per-shard lock-free SPSC queue; the caller thread runs
//! a **deterministic merge** that consumes events in global
//! `(frontier distance, iterator index)` order — exactly the order the
//! sequential kernel's iterator heap pops — and drives the same
//! `AnswerSink` per-visit machinery as the sequential kernel. Answers, scores, and execution
//! stats are therefore bit-identical to the sequential kernel at any
//! thread count; threads are purely a latency knob.
//!
//! Liveness. Each shard channel carries a monotone **frontier bound**
//! (a lower bound on every future event's distance, published after
//! each event). The merge consumes the globally smallest candidate —
//! a queue head, or, when an empty live shard's bound is smaller than
//! every head, it re-scans after a yield. A producer thread that owns
//! several shards always advances the one with the smallest
//! `(bound, first iterator index)` key; because shard iterator-index
//! ranges are contiguous and disjoint, that shard's queue head (when
//! its queue is non-empty, e.g. full under back-pressure) compares
//! below every other owned shard's bound key, so the merge always has
//! a consumable candidate and the pipeline cannot deadlock.
//!
//! Early termination (the PR-4 top-k bound) fires in the merge on the
//! minimum frontier key across live shards. The bound check is
//! monotone in distance, so firing on a shard's frontier *bound* is
//! equivalent to firing on the actual next event — the merge never has
//! to wait just to stop.

use crate::config::SearchConfig;
use crate::graph_build::TupleGraph;
use crate::score::Scorer;
use crate::search::backward::{make_iterator, AnswerSink};
use crate::search::{EarlyStop, RootPolicy, SearchOutcome};
use banks_graph::{Dijkstra, DijkstraState, FxHashMap, FxHashSet, NodeId, SearchArena, NIL};
use std::cell::UnsafeCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as MemOrder};
use std::time::Instant;

/// One settled node, as published by a shard: everything the merge
/// needs to extend its per-iterator path forest and run the §3 visit —
/// no access to the shard-owned Dijkstra state required.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// Settled distance (the global merge key, with `idx`).
    dist: f64,
    /// Global iterator index (the sequential kernel's tie-break).
    idx: u32,
    /// The settled node.
    node: u32,
    /// Its best-path predecessor ([`NIL`] for the origin).
    parent: u32,
    /// Exact CSR weight of the `node → parent` edge (0 for the origin).
    weight: f64,
}

/// Events a shard queue buffers before back-pressure blocks the
/// producer; also bounds how far a shard can run ahead of the merge
/// (wasted expansion when the merge stops early). Power of two.
const QUEUE_CAPACITY: usize = 1024;

/// A fixed-capacity lock-free single-producer/single-consumer ring.
/// The shard thread is the only pusher, the merge thread the only
/// popper; `tail`/`head` are published with release stores and read
/// with acquire loads, so slot contents are visible before indices.
struct EventQueue {
    buf: Box<[UnsafeCell<MaybeUninit<Event>>]>,
    /// Next slot the consumer reads (monotone, wraps via masking).
    head: AtomicUsize,
    /// Next slot the producer writes.
    tail: AtomicUsize,
}

// SAFETY: the ring is SPSC by construction (one shard thread pushes,
// the merge thread pops); a slot is written only while unreachable by
// the consumer (tail not yet published) and read only after the
// producer's release store of `tail` made it reachable.
unsafe impl Sync for EventQueue {}

impl EventQueue {
    fn new() -> EventQueue {
        let buf: Vec<UnsafeCell<MaybeUninit<Event>>> = (0..QUEUE_CAPACITY)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        EventQueue {
            buf: buf.into_boxed_slice(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Producer side: enqueue one event; `false` when full.
    fn push(&self, ev: Event) -> bool {
        let tail = self.tail.load(MemOrder::Relaxed);
        let head = self.head.load(MemOrder::Acquire);
        if tail.wrapping_sub(head) == self.buf.len() {
            return false;
        }
        // SAFETY: single producer; this slot is not visible to the
        // consumer until the release store of `tail` below.
        unsafe {
            (*self.buf[tail % self.buf.len()].get()).write(ev);
        }
        self.tail.store(tail.wrapping_add(1), MemOrder::Release);
        true
    }

    /// Consumer side: copy of the head event without consuming it.
    fn peek(&self) -> Option<Event> {
        let head = self.head.load(MemOrder::Relaxed);
        let tail = self.tail.load(MemOrder::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: single consumer; the producer initialized this slot
        // before its release store of `tail` (paired with the acquire
        // load above).
        Some(unsafe { (*self.buf[head % self.buf.len()].get()).assume_init_read() })
    }

    /// Consumer side: drop the head event (after a successful `peek`).
    fn advance(&self) {
        let head = self.head.load(MemOrder::Relaxed);
        self.head.store(head.wrapping_add(1), MemOrder::Release);
    }
}

/// The merge-facing face of one expansion shard.
struct ShardChannel {
    queue: EventQueue,
    /// `f64` bits of a lower bound on every *future* event's distance
    /// (monotone — settled distances are non-decreasing). Valid only
    /// while `done` is false.
    bound: AtomicU64,
    /// No further events will be pushed (queued ones remain valid).
    done: AtomicBool,
    /// Global index of the shard's first iterator: the smallest
    /// tie-break key any future event of this shard can carry.
    start_idx: u32,
}

impl ShardChannel {
    fn new(start_idx: u32) -> ShardChannel {
        ShardChannel {
            queue: EventQueue::new(),
            bound: AtomicU64::new(0f64.to_bits()),
            done: AtomicBool::new(false),
            start_idx,
        }
    }
}

/// Producer-heap entry: min on `(dist, global iterator index)`, the
/// same total order as the sequential kernel's iterator heap.
#[derive(Debug, Clone, Copy)]
struct ProdEntry {
    dist: f64,
    /// Global iterator index.
    idx: u32,
    /// Position in the owning shard's iterator vector.
    local: u32,
}

impl PartialEq for ProdEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.idx == other.idx
    }
}
impl Eq for ProdEntry {}
impl PartialOrd for ProdEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ProdEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// One expansion shard: a keyword set's multi-origin reverse Dijkstra,
/// multiplexed locally by `(dist, idx)` exactly as the sequential heap
/// would among these iterators.
struct ShardTask<'g> {
    /// Channel index (== term index).
    shard: usize,
    iterators: Vec<Dijkstra<'g>>,
    heap: BinaryHeap<ProdEntry>,
}

/// Run a thread's shards to completion (or until `stop`): repeatedly
/// advance the owned shard with the smallest `(next distance, start
/// index)` key — the choice the deadlock-freedom argument in the
/// module docs relies on — and publish its settled node.
fn run_shards<'g>(
    mut tasks: Vec<ShardTask<'g>>,
    channels: &[ShardChannel],
    stop: &AtomicBool,
    span_origin: Option<Instant>,
) -> ShardRun {
    // Trace timing (only when the query is traced): every owned shard's
    // expand span opens when this thread starts and closes when the
    // shard drains. `elapsed_ns` is measured against the caller's span
    // buffer origin, so the offsets line up with the merge span.
    let elapsed_ns = |o: Instant| u64::try_from(o.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let span_start = span_origin.map(&elapsed_ns);
    let mut span_ends: Vec<Option<u64>> = vec![None; tasks.len()];
    'outer: loop {
        if stop.load(MemOrder::Relaxed) {
            break;
        }
        let mut best: Option<(f64, u32, usize)> = None;
        for (t, task) in tasks.iter().enumerate() {
            let Some(top) = task.heap.peek() else {
                continue;
            };
            let start = channels[task.shard].start_idx;
            let better = match best {
                None => true,
                Some((bd, bs, _)) => top.dist.total_cmp(&bd).then(start.cmp(&bs)).is_lt(),
            };
            if better {
                best = Some((top.dist, start, t));
            }
        }
        let Some((_, _, t)) = best else {
            break; // every owned shard exhausted
        };
        let task = &mut tasks[t];
        let chan = &channels[task.shard];
        let entry = task.heap.pop().expect("peeked entry");
        let local = entry.local as usize;
        if let Some(visit) = task.iterators[local].next() {
            if let Some(dist) = task.iterators[local].peek_dist() {
                task.heap.push(ProdEntry {
                    dist,
                    idx: entry.idx,
                    local: entry.local,
                });
            }
            let (parent, weight) = task.iterators[local]
                .parent_edge_of(visit.node)
                .expect("just-settled node");
            let ev = Event {
                dist: visit.dist,
                idx: entry.idx,
                node: visit.node.0,
                parent,
                weight,
            };
            // Back-pressure: a full queue means the merge is behind;
            // yielding (rather than spinning) matters on machines with
            // fewer cores than threads.
            while !chan.queue.push(ev) {
                if stop.load(MemOrder::Relaxed) {
                    break 'outer;
                }
                std::thread::yield_now();
            }
        }
        // Publish the shard's new frontier: its next settle distance,
        // or done. (A bound stored after the push can only be stale-low
        // for the instant before this store — conservative for the
        // merge, never unsound.)
        match task.heap.peek() {
            Some(top) => chan.bound.store(top.dist.to_bits(), MemOrder::Release),
            None => {
                chan.done.store(true, MemOrder::Release);
                if let Some(origin) = span_origin {
                    span_ends[t].get_or_insert_with(|| elapsed_ns(origin));
                }
            }
        }
    }
    // However this thread exits, no further events will arrive: make
    // that visible so the merge never waits on an abandoned shard.
    for task in &tasks {
        channels[task.shard].done.store(true, MemOrder::Release);
    }
    let spans = match (span_origin, span_start) {
        (Some(origin), Some(start)) => {
            let now = elapsed_ns(origin);
            tasks
                .iter()
                .enumerate()
                .map(|(t, task)| (task.shard, start, span_ends[t].unwrap_or(now)))
                .collect()
        }
        _ => Vec::new(),
    };
    let recycled = tasks
        .into_iter()
        .map(|task| {
            (
                task.shard,
                task.iterators
                    .into_iter()
                    .map(Dijkstra::into_state)
                    .collect(),
            )
        })
        .collect();
    ShardRun { recycled, spans }
}

/// What a shard thread hands back when it joins: the recycled state
/// blocks per shard, plus `(shard, start_ns, end_ns)` expand spans when
/// the query is traced (empty otherwise).
struct ShardRun {
    recycled: Vec<(usize, Vec<DijkstraState>)>,
    spans: Vec<(usize, u64, u64)>,
}

/// Rebuild the root→origin path of iterator `idx` from the merge-side
/// path forest, appending `(child, parent, weight)` edges exactly as
/// [`Dijkstra::path_edges_into`] would for a reverse-direction
/// traversal. Returns `false` if the node was never consumed for that
/// iterator (cannot happen for origins drawn from `u.Lⱼ`).
fn reconstruct_path(
    paths: &[FxHashMap<u32, (u32, f64)>],
    infos: &[(usize, NodeId)],
    idx: usize,
    node: NodeId,
    out: &mut Vec<(NodeId, NodeId, f64)>,
) -> bool {
    let origin = infos[idx].1;
    let mut cur = node.0;
    while cur != origin.0 {
        let Some(&(parent, w)) = paths[idx].get(&cur) else {
            return false;
        };
        out.push((NodeId(cur), NodeId(parent), w));
        cur = parent;
    }
    true
}

/// The parallel executor. Caller (the dispatcher in
/// [`crate::search::backward::backward_search_in`]) guarantees ≥ 2
/// keyword sets, all non-empty, and `config.search_threads ≥ 2`.
pub(super) fn parallel_backward_search(
    arena: &mut SearchArena,
    tuple_graph: &TupleGraph,
    scorer: &Scorer<'_>,
    keyword_sets: &[Vec<NodeId>],
    config: &SearchConfig,
    excluded_roots: &FxHashSet<u32>,
) -> SearchOutcome {
    let graph = tuple_graph.graph();
    let n_terms = keyword_sets.len();
    let threads = config.search_threads.min(n_terms).max(1);

    // Iterator construction in the exact sequential order (term-major,
    // origins in set order): global indices, handicaps, and the
    // (term, origin) → index map all match the sequential kernel.
    let total_origins: usize = keyword_sets.iter().map(|s| s.len()).sum();
    let mut infos: Vec<(usize, NodeId)> = Vec::with_capacity(total_origins);
    let mut iter_index: FxHashMap<(u32, u32), usize> =
        FxHashMap::with_capacity_and_hasher(total_origins, Default::default());
    let prestige_handicap = graph.min_edge_weight().min(1.0);
    let mut max_handicap = 0.0f64;
    let mut tasks: Vec<ShardTask<'_>> = Vec::with_capacity(n_terms);
    let mut channels: Vec<ShardChannel> = Vec::with_capacity(n_terms);
    {
        let shard_pools = arena.shard_pools(n_terms);
        let mut idx: u32 = 0;
        for (term, (set, pool)) in keyword_sets.iter().zip(shard_pools.iter_mut()).enumerate() {
            let start_idx = idx;
            let mut iterators: Vec<Dijkstra<'_>> = Vec::with_capacity(set.len());
            let mut heap: BinaryHeap<ProdEntry> = BinaryHeap::with_capacity(set.len());
            for &origin in set {
                let (mut iterator, handicap) = make_iterator(
                    graph,
                    origin,
                    pool.checkout(),
                    scorer,
                    config,
                    prestige_handicap,
                );
                max_handicap = max_handicap.max(handicap);
                if let Some(dist) = iterator.peek_dist() {
                    heap.push(ProdEntry {
                        dist,
                        idx,
                        local: iterators.len() as u32,
                    });
                }
                infos.push((term, origin));
                iter_index.insert((term as u32, origin.0), idx as usize);
                iterators.push(iterator);
                idx += 1;
            }
            let chan = ShardChannel::new(start_idx);
            match heap.peek() {
                Some(top) => chan.bound.store(top.dist.to_bits(), MemOrder::Relaxed),
                None => chan.done.store(true, MemOrder::Relaxed),
            }
            channels.push(chan);
            tasks.push(ShardTask {
                shard: term,
                iterators,
                heap,
            });
        }
    }
    let total_iterators = infos.len();

    // Round-robin shard → thread assignment. The assignment has no
    // effect on output (the merge order is defined over the channels),
    // only on load balance.
    let mut thread_tasks: Vec<Vec<ShardTask<'_>>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        thread_tasks[i % threads].push(task);
    }

    let policy = RootPolicy::new(tuple_graph, excluded_roots, config);
    let mut sink = AnswerSink::new(
        n_terms,
        &mut arena.lists,
        &mut arena.cross,
        policy,
        scorer,
        config,
        iter_index,
    );
    sink.stats.iterators = total_iterators;
    sink.stats.shards = n_terms;
    let paths = arena.merge.maps(total_iterators);
    let mut early_stop = EarlyStop::new(config, scorer, max_handicap, keyword_sets);
    let stop = AtomicBool::new(false);
    let mut stall_ns: u64 = 0;
    let span_origin = arena.spans.is_enabled().then(|| arena.spans.origin());
    let merge_span = arena.spans.begin();

    let runs: Vec<ShardRun> = std::thread::scope(|scope| {
        let channels_ref = &channels;
        let stop_ref = &stop;
        let handles: Vec<_> = thread_tasks
            .into_iter()
            .map(|tasks| {
                scope.spawn(move || run_shards(tasks, channels_ref, stop_ref, span_origin))
            })
            .collect();

        // ---- the deterministic merge stage (caller thread) ----
        'merge: while sink.want_more() {
            // Cooperative cancellation: breaking here reaches the
            // `stop` store below, which halts every shard thread.
            if arena.deadline.expired() {
                sink.stats.deadline_expirations += 1;
                break 'merge;
            }
            // Select the globally smallest candidate: a queue head, or
            // an empty live shard's frontier bound. Identical total
            // order to the sequential iterator heap: (dist, idx), with
            // a bound standing in for its shard's smallest possible
            // future key (bound, start_idx).
            let (shard, ev) = loop {
                let mut best_key: Option<(f64, u32)> = None;
                let mut best_event: Option<(usize, Event)> = None;
                for (s, chan) in channels_ref.iter().enumerate() {
                    // Read order matters: `done` and `bound` BEFORE the
                    // queue peek. The producer pushes an event and only
                    // then raises `bound` (or sets `done`), both with
                    // release stores — so if an acquire read here
                    // returns a post-push value, the later peek is
                    // guaranteed to see that push. Peeking first would
                    // let an event land between peek and bound-read and
                    // be masked by the fresher (higher) bound, making
                    // the merge consume another shard's larger key
                    // first and breaking sequential-order fidelity.
                    let done = chan.done.load(MemOrder::Acquire);
                    let bound = f64::from_bits(chan.bound.load(MemOrder::Acquire));
                    let (key, event) = match chan.queue.peek() {
                        Some(ev) => ((ev.dist, ev.idx), Some((s, ev))),
                        // Empty after a `done` read: truly drained
                        // (`done` is stored after the final push, so
                        // that push would have been visible above).
                        None if done => continue,
                        // Empty live shard: `bound` was stored before
                        // every event this peek could have missed, and
                        // bounds are monotone — a valid lower bound on
                        // all unconsumed keys of this shard.
                        None => ((bound, chan.start_idx), None),
                    };
                    let better = match best_key {
                        None => true,
                        Some(bk) => key.0.total_cmp(&bk.0).then(key.1.cmp(&bk.1)).is_lt(),
                    };
                    if better {
                        best_key = Some(key);
                        best_event = event;
                    }
                }
                let Some(key) = best_key else {
                    break 'merge; // every shard done and drained
                };
                // The exact PR-4 bound, on the min frontier across live
                // shards. `should_stop` is monotone in the distance, so
                // firing on a bound (dist ≤ the real next event) stops
                // at exactly the same consumed-event prefix as the
                // sequential kernel.
                if early_stop.should_stop(key.0, sink.emitted.len(), &sink.output) {
                    sink.stats.early_terminations += 1;
                    break 'merge;
                }
                match best_event {
                    Some((s, ev)) => break (s, ev),
                    None => {
                        // The minimum is an empty live shard's bound:
                        // yield and re-scan (bounds only rise, queues
                        // only fill, so this converges).
                        let t0 = Instant::now();
                        std::thread::yield_now();
                        stall_ns += t0.elapsed().as_nanos() as u64;
                    }
                }
            };
            channels_ref[shard].queue.advance();
            sink.stats.pops += 1;
            if ev.parent != NIL {
                paths[ev.idx as usize].insert(ev.node, (ev.parent, ev.weight));
            }
            let (term, origin) = infos[ev.idx as usize];
            sink.process_visit(NodeId(ev.node), term, origin, |idx, node, out| {
                reconstruct_path(paths, &infos, idx, node, out)
            });
        }

        stop.store(true, MemOrder::Release);
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });

    sink.stats.merge_stall_ns = stall_ns;
    let outcome = sink.finish();
    arena.spans.end("merge", 0, merge_span);
    for run in &runs {
        for &(shard, start_ns, end_ns) in &run.spans {
            arena.spans.push("expand", shard as u32, start_ns, end_ns);
        }
    }
    let shard_pools = arena.shard_pools(n_terms);
    for run in runs {
        for (shard, states) in run.recycled {
            for state in states {
                shard_pools[shard].recycle(state);
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GraphConfig, ScoreParams, SearchConfig};
    use crate::search::backward::backward_search_in;
    use crate::search::SearchStats;
    use banks_storage::{ColumnType, Database, RelationSchema, Value};

    #[test]
    fn spsc_queue_roundtrip_and_backpressure() {
        let q = EventQueue::new();
        assert!(q.peek().is_none());
        let mk = |i: u32| Event {
            dist: i as f64,
            idx: i,
            node: i,
            parent: NIL,
            weight: 0.0,
        };
        for i in 0..QUEUE_CAPACITY as u32 {
            assert!(q.push(mk(i)));
        }
        assert!(!q.push(mk(9999)), "full queue rejects");
        for i in 0..QUEUE_CAPACITY as u32 {
            let ev = q.peek().expect("queued");
            assert_eq!(ev.idx, i);
            q.advance();
        }
        assert!(q.peek().is_none());
        // Wrap-around keeps working.
        assert!(q.push(mk(7)));
        assert_eq!(q.peek().unwrap().idx, 7);
        q.advance();
    }

    #[test]
    fn spsc_queue_cross_thread_order() {
        let q = EventQueue::new();
        let n = 100_000u32;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..n {
                    let ev = Event {
                        dist: i as f64,
                        idx: i,
                        node: i.wrapping_mul(31),
                        parent: i,
                        weight: i as f64 * 0.5,
                    };
                    while !q.push(ev) {
                        std::thread::yield_now();
                    }
                }
            });
            let mut seen = 0u32;
            while seen < n {
                let Some(ev) = q.peek() else {
                    std::thread::yield_now();
                    continue;
                };
                assert_eq!(ev.idx, seen);
                assert_eq!(ev.node, seen.wrapping_mul(31));
                assert_eq!(ev.weight, seen as f64 * 0.5);
                q.advance();
                seen += 1;
            }
        });
    }

    /// A ladder database: papers chained through citations plus authors,
    /// enough structure for multi-source multi-term queries.
    fn ladder_db(rungs: usize) -> Database {
        let mut db = Database::new("ladder");
        db.create_relation(
            RelationSchema::builder("Author")
                .column("Id", ColumnType::Text)
                .column("Name", ColumnType::Text)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("Id", ColumnType::Text)
                .column("Title", ColumnType::Text)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Writes")
                .column("AuthorId", ColumnType::Text)
                .column("PaperId", ColumnType::Text)
                .primary_key(&["AuthorId", "PaperId"])
                .foreign_key(&["AuthorId"], "Author")
                .foreign_key(&["PaperId"], "Paper")
                .build()
                .unwrap(),
        )
        .unwrap();
        for r in 0..rungs {
            db.insert(
                "Author",
                vec![
                    Value::text(format!("A{r}")),
                    Value::text(format!("Auth {r}")),
                ],
            )
            .unwrap();
            db.insert(
                "Paper",
                vec![
                    Value::text(format!("P{r}")),
                    Value::text(format!("Paper {r}")),
                ],
            )
            .unwrap();
        }
        for r in 0..rungs {
            for d in 0..3usize {
                let p = (r + d) % rungs;
                db.insert(
                    "Writes",
                    vec![Value::text(format!("A{r}")), Value::text(format!("P{p}"))],
                )
                .unwrap();
            }
        }
        db
    }

    fn assert_identical(a: &SearchOutcome, b: &SearchOutcome, ctx: &str) {
        assert_eq!(a.stats, b.stats, "{ctx}: stats diverged");
        assert_eq!(a.answers.len(), b.answers.len(), "{ctx}: answer count");
        for (x, y) in a.answers.iter().zip(&b.answers) {
            assert_eq!(x.tree, y.tree, "{ctx}: tree diverged");
            assert_eq!(
                x.relevance.to_bits(),
                y.relevance.to_bits(),
                "{ctx}: relevance bits diverged"
            );
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let db = ladder_db(12);
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        let scorer = Scorer::new(tg.graph(), ScoreParams::default());
        let all_authors: Vec<NodeId> = db
            .relation("Author")
            .unwrap()
            .scan()
            .map(|(rid, _)| tg.node(rid).unwrap())
            .collect();
        let all_papers: Vec<NodeId> = db
            .relation("Paper")
            .unwrap()
            .scan()
            .map(|(rid, _)| tg.node(rid).unwrap())
            .collect();
        let queries: Vec<Vec<Vec<NodeId>>> = vec![
            vec![all_authors[..4].to_vec(), all_papers[..4].to_vec()],
            vec![
                all_authors[..2].to_vec(),
                all_papers[4..8].to_vec(),
                all_authors[6..9].to_vec(),
            ],
            vec![all_papers.clone(), all_authors.clone()],
        ];
        let excluded = FxHashSet::default();
        for (qi, sets) in queries.iter().enumerate() {
            for node_weight_in_distance in [false, true] {
                for max_results in [1usize, 3, 10] {
                    let base = SearchConfig {
                        max_results,
                        node_weight_in_distance,
                        ..SearchConfig::default()
                    };
                    let mut seq_arena = SearchArena::new();
                    let sequential =
                        backward_search_in(&mut seq_arena, &tg, &scorer, sets, &base, &excluded);
                    assert_eq!(sequential.stats.shards, 0);
                    for threads in [2usize, 4, 16] {
                        let config = SearchConfig {
                            search_threads: threads,
                            parallel_min_origins: 0,
                            ..base.clone()
                        };
                        let mut arena = SearchArena::new();
                        let parallel =
                            backward_search_in(&mut arena, &tg, &scorer, sets, &config, &excluded);
                        assert_eq!(
                            parallel.stats.shards,
                            sets.len(),
                            "q{qi}: parallel executor must engage"
                        );
                        assert_identical(
                            &sequential,
                            &parallel,
                            &format!("q{qi} threads={threads} k={max_results} nwd={node_weight_in_distance}"),
                        );
                        // And the reused-arena second run is identical too.
                        let again =
                            backward_search_in(&mut arena, &tg, &scorer, sets, &config, &excluded);
                        assert_identical(&sequential, &again, &format!("q{qi} rerun"));
                    }
                }
            }
        }
    }

    #[test]
    fn cutover_keeps_tiny_queries_sequential() {
        let db = ladder_db(4);
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        let scorer = Scorer::new(tg.graph(), ScoreParams::default());
        let a0 = db
            .relation("Author")
            .unwrap()
            .scan()
            .map(|(rid, _)| tg.node(rid).unwrap())
            .next()
            .unwrap();
        let p0 = db
            .relation("Paper")
            .unwrap()
            .scan()
            .map(|(rid, _)| tg.node(rid).unwrap())
            .next()
            .unwrap();
        let config = SearchConfig {
            search_threads: 4,
            parallel_min_origins: 3,
            ..SearchConfig::default()
        };
        let mut arena = SearchArena::new();
        // Two origins < cutover of 3: sequential fallback, counted.
        let outcome = backward_search_in(
            &mut arena,
            &tg,
            &scorer,
            &[vec![a0], vec![p0]],
            &config,
            &FxHashSet::default(),
        );
        assert_eq!(outcome.stats.shards, 0);
        assert_eq!(outcome.stats.sequential_fallbacks, 1);
        assert!(
            outcome.stats.arena_retained_bytes > 0,
            "post-trim pinned arena bytes are reported"
        );
        // Single keyword set: always sequential.
        let single = backward_search_in(
            &mut arena,
            &tg,
            &scorer,
            &[vec![a0, p0]],
            &config,
            &FxHashSet::default(),
        );
        assert_eq!(single.stats.shards, 0);
        assert_eq!(single.stats.sequential_fallbacks, 1);
        // Without parallelism configured there is no "fallback".
        let plain = backward_search_in(
            &mut arena,
            &tg,
            &scorer,
            &[vec![a0], vec![p0]],
            &SearchConfig::default(),
            &FxHashSet::default(),
        );
        assert_eq!(plain.stats.sequential_fallbacks, 0);
    }

    #[test]
    fn trace_spans_cover_both_executors() {
        let db = ladder_db(8);
        let tg = TupleGraph::build(&db, &GraphConfig::default()).unwrap();
        let scorer = Scorer::new(tg.graph(), ScoreParams::default());
        let authors: Vec<NodeId> = db
            .relation("Author")
            .unwrap()
            .scan()
            .map(|(rid, _)| tg.node(rid).unwrap())
            .collect();
        let papers: Vec<NodeId> = db
            .relation("Paper")
            .unwrap()
            .scan()
            .map(|(rid, _)| tg.node(rid).unwrap())
            .collect();
        let sets = vec![authors[..4].to_vec(), papers[..4].to_vec()];
        let excluded = FxHashSet::default();

        // Disabled buffer (the default): no spans, results unchanged.
        let mut arena = SearchArena::new();
        let base = SearchConfig::default();
        let baseline = backward_search_in(&mut arena, &tg, &scorer, &sets, &base, &excluded);
        assert!(arena.spans.spans().is_empty());

        // Sequential executor, traced: a single expand span.
        arena.spans.enable();
        let traced = backward_search_in(&mut arena, &tg, &scorer, &sets, &base, &excluded);
        let names: Vec<&str> = arena.spans.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["expand"]);
        assert_eq!(traced.answers.len(), baseline.answers.len());

        // Parallel executor, traced: one expand span per shard plus the
        // merge span, all closed after they open.
        let config = SearchConfig {
            search_threads: 2,
            parallel_min_origins: 0,
            ..SearchConfig::default()
        };
        arena.spans.enable();
        let parallel = backward_search_in(&mut arena, &tg, &scorer, &sets, &config, &excluded);
        assert_eq!(parallel.stats.shards, sets.len());
        let spans = arena.spans.spans();
        let expands: Vec<u32> = spans
            .iter()
            .filter(|s| s.name == "expand")
            .map(|s| s.index)
            .collect();
        assert_eq!(expands.len(), sets.len(), "one expand span per shard");
        assert!(expands.contains(&0) && expands.contains(&1));
        assert_eq!(spans.iter().filter(|s| s.name == "merge").count(), 1);
        for s in spans {
            assert!(s.end_ns >= s.start_ns, "span {s:?} runs backwards");
        }
        arena.spans.disable();
    }

    #[test]
    fn stats_equality_ignores_environment_counters() {
        let mut a = SearchStats {
            pops: 7,
            ..SearchStats::default()
        };
        let b = SearchStats {
            pops: 7,
            shards: 3,
            sequential_fallbacks: 1,
            merge_stall_ns: 12345,
            arena_retained_bytes: 999,
            ..SearchStats::default()
        };
        assert_eq!(a, b, "environment counters are not execution semantics");
        a.pops = 8;
        assert_ne!(a, b);
    }
}
