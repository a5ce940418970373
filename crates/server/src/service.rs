//! The in-process query service: an `Arc`-shared BANKS snapshot fronted
//! by the sharded result cache.
//!
//! Every front end — the HTTP endpoint, `banks-cli serve`, the
//! throughput bench — goes through [`QueryService::search`], so cache
//! semantics and counters are identical everywhere.
//!
//! Since live ingestion (`banks-ingest`), the snapshot is **epoch
//! versioned**: [`QueryService::install_snapshot`] atomically swaps in a
//! newly published `Arc<Banks>`. Readers never block — each query
//! clones the current snapshot pointer under a read lock held for
//! nanoseconds and finishes on whatever epoch it started with. Cache
//! entries are stamped with their snapshot's epoch and invalidated
//! lazily on lookup after a publish, entry by entry, instead of being
//! flushed wholesale.

use crate::cache::{CacheLookup, CacheStats, ShardedLruCache};
use banks_core::{
    Answer, Banks, BanksResult, CombineMode, EdgeScoreMode, NodeScoreMode, SearchArena,
    SearchStats, SearchStrategy,
};
use banks_graph::NodeId;
use banks_telemetry::{Histogram, SlowLog, SlowQuery, Span};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

thread_local! {
    /// One persistent [`SearchArena`] per worker thread: every cache-miss
    /// search this thread runs reuses the same Dijkstra state tables,
    /// origin-list pool and cross-product scratch, so steady-state
    /// serving mostly reuses kernel allocations. A state is sized by the
    /// nodes its iterator touches, not by the graph, so a published
    /// snapshot with a different node count (an epoch change) needs no
    /// hook into [`QueryService::install_snapshot`] — which could not
    /// reach other threads' locals anyway.
    static WORKER_ARENA: RefCell<SearchArena> = RefCell::new(SearchArena::new());
}

/// Service construction options.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum cached results (entries, not bytes). An entry holds the
    /// ranked answers (~2.2 KiB for the default 10 answers on a `datagen`
    /// 10K corpus) and, once it has been hit, its rendered JSON (~6.5 KB
    /// more). `/stats` reports the live total as `cache.bytes`.
    pub cache_capacity: usize,
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
    /// Record per-phase trace spans on every cold query. Spans feed the
    /// slow-query log and the opt-in `?trace=1` response section; the
    /// cost is a handful of clock reads per *miss* (hits never record),
    /// so this defaults to on. `false` reduces tracing to one branch.
    pub record_spans: bool,
    /// How many worst-by-latency cold queries the slow log retains
    /// (`GET /debug/slow`). `0` disables the log.
    pub slow_log_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 4096,
            cache_shards: 8,
            record_spans: true,
            slow_log_capacity: 16,
        }
    }
}

/// Per-request options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryOptions {
    /// Search algorithm (§3 backward by default).
    pub strategy: SearchStrategy,
    /// Override of `search.max_results`, capped by the server to the
    /// configured maximum.
    pub limit: Option<usize>,
    /// Force span recording for this query even when the service has
    /// `record_spans: false` (the `?trace=1` escape hatch). Does not
    /// affect the cache key: a traced and an untraced run of the same
    /// query share one entry, and a hit serves the spans recorded by
    /// whichever cold run populated it.
    pub trace: bool,
    /// Absolute deadline for a cold search. The expansion loops poll it
    /// (arena [`banks_graph::DeadlineToken`]) and cut the search short
    /// when it lapses; the truncated result is flagged via
    /// `SearchStats::deadline_expirations` and **never cached**. Not
    /// part of the cache key — a hit ignores the deadline entirely.
    pub deadline: Option<Instant>,
}

/// The normalized cache key: order- and case-insensitive keywords plus
/// everything that changes the ranked result — strategy, result limit,
/// and a fingerprint of the ranking parameters.
///
/// `mohan sudarshan` and `Sudarshan  Mohan` produce equal keys; a
/// repeated keyword is kept (term multiplicity changes the answer trees).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Sorted whitespace-separated terms; plain keywords are lowercased,
    /// qualified `Attr:keyword` terms keep their case (attribute
    /// resolution in the matcher is case-sensitive, so two spellings can
    /// legitimately produce different answers).
    pub terms: Vec<String>,
    /// Search strategy tag.
    pub strategy: SearchStrategy,
    /// Effective result limit.
    pub limit: usize,
    /// Fingerprint of the active [`banks_core::ScoreParams`].
    pub params_fingerprint: u64,
}

impl QueryKey {
    /// Normalize raw query text under the given options and parameter
    /// fingerprint.
    pub fn normalize(
        query_text: &str,
        options: QueryOptions,
        limit: usize,
        params: u64,
    ) -> QueryKey {
        let mut terms: Vec<String> = query_text
            .split_whitespace()
            .map(|t| {
                // Only plain keywords are case-folded: they go through
                // the lowercasing tokenizer anyway. Qualified terms
                // (`Relation.Column:keyword`) resolve their attribute
                // case-sensitively, so folding them would alias queries
                // with different results onto one cache entry.
                if t.contains(':') {
                    t.to_string()
                } else {
                    t.to_lowercase()
                }
            })
            .collect();
        terms.sort_unstable();
        QueryKey {
            terms,
            strategy: options.strategy,
            limit,
            params_fingerprint: params,
        }
    }

    /// Heap bytes the key's terms own.
    pub fn heap_bytes(&self) -> usize {
        self.terms.capacity() * size_of::<String>()
            + self.terms.iter().map(String::capacity).sum::<usize>()
    }
}

/// An immutable, shareable search result (what the cache stores).
#[derive(Debug)]
pub struct CachedResult {
    /// Ranked answers.
    pub answers: Vec<Answer>,
    /// Execution counters of the original (uncached) run.
    pub stats: SearchStats,
    /// Wall-clock time of the original search.
    pub cold_elapsed: Duration,
    /// Epoch of the snapshot this result was computed on. Lookups
    /// validate it against the current epoch, so a publish invalidates
    /// stale entries lazily instead of flushing the cache.
    pub epoch: u64,
    /// Serialized `"count":…,"answers":[…],"search_stats":{…}` JSON
    /// fragment, memoized by the HTTP layer on the entry's first *hit*
    /// (a miss renders straight into its own response): it is identical
    /// for every alias of the cache key, so later hits skip re-rendering
    /// every connection tree, while a result that is never read again
    /// never holds its JSON. Exact-size, since it never grows.
    pub http_fragment: OnceLock<Box<str>>,
    /// Phase breakdown of the original cold run (`parse`, `match`,
    /// `expand`, `score`), nanosecond offsets from the start of
    /// the search. Empty when span recording was off.
    pub spans: Vec<Span>,
}

impl CachedResult {
    /// Heap bytes this result holds: itself (it lives behind an `Arc`),
    /// the answers with their edge and keyword-node buffers, the spans,
    /// and the memoized fragment once it is set.
    pub fn heap_bytes(&self) -> usize {
        let trees: usize = self
            .answers
            .iter()
            .map(|a| {
                a.tree.edges.capacity() * size_of::<(NodeId, NodeId, f64)>()
                    + a.tree.keyword_nodes.capacity() * size_of::<NodeId>()
            })
            .sum();
        size_of::<CachedResult>()
            + self.answers.capacity() * size_of::<Answer>()
            + trees
            + self.spans.capacity() * size_of::<Span>()
            + self.http_fragment.get().map_or(0, |f| f.len())
    }
}

/// What [`QueryService::search`] returns.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// The result (shared with the cache — cloning is pointer-cheap).
    pub result: Arc<CachedResult>,
    /// Whether this response came from the cache.
    pub cached: bool,
    /// Time to produce this response (lookup time on a hit, search time
    /// on a miss).
    pub elapsed: Duration,
    /// The normalized key the lookup used.
    pub key: QueryKey,
    /// Epoch of the snapshot that answered (== `result.epoch`).
    pub epoch: u64,
    /// The snapshot that answered — rendering an answer's node ids must
    /// use exactly this instance, not whatever is current by the time
    /// the response is serialized.
    pub banks: Arc<Banks>,
}

/// Aggregated service counters for `/stats`.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Queries answered (hits + misses), excluding errors.
    pub queries: u64,
    /// Queries that failed to parse or execute.
    pub errors: u64,
    /// Cache counters.
    pub cache: CacheStats,
    /// Heap bytes held by the live cache entries (their keys' terms plus
    /// [`CachedResult::heap_bytes`]), summed when the stats are read.
    pub cache_bytes: usize,
    /// Graph node count.
    pub graph_nodes: usize,
    /// Graph edge count.
    pub graph_edges: usize,
    /// Index + graph memory footprint in bytes.
    pub memory_bytes: usize,
    /// Seconds since the service was built.
    pub uptime_secs: f64,
    /// Current snapshot epoch (0 until the first publication).
    pub epoch: u64,
    /// Caller-supplied timestamp of the last snapshot publication.
    pub last_publish: Option<String>,
    /// Wall-clock milliseconds (Unix epoch) of the last snapshot
    /// install, `None` until the first one — operators read staleness in
    /// seconds even when the writer supplies no `ts`.
    pub last_publish_unix_ms: Option<u64>,
    /// How many epochs this service trails the leader it replicates
    /// from: `None` unless a replication tailer reports leader epochs
    /// (see [`QueryService::note_leader_epoch`]).
    pub epoch_lag: Option<u64>,
    /// Cache invalidations observed per epoch: `(epoch, count)` pairs,
    /// ascending — entry `(e, n)` means `n` stale results were dropped
    /// while epoch `e` was current.
    pub invalidations_by_epoch: Vec<(u64, u64)>,
    /// Cold queries whose heap search stopped early once the result set
    /// provably could not improve (Σ `SearchStats::early_terminations`).
    pub early_terminations: u64,
}

/// The current snapshot plus everything derived from it that a query
/// needs — swapped atomically as one `Arc` on publication.
struct Snapshot {
    banks: Arc<Banks>,
    epoch: u64,
    params_fingerprint: u64,
}

/// A thread-safe query service over an epoch-versioned BANKS snapshot.
///
/// The system is `Send + Sync` (verified by compile-time assertion
/// below), so one `Arc<QueryService>` serves any number of worker
/// threads; results are `Arc`-shared between the cache and responses.
/// Writers publish through [`QueryService::install_snapshot`]; the read
/// lock is held only long enough to clone an `Arc`.
pub struct QueryService {
    snapshot: RwLock<Arc<Snapshot>>,
    cache: ShardedLruCache<QueryKey, Arc<CachedResult>>,
    queries: AtomicU64,
    errors: AtomicU64,
    started: Instant,
    last_publish: Mutex<Option<String>>,
    /// epoch → stale entries dropped while that epoch was current.
    invalidations_by_epoch: Mutex<BTreeMap<u64, u64>>,
    /// Σ early heap terminations across cold queries.
    early_terminations: AtomicU64,
    /// Record spans on every cold query (see [`ServiceConfig`]).
    record_spans: bool,
    /// Worst cold queries with span breakdowns (`GET /debug/slow`).
    slow_log: SlowLog,
    /// Cold (cache-miss) search latency, nanosecond ticks. `Arc`ed so a
    /// metrics registry can export it without owning it.
    cold_latency: Arc<Histogram>,
    /// Cache-hit lookup latency, nanosecond ticks.
    hit_latency: Arc<Histogram>,
    /// Mirror of the current epoch for blocking waits: `min_epoch`
    /// readers park on the condvar; every install notifies it. (The
    /// `RwLock` snapshot itself cannot carry a condvar wait.)
    epoch_sync: Mutex<u64>,
    epoch_advanced: Condvar,
    /// Newest leader epoch observed by a replication tailer
    /// (`u64::MAX` = not a follower). Feeds `epoch_lag` in `/stats`.
    leader_epoch: AtomicU64,
    /// Unix milliseconds of the last snapshot install (0 = never).
    last_publish_unix_ms: AtomicU64,
}

/// How many epochs of invalidation counts `/stats` retains.
const INVALIDATION_EPOCHS_KEPT: usize = 64;

impl QueryService {
    /// Wrap a built BANKS snapshot (epoch 0).
    pub fn new(banks: Arc<Banks>, config: ServiceConfig) -> QueryService {
        QueryService::with_epoch(banks, 0, config)
    }

    /// Wrap a snapshot recovered at a known epoch — the crash-recovery
    /// path of `banks-persist`, where the restored state is already the
    /// product of `epoch` publications and the next publish must stamp
    /// `epoch + 1`.
    pub fn with_epoch(banks: Arc<Banks>, epoch: u64, config: ServiceConfig) -> QueryService {
        let params_fingerprint = fingerprint_params(&banks);
        QueryService {
            snapshot: RwLock::new(Arc::new(Snapshot {
                banks,
                epoch,
                params_fingerprint,
            })),
            cache: ShardedLruCache::new(config.cache_capacity, config.cache_shards),
            queries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            started: Instant::now(),
            last_publish: Mutex::new(None),
            invalidations_by_epoch: Mutex::new(BTreeMap::new()),
            early_terminations: AtomicU64::new(0),
            record_spans: config.record_spans,
            slow_log: SlowLog::new(config.slow_log_capacity),
            cold_latency: Arc::new(Histogram::new()),
            hit_latency: Arc::new(Histogram::new()),
            epoch_sync: Mutex::new(epoch),
            epoch_advanced: Condvar::new(),
            leader_epoch: AtomicU64::new(u64::MAX),
            last_publish_unix_ms: AtomicU64::new(0),
        }
    }

    fn current(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read().expect("snapshot lock"))
    }

    /// The current snapshot. In-flight queries hold their own clone, so
    /// a concurrent [`QueryService::install_snapshot`] never invalidates
    /// what a reader is using.
    pub fn banks(&self) -> Arc<Banks> {
        Arc::clone(&self.current().banks)
    }

    /// The current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.current().epoch
    }

    /// Atomically swap in a newly published snapshot. `epoch` must be
    /// greater than the current epoch (the publisher's counter is
    /// monotone; install order is serialized by the publisher's lock).
    /// Cached results stamped with older epochs are *not* flushed here —
    /// they fail epoch validation on their next lookup and are dropped
    /// one by one, keeping publication O(1) regardless of cache size.
    pub fn install_snapshot(&self, banks: Arc<Banks>, epoch: u64, published_at: Option<String>) {
        let params_fingerprint = fingerprint_params(&banks);
        let mut slot = self.snapshot.write().expect("snapshot lock");
        debug_assert!(epoch > slot.epoch, "epochs must advance monotonically");
        *slot = Arc::new(Snapshot {
            banks,
            epoch,
            params_fingerprint,
        });
        drop(slot);
        *self.last_publish.lock().expect("publish lock") = published_at;
        self.last_publish_unix_ms
            .store(unix_millis_now(), Ordering::Relaxed);
        let mut mirror = self.epoch_sync.lock().expect("epoch sync lock");
        if epoch > *mirror {
            *mirror = epoch;
            self.epoch_advanced.notify_all();
        }
    }

    /// Block until the serving epoch reaches `min_epoch` or `deadline`
    /// passes; returns the serving epoch either way. The read-your-writes
    /// wait behind `/search?min_epoch=N` on a follower: the caller saw
    /// the leader ack epoch `N` and parks here until the tailer installs
    /// it (or gives up and redirects to the leader).
    pub fn wait_for_min_epoch(&self, min_epoch: u64, deadline: Duration) -> u64 {
        let mirror = self.epoch_sync.lock().expect("epoch sync lock");
        let (guard, _timeout) = self
            .epoch_advanced
            .wait_timeout_while(mirror, deadline, |&mut e| e < min_epoch)
            .expect("epoch sync lock");
        *guard
    }

    /// Record the newest leader epoch a replication tailer has observed.
    /// Turns on `epoch_lag` in [`QueryService::stats`].
    pub fn note_leader_epoch(&self, epoch: u64) {
        self.leader_epoch.store(epoch, Ordering::Relaxed);
    }

    /// The newest leader epoch reported via
    /// [`QueryService::note_leader_epoch`], if any.
    pub fn leader_epoch(&self) -> Option<u64> {
        match self.leader_epoch.load(Ordering::Relaxed) {
            u64::MAX => None,
            epoch => Some(epoch),
        }
    }

    /// Answer a keyword query through the cache.
    pub fn search(&self, query_text: &str, options: QueryOptions) -> BanksResult<SearchResponse> {
        // Pin this query's snapshot: everything below — parse, cache
        // key, search, epoch stamp — uses it, even if a publish lands
        // mid-query.
        let snapshot = self.current();
        let banks = &snapshot.banks;

        // Reject unparseable queries before touching the cache, so the
        // hit/miss counters only ever count answerable queries and
        // `queries == hits + computed` stays an invariant of `/stats`.
        // The parse is kept and reused on the miss path below.
        let trace = self.record_spans || options.trace;
        let parse_t0 = trace.then(Instant::now);
        let query = match banks.parse(query_text) {
            Ok(query) => query,
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        let parse_ns = parse_t0.map(|t| t.elapsed().as_nanos() as u64);
        let configured_max = banks.config().search.max_results;
        let limit = options
            .limit
            .unwrap_or(configured_max)
            .min(configured_max)
            .max(1);
        let key = QueryKey::normalize(query_text, options, limit, snapshot.params_fingerprint);

        let t0 = Instant::now();
        // Three-way epoch check: equal stamps are served, older stamps
        // were superseded by a publish and are dropped, and a *newer*
        // stamp (this reader pinned an older snapshot mid-publish) is
        // left alone for the readers it is valid for.
        match self
            .cache
            .get_validate(&key, |r| match r.epoch.cmp(&snapshot.epoch) {
                std::cmp::Ordering::Equal => crate::cache::Validity::Valid,
                std::cmp::Ordering::Less => crate::cache::Validity::Stale,
                std::cmp::Ordering::Greater => crate::cache::Validity::Newer,
            }) {
            CacheLookup::Hit(result) => {
                self.queries.fetch_add(1, Ordering::Relaxed);
                let elapsed = t0.elapsed();
                self.hit_latency.record_duration(elapsed);
                return Ok(SearchResponse {
                    cached: true,
                    elapsed,
                    key,
                    epoch: result.epoch,
                    banks: Arc::clone(banks),
                    result,
                });
            }
            CacheLookup::Stale => self.note_invalidation(snapshot.epoch),
            CacheLookup::Newer | CacheLookup::Miss => {}
        }

        let t0 = Instant::now();
        let mut config = banks.config().clone();
        config.search.max_results = limit;
        let (outcome, spans) = WORKER_ARENA
            .with(|arena| {
                let mut arena = arena.borrow_mut();
                if trace {
                    // The parse ran before the buffer's clock origin, so
                    // its span is back-dated to offset 0; the kernel's
                    // own spans (match/expand/score) follow it.
                    arena.spans.enable();
                    if let Some(parse_ns) = parse_ns {
                        arena.spans.push("parse", 0, 0, parse_ns);
                    }
                }
                arena.deadline.arm(options.deadline);
                let result = banks.search_parsed_in(&query, options.strategy, &config, &mut arena);
                arena.deadline.clear();
                let spans = if trace {
                    let spans = arena.spans.take();
                    arena.spans.disable();
                    spans
                } else {
                    Vec::new()
                };
                result.map(|outcome| (outcome, spans))
            })
            .inspect_err(|_| {
                self.errors.fetch_add(1, Ordering::Relaxed);
                // The lookup above counted a miss for a query that turns
                // out to be unanswerable (e.g. every term unmatched under
                // `allow_missing_terms`); retract it so `/stats` keeps
                // `hits + misses == queries`.
                self.cache.forget_miss();
            })?;
        let elapsed = t0.elapsed();
        self.cold_latency.record_duration(elapsed);
        self.early_terminations
            .fetch_add(outcome.stats.early_terminations as u64, Ordering::Relaxed);
        self.slow_log
            .record(elapsed.as_micros() as u64, || SlowQuery {
                query: key.terms.join(" "),
                total_us: 0,
                epoch: snapshot.epoch,
                unix_ms: unix_millis_now(),
                spans: spans.clone(),
            });
        let result = Arc::new(CachedResult {
            answers: outcome.answers,
            stats: outcome.stats,
            cold_elapsed: elapsed,
            epoch: snapshot.epoch,
            http_fragment: OnceLock::new(),
            spans,
        });
        // Conditional insert under the shard lock: a fresher-epoch entry
        // (cached by a racing reader after a publish we missed, whether
        // it was visible at lookup time or landed while we searched)
        // must not be clobbered by this result. A deadline-truncated
        // result is a prefix of the real answer set and must never be
        // served to a later (unexpired) request, so it skips the cache.
        if result.stats.deadline_expirations == 0 {
            self.cache
                .insert_if(key.clone(), Arc::clone(&result), |existing| {
                    existing.epoch <= snapshot.epoch
                });
        }
        self.queries.fetch_add(1, Ordering::Relaxed);
        Ok(SearchResponse {
            cached: false,
            elapsed,
            key,
            epoch: snapshot.epoch,
            banks: Arc::clone(banks),
            result,
        })
    }

    fn note_invalidation(&self, current_epoch: u64) {
        let mut by_epoch = self
            .invalidations_by_epoch
            .lock()
            .expect("invalidation lock");
        *by_epoch.entry(current_epoch).or_insert(0) += 1;
        while by_epoch.len() > INVALIDATION_EPOCHS_KEPT {
            by_epoch.pop_first();
        }
    }

    /// Render an answer Figure-2 style against the **current** snapshot.
    /// For answers out of a [`SearchResponse`], prefer rendering through
    /// its own `banks` handle (node ids are snapshot-relative).
    pub fn render_answer(&self, answer: &Answer) -> String {
        self.current().banks.render_answer(answer)
    }

    /// Service counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats_with_snapshot().0
    }

    /// Service counters plus the snapshot they were read against.
    ///
    /// `/stats` derives storage-backend figures from the snapshot; using
    /// the one this method pinned (instead of a second `banks()` call)
    /// keeps the whole stats document internally consistent even when a
    /// publish lands between the two reads.
    pub fn stats_with_snapshot(&self) -> (ServiceStats, Arc<Banks>) {
        let snapshot = self.current();
        let stats = ServiceStats {
            queries: self.queries.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache: self.cache.stats(),
            cache_bytes: self.cache.fold(0, |bytes, key, result| {
                bytes + key.heap_bytes() + result.heap_bytes()
            }),
            graph_nodes: snapshot.banks.tuple_graph().node_count(),
            graph_edges: snapshot.banks.tuple_graph().graph().edge_count(),
            memory_bytes: snapshot.banks.memory_bytes(),
            uptime_secs: self.started.elapsed().as_secs_f64(),
            epoch: snapshot.epoch,
            last_publish: self.last_publish.lock().expect("publish lock").clone(),
            last_publish_unix_ms: match self.last_publish_unix_ms.load(Ordering::Relaxed) {
                0 => None,
                ms => Some(ms),
            },
            epoch_lag: self
                .leader_epoch()
                .map(|leader| leader.saturating_sub(snapshot.epoch)),
            invalidations_by_epoch: self
                .invalidations_by_epoch
                .lock()
                .expect("invalidation lock")
                .iter()
                .map(|(&e, &n)| (e, n))
                .collect(),
            early_terminations: self.early_terminations.load(Ordering::Relaxed),
        };
        (stats, Arc::clone(&snapshot.banks))
    }

    /// The slow-query log (worst cold queries with span breakdowns).
    pub fn slow_log(&self) -> &SlowLog {
        &self.slow_log
    }

    /// Cold (cache-miss) end-to-end latency histogram, nanosecond ticks.
    pub fn cold_latency(&self) -> Arc<Histogram> {
        Arc::clone(&self.cold_latency)
    }

    /// Cache-hit lookup latency histogram, nanosecond ticks.
    pub fn hit_latency(&self) -> Arc<Histogram> {
        Arc::clone(&self.hit_latency)
    }

    /// Direct cache access (benchmarks and tests).
    pub fn cache(&self) -> &ShardedLruCache<QueryKey, Arc<CachedResult>> {
        &self.cache
    }
}

/// Current wall clock as Unix milliseconds (0 if the clock is before
/// the Unix epoch, which only a badly skewed host can produce).
fn unix_millis_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Fingerprint the ranking parameters that affect result order, so a
/// service built with different scoring never shares cache keys (e.g.
/// across snapshot reloads with a new config).
fn fingerprint_params(banks: &Banks) -> u64 {
    let p = banks.config().score;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(p.lambda.to_bits());
    mix(match p.edge_score {
        EdgeScoreMode::Linear => 1,
        EdgeScoreMode::Log => 2,
    });
    mix(match p.node_score {
        NodeScoreMode::Linear => 1,
        NodeScoreMode::Log => 2,
    });
    mix(match p.combine {
        CombineMode::Additive => 1,
        CombineMode::Multiplicative => 2,
    });
    h
}

// Compile-time proof that the whole service can be shared across
// threads; this is what lets every worker borrow one snapshot.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryService>();
    assert_send_sync::<Banks>();
    assert_send_sync::<SearchResponse>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use banks_storage::{ColumnType, Database, RelationSchema, Value};

    fn dblp() -> Database {
        let mut db = Database::new("dblp");
        db.create_relation(
            RelationSchema::builder("Author")
                .column("AuthorId", ColumnType::Text)
                .column("AuthorName", ColumnType::Text)
                .primary_key(&["AuthorId"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("PaperId", ColumnType::Text)
                .column("PaperName", ColumnType::Text)
                .primary_key(&["PaperId"])
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
        for (id, name) in [
            ("MohanC", "C. Mohan"),
            ("SudarshanS", "S. Sudarshan"),
            ("SoumenC", "Soumen Chakrabarti"),
        ] {
            db.insert("Author", vec![Value::text(id), Value::text(name)])
                .unwrap();
        }
        db.insert(
            "Paper",
            vec![
                Value::text("P1"),
                Value::text("Transaction Recovery Methods"),
            ],
        )
        .unwrap();
        for a in ["MohanC", "SudarshanS"] {
            db.insert("Writes", vec![Value::text(a), Value::text("P1")])
                .unwrap();
        }
        db
    }

    fn service() -> QueryService {
        let banks = Arc::new(Banks::new(dblp()).unwrap());
        QueryService::new(banks, ServiceConfig::default())
    }

    #[test]
    fn normalization_merges_order_case_and_spacing() {
        let a = QueryKey::normalize("mohan sudarshan", QueryOptions::default(), 10, 7);
        let b = QueryKey::normalize("Sudarshan  Mohan", QueryOptions::default(), 10, 7);
        assert_eq!(a, b);
        // Term multiplicity is preserved.
        let c = QueryKey::normalize("mohan mohan", QueryOptions::default(), 10, 7);
        assert_ne!(a.terms, c.terms);
        // Qualified terms stay case-sensitive: attribute lookup is exact,
        // so different spellings may return different answers and must
        // not share a cache entry.
        assert_ne!(
            QueryKey::normalize("PaperName:levy", QueryOptions::default(), 10, 7),
            QueryKey::normalize("papername:levy", QueryOptions::default(), 10, 7)
        );
        // Strategy and limit are part of the key.
        let fwd = QueryOptions {
            strategy: SearchStrategy::Forward,
            ..QueryOptions::default()
        };
        assert_ne!(
            QueryKey::normalize("mohan", fwd, 10, 7),
            QueryKey::normalize("mohan", QueryOptions::default(), 10, 7)
        );
        assert_ne!(
            QueryKey::normalize("mohan", QueryOptions::default(), 5, 7),
            QueryKey::normalize("mohan", QueryOptions::default(), 10, 7)
        );
    }

    #[test]
    fn equivalent_queries_share_one_cache_entry() {
        let service = service();
        let first = service
            .search("mohan sudarshan", QueryOptions::default())
            .unwrap();
        assert!(!first.cached);
        let second = service
            .search("Sudarshan  Mohan", QueryOptions::default())
            .unwrap();
        assert!(second.cached, "normalized repeat must hit");
        assert!(Arc::ptr_eq(&first.result, &second.result));
        let stats = service.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.queries, 2);
    }

    #[test]
    fn cached_answers_match_direct_search() {
        let service = service();
        let direct = service.banks().search("mohan sudarshan").unwrap();
        let via_cache = service
            .search("mohan sudarshan", QueryOptions::default())
            .unwrap();
        let repeat = service
            .search("mohan sudarshan", QueryOptions::default())
            .unwrap();
        for resp in [&via_cache, &repeat] {
            assert_eq!(resp.result.answers.len(), direct.len());
            for (a, b) in direct.iter().zip(&resp.result.answers) {
                assert_eq!(a.tree.signature(), b.tree.signature());
                assert!((a.relevance - b.relevance).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn errors_are_counted_not_cached() {
        let service = service();
        assert!(service.search("", QueryOptions::default()).is_err());
        assert!(service.search("", QueryOptions::default()).is_err());
        let stats = service.stats();
        assert_eq!(stats.errors, 2);
        assert_eq!(stats.queries, 0);
        assert_eq!(stats.cache.entries, 0);
        // Unparseable queries are rejected before the cache, so they
        // don't skew the hit/miss accounting.
        assert_eq!(stats.cache.misses, 0);
    }

    #[test]
    fn post_lookup_search_failure_retracts_the_miss() {
        // Under `allow_missing_terms`, a parseable query whose terms all
        // match nothing fails *after* the cache lookup; the counted miss
        // must be retracted so `hits + misses == queries` holds.
        let mut config = banks_core::BanksConfig::default();
        config.matching.allow_missing_terms = true;
        let banks = Arc::new(Banks::with_config(dblp(), config).unwrap());
        let service = QueryService::new(banks, ServiceConfig::default());
        assert!(service
            .search("xyzzyplugh", QueryOptions::default())
            .is_err());
        let stats = service.stats();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.queries, 0);
        assert_eq!(stats.cache.misses, 0, "failed query's miss is retracted");
        assert_eq!(stats.cache.hits, 0);
    }

    #[test]
    fn limit_is_capped_and_distinguished() {
        let service = service();
        let r1 = service
            .search(
                "mohan",
                QueryOptions {
                    limit: Some(1),
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        assert!(r1.result.answers.len() <= 1);
        // Huge limits collapse to the configured maximum.
        let big = service
            .search(
                "mohan",
                QueryOptions {
                    limit: Some(10_000),
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        assert_eq!(big.key.limit, service.banks().config().search.max_results);
    }

    #[test]
    fn install_snapshot_invalidates_stale_entries_lazily() {
        use banks_ingest::{DeltaBatch, SnapshotPublisher, TupleOp};
        use banks_storage::Value;

        let banks = Arc::new(Banks::new(dblp()).unwrap());
        let service = QueryService::new(Arc::clone(&banks), ServiceConfig::default());
        let mut publisher = SnapshotPublisher::new(banks);

        // Warm two entries at epoch 0.
        let r0 = service.search("mohan", QueryOptions::default()).unwrap();
        assert_eq!(r0.epoch, 0);
        service
            .search("sudarshan", QueryOptions::default())
            .unwrap();
        assert!(
            service
                .search("mohan", QueryOptions::default())
                .unwrap()
                .cached
        );

        // Publish a new author co-writing P1 and install epoch 1.
        let batch = DeltaBatch {
            ops: vec![
                TupleOp::Insert {
                    relation: "Author".into(),
                    values: vec![Value::text("GrayJ"), Value::text("Jim Gray")],
                },
                TupleOp::Insert {
                    relation: "Writes".into(),
                    values: vec![Value::text("GrayJ"), Value::text("P1")],
                },
            ],
        };
        let published = publisher.publish(&batch, Some("t1".into())).unwrap();
        service.install_snapshot(published.banks, published.info.epoch, Some("t1".into()));
        assert_eq!(service.epoch(), 1);

        // The stale entry is dropped on its next lookup — recomputed on
        // the new snapshot, stamped with the new epoch.
        let r1 = service.search("mohan", QueryOptions::default()).unwrap();
        assert!(!r1.cached, "stale epoch-0 entry must not be served");
        assert_eq!(r1.epoch, 1);
        // And the new tuples are searchable.
        assert_eq!(
            service
                .search("gray", QueryOptions::default())
                .unwrap()
                .result
                .answers
                .len(),
            1
        );

        let stats = service.stats();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.last_publish.as_deref(), Some("t1"));
        assert_eq!(stats.cache.invalidations, 1);
        assert_eq!(stats.invalidations_by_epoch, vec![(1, 1)]);
        assert_eq!(
            stats.cache.hits + stats.cache.misses,
            stats.queries,
            "lookup accounting survives invalidation"
        );
        // The untouched "sudarshan" entry invalidates on its own lookup.
        assert!(
            !service
                .search("sudarshan", QueryOptions::default())
                .unwrap()
                .cached
        );
        assert_eq!(service.stats().cache.invalidations, 2);
    }

    #[test]
    fn worker_arena_reuse_across_epochs_matches_fresh_search() {
        use banks_ingest::{DeltaBatch, SnapshotPublisher, TupleOp};
        use banks_storage::Value;

        // Every cache miss on this thread reuses one thread-local arena;
        // across an epoch change the graph grows, the arena blocks
        // resize, and results must still equal a fresh-allocation search.
        let banks = Arc::new(Banks::new(dblp()).unwrap());
        let service = QueryService::new(Arc::clone(&banks), ServiceConfig::default());
        let mut publisher = SnapshotPublisher::new(banks);

        let check = |service: &QueryService, queries: &[&str]| {
            for q in queries {
                let via_service = service.search(q, QueryOptions::default()).unwrap();
                let direct = service.banks().search(q).unwrap();
                assert_eq!(via_service.result.answers.len(), direct.len());
                for (a, b) in direct.iter().zip(&via_service.result.answers) {
                    assert_eq!(a.tree.signature(), b.tree.signature());
                    assert_eq!(a.relevance.to_bits(), b.relevance.to_bits());
                }
            }
        };
        check(&service, &["mohan", "sudarshan", "mohan sudarshan"]);

        let batch = DeltaBatch {
            ops: vec![
                TupleOp::Insert {
                    relation: "Author".into(),
                    values: vec![Value::text("GrayJ"), Value::text("Jim Gray")],
                },
                TupleOp::Insert {
                    relation: "Writes".into(),
                    values: vec![Value::text("GrayJ"), Value::text("P1")],
                },
            ],
        };
        let published = publisher.publish(&batch, None).unwrap();
        service.install_snapshot(published.banks, published.info.epoch, None);
        check(
            &service,
            &["mohan", "gray", "gray sudarshan", "mohan sudarshan gray"],
        );
    }

    #[test]
    fn in_flight_snapshot_handles_survive_publication() {
        use banks_ingest::{DeltaBatch, SnapshotPublisher, TupleOp};
        use banks_storage::Value;

        let banks = Arc::new(Banks::new(dblp()).unwrap());
        let service = QueryService::new(Arc::clone(&banks), ServiceConfig::default());
        let mut publisher = SnapshotPublisher::new(banks);

        // A "reader" pins the epoch-0 snapshot (as a worker thread would
        // mid-query).
        let pinned = service.banks();
        let batch = DeltaBatch {
            ops: vec![TupleOp::Insert {
                relation: "Author".into(),
                values: vec![Value::text("NewA"), Value::text("Newcomer")],
            }],
        };
        let published = publisher.publish(&batch, None).unwrap();
        service.install_snapshot(published.banks, 1, None);

        // The pinned snapshot still answers on the old database.
        assert!(pinned.search("newcomer").unwrap().is_empty());
        assert_eq!(service.banks().search("newcomer").unwrap().len(), 1);
    }

    #[test]
    fn concurrent_searches_share_the_snapshot() {
        let service = Arc::new(service());
        let queries = ["mohan", "sudarshan", "mohan sudarshan", "transaction"];
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    for q in queries {
                        for _ in 0..8 {
                            let resp = service.search(q, QueryOptions::default()).unwrap();
                            assert!(!resp.result.answers.is_empty() || q == "transaction");
                        }
                    }
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.queries, 4 * 4 * 8);
        // Every distinct query computed at least once, repeats hit.
        assert!(stats.cache.hits >= stats.queries - 4 * 4);
        assert_eq!(stats.cache.entries, 4);
    }

    #[test]
    fn cold_queries_record_spans_slow_log_and_latency() {
        let service = service();
        let cold = service
            .search("mohan sudarshan", QueryOptions::default())
            .unwrap();
        assert!(!cold.cached);
        let names: Vec<&str> = cold.result.spans.iter().map(|s| s.name).collect();
        for phase in ["parse", "match", "expand", "score"] {
            assert!(names.contains(&phase), "missing {phase} span in {names:?}");
        }
        for span in &cold.result.spans {
            assert!(span.end_ns >= span.start_ns, "span {span:?} runs backwards");
        }
        // A hit serves the cold run's spans and records hit latency.
        let hit = service
            .search("mohan sudarshan", QueryOptions::default())
            .unwrap();
        assert!(hit.cached);
        assert_eq!(hit.result.spans.len(), cold.result.spans.len());
        assert_eq!(service.cold_latency().snapshot().count(), 1);
        assert_eq!(service.hit_latency().snapshot().count(), 1);
        // The slow log retained the cold query under its normalized text.
        let slow = service.slow_log().snapshot();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].query, "mohan sudarshan");
        assert!(!slow[0].spans.is_empty());
        assert!(slow[0].total_us <= cold.result.cold_elapsed.as_micros() as u64);
    }

    #[test]
    fn span_recording_can_be_disabled_and_forced_per_query() {
        let banks = Arc::new(Banks::new(dblp()).unwrap());
        let service = QueryService::new(
            banks,
            ServiceConfig {
                record_spans: false,
                ..ServiceConfig::default()
            },
        );
        let untraced = service.search("mohan", QueryOptions::default()).unwrap();
        assert!(untraced.result.spans.is_empty());
        // `?trace=1` overrides a service-wide off switch for one query.
        let traced = service
            .search(
                "sudarshan",
                QueryOptions {
                    trace: true,
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        assert!(!traced.result.spans.is_empty());
    }
}
