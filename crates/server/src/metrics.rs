//! Prometheus metric wiring for the HTTP server.
//!
//! The server owns one [`Registry`] per bound instance. Hot-path
//! instruments (per-endpoint request counters and latency histograms,
//! the service's cold/hit latency histograms) are `Arc`ed out of the
//! registry once at bind time, so request handling never takes the
//! registry lock. Everything that already has a counter somewhere else —
//! the HTTP core's accept-queue depth, cache stats, epochs, pager, WAL —
//! is exported through scrape-time *collectors* that read the
//! existing snapshots, so `/metrics` adds no bookkeeping to those
//! subsystems.

use crate::service::QueryService;
use banks_core::STOP_LABELS;
use banks_telemetry::{
    latency_boundaries, CollectedFamily, Counter, Histogram, Kind, Registry, Sample,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Exported latency unit: the histograms tick in nanoseconds, the
/// `le=` ladder and `_sum` render in seconds per Prometheus convention.
const NANOS_TO_SECONDS: f64 = 1e-9;

/// Instruments for one HTTP endpoint.
pub(crate) struct EndpointMetrics {
    /// Requests handled (any status).
    pub requests: Arc<Counter>,
    /// Request service latency, nanosecond ticks.
    pub latency: Arc<Histogram>,
}

/// Paths that get their own `endpoint` label value. Anything else is
/// folded into `other`, so a path-scanning client cannot explode label
/// cardinality.
const ENDPOINTS: &[&str] = &[
    "/search",
    "/node",
    "/stats",
    "/epochs",
    "/health",
    "/metrics",
    "/debug/slow",
    "/ingest",
    "/replication/snapshot",
    "/replication/wal",
];

/// The server's registry plus its pre-resolved hot-path instruments.
pub(crate) struct ServerMetrics {
    registry: Arc<Registry>,
    /// Requests shed with `503` because their accept-queue wait passed
    /// the shedding bound.
    pub shed_total: Arc<Counter>,
    /// Requests rejected with `429` by the per-client token bucket.
    pub rate_limited_total: Arc<Counter>,
    /// Requests whose deadline budget lapsed — answered `504`, or `200`
    /// with `partial: true` when the expansion had produced answers.
    pub deadline_exceeded_total: Arc<Counter>,
    endpoints: Vec<(&'static str, EndpointMetrics)>,
    fallback: EndpointMetrics,
}

impl ServerMetrics {
    /// Resolve every owned instrument against `registry` once.
    pub(crate) fn new(registry: Arc<Registry>) -> ServerMetrics {
        let make = |endpoint: &str| EndpointMetrics {
            requests: registry.counter(
                "banks_http_requests_total",
                "HTTP requests handled, by endpoint.",
                &[("endpoint", endpoint)],
            ),
            latency: registry.histogram(
                "banks_http_request_seconds",
                "HTTP request service time, by endpoint.",
                &[("endpoint", endpoint)],
                &latency_boundaries(),
                NANOS_TO_SECONDS,
            ),
        };
        let endpoints = ENDPOINTS.iter().map(|&path| (path, make(path))).collect();
        let fallback = make("other");
        let shed_total = registry.counter(
            "banks_shed_total",
            "Requests shed (503) because queue wait exceeded the shedding bound.",
            &[],
        );
        let rate_limited_total = registry.counter(
            "banks_rate_limited_total",
            "Requests rejected (429) by the per-client token-bucket rate limit.",
            &[],
        );
        let deadline_exceeded_total = registry.counter(
            "banks_deadline_exceeded_total",
            "Requests whose deadline budget lapsed before or during the search.",
            &[],
        );
        ServerMetrics {
            registry,
            shed_total,
            rate_limited_total,
            deadline_exceeded_total,
            endpoints,
            fallback,
        }
    }

    /// The registry (for `/metrics` rendering and extra collectors).
    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The instruments for a request path (unknown paths → `other`).
    pub(crate) fn endpoint(&self, path: &str) -> &EndpointMetrics {
        self.endpoints
            .iter()
            .find(|(p, _)| *p == path)
            .map(|(_, m)| m)
            .unwrap_or(&self.fallback)
    }
}

/// Export the HTTP core's accept-queue depth, the live backpressure signal.
pub(crate) fn install_queue_metrics(registry: &Registry, depth: Arc<AtomicUsize>) {
    registry.register_collector(move || {
        vec![CollectedFamily::scalar(
            "banks_http_queue_depth",
            "Accepted connections waiting for a worker.",
            Kind::Gauge,
            depth.load(Ordering::Relaxed) as f64,
        )]
    });
}

/// Register the query service's families: its two owned latency
/// histograms plus a collector over [`QueryService::stats_with_snapshot`]
/// (queries, cache, epoch, early terminations, pager, graph footprint).
pub(crate) fn install_service_metrics(registry: &Registry, service: Arc<QueryService>) {
    registry.register_histogram(
        "banks_query_seconds",
        "End-to-end query latency through the service, by cache outcome.",
        &[("cache", "miss")],
        service.cold_latency(),
        &latency_boundaries(),
        NANOS_TO_SECONDS,
    );
    registry.register_histogram(
        "banks_query_seconds",
        "End-to-end query latency through the service, by cache outcome.",
        &[("cache", "hit")],
        service.hit_latency(),
        &latency_boundaries(),
        NANOS_TO_SECONDS,
    );
    registry.register_collector(move || service_families(&service));
}

fn service_families(service: &QueryService) -> Vec<CollectedFamily> {
    let (stats, banks) = service.stats_with_snapshot();
    let c = Kind::Counter;
    let g = Kind::Gauge;
    let mut fams = vec![
        CollectedFamily::scalar(
            "banks_queries_total",
            "Queries answered (cache hits + computed).",
            c,
            stats.queries as f64,
        ),
        CollectedFamily::scalar(
            "banks_query_errors_total",
            "Queries that failed to parse or execute.",
            c,
            stats.errors as f64,
        ),
        CollectedFamily::scalar(
            "banks_cache_hits_total",
            "Result-cache hits.",
            c,
            stats.cache.hits as f64,
        ),
        CollectedFamily::scalar(
            "banks_cache_misses_total",
            "Result-cache misses.",
            c,
            stats.cache.misses as f64,
        ),
        CollectedFamily::scalar(
            "banks_cache_insertions_total",
            "Result-cache insertions.",
            c,
            stats.cache.insertions as f64,
        ),
        CollectedFamily::scalar(
            "banks_cache_evictions_total",
            "Result-cache capacity evictions.",
            c,
            stats.cache.evictions as f64,
        ),
        CollectedFamily::scalar(
            "banks_cache_invalidations_total",
            "Result-cache entries dropped as stale after a publish.",
            c,
            stats.cache.invalidations as f64,
        ),
        CollectedFamily::scalar(
            "banks_cache_entries",
            "Result-cache resident entries.",
            g,
            stats.cache.entries as f64,
        ),
        CollectedFamily::scalar(
            "banks_cache_bytes",
            "Bytes the result cache holds: slots, index buckets, keys, entries, answer records, spans and memoized JSON.",
            g,
            stats.cache_bytes as f64,
        ),
        CollectedFamily::scalar(
            "banks_cache_hit_ratio",
            "Result-cache hits / lookups since start.",
            g,
            stats.cache.hit_ratio(),
        ),
        CollectedFamily::scalar(
            "banks_epoch",
            "Serving snapshot epoch.",
            g,
            stats.epoch as f64,
        ),
        CollectedFamily::scalar(
            "banks_graph_nodes",
            "Data-graph node count of the serving snapshot.",
            g,
            stats.graph_nodes as f64,
        ),
        CollectedFamily::scalar(
            "banks_graph_edges",
            "Data-graph edge count of the serving snapshot.",
            g,
            stats.graph_edges as f64,
        ),
        CollectedFamily::scalar(
            "banks_memory_bytes",
            "Graph + text-index memory footprint of the serving snapshot.",
            g,
            stats.memory_bytes as f64,
        ),
        CollectedFamily::scalar(
            "banks_search_early_terminations_total",
            "Cold queries whose heap search stopped early.",
            c,
            stats.early_terminations as f64,
        ),
        CollectedFamily {
            name: "banks_search_stopped_total",
            help: "Cold queries by why their search ended; cross_product_cap and the pop cap and deadline mark partial answers.",
            kind: c,
            samples: STOP_LABELS
                .iter()
                .zip(stats.stopped)
                .map(|(&reason, n)| Sample {
                    labels: vec![("reason", reason.to_string())],
                    value: n as f64,
                })
                .collect(),
        },
        CollectedFamily::scalar(
            "banks_search_state_bytes_max",
            "Largest search state (node tables, queues, origin lists) a cold query held since start.",
            g,
            stats.state_bytes_max as f64,
        ),
        CollectedFamily::scalar(
            "banks_uptime_seconds",
            "Seconds since the query service was built.",
            g,
            stats.uptime_secs,
        ),
    ];
    // A follower's lag behind its leader; absent on a leader so a
    // dashboard can distinguish "not a follower" from "lag 0".
    if let Some(lag) = stats.epoch_lag {
        fams.push(CollectedFamily::scalar(
            "banks_epoch_lag",
            "Epochs this follower trails its replication leader.",
            g,
            lag as f64,
        ));
    }
    // Process memory, where `/proc` reports it (absent elsewhere, like
    // `/stats`' `process` object).
    if let Some(m) = banks_util::process::memory() {
        fams.push(CollectedFamily::scalar(
            "banks_process_resident_bytes",
            "Resident set size of this process (VmRSS).",
            g,
            m.rss_bytes as f64,
        ));
        fams.push(CollectedFamily::scalar(
            "banks_process_peak_resident_bytes",
            "Peak resident set size of this process since start (VmHWM).",
            g,
            m.peak_rss_bytes as f64,
        ));
    }
    // Pager families are always emitted — zeros for the in-RAM backend —
    // so a dashboard template works against any serving mode.
    let pager = banks.tuple_graph().graph().storage_stats();
    let pick = |f: fn(&banks_graph::StorageStats) -> f64| pager.as_ref().map(f).unwrap_or(0.0);
    fams.push(CollectedFamily::scalar(
        "banks_pager_budget_bytes",
        "Paged-backend memory budget (0 = in-RAM backend).",
        g,
        pick(|s| s.budget_bytes as f64),
    ));
    fams.push(CollectedFamily::scalar(
        "banks_pager_resident_bytes",
        "Resident graph-segment bytes (ids, weight codes, dictionaries).",
        g,
        pick(|s| s.resident_bytes as f64),
    ));
    fams.push(CollectedFamily::scalar(
        "banks_pager_page_ins_total",
        "Graph segments paged into residency.",
        c,
        pick(|s| s.page_ins as f64),
    ));
    fams.push(CollectedFamily::scalar(
        "banks_pager_evictions_total",
        "Resident segments evicted under budget pressure.",
        c,
        pick(|s| s.evictions as f64),
    ));
    // Tuple-store families mirror the pager's: zeros when every tuple
    // block is resident (an in-RAM load, or a database built by
    // inserts), live counters when `--paged` pages blocks in off the v3
    // DATA section. Tuple blocks and graph segments share one
    // page cache, so `banks_pager_budget_bytes` is the combined cap.
    let tuples = banks.db().tuple_store_stats();
    let tpick =
        |f: fn(&banks_storage::TupleStoreStats) -> f64| tuples.as_ref().map(f).unwrap_or(0.0);
    fams.push(CollectedFamily::scalar(
        "banks_tuple_resident_bytes",
        "Resident tuple-block bytes (encoded payloads and slot indexes).",
        g,
        tpick(|s| s.resident_bytes as f64),
    ));
    fams.push(CollectedFamily::scalar(
        "banks_tuple_page_ins_total",
        "Tuple blocks paged into residency.",
        c,
        tpick(|s| s.page_ins as f64),
    ));
    fams.push(CollectedFamily::scalar(
        "banks_tuple_evictions_total",
        "Resident tuple blocks evicted under budget pressure.",
        c,
        tpick(|s| s.evictions as f64),
    ));
    fams
}

/// Register WAL + persistence families from a durable store.
pub(crate) fn install_store_metrics(
    registry: &Registry,
    store: Arc<banks_persist::PersistentStore>,
) {
    registry.register_collector(move || {
        let p = store.stats();
        vec![
            CollectedFamily::scalar(
                "banks_wal_bytes_total",
                "Bytes appended to the write-ahead log.",
                Kind::Counter,
                p.wal_bytes as f64,
            ),
            CollectedFamily::scalar(
                "banks_wal_batches_total",
                "Delta batches appended to the write-ahead log.",
                Kind::Counter,
                p.wal_batches as f64,
            ),
            CollectedFamily::scalar(
                "banks_wal_compactions_total",
                "Snapshot compactions (WAL truncations).",
                Kind::Counter,
                p.compactions as f64,
            ),
            CollectedFamily::scalar(
                "banks_wal_fsync_total",
                "fsync calls issued by WAL appends.",
                Kind::Counter,
                p.fsync_count as f64,
            ),
            CollectedFamily::scalar(
                "banks_wal_fsync_seconds_total",
                "Time spent in WAL fsync calls.",
                Kind::Counter,
                p.fsync_nanos as f64 * NANOS_TO_SECONDS,
            ),
        ]
    });
}
