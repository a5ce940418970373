//! The observability smoke benchmark behind CI's `metrics-smoke` job.
//!
//! Starts a real `banks-server` over loopback TCP, drives a mixed
//! workload (cold queries, cache hits, a traced query, `/node`,
//! `/stats`, `/health`), then:
//!
//! * scrapes `GET /metrics` and **fails** if any documented family is
//!   missing or if a family that must have counted traffic reports a
//!   zero `_count`/total;
//! * checks `/debug/slow` retained the cold queries and `?trace=1`
//!   returned a span breakdown;
//! * emits `BENCH_serve.json` with client-observed `/search` latency
//!   quantiles (p50/p95/p99) and the scrape-side counters.
//!
//! ```text
//! metrics_smoke [--queries N] [--workers N] [--out PATH]
//! ```

use banks_bench::{banks_for, corpus};
use banks_server::{BanksServer, QueryService, ServerConfig, ServiceConfig};
use banks_util::http::{http_request, HttpResponse};
use banks_util::json::Json;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The planted anecdote queries every generated corpus answers.
const QUERIES: &[&str] = &[
    "soumen sunita",
    "seltzer sunita",
    "gray transaction",
    "mohan",
    "sunita",
];

/// Families `/metrics` must always expose on a server role.
const REQUIRED_FAMILIES: &[&str] = &[
    "banks_http_requests_total",
    "banks_http_request_seconds",
    "banks_http_queue_depth",
    "banks_query_seconds",
    "banks_queries_total",
    "banks_query_errors_total",
    "banks_cache_hits_total",
    "banks_cache_misses_total",
    "banks_cache_insertions_total",
    "banks_cache_evictions_total",
    "banks_cache_invalidations_total",
    "banks_cache_entries",
    "banks_cache_bytes",
    "banks_cache_hit_ratio",
    "banks_epoch",
    "banks_graph_nodes",
    "banks_graph_edges",
    "banks_memory_bytes",
    "banks_search_early_terminations_total",
    "banks_search_state_bytes_max",
    "banks_uptime_seconds",
    "banks_pager_budget_bytes",
    "banks_pager_resident_bytes",
    "banks_pager_page_ins_total",
    "banks_pager_evictions_total",
];

/// Samples that must be non-zero after the workload ran.
const NONZERO_SAMPLES: &[&str] = &[
    "banks_queries_total",
    "banks_cache_hits_total",
    "banks_cache_misses_total",
    "banks_cache_bytes",
    r#"banks_query_seconds_count{cache="miss"}"#,
    r#"banks_query_seconds_count{cache="hit"}"#,
    r#"banks_http_requests_total{endpoint="/search"}"#,
    r#"banks_http_request_seconds_count{endpoint="/search"}"#,
];

fn fail(msg: &str) -> ! {
    eprintln!("metrics_smoke: {msg}");
    std::process::exit(1);
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn get(addr: &str, target: &str) -> HttpResponse {
    match http_request(addr, "GET", target, None, Duration::from_secs(30)) {
        Ok(resp) if resp.status == 200 => resp,
        Ok(resp) => fail(&format!("GET {target}: status {}", resp.status)),
        Err(e) => fail(&format!("GET {target}: {e}")),
    }
}

/// Value of the exposition line starting with `sample ` (exact family
/// name or `family{labels}` prefix).
fn sample_value(text: &str, sample: &str) -> Option<f64> {
    text.lines()
        .find(|l| {
            l.strip_prefix(sample)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

fn quantile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() as f64 - 1.0) * q).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let total_queries: usize = flag_value(&args, "--queries")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail("--queries: not a number"))
        })
        .unwrap_or(200);
    let workers: usize = flag_value(&args, "--workers")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail("--workers: not a number"))
        })
        .unwrap_or(4);
    let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());

    // The same tiny planted corpus the other benches use.
    let dataset = corpus("tiny");
    let banks = Arc::new(banks_for(&dataset));
    let service = Arc::new(QueryService::new(banks, ServiceConfig::default()));
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server = BanksServer::bind(service, None, None, None, config)
        .unwrap_or_else(|e| fail(&format!("bind: {e}")));
    let addr = server.local_addr().to_string();
    eprintln!("metrics_smoke: serving on {addr} ({workers} workers)");

    // --- drive traffic ---------------------------------------------------
    // Rotating over the query set makes all but the first round cache
    // hits, so both `cache="miss"` and `cache="hit"` histograms count.
    let mut latencies_us: Vec<u64> = Vec::with_capacity(total_queries);
    for i in 0..total_queries {
        let q = QUERIES[i % QUERIES.len()].replace(' ', "+");
        let t0 = Instant::now();
        let resp = get(&addr, &format!("/search?q={q}"));
        latencies_us.push(t0.elapsed().as_micros() as u64);
        if !resp.text().contains("\"answers\"") {
            fail(&format!("search {q}: no answers array"));
        }
    }
    let traced = get(&addr, "/search?q=soumen+sunita&trace=1").text();
    if !traced.contains("\"trace\"") || !traced.contains("\"spans\"") {
        fail("?trace=1 returned no span breakdown");
    }
    get(&addr, "/node?id=0");
    get(&addr, "/health");
    let stats = get(&addr, "/stats").text();
    if !stats.contains("\"cache\"") {
        fail("/stats: no cache section");
    }
    let slow = get(&addr, "/debug/slow").text();
    if slow.contains("\"count\":0") {
        fail(&format!("/debug/slow retained nothing: {slow}"));
    }

    // --- scrape and validate ---------------------------------------------
    let scrape = get(&addr, "/metrics");
    let content_type = scrape.header("content-type").unwrap_or("").to_string();
    if !content_type.starts_with("text/plain; version=0.0.4") {
        fail(&format!("/metrics content type `{content_type}`"));
    }
    let text = scrape.text();
    for family in REQUIRED_FAMILIES {
        if !text.contains(&format!("# TYPE {family} ")) {
            fail(&format!("family {family} missing from /metrics"));
        }
    }
    for sample in NONZERO_SAMPLES {
        match sample_value(&text, sample) {
            Some(v) if v > 0.0 => {}
            Some(_) => fail(&format!("{sample} is zero after {total_queries} queries")),
            None => fail(&format!("{sample} not found in /metrics")),
        }
    }

    // --- report -----------------------------------------------------------
    latencies_us.sort_unstable();
    let doc = Json::obj([
        ("queries", Json::Uint(total_queries as u64)),
        ("workers", Json::Uint(workers as u64)),
        ("p50_us", Json::Uint(quantile(&latencies_us, 0.50))),
        ("p95_us", Json::Uint(quantile(&latencies_us, 0.95))),
        ("p99_us", Json::Uint(quantile(&latencies_us, 0.99))),
        (
            "cache_hits",
            Json::Num(sample_value(&text, "banks_cache_hits_total").unwrap_or(0.0)),
        ),
        (
            "cache_misses",
            Json::Num(sample_value(&text, "banks_cache_misses_total").unwrap_or(0.0)),
        ),
        (
            "families_checked",
            Json::Uint(REQUIRED_FAMILIES.len() as u64),
        ),
        (
            "nonzero_samples_checked",
            Json::Uint(NONZERO_SAMPLES.len() as u64),
        ),
    ]);
    let mut file =
        std::fs::File::create(&out).unwrap_or_else(|e| fail(&format!("create {out}: {e}")));
    file.write_all(doc.pretty().as_bytes())
        .unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
    eprintln!(
        "metrics_smoke: OK — {} queries, p50 {}µs p95 {}µs p99 {}µs, report at {out}",
        total_queries,
        quantile(&latencies_us, 0.50),
        quantile(&latencies_us, 0.95),
        quantile(&latencies_us, 0.99),
    );
    server.shutdown();
}
