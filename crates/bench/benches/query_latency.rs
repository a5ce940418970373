//! EXP-S52-QUERY: per-query latency over the §5.3 workload (the paper:
//! "queries take about a second to a few seconds" on the untuned
//! prototype at 100K nodes).
//!
//! Cold latency is measured the way a server worker runs: uncached, on a
//! persistent per-worker [`banks_core::SearchArena`], so the Dijkstra
//! state tables and cross-product scratch are recycled across
//! iterations instead of reallocated. Warm latency goes through the
//! `banks-server` result cache. Besides the stdout report, the bench
//! writes `BENCH_search.json` (cold/warm medians, pops, early-termination
//! rate) for machine consumption by CI and perf diffs.

use banks_bench::{banks_for, corpus, fingerprint_answers, write_search_report, SearchBenchEntry};
use banks_core::SearchArena;
use banks_eval::workload::dblp_workload;
use banks_server::{QueryOptions, QueryService, ServiceConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median uncached latency (ns) over `samples` runs on the given arena.
fn cold_median_ns(
    banks: &banks_core::Banks,
    config: &banks_core::BanksConfig,
    arena: &mut SearchArena,
    query: &str,
    samples: usize,
) -> f64 {
    let parsed = banks.parse(query).unwrap();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            let outcome = banks
                .search_parsed_in(&parsed, banks_core::SearchStrategy::Backward, config, arena)
                .unwrap();
            black_box(outcome.answers.len());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Median cache-hit latency (ns) through the query service.
fn warm_median_ns(service: &QueryService, query: &str, limit: usize, samples: usize) -> f64 {
    let options = QueryOptions {
        limit: Some(limit),
        ..QueryOptions::default()
    };
    // Prime the cache, then time hits only.
    service.search(query, options).unwrap();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            let resp = service.search(query, options).unwrap();
            assert!(resp.cached, "warm measurement must hit the cache");
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn bench_query_latency(c: &mut Criterion) {
    let mut report: Vec<SearchBenchEntry> = Vec::new();

    let mut group = c.benchmark_group("query_latency_tiny");
    let dataset = corpus("tiny");
    let banks = banks_for(&dataset);
    let mut arena = SearchArena::new();
    for query in dblp_workload(&dataset.planted) {
        group.bench_with_input(BenchmarkId::from_parameter(query.id), &query, |b, query| {
            b.iter(|| {
                black_box(banks.search_outcome_in(query.text, &mut arena).unwrap())
                    .answers
                    .len()
            });
        });
    }
    group.finish();

    // Selective queries at the larger scale; the metadata-heavy Q6 is
    // covered by the ablation bench (forward search) instead, because a
    // 4K-iterator backward search per sample would dominate the run.
    let mut group = c.benchmark_group("query_latency_small");
    group.sample_size(10);
    let dataset = corpus("small");
    let banks = banks_for(&dataset);
    for query in dblp_workload(&dataset.planted) {
        if query.id == "Q6-metadata" {
            continue;
        }
        group.bench_with_input(BenchmarkId::from_parameter(query.id), &query, |b, query| {
            b.iter(|| {
                black_box(banks.search_outcome_in(query.text, &mut arena).unwrap())
                    .answers
                    .len()
            });
        });
    }
    group.finish();

    // Machine-readable report over the small-corpus workload, at the
    // full result limit and at top-1 (where the early-termination bound
    // does most of its work), plus an answer fingerprint for diffing
    // answers across commits.
    let service = QueryService::new(Arc::new(banks_for(&dataset)), ServiceConfig::default());
    let service_banks = service.banks();
    for limit in [service_banks.config().search.max_results, 1] {
        let mut config = service_banks.config().clone();
        config.search.max_results = limit;
        for query in dblp_workload(&dataset.planted) {
            if query.id == "Q6-metadata" {
                continue;
            }
            let parsed = service_banks.parse(query.text).unwrap();
            let outcome = service_banks
                .search_parsed_in(
                    &parsed,
                    banks_core::SearchStrategy::Backward,
                    &config,
                    &mut arena,
                )
                .unwrap();
            report.push(SearchBenchEntry {
                id: query.id.to_string(),
                corpus: "small".to_string(),
                limit,
                cold_ns: cold_median_ns(&service_banks, &config, &mut arena, query.text, 7),
                warm_ns: warm_median_ns(&service, query.text, limit, 7),
                pops: outcome.stats.pops,
                early_terminated: outcome.stats.early_terminations > 0,
                answers_fingerprint: fingerprint_answers(&outcome.answers),
            });
        }
    }
    write_search_report("BENCH_search.json", &report).expect("write BENCH_search.json");
    let rate = report.iter().filter(|e| e.early_terminated).count() as f64 / report.len() as f64;
    println!(
        "wrote BENCH_search.json ({} queries, early-termination rate {:.0}%)",
        report.len(),
        rate * 100.0
    );
}

criterion_group!(benches, bench_query_latency);
criterion_main!(benches);
