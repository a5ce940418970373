//! Shared fixtures for the BANKS benchmarks.
//!
//! Every bench target regenerates one §5 measurement (see DESIGN.md's
//! experiment index):
//!
//! * `graph_build` — EXP-S52-LOAD: database → in-memory graph time.
//! * `query_latency` — EXP-S52-QUERY: the seven-query workload.
//! * `dijkstra` — the single-source shortest-path iterator underneath §3.
//! * `params_sweep` — EXP-F5: one full Figure 5 cell evaluation.
//! * `ablation` — ABL-DUP / ABL-FWD / ABL-HEAP toggles.

use banks_core::Banks;
use banks_datagen::dblp::{generate, DblpConfig, DblpDataset};
use banks_eval::workload::dblp_eval_config;
use banks_util::json::Json;
use std::io::Write;

/// Generate the benchmark corpus at a named scale.
pub fn corpus(scale: &str) -> DblpDataset {
    let config = match scale {
        "tiny" => DblpConfig::tiny(1),
        "small" => DblpConfig::small(1),
        "paper" => DblpConfig::paper_scale(1),
        other => panic!("unknown scale {other}"),
    };
    generate(config).expect("generation succeeds")
}

/// Build a query-ready BANKS instance with the evaluation configuration.
pub fn banks_for(dataset: &DblpDataset) -> Banks {
    Banks::with_config(dataset.db.clone(), dblp_eval_config()).expect("banks builds")
}

/// Order-sensitive FNV-1a fingerprint of a ranked answer list: roots,
/// keyword nodes, edge triples (weight bits included), and relevance
/// bits, in rank order. Bit-identical runs produce equal strings.
pub fn fingerprint_answers(answers: &[banks_core::Answer]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(answers.len() as u64);
    for a in answers {
        mix(a.tree.root.0 as u64);
        for &n in &a.tree.keyword_nodes {
            mix(n.0 as u64);
        }
        for &(f, t, w) in &a.tree.edges {
            mix(f.0 as u64);
            mix(t.0 as u64);
            mix(w.to_bits());
        }
        mix(a.relevance.to_bits());
    }
    let _ = mix;
    format!("{h:016x}")
}

/// One query's measurements for the machine-readable search report.
#[derive(Debug, Clone)]
pub struct SearchBenchEntry {
    /// Workload query id (e.g. `Q7-three-keywords`).
    pub id: String,
    /// Corpus scale the measurement ran on.
    pub corpus: String,
    /// Result limit (`max_results`) of the measurement.
    pub limit: usize,
    /// Median uncached latency on a reused worker arena, nanoseconds.
    pub cold_ns: f64,
    /// Median cache-hit latency through the query service, nanoseconds.
    pub warm_ns: f64,
    /// Iterator pops of one representative execution.
    pub pops: usize,
    /// Whether the kernel stopped via the top-k relevance bound.
    pub early_terminated: bool,
    /// Order-sensitive FNV fingerprint of the ranked answers (trees +
    /// relevance bits), for diffing answers across commits.
    pub answers_fingerprint: String,
}

/// Write `BENCH_search.json`: per-query cold/warm latency plus kernel
/// counters, and the aggregate early-termination rate — the
/// machine-readable artifact the `bench-smoke` CI job checks for bench
/// bit-rot and perf tracking diffs across commits.
pub fn write_search_report(path: &str, entries: &[SearchBenchEntry]) -> std::io::Result<()> {
    let queries: Vec<Json> = entries
        .iter()
        .map(|e| {
            Json::obj([
                ("id", Json::Str(e.id.clone())),
                ("corpus", Json::Str(e.corpus.clone())),
                ("limit", Json::Uint(e.limit as u64)),
                ("cold_ns", Json::Num(e.cold_ns.round())),
                ("warm_ns", Json::Num(e.warm_ns.round())),
                ("pops", Json::Uint(e.pops as u64)),
                ("early_terminated", Json::Bool(e.early_terminated)),
                (
                    "answers_fingerprint",
                    Json::Str(e.answers_fingerprint.clone()),
                ),
            ])
        })
        .collect();
    let terminated = entries.iter().filter(|e| e.early_terminated).count();
    let rate = if entries.is_empty() {
        0.0
    } else {
        terminated as f64 / entries.len() as f64
    };
    let report = Json::obj([
        ("bench", Json::Str("search".to_string())),
        ("queries", Json::Arr(queries)),
        ("early_termination_rate", Json::Num(rate)),
    ]);
    let mut file = std::fs::File::create(path)?;
    file.write_all(report.pretty().as_bytes())?;
    Ok(())
}
