//! §5.2 reproduction: space and time.
//!
//! The paper reports, for a bibliographic database with 100K nodes and
//! 300K edges: ~120 MB of memory (Java), ~2 minutes of initial graph
//! load, and queries taking "about a second to a few seconds". This
//! module measures the same quantities for our implementation at a
//! configurable scale.

use crate::workload::{dblp_eval_config, dblp_workload};
use banks_core::{Banks, TupleGraph};
use banks_datagen::dblp::{generate, DblpConfig};
use banks_storage::{MetadataIndex, TextIndex, Tokenizer};
use std::time::Instant;

/// Timing of one workload query.
#[derive(Debug, Clone)]
pub struct QueryTiming {
    /// Query id.
    pub id: String,
    /// Query text.
    pub text: String,
    /// Wall-clock milliseconds.
    pub millis: f64,
    /// Answers returned.
    pub answers: usize,
    /// Nodes settled across all iterators.
    pub pops: usize,
    /// Iterators created (Σ|Sᵢ|).
    pub iterators: usize,
}

/// The full §5.2 report.
#[derive(Debug, Clone)]
pub struct SpaceTimeReport {
    /// Graph node count (tuples).
    pub nodes: usize,
    /// Directed graph edge count.
    pub edges: usize,
    /// Milliseconds to generate the synthetic database.
    pub datagen_ms: f64,
    /// Milliseconds to build the in-memory graph (the paper's "graph
    /// load" phase).
    pub graph_build_ms: f64,
    /// Milliseconds to build the keyword + metadata indexes.
    pub index_build_ms: f64,
    /// Graph memory (bytes) — comparable to the paper's 120 MB figure.
    pub graph_bytes: usize,
    /// Inverted-index memory (bytes); the paper kept these on disk.
    pub text_index_bytes: usize,
    /// Per-query timings over the 7-query workload.
    pub queries: Vec<QueryTiming>,
}

impl SpaceTimeReport {
    /// Median query latency in milliseconds.
    pub(crate) fn median_query_ms(&self) -> f64 {
        let mut times: Vec<f64> = self.queries.iter().map(|q| q.millis).collect();
        times.sort_by(f64::total_cmp);
        if times.is_empty() {
            return 0.0;
        }
        times[times.len() / 2]
    }
}

/// Run the space/time measurement at the given scale.
pub fn run_spacetime(config: DblpConfig) -> SpaceTimeReport {
    let t0 = Instant::now();
    let dataset = generate(config).expect("generation succeeds");
    let datagen_ms = t0.elapsed().as_secs_f64() * 1e3;

    let tokenizer = Tokenizer::new();
    let t1 = Instant::now();
    let text_index = TextIndex::build(&dataset.db, &tokenizer);
    let _metadata_index = MetadataIndex::build(&dataset.db, &tokenizer);
    let index_build_ms = t1.elapsed().as_secs_f64() * 1e3;
    let text_index_bytes = text_index.memory_bytes();
    drop(text_index);

    let t2 = Instant::now();
    let tuple_graph = TupleGraph::build(&dataset.db, &banks_core::GraphConfig::default())
        .expect("graph build succeeds");
    let graph_build_ms = t2.elapsed().as_secs_f64() * 1e3;
    let nodes = tuple_graph.node_count();
    let edges = tuple_graph.graph().edge_count();
    let graph_bytes = tuple_graph.memory_bytes();
    drop(tuple_graph);

    let banks = Banks::with_config(dataset.db.clone(), dblp_eval_config()).expect("banks builds");
    let workload = dblp_workload(&dataset.planted);
    let mut queries = Vec::with_capacity(workload.len());
    for query in &workload {
        let t = Instant::now();
        let outcome = banks.search_outcome(query.text).expect("query runs");
        let millis = t.elapsed().as_secs_f64() * 1e3;
        queries.push(QueryTiming {
            id: query.id.to_string(),
            text: query.text.to_string(),
            millis,
            answers: outcome.answers.len(),
            pops: outcome.stats.pops,
            iterators: outcome.stats.iterators,
        });
    }

    SpaceTimeReport {
        nodes,
        edges,
        datagen_ms,
        graph_build_ms,
        index_build_ms,
        graph_bytes,
        text_index_bytes,
        queries,
    }
}

/// Pretty-print a report.
pub fn format_report(r: &SpaceTimeReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("graph: {} nodes, {} edges\n", r.nodes, r.edges));
    out.push_str(&format!(
        "memory: graph {:.2} MB (paper: ~120 MB for 100K/300K), text index {:.2} MB\n",
        r.graph_bytes as f64 / 1e6,
        r.text_index_bytes as f64 / 1e6
    ));
    out.push_str(&format!(
        "build: datagen {:.0} ms, graph {:.0} ms (paper: ~2 min), indexes {:.0} ms\n",
        r.datagen_ms, r.graph_build_ms, r.index_build_ms
    ));
    out.push_str("query                     ms      answers  pops      iterators\n");
    for q in &r.queries {
        out.push_str(&format!(
            "{:<24} {:>8.2} {:>8} {:>9} {:>9}\n",
            q.id, q.millis, q.answers, q.pops, q.iterators
        ));
    }
    out.push_str(&format!("median query: {:.2} ms\n", r.median_query_ms()));
    out
}

banks_util::json_struct!(QueryTiming {
    id,
    text,
    millis,
    answers,
    pops,
    iterators
});
banks_util::json_struct!(SpaceTimeReport {
    nodes,
    edges,
    datagen_ms,
    graph_build_ms,
    index_build_ms,
    graph_bytes,
    text_index_bytes,
    queries,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_report_is_complete() {
        let r = run_spacetime(DblpConfig::tiny(1));
        assert!(r.nodes > 400);
        assert!(r.edges > 800);
        assert!(r.graph_bytes > 0);
        assert!(r.text_index_bytes > 0);
        assert_eq!(r.queries.len(), 7);
        for q in &r.queries {
            assert!(q.answers > 0, "query {} returned no answers", q.id);
        }
        assert!(r.median_query_ms() >= 0.0);
    }

    #[test]
    fn report_formats() {
        let r = run_spacetime(DblpConfig::tiny(2));
        let text = format_report(&r);
        assert!(text.contains("nodes"));
        assert!(text.contains("median query"));
        assert!(text.lines().count() >= 11);
    }
}
