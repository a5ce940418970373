//! End-to-end pipeline: synthetic DBLP → indexes → graph → backward
//! expanding search → ranked connection trees, checked against the
//! workload's ideal answers.

use banks_core::{Banks, SearchStrategy};
use banks_datagen::dblp::{generate, DblpConfig};
use banks_eval::workload::{dblp_eval_config, dblp_workload};

fn banks_at(seed: u64) -> (Banks, Vec<banks_eval::WorkloadQuery>) {
    let dataset = generate(DblpConfig::tiny(seed)).expect("generation succeeds");
    let workload = dblp_workload(&dataset.planted);
    let banks = Banks::with_config(dataset.db, dblp_eval_config()).expect("banks builds");
    (banks, workload)
}

#[test]
fn every_workload_query_finds_its_first_ideal_near_the_top() {
    for seed in [1u64, 7, 42] {
        let (banks, workload) = banks_at(seed);
        for query in &workload {
            let answers = banks.search(query.text).expect("query runs");
            assert!(
                !answers.is_empty(),
                "seed {seed}: query {} returned nothing",
                query.id
            );
            let first_ideal_rank = answers
                .iter()
                .position(|a| query.ideals[0].matcher.matches(&banks, a));
            assert!(
                first_ideal_rank.is_some_and(|r| r < 3),
                "seed {seed}: query {} first ideal not in top 3 (rank {first_ideal_rank:?})",
                query.id
            );
        }
    }
}

#[test]
fn search_is_deterministic() {
    let (banks, workload) = banks_at(3);
    for query in &workload {
        let a = banks.search(query.text).expect("runs");
        let b = banks.search(query.text).expect("runs");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tree.signature(), y.tree.signature());
            assert_eq!(x.relevance, y.relevance);
        }
    }
}

#[test]
fn answers_are_valid_connection_trees() {
    let (banks, workload) = banks_at(5);
    let graph = banks.tuple_graph().graph();
    for query in &workload {
        let parsed = banks.parse(query.text).expect("parses");
        let n_terms = parsed.terms.len();
        for answer in banks.search(query.text).expect("runs") {
            let tree = &answer.tree;
            // One keyword node per term.
            assert_eq!(tree.keyword_nodes.len(), n_terms, "{}", query.id);
            // Every edge exists in the graph with the recorded weight.
            for &(f, t, w) in &tree.edges {
                let gw = graph
                    .edge_weight(f, t)
                    .unwrap_or_else(|| panic!("{}: edge {f}->{t} not in graph", query.id));
                assert!((gw - w).abs() < 1e-9);
            }
            // Every keyword node is reachable from the root via tree edges.
            for &leaf in &tree.keyword_nodes {
                let mut reachable = vec![tree.root];
                let mut frontier = vec![tree.root];
                while let Some(v) = frontier.pop() {
                    for &(f, t, _) in &tree.edges {
                        if f == v && !reachable.contains(&t) {
                            reachable.push(t);
                            frontier.push(t);
                        }
                    }
                }
                assert!(
                    reachable.contains(&leaf),
                    "{}: keyword node {leaf} unreachable from root {}",
                    query.id,
                    tree.root
                );
            }
            // Relevance in [0,1] under the default (additive) scoring.
            assert!((0.0..=1.0).contains(&answer.relevance));
        }
    }
}

#[test]
fn no_duplicate_trees_in_any_result() {
    let (banks, workload) = banks_at(9);
    for query in &workload {
        let answers = banks.search(query.text).expect("runs");
        let mut sigs: Vec<_> = answers.iter().map(|a| a.tree.signature()).collect();
        let before = sigs.len();
        sigs.sort();
        sigs.dedup();
        assert_eq!(before, sigs.len(), "{} produced duplicates", query.id);
    }
}

#[test]
fn excluded_link_relations_never_root_answers() {
    let (banks, workload) = banks_at(11);
    for query in &workload {
        for answer in banks.search(query.text).expect("runs") {
            let rid = banks.tuple_graph().rid(answer.tree.root);
            let name = banks.db().table(rid.relation).schema().name.clone();
            assert!(
                name != "Writes" && name != "Cites",
                "{}: answer rooted at excluded relation {name}",
                query.id
            );
        }
    }
}

#[test]
fn forward_strategy_also_covers_the_workload() {
    let (banks, workload) = banks_at(1);
    for query in &workload {
        let outcome = banks
            .search_with(query.text, SearchStrategy::Forward, banks.config())
            .expect("runs");
        assert!(
            !outcome.answers.is_empty(),
            "forward search empty for {}",
            query.id
        );
    }
}
