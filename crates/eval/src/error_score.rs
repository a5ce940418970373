//! The §5.3 error metric.
//!
//! "For each query, for each parameter setting, we computed the absolute
//! value of the rank difference of the ideal answers with their rank in
//! the answers for that parameter setting. The sum of these rank
//! differences gives the raw error score for that parameter setting. We
//! scaled the scores to set the worst possible error score to 100. …
//! For answers that were missing at a parameter setting, the rank
//! difference was assumed to be 11 (one more than the number of answers
//! examined)."

use crate::workload::WorkloadQuery;
use banks_core::{Answer, Banks};

/// Number of answers examined per query (the paper stops at 10).
pub(crate) const ANSWERS_EXAMINED: usize = 10;

/// Rank assigned to an ideal answer missing from the top
/// [`ANSWERS_EXAMINED`] (one past the end).
pub(crate) const MISSING_RANK: usize = ANSWERS_EXAMINED + 1;

/// Error of a single query at one parameter setting.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QueryError {
    /// Query id.
    pub query: String,
    /// Raw error: Σ |ideal rank − actual rank|.
    pub raw: f64,
    /// Raw error of the worst possible ranking (all ideals missing).
    pub worst: f64,
    /// `100 × raw / worst`.
    pub scaled: f64,
    /// Actual 1-based ranks found per ideal ([`MISSING_RANK`] = missing).
    pub actual_ranks: Vec<usize>,
}

/// Score one ranked answer list against a query's ideals.
pub(crate) fn score_query(banks: &Banks, query: &WorkloadQuery, answers: &[Answer]) -> QueryError {
    let examined = &answers[..answers.len().min(ANSWERS_EXAMINED)];
    let mut used = vec![false; examined.len()];
    let mut actual_ranks = Vec::with_capacity(query.ideals.len());
    let mut raw = 0f64;
    let mut worst = 0f64;
    for (i, ideal) in query.ideals.iter().enumerate() {
        let ideal_rank = i + 1;
        // First unclaimed answer matching this ideal; each answer can
        // satisfy only one ideal.
        let actual = examined
            .iter()
            .enumerate()
            .find(|(pos, a)| !used[*pos] && ideal.matcher.matches(banks, a))
            .map(|(pos, _)| {
                used[pos] = true;
                pos + 1
            })
            .unwrap_or(MISSING_RANK);
        actual_ranks.push(actual);
        raw += (actual as f64 - ideal_rank as f64).abs();
        worst += (MISSING_RANK - ideal_rank) as f64;
    }
    let scaled = if worst > 0.0 {
        100.0 * raw / worst
    } else {
        0.0
    };
    QueryError {
        query: query.id.to_string(),
        raw,
        worst,
        scaled,
        actual_ranks,
    }
}

/// Average scaled error over a workload.
pub(crate) fn average_scaled_error(errors: &[QueryError]) -> f64 {
    if errors.is_empty() {
        return 0.0;
    }
    errors.iter().map(|e| e.scaled).sum::<f64>() / errors.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{dblp_workload, AnswerMatcher, IdealAnswer, QueryClass};
    use banks_core::{Answer, ConnectionTree};
    use banks_datagen::dblp::{generate, DblpConfig};
    use banks_storage::Value;

    fn banks() -> (Banks, banks_datagen::DblpPlanted) {
        let d = generate(DblpConfig::tiny(1)).unwrap();
        (Banks::new(d.db).unwrap(), d.planted)
    }

    fn single_node_answer(banks: &Banks, relation: &str, key: &str) -> Answer {
        let rid = banks
            .db()
            .relation(relation)
            .unwrap()
            .lookup_pk(&[Value::text(key)])
            .unwrap();
        let node = banks.tuple_graph().node(rid).unwrap();
        Answer {
            tree: ConnectionTree::new(node, vec![node], vec![]),
            relevance: 1.0,
        }
    }

    fn mohan_query(planted: &banks_datagen::DblpPlanted) -> WorkloadQuery {
        dblp_workload(planted)
            .into_iter()
            .find(|q| q.id == "Q5-single-author")
            .unwrap()
    }

    #[test]
    fn perfect_ranking_scores_zero() {
        let (banks, planted) = banks();
        let q = mohan_query(&planted);
        let answers = vec![
            single_node_answer(&banks, "Author", &planted.mohan_c),
            single_node_answer(&banks, "Author", &planted.mohan_ahuja),
            single_node_answer(&banks, "Author", &planted.mohan_kamat),
        ];
        let err = score_query(&banks, &q, &answers);
        assert_eq!(err.raw, 0.0);
        assert_eq!(err.scaled, 0.0);
        assert_eq!(err.actual_ranks, vec![1, 2, 3]);
    }

    #[test]
    fn all_missing_scores_hundred() {
        let (banks, planted) = banks();
        let q = mohan_query(&planted);
        let err = score_query(&banks, &q, &[]);
        assert_eq!(err.scaled, 100.0);
        assert_eq!(err.actual_ranks, vec![11, 11, 11]);
        // worst = (11-1) + (11-2) + (11-3) = 27
        assert_eq!(err.worst, 27.0);
    }

    #[test]
    fn swapped_ranks_accumulate() {
        let (banks, planted) = banks();
        let q = mohan_query(&planted);
        let answers = vec![
            single_node_answer(&banks, "Author", &planted.mohan_kamat),
            single_node_answer(&banks, "Author", &planted.mohan_ahuja),
            single_node_answer(&banks, "Author", &planted.mohan_c),
        ];
        let err = score_query(&banks, &q, &answers);
        // C.Mohan at 3 (|1-3|=2), Ahuja at 2 (0), Kamat at 1 (|3-1|=2).
        assert_eq!(err.raw, 4.0);
        assert!((err.scaled - 100.0 * 4.0 / 27.0).abs() < 1e-9);
    }

    #[test]
    fn one_answer_cannot_satisfy_two_ideals() {
        let (banks, planted) = banks();
        // Craft a query where both ideals match the same answer.
        let q = WorkloadQuery {
            id: "dup",
            text: "x",
            class: QueryClass::SingleAuthor,
            ideals: vec![
                IdealAnswer {
                    description: "first".into(),
                    matcher: AnswerMatcher::SingleNode {
                        relation: "Author".into(),
                        key: vec![Value::text(&planted.mohan_c)],
                    },
                },
                IdealAnswer {
                    description: "second (same tuple)".into(),
                    matcher: AnswerMatcher::SingleNode {
                        relation: "Author".into(),
                        key: vec![Value::text(&planted.mohan_c)],
                    },
                },
            ],
        };
        let answers = vec![single_node_answer(&banks, "Author", &planted.mohan_c)];
        let err = score_query(&banks, &q, &answers);
        assert_eq!(err.actual_ranks, vec![1, MISSING_RANK]);
    }

    #[test]
    fn average_over_queries() {
        let a = QueryError {
            query: "a".into(),
            raw: 0.0,
            worst: 10.0,
            scaled: 0.0,
            actual_ranks: vec![],
        };
        let b = QueryError {
            query: "b".into(),
            raw: 5.0,
            worst: 10.0,
            scaled: 50.0,
            actual_ranks: vec![],
        };
        assert_eq!(average_scaled_error(&[a, b]), 25.0);
        assert_eq!(average_scaled_error(&[]), 0.0);
    }
}
