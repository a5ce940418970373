//! Property tests for the zero-allocation search kernel: a reused
//! [`SearchArena`] must be bit-for-bit equivalent to fresh allocation —
//! across random query streams, both strategies, and an ingest-driven
//! epoch/graph-size change — and exact top-k early termination must never
//! drop (or reorder) an answer the exhaustive run would have emitted.

use banks_core::{Banks, BanksConfig, SearchArena, SearchOutcome, SearchStrategy, StopReason};
use banks_datagen::dblp::{generate, DblpConfig};
use banks_datagen::stream::{build_database, generate_to_dir, StreamConfig};
use banks_ingest::{DeltaBatch, SnapshotPublisher, TupleOp};
use banks_storage::Value;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// The tiny corpus, generated once per process (corpus generation is the
/// expensive part, and the instance is immutable).
fn tiny_banks() -> &'static Arc<Banks> {
    static BANKS: OnceLock<Arc<Banks>> = OnceLock::new();
    BANKS.get_or_init(|| {
        let dataset = generate(DblpConfig::tiny(1)).expect("tiny corpus generates");
        Arc::new(Banks::new(dataset.db).expect("banks builds"))
    })
}

/// A deterministic pool of indexed tokens to build random queries from.
fn token_pool(banks: &Banks) -> Vec<String> {
    let mut tokens: Vec<String> = banks.text_index().tokens().map(|t| t.to_string()).collect();
    tokens.sort();
    tokens
}

fn assert_outcomes_bit_identical(a: &SearchOutcome, b: &SearchOutcome, context: &str) {
    assert_eq!(a.stats, b.stats, "{context}: stats diverged");
    assert_eq!(
        a.answers.len(),
        b.answers.len(),
        "{context}: answer count diverged"
    );
    for (x, y) in a.answers.iter().zip(&b.answers) {
        assert_eq!(x.tree, y.tree, "{context}: tree diverged");
        assert_eq!(
            x.relevance.to_bits(),
            y.relevance.to_bits(),
            "{context}: relevance bits diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N random queries through one reused arena produce bit-identical
    /// `SearchOutcome`s (answers, scores, stats) to fresh-allocation
    /// runs, under both strategies and random result limits — including
    /// after an ingest-driven epoch change grows the graph under the
    /// same arena.
    #[test]
    fn arena_reuse_equivalence(
        picks in proptest::collection::vec((0usize..5000, 0usize..5000, 1usize..4, proptest::bool::ANY, 1usize..12), 3..10),
        seed in 0u32..1000,
    ) {
        let base = tiny_banks();
        let tokens = token_pool(base);
        let mut arena = SearchArena::new();

        // Phase 1: the published base snapshot.
        let run_stream = |banks: &Banks, arena: &mut SearchArena, salt: usize| {
            for &(i, j, n_terms, forward, limit) in &picks {
                let mut text = tokens[(i + salt) % tokens.len()].clone();
                if n_terms >= 2 {
                    text.push(' ');
                    text.push_str(&tokens[(j + salt) % tokens.len()]);
                }
                if n_terms >= 3 {
                    text.push(' ');
                    text.push_str(&tokens[(i + j + salt) % tokens.len()]);
                }
                let strategy = if forward { SearchStrategy::Forward } else { SearchStrategy::Backward };
                let mut config: BanksConfig = banks.config().clone();
                config.search.max_results = limit;
                let query = banks.parse(&text).unwrap();
                let reused = banks.search_parsed_in(&query, strategy, &config, arena).unwrap();
                let fresh = banks
                    .search_parsed_in(&query, strategy, &config, &mut SearchArena::new())
                    .unwrap();
                assert_outcomes_bit_identical(&fresh, &reused, &format!("query `{text}` ({strategy:?})"));
            }
        };
        run_stream(base, &mut arena, 0);

        // Phase 2: publish a delta (new author + paper + link) so the
        // graph's node count changes, then keep using the SAME arena.
        let mut publisher = SnapshotPublisher::new(Arc::clone(base));
        let author_id = format!("ArenaProp{seed}");
        let paper_id = format!("arenaprop{seed}");
        let batch = DeltaBatch {
            ops: vec![
                TupleOp::Insert {
                    relation: "Author".into(),
                    values: vec![Value::text(&author_id), Value::text("Arena Prop")],
                },
                TupleOp::Insert {
                    relation: "Paper".into(),
                    values: vec![
                        Value::text(&paper_id),
                        Value::text("Arena Equivalence Under Epoch Change"),
                    ],
                },
                TupleOp::Insert {
                    relation: "Writes".into(),
                    values: vec![Value::text(&author_id), Value::text(&paper_id)],
                },
            ],
        };
        let published = publisher.publish(&batch, None).expect("publish succeeds");
        prop_assert!(published.banks.tuple_graph().node_count() > base.tuple_graph().node_count());
        run_stream(&published.banks, &mut arena, 7);

        // The new tuples are reachable through the reused arena too.
        let outcome = published.banks.search_outcome_in("equivalence epoch", &mut arena).unwrap();
        prop_assert!(!outcome.answers.is_empty());
    }

    /// Early termination is exact: against the exhaustive run
    /// (`early_termination: false`) the emitted answers are identical —
    /// same trees, same relevance bits, same order — so no answer the
    /// exhaustive run would have put in the top `max_results` is ever
    /// dropped. Random limits keep both the firing regime (small k, high
    /// cutoff) and the non-firing regime covered.
    #[test]
    fn early_termination_never_drops_answers(
        picks in proptest::collection::vec((0usize..5000, 0usize..5000, proptest::bool::ANY), 4..12),
        limit in 1usize..12,
    ) {
        let banks = tiny_banks();
        let tokens = token_pool(banks);
        let mut arena = SearchArena::new();
        let mut fired = 0usize;
        for &(i, j, three) in &picks {
            let mut text = format!("{} {}", tokens[i % tokens.len()], tokens[j % tokens.len()]);
            if three {
                text.push(' ');
                text.push_str(&tokens[(i * 31 + j) % tokens.len()]);
            }
            let query = banks.parse(&text).unwrap();
            let mut config: BanksConfig = banks.config().clone();
            config.search.max_results = limit;
            let early = banks
                .search_parsed_in(&query, SearchStrategy::Backward, &config, &mut arena)
                .unwrap();
            let mut exhaustive_config = config.clone();
            exhaustive_config.search.early_termination = false;
            let exhaustive = banks
                .search_parsed_in(&query, SearchStrategy::Backward, &exhaustive_config, &mut arena)
                .unwrap();
            prop_assert_ne!(exhaustive.stats.stop, StopReason::TopK);
            prop_assert!(early.stats.pops <= exhaustive.stats.pops);
            fired += usize::from(early.stats.stop == StopReason::TopK);
            // Answer-for-answer identical, ranking ties included.
            prop_assert_eq!(early.answers.len(), exhaustive.answers.len(), "count for `{}`", text);
            for (a, b) in early.answers.iter().zip(&exhaustive.answers) {
                prop_assert_eq!(&a.tree, &b.tree, "tree for `{}`", text);
                prop_assert_eq!(a.relevance.to_bits(), b.relevance.to_bits(), "score for `{}`", text);
            }
        }
        // Not asserted per-case (firing depends on the draw), but keep
        // the counter observable for debugging.
        let _ = fired;
    }
}

/// Deterministic (non-proptest) regression: the bound actually fires on a
/// top-1 query over the tiny corpus and saves work while returning the
/// identical answer.
#[test]
fn early_termination_fires_and_saves_pops_at_top1() {
    let banks = tiny_banks();
    let tokens = token_pool(banks);
    let mut arena = SearchArena::new();
    let mut fired = 0usize;
    let mut total = 0usize;
    for i in 0..tokens.len().min(300) {
        let text = format!("{} {}", tokens[i], tokens[(i * 17 + 3) % tokens.len()]);
        let query = banks.parse(&text).unwrap();
        let mut config = banks.config().clone();
        config.search.max_results = 1;
        let early = banks
            .search_parsed_in(&query, SearchStrategy::Backward, &config, &mut arena)
            .unwrap();
        let mut exhaustive_config = config.clone();
        exhaustive_config.search.early_termination = false;
        let exhaustive = banks
            .search_parsed_in(
                &query,
                SearchStrategy::Backward,
                &exhaustive_config,
                &mut arena,
            )
            .unwrap();
        assert_eq!(early.answers.len(), exhaustive.answers.len());
        for (a, b) in early.answers.iter().zip(&exhaustive.answers) {
            assert_eq!(a.tree.signature(), b.tree.signature());
            assert_eq!(a.relevance.to_bits(), b.relevance.to_bits());
        }
        if early.stats.stop == StopReason::TopK {
            fired += 1;
            assert!(
                early.stats.pops < exhaustive.stats.pops,
                "a fired bound must have saved pops for `{text}`"
            );
        }
        total += 1;
    }
    assert!(
        fired > 0,
        "the bound never fired across {total} top-1 queries — it has regressed into a no-op"
    );
}

/// The `banks datagen` 10K-tuple corpus (seed 42), generated once per
/// process.
fn datagen_10k() -> &'static Banks {
    static BANKS: OnceLock<Banks> = OnceLock::new();
    BANKS.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("banks_arena_eq_10k_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        generate_to_dir(&StreamConfig::new(42, 10_000), &dir).unwrap();
        let banks = Banks::new(build_database(&dir).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        banks
    })
}

/// Order-sensitive FNV-1a fingerprint of a ranked answer list: every
/// answer's root, keyword nodes, edges (weight bits included) and
/// relevance bits, in emission order.
fn answers_fingerprint(outcome: &SearchOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(outcome.answers.len() as u64);
    for a in &outcome.answers {
        eat(u64::from(a.tree.root.0));
        for n in &a.tree.keyword_nodes {
            eat(u64::from(n.0));
        }
        for &(from, to, w) in &a.tree.edges {
            eat(u64::from(from.0) << 32 | u64::from(to.0));
            eat(w.to_bits());
        }
        eat(a.relevance.to_bits());
    }
    h
}

/// How each pinned query runs: the backward kernel or the §7 forward
/// strategy.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Backward,
    Forward,
}

/// `(query, kernel, pops, answers fingerprint)` on the 10K corpus,
/// recorded with the dense epoch-stamped Dijkstra state that preceded
/// the sparse per-iterator table. Every other equivalence suite compares
/// the kernel with itself; this one pins what an earlier representation
/// produced, so a state change must keep the settle order, the answers
/// and their ranking exactly.
const PINNED: &[(&str, Kernel, usize, u64)] = &[
    ("weber rossi", Kernel::Backward, 2106, 0x377c854f5a5d1864),
    ("novak petrov", Kernel::Backward, 1384, 0xde9d16fd5ac05b05),
    ("fischer tanaka", Kernel::Backward, 2592, 0x1b94306d7ba06c64),
    ("santos klein", Kernel::Backward, 2721, 0xd63152cc3185a0e4),
    ("alice abramov", Kernel::Backward, 3569, 0x9e875bcdb70b87cf),
    ("grace hoffman", Kernel::Backward, 1588, 0x913451af4ded2d3f),
    (
        "weber rossi novak",
        Kernel::Backward,
        5686,
        0xc0ca3b76c628cee7,
    ),
    (
        "iyer jensen kaplan",
        Kernel::Backward,
        1825,
        0x96a53142f550aea0,
    ),
    ("weber database", Kernel::Backward, 2928, 0xf86d91775bad5d23),
    (
        "rossi clustering",
        Kernel::Backward,
        2706,
        0x9b2689839a785949,
    ),
    ("data database", Kernel::Backward, 1984, 0xb3a709b10bfa3146),
    (
        "adaptive algorithms",
        Kernel::Backward,
        2093,
        0x0a6a7ea6e456c2ed,
    ),
    (
        "clustering compression",
        Kernel::Backward,
        2207,
        0x215811eb3f28caf7,
    ),
    (
        "p0000123 p0000456",
        Kernel::Backward,
        3341,
        0xa081e21d5434b010,
    ),
    (
        "p0000007 p0001000",
        Kernel::Backward,
        1371,
        0xcee100f4a0fe29a3,
    ),
    ("weber database", Kernel::Forward, 3441, 0x239230f5f95d6a65),
    ("alice abramov", Kernel::Forward, 13004, 0x5b43690778ad048f),
    ("caching query", Kernel::Forward, 4378, 0x54ad9b91bde0b086),
];

/// Every pinned query, run in sequence through one reused arena, settles
/// exactly the recorded number of nodes and emits the recorded answers.
#[test]
fn pinned_queries_keep_pops_and_answers() {
    let banks = datagen_10k();
    let mut arena = SearchArena::new();
    for &(text, kernel, pops, fingerprint) in PINNED {
        let strategy = match kernel {
            Kernel::Forward => SearchStrategy::Forward,
            Kernel::Backward => SearchStrategy::Backward,
        };
        let query = banks.parse(text).unwrap();
        let outcome = banks
            .search_parsed_in(&query, strategy, banks.config(), &mut arena)
            .unwrap();
        assert_eq!(outcome.stats.pops, pops, "pops of `{text}` ({kernel:?})");
        assert_eq!(
            answers_fingerprint(&outcome),
            fingerprint,
            "answers of `{text}` ({kernel:?})"
        );
    }
}

/// A broad two-title-word query runs one iterator per matching paper.
/// What the arena keeps afterwards must scale with the work the query
/// did (nodes settled, iterators run), not with iterators × graph size:
/// a state with one slot per graph node would keep 32 × 240 KB here.
#[test]
fn broad_query_retains_memory_in_proportion_to_its_work() {
    let banks = datagen_10k();
    let query = banks.parse("data database").unwrap();
    let mut arena = SearchArena::new();
    let outcome = banks
        .search_parsed_in(&query, SearchStrategy::Backward, banks.config(), &mut arena)
        .unwrap();
    let stats = &outcome.stats;
    assert!(stats.iterators >= 100, "{} iterators", stats.iterators);
    let work = stats.pops + stats.iterators;
    assert!(
        stats.arena_retained_bytes <= 256 * work,
        "{} B retained for {} pops and {} iterators",
        stats.arena_retained_bytes,
        stats.pops,
        stats.iterators
    );
}
