//! Bibliography search: the paper's primary scenario on the synthetic
//! DBLP corpus — keyword search, metadata matching, qualified and
//! approximate queries, answer summarization, and the forward-search
//! strategy for metadata-heavy queries.
//!
//! ```text
//! cargo run -p banks-testsuite --example bibliography_search [seed]
//! ```

use banks_core::{Banks, BanksConfig, SearchStrategy};
use banks_datagen::dblp::{generate, DblpConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    println!("generating synthetic DBLP (seed {seed})…");
    let dataset = generate(DblpConfig::tiny(seed))?;
    println!(
        "  {} tuples, {} foreign-key links\n",
        dataset.db.total_tuples(),
        dataset.db.link_count()
    );

    // The paper's §2.1 root restriction: link relations are not meaningful
    // information nodes.
    let mut config = BanksConfig::default();
    config.search.excluded_root_relations = vec!["Writes".into(), "Cites".into()];
    // Enable the §7 extensions: approximate matching.
    config.matching.approximate = true;
    let banks = Banks::with_config(dataset.db.clone(), config)?;

    // -- §5.1-style keyword queries ------------------------------------
    for query in ["mohan", "transaction", "soumen sunita", "seltzer sunita"] {
        println!("== query: {query}");
        let answers = banks.search(query)?;
        for answer in answers.iter().take(2) {
            println!("relevance {:.3}", answer.relevance);
            for line in banks.render_answer(answer).lines() {
                println!("  {line}");
            }
        }
        println!();
    }

    // -- attribute-qualified query (§2.3 extension) ---------------------
    println!("== qualified query: AuthorName:sunita");
    for answer in banks.search("AuthorName:sunita")? {
        print!("{}", banks.render_answer(&answer));
    }
    println!();

    // -- numeric approximation (§7): papers around 1988 -----------------
    println!("== approx query: mining approx(1988)");
    for answer in banks.search("mining approx(1988)")?.iter().take(3) {
        print!("{}", banks.render_answer(answer));
    }
    println!();

    // -- approximate token matching (edit distance 1) -------------------
    println!("== fuzzy query: sunitha temporal   (note the typo)");
    for answer in banks.search("sunitha temporal")?.iter().take(2) {
        print!("{}", banks.render_answer(answer));
    }
    println!();

    // -- answer summarization (§7): group by tree shape -----------------
    println!("== summarization of: soumen sunita");
    let answers = banks.search("soumen sunita")?;
    for group in banks.summarize(&answers) {
        println!(
            "shape {} — {} answers, best relevance {:.3}",
            group.label,
            group.answers.len(),
            group.best_relevance
        );
    }
    println!();

    // -- forward search (§7) on a metadata-heavy query ------------------
    println!("== forward search: author sunita");
    let outcome = banks.search_with("author sunita", SearchStrategy::Forward, banks.config())?;
    println!(
        "{} answers, {} pops, {} iterators (backward would start one per matching node)",
        outcome.answers.len(),
        outcome.stats.pops,
        outcome.stats.iterators
    );
    if let Some(best) = outcome.answers.first() {
        print!("{}", banks.render_answer(best));
    }
    Ok(())
}
