//! Synthetic DBLP-style bibliographic database.
//!
//! Reproduces the structure of the paper's first dataset ("a part of the
//! DBLP information, represented in structured relational format … about
//! 100000 nodes and 300000 edges in the resultant BANKS graph", §5): the
//! Figure 1 schema — Author, Paper, Writes, Cites — populated with
//! Zipf-skewed authorship and preferential-attachment citations, plus the
//! *planted* entities behind every §5.1 anecdote:
//!
//! * "C. Mohan" (prolific), "Mohan Ahuja", "Mohan Kamat" — the "Mohan"
//!   prestige-ranking anecdote;
//! * Jim Gray's classic transaction paper and the Gray & Reuter book, both
//!   cited more than any synthetic paper — the "transaction" anecdote;
//! * Soumen Chakrabarti / Sunita Sarawagi / Byron Dom and ChakrabartiSD98
//!   — Figure 1(B) and the "soumen sunita" anecdote;
//! * Michael Stonebraker (prolific), Margo Seltzer — the "seltzer sunita"
//!   anecdote (connected only through Stonebraker).

use crate::names::{FIRST_NAMES, LAST_NAMES, TITLE_WORDS};
use crate::rng::Rng;
use crate::zipf::Zipf;
use banks_storage::{ColumnType, Database, RelationSchema, StorageResult, Value};
use std::collections::HashSet;

/// Size knobs for the generator.
#[derive(Debug, Clone, PartialEq)]
pub struct DblpConfig {
    /// PRNG seed; equal seeds give byte-identical databases.
    pub seed: u64,
    /// Synthetic author count (planted authors come on top).
    pub authors: usize,
    /// Synthetic paper count (planted papers come on top).
    pub papers: usize,
    /// Approximate synthetic citation count.
    pub cites: usize,
    /// Zipf exponent for author productivity.
    pub author_skew: f64,
    /// Zipf exponent for citation popularity.
    pub cite_skew: f64,
}

impl DblpConfig {
    /// A few hundred tuples — unit-test scale.
    pub fn tiny(seed: u64) -> DblpConfig {
        DblpConfig {
            seed,
            authors: 60,
            papers: 120,
            cites: 150,
            author_skew: 0.8,
            cite_skew: 0.8,
        }
    }

    /// Around ten thousand tuples — integration-test / bench scale.
    pub fn small(seed: u64) -> DblpConfig {
        DblpConfig {
            seed,
            authors: 800,
            papers: 1_700,
            cites: 3_000,
            author_skew: 0.8,
            cite_skew: 0.8,
        }
    }

    /// The §5.2 scale: ~100K graph nodes / ~300K directed edges.
    pub fn paper_scale(seed: u64) -> DblpConfig {
        DblpConfig {
            seed,
            authors: 8_000,
            papers: 17_000,
            cites: 30_000,
            author_skew: 0.8,
            cite_skew: 0.8,
        }
    }

    /// Linearly scale the paper-scale proportions by `factor`.
    pub fn scaled(seed: u64, factor: f64) -> DblpConfig {
        let base = DblpConfig::paper_scale(seed);
        DblpConfig {
            seed,
            authors: ((base.authors as f64 * factor) as usize).max(10),
            papers: ((base.papers as f64 * factor) as usize).max(20),
            cites: ((base.cites as f64 * factor) as usize).max(20),
            ..base
        }
    }
}

/// Identifiers of the planted anecdote entities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DblpPlanted {
    /// Author id of C. Mohan (20 synthetic papers).
    pub mohan_c: String,
    /// Author id of Mohan Ahuja (5 papers).
    pub mohan_ahuja: String,
    /// Author id of Mohan Kamat (2 papers).
    pub mohan_kamat: String,
    /// Author id of Jim Gray.
    pub gray: String,
    /// Author id of Andreas Reuter.
    pub reuter: String,
    /// Paper id of "The Transaction Concept Virtues and Limitations"
    /// (most-cited paper in the database).
    pub transaction_paper: String,
    /// Paper id of "Transaction Processing Concepts and Techniques"
    /// (second most cited).
    pub transaction_book: String,
    /// Author id of Soumen Chakrabarti.
    pub soumen: String,
    /// Author id of Sunita Sarawagi.
    pub sunita: String,
    /// Author id of Byron Dom.
    pub byron: String,
    /// Paper id of ChakrabartiSD98 (Fig. 1).
    pub chakrabarti_sd98: String,
    /// Paper id of the second Soumen+Sunita co-authored paper.
    pub scalable_mining: String,
    /// Author id of Michael Stonebraker (prolific).
    pub stonebraker: String,
    /// Author id of Margo Seltzer.
    pub seltzer: String,
    /// Paper id of the Stonebraker+Seltzer paper.
    pub stone_seltzer_paper: String,
    /// Paper id of the Stonebraker+Sunita paper.
    pub stone_sunita_paper: String,
}

/// A generated database plus its planted ground truth.
#[derive(Debug, Clone)]
pub struct DblpDataset {
    /// The relational database (Fig. 1 schema).
    pub db: Database,
    /// Planted entity ids.
    pub planted: DblpPlanted,
    /// Config used for generation.
    pub config: DblpConfig,
}

/// Create the Fig. 1 schema in a fresh database.
pub fn dblp_schema() -> StorageResult<Database> {
    let mut db = Database::new("dblp");
    db.create_relation(
        RelationSchema::builder("Author")
            .column("AuthorId", ColumnType::Text)
            .column("AuthorName", ColumnType::Text)
            .primary_key(&["AuthorId"])
            .build()?,
    )?;
    db.create_relation(
        RelationSchema::builder("Paper")
            .column("PaperId", ColumnType::Text)
            .column("PaperName", ColumnType::Text)
            .primary_key(&["PaperId"])
            .build()?,
    )?;
    db.create_relation(
        RelationSchema::builder("Writes")
            .column("AuthorId", ColumnType::Text)
            .column("PaperId", ColumnType::Text)
            .primary_key(&["AuthorId", "PaperId"])
            .foreign_key(&["AuthorId"], "Author")
            .foreign_key(&["PaperId"], "Paper")
            .build()?,
    )?;
    // The paper singles out citation links as weaker than authorship links
    // ("the link between the Paper table and the Cites table … would have
    // a higher weight"): similarity 2 vs the default 1.
    db.create_relation(
        RelationSchema::builder("Cites")
            .column("Citing", ColumnType::Text)
            .column("Cited", ColumnType::Text)
            .primary_key(&["Citing", "Cited"])
            .foreign_key_with_similarity(&["Citing"], "Paper", 2.0)
            .foreign_key_with_similarity(&["Cited"], "Paper", 2.0)
            .build()?,
    )?;
    Ok(db)
}

/// Generate a full dataset.
pub fn generate(config: DblpConfig) -> StorageResult<DblpDataset> {
    let mut rng = Rng::new(config.seed);
    let mut db = dblp_schema()?;

    // ---- synthetic authors ----------------------------------------------
    let mut author_ids: Vec<String> = Vec::with_capacity(config.authors);
    for i in 0..config.authors {
        let id = format!("A{i:05}");
        let name = format!(
            "{} {}",
            rng.pick(FIRST_NAMES),
            LAST_NAMES[i % LAST_NAMES.len()]
        );
        db.insert("Author", vec![Value::text(&id), Value::text(name)])?;
        author_ids.push(id);
    }

    // ---- synthetic papers ------------------------------------------------
    let mut paper_ids: Vec<String> = Vec::with_capacity(config.papers);
    for i in 0..config.papers {
        let id = format!("P{i:05}");
        let n_words = rng.range(3, 8);
        let mut words: Vec<&str> = (0..n_words).map(|_| *rng.pick(TITLE_WORDS)).collect();
        words.dedup();
        let mut title = words.join(" ");
        // ~10% of titles carry a publication year token, feeding approx().
        if rng.chance(0.10) {
            title.push_str(&format!(" {}", 1975 + rng.range(0, 26)));
        }
        db.insert("Paper", vec![Value::text(&id), Value::text(title)])?;
        paper_ids.push(id);
    }

    // ---- synthetic authorship (Zipf-skewed) -------------------------------
    let author_zipf = Zipf::new(config.authors, config.author_skew);
    let mut writes_seen: HashSet<(usize, usize)> = HashSet::new();
    for (p_idx, paper) in paper_ids.iter().enumerate() {
        let n_authors = rng.range(1, 5);
        let mut chosen: Vec<usize> = Vec::with_capacity(n_authors);
        for _ in 0..n_authors {
            for _attempt in 0..8 {
                let a = author_zipf.sample(&mut rng);
                if !chosen.contains(&a) && !writes_seen.contains(&(a, p_idx)) {
                    chosen.push(a);
                    break;
                }
            }
        }
        for a in chosen {
            writes_seen.insert((a, p_idx));
            db.insert(
                "Writes",
                vec![Value::text(&author_ids[a]), Value::text(paper)],
            )?;
        }
    }

    // ---- synthetic citations (preferential by rank) -----------------------
    let cite_zipf = Zipf::new(config.papers, config.cite_skew);
    let mut cites_seen: HashSet<(usize, usize)> = HashSet::new();
    let mut cite_counts: Vec<usize> = vec![0; config.papers];
    let mut inserted = 0usize;
    let mut attempts = 0usize;
    while inserted < config.cites && attempts < config.cites * 4 {
        attempts += 1;
        let citing = rng.range(0, config.papers);
        let cited = cite_zipf.sample(&mut rng);
        if citing == cited || cites_seen.contains(&(citing, cited)) {
            continue;
        }
        cites_seen.insert((citing, cited));
        cite_counts[cited] += 1;
        db.insert(
            "Cites",
            vec![
                Value::text(&paper_ids[citing]),
                Value::text(&paper_ids[cited]),
            ],
        )?;
        inserted += 1;
    }
    drop(cite_counts);
    drop(cites_seen); // synthetic pairs cannot collide with planted ids

    // Prestige baseline: the highest *total* indegree over synthetic
    // papers (writes + citations made + citations received — BANKS
    // prestige counts every reference). Planted papers must beat it.
    let paper_rel = db.relation_id("Paper")?;
    let max_synth_indegree = db
        .table(paper_rel)
        .scan()
        .map(|(rid, _)| db.indegree(rid))
        .max()
        .unwrap_or(0);

    // ---- planted entities --------------------------------------------------
    let planted = plant(&mut db, &mut rng, &paper_ids, max_synth_indegree)?;

    Ok(DblpDataset {
        db,
        planted,
        config,
    })
}

/// Insert the anecdote entities and wire them into the synthetic corpus.
fn plant(
    db: &mut Database,
    rng: &mut Rng,
    paper_ids: &[String],
    max_synth_indegree: usize,
) -> StorageResult<DblpPlanted> {
    let add_author = |db: &mut Database, id: &str, name: &str| -> StorageResult<()> {
        db.insert("Author", vec![Value::text(id), Value::text(name)])?;
        Ok(())
    };
    for (id, name) in [
        ("MohanC", "C. Mohan"),
        ("MohanA", "Mohan Ahuja"),
        ("MohanK", "Mohan Kamat"),
        ("GrayJ", "Jim Gray"),
        ("ReuterA", "Andreas Reuter"),
        ("SoumenC", "Soumen Chakrabarti"),
        ("SunitaS", "Sunita Sarawagi"),
        ("ByronD", "Byron Dom"),
        ("StonebrakerM", "Michael Stonebraker"),
        ("SeltzerM", "Margo Seltzer"),
    ] {
        add_author(db, id, name)?;
    }

    let planted_papers: &[(&str, &str)] = &[
        (
            "GrayTransaction81",
            "The Transaction Concept Virtues and Limitations",
        ),
        (
            "GrayReuter93",
            "Transaction Processing Concepts and Techniques",
        ),
        (
            "ChakrabartiSD98",
            "Mining Surprising Patterns Using Temporal Description Length",
        ),
        ("SarawagiC00", "Scalable Mining of Surprising Sequences"),
        (
            "StonebrakerSeltzer93",
            "Transaction Support in Read Optimized File Systems",
        ),
        (
            "StonebrakerSarawagi98",
            "Efficient Organization of Large Multidimensional Arrays",
        ),
    ];
    for (id, title) in planted_papers {
        db.insert("Paper", vec![Value::text(*id), Value::text(*title)])?;
    }

    // Authorship of planted papers.
    for (author, paper) in [
        ("GrayJ", "GrayTransaction81"),
        ("GrayJ", "GrayReuter93"),
        ("ReuterA", "GrayReuter93"),
        ("SoumenC", "ChakrabartiSD98"),
        ("SunitaS", "ChakrabartiSD98"),
        ("ByronD", "ChakrabartiSD98"),
        ("SoumenC", "SarawagiC00"),
        ("SunitaS", "SarawagiC00"),
        ("StonebrakerM", "StonebrakerSeltzer93"),
        ("SeltzerM", "StonebrakerSeltzer93"),
        ("StonebrakerM", "StonebrakerSarawagi98"),
        ("SunitaS", "StonebrakerSarawagi98"),
    ] {
        db.insert("Writes", vec![Value::text(author), Value::text(paper)])?;
    }

    // Productivity plants: authorship of synthetic papers. C. Mohan's 20
    // papers beat Ahuja's 5 beat Kamat's 2 ("C. Mohan came out at the top
    // of the ranking … due to the prestige conferred by the writes
    // relation"); Stonebraker's 30 papers make his author→Writes backward
    // edges heavy (the log-scaling anecdote).
    let mut cursor = 0usize;
    let mut next_papers = |rng: &mut Rng, k: usize| -> Vec<usize> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k && cursor + 1 < paper_ids.len() {
            cursor += 1 + rng.range(0, 3);
            if cursor < paper_ids.len() {
                out.push(cursor);
            }
        }
        out
    };
    // Kamat planted before Ahuja before C. Mohan: with node weights
    // disabled (λ=0) every single-node answer ties, so emission order
    // falls back to node order — which is then the *wrong* order, as in
    // the paper's λ=0 error bars. Prestige must do the work.
    for (author, k) in [
        ("MohanK", 2usize),
        ("MohanA", 5),
        ("MohanC", 20),
        ("GrayJ", 5),
        ("StonebrakerM", 30),
        // Seltzer deliberately gets NO synthetic papers: her only link to
        // the corpus is the Stonebraker co-authorship, so "seltzer sunita"
        // must route through Stonebraker (the §5.1 anecdote).
        ("SoumenC", 3),
        ("SunitaS", 3),
        ("ByronD", 2),
    ] {
        for p in next_papers(rng, k) {
            db.insert(
                "Writes",
                vec![Value::text(author), Value::text(&paper_ids[p])],
            )?;
        }
    }

    // Citation plants: the transaction paper and book must out-rank every
    // synthetic paper on prestige; ChakrabartiSD98 gets a modest boost.
    let paper_count = paper_ids.len();
    let cite_from_distinct = |db: &mut Database, target: &str, count: usize| {
        let mut added = 0usize;
        let mut idx = 0usize;
        while added < count && idx < paper_count {
            db.insert(
                "Cites",
                vec![Value::text(&paper_ids[idx]), Value::text(target)],
            )
            .expect("planted cite");
            added += 1;
            idx += 1;
        }
        added
    };
    let boost_top = max_synth_indegree + max_synth_indegree / 5 + 4;
    let boost_second = max_synth_indegree + max_synth_indegree / 10 + 2;
    cite_from_distinct(db, "GrayTransaction81", boost_top);
    cite_from_distinct(db, "GrayReuter93", boost_second);
    // ChakrabartiSD98 gets a strong (but sub-book) boost so its prestige
    // puts the Figure 2 answer ahead of the lighter two-author tree.
    cite_from_distinct(db, "ChakrabartiSD98", max_synth_indegree * 3 / 5 + 5);

    Ok(DblpPlanted {
        mohan_c: "MohanC".into(),
        mohan_ahuja: "MohanA".into(),
        mohan_kamat: "MohanK".into(),
        gray: "GrayJ".into(),
        reuter: "ReuterA".into(),
        transaction_paper: "GrayTransaction81".into(),
        transaction_book: "GrayReuter93".into(),
        soumen: "SoumenC".into(),
        sunita: "SunitaS".into(),
        byron: "ByronD".into(),
        chakrabarti_sd98: "ChakrabartiSD98".into(),
        scalable_mining: "SarawagiC00".into(),
        stonebraker: "StonebrakerM".into(),
        seltzer: "SeltzerM".into(),
        stone_seltzer_paper: "StonebrakerSeltzer93".into(),
        stone_sunita_paper: "StonebrakerSarawagi98".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = generate(DblpConfig::tiny(7)).unwrap();
        let b = generate(DblpConfig::tiny(7)).unwrap();
        assert_eq!(a.db.total_tuples(), b.db.total_tuples());
        assert_eq!(a.db.link_count(), b.db.link_count());
        let c = generate(DblpConfig::tiny(8)).unwrap();
        assert_ne!(
            (a.db.total_tuples(), a.db.link_count()),
            (c.db.total_tuples(), c.db.link_count()),
            "different seeds give different corpora"
        );
    }

    #[test]
    fn tiny_counts_in_expected_range() {
        let d = generate(DblpConfig::tiny(1)).unwrap();
        let total = d.db.total_tuples();
        assert!(total > 400, "got {total}");
        assert!(total < 1200, "got {total}");
        // All four relations populated.
        for table in d.db.relations() {
            assert!(!table.is_empty(), "{} empty", table.schema().name);
        }
    }

    #[test]
    fn transaction_papers_are_most_prestigious() {
        let d = generate(DblpConfig::tiny(3)).unwrap();
        let paper = d.db.relation("Paper").unwrap();
        let indeg = |pid: &str| {
            let rid = paper.lookup_pk(&[Value::text(pid)]).unwrap();
            d.db.indegree(rid)
        };
        let top = indeg(&d.planted.transaction_paper);
        let second = indeg(&d.planted.transaction_book);
        assert!(top > second, "paper {top} vs book {second}");
        // beat every synthetic paper on total indegree (= BANKS prestige)
        let mut best_synth = 0;
        for (rid, t) in paper.scan() {
            let id = t.values()[0].as_text().unwrap();
            if id.starts_with('P') {
                best_synth = best_synth.max(d.db.indegree(rid));
            }
        }
        assert!(second > best_synth, "book {second} vs synth {best_synth}");
    }

    #[test]
    fn mohan_productivity_ordering() {
        let d = generate(DblpConfig::tiny(5)).unwrap();
        let author = d.db.relation("Author").unwrap();
        let writes_rel = d.db.relation_id("Writes").unwrap();
        let papers_of = |aid: &str| {
            let rid = author.lookup_pk(&[Value::text(aid)]).unwrap();
            d.db.indegree_from(rid, writes_rel)
        };
        let c = papers_of(&d.planted.mohan_c);
        let a = papers_of(&d.planted.mohan_ahuja);
        let k = papers_of(&d.planted.mohan_kamat);
        assert!(c > a && a > k, "C.Mohan {c}, Ahuja {a}, Kamat {k}");
    }

    #[test]
    fn seltzer_and_sunita_share_no_paper_but_share_stonebraker() {
        let d = generate(DblpConfig::tiny(11)).unwrap();
        let writes = d.db.relation("Writes").unwrap();
        let papers_of = |aid: &str| -> HashSet<String> {
            writes
                .scan()
                .filter(|(_, t)| t.values()[0].as_text() == Some(aid))
                .map(|(_, t)| t.values()[1].as_text().unwrap().to_string())
                .collect()
        };
        let seltzer = papers_of(&d.planted.seltzer);
        let sunita = papers_of(&d.planted.sunita);
        let stone = papers_of(&d.planted.stonebraker);
        assert!(seltzer.is_disjoint(&sunita), "no direct co-authorship");
        assert!(!seltzer.is_disjoint(&stone));
        assert!(!sunita.is_disjoint(&stone));
    }

    #[test]
    fn paper_scale_hits_100k_nodes_300k_edges() {
        // Generation at full scale is fast enough for a unit test guard,
        // but keep tolerance loose: the point is the order of magnitude
        // the paper quotes (§5.2).
        let d = generate(DblpConfig::paper_scale(1)).unwrap();
        let nodes = d.db.total_tuples();
        let edges = d.db.link_count() * 2;
        assert!((90_000..=115_000).contains(&nodes), "nodes {nodes}");
        assert!((250_000..=350_000).contains(&edges), "edges {edges}");
    }

    #[test]
    fn scaled_factor_shrinks_proportionally() {
        let full = DblpConfig::paper_scale(1);
        let tenth = DblpConfig::scaled(1, 0.1);
        assert_eq!(tenth.authors, full.authors / 10);
        assert_eq!(tenth.papers, full.papers / 10);
    }
}
