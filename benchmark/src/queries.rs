//! Seeded query and delta generation.
//!
//! Queries are drawn by class from the pools the corpus itself is built
//! from (`banks_datagen::names`) and the `P%07d` paper-id space, and are
//! deduplicated on the server's cache-key normalization (keywords
//! lowercased and sorted), so "distinct" means "cannot hit the cache".

use crate::stats::Rng;
use banks_datagen::names::{FIRST_NAMES, LAST_NAMES, TITLE_WORDS};
use std::collections::HashSet;

/// Query classes, named after what each keyword matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Two author last names.
    Aa,
    /// First name + last name.
    Fa,
    /// Three author last names.
    Aaa,
    /// Last name + title word.
    At,
    /// Two title words.
    Tt,
    /// Two paper-id tokens.
    Pp,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Aa => "aa",
            Class::Fa => "fa",
            Class::Aaa => "aaa",
            Class::At => "at",
            Class::Tt => "tt",
            Class::Pp => "pp",
        }
    }
}

/// The in-RAM traffic mix: aa 30 / fa 35 / aaa 10 / at 15 / tt 10, as one
/// block of 20 that is reshuffled per block — exact proportions, so the
/// mix does not add seed-to-seed noise to the percentiles. The two cheap
/// classes (~1.2 ms at seed) make up 65 %, which puts the median well
/// inside them: at 55 % it sat at the edge of the next class (~2.7 ms)
/// and moved 20 % from seed to seed on identical work. `aa` stays at
/// 30 % because only 3003 distinct pairs of last names exist.
const MIX_BLOCK: [Class; 20] = {
    use Class::*;
    [
        Aa, Aa, Aa, Aa, Aa, Aa, Fa, Fa, Fa, Fa, Fa, Fa, Fa, Aaa, Aaa, At, At, At, Tt, Tt,
    ]
};

#[derive(Debug, Clone)]
pub struct Query {
    pub class: Class,
    /// URL-ready keyword list (`weber+rossi`).
    pub text: String,
}

/// Generates queries that are pairwise distinct under normalization.
pub struct QueryGen {
    rng: Rng,
    seen: HashSet<String>,
    /// Number of `Paper` rows in the corpus (`P0000001..`).
    papers: u64,
}

impl QueryGen {
    pub fn new(seed: u64, papers: u64) -> QueryGen {
        QueryGen {
            rng: Rng::new(seed),
            seen: HashSet::new(),
            papers,
        }
    }

    fn pick(&mut self, pool: &[&str]) -> String {
        pool[self.rng.below(pool.len())].to_lowercase()
    }

    fn paper_id(&mut self) -> String {
        // Row 0 is the planted paper with a non-`P` id.
        format!("p{:07}", 1 + self.rng.below(self.papers as usize - 1))
    }

    /// One query of `class` whose normalized form was not produced before.
    pub fn distinct(&mut self, class: Class) -> Query {
        loop {
            let mut terms = match class {
                Class::Aa => vec![self.pick(LAST_NAMES), self.pick(LAST_NAMES)],
                Class::Fa => vec![self.pick(FIRST_NAMES), self.pick(LAST_NAMES)],
                Class::Aaa => vec![
                    self.pick(LAST_NAMES),
                    self.pick(LAST_NAMES),
                    self.pick(LAST_NAMES),
                ],
                Class::At => vec![self.pick(LAST_NAMES), self.pick(TITLE_WORDS)],
                Class::Tt => vec![self.pick(TITLE_WORDS), self.pick(TITLE_WORDS)],
                Class::Pp => vec![self.paper_id(), self.paper_id()],
            };
            let text = terms.join("+");
            terms.sort_unstable();
            terms.dedup();
            // A repeated keyword would make it a different (shorter) query.
            if terms.len() == text.split('+').count() && self.seen.insert(terms.join(" ")) {
                return Query { class, text };
            }
        }
    }

    /// `n` distinct queries in the in-RAM mix.
    pub fn mixed(&mut self, n: usize) -> Vec<Query> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let mut block = MIX_BLOCK;
            self.rng.shuffle(&mut block);
            for class in block.into_iter().take(n - out.len()) {
                out.push(self.distinct(class));
            }
        }
        out
    }

    /// `n` distinct queries of one class.
    pub fn of_class(&mut self, class: Class, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.distinct(class)).collect()
    }
}

/// One `POST /ingest` body: 5 papers whose titles carry a token unique to
/// the batch, each written by an existing synthetic author (10 inserts).
#[derive(Debug, Clone)]
pub struct Delta {
    /// Searchable only after this batch is visible.
    pub token: String,
    pub body: String,
}

/// `n` insert batches with keys unique across the run. `authors` is the
/// corpus's `Author` row count (rows 0..3 are planted, the rest `A%07d`).
pub fn deltas(seed: u64, n: usize, authors: u64) -> Vec<Delta> {
    let mut rng = Rng::new(seed ^ 0xde17a);
    (0..n)
        .map(|batch| {
            let token = format!("zq{seed}b{batch}");
            let mut ops = Vec::with_capacity(10);
            for k in 0..5 {
                let paper = format!("Z{seed}x{batch}x{k}");
                let author = 3 + rng.below(authors as usize - 3);
                ops.push(format!(
                    r#"{{"op":"insert","relation":"Paper","values":["{paper}","{token} inserted while serving"]}}"#
                ));
                ops.push(format!(
                    r#"{{"op":"insert","relation":"Writes","values":["A{author:07}","{paper}"]}}"#
                ));
            }
            Delta {
                token,
                body: format!(r#"{{"ops":[{}]}}"#, ops.join(",")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normalized(q: &Query) -> String {
        let mut terms: Vec<&str> = q.text.split('+').collect();
        terms.sort_unstable();
        terms.join(" ")
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let render = |seed| {
            let mut g = QueryGen::new(seed, 1800);
            let mut lines: Vec<String> = g
                .mixed(300)
                .iter()
                .chain(g.of_class(Class::Pp, 50).iter())
                .map(|q| format!("{}\t{}", q.class.name(), q.text))
                .collect();
            lines.extend(deltas(seed, 5, 800).into_iter().map(|d| d.body));
            lines.join("\n")
        };
        assert_eq!(render(3), render(3));
        assert_ne!(render(3), render(4));
    }

    #[test]
    fn queries_are_distinct_under_normalization_and_keep_the_mix() {
        let mut g = QueryGen::new(1, 1800);
        // Two pools from one generator are disjoint from each other too.
        let warm = g.mixed(200);
        let timed = g.mixed(2000);
        let mut seen = HashSet::new();
        for q in warm.iter().chain(&timed) {
            assert!(seen.insert(normalized(q)), "duplicate {}", q.text);
            let terms: Vec<&str> = q.text.split('+').collect();
            assert_eq!(terms.len(), if q.class == Class::Aaa { 3 } else { 2 });
            assert!(q.text.chars().all(|c| c.is_ascii_lowercase() || c == '+'));
        }
        let share = |c| timed.iter().filter(|q| q.class == c).count();
        assert_eq!(
            [
                share(Class::Aa),
                share(Class::Fa),
                share(Class::Aaa),
                share(Class::At),
                share(Class::Tt)
            ],
            [600, 700, 200, 300, 200]
        );
    }

    #[test]
    fn delta_batches_have_unique_keys_and_tokens() {
        let batches = deltas(9, 40, 800);
        let tokens: HashSet<_> = batches.iter().map(|d| d.token.clone()).collect();
        assert_eq!(tokens.len(), 40);
        let mut keys = HashSet::new();
        for d in &batches {
            assert_eq!(d.body.matches(r#""op":"insert""#).count(), 10);
            for key in d.body.split(r#""relation":"Paper","values":[""#).skip(1) {
                assert!(keys.insert(key.split('"').next().unwrap().to_string()));
            }
        }
        assert_eq!(keys.len(), 200);
    }
}
