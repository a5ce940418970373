//! Query parsing.
//!
//! The base query model (§2.3) is a list of keywords. Two extensions the
//! paper describes are also parsed here:
//!
//! * `attribute:keyword` — "queries such as `author:Levy` which would
//!   require the keyword 'Levy' to be in an author name attribute" (§2.3);
//!   the attribute may be a bare column name or `Relation.Column`.
//! * `approx(n)` — "concurrency approx(1988) to look for papers about
//!   concurrency published around 1988" (§7).

use crate::error::{BanksError, BanksResult};
use banks_storage::Tokenizer;
use std::fmt;

/// One parsed search term.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A plain keyword (already lowercased/tokenized).
    Keyword(String),
    /// `attribute:keyword` — keyword restricted to an attribute.
    Qualified {
        /// Attribute spec: `column` or `relation.column`.
        attribute: String,
        /// The keyword (tokenized).
        keyword: String,
    },
    /// `approx(n)` — numeric proximity.
    Approx(i64),
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Keyword(k) => write!(f, "{k}"),
            Term::Qualified { attribute, keyword } => write!(f, "{attribute}:{keyword}"),
            Term::Approx(n) => write!(f, "approx({n})"),
        }
    }
}

/// A parsed keyword query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The search terms, in input order.
    pub terms: Vec<Term>,
}

impl Query {
    /// Parse raw query text.
    ///
    /// Whitespace separates raw terms; a raw keyword that tokenizes into
    /// several tokens (e.g. `"query-optimization"`) contributes one term
    /// per token, mirroring how the data side is indexed.
    pub(crate) fn parse(text: &str, tokenizer: &Tokenizer) -> BanksResult<Query> {
        let mut terms = Vec::new();
        for raw in text.split_whitespace() {
            if let Some(rest) = strip_approx(raw) {
                let n: i64 = rest.parse().map_err(|_| BanksError::BadTerm {
                    term: raw.to_string(),
                    message: format!("`{rest}` is not an integer"),
                })?;
                terms.push(Term::Approx(n));
                continue;
            }
            if let Some((attr, kw)) = raw.split_once(':') {
                if attr.is_empty() || kw.is_empty() {
                    return Err(BanksError::BadTerm {
                        term: raw.to_string(),
                        message: "expected attribute:keyword".to_string(),
                    });
                }
                let tokens = tokenizer.tokenize(kw);
                if tokens.is_empty() {
                    return Err(BanksError::BadTerm {
                        term: raw.to_string(),
                        message: "keyword part has no tokens".to_string(),
                    });
                }
                for token in tokens {
                    terms.push(Term::Qualified {
                        attribute: attr.to_string(),
                        keyword: token,
                    });
                }
                continue;
            }
            for token in tokenizer.tokenize(raw) {
                terms.push(Term::Keyword(token));
            }
        }
        if terms.is_empty() {
            return Err(BanksError::EmptyQuery);
        }
        Ok(Query { terms })
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered: Vec<String> = self.terms.iter().map(|t| t.to_string()).collect();
        write!(f, "{}", rendered.join(" "))
    }
}

/// `approx(123)` → `Some("123")`.
fn strip_approx(raw: &str) -> Option<&str> {
    let lower_ok = raw.len() >= 8 && raw[..7].eq_ignore_ascii_case("approx(") && raw.ends_with(')');
    if lower_ok {
        Some(&raw[7..raw.len() - 1])
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Query {
        Query::parse(s, &Tokenizer::new()).unwrap()
    }

    #[test]
    fn plain_keywords() {
        let q = parse("soumen sunita");
        assert_eq!(
            q.terms,
            vec![
                Term::Keyword("soumen".into()),
                Term::Keyword("sunita".into())
            ]
        );
        assert_eq!(q.terms.len(), 2);
        assert_eq!(q.to_string(), "soumen sunita");
    }

    #[test]
    fn case_folded_and_split() {
        let q = parse("Query-Optimization");
        assert_eq!(
            q.terms,
            vec![
                Term::Keyword("query".into()),
                Term::Keyword("optimization".into())
            ]
        );
    }

    #[test]
    fn qualified_term() {
        let q = parse("author:Levy");
        assert_eq!(
            q.terms,
            vec![Term::Qualified {
                attribute: "author".into(),
                keyword: "levy".into()
            }]
        );
        let q = parse("Author.AuthorName:Levy transaction");
        assert_eq!(q.terms.len(), 2);
        assert!(matches!(&q.terms[1], Term::Keyword(k) if k == "transaction"));
    }

    #[test]
    fn approx_term() {
        let q = parse("concurrency approx(1988)");
        assert_eq!(
            q.terms,
            vec![Term::Keyword("concurrency".into()), Term::Approx(1988)]
        );
        assert_eq!(q.terms[1].to_string(), "approx(1988)");
    }

    #[test]
    fn bad_terms_rejected() {
        let t = Tokenizer::new();
        assert!(matches!(
            Query::parse("approx(abc)", &t),
            Err(BanksError::BadTerm { .. })
        ));
        assert!(matches!(
            Query::parse(":foo", &t),
            Err(BanksError::BadTerm { .. })
        ));
        assert!(matches!(
            Query::parse("attr:", &t),
            Err(BanksError::BadTerm { .. })
        ));
        assert!(matches!(
            Query::parse("  ", &t),
            Err(BanksError::EmptyQuery)
        ));
        assert!(matches!(
            Query::parse("!!! ...", &t),
            Err(BanksError::EmptyQuery)
        ));
    }

    #[test]
    fn negative_approx_allowed() {
        let q = parse("approx(-5)");
        assert_eq!(q.terms, vec![Term::Approx(-5)]);
    }
}
