//! Text tokenization for the keyword index.
//!
//! BANKS matches query keywords against "tokens appearing in any textual
//! attribute" (§2.3). We lowercase, split on non-alphanumeric boundaries,
//! and optionally drop stopwords. The same tokenizer is applied to queries,
//! attribute values and metadata names so that matching is symmetric
//! (e.g. the column name `AuthorName` yields tokens `author`, `name` and
//! `authorname`, letting the keyword "author" match metadata).
//!
//! [`Tokenizer::for_each_token`] is the allocation-free core the index
//! build runs over every text value: a token that is already lowercase
//! ASCII is handed out as a slice of the input, any other token is
//! lowercased into one buffer the caller reuses. [`Tokenizer::tokenize`]
//! collects the same tokens into owned strings.

/// Tokenizer configuration.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    stopwords: Vec<String>,
    min_len: usize,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Tokenizer {
            stopwords: Vec::new(),
            min_len: 1,
        }
    }
}

impl Tokenizer {
    /// Tokenizer with no stopwords and no minimum length.
    pub fn new() -> Tokenizer {
        Tokenizer::default()
    }

    /// Use the given stopword list (compared lowercase).
    pub fn with_stopwords(mut self, words: &[&str]) -> Tokenizer {
        self.stopwords = words.iter().map(|w| w.to_lowercase()).collect();
        self
    }

    /// Drop tokens shorter than `n` characters.
    pub fn with_min_len(mut self, n: usize) -> Tokenizer {
        self.min_len = n;
        self
    }

    /// Whether a token survives filtering.
    fn keep(&self, token: &str) -> bool {
        (self.min_len <= 1 || token.chars().count() >= self.min_len)
            && !self.stopwords.iter().any(|s| s == token)
    }

    /// Tokenize arbitrary text into lowercase alphanumeric tokens.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_token(text, &mut String::new(), |token| out.push(token.to_owned()));
        out
    }

    /// Call `f` on each token of `text`, in order — the tokens
    /// [`Tokenizer::tokenize`] returns, without allocating them.
    ///
    /// A token is a maximal run of alphanumeric characters, lowercased.
    /// ASCII is classified byte by byte; only non-ASCII characters are
    /// decoded. A run of lowercase ASCII letters and digits is passed as a
    /// slice of `text`; any other run is lowercased into `buf` (with
    /// `make_ascii_lowercase` when it is all ASCII), which the caller keeps
    /// across calls so that it stops growing after the longest token.
    pub fn for_each_token(&self, text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
        let mut emit = |run: &str, case: Case| {
            let token = match case {
                Case::Lower => run,
                Case::Ascii => {
                    buf.clear();
                    buf.push_str(run);
                    buf.make_ascii_lowercase();
                    buf.as_str()
                }
                Case::Unicode => {
                    buf.clear();
                    buf.extend(run.chars().flat_map(char::to_lowercase));
                    buf.as_str()
                }
            };
            if self.keep(token) {
                f(token);
            }
        };
        let mut i = 0;
        while i < text.len() {
            let (alphanumeric, mut case, width) = class_at(text, i);
            let start = i;
            i += width;
            if !alphanumeric {
                continue;
            }
            while i < text.len() {
                let (alphanumeric, next, width) = class_at(text, i);
                if !alphanumeric {
                    break;
                }
                case = case.max(next);
                i += width;
            }
            emit(&text[start..i], case);
        }
    }

    /// Tokenize an identifier-style name (relation or column name),
    /// additionally splitting CamelCase words and including the whole
    /// lowercased identifier as a token.
    ///
    /// `"AuthorName"` → `["author", "name", "authorname"]`.
    pub fn tokenize_identifier(&self, name: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut current = String::new();
        let chars: Vec<char> = name.chars().collect();
        for (i, &ch) in chars.iter().enumerate() {
            if !ch.is_alphanumeric() {
                if !current.is_empty() {
                    out.push(std::mem::take(&mut current));
                }
                continue;
            }
            // Split at lower→upper boundaries and upper→upper+lower ones
            // ("HTMLPage" → "html", "page").
            if ch.is_uppercase() && !current.is_empty() {
                let prev = chars[i - 1];
                let next_lower = chars.get(i + 1).is_some_and(|c| c.is_lowercase());
                if prev.is_lowercase() || prev.is_numeric() || (prev.is_uppercase() && next_lower) {
                    out.push(std::mem::take(&mut current));
                }
            }
            current.extend(ch.to_lowercase());
        }
        if !current.is_empty() {
            out.push(current);
        }
        let whole: String = name
            .chars()
            .filter(|c| c.is_alphanumeric())
            .flat_map(|c| c.to_lowercase())
            .collect();
        if !whole.is_empty() && !out.contains(&whole) {
            out.push(whole);
        }
        out.retain(|t| self.keep(t));
        out.dedup();
        out
    }
}

/// What lowercasing a run of alphanumeric characters needs, in order of
/// cost; a run needs the most any of its characters needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Case {
    /// Lowercase ASCII letters and digits: already a token.
    Lower,
    /// ASCII with uppercase letters: `make_ascii_lowercase`.
    Ascii,
    /// Non-ASCII: `char::to_lowercase`, which may change the length.
    Unicode,
}

/// The character starting at byte `i` of `text`: whether it is
/// alphanumeric, the [`Case`] it needs, and its UTF-8 width.
#[inline]
fn class_at(text: &str, i: usize) -> (bool, Case, usize) {
    let b = text.as_bytes()[i];
    if b.is_ascii_lowercase() || b.is_ascii_digit() {
        (true, Case::Lower, 1)
    } else if b.is_ascii_uppercase() {
        (true, Case::Ascii, 1)
    } else if b.is_ascii() {
        (false, Case::Lower, 1)
    } else {
        let c = text[i..].chars().next().expect("char boundary");
        (c.is_alphanumeric(), Case::Unicode, c.len_utf8())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokenization() {
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize("Mining Surprising Patterns"),
            vec!["mining", "surprising", "patterns"]
        );
        assert_eq!(
            t.tokenize("query-optimization, 1998!"),
            vec!["query", "optimization", "1998"]
        );
        assert!(t.tokenize("  \t ").is_empty());
    }

    #[test]
    fn stopwords_and_min_len() {
        let t = Tokenizer::new()
            .with_stopwords(&["the", "of"])
            .with_min_len(2);
        assert_eq!(
            t.tokenize("The anatomy of a search engine"),
            vec!["anatomy", "search", "engine"]
        );
    }

    #[test]
    fn identifier_splitting() {
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize_identifier("AuthorName"),
            vec!["author", "name", "authorname"]
        );
        assert_eq!(t.tokenize_identifier("Paper"), vec!["paper"]);
        assert_eq!(
            t.tokenize_identifier("paper_id"),
            vec!["paper", "id", "paperid"]
        );
    }

    #[test]
    fn identifier_acronym_boundary() {
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize_identifier("HTMLPage"),
            vec!["html", "page", "htmlpage"]
        );
    }

    #[test]
    fn unicode_case_folding() {
        let t = Tokenizer::new();
        assert_eq!(t.tokenize("Gödel Escher"), vec!["gödel", "escher"]);
    }

    #[test]
    fn numbers_are_tokens() {
        let t = Tokenizer::new();
        assert_eq!(
            t.tokenize("published in 1988"),
            vec!["published", "in", "1988"]
        );
    }
}
