//! Streaming DBLP-shaped corpus generation for out-of-core testing.
//!
//! [`dblp::generate`](crate::dblp::generate) builds the whole database in
//! memory, which caps it at what the build host can hold. The out-of-core
//! storage engine needs the opposite: corpora whose *decoded* size exceeds
//! the serving budget, produced on CI runners with ordinary RAM. This
//! module generates such corpora as **shard files written straight to
//! disk** — peak memory is one write buffer, independent of `--tuples N`.
//!
//! The trick is index-derived rows: every tuple is a pure function of
//! `(seed, table, row index)`, so the generator never holds cross-row
//! state (no id vectors, no dedup sets). Primary-key uniqueness is by
//! construction instead of by rejection:
//!
//! * `Writes` row `j` links paper `1 + j % (papers-1)` to the `k`-th
//!   author of that paper (`k = j / (papers-1)`), where a paper's author
//!   list is the arithmetic run `base(p) + k` through the synthetic
//!   author range — distinct by construction, skewed by drawing `base`
//!   from a quadratic ramp toward low indices.
//! * `Cites` row `i` makes paper `1 + i % (papers-1)` cite its `k`-th
//!   reference, the run `base'(p) + k` through the *other* synthetic
//!   papers (a `papers-2`-sized range remapped around the citing paper,
//!   so self-citations are impossible, again skew via the ramp base).
//!
//! Three planted authors (Soumen Chakrabarti, Sunita Sarawagi, C. Mohan)
//! and their co-authored paper occupy the first rows of their tables, so
//! the paper's §5.1 anecdote queries return stable, non-empty answers at
//! every scale — the memory-budget smoke job fingerprints those.
//!
//! On disk a corpus is a directory: `MANIFEST` (key=value header) plus
//! `shard-NNNNN.tsv` files of `Table\tvalue\tvalue` lines in deterministic
//! order. [`build_database`] streams the shards back into a
//! [`Database`]; [`for_each_row`] exposes the raw stream for consumers
//! that want to batch rows themselves.

use crate::names::{FIRST_NAMES, LAST_NAMES, TITLE_WORDS};
use crate::rng::Rng;
use banks_storage::{Database, Value};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Manifest file name inside a stream-corpus directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// First line of a valid manifest.
pub const MANIFEST_MAGIC: &str = "banks-stream v1";
/// Default rows per shard file.
pub const DEFAULT_SHARD_TUPLES: u64 = 250_000;
/// Smallest total the proportional split supports.
pub const MIN_TUPLES: u64 = 64;

/// Size knobs for the streaming generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// PRNG seed; equal seeds give byte-identical shard files.
    pub seed: u64,
    /// Exact total tuple count across all four tables.
    pub tuples: u64,
    /// Rows per shard file (the last shard may be short).
    pub shard_tuples: u64,
}

impl StreamConfig {
    /// Config with the default shard size.
    pub fn new(seed: u64, tuples: u64) -> StreamConfig {
        StreamConfig {
            seed,
            tuples,
            shard_tuples: DEFAULT_SHARD_TUPLES,
        }
    }
}

/// Per-table row counts derived from a total. They always sum to the
/// requested total; `Writes` absorbs the rounding remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCounts {
    /// `Author` rows (first three are the planted anecdote authors).
    pub authors: u64,
    /// `Paper` rows (the first is the planted co-authored paper).
    pub papers: u64,
    /// `Writes` rows (the first two link the planted pair to paper 0).
    pub writes: u64,
    /// `Cites` rows.
    pub cites: u64,
}

impl StreamCounts {
    /// Split a total into the paper-scale table proportions
    /// (roughly 8% authors, 18% papers, 44% writes, 30% cites).
    pub fn for_tuples(tuples: u64) -> Result<StreamCounts, String> {
        if tuples < MIN_TUPLES {
            return Err(format!(
                "--tuples must be at least {MIN_TUPLES}, got {tuples}"
            ));
        }
        let authors = (tuples * 8 / 100).max(8);
        let papers = (tuples * 18 / 100).max(8);
        let cites = (tuples * 30 / 100).max(4);
        let writes = tuples - authors - papers - cites;
        let counts = StreamCounts {
            authors,
            papers,
            writes,
            cites,
        };
        // The arithmetic-run construction needs k to stay inside the
        // ranges it walks; at the fixed proportions k maxes out near 3,
        // but guard explicitly so hand-built configs fail loudly.
        if counts.writes / (counts.papers - 1) >= counts.authors - PLANTED_AUTHORS {
            return Err("writes-per-paper exceeds the author pool".into());
        }
        if counts.cites / (counts.papers - 1) >= counts.papers - 2 {
            return Err("cites-per-paper exceeds the paper pool".into());
        }
        Ok(counts)
    }

    /// Total rows across all tables.
    pub fn total(&self) -> u64 {
        self.authors + self.papers + self.writes + self.cites
    }
}

/// What `generate_to_dir` wrote (and `read_manifest` reads back).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamManifest {
    /// Generation knobs.
    pub config: StreamConfig,
    /// Derived per-table counts.
    pub counts: StreamCounts,
    /// Number of shard files.
    pub shards: u64,
}

impl StreamManifest {
    /// Path of shard `i` under `dir`.
    pub fn shard_path(&self, dir: &Path, shard: u64) -> PathBuf {
        dir.join(format!("shard-{shard:05}.tsv"))
    }
}

const PLANTED_AUTHORS: u64 = 3;
const PLANTED_WRITES: u64 = 2;

/// Per-row deterministic PRNG: the SplitMix64 finalizer inside
/// [`Rng::next_u64`] decorrelates the structured key.
fn row_rng(seed: u64, table: u8, index: u64) -> Rng {
    Rng::new(
        seed ^ (table as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9),
    )
}

/// Quadratic ramp toward 0: a cheap stand-in for Zipf skew that keeps
/// popular authors/papers concentrated at low indices.
fn skewed_base(rng: &mut Rng, count: u64) -> u64 {
    let u = rng.next_f64();
    ((count as f64) * u * u) as u64
}

/// `AuthorId` of `Author` row `i` — the key alone, which `Writes` rows
/// reference without paying for the name.
fn author_id(i: u64) -> String {
    match i {
        0 => "SoumenC".into(),
        1 => "SunitaS".into(),
        2 => "MohanC".into(),
        _ => format!("A{i:07}"),
    }
}

/// `PaperId` of `Paper` row `i` — the key alone, which `Writes` and
/// `Cites` rows reference without paying for the title.
fn paper_id(i: u64) -> String {
    match i {
        0 => "ChakrabartiSD98".into(),
        _ => format!("P{i:07}"),
    }
}

/// `Author` row `i` as `(AuthorId, AuthorName)`.
pub fn author_row(seed: u64, i: u64) -> (String, String) {
    let name = match i {
        0 => "Soumen Chakrabarti".into(),
        1 => "Sunita Sarawagi".into(),
        2 => "C. Mohan".into(),
        _ => {
            let mut rng = row_rng(seed, b'A', i);
            format!(
                "{} {}",
                rng.pick(FIRST_NAMES),
                LAST_NAMES[(i % LAST_NAMES.len() as u64) as usize]
            )
        }
    };
    (author_id(i), name)
}

/// `Paper` row `i` as `(PaperId, PaperName)`.
pub fn paper_row(seed: u64, i: u64) -> (String, String) {
    if i == 0 {
        return (
            paper_id(0),
            "Enhanced Hypertext Categorization Using Hyperlinks".into(),
        );
    }
    let mut rng = row_rng(seed, b'P', i);
    let n_words = rng.range(3, 8);
    let mut words: Vec<&str> = (0..n_words).map(|_| *rng.pick(TITLE_WORDS)).collect();
    words.dedup();
    let mut title = words.join(" ");
    if rng.chance(0.10) {
        title.push_str(&format!(" {}", 1975 + rng.range(0, 26)));
    }
    (paper_id(i), title)
}

/// `Writes` row `j` as `(AuthorId, PaperId)`.
pub fn writes_row(seed: u64, counts: &StreamCounts, j: u64) -> (String, String) {
    if j == 0 {
        return ("SoumenC".into(), "ChakrabartiSD98".into());
    }
    if j == 1 {
        return ("SunitaS".into(), "ChakrabartiSD98".into());
    }
    let synth = j - PLANTED_WRITES;
    let paper = 1 + synth % (counts.papers - 1);
    let k = synth / (counts.papers - 1);
    let pool = counts.authors - PLANTED_AUTHORS;
    let mut rng = row_rng(seed, b'W', paper);
    let author = PLANTED_AUTHORS + (skewed_base(&mut rng, pool) + k) % pool;
    (author_id(author), paper_id(paper))
}

/// `Cites` row `i` as `(Citing, Cited)`.
pub fn cites_row(seed: u64, counts: &StreamCounts, i: u64) -> (String, String) {
    let citing = 1 + i % (counts.papers - 1);
    let k = i / (counts.papers - 1);
    // Walk a run through the other synthetic papers: a range of size
    // papers-2 remapped around `citing` so self-citation is impossible.
    let pool = counts.papers - 2;
    let mut rng = row_rng(seed, b'C', citing);
    let m = (skewed_base(&mut rng, pool) + k) % pool;
    let cited = if m >= citing - 1 { m + 2 } else { m + 1 };
    (paper_id(citing), paper_id(cited))
}

/// Global row `i` (over the concatenated table order Author, Paper,
/// Writes, Cites) as `(table, column 0, column 1)`.
pub fn global_row(seed: u64, counts: &StreamCounts, i: u64) -> (&'static str, String, String) {
    let mut at = i;
    if at < counts.authors {
        let (a, b) = author_row(seed, at);
        return ("Author", a, b);
    }
    at -= counts.authors;
    if at < counts.papers {
        let (a, b) = paper_row(seed, at);
        return ("Paper", a, b);
    }
    at -= counts.papers;
    if at < counts.writes {
        let (a, b) = writes_row(seed, counts, at);
        return ("Writes", a, b);
    }
    at -= counts.writes;
    let (a, b) = cites_row(seed, counts, at);
    ("Cites", a, b)
}

/// Generate the corpus into `dir` (created if missing), writing shard
/// files and the manifest. Peak memory is one `BufWriter`, regardless of
/// `config.tuples`.
pub fn generate_to_dir(config: &StreamConfig, dir: &Path) -> Result<StreamManifest, String> {
    if config.shard_tuples == 0 {
        return Err("shard_tuples must be positive".into());
    }
    let counts = StreamCounts::for_tuples(config.tuples)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let shards = config.tuples.div_ceil(config.shard_tuples);
    let manifest = StreamManifest {
        config: config.clone(),
        counts,
        shards,
    };

    let mut row = 0u64;
    for shard in 0..shards {
        let path = manifest.shard_path(dir, shard);
        let file =
            std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut out = BufWriter::new(file);
        let end = ((shard + 1) * config.shard_tuples).min(config.tuples);
        while row < end {
            let (table, a, b) = global_row(config.seed, &counts, row);
            [table, "\t", &a, "\t", &b, "\n"]
                .iter()
                .try_for_each(|part| out.write_all(part.as_bytes()))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            row += 1;
        }
        out.flush()
            .map_err(|e| format!("flush {}: {e}", path.display()))?;
    }

    let mut text = String::new();
    text.push_str(MANIFEST_MAGIC);
    text.push('\n');
    for (key, value) in [
        ("seed", config.seed),
        ("tuples", config.tuples),
        ("shard_tuples", config.shard_tuples),
        ("authors", counts.authors),
        ("papers", counts.papers),
        ("writes", counts.writes),
        ("cites", counts.cites),
        ("shards", shards),
    ] {
        text.push_str(&format!("{key}={value}\n"));
    }
    std::fs::write(dir.join(MANIFEST_FILE), text).map_err(|e| format!("write manifest: {e}"))?;
    Ok(manifest)
}

/// True if `path` looks like a stream-corpus directory (has a manifest
/// starting with the magic line).
pub fn is_stream_dir(path: &Path) -> bool {
    std::fs::read_to_string(path.join(MANIFEST_FILE))
        .map(|text| text.starts_with(MANIFEST_MAGIC))
        .unwrap_or(false)
}

/// Read and validate the manifest of a stream-corpus directory.
pub fn read_manifest(dir: &Path) -> Result<StreamManifest, String> {
    let path = dir.join(MANIFEST_FILE);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(format!("{}: not a banks-stream manifest", path.display()));
    }
    let mut get = |key: &str| -> Result<u64, String> {
        lines
            .next()
            .and_then(|line| line.strip_prefix(key))
            .and_then(|rest| rest.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{}: missing or malformed `{key}`", path.display()))
    };
    let config = StreamConfig {
        seed: get("seed")?,
        tuples: get("tuples")?,
        shard_tuples: get("shard_tuples")?,
    };
    let counts = StreamCounts {
        authors: get("authors")?,
        papers: get("papers")?,
        writes: get("writes")?,
        cites: get("cites")?,
    };
    let shards = get("shards")?;
    if counts.total() != config.tuples {
        return Err(format!("{}: counts do not sum to tuples", path.display()));
    }
    Ok(StreamManifest {
        config,
        counts,
        shards,
    })
}

/// Stream every row of the corpus under `dir`, one shard at a time, in
/// generation order. The callback gets `(table, column 0, column 1)`.
pub fn for_each_row<F>(dir: &Path, manifest: &StreamManifest, mut f: F) -> Result<(), String>
where
    F: FnMut(&str, &str, &str) -> Result<(), String>,
{
    let mut rows = 0u64;
    // One line buffer for the whole corpus: a row costs no allocation here.
    let mut line = String::new();
    for shard in 0..manifest.shards {
        let path = manifest.shard_path(dir, shard);
        let file =
            std::fs::File::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let mut reader = BufReader::new(file);
        loop {
            line.clear();
            let read = reader
                .read_line(&mut line)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            if read == 0 {
                break;
            }
            // As `BufRead::lines`: drop `\n` or `\r\n`.
            let line = match line.strip_suffix('\n') {
                Some(line) => line.strip_suffix('\r').unwrap_or(line),
                None => &line,
            };
            let mut parts = line.splitn(3, '\t');
            match (parts.next(), parts.next(), parts.next()) {
                (Some(table), Some(a), Some(b)) => f(table, a, b)?,
                _ => return Err(format!("{}: malformed row `{line}`", path.display())),
            }
            rows += 1;
        }
    }
    if rows != manifest.config.tuples {
        return Err(format!(
            "{}: shards hold {rows} rows, manifest says {}",
            dir.display(),
            manifest.config.tuples
        ));
    }
    Ok(())
}

/// Load a stream corpus into a fresh Fig. 1 database by replaying its
/// shards one at a time.
pub fn build_database(dir: &Path) -> Result<Database, String> {
    let manifest = read_manifest(dir)?;
    let mut db = crate::dblp::dblp_schema().map_err(|e| e.to_string())?;
    for_each_row(dir, &manifest, |table, a, b| {
        db.insert(table, vec![Value::text(a), Value::text(b)])
            .map(|_| ())
            .map_err(|e| format!("insert into {table}: {e}"))
    })?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "banks_stream_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn counts_sum_exactly_and_tiny_totals_are_rejected() {
        for tuples in [MIN_TUPLES, 100, 12_345, 1_000_000] {
            let counts = StreamCounts::for_tuples(tuples).unwrap();
            assert_eq!(counts.total(), tuples, "total {tuples}");
        }
        assert!(StreamCounts::for_tuples(MIN_TUPLES - 1).is_err());
    }

    #[test]
    fn rows_are_deterministic_and_keys_unique() {
        let counts = StreamCounts::for_tuples(5_000).unwrap();
        let mut writes = HashSet::new();
        for j in 0..counts.writes {
            let row = writes_row(7, &counts, j);
            assert_eq!(row, writes_row(7, &counts, j), "write {j} deterministic");
            assert!(writes.insert(row.clone()), "duplicate write {row:?}");
        }
        let mut cites = HashSet::new();
        for i in 0..counts.cites {
            let (citing, cited) = cites_row(7, &counts, i);
            assert_ne!(citing, cited, "self-citation at {i}");
            assert!(cites.insert((citing, cited)), "duplicate cite {i}");
        }
        // A different seed actually changes content.
        assert_ne!(paper_row(7, 5).1, paper_row(8, 5).1);
    }

    #[test]
    fn shards_roundtrip_into_a_database() {
        let dir = tmp_dir("roundtrip");
        let config = StreamConfig {
            seed: 3,
            tuples: 400,
            shard_tuples: 150,
        };
        let manifest = generate_to_dir(&config, &dir).unwrap();
        assert_eq!(manifest.shards, 3);
        assert!(is_stream_dir(&dir));
        assert_eq!(read_manifest(&dir).unwrap(), manifest);

        let db = build_database(&dir).unwrap();
        assert_eq!(db.total_tuples() as u64, config.tuples);
        // Planted entities present.
        let authors = db.relation("Author").unwrap();
        let names: Vec<String> = authors
            .scan()
            .map(|(_, t)| t.values()[1].as_text().unwrap().to_string())
            .collect();
        assert!(names.iter().any(|n| n == "Soumen Chakrabarti"));
        assert!(names.iter().any(|n| n == "C. Mohan"));

        // Same seed → byte-identical shards.
        let dir2 = tmp_dir("roundtrip2");
        generate_to_dir(&config, &dir2).unwrap();
        for shard in 0..manifest.shards {
            assert_eq!(
                std::fs::read(manifest.shard_path(&dir, shard)).unwrap(),
                std::fs::read(manifest.shard_path(&dir2, shard)).unwrap(),
                "shard {shard}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn corrupt_manifest_and_short_shards_are_rejected() {
        let dir = tmp_dir("corrupt");
        let config = StreamConfig {
            seed: 1,
            tuples: 100,
            shard_tuples: 60,
        };
        let manifest = generate_to_dir(&config, &dir).unwrap();

        // Truncate the last shard: depending on where the cut lands this
        // trips the row-count check, the row parser, or a dangling
        // foreign key — any of the three rejects the corpus.
        let last = manifest.shard_path(&dir, manifest.shards - 1);
        let bytes = std::fs::read(&last).unwrap();
        std::fs::write(&last, &bytes[..bytes.len() / 2]).unwrap();
        let err = build_database(&dir).unwrap_err();
        assert!(
            err.contains("manifest says") || err.contains("malformed") || err.contains("insert"),
            "{err}"
        );

        // Garbage manifest: magic check trips.
        std::fs::write(dir.join(MANIFEST_FILE), "not a manifest\n").unwrap();
        assert!(!is_stream_dir(&dir));
        assert!(read_manifest(&dir).unwrap_err().contains("manifest"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
