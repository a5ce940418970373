//! `banks datagen` — stream a synthetic corpus to disk.
//!
//! ```text
//! banks datagen --tuples 1000000 --out /tmp/corpus [--seed 42] [--shard-tuples 250000]
//! ```
//!
//! Writes a DBLP-shaped corpus of exactly `--tuples` rows as shard files
//! under `--out` (see [`banks_datagen::stream`]); peak memory is one
//! write buffer regardless of scale. The resulting directory is accepted
//! anywhere a corpus name is: `banks serve --corpus /tmp/corpus …` or
//! `open /tmp/corpus` in the shell.

use crate::{flag_number, flag_value};
use banks_datagen::stream::{self, StreamConfig, DEFAULT_SHARD_TUPLES};
use std::path::PathBuf;

/// Parsed `banks datagen` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DatagenArgs {
    /// Exact total tuple count.
    pub tuples: u64,
    /// Output directory for shards + manifest.
    pub out: PathBuf,
    /// Generator seed.
    pub seed: u64,
    /// Rows per shard file.
    pub shard_tuples: u64,
}

impl DatagenArgs {
    /// Parse `banks datagen` flags.
    pub(crate) fn parse(args: &[String]) -> Result<DatagenArgs, String> {
        let mut tuples: Option<u64> = None;
        let mut out: Option<PathBuf> = None;
        let mut seed = 42u64;
        let mut shard_tuples = DEFAULT_SHARD_TUPLES;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--tuples" => tuples = Some(flag_number(&mut it, "--tuples")?),
                "--out" => out = Some(PathBuf::from(flag_value(&mut it, "--out")?)),
                "--seed" => seed = flag_number(&mut it, "--seed")?,
                "--shard-tuples" => shard_tuples = flag_number(&mut it, "--shard-tuples")?,
                other => return Err(format!("unknown flag `{other}` (see `banks datagen`)")),
            }
        }
        Ok(DatagenArgs {
            tuples: tuples.ok_or("--tuples N is required")?,
            out: out.ok_or("--out DIR is required")?,
            seed,
            shard_tuples,
        })
    }
}

/// Run `banks datagen`: generate and print a one-line summary per table
/// plus where the shards went.
pub fn run(args: &[String]) -> Result<(), String> {
    let args = DatagenArgs::parse(args)?;
    let config = StreamConfig {
        seed: args.seed,
        tuples: args.tuples,
        shard_tuples: args.shard_tuples,
    };
    let start = std::time::Instant::now();
    let manifest = stream::generate_to_dir(&config, &args.out)?;
    let bytes: u64 = (0..manifest.shards)
        .filter_map(|s| std::fs::metadata(manifest.shard_path(&args.out, s)).ok())
        .map(|m| m.len())
        .sum();
    println!(
        "wrote {} tuples ({} authors, {} papers, {} writes, {} cites) \
         as {} shards, {:.1} MiB, in {:.2?} → {}",
        manifest.config.tuples,
        manifest.counts.authors,
        manifest.counts.papers,
        manifest.counts.writes,
        manifest.counts.cites,
        manifest.shards,
        bytes as f64 / (1 << 20) as f64,
        start.elapsed(),
        args.out.display(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_flags_and_rejects_missing_required() {
        let args = DatagenArgs::parse(&argv(
            "--tuples 5000 --out /tmp/x --seed 7 --shard-tuples 100",
        ))
        .unwrap();
        assert_eq!(args.tuples, 5000);
        assert_eq!(args.out, PathBuf::from("/tmp/x"));
        assert_eq!(args.seed, 7);
        assert_eq!(args.shard_tuples, 100);

        assert!(DatagenArgs::parse(&argv("--out /tmp/x"))
            .unwrap_err()
            .contains("--tuples"));
        assert!(DatagenArgs::parse(&argv("--tuples 5000"))
            .unwrap_err()
            .contains("--out"));
        assert!(DatagenArgs::parse(&argv("--wat"))
            .unwrap_err()
            .contains("--wat"));
    }

    #[test]
    fn run_generates_an_openable_corpus() {
        let dir = std::env::temp_dir().join(format!("banks_cli_datagen_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        run(&argv(&format!(
            "--tuples 200 --out {} --seed 3",
            dir.display()
        )))
        .unwrap();
        let db = crate::corpus::open(dir.to_str().unwrap(), 3).unwrap();
        assert_eq!(db.total_tuples(), 200);
        std::fs::remove_dir_all(&dir).ok();
    }
}
