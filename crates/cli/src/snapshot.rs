//! The `banks snapshot` subcommand: work with full-system snapshot
//! bundles (`banks-persist`) directly from the command line.
//!
//! ```text
//! banks snapshot save --corpus dblp --seed 1 --out dblp.banks
//! banks snapshot inspect dblp.banks
//! banks snapshot load dblp.banks --query "mohan sudarshan"
//! ```
//!
//! `save` writes the corpus's bundle (atomically, fsync'd) without
//! building the in-RAM system (`banks_persist::write_corpus_bundle`);
//! `inspect` validates one — sections, checksums — and prints a
//! summary, reading the per-relation live-tuple counts of a v3 bundle
//! straight from its DATA directory without decoding a single tuple
//! block; `load` restores a query-ready system from it
//! and optionally runs a query, which doubles as an end-to-end check
//! that restore-from-bundle serves real answers.

use banks_core::BanksConfig;
use banks_persist::{inspect_bundle, load_bundle, write_corpus_bundle};
use std::path::PathBuf;

/// Parsed `snapshot` arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotArgs {
    /// `snapshot save --corpus NAME [--seed N] [--epoch N] --out PATH`
    Save {
        /// Corpus to build.
        corpus: String,
        /// Generation seed.
        seed: u64,
        /// Epoch stamp for the bundle (default 0).
        epoch: u64,
        /// Output path.
        out: PathBuf,
    },
    /// `snapshot load PATH [--query "…"]`
    Load {
        /// Bundle path.
        path: PathBuf,
        /// Optional query to run against the restored system.
        query: Option<String>,
    },
    /// `snapshot inspect PATH`
    Inspect {
        /// Bundle path.
        path: PathBuf,
    },
}

impl SnapshotArgs {
    /// Parse everything after `banks snapshot`.
    pub fn parse(args: &[String]) -> Result<SnapshotArgs, String> {
        let Some((verb, rest)) = args.split_first() else {
            return Err("snapshot needs a verb: save | load | inspect".into());
        };
        let mut it = rest.iter();
        match verb.as_str() {
            "save" => {
                let (mut corpus, mut seed, mut epoch, mut out) = (None, 1u64, 0u64, None);
                while let Some(flag) = it.next() {
                    let mut value = |name: &str| {
                        it.next()
                            .cloned()
                            .ok_or_else(|| format!("{name} requires a value"))
                    };
                    match flag.as_str() {
                        "--corpus" => corpus = Some(value("--corpus")?),
                        "--seed" => {
                            seed = value("--seed")?
                                .parse()
                                .map_err(|_| "--seed must be an integer".to_string())?
                        }
                        "--epoch" => {
                            epoch = value("--epoch")?
                                .parse()
                                .map_err(|_| "--epoch must be an integer".to_string())?
                        }
                        "--out" => out = Some(PathBuf::from(value("--out")?)),
                        other => return Err(format!("unknown snapshot save flag `{other}`")),
                    }
                }
                Ok(SnapshotArgs::Save {
                    corpus: corpus.ok_or("snapshot save requires --corpus")?,
                    seed,
                    epoch,
                    out: out.ok_or("snapshot save requires --out")?,
                })
            }
            "load" => {
                let Some(path) = it.next() else {
                    return Err("snapshot load requires a bundle path".into());
                };
                let mut query = None;
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--query" => {
                            query = Some(
                                it.next()
                                    .cloned()
                                    .ok_or("--query requires a value".to_string())?,
                            )
                        }
                        other => return Err(format!("unknown snapshot load flag `{other}`")),
                    }
                }
                Ok(SnapshotArgs::Load {
                    path: PathBuf::from(path),
                    query,
                })
            }
            "inspect" => {
                let Some(path) = it.next() else {
                    return Err("snapshot inspect requires a bundle path".into());
                };
                Ok(SnapshotArgs::Inspect {
                    path: PathBuf::from(path),
                })
            }
            other => Err(format!(
                "unknown snapshot verb `{other}` (save | load | inspect)"
            )),
        }
    }
}

/// Execute a parsed snapshot command, returning the printable output.
pub fn execute(args: &SnapshotArgs) -> Result<String, String> {
    match args {
        SnapshotArgs::Save {
            corpus,
            seed,
            epoch,
            out,
        } => {
            let t0 = std::time::Instant::now();
            let rows = crate::corpus::stage(corpus, *seed)?;
            let saved = write_corpus_bundle(rows, &BanksConfig::default(), *epoch, out)
                .map_err(|e| format!("save {}: {e}", out.display()))?;
            Ok(format!(
                "saved {} (epoch {epoch}) in {:.1} ms: {} tuples, {} graph nodes, {} postings, {} bytes\n",
                out.display(),
                t0.elapsed().as_secs_f64() * 1e3,
                saved.tuples,
                saved.tuples,
                saved.postings,
                saved.bytes,
            ))
        }
        SnapshotArgs::Load { path, query } => {
            let t0 = std::time::Instant::now();
            let (banks, meta) = load_bundle(path, &BanksConfig::default())
                .map_err(|e| format!("load {}: {e}", path.display()))?;
            let mut out = format!(
                "loaded {} in {:.1} ms: epoch {}, {} tuples, {} nodes / {} edges, {} postings\n",
                path.display(),
                t0.elapsed().as_secs_f64() * 1e3,
                meta.epoch,
                banks.db().total_tuples(),
                banks.tuple_graph().node_count(),
                banks.tuple_graph().graph().edge_count(),
                banks.text_index().posting_count(),
            );
            if let Some(query) = query {
                let answers = banks.search(query).map_err(|e| e.to_string())?;
                out.push_str(&format!("query `{query}`: {} answer(s)\n", answers.len()));
                for (i, a) in answers.iter().enumerate().take(3) {
                    out.push_str(&format!(
                        "  #{} relevance {:.4}\n{}\n",
                        i + 1,
                        a.relevance,
                        indent(&banks.render_answer(a))
                    ));
                }
            }
            Ok(out)
        }
        SnapshotArgs::Inspect { path } => {
            let info =
                inspect_bundle(path).map_err(|e| format!("inspect {}: {e}", path.display()))?;
            let (meta_b, data_b, tidx_b, graph_b) = info.section_bytes;
            let mut out = format!(
                "{}: valid bundle (v{}), {} bytes, epoch {}\n",
                path.display(),
                info.version,
                info.file_bytes,
                info.meta.epoch
            );
            out.push_str(&format!(
                "  database `{}`: {} tuples across {} relation(s)\n",
                info.database,
                info.tuples,
                info.relations.len()
            ));
            for (name, count) in &info.relations {
                out.push_str(&format!("    {name}: {count} tuples\n"));
            }
            out.push_str(&format!(
                "  text index: {} tokens, {} postings\n  graph: {} nodes, {} edges\n",
                info.tokens, info.postings, info.nodes, info.edges
            ));
            out.push_str(&format!(
                "  sections: meta {meta_b} B, data {data_b} B, text {tidx_b} B, graph {graph_b} B\n"
            ));
            out.push_str(&format!(
                "  ranking: lambda {:.2}, {:?} edges, {:?} nodes, {:?}\n",
                info.meta.score.lambda,
                info.meta.score.edge_score,
                info.meta.score.node_score,
                info.meta.score.combine
            ));
            Ok(out)
        }
    }
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Entry point for `banks snapshot …`.
pub fn run(args: &[String]) -> Result<(), String> {
    let parsed = SnapshotArgs::parse(args)?;
    print!("{}", execute(&parsed)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_all_verbs() {
        assert_eq!(
            SnapshotArgs::parse(&strings(&[
                "save", "--corpus", "dblp", "--seed", "3", "--epoch", "9", "--out", "x.banks"
            ]))
            .unwrap(),
            SnapshotArgs::Save {
                corpus: "dblp".into(),
                seed: 3,
                epoch: 9,
                out: PathBuf::from("x.banks"),
            }
        );
        assert_eq!(
            SnapshotArgs::parse(&strings(&["load", "x.banks", "--query", "mohan"])).unwrap(),
            SnapshotArgs::Load {
                path: PathBuf::from("x.banks"),
                query: Some("mohan".into()),
            }
        );
        assert_eq!(
            SnapshotArgs::parse(&strings(&["inspect", "x.banks"])).unwrap(),
            SnapshotArgs::Inspect {
                path: PathBuf::from("x.banks"),
            }
        );
        for bad in [
            vec![],
            strings(&["teleport"]),
            strings(&["save", "--out", "x"]),
            strings(&["save", "--corpus", "dblp"]),
            strings(&["load"]),
            strings(&["inspect"]),
            strings(&["save", "--seed", "x", "--corpus", "dblp", "--out", "y"]),
        ] {
            assert!(SnapshotArgs::parse(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn save_inspect_load_roundtrip() {
        let path =
            std::env::temp_dir().join(format!("banks_cli_snapshot_{}.banks", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let saved = execute(&SnapshotArgs::Save {
            corpus: "dblp".into(),
            seed: 1,
            epoch: 4,
            out: path.clone(),
        })
        .unwrap();
        assert!(saved.contains("epoch 4"), "{saved}");

        let inspected = execute(&SnapshotArgs::Inspect { path: path.clone() }).unwrap();
        assert!(inspected.contains("valid bundle"), "{inspected}");
        assert!(inspected.contains("epoch 4"), "{inspected}");
        assert!(inspected.contains("Author"), "{inspected}");

        let loaded = execute(&SnapshotArgs::Load {
            path: path.clone(),
            query: Some("mohan".into()),
        })
        .unwrap();
        assert!(loaded.contains("epoch 4"), "{loaded}");
        assert!(loaded.contains("answer(s)"), "{loaded}");

        // Inspecting garbage is a readable error, not a panic.
        std::fs::write(&path, b"not a bundle at all").unwrap();
        let err = execute(&SnapshotArgs::Inspect { path: path.clone() }).unwrap_err();
        assert!(err.contains("inspect"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
