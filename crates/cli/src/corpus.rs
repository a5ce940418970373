//! Shared corpus loading for the shell's `open` command and `banks
//! serve`, so the two front ends can never drift on which corpora they
//! accept or how they're configured.

use banks_datagen::{dblp, stream, thesis, tpcd, DblpConfig, ThesisConfig, TpcdConfig};
use banks_storage::{Database, RowArena, StagedRows};
use std::path::Path;

/// The accepted corpus names, for error messages and help text.
pub(crate) const CORPORA: &str = "dblp|dblp-small|thesis|tpcd|<stream dir>";

/// Generate the named synthetic corpus at the given seed, or load a
/// `banks datagen` shard directory (a path whose `MANIFEST` carries the
/// stream magic; the directory's own seed applies, not `seed`).
pub(crate) fn open(name: &str, seed: u64) -> Result<Database, String> {
    if stream::is_stream_dir(Path::new(name)) {
        return stream::build_database(Path::new(name));
    }
    generate(name, seed)
}

fn generate(name: &str, seed: u64) -> Result<Database, String> {
    let dataset = match name {
        "dblp" => dblp::generate(DblpConfig::tiny(seed)).map(|d| d.db),
        "dblp-small" => dblp::generate(DblpConfig::small(seed)).map(|d| d.db),
        "thesis" => thesis::generate(ThesisConfig::tiny(seed)).map(|d| d.db),
        "tpcd" => tpcd::generate(TpcdConfig::tiny(seed)).map(|d| d.db),
        other => return Err(format!("unknown corpus `{other}` ({CORPORA})")),
    };
    dataset.map_err(|e| e.to_string())
}

/// Stage the named corpus for the bundle writer
/// ([`banks_persist::write_corpus_bundle`]): a shard directory streams
/// its rows straight into the arena; a generator corpus is generated,
/// then staged from its database.
pub(crate) fn stage(name: &str, seed: u64) -> Result<StagedRows, String> {
    let arena = if stream::is_stream_dir(Path::new(name)) {
        stream::stage_rows(Path::new(name))?
    } else {
        RowArena::from_database(&generate(name, seed)?).map_err(|e| e.to_string())?
    };
    Ok(arena.finish())
}

/// The seed the named corpus is generated at: a shard directory's own
/// (from its `MANIFEST`), else `seed`.
pub(crate) fn seed_of(name: &str, seed: u64) -> u64 {
    stream::read_manifest(Path::new(name)).map_or(seed, |m| m.config.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_advertised_corpora_open() {
        for name in CORPORA.split('|').filter(|n| !n.starts_with('<')) {
            let db = open(name, 1).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(db.total_tuples() > 0, "{name} is non-empty");
        }
        assert!(open("wat", 1).unwrap_err().contains(CORPORA));
    }
}
