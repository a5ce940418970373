//! The corpus → bundle writer: a first boot and `banks snapshot save`
//! write the version-3 bundle straight from staged rows
//! ([`banks_storage::StagedRows`]), never building the eager
//! `Database`, `TupleGraph` or `TextIndex` the in-RAM system holds.
//!
//! The sections go to the temp file in file order, each encoded, written
//! and freed before the next one starts:
//!
//! 1. META — epoch, ranking and graph parameters;
//! 2. DATA — tuple blocks with their back-reference sublanes, PK lanes
//!    and presence bitmaps, through the assembler
//!    [`banks_storage::blocks::encode_database_v3`] uses;
//! 3. TIDX — [`TextIndex::from_texts`] over the staged text values,
//!    packed; the staged values are released after it;
//! 4. GRPH — [`banks_core::derive_graph`] over the references grouped
//!    by target, encoded as the paged blob.
//!
//! The header and its checksums come last, written over the placeholder
//! at the start of the file. Every derivation is the one the eager build
//! runs, so the bundle is byte-identical to [`crate::save_bundle`] of
//! the system built from the same corpus — and a first boot then opens
//! it exactly like a restart does.

use crate::bundle::{encode_meta, save_atomically, write_postings_section, BundleWriter};
use crate::error::PersistResult;
use banks_core::{derive_graph, BanksConfig};
use banks_graph::NodeId;
use banks_storage::{StagedRows, TextIndex, Tokenizer};
use std::io::{Seek, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// What [`write_corpus_bundle`] wrote.
#[derive(Debug, Clone)]
pub struct CorpusBundle {
    /// Live tuples (graph nodes).
    pub tuples: usize,
    /// Text-index postings.
    pub postings: usize,
    /// Bundle size in bytes.
    pub bytes: u64,
    /// Wall-clock time of each section's phase, in file order:
    /// `data`, `text index`, `graph`.
    pub phases: Vec<(&'static str, Duration)>,
}

/// Write the bundle for `rows`, stamped `epoch`, atomically to `path`
/// (temp file + fsync + rename). `config`'s ranking and graph sections
/// go into META, and the graph is derived under `config.graph`.
pub fn write_corpus_bundle(
    rows: StagedRows,
    config: &BanksConfig,
    epoch: u64,
    path: &Path,
) -> PersistResult<CorpusBundle> {
    save_atomically(path, |file| write_sections(rows, config, epoch, file))
}

fn write_sections(
    mut rows: StagedRows,
    config: &BanksConfig,
    epoch: u64,
    file: impl Write + Seek,
) -> PersistResult<CorpusBundle> {
    let mut phases = Vec::with_capacity(3);
    let mut bundle = BundleWriter::new(file)?;
    bundle.section(|w| Ok(w.write_all(&encode_meta(epoch, config))?))?;

    let start = Instant::now();
    bundle.section(|w| Ok(rows.write_data_section(w)?))?;
    phases.push(("data", start.elapsed()));

    let start = Instant::now();
    let index = TextIndex::from_texts(rows.texts(), &Tokenizer::new());
    rows.release_values();
    bundle.section(|w| write_postings_section(&index, w))?;
    let postings = index.posting_count();
    drop(index);
    phases.push(("text index", start.elapsed()));

    let start = Instant::now();
    let graph = derive_graph(
        rows.catalog(),
        rows.total_tuples(),
        rows.link_count(),
        rows.node_refs(),
        |rid| NodeId(rows.node_of(rid)),
        &config.graph,
    );
    let tuples = graph.node_count();
    drop(rows);
    let blob = banks_pager::encode_paged_blob(&graph, banks_pager::DEFAULT_SEG_SPAN);
    drop(graph);
    bundle.section(|w| Ok(w.write_all(&blob)?))?;
    drop(blob);
    phases.push(("graph", start.elapsed()));

    Ok(CorpusBundle {
        tuples,
        postings,
        bytes: bundle.finish()?,
        phases,
    })
}
