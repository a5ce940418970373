//! # banks-persist
//!
//! The durability layer of the BANKS workspace: everything the system
//! needs to restart in milliseconds and never lose an acknowledged
//! write.
//!
//! The paper's BANKS is purely in-memory — §5.2 measures a "graph load"
//! phase re-derived from the relational store on every start, and the
//! EMBANKS follow-up argues for moving BANKS onto disk-backed,
//! incrementally maintainable structures to reach database scale.
//! PR 1–2 gave this workspace a concurrent server and a live write path;
//! both were volatile: only the CSR graph had a binary snapshot, and
//! every acked `POST /ingest` evaporated on restart. This crate closes
//! that gap with three pieces:
//!
//! * [`bundle`] — **full-system snapshot bundles**: a single versioned,
//!   checksummed file carrying catalog + schemas, table tuples (slot
//!   layout preserved so rids stay valid), text-index postings, the CSR
//!   graph, ranking parameters, and the publication epoch. Version 3,
//!   the one format read and written, lays sections out behind a
//!   verified directory, stores tuples in slot blocks, the graph in the
//!   `banks-pager` segment format and the postings packed, so a bundle
//!   can be opened *paged* ([`bundle::open_bundle_paged`]) — lazy
//!   tuples and postings, bounded-memory graph — as well as fully
//!   loaded.
//!   Written atomically (temp file + fsync + rename).
//! * [`wal`] — a **write-ahead log** of length-prefixed, checksummed
//!   frames, each carrying one validated `DeltaBatch` (the PR-2 JSON
//!   wire format) and the epoch it produced. The
//!   [`banks_ingest::DurabilityHook`] contract appends the frame
//!   *before* a publication promotes, so an ingest ack implies the
//!   batch is on disk.
//! * [`store`] — the **data directory**: [`store::PersistentStore`]
//!   opens a directory, recovers the newest valid snapshot, replays WAL
//!   frames past its epoch (truncating a torn tail frame), and rolls
//!   fresh snapshots in the background once the WAL crosses a
//!   size/batch threshold, pruning what they supersede.
//!
//! `banks-server` surfaces the counters under `/stats`; `banks-cli`
//! wires a directory in via `serve --data-dir` and exposes bundles
//! directly through `banks snapshot save|load|inspect`.

pub mod bundle;
pub mod corpus;
pub mod error;
pub mod store;
pub mod wal;

pub use bundle::{
    inspect_bundle, load_bundle, open_bundle_paged, peek_epoch, save_bundle, write_bundle_sections,
};
pub use corpus::write_corpus_bundle;
pub use error::PersistError;
pub use store::{is_fresh, snapshot_file, PersistOptions, PersistentStore, Recovery};
pub use wal::scan_frames;
