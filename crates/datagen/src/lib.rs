//! # banks-datagen
//!
//! Deterministic synthetic datasets for the BANKS reproduction.
//!
//! The original evaluation (§5) used two private datasets: a DBLP extract
//! (~100K graph nodes / ~300K edges) and the IIT-Bombay thesis database
//! (thousands of nodes / tens of thousands of edges), plus a TPC-D example
//! in the §2.1 motivation. None are redistributable, so this crate
//! regenerates structurally equivalent corpora:
//!
//! * [`dblp`] — Author/Paper/Writes/Cites with Zipf-skewed authorship,
//!   preferential-attachment citations, and *planted* entities for every
//!   §5.1 anecdote ("Mohan", "transaction", "soumen sunita",
//!   "seltzer sunita");
//! * [`thesis`] — Department/Program/Faculty/Student/Thesis with the
//!   planted CSE-department hub and the Sudarshan→Aditya advisor pair;
//! * [`tpcd`] — Part/Supplier/Customer/Orders/LineItem with a popular and
//!   an obscure "widget" part for the prestige example;
//! * [`stream`] — DBLP-shaped corpora of an *exact* total tuple count,
//!   written as shard files straight to disk with O(1) memory, for the
//!   out-of-core storage tests (`--tuples N` on the CLI).
//!
//! Everything is seeded ([`rng::Rng`] is a local SplitMix64) so evaluation
//! results are reproducible bit-for-bit.

pub mod dblp;
pub mod names;
pub mod rng;
pub mod stream;
pub mod thesis;
pub mod tpcd;
pub mod zipf;

pub use dblp::{DblpConfig, DblpDataset, DblpPlanted};
pub use stream::{StreamConfig, StreamCounts};
pub use thesis::{ThesisConfig, ThesisDataset};
pub use tpcd::TpcdConfig;
