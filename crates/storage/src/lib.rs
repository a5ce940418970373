//! # banks-storage
//!
//! An in-memory relational storage engine: the substrate underneath the
//! BANKS keyword-search system (Bhalotia et al., ICDE 2002).
//!
//! The original BANKS prototype ran on IBM Universal Database over JDBC, but
//! only ever needed a small slice of relational functionality:
//!
//! * typed tuples with stable row identifiers ([`Rid`]),
//! * primary keys for point lookups,
//! * foreign keys — the edges of the BANKS data graph — with forward
//!   resolution ([`Database::resolve_fk`]) and backward resolution
//!   ([`Database::referencing`]),
//! * an inverted keyword index over textual attributes
//!   ([`text_index::TextIndex`]),
//! * metadata matching (relation and column names, [`metadata`]),
//! * and enough scan/select/project machinery to drive the browsing
//!   interface of the paper's §4.
//!
//! This crate provides exactly that, with no external dependencies. It is
//! deliberately simple: tables are vectors of tuples, indexes are hash maps.
//! All BANKS search work happens on the in-memory graph built from this
//! catalog (see `banks-graph` / `banks-core`), which mirrors the paper's
//! assumption that "the graph fits in memory" while keyword→RID indexes may
//! be disk resident.
//!
//! A database has one saved form: the v3 snapshot bundle that
//! `banks-persist` writes and reads. This crate supplies two of its
//! sections — the DATA section ([`blocks`]) with the catalog's
//! [schema text](schema) in its header, and the packed
//! postings ([`postings`]). A loaded bundle's [`Database`] reads its
//! tuples out of the DATA section's encoded blocks, held resident
//! ([`ResidentTupleStore`]) or paged in, and its [`TextIndex`] reads a
//! term's postings out of the packed section, held in memory or on the
//! file, when the term is first looked up.
//!
//! ## Quick example
//!
//! ```
//! use banks_storage::{Database, RelationSchema, ColumnType, Value};
//!
//! let mut db = Database::new("bib");
//! let author = RelationSchema::builder("Author")
//!     .column("AuthorId", ColumnType::Text)
//!     .column("AuthorName", ColumnType::Text)
//!     .primary_key(&["AuthorId"])
//!     .build()
//!     .unwrap();
//! db.create_relation(author).unwrap();
//! let rid = db
//!     .insert("Author", vec![Value::text("SoumenC"), Value::text("Soumen Chakrabarti")])
//!     .unwrap();
//! assert_eq!(db.tuple(rid).unwrap().values()[1], Value::text("Soumen Chakrabarti"));
//! ```

#![forbid(unsafe_code)]

pub mod arena;
pub mod blocks;
pub mod catalog;
pub mod error;
pub mod metadata;
pub mod postings;
pub mod predicate;
pub mod schema;
pub mod table;
pub mod text_index;
pub mod tokenizer;
pub mod tuple;
pub mod value;

pub use arena::{RowArena, StagedRows};
pub use blocks::{
    DataDirectory, DataLayout, ResidentTupleStore, TupleBlock, TupleStore, TupleStoreStats,
    BLOCK_SPAN,
};
pub use catalog::{BackRef, Database};
pub use error::{StorageError, StorageResult};
pub use metadata::{MetadataIndex, MetadataTarget};
pub use postings::PostingSource;
pub use predicate::Predicate;
pub use schema::{ColumnType, RelationSchema};
pub use table::Table;
pub use text_index::TextIndex;
pub use tokenizer::Tokenizer;
pub use tuple::{RelationId, Rid, Tuple};
pub use value::Value;
