//! # banks-ingest
//!
//! Live tuple ingestion for BANKS — the first write path in the system.
//!
//! The paper assumes a static database: the graph and indexes are built
//! once, and every mutation implies an offline rebuild. EMBANKS (Gupta &
//! Sudarshan) pushes BANKS toward incrementally maintainable structures,
//! and Mragyati (Sarda & Jain) serves keyword search over a database
//! that keeps changing underneath it; this crate brings that capability
//! to the workspace, in three layers:
//!
//! * [`delta`] — the **delta log**: tuple-level [`TupleOp`]s
//!   (`Insert` / `Update` / `Delete`) grouped into [`DeltaBatch`]es,
//!   with JSON and CSV wire formats. Validation against the schema and
//!   FK catalog happens on apply, through the storage layer's own
//!   constraint machinery.
//! * [`apply`] — the **incremental applier**: [`apply_batch`] mutates
//!   the database and patches the `TupleGraph` (add/remove nodes and FK
//!   edges, recompute prestige and the indegree-scaled backward weights
//!   of equation 1 only in the touched neighborhood, via
//!   `banks_graph::GraphPatch`) and the `TextIndex` (posting insertions
//!   and tombstones) instead of re-deriving either from scratch.
//! * [`publish`] — the **epoch-versioned publisher**:
//!   [`SnapshotPublisher`] applies each delta batch and atomically
//!   derives a new `Arc<Banks>` stamped with a monotone epoch. Readers never
//!   block: serving layers swap the pointer, in-flight queries finish on
//!   their old epoch, and a failed batch leaves the current snapshot
//!   untouched.
//!
//! `banks-server` wires this into `POST /ingest` / `GET /epochs` and
//! epoch-stamps its result cache so stale entries invalidate lazily on
//! publish; `banks-cli ingest` applies delta files against a running
//! server or a local corpus.
//!
//! ```
//! use std::sync::Arc;
//! use banks_core::Banks;
//! use banks_ingest::{DeltaBatch, SnapshotPublisher};
//! use banks_storage::{ColumnType, Database, RelationSchema, Value};
//!
//! let mut db = Database::new("mini");
//! db.create_relation(
//!     RelationSchema::builder("Paper")
//!         .column("Id", ColumnType::Text)
//!         .column("Title", ColumnType::Text)
//!         .primary_key(&["Id"])
//!         .build()
//!         .unwrap(),
//! )
//! .unwrap();
//! db.insert("Paper", vec![Value::text("p1"), Value::text("The Transaction Concept")])
//!     .unwrap();
//!
//! let mut publisher = SnapshotPublisher::new(Arc::new(Banks::new(db).unwrap()));
//! let batch = DeltaBatch::from_json(
//!     r#"{"ops":[{"op":"insert","relation":"Paper",
//!                 "values":["p2","Recovery Methods Survey"]}]}"#,
//! )
//! .unwrap();
//! let published = publisher.publish(&batch, None).unwrap();
//! assert_eq!(published.info.epoch, 1);
//! assert_eq!(published.banks.search("recovery").unwrap().len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod apply;
pub mod delta;
pub mod error;
pub mod publish;

pub use apply::apply_batch;
pub use delta::{DeltaBatch, TupleOp};
pub use error::IngestError;
pub use publish::{DurabilityHook, EpochInfo, Published, SnapshotPublisher};
