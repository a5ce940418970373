//! # banks-core
//!
//! A faithful Rust implementation of **BANKS** — *Browsing ANd Keyword
//! Searching* — the keyword-search-over-relational-databases system of
//! Bhalotia, Hulgeri, Nakhe, Chakrabarti and Sudarshan (ICDE 2002).
//!
//! BANKS lets users query a relational database with a few keywords and no
//! knowledge of the schema. It models the database as a directed graph
//! (tuples → nodes, foreign-key references → edges) and returns answers as
//! *connection trees*: rooted directed trees whose leaves contain the
//! query keywords and whose root — the *information node* — explains how
//! they relate. Ranking combines **proximity** (tree edge weight, §2.2)
//! with **prestige** (node indegree, PageRank-flavoured, §2.2); answers
//! are found incrementally by **backward expanding search** (§3), one
//! Dijkstra iterator per keyword node over reversed edges.
//!
//! ## Crate map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`graph_build`] | §2.2 | database → weighted graph (eq. 1 backward weights, prestige) |
//! | [`query`], [`matching`] | §2.3, §7 | parsing, `Sᵢ` node sets, metadata/approx matching |
//! | `score` | §2.3 | Escore/Nscore normalization, λ combination, early-termination bound |
//! | [`search`] | §3, §7 | backward expanding search, output heap, forward search — on pooled [`SearchArena`] scratch with exact top-k early termination |
//! | [`answer`] | §2.3, Fig. 2 | connection trees, duplicate signatures, rendering |
//! | [`summarize`] | §7 | grouping answers by tree shape |
//! | [`prestige`] | §7 | authority-transfer node weights |
//! | [`system`] | — | the [`Banks`] facade tying it together |
//!
//! ## Workspace map
//!
//! This crate is the engine; the rest of the workspace layers serving,
//! data, and evaluation on top of it:
//!
//! | crate | role |
//! |---|---|
//! | `banks-graph` | CSR graph, lazy Dijkstra iterators on sparse per-iterator state, the pooled [`SearchArena`], incremental `GraphPatch` |
//! | `banks-storage` | in-memory relational engine + text/metadata indexes |
//! | `banks-ingest` | live tuple ingestion: delta log, incremental graph/index appliers, epoch-versioned snapshot publisher |
//! | `banks-server` | concurrent query service: epoch-versioned `Arc`-shared [`Banks`] snapshot, sharded LRU result cache, std-only HTTP/1.1 JSON endpoint (incl. `POST /ingest`) |
//! | `banks-cli` | interactive shell and the `banks serve` / `banks ingest` entry points |
//! | `banks-browse` | §4 browsing interface |
//! | `banks-datagen` | deterministic synthetic corpora |
//! | `banks-eval` | §5 evaluation harness |
//! | `banks-util` | dependency-free JSON/HTTP helpers |
//!
//! A built [`Banks`] is immutable and `Send + Sync`: construction
//! tokenizes, indexes, and materializes the graph once, after which any
//! number of threads may call [`Banks::search`] concurrently (this is
//! what `banks-server` relies on). For fast restarts a `banks-persist`
//! snapshot bundle carries the CSR graph, which is re-attached with
//! [`TupleGraph::rebind`], skipping edge derivation. Mutation happens by *replacement*: `banks-ingest`
//! patches the database, graph, and text index incrementally and
//! re-assembles a successor instance via [`Banks::from_parts`], which
//! serving layers swap in atomically ([`Banks::with_graph`] and
//! [`Banks::from_parts`] both verify the graph against the database's
//! catalog and reject mismatches with the typed
//! [`BanksError::SnapshotMismatch`]).
//!
//! ## Quick start
//!
//! ```
//! use banks_core::Banks;
//! use banks_storage::{ColumnType, Database, RelationSchema, Value};
//!
//! // The bibliography schema of the paper's Figure 1.
//! let mut db = Database::new("dblp");
//! db.create_relation(
//!     RelationSchema::builder("Author")
//!         .column("AuthorId", ColumnType::Text)
//!         .column("AuthorName", ColumnType::Text)
//!         .primary_key(&["AuthorId"])
//!         .build()?,
//! )?;
//! db.create_relation(
//!     RelationSchema::builder("Paper")
//!         .column("PaperId", ColumnType::Text)
//!         .column("PaperName", ColumnType::Text)
//!         .primary_key(&["PaperId"])
//!         .build()?,
//! )?;
//! db.create_relation(
//!     RelationSchema::builder("Writes")
//!         .column("AuthorId", ColumnType::Text)
//!         .column("PaperId", ColumnType::Text)
//!         .primary_key(&["AuthorId", "PaperId"])
//!         .foreign_key(&["AuthorId"], "Author")
//!         .foreign_key(&["PaperId"], "Paper")
//!         .build()?,
//! )?;
//! db.insert("Author", vec![Value::text("SoumenC"), Value::text("Soumen Chakrabarti")])?;
//! db.insert("Author", vec![Value::text("SunitaS"), Value::text("Sunita Sarawagi")])?;
//! db.insert("Paper", vec![Value::text("ChakrabartiSD98"), Value::text("Mining Surprising Patterns")])?;
//! db.insert("Writes", vec![Value::text("SoumenC"), Value::text("ChakrabartiSD98")])?;
//! db.insert("Writes", vec![Value::text("SunitaS"), Value::text("ChakrabartiSD98")])?;
//!
//! let banks = Banks::new(db)?;
//! let answers = banks.search("soumen sunita")?;
//! println!("{}", banks.render_answer(&answers[0]));
//! // Paper(ChakrabartiSD98: Mining Surprising Patterns)
//! //   Writes(SoumenC,ChakrabartiSD98)
//! //     *Author(SoumenC: Soumen Chakrabarti)
//! //   Writes(SunitaS,ChakrabartiSD98)
//! //     *Author(SunitaS: Sunita Sarawagi)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod answer;
pub mod config;
pub mod error;
pub mod graph_build;
pub mod matching;
pub mod prestige;
pub mod query;
pub(crate) mod score;
pub mod search;
pub mod summarize;
pub mod system;

pub use answer::{Answer, ConnectionTree};
pub use config::{
    BanksConfig, CombineMode, EdgeScoreMode, GraphConfig, NodeScoreMode, NodeWeightMode,
    ScoreParams,
};
pub use error::{BanksError, BanksResult};
pub use graph_build::{derive_graph, TupleGraph};
pub use query::{Query, Term};
pub use search::{SearchArena, SearchOutcome, SearchStats, StopReason};
pub use system::{Banks, SearchStrategy};
