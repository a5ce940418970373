//! # banks-server
//!
//! A concurrent query service over a BANKS instance — the serving layer
//! the original system ran as a web application (§1: "BANKS … can be
//! invoked from a browser"), rebuilt for multi-user traffic:
//!
//! * **Epoch-versioned shared snapshot** — one immutable
//!   [`banks_core::Banks`] system (database + text index + data graph)
//!   behind an `Arc`, queried from any number of threads without
//!   synchronization. Queries never block each other; the graph is
//!   built (or restored from a `banks-persist` snapshot bundle) once at
//!   startup, and live writes publish *successor* snapshots through
//!   `banks-ingest` — [`service::QueryService::install_snapshot`] swaps
//!   the pointer while in-flight queries finish on their old epoch.
//! * **Sharded result cache** — [`cache::ShardedLruCache`] keyed on the
//!   normalized query ([`service::QueryKey`]: sorted lowercase keywords +
//!   strategy + limit + a ranking-parameter fingerprint), so `mohan
//!   sudarshan` and `Sudarshan  Mohan` share one entry. Entries are
//!   stamped with their snapshot's epoch and invalidated lazily after a
//!   publish. Per-instance hit/miss/insert/evict/invalidation counters
//!   feed the `/stats` endpoint.
//! * **Two front ends** — the in-process [`service::QueryService`] API
//!   (used by `banks-cli serve` and the benchmark's layer probe), and a
//!   std-only HTTP/1.1 JSON endpoint ([`http::BanksServer`]) with
//!   `GET /search`, `/node`, `/stats`, `/epochs`, `/health`, and
//!   `POST /ingest` (when wired with an [`ingest::IngestEndpoint`]),
//!   served by `banks_util::http::HttpServer`, the worker pool the
//!   router runs too — no async runtime, no external dependencies.
//!
//! ```no_run
//! use std::sync::Arc;
//! use banks_core::Banks;
//! use banks_server::{BanksServer, QueryService, ServerConfig, ServiceConfig};
//! # fn db() -> banks_storage::Database { unimplemented!() }
//!
//! let banks = Arc::new(Banks::new(db()).unwrap());
//! let service = Arc::new(QueryService::new(banks, ServiceConfig::default()));
//! let server = BanksServer::bind(service, None, None, None, ServerConfig::default()).unwrap();
//! println!("listening on http://{}", server.local_addr());
//! server.join(); // serve until shutdown
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod http;
pub mod ingest;
pub mod metrics;
mod record;
pub mod service;

pub use cache::{CacheStats, ShardedLruCache};
pub use http::{BanksServer, ServerConfig};
pub use ingest::IngestEndpoint;
pub use service::{QueryKey, QueryOptions, QueryService, ServiceConfig};
