//! # banks-telemetry
//!
//! The unified telemetry layer for the BANKS workspace: a process-wide
//! metric [`Registry`] with lock-free sharded [`Counter`]s, log-linear
//! HDR-style [`Histogram`]s and scrape-time collectors (every gauge is
//! one), rendered as Prometheus text exposition; plus per-query trace [`SpanBuffer`]s and a bounded
//! [`SlowLog`] of the worst queries.
//!
//! Design constraints, in order:
//!
//! 1. **Std-only.** Like the rest of the workspace, no crates.io
//!    dependencies — the exposition format and histograms are small
//!    enough to own.
//! 2. **Hot path pays nothing it didn't ask for.** Instruments are
//!    plain `Arc`s handed out at registration; recording is one or two
//!    relaxed `fetch_add`s. Span recording behind a disabled
//!    [`SpanBuffer`] is a single branch. The registry mutex is only
//!    taken at registration and scrape time.
//! 3. **Mergeable and testable.** Every histogram shares one fixed
//!    bucket layout, so shard-local histograms merge by addition and
//!    quantiles are exact with respect to the layout — properties the
//!    test suite checks directly.

pub mod counter;
pub mod histogram;
pub mod registry;
pub(crate) mod slowlog;
pub mod span;

pub use counter::Counter;
pub use histogram::{latency_boundaries, Histogram};
pub use registry::{CollectedFamily, Kind, Registry, Sample};
pub use slowlog::{SlowLog, SlowQuery};
pub use span::{Span, SpanBuffer};
