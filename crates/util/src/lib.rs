//! # banks-util
//!
//! Small dependency-free utilities shared across the BANKS workspace:
//!
//! * [`json`] — a JSON value tree with pretty/compact emission and a
//!   [`json::ToJson`] trait + [`json_struct!`] macro, standing in for
//!   `serde`/`serde_json` (the workspace builds with no network access,
//!   so crates.io dependencies are off the table);
//! * [`http`] — percent-decoding and query-string parsing for the
//!   `banks-server` std-only HTTP endpoint;
//! * [`fs`] — crash-safe atomic file replacement (temp file + fsync +
//!   rename), shared by graph snapshots and the `banks-persist`
//!   durability layer;
//! * [`log`] — a leveled stderr logger with RFC 3339 timestamps and
//!   component tags (`BANKS_LOG` / `--log-level`), replacing the
//!   scattered `eprintln!` calls in the serving roles;
//! * [`build`] — compile-time build identity (crate version plus
//!   `git describe`) surfaced by every role's `/health`;
//! * [`retry`] — the shared retry policy (capped exponential backoff,
//!   full jitter, retry budget) used by every HTTP client in the
//!   workspace;
//! * [`fault`] — deterministic fault injection at named I/O sites; an
//!   unarmed site costs its hook one relaxed atomic load;
//! * [`process`] — this process's resident and peak memory, for
//!   `/stats` and `/metrics`.

#![forbid(unsafe_code)]

pub mod build;
pub mod fault;
pub mod fs;
pub mod fxhash;
pub mod http;
pub mod json;
pub mod log;
pub mod process;
pub mod retry;

pub use fs::atomic_write;
pub use json::Json;
