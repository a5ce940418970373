//! Re-export of the workspace's shared Fx hasher (see
//! `banks_util::fxhash` for the implementation and rationale).
//!
//! The hasher started life in this crate for the search algorithm's
//! per-iterator distance maps; it moved to `banks-util` when the
//! storage layer's primary-key and back-reference indexes (hot on both
//! the insert path and bundle restore) wanted it too. This
//! module keeps the long-standing `banks_graph::fxhash::*` paths alive.

pub use banks_util::fxhash::{FxHashMap, FxHashSet, FxHasher};
