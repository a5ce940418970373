//! Host crate for the workspace's cross-crate integration tests and
//! runnable examples.
//!
//! The test sources live in the repository-level `tests/` directory; run
//! them with `cargo test -p banks-testsuite`. The example sources live
//! in `examples/`; run one with
//! `cargo run -p banks-testsuite --example quickstart`.

#![forbid(unsafe_code)]
