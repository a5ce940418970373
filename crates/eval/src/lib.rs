//! # banks-eval
//!
//! The evaluation harness reproducing §5 of *Keyword Searching and
//! Browsing in Databases using BANKS* (ICDE 2002):
//!
//! | experiment | paper artifact | module / binary |
//! |---|---|---|
//! | EXP-F5 | Figure 5 (error vs λ, EdgeLog) | [`fig5`], `cargo run -p banks-eval --bin fig5` |
//! | EXP-F5b | §5.3 side claims (combination mode, node log) | [`fig5`] with `--full` |
//! | EXP-S52-* | §5.2 space & time | [`spacetime`], `--bin spacetime` |
//! | EXP-A1…A6 | §5.1 anecdotes | [`anecdotes`], `--bin anecdotes` |
//! | ABL-HEAP | §3 output-heap heuristic | [`fig5::run_heap_sweep`] |
//! | EXP-SCALE | scaling toward/past 100K nodes | [`scale`], `--bin scale_sweep` |
//!
//! The workload ([`workload`]) instantiates the paper's seven query
//! classes against the synthetic corpora of `banks-datagen`; the error
//! metric (`error_score`) is the paper's scaled rank-difference score.

pub mod anecdotes;
pub(crate) mod error_score;
pub mod fig5;
pub mod scale;
pub mod spacetime;
pub mod workload;

pub use anecdotes::run_anecdotes;
pub use fig5::{run_fig5, run_heap_sweep};
pub use scale::run_scale_sweep;
pub use spacetime::run_spacetime;
pub use workload::{dblp_workload, WorkloadQuery};
