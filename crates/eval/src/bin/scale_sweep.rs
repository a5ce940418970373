//! EXP-SCALE: build time, memory and query latency as the corpus grows
//! toward (and past) the paper's 100K-node scale.
//!
//! ```text
//! cargo run --release -p banks-eval --bin scale_sweep -- [--seed N] [--full] [--json PATH]
//! ```
//!
//! Default factors stop at 0.5× (≈50K nodes) for a quick run; `--full`
//! sweeps up to 1× (the paper's scale).

#![forbid(unsafe_code)]

use banks_eval::scale::{format_sweep, run_scale_sweep};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 1u64;
    let mut full = false;
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                seed = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(1);
                i += 1;
            }
            "--full" => full = true,
            "--json" => {
                json_path = args.get(i + 1).cloned();
                i += 1;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let factors: &[f64] = if full {
        &[0.05, 0.1, 0.25, 0.5, 1.0]
    } else {
        &[0.05, 0.1, 0.25, 0.5]
    };
    eprintln!("sweeping scale factors {factors:?} (seed {seed})…");
    let points = run_scale_sweep(seed, factors);
    print!("{}", format_sweep(&points));
    if let Some(path) = json_path {
        let json = banks_util::json::to_string_pretty(&points);
        std::fs::write(&path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}
