//! EXP-A1…A6: regenerate the §5.1 anecdotes, printing the top answers in
//! the Figure 2 rendering.
//!
//! ```text
//! cargo run -p banks-eval --release --bin anecdotes -- [--seed N] [--json PATH]
//! ```

#![forbid(unsafe_code)]

use banks_eval::anecdotes::{format_outcomes, run_anecdotes};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 1u64;
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                seed = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(1);
                i += 1;
            }
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
    let outcomes = run_anecdotes(seed);
    print!("{}", format_outcomes(&outcomes));
    let failed = outcomes.iter().filter(|o| !o.passed).count();
    println!(
        "{} of {} anecdotes reproduced",
        outcomes.len() - failed,
        outcomes.len()
    );
    if let Some(path) = json_path {
        let json = banks_util::json::to_string_pretty(&outcomes);
        std::fs::write(&path, json).expect("write json");
        eprintln!("wrote {path}");
    }
    if failed > 0 {
        std::process::exit(1);
    }
}
