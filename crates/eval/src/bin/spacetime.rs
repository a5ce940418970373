//! EXP-S52: regenerate the §5.2 space/time measurements (memory, graph
//! load time, query latency).
//!
//! ```text
//! cargo run -p banks-eval --release --bin spacetime -- [--scale tiny|small|paper]
//!     [--seed N] [--json PATH]
//! ```
//!
//! At `--scale paper` the corpus matches the paper's ~100K nodes / ~300K
//! edges.

#![forbid(unsafe_code)]

use banks_datagen::dblp::DblpConfig;
use banks_eval::spacetime::{format_report, run_spacetime};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = "paper".to_string();
    let mut seed = 1u64;
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args.get(i + 1).cloned().unwrap_or_default();
                i += 1;
            }
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
    let config = match scale.as_str() {
        "tiny" => DblpConfig::tiny(seed),
        "small" => DblpConfig::small(seed),
        "paper" => DblpConfig::paper_scale(seed),
        other => {
            eprintln!("unknown scale `{other}` (tiny|small|paper)");
            std::process::exit(2);
        }
    };
    eprintln!("running §5.2 space/time at scale {scale} (seed {seed})…");
    let report = run_spacetime(config);
    print!("{}", format_report(&report));
    if let Some(path) = json_path {
        let json = banks_util::json::to_string_pretty(&report);
        std::fs::write(&path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}
