//! EXP-F5: regenerate the paper's Figure 5 (average scaled error versus
//! λ and edge-log scaling), with optional full-combination sweep and the
//! ABL-HEAP output-heap ablation.
//!
//! ```text
//! cargo run -p banks-eval --release --bin fig5 -- [--scale tiny|small|paper]
//!     [--seed N] [--full] [--heap-sweep] [--json PATH]
//! ```

#![forbid(unsafe_code)]

use banks_datagen::dblp::{generate, DblpConfig};
use banks_eval::fig5::{cell, format_table, run_fig5, run_heap_sweep, LAMBDAS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = "small".to_string();
    let mut seed = 1u64;
    let mut full = false;
    let mut heap_sweep = false;
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
            "--full" => full = true,
            "--heap-sweep" => heap_sweep = true,
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

    eprintln!("generating dblp ({scale}, seed {seed})…");
    let dataset = generate(config).expect("generation succeeds");
    eprintln!(
        "corpus: {} tuples, {} links",
        dataset.db.total_tuples(),
        dataset.db.link_count()
    );

    let report = run_fig5(&dataset, full);
    println!("== Figure 5: average scaled error vs (lambda, EdgeLog) ==");
    print!("{}", format_table(&report));

    let best = cell(&report, 0.2, true).expect("swept").avg_scaled_error;
    let worst = LAMBDAS
        .iter()
        .flat_map(|&l| [cell(&report, l, false), cell(&report, l, true)])
        .flatten()
        .map(|c| c.avg_scaled_error)
        .fold(0.0f64, f64::max);
    println!("\npaper-shape check: λ=0.2+log error {best:.2} (best expected), max {worst:.2}");
    if full {
        println!(
            "combination mode max Δ: {:.3} (paper: almost no impact)",
            report.combination_mode_max_delta
        );
        println!(
            "node-log max Δ:        {:.3} (paper: same ranking)",
            report.node_log_max_delta
        );
    }

    if heap_sweep {
        println!("\n== ABL-HEAP: output-heap size vs error ==");
        println!("heap_size  avg_scaled_error");
        for row in run_heap_sweep(&dataset, &[1, 5, 10, 30, 100]) {
            println!("{:<10} {:>8.2}", row.heap_size, row.avg_scaled_error);
        }
    }

    if let Some(path) = json_path {
        let json = banks_util::json::to_string_pretty(&report);
        std::fs::write(&path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}
