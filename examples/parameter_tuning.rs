//! Parameter tuning: a compact rerun of the paper's §5.3 study — sweep λ
//! and the scaling/combination options over the seven-query workload, and
//! inspect how the output-heap size affects rank quality (§3's heuristic).
//!
//! ```text
//! cargo run --release -p banks-testsuite --example parameter_tuning [seed]
//! ```

use banks_datagen::dblp::{generate, DblpConfig};
use banks_eval::fig5::{cell, run_fig5, run_heap_sweep, LAMBDAS};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let dataset = generate(DblpConfig::tiny(seed))?;
    println!(
        "corpus: {} tuples / {} links (seed {seed})\n",
        dataset.db.total_tuples(),
        dataset.db.link_count()
    );

    let report = run_fig5(&dataset, true);
    println!("average scaled error (0 = ideal ranking, 100 = worst):\n");
    println!("  λ      edges linear   edges log-scaled");
    for &lambda in &LAMBDAS {
        let lin = cell(&report, lambda, false).unwrap().avg_scaled_error;
        let log = cell(&report, lambda, true).unwrap().avg_scaled_error;
        println!("  {lambda:<6} {lin:>10.2} {log:>16.2}");
    }
    println!();
    println!(
        "combination mode max Δ: {:.2} — the paper found the mode has almost no impact",
        report.combination_mode_max_delta
    );
    println!(
        "node-log scaling max Δ: {:.2} — the paper found the same rankings",
        report.node_log_max_delta
    );

    println!("\noutput-heap size vs rank quality (§3 heuristic):");
    for row in run_heap_sweep(&dataset, &[1, 5, 10, 30, 100]) {
        println!(
            "  heap {:>4} → error {:>6.2}",
            row.heap_size, row.avg_scaled_error
        );
    }

    let best = cell(&report, 0.2, true).unwrap();
    println!(
        "\nconclusion: λ=0.2 with log-scaled edges scores {:.2} — \
         the paper's recommended setting",
        best.avg_scaled_error
    );
    Ok(())
}
