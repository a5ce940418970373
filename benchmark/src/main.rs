//! `harness` — drives the released `banks` binary over loopback HTTP as a
//! black box, checks every response, and reports the metrics that
//! `BENCHMARK.json` (at the repository root) declares. See `README.md`.
//!
//! ```text
//! harness --banks BIN --layerprobe BIN --out DIR \
//!         [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Normally started by `benchmark/run.sh`, which builds the binaries first.

mod client;
mod procs;
mod queries;
mod schedule;
mod scrape;
mod stats;
mod workloads;

use std::path::PathBuf;
use workloads::{Config, Metric, Outcome, SPECS};

/// `run_seconds` of `BENCHMARK.json`, used when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    config: Config,
    /// `None` = all four, in order.
    workload: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut banks = None;
    let mut layerprobe = None;
    let mut out = None;
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--banks" => banks = Some(PathBuf::from(value()?)),
            "--layerprobe" => layerprobe = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            // Shorthands the issue names: a traced run, a 2-second bit-rot check.
            "--traced" => trace = true,
            "--smoke" => seconds = 2.0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if let Some(name) = &workload {
        if !SPECS.iter().any(|s| s.name == name) {
            let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown workload `{name}` (one of {})",
                names.join(", ")
            ));
        }
    }
    Ok(Args {
        config: Config {
            banks: banks.ok_or("--banks BIN is required")?,
            layerprobe: layerprobe.ok_or("--layerprobe BIN is required")?,
            out: out.ok_or("--out DIR is required")?,
            seed,
            seconds,
            trace,
        },
        workload,
    })
}

/// The metric names `BENCHMARK.json` lists under `section`
/// (`end_to_end` or `per_layer`), in file order.
fn declared_metrics(manifest: &str, section: &str) -> Result<Vec<String>, String> {
    let start = manifest
        .find(&format!("\"{section}\""))
        .ok_or_else(|| format!("BENCHMARK.json: no `{section}`"))?;
    let rest = &manifest[start..];
    let list = &rest[..rest.find(']').ok_or("BENCHMARK.json: unterminated list")?];
    Ok(list
        .split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(String::from))
        .collect())
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn metrics_json(metrics: &[&Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                m.value,
                json_string(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding exactly the `declared` names.
fn result_line(outcome: &Outcome, declared: &[String]) -> Result<String, String> {
    let metrics = declared
        .iter()
        .map(|name| {
            outcome
                .metrics
                .iter()
                .find(|m| &m.name == name)
                .ok_or_else(|| format!("BENCHMARK.json declares `{name}`, which is not measured"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics_json(&metrics)
    ))
}

fn run() -> Result<bool, String> {
    let Args { config, workload } = parse_args()?;
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let section = if config.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = declared_metrics(&manifest, section)?;
    let stray = procs::other_banks_processes();
    if !stray.is_empty() {
        return Err(format!(
            "refusing to measure beside running `banks` process(es) {stray:?}"
        ));
    }
    std::fs::create_dir_all(&config.out).map_err(|e| format!("{}: {e}", config.out.display()))?;

    let mut all_correct = true;
    let mut records = Vec::new();
    for spec in SPECS
        .iter()
        .filter(|s| workload.as_deref().is_none_or(|w| w == s.name))
    {
        let outcome = workloads::run(spec, &config)?;
        println!(
            "== {} (seed {}, {} s, trace {}) attempted {} failed {} answers_digest {:016x}",
            outcome.workload,
            config.seed,
            config.seconds,
            config.trace as u8,
            outcome.attempted,
            outcome.failed,
            outcome.answers_digest
        );
        for m in &outcome.metrics {
            let kind = if declared.contains(&m.name) { '*' } else { ' ' };
            println!(
                "{kind} {:<40} {:>16.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let line = result_line(&outcome, &declared)?;
        println!("{line}");
        all_correct &= outcome.failed == 0;
        let every: Vec<&Metric> = outcome.metrics.iter().collect();
        records.push(format!(
            "{{\"workload\": {}, \"tuples\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"answers_digest\": \"{:016x}\", \"metrics\": {}}}",
            json_string(outcome.workload),
            outcome.tuples,
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            outcome.answers_digest,
            metrics_json(&every)
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let results = format!(
        "{{\"git_sha\": {}, \"nproc\": {nproc}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"runs\": [\n{}\n]}}\n",
        json_string(&std::env::var("BENCH_GIT_SHA").unwrap_or_else(|_| "unknown".into())),
        config.seed,
        config.seconds,
        config.trace,
        records.join(",\n")
    );
    let path = config.out.join("results.json");
    std::fs::write(&path, results).map_err(|e| format!("write {}: {e}", path.display()))?;
    // Scratch is only useful for a post-mortem of a failed run.
    if all_correct {
        let _ = std::fs::remove_dir_all(config.out.join("tmp"));
    }
    Ok(all_correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metric_names_come_from_the_manifest_section() {
        let manifest = r#"{"workloads": [{"name": "w", "why": "x"}],
            "end_to_end": [{"name": "a_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                           {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
            "per_layer": [{"name": "core.x_us", "unit": "us", "better": "lower"}]}"#;
        assert_eq!(
            declared_metrics(manifest, "end_to_end").unwrap(),
            ["a_ms", "setup_s"]
        );
        assert_eq!(
            declared_metrics(manifest, "per_layer").unwrap(),
            ["core.x_us"]
        );
        assert!(declared_metrics(manifest, "missing").is_err());
    }

    /// The manifest and the harness must agree on workload names, and the
    /// harness default on the manifest's run length.
    #[test]
    fn manifest_matches_the_harness() {
        let manifest = std::fs::read_to_string("../BENCHMARK.json").unwrap();
        let workloads = declared_metrics(&manifest, "workloads").unwrap();
        let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(workloads, names);
        assert!(manifest.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }

    #[test]
    fn result_line_holds_exactly_the_declared_metrics() {
        let metric = |name: &str, value| Metric {
            name: name.to_string(),
            value,
            unit: "ms".to_string(),
            samples: 3,
        };
        let outcome = Outcome {
            workload: "w",
            tuples: 1,
            attempted: 10,
            failed: 0,
            answers_digest: 0,
            metrics: vec![metric("a_ms", 1.5), metric("b_ms", 2.0)],
        };
        assert_eq!(
            result_line(&outcome, &["a_ms".to_string()]).unwrap(),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"a_ms": {"value": 1.5, "unit": "ms"}}}"#
        );
        assert!(result_line(&outcome, &["c_ms".to_string()]).is_err());
    }
}
