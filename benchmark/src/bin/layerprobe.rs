//! `layerprobe` — in-process timers around the public calls of single
//! layers, on the same corpus size and query file as the workload whose
//! traced run starts it. Tracing *inside* the program is a later issue;
//! until then this is the only view of layers that no HTTP response or
//! scrape exposes (cache operations, index lookups, bundle I/O, WAL
//! appends, publishes, the O(nodes)-per-iterator search state).
//!
//! ```text
//! layerprobe --tuples N --queries FILE --scratch DIR
//! ```
//!
//! Prints one `name\tvalue\tunit\tsamples` line per metric.

use banks_core::{Banks, BanksConfig};
use banks_datagen::names::LAST_NAMES;
use banks_datagen::stream::{self, StreamConfig};
use banks_ingest::{DeltaBatch, SnapshotPublisher, TupleOp};
use banks_persist::{load_bundle, open_bundle_paged, save_bundle, PersistOptions, PersistentStore};
use banks_server::cache::Validity;
use banks_server::{QueryOptions, QueryService, ServiceConfig, ShardedLruCache};
use banks_storage::Value;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The corpus every workload serves (`banks datagen --seed 42`).
const CORPUS_SEED: u64 = 42;
/// At most this many of the workload's open-phase queries are replayed.
const MAX_QUERIES: usize = 200;
const PAGED_BUDGET: usize = 8 << 20;

fn emit(name: &str, value: f64, unit: &str, samples: usize) {
    println!("{name}\t{value}\t{unit}\t{samples}");
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        v[v.len() / 2]
    }
}

/// Median wall time of `reps` runs of `f`, in milliseconds.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median(
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                black_box(f());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// Generate the corpus under `dir` and build a `Banks` over it, reporting
/// both costs when `report` is set.
fn build(tuples: u64, dir: &Path, report: bool) -> Result<Arc<Banks>, String> {
    let t0 = Instant::now();
    stream::generate_to_dir(&StreamConfig::new(CORPUS_SEED, tuples), dir)?;
    let generated = t0.elapsed().as_secs_f64();
    let db = stream::build_database(dir)?;
    let t0 = Instant::now();
    let banks = Banks::new(db).map_err(|e| e.to_string())?;
    if report {
        emit("datagen.tuples_per_s", tuples as f64 / generated, "1/s", 1);
        emit(
            "core.graph_build_ms",
            t0.elapsed().as_secs_f64() * 1e3,
            "ms",
            1,
        );
    }
    Ok(Arc::new(banks))
}

/// Mean `expand` span per backward-search iterator over 20 fixed
/// two-last-name queries: the cost that grows with graph size even when
/// the answer does not (each iterator owns O(nodes) dense state).
fn expand_us_per_iterator(banks: &Arc<Banks>) -> Result<f64, String> {
    let service = QueryService::new(Arc::clone(banks), ServiceConfig::default());
    let (mut expand_ns, mut iterators) = (0u64, 0usize);
    for i in 0..20 {
        let query = format!("{} {}", LAST_NAMES[i], LAST_NAMES[i + 20]);
        let response = service
            .search(&query, QueryOptions::default())
            .map_err(|e| format!("{query}: {e}"))?;
        expand_ns += response
            .result
            .spans
            .iter()
            .filter(|s| s.name == "expand")
            .map(|s| s.end_ns - s.start_ns)
            .sum::<u64>();
        iterators += response.result.stats.iterators;
    }
    Ok(expand_ns as f64 / 1e3 / iterators.max(1) as f64)
}

fn insert_batch(tag: usize) -> DeltaBatch {
    DeltaBatch {
        ops: (0..10)
            .map(|k| TupleOp::Insert {
                relation: "Paper".into(),
                values: vec![
                    Value::text(format!("L{tag}x{k}")),
                    Value::text(format!("layerprobe insert {tag} {k}")),
                ],
            })
            .collect(),
    }
}

fn run(tuples: u64, queries: &Path, scratch: &Path) -> Result<(), String> {
    let text =
        std::fs::read_to_string(queries).map_err(|e| format!("{}: {e}", queries.display()))?;
    let queries: Vec<String> = text
        .lines()
        .filter_map(|l| l.strip_prefix("open\t"))
        .filter_map(|l| l.split('\t').nth(1))
        .map(|q| q.replace('+', " "))
        .take(MAX_QUERIES)
        .collect();
    if queries.is_empty() {
        return Err("no open-phase queries in the query file".into());
    }
    let banks = build(tuples, &scratch.join("corpus"), true)?;

    // server: the service's miss and hit paths, and the cache under them.
    let service = QueryService::new(Arc::clone(&banks), ServiceConfig::default());
    let (mut miss_us, mut hit_us, mut render_us, mut retained) = (vec![], vec![], vec![], 0usize);
    for q in &queries {
        let search = || {
            service
                .search(q, QueryOptions::default())
                .map_err(|e| format!("{q}: {e}"))
        };
        let miss = search()?;
        let hit = search()?;
        if miss.cached || !hit.cached {
            continue; // a repeated pool query: its first run was the miss
        }
        miss_us.push(miss.elapsed.as_secs_f64() * 1e6);
        hit_us.push(hit.elapsed.as_secs_f64() * 1e6);
        retained = retained.max(miss.result.stats.arena_retained_bytes);
        for answer in &miss.result.answers {
            let t0 = Instant::now();
            black_box(banks.render_answer(answer));
            render_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    emit(
        "server.service.miss_us",
        median(miss_us.clone()),
        "us",
        miss_us.len(),
    );
    emit(
        "server.service.hit_us",
        median(hit_us.clone()),
        "us",
        hit_us.len(),
    );
    emit(
        "core.arena_retained_mib",
        retained as f64 / 1048576.0,
        "mib",
        miss_us.len(),
    );
    emit(
        "storage.render_us_per_answer",
        median(render_us.clone()),
        "us",
        render_us.len(),
    );

    let cache: ShardedLruCache<u64, u64> = ShardedLruCache::new(4096, 8);
    let n = 4096u64;
    let t0 = Instant::now();
    for k in 0..n {
        cache.insert_if(k, k, |_| true);
    }
    emit(
        "server.cache.insert_ns",
        t0.elapsed().as_nanos() as f64 / n as f64,
        "ns",
        n as usize,
    );
    let t0 = Instant::now();
    for k in 0..n {
        black_box(cache.get_validate(&k, |_| Validity::Valid));
    }
    emit(
        "server.cache.get_ns",
        t0.elapsed().as_nanos() as f64 / n as f64,
        "ns",
        n as usize,
    );

    // storage: keyword → postings.
    let tokens: Vec<&str> = queries.iter().flat_map(|q| q.split(' ')).collect();
    let rounds = 200;
    let t0 = Instant::now();
    for _ in 0..rounds {
        for token in &tokens {
            black_box(banks.text_index().lookup(token).len());
        }
    }
    let lookups = rounds * tokens.len();
    emit(
        "storage.text_index.lookup_ns",
        t0.elapsed().as_nanos() as f64 / lookups as f64,
        "ns",
        lookups,
    );

    // core: per-iterator expansion cost at both corpus sizes.
    for (label, size) in [("10k", 10_000u64), ("100k", 100_000u64)] {
        let other;
        let corpus = if size == tuples {
            &banks
        } else {
            other = build(size, &scratch.join(format!("corpus{label}")), false)?;
            &other
        };
        emit(
            &format!("core.expand_us_per_iterator.{label}"),
            expand_us_per_iterator(corpus)?,
            "us",
            20,
        );
    }

    // persist: bundle write, full load, paged open.
    let bundle: PathBuf = scratch.join("probe.banks");
    let config = BanksConfig::default();
    let save = median_ms(3, || save_bundle(&banks, 0, &bundle).expect("save_bundle"));
    emit("persist.save_bundle_ms", save, "ms", 3);
    let bytes = std::fs::metadata(&bundle).map_err(|e| e.to_string())?.len();
    emit("persist.bundle_bytes", bytes as f64, "bytes", 1);
    let load = median_ms(3, || load_bundle(&bundle, &config).expect("load_bundle"));
    emit("persist.load_bundle_ms", load, "ms", 3);
    let open = median_ms(5, || {
        open_bundle_paged(&bundle, PAGED_BUDGET, &config).expect("open_bundle_paged")
    });
    emit("persist.open_paged_ms", open, "ms", 5);

    // persist::wal and ingest: one durable append, one publish.
    let (store, _) =
        PersistentStore::open(&scratch.join("store"), &config, PersistOptions::default())
            .map_err(|e| e.to_string())?;
    let mut append_us = Vec::new();
    for epoch in 1..=30u64 {
        let batch = insert_batch(epoch as usize);
        let t0 = Instant::now();
        store.append_wal(epoch, &batch).map_err(|e| e.to_string())?;
        append_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    emit("persist.wal_append_us", median(append_us), "us", 30);
    let mut publisher = SnapshotPublisher::new(Arc::clone(&banks));
    let mut publish_us = Vec::new();
    for tag in 0..10 {
        let batch = insert_batch(1000 + tag);
        let t0 = Instant::now();
        publisher.publish(&batch, None).map_err(|e| e.to_string())?;
        publish_us.push(t0.elapsed().as_secs_f64() * 1e6 / batch.ops.len() as f64);
    }
    emit("ingest.publish_us_per_op", median(publish_us), "us", 10);
    Ok(())
}

fn main() {
    let mut tuples = None;
    let mut queries = None;
    let mut scratch = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next();
        match (flag.as_str(), value) {
            ("--tuples", Some(v)) => tuples = v.parse::<u64>().ok(),
            ("--queries", Some(v)) => queries = Some(PathBuf::from(v)),
            ("--scratch", Some(v)) => scratch = Some(PathBuf::from(v)),
            _ => {
                eprintln!("usage: layerprobe --tuples N --queries FILE --scratch DIR");
                std::process::exit(2);
            }
        }
    }
    let (Some(tuples), Some(queries), Some(scratch)) = (tuples, queries, scratch) else {
        eprintln!("usage: layerprobe --tuples N --queries FILE --scratch DIR");
        std::process::exit(2);
    };
    if let Err(e) = run(tuples, &queries, &scratch) {
        eprintln!("layerprobe: {e}");
        std::process::exit(1);
    }
}
