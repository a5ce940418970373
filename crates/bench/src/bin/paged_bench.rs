//! The memory-budget smoke benchmark behind CI's `paged-smoke` job.
//!
//! Two phases over a shared work directory, so CI can run the second
//! under a hard address-space cap (`ulimit -v`) without constraining
//! the first:
//!
//! * `--phase prepare --corpus DIR --work DIR` — load a `banks datagen`
//!   shard corpus, build the in-RAM system, save it as a bundle
//!   laid out as a data directory (`snapshot-…` name, so `banks serve
//!   --data-dir WORK/data --paged` can recover from it directly), time
//!   a **full** bundle decode, record the reference answer fingerprints
//!   and the fully-decoded graph size (every segment touched through a
//!   paged store with an unbounded budget).
//! * `--phase run --work DIR --budget BYTES [--out PATH]` — reopen the
//!   same bundle *paged* under the budget, replay the query set (and
//!   render every answer, which decodes tuple values through the lazy
//!   DATA section), and fail unless (a) every fingerprint is
//!   bit-identical to the in-RAM reference, (b) the budget really is
//!   below the decoded graph size, and (c) both the resident segment
//!   bytes and the resident tuple bytes stayed within the budget.
//!   Emits `BENCH_paged.json` with cold-start times (including
//!   `data_open_ms`, the O(blocks) directory-only open of the DATA
//!   section alone), page-in/eviction counts for both stores, and
//!   per-query latencies.
//!
//! The fingerprint format is `banks_bench::fingerprint_answers` — the
//! same order-sensitive digest the thread-equivalence CI check uses.

use banks_bench::fingerprint_answers;
use banks_core::{Banks, BanksConfig};
use banks_datagen::stream;
use banks_persist::{load_bundle, open_bundle_paged, save_bundle, snapshot_file};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The smoke query set: the planted §5.1-style anecdotes every stream
/// corpus carries, plus a joining and a single-tuple query.
const QUERIES: &[&str] = &[
    "soumen sunita",
    "mohan",
    "hypertext categorization",
    "sunita",
];

fn fail(msg: &str) -> ! {
    eprintln!("paged_bench: {msg}");
    std::process::exit(1);
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_bytes(s: &str) -> u64 {
    let (digits, shift) = match s.chars().last() {
        Some('k') | Some('K') => (&s[..s.len() - 1], 10),
        Some('m') | Some('M') => (&s[..s.len() - 1], 20),
        Some('g') | Some('G') => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    match digits.parse::<u64>() {
        Ok(n) => n << shift,
        Err(e) => fail(&format!("bad byte size `{s}`: {e}")),
    }
}

/// Offset and length of the `BNKSDATA` section, read straight from the
/// bundle's four-entry directory (32 bytes per entry from offset 16:
/// 8 magic, 8 offset, 8 len, 8 checksum; DATA is the second).
fn data_section(bundle: &Path) -> (u64, u64) {
    use std::io::Read;
    let mut header = [0u8; 16 + 4 * 32];
    let mut file =
        std::fs::File::open(bundle).unwrap_or_else(|e| fail(&format!("open bundle: {e}")));
    file.read_exact(&mut header)
        .unwrap_or_else(|e| fail(&format!("read bundle directory: {e}")));
    let entry = 16 + 32;
    if &header[entry..entry + 8] != b"BNKSDATA" {
        fail("bundle directory does not carry a DATA section where expected");
    }
    let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().unwrap());
    (word(entry + 8), word(entry + 16))
}

/// Force every graph segment resident and report the decoded total —
/// the number the serving budget must stay well below.
fn decoded_graph_bytes(bundle: &Path) -> u64 {
    let (banks, _) = open_bundle_paged(bundle, usize::MAX / 2, &BanksConfig::default())
        .unwrap_or_else(|e| fail(&format!("unbounded paged open: {e}")));
    let graph = banks.tuple_graph().graph();
    for v in graph.nodes() {
        let _ = graph.out_adjacency(v);
        let _ = graph.in_adjacency(v);
    }
    let stats = graph.storage_stats().expect("paged backend");
    stats.resident_bytes as u64
}

fn prepare(corpus: &Path, work: &Path) {
    let manifest =
        stream::read_manifest(corpus).unwrap_or_else(|e| fail(&format!("corpus manifest: {e}")));
    let data_dir = work.join("data");
    std::fs::create_dir_all(&data_dir).unwrap_or_else(|e| fail(&format!("mkdir work: {e}")));

    let start = Instant::now();
    let db = stream::build_database(corpus).unwrap_or_else(|e| fail(&format!("load corpus: {e}")));
    let load_corpus_ms = start.elapsed().as_millis();

    let start = Instant::now();
    let banks = Banks::new(db).unwrap_or_else(|e| fail(&format!("build banks: {e}")));
    let build_ms = start.elapsed().as_millis();

    let bundle = data_dir.join(snapshot_file(0));
    let start = Instant::now();
    save_bundle(&banks, 0, &bundle).unwrap_or_else(|e| fail(&format!("save bundle: {e}")));
    let save_ms = start.elapsed().as_millis();
    let bundle_bytes = std::fs::metadata(&bundle).map(|m| m.len()).unwrap_or(0);

    // Reference cold start: a full decode of everything.
    let start = Instant::now();
    let (full, _) = load_bundle(&bundle, &BanksConfig::default())
        .unwrap_or_else(|e| fail(&format!("full load: {e}")));
    let full_load_ms = start.elapsed().as_millis();

    let decoded = decoded_graph_bytes(&bundle);

    let mut fingerprints = String::new();
    for query in QUERIES {
        let answers = full
            .search(query)
            .unwrap_or_else(|e| fail(&format!("search `{query}`: {e}")));
        fingerprints.push_str(&format!("{query}\t{}\n", fingerprint_answers(&answers)));
    }
    std::fs::write(work.join("fingerprints.tsv"), fingerprints)
        .unwrap_or_else(|e| fail(&format!("write fingerprints: {e}")));
    let prep = format!(
        "tuples={}\nbundle_bytes={bundle_bytes}\nfull_load_ms={full_load_ms}\n\
         decoded_graph_bytes={decoded}\nload_corpus_ms={load_corpus_ms}\n\
         build_ms={build_ms}\nsave_ms={save_ms}\n",
        manifest.config.tuples,
    );
    std::fs::write(work.join("prepare.tsv"), prep)
        .unwrap_or_else(|e| fail(&format!("write prepare record: {e}")));
    println!(
        "prepared {} tuples: corpus load {load_corpus_ms} ms, build {build_ms} ms, \
         bundle {bundle_bytes} B saved in {save_ms} ms, full decode {full_load_ms} ms, \
         decoded graph {decoded} B",
        manifest.config.tuples,
    );
}

fn prep_value(prep: &str, key: &str) -> u64 {
    prep.lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fail(&format!("prepare.tsv missing `{key}`")))
}

fn run(work: &Path, budget: u64, out: &Path) {
    let prep = std::fs::read_to_string(work.join("prepare.tsv")).unwrap_or_else(|e| {
        fail(&format!(
            "read prepare record (run `--phase prepare` first): {e}"
        ))
    });
    let tuples = prep_value(&prep, "tuples");
    let bundle_bytes = prep_value(&prep, "bundle_bytes");
    let full_load_ms = prep_value(&prep, "full_load_ms");
    let decoded = prep_value(&prep, "decoded_graph_bytes");
    if budget >= decoded {
        fail(&format!(
            "budget {budget} is not below the decoded graph size {decoded} — \
             the run would not prove out-of-core serving"
        ));
    }

    let bundle = work.join("data").join(snapshot_file(0));

    // Cold open of the DATA section in isolation: directory + PK lanes
    // only, O(blocks) — not one tuple block is decoded. This is the
    // number the v3 layout exists to shrink.
    let (data_offset, data_len) = data_section(&bundle);
    let start = Instant::now();
    let file = std::sync::Arc::new(
        std::fs::File::open(&bundle).unwrap_or_else(|e| fail(&format!("open bundle: {e}"))),
    );
    let probe = banks_pager::PagedTupleStore::open_file(
        file,
        data_offset,
        data_len,
        banks_pager::PageCache::new(budget as usize),
    )
    .unwrap_or_else(|e| fail(&format!("DATA section open: {e}")));
    let data_open_ms = start.elapsed().as_millis();
    drop(probe);

    let start = Instant::now();
    let (banks, _) = open_bundle_paged(&bundle, budget as usize, &BanksConfig::default())
        .unwrap_or_else(|e| fail(&format!("paged open: {e}")));
    let paged_open_ms = start.elapsed().as_millis();

    let reference = std::fs::read_to_string(work.join("fingerprints.tsv"))
        .unwrap_or_else(|e| fail(&format!("read fingerprints: {e}")));
    let mut latencies = Vec::new();
    let mut mismatches = Vec::new();
    for line in reference.lines() {
        let Some((query, expected)) = line.split_once('\t') else {
            fail(&format!("malformed fingerprint line `{line}`"));
        };
        let start = Instant::now();
        let answers = banks
            .search(query)
            .unwrap_or_else(|e| fail(&format!("search `{query}`: {e}")));
        let micros = start.elapsed().as_micros();
        let actual = fingerprint_answers(&answers);
        if actual != expected {
            mismatches.push(query.to_string());
        }
        latencies.push((query.to_string(), micros, answers.len()));
        // Render outside the timed window: rendering is what decodes
        // tuple values, so it drives the tuple page-in/residency
        // figures below without polluting the search latencies.
        for answer in &answers {
            let _ = banks.render_answer(answer);
        }
    }

    let stats = banks
        .tuple_graph()
        .graph()
        .storage_stats()
        .expect("paged backend reports storage stats");
    let tstats = banks
        .db()
        .tuple_store_stats()
        .unwrap_or_else(|| fail("paged bundle did not open with a lazy tuple store"));
    if tstats.page_ins == 0 {
        fail("rendering answers paged no tuple blocks in — the DATA section is not lazy");
    }
    // One page cache holds both: the bound is on their sum.
    if stats.resident_bytes + tstats.resident_bytes > budget as usize {
        fail(&format!(
            "graph resident {} + tuple resident {} exceeds budget {budget}",
            stats.resident_bytes, tstats.resident_bytes
        ));
    }
    if !mismatches.is_empty() {
        fail(&format!(
            "answer fingerprints diverged from the in-RAM reference: {mismatches:?}"
        ));
    }

    let speedup = full_load_ms as f64 / (paged_open_ms.max(1)) as f64;
    // Regression floor, far below the ~10x a quiet machine measures, so
    // CI noise in the full-decode baseline cannot flake the job.
    if speedup < 2.0 {
        fail(&format!(
            "paged cold start ({paged_open_ms} ms) is not meaningfully faster than a \
             full decode ({full_load_ms} ms)"
        ));
    }
    let queries_json: Vec<String> = latencies
        .iter()
        .map(|(q, us, n)| format!(r#"    {{"query": "{q}", "latency_us": {us}, "answers": {n}}}"#))
        .collect();
    let json = format!(
        "{{\n  \"corpus_tuples\": {tuples},\n  \"bundle_bytes\": {bundle_bytes},\n  \
         \"decoded_graph_bytes\": {decoded},\n  \"budget_bytes\": {budget},\n  \
         \"cold_start_full_ms\": {full_load_ms},\n  \"cold_start_paged_ms\": {paged_open_ms},\n  \
         \"cold_start_speedup\": {speedup:.2},\n  \"data_open_ms\": {data_open_ms},\n  \
         \"resident_bytes\": {},\n  \
         \"segments_total\": {},\n  \"segments_resident\": {},\n  \
         \"page_ins\": {},\n  \"evictions\": {},\n  \"decode_micros\": {},\n  \
         \"tuple_resident_bytes\": {},\n  \"tuple_page_ins\": {},\n  \
         \"tuple_evictions\": {},\n  \
         \"fingerprints_match\": true,\n  \"queries\": [\n{}\n  ]\n}}\n",
        stats.resident_bytes,
        stats.segment_count,
        stats.resident_segments,
        stats.page_ins,
        stats.evictions,
        stats.decode_nanos / 1_000,
        tstats.resident_bytes,
        tstats.page_ins,
        tstats.evictions,
        queries_json.join(",\n"),
    );
    std::fs::write(out, &json).unwrap_or_else(|e| fail(&format!("write {}: {e}", out.display())));
    println!(
        "paged cold start {paged_open_ms} ms (DATA alone {data_open_ms} ms) vs full \
         {full_load_ms} ms ({speedup:.1}x), {} graph / {} tuple page-ins, \
         {} / {} evictions, resident {} + {} / budget {budget} — report at {}",
        stats.page_ins,
        tstats.page_ins,
        stats.evictions,
        tstats.evictions,
        stats.resident_bytes,
        tstats.resident_bytes,
        out.display(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let phase =
        flag_value(&args, "--phase").unwrap_or_else(|| fail("--phase prepare|run required"));
    let work =
        PathBuf::from(flag_value(&args, "--work").unwrap_or_else(|| fail("--work DIR required")));
    match phase.as_str() {
        "prepare" => {
            let corpus = PathBuf::from(
                flag_value(&args, "--corpus")
                    .unwrap_or_else(|| fail("--corpus DIR required for prepare")),
            );
            prepare(&corpus, &work);
        }
        "run" => {
            let budget = parse_bytes(
                &flag_value(&args, "--budget").unwrap_or_else(|| fail("--budget BYTES required")),
            );
            let out = PathBuf::from(
                flag_value(&args, "--out").unwrap_or_else(|| "BENCH_paged.json".to_string()),
            );
            run(&work, budget, &out);
        }
        other => fail(&format!("unknown phase `{other}`")),
    }
}
