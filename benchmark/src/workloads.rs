//! The four workloads: set-up → warm-up → open phase → closed phase (→
//! restarts), every response checked, every metric computed.
//!
//! All four share one load model: the generator is this process with
//! [`GENERATOR_THREADS`] threads (= the cores of the reference machine),
//! so at most that many connections are in flight; servers run
//! `--workers 2 --search-threads 1` with the default cache and fsync.
//! Latency comes from the open phase, throughput from the closed phase.

use crate::client::{self, ClientError};
use crate::procs::{self, Server, CONTROL_TIMEOUT};
use crate::queries::{self, Class, Delta, Query, QueryGen};
use crate::schedule::{self, OpenSample, LATE_TOLERANCE};
use crate::scrape::{json_bool, json_num, prom_sum, span_ns};
use crate::stats::{self, fnv1a, Rng, Zipf};
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const GENERATOR_THREADS: usize = 2;
/// Share of `--seconds` spent in the open phase; the rest is closed. The
/// median latency needs few samples, while closed-loop throughput on two
/// shared cores only settles with time, so the closed phase gets 40 %.
const OPEN_SHARE: f64 = 0.6;
/// Set-up is repeated and its median reported, so one slow spawn does not
/// read as a regression.
const SETUP_REPS: usize = 5;
const RESTART_REPS: usize = 5;
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
const MEMORY_BUDGET: &str = "8m";
const MEMORY_BUDGET_BYTES: f64 = 8.0 * 1024.0 * 1024.0;

/// What the harness needs to know to run any workload.
pub struct Config {
    /// The released `banks` binary.
    pub banks: PathBuf,
    /// The in-process layer probe (run only with `--trace 1`).
    pub layerprobe: PathBuf,
    /// `benchmark/out`.
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum Topology {
    /// One `banks serve`, in RAM.
    InRam,
    /// One `banks serve --data-dir D --paged --memory-budget 8m`.
    Paged,
    /// `banks route` → durable leader + one `--follow` follower.
    Cluster,
}

#[derive(Clone, Copy)]
enum Traffic {
    /// Every request a distinct normalized query (mix, or `pp` only).
    Distinct {
        class: Option<Class>,
        warm: usize,
        closed_cap: usize,
    },
    /// Zipf(s) over a pool of mixed queries, all touched in warm-up.
    Pool { size: usize, zipf_s: f64 },
}

/// One workload. Names are normative (see `BENCHMARK.json`).
#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// A loopback address of its own, so TIME_WAIT tuples of one
    /// workload never collide with the next one's.
    ip: Ipv4Addr,
    pub tuples: u64,
    topology: Topology,
    traffic: Traffic,
    open_rps: f64,
    /// Latency limit for `slo_met_share`.
    slo_ms: f64,
    /// `POST /ingest` batches per second beside the open-phase reads
    /// (0 = none).
    writes_per_s: f64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "cold_10k",
        ip: Ipv4Addr::new(127, 0, 0, 11),
        tuples: 10_000,
        topology: Topology::InRam,
        // 8000 closed-phase queries outlast the closed phase at seed
        // (~900/s × 8 s); more would run the `aa` class (30 % of 9640
        // queries, of 3003 distinct pairs) dry.
        traffic: Traffic::Distinct {
            class: None,
            warm: 200,
            closed_cap: 8000,
        },
        open_rps: 120.0,
        slo_ms: 25.0,
        writes_per_s: 0.0,
    },
    Spec {
        name: "hot_10k",
        ip: Ipv4Addr::new(127, 0, 0, 12),
        tuples: 10_000,
        topology: Topology::InRam,
        traffic: Traffic::Pool {
            size: 512,
            zipf_s: 1.1,
        },
        open_rps: 600.0,
        slo_ms: 2.0,
        writes_per_s: 0.0,
    },
    Spec {
        name: "paged_100k",
        ip: Ipv4Addr::new(127, 0, 0, 13),
        tuples: 100_000,
        topology: Topology::Paged,
        // The 50 reference queries of set-up already drive the pager into
        // its steady (thrashing) state; the warm-up only tops that up.
        traffic: Traffic::Distinct {
            class: Some(Class::Pp),
            warm: 4,
            closed_cap: 400,
        },
        // Two concurrent queries evict each other's segments (~600 ms each,
        // ~3.2/s at most): 1.7/s (21 samples, the fewest that support a
        // median) keeps the open phase clear of overload.
        open_rps: 1.7,
        slo_ms: 1000.0,
        writes_per_s: 0.0,
    },
    Spec {
        name: "cluster_rw_10k",
        ip: Ipv4Addr::new(127, 0, 0, 14),
        tuples: 10_000,
        topology: Topology::Cluster,
        traffic: Traffic::Pool {
            size: 256,
            zipf_s: 1.0,
        },
        open_rps: 100.0,
        slo_ms: 30.0,
        writes_per_s: 4.0,
    },
];

/// Queries whose in-RAM answers the paged server must reproduce.
const REFERENCE_QUERIES: usize = 20;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind the value (0 = a plain count or ratio).
    pub samples: usize,
}

/// Everything one workload run produced.
pub struct Outcome {
    pub workload: &'static str,
    pub tuples: u64,
    pub attempted: u64,
    pub failed: u64,
    pub answers_digest: u64,
    pub metrics: Vec<Metric>,
}

// ---------------------------------------------------------------- inputs

struct Inputs {
    warm: Vec<Query>,
    /// One query per open-phase request.
    open: Vec<Query>,
    /// One query per closed-phase request (cycled when a pool).
    closed: Vec<Query>,
    closed_cycles: bool,
    reference: Vec<Query>,
    deltas: Vec<Delta>,
}

fn generate_inputs(spec: &Spec, cfg: &Config, open_secs: f64) -> Result<Inputs, String> {
    let counts = banks_datagen::StreamCounts::for_tuples(spec.tuples)?;
    let mut gen = QueryGen::new(cfg.seed, counts.papers);
    let n_open = (spec.open_rps * open_secs).ceil().max(1.0) as usize;
    let mut inputs = match spec.traffic {
        Traffic::Distinct {
            class,
            warm,
            closed_cap,
        } => {
            let mut draw = |n| match class {
                Some(c) => gen.of_class(c, n),
                None => gen.mixed(n),
            };
            Inputs {
                warm: draw(warm),
                open: draw(n_open),
                closed: draw(closed_cap),
                closed_cycles: false,
                reference: Vec::new(),
                deltas: Vec::new(),
            }
        }
        Traffic::Pool { size, zipf_s } => {
            let pool = gen.mixed(size);
            let zipf = Zipf::new(size, zipf_s);
            let mut rng = Rng::new(cfg.seed ^ 0x21bf);
            let mut draws = |n: usize| -> Vec<Query> {
                (0..n)
                    .map(|_| pool[zipf.sample(&mut rng)].clone())
                    .collect()
            };
            let open = draws(n_open);
            let closed = draws(1 << 16);
            Inputs {
                warm: pool,
                open,
                closed,
                closed_cycles: true,
                reference: Vec::new(),
                deltas: Vec::new(),
            }
        }
    };
    if spec.topology == Topology::Paged {
        inputs.reference = gen.of_class(Class::Pp, REFERENCE_QUERIES);
    }
    if spec.writes_per_s > 0.0 {
        let n = (spec.writes_per_s * open_secs) as usize;
        inputs.deltas = queries::deltas(cfg.seed, n, counts.authors);
    }

    // Written out so a run can be replayed and two runs diffed.
    let mut lines = String::new();
    let closed: &[Query] = if inputs.closed_cycles {
        &[] // a pool's closed phase redraws from the warm-up lines
    } else {
        &inputs.closed
    };
    for (phase, list) in [
        ("warm", &inputs.warm[..]),
        ("reference", &inputs.reference[..]),
        ("open", &inputs.open[..]),
        ("closed", closed),
    ] {
        for q in list {
            lines.push_str(&format!("{phase}\t{}\t{}\n", q.class.name(), q.text));
        }
    }
    let write = |ext: &str, content: String| {
        let path = cfg.out.join(format!("{}.{ext}", spec.name));
        std::fs::write(&path, content).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write("queries", lines)?;
    write(
        "deltas",
        inputs
            .deltas
            .iter()
            .map(|d| format!("{}\n", d.body))
            .collect(),
    )?;
    Ok(inputs)
}

// ------------------------------------------------------------- the fleet

/// The processes of one workload. Dropping it kills them all.
struct Fleet {
    /// Where the workload's reads and writes go: the server, or the router.
    front: SocketAddr,
    /// The `banks serve` processes, leader (or only server) first.
    backends: Vec<Server>,
    router: Option<Server>,
    /// Data directory of the leader / paged server.
    data_dir: Option<PathBuf>,
    /// Arguments that respawn backend 0 on its existing state.
    primary_args: Vec<String>,
}

fn serve_args(corpus: &Path) -> Vec<String> {
    [
        "serve",
        "--workers",
        "2",
        "--search-threads",
        "1",
        "--corpus",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([corpus.display().to_string()])
    .collect()
}

fn spawn(cfg: &Config, spec: &Spec, args: &[String], log: PathBuf) -> Result<Server, String> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut server = Server::spawn(&cfg.banks, spec.ip, &args, &log)?;
    server.wait_healthy(BOOT_TIMEOUT)?;
    Ok(server)
}

/// Datagen + first boot of every role, until all answer `/health`.
fn boot(cfg: &Config, spec: &Spec, dir: &Path) -> Result<Fleet, String> {
    let corpus = dir.join("corpus");
    procs::datagen(&cfg.banks, spec.tuples, &corpus)?;
    let mut primary_args = serve_args(&corpus);
    let data_dir = (spec.topology != Topology::InRam).then(|| dir.join("data"));
    if let Some(d) = &data_dir {
        primary_args.extend(["--data-dir".to_string(), d.display().to_string()]);
    }
    if spec.topology == Topology::Paged {
        primary_args.extend(["--paged", "--memory-budget", MEMORY_BUDGET].map(String::from));
    }
    let primary = spawn(cfg, spec, &primary_args, dir.join("primary.log"))?;
    let mut fleet = Fleet {
        front: primary.addr,
        backends: vec![primary],
        router: None,
        data_dir,
        primary_args,
    };
    if spec.topology == Topology::Cluster {
        let leader = fleet.backends[0].addr.to_string();
        let mut follower_args = serve_args(&corpus);
        follower_args.extend([
            "--data-dir".to_string(),
            dir.join("follower").display().to_string(),
            "--follow".to_string(),
            leader.clone(),
        ]);
        let follower = spawn(cfg, spec, &follower_args, dir.join("follower.log"))?;
        let router_args = [
            "route",
            "--workers",
            "2",
            "--leader",
            &leader,
            "--follower",
            &follower.addr.to_string(),
        ]
        .map(String::from);
        let router = spawn(cfg, spec, &router_args, dir.join("router.log"))?;
        fleet.front = router.addr;
        fleet.backends.push(follower);
        fleet.router = Some(router);
    }
    Ok(fleet)
}

// ---------------------------------------------------- requests and checks

/// What one `/search` response told us.
#[derive(Debug, Default, Clone)]
struct Reply {
    ok: bool,
    cached: bool,
    epoch: u64,
    connect_us: f64,
    server_us: f64,
    traced: bool,
    /// parse, match, expand, score.
    span_ns: [u64; 4],
    iterators: f64,
    pops: f64,
    generated: f64,
    emitted: f64,
    early_terminated: bool,
    /// FNV-1a of the `"answers":…` suffix.
    answers_hash: u64,
}

/// What a phase expects of every response.
#[derive(Clone, Copy)]
struct Expect {
    cached: Option<bool>,
    /// Whether responses of this phase enter `answers_digest` (only
    /// phases whose request set is the same on every run of a seed).
    digest: bool,
}

/// Counts attempts and failures, one per failure mode, and holds the
/// cross-request invariants.
#[derive(Default)]
struct Checker {
    attempted: AtomicU64,
    failed: AtomicU64,
    addr_not_available: AtomicU64,
    /// (query, epoch) → answers hash: the same query at the same epoch
    /// must answer byte-identically.
    seen: Mutex<HashMap<(String, u64), u64>>,
    digest: AtomicU64,
    /// First few failure descriptions, for the log.
    examples: Mutex<Vec<String>>,
}

impl Checker {
    fn fail(&self, what: String) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut examples = self.examples.lock().expect("examples lock");
        if examples.len() < 8 {
            examples.push(what);
        }
    }

    fn transport(&self, target: &str, e: ClientError) {
        if e == ClientError::AddrNotAvailable {
            self.addr_not_available.fetch_add(1, Ordering::Relaxed);
        }
        self.fail(format!("{target}: {e}"));
    }

    /// `GET /search?q=<text><extra>` against `addr`, checked.
    fn search(&self, addr: SocketAddr, text: &str, extra: &str, expect: Expect) -> Reply {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        let target = format!("/search?q={text}{extra}");
        let response = match client::request(addr, &target, None, REQUEST_TIMEOUT) {
            Ok(r) => r,
            Err(e) => {
                self.transport(&target, e);
                return Reply::default();
            }
        };
        let body = &response.body;
        if response.status != 200 {
            self.fail(format!("{target}: status {} {body:.120}", response.status));
            return Reply::default();
        }
        let num = |key: &str| json_num(body, &[key]);
        let (Some(cached), Some(epoch), Some(server_us), Some(count), Some(at), Some(stats_at)) = (
            json_bool(body, "cached"),
            num("epoch"),
            num("elapsed_us"),
            num("count"),
            body.find("\"answers\":"),
            body.rfind("\"search_stats\":"),
        ) else {
            self.fail(format!("{target}: unparseable body {body:.120}"));
            return Reply::default();
        };
        let stats = &body[stats_at..];
        let mut reply = Reply {
            ok: true,
            cached,
            epoch: epoch as u64,
            connect_us: response.connect.as_secs_f64() * 1e6,
            server_us,
            // The envelope comes before the answers, the counters after:
            // each is looked for only where it can be (this runs 10 000
            // times a second beside the server it measures).
            traced: body[..at].contains("\"trace\":{"),
            span_ns: ["parse", "match", "expand", "score"].map(|s| span_ns(body, s)),
            iterators: json_num(stats, &["iterators"]).unwrap_or(0.0),
            pops: json_num(stats, &["pops"]).unwrap_or(0.0),
            generated: json_num(stats, &["trees_generated"]).unwrap_or(0.0),
            emitted: json_num(stats, &["trees_emitted"]).unwrap_or(0.0),
            early_terminated: stats.contains("\"early_terminated\":true"),
            answers_hash: fnv1a(&body.as_bytes()[at..]),
        };
        // Every query class is built from tokens the corpus contains, on
        // a connected citation graph: an empty answer is a wrong answer.
        if count < 1.0 {
            reply.ok = false;
            self.fail(format!("{target}: count 0"));
        }
        if expect.cached.is_some_and(|want| want != cached) {
            reply.ok = false;
            self.fail(format!("{target}: cached={cached}"));
        }
        let first = *self
            .seen
            .lock()
            .expect("seen lock")
            .entry((text.to_string(), reply.epoch))
            .or_insert(reply.answers_hash);
        if first != reply.answers_hash {
            reply.ok = false;
            self.fail(format!(
                "{target}: answers changed within epoch {}",
                reply.epoch
            ));
        }
        if expect.digest && reply.ok {
            let entry = fnv1a(text.as_bytes()) ^ reply.answers_hash.rotate_left(17);
            self.digest.fetch_add(entry, Ordering::Relaxed);
        }
        reply
    }

    /// Any other request that must answer 200; returns the body.
    fn get(&self, addr: SocketAddr, target: &str, body: Option<&str>) -> Option<String> {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match client::request(addr, target, body, REQUEST_TIMEOUT) {
            Ok(r) if r.status == 200 => Some(r.body),
            Ok(r) => {
                self.fail(format!("{target}: status {} {:.120}", r.status, r.body));
                None
            }
            Err(e) => {
                self.transport(target, e);
                None
            }
        }
    }
}

// ----------------------------------------------------------------- scrapes

/// Cumulative counters of the `serve` processes, summed over backends.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    cache_hits: f64,
    cache_misses: f64,
    cache_evictions: f64,
    cache_invalidations: f64,
    shed: f64,
    deadline_expired: f64,
    graph_page_ins: f64,
    graph_evictions: f64,
    graph_decode_us: f64,
    tuple_page_ins: f64,
    tuple_decode_us: f64,
    wal_fsyncs: f64,
    wal_batches: f64,
}

impl Counters {
    fn since(&self, before: &Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            cache_evictions: self.cache_evictions - before.cache_evictions,
            cache_invalidations: self.cache_invalidations - before.cache_invalidations,
            shed: self.shed - before.shed,
            deadline_expired: self.deadline_expired - before.deadline_expired,
            graph_page_ins: self.graph_page_ins - before.graph_page_ins,
            graph_evictions: self.graph_evictions - before.graph_evictions,
            graph_decode_us: self.graph_decode_us - before.graph_decode_us,
            tuple_page_ins: self.tuple_page_ins - before.tuple_page_ins,
            tuple_decode_us: self.tuple_decode_us - before.tuple_decode_us,
            wal_fsyncs: self.wal_fsyncs - before.wal_fsyncs,
            wal_batches: self.wal_batches - before.wal_batches,
        }
    }
}

/// Point-in-time pager state of backend 0 (zero when in RAM).
#[derive(Debug, Default, Clone, Copy)]
struct PagerGauges {
    graph_resident_share: f64,
    graph_resident_bytes: f64,
    tuple_resident_bytes: f64,
}

fn control(addr: SocketAddr, target: &str) -> Result<String, String> {
    match client::request(addr, target, None, CONTROL_TIMEOUT) {
        Ok(r) if r.status == 200 => Ok(r.body),
        Ok(r) => Err(format!("{addr}{target}: status {}", r.status)),
        Err(e) => Err(format!("{addr}{target}: {e}")),
    }
}

fn scrape(fleet: &Fleet) -> Result<(Counters, PagerGauges), String> {
    let mut c = Counters::default();
    let mut gauges = PagerGauges::default();
    for (i, backend) in fleet.backends.iter().enumerate() {
        let stats = control(backend.addr, "/stats")?;
        let metrics = control(backend.addr, "/metrics")?;
        let num = |path: &[&str]| json_num(&stats, path).unwrap_or(0.0);
        c.cache_hits += num(&["cache", "hits"]);
        c.cache_misses += num(&["cache", "misses"]);
        c.cache_evictions += num(&["cache", "evictions"]);
        c.cache_invalidations += num(&["cache", "invalidations"]);
        c.shed += prom_sum(&metrics, "banks_shed_total", "");
        c.deadline_expired += prom_sum(&metrics, "banks_deadline_exceeded_total", "");
        c.graph_page_ins += num(&["storage", "page_ins"]);
        c.graph_evictions += num(&["storage", "evictions"]);
        c.graph_decode_us += num(&["storage", "decode_micros"]);
        c.tuple_page_ins += num(&["storage", "tuples", "page_ins"]);
        c.tuple_decode_us += num(&["storage", "tuples", "decode_micros"]);
        c.wal_fsyncs += num(&["persistence", "fsync_count"]);
        c.wal_batches += num(&["persistence", "wal_batches"]);
        if i == 0 {
            let total = num(&["storage", "segments", "total"]);
            if total > 0.0 {
                gauges.graph_resident_share = num(&["storage", "segments", "resident"]) / total;
            }
            gauges.graph_resident_bytes = num(&["storage", "resident_bytes"]);
            gauges.tuple_resident_bytes = num(&["storage", "tuples", "resident_bytes"]);
        }
    }
    Ok((c, gauges))
}

/// Maxima of gauges that only polling can see (traced runs).
#[derive(Default)]
struct Sampled {
    queue_depth_max: f64,
    epoch_lag_max: f64,
}

fn sample_gauges(fleet: &Fleet, stop: &AtomicBool) -> Sampled {
    let mut s = Sampled::default();
    while !stop.load(Ordering::Relaxed) {
        for backend in &fleet.backends {
            if let Ok(m) = control(backend.addr, "/metrics") {
                s.queue_depth_max =
                    s.queue_depth_max
                        .max(prom_sum(&m, "banks_http_queue_depth", ""));
                s.epoch_lag_max = s
                    .epoch_lag_max
                    .max(prom_sum(&m, "banks_replica_apply_lag", ""));
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    s
}

// ------------------------------------------------------------------ writes

struct Ack {
    latency_ms: f64,
    /// Ack → the follower answers a read at that epoch (traced runs).
    visible_lag_ms: Option<f64>,
}

/// Post every batch of `deltas` on a fixed schedule beside the reads — a
/// fixed number, so the write-ahead log and the digest repeat exactly.
/// Every 10th ack is followed by a routed `min_epoch` read that must see
/// the batch's token.
fn write_loop(
    spec: &Spec,
    fleet: &Fleet,
    deltas: &[Delta],
    checker: &Checker,
    trace: bool,
) -> Vec<Ack> {
    let interval = Duration::from_secs_f64(1.0 / spec.writes_per_s);
    let start = Instant::now();
    let mut acks = Vec::new();
    for (i, delta) in deltas.iter().enumerate() {
        let due = start + interval.mul_f64(i as f64);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let t0 = Instant::now();
        let Some(body) = checker.get(fleet.front, "/ingest?ts=bench", Some(&delta.body)) else {
            continue;
        };
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let acked = Instant::now();
        let Some(epoch) = json_num(&body, &["epoch"]) else {
            checker.fail(format!("ingest ack without epoch: {body:.120}"));
            continue;
        };
        let barrier = format!("&min_epoch={epoch}&wait_ms=5000");
        let expect = Expect {
            cached: None,
            digest: false,
        };
        let mut visible_lag_ms = None;
        if trace {
            let follower = fleet.backends[1].addr;
            if checker.search(follower, &delta.token, &barrier, expect).ok {
                visible_lag_ms = Some(acked.elapsed().as_secs_f64() * 1e3);
            }
        }
        if i % 10 == 0 {
            // The writer is sequential, so this read is answered at
            // exactly the acked epoch on every run: it can be digested.
            let expect = Expect {
                cached: None,
                digest: true,
            };
            checker.search(fleet.front, &delta.token, &barrier, expect);
        }
        acks.push(Ack {
            latency_ms,
            visible_lag_ms,
        });
    }
    acks
}

// --------------------------------------------------------------- the run

/// What the measured phases hand to the metric computation.
struct Measured {
    open: Vec<OpenSample<Reply>>,
    acks: Vec<Ack>,
    after_open: Counters,
    gauges: PagerGauges,
    /// Completion time since the phase started, and the reply.
    closed: Vec<(Duration, Reply)>,
    after_closed: Counters,
    sampled: Sampled,
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// p50 of sequential round trips of `target`, in microseconds.
fn round_trip_p50_us(addr: SocketAddr, target: &str, n: usize) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        control(addr, target)?;
        samples.push(us(t0.elapsed()));
    }
    Ok(stats::median(&samples))
}

/// Run one workload end to end.
pub fn run(spec: &Spec, cfg: &Config) -> Result<Outcome, String> {
    let open_secs = cfg.seconds * OPEN_SHARE;
    let closed_secs = cfg.seconds - open_secs;
    let inputs = generate_inputs(spec, cfg, open_secs)?;
    let scratch = cfg.out.join("tmp").join(spec.name);
    let checker = Checker::default();
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &str, samples: usize| {
        // A ratio with nothing under it (no writes, no pager, a smoke run)
        // reads 0, and must print as JSON. (An empty `sum()` is -0.0;
        // adding 0.0 prints it as 0.)
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        m.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
    };

    // -- set-up: datagen + first boot + every role healthy, repeated.
    let mut boots = Vec::with_capacity(SETUP_REPS);
    let mut fleet = None;
    for rep in 0..SETUP_REPS {
        drop(fleet.take()); // the previous repetition's processes
        let dir = procs::fresh_dir(scratch.join(format!("boot{rep}")))?;
        let t0 = Instant::now();
        fleet = Some(boot(cfg, spec, &dir)?);
        boots.push(t0.elapsed().as_secs_f64());
    }
    let mut fleet = fleet.expect("SETUP_REPS > 0");
    let corpus = scratch
        .join(format!("boot{}", SETUP_REPS - 1))
        .join("corpus");
    let corpus_bytes = procs::dir_bytes(&corpus);

    // -- paged answers must equal an in-RAM server's on a sample.
    let mut reference: Vec<(String, u64)> = Vec::new();
    if spec.topology == Topology::Paged {
        let dir = procs::fresh_dir(scratch.join("reference"))?;
        let in_ram = spawn(cfg, spec, &serve_args(&corpus), dir.join("in_ram.log"))?;
        let expect = Expect {
            cached: Some(false),
            digest: true,
        };
        let pairs = schedule::closed_loop(
            GENERATOR_THREADS,
            Duration::MAX,
            inputs.reference.len(),
            |i| {
                let text = &inputs.reference[i].text;
                let want = checker.search(in_ram.addr, text, "", expect);
                let got = checker.search(fleet.front, text, "", expect);
                if want.ok && got.ok && want.answers_hash != got.answers_hash {
                    checker.fail(format!("{text}: paged answers differ from in-RAM"));
                }
                (text.clone(), want.answers_hash)
            },
        );
        reference = pairs.into_iter().map(|(_, pair)| pair).collect();
    }

    // -- warm-up: fills the cache (pools) or settles allocator, arena and
    // pager state (distinct). Reported apart from set-up: it is a single
    // pass of harness-driven cold queries, too noisy to bound.
    let warm_expect = Expect {
        cached: Some(false),
        digest: true,
    };
    let t0 = Instant::now();
    schedule::closed_loop(GENERATOR_THREADS, Duration::MAX, inputs.warm.len(), |i| {
        checker.search(fleet.front, &inputs.warm[i].text, "", warm_expect)
    });
    let warmup_s = t0.elapsed().as_secs_f64();
    put("setup_s", stats::median(&boots), "s", SETUP_REPS);
    put("gen.warmup_s", warmup_s, "s", inputs.warm.len());

    // -- measured phases (in traced runs with the gauge sampler beside
    // them).
    let pool = matches!(spec.traffic, Traffic::Pool { .. });
    let read_only = spec.writes_per_s == 0.0;
    let timed_expect = Expect {
        // Distinct queries can never hit; a pre-touched pool always hits
        // unless a publish invalidates it.
        cached: if !pool {
            Some(false)
        } else if read_only {
            Some(true)
        } else {
            None
        },
        // With writes, which epoch answers a read depends on timing.
        digest: read_only,
    };
    let closed_expect = Expect {
        digest: false,
        ..timed_expect
    };
    // In a traced run every second request asks for `?trace=1`; the two
    // halves of one phase give the tracing overhead.
    let extra = |i: usize| {
        if cfg.trace && i % 2 == 1 {
            "&trace=1"
        } else {
            ""
        }
    };
    let stop = AtomicBool::new(false);
    let (before, _) = scrape(&fleet)?;
    let Measured {
        open,
        acks,
        after_open,
        gauges,
        closed,
        after_closed,
        sampled,
    } = std::thread::scope(|scope| -> Result<Measured, String> {
        // Stops the sampler on every way out, or the scope would never end.
        let _stop = StopOnDrop(&stop);
        let sampler = cfg
            .trace
            .then(|| scope.spawn(|| sample_gauges(&fleet, &stop)));
        // The writer runs beside the open phase only: with writes beside
        // it, closed-loop throughput swung ±30 % from run to run on
        // identical inputs (see README, "Demoted").
        let writer = (!read_only)
            .then(|| scope.spawn(|| write_loop(spec, &fleet, &inputs.deltas, &checker, cfg.trace)));
        let interval = Duration::from_secs_f64(1.0 / spec.open_rps);
        let open = schedule::open_loop(inputs.open.len(), interval, GENERATOR_THREADS, |i| {
            checker.search(fleet.front, &inputs.open[i].text, extra(i), timed_expect)
        });
        let acks = writer
            .map(|w| w.join().expect("writer panicked"))
            .unwrap_or_default();
        let (after_open, gauges) = scrape(&fleet)?;
        let cap = if inputs.closed_cycles {
            usize::MAX
        } else {
            inputs.closed.len()
        };
        let closed = schedule::closed_loop(
            GENERATOR_THREADS,
            Duration::from_secs_f64(closed_secs),
            cap,
            |i| {
                let query = &inputs.closed[i % inputs.closed.len()];
                checker.search(fleet.front, &query.text, "", closed_expect)
            },
        );
        let (after_closed, _) = scrape(&fleet)?;
        stop.store(true, Ordering::Relaxed);
        let sampled = sampler
            .map(|s| s.join().expect("sampler panicked"))
            .unwrap_or_default();
        Ok(Measured {
            open,
            acks,
            after_open,
            gauges,
            closed,
            after_closed,
            sampled,
        })
    })?;

    // -- end-to-end numbers.
    let ok_latencies = |keep: &dyn Fn(&OpenSample<Reply>) -> bool| {
        stats::sorted(
            open.iter()
                .filter(|s| s.result.ok && keep(s))
                .map(|s| ms(s.latency))
                .collect(),
        )
    };
    let latencies = ok_latencies(&|_| true);
    for (name, p) in [
        ("search_p50_ms", 50.0),
        ("search_p90_ms", 90.0),
        ("search_p99_ms", 99.0),
    ] {
        // An unsupported percentile reads 0 (see `stats::percentile`).
        put(
            name,
            stats::percentile(&latencies, p).unwrap_or(0.0),
            "ms",
            latencies.len(),
        );
    }
    let within = latencies.iter().filter(|&&l| l <= spec.slo_ms).count();
    put(
        "slo_met_share",
        within as f64 / open.len() as f64,
        "share",
        open.len(),
    );
    let closed_ok: Vec<f64> = closed
        .iter()
        .filter(|(_, r)| r.ok)
        .map(|(t, _)| t.as_secs_f64())
        .collect();
    put(
        "throughput_rps",
        closed_ok.len() as f64 / closed_ok.last().copied().unwrap_or(1.0),
        "1/s",
        closed.len(),
    );
    let ack_ms = stats::sorted(acks.iter().map(|a| a.latency_ms).collect());
    put(
        "write_ack_p50_ms",
        stats::percentile(&ack_ms, 50.0).unwrap_or(0.0),
        "ms",
        ack_ms.len(),
    );
    put(
        "write_ack_p90_ms",
        stats::percentile(&ack_ms, 90.0).unwrap_or(0.0),
        "ms",
        ack_ms.len(),
    );

    // -- client-side layer probes (traced runs; after the timed phases).
    let primary = fleet.backends[0].addr;
    if cfg.trace {
        put(
            "server.http.health_floor_us",
            round_trip_p50_us(primary, "/health", 200)?,
            "us",
            200,
        );
        put(
            "telemetry.metrics_scrape_us",
            round_trip_p50_us(primary, "/metrics", 50)?,
            "us",
            50,
        );
        let hop = match &fleet.router {
            // One cached query, routed vs. sent straight to the backend
            // the router picks for it.
            Some(router) => {
                let target = format!("/search?q={}", inputs.warm[0].text);
                let routed = round_trip_p50_us(router.addr, &target, 200)?;
                let follower = fleet.backends[1].addr;
                routed - round_trip_p50_us(follower, &target, 200)?
            }
            None => 0.0,
        };
        put("router.hop_us", hop, "us", 200);
    }
    let router_metrics = match &fleet.router {
        Some(r) => control(r.addr, "/metrics")?,
        None => String::new(),
    };

    // -- memory, disk, restarts; then the servers go away.
    let mut rss_kib = 0;
    for server in fleet.backends.iter().chain(&fleet.router) {
        rss_kib += server.peak_rss_kib()?;
    }
    put("peak_rss_mib", rss_kib as f64 / 1024.0, "mib", 0);
    let disk = fleet.data_dir.as_deref().map_or(0, procs::dir_bytes);
    put(
        "disk_bytes_per_user_byte",
        disk as f64 / corpus_bytes.max(1) as f64,
        "ratio",
        0,
    );
    let mut restarts = Vec::new();
    if spec.topology == Topology::Paged {
        let (text, want) = &reference[0];
        for rep in 0..RESTART_REPS {
            fleet.backends.clear(); // kill before respawning on the same data-dir
            let log = scratch.join(format!("restart{rep}.log"));
            let args: Vec<&str> = fleet.primary_args.iter().map(String::as_str).collect();
            let t0 = Instant::now();
            let server = Server::spawn(&cfg.banks, spec.ip, &args, &log)?;
            let target = format!("/search?q={text}");
            // Spawn → first correct answer; refused connections while the
            // process starts are expected, not failures.
            let answered = loop {
                if let Ok(r) = client::request(server.addr, &target, None, REQUEST_TIMEOUT) {
                    break r;
                }
                if t0.elapsed() > BOOT_TIMEOUT {
                    return Err(format!("restart {rep}: no answer in {BOOT_TIMEOUT:?}"));
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            restarts.push(ms(t0.elapsed()));
            checker.attempted.fetch_add(1, Ordering::Relaxed);
            let at = answered.body.find("\"answers\":").unwrap_or(0);
            if answered.status != 200 || fnv1a(&answered.body.as_bytes()[at..]) != *want {
                checker.fail(format!("restart {rep}: wrong answer for {text}"));
            }
            fleet.backends.push(server);
        }
    }
    put("restart_ms", stats::median(&restarts), "ms", restarts.len());
    drop(fleet);

    // -- per-layer numbers from the scrapes and the responses.
    let d_open = after_open.since(&before);
    let d_all = after_closed.since(&before);
    let n_open = open.len() as f64;
    let n_all = n_open + closed.len() as f64;
    let lookups = d_open.cache_hits + d_open.cache_misses;
    put(
        "server.cache.hit_ratio",
        d_open.cache_hits / lookups,
        "ratio",
        lookups as usize,
    );
    put("server.cache.evictions", d_all.cache_evictions, "count", 0);
    put(
        "server.cache.invalidations",
        d_all.cache_invalidations,
        "count",
        0,
    );
    put(
        "server.http.queue_depth_max",
        sampled.queue_depth_max,
        "count",
        0,
    );
    put("server.http.shed_total", d_all.shed, "count", 0);
    put(
        "server.http.deadline_expired_total",
        d_all.deadline_expired,
        "count",
        0,
    );
    put(
        "pager.graph.page_ins_per_query",
        d_all.graph_page_ins / n_all,
        "count",
        n_all as usize,
    );
    put(
        "pager.graph.evictions_per_query",
        d_all.graph_evictions / n_all,
        "count",
        n_all as usize,
    );
    put(
        "pager.graph.decode_us_per_query",
        d_all.graph_decode_us / n_all,
        "us",
        n_all as usize,
    );
    put(
        "pager.graph.resident_share",
        gauges.graph_resident_share,
        "share",
        0,
    );
    put(
        "pager.tuples.page_ins_per_query",
        d_all.tuple_page_ins / n_all,
        "count",
        n_all as usize,
    );
    put(
        "pager.tuples.decode_us_per_query",
        d_all.tuple_decode_us / n_all,
        "us",
        n_all as usize,
    );
    put(
        "pager.tuples.resident_mib",
        gauges.tuple_resident_bytes / 1048576.0,
        "mib",
        0,
    );
    let overshoot = if spec.topology == Topology::Paged {
        (gauges.graph_resident_bytes + gauges.tuple_resident_bytes - MEMORY_BUDGET_BYTES)
            / 1048576.0
    } else {
        0.0
    };
    put("pager.budget_overshoot_mib", overshoot, "mib", 0);
    put(
        "persist.wal_fsyncs_per_batch",
        d_all.wal_fsyncs / d_all.wal_batches,
        "count",
        d_all.wal_batches as usize,
    );

    let replies: Vec<&Reply> = open.iter().map(|s| &s.result).filter(|r| r.ok).collect();
    let n_ok = replies.len().max(1) as f64;
    let connects: Vec<f64> = replies.iter().map(|r| r.connect_us).collect();
    put(
        "server.http.connect_us",
        stats::median(&connects),
        "us",
        connects.len(),
    );
    let server_us: Vec<f64> = replies.iter().map(|r| r.server_us).collect();
    let client_p50_us = stats::median(&latencies) * 1e3;
    put(
        "server.http.overhead_us",
        client_p50_us - stats::median(&server_us),
        "us",
        server_us.len(),
    );
    // Spans describe a result's cold run; only a miss ran it during this
    // request, so hits contribute zero kernel time.
    let traced: Vec<&&Reply> = replies.iter().filter(|r| r.traced).collect();
    let n_traced = traced.len().max(1) as f64;
    let span_mean_us = |k: usize| {
        traced
            .iter()
            .filter(|r| !r.cached)
            .map(|r| r.span_ns[k] as f64 / 1e3)
            .sum::<f64>()
            / n_traced
    };
    let names = [
        "core.parse_us",
        "core.match_us",
        "core.expand_us",
        "core.score_us",
    ];
    for (k, name) in names.into_iter().enumerate() {
        put(name, span_mean_us(k), "us", traced.len());
    }
    let traced_server_us: f64 = traced.iter().map(|r| r.server_us).sum::<f64>() / n_traced;
    put(
        "core.expand_share",
        span_mean_us(2) / traced_server_us,
        "share",
        traced.len(),
    );
    // The counters ride in the cached fragment, so they describe the query
    // mix's kernel work whether or not this request was a hit.
    let sum = |f: &dyn Fn(&Reply) -> f64| replies.iter().map(|r| f(r)).sum::<f64>();
    put(
        "core.iterators_per_query",
        sum(&|r| r.iterators) / n_ok,
        "count",
        replies.len(),
    );
    put(
        "core.pops_per_query",
        sum(&|r| r.pops) / n_ok,
        "count",
        replies.len(),
    );
    put(
        "core.emitted_per_generated",
        sum(&|r| r.emitted) / sum(&|r| r.generated),
        "ratio",
        replies.len(),
    );
    put(
        "core.early_termination_share",
        sum(&|r| r.early_terminated as u8 as f64) / n_ok,
        "share",
        replies.len(),
    );

    let overhead = if cfg.trace {
        let untraced = ok_latencies(&|s| !s.result.traced);
        let traced = ok_latencies(&|s| s.result.traced);
        stats::median(&traced) / stats::median(&untraced) - 1.0
    } else {
        0.0
    };
    put(
        "telemetry.trace_overhead_share",
        overhead,
        "share",
        latencies.len(),
    );

    let lags: Vec<f64> = acks.iter().filter_map(|a| a.visible_lag_ms).collect();
    put(
        "replica.visible_lag_ms",
        stats::median(&lags),
        "ms",
        lags.len(),
    );
    put("replica.epoch_lag_max", sampled.epoch_lag_max, "count", 0);
    let routed = prom_sum(&router_metrics, "banks_router_searches_total", "");
    put(
        "router.retries_total",
        prom_sum(&router_metrics, "banks_retries_total", ""),
        "count",
        0,
    );
    put(
        "router.failovers_total",
        prom_sum(&router_metrics, "banks_router_failovers_total", ""),
        "count",
        0,
    );
    // Share of routed reads that went where cache affinity points — the
    // follower — rather than falling back to the leader.
    let to_leader = prom_sum(&router_metrics, "banks_router_leader_fallbacks_total", "");
    put(
        "router.same_backend_share",
        if routed > 0.0 {
            1.0 - to_leader / routed
        } else {
            0.0
        },
        "share",
        routed as usize,
    );

    let late = open
        .iter()
        .filter(|s| !s.backlogged && s.start_delay > LATE_TOLERANCE)
        .count();
    let backlogged = open
        .iter()
        .filter(|s| s.backlogged && s.start_delay > LATE_TOLERANCE)
        .count();
    let delays = stats::sorted(open.iter().map(|s| us(s.start_delay)).collect());
    put("gen.late_share", late as f64 / n_open, "share", open.len());
    put(
        "gen.backlog_share",
        backlogged as f64 / n_open,
        "share",
        open.len(),
    );
    put(
        "gen.late_p99_us",
        stats::percentile(&delays, 99.0).unwrap_or(0.0),
        "us",
        open.len(),
    );
    put("gen.samples", n_open, "count", 0);

    // -- in-process timers around the layers' public calls (traced runs).
    if cfg.trace {
        layer_probe(spec, cfg, &mut m)?;
    }

    // -- the instrument's own health, and what failed, on stderr.
    let not_available = checker.addr_not_available.load(Ordering::Relaxed);
    if not_available > 0 {
        eprintln!(
            "{}: {not_available} request(s) hit EADDRNOTAVAIL",
            spec.name
        );
    }
    if late as f64 / n_open > 0.01 {
        // The generator's fault, not the program's: flagged, not failed.
        eprintln!(
            "{}: WARNING generator ran late on {late} of {n_open} requests: run invalid",
            spec.name
        );
    }
    for example in checker.examples.lock().expect("examples lock").iter() {
        eprintln!("{}: FAILED {example}", spec.name);
    }
    let attempted = checker.attempted.load(Ordering::Relaxed);
    let failed = checker.failed.load(Ordering::Relaxed);
    m.push(Metric {
        name: "fail_share".to_string(),
        value: failed as f64 / attempted.max(1) as f64,
        unit: "share".to_string(),
        samples: attempted as usize,
    });
    Ok(Outcome {
        workload: spec.name,
        tuples: spec.tuples,
        attempted,
        failed,
        answers_digest: checker.digest.load(Ordering::Relaxed),
        metrics: m,
    })
}

/// Run `layerprobe` on the workload's corpus size and open-phase queries
/// and append its `name\tvalue\tunit\tsamples` lines.
fn layer_probe(spec: &Spec, cfg: &Config, metrics: &mut Vec<Metric>) -> Result<(), String> {
    let scratch = procs::fresh_dir(cfg.out.join("tmp").join(spec.name).join("probe"))?;
    let output = std::process::Command::new(&cfg.layerprobe)
        .args(["--tuples", &spec.tuples.to_string()])
        .arg("--queries")
        .arg(cfg.out.join(format!("{}.queries", spec.name)))
        .arg("--scratch")
        .arg(&scratch)
        .output()
        .map_err(|e| format!("spawn {}: {e}", cfg.layerprobe.display()))?;
    if !output.status.success() {
        return Err(format!(
            "layerprobe failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        let [name, value, unit, samples] = fields[..] else {
            return Err(format!("layerprobe: malformed line `{line}`"));
        };
        metrics.push(Metric {
            name: name.to_string(),
            value: value
                .parse()
                .map_err(|_| format!("layerprobe: bad value in `{line}`"))?,
            unit: unit.to_string(),
            samples: samples.parse().unwrap_or(0),
        });
    }
    Ok(())
}
