//! The `banks serve` subcommand: build (or restore) a snapshot, wrap it
//! in a [`QueryService`], and serve HTTP until killed.
//!
//! ```text
//! banks serve --corpus dblp --seed 1 --addr 127.0.0.1:7331 --workers 8
//! banks serve --corpus dblp --data-dir /var/lib/banks
//! ```
//!
//! With `--data-dir`, the directory becomes the server's durable home
//! (`banks-persist`): on a fresh directory the corpus is built once and
//! a full-system snapshot bundle (epoch 0) is written; every acked
//! `POST /ingest` is appended to a write-ahead log *before* it
//! publishes; and on restart the newest snapshot is loaded, the WAL
//! replayed past its epoch, and the exact pre-crash state — epoch
//! included — is served again in milliseconds. `--no-fsync` trades the
//! power-loss guarantee for ingest latency; `--compact-wal-batches`
//! tunes how often the background compactor rolls a fresh snapshot.
//!
//! `--paged` (requires `--data-dir`) serves **out of core**: the bundle
//! is opened through `banks-pager` instead of decoded into RAM — the
//! text index answers per-term reads straight off the file, and the
//! graph keeps its decoded adjacency segments under `--memory-budget`
//! bytes (default 256 MiB), paging and evicting on demand. Answers are
//! bit-identical to the in-RAM backend; `/stats` grows a `storage`
//! object with resident bytes and page-in/eviction counters.
//!
//! With `--follow LEADER:PORT` (requires `--data-dir`), the process is
//! a **follower** (`banks-replica`): it bootstraps from the leader's
//! newest snapshot bundle, tails its WAL over HTTP, serves the same
//! epochs read-only, and persists what it tails so a restart resumes
//! without re-downloading. `POST /ingest` answers `503` with the
//! leader's address; `/search?min_epoch=…` waits for replication and
//! answers `409` (plus the leader hint) past its deadline.

use banks_core::{Banks, BanksConfig, TupleGraph};
use banks_ingest::SnapshotPublisher;
use banks_persist::{PersistOptions, PersistentStore};
use banks_replica::{Replica, ReplicaConfig};
use banks_server::{BanksServer, IngestEndpoint, QueryService, ServerConfig, ServiceConfig};
use banks_util::{log_info, log_warn};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parsed `serve` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Synthetic corpus name (`dblp`, `dblp-small`, `thesis`, `tpcd`).
    pub corpus: String,
    /// Generation seed.
    pub seed: u64,
    /// Bind address.
    pub addr: String,
    /// HTTP worker threads (0 = one per core).
    pub workers: usize,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Result-cache shard count.
    pub cache_shards: usize,
    /// Durable data directory (snapshot bundles + WAL; `banks-persist`).
    pub data_dir: Option<PathBuf>,
    /// Skip the per-append WAL fsync (survives process death, not power
    /// loss).
    pub no_fsync: bool,
    /// Roll a snapshot once this many batches sit in the WAL.
    pub compact_wal_batches: u64,
    /// Serve out of core: open the snapshot bundle paged (requires
    /// `--data-dir`).
    pub paged: bool,
    /// Decoded-graph-segment budget in bytes for `--paged`.
    pub memory_budget: u64,
    /// Disable the write path (`POST /ingest` answers 503).
    pub no_ingest: bool,
    /// Follower mode: tail this leader (`banks-replica`); requires
    /// `--data-dir`.
    pub follow: Option<String>,
    /// Deadline budget for requests without `X-Banks-Deadline-Ms`
    /// (`--default-deadline-ms`); `None` leaves unannotated requests
    /// unbounded.
    pub default_deadline_ms: Option<u64>,
    /// Cap on client-supplied deadline budgets (`--max-deadline-ms`).
    pub max_deadline_ms: u64,
    /// Hard cap on a `POST /ingest` body (`--max-body-bytes`; accepts
    /// `k`/`m`/`g` suffixes).
    pub max_body_bytes: u64,
    /// Per-client token-bucket rate limit in requests/second
    /// (`--rate-limit-rps`); `None` disables limiting.
    pub rate_limit_rps: Option<f64>,
    /// Queue-wait bound before a connection is shed with 503
    /// (`--shed-after-ms`).
    pub shed_after_ms: u64,
    /// Budget for reading the request line + headers
    /// (`--header-read-timeout-ms`); cuts off slowloris clients.
    pub header_read_timeout_ms: u64,
    /// Log verbosity override (`error|warn|info|debug`); defaults to
    /// the `BANKS_LOG` environment variable, then `info`.
    pub log_level: Option<banks_util::log::Level>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            corpus: "dblp".to_string(),
            seed: 1,
            addr: "127.0.0.1:7331".to_string(),
            workers: 0,
            cache_capacity: 4096,
            cache_shards: 8,
            data_dir: None,
            no_fsync: false,
            compact_wal_batches: PersistOptions::default().compact_wal_batches,
            paged: false,
            memory_budget: 256 * 1024 * 1024,
            no_ingest: false,
            follow: None,
            default_deadline_ms: server_defaults().default_deadline_ms,
            max_deadline_ms: server_defaults().max_deadline_ms,
            max_body_bytes: server_defaults().max_body_bytes,
            rate_limit_rps: server_defaults().rate_limit_rps,
            shed_after_ms: server_defaults().shed_after.as_millis() as u64,
            header_read_timeout_ms: server_defaults().header_read_timeout.as_millis() as u64,
            log_level: None,
        }
    }
}

/// The server crate's own defaults — the CLI mirrors them instead of
/// restating the numbers, so the two can never drift apart.
fn server_defaults() -> ServerConfig {
    ServerConfig::default()
}

impl ServeArgs {
    /// Parse `--flag value` pairs (everything after `banks serve`).
    pub fn parse(args: &[String]) -> Result<ServeArgs, String> {
        let mut parsed = ServeArgs::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--corpus" => parsed.corpus = value("--corpus")?,
                "--seed" => {
                    parsed.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed must be an integer".to_string())?
                }
                "--addr" => parsed.addr = value("--addr")?,
                "--workers" => {
                    parsed.workers = value("--workers")?
                        .parse()
                        .map_err(|_| "--workers must be an integer".to_string())?
                }
                "--cache-capacity" => {
                    parsed.cache_capacity = value("--cache-capacity")?
                        .parse()
                        .map_err(|_| "--cache-capacity must be an integer".to_string())?
                }
                "--cache-shards" => {
                    parsed.cache_shards = value("--cache-shards")?
                        .parse()
                        .map_err(|_| "--cache-shards must be an integer".to_string())?
                }
                // Kept so scripts that pass `--search-threads 1` still
                // start; it sets nothing.
                "--search-threads" => {
                    let raw = value("--search-threads")?;
                    if raw != "1" {
                        return Err(format!(
                            "--search-threads {raw}: intra-query parallelism was removed; \
                             every query runs on one thread (only `1` is accepted)"
                        ));
                    }
                }
                "--data-dir" => parsed.data_dir = Some(PathBuf::from(value("--data-dir")?)),
                "--no-fsync" => parsed.no_fsync = true,
                "--compact-wal-batches" => {
                    parsed.compact_wal_batches = value("--compact-wal-batches")?
                        .parse()
                        .map_err(|_| "--compact-wal-batches must be an integer".to_string())?
                }
                "--paged" => parsed.paged = true,
                "--memory-budget" => {
                    parsed.memory_budget = parse_byte_size(&value("--memory-budget")?)?
                }
                "--no-ingest" => parsed.no_ingest = true,
                "--follow" => parsed.follow = Some(value("--follow")?),
                "--default-deadline-ms" => {
                    parsed.default_deadline_ms = Some(
                        value("--default-deadline-ms")?
                            .parse()
                            .map_err(|_| "--default-deadline-ms must be an integer".to_string())?,
                    )
                }
                "--max-deadline-ms" => {
                    parsed.max_deadline_ms = value("--max-deadline-ms")?
                        .parse()
                        .map_err(|_| "--max-deadline-ms must be an integer".to_string())?
                }
                "--max-body-bytes" => {
                    parsed.max_body_bytes = parse_byte_size(&value("--max-body-bytes")?)?
                }
                "--rate-limit-rps" => {
                    let raw = value("--rate-limit-rps")?;
                    let rps: f64 = raw
                        .parse()
                        .map_err(|_| "--rate-limit-rps must be a number".to_string())?;
                    if !rps.is_finite() || rps <= 0.0 {
                        return Err("--rate-limit-rps must be positive".to_string());
                    }
                    parsed.rate_limit_rps = Some(rps);
                }
                "--shed-after-ms" => {
                    parsed.shed_after_ms = value("--shed-after-ms")?
                        .parse()
                        .map_err(|_| "--shed-after-ms must be an integer".to_string())?
                }
                "--header-read-timeout-ms" => {
                    parsed.header_read_timeout_ms = value("--header-read-timeout-ms")?
                        .parse()
                        .map_err(|_| "--header-read-timeout-ms must be an integer".to_string())?
                }
                "--log-level" => {
                    let raw = value("--log-level")?;
                    parsed.log_level =
                        Some(banks_util::log::Level::parse(&raw).ok_or_else(|| {
                            format!("--log-level must be error|warn|info|debug, got `{raw}`")
                        })?)
                }
                other => return Err(format!("unknown serve flag `{other}` — see `banks help`")),
            }
        }
        if parsed.paged && parsed.data_dir.is_none() {
            return Err(
                "--paged requires --data-dir (it serves straight off the snapshot bundle file)"
                    .to_string(),
            );
        }
        Ok(parsed)
    }
}

/// Parse a byte size: a plain integer, or one with a `k`/`m`/`g` suffix
/// (binary units, case-insensitive) — `--memory-budget 64m`.
fn parse_byte_size(s: &str) -> Result<u64, String> {
    let lower = s.trim().to_ascii_lowercase();
    let (digits, shift) = match lower.as_bytes().last() {
        Some(b'k') => (&lower[..lower.len() - 1], 10),
        Some(b'm') => (&lower[..lower.len() - 1], 20),
        Some(b'g') => (&lower[..lower.len() - 1], 30),
        _ => (lower.as_str(), 0),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("`{s}` is not a byte size (use e.g. 268435456, 256m, 1g)"))?;
    n.checked_shl(shift)
        .filter(|&v| shift == 0 || v >> shift == n)
        .ok_or_else(|| format!("`{s}` overflows"))
}

/// The durable half of a built service: the publisher (seeded at the
/// recovered epoch, WAL hook installed) and the store it writes to.
pub struct DurableParts {
    /// Ready-to-use publisher for the ingest endpoint.
    pub publisher: SnapshotPublisher,
    /// The open data directory.
    pub store: Arc<PersistentStore>,
}

/// Build the shared snapshot + service per the arguments. Returns the
/// service, a human-readable startup summary, and — when `--data-dir`
/// is active — the durable parts for the ingest endpoint.
pub fn build_service(
    args: &ServeArgs,
) -> Result<(Arc<QueryService>, String, Option<DurableParts>), String> {
    let config = BanksConfig::default();
    let service_config = ServiceConfig {
        cache_capacity: args.cache_capacity,
        cache_shards: args.cache_shards,
        ..ServiceConfig::default()
    };

    let mut phases = Phases::default();
    if let Some(dir) = &args.data_dir {
        let options = PersistOptions {
            fsync: !args.no_fsync,
            compact_wal_batches: args.compact_wal_batches,
            paged_budget: args.paged.then_some(args.memory_budget),
            ..PersistOptions::default()
        };
        let (store, recovery) = PersistentStore::open(dir, &config, options)
            .map_err(|e| format!("open data dir {}: {e}", dir.display()))?;
        for warning in &recovery.warnings {
            log_warn!("serve", "{warning}");
        }
        let (banks, epoch, source) = match recovery.banks {
            Some(banks) => {
                let source = format!(
                    "recovered from {} (epoch {}, {} WAL batch(es) replayed{})",
                    dir.display(),
                    recovery.epoch,
                    recovery.replayed_batches,
                    if recovery.truncated_wal_bytes > 0 {
                        format!(", {} torn byte(s) truncated", recovery.truncated_wal_bytes)
                    } else {
                        String::new()
                    }
                );
                (banks, recovery.epoch, source)
            }
            None => {
                let built = build_from_corpus(args, &config, &mut phases)?;
                phases
                    .time("bundle save", || store.save_snapshot(&built, 0))
                    .map_err(|e| format!("initial snapshot: {e}"))?;
                let banks = if args.paged {
                    // Swap the freshly built in-RAM state for a paged
                    // open of the bundle just written — the build was
                    // unavoidable (something had to derive the graph),
                    // but serving stays under the memory budget. The
                    // eager build is freed first, so the reopen and
                    // everything after it reuse its heap instead of
                    // sitting above it.
                    drop(built);
                    let path = dir.join(banks_persist::snapshot_file(0));
                    let (paged, _) = phases
                        .time("paged reopen", || {
                            banks_persist::open_bundle_paged(
                                &path,
                                args.memory_budget as usize,
                                &config,
                            )
                        })
                        .map_err(|e| format!("paged reopen of {}: {e}", path.display()))?;
                    paged
                } else {
                    built
                };
                (
                    Arc::new(banks),
                    0,
                    format!(
                        "built from database (initial bundle saved to {})",
                        dir.display()
                    ),
                )
            }
        };
        let summary = summary_line(args, &banks, &source, &phases);
        let service = Arc::new(QueryService::with_epoch(
            Arc::clone(&banks),
            epoch,
            service_config,
        ));
        let mut publisher = SnapshotPublisher::with_epoch(banks, epoch);
        publisher.set_durability_hook(store.wal_hook());
        return Ok((service, summary, Some(DurableParts { publisher, store })));
    }

    // Volatile mode: build from the corpus, serve from RAM.
    let banks = build_from_corpus(args, &config, &mut phases)?;
    let summary = summary_line(args, &banks, "built from database", &phases);
    let service = Arc::new(QueryService::new(Arc::new(banks), service_config));
    Ok((service, summary, None))
}

/// Assemble the server's config from the parsed flags.
fn server_config(args: &ServeArgs, leader_hint: Option<String>) -> ServerConfig {
    let defaults = ServerConfig::default();
    ServerConfig {
        addr: args.addr.clone(),
        workers: if args.workers == 0 {
            defaults.workers
        } else {
            args.workers
        },
        leader_hint,
        max_body_bytes: args.max_body_bytes,
        default_deadline_ms: args.default_deadline_ms,
        max_deadline_ms: args.max_deadline_ms,
        shed_after: Duration::from_millis(args.shed_after_ms),
        rate_limit_rps: args.rate_limit_rps,
        header_read_timeout: Duration::from_millis(args.header_read_timeout_ms),
        ..defaults
    }
}

/// Wall-clock time of each cold-start phase, in order, for the startup
/// summary.
#[derive(Debug, Default)]
struct Phases(Vec<(&'static str, Duration)>);

impl Phases {
    /// Run `f` as the phase `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.0.push((name, start.elapsed()));
        out
    }
}

/// Load the corpus, derive the data graph, and index its text — the
/// three phases of a cold build, timed apart.
fn build_from_corpus(
    args: &ServeArgs,
    config: &BanksConfig,
    phases: &mut Phases,
) -> Result<Banks, String> {
    let db = phases.time("load", || crate::corpus::open(&args.corpus, args.seed))?;
    let graph = phases
        .time("graph", || TupleGraph::build(&db, &config.graph))
        .map_err(|e| e.to_string())?;
    phases
        .time("text index", || {
            Banks::with_graph(db, config.clone(), graph)
        })
        .map_err(|e| e.to_string())
}

fn summary_line(args: &ServeArgs, banks: &Banks, source: &str, phases: &Phases) -> String {
    let backend = if args.paged {
        format!(
            " — paged backend, budget {:.0} MiB",
            args.memory_budget as f64 / (1024.0 * 1024.0)
        )
    } else {
        String::new()
    };
    let cold_start = if phases.0.is_empty() {
        String::new()
    } else {
        let list: Vec<String> = phases
            .0
            .iter()
            .map(|(name, took)| format!("{name} {:.1} ms", took.as_secs_f64() * 1e3))
            .collect();
        format!("; cold start: {}", list.join(", "))
    };
    format!(
        "corpus {} (seed {}): {} nodes, {} edges, {:.1} MiB graph + text index — graph {}{backend}{cold_start}",
        args.corpus,
        args.seed,
        banks.tuple_graph().node_count(),
        banks.tuple_graph().graph().edge_count(),
        banks.memory_bytes() as f64 / (1024.0 * 1024.0),
        source,
    )
}

/// Start the HTTP server for the given arguments. Returns the running
/// server so callers (tests, embedding processes) control its lifetime.
/// A third tuple element keeps follower mode's tail thread alive: drop
/// it and the follower stops replicating.
pub fn start(
    args: &ServeArgs,
) -> Result<(Arc<QueryService>, BanksServer, Option<Replica>), String> {
    if let Some(level) = args.log_level {
        banks_util::log::set_level(level);
    }
    if args.follow.is_some() {
        return start_follower(args);
    }
    let (service, summary, durable) = build_service(args)?;
    let durable_on = durable.is_some();
    // The store outlives the ingest decision: a durable *read-only*
    // server (`--data-dir --no-ingest`) still surfaces its recovery
    // counters under `/stats`, it just drops the write path.
    let (ingest, store) = match (args.no_ingest, durable) {
        (true, parts) => (None, parts.map(|p| p.store)),
        (false, Some(parts)) => {
            let store = Arc::clone(&parts.store);
            (
                Some(IngestEndpoint::with_publisher(
                    Arc::clone(&service),
                    parts.publisher,
                    Some(parts.store),
                )),
                Some(store),
            )
        }
        (false, None) => (Some(IngestEndpoint::new(Arc::clone(&service))), None),
    };
    let config = server_config(args, None);
    let workers = config.workers;
    let server = BanksServer::bind(Arc::clone(&service), ingest, store, None, config)
        .map_err(|e| format!("bind {}: {e}", args.addr))?;
    log_info!("serve", "{summary}");
    log_info!(
        "serve",
        "serving on http://{} ({} workers, cache {} entries × {} shards)",
        server.local_addr(),
        workers,
        service.cache().capacity(),
        service.cache().shard_count(),
    );
    if args.no_ingest {
        log_info!(
            "serve",
            "endpoints: /search?q=…  /node?id=…  /stats  /metrics  /epochs  /health (ingest disabled)"
        );
    } else if durable_on {
        log_info!(
            "serve",
            "endpoints: /search?q=…  /node?id=…  /stats  /metrics  /epochs  /health  POST /ingest \
             (live writes on, WAL'd to disk)"
        );
    } else {
        log_info!(
            "serve",
            "endpoints: /search?q=…  /node?id=…  /stats  /metrics  /epochs  /health  POST /ingest (live writes on)"
        );
    }
    Ok((service, server, None))
}

/// Follower mode: bootstrap-or-resume from `--data-dir`, tail the
/// leader's WAL, and serve read-only with the leader advertised for
/// writes and read-your-writes redirects.
fn start_follower(
    args: &ServeArgs,
) -> Result<(Arc<QueryService>, BanksServer, Option<Replica>), String> {
    let leader = args.follow.clone().expect("follower mode");
    let dir = args.data_dir.clone().ok_or_else(|| {
        "--follow requires --data-dir (the follower persists the snapshot and WAL it tails)"
            .to_string()
    })?;
    if args.no_ingest {
        log_warn!(
            "serve",
            "--no-ingest is implied by --follow (followers never ingest)"
        );
    }
    let service_config = ServiceConfig {
        cache_capacity: args.cache_capacity,
        cache_shards: args.cache_shards,
        ..ServiceConfig::default()
    };
    let replica = Replica::start(
        ReplicaConfig {
            leader: leader.clone(),
            data_dir: dir,
            options: PersistOptions {
                fsync: !args.no_fsync,
                compact_wal_batches: args.compact_wal_batches,
                paged_budget: args.paged.then_some(args.memory_budget),
                ..PersistOptions::default()
            },
            ..ReplicaConfig::default()
        },
        service_config,
    )
    .map_err(|e| format!("follow {leader}: {e}"))?;
    let service = replica.service();
    // The follower's replication counters ride on the same registry as
    // the serving families, so one scrape of this process sees both.
    let registry = Arc::new(banks_telemetry::Registry::new());
    replica.install_metrics(&registry);
    let server = BanksServer::bind(
        Arc::clone(&service),
        None,
        Some(replica.store()),
        Some(registry),
        server_config(args, Some(leader.clone())),
    )
    .map_err(|e| format!("bind {}: {e}", args.addr))?;
    let downloaded = replica.stats().snapshots_downloaded > 0;
    log_info!(
        "serve",
        "following {leader} from epoch {} ({}) — serving read-only on http://{}",
        service.epoch(),
        if downloaded {
            "bootstrapped from leader snapshot"
        } else {
            "resumed from local state"
        },
        server.local_addr(),
    );
    Ok((service, server, Some(replica)))
}

/// Foreground entry point for `banks serve`: serve until the process is
/// killed.
pub fn run(args: &[String]) -> Result<(), String> {
    let args = ServeArgs::parse(args)?;
    let (_service, server, replica) = start(&args)?;
    server.join();
    drop(replica); // stop tailing only after the server is down
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("banks_serve_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn parse_defaults_and_overrides() {
        assert_eq!(ServeArgs::parse(&[]).unwrap(), ServeArgs::default());
        let args = ServeArgs::parse(&strings(&[
            "--corpus",
            "thesis",
            "--seed",
            "7",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "3",
            "--cache-capacity",
            "128",
            "--cache-shards",
            "2",
            "--data-dir",
            "/tmp/banks-data",
            "--no-fsync",
            "--compact-wal-batches",
            "32",
        ]))
        .unwrap();
        assert_eq!(args.corpus, "thesis");
        assert_eq!(args.seed, 7);
        assert_eq!(args.addr, "127.0.0.1:0");
        assert_eq!(args.workers, 3);
        assert_eq!(args.cache_capacity, 128);
        assert_eq!(args.cache_shards, 2);
        // `--search-threads 1` is still accepted and changes nothing;
        // any other value names the removal.
        assert_eq!(
            ServeArgs::parse(&strings(&["--search-threads", "1"])).unwrap(),
            ServeArgs::default()
        );
        let err = ServeArgs::parse(&strings(&["--search-threads", "4"])).unwrap_err();
        assert!(err.contains("intra-query parallelism was removed"), "{err}");
        assert_eq!(
            args.data_dir.as_deref(),
            Some(std::path::Path::new("/tmp/banks-data"))
        );
        assert!(args.no_fsync);
        assert_eq!(args.compact_wal_batches, 32);
        assert!(!args.no_ingest);
        assert!(
            ServeArgs::parse(&strings(&["--no-ingest"]))
                .unwrap()
                .no_ingest
        );
        let paged = ServeArgs::parse(&strings(&[
            "--data-dir",
            "/tmp/x",
            "--paged",
            "--memory-budget",
            "64m",
        ]))
        .unwrap();
        assert!(paged.paged);
        assert_eq!(paged.memory_budget, 64 << 20);
        assert_eq!(parse_byte_size("123").unwrap(), 123);
        assert_eq!(parse_byte_size("2G").unwrap(), 2 << 30);
        assert!(parse_byte_size("lots").is_err());
        // --paged without a data dir is refused at parse time.
        assert!(ServeArgs::parse(&strings(&["--paged"])).is_err());
        assert_eq!(
            ServeArgs::parse(&strings(&["--follow", "127.0.0.1:7331"]))
                .unwrap()
                .follow
                .as_deref(),
            Some("127.0.0.1:7331")
        );
    }

    #[test]
    fn parse_overload_control_flags() {
        let args = ServeArgs::parse(&strings(&[
            "--default-deadline-ms",
            "250",
            "--max-deadline-ms",
            "2000",
            "--max-body-bytes",
            "1m",
            "--rate-limit-rps",
            "50",
            "--shed-after-ms",
            "100",
            "--header-read-timeout-ms",
            "500",
        ]))
        .unwrap();
        assert_eq!(args.default_deadline_ms, Some(250));
        assert_eq!(args.max_deadline_ms, 2000);
        assert_eq!(args.max_body_bytes, 1 << 20);
        assert_eq!(args.rate_limit_rps, Some(50.0));
        assert_eq!(args.shed_after_ms, 100);
        assert_eq!(args.header_read_timeout_ms, 500);
        let config = server_config(&args, None);
        assert_eq!(config.default_deadline_ms, Some(250));
        assert_eq!(config.max_deadline_ms, 2000);
        assert_eq!(config.max_body_bytes, 1 << 20);
        assert_eq!(config.rate_limit_rps, Some(50.0));
        assert_eq!(config.shed_after, Duration::from_millis(100));
        assert_eq!(config.header_read_timeout, Duration::from_millis(500));
        // Defaults mirror the server crate's own.
        let defaults = ServeArgs::default();
        assert_eq!(
            defaults.max_body_bytes,
            ServerConfig::default().max_body_bytes
        );
        assert_eq!(defaults.rate_limit_rps, None);
        // Bad values are refused with a flag-specific message.
        assert!(ServeArgs::parse(&strings(&["--rate-limit-rps", "0"])).is_err());
        assert!(ServeArgs::parse(&strings(&["--rate-limit-rps", "x"])).is_err());
        assert!(ServeArgs::parse(&strings(&["--default-deadline-ms", "x"])).is_err());
        assert!(ServeArgs::parse(&strings(&["--max-body-bytes", "lots"])).is_err());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(ServeArgs::parse(&strings(&["--seed"])).is_err());
        assert!(ServeArgs::parse(&strings(&["--seed", "x"])).is_err());
        assert!(ServeArgs::parse(&strings(&["--compact-wal-batches", "x"])).is_err());
        assert!(ServeArgs::parse(&strings(&["--wat"])).is_err());
        assert!(build_service(&ServeArgs {
            corpus: "wat".into(),
            ..ServeArgs::default()
        })
        .is_err());
        // Follower mode without a data directory is refused up front.
        match start(&ServeArgs {
            follow: Some("127.0.0.1:1".into()),
            ..ServeArgs::default()
        }) {
            Err(err) => assert!(err.contains("--data-dir"), "{err}"),
            Ok(_) => panic!("follower mode without --data-dir must fail"),
        }
    }

    #[test]
    fn paged_serve_matches_in_ram_answers() {
        let dir = tmp_dir("paged");
        let base = ServeArgs {
            corpus: "dblp".into(),
            data_dir: Some(dir.clone()),
            ..ServeArgs::default()
        };
        // Cold start in-RAM: builds the corpus and writes the bundle.
        let (in_ram, _, durable) = build_service(&base).unwrap();
        let expected = in_ram.search("mohan", Default::default()).unwrap();
        drop(durable);
        drop(in_ram);
        // Reopen the same directory paged, under a small budget.
        let args = ServeArgs {
            paged: true,
            memory_budget: 1 << 20,
            ..base
        };
        let (paged, summary, durable) = build_service(&args).unwrap();
        assert!(summary.contains("paged backend"), "{summary}");
        // A restart recovers the bundle: nothing is built, so no phases.
        assert!(!summary.contains("cold start"), "{summary}");
        assert!(durable.is_some());
        let got = paged.search("mohan", Default::default()).unwrap();
        assert_eq!(expected.result.answers.len(), got.result.answers.len());
        for (a, b) in expected.result.answers.iter().zip(&got.result.answers) {
            assert_eq!(a.tree.signature(), b.tree.signature());
        }
        drop(durable);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paged_cold_start_reports_every_phase() {
        let dir = tmp_dir("paged_cold");
        let args = ServeArgs {
            corpus: "dblp".into(),
            data_dir: Some(dir.clone()),
            paged: true,
            memory_budget: 1 << 20,
            ..ServeArgs::default()
        };
        let (service, summary, durable) = build_service(&args).unwrap();
        let phases = summary.split_once("; cold start: ").expect(&summary).1;
        let names: Vec<&str> = phases
            .split(", ")
            .map(|phase| phase.rsplitn(3, ' ').nth(2).expect(phase))
            .collect();
        assert_eq!(
            names,
            ["load", "graph", "text index", "bundle save", "paged reopen"],
            "{summary}"
        );
        assert!(!service
            .search("mohan", Default::default())
            .unwrap()
            .result
            .answers
            .is_empty());
        drop(durable);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn data_dir_cold_start_then_recovery() {
        let dir = tmp_dir("datadir");
        let args = ServeArgs {
            corpus: "dblp".into(),
            data_dir: Some(dir.clone()),
            ..ServeArgs::default()
        };
        // Cold start: builds and writes the initial bundle.
        let (service, summary, durable) = build_service(&args).unwrap();
        assert!(summary.contains("initial bundle saved"), "{summary}");
        assert!(summary.contains("MiB graph + text index"), "{summary}");
        assert!(
            summary.contains("; cold start: load ")
                && summary.contains(" ms, graph ")
                && summary.contains(" ms, text index ")
                && summary.contains(" ms, bundle save ")
                && !summary.contains("paged reopen"),
            "{summary}"
        );
        let parts = durable.expect("durable parts");
        assert_eq!(parts.publisher.epoch(), 0);
        assert_eq!(service.epoch(), 0);
        let cold = service.search("mohan", Default::default()).unwrap();
        drop(parts);
        drop(service);

        // Restart: recovered from the bundle, identical answers.
        let (service2, summary2, durable2) = build_service(&args).unwrap();
        assert!(summary2.contains("recovered from"), "{summary2}");
        assert!(durable2.is_some());
        let warm = service2.search("mohan", Default::default()).unwrap();
        assert_eq!(cold.result.answers.len(), warm.result.answers.len());
        for (a, b) in cold.result.answers.iter().zip(&warm.result.answers) {
            assert_eq!(a.tree.signature(), b.tree.signature());
        }
        drop(durable2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_read_only_server_reports_persistence_stats() {
        use std::io::{Read, Write};

        let dir = tmp_dir("ro_stats");
        // Seed the directory with a recoverable state.
        {
            let args = ServeArgs {
                corpus: "dblp".into(),
                data_dir: Some(dir.clone()),
                ..ServeArgs::default()
            };
            build_service(&args).unwrap();
        }
        // Durable read-only: no ingest endpoint, but /stats must still
        // carry the recovery counters.
        let args = ServeArgs {
            corpus: "dblp".into(),
            data_dir: Some(dir.clone()),
            no_ingest: true,
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServeArgs::default()
        };
        let (_service, server, _replica) = start(&args).unwrap();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.contains(r#""persistence""#), "{body}");
        assert!(body.contains(r#""recovered_epoch":0"#), "{body}");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn start_binds_ephemeral_port() {
        let args = ServeArgs {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServeArgs::default()
        };
        let (service, server, replica) = start(&args).unwrap();
        assert!(replica.is_none());
        assert_ne!(server.local_addr().port(), 0);
        assert_eq!(service.stats().queries, 0);
        server.shutdown();
    }
}
