//! # banks-replica
//!
//! WAL-shipping replication: run a **follower** that serves the same
//! epochs as a leader `banks serve --data-dir` process, fed entirely
//! over the leader's ordinary HTTP surface.
//!
//! The paper's BANKS is a single-process research prototype; the PR-3
//! durability layer already pinned down the two artifacts a replica
//! needs — a full-system **snapshot bundle** and a checksummed,
//! epoch-stamped **write-ahead log** — and this crate ships both across
//! the network *verbatim*:
//!
//! 1. **Bootstrap** — a fresh follower streams the leader's newest
//!    bundle (`GET /replication/snapshot`) straight to a temp file in
//!    its data directory — never buffered in memory, so a follower
//!    under a `--paged` memory budget can bootstrap from a bundle
//!    bigger than that budget — peeks the epoch out of the meta
//!    section, renames it to the exact `snapshot-<epoch>` name local
//!    recovery expects, and opens it with the same
//!    [`banks_persist::load_bundle`] / [`banks_persist::open_bundle_paged`]
//!    used by local recovery. A follower whose directory already
//!    recovers simply resumes from the local epoch — no download (see
//!    [`ReplicaStats::snapshots_downloaded`]).
//! 2. **Tail** — a long-poll loop on
//!    `GET /replication/wal?from_epoch=N&wait_ms=M` streams raw WAL
//!    frames (the on-disk byte format, unmodified). Bodies are parsed
//!    with [`banks_persist::scan_frames`] — the exact decoder recovery
//!    uses — and each batch replays through an ordinary
//!    [`SnapshotPublisher`] whose durability hook appends to the
//!    *follower's* WAL. Epochs, caches, `/stats`, and ranked answers
//!    therefore behave bit-identically to the leader, and a follower
//!    restart recovers from its own directory and resumes tailing
//!    where it left off.
//! 3. **Re-bootstrap** — if the leader compacted past the follower's
//!    epoch it answers `410 Gone`; the follower downloads a fresh
//!    bundle and swaps it in, atomically from the reader's view.
//!
//! Every `/replication/*` response carries the leader's durable epoch
//! in an `X-Banks-Epoch` header; the follower mirrors it into
//! [`banks_server::QueryService::note_leader_epoch`] so `/stats`
//! reports `epoch_lag` even while the log is idle.

#![forbid(unsafe_code)]

use banks_core::{Banks, BanksConfig};
use banks_ingest::SnapshotPublisher;
use banks_persist::{
    load_bundle, open_bundle_paged, peek_epoch, scan_frames, snapshot_file, PersistOptions,
    PersistentStore,
};
use banks_server::{QueryService, ServiceConfig};
use banks_util::http::{http_request, http_request_to_writer, ClientError, HttpResponse};
use banks_util::retry::{Outcome, RetryPolicy};
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How a follower connects to and paces its leader.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Leader base address (`host:port`; an `http://` prefix is fine).
    pub leader: String,
    /// The follower's own durable directory (bundle + tailed WAL).
    pub data_dir: PathBuf,
    /// Long-poll window passed as `wait_ms` on the WAL feed. The leader
    /// parks the request until an epoch lands or the window expires, so
    /// this is the idle-traffic knob, not a latency one.
    pub poll_wait_ms: u64,
    /// Base backoff after a leader error; doubles per consecutive
    /// failure, capped at `MAX_BACKOFF`.
    pub retry_backoff: Duration,
    /// Bootstrap attempts before `start` gives up (the leader may still
    /// be coming up when the follower starts).
    pub bootstrap_attempts: u32,
    /// Durability options for the follower's own store.
    pub options: PersistOptions,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            leader: "127.0.0.1:7331".to_string(),
            data_dir: PathBuf::from("banks-follower"),
            poll_wait_ms: 10_000,
            retry_backoff: Duration::from_millis(200),
            bootstrap_attempts: 20,
            options: PersistOptions::default(),
        }
    }
}

/// Slack added on top of the poll window for the request timeout.
const REQUEST_SLACK: Duration = Duration::from_secs(5);

/// Timeout for a snapshot download (bundles are big).
const SNAPSHOT_TIMEOUT: Duration = Duration::from_secs(30);

/// Ceiling for the doubling retry backoff.
pub(crate) const MAX_BACKOFF: Duration = Duration::from_secs(5);

/// Why a follower could not start (the tail loop itself never dies —
/// it retries, re-bootstraps, or waits for shutdown).
#[derive(Debug)]
pub enum ReplicaError {
    /// The leader was unreachable or answered garbage during bootstrap.
    Leader(String),
    /// The local data directory failed.
    Persist(banks_persist::PersistError),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Leader(msg) => write!(f, "leader: {msg}"),
            ReplicaError::Persist(e) => write!(f, "data dir: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<banks_persist::PersistError> for ReplicaError {
    fn from(e: banks_persist::PersistError) -> Self {
        ReplicaError::Persist(e)
    }
}

/// Point-in-time replication counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Bundles fetched over HTTP (bootstrap + re-bootstraps). A restart
    /// that resumes from local state does **not** increment this.
    pub snapshots_downloaded: u64,
    /// WAL batches replayed off the feed.
    pub batches_applied: u64,
    /// Raw frame bytes received on the feed.
    pub frame_bytes: u64,
    /// 410-triggered (or divergence-triggered) full re-bootstraps.
    pub rebootstraps: u64,
    /// Failed leader requests (connect, timeout, non-200 statuses).
    pub leader_errors: u64,
    /// Backoff windows slept under the shared retry policy (bootstrap
    /// retries + tail-loop error naps).
    pub retries: u64,
    /// The follower's current serving epoch.
    pub epoch: u64,
    /// The leader's durable epoch as last observed, if ever.
    pub leader_epoch: Option<u64>,
    /// Most recent leader/apply error, for operators.
    pub last_error: Option<String>,
}

/// Counters + shutdown flag shared with the tail thread.
#[derive(Default)]
struct Shared {
    shutdown: AtomicBool,
    snapshots_downloaded: AtomicU64,
    batches_applied: AtomicU64,
    frame_bytes: AtomicU64,
    rebootstraps: AtomicU64,
    leader_errors: AtomicU64,
    retries: AtomicU64,
    last_error: Mutex<Option<String>>,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn note_error(&self, msg: String) {
        self.leader_errors.fetch_add(1, Ordering::Relaxed);
        *self.last_error.lock().expect("last error lock") = Some(msg);
    }

    /// Shutdown-aware sleep: naps in short slices so `shutdown()` never
    /// waits out a full backoff.
    fn pause(&self, duration: Duration) {
        let mut left = duration;
        while !self.is_shutdown() && !left.is_zero() {
            let nap = left.min(Duration::from_millis(50));
            std::thread::sleep(nap);
            left = left.saturating_sub(nap);
        }
    }
}

/// A running follower: its query service (serve it, search it) plus the
/// background tail thread. Dropping it stops the thread.
pub struct Replica {
    service: Arc<QueryService>,
    store: Arc<PersistentStore>,
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Replica {
    /// Bootstrap (or resume) a follower and start tailing the leader.
    ///
    /// Blocks until the follower has a serveable snapshot: either the
    /// local directory recovered one, or a bundle was downloaded from
    /// the leader (retried `bootstrap_attempts` times — the leader may
    /// still be binding when the follower starts).
    pub fn start(
        config: ReplicaConfig,
        service_config: ServiceConfig,
    ) -> Result<Replica, ReplicaError> {
        let base = BanksConfig::default();
        let shared = Arc::new(Shared::default());
        let (store, recovery) =
            PersistentStore::open(&config.data_dir, &base, config.options.clone())?;
        let (banks, epoch) = match recovery.banks {
            // Local state wins: resume tailing from the recovered epoch
            // without touching the leader.
            Some(banks) => (banks, recovery.epoch),
            None => {
                let (temp, epoch) = fetch_bundle_with_retry(&config, &shared)?;
                let banks = install_bundle(&temp, epoch, &config, &base, &store)
                    .map_err(ReplicaError::Leader)?;
                shared.snapshots_downloaded.fetch_add(1, Ordering::Relaxed);
                (banks, epoch)
            }
        };

        let service = Arc::new(QueryService::with_epoch(
            Arc::clone(&banks),
            epoch,
            service_config,
        ));
        let mut publisher = SnapshotPublisher::with_epoch(banks, epoch);
        publisher.set_durability_hook(store.wal_hook());

        let handle = {
            let config = config.clone();
            let shared = Arc::clone(&shared);
            let store = Arc::clone(&store);
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name("banks-replica-tail".to_string())
                .spawn(move || tail_loop(&config, &base, &store, &service, publisher, &shared))
                .expect("spawn tail thread")
        };

        Ok(Replica {
            service,
            store,
            shared,
            handle: Some(handle),
        })
    }

    /// The query service fed by the tail loop — hand it to
    /// [`banks_server::BanksServer`] to serve reads.
    pub fn service(&self) -> Arc<QueryService> {
        Arc::clone(&self.service)
    }

    /// The follower's own durable store (for `/stats` wiring).
    pub fn store(&self) -> Arc<PersistentStore> {
        Arc::clone(&self.store)
    }

    /// Snapshot of the replication counters.
    pub fn stats(&self) -> ReplicaStats {
        ReplicaStats {
            snapshots_downloaded: self.shared.snapshots_downloaded.load(Ordering::Relaxed),
            batches_applied: self.shared.batches_applied.load(Ordering::Relaxed),
            frame_bytes: self.shared.frame_bytes.load(Ordering::Relaxed),
            rebootstraps: self.shared.rebootstraps.load(Ordering::Relaxed),
            leader_errors: self.shared.leader_errors.load(Ordering::Relaxed),
            retries: self.shared.retries.load(Ordering::Relaxed),
            epoch: self.service.epoch(),
            leader_epoch: self.service.leader_epoch(),
            last_error: self
                .shared
                .last_error
                .lock()
                .expect("last error lock")
                .clone(),
        }
    }

    /// Register the follower's replication families on `registry`.
    /// Pass the same registry to
    /// [`banks_server::BanksServer::bind`] so the
    /// follower's `/metrics` carries them next to the serving families.
    /// The collector holds the counters and the service, not the
    /// replica itself — it keeps reporting (frozen) after shutdown.
    pub fn install_metrics(&self, registry: &banks_telemetry::Registry) {
        let shared = Arc::clone(&self.shared);
        let service = Arc::clone(&self.service);
        registry.register_collector(move || replica_families(&shared, &service));
    }

    /// Stop tailing and join the thread. The long-poll in flight is
    /// abandoned to its timeout, so this can take up to the poll window.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The follower's Prometheus families, read from the same atomics as
/// [`Replica::stats`].
fn replica_families(
    shared: &Shared,
    service: &QueryService,
) -> Vec<banks_telemetry::CollectedFamily> {
    use banks_telemetry::{CollectedFamily, Kind};
    let c = Kind::Counter;
    let g = Kind::Gauge;
    let epoch = service.epoch();
    let mut fams = vec![
        CollectedFamily::scalar(
            "banks_replica_snapshots_downloaded_total",
            "Snapshot bundles fetched from the leader.",
            c,
            shared.snapshots_downloaded.load(Ordering::Relaxed) as f64,
        ),
        CollectedFamily::scalar(
            "banks_replica_batches_applied_total",
            "WAL batches replayed off the leader's feed.",
            c,
            shared.batches_applied.load(Ordering::Relaxed) as f64,
        ),
        CollectedFamily::scalar(
            "banks_replica_frame_bytes_total",
            "Raw WAL frame bytes received from the leader.",
            c,
            shared.frame_bytes.load(Ordering::Relaxed) as f64,
        ),
        CollectedFamily::scalar(
            "banks_replica_rebootstraps_total",
            "Full re-bootstraps after compaction gaps or divergence.",
            c,
            shared.rebootstraps.load(Ordering::Relaxed) as f64,
        ),
        CollectedFamily::scalar(
            "banks_replica_leader_errors_total",
            "Failed leader requests (connect, timeout, non-200).",
            c,
            shared.leader_errors.load(Ordering::Relaxed) as f64,
        ),
        CollectedFamily::scalar(
            "banks_retries_total",
            "Backoff windows slept under the shared retry policy.",
            c,
            shared.retries.load(Ordering::Relaxed) as f64,
        ),
        CollectedFamily::scalar(
            "banks_replica_epoch",
            "The follower's serving epoch.",
            g,
            epoch as f64,
        ),
    ];
    // Leader-relative families only exist once the leader has been
    // observed, so a dashboard can tell "never reached" from "lag 0".
    if let Some(leader_epoch) = service.leader_epoch() {
        fams.push(CollectedFamily::scalar(
            "banks_replica_leader_epoch",
            "The leader's durable epoch as last observed.",
            g,
            leader_epoch as f64,
        ));
        fams.push(CollectedFamily::scalar(
            "banks_replica_apply_lag",
            "Epochs the follower's serving snapshot trails the leader.",
            g,
            leader_epoch.saturating_sub(epoch) as f64,
        ));
    }
    fams
}

/// One bundle download, streamed straight to a temp file in the data
/// directory (never buffered in memory — a bundle can be bigger than
/// the follower's budget, which is the whole point of `--paged`).
/// Returns the temp path and the bundle's epoch, peeked from its meta
/// section. `Err` is a human-readable reason; the temp file is removed
/// on every error path.
fn fetch_bundle(config: &ReplicaConfig) -> Result<(PathBuf, u64), String> {
    let temp = config.data_dir.join("bundle.download.tmp");
    let discard = |e: String| {
        let _ = std::fs::remove_file(&temp);
        e
    };
    let file = std::fs::File::create(&temp)
        .map_err(|e| format!("create {}: {e}", temp.display()))
        .map_err(discard)?;
    let mut sink = BufWriter::new(file);
    let resp = http_request_to_writer(
        &config.leader,
        "GET",
        "/replication/snapshot",
        &[],
        SNAPSHOT_TIMEOUT,
        &mut sink,
    )
    .map_err(|e| discard(format!("GET /replication/snapshot: {e}")))?;
    let file = sink
        .into_inner()
        .map_err(|e| discard(format!("flush {}: {e}", temp.display())))?;
    if resp.status != 200 {
        // The (small) error body went to the file; read it back for the
        // operator before discarding.
        let text: String = std::fs::read(&temp)
            .map(|b| String::from_utf8_lossy(&b).chars().take(200).collect())
            .unwrap_or_default();
        return Err(discard(format!(
            "GET /replication/snapshot: leader answered {} ({text})",
            resp.status
        )));
    }
    file.sync_all()
        .map_err(|e| discard(format!("sync {}: {e}", temp.display())))?;
    let epoch = peek_epoch(&temp)
        .map_err(|e| discard(format!("leader sent an unreadable snapshot bundle: {e}")))?;
    Ok((temp, epoch))
}

/// Move a downloaded bundle into its final `snapshot-<epoch>` name,
/// open it (paged when the store runs with a memory budget), and let
/// the store adopt it — WAL compaction, pruning, durable-epoch advance
/// — without ever re-encoding the bytes the leader already encoded.
fn install_bundle(
    temp: &std::path::Path,
    epoch: u64,
    config: &ReplicaConfig,
    base: &BanksConfig,
    store: &Arc<PersistentStore>,
) -> Result<Arc<Banks>, String> {
    let path = config.data_dir.join(snapshot_file(epoch));
    std::fs::rename(temp, &path).map_err(|e| format!("rename into {}: {e}", path.display()))?;
    banks_util::fs::sync_dir(&config.data_dir);
    let open = match config.options.paged_budget {
        Some(budget) => open_bundle_paged(&path, budget as usize, base),
        None => load_bundle(&path, base),
    };
    let (banks, meta) = open.map_err(|e| {
        let _ = std::fs::remove_file(&path);
        format!("leader sent an unreadable snapshot bundle: {e}")
    })?;
    debug_assert_eq!(meta.epoch, epoch);
    store
        .adopt_snapshot(epoch)
        .map_err(|e| format!("adopt downloaded bundle: {e}"))?;
    Ok(Arc::new(banks))
}

/// The shared capped-exponential policy the replica retries under:
/// base and attempt count come from the config, the cap from
/// [`MAX_BACKOFF`], and full jitter spreads a herd of followers
/// recovering from the same leader outage.
fn retry_policy(config: &ReplicaConfig) -> RetryPolicy {
    RetryPolicy {
        attempts: config.bootstrap_attempts.max(1),
        base: config.retry_backoff,
        cap: MAX_BACKOFF,
        ..RetryPolicy::default()
    }
}

fn fetch_bundle_with_retry(
    config: &ReplicaConfig,
    shared: &Shared,
) -> Result<(PathBuf, u64), ReplicaError> {
    retry_policy(config)
        .run(
            None,
            |_| fetch_bundle(config).inspect_err(|e| shared.note_error(e.clone())),
            |_| {
                if shared.is_shutdown() {
                    Outcome::Fatal
                } else {
                    Outcome::Retryable
                }
            },
            |_, _, sleep| {
                // Sleep through the shutdown-aware pause, not the
                // policy's own thread::sleep, so `shutdown()` never
                // waits out a backoff window.
                shared.retries.fetch_add(1, Ordering::Relaxed);
                shared.pause(sleep);
                Duration::ZERO
            },
        )
        .map_err(|last| {
            ReplicaError::Leader(format!(
                "bootstrap gave up after {} attempt(s): {last}",
                config.bootstrap_attempts.max(1)
            ))
        })
}

/// Mirror the leader's durable epoch off a `/replication/*` response.
fn note_leader_epoch(service: &QueryService, resp: &HttpResponse) {
    if let Some(epoch) = resp.header("x-banks-epoch").and_then(|v| v.parse().ok()) {
        service.note_leader_epoch(epoch);
    }
}

/// Why a feed response could not be applied.
enum TailFault {
    /// Transient — re-poll from the same epoch; the leader re-serves
    /// the frames.
    Retry(String),
    /// The stream no longer lines up with local state (leader reset,
    /// epoch gap, batch rejected): only a fresh bundle can fix it.
    Diverged(String),
}

/// Replay one feed body: decode with the recovery scanner, apply each
/// frame through the publisher (which WALs it locally first), publish
/// to readers, and let the store decide about compaction.
fn apply_frames(
    body: &[u8],
    publisher: &mut SnapshotPublisher,
    service: &QueryService,
    store: &Arc<PersistentStore>,
    shared: &Shared,
) -> Result<(), TailFault> {
    let scan = scan_frames(body).map_err(|e| TailFault::Retry(format!("feed body: {e}")))?;
    shared
        .frame_bytes
        .fetch_add(scan.valid_bytes, Ordering::Relaxed);
    for frame in &scan.frames {
        if frame.epoch <= publisher.epoch() {
            // Overlap after a retry — the leader serves whole suffixes.
            continue;
        }
        if frame.epoch != publisher.epoch() + 1 {
            return Err(TailFault::Diverged(format!(
                "epoch gap in feed: have {}, next frame is {}",
                publisher.epoch(),
                frame.epoch
            )));
        }
        // Same contract as the leader's ingest path: the WAL hook runs
        // before promotion, so an applied epoch is already durable here.
        let published = publisher
            .publish(&frame.batch, None)
            .map_err(|e| TailFault::Diverged(format!("replay epoch {}: {e}", frame.epoch)))?;
        service.install_snapshot(Arc::clone(&published.banks), published.info.epoch, None);
        store.maybe_compact(&published.banks, published.info.epoch);
        shared.batches_applied.fetch_add(1, Ordering::Relaxed);
    }
    if scan.torn_bytes > 0 {
        // A complete HTTP body can still end mid-frame only if the
        // leader misbehaved; whole frames above were applied, re-poll
        // for the rest.
        return Err(TailFault::Retry(format!(
            "feed body ended mid-frame ({} torn byte(s))",
            scan.torn_bytes
        )));
    }
    Ok(())
}

/// Download a fresh bundle and swap it in: store, publisher, readers.
fn rebootstrap(
    config: &ReplicaConfig,
    base: &BanksConfig,
    store: &Arc<PersistentStore>,
    service: &QueryService,
    publisher: &mut SnapshotPublisher,
    shared: &Shared,
) -> Result<(), String> {
    let (temp, epoch) = fetch_bundle(config)?;
    if epoch < publisher.epoch() {
        let _ = std::fs::remove_file(&temp);
        return Err(format!(
            "leader snapshot (epoch {epoch}) is behind this follower (epoch {})",
            publisher.epoch()
        ));
    }
    // Installing through the store compacts the local WAL past the new
    // epoch, so a restart recovers the post-re-bootstrap state.
    let banks = install_bundle(&temp, epoch, config, base, store)?;
    *publisher = SnapshotPublisher::with_epoch(Arc::clone(&banks), epoch);
    publisher.set_durability_hook(store.wal_hook());
    service.install_snapshot(banks, epoch, None);
    shared.snapshots_downloaded.fetch_add(1, Ordering::Relaxed);
    shared.rebootstraps.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Consecutive-error backoff for the tail loop, drawing jittered
/// windows from the same shared [`RetryPolicy`] as bootstrap. Unlike
/// [`RetryPolicy::run`] this never gives up — a follower tails forever —
/// it only widens the window while the errors keep coming.
struct TailBackoff {
    policy: RetryPolicy,
    rng: u64,
    streak: u32,
}

impl TailBackoff {
    fn new(policy: RetryPolicy) -> TailBackoff {
        let rng = policy.seed | 1;
        TailBackoff {
            policy,
            rng,
            streak: 0,
        }
    }

    /// Sleep out the next jittered window (shutdown-aware) and widen it.
    fn nap(&mut self, shared: &Shared) {
        shared.retries.fetch_add(1, Ordering::Relaxed);
        let sleep = self.policy.backoff(self.streak, &mut self.rng);
        self.streak = self.streak.saturating_add(1);
        shared.pause(sleep);
    }

    /// A healthy poll: the next error starts back at the base window.
    fn reset(&mut self) {
        self.streak = 0;
    }
}

/// The follower's main loop: long-poll, apply, repeat — with jittered
/// doubling backoff on errors and a full re-bootstrap on `410 Gone`.
fn tail_loop(
    config: &ReplicaConfig,
    base: &BanksConfig,
    store: &Arc<PersistentStore>,
    service: &Arc<QueryService>,
    mut publisher: SnapshotPublisher,
    shared: &Shared,
) {
    let timeout = Duration::from_millis(config.poll_wait_ms) + REQUEST_SLACK;
    let mut backoff = TailBackoff::new(retry_policy(config));
    while !shared.is_shutdown() {
        let target = format!(
            "/replication/wal?from_epoch={}&wait_ms={}",
            publisher.epoch(),
            config.poll_wait_ms
        );
        let resp = match http_request(&config.leader, "GET", &target, None, timeout) {
            Ok(resp) => resp,
            Err(ClientError::Connect(e)) => {
                shared.note_error(format!("connect {}: {e}", config.leader));
                backoff.nap(shared);
                continue;
            }
            Err(e) => {
                shared.note_error(format!("GET {target}: {e}"));
                backoff.nap(shared);
                continue;
            }
        };
        note_leader_epoch(service, &resp);
        match resp.status {
            200 => {
                backoff.reset();
                if resp.body.is_empty() {
                    continue; // idle poll window expired — go right back
                }
                match apply_frames(&resp.body, &mut publisher, service, store, shared) {
                    Ok(()) => {}
                    Err(TailFault::Retry(msg)) => {
                        shared.note_error(msg);
                        backoff.nap(shared);
                    }
                    Err(TailFault::Diverged(msg)) => {
                        shared.note_error(msg);
                        if let Err(e) =
                            rebootstrap(config, base, store, service, &mut publisher, shared)
                        {
                            shared.note_error(e);
                            backoff.nap(shared);
                        }
                    }
                }
            }
            410 => {
                // The leader compacted past us — the log suffix we need
                // no longer exists anywhere.
                if let Err(e) = rebootstrap(config, base, store, service, &mut publisher, shared) {
                    shared.note_error(e);
                    backoff.nap(shared);
                } else {
                    backoff.reset();
                }
            }
            status => {
                shared.note_error(format!("GET {target}: leader answered {status}"));
                backoff.nap(shared);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_core::Banks;
    use banks_datagen::dblp::{generate, DblpConfig};
    use banks_ingest::{DeltaBatch, TupleOp};
    use banks_server::{BanksServer, IngestEndpoint, ServerConfig};
    use banks_storage::Value;
    use std::path::Path;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "banks_replica_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A durable leader over `dir`, mirroring `banks serve --data-dir`.
    fn leader(dir: &Path) -> (Arc<QueryService>, BanksServer, Arc<IngestEndpoint>) {
        let config = BanksConfig::default();
        let (store, recovery) =
            PersistentStore::open(dir, &config, PersistOptions::default()).expect("open leader");
        let (banks, epoch) = match recovery.banks {
            Some(banks) => (banks, recovery.epoch),
            None => {
                let dataset = generate(DblpConfig::tiny(7)).expect("datagen");
                let banks = Arc::new(Banks::new(dataset.db.clone()).expect("banks"));
                store.save_snapshot(&banks, 0).expect("initial bundle");
                (banks, 0)
            }
        };
        let service = Arc::new(QueryService::with_epoch(
            Arc::clone(&banks),
            epoch,
            ServiceConfig::default(),
        ));
        let mut publisher = SnapshotPublisher::with_epoch(banks, epoch);
        publisher.set_durability_hook(store.wal_hook());
        let ingest = IngestEndpoint::with_publisher(
            Arc::clone(&service),
            publisher,
            Some(Arc::clone(&store)),
        );
        let server = BanksServer::bind(
            Arc::clone(&service),
            Some(Arc::clone(&ingest)),
            Some(store),
            None,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("bind leader");
        (service, server, ingest)
    }

    fn insert_author(ingest: &IngestEndpoint, id: &str) {
        let batch = DeltaBatch {
            ops: vec![TupleOp::Insert {
                relation: "Author".into(),
                values: vec![Value::text(id), Value::text(format!("Replicated {id}"))],
            }],
        };
        ingest.ingest(&batch, None).expect("leader ingest");
    }

    fn follower_config(leader_addr: std::net::SocketAddr, dir: &Path) -> ReplicaConfig {
        ReplicaConfig {
            leader: leader_addr.to_string(),
            data_dir: dir.to_path_buf(),
            poll_wait_ms: 400,
            retry_backoff: Duration::from_millis(20),
            ..ReplicaConfig::default()
        }
    }

    fn wait_for_epoch(replica: &Replica, epoch: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while replica.service().epoch() < epoch {
            assert!(
                std::time::Instant::now() < deadline,
                "follower stuck at epoch {} (want {epoch}): {:?}",
                replica.service().epoch(),
                replica.stats()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn bootstrap_tail_and_resume_without_redownload() {
        let leader_dir = tmp_dir("leader");
        let follower_dir = tmp_dir("follower");
        let (leader_service, server, ingest) = leader(&leader_dir);

        // Cold follower: downloads the bundle, then tails live writes.
        let replica = Replica::start(
            follower_config(server.local_addr(), &follower_dir),
            ServiceConfig::default(),
        )
        .expect("follower start");
        assert_eq!(replica.stats().snapshots_downloaded, 1);
        assert_eq!(replica.service().epoch(), 0);

        insert_author(&ingest, "rep-1");
        insert_author(&ingest, "rep-2");
        wait_for_epoch(&replica, 2);

        // Identical answers, leader epoch observed, lag zero.
        let a = leader_service
            .search("replicated", Default::default())
            .unwrap();
        let b = replica
            .service()
            .search("replicated", Default::default())
            .unwrap();
        assert_eq!(a.result.answers.len(), b.result.answers.len());
        assert_eq!(b.result.answers.len(), 2);
        for (x, y) in a.result.answers.iter().zip(&b.result.answers) {
            assert_eq!(x.tree.signature(), y.tree.signature());
            assert_eq!(x.relevance.to_bits(), y.relevance.to_bits());
        }
        let stats = replica.stats();
        assert_eq!(stats.batches_applied, 2);
        assert_eq!(stats.leader_epoch, Some(2));
        assert!(replica.service().stats().epoch_lag == Some(0));

        // Restart the follower: local recovery, no second download.
        replica.shutdown();
        let replica = Replica::start(
            follower_config(server.local_addr(), &follower_dir),
            ServiceConfig::default(),
        )
        .expect("follower restart");
        assert_eq!(replica.service().epoch(), 2, "resumed from local state");
        assert_eq!(replica.stats().snapshots_downloaded, 0, "no re-download");

        // And it keeps tailing from where it stopped.
        insert_author(&ingest, "rep-3");
        wait_for_epoch(&replica, 3);
        assert_eq!(replica.stats().batches_applied, 1);

        replica.shutdown();
        server.shutdown();
        std::fs::remove_dir_all(&leader_dir).ok();
        std::fs::remove_dir_all(&follower_dir).ok();
    }

    #[test]
    fn leader_compaction_triggers_rebootstrap() {
        let leader_dir = tmp_dir("compact_leader");
        let follower_dir = tmp_dir("compact_follower");
        let (leader_service, server, ingest) = leader(&leader_dir);
        let replica = Replica::start(
            follower_config(server.local_addr(), &follower_dir),
            ServiceConfig::default(),
        )
        .expect("follower start");
        replica.shutdown(); // stops at epoch 0, keeps its directory

        // Leader moves on AND compacts its WAL away, so epoch 0 is no
        // longer serveable as a log suffix.
        insert_author(&ingest, "gap-1");
        insert_author(&ingest, "gap-2");
        let store = ingest.store().expect("durable leader").clone();
        store
            .save_snapshot(&leader_service.banks(), 2)
            .expect("leader compaction");

        // The restarted follower resumes at 0, hits 410, re-bootstraps.
        let replica = Replica::start(
            follower_config(server.local_addr(), &follower_dir),
            ServiceConfig::default(),
        )
        .expect("follower restart");
        wait_for_epoch(&replica, 2);
        let stats = replica.stats();
        assert_eq!(stats.rebootstraps, 1, "{stats:?}");
        assert_eq!(stats.snapshots_downloaded, 1, "{stats:?}");
        let hits = replica.service().search("gap", Default::default()).unwrap();
        assert_eq!(hits.result.answers.len(), 2);

        // A follower restart after the re-bootstrap recovers locally.
        replica.shutdown();
        let replica = Replica::start(
            follower_config(server.local_addr(), &follower_dir),
            ServiceConfig::default(),
        )
        .expect("second restart");
        assert_eq!(replica.service().epoch(), 2);
        assert_eq!(replica.stats().snapshots_downloaded, 0);

        replica.shutdown();
        server.shutdown();
        std::fs::remove_dir_all(&leader_dir).ok();
        std::fs::remove_dir_all(&follower_dir).ok();
    }

    #[test]
    fn paged_follower_bootstraps_and_matches_leader() {
        let leader_dir = tmp_dir("paged_leader");
        let follower_dir = tmp_dir("paged_follower");
        let (leader_service, server, ingest) = leader(&leader_dir);

        let mut config = follower_config(server.local_addr(), &follower_dir);
        config.options.paged_budget = Some(1 << 20);
        let replica =
            Replica::start(config, ServiceConfig::default()).expect("paged follower start");
        assert_eq!(replica.stats().snapshots_downloaded, 1);
        // The bootstrap bundle opened through the pager.
        assert!(replica
            .service()
            .banks()
            .tuple_graph()
            .graph()
            .storage_stats()
            .is_some());

        // Tail a write and compare answers bit-for-bit with the leader.
        insert_author(&ingest, "paged-1");
        wait_for_epoch(&replica, 1);
        let a = leader_service.search("soumen", Default::default()).unwrap();
        let b = replica
            .service()
            .search("soumen", Default::default())
            .unwrap();
        assert_eq!(a.result.answers.len(), b.result.answers.len());
        for (x, y) in a.result.answers.iter().zip(&b.result.answers) {
            assert_eq!(x.tree.signature(), y.tree.signature());
            assert_eq!(x.relevance.to_bits(), y.relevance.to_bits());
        }
        // No temp download file left behind.
        assert!(!follower_dir.join("bundle.download.tmp").exists());

        replica.shutdown();
        server.shutdown();
        std::fs::remove_dir_all(&leader_dir).ok();
        std::fs::remove_dir_all(&follower_dir).ok();
    }

    #[test]
    fn follower_metrics_export_replication_families() {
        let leader_dir = tmp_dir("metrics_leader");
        let follower_dir = tmp_dir("metrics_follower");
        let (_leader_service, server, ingest) = leader(&leader_dir);
        let replica = Replica::start(
            follower_config(server.local_addr(), &follower_dir),
            ServiceConfig::default(),
        )
        .expect("follower start");
        insert_author(&ingest, "obs-1");
        wait_for_epoch(&replica, 1);

        let registry = banks_telemetry::Registry::new();
        replica.install_metrics(&registry);
        let text = registry.render();
        for family in [
            "banks_replica_snapshots_downloaded_total",
            "banks_replica_batches_applied_total",
            "banks_replica_frame_bytes_total",
            "banks_replica_rebootstraps_total",
            "banks_replica_leader_errors_total",
            "banks_replica_epoch",
            "banks_replica_leader_epoch",
            "banks_replica_apply_lag",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "family {family} missing:\n{text}"
            );
        }
        assert!(text.contains("banks_replica_snapshots_downloaded_total 1"));
        assert!(text.contains("banks_replica_batches_applied_total 1"));
        assert!(text.contains("banks_replica_epoch 1"));

        replica.shutdown();
        server.shutdown();
        std::fs::remove_dir_all(&leader_dir).ok();
        std::fs::remove_dir_all(&follower_dir).ok();
    }

    #[test]
    fn bootstrap_fails_cleanly_without_a_leader() {
        let dir = tmp_dir("no_leader");
        let config = ReplicaConfig {
            leader: "127.0.0.1:1".to_string(), // nothing listens there
            data_dir: dir.clone(),
            bootstrap_attempts: 2,
            retry_backoff: Duration::from_millis(5),
            ..ReplicaConfig::default()
        };
        match Replica::start(config, ServiceConfig::default()) {
            Err(err) => assert!(matches!(err, ReplicaError::Leader(_)), "{err}"),
            Ok(_) => panic!("bootstrap with no leader must fail"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
