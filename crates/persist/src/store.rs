//! The durable store: a data directory owning snapshot bundles and the
//! write-ahead log, with crash recovery and background compaction.
//!
//! ## Directory layout
//!
//! ```text
//! data-dir/
//!   snapshot-00000000000000000042.banks   full-system bundle at epoch 42
//!   wal.log                               frames for epochs > 42
//! ```
//!
//! Snapshot files embed their epoch zero-padded so lexicographic order
//! is epoch order. Normally one snapshot exists; a crash between
//! "write new snapshot" and "prune old ones" can briefly leave two —
//! recovery prefers the newest loadable one and compaction re-prunes.
//!
//! ## Write path
//!
//! [`PersistentStore::wal_hook`] plugs into
//! [`banks_ingest::SnapshotPublisher`]: every validated batch is
//! appended (and fsync'd, unless disabled) *before* the publication
//! promotes, so an acked ingest survives `kill -9`. After each publish
//! the serving layer calls [`PersistentStore::maybe_compact`]; once the
//! WAL crosses a size or batch threshold, a background thread writes a
//! fresh bundle at the current epoch, rewrites the WAL to only the
//! frames past it, and prunes superseded snapshot files.
//!
//! ## Recovery
//!
//! [`PersistentStore::open`] loads the newest valid snapshot, replays
//! WAL frames past its epoch through the ordinary publish machinery
//! (identical validation, identical derived state), truncates a torn
//! tail frame, and hands back the recovered `Arc<Banks>` plus its epoch.
//! A directory with durable state but no loadable snapshot refuses to
//! open ([`PersistError::NoValidSnapshot`]) instead of silently starting
//! empty.

use crate::bundle;
use crate::error::{PersistError, PersistResult};
use crate::wal::{scan_wal, WalWriter, WAL_FILE};
use banks_core::{Banks, BanksConfig};
use banks_ingest::{DeltaBatch, DurabilityHook, SnapshotPublisher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// A compaction job: the snapshot to persist and its epoch.
type CompactJob = (Arc<Banks>, u64);
type CompactSender = SyncSender<CompactJob>;
type CompactReceiver = Receiver<CompactJob>;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for the store.
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// Fsync the WAL on every append (and every snapshot/rename). On by
    /// default — turning it off trades the crash guarantee for latency
    /// (data survives process death but not power loss).
    pub fsync: bool,
    /// Roll a fresh snapshot once the WAL holds this many batches (or
    /// 8 MiB, whichever comes first).
    pub compact_wal_batches: u64,
    /// Open snapshots *paged*: serve postings lazily off the bundle
    /// file and keep decoded graph segments under this many bytes
    /// ([`bundle::open_bundle_paged`]) instead of decoding the whole
    /// bundle into RAM. `None` (the default) loads fully.
    pub paged_budget: Option<u64>,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions {
            fsync: true,
            compact_wal_batches: 256,
            paged_budget: None,
        }
    }
}

/// Roll a fresh snapshot once the WAL exceeds this many bytes.
const COMPACT_WAL_BYTES: u64 = 8 * 1024 * 1024;

/// Counters for `/stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistStats {
    /// Bytes currently in the WAL.
    pub wal_bytes: u64,
    /// Whole batches currently in the WAL.
    pub wal_batches: u64,
    /// Compactions completed since the store opened.
    pub compactions: u64,
    /// Epoch of the most recent snapshot roll (initial snapshot
    /// included), if any.
    pub last_compaction_epoch: Option<u64>,
    /// Epoch recovered at open, when the directory held state.
    pub recovered_epoch: Option<u64>,
    /// WAL batches replayed during recovery.
    pub replayed_batches: u64,
    /// Torn-tail bytes truncated during recovery.
    pub truncated_wal_bytes: u64,
    /// Whether appends fsync.
    pub fsync: bool,
    /// Completed append fsyncs since the store opened.
    pub fsync_count: u64,
    /// Total nanoseconds spent inside append fsyncs — with
    /// `fsync_count`, exported as the fsync-latency `_sum`/`_count`
    /// pair on `/metrics`.
    pub fsync_nanos: u64,
}

/// What [`PersistentStore::open`] found.
#[derive(Debug)]
pub struct Recovery {
    /// The recovered state, or `None` for a fresh (empty) directory —
    /// the caller saves initial state with
    /// [`PersistentStore::save_snapshot`], or (see [`is_fresh`]) writes
    /// the epoch-0 bundle before opening.
    pub banks: Option<Arc<Banks>>,
    /// The recovered epoch (0 for a fresh directory).
    pub epoch: u64,
    /// WAL batches replayed past the snapshot.
    pub replayed_batches: usize,
    /// Torn-tail bytes truncated from the WAL.
    pub truncated_wal_bytes: u64,
    /// Non-fatal findings (e.g. a corrupt older snapshot that was
    /// skipped in favor of an older-still valid one).
    pub warnings: Vec<String>,
}

/// Epoch-stamped snapshot file name (zero-padded so lexicographic order
/// is epoch order). Public so a replication bootstrap can drop a
/// downloaded bundle into a fresh data directory under the exact name
/// recovery expects.
pub fn snapshot_file(epoch: u64) -> String {
    format!("snapshot-{epoch:020}.banks")
}

/// Parse an epoch out of a snapshot file name.
fn snapshot_epoch(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(".banks")?
        .parse()
        .ok()
}

/// Every `snapshot-<epoch>.banks` file in `dir`, unordered.
fn snapshot_files(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    Ok(std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name();
            let epoch = snapshot_epoch(name.to_str()?)?;
            Some((epoch, e.path()))
        })
        .collect())
}

/// Whether `dir` holds no state to recover — no snapshot file and no
/// WAL frame; a missing directory is fresh. [`PersistentStore::open`]
/// recovers nothing from exactly such a directory, so a caller that
/// finds it fresh writes the epoch-0 bundle (named by
/// [`snapshot_file`]) first and then opens it like any restart.
pub fn is_fresh(dir: &Path) -> PersistResult<bool> {
    match snapshot_files(dir) {
        Ok(files) if !files.is_empty() => Ok(false),
        Ok(_) => Ok(scan_wal(&dir.join(WAL_FILE))?.frames.is_empty()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(true),
        Err(e) => Err(e.into()),
    }
}

struct Inner {
    dir: PathBuf,
    options: PersistOptions,
    wal: Mutex<WalWriter>,
    compactions: AtomicU64,
    /// `u64::MAX` = never.
    last_compaction_epoch: AtomicU64,
    compacting: AtomicBool,
    recovered_epoch: Option<u64>,
    replayed_batches: u64,
    truncated_wal_bytes: u64,
    /// Highest epoch whose batch is durable (on the WAL or inside a
    /// rolled snapshot). Replication long-polls block on this: the pair
    /// below is a `(Mutex<u64>, Condvar)` notified on every append.
    durable_epoch: Mutex<u64>,
    durable_advanced: Condvar,
}

impl Inner {
    fn advance_durable_epoch(&self, epoch: u64) {
        let mut durable = self.durable_epoch.lock().expect("durable epoch lock");
        if epoch > *durable {
            *durable = epoch;
            self.durable_advanced.notify_all();
        }
    }
}

impl Inner {
    /// Write the bundle for `(banks, epoch)`, drop superseded WAL frames,
    /// and prune older snapshot files. The expensive bundle write happens
    /// without any lock; only the WAL rewrite holds the append mutex.
    fn roll_snapshot(&self, banks: &Banks, epoch: u64) -> PersistResult<()> {
        bundle::save_bundle(banks, epoch, &self.dir.join(snapshot_file(epoch)))?;
        self.finish_roll(epoch)
    }

    /// The post-write half of a roll: the snapshot file for `epoch`
    /// already sits in the directory (just written, or dropped in by a
    /// streaming bootstrap) — compact the WAL past it, prune older
    /// snapshots, and advance the durable epoch.
    fn finish_roll(&self, epoch: u64) -> PersistResult<()> {
        // Drop superseded frames. The writer's in-memory frame index
        // makes this a raw copy of the surviving byte range, so the
        // append mutex — which every ingest ack needs — is held only
        // for that short rewrite, never for a re-read + re-parse of
        // the whole log.
        self.wal.lock().expect("wal lock").compact(epoch)?;
        // Prune strictly older snapshots; newer ones (a concurrent roll
        // racing ahead) stay.
        for (e, path) in snapshot_files(&self.dir)? {
            if e < epoch {
                let _ = std::fs::remove_file(path);
            }
        }
        banks_util::fs::sync_dir(&self.dir);
        self.last_compaction_epoch.store(epoch, Ordering::Release);
        // A rolled snapshot is durability too: a follower bootstrapping a
        // fresh directory from a downloaded bundle lands here without a
        // single WAL append, and its durable epoch must jump to the
        // bundle's. (On the ingest path this is a no-op — the epoch was
        // already appended.)
        self.advance_durable_epoch(epoch);
        Ok(())
    }
}

/// A live data directory. Create with [`PersistentStore::open`]; share
/// as `Arc` between the ingest path (WAL hook + compaction trigger) and
/// the stats endpoint.
pub struct PersistentStore {
    inner: Arc<Inner>,
    compact_tx: CompactSender,
    compactor: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for PersistentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentStore")
            .field("dir", &self.inner.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

impl PersistentStore {
    /// Open (or create) the data directory at `dir` and recover whatever
    /// state it holds. `base_config` supplies the non-persisted config
    /// sections (matching/search knobs); the bundle's ranking and graph
    /// parameters override it on load.
    pub fn open(
        dir: &Path,
        base_config: &BanksConfig,
        options: PersistOptions,
    ) -> PersistResult<(Arc<PersistentStore>, Recovery)> {
        std::fs::create_dir_all(dir)?;
        let mut warnings = Vec::new();

        // Newest loadable snapshot wins.
        let mut snapshot_files = snapshot_files(dir)?;
        snapshot_files.sort_by_key(|&(epoch, _)| std::cmp::Reverse(epoch));
        let snapshots_tried = snapshot_files.len();
        let mut loaded: Option<(Banks, u64)> = None;
        for (epoch, path) in &snapshot_files {
            let attempt = match options.paged_budget {
                Some(budget) => bundle::open_bundle_paged(path, budget as usize, base_config),
                None => bundle::load_bundle(path, base_config),
            };
            match attempt {
                Ok((banks, meta)) => {
                    if meta.epoch != *epoch {
                        warnings.push(format!(
                            "{}: file name says epoch {epoch} but the bundle is epoch {} — using the bundle's",
                            path.display(),
                            meta.epoch
                        ));
                    }
                    loaded = Some((banks, meta.epoch));
                    break;
                }
                Err(e) => {
                    warnings.push(format!("skipping corrupt snapshot {}: {e}", path.display()))
                }
            }
        }

        let wal_path = dir.join(WAL_FILE);
        let scan = scan_wal(&wal_path)?;
        if scan.torn_bytes > 0 {
            warnings.push(format!(
                "truncating {} torn byte(s) at the WAL tail (un-acked partial append)",
                scan.torn_bytes
            ));
        }

        let (banks, epoch, replayed) = match loaded {
            None if snapshots_tried == 0 && scan.frames.is_empty() => (None, 0, 0),
            None => {
                return Err(PersistError::NoValidSnapshot {
                    snapshots_tried,
                    wal_batches: scan.frames.len(),
                })
            }
            Some((banks, snap_epoch)) => {
                // Replay forward through the ordinary publish machinery.
                let mut publisher = SnapshotPublisher::with_epoch(Arc::new(banks), snap_epoch);
                let mut replayed = 0usize;
                for frame in &scan.frames {
                    if frame.epoch <= snap_epoch {
                        continue; // superseded by the snapshot, awaiting pruning
                    }
                    if frame.epoch != publisher.epoch() + 1 {
                        return Err(PersistError::EpochGap {
                            expected: publisher.epoch() + 1,
                            found: frame.epoch,
                        });
                    }
                    publisher.publish(&frame.batch, None)?;
                    replayed += 1;
                }
                let epoch = publisher.epoch();
                (Some(publisher.current()), epoch, replayed)
            }
        };

        let wal = WalWriter::open(&wal_path, &scan, options.fsync)?;
        let inner = Arc::new(Inner {
            dir: dir.to_path_buf(),
            options,
            wal: Mutex::new(wal),
            compactions: AtomicU64::new(0),
            last_compaction_epoch: AtomicU64::new(u64::MAX),
            compacting: AtomicBool::new(false),
            recovered_epoch: banks.as_ref().map(|_| epoch),
            replayed_batches: replayed as u64,
            truncated_wal_bytes: scan.torn_bytes,
            durable_epoch: Mutex::new(epoch),
            durable_advanced: Condvar::new(),
        });

        // The background compactor: at most one roll in flight, expensive
        // bundle writes off the ingest path.
        let (compact_tx, compact_rx): (CompactSender, CompactReceiver) = sync_channel(1);
        let worker = Arc::clone(&inner);
        let compactor = std::thread::Builder::new()
            .name("banks-persist-compact".into())
            .spawn(move || {
                while let Ok((banks, epoch)) = compact_rx.recv() {
                    let result = worker.roll_snapshot(&banks, epoch);
                    match result {
                        Ok(()) => {
                            worker.compactions.fetch_add(1, Ordering::Release);
                        }
                        Err(e) => {
                            banks_util::log_error!(
                                "persist",
                                "background compaction at epoch {epoch} failed: {e}"
                            );
                        }
                    }
                    worker.compacting.store(false, Ordering::Release);
                }
            })
            .expect("spawn compactor");

        let store = Arc::new(PersistentStore {
            inner,
            compact_tx,
            compactor: Mutex::new(Some(compactor)),
        });
        let recovery = Recovery {
            banks,
            epoch,
            replayed_batches: replayed,
            truncated_wal_bytes: scan.torn_bytes,
            warnings,
        };
        Ok((store, recovery))
    }

    /// Append one validated batch to the WAL (the durability point).
    /// Wakes any replication long-poll waiting on this epoch.
    pub fn append_wal(&self, epoch: u64, batch: &DeltaBatch) -> PersistResult<()> {
        let mut wal = self.inner.wal.lock().expect("wal lock");
        wal.append(epoch, batch)?;
        // Advance durable *while still holding the WAL lock* (lock
        // order wal → durable, same as `wal_since`): a reader must
        // never observe a frame whose epoch is ahead of the durable
        // epoch, or the feed would stamp `X-Banks-Epoch` behind the
        // frames it just shipped.
        self.inner.advance_durable_epoch(epoch);
        Ok(())
    }

    /// Highest epoch durably recorded in this directory (recovered epoch
    /// at open, advanced by every WAL append).
    pub fn durable_epoch(&self) -> u64 {
        *self.inner.durable_epoch.lock().expect("durable epoch lock")
    }

    /// Block until the durable epoch exceeds `from_epoch` or `deadline`
    /// passes; returns the durable epoch either way. This is the leader
    /// side of a WAL long-poll: a follower that is fully caught up parks
    /// here instead of busy-polling an empty range.
    pub fn wait_past_epoch(&self, from_epoch: u64, deadline: Duration) -> u64 {
        let durable = self.inner.durable_epoch.lock().expect("durable epoch lock");
        let (guard, _timeout) = self
            .inner
            .durable_advanced
            .wait_timeout_while(durable, deadline, |&mut e| e <= from_epoch)
            .expect("durable epoch lock");
        *guard
    }

    /// The replication feed: raw on-disk bytes of every WAL frame with
    /// `epoch > from_epoch`, or `None` when compaction already dropped a
    /// frame in that range — the caller must bootstrap from a snapshot
    /// bundle instead ([`PersistentStore::newest_snapshot`]).
    ///
    /// An empty byte vector means the follower is caught up (every
    /// durable epoch ≤ `from_epoch`); a request *ahead* of the durable
    /// epoch is also just "caught up" — frames appear when writes do.
    pub fn wal_since(&self, from_epoch: u64) -> PersistResult<Option<Vec<u8>>> {
        let mut wal = self.inner.wal.lock().expect("wal lock");
        let bytes = wal.frames_since(from_epoch)?;
        // Read the durable epoch *under* the WAL lock (append takes
        // wal → durable in that order), so "empty range but durable is
        // ahead" can only mean compaction dropped the frames — a gap,
        // not a caught-up follower.
        let durable = *self.inner.durable_epoch.lock().expect("durable epoch lock");
        drop(wal);
        match bytes {
            Some(bytes) if bytes.is_empty() && durable > from_epoch => Ok(None),
            other => Ok(other),
        }
    }

    /// Newest snapshot bundle in the directory: `(epoch, bytes)`.
    /// Retries the list-then-read race against the background pruner (a
    /// listed file may be deleted before the read lands).
    pub fn newest_snapshot(&self) -> PersistResult<(u64, Vec<u8>)> {
        for _ in 0..8 {
            let newest = snapshot_files(&self.inner.dir)?
                .into_iter()
                .max_by_key(|&(epoch, _)| epoch);
            let Some((epoch, path)) = newest else {
                return Err(PersistError::NoValidSnapshot {
                    snapshots_tried: 0,
                    wal_batches: 0,
                });
            };
            match std::fs::read(&path) {
                Ok(bytes) => return Ok((epoch, bytes)),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Err(PersistError::Malformed(
            "snapshot files churned faster than they could be read".into(),
        ))
    }

    /// Synchronously write a snapshot bundle for `(banks, epoch)`,
    /// dropping superseded WAL frames and pruning older snapshot files.
    /// Used by tests and benches to seed a directory with a built
    /// system (`banks serve` writes a fresh directory's bundle from the
    /// corpus instead, see [`is_fresh`]); the ingest path uses
    /// [`PersistentStore::maybe_compact`].
    pub fn save_snapshot(&self, banks: &Banks, epoch: u64) -> PersistResult<()> {
        self.inner.roll_snapshot(banks, epoch)
    }

    /// Adopt a snapshot file that was placed in the directory *without*
    /// going through [`PersistentStore::save_snapshot`] — a replication
    /// bootstrap streams the leader's bundle straight to
    /// `snapshot-<epoch>.banks` and calls this to finish the roll (WAL
    /// compaction past the epoch, pruning, durable-epoch advance),
    /// skipping the decode + re-encode a `save_snapshot` would cost.
    pub fn adopt_snapshot(&self, epoch: u64) -> PersistResult<()> {
        let path = self.inner.dir.join(snapshot_file(epoch));
        if !path.exists() {
            return Err(PersistError::Malformed(format!(
                "adopt_snapshot: {} does not exist",
                path.display()
            )));
        }
        self.inner.finish_roll(epoch)
    }

    /// Hand `(banks, epoch)` to the background compactor when the WAL
    /// has crossed a threshold. Returns whether a compaction was
    /// scheduled. Cheap: a counter read and a bounded channel send.
    pub fn maybe_compact(&self, banks: &Arc<Banks>, epoch: u64) -> bool {
        let (bytes, batches) = {
            let wal = self.inner.wal.lock().expect("wal lock");
            (wal.bytes(), wal.batches())
        };
        if bytes < COMPACT_WAL_BYTES && batches < self.inner.options.compact_wal_batches {
            return false;
        }
        if self.inner.compacting.swap(true, Ordering::AcqRel) {
            return false; // one roll at a time
        }
        if self
            .compact_tx
            .try_send((Arc::clone(banks), epoch))
            .is_err()
        {
            self.inner.compacting.store(false, Ordering::Release);
            return false;
        }
        true
    }

    /// Block until no compaction is in flight (tests and shutdown paths).
    #[cfg(test)]
    pub(crate) fn quiesce(&self) {
        while self.inner.compacting.load(Ordering::Acquire) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PersistStats {
        let (wal_bytes, wal_batches, fsync_count, fsync_nanos) = {
            let wal = self.inner.wal.lock().expect("wal lock");
            let (fsync_count, fsync_nanos) = wal.fsync_totals();
            (wal.bytes(), wal.batches(), fsync_count, fsync_nanos)
        };
        let last = self.inner.last_compaction_epoch.load(Ordering::Acquire);
        PersistStats {
            wal_bytes,
            wal_batches,
            compactions: self.inner.compactions.load(Ordering::Acquire),
            last_compaction_epoch: (last != u64::MAX).then_some(last),
            recovered_epoch: self.inner.recovered_epoch,
            replayed_batches: self.inner.replayed_batches,
            truncated_wal_bytes: self.inner.truncated_wal_bytes,
            fsync: self.inner.options.fsync,
            fsync_count,
            fsync_nanos,
        }
    }

    /// A [`DurabilityHook`] wired to this store, for
    /// [`SnapshotPublisher::set_durability_hook`]: appends the batch to
    /// the WAL (fsync'd per the options) before the publish promotes.
    pub fn wal_hook(self: &Arc<Self>) -> Box<dyn DurabilityHook> {
        struct Hook(Arc<PersistentStore>);
        impl DurabilityHook for Hook {
            fn persist_batch(&mut self, epoch: u64, batch: &DeltaBatch) -> Result<(), String> {
                self.0.append_wal(epoch, batch).map_err(|e| e.to_string())
            }
        }
        Box::new(Hook(Arc::clone(self)))
    }
}

impl Drop for PersistentStore {
    fn drop(&mut self) {
        // Close the channel so the compactor drains and exits, then join
        // it — a half-written roll is harmless (atomic rename), but the
        // join keeps test directories quiescent before cleanup.
        let (dummy_tx, _) = sync_channel(1);
        drop(std::mem::replace(&mut self.compact_tx, dummy_tx));
        if let Some(handle) = self.compactor.lock().expect("compactor lock").take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_ingest::TupleOp;
    use banks_storage::{ColumnType, Database, RelationSchema, Value};

    fn dblp() -> Database {
        let mut db = Database::new("dblp");
        db.create_relation(
            RelationSchema::builder("Author")
                .column("AuthorId", ColumnType::Text)
                .column("AuthorName", ColumnType::Text)
                .primary_key(&["AuthorId"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("PaperId", ColumnType::Text)
                .column("PaperName", ColumnType::Text)
                .primary_key(&["PaperId"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Writes")
                .column("AuthorId", ColumnType::Text)
                .column("PaperId", ColumnType::Text)
                .primary_key(&["AuthorId", "PaperId"])
                .foreign_key(&["AuthorId"], "Author")
                .foreign_key(&["PaperId"], "Paper")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert(
            "Author",
            vec![Value::text("MohanC"), Value::text("C. Mohan")],
        )
        .unwrap();
        db.insert(
            "Paper",
            vec![Value::text("P1"), Value::text("Transaction Recovery")],
        )
        .unwrap();
        db.insert("Writes", vec![Value::text("MohanC"), Value::text("P1")])
            .unwrap();
        db
    }

    fn author_batch(i: usize) -> DeltaBatch {
        DeltaBatch {
            ops: vec![
                TupleOp::Insert {
                    relation: "Author".into(),
                    values: vec![
                        Value::text(format!("A{i}")),
                        Value::text(format!("Recovered Author {i}")),
                    ],
                },
                TupleOp::Insert {
                    relation: "Writes".into(),
                    values: vec![Value::text(format!("A{i}")), Value::text("P1")],
                },
            ],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "banks_store_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_publisher(
        store: &Arc<PersistentStore>,
        banks: Arc<Banks>,
        epoch: u64,
    ) -> SnapshotPublisher {
        let mut p = SnapshotPublisher::with_epoch(banks, epoch);
        p.set_durability_hook(store.wal_hook());
        p
    }

    #[test]
    fn fresh_dir_then_crash_then_recover_exact_state() {
        let dir = tmp_dir("crash");
        let config = BanksConfig::default();
        let banks = Arc::new(Banks::new(dblp()).unwrap());

        // First life: init, ingest 3 batches, *no* snapshot after — then
        // "crash" (drop everything without graceful teardown).
        let expectation = {
            let (store, recovery) =
                PersistentStore::open(&dir, &config, PersistOptions::default()).unwrap();
            assert!(recovery.banks.is_none(), "fresh dir");
            store.save_snapshot(&banks, 0).unwrap();
            let mut publisher = durable_publisher(&store, Arc::clone(&banks), 0);
            let mut last = None;
            for i in 0..3 {
                last = Some(publisher.publish(&author_batch(i), None).unwrap());
            }
            let last = last.unwrap();
            assert_eq!(last.info.epoch, 3);
            let answers = last.banks.search("recovered").unwrap();
            assert_eq!(store.stats().wal_batches, 3);
            (answers.len(), last.banks)
        };

        // Second life: recovery must replay the 3 batches to epoch 3 and
        // serve identical results.
        let (store, recovery) =
            PersistentStore::open(&dir, &config, PersistOptions::default()).unwrap();
        assert_eq!(recovery.epoch, 3);
        assert_eq!(recovery.replayed_batches, 3);
        let recovered = recovery.banks.expect("state recovered");
        let answers = recovered.search("recovered").unwrap();
        assert_eq!(answers.len(), expectation.0);
        let live = expectation.1.search("recovered").unwrap();
        for (a, b) in live.iter().zip(&answers) {
            assert_eq!(a.tree.signature(), b.tree.signature());
            assert!((a.relevance - b.relevance).abs() < 1e-12);
        }
        // Graph and index are bit-identical to the pre-crash state.
        let (g, h) = (
            expectation.1.tuple_graph().graph(),
            recovered.tuple_graph().graph(),
        );
        assert_eq!(g.node_count(), h.node_count());
        assert_eq!(g.edge_count(), h.edge_count());
        for v in g.nodes() {
            assert_eq!(g.node_weight(v), h.node_weight(v));
            assert_eq!(
                g.out_edges(v).collect::<Vec<_>>(),
                h.out_edges(v).collect::<Vec<_>>()
            );
        }
        let stats = store.stats();
        assert_eq!(stats.recovered_epoch, Some(3));
        assert_eq!(stats.replayed_batches, 3);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        let config = BanksConfig::default();
        let banks = Arc::new(Banks::new(dblp()).unwrap());
        {
            let (store, _) =
                PersistentStore::open(&dir, &config, PersistOptions::default()).unwrap();
            store.save_snapshot(&banks, 0).unwrap();
            let mut publisher = durable_publisher(&store, Arc::clone(&banks), 0);
            publisher.publish(&author_batch(0), None).unwrap();
            publisher.publish(&author_batch(1), None).unwrap();
        }
        // Tear the tail: chop 5 bytes off the last frame.
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();

        let (store, recovery) =
            PersistentStore::open(&dir, &config, PersistOptions::default()).unwrap();
        assert_eq!(recovery.epoch, 1, "only the whole frame replays");
        assert!(recovery.truncated_wal_bytes > 0);
        assert!(
            recovery.warnings.iter().any(|w| w.contains("torn")),
            "{:?}",
            recovery.warnings
        );
        // The file itself was truncated back to the valid prefix.
        let rescanned = scan_wal(&wal_path).unwrap();
        assert_eq!(rescanned.frames.len(), 1);
        assert_eq!(rescanned.torn_bytes, 0);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_rolls_snapshot_prunes_and_preserves_recovery() {
        let dir = tmp_dir("compact");
        let config = BanksConfig::default();
        let banks = Arc::new(Banks::new(dblp()).unwrap());
        let options = PersistOptions {
            compact_wal_batches: 2,
            ..PersistOptions::default()
        };
        {
            let (store, _) = PersistentStore::open(&dir, &config, options.clone()).unwrap();
            store.save_snapshot(&banks, 0).unwrap();
            let mut publisher = durable_publisher(&store, Arc::clone(&banks), 0);
            for i in 0..5 {
                let published = publisher.publish(&author_batch(i), None).unwrap();
                store.maybe_compact(&published.banks, published.info.epoch);
                store.quiesce();
            }
            let stats = store.stats();
            assert!(stats.compactions >= 1, "{stats:?}");
            assert!(
                stats.wal_batches < 5,
                "compaction dropped superseded frames: {stats:?}"
            );
            assert!(stats.last_compaction_epoch.unwrap() > 0);
        }
        // Exactly one snapshot file survives pruning…
        let snapshots: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("snapshot-"))
            .collect();
        assert_eq!(snapshots.len(), 1, "{snapshots:?}");
        // …and recovery lands on epoch 5 regardless of where the roll fell.
        let (store, recovery) = PersistentStore::open(&dir, &config, options).unwrap();
        assert_eq!(recovery.epoch, 5);
        let recovered = recovery.banks.unwrap();
        assert_eq!(recovered.search("recovered").unwrap().len(), 5);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paged_open_recovers_and_replays_wal() {
        let dir = tmp_dir("paged");
        let config = BanksConfig::default();
        let banks = Arc::new(Banks::new(dblp()).unwrap());
        {
            let (store, _) =
                PersistentStore::open(&dir, &config, PersistOptions::default()).unwrap();
            store.save_snapshot(&banks, 0).unwrap();
            let mut publisher = durable_publisher(&store, Arc::clone(&banks), 0);
            for i in 0..3 {
                publisher.publish(&author_batch(i), None).unwrap();
            }
        }
        let options = PersistOptions {
            paged_budget: Some(1 << 20),
            ..PersistOptions::default()
        };
        let (store, recovery) = PersistentStore::open(&dir, &config, options).unwrap();
        assert_eq!(recovery.epoch, 3);
        let paged = recovery.banks.unwrap();
        assert!(paged.text_index().is_lazy() || recovery.replayed_batches > 0);
        // Same answers as an ordinary full-load recovery.
        let (store2, recovery2) =
            PersistentStore::open(&dir, &config, PersistOptions::default()).unwrap();
        let full = recovery2.banks.unwrap();
        let (a, b) = (
            paged.search("recovered").unwrap(),
            full.search("recovered").unwrap(),
        );
        assert_eq!(a.len(), 3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tree.signature(), y.tree.signature());
            assert!((x.relevance - y.relevance).abs() < 1e-12);
        }
        drop(store);
        drop(store2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older_valid_one() {
        let dir = tmp_dir("fallback");
        let config = BanksConfig::default();
        let banks = Arc::new(Banks::new(dblp()).unwrap());
        {
            let (store, _) =
                PersistentStore::open(&dir, &config, PersistOptions::default()).unwrap();
            store.save_snapshot(&banks, 0).unwrap();
        }
        // Plant unreadable "newer" snapshots beside the valid epoch-0
        // one: garbage after the magic, a 14-byte file whose header says
        // version 3, and a whole bundle whose header says version 2.
        let mut v2 = std::fs::read(dir.join(snapshot_file(0))).unwrap();
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(dir.join(snapshot_file(9)), b"BNKSBNDLgarbage").unwrap();
        std::fs::write(dir.join(snapshot_file(8)), b"BNKSBNDL\x03\0\0\0\0\0").unwrap();
        std::fs::write(dir.join(snapshot_file(7)), v2).unwrap();
        for paged_budget in [None, Some(1 << 16)] {
            let options = PersistOptions {
                paged_budget,
                ..PersistOptions::default()
            };
            let (store, recovery) = PersistentStore::open(&dir, &config, options).unwrap();
            assert_eq!(recovery.epoch, 0);
            assert!(recovery.banks.is_some());
            let warned = |what: &str| recovery.warnings.iter().any(|w| w.contains(what));
            assert_eq!(
                recovery
                    .warnings
                    .iter()
                    .filter(|w| w.contains("skipping corrupt snapshot"))
                    .count(),
                3,
                "{:?}",
                recovery.warnings
            );
            assert!(
                warned("shorter than") && warned("banks snapshot save"),
                "{:?}",
                recovery.warnings
            );
            drop(store);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_snapshots_corrupt_refuses_to_start_fresh() {
        let dir = tmp_dir("refuse");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(snapshot_file(2)), b"garbage").unwrap();
        let err = PersistentStore::open(&dir, &BanksConfig::default(), PersistOptions::default())
            .unwrap_err();
        assert!(matches!(err, PersistError::NoValidSnapshot { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_gap_in_wal_is_a_typed_error() {
        let dir = tmp_dir("gap");
        let config = BanksConfig::default();
        let banks = Arc::new(Banks::new(dblp()).unwrap());
        {
            let (store, _) =
                PersistentStore::open(&dir, &config, PersistOptions::default()).unwrap();
            store.save_snapshot(&banks, 0).unwrap();
            // Append epochs 1 then 3 — a gap no replay can bridge.
            store.append_wal(1, &author_batch(0)).unwrap();
            store.append_wal(3, &author_batch(1)).unwrap();
        }
        let err = PersistentStore::open(&dir, &config, PersistOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::EpochGap {
                    expected: 2,
                    found: 3
                }
            ),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
