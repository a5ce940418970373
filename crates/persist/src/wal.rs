//! The write-ahead log: length-prefixed, checksummed frames of validated
//! delta batches.
//!
//! Each acked `POST /ingest` appends one frame *before* the publication
//! is promoted (the [`banks_ingest::DurabilityHook`] contract), so any
//! batch a client saw succeed is re-playable after a crash.
//!
//! ## Frame layout (little-endian)
//!
//! ```text
//! u32  payload_len
//! payload:
//!   u64  epoch                  (the epoch this batch produced)
//!   …    batch JSON             (the PR-2 DeltaBatch wire format)
//! u64  checksum                 (FxHasher over the payload bytes)
//! ```
//!
//! The JSON wire format is reused deliberately: it is already validated,
//! versioned by its field grammar, diffable in a pager, and parsed by
//! machinery (`DeltaBatch::from_json`) with its own test suite. The
//! binary framing supplies what JSON lacks — boundaries and corruption
//! detection.
//!
//! ## Torn tails
//!
//! A crash mid-append leaves a *torn* final frame: a short length
//! prefix, a short payload, or a checksum that does not match. The
//! scanner (`scan_wal`) stops cleanly at the last whole frame and
//! reports where the valid prefix ends; recovery truncates the file
//! there before appending again. Anything torn was by definition never
//! acked (the ack happens after the fsync), so truncation never loses
//! an acknowledged write.

use crate::error::{PersistError, PersistResult};
use banks_ingest::DeltaBatch;
use banks_util::fault::{self, Site};
use banks_util::fxhash::checksum;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File name of the log inside a data directory.
pub(crate) const WAL_FILE: &str = "wal.log";

/// Sanity cap on one frame's payload. The HTTP layer caps ingest bodies
/// at 8 MiB; anything bigger in a length prefix is corruption, not data.
pub(crate) const MAX_FRAME_PAYLOAD: u32 = 64 * 1024 * 1024;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct WalFrame {
    /// The epoch this batch produced when it was first published.
    pub epoch: u64,
    /// The validated batch.
    pub batch: DeltaBatch,
}

/// Encode one frame (length prefix + payload + checksum).
pub(crate) fn encode_frame(epoch: u64, batch: &DeltaBatch) -> Vec<u8> {
    let json = batch.to_json().compact();
    let mut payload = Vec::with_capacity(8 + json.len());
    payload.extend_from_slice(&epoch.to_le_bytes());
    payload.extend_from_slice(json.as_bytes());
    let mut frame = Vec::with_capacity(4 + payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&checksum(&payload).to_le_bytes());
    frame
}

/// What a full scan of a WAL file finds.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Whole, checksum-valid frames, in file order.
    pub frames: Vec<WalFrame>,
    /// Start offset of each frame in `frames` (parallel vector) — the
    /// writer seeds its in-memory frame index from this so compaction
    /// never has to re-read or re-parse the log.
    pub offsets: Vec<u64>,
    /// Byte length of the valid prefix (== file length when the tail is
    /// clean). Recovery truncates the file to this length.
    pub valid_bytes: u64,
    /// Bytes past the valid prefix — the torn tail (0 when clean).
    pub torn_bytes: u64,
}

/// Scan `path`, decoding every whole frame and measuring the torn tail.
/// A missing file scans as empty.
///
/// Distinguishes two failure shapes: a *torn tail* (short read or
/// checksum mismatch at the end — expected after a crash, reported via
/// [`WalScan::torn_bytes`]) and a *checksum-valid frame that does not
/// parse* (impossible without a bug or tampering — a hard
/// [`PersistError::Malformed`]).
pub(crate) fn scan_wal(path: &Path) -> PersistResult<WalScan> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(e.into()),
    };
    scan_frames(&bytes)
}

/// Scan an in-memory frame stream — the same decoding `scan_wal` applies
/// to the on-disk log, reused by the replication tailer on HTTP bodies
/// (`GET /replication/wal` ships the on-disk bytes verbatim, so follower
/// and recovery parse with identical code).
pub fn scan_frames(bytes: &[u8]) -> PersistResult<WalScan> {
    let mut scan = WalScan::default();
    let mut at = 0usize;
    loop {
        let frame_start = at;
        // Length prefix.
        if bytes.len() - at < 4 {
            break;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        if len as u64 > MAX_FRAME_PAYLOAD as u64 {
            // An implausible length is indistinguishable from garbage at
            // the tail; treat it as torn rather than trying to skip it.
            break;
        }
        at += 4;
        // Payload + checksum.
        if bytes.len() - at < len + 8 {
            break;
        }
        let payload = &bytes[at..at + len];
        at += len;
        let stored = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        at += 8;
        if stored != checksum(payload) {
            break;
        }
        if payload.len() < 8 {
            return Err(PersistError::Malformed(format!(
                "WAL frame at byte {frame_start} is checksum-valid but too short for an epoch"
            )));
        }
        let epoch = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        let json = std::str::from_utf8(&payload[8..]).map_err(|_| {
            PersistError::Malformed(format!(
                "WAL frame for epoch {epoch} is checksum-valid but not UTF-8"
            ))
        })?;
        let batch = DeltaBatch::from_json(json).map_err(|e| {
            PersistError::Malformed(format!(
                "WAL frame for epoch {epoch} is checksum-valid but unparseable: {e}"
            ))
        })?;
        scan.frames.push(WalFrame { epoch, batch });
        scan.offsets.push(frame_start as u64);
        scan.valid_bytes = at as u64;
    }
    scan.torn_bytes = bytes.len() as u64 - scan.valid_bytes;
    Ok(scan)
}

/// The append side of the log. One writer exists per store; callers
/// serialize access (the store wraps it in a mutex).
///
/// The writer keeps an in-memory `(epoch, offset)` index of every
/// frame it knows about, so compaction is a raw byte-range copy — no
/// re-reading, no re-parsing, and only a short hold on the caller's
/// lock.
///
/// Failure discipline: an append that cannot be rolled back, or a
/// compaction that cannot reopen the renamed log, **poisons** the
/// writer — every later operation fails loudly instead of risking an
/// ack whose bytes sit in a corrupt region or an unlinked inode.
/// A poisoned WAL means ingest returns errors until restart; it never
/// means silent data loss.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    path: PathBuf,
    fsync: bool,
    bytes: u64,
    /// `(epoch, start offset)` of each whole frame, in file order.
    index: Vec<(u64, u64)>,
    /// On-disk state may not match this bookkeeping; refuse everything.
    poisoned: bool,
    /// Completed `sync_data` calls (appends with fsync on).
    fsyncs: u64,
    /// Total nanoseconds spent inside `sync_data` — with `fsyncs`, the
    /// `_sum`/`_count` pair behind the fsync-latency metric.
    fsync_nanos: u64,
}

impl WalWriter {
    /// Open `path` for appending, first truncating it to the scan's
    /// valid prefix (dropping a torn tail found by [`scan_wal`]) and
    /// seeding the frame index from the scan.
    pub(crate) fn open(path: &Path, scan: &WalScan, fsync: bool) -> PersistResult<WalWriter> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        file.set_len(scan.valid_bytes)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        if fsync {
            file.sync_all()?;
        }
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            fsync,
            bytes: scan.valid_bytes,
            index: scan
                .frames
                .iter()
                .map(|f| f.epoch)
                .zip(scan.offsets.iter().copied())
                .collect(),
            poisoned: false,
            fsyncs: 0,
            fsync_nanos: 0,
        })
    }

    fn check_poisoned(&self) -> PersistResult<()> {
        if self.poisoned {
            return Err(PersistError::Malformed(
                "write-ahead log writer is poisoned after an unrecoverable I/O failure;                  restart to recover from the durable prefix"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Append one frame and (when fsync is on) force it to stable
    /// storage before returning — the durability point of an ingest ack.
    ///
    /// On failure the partial (or un-fsync'd) frame is rolled back —
    /// file truncated to the last good byte, offset restored — so a
    /// retried publish appends at a clean boundary and earlier acked
    /// frames can never be mistaken for a torn tail. A rollback that
    /// itself fails poisons the writer.
    pub(crate) fn append(&mut self, epoch: u64, batch: &DeltaBatch) -> PersistResult<()> {
        self.check_poisoned()?;
        let frame = encode_frame(epoch, batch);
        let mut fsync_elapsed = None;
        let result = (|| -> PersistResult<()> {
            if let Some(cut) = fault::torn_write(Site::WalAppendWrite, frame.len())? {
                // Simulated crash mid-write: a prefix of the frame hits
                // the file, then the append fails. The rollback below
                // (or, post-crash, the recovery scan) must erase it.
                self.file.write_all(&frame[..cut])?;
                self.file.flush()?;
                return Err(
                    std::io::Error::other("injected fault: wal.append.write (torn)").into(),
                );
            }
            self.file.write_all(&frame)?;
            self.file.flush()?;
            if self.fsync {
                fault::maybe_fault(Site::WalAppendFsync)?;
                let t0 = std::time::Instant::now();
                self.file.sync_data()?;
                fsync_elapsed = Some(t0.elapsed());
            }
            Ok(())
        })();
        if let Some(elapsed) = fsync_elapsed {
            self.fsyncs += 1;
            self.fsync_nanos = self
                .fsync_nanos
                .saturating_add(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        }
        if let Err(e) = result {
            // Roll the file back to the pre-append state. Without this,
            // the garbage bytes would sit *before* any later successful
            // append, and a post-crash scan would truncate those later
            // acked frames as part of the "torn tail".
            let rolled_back = self.file.set_len(self.bytes).is_ok()
                && self.file.seek(SeekFrom::Start(self.bytes)).is_ok();
            if !rolled_back {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.index.push((epoch, self.bytes));
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Bytes currently in the log.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whole frames currently in the log.
    pub(crate) fn batches(&self) -> u64 {
        self.index.len() as u64
    }

    /// `(count, total nanoseconds)` of completed append fsyncs.
    pub(crate) fn fsync_totals(&self) -> (u64, u64) {
        (self.fsyncs, self.fsync_nanos)
    }

    /// Raw bytes of every whole frame with `epoch > from_epoch`, exactly
    /// as they sit on disk — the replication feed. Returns `None` when
    /// the log no longer reaches back that far (compaction dropped a
    /// frame the caller still needs; it must re-bootstrap from a
    /// snapshot instead of tailing).
    ///
    /// Frames carry consecutive epochs (recovery rejects gaps, appends
    /// are sequential), so "present" is a contiguous range: the request
    /// is serveable iff `from_epoch` is at or past `first_epoch - 1`.
    /// An empty log serves any request as zero bytes — the caller
    /// cross-checks against the durable epoch to distinguish "caught
    /// up" from "compacted away" (see `PersistentStore::wal_since`).
    pub(crate) fn frames_since(&mut self, from_epoch: u64) -> PersistResult<Option<Vec<u8>>> {
        self.check_poisoned()?;
        let Some(&(first_epoch, _)) = self.index.first() else {
            return Ok(Some(Vec::new()));
        };
        if from_epoch + 1 < first_epoch {
            return Ok(None);
        }
        let start = self
            .index
            .iter()
            .find(|&&(epoch, _)| epoch > from_epoch)
            .map(|&(_, offset)| offset)
            .unwrap_or(self.bytes);
        let mut out = vec![0u8; (self.bytes - start) as usize];
        self.file.seek(SeekFrom::Start(start))?;
        self.file.read_exact(&mut out)?;
        self.file.seek(SeekFrom::Start(self.bytes))?;
        Ok(Some(out))
    }

    /// Drop every frame with `epoch <= up_to_epoch` (superseded by a
    /// snapshot at that epoch). Uses the in-memory frame index to copy
    /// the surviving byte range verbatim — no re-read of dropped
    /// frames, no JSON parsing — into a temp file that is fsync'd and
    /// renamed over the log, then reopens the new file for appending.
    ///
    /// The rename unlinks the inode behind the old handle, so a failed
    /// reopen poisons the writer: appending to the dead inode would
    /// ack writes into a file nothing can ever read back.
    pub(crate) fn compact(&mut self, up_to_epoch: u64) -> PersistResult<()> {
        self.check_poisoned()?;
        let keep_from = self
            .index
            .iter()
            .find(|&&(epoch, _)| epoch > up_to_epoch)
            .map(|&(_, offset)| offset)
            .unwrap_or(self.bytes);
        let survivor_len = (self.bytes - keep_from) as usize;
        let mut survivors = vec![0u8; survivor_len];
        self.file.seek(SeekFrom::Start(keep_from))?;
        self.file.read_exact(&mut survivors)?;
        banks_util::fs::atomic_write(&self.path, |w| w.write_all(&survivors))?;
        match OpenOptions::new().read(true).write(true).open(&self.path) {
            Ok(mut file) => {
                let end = file.seek(SeekFrom::End(0))?;
                self.file = file;
                self.bytes = end;
                self.index = self
                    .index
                    .iter()
                    .filter(|&&(epoch, _)| epoch > up_to_epoch)
                    .map(|&(epoch, offset)| (epoch, offset - keep_from))
                    .collect();
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(PersistError::Io(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_ingest::TupleOp;
    use banks_storage::Value;

    fn batch(tag: &str, ops: usize) -> DeltaBatch {
        DeltaBatch {
            ops: (0..ops)
                .map(|i| TupleOp::Insert {
                    relation: "Author".into(),
                    values: vec![
                        Value::text(format!("{tag}-{i}")),
                        Value::text(format!("Author {tag} {i}")),
                    ],
                })
                .collect(),
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("banks_wal_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(WAL_FILE)
    }

    #[test]
    fn append_scan_roundtrip() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path, &WalScan::default(), true).unwrap();
        for (i, b) in [batch("a", 1), batch("b", 3), batch("c", 2)]
            .iter()
            .enumerate()
        {
            w.append(i as u64 + 1, b).unwrap();
        }
        assert_eq!(w.batches(), 3);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.valid_bytes, w.bytes());
        assert_eq!(scan.frames[1].epoch, 2);
        assert_eq!(scan.frames[1].batch, batch("b", 3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_scans_empty() {
        let path = tmp("missing").with_file_name("never-written.log");
        let scan = scan_wal(&path).unwrap();
        assert!(scan.frames.is_empty());
        assert_eq!(scan.valid_bytes, 0);
    }

    /// The satellite requirement: truncate the WAL at **every byte
    /// boundary** of the last frame and prove the scan stops cleanly at
    /// the last whole frame, never mis-decoding the torn tail.
    #[test]
    fn torn_tail_at_every_byte_boundary() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path, &WalScan::default(), true).unwrap();
        w.append(1, &batch("first", 2)).unwrap();
        w.append(2, &batch("second", 1)).unwrap();
        let keep = w.bytes();
        w.append(3, &batch("third", 4)).unwrap();
        let full = std::fs::read(&path).unwrap();

        for cut in keep as usize..full.len() {
            let torn_path = path.with_file_name(format!("torn-{cut}.log"));
            std::fs::write(&torn_path, &full[..cut]).unwrap();
            let scan = scan_wal(&torn_path).unwrap();
            if cut == full.len() {
                assert_eq!(scan.frames.len(), 3);
            } else {
                assert_eq!(
                    scan.frames.len(),
                    2,
                    "cut at byte {cut}: the torn third frame must not decode"
                );
                assert_eq!(scan.valid_bytes, keep, "cut at byte {cut}");
                assert_eq!(scan.torn_bytes, cut as u64 - keep, "cut at byte {cut}");
            }
            // Reopening for append truncates the tail; a fresh append
            // then scans as frame 3.
            let mut w2 = WalWriter::open(&torn_path, &scan, false).unwrap();
            w2.append(3, &batch("retry", 1)).unwrap();
            let rescanned = scan_wal(&torn_path).unwrap();
            assert_eq!(rescanned.torn_bytes, 0);
            assert_eq!(rescanned.frames.last().unwrap().epoch, 3);
            std::fs::remove_file(&torn_path).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bitflip_in_tail_frame_is_torn_not_misread() {
        let path = tmp("bitflip");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path, &WalScan::default(), false).unwrap();
        w.append(1, &batch("keep", 1)).unwrap();
        let keep = w.bytes() as usize;
        w.append(2, &batch("flip", 1)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the last frame (skip its len prefix).
        bytes[keep + 6] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.valid_bytes, keep as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_keeps_only_survivors() {
        let path = tmp("compact");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path, &WalScan::default(), false).unwrap();
        for e in 1..=5u64 {
            w.append(e, &batch(&format!("e{e}"), 1)).unwrap();
        }
        w.compact(3).unwrap();
        assert_eq!(w.batches(), 2);
        let rescanned = scan_wal(&path).unwrap();
        assert_eq!(
            rescanned.frames.iter().map(|f| f.epoch).collect::<Vec<_>>(),
            vec![4, 5]
        );
        // Appends continue after a compaction, and the shifted index
        // still supports another compaction.
        w.append(6, &batch("e6", 1)).unwrap();
        assert_eq!(scan_wal(&path).unwrap().frames.len(), 3);
        w.compact(5).unwrap();
        assert_eq!(
            scan_wal(&path)
                .unwrap()
                .frames
                .iter()
                .map(|f| f.epoch)
                .collect::<Vec<_>>(),
            vec![6]
        );
        // Compacting everything empties the log.
        w.compact(6).unwrap();
        assert_eq!(w.bytes(), 0);
        assert_eq!(scan_wal(&path).unwrap().frames.len(), 0);
        w.append(7, &batch("e7", 1)).unwrap();
        assert_eq!(scan_wal(&path).unwrap().frames[0].epoch, 7);
        std::fs::remove_file(&path).ok();
    }

    /// The replication feed contract: `frames_since` serves the exact
    /// on-disk byte range past `from_epoch`, reports a gap (`None`) when
    /// compaction dropped a needed frame, and stays append-consistent
    /// after the interleaved reads.
    #[test]
    fn frames_since_serves_ranges_and_reports_gaps() {
        let path = tmp("since");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path, &WalScan::default(), false).unwrap();
        assert_eq!(w.frames_since(0).unwrap(), Some(Vec::new()));
        for e in 1..=4u64 {
            w.append(e, &batch(&format!("e{e}"), 1)).unwrap();
        }

        let full = std::fs::read(&path).unwrap();
        // from_epoch=0 ships the whole log byte-for-byte.
        assert_eq!(w.frames_since(0).unwrap(), Some(full.clone()));
        // A mid-log cursor ships exactly the on-disk suffix.
        let suffix = w.frames_since(2).unwrap().unwrap();
        assert_eq!(full[full.len() - suffix.len()..], suffix[..]);
        let parsed = scan_frames(&suffix).unwrap();
        assert_eq!(
            parsed.frames.iter().map(|f| f.epoch).collect::<Vec<_>>(),
            vec![3, 4]
        );
        // Caught-up (and beyond) cursors get zero bytes, not an error.
        assert_eq!(w.frames_since(4).unwrap(), Some(Vec::new()));
        assert_eq!(w.frames_since(9).unwrap(), Some(Vec::new()));

        // Compaction through epoch 2: cursor 1 would need the dropped
        // frame 2 — a gap; cursor 2 sits exactly at the boundary and
        // still tails.
        w.compact(2).unwrap();
        assert_eq!(w.frames_since(1).unwrap(), None);
        let after = w.frames_since(2).unwrap().unwrap();
        assert_eq!(
            scan_frames(&after)
                .unwrap()
                .frames
                .iter()
                .map(|f| f.epoch)
                .collect::<Vec<_>>(),
            vec![3, 4]
        );

        // The interleaved reads left the append offset intact.
        w.append(5, &batch("e5", 1)).unwrap();
        assert_eq!(w.index.last().map(|&(epoch, _)| epoch), Some(5));
        assert_eq!(scan_wal(&path).unwrap().torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    /// Rollback discipline around a failed append: the log is restored
    /// to its pre-append state, so acked frames on either side of the
    /// failure survive a rescan with no torn tail.
    #[test]
    fn failed_append_leaves_clean_boundary() {
        let path = tmp("rollback");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path, &WalScan::default(), false).unwrap();
        w.append(1, &batch("good", 1)).unwrap();
        let keep = w.bytes();

        // Simulate what a failed (partial) append leaves on disk, then
        // apply the same truncate-to-last-good-byte recovery the
        // rollback path performs.
        use std::io::Write as _;
        let mut raw = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        raw.write_all(&[0x13, 0x37, 0x00]).unwrap();
        drop(raw);
        assert!(scan_wal(&path).unwrap().torn_bytes > 0);

        let scan = scan_wal(&path).unwrap();
        let mut w2 = WalWriter::open(&path, &scan, false).unwrap();
        assert_eq!(w2.bytes(), keep);
        w2.append(2, &batch("after", 1)).unwrap();
        let rescanned = scan_wal(&path).unwrap();
        assert_eq!(
            rescanned.frames.iter().map(|f| f.epoch).collect::<Vec<_>>(),
            vec![1, 2],
            "the acked frame before AND after the failure both survive"
        );
        assert_eq!(rescanned.torn_bytes, 0);
        drop(w);
        std::fs::remove_file(&path).ok();
    }
}
