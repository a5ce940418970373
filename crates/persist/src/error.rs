//! Error types for the durability layer.

use banks_core::BanksError;
use banks_ingest::IngestError;
use banks_pager::PagerError;
use banks_storage::StorageError;
use std::fmt;
use std::io;

/// Result alias for persistence operations.
pub(crate) type PersistResult<T> = Result<T, PersistError>;

/// Errors raised while writing, loading, or recovering durable state.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not the expected file kind (bad magic bytes).
    BadMagic {
        /// Which artifact was being read (bundle, section, WAL frame).
        what: &'static str,
    },
    /// Bundle written in a format version this build does not read.
    BadVersion(u32),
    /// Payload corrupted: the trailing checksum does not match.
    BadChecksum,
    /// Structurally invalid payload (impossible length, unparseable
    /// checksummed frame, section out of order).
    Malformed(String),
    /// A storage-layer section failed to decode or restore.
    Storage(StorageError),
    /// The recovered parts would not assemble into a `Banks` instance.
    Banks(BanksError),
    /// A WAL batch failed to re-apply during recovery replay.
    Ingest(IngestError),
    /// The bundle's graph or tuple section failed to open or decode.
    Pager(PagerError),
    /// A data directory holds durable state (snapshot files or WAL
    /// frames) but no snapshot could be loaded — refusing to continue,
    /// because starting fresh would silently discard acknowledged
    /// writes.
    NoValidSnapshot {
        /// Snapshot files found (all failed to load).
        snapshots_tried: usize,
        /// Whole WAL frames found alongside them.
        wal_batches: usize,
    },
    /// WAL replay found an epoch that does not continue the snapshot's
    /// sequence — the directory mixes artifacts from different runs.
    EpochGap {
        /// The epoch replay needed next.
        expected: u64,
        /// The epoch the WAL frame carries.
        found: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadMagic { what } => write!(f, "not a BANKS {what} (bad magic)"),
            PersistError::BadVersion(v) if *v < crate::bundle::BUNDLE_VERSION => write!(
                f,
                "bundle format version {v} predates v{}; rebuild it from its corpus \
                 with `banks snapshot save`",
                crate::bundle::BUNDLE_VERSION
            ),
            PersistError::BadVersion(v) => write!(f, "unsupported bundle format version {v}"),
            PersistError::BadChecksum => write!(f, "checksum mismatch"),
            PersistError::Malformed(m) => write!(f, "malformed durable artifact: {m}"),
            PersistError::Storage(e) => write!(f, "storage section: {e}"),
            PersistError::Banks(e) => write!(f, "recovered parts rejected: {e}"),
            PersistError::Ingest(e) => write!(f, "WAL replay failed: {e}"),
            PersistError::Pager(e) => write!(f, "paged graph section: {e}"),
            PersistError::NoValidSnapshot {
                snapshots_tried,
                wal_batches,
            } => write!(
                f,
                "data directory holds durable state ({snapshots_tried} snapshot file(s), \
                 {wal_batches} WAL batch(es)) but no snapshot loads — refusing to start fresh \
                 and lose acknowledged writes"
            ),
            PersistError::EpochGap { expected, found } => {
                write!(f, "WAL epoch gap: expected epoch {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Storage(e) => Some(e),
            PersistError::Banks(e) => Some(e),
            PersistError::Ingest(e) => Some(e),
            PersistError::Pager(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<StorageError> for PersistError {
    fn from(e: StorageError) -> Self {
        PersistError::Storage(e)
    }
}

impl From<BanksError> for PersistError {
    fn from(e: BanksError) -> Self {
        PersistError::Banks(e)
    }
}

impl From<IngestError> for PersistError {
    fn from(e: IngestError) -> Self {
        PersistError::Ingest(e)
    }
}

impl From<PagerError> for PersistError {
    fn from(e: PagerError) -> Self {
        PersistError::Pager(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        assert!(PersistError::BadChecksum.to_string().contains("checksum"));
        assert!(PersistError::BadMagic { what: "bundle" }
            .to_string()
            .contains("bundle"));
        assert!(PersistError::BadVersion(9).to_string().contains('9'));
        assert!(PersistError::BadVersion(2)
            .to_string()
            .contains("banks snapshot save"));
        assert!(PersistError::EpochGap {
            expected: 4,
            found: 7
        }
        .to_string()
        .contains("expected epoch 4"));
        let e = PersistError::NoValidSnapshot {
            snapshots_tried: 2,
            wal_batches: 5,
        };
        assert!(e.to_string().contains("refusing"));
        let io: PersistError = io::Error::other("boom").into();
        assert!(std::error::Error::source(&io).is_some());
    }
}
