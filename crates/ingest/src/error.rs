//! Error type for the ingestion pipeline.

use banks_core::BanksError;
use banks_storage::StorageError;
use std::fmt;

/// Result alias for ingestion operations.
pub(crate) type IngestResult<T> = Result<T, IngestError>;

/// Errors raised while parsing, validating, or applying a delta batch.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The delta file / request body is malformed.
    Parse(String),
    /// A tuple operation violated a storage constraint (schema arity or
    /// types, primary-key uniqueness, the FK catalog, RESTRICT deletes).
    Storage(StorageError),
    /// Re-snapshotting the patched parts into a `Banks` failed.
    Banks(BanksError),
    /// The active configuration cannot be maintained incrementally
    /// (e.g. authority-transfer prestige is a global iteration).
    Unsupported(String),
    /// The durability hook refused the batch: the write-ahead log could
    /// not be appended or fsync'd, so the publication was aborted —
    /// an acked ingest must never be less durable than the log.
    Durability(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Parse(m) => write!(f, "bad delta: {m}"),
            IngestError::Storage(e) => write!(f, "delta rejected: {e}"),
            IngestError::Banks(e) => write!(f, "snapshot publication failed: {e}"),
            IngestError::Unsupported(m) => write!(f, "unsupported for incremental apply: {m}"),
            IngestError::Durability(m) => write!(f, "durability failure, publish aborted: {m}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Storage(e) => Some(e),
            IngestError::Banks(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for IngestError {
    fn from(e: StorageError) -> Self {
        IngestError::Storage(e)
    }
}

impl From<BanksError> for IngestError {
    fn from(e: BanksError) -> Self {
        IngestError::Banks(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: IngestError = StorageError::UnknownRelation("X".into()).into();
        assert!(e.to_string().contains("delta rejected"));
        assert!(std::error::Error::source(&e).is_some());
        let e: IngestError = BanksError::EmptyQuery.into();
        assert!(e.to_string().contains("publication failed"));
        assert!(IngestError::Parse("nope".into())
            .to_string()
            .contains("nope"));
    }
}
