//! Typed failures of the paged store.

use std::io;

/// Errors raised while opening a paged blob or paging in a segment.
///
/// The open path (`PagedGraphStore::open_*`) validates the header and
/// segment directory eagerly, so a torn or corrupted directory is
/// rejected before the store is ever handed out; segment payloads are
/// only checksummed on first touch, and a payload failure surfaces as a
/// panic carrying [`PagerError::BadSegmentChecksum`]'s message (the
/// store cannot return partial adjacency).
#[derive(Debug)]
pub enum PagerError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a paged graph blob (bad magic), or an incompatible version.
    BadMagic,
    /// The blob is shorter than its header + directory claim.
    Truncated,
    /// The header/directory checksum does not match: the segment
    /// directory is torn or corrupted.
    BadDirectoryChecksum,
    /// A segment payload failed its checksum at page-in time.
    BadSegmentChecksum {
        /// `"fwd"` or `"rev"`.
        direction: &'static str,
        /// Segment index within that direction.
        segment: u32,
    },
    /// Structurally invalid content (offsets out of range, degrees
    /// inconsistent with the directory, malformed varints, …).
    Malformed(String),
}

impl std::fmt::Display for PagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagerError::Io(e) => write!(f, "io error: {e}"),
            PagerError::BadMagic => write!(f, "not a BANKS paged graph blob"),
            PagerError::Truncated => write!(f, "paged graph blob is truncated"),
            PagerError::BadDirectoryChecksum => {
                write!(f, "paged graph segment directory checksum mismatch")
            }
            PagerError::BadSegmentChecksum { direction, segment } => {
                write!(f, "checksum mismatch in {direction} segment {segment}")
            }
            PagerError::Malformed(m) => write!(f, "malformed paged graph blob: {m}"),
        }
    }
}

impl std::error::Error for PagerError {}

/// A storage-layer refusal (a bad v3 DATA directory or block) is
/// malformed content.
impl From<banks_storage::StorageError> for PagerError {
    fn from(e: banks_storage::StorageError) -> Self {
        PagerError::Malformed(e.to_string())
    }
}

impl From<io::Error> for PagerError {
    fn from(e: io::Error) -> Self {
        PagerError::Io(e)
    }
}
