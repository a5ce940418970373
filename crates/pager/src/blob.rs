//! The paged graph blob: an mmap-able on-disk layout for a [`Graph`]'s
//! segments.
//!
//! ```text
//! magic        "BNKSPGR1"                      8 bytes
//! node_count   u32
//! edge_count   u64
//! seg_span     u32      nodes per segment
//! seg_count    u32      segments per direction (= ceil(n / span))
//! node_weights [f64; node_count]               raw LE lane
//! fwd dir      [SegEntry; seg_count]           32 bytes each
//! rev dir      [SegEntry; seg_count]
//! dir_checksum u64      FxHasher over everything above
//! …padding to a 64-byte boundary…
//! payloads     each segment payload starts 64-byte aligned
//!
//! SegEntry = { offset u64 (from blob start), len u32, slot_start u32,
//!              min_pos_weight f64, checksum u64 }
//! ```
//!
//! Everything before the payloads — the *directory* — is small
//! (32 bytes per segment plus 8 per node) and is read eagerly and
//! checksum-verified at open; payloads are only touched when a segment
//! pages in, each guarded by its own checksum. Offsets are relative to
//! the blob start so the blob embeds unchanged at any (page-aligned)
//! offset inside a bundle file: a reader may equally `mmap` the region
//! and slice payloads out of it, which is what the layout is shaped
//! for — the `std`-only store uses positioned reads instead.
//!
//! The per-segment `min_pos_weight` makes the store-level `w_min`
//! normalizer an O(segments) fold (min of forward minima), which is
//! also what lets copy-on-write patching recompute `w_min` without
//! decoding clean segments.

use crate::codec::encode_segment;
use crate::error::PagerError;
use banks_graph::{Adjacency, Graph, NodeId, SegmentBuilder};
use banks_storage::PostingSource;
use banks_util::fxhash::{checksum, FxHasher};
use banks_util::mem::arc_bytes;
use std::fs::File;
use std::hash::Hasher;
use std::sync::Arc;

/// File format magic (the trailing `1` is the version).
pub(crate) const MAGIC: &[u8; 8] = b"BNKSPGR1";

/// Alignment of each segment payload within the blob.
pub(crate) const SEG_ALIGN: usize = 64;

const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 4;
const SEG_ENTRY_LEN: usize = 8 + 4 + 4 + 8 + 8;

/// One segment's directory entry.
#[derive(Debug, Clone, Copy)]
pub struct SegEntry {
    /// Payload offset from the blob start.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Global edge slot of the segment's first edge.
    pub slot_start: u32,
    /// Smallest strictly-positive weight in the segment (∞ if none).
    pub min_pos_weight: f64,
    /// FxHasher checksum of the payload bytes.
    pub checksum: u64,
}

/// The eagerly-read portion of a blob: header fields, the node-weight
/// lane, and both segment directories.
#[derive(Debug)]
pub struct Layout {
    /// Number of nodes.
    pub node_count: u32,
    /// Number of directed edges.
    pub edge_count: u64,
    /// Nodes per segment.
    pub seg_span: u32,
    /// Forward directory, `ceil(node_count / seg_span)` entries.
    pub fwd: Vec<SegEntry>,
    /// Reverse directory, same length.
    pub rev: Vec<SegEntry>,
    /// Node prestige weights (kept fully in RAM; 8 bytes per node).
    pub node_weights: Vec<f64>,
}

/// Where a blob's bytes live. Cloning shares the underlying handle.
#[derive(Debug, Clone)]
pub enum ByteSource {
    /// A region `[base, base + len)` of an open file.
    File {
        /// Shared read handle.
        file: Arc<File>,
        /// Offset of the blob within the file.
        base: u64,
        /// Length of the blob region.
        len: u64,
    },
    /// An in-memory blob (or a single re-encoded segment).
    Mem(Arc<[u8]>),
}

impl ByteSource {
    /// Length of the region in bytes.
    pub(crate) fn len(&self) -> u64 {
        match self {
            ByteSource::File { len, .. } => *len,
            ByteSource::Mem(bytes) => bytes.len() as u64,
        }
    }

    /// Read the `len` bytes at `offset` into a new buffer, refusing a
    /// range past the region end before allocating.
    pub(crate) fn read_vec(&self, offset: u64, len: u64) -> Result<Vec<u8>, PagerError> {
        if offset.checked_add(len).is_none_or(|end| end > self.len()) {
            return Err(PagerError::Truncated);
        }
        let mut buf = vec![0u8; len as usize];
        self.read_at(offset, &mut buf)?;
        Ok(buf)
    }

    /// Read `buf.len()` bytes at `offset` (relative to the region
    /// start). Errors on short reads past the region end.
    pub(crate) fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), PagerError> {
        if offset
            .checked_add(buf.len() as u64)
            .is_none_or(|end| end > self.len())
        {
            return Err(PagerError::Truncated);
        }
        match self {
            ByteSource::File { file, base, .. } => {
                use std::os::unix::fs::FileExt;
                file.read_exact_at(buf, base + offset)?;
                Ok(())
            }
            ByteSource::Mem(bytes) => {
                let start = offset as usize;
                buf.copy_from_slice(&bytes[start..start + buf.len()]);
                Ok(())
            }
        }
    }
}

/// A bundle's TIDX section, read through the same region as its graph:
/// a text index opened over it reads a term's list on first lookup.
impl PostingSource for ByteSource {
    fn len(&self) -> u64 {
        ByteSource::len(self)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        ByteSource::read_at(self, offset, buf).map_err(std::io::Error::other)
    }

    fn heap_bytes(&self) -> usize {
        match self {
            ByteSource::File { .. } => 0,
            ByteSource::Mem(bytes) => arc_bytes(std::alloc::Layout::for_value(&**bytes)),
        }
    }
}

fn pad_to(buf: &mut Vec<u8>, align: usize) {
    while !buf.len().is_multiple_of(align) {
        buf.push(0);
    }
}

/// Number of segments needed for `node_count` nodes at `seg_span`.
pub(crate) fn seg_count_for(node_count: u32, seg_span: u32) -> u32 {
    node_count.div_ceil(seg_span)
}

/// The node range `[first, end)` of segment `seg`.
pub(crate) fn seg_range(seg: u32, seg_span: u32, node_count: u32) -> (u32, u32) {
    let first = seg * seg_span;
    (first, (first + seg_span).min(node_count))
}

/// Encode `graph` into a paged blob. Works against any backend (a paged
/// `graph` pages its segments in while they are encoded), but is
/// typically fed the resident graph at bundle-write time. A graph whose
/// segments span `seg_span` nodes has them encoded as they are; at
/// another span they are rebuilt from its lists first.
///
/// # Panics
///
/// If the graph has more than `u32::MAX` edges (its segments already
/// guarantee this) or `seg_span` is zero.
pub fn encode_paged_blob(graph: &Graph, seg_span: u32) -> Vec<u8> {
    assert!(seg_span > 0, "segment span must be positive");
    let n = u32::try_from(graph.node_count()).expect("more than u32::MAX nodes");
    let m = graph.edge_count();
    assert!(m <= u32::MAX as usize, "more than u32::MAX edges");
    let seg_count = seg_count_for(n, seg_span);

    // Encode every segment payload first; directory offsets depend on
    // the directory size, which depends only on seg_count.
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(seg_count as usize * 2);
    let mut entries: Vec<SegEntry> = Vec::with_capacity(seg_count as usize * 2);
    let mut builder = SegmentBuilder::default();
    for dir in 0..2u8 {
        let mut slot_start = 0u32;
        for seg in 0..seg_count {
            let (first, end) = seg_range(seg, seg_span, n);
            // Every segment keeps its dictionary in first-seen order, so
            // the graph's own segments encode to the bytes a rebuild at
            // their span would.
            let segment = if graph.store().seg_span() == seg_span {
                graph.store().segment(dir == 0, seg)
            } else {
                for node in first..end {
                    let push = |adjacency: Adjacency<'_>| {
                        adjacency.for_each(|id, w| builder.edge(id, w));
                    };
                    if dir == 0 {
                        graph.with_out_adjacency(NodeId(node), push);
                    } else {
                        graph.with_in_adjacency(NodeId(node), push);
                    }
                    builder.end_list();
                }
                Arc::new(builder.finish(first, None))
            };
            let (payload, min_pos) = encode_segment(&segment, first, end);
            entries.push(SegEntry {
                offset: 0, // patched below once the directory size is known
                len: payload.len() as u32,
                slot_start,
                min_pos_weight: min_pos,
                checksum: checksum(&payload),
            });
            payloads.push(payload);
            slot_start += segment.edges() as u32;
        }
    }

    let dir_end = HEADER_LEN + graph.node_count() * 8 + entries.len() * SEG_ENTRY_LEN + 8; // dir_checksum
    let mut offset = dir_end.next_multiple_of(SEG_ALIGN) as u64;
    for (entry, payload) in entries.iter_mut().zip(&payloads) {
        entry.offset = offset;
        offset = (offset + payload.len() as u64).next_multiple_of(SEG_ALIGN as u64);
    }

    let mut blob = Vec::with_capacity(offset as usize);
    let mut h = FxHasher::default();
    // Hash field-by-field with the exact chunking the reader uses
    // (FxHasher's fold depends on write boundaries: 4-byte fields hash
    // as their own zero-padded word, the weight lane as one bulk write).
    let mut put = |blob: &mut Vec<u8>, bytes: &[u8]| {
        h.write(bytes);
        blob.extend_from_slice(bytes);
    };
    put(&mut blob, MAGIC);
    put(&mut blob, &n.to_le_bytes());
    put(&mut blob, &(m as u64).to_le_bytes());
    put(&mut blob, &seg_span.to_le_bytes());
    put(&mut blob, &seg_count.to_le_bytes());
    let mut lane = Vec::with_capacity(graph.node_count() * 8);
    for node in graph.nodes() {
        lane.extend_from_slice(&graph.node_weight(node).to_le_bytes());
    }
    put(&mut blob, &lane);
    for entry in &entries {
        put(&mut blob, &entry.offset.to_le_bytes());
        put(&mut blob, &entry.len.to_le_bytes());
        put(&mut blob, &entry.slot_start.to_le_bytes());
        put(&mut blob, &entry.min_pos_weight.to_le_bytes());
        put(&mut blob, &entry.checksum.to_le_bytes());
    }
    blob.extend_from_slice(&h.finish().to_le_bytes());
    debug_assert_eq!(blob.len(), dir_end);

    for payload in &payloads {
        pad_to(&mut blob, SEG_ALIGN);
        blob.extend_from_slice(payload);
    }
    pad_to(&mut blob, SEG_ALIGN);
    blob
}

struct Cursor<'s> {
    src: &'s ByteSource,
    pos: u64,
    hasher: FxHasher,
}

impl Cursor<'_> {
    fn read(&mut self, buf: &mut [u8]) -> Result<(), PagerError> {
        self.src.read_at(self.pos, buf)?;
        self.pos += buf.len() as u64;
        self.hasher.write(buf);
        Ok(())
    }

    fn read_u32(&mut self) -> Result<u32, PagerError> {
        let mut b = [0u8; 4];
        self.read(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn read_u64(&mut self) -> Result<u64, PagerError> {
        let mut b = [0u8; 8];
        self.read(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn read_f64(&mut self) -> Result<f64, PagerError> {
        Ok(f64::from_bits(self.read_u64()?))
    }
}

/// Read and verify a blob's header, node-weight lane, and segment
/// directories. Fails with a typed error on truncation, bad magic, a
/// directory checksum mismatch (torn write), or structurally
/// inconsistent entries — payloads are *not* touched.
pub(crate) fn read_layout(src: &ByteSource) -> Result<Layout, PagerError> {
    let mut cur = Cursor {
        src,
        pos: 0,
        hasher: FxHasher::default(),
    };
    let mut magic = [0u8; 8];
    cur.read(&mut magic).map_err(|_| PagerError::Truncated)?;
    if &magic != MAGIC {
        return Err(PagerError::BadMagic);
    }
    let node_count = cur.read_u32()?;
    let edge_count = cur.read_u64()?;
    let seg_span = cur.read_u32()?;
    let seg_count = cur.read_u32()?;
    let malformed = |m: &str| PagerError::Malformed(m.to_string());
    if seg_span == 0 {
        return Err(malformed("zero segment span"));
    }
    if seg_count != seg_count_for(node_count, seg_span) {
        return Err(malformed("segment count disagrees with node count"));
    }
    if edge_count > u64::from(u32::MAX) {
        return Err(malformed("edge count overflows u32 slots"));
    }

    let mut node_weights = Vec::with_capacity(node_count as usize);
    {
        // Bulk-read the lane; hash in one pass (FxHasher folds 8-byte
        // words, and the lane is a whole number of them).
        let mut bytes = vec![0u8; node_count as usize * 8];
        cur.read(&mut bytes)?;
        node_weights.extend(
            bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes"))),
        );
    }

    let blob_len = src.len();
    let read_dir = |cur: &mut Cursor| -> Result<Vec<SegEntry>, PagerError> {
        let mut entries = Vec::with_capacity(seg_count as usize);
        let mut prev_slot = 0u32;
        for i in 0..seg_count {
            let entry = SegEntry {
                offset: cur.read_u64()?,
                len: cur.read_u32()?,
                slot_start: cur.read_u32()?,
                min_pos_weight: cur.read_f64()?,
                checksum: cur.read_u64()?,
            };
            if entry
                .offset
                .checked_add(u64::from(entry.len))
                .is_none_or(|end| end > blob_len)
            {
                return Err(malformed("segment payload outside blob"));
            }
            if i == 0 && entry.slot_start != 0 {
                return Err(malformed("first segment slot_start nonzero"));
            }
            if entry.slot_start < prev_slot {
                return Err(malformed("segment slot_starts not monotone"));
            }
            prev_slot = entry.slot_start;
            entries.push(entry);
        }
        if u64::from(prev_slot) > edge_count {
            return Err(malformed("segment slots exceed edge count"));
        }
        Ok(entries)
    };
    let fwd = read_dir(&mut cur)?;
    let rev = read_dir(&mut cur)?;

    let expect = cur.hasher.finish();
    let mut sum = [0u8; 8];
    src.read_at(cur.pos, &mut sum)
        .map_err(|_| PagerError::Truncated)?;
    if u64::from_le_bytes(sum) != expect {
        return Err(PagerError::BadDirectoryChecksum);
    }

    Ok(Layout {
        node_count,
        edge_count,
        seg_span,
        fwd,
        rev,
        node_weights,
    })
}
