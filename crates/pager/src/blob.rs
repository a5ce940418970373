//! The paged graph blob: an mmap-able on-disk layout for a CSR graph.
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
use banks_graph::fxhash::FxHasher;
use banks_graph::{Graph, NodeId};
use std::fs::File;
use std::hash::Hasher;
use std::sync::Arc;

/// File format magic (the trailing `1` is the version).
pub const MAGIC: &[u8; 8] = b"BNKSPGR1";

/// Default nodes-per-segment span: with DBLP-shaped degrees (~3 edges
/// per node) a segment decodes to roughly 8–16 KB — still one
/// positioned read, while a backward expansion that touches a few
/// nodes of a segment decodes a few kilobytes for them instead of
/// ~100 KB (2048-node segments spent most of a page-in on neighbours
/// nobody asked for). Readers take the span from the blob header, so
/// blobs written at another span stay readable.
pub const DEFAULT_SEG_SPAN: u32 = 256;

/// Alignment of each segment payload within the blob.
pub const SEG_ALIGN: usize = 64;

const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 4;
const SEG_ENTRY_LEN: usize = 8 + 4 + 4 + 8 + 8;

/// One segment's directory entry.
#[derive(Debug, Clone, Copy)]
pub struct SegEntry {
    /// Payload offset from the blob start.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Global CSR slot of the segment's first edge.
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
    pub fn len(&self) -> u64 {
        match self {
            ByteSource::File { len, .. } => *len,
            ByteSource::Mem(bytes) => bytes.len() as u64,
        }
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read `buf.len()` bytes at `offset` (relative to the region
    /// start). Errors on short reads past the region end.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), PagerError> {
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

fn pad_to(buf: &mut Vec<u8>, align: usize) {
    while !buf.len().is_multiple_of(align) {
        buf.push(0);
    }
}

/// Checksum of a segment payload.
pub fn segment_checksum(payload: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(payload);
    h.finish()
}

/// Number of segments needed for `node_count` nodes at `seg_span`.
pub fn seg_count_for(node_count: u32, seg_span: u32) -> u32 {
    node_count.div_ceil(seg_span)
}

/// The node range `[first, end)` of segment `seg`.
pub fn seg_range(seg: u32, seg_span: u32, node_count: u32) -> (u32, u32) {
    let first = seg * seg_span;
    (first, (first + seg_span).min(node_count))
}

/// Encode `graph` into a paged blob. Works against any backend (a paged
/// `graph` decodes while re-encoding), but is typically fed the in-RAM
/// graph at bundle-write time.
///
/// # Panics
///
/// If the graph has more than `u32::MAX` edges (the CSR itself already
/// guarantees this) or `seg_span` is zero.
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
    for dir in 0..2u8 {
        let mut slot_start = 0u32;
        for seg in 0..seg_count {
            let (first, end) = seg_range(seg, seg_span, n);
            let mut lists: Vec<(&[u32], &[f64])> = Vec::with_capacity((end - first) as usize);
            let mut edges = 0u32;
            for node in first..end {
                let (ids, weights) = if dir == 0 {
                    graph.out_adjacency(NodeId(node))
                } else {
                    graph.in_adjacency(NodeId(node))
                };
                edges += ids.len() as u32;
                lists.push((ids, weights));
            }
            let mut payload = Vec::new();
            let min_pos = encode_segment(&lists, &mut payload);
            entries.push(SegEntry {
                offset: 0, // patched below once the directory size is known
                len: payload.len() as u32,
                slot_start,
                min_pos_weight: min_pos,
                checksum: segment_checksum(&payload),
            });
            payloads.push(payload);
            slot_start += edges;
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
pub fn read_layout(src: &ByteSource) -> Result<Layout, PagerError> {
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

/// Edge count of segment `seg` according to a directory (the difference
/// of consecutive `slot_start`s, closed by the global edge count).
pub fn seg_edges(entries: &[SegEntry], seg: usize, edge_count: u64) -> u32 {
    let next = entries
        .get(seg + 1)
        .map(|e| u64::from(e.slot_start))
        .unwrap_or(edge_count);
    (next - u64::from(entries[seg].slot_start)) as u32
}
