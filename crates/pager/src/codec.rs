//! The segment codec: delta-varint adjacency with dictionary-coded
//! weights.
//!
//! A segment covers a fixed range of node ids and stores their
//! adjacency lists (forward targets or reverse sources — the codec is
//! direction-agnostic). Layout of one encoded segment payload:
//!
//! ```text
//! degrees    varint × span           per-node list length
//! dict_len   varint
//! dict       f64-bits LE × dict_len  distinct weights, first-seen order
//! ids        per node: first id absolute varint, then deltas (≥ 1)
//! weights    varint dict index per edge
//! ```
//!
//! Ids within one list are strictly ascending (the CSR sorts adjacency
//! and coalesces duplicates), so deltas are always ≥ 1 and mostly tiny.
//! Edge weights in a BANKS graph come from a handful of schema-derived
//! similarity values (plus fanin-scaled backward weights), so a small
//! dictionary plus per-edge indexes beats raw f64s by ~4–6×.
//!
//! Decoding recomputes the forward log-score lane (`log2(1 + w/w_min)`)
//! from the store-level `w_min`, reproducing the in-RAM lane
//! bit-for-bit — the expression and operand bits are identical.

use crate::error::PagerError;
use crate::varint;
use banks_util::fxhash::FxFoldHashMap;

/// A fully decoded segment: a window of CSR arrays covering the nodes
/// `[first_node, first_node + span)`.
#[derive(Debug)]
pub struct DecodedSegment {
    /// First node id covered by this segment.
    pub first_node: u32,
    /// Global CSR slot of this segment's first edge.
    pub slot_start: u32,
    /// Local prefix offsets, `span + 1` entries.
    pub offsets: Box<[u32]>,
    /// Neighbor ids (targets for forward segments, sources for reverse).
    pub ids: Box<[u32]>,
    /// Edge weights parallel to `ids`.
    pub weights: Box<[f64]>,
    /// Precomputed log-mode edge scores parallel to `ids`; empty for
    /// reverse segments (only the forward lane is scored).
    pub escores: Box<[f64]>,
}

impl DecodedSegment {
    /// Decoded heap footprint in bytes (what the memory budget counts).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.len() * size_of::<u32>()
            + self.ids.len() * size_of::<u32>()
            + self.weights.len() * size_of::<f64>()
            + self.escores.len() * size_of::<f64>()
    }

    /// Adjacency of `node` (which must be in this segment's range) as
    /// `(global_slot, ids, weights)`.
    #[inline]
    pub fn adjacency(&self, node: u32) -> (u32, &[u32], &[f64]) {
        let local = (node - self.first_node) as usize;
        let lo = self.offsets[local] as usize;
        let hi = self.offsets[local + 1] as usize;
        (
            self.slot_start + lo as u32,
            &self.ids[lo..hi],
            &self.weights[lo..hi],
        )
    }

    /// Log-score lane of `node`'s adjacency (forward segments only).
    #[inline]
    pub fn escores_of(&self, node: u32) -> &[f64] {
        let local = (node - self.first_node) as usize;
        let lo = self.offsets[local] as usize;
        let hi = self.offsets[local + 1] as usize;
        &self.escores[lo..hi]
    }

    /// Weight at a global CSR slot owned by this segment.
    #[inline]
    pub fn weight_at(&self, slot: u32) -> f64 {
        self.weights[(slot - self.slot_start) as usize]
    }
}

/// Encode the adjacency lists of one segment (`lists[i]` belongs to the
/// segment's `i`-th node) onto `out`. Returns the smallest
/// strictly-positive weight in the segment (infinity if none) — the
/// per-segment minimum the directory records so the store-level `w_min`
/// is an O(segments) fold.
pub fn encode_segment(lists: &[(&[u32], &[f64])], out: &mut Vec<u8>) -> f64 {
    for (ids, _) in lists {
        varint::write_u64(out, ids.len() as u64);
    }

    // Weight dictionary in first-seen order (deterministic). The keys are
    // f64 bits, whose low bits are all zero for the small integers most
    // weights are; plain Fx would put every key in one bucket.
    let mut dict: Vec<u64> = Vec::new();
    let mut index: FxFoldHashMap<u64, u32> = FxFoldHashMap::default();
    let mut min_pos = f64::INFINITY;
    for (_, weights) in lists {
        for &w in *weights {
            let bits = w.to_bits();
            index.entry(bits).or_insert_with(|| {
                dict.push(bits);
                (dict.len() - 1) as u32
            });
            if w > 0.0 {
                min_pos = min_pos.min(w);
            }
        }
    }
    varint::write_u64(out, dict.len() as u64);
    for &bits in &dict {
        out.extend_from_slice(&bits.to_le_bytes());
    }

    for (ids, _) in lists {
        let mut prev = 0u32;
        for (i, &id) in ids.iter().enumerate() {
            if i == 0 {
                varint::write_u64(out, u64::from(id));
            } else {
                varint::write_u64(out, u64::from(id - prev));
            }
            prev = id;
        }
    }
    for (_, weights) in lists {
        for &w in *weights {
            varint::write_u64(out, u64::from(index[&w.to_bits()]));
        }
    }
    min_pos
}

/// Decode one segment payload.
///
/// `span` is the number of nodes the segment covers, `expected_edges`
/// the edge count the directory claims (`next.slot_start − slot_start`),
/// `id_bound` the exclusive upper bound for neighbor ids
/// (`node_count`), and `w_min` the store-level normalizer used to
/// compute the forward log-score lane when `with_escores` is set.
#[allow(clippy::too_many_arguments)]
pub fn decode_segment(
    bytes: &[u8],
    span: u32,
    expected_edges: u32,
    first_node: u32,
    slot_start: u32,
    id_bound: u32,
    w_min: f64,
    with_escores: bool,
) -> Result<DecodedSegment, PagerError> {
    let malformed = |m: &str| PagerError::Malformed(m.to_string());
    let mut pos = 0usize;

    let mut offsets = Vec::with_capacity(span as usize + 1);
    offsets.push(0u32);
    let mut total = 0u64;
    for _ in 0..span {
        let deg = varint::read_u64(bytes, &mut pos).ok_or_else(|| malformed("degree varint"))?;
        total += deg;
        if total > u64::from(expected_edges) {
            return Err(malformed("degrees exceed directory edge count"));
        }
        offsets.push(total as u32);
    }
    if total != u64::from(expected_edges) {
        return Err(malformed("degrees disagree with directory edge count"));
    }

    let dict_len =
        varint::read_u64(bytes, &mut pos).ok_or_else(|| malformed("dict length varint"))?;
    if dict_len > u64::from(expected_edges).max(1) {
        return Err(malformed("weight dictionary larger than edge count"));
    }
    let dict_bytes = (dict_len as usize) * 8;
    let dict_end = pos
        .checked_add(dict_bytes)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| malformed("weight dictionary truncated"))?;
    let dict: Vec<f64> = bytes[pos..dict_end]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    pos = dict_end;

    let m = expected_edges as usize;
    let mut ids = Vec::with_capacity(m);
    for node in 0..span as usize {
        let deg = (offsets[node + 1] - offsets[node]) as usize;
        let mut prev = 0u32;
        for i in 0..deg {
            let raw = varint::read_u64(bytes, &mut pos).ok_or_else(|| malformed("id varint"))?;
            let id = if i == 0 {
                u32::try_from(raw).map_err(|_| malformed("neighbor id overflows u32"))?
            } else {
                if raw == 0 {
                    return Err(malformed("zero delta: duplicate neighbor id"));
                }
                prev.checked_add(u32::try_from(raw).map_err(|_| malformed("delta overflows"))?)
                    .ok_or_else(|| malformed("neighbor id overflows u32"))?
            };
            if id >= id_bound {
                return Err(malformed("neighbor id out of range"));
            }
            ids.push(id);
            prev = id;
        }
    }

    let mut weights = Vec::with_capacity(m);
    for _ in 0..m {
        let idx =
            varint::read_u64(bytes, &mut pos).ok_or_else(|| malformed("weight index varint"))?;
        let w = *dict
            .get(idx as usize)
            .ok_or_else(|| malformed("weight index out of dictionary"))?;
        weights.push(w);
    }
    if pos != bytes.len() {
        return Err(malformed("trailing bytes after segment payload"));
    }

    let escores: Vec<f64> = if with_escores {
        if !w_min.is_finite() || w_min <= 0.0 {
            vec![0.0; m]
        } else {
            weights.iter().map(|&w| (1.0 + w / w_min).log2()).collect()
        }
    } else {
        Vec::new()
    };

    Ok(DecodedSegment {
        first_node,
        slot_start,
        offsets: offsets.into_boxed_slice(),
        ids: ids.into_boxed_slice(),
        weights: weights.into_boxed_slice(),
        escores: escores.into_boxed_slice(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_lists() {
        let lists: Vec<(&[u32], &[f64])> = vec![
            (&[1, 5, 6][..], &[0.5, 2.0, 0.5][..]),
            (&[][..], &[][..]),
            (&[0][..], &[2.0][..]),
        ];
        let mut buf = Vec::new();
        let min_pos = encode_segment(&lists, &mut buf);
        assert_eq!(min_pos, 0.5);
        let seg = decode_segment(&buf, 3, 4, 10, 100, 20, 0.5, true).unwrap();
        assert_eq!(
            seg.adjacency(10),
            (100, &[1u32, 5, 6][..], &[0.5, 2.0, 0.5][..])
        );
        assert_eq!(seg.adjacency(11), (103, &[][..], &[][..]));
        assert_eq!(seg.adjacency(12), (103, &[0u32][..], &[2.0][..]));
        assert_eq!(seg.weight_at(101), 2.0);
        let expect = (1.0f64 + 0.5 / 0.5).log2();
        assert_eq!(seg.escores_of(10)[0].to_bits(), expect.to_bits());
        assert_eq!(seg.bytes(), 4 * 4 + 4 * 4 + 4 * 8 + 4 * 8);
    }

    #[test]
    fn corrupt_payloads_rejected() {
        let lists: Vec<(&[u32], &[f64])> = vec![(&[2, 4][..], &[1.0, 3.0][..])];
        let mut buf = Vec::new();
        encode_segment(&lists, &mut buf);
        // Wrong edge count vs directory.
        assert!(decode_segment(&buf, 1, 3, 0, 0, 10, 1.0, false).is_err());
        // Truncated payload.
        assert!(decode_segment(&buf[..buf.len() - 1], 1, 2, 0, 0, 10, 1.0, false).is_err());
        // Id out of bound.
        assert!(decode_segment(&buf, 1, 2, 0, 0, 3, 1.0, false).is_err());
        // Trailing garbage.
        let mut extended = buf.clone();
        extended.push(0);
        assert!(decode_segment(&extended, 1, 2, 0, 0, 10, 1.0, false).is_err());
    }

    #[test]
    fn degenerate_w_min_zeroes_escores() {
        let lists: Vec<(&[u32], &[f64])> = vec![(&[1][..], &[0.0][..])];
        let mut buf = Vec::new();
        let min_pos = encode_segment(&lists, &mut buf);
        assert!(min_pos.is_infinite());
        let seg = decode_segment(&buf, 1, 1, 0, 0, 10, f64::INFINITY, true).unwrap();
        assert_eq!(seg.escores[0], 0.0);
    }
}
