//! The segment codec: delta-varint adjacency with dictionary-coded
//! weights, and the compact form a segment keeps while resident.
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
//! Ids within one list are strictly ascending (the graph sorts adjacency
//! and coalesces duplicates), so deltas are always ≥ 1 and mostly tiny.
//! Edge weights in a BANKS graph come from a handful of schema-derived
//! similarity values (plus fanin-scaled backward weights), so a small
//! dictionary plus per-edge indexes beats raw f64s by ~4–6×.
//!
//! # The resident form
//!
//! A decoded segment is a [`banks_graph::Segment`], the one form every
//! graph holds its lists in, resident or paged. It keeps the weights
//! coded: per edge a `u32` id and one dictionary code in the narrowest
//! width the dictionary allows (`u8` up to 256 entries — a 100K-tuple
//! DBLP graph has 82 distinct weights in all, and no segment more than
//! 64 — then `u16`, then `u32`), per node a local offset (`u16` while
//! the segment has fewer than 65 536 edges), plus the dictionary itself
//! and, for forward segments, one log score per dictionary entry. That
//! is about 6 bytes per edge, offsets and dictionary included, where
//! `f64` weight and score lanes took 12–20: a 256-node segment of the
//! 100K-tuple corpus averages 4.4 KB resident instead of 13.1 KB, so
//! the budget holds three times the segments. The log score of each
//! entry is [`edge_log_score`] of the entry under the store-level
//! `w_min`, the expression a segment built in RAM evaluates too, so a
//! decoded graph scores every edge like the graph it was encoded from.

use crate::error::PagerError;
use crate::varint;
use banks_graph::{edge_log_score, Segment};

/// Encode `seg`, which holds the lists of the nodes `first..end`, as one
/// payload. Its dictionary is written in the segment's own order:
/// first-seen, as a [`banks_graph::SegmentBuilder`] makes it and a
/// decode keeps it, so the bytes are deterministic.
/// Also returns the smallest strictly-positive weight in the segment
/// (infinity if none) — the per-segment minimum the directory records
/// so the store-level `w_min` is an O(segments) fold.
pub(crate) fn encode_segment(seg: &Segment, first: u32, end: u32) -> (Vec<u8>, f64) {
    // Degrees, ids and codes take a byte or two each.
    let mut out =
        Vec::with_capacity(2 * (end - first) as usize + 8 * seg.dict().len() + 3 * seg.edges());
    let lists = || (first..end).map(|node| seg.adjacency(node));
    for list in lists() {
        varint::write_u64(&mut out, list.len() as u64);
    }
    varint::write_u64(&mut out, seg.dict().len() as u64);
    for w in seg.dict() {
        out.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    for list in lists() {
        // The first id is absolute (a delta from 0), the rest deltas.
        let mut prev = 0;
        for &id in list.ids() {
            varint::write_u64(&mut out, u64::from(id - prev));
            prev = id;
        }
    }
    for list in lists() {
        for i in 0..list.len() {
            varint::write_u64(&mut out, list.code(i) as u64);
        }
    }
    let weights = seg.dict().iter().copied();
    let min_pos = weights.filter(|&w| w > 0.0).fold(f64::INFINITY, f64::min);
    (out, min_pos)
}

/// Decode one segment payload into its resident form.
///
/// `span` is the number of nodes the segment covers, `expected_edges`
/// the edge count the directory claims (`next.slot_start − slot_start`),
/// `id_bound` the exclusive upper bound for neighbor ids
/// (`node_count`), and `w_min` the store-level normalizer used to
/// score the dictionary entries when `with_escores` is set.
pub(crate) fn decode_segment(
    bytes: &[u8],
    span: u32,
    expected_edges: u32,
    first_node: u32,
    id_bound: u32,
    w_min: f64,
    with_escores: bool,
) -> Result<Segment, PagerError> {
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
    let dict: Box<[f64]> = bytes[pos..dict_end]
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

    let mut codes = Vec::with_capacity(m);
    for _ in 0..m {
        let code =
            varint::read_u64(bytes, &mut pos).ok_or_else(|| malformed("weight index varint"))?;
        if code >= dict_len {
            return Err(malformed("weight index out of dictionary"));
        }
        codes.push(code as u32);
    }
    if pos != bytes.len() {
        return Err(malformed("trailing bytes after segment payload"));
    }

    let escores: Box<[f64]> = if with_escores {
        dict.iter().map(|&w| edge_log_score(w, w_min)).collect()
    } else {
        Box::default()
    };

    Ok(Segment::new(
        first_node, &offsets, ids, &codes, dict, escores,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::{Adjacency, SegmentBuilder};

    /// Encode plain `(ids, weights)` lists as one segment payload.
    fn encode(lists: &[(&[u32], &[f64])]) -> (Vec<u8>, f64) {
        let mut builder = SegmentBuilder::default();
        for (ids, ws) in lists {
            for (&id, &w) in ids.iter().zip(*ws) {
                builder.edge(id, w);
            }
            builder.end_list();
        }
        encode_segment(&builder.finish(0, None), 0, lists.len() as u32)
    }

    fn pairs(adjacency: Adjacency<'_>) -> Vec<(u32, u64)> {
        adjacency.iter().map(|(id, w)| (id, w.to_bits())).collect()
    }

    /// Every list of `seg` equals its input, bit for bit, and (forward)
    /// every edge's score equals the recomputed `log2(1 + w/w_min)`.
    fn assert_decodes_to(seg: &Segment, first: u32, lists: &[(&[u32], &[f64])], w_min: f64) {
        for (i, (ids, ws)) in lists.iter().enumerate() {
            let adjacency = seg.adjacency(first + i as u32);
            let want: Vec<(u32, u64)> = ids
                .iter()
                .zip(*ws)
                .map(|(&id, w)| (id, w.to_bits()))
                .collect();
            assert_eq!(pairs(adjacency), want, "list {i}");
            for (e, &w) in ws.iter().enumerate() {
                let recomputed = (1.0 + w / w_min).log2();
                assert_eq!(
                    adjacency.escore(e).to_bits(),
                    recomputed.to_bits(),
                    "list {i} edge {e}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_mixed_lists() {
        let lists: Vec<(&[u32], &[f64])> = vec![
            (&[1, 5, 6][..], &[0.5, 2.0, 0.5][..]),
            (&[][..], &[][..]),
            (&[0][..], &[2.0][..]),
        ];
        let (buf, min_pos) = encode(&lists);
        assert_eq!(min_pos, 0.5);
        let seg = decode_segment(&buf, 3, 4, 10, 20, 0.5, true).unwrap();
        assert_decodes_to(&seg, 10, &lists, 0.5);
        // u16 offsets, u32 ids, u8 codes, two dictionary entries and
        // their two scores (any wider lane would count more bytes).
        assert_eq!(seg.bytes(), 4 * 2 + 4 * 4 + 4 + 2 * 8 + 2 * 8);
        // A reverse segment carries no scores.
        let rev = decode_segment(&buf, 3, 4, 10, 20, 0.5, false).unwrap();
        assert_eq!(rev.bytes(), seg.bytes() - 2 * 8);
        assert_eq!(pairs(rev.adjacency(10)), pairs(seg.adjacency(10)));
    }

    #[test]
    fn wide_dictionary_and_hub_node_widen_their_lanes() {
        // A hub with more edges than u16 offsets address, whose 300
        // distinct weights need u16 codes, between two small lists.
        let hub_ids: Vec<u32> = (0..70_000).collect();
        let hub_ws: Vec<f64> = (0..70_000).map(|i| 0.25 + f64::from(i % 300)).collect();
        let lists: Vec<(&[u32], &[f64])> = vec![
            (&[3][..], &[7.25][..]),
            (&hub_ids, &hub_ws),
            (&[1, 2][..], &[0.25, 7.25][..]),
        ];
        let (buf, min_pos) = encode(&lists);
        assert_eq!(min_pos, 0.25);
        let seg = decode_segment(&buf, 3, 70_003, 0, 70_000, 0.25, true).unwrap();
        // u32 offsets, u32 ids, u16 codes, 300 dictionary entries and
        // their 300 scores.
        assert_eq!(
            seg.bytes(),
            4 * 4 + 70_003 * 4 + 70_003 * 2 + 300 * 8 + 300 * 8
        );
        assert_decodes_to(&seg, 0, &lists, 0.25);

        // Beyond 65 536 distinct weights the codes are u32.
        let ids: Vec<u32> = (0..70_000).collect();
        let ws: Vec<f64> = (0..70_000).map(f64::from).collect();
        let lists: Vec<(&[u32], &[f64])> = vec![(&ids, &ws)];
        let (buf, _) = encode(&lists);
        let seg = decode_segment(&buf, 1, 70_000, 0, 70_000, 1.0, false).unwrap();
        // u32 offsets, ids and codes, 70 000 entries, no scores.
        assert_eq!(seg.bytes(), 2 * 4 + 70_000 * 4 + 70_000 * 4 + 70_000 * 8);
        let want: Vec<(u32, u64)> = ids
            .iter()
            .zip(&ws)
            .map(|(&id, w)| (id, w.to_bits()))
            .collect();
        assert_eq!(pairs(seg.adjacency(0)), want);
    }

    #[test]
    fn dictionary_scores_match_the_per_edge_lane() {
        // Scores per dictionary entry equal a per-edge f64 lane of
        // recomputed `log2(1 + w/w_min)`, for awkward weights too.
        let ws = [0.1, 1.0 / 3.0, 2.0, 1e-9, 0.1, 7.25, 2.0, 1e9];
        let ids: Vec<u32> = (0..ws.len() as u32).collect();
        let lists: Vec<(&[u32], &[f64])> = vec![(&ids, &ws)];
        let (buf, w_min) = encode(&lists);
        let seg = decode_segment(&buf, 1, ws.len() as u32, 0, 100, w_min, true).unwrap();
        // Repeats share an entry: 6 dictionary entries and 6 scores
        // beside u16 offsets, u32 ids and u8 codes.
        assert_eq!(seg.bytes(), 2 * 2 + 8 * 4 + 8 + 6 * 8 + 6 * 8);
        let lane: Vec<u64> = ws
            .iter()
            .map(|&w| (1.0 + w / w_min).log2().to_bits())
            .collect();
        let adjacency = seg.adjacency(0);
        let got: Vec<u64> = (0..ws.len())
            .map(|i| adjacency.escore(i).to_bits())
            .collect();
        assert_eq!(got, lane);
    }

    #[test]
    fn corrupt_payloads_rejected() {
        let lists: Vec<(&[u32], &[f64])> = vec![(&[2, 4][..], &[1.0, 3.0][..])];
        let (buf, _) = encode(&lists);
        // Wrong edge count vs directory.
        assert!(decode_segment(&buf, 1, 3, 0, 10, 1.0, false).is_err());
        // Truncated payload.
        assert!(decode_segment(&buf[..buf.len() - 1], 1, 2, 0, 10, 1.0, false).is_err());
        // Id out of bound.
        assert!(decode_segment(&buf, 1, 2, 0, 3, 1.0, false).is_err());
        // Trailing garbage.
        let mut extended = buf.clone();
        extended.push(0);
        assert!(decode_segment(&extended, 1, 2, 0, 10, 1.0, false).is_err());
        // A code past the dictionary (the last byte is the last code).
        let mut bad_code = buf.clone();
        *bad_code.last_mut().unwrap() = 2;
        assert!(decode_segment(&bad_code, 1, 2, 0, 10, 1.0, false).is_err());
    }

    #[test]
    fn degenerate_w_min_zeroes_escores() {
        let lists: Vec<(&[u32], &[f64])> = vec![(&[1][..], &[0.0][..])];
        let (buf, min_pos) = encode(&lists);
        assert!(min_pos.is_infinite());
        let seg = decode_segment(&buf, 1, 1, 0, 10, f64::INFINITY, true).unwrap();
        assert_eq!(seg.adjacency(0).escore(0), 0.0);
    }
}
