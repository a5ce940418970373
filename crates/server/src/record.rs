//! The compact record a cached result keeps its answers in.
//!
//! A cache entry outlives the search that filled it, so it holds the
//! ranked connection trees (§2–§3) as one varint-coded byte string
//! instead of the kernel's working form (a `Vec<Answer>` with two `Vec`s
//! per tree). The layout, little-endian throughout:
//!
//! ```text
//! record  := varint(answers) answer*
//! answer  := relevance: 8 raw bytes (f64 bits)
//!            varint(root)
//!            varint(keyword nodes) zigzag(node − previous)*   previous starts at the root
//!            varint(edges) edge*                              in the tree's (from, to) order
//! edge    := zigzag(from − previous from) zigzag(to − from) weight
//! weight  := one byte w < 255 when the weight's bits are exactly w as f64
//!          | 0xFF, then the weight's 8 raw bytes
//! ```
//!
//! Forward edges weigh 1 and backward edges a small `IN` count, so an
//! edge is usually 3–5 bytes and a ten-answer result about half a KiB.
//! [`decode`] rebuilds each tree through [`ConnectionTree::new`], which
//! sums the edge weights in the same order the kernel did: a decoded
//! answer equals the encoded one bit for bit — relevance, tree weight
//! and every edge weight.

use banks_core::{Answer, ConnectionTree};
use banks_graph::NodeId;

/// Weight code announcing 8 raw bytes.
const RAW_WEIGHT: u8 = 0xFF;

/// Encode ranked answers into one exact-size record.
pub(crate) fn encode(answers: &[Answer]) -> Box<[u8]> {
    let mut out = Vec::with_capacity(16 + answers.len() * 56);
    put_varint(&mut out, answers.len() as u64);
    for answer in answers {
        let tree = &answer.tree;
        out.extend_from_slice(&answer.relevance.to_bits().to_le_bytes());
        put_varint(&mut out, u64::from(tree.root.0));
        put_varint(&mut out, tree.keyword_nodes.len() as u64);
        let mut prev = tree.root.0;
        for node in &tree.keyword_nodes {
            put_delta(&mut out, prev, node.0);
            prev = node.0;
        }
        put_varint(&mut out, tree.edges.len() as u64);
        let mut prev = tree.root.0;
        for &(from, to, weight) in &tree.edges {
            put_delta(&mut out, prev, from.0);
            put_delta(&mut out, from.0, to.0);
            prev = from.0;
            let small = weight as u8;
            if small != RAW_WEIGHT && f64::from(small).to_bits() == weight.to_bits() {
                out.push(small);
            } else {
                out.push(RAW_WEIGHT);
                out.extend_from_slice(&weight.to_bits().to_le_bytes());
            }
        }
    }
    out.into_boxed_slice()
}

/// Number of answers in a record, read from its header alone.
pub(crate) fn answer_count(record: &[u8]) -> usize {
    Reader { bytes: record }.varint() as usize
}

/// Decode a record written by [`encode`] back into the kernel's answers.
pub(crate) fn decode(record: &[u8]) -> Vec<Answer> {
    let mut reader = Reader { bytes: record };
    let count = reader.varint() as usize;
    let answers = (0..count)
        .map(|_| {
            let relevance = f64::from_bits(reader.u64());
            let root = reader.varint() as u32;
            let mut prev = root;
            let keyword_nodes = (0..reader.varint())
                .map(|_| {
                    prev = reader.delta(prev);
                    NodeId(prev)
                })
                .collect();
            let mut prev = root;
            let edges = (0..reader.varint())
                .map(|_| {
                    let from = reader.delta(prev);
                    let to = reader.delta(from);
                    prev = from;
                    let weight = match reader.byte() {
                        RAW_WEIGHT => f64::from_bits(reader.u64()),
                        small => f64::from(small),
                    };
                    (NodeId(from), NodeId(to), weight)
                })
                .collect();
            Answer {
                tree: ConnectionTree::new(NodeId(root), keyword_nodes, edges),
                relevance,
            }
        })
        .collect();
    debug_assert!(reader.bytes.is_empty(), "trailing bytes in a result record");
    answers
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// `to − from` as a zigzag varint: a small step either way is one byte.
fn put_delta(out: &mut Vec<u8>, from: u32, to: u32) {
    let d = i64::from(to) - i64::from(from);
    put_varint(out, ((d << 1) ^ (d >> 63)) as u64);
}

/// A cursor over a record. Records are written in-process by
/// [`encode`], so a short one is a bug and panics.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl Reader<'_> {
    fn byte(&mut self) -> u8 {
        let (&b, rest) = self.bytes.split_first().expect("truncated result record");
        self.bytes = rest;
        b
    }

    fn u64(&mut self) -> u64 {
        let (raw, rest) = self.bytes.split_at(8);
        self.bytes = rest;
        u64::from_le_bytes(raw.try_into().expect("8 bytes"))
    }

    fn varint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    /// The node `from + delta`, for a zigzag delta written by [`put_delta`].
    fn delta(&mut self, from: u32) -> u32 {
        let z = self.varint();
        let d = (z >> 1) as i64 ^ -((z & 1) as i64);
        (i64::from(from) + d) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Edge weights the kernel and a hostile caller may produce: the
    /// one-byte range and its boundary, zero, and non-integers.
    fn weight() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u32..300).prop_map(f64::from),
            Just(0.0),
            Just(-0.0),
            Just(127.0),
            Just(128.0),
            Just(254.0),
            Just(255.0),
            Just(f64::MAX),
            Just(f64::MIN_POSITIVE),
            Just(0.5),
            any::<f64>(),
            (1u32..1_000_000).prop_map(|n| f64::from(n) / 7.0),
        ]
    }

    /// Node ids across every varint length, up to `u32::MAX - 1`.
    fn node() -> impl Strategy<Value = u32> {
        prop_oneof![
            0u32..200,
            Just(127),
            Just(128),
            Just(16_383),
            Just(16_384),
            Just(u32::MAX - 1),
            (u32::MAX - 300)..(u32::MAX - 1),
            any::<u32>().prop_map(|n| n.min(u32::MAX - 1)),
        ]
    }

    /// A tree built the way the kernel builds one: a root, per-term
    /// keyword nodes (a node may serve several terms), and a path union
    /// of 0–12 edges that `ConnectionTree::new` sorts and deduplicates.
    fn answer() -> impl Strategy<Value = Answer> {
        (
            node(),
            proptest::collection::vec(node(), 1..4),
            proptest::collection::vec((node(), node(), weight()), 0..12),
            prop_oneof![
                Just(0.0),
                Just(1.0),
                Just(f64::MAX),
                (0u64..1_000_000).prop_map(|n| n as f64 / 999_983.0),
                any::<f64>(),
            ],
            0u32..4,
        )
            .prop_map(|(root, keywords, edges, relevance, shared)| {
                let mut keyword_nodes: Vec<NodeId> = keywords.into_iter().map(NodeId).collect();
                // Single-term and metadata answers: one node, no edges.
                if shared == 0 {
                    keyword_nodes = vec![NodeId(root); keyword_nodes.len()];
                    return Answer {
                        tree: ConnectionTree::new(NodeId(root), keyword_nodes, Vec::new()),
                        relevance,
                    };
                }
                // A node serving several terms.
                if shared == 1 {
                    keyword_nodes.push(keyword_nodes[0]);
                }
                let edges = edges
                    .into_iter()
                    .map(|(f, t, w)| (NodeId(f), NodeId(t), w))
                    .collect();
                Answer {
                    tree: ConnectionTree::new(NodeId(root), keyword_nodes, edges),
                    relevance,
                }
            })
    }

    type Bits = (u64, u32, Vec<u32>, Vec<(u32, u32, u64)>, u64);

    /// Bit-level view of an answer: `==` on `f64` would let `0.0` equal
    /// `-0.0`.
    fn bits(a: &Answer) -> Bits {
        let t = &a.tree;
        (
            a.relevance.to_bits(),
            t.root.0,
            t.keyword_nodes.iter().map(|n| n.0).collect(),
            t.edges
                .iter()
                .map(|&(f, to, w)| (f.0, to.0, w.to_bits()))
                .collect(),
            t.weight.to_bits(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Decode ∘ encode is the identity on bits, for results of 0 to
        /// 10 answers, and the header alone gives the answer count.
        #[test]
        fn records_round_trip_bit_exactly(answers in proptest::collection::vec(answer(), 0..11)) {
            let record = encode(&answers);
            let decoded = decode(&record);
            prop_assert_eq!(answer_count(&record), answers.len());
            let want: Vec<_> = answers.iter().map(bits).collect();
            let got: Vec<_> = decoded.iter().map(bits).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(decoded, answers);
        }
    }

    #[test]
    fn small_integer_weights_take_one_byte_and_others_nine() {
        let tree = |w: f64| Answer {
            tree: ConnectionTree::new(NodeId(1), vec![NodeId(2)], vec![(NodeId(1), NodeId(2), w)]),
            relevance: 0.5,
        };
        // count, relevance, root, 1 keyword node, 1 edge, from, to.
        let frame = 1 + 8 + 1 + 1 + 1 + 1 + 1 + 1;
        for w in [0.0, 1.0, 127.0, 128.0, 254.0] {
            assert_eq!(encode(&[tree(w)]).len(), frame + 1, "{w}");
        }
        for w in [-0.0, 255.0, 0.5, f64::MAX] {
            assert_eq!(encode(&[tree(w)]).len(), frame + 9, "{w}");
        }
        assert_eq!(&*encode(&[]), &[0]);
    }
}
