//! A 4-ary min-heap of `(dist, id)` keys: the Dijkstra distance queue,
//! and the search kernels' iterator heap (keyed by each iterator's next
//! distance and its index).
//!
//! `std::collections::BinaryHeap` is binary and max-ordered, which the old
//! kernel worked around with a reversed `Ord` wrapper. A 4-ary layout
//! halves the tree depth, keeps each sift-down's children in one cache
//! line, and lets the arena recycle the backing buffer between queries
//! without reallocation.
//!
//! An entry is 12 bytes with 4-byte alignment: the `f64` distance, then
//! the node id. A plain `(f64, u32)` tuple pads to 16 bytes, so packing
//! saves a quarter of every queue a broad query grows.
//!
//! Ordering matches the old wrapper exactly — smallest distance first,
//! ties broken by the smaller node id — so pop order (and therefore every
//! downstream answer) is bit-identical to the `BinaryHeap` kernel. An
//! entry compares as one integer key, `dist.to_bits() << 32 | node`
//! (see [`key`]), and a sift-down picks the least of four children with
//! masks instead of branches. The
//! kernel never queues the same `(dist, node)` key twice (a node is
//! re-queued only at a strictly smaller distance), so the keys are
//! distinct and any correct heap over them pops one sequence: reusing
//! the popped root for the next push ([`DistHeap::replace_top`]) does
//! not change it.

/// Arity of the heap. Four children share a 64-byte line at 12 bytes per
/// entry.
const ARITY: usize = 4;

/// One queued `(dist, node)` key; `packed(4)` drops the padding.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Entry {
    dist: f64,
    node: u32,
}

/// A 4-ary min-heap of `(dist, node)` keys ordered by distance, then
/// ascending node id (or any other `u32` id: the search kernels key
/// their iterator heap by iterator index). Distances must not be
/// negative: a key compares the distance's bit pattern as an integer.
#[derive(Debug, Clone, Default)]
pub struct DistHeap {
    data: Vec<Entry>,
}

/// The entry's sort key as one integer: the distance's bits above the
/// node id. The bit patterns of non-negative floats (`+0.0` included)
/// sort as their values, so comparing keys gives `total_cmp`'s order on
/// the distances the kernel queues, ties broken by node id — the order
/// of the `(dist, node)` tuple, with one integer compare.
#[inline(always)]
fn key(e: Entry) -> u128 {
    debug_assert!({ e.dist }.is_sign_positive());
    (u128::from({ e.dist }.to_bits()) << 32) | u128::from(e.node)
}

/// The smaller of two `(key, index)` pairs, picked with masks rather
/// than a branch: which child is least is a coin toss the branch
/// predictor cannot learn.
#[inline(always)]
fn min_pair(a: (u128, usize), b: (u128, usize)) -> (u128, usize) {
    let take_b = b.0 < a.0;
    let wide = 0u128.wrapping_sub(u128::from(take_b));
    let narrow = 0usize.wrapping_sub(usize::from(take_b));
    (
        (b.0 & wide) | (a.0 & !wide),
        (b.1 & narrow) | (a.1 & !narrow),
    )
}

impl DistHeap {
    /// Drop all entries, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.data.clear();
    }

    /// Shrink policy: clamp the retained backing buffer to at most
    /// `max_entries` (keeping at least the current length). One huge
    /// query can grow the queue toward O(edges); without this, every
    /// recycled state would pin that worst case forever.
    pub(crate) fn shrink_to_entries(&mut self, max_entries: usize) {
        if self.data.capacity() > max_entries {
            self.data.shrink_to(max_entries);
        }
    }

    /// Bytes retained by the backing buffer.
    pub(crate) fn retained_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<Entry>()
    }

    /// The smallest entry, if any.
    #[inline]
    pub fn peek(&self) -> Option<(f64, u32)> {
        self.data.first().map(|e| (e.dist, e.node))
    }

    /// Insert an entry.
    #[inline]
    pub fn push(&mut self, dist: f64, node: u32) {
        self.data.push(Entry { dist, node });
        self.sift_up(self.data.len() - 1);
    }

    /// Remove and return the smallest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, u32)> {
        let last = self.data.len().checked_sub(1)?;
        self.data.swap(0, last);
        let top = self.data.pop();
        if !self.data.is_empty() {
            self.sift_down(0);
        }
        top.map(|e| (e.dist, e.node))
    }

    /// Replace the smallest entry by `(dist, node)`: a pop and a push
    /// with one sift instead of two. The heap must not be empty.
    #[inline]
    pub fn replace_top(&mut self, dist: f64, node: u32) {
        self.data[0] = Entry { dist, node };
        self.sift_down(0);
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.data[i];
        let k = key(entry);
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if k < key(self.data[parent]) {
                self.data[i] = self.data[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.data[i] = entry;
    }

    /// Move the entry at `i` down to its place. A full family of four
    /// children is reduced to its least member without branches; a
    /// partial family is the last level (its children have none), so
    /// it is scanned once and the sift ends there.
    fn sift_down(&mut self, mut i: usize) {
        let len = self.data.len();
        let entry = self.data[i];
        let k = key(entry);
        loop {
            let first = i * ARITY + 1;
            if let Some(family) = self.data.get(first..first + ARITY) {
                let pair = |c: usize| (key(family[c]), c);
                let least = min_pair(min_pair(pair(0), pair(1)), min_pair(pair(2), pair(3)));
                if least.0 >= k {
                    break;
                }
                self.data[i] = family[least.1];
                i = first + least.1;
            } else {
                let mut least = (k, usize::MAX);
                for c in first..len {
                    least = min_pair(least, (key(self.data[c]), c));
                }
                if least.1 != usize::MAX {
                    self.data[i] = self.data[least.1];
                    i = least.1;
                }
                break;
            }
        }
        self.data[i] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference queue: a plain list whose least `(dist, node)`
    /// pair, by `total_cmp` then node id, is found by a scan.
    fn take_least(reference: &mut Vec<(f64, u32)>) -> Option<(f64, u32)> {
        let least = (0..reference.len()).min_by(|&a, &b| {
            let (a, b) = (reference[a], reference[b]);
            a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
        })?;
        Some(reference.swap_remove(least))
    }

    proptest! {
        /// Interleaved pushes, pops and top replacements pop exactly the
        /// reference order. Six distances over forty ids repeat keys'
        /// distances (ties broken by id) and, now and then, whole keys;
        /// the queue passes through every length modulo four, so sifts
        /// meet partial last families at every depth.
        #[test]
        fn branch_free_sifts_pop_the_sorted_reference_order(
            ops in proptest::collection::vec((0u32..4, 0u32..6, 0u32..40), 1..400)
        ) {
            let mut heap = DistHeap::default();
            let mut reference = Vec::new();
            for (op, d, node) in ops {
                let dist = f64::from(d) / 4.0;
                match op {
                    0 | 1 => {
                        heap.push(dist, node);
                        reference.push((dist, node));
                    }
                    2 => prop_assert_eq!(heap.pop(), take_least(&mut reference)),
                    _ => {
                        prop_assert_eq!(heap.peek(), {
                            let least = take_least(&mut reference);
                            reference.extend(least);
                            least
                        });
                        if heap.peek().is_some() {
                            take_least(&mut reference);
                            heap.replace_top(dist, node);
                            reference.push((dist, node));
                        }
                    }
                }
                prop_assert_eq!(heap.data.len(), reference.len());
            }
            while let Some(top) = heap.pop() {
                prop_assert_eq!(Some(top), take_least(&mut reference));
            }
            prop_assert!(reference.is_empty());
        }
    }

    #[test]
    fn every_length_drains_in_order() {
        // Lengths 1..=85 end the heap with 0..=3 children in the last
        // family at depths one to three.
        for n in 1..=85u32 {
            let mut heap = DistHeap::default();
            for i in 0..n {
                heap.push(f64::from((n - i) % 3), n - i);
            }
            let mut expect: Vec<(f64, u32)> = (1..=n).map(|v| (f64::from(v % 3), v)).collect();
            expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let got: Vec<_> = std::iter::from_fn(|| heap.pop()).collect();
            assert_eq!(got, expect, "length {n}");
        }
    }

    #[test]
    fn entries_are_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 12);
        assert_eq!(std::mem::align_of::<Entry>(), 4);
        let mut h = DistHeap::default();
        h.push(1.0, 1);
        assert_eq!(h.retained_bytes(), h.data.capacity() * 12);
    }

    #[test]
    fn pops_in_distance_then_node_order() {
        let mut h = DistHeap::default();
        for &(d, n) in &[(2.0, 7), (1.0, 3), (2.0, 1), (0.5, 9), (1.0, 2)] {
            h.push(d, n);
        }
        let mut out = Vec::new();
        while let Some(e) = h.pop() {
            out.push(e);
        }
        assert_eq!(
            out,
            vec![(0.5, 9), (1.0, 2), (1.0, 3), (2.0, 1), (2.0, 7)],
            "ties break by node id"
        );
    }

    #[test]
    fn peek_matches_pop_and_clear_retains_capacity() {
        let mut h = DistHeap::default();
        assert!(h.data.is_empty());
        assert_eq!(h.pop(), None);
        h.push(3.0, 0);
        h.push(1.0, 1);
        assert_eq!(h.peek(), Some((1.0, 1)));
        assert_eq!(h.pop(), Some((1.0, 1)));
        assert_eq!(h.data.len(), 1);
        h.clear();
        assert!(h.data.is_empty());
        assert_eq!(h.peek(), None);
    }

    #[test]
    fn shrink_policy_caps_capacity() {
        let mut h = DistHeap::default();
        for i in 0..10_000u32 {
            h.push(i as f64, i);
        }
        while h.pop().is_some() {}
        assert!(h.data.capacity() >= 10_000);
        h.shrink_to_entries(64);
        assert!(
            h.data.capacity() <= 64,
            "capacity {} not capped",
            h.data.capacity()
        );
        assert!(h.retained_bytes() <= 64 * std::mem::size_of::<Entry>());
        // Shrinking never drops live entries.
        for i in 0..128u32 {
            h.push(i as f64, i);
        }
        h.shrink_to_entries(64);
        assert_eq!(h.data.len(), 128);
        assert_eq!(h.pop(), Some((0.0, 0)));
    }

    #[test]
    fn agrees_with_a_sort_on_random_input() {
        // Deterministic xorshift fuzz: heap order == lexicographic sort.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut h = DistHeap::default();
        let mut expected: Vec<(f64, u32)> = Vec::new();
        for _ in 0..500 {
            let d = (next() % 64) as f64 / 8.0;
            let n = (next() % 97) as u32;
            h.push(d, n);
            expected.push((d, n));
        }
        expected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut got = Vec::new();
        while let Some(e) = h.pop() {
            got.push(e);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn replace_top_pops_like_pop_then_push() {
        // Interleave pops with pushes, once as pop + push and once with
        // the push folded into the popped slot: same sequence.
        let mut x = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut plain, mut folded) = (DistHeap::default(), DistHeap::default());
        for n in 0..64u32 {
            let d = (next() % 16) as f64 / 4.0;
            plain.push(d, n);
            folded.push(d, n);
        }
        let mut n = 64u32;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        while !plain.data.is_empty() {
            let top = plain.pop().unwrap();
            a.push(top);
            b.push(folded.peek().unwrap());
            let pushes = if n < 400 { next() % 3 } else { 0 };
            if pushes == 0 {
                folded.pop();
            }
            for k in 0..pushes {
                let d = top.0 + (next() % 8) as f64 / 8.0;
                plain.push(d, n);
                if k == 0 {
                    folded.replace_top(d, n);
                } else {
                    folded.push(d, n);
                }
                n += 1;
            }
        }
        assert!(folded.data.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn bit_order_is_value_order_for_non_negative_distances() {
        let keys = [0.0, 1e-300, 0.1, 0.5, 1.0, 1.5, 2.0, 1e10, f64::INFINITY];
        for (i, &a) in keys.iter().enumerate() {
            for (j, &b) in keys.iter().enumerate() {
                let (ea, eb) = (Entry { dist: a, node: 0 }, Entry { dist: b, node: 1 });
                assert_eq!(key(ea) < key(eb), i <= j, "{a} vs {b}");
            }
        }
    }
}
