//! A 4-ary min-heap specialized for the Dijkstra distance queue.
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
//! downstream answer) is bit-identical to the `BinaryHeap` kernel.

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

/// A min-heap of `(dist, node)` keys ordered by `f64::total_cmp` on the
/// distance, then ascending node id.
#[derive(Debug, Clone, Default)]
pub(crate) struct DistHeap {
    data: Vec<Entry>,
}

#[inline]
fn less(a: Entry, b: Entry) -> bool {
    match { a.dist }.total_cmp(&{ b.dist }) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a.node < b.node,
    }
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
    pub(crate) fn peek(&self) -> Option<(f64, u32)> {
        self.data.first().map(|e| (e.dist, e.node))
    }

    /// Insert an entry.
    #[inline]
    pub(crate) fn push(&mut self, dist: f64, node: u32) {
        self.data.push(Entry { dist, node });
        self.sift_up(self.data.len() - 1);
    }

    /// Remove and return the smallest entry.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(f64, u32)> {
        let last = self.data.len().checked_sub(1)?;
        self.data.swap(0, last);
        let top = self.data.pop();
        if !self.data.is_empty() {
            self.sift_down(0);
        }
        top.map(|e| (e.dist, e.node))
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.data[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if less(entry, self.data[parent]) {
                self.data[i] = self.data[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.data[i] = entry;
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.data.len();
        let entry = self.data[i];
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            let mut best = first_child;
            let end = (first_child + ARITY).min(len);
            for c in first_child + 1..end {
                if less(self.data[c], self.data[best]) {
                    best = c;
                }
            }
            if less(self.data[best], entry) {
                self.data[i] = self.data[best];
                i = best;
            } else {
                break;
            }
        }
        self.data[i] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
