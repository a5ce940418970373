//! The fixed-size output buffer of §3.
//!
//! Connection trees are generated in (approximately) increasing tree-weight
//! order, but relevance also depends on node prestige, so generation order
//! is not relevance order. "To avoid these overheads, as a heuristic, we
//! maintain a small fixed-size heap of generated connection trees … When
//! the heap is full, and we want to add a new tree, we output the tree of
//! highest relevance and replace it in the heap."
//!
//! Capacities are small (the paper found "a reasonably small heap size"
//! sufficient; our default is 30), so this is a plain vector with linear
//! scans rather than a binary heap — simpler, and it must support removal
//! by signature for duplicate replacement anyway.

use crate::answer::{Answer, TreeSignature};

/// Fixed-capacity relevance buffer.
#[derive(Debug, Clone)]
pub(crate) struct OutputHeap {
    capacity: usize,
    entries: Vec<(Answer, TreeSignature)>,
    /// Bumped on every content change, so the early-termination cutoff
    /// (a scan of this buffer) can be memoized between iterator pops.
    version: u64,
}

impl OutputHeap {
    /// Create a buffer holding at most `capacity` answers.
    pub(crate) fn new(capacity: usize) -> OutputHeap {
        assert!(capacity >= 1, "output heap capacity must be >= 1");
        OutputHeap {
            capacity,
            entries: Vec::with_capacity(capacity + 1),
            version: 0,
        }
    }

    /// Monotone content-change counter.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Relevance of the `k`-th best buffered answer (1-based), or `None`
    /// when fewer than `k` answers are buffered. This is the
    /// early-termination cutoff: with `k` answers still owed, a future
    /// tree must beat this value to alter the final output.
    pub(crate) fn kth_best_relevance(&self, k: usize) -> Option<f64> {
        if k == 0 || self.entries.len() < k {
            return None;
        }
        let mut rels: Vec<f64> = self.entries.iter().map(|(a, _)| a.relevance).collect();
        rels.sort_unstable_by(|a, b| b.total_cmp(a));
        Some(rels[k - 1])
    }

    /// Number of buffered answers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Insert an answer. If the buffer overflows, the highest-relevance
    /// answer (which may be the new one) is emitted and returned.
    pub(crate) fn push(
        &mut self,
        answer: Answer,
        sig: TreeSignature,
    ) -> Option<(Answer, TreeSignature)> {
        self.version += 1;
        self.entries.push((answer, sig));
        if self.entries.len() <= self.capacity {
            return None;
        }
        let best = self.best_index()?;
        Some(self.entries.swap_remove(best))
    }

    /// Relevance of the buffered answer with the given signature.
    pub(crate) fn relevance_of(&self, sig: &TreeSignature) -> Option<f64> {
        self.entries
            .iter()
            .find(|(_, s)| s == sig)
            .map(|(a, _)| a.relevance)
    }

    /// Remove the buffered answer with the given signature.
    pub(crate) fn remove(&mut self, sig: &TreeSignature) -> Option<Answer> {
        let idx = self.entries.iter().position(|(_, s)| s == sig)?;
        self.version += 1;
        Some(self.entries.swap_remove(idx).0)
    }

    /// Index of the highest-relevance entry (ties: lower tree weight wins,
    /// then insertion order).
    fn best_index(&self) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for i in 1..self.entries.len() {
            let (a, _) = &self.entries[i];
            let (b, _) = &self.entries[best];
            let better = a.relevance > b.relevance
                || (a.relevance == b.relevance && a.tree.weight < b.tree.weight);
            if better {
                best = i;
            }
        }
        Some(best)
    }

    /// Drain all remaining answers in decreasing relevance order ("when all
    /// answers have been generated, the remaining trees in the heap are
    /// output in decreasing order of relevance").
    pub(crate) fn drain_sorted(mut self) -> Vec<(Answer, TreeSignature)> {
        self.entries.sort_by(|(a, _), (b, _)| {
            b.relevance
                .total_cmp(&a.relevance)
                .then(a.tree.weight.total_cmp(&b.tree.weight))
        });
        std::mem::take(&mut self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::ConnectionTree;
    use banks_graph::NodeId;

    fn answer(id: u32, relevance: f64) -> (Answer, TreeSignature) {
        let tree = ConnectionTree::new(NodeId(id), vec![NodeId(id)], vec![]);
        let sig = tree.signature();
        (Answer { tree, relevance }, sig)
    }

    #[test]
    fn no_emission_until_full() {
        let mut h = OutputHeap::new(3);
        for i in 0..3 {
            let (a, s) = answer(i, i as f64 / 10.0);
            assert!(h.push(a, s).is_none());
        }
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn overflow_emits_highest_relevance() {
        let mut h = OutputHeap::new(2);
        let (a0, s0) = answer(0, 0.1);
        let (a1, s1) = answer(1, 0.9);
        let (a2, s2) = answer(2, 0.5);
        h.push(a0, s0);
        h.push(a1, s1);
        let (emitted, _) = h.push(a2, s2).unwrap();
        assert_eq!(emitted.relevance, 0.9);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn overflow_can_emit_the_new_answer() {
        let mut h = OutputHeap::new(2);
        let (a0, s0) = answer(0, 0.1);
        let (a1, s1) = answer(1, 0.2);
        let (a2, s2) = answer(2, 0.95);
        h.push(a0, s0);
        h.push(a1, s1);
        let (emitted, _) = h.push(a2, s2).unwrap();
        assert_eq!(emitted.relevance, 0.95);
    }

    #[test]
    fn remove_by_signature() {
        let mut h = OutputHeap::new(3);
        let (a0, s0) = answer(0, 0.1);
        let (a1, s1) = answer(1, 0.2);
        let s0c = s0.clone();
        h.push(a0, s0);
        h.push(a1, s1);
        assert_eq!(h.relevance_of(&s0c), Some(0.1));
        let removed = h.remove(&s0c).unwrap();
        assert_eq!(removed.relevance, 0.1);
        assert_eq!(h.len(), 1);
        assert!(h.remove(&s0c).is_none());
        assert_eq!(h.relevance_of(&s0c), None);
    }

    #[test]
    fn drain_descending() {
        let mut h = OutputHeap::new(5);
        for (i, r) in [(0u32, 0.3), (1, 0.9), (2, 0.1), (3, 0.5)] {
            let (a, s) = answer(i, r);
            h.push(a, s);
        }
        let drained = h.drain_sorted();
        let rels: Vec<f64> = drained.iter().map(|(a, _)| a.relevance).collect();
        assert_eq!(rels, vec![0.9, 0.5, 0.3, 0.1]);
    }

    #[test]
    fn tie_break_prefers_lighter_tree() {
        let mut h = OutputHeap::new(1);
        let light = Answer {
            tree: ConnectionTree::new(
                NodeId(0),
                vec![NodeId(1)],
                vec![(NodeId(0), NodeId(1), 1.0)],
            ),
            relevance: 0.5,
        };
        let heavy = Answer {
            tree: ConnectionTree::new(
                NodeId(2),
                vec![NodeId(3)],
                vec![(NodeId(2), NodeId(3), 9.0)],
            ),
            relevance: 0.5,
        };
        let ls = light.tree.signature();
        let hs = heavy.tree.signature();
        h.push(heavy, hs);
        let (emitted, _) = h.push(light, ls).unwrap();
        assert_eq!(emitted.tree.weight, 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        OutputHeap::new(0);
    }

    #[test]
    fn kth_best_and_version_track_contents() {
        let mut h = OutputHeap::new(5);
        assert_eq!(h.version(), 0);
        assert_eq!(h.kth_best_relevance(1), None);
        for (i, r) in [(0u32, 0.3), (1, 0.9), (2, 0.1), (3, 0.5)] {
            let (a, s) = answer(i, r);
            h.push(a, s);
        }
        assert_eq!(h.version(), 4);
        assert_eq!(h.kth_best_relevance(1), Some(0.9));
        assert_eq!(h.kth_best_relevance(3), Some(0.3));
        assert_eq!(h.kth_best_relevance(4), Some(0.1));
        assert_eq!(h.kth_best_relevance(5), None, "only four buffered");
        assert_eq!(h.kth_best_relevance(0), None);
        let (_, s) = answer(1, 0.9);
        h.remove(&s);
        assert_eq!(h.version(), 5);
        assert_eq!(h.kth_best_relevance(1), Some(0.5));
    }
}
