//! Lock-free sharded counters.
//!
//! [`Counter`] spreads increments across a small fixed array of
//! cache-line-padded atomic cells indexed by a per-thread shard id, so
//! concurrent writers on different cores do not bounce a single cache
//! line. Reads sum every cell; they are monotone but not linearizable
//! with respect to in-flight increments, which is exactly what a scrape
//! needs and nothing more.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of padded cells per counter. A small power of two: enough to
/// spread the worker pool, cheap enough to sum on every scrape.
const SHARDS: usize = 16;

/// One cache line worth of counter cell so neighbouring shards never
/// share a line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

/// Next thread shard id; assigned once per thread on first use.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's home cell index, stable for the thread's lifetime.
    static THREAD_SHARD: usize =
        NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

#[inline]
fn thread_shard() -> usize {
    THREAD_SHARD.with(|s| *s)
}

/// A monotonically increasing counter with sharded storage.
#[derive(Default)]
pub struct Counter {
    cells: [PaddedCell; SHARDS],
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.cells[thread_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total across all shards.
    pub(crate) fn get(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::default());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }
}
