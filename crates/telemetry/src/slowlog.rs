//! Bounded in-memory slow-query log.
//!
//! Keeps the `capacity` worst queries seen so far, ranked by total
//! duration, each with its span breakdown. Recording happens once per
//! *cold* query (cache hits never reach it), so a mutex is fine here —
//! the hot path never touches this module.

use crate::span::Span;
use std::sync::Mutex;

/// One retained slow query.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// The normalized query text.
    pub query: String,
    /// End-to-end cold duration in microseconds.
    pub total_us: u64,
    /// Snapshot epoch the query ran against.
    pub epoch: u64,
    /// Wall-clock completion time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Heap bytes of the query's search state at its end.
    pub state_bytes: u64,
    /// Why the search ended (`exhausted`, `top_k`, `deadline`,
    /// `pop_cap`, or `cross_product_cap` when that cap cut it).
    pub stop: &'static str,
    /// Phase breakdown (empty when span recording was off).
    pub spans: Vec<Span>,
}

/// A bounded worst-N collection of [`SlowQuery`] entries.
#[derive(Debug)]
pub struct SlowLog {
    capacity: usize,
    entries: Mutex<Vec<SlowQuery>>,
}

impl SlowLog {
    /// A log retaining the `capacity` slowest queries.
    pub fn new(capacity: usize) -> SlowLog {
        SlowLog {
            capacity,
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offer a query that took `total_us`; it is retained if the log has
    /// room or it is slower than the current fastest retained entry.
    /// `build` runs only for a query that will be retained, so a fast
    /// query allocates nothing; its `total_us` is overwritten with the
    /// one passed here.
    pub fn record(&self, total_us: u64, build: impl FnOnce() -> SlowQuery) {
        if self.capacity == 0 {
            return;
        }
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() < self.capacity {
            entries.push(SlowQuery {
                total_us,
                ..build()
            });
            return;
        }
        let (min_idx, min) = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.total_us)
            .expect("non-empty at capacity");
        if total_us > min.total_us {
            entries[min_idx] = SlowQuery {
                total_us,
                ..build()
            };
        }
    }

    /// The retained queries, slowest first.
    pub fn snapshot(&self) -> Vec<SlowQuery> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = entries.clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.total_us));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(name: &str) -> SlowQuery {
        SlowQuery {
            query: name.to_string(),
            total_us: 0,
            epoch: 1,
            unix_ms: 0,
            state_bytes: 0,
            stop: "exhausted",
            spans: Vec::new(),
        }
    }

    #[test]
    fn keeps_the_worst_n() {
        let log = SlowLog::new(3);
        for (name, us) in [("a", 10), ("b", 50), ("c", 20), ("d", 40), ("e", 5)] {
            log.record(us, || q(name));
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 3);
        let names: Vec<&str> = snap.iter().map(|e| e.query.as_str()).collect();
        assert_eq!(names, ["b", "d", "c"]);
        let totals: Vec<u64> = snap.iter().map(|e| e.total_us).collect();
        assert_eq!(totals, [50, 40, 20]);
    }

    #[test]
    fn a_query_that_would_be_dropped_is_never_built() {
        let log = SlowLog::new(2);
        log.record(30, || q("a"));
        log.record(20, || q("b"));
        // Full, and no faster than the fastest retained entry (20 µs).
        for us in [5, 20] {
            log.record(us, || panic!("built an entry the log drops ({us} µs)"));
        }
        let names: Vec<String> = log.snapshot().into_iter().map(|e| e.query).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let log = SlowLog::new(0);
        log.record(10, || panic!("a zero-capacity log builds nothing"));
        assert!(log.snapshot().is_empty());
    }
}
