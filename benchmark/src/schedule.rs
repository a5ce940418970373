//! The two load models: an open loop on a fixed arrival schedule and a
//! closed loop of back-to-back clients.
//!
//! Open loop: request `i` is due at `start + i × interval` whether or not
//! earlier ones have finished, and its latency is timed **from that due
//! time**, so a stall is charged to every request it delays. At most
//! `threads` requests are in flight; a request whose due time passes while
//! all threads are busy starts *backlogged* (the program's slowness, and
//! part of its latency). A thread that was idle but woke up more than
//! [`LATE_TOLERANCE`] after the due time is the generator's own fault and
//! is counted *late* — a run with more than 1 % late requests is invalid.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Waking this long after a due time (with a thread free) counts as late.
pub const LATE_TOLERANCE: Duration = Duration::from_millis(2);

/// The last stretch before a due time is polled, not slept: on the
/// reference VM a sleeping thread wakes 130 µs late at the median and 2 ms
/// late at p99 even on an idle machine, which would be charged to the
/// request. The poll yields on every turn, so it only uses cycles nobody
/// else wants.
const SPIN_WINDOW: Duration = Duration::from_millis(5);

/// One open-loop request.
#[derive(Debug)]
pub struct OpenSample<R> {
    pub index: usize,
    /// Due time → response complete.
    pub latency: Duration,
    /// Due time → request actually started.
    pub start_delay: Duration,
    /// Every thread was busy when the request fell due.
    pub backlogged: bool,
    pub result: R,
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN_WINDOW {
            std::thread::sleep(left - SPIN_WINDOW);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Run `n` requests on a fixed schedule; returns samples in index order.
pub fn open_loop<R: Send>(
    n: usize,
    interval: Duration,
    threads: usize,
    request: impl Fn(usize) -> R + Sync,
) -> Vec<OpenSample<R>> {
    // A small lead so every thread is parked before the first due time.
    let start = Instant::now() + Duration::from_millis(5);
    let next = AtomicUsize::new(0);
    let mut samples: Vec<OpenSample<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            return out;
                        }
                        let due = start + interval.mul_f64(index as f64);
                        let backlogged = Instant::now() >= due;
                        if !backlogged {
                            wait_until(due);
                        }
                        let started = Instant::now();
                        let result = request(index);
                        out.push(OpenSample {
                            index,
                            latency: due.elapsed(),
                            start_delay: started - due,
                            backlogged,
                            result,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    samples
}

/// `clients` threads issue requests back to back for `duration` (or until
/// `max_requests` have been issued). Returns, in completion order, each
/// request's completion time since the start and its result.
pub fn closed_loop<R: Send>(
    clients: usize,
    duration: Duration,
    max_requests: usize,
    request: impl Fn(usize) -> R + Sync,
) -> Vec<(Duration, R)> {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let mut samples = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while start.elapsed() < duration {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= max_requests {
                            break;
                        }
                        let result = request(index);
                        out.push((start.elapsed(), result));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    samples.sort_by_key(|(done, _)| *done);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_keeps_its_schedule_without_drift() {
        // 200 requests 1 ms apart, each taking ~0.2 ms: the schedule must
        // end on time (no cumulative drift) with every request counted.
        let interval = Duration::from_millis(1);
        let t0 = Instant::now();
        let samples = open_loop(200, interval, 2, |i| {
            std::thread::sleep(Duration::from_micros(200));
            i
        });
        let wall = t0.elapsed();
        assert_eq!(samples.len(), 200);
        assert!(samples.iter().enumerate().all(|(i, s)| s.result == i));
        assert!(
            wall >= Duration::from_millis(199) && wall < Duration::from_millis(400),
            "200 × 1 ms schedule took {wall:?}"
        );
        // Latency is measured from the due time, so it is at least the
        // service time.
        assert!(samples
            .iter()
            .all(|s| s.latency >= Duration::from_micros(200)));
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        // One thread, 10 requests 1 ms apart, the first stalls 30 ms: the
        // others fall due meanwhile, start backlogged, and their latency
        // (from due time) includes the wait — no coordinated omission.
        let samples = open_loop(10, Duration::from_millis(1), 1, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        assert!(!samples[0].backlogged);
        assert!(samples[1..].iter().all(|s| s.backlogged));
        assert!(samples[1].latency >= Duration::from_millis(28));
        assert!(samples[9].latency >= Duration::from_millis(20));
    }

    #[test]
    fn closed_loop_stops_at_the_request_cap_or_the_deadline() {
        let samples = closed_loop(2, Duration::from_secs(5), 7, |i| i);
        assert_eq!(samples.len(), 7);
        assert!(samples[6].0 < Duration::from_secs(1));
        let samples = closed_loop(2, Duration::from_millis(50), usize::MAX, |_| {
            std::thread::sleep(Duration::from_millis(5))
        });
        assert!(
            samples.len() >= 10 && samples.len() <= 24,
            "{}",
            samples.len()
        );
        assert!(
            samples.windows(2).all(|w| w[0].0 <= w[1].0),
            "completion order"
        );
        assert!(samples.last().unwrap().0 >= Duration::from_millis(50));
    }
}
