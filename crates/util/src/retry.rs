//! Shared retry policy: capped exponential backoff with full jitter,
//! a cross-call retry *budget*, and idempotency-aware classification.
//!
//! Every client in the workspace that talks to a peer over HTTP — the
//! router forwarding reads, the replica tailing its leader, `banks
//! ingest` posting batches — used to roll its own ad-hoc retry loop.
//! They now share this one, so backoff shape, jitter, and the "only
//! retry what cannot double-apply" rule are uniform and testable.
//!
//! Jitter is *full jitter* (AWS architecture blog): the sleep before
//! attempt `n` is uniform in `[0, min(cap, base·2ⁿ))`. Synchronized
//! clients recovering from one outage thereby spread out instead of
//! retrying in lockstep. The jitter stream is seeded, so a test that
//! fixes the seed observes exact sleep durations.
//!
//! The [`RetryBudget`] bounds retry *amplification* across calls: each
//! successful first attempt deposits a fraction of a token, each retry
//! withdraws a whole one. When a backend is hard-down the budget runs
//! dry and callers fail fast instead of multiplying load by the
//! per-call attempt count (retry-storm protection).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Outcome classification for one attempt, from the caller's
/// `classify` function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The attempt succeeded; stop.
    Success,
    /// The attempt failed in a way that is safe to retry (nothing
    /// reached the peer, or the peer rejected without applying).
    Retryable,
    /// The attempt failed and retrying could duplicate a server-side
    /// effect, or can never succeed; stop immediately.
    Fatal,
}

/// A capped-exponential-backoff retry policy with deterministic full
/// jitter.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum total attempts (first try included). `1` disables
    /// retries entirely.
    pub attempts: u32,
    /// Backoff before the first retry (scales by 2× per retry).
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Seed for the jitter stream; fix it in tests for exact sleeps.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(2),
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before retry number `retry` (0-based):
    /// uniform in `[0, min(cap, base·2^retry))`, drawn from `rng`.
    pub fn backoff(&self, retry: u32, rng: &mut u64) -> Duration {
        let ceiling = self
            .base
            .saturating_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX))
            .min(self.cap);
        let nanos = ceiling.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(xorshift64(rng) % nanos)
    }

    /// Run `op` until it succeeds, a fatal error occurs, attempts are
    /// exhausted, or the budget (when given) runs dry.
    ///
    /// `op` receives the 0-based attempt index and returns the result;
    /// `classify` maps an error to [`Outcome::Retryable`] or
    /// [`Outcome::Fatal`]; `on_retry` observes every sleep (for retry
    /// counters and logs) and may *lengthen* it — it returns the actual
    /// sleep to perform, letting callers honor a server-supplied
    /// `Retry-After` that exceeds the jittered backoff.
    pub fn run<T, E>(
        &self,
        budget: Option<&RetryBudget>,
        mut op: impl FnMut(u32) -> Result<T, E>,
        mut classify: impl FnMut(&E) -> Outcome,
        mut on_retry: impl FnMut(u32, &E, Duration) -> Duration,
    ) -> Result<T, E> {
        let mut rng = self.seed | 1;
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => {
                    if attempt == 0 {
                        if let Some(b) = budget {
                            b.deposit();
                        }
                    }
                    return Ok(v);
                }
                Err(e) => {
                    let out_of_tries = attempt + 1 >= self.attempts.max(1);
                    if classify(&e) != Outcome::Retryable
                        || out_of_tries
                        || budget.is_some_and(|b| !b.withdraw())
                    {
                        return Err(e);
                    }
                    let sleep = on_retry(attempt, &e, self.backoff(attempt, &mut rng));
                    if !sleep.is_zero() {
                        std::thread::sleep(sleep);
                    }
                    attempt += 1;
                }
            }
        }
    }
}

fn xorshift64(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Token scale: one retry token = this many internal units, so success
/// deposits can be a fraction of a token without floating point.
const TOKEN: u64 = 10;

/// A shared retry-token bucket bounding total retries across calls.
///
/// Starts full at `max_tokens`. Each retry withdraws one token; each
/// successful *first* attempt deposits a tenth of one (so sustained
/// health slowly refills the bucket, but a dead backend cannot be
/// hammered with `attempts × request-rate` retries).
#[derive(Debug)]
pub struct RetryBudget {
    units: AtomicU64,
    max_units: u64,
}

impl RetryBudget {
    /// A budget holding at most `max_tokens` retries, starting full.
    pub fn new(max_tokens: u64) -> RetryBudget {
        RetryBudget {
            units: AtomicU64::new(max_tokens * TOKEN),
            max_units: max_tokens * TOKEN,
        }
    }

    /// Take one retry token; `false` means the budget is dry and the
    /// caller must fail fast instead of retrying.
    pub(crate) fn withdraw(&self) -> bool {
        self.units
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
                u.checked_sub(TOKEN)
            })
            .is_ok()
    }

    /// Credit a successful first attempt (a tenth of a token).
    pub(crate) fn deposit(&self) {
        self.units
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
                Some((u + 1).min(self.max_units))
            })
            .ok();
    }

    /// Whole retry tokens currently available.
    pub fn available(&self) -> u64 {
        self.units.load(Ordering::Relaxed) / TOKEN
    }
}

/// Parse a `Retry-After: <seconds>` header value (the only form the
/// workspace's servers emit). `None` for absent or non-numeric values.
pub fn parse_retry_after(value: Option<&str>) -> Option<Duration> {
    value
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn no_sleep_policy(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            seed: 1,
        }
    }

    #[test]
    fn retries_until_success() {
        let calls = Cell::new(0u32);
        let result: Result<&str, &str> = no_sleep_policy(5).run(
            None,
            |_| {
                calls.set(calls.get() + 1);
                if calls.get() < 3 {
                    Err("transient")
                } else {
                    Ok("done")
                }
            },
            |_| Outcome::Retryable,
            |_, _, d| d,
        );
        assert_eq!(result, Ok("done"));
        assert_eq!(calls.get(), 3);
    }

    #[test]
    fn fatal_errors_stop_immediately() {
        let calls = Cell::new(0u32);
        let result: Result<(), &str> = no_sleep_policy(5).run(
            None,
            |_| {
                calls.set(calls.get() + 1);
                Err("poison")
            },
            |_| Outcome::Fatal,
            |_, _, d| d,
        );
        assert_eq!(result, Err("poison"));
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn attempts_bound_is_total_not_retries() {
        let calls = Cell::new(0u32);
        let _: Result<(), &str> = no_sleep_policy(4).run(
            None,
            |_| {
                calls.set(calls.get() + 1);
                Err("x")
            },
            |_| Outcome::Retryable,
            |_, _, d| d,
        );
        assert_eq!(calls.get(), 4);
    }

    #[test]
    fn backoff_doubles_and_caps_with_deterministic_jitter() {
        let policy = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(100),
            cap: Duration::from_millis(450),
            seed: 42,
        };
        let mut rng_a = policy.seed | 1;
        let mut rng_b = policy.seed | 1;
        for retry in 0..8 {
            let ceiling = Duration::from_millis((100u64 << retry).min(450));
            let a = policy.backoff(retry, &mut rng_a);
            let b = policy.backoff(retry, &mut rng_b);
            assert!(a < ceiling, "retry {retry}: {a:?} !< {ceiling:?}");
            assert_eq!(a, b, "same seed must jitter identically");
        }
    }

    #[test]
    fn budget_runs_dry_and_refills_on_success() {
        let budget = RetryBudget::new(2);
        assert!(budget.withdraw());
        assert!(budget.withdraw());
        assert!(!budget.withdraw(), "third retry must be denied");
        // 10 successes = 1 token.
        for _ in 0..10 {
            budget.deposit();
        }
        assert_eq!(budget.available(), 1);
        assert!(budget.withdraw());
    }

    #[test]
    fn run_respects_a_dry_budget() {
        let budget = RetryBudget::new(0);
        let calls = Cell::new(0u32);
        let _: Result<(), &str> = no_sleep_policy(5).run(
            Some(&budget),
            |_| {
                calls.set(calls.get() + 1);
                Err("x")
            },
            |_| Outcome::Retryable,
            |_, _, d| d,
        );
        assert_eq!(calls.get(), 1, "dry budget must fail fast");
    }

    #[test]
    fn on_retry_can_lengthen_the_sleep() {
        let calls = Cell::new(0u32);
        let started = std::time::Instant::now();
        let _: Result<(), &str> = no_sleep_policy(2).run(
            None,
            |_| {
                calls.set(calls.get() + 1);
                Err("x")
            },
            |_| Outcome::Retryable,
            |_, _, jittered| jittered.max(Duration::from_millis(60)),
        );
        assert_eq!(calls.get(), 2);
        assert!(started.elapsed() >= Duration::from_millis(60));
    }

    #[test]
    fn parses_retry_after_seconds() {
        assert_eq!(parse_retry_after(Some("2")), Some(Duration::from_secs(2)));
        assert_eq!(parse_retry_after(Some(" 1 ")), Some(Duration::from_secs(1)));
        assert_eq!(parse_retry_after(Some("soon")), None);
        assert_eq!(parse_retry_after(None), None);
    }
}
