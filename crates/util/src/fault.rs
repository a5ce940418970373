//! Deterministic, seed-driven fault injection.
//!
//! A *fault point* is a named site in production code — a WAL fsync, a
//! bundle section read, an HTTP connect — that consults this registry
//! before doing its real work. When the `fault-injection` cargo feature
//! is **off** (the default), every hook in this module is an
//! `#[inline(always)]` empty function: release binaries contain no
//! registry, no branches, no strings. When the feature is **on**, each
//! armed point fires with a configured probability driven by its own
//! xorshift64 stream, so a given `(rate, seed)` pair produces the exact
//! same fire/no-fire sequence on every run — chaos tests are
//! reproducible, not flaky.
//!
//! Faults are armed two ways:
//!
//! * programmatically, via `arm` / `clear` (in-process tests; both
//!   exist only with the `fault-injection` feature);
//! * from the environment, via `BANKS_FAULTS` (real-process runs):
//!   a comma-separated list of `point:kind:rate:seed[:millis]` entries,
//!   e.g. `BANKS_FAULTS=wal.append.fsync:err:0.3:42,http.read:delay:1:7:250`.
//!   Kinds are `err`, `delay` (with a trailing millisecond field), and
//!   `torn` (partial write then error).
//!
//! ## Registered point names
//!
//! | point                  | site                                      |
//! |------------------------|-------------------------------------------|
//! | `wal.append.write`     | WAL frame write (supports `torn`)         |
//! | `wal.append.fsync`     | WAL fsync after append                    |
//! | `bundle.section.read`  | bundle section fetch                      |
//! | `pager.page_in`        | paged-CSR segment decode                  |
//! | `data.block.read`      | paged tuple-block read + decode           |
//! | `http.connect`         | client TCP connect                        |
//! | `http.read`            | client response read                      |

#[cfg(feature = "fault-injection")]
pub use imp::{arm, clear, fired, maybe_fault, torn_write};

/// What an armed fault point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Return `io::ErrorKind::Other` ("injected fault") from the hook.
    ReturnErr,
    /// Sleep for the given duration, then proceed normally.
    Delay(std::time::Duration),
    /// Truncate the write to a deterministic prefix, then error — the
    /// on-disk state looks like a crash mid-write. Only meaningful at
    /// points that pass a length to [`torn_write`].
    TornWrite,
}

#[cfg(feature = "fault-injection")]
mod imp {
    use super::FaultPoint;
    use std::collections::HashMap;
    use std::io;
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    struct PointState {
        fault: FaultPoint,
        /// Firing probability in [0, 1].
        rate: f64,
        /// Private xorshift64 stream — each point's fire sequence is a
        /// pure function of its seed, independent of every other point.
        rng: u64,
        /// Times this point has fired (for test assertions).
        fires: u64,
    }

    fn registry() -> &'static Mutex<HashMap<String, PointState>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, PointState>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(parse_env(std::env::var("BANKS_FAULTS").ok())))
    }

    fn parse_env(spec: Option<String>) -> HashMap<String, PointState> {
        let mut map = HashMap::new();
        let Some(spec) = spec else { return map };
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let fields: Vec<&str> = entry.trim().split(':').collect();
            let parsed = (|| -> Option<(String, PointState)> {
                let [name, kind, rate, seed, rest @ ..] = fields.as_slice() else {
                    return None;
                };
                let rate: f64 = rate.parse().ok()?;
                let seed: u64 = seed.parse().ok()?;
                let fault = match *kind {
                    "err" => FaultPoint::ReturnErr,
                    "torn" => FaultPoint::TornWrite,
                    "delay" => {
                        let ms: u64 = rest.first()?.parse().ok()?;
                        FaultPoint::Delay(Duration::from_millis(ms))
                    }
                    _ => return None,
                };
                Some((name.to_string(), new_state(fault, rate, seed)))
            })();
            match parsed {
                Some((name, state)) => {
                    map.insert(name, state);
                }
                None => eprintln!("BANKS_FAULTS: ignoring malformed entry `{entry}`"),
            }
        }
        map
    }

    fn new_state(fault: FaultPoint, rate: f64, seed: u64) -> PointState {
        PointState {
            fault,
            rate: rate.clamp(0.0, 1.0),
            // xorshift64 cannot hold state 0.
            rng: seed | 1,
            fires: 0,
        }
    }

    fn xorshift64(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Arm (or re-arm, resetting the stream) a named fault point.
    pub fn arm(point: &str, fault: FaultPoint, rate: f64, seed: u64) {
        registry()
            .lock()
            .unwrap()
            .insert(point.to_string(), new_state(fault, rate, seed));
    }

    /// Disarm every fault point (tests call this between scenarios).
    pub fn clear() {
        registry().lock().unwrap().clear();
    }

    /// Times the named point has fired since it was armed.
    pub fn fired(point: &str) -> u64 {
        registry().lock().unwrap().get(point).map_or(0, |s| s.fires)
    }

    /// Roll the point's stream; `Some(fault)` when it fires this call.
    fn roll(point: &str) -> Option<FaultPoint> {
        let mut map = registry().lock().unwrap();
        let state = map.get_mut(point)?;
        let draw = xorshift64(&mut state.rng) as f64 / u64::MAX as f64;
        if draw < state.rate {
            state.fires += 1;
            Some(state.fault)
        } else {
            None
        }
    }

    fn injected_err(point: &str) -> io::Error {
        io::Error::other(format!("injected fault: {point}"))
    }

    /// The general hook: errors on `ReturnErr`, sleeps on `Delay`.
    /// `TornWrite` does not fire here — only [`torn_write`] sites
    /// understand partial writes.
    pub fn maybe_fault(point: &str) -> io::Result<()> {
        match roll(point) {
            Some(FaultPoint::ReturnErr) => Err(injected_err(point)),
            Some(FaultPoint::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(FaultPoint::TornWrite) | None => Ok(()),
        }
    }

    /// Hook for write sites that can be torn. `Some(prefix_len)` means
    /// the caller must write only the first `prefix_len` bytes of its
    /// `len`-byte payload and then fail, as if the process died
    /// mid-write. The prefix length is drawn from the same stream, so
    /// it is deterministic too. `ReturnErr`/`Delay` armed on the same
    /// point behave as in [`maybe_fault`] (reported via the `Err` arm).
    pub fn torn_write(point: &str, len: usize) -> io::Result<Option<usize>> {
        match roll(point) {
            Some(FaultPoint::TornWrite) => {
                let cut = registry()
                    .lock()
                    .unwrap()
                    .get_mut(point)
                    .map_or(0, |s| xorshift64(&mut s.rng) as usize);
                Ok(Some(if len == 0 { 0 } else { cut % len }))
            }
            Some(FaultPoint::ReturnErr) => Err(injected_err(point)),
            Some(FaultPoint::Delay(d)) => {
                std::thread::sleep(d);
                Ok(None)
            }
            None => Ok(None),
        }
    }

    #[cfg(test)]
    mod parse_tests {
        use super::*;

        #[test]
        fn parses_the_env_grammar() {
            let map = parse_env(Some(
                "wal.append.fsync:err:0.3:42, http.read:delay:1:7:250,bundle.section.read:torn:0.5:9"
                    .to_string(),
            ));
            assert_eq!(map.len(), 3);
            let fsync = &map["wal.append.fsync"];
            assert_eq!(fsync.fault, FaultPoint::ReturnErr);
            assert!((fsync.rate - 0.3).abs() < 1e-9);
            assert_eq!(
                map["http.read"].fault,
                FaultPoint::Delay(Duration::from_millis(250))
            );
            assert_eq!(map["bundle.section.read"].fault, FaultPoint::TornWrite);
        }

        #[test]
        fn malformed_entries_are_dropped_not_fatal() {
            let map = parse_env(Some(
                "good:err:1:1,missing-fields:err,bad-kind:boom:1:1,delay-no-ms:delay:1:1".into(),
            ));
            assert_eq!(map.len(), 1);
            assert!(map.contains_key("good"));
        }

        #[test]
        fn empty_and_absent_specs_arm_nothing() {
            assert!(parse_env(None).is_empty());
            assert!(parse_env(Some("  ".into())).is_empty());
        }
    }
}

/// No-op hook: compiles away entirely without `fault-injection`.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn maybe_fault(_point: &str) -> std::io::Result<()> {
    Ok(())
}

/// No-op hook: compiles away entirely without `fault-injection`.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn torn_write(_point: &str, _len: usize) -> std::io::Result<Option<usize>> {
    Ok(None)
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;
    use std::time::Duration;

    // The registry is process-global, so every test in this module runs
    // under one lock to avoid cross-test interference.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unarmed_points_never_fire() {
        let _g = serial();
        clear();
        for _ in 0..100 {
            assert!(maybe_fault("nothing.armed").is_ok());
        }
        assert_eq!(fired("nothing.armed"), 0);
    }

    #[test]
    fn rate_one_always_fires_rate_zero_never() {
        let _g = serial();
        clear();
        arm("t.always", FaultPoint::ReturnErr, 1.0, 9);
        arm("t.never", FaultPoint::ReturnErr, 0.0, 9);
        for _ in 0..50 {
            assert!(maybe_fault("t.always").is_err());
            assert!(maybe_fault("t.never").is_ok());
        }
        assert_eq!(fired("t.always"), 50);
        assert_eq!(fired("t.never"), 0);
    }

    #[test]
    fn same_seed_same_sequence() {
        let _g = serial();
        clear();
        let run = |seed: u64| -> Vec<bool> {
            arm("t.seq", FaultPoint::ReturnErr, 0.5, seed);
            (0..64).map(|_| maybe_fault("t.seq").is_err()).collect()
        };
        let a = run(1234);
        let b = run(1234);
        let c = run(99);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
    }

    #[test]
    fn torn_write_truncates_deterministically() {
        let _g = serial();
        clear();
        arm("t.torn", FaultPoint::TornWrite, 1.0, 77);
        let cut = torn_write("t.torn", 1000).unwrap().unwrap();
        assert!(cut < 1000);
        arm("t.torn", FaultPoint::TornWrite, 1.0, 77);
        assert_eq!(torn_write("t.torn", 1000).unwrap(), Some(cut));
        // A torn-armed point does not disturb plain hooks.
        assert!(maybe_fault("t.torn").is_ok());
        clear();
    }

    #[test]
    fn delay_faults_sleep_then_succeed() {
        let _g = serial();
        clear();
        arm(
            "t.delay",
            FaultPoint::Delay(Duration::from_millis(120)),
            1.0,
            7,
        );
        let before = std::time::Instant::now();
        assert!(maybe_fault("t.delay").is_ok());
        assert!(before.elapsed() >= Duration::from_millis(120));
        clear();
    }
}
