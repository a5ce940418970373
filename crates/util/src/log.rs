//! A tiny leveled logger for operational output.
//!
//! One line per event on stderr, machine-parseable:
//!
//! ```text
//! 2026-08-08T12:34:56.789Z INFO  [serve] listening on 127.0.0.1:7001
//! ```
//!
//! The level defaults to `info`, can be seeded from the `BANKS_LOG`
//! environment variable (`error|warn|info|debug`), and overridden with
//! [`set_level`] (the `--log-level` flag). Filtering is one relaxed
//! atomic load, so disabled levels cost almost nothing. Timestamps are
//! RFC 3339 UTC with millisecond precision, derived from
//! `SystemTime` without any date-time dependency.

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The process cannot do what was asked of it.
    Error = 0,
    /// Degraded but continuing (failed probe, retried fetch).
    Warn = 1,
    /// Normal operational milestones (listening, epoch published).
    Info = 2,
    /// High-volume diagnostics.
    Debug = 3,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN ",
            Level::Info => "INFO ",
            Level::Debug => "DEBUG",
        }
    }

    /// Parse a level name (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// 255 = not yet initialized from `BANKS_LOG`.
const UNINIT: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

/// Current level, initializing from `BANKS_LOG` (default `info`) on
/// first use.
pub(crate) fn level() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw != UNINIT {
        return decode(raw);
    }
    let initial = std::env::var("BANKS_LOG")
        .ok()
        .and_then(|v| Level::parse(&v))
        .unwrap_or(Level::Info);
    // Racing first calls agree on the same env value; a concurrent
    // set_level wins via the compare_exchange failure path.
    let _ = LEVEL.compare_exchange(UNINIT, initial as u8, Ordering::Relaxed, Ordering::Relaxed);
    decode(LEVEL.load(Ordering::Relaxed))
}

fn decode(raw: u8) -> Level {
    match raw {
        0 => Level::Error,
        1 => Level::Warn,
        3 => Level::Debug,
        _ => Level::Info,
    }
}

/// Override the level (e.g. from `--log-level`).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether `level` would currently be emitted.
#[inline]
pub fn enabled(level: Level) -> bool {
    level <= self::level()
}

/// Emit one log line. Prefer the [`log_error!`](crate::log_error),
/// [`log_warn!`](crate::log_warn), [`log_info!`](crate::log_info), and
/// [`log_debug!`](crate::log_debug) macros, which skip argument
/// formatting when the level is filtered.
pub fn write(level: Level, component: &str, args: std::fmt::Arguments<'_>) {
    if !enabled(level) {
        return;
    }
    eprintln!("{} {} [{component}] {args}", rfc3339_now(), level.as_str());
}

/// Current wall-clock time as `YYYY-MM-DDTHH:MM:SS.mmmZ`.
pub(crate) fn rfc3339_now() -> String {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    rfc3339_from_unix_ms(now.as_millis() as u64)
}

/// Format milliseconds-since-epoch as RFC 3339 UTC.
pub(crate) fn rfc3339_from_unix_ms(unix_ms: u64) -> String {
    let secs = (unix_ms / 1000) as i64;
    let millis = (unix_ms % 1000) as u32;
    let days = secs.div_euclid(86_400);
    let tod = secs.rem_euclid(86_400) as u32;
    let (year, month, day) = civil_from_days(days);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}.{millis:03}Z",
        tod / 3600,
        tod / 60 % 60,
        tod % 60
    )
}

/// Gregorian date from days since 1970-01-01 (Howard Hinnant's
/// `civil_from_days`, restricted to the u64 unix-ms range we feed it).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Log at `ERROR`: `log_error!("serve", "bind failed: {e}")`.
#[macro_export]
macro_rules! log_error {
    ($component:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Error) {
            $crate::log::write($crate::log::Level::Error, $component, format_args!($($arg)*));
        }
    };
}

/// Log at `WARN`.
#[macro_export]
macro_rules! log_warn {
    ($component:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Warn) {
            $crate::log::write($crate::log::Level::Warn, $component, format_args!($($arg)*));
        }
    };
}

/// Log at `INFO`.
#[macro_export]
macro_rules! log_info {
    ($component:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            $crate::log::write($crate::log::Level::Info, $component, format_args!($($arg)*));
        }
    };
}

/// Log at `DEBUG`.
#[macro_export]
macro_rules! log_debug {
    ($component:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug) {
            $crate::log::write($crate::log::Level::Debug, $component, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc3339_known_instants() {
        assert_eq!(rfc3339_from_unix_ms(0), "1970-01-01T00:00:00.000Z");
        // 2026-08-08T00:00:00Z.
        assert_eq!(
            rfc3339_from_unix_ms(1_786_147_200_000),
            "2026-08-08T00:00:00.000Z"
        );
        // Leap-year boundary: 2024-02-29T23:59:59.999Z.
        assert_eq!(
            rfc3339_from_unix_ms(1_709_251_199_999),
            "2024-02-29T23:59:59.999Z"
        );
    }

    #[test]
    fn level_parsing_and_ordering() {
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Error < Level::Debug);
    }

    #[test]
    fn set_level_filters() {
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_level(Level::Info);
        assert!(enabled(Level::Info));
    }
}
