//! Deterministic, seed-driven fault injection.
//!
//! A fault point is a [`Site`] in production code — a WAL fsync, a
//! bundle section read, an HTTP connect — whose hook consults this
//! registry before doing its real work. An armed site fires with its
//! configured probability, driven by its own xorshift64 stream, so a
//! given `(rate, seed)` pair produces the exact same fire/no-fire
//! sequence on every run — chaos tests are reproducible, not flaky. A
//! hook whose site is not armed does one relaxed atomic load: it takes
//! no lock and allocates nothing.
//!
//! Sites are armed in-process via [`arm`] / [`clear`] (the chaos
//! suite), and in a real process from `BANKS_FAULTS`, which `banks
//! serve` and `banks route` pass to [`arm_spec`] once at startup: a
//! comma-separated list of `site:kind:rate:seed[:millis]` entries, e.g.
//! `BANKS_FAULTS=wal.append.fsync:err:0.3:42,http.read:delay:1:7:250`.
//! Kinds are `err`, `delay` (with a trailing millisecond field), and
//! `torn` (partial write then error, `wal.append.write` only).

use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// A hooked site in production code. Each is named, in `BANKS_FAULTS`
/// and in injected errors, by [`Site::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// `wal.append.write`: WAL frame write (the one site for `torn`).
    WalAppendWrite,
    /// `wal.append.fsync`: WAL fsync after an append.
    WalAppendFsync,
    /// `bundle.section.read`: bundle section fetch.
    BundleSectionRead,
    /// `pager.page_in`: paged graph segment decode.
    PagerPageIn,
    /// `data.block.read`: paged tuple-block read + decode.
    DataBlockRead,
    /// `http.connect`: client TCP connect.
    HttpConnect,
    /// `http.read`: client response read.
    HttpRead,
}

/// Site names, indexed by `site as usize`.
const NAMES: [&str; 7] = [
    "wal.append.write",
    "wal.append.fsync",
    "bundle.section.read",
    "pager.page_in",
    "data.block.read",
    "http.connect",
    "http.read",
];

impl Site {
    /// The site's dotted name.
    pub fn name(self) -> &'static str {
        NAMES[self as usize]
    }
}

/// What an armed fault point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Return `io::ErrorKind::Other` ("injected fault") from the hook.
    ReturnErr,
    /// Sleep for the given duration, then proceed normally.
    Delay(Duration),
    /// Truncate the write to a deterministic prefix, then error — the
    /// on-disk state looks like a crash mid-write. Only [`torn_write`]
    /// sites fire it; [`maybe_fault`] leaves a torn-armed site alone.
    TornWrite,
}

/// One armed site: a plain value, so its stream is testable without
/// the process-global registry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Point {
    fault: FaultPoint,
    /// Firing probability in [0, 1].
    rate: f64,
    /// xorshift64 state: the fire sequence is a pure function of the seed.
    rng: u64,
    fires: u64,
}

impl Point {
    /// The one rule for arming a site, in-process or from a spec: the
    /// rate is in [0, 1] (not NaN), and only `wal.append.write` tears.
    fn new(site: usize, fault: FaultPoint, rate: f64, seed: u64) -> Result<Point, &'static str> {
        if !(0.0..=1.0).contains(&rate) {
            return Err("rate is not in [0, 1]");
        }
        if fault == FaultPoint::TornWrite && site != Site::WalAppendWrite as usize {
            return Err("`torn` applies only to wal.append.write");
        }
        Ok(Point {
            fault,
            rate,
            rng: seed | 1, // xorshift64 cannot hold state 0.
            fires: 0,
        })
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Roll the stream once: true if the point fires. A `TornWrite`
    /// point fires only at a [`torn_write`] site; at a [`maybe_fault`]
    /// site it neither rolls nor fires.
    fn roll(&mut self, torn_site: bool) -> bool {
        if self.fault == FaultPoint::TornWrite && !torn_site {
            return false;
        }
        let fires = (self.next() as f64 / u64::MAX as f64) < self.rate;
        self.fires += u64::from(fires);
        fires
    }

    /// A torn write's cut of a `len`-byte payload: `< len` (0 if empty),
    /// drawn from the same stream, so it repeats too.
    fn cut(&mut self, len: usize) -> usize {
        (self.next() as usize).checked_rem(len).unwrap_or(0)
    }
}

/// Bit `site as usize` is set while that site is armed.
static ARMED: AtomicU32 = AtomicU32::new(0);
static POINTS: Mutex<[Option<Point>; NAMES.len()]> = Mutex::new([None; NAMES.len()]);

fn points() -> MutexGuard<'static, [Option<Point>; NAMES.len()]> {
    POINTS.lock().unwrap_or_else(|e| e.into_inner())
}

fn arm_point(points: &mut [Option<Point>], site: usize, point: Point) {
    points[site] = Some(point);
    ARMED.fetch_or(1 << site, Ordering::Relaxed);
}

/// Arm (or re-arm, restarting its stream) a site. Panics if `rate` is
/// not in [0, 1] or `fault` is `TornWrite` anywhere but
/// [`Site::WalAppendWrite`].
pub fn arm(site: Site, fault: FaultPoint, rate: f64, seed: u64) {
    let point = Point::new(site as usize, fault, rate, seed).unwrap_or_else(|why| panic!("{why}"));
    arm_point(&mut *points(), site as usize, point);
}

/// Disarm every site.
pub fn clear() {
    *points() = [None; NAMES.len()];
    ARMED.store(0, Ordering::Relaxed);
}

/// Times the site has fired since it was armed.
pub fn fired(site: Site) -> u64 {
    points()[site as usize].map_or(0, |p| p.fires)
}

/// Arm every entry of a `BANKS_FAULTS` spec and return the armed sites'
/// names. An entry that is malformed, names an unknown site, has a rate
/// outside [0, 1], or asks for `torn` anywhere but `wal.append.write`
/// refuses the whole spec, arming nothing; the error names the entry.
pub fn arm_spec(spec: &str) -> Result<Vec<&'static str>, String> {
    let parsed = parse_spec(spec)?;
    let mut points = points();
    for &(site, point) in &parsed {
        arm_point(&mut *points, site, point);
    }
    Ok(parsed.iter().map(|&(site, _)| NAMES[site]).collect())
}

fn parse_spec(spec: &str) -> Result<Vec<(usize, Point)>, String> {
    let refuse = |entry, why| format!("BANKS_FAULTS entry `{entry}`: {why}");
    let entries = spec.split(',').map(str::trim).filter(|e| !e.is_empty());
    entries
        .map(|e| parse_entry(e).map_err(|why| refuse(e, why)))
        .collect()
}

fn parse_entry(entry: &str) -> Result<(usize, Point), &'static str> {
    let fields: Vec<&str> = entry.split(':').collect();
    let [name, kind, rate, seed, rest @ ..] = fields.as_slice() else {
        return Err("expected site:kind:rate:seed[:millis]");
    };
    let site = NAMES.iter().position(|n| n == name).ok_or("unknown site")?;
    let rate: f64 = rate.parse().map_err(|_| "rate is not a number")?;
    let seed = seed.parse().map_err(|_| "seed is not an integer")?;
    let fault = match (*kind, rest) {
        ("err", []) => FaultPoint::ReturnErr,
        ("torn", []) => FaultPoint::TornWrite,
        ("delay", [ms]) => {
            FaultPoint::Delay(Duration::from_millis(ms.parse().map_err(|_| "bad millis")?))
        }
        _ => return Err("kind must be err, torn, or delay:millis"),
    };
    Ok((site, Point::new(site, fault, rate, seed)?))
}

/// The hooks' test: one relaxed load, no lock, no allocation.
#[inline]
fn armed(site: Site) -> bool {
    ARMED.load(Ordering::Relaxed) & (1 << site as usize) != 0
}

/// The general hook: errors on `ReturnErr`, sleeps on `Delay`.
#[inline]
pub fn maybe_fault(site: Site) -> io::Result<()> {
    if armed(site) {
        fire(site, None)?;
    }
    Ok(())
}

/// Hook for write sites that can be torn. `Some(prefix_len)` means the
/// caller must write only the first `prefix_len` bytes of its
/// `len`-byte payload and then fail, as if the process died mid-write.
/// `ReturnErr`/`Delay` armed here behave as in [`maybe_fault`].
#[inline]
pub fn torn_write(site: Site, len: usize) -> io::Result<Option<usize>> {
    if !armed(site) {
        return Ok(None);
    }
    fire(site, Some(len))
}

/// An armed site's hook: roll under the lock, sleep after releasing it.
#[cold]
fn fire(site: Site, len: Option<usize>) -> io::Result<Option<usize>> {
    let mut points = points();
    let point = points[site as usize].as_mut();
    let Some(point) = point.and_then(|p| p.roll(len.is_some()).then_some(p)) else {
        return Ok(None);
    };
    match point.fault {
        FaultPoint::ReturnErr => Err(io::Error::other(format!("injected fault: {}", site.name()))),
        FaultPoint::Delay(d) => {
            drop(points);
            std::thread::sleep(d);
            Ok(None)
        }
        FaultPoint::TornWrite => Ok(len.map(|len| point.cut(len))),
    }
}

// Only the stream and the parser are tested here: arming the global
// registry would fault this crate's own HTTP client tests running
// alongside. `tests/chaos.rs` tests the registry under one lock.
#[cfg(test)]
mod tests {
    use super::*;

    fn point(site: Site, fault: FaultPoint, rate: f64, seed: u64) -> Point {
        Point::new(site as usize, fault, rate, seed).unwrap()
    }

    /// `n` rolls at a plain hook; the point counts the fires.
    fn rolls(mut point: Point, n: usize) -> Vec<bool> {
        let seq: Vec<bool> = (0..n).map(|_| point.roll(false)).collect();
        assert_eq!(point.fires, seq.iter().filter(|&&f| f).count() as u64);
        seq
    }

    /// 8 rolls at a torn hook, with the cut of each fire.
    fn cuts(mut p: Point, len: usize) -> Vec<Option<usize>> {
        (0..8).map(|_| p.roll(true).then(|| p.cut(len))).collect()
    }

    #[test]
    fn same_seed_same_sequence() {
        let seq = |seed| rolls(point(Site::HttpRead, FaultPoint::ReturnErr, 0.5, seed), 64);
        assert_eq!(seq(1234), seq(1234));
        assert_ne!(seq(1234), seq(99));
        assert!(seq(1234).contains(&true) && seq(1234).contains(&false));
    }

    #[test]
    fn rate_one_always_fires_rate_zero_never() {
        let seq = |rate| rolls(point(Site::HttpRead, FaultPoint::ReturnErr, rate, 9), 50);
        assert_eq!((seq(1.0), seq(0.0)), (vec![true; 50], vec![false; 50]));
    }

    #[test]
    fn torn_cut_is_below_len_and_repeats() {
        let torn = point(Site::WalAppendWrite, FaultPoint::TornWrite, 1.0, 77);
        let first = cuts(torn, 1000);
        assert!(first.iter().all(|c| c.is_some_and(|c| c < 1000)));
        assert_eq!(first, cuts(torn, 1000));
        assert_ne!(first[0], first[1]);
        assert_eq!(cuts(torn, 0), [Some(0); 8]);
        // A torn-armed site leaves plain hooks alone.
        let mut plain = torn;
        assert!(!plain.roll(false));
        assert_eq!(plain, torn);
    }

    #[test]
    fn parses_the_env_grammar() {
        let spec = "wal.append.fsync:err:0.3:42, http.read:delay:1:7:250,wal.append.write:torn:0:9";
        let want = [
            (Site::WalAppendFsync, FaultPoint::ReturnErr, 0.3, 42),
            (
                Site::HttpRead,
                FaultPoint::Delay(Duration::from_millis(250)),
                1.0,
                7,
            ),
            (Site::WalAppendWrite, FaultPoint::TornWrite, 0.0, 9),
        ];
        let want = want.map(|(site, f, rate, seed)| (site as usize, point(site, f, rate, seed)));
        assert_eq!(parse_spec(spec).unwrap(), want);
        assert!(parse_spec("  ").unwrap().is_empty());
    }

    #[test]
    fn a_bad_entry_refuses_the_whole_spec() {
        let bad = "wal.apend.fsync:err:0.2:7; http.read:err; http.read:boom:1:1; \
            http.read:delay:1:1; http.read:err:1:1:5; http.read:err:NaN:1; \
            http.read:err:1.5:1; http.read:err:1:-1; wal.append.fsync:torn:1:1";
        for bad in bad.split("; ") {
            let err = parse_spec(&format!("http.connect:err:1:1,{bad}")).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
        }
    }
}
