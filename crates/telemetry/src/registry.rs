//! The metric registry and Prometheus text-format exposition.
//!
//! A [`Registry`] owns labeled instrument families (counters and
//! histograms) and a list of *collectors* — closures that derive scalar
//! families from existing stats snapshots at scrape time (the server's
//! cache, epoch, pager, and WAL families all come from collectors, so
//! subsystems keep their own counters and the registry never dictates
//! their storage). Registration takes a mutex; the returned `Arc`
//! instruments are lock-free, so the hot path never touches the
//! registry again.
//!
//! [`Registry::render`] emits the Prometheus text format, version
//! 0.0.4: families sorted by name, one `# HELP` / `# TYPE` pair each,
//! label values escaped per the spec (`\\`, `\"`, `\n`), histograms as
//! cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.

use crate::counter::Counter;
use crate::histogram::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Metric family kinds, mirroring Prometheus `# TYPE` values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing.
    Counter,
    /// Free-moving value.
    Gauge,
    /// Bucketed distribution.
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A label set: name/value pairs, rendered in insertion order.
pub(crate) type LabelSet = Vec<(&'static str, String)>;

/// One scalar sample produced by a collector.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Label name/value pairs.
    pub labels: LabelSet,
    /// Sample value.
    pub value: f64,
}

/// A scalar family produced by a collector at scrape time.
#[derive(Clone, Debug)]
pub struct CollectedFamily {
    /// Family name (e.g. `banks_cache_hits_total`).
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// Counter or gauge; collectors cannot emit histograms (owned
    /// histogram instruments cover that case).
    pub kind: Kind,
    /// The samples.
    pub samples: Vec<Sample>,
}

impl CollectedFamily {
    /// A family with a single unlabeled sample — the common case for
    /// stats-snapshot collectors.
    pub fn scalar(name: &'static str, help: &'static str, kind: Kind, value: f64) -> Self {
        CollectedFamily {
            name,
            help,
            kind,
            samples: vec![Sample {
                labels: Vec::new(),
                value,
            }],
        }
    }
}

/// A scrape-time family source.
pub(crate) type Collector = Arc<dyn Fn() -> Vec<CollectedFamily> + Send + Sync>;

enum Instrument {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

struct OwnedFamily {
    help: &'static str,
    kind: Kind,
    /// Histogram export ladder in ticks; empty for scalar families.
    boundaries: Vec<u64>,
    /// Multiplier from ticks to the exported unit (1e-9 for ns → s).
    scale: f64,
    metrics: Vec<(LabelSet, Instrument)>,
}

#[derive(Default)]
struct Inner {
    families: BTreeMap<&'static str, OwnedFamily>,
    collectors: Vec<Collector>,
}

/// A process-wide metric registry. Cheap to share (`Arc<Registry>`);
/// see the module docs for the locking story.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create a counter with the given family name and labels.
    ///
    /// # Panics
    /// If `name` is already registered with a different kind.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let family = family_entry(&mut inner, name, help, Kind::Counter, Vec::new(), 1.0);
        let labels = own_labels(labels);
        if let Some((_, Instrument::Counter(c))) = family.metrics.iter().find(|(l, _)| *l == labels)
        {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        family
            .metrics
            .push((labels, Instrument::Counter(Arc::clone(&c))));
        c
    }

    /// Get or create a histogram exported over the `boundaries` ladder
    /// (tick values; `tick * scale` is the unit shown in `le=`).
    ///
    /// # Panics
    /// If `name` is already registered with a different kind.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        boundaries: &[u64],
        scale: f64,
    ) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.register_histogram(name, help, labels, Arc::clone(&h), boundaries, scale);
        h
    }

    /// Register an externally owned histogram (e.g. one a service
    /// created before the HTTP layer existed). Re-registering the same
    /// labels replaces nothing — first registration wins.
    pub fn register_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        histogram: Arc<Histogram>,
        boundaries: &[u64],
        scale: f64,
    ) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let family = family_entry(
            &mut inner,
            name,
            help,
            Kind::Histogram,
            boundaries.to_vec(),
            scale,
        );
        let labels = own_labels(labels);
        if family.metrics.iter().any(|(l, _)| *l == labels) {
            return;
        }
        family
            .metrics
            .push((labels, Instrument::Histogram(histogram)));
    }

    /// Add a scrape-time collector.
    pub fn register_collector<F>(&self, f: F)
    where
        F: Fn() -> Vec<CollectedFamily> + Send + Sync + 'static,
    {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.collectors.push(Arc::new(f));
    }

    /// Render the Prometheus text exposition (format version 0.0.4).
    pub fn render(&self) -> String {
        // Snapshot owned instruments and collector handles under the
        // lock, then run collectors unlocked so a collector may itself
        // consult shared state without deadlock risk.
        struct FamilySnapshot {
            help: &'static str,
            kind: Kind,
            boundaries: Vec<u64>,
            scale: f64,
            scalars: Vec<(LabelSet, f64)>,
            histograms: Vec<(LabelSet, crate::histogram::HistogramSnapshot)>,
        }
        let (mut families, collectors): (BTreeMap<&'static str, FamilySnapshot>, Vec<Collector>) = {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            let families = inner
                .families
                .iter()
                .map(|(&name, fam)| {
                    let mut snap = FamilySnapshot {
                        help: fam.help,
                        kind: fam.kind,
                        boundaries: fam.boundaries.clone(),
                        scale: fam.scale,
                        scalars: Vec::new(),
                        histograms: Vec::new(),
                    };
                    for (labels, instrument) in &fam.metrics {
                        match instrument {
                            Instrument::Counter(c) => {
                                snap.scalars.push((labels.clone(), c.get() as f64));
                            }
                            Instrument::Histogram(h) => {
                                snap.histograms.push((labels.clone(), h.snapshot()));
                            }
                        }
                    }
                    (name, snap)
                })
                .collect();
            (families, inner.collectors.clone())
        };
        for collector in &collectors {
            for fam in collector() {
                let entry = families.entry(fam.name).or_insert_with(|| FamilySnapshot {
                    help: fam.help,
                    kind: fam.kind,
                    boundaries: Vec::new(),
                    scale: 1.0,
                    scalars: Vec::new(),
                    histograms: Vec::new(),
                });
                for s in fam.samples {
                    entry.scalars.push((s.labels, s.value));
                }
            }
        }

        let mut out = String::new();
        for (name, fam) in &families {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(fam.help));
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.as_str());
            for (labels, value) in &fam.scalars {
                let _ = writeln!(out, "{name}{} {}", render_labels(labels), fmt_value(*value));
            }
            for (labels, snap) in &fam.histograms {
                for &bound in &fam.boundaries {
                    let le = fmt_value(bound as f64 * fam.scale);
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {}",
                        render_labels_with(labels, "le", &le),
                        snap.cumulative_le(bound)
                    );
                }
                let count = snap.count();
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {count}",
                    render_labels_with(labels, "le", "+Inf")
                );
                let _ = writeln!(
                    out,
                    "{name}_sum{} {}",
                    render_labels(labels),
                    fmt_value(snap.sum() as f64 * fam.scale)
                );
                let _ = writeln!(out, "{name}_count{} {count}", render_labels(labels));
            }
        }
        out
    }
}

fn family_entry<'a>(
    inner: &'a mut Inner,
    name: &'static str,
    help: &'static str,
    kind: Kind,
    boundaries: Vec<u64>,
    scale: f64,
) -> &'a mut OwnedFamily {
    let family = inner.families.entry(name).or_insert_with(|| OwnedFamily {
        help,
        kind,
        boundaries,
        scale,
        metrics: Vec::new(),
    });
    assert!(
        family.kind == kind,
        "metric family {name} registered as {} and {}",
        family.kind.as_str(),
        kind.as_str()
    );
    family
}

fn own_labels(labels: &[(&'static str, &str)]) -> LabelSet {
    labels.iter().map(|&(k, v)| (k, v.to_string())).collect()
}

fn render_labels(labels: &LabelSet) -> String {
    if labels.is_empty() {
        return String::new();
    }
    render_parts(labels.iter().map(|(k, v)| (*k, v.as_str())))
}

fn render_labels_with(labels: &LabelSet, extra_key: &'static str, extra_value: &str) -> String {
    render_parts(
        labels
            .iter()
            .map(|(k, v)| (*k, v.as_str()))
            .chain(std::iter::once((extra_key, extra_value))),
    )
}

fn render_parts<'a>(parts: impl Iterator<Item = (&'a str, &'a str)>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in parts.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

/// Escape a label value per the text-format spec.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape `# HELP` text (backslash and newline only, per the spec).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a sample value: integral values without a fractional part,
/// everything else via the shortest `f64` round-trip form.
fn fmt_value(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::latency_boundaries;

    /// A parsed exposition row: `(metric, labels, value)`.
    type Row = (String, Vec<(String, String)>, f64);

    /// Minimal exposition-format parser: returns `(metric, labels,
    /// value)` rows and panics on any malformed line — the "scraped
    /// output parses" check.
    fn parse(text: &str) -> Vec<Row> {
        let mut rows = Vec::new();
        let mut seen_families = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap().to_string();
                assert!(!seen_families.contains(&name), "duplicate HELP for {name}");
                seen_families.push(name);
                continue;
            }
            if line.starts_with("# TYPE ") {
                continue;
            }
            assert!(!line.starts_with('#'), "unexpected comment: {line}");
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            let value: f64 = if value == "+Inf" {
                f64::INFINITY
            } else {
                value
                    .parse()
                    .unwrap_or_else(|_| panic!("bad value in {line}"))
            };
            let (name, labels) = match series.split_once('{') {
                None => (series.to_string(), Vec::new()),
                Some((name, rest)) => {
                    let body = rest.strip_suffix('}').expect("closing brace");
                    let mut labels = Vec::new();
                    let mut remaining = body;
                    while !remaining.is_empty() {
                        let (key, rest) = remaining.split_once("=\"").expect("label key");
                        assert!(key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
                        // Scan to the closing unescaped quote.
                        let mut val = String::new();
                        let mut chars = rest.chars();
                        loop {
                            match chars.next().expect("unterminated label value") {
                                '\\' => {
                                    let e = chars.next().expect("dangling escape");
                                    match e {
                                        '\\' | '"' => val.push(e),
                                        'n' => val.push('\n'),
                                        e => panic!("bad escape \\{e}"),
                                    }
                                }
                                '"' => break,
                                c => {
                                    assert!(c != '\n');
                                    val.push(c);
                                }
                            }
                        }
                        labels.push((key.to_string(), val));
                        remaining = chars.as_str().strip_prefix(',').unwrap_or(chars.as_str());
                    }
                    (name.to_string(), labels)
                }
            };
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
            rows.push((name, labels, value));
        }
        rows
    }

    #[test]
    fn renders_sorted_families_with_help_and_type() {
        let r = Registry::new();
        r.counter("zeta_total", "Last family.", &[]).add(3);
        r.register_collector(|| {
            vec![CollectedFamily::scalar(
                "alpha_depth",
                "First family.",
                Kind::Gauge,
                7.0,
            )]
        });
        let text = r.render();
        let alpha = text.find("# HELP alpha_depth").unwrap();
        let zeta = text.find("# HELP zeta_total").unwrap();
        assert!(alpha < zeta, "families must be sorted by name");
        assert!(text.contains("# TYPE alpha_depth gauge"));
        assert!(text.contains("# TYPE zeta_total counter"));
        let rows = parse(&text);
        assert!(rows.contains(&("alpha_depth".into(), vec![], 7.0)));
        assert!(rows.contains(&("zeta_total".into(), vec![], 3.0)));
    }

    #[test]
    fn escapes_label_values() {
        let r = Registry::new();
        r.counter(
            "requests_total",
            "Requests with a hostile label: back\\slash.",
            &[("path", "a\"b\\c\nd")],
        )
        .inc();
        let text = r.render();
        assert!(text.contains(r#"path="a\"b\\c\nd""#), "got: {text}");
        let rows = parse(&text);
        assert_eq!(
            rows[0].1,
            vec![("path".to_string(), "a\"b\\c\nd".to_string())]
        );
    }

    #[test]
    fn same_labels_return_same_instrument() {
        let r = Registry::new();
        let a = r.counter("hits_total", "h", &[("shard", "0")]);
        let b = r.counter("hits_total", "h", &[("shard", "0")]);
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        let c = r.counter("hits_total", "h", &[("shard", "1")]);
        c.inc();
        let text = r.render();
        assert!(text.contains("hits_total{shard=\"0\"} 5"));
        assert!(text.contains("hits_total{shard=\"1\"} 1"));
    }

    #[test]
    #[should_panic(expected = "registered as counter and histogram")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("x_total", "x", &[]);
        r.histogram("x_total", "x", &[], &latency_boundaries(), 1e-9);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_consistent() {
        let r = Registry::new();
        let h = r.histogram(
            "latency_seconds",
            "Latency.",
            &[("endpoint", "/search")],
            &latency_boundaries(),
            1e-9,
        );
        for v in [5_000u64, 80_000, 80_000, 2_000_000, 900_000_000] {
            h.record(v);
        }
        let text = r.render();
        let rows = parse(&text);
        let buckets: Vec<(f64, f64)> = rows
            .iter()
            .filter(|(name, _, _)| name == "latency_seconds_bucket")
            .map(|(_, labels, value)| {
                let le = &labels.iter().find(|(k, _)| k == "le").unwrap().1;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap()
                };
                (le, *value)
            })
            .collect();
        assert_eq!(buckets.len(), latency_boundaries().len() + 1);
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "le values must increase");
            assert!(w[0].1 <= w[1].1, "cumulative counts must not decrease");
        }
        let count = rows
            .iter()
            .find(|(name, _, _)| name == "latency_seconds_count")
            .unwrap()
            .2;
        let sum = rows
            .iter()
            .find(|(name, _, _)| name == "latency_seconds_sum")
            .unwrap()
            .2;
        assert_eq!(buckets.last().unwrap().1, count, "+Inf bucket == _count");
        assert_eq!(count, 5.0);
        let expected_sum = (5_000.0 + 80_000.0 + 80_000.0 + 2_000_000.0 + 900_000_000.0) * 1e-9;
        assert!((sum - expected_sum).abs() < 1e-9);
    }

    #[test]
    fn collectors_contribute_families() {
        let r = Registry::new();
        r.register_collector(|| {
            vec![
                CollectedFamily::scalar("cache_hits_total", "Hits.", Kind::Counter, 42.0),
                CollectedFamily {
                    name: "backend_healthy",
                    help: "Per-backend health.",
                    kind: Kind::Gauge,
                    samples: vec![Sample {
                        labels: vec![("backend", "127.0.0.1:7000".to_string())],
                        value: 1.0,
                    }],
                },
            ]
        });
        let text = r.render();
        let rows = parse(&text);
        assert!(rows.contains(&("cache_hits_total".into(), vec![], 42.0)));
        assert!(rows.iter().any(|(name, labels, value)| {
            name == "backend_healthy"
                && labels == &[("backend".to_string(), "127.0.0.1:7000".to_string())]
                && *value == 1.0
        }));
    }
}
