//! Reading numbers out of the program's own reports — `/stats` JSON,
//! `/metrics` Prometheus text, and `/search` response envelopes — by
//! plain text scanning, so the harness shares no parser with the program.

/// The number at a key path in compact JSON: each key is searched for
/// after the previous one's position (`["storage","tuples","page_ins"]`
/// finds the tuple store's counter, not the graph's).
pub fn json_num(text: &str, path: &[&str]) -> Option<f64> {
    let mut at = 0;
    for key in path {
        let needle = format!("\"{key}\":");
        at += text[at..].find(&needle)? + needle.len();
    }
    let rest = &text[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `true`/`false` at a top-level-unique key.
pub fn json_bool(text: &str, key: &str) -> Option<bool> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Sum of every sample of a Prometheus family whose label set contains
/// `label` (`""` matches all, including unlabeled samples).
pub fn prom_sum(text: &str, family: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let rest = l.strip_prefix(family)?;
            // `family` must be the whole name, not a prefix of another.
            if !(rest.starts_with('{') || rest.starts_with(' ')) {
                return None;
            }
            let (labels, value) = rest.rsplit_once(' ')?;
            labels.contains(label).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// Durations of the named spans in a `?trace=1` response, in
/// nanoseconds, summed over repeats (per-shard `expand` spans).
pub fn span_ns(body: &str, name: &str) -> u64 {
    let needle = format!("\"name\":\"{name}\"");
    let mut total = 0;
    let mut rest = body;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let span = &rest[..rest.find('}').unwrap_or(rest.len())];
        if let (Some(start), Some(end)) =
            (json_num(span, &["start_ns"]), json_num(span, &["end_ns"]))
        {
            total += (end - start).max(0.0) as u64;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_paths_find_nested_numbers() {
        let doc = r#"{"epoch":7,"cache":{"hits":12,"hit_ratio":0.75},"storage":{"page_ins":3,"tuples":{"page_ins":44,"decode_micros":9}},"cached":true}"#;
        assert_eq!(json_num(doc, &["epoch"]), Some(7.0));
        assert_eq!(json_num(doc, &["cache", "hit_ratio"]), Some(0.75));
        assert_eq!(json_num(doc, &["storage", "page_ins"]), Some(3.0));
        assert_eq!(
            json_num(doc, &["storage", "tuples", "page_ins"]),
            Some(44.0)
        );
        assert_eq!(json_num(doc, &["storage", "missing"]), None);
        assert_eq!(json_bool(doc, "cached"), Some(true));
        assert_eq!(json_bool(doc, "epoch"), None);
    }

    #[test]
    fn prometheus_families_sum_by_label() {
        let text = "# HELP banks_shed_total x\nbanks_shed_total 3\n\
                    banks_http_requests_total{endpoint=\"/search\"} 10\n\
                    banks_http_requests_total{endpoint=\"/stats\"} 2\n\
                    banks_http_requests_total_bogus 99\n";
        assert_eq!(prom_sum(text, "banks_shed_total", ""), 3.0);
        assert_eq!(prom_sum(text, "banks_http_requests_total", ""), 12.0);
        assert_eq!(prom_sum(text, "banks_http_requests_total", "/search"), 10.0);
        assert_eq!(prom_sum(text, "banks_missing", ""), 0.0);
    }

    #[test]
    fn span_durations_sum_over_repeats() {
        let body = r#"{"trace":{"spans":[{"name":"parse","index":0,"start_ns":0,"end_ns":300},{"name":"expand","index":0,"start_ns":400,"end_ns":1400},{"name":"expand","index":1,"start_ns":500,"end_ns":700}],"render_ns":5}}"#;
        assert_eq!(span_ns(body, "parse"), 300);
        assert_eq!(span_ns(body, "expand"), 1200);
        assert_eq!(span_ns(body, "score"), 0);
    }
}
