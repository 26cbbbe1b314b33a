//! Prometheus text exposition: rendering the registry, a line-format
//! validator (used by the metrics tests), and a parser (used by
//! `shadowdp top` to consume a scraped payload).
//!
//! The dialect is the Prometheus text format 0.0.4 subset this crate
//! emits: `# HELP` / `# TYPE` comments, then samples
//! `name[{labels}] value`; histograms render cumulative `_bucket{le=…}`
//! series plus `_sum` and `_count`.

use crate::metrics::{registry, Handle, Histogram};

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders one histogram's sample lines. `labels` is the pre-rendered
/// non-`le` label prefix (e.g. `phase="verify"`), empty for a bare
/// histogram.
fn render_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let counts = h.counts();
    let mut cumulative = 0u64;
    for (i, c) in counts.iter().enumerate() {
        cumulative += c;
        let le = match Histogram::bucket_upper(i) {
            Some(bound) => bound.to_string(),
            None => "+Inf".to_string(),
        };
        let sep = if labels.is_empty() { "" } else { "," };
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
        ));
    }
    let braces = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("{name}_sum{braces} {}\n", h.sum()));
    out.push_str(&format!("{name}_count{braces} {}\n", h.count()));
}

/// Renders every registered metric in Prometheus text exposition
/// format. Deterministic: registration order, members sorted by label.
pub fn render_prometheus() -> String {
    let mut out = String::new();
    for entry in registry().iter() {
        let name = entry.name;
        let type_name = match entry.handle {
            Handle::Counter(_) | Handle::CounterFamily(_) => "counter",
            Handle::Gauge(_) | Handle::FloatGauge(_) => "gauge",
            Handle::Histogram(_) | Handle::HistogramFamily(_) => "histogram",
        };
        out.push_str(&format!("# HELP {name} {}\n", entry.help));
        out.push_str(&format!("# TYPE {name} {type_name}\n"));
        match entry.handle {
            Handle::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
            Handle::Gauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
            Handle::FloatGauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
            Handle::Histogram(h) => render_histogram(&mut out, name, "", h),
            Handle::HistogramFamily(f) => {
                for (label, h) in f.members() {
                    let labels = format!("{}=\"{}\"", f.label_key, escape_label(&label));
                    render_histogram(&mut out, name, &labels, h);
                }
            }
            Handle::CounterFamily(f) => {
                for (label, c) in f.members() {
                    out.push_str(&format!(
                        "{name}{{{}=\"{}\"}} {}\n",
                        f.label_key,
                        escape_label(&label),
                        c.get()
                    ));
                }
            }
        }
    }
    out
}

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name as written (including `_bucket`/`_sum`/`_count`
    /// suffixes for histogram series).
    pub name: String,
    /// Label pairs in line order.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf` label values stay in `labels`; the *value*
    /// itself is always finite in this dialect).
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses one sample line (`name[{labels}] value`).
fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let err = |msg: &str| format!("line {lineno}: {msg}: `{line}`");
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| err("unclosed label braces"))?;
            if close < open {
                return Err(err("mismatched label braces"));
            }
            (
                &line[..open],
                Some((&line[open + 1..close], &line[close + 1..])),
            )
        }
        None => {
            let name = line.split_whitespace().next().unwrap_or("");
            (name, None::<(&str, &str)>)
        }
    };
    let name = name_part.trim();
    if !valid_name(name) {
        return Err(err("invalid metric name"));
    }
    let (labels, value_part) = match rest {
        None => (
            Vec::new(),
            line.trim_start().strip_prefix(name).unwrap_or("").trim(),
        ),
        Some((label_body, tail)) => {
            let mut labels = Vec::new();
            let mut body = label_body.trim();
            while !body.is_empty() {
                let eq = body.find('=').ok_or_else(|| err("label without `=`"))?;
                let key = body[..eq].trim();
                if !valid_name(key) {
                    return Err(err("invalid label name"));
                }
                let after = body[eq + 1..].trim_start();
                let inner = after
                    .strip_prefix('"')
                    .ok_or_else(|| err("label value not quoted"))?;
                // Find the closing quote, skipping escaped characters.
                let mut end = None;
                let mut escaped = false;
                for (i, c) in inner.char_indices() {
                    if escaped {
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        end = Some(i);
                        break;
                    }
                }
                let end = end.ok_or_else(|| err("unterminated label value"))?;
                let raw = &inner[..end];
                let value = raw
                    .replace("\\\\", "\u{0}")
                    .replace("\\\"", "\"")
                    .replace("\\n", "\n")
                    .replace('\u{0}', "\\");
                labels.push((key.to_string(), value));
                body = inner[end + 1..].trim_start();
                if let Some(stripped) = body.strip_prefix(',') {
                    body = stripped.trim_start();
                } else if !body.is_empty() {
                    return Err(err("label pairs not comma-separated"));
                }
            }
            (labels, tail.trim())
        }
    };
    if value_part.is_empty() {
        return Err(err("missing sample value"));
    }
    // One value token (an optional timestamp is not part of this dialect).
    let mut tokens = value_part.split_whitespace();
    let value_token = tokens.next().unwrap_or("");
    if tokens.next().is_some() {
        return Err(err("trailing tokens after the sample value"));
    }
    let value = match value_token {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        t => t
            .parse::<f64>()
            .map_err(|_| err("sample value is not a number"))?,
    };
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// The base family name of a sample (strips histogram series suffixes).
fn family_of(sample_name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = sample_name.strip_suffix(suffix) {
            return base;
        }
    }
    sample_name
}

/// Parses a full exposition payload into samples, failing on the first
/// malformed line.
///
/// # Errors
///
/// A message naming the offending line.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample(line, lineno)?);
    }
    Ok(samples)
}

/// Validates that `text` is well-formed Prometheus text exposition (the
/// dialect [`render_prometheus`] emits): every non-comment line parses
/// as a sample, every sample's family has a `# TYPE` declared *before*
/// it, `# TYPE` values are legal, duplicate series do not occur, and
/// histogram series are internally consistent (cumulative buckets, a
/// `+Inf` bucket equal to `_count`).
///
/// # Errors
///
/// A message naming the first violation.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut seen_series: Vec<String> = Vec::new();
    // (family, non-le labels) → (bucket cumulative counts in order, count sample)
    let mut hist_buckets: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
    let mut hist_counts: BTreeMap<String, f64> = BTreeMap::new();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let name = parts.next().unwrap_or("");
                    let ty = parts.next().unwrap_or("").trim();
                    if !valid_name(name) {
                        return Err(format!("line {lineno}: TYPE for invalid name `{name}`"));
                    }
                    if !matches!(
                        ty,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {lineno}: unknown TYPE `{ty}`"));
                    }
                    if types.insert(name.to_string(), ty.to_string()).is_some() {
                        return Err(format!("line {lineno}: duplicate TYPE for `{name}`"));
                    }
                }
                Some("HELP") => {
                    let name = parts.next().unwrap_or("");
                    if !valid_name(name) {
                        return Err(format!("line {lineno}: HELP for invalid name `{name}`"));
                    }
                }
                _ => {} // other comments are legal and ignored
            }
            continue;
        }
        let sample = parse_sample(line, lineno)?;
        let family = family_of(&sample.name).to_string();
        let declared = types
            .get(&family)
            .or_else(|| types.get(&sample.name))
            .ok_or_else(|| {
                format!(
                    "line {lineno}: sample `{}` before any TYPE for `{family}`",
                    sample.name
                )
            })?;
        if (sample.name.ends_with("_bucket")
            || sample.name.ends_with("_sum")
            || sample.name.ends_with("_count"))
            && types.get(&family).is_some_and(|t| t == "histogram")
            && declared == "histogram"
        {
            let non_le: Vec<String> = sample
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let series_key = format!("{family}|{}", non_le.join(","));
            if sample.name.ends_with("_bucket") {
                let le = sample
                    .label("le")
                    .ok_or_else(|| format!("line {lineno}: histogram bucket without `le`"))?;
                hist_buckets
                    .entry(series_key)
                    .or_default()
                    .push((le.to_string(), sample.value));
            } else if sample.name.ends_with("_count") {
                hist_counts.insert(series_key, sample.value);
            }
        }
        // Duplicate full series (name + labels) are invalid.
        let series_id = format!(
            "{}|{}",
            sample.name,
            sample
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",")
        );
        if seen_series.contains(&series_id) {
            return Err(format!("line {lineno}: duplicate series `{series_id}`"));
        }
        seen_series.push(series_id);
    }

    for (series, buckets) in &hist_buckets {
        let mut prev = 0.0f64;
        let mut saw_inf = false;
        for (le, cumulative) in buckets {
            if *cumulative < prev {
                return Err(format!(
                    "histogram `{series}`: bucket le={le} not cumulative ({cumulative} < {prev})"
                ));
            }
            prev = *cumulative;
            if le == "+Inf" {
                saw_inf = true;
                if let Some(count) = hist_counts.get(series) {
                    if count != cumulative {
                        return Err(format!(
                            "histogram `{series}`: +Inf bucket {cumulative} != _count {count}"
                        ));
                    }
                }
            }
        }
        if !saw_inf {
            return Err(format!("histogram `{series}`: missing +Inf bucket"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{
        Counter, LazyCounter, LazyFamily, LazyFloatGauge, LazyGauge, LazyHistogram,
    };

    #[test]
    fn render_validates_and_round_trips() {
        LazyCounter::new("expo_test_total", "a counter").add(5);
        LazyGauge::new("expo_test_depth", "a gauge").set(3);
        LazyFloatGauge::new("expo_test_ratio", "a ratio").set(1.5);
        let h = LazyHistogram::new("expo_test_us", "a histogram");
        h.observe(1);
        h.observe(300);
        LazyFamily::<Histogram>::new("expo_test_phase_us", "per-phase", "phase")
            .with("verify")
            .observe(1000);
        LazyFamily::<Counter>::new("expo_test_diags_total", "per-code", "code")
            .with("SD01")
            .add(4);
        let text = render_prometheus();
        validate_exposition(&text).expect("rendered exposition validates");
        let samples = parse_exposition(&text).expect("rendered exposition parses");
        let find = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name && s.label("le").is_none())
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(find("expo_test_total").value, 5.0);
        assert_eq!(find("expo_test_depth").value, 3.0);
        assert_eq!(find("expo_test_ratio").value, 1.5);
        assert_eq!(find("expo_test_us_count").value, 2.0);
        assert_eq!(find("expo_test_us_sum").value, 301.0);
        let inf_bucket = samples
            .iter()
            .find(|s| s.name == "expo_test_us_bucket" && s.label("le") == Some("+Inf"))
            .expect("+Inf bucket");
        assert_eq!(inf_bucket.value, 2.0);
        let phase_bucket = samples
            .iter()
            .find(|s| {
                s.name == "expo_test_phase_us_bucket"
                    && s.label("phase") == Some("verify")
                    && s.label("le") == Some("1024")
            })
            .expect("phase bucket");
        assert_eq!(phase_bucket.value, 1.0);
        let code_sample = samples
            .iter()
            .find(|s| s.name == "expo_test_diags_total" && s.label("code") == Some("SD01"))
            .expect("counter-family member");
        assert_eq!(code_sample.value, 4.0);
    }

    #[test]
    fn validator_rejects_malformed_payloads() {
        // Sample before TYPE.
        assert!(validate_exposition("orphan_metric 1\n").is_err());
        // Bad TYPE.
        assert!(validate_exposition("# TYPE x flotogram\nx 1\n").is_err());
        // Non-numeric value.
        assert!(validate_exposition("# TYPE x counter\nx one\n").is_err());
        // Unclosed braces.
        assert!(validate_exposition("# TYPE x counter\nx{a=\"b\" 1\n").is_err());
        // Unquoted label value.
        assert!(validate_exposition("# TYPE x counter\nx{a=b} 1\n").is_err());
        // Duplicate series.
        assert!(validate_exposition("# TYPE x counter\nx 1\nx 2\n").is_err());
        // Non-cumulative histogram buckets.
        let bad_hist = "# TYPE h histogram\n\
                        h_bucket{le=\"1\"} 5\n\
                        h_bucket{le=\"+Inf\"} 3\n\
                        h_sum 10\nh_count 3\n";
        assert!(validate_exposition(bad_hist).is_err());
        // +Inf bucket disagreeing with _count.
        let torn_hist = "# TYPE h histogram\n\
                         h_bucket{le=\"1\"} 1\n\
                         h_bucket{le=\"+Inf\"} 2\n\
                         h_sum 10\nh_count 3\n";
        assert!(validate_exposition(torn_hist).is_err());
        // Missing +Inf bucket.
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate_exposition(no_inf).is_err());
        // A healthy payload passes.
        let good = "# HELP h help text\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 1\n\
                    h_bucket{le=\"+Inf\"} 2\n\
                    h_sum 10\nh_count 2\n";
        validate_exposition(good).expect("well-formed histogram validates");
    }

    #[test]
    fn parser_handles_escaped_labels() {
        let text = "# TYPE m gauge\nm{alg=\"Sparse \\\"Vector\\\"\\nline\"} 7\n";
        validate_exposition(text).expect("escaped labels validate");
        let samples = parse_exposition(text).expect("parses");
        assert_eq!(samples[0].label("alg"), Some("Sparse \"Vector\"\nline"));
        assert_eq!(samples[0].value, 7.0);
    }
}
