//! Structured run reports.
//!
//! A [`RunReport`] is the machine-readable artifact of one run: identity
//! (name, seed, schema version), deterministic metadata, measured
//! wall-clock timings (segregated so same-seed runs can be diffed on the
//! deterministic part), optional per-epoch rows, and the full
//! [`TelemetrySnapshot`] captured at emission time.
//!
//! A report has one output format, the schema-versioned JSONL event
//! stream ([`render_jsonl`], written by [`RunReport::write_jsonl`]), and
//! one reader for it ([`parse_json_line`]). The only "serde" here is a
//! small JSON value type — the workspace has no serialization dependency.

use crate::registry::TelemetrySnapshot;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Version of the report schema (bumped on breaking field changes; every
/// emitted JSONL stream carries it in the leading `run` event).
pub const SCHEMA_VERSION: u32 = 1;

/// A JSON-compatible scalar for report metadata and epoch rows.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer (serialized as a JSON number).
    U64(u64),
    /// Signed integer (serialized as a JSON number).
    I64(i64),
    /// Float (non-finite values serialize as null).
    F64(f64),
    /// String.
    Str(String),
}

impl Value {
    /// Serialize to a JSON fragment.
    pub fn to_json(&self) -> String {
        match self {
            Value::Bool(b) => b.to_string(),
            Value::U64(v) => v.to_string(),
            Value::I64(v) => v.to_string(),
            Value::F64(v) => json_f64(*v),
            Value::Str(s) => json_str(s),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Serialize an `f64` as a JSON number (shortest round-trip form;
/// non-finite becomes null).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Rust renders whole floats as e.g. "1" — already valid JSON.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Serialize a string as a JSON string literal with escaping.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The structured artifact of one run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Run name (becomes `reports/BENCH_<name>.json` for bench runs).
    pub name: String,
    /// Report schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The seed the run was driven by.
    pub seed: u64,
    /// Deterministic run parameters and results — identical across
    /// same-seed runs by contract.
    pub meta: BTreeMap<String, Value>,
    /// Measured wall-clock durations in seconds — the *only* fields (along
    /// with span/`_s` fields in `telemetry`) allowed to differ between
    /// same-seed runs.
    pub timing_s: BTreeMap<String, f64>,
    /// Optional per-epoch rows (each a sorted key → value map).
    pub epochs: Vec<BTreeMap<String, Value>>,
    /// Span statistics and metrics captured from the global collector.
    pub telemetry: TelemetrySnapshot,
}

impl RunReport {
    /// New report capturing the current global telemetry snapshot.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Self::with_snapshot(name, seed, crate::snapshot())
    }

    /// New report with an explicit (e.g. per-[`crate::Registry`]) snapshot.
    pub fn with_snapshot(name: impl Into<String>, seed: u64, snap: TelemetrySnapshot) -> Self {
        RunReport {
            name: name.into(),
            schema_version: SCHEMA_VERSION,
            seed,
            meta: BTreeMap::new(),
            timing_s: BTreeMap::new(),
            epochs: Vec::new(),
            telemetry: snap,
        }
    }

    /// Record a deterministic metadata field.
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<Value>) -> &mut Self {
        self.meta.insert(key.into(), value.into());
        self
    }

    /// Record a measured wall-clock duration (seconds).
    pub fn set_timing(&mut self, key: impl Into<String>, secs: f64) -> &mut Self {
        self.timing_s.insert(key.into(), secs);
        self
    }

    /// Append a per-epoch row.
    pub fn push_epoch(&mut self, row: BTreeMap<String, Value>) -> &mut Self {
        self.epochs.push(row);
        self
    }

    /// Write the report to `path` as the JSONL event stream
    /// ([`render_jsonl`]), creating parent directories.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_report_file(path, &render_jsonl(self))
    }
}

/// One JSONL event line: `{"event":<kind>,<fields>...}`.
fn event_line(kind: &str, fields: &[(&str, String)]) -> String {
    let body: String = fields.iter().map(|(k, v)| format!(",{}:{v}", json_str(k))).collect();
    format!("{{\"event\":{}{body}}}\n", json_str(kind))
}

/// Render a report as the JSONL event stream.
///
/// One JSON object per line, in fixed order: a `run` header (carrying the
/// schema version and seed), `meta`, `timing`, `span`, `counter`, `gauge`,
/// `epoch` events, then an `end` trailer with the event
/// count. Duration fields all end in `_s`; every other field is
/// deterministic for a seeded run.
pub fn render_jsonl(report: &RunReport) -> String {
    let tel = &report.telemetry;
    let mut lines = vec![event_line(
        "run",
        &[
            ("schema_version", report.schema_version.to_string()),
            ("name", json_str(&report.name)),
            ("seed", report.seed.to_string()),
        ],
    )];
    for (k, v) in &report.meta {
        lines.push(event_line("meta", &[("key", json_str(k)), ("value", v.to_json())]));
    }
    for (k, v) in &report.timing_s {
        lines.push(event_line("timing", &[("key", json_str(k)), ("seconds_s", json_f64(*v))]));
    }
    for (path, s) in &tel.spans {
        lines.push(event_line(
            "span",
            &[
                ("path", json_str(path)),
                ("count", s.count.to_string()),
                ("total_s", json_f64(s.total_s)),
                ("mean_s", json_f64(s.mean_s())),
                ("min_s", json_f64(s.min_s)),
                ("max_s", json_f64(s.max_s)),
            ],
        ));
    }
    for (k, v) in &tel.counters {
        lines.push(event_line("counter", &[("name", json_str(k)), ("value", v.to_string())]));
    }
    for (k, v) in &tel.gauges {
        lines.push(event_line("gauge", &[("name", json_str(k)), ("value", json_f64(*v))]));
    }
    for (i, row) in report.epochs.iter().enumerate() {
        let mut fields = vec![("index", i.to_string())];
        fields.extend(row.iter().map(|(k, v)| (k.as_str(), v.to_json())));
        lines.push(event_line("epoch", &fields));
    }
    lines.push(event_line("end", &[("events", (lines.len() + 1).to_string())]));
    lines.concat()
}

/// Directory run reports are written to: `$FASTCHGNET_REPORTS`, else
/// `reports` under the working directory.
pub fn reports_dir() -> PathBuf {
    PathBuf::from(std::env::var("FASTCHGNET_REPORTS").unwrap_or_else(|_| "reports".into()))
}

/// Write a report file (JSONL stream, Chrome trace or TSV table),
/// creating its parent directories.
pub fn write_report_file(path: impl AsRef<Path>, content: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, content)
}

/// Parse one JSON object line — a [`render_jsonl`] event or a Chrome
/// trace event — into key → raw-JSON-fragment pairs.
///
/// Keys are unquoted; values keep their JSON spelling (strings with their
/// quotes and escapes, arrays as the whole `[...]` fragment). A nested
/// object is flattened into `outer.inner` keys (`"args":{"v":1}` becomes
/// `args.v`). Any malformed line — unterminated string, unclosed `[` or
/// `{`, missing `:`, trailing text — returns `None`. This reads the
/// workspace's own output without a JSON dependency:
///
/// ```
/// use fc_telemetry::{parse_json_line, render_jsonl, Registry, RunReport};
///
/// let registry = Registry::new();
/// registry.record_span("epoch", 0.5);
/// let report = RunReport::with_snapshot("demo", 1, registry.snapshot());
/// // Or: std::fs::read_to_string("reports/BENCH_headline.json")?
/// let body = render_jsonl(&report);
/// let mut spans = 0;
/// for ev in body.lines().filter_map(parse_json_line) {
///     if ev["event"] == "\"span\"" {
///         println!("{} x{}: {} s total", ev["path"], ev["count"], ev["total_s"]);
///         spans += 1;
///     }
/// }
/// assert_eq!(spans, 1);
/// ```
pub fn parse_json_line(line: &str) -> Option<BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    let rest = parse_object(line.trim(), "", &mut out)?;
    rest.trim().is_empty().then_some(out)
}

/// Parse the object at the front of `s` into `out` (keys prefixed with
/// `prefix`) and return the text after its closing `}`.
fn parse_object<'a>(
    s: &'a str,
    prefix: &str,
    out: &mut BTreeMap<String, String>,
) -> Option<&'a str> {
    let mut rest = s.strip_prefix('{')?.trim_start();
    if let Some(after) = rest.strip_prefix('}') {
        return Some(after);
    }
    loop {
        let (key, after) = split_string(rest)?;
        let key = format!("{prefix}{}", &key[1..key.len() - 1]);
        let after = after.trim_start().strip_prefix(':')?.trim_start();
        rest = if after.starts_with('{') {
            parse_object(after, &format!("{key}."), out)?
        } else {
            let (value, after) = match after.as_bytes().first()? {
                b'"' => split_string(after)?,
                b'[' => split_array(after)?,
                _ => after.split_at(after.find([',', '}'])?),
            };
            let value = value.trim_end();
            if value.is_empty() {
                return None;
            }
            out.insert(key, value.to_string());
            after
        }
        .trim_start();
        match rest.as_bytes().first()? {
            b',' => rest = rest[1..].trim_start(),
            b'}' => return Some(&rest[1..]),
            _ => return None,
        }
    }
}

/// Split the string literal at the front of `s` (quotes and escapes kept)
/// from the text after it.
fn split_string(s: &str) -> Option<(&str, &str)> {
    let bytes = s.as_bytes();
    if bytes.first() != Some(&b'"') {
        return None;
    }
    let mut i = 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(s.split_at(i + 1)),
            _ => i += 1,
        }
    }
    None
}

/// Split the array at the front of `s` (nesting and strings skipped over)
/// from the text after it.
fn split_array(s: &str) -> Option<(&str, &str)> {
    let mut depth = 0usize;
    let mut i = 0;
    while i < s.len() {
        match s.as_bytes()[i] {
            b'"' => i += split_string(&s[i..])?.0.len() - 1,
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(s.split_at(i + 1));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_report() -> RunReport {
        let r = Registry::new();
        r.record_span("epoch", 2.0);
        r.record_span("epoch/forward", 1.25);
        r.counter_add("tensor.forward.kernels", 320);
        r.gauge_set("cluster.load_imbalance", 1.18);
        let mut report = RunReport::with_snapshot("unit", 9, r.snapshot());
        report.set_meta("scale", "quick").set_timing("iter_s", 0.125);
        let mut row = BTreeMap::new();
        row.insert("epoch".to_string(), Value::from(0usize));
        row.insert("train_loss".to_string(), Value::from(1.5));
        report.push_epoch(row);
        report
    }

    #[test]
    fn jsonl_stream_shape() {
        let report = sample_report();
        let jsonl = render_jsonl(&report);
        let lines: Vec<&str> = jsonl.lines().collect();
        // run + meta + timing + 2 spans + counter + gauge + epoch + end =
        // 9 lines.
        assert_eq!(lines.len(), 9, "{jsonl}");
        let head = parse_json_line(lines[0]).unwrap();
        assert_eq!(head["event"], "\"run\"");
        assert_eq!(head["schema_version"], "1");
        assert_eq!(head["seed"], "9");
        let tail = parse_json_line(lines.last().unwrap()).unwrap();
        assert_eq!(tail["event"], "\"end\"");
        assert_eq!(tail["events"], "9");
    }

    #[test]
    fn jsonl_span_events_carry_durations_only_in_s_fields() {
        let jsonl = render_jsonl(&sample_report());
        let span_line =
            jsonl.lines().find(|l| l.contains("\"epoch/forward\"")).expect("span event");
        let fields = parse_json_line(span_line).unwrap();
        assert_eq!(fields["count"], "1");
        assert_eq!(fields["total_s"], "1.25");
        for key in fields.keys() {
            let timing = key.ends_with("_s");
            let det = matches!(key.as_str(), "event" | "path" | "count");
            assert!(timing || det, "unexpected span field {key}");
        }
    }

    #[test]
    fn jsonl_deterministic_for_fixed_snapshot() {
        let a = render_jsonl(&sample_report());
        let b = render_jsonl(&sample_report());
        // Identical except *_s fields — and with a fixed snapshot, fully
        // identical.
        assert_eq!(a, b);
    }

    #[test]
    fn report_files_create_parents() {
        let dir = std::env::temp_dir().join("fc_telemetry_report_test");
        let report = sample_report();
        let jpath = dir.join("nested").join("BENCH_unit.json");
        report.write_jsonl(&jpath).unwrap();
        let back = std::fs::read_to_string(&jpath).unwrap();
        assert_eq!(back, render_jsonl(&report));
        let tpath = dir.join("table.tsv");
        write_report_file(&tpath, "a\tb\n1\t2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&tpath).unwrap(), "a\tb\n1\t2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_line_reader_cases() {
        let parsed: &[(&str, &[(&str, &str)])] = &[
            (
                r#"{"event":"bins","counts":[1,2,3],"name":"x","sum":5.5}"#,
                &[("event", "\"bins\""), ("counts", "[1,2,3]"), ("name", "\"x\""), ("sum", "5.5")],
            ),
            (
                r#"{"name":"mem","ph":"C","ts":1.5,"pid":0,"tid":2,"args":{"v":99.25}}"#,
                &[
                    ("name", "\"mem\""),
                    ("ph", "\"C\""),
                    ("ts", "1.5"),
                    ("pid", "0"),
                    ("tid", "2"),
                    ("args.v", "99.25"),
                ],
            ),
            (
                r#" { "s" : "a\"b,}" , "n" : [[1],"]"] , "e" : {} } "#,
                &[("s", r#""a\"b,}""#), ("n", r#"[[1],"]"]"#)],
            ),
            ("{}", &[]),
        ];
        for (line, expected) in parsed {
            let m = parse_json_line(line).unwrap_or_else(|| panic!("{line} should parse"));
            assert_eq!(m.len(), expected.len(), "{line}: {m:?}");
            for (k, v) in *expected {
                assert_eq!(m[*k], *v, "{line}: key {k}");
            }
        }
        let malformed = [
            r#"{"name":"ab}"#,
            r#"{"name":"ab\}"#,
            r#"{"counts":[1,2}"#,
            r#"{"args":{"v":1}"#,
            r#"{"name" "x"}"#,
            r#"{"name":}"#,
            r#"{"a":1,}"#,
            r#"{"a":1} trailing"#,
            r#"{"a":1"#,
            "[",
            "",
        ];
        for line in malformed {
            assert_eq!(parse_json_line(line), None, "{line}");
        }
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(Value::from("x").to_json(), "\"x\"");
    }

    #[test]
    fn json_numbers() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(1.0), "1");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(Value::from(3usize).to_json(), "3");
        assert_eq!(Value::from(-2i64).to_json(), "-2");
        assert_eq!(Value::from(true).to_json(), "true");
    }

    #[test]
    fn report_builder() {
        let mut r = RunReport::with_snapshot("t", 7, TelemetrySnapshot::default());
        r.set_meta("scale", "quick").set_timing("iter_s", 0.25);
        let mut row = BTreeMap::new();
        row.insert("epoch".to_string(), Value::from(0usize));
        r.push_epoch(row);
        assert_eq!(r.schema_version, SCHEMA_VERSION);
        assert_eq!(r.seed, 7);
        assert_eq!(r.meta["scale"], Value::from("quick"));
        assert_eq!(r.timing_s["iter_s"], 0.25);
        assert_eq!(r.epochs.len(), 1);
    }
}
