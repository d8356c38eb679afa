//! Timed operations that run in a fresh child process of this binary, so
//! every repetition starts from the same empty heap and its peak RSS is
//! its own rather than the set-up's.
//!
//! A child prints one JSON object as its last stdout line: numbers by
//! name, an optional `layers` object of per-layer values, and its
//! benchmark `spans`, which the parent grafts under its own span.

use crate::trace::{Span, Tracer};
use mc_serve::JsonValue;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What a child reported.
pub struct Report {
    tree: JsonValue,
}

impl Report {
    /// A reported number (`NaN` when missing).
    pub fn number(&self, key: &str) -> f64 {
        self.tree
            .get(key)
            .and_then(JsonValue::as_f64)
            .unwrap_or(f64::NAN)
    }

    /// The reported per-layer values (traced children only).
    pub fn layers(&self) -> Vec<(String, f64)> {
        match self.tree.get("layers") {
            Some(JsonValue::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// Runs this binary with `args` inside a span named `span` and waits for
/// it to exit.
pub fn run(tr: &mut Tracer, span: &str, args: &[String]) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let id = tr.begin(span);
    let started = tr.offset_of(Instant::now());
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {span}: {e}"))?;
    if !output.status.success() {
        tr.end(id);
        return Err(format!("{span} failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let tree = mc_serve::json_in::parse(line.as_bytes())
        .map_err(|e| format!("{span} output {line:?}: {e}"))?;
    let spans: Vec<Span> = tree
        .get("spans")
        .map(Tracer::parse_spans)
        .unwrap_or_default();
    tr.adopt(&spans, started);
    tr.end(id);
    Ok(Report { tree })
}

/// Prints a child's report: `numbers`, `layers` when traced, and the
/// child's spans.
pub fn print_report(numbers: &[(&str, f64)], layers: Option<&[(&str, f64)]>, tr: &Tracer) {
    let mut line = mc_obs::json::Obj::new();
    for &(name, value) in numbers {
        line = line.f64(name, value);
    }
    if let Some(layers) = layers {
        let mut obj = mc_obs::json::Obj::new();
        for &(name, value) in layers {
            obj = obj.f64(name, value);
        }
        line = line.raw("layers", &obj.finish());
    }
    println!("{}", line.raw("spans", &tr.to_json()).finish());
}
