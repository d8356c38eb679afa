//! The benchmark's own spans, plus readers for the spans and counters the
//! program already publishes through mc-obs.
//!
//! Benchmark spans wrap calls into each layer's public entry points from
//! the outside. They live in memory and are written as JSON lines when
//! the benchmark exits; each span's *self time* is its duration minus the
//! part its child spans cover, summed per layer (the name up to the
//! first `.`).

use mc_serve::JsonValue;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one measured operation.
    pub run: u64,
}

/// In-memory span recorder. Recording is a push onto a vector, so it is
/// left on in untraced runs too; only traced runs write the spans out.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new operation id for the spans that follow.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it); returns its
    /// duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        (now - self.spans[id].start_ns) as f64 * 1e-9
    }

    /// Times `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// Grafts spans recorded by another process under the innermost open
    /// span; `offset_ns` maps the child's epoch onto this tracer's.
    pub fn adopt(&mut self, spans: &[Span], offset_ns: u64) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        for s in spans {
            self.spans.push(Span {
                name: s.name.clone(),
                start_ns: s.start_ns + offset_ns,
                end_ns: s.end_ns + offset_ns,
                parent: s.parent.map(|p| p + base).or(parent),
                run: self.run,
            });
        }
    }

    /// Nanoseconds from this tracer's epoch to `t`.
    pub fn offset_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Per-layer self time in seconds, keyed by layer name.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(c);
            *out.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as a JSON array (for handing them to a parent process).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self.spans.iter().map(span_json).collect();
        format!("[{}]", rows.join(","))
    }

    /// Parses the output of [`Tracer::to_json`].
    pub fn parse_spans(v: &JsonValue) -> Vec<Span> {
        let field = |s: &JsonValue, k: &str| s.get(k).and_then(JsonValue::as_u64);
        v.as_arr()
            .unwrap_or(&[])
            .iter()
            .map(|s| Span {
                name: s
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?")
                    .to_string(),
                start_ns: field(s, "start_ns").unwrap_or(0),
                end_ns: field(s, "end_ns").unwrap_or(0),
                parent: field(s, "parent").map(|p| p as usize),
                run: field(s, "run").unwrap_or(0),
            })
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(f, "{}", span_json(s))?;
        }
        f.flush()
    }
}

fn span_json(s: &Span) -> String {
    let mut o = mc_obs::json::Obj::new()
        .str("name", &s.name)
        .u64("start_ns", s.start_ns)
        .u64("end_ns", s.end_ns)
        .u64("run", s.run);
    if let Some(p) = s.parent {
        o = o.u64("parent", p as u64);
    }
    o.finish()
}

/// Switches the program's mc-obs collection on (traced runs) or off.
pub fn set_program_tracing(on: bool) {
    mc_obs::set_level(if on {
        mc_obs::Level::Info
    } else {
        mc_obs::Level::Warn
    });
    mc_obs::reset();
}

/// Total seconds under a program span path (0 when it never ran).
pub fn span_s(s: &mc_obs::Snapshot, path: &str) -> f64 {
    s.span(path).map_or(0.0, |st| st.total_ns as f64 * 1e-9)
}

/// A program gauge (0 when never set).
pub fn gauge(s: &mc_obs::Snapshot, name: &str) -> f64 {
    s.gauges
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |&(_, v)| v)
}
