//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls it
//! makes into each crate (outside-in); nothing inside the program is
//! instrumented. The untraced run goes through the same call sites with
//! the recorder disabled, so the difference between the two runs is the
//! tracing overhead. Spans are kept in memory and written once, at exit,
//! as Chrome trace-event JSON (loadable in Perfetto).

use serde::Value;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &str, origin: Instant) -> Self {
        Tracer {
            enabled,
            workload: workload.to_string(),
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span whose parent is the innermost span still open.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        self.spans[id].end_us = self.now_us();
        self.open.retain(|&open| open != id);
    }

    /// Time `f` and, when tracing is on, record it as a span. Returns the
    /// result and the elapsed seconds.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as a complete (`"ph": "X"`) trace event.
    pub fn write_chrome_json(&self, path: &Path) -> std::io::Result<()> {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = match s.parent {
                    Some(p) => Value::Num(p as f64),
                    None => Value::Null,
                };
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Num(s.start_us)),
                    ("dur".into(), Value::Num(s.end_us - s.start_us)),
                    ("pid".into(), Value::Num(1.0)),
                    ("tid".into(), Value::Num(1.0)),
                    (
                        "args".into(),
                        Value::Map(vec![
                            ("id".into(), Value::Num(id as f64)),
                            ("parent".into(), parent),
                            ("workload".into(), Value::Str(self.workload.clone())),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Value::Map(vec![("traceEvents".into(), Value::Seq(events))]);
        let text = serde_json::to_string(&doc).expect("a Value tree always serializes");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
