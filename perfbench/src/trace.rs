//! In-memory span recording around calls into the program's layers.
//!
//! A span is one timed call: its name (`layer.stage`), the operation it
//! belongs to (`op`: every span of one workload operation shares it), its
//! parent span, and its start and duration relative to the tracer's epoch.
//! Spans stay in memory while the workload runs and are written out as
//! JSON lines once it ends. A disabled tracer records nothing and its
//! `span` is a plain call, so the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Span and counter sink of one run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
    /// Per-operation quantities: running sum and count, reported as means.
    means: BTreeMap<&'static str, (f64, u64)>,
    next_op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
            means: BTreeMap::new(),
            next_op: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// A fresh operation id for the spans of one workload operation.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Runs `f`, recording it as span `name` of operation `op` when on.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(name, op, None, start, end - start);
        out
    }

    /// Records an already-measured interval (a timing the program reports
    /// about itself, such as the server's `micros=`, or a caller-timed
    /// call whose start is `start`).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, dur: Duration) {
        if self.on {
            self.push(name, op, None, start, dur);
        }
    }

    /// Records `child` spans as children of the span at index `parent`.
    pub fn adopt(&mut self, parent: usize, children: std::ops::Range<usize>) {
        for child in &mut self.spans[children] {
            child.parent = Some(parent as u32);
        }
    }

    /// Index the next recorded span will get.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        start: Instant,
        dur: Duration,
    ) {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Sets counter `name` (last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counters.insert(name, value);
        }
    }

    /// Adds to counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.counters.entry(name).or_insert(0.0) += value;
        }
    }

    /// Adds one per-operation observation of quantity `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.on {
            let entry = self.means.entry(name).or_insert((0.0, 0));
            entry.0 += value;
            entry.1 += 1;
        }
    }

    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters.get(name).copied()
    }

    /// Mean of the observations of `name`, if any.
    pub fn mean(&self, name: &str) -> Option<f64> {
        self.means
            .get(name)
            .filter(|(_, n)| *n > 0)
            .map(|&(sum, n)| sum / n as f64)
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .collect()
    }

    /// Per operation, the duration of span `a` minus that of span `b`
    /// (ns, signed), over the operations that recorded both.
    pub fn differences(&self, a: &str, b: &str) -> Vec<i64> {
        let mut firsts: BTreeMap<u64, (Option<u64>, Option<u64>)> = BTreeMap::new();
        for s in &self.spans {
            if s.name == a {
                firsts.entry(s.op).or_default().0.get_or_insert(s.dur_ns);
            } else if s.name == b {
                firsts.entry(s.op).or_default().1.get_or_insert(s.dur_ns);
            }
        }
        firsts
            .values()
            .filter_map(|&(x, y)| Some(x? as i64 - y? as i64))
            .collect()
    }

    /// Writes every span and counter as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{}}}",
                s.name, s.op, s.start_ns, s.dur_ns
            )?;
        }
        for (name, value) in &self.counters {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{value}}}")?;
        }
        for (name, (sum, n)) in &self.means {
            writeln!(out, "{{\"mean\":\"{name}\",\"sum\":{sum},\"n\":{n}}}")?;
        }
        out.flush()
    }
}
