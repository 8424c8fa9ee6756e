//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into each
//! layer's public functions: name (`layer.op`), start, end, parent span and
//! request id. They stay in memory and are written out when the run ends.
//! A span's self time is its duration minus the durations of its children.

use std::collections::HashMap;
use std::io::Write as _;

use crate::common::{now_ns, Json};

/// No parent.
pub const ROOT: u32 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Records a finished span and returns its id (ids start at 1).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Sets the interval of a span recorded before its end was known.
    pub fn set_interval(&mut self, id: u32, start_ns: u64, end_ns: u64) {
        let span = &mut self.spans[id as usize - 1];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = now_ns();
        let out = f();
        let end = now_ns();
        (out, self.record(name, parent, req, start, end))
    }

    /// Moves another tracer's spans in, re-numbering ids and parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        for mut s in other.spans {
            s.id += base;
            if s.parent != ROOT {
                s.parent += base;
            }
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in microseconds, grouped by span name.
    pub fn self_times_us(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for s in &self.spans {
            let own = s.dur_ns() as f64 - child_ns[s.id as usize] as f64;
            out.entry(s.name).or_default().push(own / 1e3);
        }
        out
    }

    /// Per request id: the summed durations of spans with the given names.
    pub fn sum_by_request(&self, names: &[&str]) -> HashMap<u64, f64> {
        let mut out: HashMap<u64, f64> = HashMap::new();
        for s in &self.spans {
            if names.contains(&s.name) {
                *out.entry(s.req).or_default() += s.dur_ns() as f64 / 1e3;
            }
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj()
                .with("id", s.id as u64)
                .with("parent", s.parent as u64)
                .with("req", s.req)
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .render();
            writeln!(file, "{line}")?;
        }
        file.flush()
    }
}
