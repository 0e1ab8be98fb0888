//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span is `(name, start, end, parent, request id)`. Each thread keeps
//! its own [`Tracer`]; all tracers of a run share one clock origin, so
//! their spans merge into one timeline. Nothing is written while the
//! workload runs: [`write_jsonl`] dumps the merged spans after the run.
//! A tracer that is off records nothing and costs one branch per call.

use std::io::Write as _;
use std::time::Instant;

/// Index of a span within its tracer; `SpanId::NONE` marks "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub req: u64,
    pub thread: &'static str,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    on: bool,
    thread: &'static str,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, on: bool, thread: &'static str) -> Self {
        Tracer {
            origin,
            on,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            thread: self.thread,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let end = self.now_ns();
            self.spans[id.0 as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Median duration of the spans called `name`, in nanoseconds.
    pub fn median_ns(&self, name: &str) -> f64 {
        crate::stats::median(&self.durations_ns(name))
    }

    /// Moves another thread's spans into this tracer, keeping parents
    /// pointing at the right spans.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != SpanId::NONE {
                s.parent = SpanId(s.parent.0 + base);
            }
            s
        }));
    }
}

/// Self time of every span name: its duration minus the part covered by
/// its direct children, summed per name, in nanoseconds.
pub fn self_time_ns(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != SpanId::NONE {
            child_ns[s.parent.0 as usize] += s.dur_ns();
        }
    }
    let mut per_name: Vec<(&'static str, u64)> = Vec::new();
    for (s, c) in spans.iter().zip(&child_ns) {
        let own = s.dur_ns().saturating_sub(*c);
        match per_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => per_name.push((s.name, own)),
        }
    }
    per_name
}

/// Writes one JSON object per span (ids are positions in the file).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == SpanId::NONE {
            "null".to_string()
        } else {
            s.parent.0.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"thread\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
            s.name, s.thread, s.start_ns, s.end_ns, s.req
        )?;
    }
    out.flush()
}
