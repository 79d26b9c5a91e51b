//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the harness's side of each crate boundary —
//! one per public call (or per batch of calls where a call costs tens of
//! nanoseconds) — kept in memory, and written to
//! `out/trace-<workload>.jsonl` when the pass ends. A layer's *self*
//! time is its span's duration minus what its child spans cover. A
//! disabled tracer records nothing, so running the same replay with the
//! tracer off and on gives the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Request (frame, slice or mix) the span belongs to.
    pub req: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Aggregate of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus child spans.
    pub self_ns: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Close a span opened by [`Tracer::begin`] (innermost first).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close innermost first");
        self.stack.pop();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Add to a counter taken at the same boundary as the spans.
    #[inline]
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// A counter's value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls, total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Mean self time per call of `name`, in nanoseconds (0 when the
    /// span never occurred).
    pub fn self_ns_per_call(&self, name: &str) -> f64 {
        self.layer_times()
            .get(name)
            .filter(|t| t.calls > 0)
            .map_or(0.0, |t| t.self_ns as f64 / t.calls as f64)
    }

    /// Write one JSON object per span, then one per counter.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        for (name, n) in &self.counts {
            writeln!(w, "{{\"counter\":\"{name}\",\"value\":{n}}}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("a.outer", 1);
        let inner = t.begin("b.inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let times = t.layer_times();
        let (a, b) = (times["a.outer"], times["b.inner"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(a.self_ns, a.total_ns - b.total_ns);
        assert_eq!(b.self_ns, b.total_ns);
        assert!(b.total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("a.b", 0);
        t.count("hits", 3);
        t.end(s);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("hits"), 0);
    }
}
