//! Benchmark-side spans: each wraps one call the benchmark makes into a
//! layer (a socket round trip, a crate function). Spans are buffered in
//! memory per thread, merged when the run ends, and written out as JSON
//! lines. With tracing off nothing is recorded.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's clock origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// `layer.operation`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Request id shared by every span of one request.
    pub req: u64,
    /// Start, in ns since the origin.
    pub start: u64,
    /// End, in ns since the origin.
    pub end: u64,
}

impl Span {
    /// The layer the span belongs to.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span buffer. `tag` keeps ids unique across buffers.
#[derive(Debug)]
pub struct SpanBuf {
    enabled: bool,
    origin: Instant,
    tag: u64,
    spans: Vec<Span>,
}

/// Handle of an open span, closed by [`SpanBuf::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: usize,
    id: u64,
}

impl Open {
    /// The span id, 0 when tracing is off.
    #[must_use]
    pub fn id(self) -> u64 {
        self.id
    }
}

impl SpanBuf {
    /// A buffer recording only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool, origin: Instant, tag: u16) -> Self {
        Self {
            enabled,
            origin,
            tag: u64::from(tag) << 40,
            spans: Vec::new(),
        }
    }

    /// Another buffer sharing this one's clock and switch.
    #[must_use]
    pub fn fork(&self, tag: u16) -> Self {
        Self::new(self.enabled, self.origin, tag)
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent` (0 for a root).
    pub fn begin(&mut self, name: &'static str, parent: u64, req: u64) -> Open {
        if !self.enabled {
            return Open { index: 0, id: 0 };
        }
        let id = self.tag | (self.spans.len() as u64 + 1);
        let start = self.now();
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start,
            end: start,
        });
        Open {
            index: self.spans.len() - 1,
            id,
        }
    }

    /// Closes `open`.
    pub fn end(&mut self, open: Open) {
        if self.enabled {
            let now = self.now();
            self.spans[open.index].end = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, parent, req);
        let out = f();
        self.end(open);
        out
    }

    /// Moves every span of `other` into this buffer.
    pub fn absorb(&mut self, other: SpanBuf) {
        self.spans.extend(other.spans);
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per layer in nanoseconds: each span's duration minus the
/// part its direct children cover.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end - s.start;
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = (s.end - s.start).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer()).or_default() += own;
    }
    out
}

/// Writes spans as JSON lines to `path`.
///
/// # Errors
///
/// File creation and write failures.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.req, s.start, s.end
        )?;
    }
    out.flush()
}

/// Cost of recording one span (begin + end) in nanoseconds, measured on
/// this machine, so a run can state what its own tracing cost.
#[must_use]
pub fn span_cost_ns() -> f64 {
    const N: usize = 200_000;
    let mut buf = SpanBuf::new(true, Instant::now(), 0);
    let t = Instant::now();
    for i in 0..N {
        let open = buf.begin("bench.calibrate", 0, i as u64);
        buf.end(std::hint::black_box(open));
    }
    t.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                id: 1,
                parent: 0,
                name: "net.report",
                req: 0,
                start: 0,
                end: 100,
            },
            Span {
                id: 2,
                parent: 1,
                name: "service.submit",
                req: 0,
                start: 10,
                end: 40,
            },
            Span {
                id: 3,
                parent: 1,
                name: "wire.decode",
                req: 0,
                start: 50,
                end: 60,
            },
        ];
        let by = self_time_by_layer(&spans);
        assert_eq!(by["net"], 60);
        assert_eq!(by["service"], 30);
        assert_eq!(by["wire"], 10);
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut buf = SpanBuf::new(false, Instant::now(), 1);
        let open = buf.begin("net.report", 0, 7);
        buf.end(open);
        assert!(buf.spans().is_empty());
        assert_eq!(open.id(), 0);
    }
}
