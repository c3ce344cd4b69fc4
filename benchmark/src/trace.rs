//! In-memory spans around every public call the benchmark makes into the
//! system under test, and the self-time arithmetic that turns them into
//! per-layer numbers. Spans are only recorded by the traced repeat; the
//! timed repeats run with the tracer off, where `begin`/`end` read no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call: name, start and end (ns since the tracer started),
/// the span that caused it, and the interval (request) it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub interval: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; a disabled tracer records nothing and reads no clock.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` for `interval` under `parent`.
    pub fn begin(&mut self, name: &'static str, interval: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            interval,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (children clipped to the parent, overlaps counted
/// once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name aggregate of a trace: every span's duration and the summed
/// self time.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub durations_ns: Vec<f64>,
    pub self_ns: u64,
}

pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let layer = out.entry(span.name).or_default();
        layer.durations_ns.push(span.duration_ns() as f64);
        layer.self_ns += self_ns;
    }
    out
}

/// Write the first `cap` spans as JSON lines after a header line naming
/// the workload and how many spans were recorded and written.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span], cap: usize) -> std::io::Result<()> {
    let written = spans.len().min(cap);
    let mut out = String::new();
    writeln!(
        out,
        "{{\"workload\":\"{workload}\",\"spans_total\":{},\"spans_written\":{written}}}",
        spans.len()
    )
    .expect("writing to a String cannot fail");
    for (id, s) in spans.iter().take(written).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"interval\":{}}}",
            s.name, s.start_ns, s.end_ns, s.interval
        )
        .expect("writing to a String cannot fail");
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(out.as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            interval: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("interval", 0, 100, None),
            span("ingest", 10, 30, Some(0)),
            span("close", 40, 90, Some(0)),
            span("decide", 50, 60, Some(2)),
            span("decide", 70, 85, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 25, 10, 15]);
        let by_name = layers(&spans);
        assert_eq!(by_name["decide"].self_ns, 25);
        assert_eq!(by_name["decide"].durations_ns, vec![10.0, 15.0]);
        assert_eq!(by_name["interval"].self_ns, 30);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        // Covered: [100,160) + [190,200) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut off = Tracer::new(false);
        let id = off.begin("x", 0, None);
        off.end(id);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let root = on.begin("root", 3, None);
        let child = on.begin("child", 3, root);
        on.end(child);
        on.end(root);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
    }
}
