//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Every span has a name, a start, an end, a parent and the id of the
//! request it belongs to. The wire spans nest inside their `e2e` round trip
//! in time; the replay spans (`runtime.submit_wait` and the layer calls
//! beneath it, `delta.apply`) run after the round trip on a replica runtime
//! and are attached to it by parent only. A span's self time is its duration
//! minus the durations of its children, so per request the self times of all
//! spans add up to the `e2e` duration exactly; the remainders are the
//! `e2e` self time (`net.front_door_us`) and the `runtime.submit_wait` self
//! time (`runtime.dispatch_us`).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    /// Request the span belongs to.
    pub request: u64,
    /// Span id, unique within the trace.
    pub id: u32,
    /// Parent span id (`None` for the `e2e` root).
    pub parent: Option<u32>,
    /// Layer boundary name.
    pub name: &'static str,
    /// Start, nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, nanoseconds since the trace origin.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The trace of one run: spans stay in memory until [`Tracer::write_jsonl`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u32,
}

impl Tracer {
    /// An empty trace whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer { origin, spans: Vec::new(), next_id: 0 }
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent ends.
    pub fn reserve(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Records a span under a reserved id.
    pub fn record(
        &mut self,
        id: u32,
        request: u64,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |at: Instant| at.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { request, id, parent, name, start_ns: ns(start), end_ns: ns(end) });
    }

    /// Reserves an id and records the span in one step, for leaves.
    pub fn leaf(
        &mut self,
        request: u64,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.reserve();
        self.record(id, request, Some(parent), name, start, end);
        id
    }

    /// Per span name: summed duration and summed self time, in nanoseconds
    /// (self time may be negative when a replayed child outlasts the
    /// parent's own run of it).
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut children = vec![0u64; self.next_id as usize];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = totals.entry(span.name).or_default();
            entry.0 += span.duration_ns() as f64;
            entry.1 += span.duration_ns() as f64 - children[span.id as usize] as f64;
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"request\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
