//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions
//! from the benchmark's own code: name, start, end, the span that caused
//! it, and a request id shared by every span of one request. They stay
//! in memory until the run ends and are then written out as JSON lines.
//! A disabled tracer runs the closures and records nothing, so the
//! untraced and traced runs execute the same code.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the tracer's span list.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer-qualified name, such as `filters.preprocess`.
    pub name: &'static str,
    /// Request (frame, alignment, query, edit tick) the span belongs to.
    pub request: u64,
    /// Recording thread, as given to [`Tracer::new`].
    pub thread: u32,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder; each thread that records owns one.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    thread: u32,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    request: Cell<u64>,
}

impl Tracer {
    /// A recording tracer. `origin` should be shared by every thread's
    /// tracer so their spans line up on one time axis.
    pub fn new(origin: Instant, thread: u32) -> Tracer {
        Tracer {
            enabled: true,
            thread,
            origin,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            request: Cell::new(0),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now(), 0)
        }
    }

    /// The thread id this tracer stamps on its spans.
    pub fn thread(&self) -> u32 {
        self.thread
    }

    /// Tags the spans opened from now on with `request`.
    pub fn set_request(&self, request: u64) {
        self.request.set(request);
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len() as u32;
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied(),
                name,
                request: self.request.get(),
                thread: self.thread,
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id as usize].start_ns = start;
        spans[id as usize].end_ns = end;
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Takes the recorded spans, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Nanoseconds of `[start, end)` not covered by any of `children`
/// (clipped to the parent interval; overlapping children count once):
/// a span's self time.
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in milliseconds (0 without spans).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Totals for every span named `name` in `spans` (one thread's list, or
/// several concatenated — parents are looked up by thread and id).
pub fn totals(spans: &[Span], name: &str) -> SpanTotals {
    let mut children: HashMap<(u32, u32), Vec<(u64, u64)>> = HashMap::new();
    for c in spans {
        if let Some(p) = c.parent {
            children
                .entry((c.thread, p))
                .or_default()
                .push((c.start_ns, c.end_ns));
        }
    }
    let mut out = SpanTotals::default();
    for s in spans.iter().filter(|s| s.name == name) {
        let kids = children
            .get(&(s.thread, s.id))
            .map_or(&[][..], Vec::as_slice);
        out.count += 1;
        out.total_ns += s.dur_ns();
        out.self_ns += self_time_ns(s.start_ns, s.end_ns, kids);
    }
    out
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"thread\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.thread, s.id, s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
