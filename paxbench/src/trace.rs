//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into a
//! layer: name, start, end, parent span and (for serve requests) a
//! request id. Names containing a `.` are *layer* spans (`ml.train`,
//! `explore.search`, …); names without one group work (`flow`, `study`)
//! and belong to no layer. Spans stay in memory and are written out once,
//! as Chrome trace-event JSON, when the run ends.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin;
/// `parent` and `req` are 0 when absent.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub req: u64,
    pub tid: u64,
}

/// The recorder. A disabled recorder runs the wrapped closures and
/// records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), next: AtomicU64::new(1), spans: Mutex::default() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so nested calls can name it as their parent.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let r = f(id);
        self.push(id, name, parent, 0, start, Instant::now());
        r
    }

    /// Records a span whose bounds were taken elsewhere (a served
    /// request, timed from its scheduled send to its resolution).
    pub fn record(&self, name: &'static str, parent: u64, req: u64, start: Instant, end: Instant) {
        if self.enabled {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.push(id, name, parent, req, start, end);
        }
    }

    fn push(&self, id: u64, name: &'static str, parent: u64, req: u64, s: Instant, e: Instant) {
        let span = Span { id, parent, name, start: self.ns(s), end: self.ns(e), req, tid: tid() };
        self.spans.lock().expect("span lock").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Writes every span as Chrome trace-event JSON (`ph: "X"` complete
    /// events, microseconds), viewable in Perfetto or `chrome://tracing`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {}, \"parent\": {}, \"req\": {}}}}}",
                s.name,
                s.tid,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.id,
                s.parent,
                s.req
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time in seconds per span name: each span's duration minus the
/// part of its interval its child spans cover. Spans on parallel threads
/// add up, so a layer run on two workers can show more self time than
/// wall time.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        let own = (s.end - s.start).saturating_sub(covered(kids, s.start, s.end));
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// Share of the span `root`'s wall time that no layer span (a name with
/// a `.`, on any thread) covers — where the trace is blind.
pub fn unattributed_frac(spans: &[Span], root: &Span) -> f64 {
    let layers: Vec<(u64, u64)> =
        spans.iter().filter(|s| s.name.contains('.')).map(|s| (s.start, s.end)).collect();
    let wall = (root.end - root.start).max(1);
    1.0 - covered(layers, root.start, root.end) as f64 / wall as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, start, end, req: 0, tid: 1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "flow", 0, 100),
            span(2, 1, "ml.train", 10, 40),
            span(3, 1, "ml.train", 30, 50), // overlaps its sibling
            span(4, 2, "ml.data", 10, 20),
        ];
        let st = self_seconds(&spans);
        assert_eq!(st["flow"], 60e-9);
        assert_eq!(st["ml.train"], 40e-9);
        assert_eq!(st["ml.data"], 10e-9);
        assert!((unattributed_frac(&spans, &spans[0]) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x.y", 0, |id| id), 0);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let inner = t.span("flow", 0, |root| t.span("ml.data", root, |id| (root, id)));
        assert_ne!(inner.0, inner.1);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, inner.0, "the child closes first and names its parent");
    }
}
