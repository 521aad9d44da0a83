//! In-memory host-time spans, written out when the run ends as a Chrome
//! trace (loads in Perfetto beside the simulator's virtual-time traces)
//! and as a per-layer self-time table.
//!
//! A span is recorded around one call into a layer: its layer name, a
//! label, start and end, the span that caused it, and counters as
//! arguments. A layer's self time is its spans' duration minus the part
//! of each interval that the span's children cover.

use pdceval_campaign::json::escape;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The layer the call went into (`campaign.exec`, `mpt.runtime`, ...).
    pub layer: &'static str,
    /// What was called, or on what.
    pub name: String,
    /// Benchmark thread index.
    pub tid: usize,
    /// Start, in µs since the tracer was created.
    pub start_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
    /// Counters attached to the call.
    pub args: Vec<(&'static str, u64)>,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TID: usize = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves an id, for a span whose children close before it does.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a closed span under a reserved `id`.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        layer: &'static str,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, u64)>,
    ) {
        let span = Span {
            id,
            parent,
            layer,
            name: name.into(),
            tid: TID.with(|t| *t),
            start_us: start.duration_since(self.t0).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
            args,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` inside a new span and returns its result and duration
    /// in µs.
    pub fn time<T>(
        &self,
        parent: Option<u64>,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(self.id(), parent, layer, name, start, end, Vec::new());
        (out, end.duration_since(start).as_secs_f64() * 1e6)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Chrome trace-event JSON: one track per benchmark thread, spans
    /// categorized by layer, counters and parent ids as arguments.
    pub fn render_chrome(&self, title: &str, provenance_json: &str) -> String {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\": [\n");
        let _ = write!(
            out,
            "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
             \"args\": {{\"name\": \"{}\"}}}}",
            escape(title)
        );
        let mut tids: Vec<usize> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let _ = write!(
                out,
                ",\n  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"bench thread {tid}\"}}}}"
            );
        }
        for s in &spans {
            let _ = write!(
                out,
                ",\n  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}",
                escape(&s.name),
                s.layer,
                s.tid,
                s.start_us,
                s.dur_us,
                s.id
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ", \"parent\": {p}");
            }
            for (k, v) in &s.args {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str("}}");
        }
        let _ = write!(out, "\n], \"metadata\": {provenance_json}}}\n");
        out
    }

    /// Per-layer span count, total time and self time, largest self
    /// time first.
    pub fn layer_table(&self) -> String {
        let spans = self.spans();
        let self_us = self_times(&spans);
        let mut layers: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in spans.iter().zip(&self_us) {
            let e = layers.entry(s.layer).or_default();
            e.0 += 1;
            e.1 += s.dur_us;
            e.2 += own;
        }
        let total_self: f64 = self_us.iter().sum();
        let mut rows: Vec<_> = layers.into_iter().collect();
        rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
        let mut out = format!(
            "{:<18} {:>8} {:>12} {:>12} {:>7}\n",
            "layer", "spans", "total_ms", "self_ms", "self%"
        );
        for (layer, (n, total, own)) in rows {
            let share = if total_self > 0.0 {
                100.0 * own / total_self
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{layer:<18} {n:>8} {:>12.3} {:>12.3} {share:>6.1}%",
                total / 1e3,
                own / 1e3
            );
        }
        out
    }
}

/// Each span's duration minus the union of its children's intervals
/// (clipped to its own), in µs.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry(p)
                .or_default()
                .push((s.start_us, s.start_us + s.dur_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_us;
            };
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.dur_us - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_us: f64, dur_us: f64) -> Span {
        Span {
            id,
            parent,
            layer: "x",
            name: String::new(),
            tid: 0,
            start_us,
            dur_us,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..40 and 30..50 overlap (union 40)
        // and 90..120 sticks out past the parent (10 inside).
        let spans = vec![
            span(1, None, 0.0, 100.0),
            span(2, Some(1), 10.0, 30.0),
            span(3, Some(1), 30.0, 20.0),
            span(4, Some(1), 90.0, 30.0),
        ];
        assert_eq!(self_times(&spans), vec![50.0, 30.0, 20.0, 30.0]);
    }
}
