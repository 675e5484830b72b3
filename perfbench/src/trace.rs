//! Spans recorded by the benchmark around each call it makes into a
//! layer of the simulator, and the per-layer self times derived from them.
//!
//! Spans live in memory while the traced run executes and are written out
//! once at the end, so recording costs one clock read and one vector push
//! per boundary.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The layer the wrapped call belongs to (`isa.engine`, …).
    pub layer: &'static str,
    /// What was called (`omnetpp_520/purecap`, …).
    pub name: String,
    /// The workload cell the call worked on, when it worked on one.
    pub cell: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new span; `f` receives the span's id so it can
    /// parent further spans on it.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: impl Into<String>,
        parent: Option<usize>,
        cell: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let name = name.into();
        let id = {
            let mut spans = self.spans.lock().expect("span recorder lock");
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                layer,
                name,
                cell,
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder lock");
        spans[id].start_ns = start_ns;
        spans[id].end_ns = end_ns;
        out
    }

    /// Adds an already-measured interval (a sum of short pieces the
    /// benchmark timed itself) as a child of `parent`, ending now.
    pub fn record(
        &self,
        layer: &'static str,
        name: impl Into<String>,
        parent: Option<usize>,
        cell: Option<usize>,
        secs: f64,
    ) {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder lock");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            layer,
            name: name.into(),
            cell,
            start_ns: end_ns.saturating_sub((secs * 1e9) as u64),
            end_ns,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder lock").clone()
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: usize) -> f64 {
        self.spans.lock().expect("span recorder lock")[id].secs()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it covered by
/// its children (overlapping children count once), in seconds.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| {
            let busy = covered(kids, s.start_ns, s.end_ns);
            (s.end_ns - s.start_ns - busy) as f64 * 1e-9
        })
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0.0) += t;
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = serde_json::to_string(s).expect("span serialises");
        writeln!(w, "{line}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: String::new(),
            cell: None,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        // root [0,100): children [10,40) and [30,60) overlap; the first
        // child has its own child [15,25). A grandchild never counts
        // against the root directly.
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(0), "b", 30, 60),
            span(3, Some(1), "c", 15, 25),
        ];
        let st: Vec<u64> = self_times(&spans)
            .iter()
            .map(|t| (t * 1e9).round() as u64)
            .collect();
        assert_eq!(st, vec![50, 20, 30, 10]);
        let by_layer = layer_self_times(&spans);
        let total: f64 = by_layer.values().sum();
        assert!(
            (total * 1e9 - 110.0).abs() < 1e-6,
            "overlap counted in both children"
        );
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(0, None, "root", 10, 20), span(1, Some(0), "a", 0, 15)];
        assert_eq!((self_times(&spans)[0] * 1e9).round() as u64, 5);
    }

    #[test]
    fn recorder_nests_spans() {
        let t = Tracer::new();
        t.span("outer", "o", None, None, |id| {
            t.span("inner", "i", Some(id), Some(3), |_| {
                std::hint::black_box(1 + 1)
            });
            t.record("piece", "p", Some(id), None, 0.0);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].cell, Some(3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
