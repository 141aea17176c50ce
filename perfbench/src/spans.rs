//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! They stay in memory until the run ends and are then written out once.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. Spans nest: a span begun while another is open is
/// its child.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Spans {
    /// Tags the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn offset_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.offset_ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span, and
    /// returns its duration in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let end_ns = self.offset_ns(Instant::now());
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
        self.spans[id].ns() as f64 / 1e6
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records an interval measured elsewhere as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.spans.push(span);
    }

    /// Self time per span name, in milliseconds: each span's duration
    /// minus the part its children cover. Children run serially inside
    /// their parent, so the self times of one tree sum to its root's
    /// duration.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.ns().saturating_sub(children) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_times_account_for_the_root() {
        let mut s = Spans::default();
        s.set_op(3);
        let root = s.begin("op");
        spin(Duration::from_millis(2));
        s.time("a", || spin(Duration::from_millis(3)));
        s.time("b", || {
            spin(Duration::from_millis(1));
        });
        let root_ms = s.end(root);
        let self_ms = s.self_ms();
        let total: f64 = self_ms.values().sum();
        assert!((total - root_ms).abs() < 1e-6, "{total} vs {root_ms}");
        assert!(self_ms["a"] >= 3.0);
        assert!(self_ms["op"] >= 2.0);
        assert!(s.spans.iter().all(|sp| sp.op == 3));
        assert_eq!(s.spans[1].parent, Some(root));
    }

    #[test]
    fn recorded_intervals_nest_under_the_open_span() {
        let mut s = Spans::default();
        let root = s.begin("op");
        let t0 = Instant::now();
        spin(Duration::from_millis(1));
        s.record("replay", t0, Instant::now());
        s.end(root);
        assert_eq!(s.spans[1].parent, Some(root));
        assert!(s.self_ms()["replay"] >= 1.0);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut s = Spans::default();
        let a = s.begin("a");
        let _b = s.begin("b");
        s.end(a);
    }
}
