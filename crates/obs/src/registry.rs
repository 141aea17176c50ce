//! The collector: thread-safe [`Registry`], cheap recording handles, and
//! the thread-local scope machinery that routes events to a registry.

use crate::report::{CounterRecord, GaugeRecord, HistogramRecord, ObsReport, SpanRecord};
use crate::trace::{TraceConfig, TraceKind, TraceRecorder};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of power-of-two histogram buckets (enough for any `u64`).
pub(crate) const BUCKETS: usize = 65;

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, Copy, Default)]
struct SpanStat {
    count: u64,
    total_ns: u64,
}

/// A bucketed histogram: power-of-two buckets plus count and sum.
#[derive(Debug)]
struct Hist {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Hist {
    fn new() -> Hist {
        Hist {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        // Bucket i counts values whose highest set bit is i-1 (bucket 0 is
        // the value 0), i.e. value ∈ [2^(i-1), 2^i).
        let idx = (64 - value.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }
}

/// A thread-safe event collector.
///
/// Counters and histograms are recorded through cached atomic handles
/// (lock-free after the first lookup); span aggregation takes a short
/// uncontended lock at span *exit* only, so even span-heavy phases pay
/// nothing while running.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<String, Arc<Hist>>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
    gauges: Mutex<BTreeMap<String, u64>>,
    recorder: OnceLock<Arc<TraceRecorder>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Creates an empty registry with a flight recorder attached.
    #[must_use]
    pub fn with_recorder(config: TraceConfig) -> Registry {
        let reg = Registry::new();
        let _ = reg.install_recorder(config);
        reg
    }

    /// Creates an empty registry inheriting `other`'s recorder
    /// *configuration* (with a fresh, empty recorder). This is how
    /// per-worker and per-run child registries keep tracing on when the
    /// enclosing registry records traces, without sharing a ring across
    /// threads.
    #[must_use]
    pub fn new_like(other: &Registry) -> Registry {
        match other.recorder() {
            Some(rec) => Registry::with_recorder(*rec.config()),
            None => Registry::new(),
        }
    }

    /// Attaches a flight recorder (idempotent: the first configuration
    /// wins, later calls return the already-installed recorder).
    pub fn install_recorder(&self, config: TraceConfig) -> Arc<TraceRecorder> {
        self.recorder
            .get_or_init(|| Arc::new(TraceRecorder::new(config)))
            .clone()
    }

    /// The attached flight recorder, if any.
    #[must_use]
    pub fn recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.recorder.get().cloned()
    }

    /// Records `value` into the named gauge, keeping the **maximum** seen
    /// — the right merge for peak measurements (RSS, stack depth).
    pub fn gauge_max(&self, name: &str, value: u64) {
        let mut map = self.gauges.lock().unwrap();
        let g = map.entry(name.to_string()).or_insert(0);
        *g = (*g).max(value);
    }

    /// Adds `n` to the named counter (cold-path form; hot paths hold a
    /// [`Counter`] handle from [`counter`] instead).
    pub fn counter_add(&self, name: &str, n: u64) {
        self.counter_cell(name).fetch_add(n, Ordering::Relaxed);
    }

    /// Returns the counter cell named `name`, creating it at zero.
    fn counter_cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut map = self.counters.lock().unwrap();
        if let Some(c) = map.get(name) {
            return c.clone();
        }
        let c = Arc::new(AtomicU64::new(0));
        map.insert(name.to_string(), c.clone());
        c
    }

    fn hist_cell(&self, name: &str) -> Arc<Hist> {
        let mut map = self.hists.lock().unwrap();
        if let Some(h) = map.get(name) {
            return h.clone();
        }
        let h = Arc::new(Hist::new());
        map.insert(name.to_string(), h.clone());
        h
    }

    fn record_span(&self, path: String, elapsed: Duration) {
        let mut map = self.spans.lock().unwrap();
        let st = map.entry(path).or_default();
        st.count += 1;
        st.total_ns += elapsed.as_nanos() as u64;
    }

    /// Snapshots everything recorded so far into a serializable report.
    /// Records appear in deterministic (sorted) order.
    pub fn report(&self) -> ObsReport {
        let spans = self
            .spans
            .lock()
            .unwrap()
            .iter()
            .map(|(path, st)| SpanRecord {
                path: path.clone(),
                count: st.count,
                total_ns: st.total_ns,
            })
            .collect();
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, c)| CounterRecord {
                name: name.clone(),
                value: c.load(Ordering::Relaxed),
            })
            .collect();
        let histograms = self
            .hists
            .lock()
            .unwrap()
            .iter()
            .map(|(name, h)| HistogramRecord {
                name: name.clone(),
                count: h.count.load(Ordering::Relaxed),
                sum: h.sum.load(Ordering::Relaxed),
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then_some((i as u32, n))
                    })
                    .collect(),
            })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, v)| GaugeRecord {
                name: name.clone(),
                value: *v,
            })
            .collect();
        let trace = self.recorder().map(|rec| rec.report());
        ObsReport {
            spans,
            counters,
            histograms,
            gauges,
            trace,
        }
    }

    /// Adds every record of `report` into this registry — used to fold a
    /// per-run report back into an enclosing (e.g. whole-corpus) registry.
    pub fn absorb(&self, report: &ObsReport) {
        for s in &report.spans {
            let mut map = self.spans.lock().unwrap();
            let st = map.entry(s.path.clone()).or_default();
            st.count += s.count;
            st.total_ns += s.total_ns;
        }
        for c in &report.counters {
            self.counter_cell(&c.name)
                .fetch_add(c.value, Ordering::Relaxed);
        }
        for h in &report.histograms {
            let cell = self.hist_cell(&h.name);
            cell.count.fetch_add(h.count, Ordering::Relaxed);
            cell.sum.fetch_add(h.sum, Ordering::Relaxed);
            for (idx, n) in &h.buckets {
                if let Some(b) = cell.buckets.get(*idx as usize) {
                    b.fetch_add(*n, Ordering::Relaxed);
                }
            }
        }
        for g in &report.gauges {
            self.gauge_max(&g.name, g.value);
        }
        if let (Some(rec), Some(trace)) = (self.recorder.get(), &report.trace) {
            rec.absorb(trace);
        }
    }
}

/// A cheap counter handle: one relaxed `fetch_add` per [`Counter::add`],
/// or nothing at all when observability was inactive at lookup time.
///
/// Obtain one with [`counter`] and keep it for the hot path; by-name
/// recording via [`counter_add`] does a map lookup per call and is meant
/// for cold sites.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that records nothing.
    pub fn noop() -> Counter {
        Counter(None)
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Whether this handle records anywhere.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }
}

// ---- global switch and thread-local scope ----

static FORCED: AtomicBool = AtomicBool::new(false);
static ENV_ENABLED: OnceLock<bool> = OnceLock::new();
static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

fn env_enabled() -> bool {
    *ENV_ENABLED.get_or_init(|| {
        matches!(
            std::env::var("AJI_OBS").as_deref(),
            Ok("1") | Ok("true") | Ok("on")
        )
    })
}

/// Whether observability is globally on (the `AJI_OBS` environment switch
/// or [`force_enable`]). Scoped registries are active regardless.
pub fn enabled() -> bool {
    FORCED.load(Ordering::Relaxed) || env_enabled()
}

/// Turns global collection on programmatically (used by `aji-report`,
/// which exists to profile and would be useless with collection off).
pub fn force_enable() {
    FORCED.store(true, Ordering::Relaxed);
}

fn global() -> &'static Arc<Registry> {
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

thread_local! {
    /// Stack of (registry, span-stack depth at installation). Span paths
    /// recorded into a registry are relative to its installation depth, so
    /// a per-run registry's report is not prefixed by enclosing spans.
    static SCOPES: RefCell<Vec<(Arc<Registry>, usize)>> = const { RefCell::new(Vec::new()) };
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The registry events on this thread currently record into: the innermost
/// [`scoped`] registry, else the global one when [`enabled`], else `None`.
pub fn current_registry() -> Option<Arc<Registry>> {
    current().map(|(r, _)| r)
}

fn current() -> Option<(Arc<Registry>, usize)> {
    let scoped = SCOPES.with(|s| s.borrow().last().cloned());
    if scoped.is_some() {
        return scoped;
    }
    enabled().then(|| (global().clone(), 0))
}

/// Runs `f` with `registry` installed as the current thread's collector.
/// Scopes nest; the innermost wins. Span paths inside the scope are
/// relative to the scope (enclosing span names do not leak in).
pub fn scoped<T>(registry: &Arc<Registry>, f: impl FnOnce() -> T) -> T {
    let depth = SPAN_STACK.with(|s| s.borrow().len());
    SCOPES.with(|s| s.borrow_mut().push((registry.clone(), depth)));
    // Pop on unwind too, so a panicking property test doesn't leave its
    // registry installed for the next test on the same thread.
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            SCOPES.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    let _pop = PopOnDrop;
    f()
}

/// Returns a counter handle bound to the current registry ([`Counter::noop`]
/// when observability is inactive). Obtain once, then [`Counter::add`] on
/// the hot path.
pub fn counter(name: &str) -> Counter {
    match current() {
        Some((reg, _)) => Counter(Some(reg.counter_cell(name))),
        None => Counter::noop(),
    }
}

/// Adds `n` to the named counter of the current registry (cold-path form:
/// one map lookup per call).
pub fn counter_add(name: &str, n: u64) {
    if let Some((reg, _)) = current() {
        reg.counter_cell(name).fetch_add(n, Ordering::Relaxed);
    }
}

/// Records `value` into the named histogram of the current registry.
pub fn histogram_record(name: &str, value: u64) {
    if let Some((reg, _)) = current() {
        reg.hist_cell(name).record(value);
    }
}

/// Records `value` into the named gauge of the current registry, keeping
/// the maximum seen (peak semantics).
pub fn gauge_max(name: &str, value: u64) {
    if let Some((reg, _)) = current() {
        reg.gauge_max(name, value);
    }
}

/// The flight recorder of the current registry, if the current registry
/// has one installed. Cold sites that emit several events in a row should
/// fetch this once instead of calling [`trace_event`] repeatedly.
#[must_use]
pub fn trace_recorder() -> Option<Arc<TraceRecorder>> {
    current().and_then(|(reg, _)| reg.recorder())
}

/// Records a trace event into the current registry's recorder, if any
/// (cold-path convenience: one registry lookup per call).
pub fn trace_event(kind: TraceKind, name: &str, detail: &str) {
    if let Some(rec) = trace_recorder() {
        rec.record(kind, name, detail);
    }
}

/// Reads the process's peak resident set size (`VmHWM` from
/// `/proc/self/status`, in kB) into the `process.peak_rss_kb` gauge of the
/// current registry. Returns the value read, or `None` when the procfs
/// field is unavailable (non-Linux) or no registry is active.
pub fn record_peak_rss() -> Option<u64> {
    let (reg, _) = current()?;
    let kb = peak_rss_kb()?;
    reg.gauge_max("process.peak_rss_kb", kb);
    Some(kb)
}

/// Parses `VmHWM` (peak RSS, kB) out of `/proc/self/status`.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A timed hierarchical span. Created by [`span`]; records its elapsed
/// wall-clock time under `parent/…/name` when dropped (or when
/// [`SpanGuard::finish`] is called, which also returns the elapsed time).
///
/// The guard always measures time — [`SpanGuard::finish`] is meaningful
/// even with observability off — but records only when a registry was
/// active at creation.
#[must_use = "a span records when the guard is dropped; binding it to _ drops it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    start: Instant,
    /// Registry to record into and the span-path base depth, when active.
    rec: Option<(Arc<Registry>, usize)>,
    /// Flight recorder to emit the matching `SpanEnd` into, when the
    /// registry had one at open time.
    trace: Option<(Arc<TraceRecorder>, &'static str)>,
    done: bool,
}

/// Opens a span named `name`. Nesting is tracked per thread: spans opened
/// while this guard is live record under `name/…`.
pub fn span(name: &'static str) -> SpanGuard {
    let rec = current();
    let trace = rec.as_ref().and_then(|(reg, _)| reg.recorder()).map(|t| {
        t.record(TraceKind::SpanBegin, name, "");
        (t, name)
    });
    if rec.is_some() {
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
    }
    SpanGuard {
        start: Instant::now(),
        rec,
        trace,
        done: false,
    }
}

impl SpanGuard {
    /// Time elapsed since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Closes the span now and returns its elapsed time.
    pub fn finish(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.record(elapsed);
        elapsed
    }

    fn record(&mut self, elapsed: Duration) {
        if self.done {
            return;
        }
        self.done = true;
        if let Some((t, name)) = self.trace.take() {
            t.record(TraceKind::SpanEnd, name, "");
        }
        if let Some((reg, base)) = self.rec.take() {
            let path = SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let path = stack[base.min(stack.len())..].join("/");
                stack.pop();
                path
            });
            if !path.is_empty() {
                reg.record_span(path, elapsed);
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.record(elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_accumulate() {
        let reg = Arc::new(Registry::new());
        scoped(&reg, || {
            let c = counter("x");
            assert!(c.is_live());
            c.add(3);
            c.inc();
            counter_add("x", 6);
            histogram_record("h", 0);
            histogram_record("h", 1);
            histogram_record("h", 1000);
        });
        let rep = reg.report();
        assert_eq!(rep.counter("x"), Some(10));
        let h = &rep.histograms[0];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1001);
        // 0 → bucket 0, 1 → bucket 1, 1000 → bucket 10 ([512, 1024)).
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (10, 1)]);
    }

    #[test]
    fn spans_nest_into_paths() {
        let reg = Arc::new(Registry::new());
        scoped(&reg, || {
            let _a = span("a");
            {
                let _b = span("b");
            }
            {
                let _b = span("b");
            }
        });
        let rep = reg.report();
        let paths: Vec<(&str, u64)> = rep
            .spans
            .iter()
            .map(|s| (s.path.as_str(), s.count))
            .collect();
        assert_eq!(paths, vec![("a", 1), ("a/b", 2)]);
    }

    #[test]
    fn scope_base_depth_hides_enclosing_spans() {
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        scoped(&outer, || {
            let _o = span("outer");
            scoped(&inner, || {
                let _i = span("inner");
            });
        });
        assert_eq!(inner.report().spans[0].path, "inner");
        assert_eq!(outer.report().spans[0].path, "outer");
    }

    #[test]
    fn inactive_recording_is_noop() {
        // No scope installed and AJI_OBS unset in the test environment:
        // handles must be no-ops (and must not panic).
        if enabled() {
            return; // environment has AJI_OBS set; skip.
        }
        let c = counter("dead");
        assert!(!c.is_live());
        c.add(5);
        counter_add("dead", 5);
        histogram_record("dead", 5);
        let g = span("dead");
        assert!(g.finish() >= Duration::ZERO);
    }

    #[test]
    fn absorb_folds_reports() {
        let a = Arc::new(Registry::new());
        let b = Arc::new(Registry::new());
        scoped(&a, || {
            counter_add("n", 2);
            histogram_record("h", 4);
            let _s = span("phase");
        });
        scoped(&b, || {
            counter_add("n", 3);
            histogram_record("h", 4);
            let _s = span("phase");
        });
        b.absorb(&a.report());
        let rep = b.report();
        assert_eq!(rep.counter("n"), Some(5));
        assert_eq!(rep.spans[0].count, 2);
        assert_eq!(rep.histograms[0].count, 2);
        assert_eq!(rep.histograms[0].sum, 8);
    }

    #[test]
    fn gauges_keep_maximum_and_absorb_merges_by_max() {
        let a = Arc::new(Registry::new());
        let b = Arc::new(Registry::new());
        a.gauge_max("peak", 10);
        a.gauge_max("peak", 4);
        b.gauge_max("peak", 7);
        scoped(&a, || gauge_max("peak", 9));
        assert_eq!(a.report().gauge("peak"), Some(10));
        b.absorb(&a.report());
        assert_eq!(b.report().gauge("peak"), Some(10));
    }

    #[test]
    fn spans_emit_trace_events_when_recorder_installed() {
        let reg = Arc::new(Registry::with_recorder(TraceConfig::deterministic()));
        scoped(&reg, || {
            let _a = span("outer");
            let _b = span("inner");
        });
        let trace = reg.report().trace.unwrap();
        let seq: Vec<(&str, &str)> = trace
            .events
            .iter()
            .map(|e| (e.kind.key(), e.name.as_str()))
            .collect();
        assert_eq!(
            seq,
            vec![
                ("span_begin", "outer"),
                ("span_begin", "inner"),
                ("span_end", "inner"),
                ("span_end", "outer"),
            ]
        );
    }

    #[test]
    fn new_like_inherits_recorder_config_with_fresh_ring() {
        let parent = Registry::with_recorder(TraceConfig::deterministic());
        parent.recorder().unwrap().record(TraceKind::BudgetTrip, "x", "");
        let child = Registry::new_like(&parent);
        let rec = child.recorder().expect("child inherits recorder");
        assert!(rec.config().deterministic);
        assert!(rec.report().events.is_empty());
        assert!(Registry::new_like(&Registry::new()).recorder().is_none());
    }

    #[test]
    fn absorb_appends_child_trace_in_order() {
        let parent = Arc::new(Registry::with_recorder(TraceConfig::deterministic()));
        let child = Registry::new_like(&parent);
        child
            .recorder()
            .unwrap()
            .record_at(5, TraceKind::BudgetTrip, "steps", "");
        parent.absorb(&child.report());
        let trace = parent.report().trace.unwrap();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].step, 5);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_gauge_reads_procfs() {
        let reg = Arc::new(Registry::new());
        let read = scoped(&reg, record_peak_rss);
        let kb = read.expect("VmHWM available on Linux");
        assert!(kb > 0);
        assert_eq!(reg.report().gauge("process.peak_rss_kb"), Some(kb));
    }

    #[test]
    fn finish_returns_elapsed_and_records_once() {
        let reg = Arc::new(Registry::new());
        scoped(&reg, || {
            let g = span("once");
            let d = g.finish();
            assert!(d >= Duration::ZERO);
        });
        assert_eq!(reg.report().spans[0].count, 1);
    }
}
