//! The flight recorder: a fixed-capacity ring buffer of structured
//! [`TraceEvent`]s, each stamped with both a wall-clock offset and the
//! interpreter **step index** at which it fired.
//!
//! # Why two clocks
//!
//! Wall-clock timestamps are what Chrome/Perfetto render, but they are
//! nondeterministic. The step index — the interpreter's own work counter —
//! is deterministic for a deterministic program, so a recorder created
//! with [`TraceConfig::deterministic`] zeroes the wall clock and stamps
//! events with the step index alone. Two deterministic-mode runs of the
//! same corpus produce **byte-identical** event streams regardless of
//! thread count, extending the PR 4/7 determinism guarantee from
//! aggregate reports to full traces.
//!
//! # The step-index clock
//!
//! The recorder holds an atomic step clock. Interpreter-side hooks record
//! events with an explicit step ([`TraceRecorder::record_at`]), which also
//! advances the clock; pipeline-side events (span begin/end, oracle
//! findings, hint applications) stamp whatever the clock last read
//! ([`TraceRecorder::record`]). The step index is therefore "interpreter
//! steps charged by the most recent interpreter event", which is exact
//! inside interpretation phases and frozen (not interpolated) outside
//! them. It resets whenever the owning interpreter resets its counter.
//!
//! # Capacity
//!
//! The ring holds at most [`TraceConfig::capacity`] events; the oldest are
//! overwritten and counted in [`TraceReport::dropped`]. Recording into a
//! full ring is O(1) and allocation-free apart from the event strings.

use aji_support::{FromJson, Json, JsonError, ToJson};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What happened. Each variant has a stable string key used in JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A timed span opened (`name` is the span name).
    SpanBegin,
    /// A timed span closed.
    SpanEnd,
    /// An interpretation budget tripped (`name` is the budget kind).
    BudgetTrip,
    /// The soundness oracle classified a missed edge (`name` is the cause).
    OracleFinding,
    /// The pointer analysis applied an approximation hint (`name` is the
    /// rule, `detail` the property or module).
    HintApply,
}

impl TraceKind {
    /// Stable string key for this kind (used in JSON and Chrome export).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            TraceKind::SpanBegin => "span_begin",
            TraceKind::SpanEnd => "span_end",
            TraceKind::BudgetTrip => "budget_trip",
            TraceKind::OracleFinding => "oracle_finding",
            TraceKind::HintApply => "hint_apply",
        }
    }

    /// Parses a kind from its stable key.
    #[must_use]
    pub fn from_key(key: &str) -> Option<TraceKind> {
        Some(match key {
            "span_begin" => TraceKind::SpanBegin,
            "span_end" => TraceKind::SpanEnd,
            "budget_trip" => TraceKind::BudgetTrip,
            "oracle_finding" => TraceKind::OracleFinding,
            "hint_apply" => TraceKind::HintApply,
            _ => return None,
        })
    }

    /// All kinds, in declaration order (useful for tests and generators).
    #[must_use]
    pub fn all() -> &'static [TraceKind] {
        &[
            TraceKind::SpanBegin,
            TraceKind::SpanEnd,
            TraceKind::BudgetTrip,
            TraceKind::OracleFinding,
            TraceKind::HintApply,
        ]
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Interpreter step index at which the event fired (see the module
    /// docs for the exact clock semantics).
    pub step: u64,
    /// Nanoseconds since the recorder was created; always 0 in
    /// deterministic mode.
    pub wall_ns: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Primary subject (span name, budget kind, missed edge, hint rule, …).
    pub name: String,
    /// Free-form secondary detail (root cause, hint property, …).
    pub detail: String,
}

/// Recorder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum events retained (oldest dropped first). Clamped to ≥ 1.
    pub capacity: usize,
    /// Zero the wall clock so event streams are byte-identical across
    /// reruns and thread counts.
    pub deterministic: bool,
    /// Enable the interpreter's step-attributed hot-function profiler
    /// (per-function `profile.fn.*` counters).
    pub profile: bool,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            capacity: 65_536,
            deterministic: false,
            profile: true,
        }
    }
}

impl TraceConfig {
    /// A deterministic-mode configuration with the default capacity.
    #[must_use]
    pub fn deterministic() -> TraceConfig {
        TraceConfig {
            deterministic: true,
            ..TraceConfig::default()
        }
    }
}

#[derive(Debug, Default)]
struct Ring {
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

/// The flight recorder attached to a
/// [`Registry`](crate::Registry): a bounded, thread-safe ring of
/// [`TraceEvent`]s plus the atomic step clock.
///
/// Recording takes one short uncontended lock; in the corpus driver every
/// project runs against its *own* recorder (fresh per-worker registry), so
/// there is no cross-thread contention and — because per-project rings
/// fill identically no matter which thread runs them — the merged stream
/// is thread-count invariant.
#[derive(Debug)]
pub struct TraceRecorder {
    config: TraceConfig,
    epoch: Instant,
    clock: AtomicU64,
    ring: Mutex<Ring>,
}

impl TraceRecorder {
    /// Creates a recorder with the given configuration.
    #[must_use]
    pub fn new(mut config: TraceConfig) -> TraceRecorder {
        config.capacity = config.capacity.max(1);
        TraceRecorder {
            config,
            epoch: Instant::now(),
            clock: AtomicU64::new(0),
            ring: Mutex::new(Ring::default()),
        }
    }

    /// The recorder's configuration.
    #[must_use]
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Current value of the step clock.
    #[must_use]
    pub fn step(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Sets the step clock without recording an event (interpreter entry
    /// points use this so pipeline events that follow carry a fresh step).
    pub fn set_step(&self, step: u64) {
        self.clock.store(step, Ordering::Relaxed);
    }

    fn wall_ns(&self) -> u64 {
        if self.config.deterministic {
            0
        } else {
            self.epoch.elapsed().as_nanos() as u64
        }
    }

    /// Records an event stamped with the current step clock.
    pub fn record(&self, kind: TraceKind, name: &str, detail: &str) {
        let step = self.step();
        self.push(TraceEvent {
            step,
            wall_ns: self.wall_ns(),
            kind,
            name: name.to_string(),
            detail: detail.to_string(),
        });
    }

    /// Records an event at an explicit step index and advances the step
    /// clock to it — the interpreter-side entry point.
    pub fn record_at(&self, step: u64, kind: TraceKind, name: &str, detail: &str) {
        self.clock.store(step, Ordering::Relaxed);
        self.push(TraceEvent {
            step,
            wall_ns: self.wall_ns(),
            kind,
            name: name.to_string(),
            detail: detail.to_string(),
        });
    }

    fn push(&self, ev: TraceEvent) {
        let mut ring = self.ring.lock().unwrap();
        if ring.buf.len() == self.config.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(ev);
    }

    /// Snapshots the ring, oldest event first.
    #[must_use]
    pub fn report(&self) -> TraceReport {
        let ring = self.ring.lock().unwrap();
        TraceReport {
            events: ring.buf.iter().cloned().collect(),
            dropped: ring.dropped,
        }
    }

    /// Appends another report's events (stamps preserved) into this ring —
    /// how per-project traces fold into the corpus-level recorder, in
    /// corpus order, so the merged stream is identical serial vs parallel.
    pub fn absorb(&self, report: &TraceReport) {
        for ev in &report.events {
            self.push(ev.clone());
        }
        self.ring.lock().unwrap().dropped += report.dropped;
    }
}

/// Serialized snapshot of a recorder's ring.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReport {
    /// Events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted because the ring was full.
    pub dropped: u64,
}

impl TraceReport {
    /// Whether nothing was recorded (or everything was dropped).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Merges several reports into one, stably ordered by step index —
    /// events with equal steps keep their (part, position) order, so the
    /// merge of per-thread rings is deterministic.
    #[must_use]
    pub fn merged(parts: &[TraceReport]) -> TraceReport {
        let mut events: Vec<TraceEvent> = parts.iter().flat_map(|p| p.events.clone()).collect();
        events.sort_by_key(|e| e.step);
        TraceReport {
            events,
            dropped: parts.iter().map(|p| p.dropped).sum(),
        }
    }

    /// Exports to Chrome/Perfetto trace-event JSON
    /// (`{"traceEvents": [...]}`, the format `chrome://tracing` and
    /// <https://ui.perfetto.dev> load).
    ///
    /// Span begin/end pairs become `"B"`/`"E"` duration events; everything
    /// else becomes an `"i"` instant. The `ts` field (microseconds) is the
    /// wall clock when available; events recorded in deterministic mode
    /// (wall clock zeroed) use the step index as `ts` instead, so the
    /// export stays byte-identical across reruns and the timeline reads in
    /// units of interpreter work.
    #[must_use]
    pub fn to_chrome_trace(&self) -> Json {
        let events = self
            .events
            .iter()
            .map(|e| {
                let ph = match e.kind {
                    TraceKind::SpanBegin => "B",
                    TraceKind::SpanEnd => "E",
                    _ => "i",
                };
                let ts = if e.wall_ns == 0 {
                    e.step as f64
                } else {
                    e.wall_ns as f64 / 1000.0
                };
                let mut fields = vec![
                    ("name", Json::Str(e.name.clone())),
                    ("cat", Json::Str(e.kind.key().into())),
                    ("ph", Json::Str(ph.into())),
                    ("ts", Json::Num(ts)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                ];
                if ph == "i" {
                    fields.push(("s", Json::Str("t".into())));
                }
                let mut args = vec![("step", Json::Num(e.step as f64))];
                if !e.detail.is_empty() {
                    args.push(("detail", Json::Str(e.detail.clone())));
                }
                fields.push(("args", Json::obj(args)));
                Json::obj(fields)
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
            (
                "otherData",
                Json::obj(vec![("dropped", Json::Num(self.dropped as f64))]),
            ),
        ])
    }
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("step", self.step.to_json()),
            ("wall_ns", self.wall_ns.to_json()),
            ("kind", Json::Str(self.kind.key().into())),
            ("name", self.name.to_json()),
            ("detail", self.detail.to_json()),
        ])
    }
}

impl FromJson for TraceEvent {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let key = String::from_json(v.field("kind")?)?;
        let kind = TraceKind::from_key(&key)
            .ok_or_else(|| JsonError::shape(format!("unknown trace kind '{key}'")))?;
        Ok(TraceEvent {
            step: u64::from_json(v.field("step")?)?,
            wall_ns: u64::from_json(v.field("wall_ns")?)?,
            kind,
            name: String::from_json(v.field("name")?)?,
            detail: String::from_json(v.field("detail")?)?,
        })
    }
}

impl ToJson for TraceReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("events", self.events.to_json()),
            ("dropped", self.dropped.to_json()),
        ])
    }
}

impl FromJson for TraceReport {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(TraceReport {
            events: Vec::from_json(v.field("events")?)?,
            dropped: u64::from_json(v.field("dropped")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(step: u64, name: &str) -> TraceEvent {
        TraceEvent {
            step,
            wall_ns: 0,
            kind: TraceKind::HintApply,
            name: name.into(),
            detail: String::new(),
        }
    }

    #[test]
    fn ring_drops_oldest() {
        let rec = TraceRecorder::new(TraceConfig {
            capacity: 3,
            deterministic: true,
            profile: false,
        });
        for i in 0..5 {
            rec.record_at(i, TraceKind::HintApply, &format!("e{i}"), "");
        }
        let rep = rec.report();
        assert_eq!(rep.dropped, 2);
        let names: Vec<&str> = rep.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["e2", "e3", "e4"]);
    }

    #[test]
    fn capacity_zero_clamps_to_one() {
        let rec = TraceRecorder::new(TraceConfig {
            capacity: 0,
            deterministic: true,
            profile: false,
        });
        rec.record(TraceKind::SpanBegin, "a", "");
        rec.record(TraceKind::SpanEnd, "a", "");
        let rep = rec.report();
        assert_eq!(rep.events.len(), 1);
        assert_eq!(rep.dropped, 1);
    }

    #[test]
    fn deterministic_mode_zeroes_wall_clock() {
        let rec = TraceRecorder::new(TraceConfig::deterministic());
        rec.record_at(7, TraceKind::BudgetTrip, "steps", "");
        let rep = rec.report();
        assert_eq!(rep.events[0].wall_ns, 0);
        assert_eq!(rep.events[0].step, 7);
        // The clock advanced; a follow-up pipeline event carries it.
        rec.record(TraceKind::SpanEnd, "approx-interp", "");
        assert_eq!(rec.report().events[1].step, 7);
    }

    #[test]
    fn merged_is_stable_by_step() {
        let a = TraceReport {
            events: vec![ev(1, "a1"), ev(5, "a5")],
            dropped: 1,
        };
        let b = TraceReport {
            events: vec![ev(1, "b1"), ev(3, "b3")],
            dropped: 2,
        };
        let m = TraceReport::merged(&[a, b]);
        let names: Vec<&str> = m.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a1", "b1", "b3", "a5"]);
        assert_eq!(m.dropped, 3);
    }

    #[test]
    fn json_roundtrip() {
        let rep = TraceReport {
            events: vec![
                TraceEvent {
                    step: 12,
                    wall_ns: 345,
                    kind: TraceKind::HintApply,
                    name: "DPW".into(),
                    detail: "handler".into(),
                },
                ev(99, "k"),
            ],
            dropped: 4,
        };
        let back = TraceReport::from_json(&Json::parse(&rep.to_json().to_string()).unwrap());
        assert_eq!(back.unwrap(), rep);
    }

    #[test]
    fn kind_keys_roundtrip() {
        for k in TraceKind::all() {
            assert_eq!(TraceKind::from_key(k.key()), Some(*k));
        }
        assert_eq!(TraceKind::from_key("nope"), None);
    }

    #[test]
    fn chrome_trace_shape() {
        let rep = TraceReport {
            events: vec![
                TraceEvent {
                    step: 1,
                    wall_ns: 0,
                    kind: TraceKind::SpanBegin,
                    name: "pipeline".into(),
                    detail: String::new(),
                },
                TraceEvent {
                    step: 2,
                    wall_ns: 0,
                    kind: TraceKind::BudgetTrip,
                    name: "steps".into(),
                    detail: String::new(),
                },
                TraceEvent {
                    step: 3,
                    wall_ns: 0,
                    kind: TraceKind::SpanEnd,
                    name: "pipeline".into(),
                    detail: String::new(),
                },
            ],
            dropped: 0,
        };
        let doc = rep.to_chrome_trace();
        let evs = match doc.get("traceEvents") {
            Some(Json::Arr(a)) => a,
            other => panic!("traceEvents not an array: {other:?}"),
        };
        assert_eq!(evs.len(), 3);
        let phs: Vec<String> = evs
            .iter()
            .map(|e| String::from_json(e.get("ph").unwrap()).unwrap())
            .collect();
        assert_eq!(phs, vec!["B", "i", "E"]);
        // Deterministic events use the step index as ts.
        assert_eq!(evs[1].get("ts"), Some(&Json::Num(2.0)));
    }

    #[test]
    fn absorb_preserves_stamps_and_counts_drops() {
        let parent = TraceRecorder::new(TraceConfig::deterministic());
        let child = TraceReport {
            events: vec![ev(41, "child")],
            dropped: 6,
        };
        parent.record_at(40, TraceKind::SpanBegin, "corpus", "");
        parent.absorb(&child);
        let rep = parent.report();
        assert_eq!(rep.events[1].step, 41);
        assert_eq!(rep.dropped, 6);
    }
}
