//! The serializable snapshot: [`ObsReport`] and its records, with full
//! JSON round-trip support via `aji-support`.

use crate::trace::TraceReport;
use aji_support::{FromJson, Json, JsonError, ToJson};

/// Aggregated timing of one span path (e.g. `"pipeline/baseline-pta/solve"`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanRecord {
    /// `/`-joined path from the outermost span to this one.
    pub path: String,
    /// Number of times the span closed.
    pub count: u64,
    /// Total wall-clock nanoseconds across all closures.
    pub total_ns: u64,
}

impl SpanRecord {
    /// The span's own name (last path segment).
    #[must_use]
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// Nesting depth (0 for a root span).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }

    /// Total time in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Final value of one named counter.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CounterRecord {
    /// Counter name (e.g. `"interp.steps"`).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Final value of one named gauge (peak semantics: the registry keeps the
/// maximum value recorded, and [`Registry::absorb`](crate::Registry::absorb)
/// merges by maximum).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GaugeRecord {
    /// Gauge name (e.g. `"process.peak_rss_kb"`).
    pub name: String,
    /// Peak value recorded.
    pub value: u64,
}

/// Snapshot of one bucketed histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramRecord {
    /// Histogram name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Sparse power-of-two buckets: `(index, count)` where index `i > 0`
    /// covers values in `[2^(i-1), 2^i)` and index 0 is the value 0.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramRecord {
    /// Mean of the recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound (exclusive) of the bucket containing the p-th
    /// percentile value, `p` in `[0, 100]` — a coarse quantile good enough
    /// for profiles.
    #[must_use]
    pub fn percentile_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p / 100.0 * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return if *idx == 0 { 0 } else { 1u64 << idx };
            }
        }
        u64::MAX
    }
}

/// A full observability snapshot: every span path, counter and histogram a
/// [`Registry`](crate::Registry) collected, in deterministic sorted order.
///
/// This is the schema persisted by `aji-report --json` (and embedded in
/// `BenchmarkReport` JSON under the `"obs"` key).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsReport {
    /// Span timings, sorted by path.
    pub spans: Vec<SpanRecord>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterRecord>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramRecord>,
    /// Gauges (peak values), sorted by name. Serialized only when
    /// non-empty, so reports without gauges keep their PR 3 byte layout.
    pub gauges: Vec<GaugeRecord>,
    /// Flight-recorder snapshot, present when the registry had a recorder
    /// installed. Serialized only when present.
    pub trace: Option<TraceReport>,
}

impl ObsReport {
    /// Value of the named counter, if recorded.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Value of the named gauge, if recorded.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The span record whose path ends with `name` (matching a whole
    /// segment), if any — convenient when the enclosing path is not known.
    #[must_use]
    pub fn span_named(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name() == name)
    }

    /// Total time of the root spans (depth 0) in seconds.
    #[must_use]
    pub fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.depth() == 0)
            .map(SpanRecord::seconds)
            .sum()
    }

    /// Serializes to a compact JSON string.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses a report from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the text is not valid JSON or does not
    /// have the report shape.
    pub fn from_json_str(s: &str) -> Result<ObsReport, JsonError> {
        ObsReport::from_json(&Json::parse(s)?)
    }
}

impl ToJson for SpanRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("path", self.path.to_json()),
            ("count", self.count.to_json()),
            ("total_ns", self.total_ns.to_json()),
        ])
    }
}

impl FromJson for SpanRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(SpanRecord {
            path: String::from_json(v.field("path")?)?,
            count: u64::from_json(v.field("count")?)?,
            total_ns: u64::from_json(v.field("total_ns")?)?,
        })
    }
}

impl ToJson for CounterRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("value", self.value.to_json()),
        ])
    }
}

impl FromJson for CounterRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(CounterRecord {
            name: String::from_json(v.field("name")?)?,
            value: u64::from_json(v.field("value")?)?,
        })
    }
}

impl ToJson for HistogramRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("count", self.count.to_json()),
            ("sum", self.sum.to_json()),
            ("buckets", self.buckets.to_json()),
        ])
    }
}

impl FromJson for HistogramRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(HistogramRecord {
            name: String::from_json(v.field("name")?)?,
            count: u64::from_json(v.field("count")?)?,
            sum: u64::from_json(v.field("sum")?)?,
            buckets: Vec::from_json(v.field("buckets")?)?,
        })
    }
}

impl ToJson for GaugeRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("value", self.value.to_json()),
        ])
    }
}

impl FromJson for GaugeRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(GaugeRecord {
            name: String::from_json(v.field("name")?)?,
            value: u64::from_json(v.field("value")?)?,
        })
    }
}

impl ToJson for ObsReport {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("spans", self.spans.to_json()),
            ("counters", self.counters.to_json()),
            ("histograms", self.histograms.to_json()),
        ];
        // Both additions are omitted when absent so pre-flight-recorder
        // reports (and registries without gauges or a recorder) keep the
        // exact JSON bytes older tooling pins.
        if !self.gauges.is_empty() {
            fields.push(("gauges", self.gauges.to_json()));
        }
        if let Some(trace) = &self.trace {
            fields.push(("trace", trace.to_json()));
        }
        Json::obj(fields)
    }
}

impl FromJson for ObsReport {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(ObsReport {
            spans: Vec::from_json(v.field("spans")?)?,
            counters: Vec::from_json(v.field("counters")?)?,
            histograms: Vec::from_json(v.field("histograms")?)?,
            gauges: match v.get("gauges") {
                Some(g) => Vec::from_json(g)?,
                None => Vec::new(),
            },
            trace: match v.get("trace") {
                Some(t) => Some(TraceReport::from_json(t)?),
                None => None,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObsReport {
        ObsReport {
            spans: vec![
                SpanRecord {
                    path: "pipeline".into(),
                    count: 1,
                    total_ns: 5_000_000,
                },
                SpanRecord {
                    path: "pipeline/solve".into(),
                    count: 2,
                    total_ns: 3_000_000,
                },
            ],
            counters: vec![CounterRecord {
                name: "interp.steps".into(),
                value: 1234,
            }],
            histograms: vec![HistogramRecord {
                name: "approx.hints_per_item".into(),
                count: 3,
                sum: 10,
                buckets: vec![(0, 1), (3, 2)],
            }],
            gauges: Vec::new(),
            trace: None,
        }
    }

    #[test]
    fn json_roundtrip() {
        let r = sample();
        let back = ObsReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn empty_gauges_and_trace_are_omitted_from_json() {
        let text = sample().to_json_string();
        assert!(!text.contains("\"gauges\""));
        assert!(!text.contains("\"trace\""));
    }

    #[test]
    fn gauges_and_trace_roundtrip_when_present() {
        use crate::trace::{TraceEvent, TraceKind, TraceReport};
        let mut r = sample();
        r.gauges = vec![GaugeRecord {
            name: "process.peak_rss_kb".into(),
            value: 4096,
        }];
        r.trace = Some(TraceReport {
            events: vec![TraceEvent {
                step: 3,
                wall_ns: 0,
                kind: TraceKind::HintApply,
                name: "dpw".into(),
                detail: "prop".into(),
            }],
            dropped: 0,
        });
        let back = ObsReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.gauge("process.peak_rss_kb"), Some(4096));
        assert_eq!(back.gauge("missing"), None);
    }

    #[test]
    fn accessors() {
        let r = sample();
        assert_eq!(r.counter("interp.steps"), Some(1234));
        assert_eq!(r.counter("missing"), None);
        let s = r.span_named("solve").unwrap();
        assert_eq!(s.depth(), 1);
        assert_eq!(s.name(), "solve");
        assert!((r.root_seconds() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn histogram_stats() {
        let h = HistogramRecord {
            name: "h".into(),
            count: 4,
            sum: 20,
            buckets: vec![(0, 1), (1, 1), (4, 2)],
        };
        assert!((h.mean() - 5.0).abs() < 1e-12);
        assert_eq!(h.percentile_bound(25.0), 0);
        assert_eq!(h.percentile_bound(50.0), 2);
        assert_eq!(h.percentile_bound(100.0), 16);
        assert_eq!(HistogramRecord::default().percentile_bound(50.0), 0);
    }

    #[test]
    fn shape_errors_are_reported() {
        assert!(ObsReport::from_json_str("{}").is_err());
        assert!(ObsReport::from_json_str("[1]").is_err());
        assert!(ObsReport::from_json_str("not json").is_err());
    }
}
