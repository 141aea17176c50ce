//! JSON round-trip property tests: any `ObsReport` (and each record kind)
//! survives `to_json_string` → `from_json_str` unchanged.

use aji_obs::{
    CounterRecord, GaugeRecord, HistogramRecord, ObsReport, SpanRecord, TraceEvent, TraceKind,
    TraceReport,
};
use aji_support::check::{property, TestCase};
use aji_support::{prop_assert, prop_assert_eq, FromJson, Json, ToJson};

/// `aji-support` JSON carries numbers as `f64`, so integers round-trip
/// exactly only up to 2^53 — plenty for event counts and span
/// nanoseconds (2^53 ns ≈ 104 days), and the bound the generators below
/// stay under.
const MAX_EXACT: u64 = 1 << 53;

/// Name pool exercising separators and characters JSON must escape.
const NAMES: &[&str] = &[
    "parse",
    "approx-interp",
    "pta.propagations",
    "solve",
    "a b",
    "q\"uote",
    "back\\slash",
    "",
];

fn name(tc: &mut TestCase) -> String {
    NAMES[tc.int_in(0usize..NAMES.len())].to_string()
}

fn span(tc: &mut TestCase) -> SpanRecord {
    let depth = tc.int_in(1usize..4);
    let path = (0..depth).map(|_| name(tc)).collect::<Vec<_>>().join("/");
    SpanRecord {
        path,
        count: tc.int_in(0u64..1_000_000),
        total_ns: tc.int_in(0u64..MAX_EXACT),
    }
}

fn histogram(tc: &mut TestCase) -> HistogramRecord {
    let buckets = (0..tc.int_in(0usize..5))
        .map(|_| (tc.int_in(0u32..65), tc.int_in(1u64..1_000)))
        .collect();
    HistogramRecord {
        name: name(tc),
        count: tc.int_in(0u64..1_000_000),
        sum: tc.int_in(0u64..MAX_EXACT),
        buckets,
    }
}

fn trace_event(tc: &mut TestCase) -> TraceEvent {
    TraceEvent {
        step: tc.int_in(0u64..MAX_EXACT),
        wall_ns: tc.int_in(0u64..MAX_EXACT),
        kind: *tc.pick(TraceKind::all()),
        name: name(tc),
        detail: name(tc),
    }
}

fn report(tc: &mut TestCase) -> ObsReport {
    ObsReport {
        spans: (0..tc.int_in(0usize..6)).map(|_| span(tc)).collect(),
        counters: (0..tc.int_in(0usize..6))
            .map(|_| CounterRecord {
                name: name(tc),
                value: tc.int_in(0u64..MAX_EXACT),
            })
            .collect(),
        histograms: (0..tc.int_in(0usize..4)).map(|_| histogram(tc)).collect(),
        gauges: (0..tc.int_in(0usize..4))
            .map(|_| GaugeRecord {
                name: name(tc),
                value: tc.int_in(0u64..MAX_EXACT),
            })
            .collect(),
        trace: tc.bool().then(|| TraceReport {
            events: (0..tc.int_in(0usize..5)).map(|_| trace_event(tc)).collect(),
            dropped: tc.int_in(0u64..1_000),
        }),
    }
}

#[test]
fn obs_report_roundtrips() {
    property("obs_report_roundtrips").cases(200).run(|tc| {
        let r = report(tc);
        let text = r.to_json_string();
        let back = ObsReport::from_json_str(&text).expect("report JSON reparses");
        prop_assert_eq!(back, r);
        Ok(())
    });
}

#[test]
fn span_records_roundtrip() {
    property("span_records_roundtrip").cases(200).run(|tc| {
        let s = span(tc);
        let back = SpanRecord::from_json(&Json::parse(&s.to_json().to_string()).unwrap()).unwrap();
        prop_assert_eq!(back, s);
        Ok(())
    });
}

#[test]
fn histogram_records_roundtrip() {
    property("histogram_records_roundtrip")
        .cases(200)
        .run(|tc| {
            let h = histogram(tc);
            let back = HistogramRecord::from_json(&Json::parse(&h.to_json().to_string()).unwrap())
                .unwrap();
            prop_assert_eq!(back, h);
            Ok(())
        });
}

#[test]
fn rendering_never_panics_and_mentions_every_top_counter() {
    property("rendering_total").cases(100).run(|tc| {
        let r = report(tc);
        let text = aji_obs::render_text(&r, &aji_obs::RenderOptions::default());
        for c in &r.counters {
            if !c.name.is_empty() {
                prop_assert!(text.contains(c.name.as_str()), "missing {}", c.name);
            }
        }
        Ok(())
    });
}
