//! Golden test pinning the exact `render_text` output for a fixed report,
//! so `aji-report`'s formatting cannot drift silently.

use aji_obs::{render_text, CounterRecord, HistogramRecord, ObsReport, RenderOptions, SpanRecord};

fn fixture() -> ObsReport {
    ObsReport {
        spans: vec![
            SpanRecord {
                path: "pipeline".into(),
                count: 1,
                total_ns: 2_000_000,
            },
            SpanRecord {
                path: "pipeline/approx-interp".into(),
                count: 1,
                total_ns: 1_000_000,
            },
            SpanRecord {
                path: "pipeline/baseline-pta".into(),
                count: 1,
                total_ns: 600_000,
            },
            SpanRecord {
                path: "pipeline/baseline-pta/solve".into(),
                count: 2,
                total_ns: 150_000,
            },
        ],
        counters: vec![
            CounterRecord {
                name: "approx.read_hints".into(),
                value: 3,
            },
            CounterRecord {
                name: "interp.steps".into(),
                value: 1_234_567,
            },
            CounterRecord {
                name: "pta.propagations".into(),
                value: 42,
            },
        ],
        histograms: vec![HistogramRecord {
            name: "approx.hints_per_item".into(),
            count: 3,
            sum: 9,
            buckets: vec![(0, 1), (3, 2)],
        }],
        ..ObsReport::default()
    }
}

const GOLDEN: &str = "\
spans (wall clock):
  pipeline                         2.00ms  100.0%  x1
    approx-interp                  1.00ms   50.0%  x1
    baseline-pta                 600.00us   30.0%  x1
      solve                      150.00us    7.5%  x2

top counters (2 of 3):
  interp.steps         1,234,567
  pta.propagations            42

histograms:
  approx.hints_per_item: n=3 mean=3.0 p50<8 p95<8
";

#[test]
fn rendering_matches_golden() {
    let text = render_text(
        &fixture(),
        &RenderOptions {
            top_counters: 2,
            ..RenderOptions::default()
        },
    );
    assert_eq!(text, GOLDEN, "rendered:\n{text}");
}

#[test]
fn golden_fixture_roundtrips_through_json() {
    let r = fixture();
    let back = ObsReport::from_json_str(&r.to_json_string()).unwrap();
    assert_eq!(back, r);
    assert_eq!(
        render_text(
            &back,
            &RenderOptions {
                top_counters: 2,
                ..RenderOptions::default()
            }
        ),
        GOLDEN
    );
}
