//! Text rendering of an [`ObsReport`]: an indented span tree with
//! per-phase percentages, the top-N counters, the hot-function table,
//! gauges, and histogram summaries.

use crate::report::{ObsReport, SpanRecord};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Options for [`render_text`].
#[derive(Debug, Clone, Copy)]
pub struct RenderOptions {
    /// How many counters to print (largest first).
    pub top_counters: usize,
    /// How many rows of the hot-function table to print.
    pub top_functions: usize,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            top_counters: 20,
            top_functions: 10,
        }
    }
}

/// Per-function metrics flushed by the interpreter's profiler, keyed by
/// `profile.fn.<metric>.<function-key>` counters.
const FN_METRICS: [&str; 2] = ["steps", "calls"];

/// Counter-name prefix of the step-attributed hot-function profile.
const FN_PREFIX: &str = "profile.fn.";

/// Groups `profile.fn.<metric>.<key>` counters into per-function rows of
/// `[steps, calls]`.
fn hot_functions(report: &ObsReport) -> Vec<(String, [u64; 2])> {
    let mut rows: BTreeMap<String, [u64; 2]> = BTreeMap::new();
    for c in &report.counters {
        let Some(rest) = c.name.strip_prefix(FN_PREFIX) else {
            continue;
        };
        let Some((metric, key)) = rest.split_once('.') else {
            continue;
        };
        let Some(idx) = FN_METRICS.iter().position(|m| *m == metric) else {
            continue;
        };
        rows.entry(key.to_string()).or_default()[idx] += c.value;
    }
    let mut rows: Vec<_> = rows.into_iter().collect();
    rows.sort_by(|a, b| b.1[0].cmp(&a.1[0]).then_with(|| a.0.cmp(&b.0)));
    rows
}

/// Renders a report as human-readable text: the span tree (each node with
/// total time, percentage of its root, and close count), then the top-N
/// counters, then histogram summaries. Deterministic for a given report.
#[must_use]
pub fn render_text(report: &ObsReport, opts: &RenderOptions) -> String {
    let mut out = String::new();
    out.push_str("spans (wall clock):\n");
    if report.spans.is_empty() {
        out.push_str("  (none recorded)\n");
    } else {
        let roots = children_of(report, "");
        for root in &roots {
            render_span(&mut out, report, root, root.total_ns.max(1), 0);
        }
    }

    let hot = hot_functions(report);
    if !hot.is_empty() {
        out.push_str("\nhot functions (by interpreter steps):\n");
        let width = hot
            .iter()
            .take(opts.top_functions)
            .map(|(k, _)| k.len())
            .max()
            .unwrap_or(0)
            .max(8);
        let _ = writeln!(
            out,
            "  {:<width$}  {:>14} {:>10}",
            "function", "steps", "calls"
        );
        for (key, m) in hot.iter().take(opts.top_functions) {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>14} {:>10}",
                key,
                group_digits(m[0]),
                group_digits(m[1]),
            );
        }
    }

    // Generic counters, excluding the per-function family rendered as a
    // table above.
    let generic: Vec<_> = report
        .counters
        .iter()
        .filter(|c| !c.name.starts_with(FN_PREFIX))
        .collect();
    out.push_str(&format!(
        "\ntop counters ({} of {}):\n",
        opts.top_counters.min(generic.len()),
        generic.len()
    ));
    if generic.is_empty() {
        out.push_str("  (none recorded)\n");
    } else {
        let mut counters = generic;
        counters.sort_by(|a, b| b.value.cmp(&a.value).then_with(|| a.name.cmp(&b.name)));
        let width = counters
            .iter()
            .take(opts.top_counters)
            .map(|c| c.name.len())
            .max()
            .unwrap_or(0);
        for c in counters.iter().take(opts.top_counters) {
            let _ = writeln!(out, "  {:<width$}  {:>12}", c.name, group_digits(c.value));
        }
    }

    if !report.gauges.is_empty() {
        out.push_str("\ngauges (peaks):\n");
        let width = report
            .gauges
            .iter()
            .map(|g| g.name.len())
            .max()
            .unwrap_or(0);
        for g in &report.gauges {
            let _ = writeln!(out, "  {:<width$}  {:>12}", g.name, group_digits(g.value));
        }
    }

    if !report.histograms.is_empty() {
        out.push_str("\nhistograms:\n");
        for h in &report.histograms {
            let _ = writeln!(
                out,
                "  {}: n={} mean={:.1} p50<{} p95<{}",
                h.name,
                h.count,
                h.mean(),
                group_digits(h.percentile_bound(50.0)),
                group_digits(h.percentile_bound(95.0)),
            );
        }
    }

    if let Some(trace) = &report.trace {
        let _ = writeln!(
            out,
            "\ntrace: {} events recorded, {} dropped (export with --chrome-trace)",
            group_digits(trace.events.len() as u64),
            group_digits(trace.dropped),
        );
    }
    out
}

/// Direct children of the span at `path` (`""` for roots), largest total
/// time first (name as tie-break) so the hot phase reads first.
fn children_of<'r>(report: &'r ObsReport, path: &str) -> Vec<&'r SpanRecord> {
    let mut out: Vec<&SpanRecord> = report
        .spans
        .iter()
        .filter(|s| {
            if path.is_empty() {
                // An empty path (possible in hand-written JSON; the
                // registry never records one) must not be a root: its
                // child query would be the root query again, recursing
                // forever.
                s.depth() == 0 && !s.path.is_empty()
            } else {
                s.path.len() > path.len() + 1
                    && s.path.starts_with(path)
                    && s.path.as_bytes()[path.len()] == b'/'
                    && !s.path[path.len() + 1..].contains('/')
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.total_ns
            .cmp(&a.total_ns)
            .then_with(|| a.path.cmp(&b.path))
    });
    out
}

fn render_span(
    out: &mut String,
    report: &ObsReport,
    span: &SpanRecord,
    root_ns: u64,
    depth: usize,
) {
    let pct = 100.0 * span.total_ns as f64 / root_ns as f64;
    let _ = writeln!(
        out,
        "  {:indent$}{:<w$} {:>10}  {:>5.1}%  x{}",
        "",
        span.name(),
        fmt_ns(span.total_ns),
        pct,
        span.count,
        indent = depth * 2,
        w = 28usize.saturating_sub(depth * 2),
    );
    for child in children_of(report, &span.path) {
        render_span(out, report, child, root_ns, depth + 1);
    }
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// `1234567` → `"1,234,567"`.
fn group_digits(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CounterRecord;

    #[test]
    fn formats_units_and_digit_groups() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21s");
        assert_eq!(group_digits(0), "0");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1_000), "1,000");
        assert_eq!(group_digits(1_234_567), "1,234,567");
    }

    #[test]
    fn empty_report_renders() {
        let text = render_text(&ObsReport::default(), &RenderOptions::default());
        assert!(text.contains("(none recorded)"));
    }

    #[test]
    fn children_sorted_by_time() {
        let report = ObsReport {
            spans: vec![
                SpanRecord {
                    path: "root".into(),
                    count: 1,
                    total_ns: 100,
                },
                SpanRecord {
                    path: "root/fast".into(),
                    count: 1,
                    total_ns: 10,
                },
                SpanRecord {
                    path: "root/slow".into(),
                    count: 1,
                    total_ns: 80,
                },
            ],
            counters: vec![CounterRecord {
                name: "c".into(),
                value: 1,
            }],
            ..ObsReport::default()
        };
        let text = render_text(&report, &RenderOptions::default());
        let slow = text.find("slow").unwrap();
        let fast = text.find("fast").unwrap();
        assert!(slow < fast, "hot child first:\n{text}");
    }

    #[test]
    fn profile_counters_render_as_table_not_counters() {
        let mk = |name: &str, value: u64| CounterRecord {
            name: name.into(),
            value,
        };
        let report = ObsReport {
            counters: vec![
                mk("profile.fn.steps.hot@index.js:3", 900),
                mk("profile.fn.steps.cold@index.js:9", 10),
                mk("profile.fn.calls.hot@index.js:3", 25),
                mk("interp.steps", 910),
            ],
            ..ObsReport::default()
        };
        let text = render_text(&report, &RenderOptions::default());
        assert!(text.contains("hot functions"));
        // The table families are excluded from the generic counter list.
        assert!(text.contains("top counters (1 of 1)"), "{text}");
        // Hottest function first.
        let hot = text.find("hot@index.js:3").unwrap();
        let cold = text.find("cold@index.js:9").unwrap();
        assert!(hot < cold);
    }

    #[test]
    fn gauges_and_trace_sections_render() {
        use crate::report::GaugeRecord;
        use crate::trace::TraceReport;
        let report = ObsReport {
            gauges: vec![GaugeRecord {
                name: "process.peak_rss_kb".into(),
                value: 12_345,
            }],
            trace: Some(TraceReport::default()),
            ..ObsReport::default()
        };
        let text = render_text(&report, &RenderOptions::default());
        assert!(text.contains("gauges (peaks):"));
        assert!(text.contains("12,345"));
        assert!(text.contains("trace: 0 events recorded, 0 dropped"));
    }
}
