//! Perf-regression gate: structural comparison of two benchmark / metrics
//! JSON documents (`aji-report --diff old.json new.json`).
//!
//! The gate's contract follows the repo's determinism split:
//!
//! * **Deterministic counters** (steps, calls, edges, hint counts, …)
//!   must match **exactly** — they are thread-count and rerun invariant
//!   by construction, so any drift is a real behavior change.
//! * **Wall-clock quantities** (span `total_ns`, `*_secs`, `*_per_sec`
//!   throughputs, speedups, RSS peaks) get a **relative tolerance band**
//!   (default ±25%), because a shared CI box cannot promise more.
//!
//! Keys present on only one side are reported as warnings, not failures,
//! so adding a metric does not break the gate against older history —
//! with one exception: if an entire **guarded counter family**
//! (`interp.*`, `oracle.*`, `quant.*`) present in the old document has no members at
//! all in the new one, that is a fatal finding. A single renamed counter
//! is a rename; a whole family of core-interpreter or oracle counters
//! going dark means the instrumentation itself was lost (a stripped
//! feature, a disabled registry), which is exactly the regression the
//! gate exists to catch. The
//! [`TraceReport`](aji_obs::TraceReport) events list is skipped entirely:
//! event streams are compared byte-for-byte by the determinism tests, and
//! their length is environment-dependent in non-deterministic runs.

use aji_support::Json;

/// Classification of one leaf value, deciding how it is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeafClass {
    /// Must match exactly (deterministic counter, string, bool).
    Exact,
    /// Compared within the relative tolerance band.
    WallClock,
}

/// One comparison violation or warning.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffFinding {
    /// `/`-joined path of the leaf (e.g. `obs/counters/interp.steps`).
    pub path: String,
    /// Human-readable description of the mismatch.
    pub message: String,
    /// `true` for gate failures, `false` for one-side-only warnings.
    pub fatal: bool,
}

/// The outcome of a diff: all findings, fatal and not.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Everything worth telling the user, in path order.
    pub findings: Vec<DiffFinding>,
    /// Number of leaves compared (for the summary line).
    pub compared: usize,
}

impl DiffReport {
    /// True when no fatal finding was recorded — the gate passes.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.findings.iter().all(|f| !f.fatal)
    }

    /// Renders the report as text, one finding per line, plus a summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = if f.fatal { "FAIL" } else { "warn" };
            out.push_str(&format!("{tag} {}: {}\n", f.path, f.message));
        }
        let fails = self.findings.iter().filter(|f| f.fatal).count();
        out.push_str(&format!(
            "{} leaves compared, {} failures, {} warnings\n",
            self.compared,
            fails,
            self.findings.len() - fails
        ));
        out
    }
}

/// Substrings that mark a key as wall-clock-derived. Matched against the
/// lower-cased final path segment.
const WALL_MARKERS: &[&str] = &[
    "_ns", "_ms", "_secs", "_s", "secs", "seconds", "elapsed", "wall", "per_sec", "speedup",
    "rss", "_ts", "duration", "overhead",
];

/// Counter families whose *total* disappearance from the new document is
/// a gate failure, not a warning (see module docs). Matched as a prefix
/// of any `/`-separated path segment, so `obs/counters/interp.steps/value`
/// and a name-keyed `counters/interp.calls` both count.
const GUARDED_FAMILIES: &[&str] = &["interp.", "oracle.", "quant."];

fn in_family(path: &str, family: &str) -> bool {
    path.split('/').any(|seg| seg.starts_with(family))
}

fn classify(path: &str) -> LeafClass {
    let leaf = path.rsplit('/').next().unwrap_or(path).to_ascii_lowercase();
    for m in WALL_MARKERS {
        if m.starts_with('_') {
            // Suffix markers: `total_ns` yes, `warnings` no.
            if leaf.ends_with(m) {
                return LeafClass::WallClock;
            }
        } else if leaf.contains(m) {
            return LeafClass::WallClock;
        }
    }
    LeafClass::Exact
}

/// Flattens a JSON document to `(path, leaf)` pairs.
///
/// Two canonicalizations make `ObsReport`-shaped data diffable by *name*
/// instead of by array position:
///
/// * an array of objects that all carry a string `"name"` (counters,
///   gauges, histograms) or `"path"` (spans) field is keyed by that field
///   rather than by index, so inserting a counter does not shift every
///   later one onto the wrong comparison partner;
/// * a `"trace"` object's `"events"` array is dropped (see module docs) —
///   its `"dropped"` count still participates.
fn flatten(doc: &Json, path: &str, out: &mut Vec<(String, Json)>) {
    match doc {
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                if k == "events" && path.ends_with("/trace") {
                    continue;
                }
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}/{k}")
                };
                flatten(v, &sub, out);
            }
        }
        Json::Arr(items) => {
            let key_of = |item: &Json| -> Option<String> {
                let name = item.get("name").or_else(|| item.get("path"))?;
                name.as_str().map(str::to_string)
            };
            if !items.is_empty() && items.iter().all(|i| key_of(i).is_some()) {
                for item in items {
                    let key = key_of(item).expect("checked above");
                    let mut stripped: Vec<(String, Json)> = Vec::new();
                    if let Json::Obj(pairs) = item {
                        for (k, v) in pairs {
                            if k != "name" && k != "path" {
                                stripped.push((k.clone(), v.clone()));
                            }
                        }
                    }
                    flatten(&Json::Obj(stripped), &format!("{path}/{key}"), out);
                }
            } else {
                for (i, item) in items.iter().enumerate() {
                    flatten(item, &format!("{path}/{i}"), out);
                }
            }
        }
        leaf => out.push((path.to_string(), leaf.clone())),
    }
}

fn leaf_repr(v: &Json) -> String {
    v.to_string()
}

/// Compares two parsed JSON documents, returning every finding.
///
/// `tolerance` is the allowed relative drift for wall-clock leaves, as a
/// fraction (0.25 = ±25%). Deterministic leaves must match exactly.
#[must_use]
pub fn diff_reports(old: &Json, new: &Json, tolerance: f64) -> DiffReport {
    let mut old_leaves = Vec::new();
    let mut new_leaves = Vec::new();
    flatten(old, "", &mut old_leaves);
    flatten(new, "", &mut new_leaves);
    let old_map: std::collections::BTreeMap<_, _> = old_leaves.into_iter().collect();
    let new_map: std::collections::BTreeMap<_, _> = new_leaves.into_iter().collect();

    let mut report = DiffReport::default();
    for (path, old_v) in &old_map {
        let Some(new_v) = new_map.get(path) else {
            report.findings.push(DiffFinding {
                path: path.clone(),
                message: "present in old, missing in new".to_string(),
                fatal: false,
            });
            continue;
        };
        report.compared += 1;
        match (old_v.as_f64(), new_v.as_f64()) {
            (Some(a), Some(b)) => match classify(path) {
                LeafClass::Exact =>
                {
                    #[allow(clippy::float_cmp)] // exact-match contract
                    if a != b {
                        report.findings.push(DiffFinding {
                            path: path.clone(),
                            message: format!("deterministic value changed: {a} -> {b}"),
                            fatal: true,
                        });
                    }
                }
                LeafClass::WallClock => {
                    let denom = a.abs().max(f64::EPSILON);
                    let drift = (b - a).abs() / denom;
                    if drift > tolerance {
                        report.findings.push(DiffFinding {
                            path: path.clone(),
                            message: format!(
                                "wall-clock drift {:.1}% exceeds ±{:.0}%: {a} -> {b}",
                                drift * 100.0,
                                tolerance * 100.0
                            ),
                            fatal: true,
                        });
                    }
                }
            },
            _ => {
                if old_v != new_v {
                    report.findings.push(DiffFinding {
                        path: path.clone(),
                        message: format!(
                            "value changed: {} -> {}",
                            leaf_repr(old_v),
                            leaf_repr(new_v)
                        ),
                        fatal: true,
                    });
                }
            }
        }
    }
    for path in new_map.keys() {
        if !old_map.contains_key(path) {
            report.findings.push(DiffFinding {
                path: path.clone(),
                message: "new metric (missing in old)".to_string(),
                fatal: false,
            });
        }
    }
    // Missing keys warn individually, but a guarded family going dark
    // entirely is instrumentation loss and fails the gate (module docs).
    for family in GUARDED_FAMILIES {
        let old_n = old_map.keys().filter(|p| in_family(p, family)).count();
        if old_n > 0 && !new_map.keys().any(|p| in_family(p, family)) {
            report.findings.push(DiffFinding {
                path: format!("{family}*"),
                message: format!(
                    "counter family vanished: {old_n} {family}* metrics in old, none in new \
                     (instrumentation lost, not a rename)"
                ),
                fatal: true,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let doc = parse(r#"{"steps": 100, "elapsed_secs": 1.5}"#);
        let r = diff_reports(&doc, &doc, 0.25);
        assert!(r.passed());
        assert_eq!(r.compared, 2);
        assert!(r.findings.is_empty());
    }

    #[test]
    fn deterministic_drift_is_fatal() {
        let old = parse(r#"{"interp": {"steps": 100}}"#);
        let new = parse(r#"{"interp": {"steps": 101}}"#);
        let r = diff_reports(&old, &new, 0.25);
        assert!(!r.passed());
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].fatal);
        assert_eq!(r.findings[0].path, "interp/steps");
    }

    #[test]
    fn wall_clock_within_band_passes_and_outside_fails() {
        let old = parse(r#"{"total_ns": 1000, "steps_per_sec": 50.0}"#);
        let within = parse(r#"{"total_ns": 1200, "steps_per_sec": 55.0}"#);
        assert!(diff_reports(&old, &within, 0.25).passed());
        let outside = parse(r#"{"total_ns": 2000, "steps_per_sec": 55.0}"#);
        let r = diff_reports(&old, &outside, 0.25);
        assert!(!r.passed());
        assert_eq!(r.findings[0].path, "total_ns");
    }

    #[test]
    fn named_arrays_are_keyed_by_name_not_position() {
        let old = parse(r#"{"counters": [{"name": "a", "value": 1}, {"name": "b", "value": 2}]}"#);
        // Same counters, different order, plus a new one: must pass with a
        // single non-fatal warning for the addition.
        let new = parse(
            r#"{"counters": [{"name": "b", "value": 2}, {"name": "c", "value": 9}, {"name": "a", "value": 1}]}"#,
        );
        let r = diff_reports(&old, &new, 0.25);
        assert!(r.passed());
        assert_eq!(r.findings.len(), 1);
        assert!(!r.findings[0].fatal);
        assert_eq!(r.findings[0].path, "counters/c/value");
    }

    #[test]
    fn span_records_are_keyed_by_path_and_total_ns_is_tolerant() {
        let old = parse(
            r#"{"spans": [{"path": "pipeline/solve", "count": 2, "total_ns": 1000000}]}"#,
        );
        let new = parse(
            r#"{"spans": [{"path": "pipeline/solve", "count": 2, "total_ns": 1100000}]}"#,
        );
        assert!(diff_reports(&old, &new, 0.25).passed());
        let changed = parse(
            r#"{"spans": [{"path": "pipeline/solve", "count": 3, "total_ns": 1000000}]}"#,
        );
        assert!(!diff_reports(&old, &changed, 0.25).passed());
    }

    #[test]
    fn trace_events_are_skipped_but_dropped_count_is_not() {
        let old = parse(r#"{"obs": {"trace": {"events": [{"step": 1}], "dropped": 0}}}"#);
        let new = parse(r#"{"obs": {"trace": {"events": [], "dropped": 0}}}"#);
        assert!(diff_reports(&old, &new, 0.25).passed());
        let dropped = parse(r#"{"obs": {"trace": {"events": [], "dropped": 5}}}"#);
        assert!(!diff_reports(&old, &dropped, 0.25).passed());
    }

    #[test]
    fn missing_and_extra_keys_warn_without_failing() {
        let old = parse(r#"{"a": 1, "gone": 2}"#);
        let new = parse(r#"{"a": 1, "fresh": 3}"#);
        let r = diff_reports(&old, &new, 0.25);
        assert!(r.passed());
        assert_eq!(r.findings.len(), 2);
        assert!(r.findings.iter().all(|f| !f.fatal));
    }

    #[test]
    fn string_and_bool_leaves_compare_exactly() {
        let old = parse(r#"{"result": "86475", "ok": true}"#);
        let new = parse(r#"{"result": "86476", "ok": true}"#);
        let r = diff_reports(&old, &new, 0.25);
        assert!(!r.passed());
        assert_eq!(r.findings[0].path, "result");
    }

    #[test]
    fn vanished_interp_family_is_fatal() {
        let old = parse(
            r#"{"counters": [{"name": "interp.steps", "value": 100}, {"name": "interp.ic.hits", "value": 7}, {"name": "pta.edges", "value": 3}]}"#,
        );
        let new = parse(r#"{"counters": [{"name": "pta.edges", "value": 3}]}"#);
        let r = diff_reports(&old, &new, 0.25);
        assert!(!r.passed());
        let fatal: Vec<_> = r.findings.iter().filter(|f| f.fatal).collect();
        assert_eq!(fatal.len(), 1);
        assert_eq!(fatal[0].path, "interp.*");
        assert!(fatal[0].message.contains("2 interp.* metrics"), "{}", fatal[0].message);
    }

    #[test]
    fn vanished_oracle_family_is_fatal() {
        let old = parse(r#"{"counters": [{"name": "oracle.mismatches", "value": 4}]}"#);
        let new = parse(r#"{"counters": [{"name": "fresh.metric", "value": 1}]}"#);
        let r = diff_reports(&old, &new, 0.25);
        assert!(!r.passed());
        assert!(r.findings.iter().any(|f| f.fatal && f.path == "oracle.*"));
    }

    #[test]
    fn vanished_quant_family_is_fatal() {
        // Object keys participate like counter names: the `quant.`-prefixed
        // top-level keys of the aji-quant report form the guarded family.
        let old = parse(r#"{"quant.ranking": {"missed": 10}, "quant.eval": {"recovered": 9}}"#);
        let new = parse(r#"{"other": 1}"#);
        let r = diff_reports(&old, &new, 0.25);
        assert!(!r.passed());
        assert!(r.findings.iter().any(|f| f.fatal && f.path == "quant.*"));
    }

    #[test]
    fn partially_vanished_family_still_only_warns() {
        // One interp counter renamed away but the family survives: the
        // usual non-fatal missing-key warning, no family failure.
        let old = parse(
            r#"{"counters": [{"name": "interp.steps", "value": 100}, {"name": "interp.ic.hits", "value": 7}]}"#,
        );
        let new = parse(r#"{"counters": [{"name": "interp.steps", "value": 100}]}"#);
        let r = diff_reports(&old, &new, 0.25);
        assert!(r.passed());
        assert!(r.findings.iter().all(|f| !f.fatal));
    }

    #[test]
    fn family_absent_from_both_sides_is_no_finding() {
        let old = parse(r#"{"pta": {"edges": 3}}"#);
        let new = parse(r#"{"pta": {"edges": 3}}"#);
        let r = diff_reports(&old, &new, 0.25);
        assert!(r.passed());
        assert!(r.findings.is_empty());
    }

    #[test]
    fn render_summarizes() {
        let old = parse(r#"{"steps": 1}"#);
        let new = parse(r#"{"steps": 2}"#);
        let text = diff_reports(&old, &new, 0.25).render();
        assert!(text.contains("FAIL steps"));
        assert!(text.contains("1 failures"));
    }
}
