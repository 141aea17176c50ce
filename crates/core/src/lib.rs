//! End-to-end analysis pipeline for the *aji* reproduction of *Reducing
//! Static Analysis Unsoundness with Approximate Interpretation*
//! (PLDI 2024).
//!
//! This facade ties the substrates together the way the paper's
//! experiments do:
//!
//! 1. **approximate interpretation**
//!    ([`aji_approx::approximate_interpret_parsed`]) producing hints; it
//!    runs first, so its heap is gone before the solved graph exists;
//! 2. one [`ConstraintGraph`] built from the parse, then the
//!    **baseline** static analysis, its hint-free fixpoint;
//! 3. the **extended** static analysis, which extends that fixpoint with
//!    the hints (\[DPR\]/\[DPW\]) instead of solving from scratch;
//! 4. optionally, a **dynamic call graph** from concretely executing the
//!    project's test driver (the ground truth for recall/precision);
//! 5. optionally, the **vulnerability reachability** study over the
//!    project's annotations.
//!
//! # Example
//!
//! ```
//! use aji::{run_benchmark, PipelineOptions};
//! use aji_ast::Project;
//!
//! # fn main() -> Result<(), aji::PipelineError> {
//! let mut project = Project::new("demo");
//! project.add_file(
//!     "index.js",
//!     "var api = {};\n\
//!      ['go'].forEach(function(m) { api[m] = function() {}; });\n\
//!      api.go();",
//! );
//! let report = run_benchmark(&project, &PipelineOptions::default())?;
//! assert!(report.extended.call_edges > report.baseline.call_edges);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use aji_approx::{approximate_interpret_parsed, ApproxOptions, ApproxResult, Hints};
use aji_ast::{Loc, Project};
use aji_interp::{DynCallGraph, Interp, InterpOptions};
use aji_obs::ObsReport;
use aji_parser::ParsedProject;
use aji_pta::{Accuracy, Analysis, AnalysisOptions, CgMetrics, ConstraintGraph};
use aji_support::{Json, ToJson};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

pub use aji_approx::ApproxStats;
pub use aji_pta::CallGraph;

/// Errors from the pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// A project file failed to parse.
    Parse(aji_parser::ParseError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<aji_parser::ParseError> for PipelineError {
    fn from(e: aji_parser::ParseError) -> Self {
        PipelineError::Parse(e)
    }
}

/// Options for [`run_benchmark`].
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Pre-analysis options.
    pub approx: ApproxOptions,
    /// Hint rules applied in the extended analysis.
    pub analysis: AnalysisOptions,
    /// Produce a dynamic call graph by running the project's test driver
    /// (or main module) concretely, and compute recall/precision.
    pub dynamic_cg: bool,
    /// Interpreter options for the dynamic-call-graph run.
    pub dynamic_interp: InterpOptions,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            approx: ApproxOptions::default(),
            analysis: AnalysisOptions::extended(),
            dynamic_cg: false,
            dynamic_interp: InterpOptions::default(),
        }
    }
}

impl PipelineOptions {
    /// Options that also produce a dynamic call graph.
    pub fn with_dynamic_cg() -> Self {
        PipelineOptions {
            dynamic_cg: true,
            ..PipelineOptions::default()
        }
    }

    /// A stable digest of every result-affecting option, for cache keys.
    ///
    /// The `aji serve` hint store keys cached hint sets and analysis
    /// responses by `(source digest, options fingerprint)`; two
    /// [`PipelineOptions`] with the same fingerprint are guaranteed to
    /// produce byte-identical [`BenchmarkReport::metrics_json`] output on
    /// the same sources. Knobs that never change a result (property
    /// observation) do not participate — see
    /// [`aji_interp::InterpOptions::fingerprint_into`].
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        // Fixed domain-separation seed: pipeline fingerprints never
        // collide with source-content digests even for crafted sources.
        let mut h = aji_support::Fnv64::new(0xA110_917E_11FE);
        self.approx.fingerprint_into(&mut h);
        self.analysis.fingerprint_into(&mut h);
        h.write_u64(u64::from(self.dynamic_cg));
        self.dynamic_interp.fingerprint_into(&mut h);
        h.finish()
    }
}

/// Accuracy of one analysis against the dynamic call graph.
#[derive(Debug, Clone)]
pub struct AccuracyPair {
    /// Baseline recall/precision.
    pub baseline: Accuracy,
    /// Extended recall/precision.
    pub extended: Accuracy,
    /// Number of dynamic call edges.
    pub dynamic_edges: usize,
}

/// Result of the vulnerability reachability study (§5).
#[derive(Debug, Clone, Default)]
pub struct VulnReport {
    /// Total annotated vulnerabilities.
    pub total: usize,
    /// Vulnerable functions reachable in the baseline call graph.
    pub reachable_baseline: usize,
    /// Vulnerable functions reachable in the extended call graph.
    pub reachable_extended: usize,
}

/// Everything the experiments need about one benchmark run.
#[derive(Debug)]
pub struct BenchmarkReport {
    /// Project name.
    pub name: String,
    /// Baseline call-graph metrics.
    pub baseline: CgMetrics,
    /// Extended call-graph metrics.
    pub extended: CgMetrics,
    /// Time to parse the project (seconds). The parse happens **once** and
    /// is shared by every phase, so unlike the paper's per-tool timings the
    /// phase columns below are parse-free.
    pub parse_seconds: f64,
    /// Baseline static-analysis time (seconds) — Table 3 column 1. It
    /// includes building the constraint graph both analyses share.
    pub baseline_seconds: f64,
    /// Approximate-interpretation time (seconds) — Table 3 column 2.
    pub approx_seconds: f64,
    /// Extended static-analysis time (seconds) — Table 3 column 3: the
    /// hint delta solved on top of the baseline fixpoint, so a
    /// from-scratch extended analysis costs `baseline + extended`.
    pub extended_seconds: f64,
    /// Baseline solve and call-graph extraction alone (excludes parsing
    /// and graph construction), as measured by
    /// [`Analysis::analysis_seconds`].
    pub baseline_analysis_seconds: f64,
    /// Extended hint application, solve and extraction alone.
    pub extended_analysis_seconds: f64,
    /// Dynamic call-graph run time (seconds); zero when not requested.
    pub dynamic_seconds: f64,
    /// Whole-pipeline wall-clock time (seconds).
    pub total_seconds: f64,
    /// Number of hints produced.
    pub hint_count: usize,
    /// Pre-analysis statistics (function coverage etc.).
    pub approx_stats: ApproxStats,
    /// Recall/precision, when a dynamic call graph was produced.
    pub accuracy: Option<AccuracyPair>,
    /// Vulnerability reachability, when the project has annotations.
    pub vulns: Option<VulnReport>,
    /// The extended analysis' call graph (for further inspection).
    pub extended_call_graph: CallGraph,
    /// The baseline analysis' call graph.
    pub baseline_call_graph: CallGraph,
    /// The hints (for reuse across projects, §6).
    pub hints: Hints,
    /// Observability report for this run — span tree, counters and
    /// histograms — when collection was active (`AJI_OBS=1`, an enclosing
    /// [`aji_obs::scoped`] registry, or [`aji_obs::force_enable`]).
    pub obs: Option<ObsReport>,
}

impl BenchmarkReport {
    /// Serializes the report — metrics, timings, accuracy, vulnerability
    /// counts and the full hint set — as a JSON value, so experiment runs
    /// can be persisted and re-read (`Hints::from_json_str` reloads the
    /// `"hints"` field).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::Str(self.name.clone())),
            ("baseline", self.baseline.to_json()),
            ("extended", self.extended.to_json()),
            ("parse_seconds", Json::Num(self.parse_seconds)),
            ("baseline_seconds", Json::Num(self.baseline_seconds)),
            ("approx_seconds", Json::Num(self.approx_seconds)),
            ("extended_seconds", Json::Num(self.extended_seconds)),
            (
                "baseline_analysis_seconds",
                Json::Num(self.baseline_analysis_seconds),
            ),
            (
                "extended_analysis_seconds",
                Json::Num(self.extended_analysis_seconds),
            ),
            ("dynamic_seconds", Json::Num(self.dynamic_seconds)),
            ("total_seconds", Json::Num(self.total_seconds)),
            ("hint_count", self.hint_count.to_json()),
            ("approx_coverage", Json::Num(self.approx_stats.coverage())),
        ];
        if let Some(acc) = &self.accuracy {
            pairs.push((
                "accuracy",
                Json::obj(vec![
                    ("baseline", acc.baseline.to_json()),
                    ("extended", acc.extended.to_json()),
                    ("dynamic_edges", acc.dynamic_edges.to_json()),
                ]),
            ));
        }
        if let Some(v) = &self.vulns {
            pairs.push((
                "vulns",
                Json::obj(vec![
                    ("total", v.total.to_json()),
                    ("reachable_baseline", v.reachable_baseline.to_json()),
                    ("reachable_extended", v.reachable_extended.to_json()),
                ]),
            ));
        }
        pairs.push(("hints", self.hints.to_json()));
        if let Some(obs) = &self.obs {
            pairs.push(("obs", obs.to_json()));
        }
        Json::obj(pairs)
    }

    /// The *deterministic* subset of [`BenchmarkReport::to_json`]: every
    /// analysis result — call-graph metrics, hint counts and the full hint
    /// set, accuracy, vulnerability reachability — but **no wall-clock
    /// timings and no observability data**.
    ///
    /// Two runs of the same project produce byte-identical
    /// `metrics_json().to_string()` output regardless of machine load or
    /// thread count; this is the representation corpus drivers and the
    /// determinism tests compare. (The interpreter and solver are fully
    /// deterministic; only timings vary between runs.)
    pub fn metrics_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::Str(self.name.clone())),
            ("baseline", self.baseline.to_json()),
            ("extended", self.extended.to_json()),
            ("hint_count", self.hint_count.to_json()),
            ("approx_coverage", Json::Num(self.approx_stats.coverage())),
        ];
        if let Some(acc) = &self.accuracy {
            pairs.push((
                "accuracy",
                Json::obj(vec![
                    ("baseline", acc.baseline.to_json()),
                    ("extended", acc.extended.to_json()),
                    ("dynamic_edges", acc.dynamic_edges.to_json()),
                ]),
            ));
        }
        if let Some(v) = &self.vulns {
            pairs.push((
                "vulns",
                Json::obj(vec![
                    ("total", v.total.to_json()),
                    ("reachable_baseline", v.reachable_baseline.to_json()),
                    ("reachable_extended", v.reachable_extended.to_json()),
                ]),
            ));
        }
        pairs.push(("hints", self.hints.to_json()));
        Json::obj(pairs)
    }
}

/// Runs the full experiment pipeline on one project.
///
/// # Errors
///
/// Returns [`PipelineError::Parse`] if the project does not parse.
/// Runtime failures inside the dynamic runs degrade gracefully (partial
/// dynamic call graphs are still used, as the paper's test-suite-based
/// dynamic call graphs are also partial).
pub fn run_benchmark(
    project: &Project,
    opts: &PipelineOptions,
) -> Result<BenchmarkReport, PipelineError> {
    with_run_obs(|| {
        let total = aji_obs::span("pipeline");
        // Parse, once for every phase of the pipeline.
        let parse_start = std::time::Instant::now();
        let parsed = aji_parser::parse_project(project)?;
        let parse_seconds = parse_start.elapsed().as_secs_f64();
        run_pipeline(project, &parsed, None, parse_seconds, total, opts)
    })
}

/// [`run_benchmark`] over an already-parsed project — the cache-aware
/// entry point the `aji serve` daemon uses when its content-hash-keyed
/// parse cache already holds the project's modules.
///
/// `report.parse_seconds` is `0.0` (no parsing happened here);
/// [`BenchmarkReport::metrics_json`] — the deterministic payload caches
/// compare — is byte-identical to a [`run_benchmark`] of the same
/// sources.
///
/// # Errors
///
/// As [`run_benchmark`], minus the parse errors (the project already
/// parsed).
pub fn run_benchmark_parsed(
    project: &Project,
    parsed: &ParsedProject,
    opts: &PipelineOptions,
) -> Result<BenchmarkReport, PipelineError> {
    with_run_obs(|| {
        let total = aji_obs::span("pipeline");
        run_pipeline(project, parsed, None, 0.0, total, opts)
    })
}

/// [`run_benchmark_parsed`] with the approximate-interpretation phase
/// replaced by a previously computed hint set — the second cache-aware
/// entry point: when the `aji serve` hint store holds hints for this
/// exact `(source digest, approx-options fingerprint)` key, the most
/// expensive pipeline phase (§5 puts approximate interpretation at ~54%
/// of wall-clock) is skipped outright.
///
/// **Soundness contract:** `hints`/`approx_stats` must come from an
/// [`aji_approx::approximate_interpret`] run over byte-identical sources
/// under fingerprint-identical options — then the report (and its
/// [`BenchmarkReport::metrics_json`]) is byte-identical to the uncached
/// pipeline, which `tests/daemon_determinism.rs` pins. Callers enforce
/// that by keying on [`PipelineOptions::fingerprint`] and the content
/// digest; handing over stale hints produces exactly the stale-hint
/// unsoundness the store's invalidation exists to prevent.
///
/// # Errors
///
/// As [`run_benchmark_parsed`].
pub fn run_benchmark_with_hints(
    project: &Project,
    parsed: &ParsedProject,
    hints: Hints,
    approx_stats: ApproxStats,
    opts: &PipelineOptions,
) -> Result<BenchmarkReport, PipelineError> {
    with_run_obs(|| {
        let total = aji_obs::span("pipeline");
        run_pipeline(
            project,
            parsed,
            Some((hints, approx_stats)),
            0.0,
            total,
            opts,
        )
    })
}

/// When collection is active (AJI_OBS, an enclosing scope, or
/// force_enable), gives the run its own registry so `report.obs` covers
/// exactly this run, then folds it back into the enclosing registry.
fn with_run_obs<F>(f: F) -> Result<BenchmarkReport, PipelineError>
where
    F: FnOnce() -> Result<BenchmarkReport, PipelineError>,
{
    match aji_obs::current_registry() {
        Some(parent) => {
            let reg = Arc::new(aji_obs::Registry::new_like(&parent));
            let mut report = aji_obs::scoped(&reg, f)?;
            let obs = reg.report();
            parent.absorb(&obs);
            report.obs = Some(obs);
            Ok(report)
        }
        None => f(),
    }
}

/// The pipeline proper. Phase timings come from the same [`aji_obs::span`]
/// guards that feed the span tree — [`aji_obs::SpanGuard::finish`] returns
/// the elapsed time whether or not collection is active.
///
/// The project is parsed exactly **once** (by the caller); the
/// approximate interpretation, the baseline analysis, the extended
/// analysis, the dynamic run and the vulnerability study all share the
/// same [`ParsedProject`] (modules are reference-counted, see
/// [`aji_parser::ParsedProject`]). Likewise the constraint graph is
/// built once: the extended analysis extends the baseline fixpoint (see
/// [`ConstraintGraph`]). `cached_hints` short-circuits the
/// approximate-interpretation phase; see [`run_benchmark_with_hints`].
fn run_pipeline(
    project: &Project,
    parsed: &ParsedProject,
    cached_hints: Option<(Hints, ApproxStats)>,
    parse_seconds: f64,
    total: aji_obs::SpanGuard,
    opts: &PipelineOptions,
) -> Result<BenchmarkReport, PipelineError> {
    // 1. Approximate interpretation — skipped when the caller supplies a
    // content-hash-validated hint set (the `aji serve` warm path). It runs
    // before the constraint graph exists, so the solved graph is never
    // alive next to the interpreter's heap.
    let (hints, approx_stats, approx_seconds) = match cached_hints {
        Some((hints, stats)) => {
            aji_obs::counter_add("pipeline.hint_cache_uses", 1);
            (hints, stats, 0.0)
        }
        None => {
            let phase = aji_obs::span("approx-interp");
            let approx: ApproxResult =
                approximate_interpret_parsed(project, parsed, &opts.approx);
            let approx_seconds = phase.finish().as_secs_f64();
            (approx.hints, approx.stats, approx_seconds)
        }
    };

    // 2. Baseline: build the constraint graph once and solve it hint-free.
    let phase = aji_obs::span("baseline-pta");
    let mut graph = ConstraintGraph::build(project, parsed);
    let baseline_analysis = graph.extend(None, &AnalysisOptions::baseline());
    let baseline_seconds = phase.finish().as_secs_f64();

    // 3. Extended analysis: the hint delta on top of the baseline fixpoint.
    let phase = aji_obs::span("extended-pta");
    let extended_analysis = graph.extend(Some(&hints), &opts.analysis);
    // Freed before the dynamic run builds its interpreter.
    drop(graph);
    let extended_seconds = phase.finish().as_secs_f64();

    // 4. Dynamic call graph (optional).
    let mut dynamic_seconds = 0.0;
    let accuracy = if opts.dynamic_cg {
        let phase = aji_obs::span("dynamic-cg");
        let dyn_edges = dynamic_call_graph_parsed(project, parsed, &opts.dynamic_interp);
        let acc = AccuracyPair {
            baseline: Accuracy::compare(&baseline_analysis.call_graph, &dyn_edges),
            extended: Accuracy::compare(&extended_analysis.call_graph, &dyn_edges),
            dynamic_edges: dyn_edges.len(),
        };
        dynamic_seconds = phase.finish().as_secs_f64();
        Some(acc)
    } else {
        None
    };

    // 5. Vulnerability reachability (optional).
    let vulns = if project.vulns.is_empty() {
        None
    } else {
        let _s = aji_obs::span("vuln-study");
        Some(vuln_reachability(
            project,
            parsed,
            &baseline_analysis,
            &extended_analysis,
        ))
    };

    Ok(BenchmarkReport {
        name: project.name.clone(),
        baseline: CgMetrics::of(&baseline_analysis.call_graph),
        extended: CgMetrics::of(&extended_analysis.call_graph),
        parse_seconds,
        baseline_seconds,
        approx_seconds,
        extended_seconds,
        baseline_analysis_seconds: baseline_analysis.analysis_seconds,
        extended_analysis_seconds: extended_analysis.analysis_seconds,
        dynamic_seconds,
        total_seconds: total.finish().as_secs_f64(),
        hint_count: hints.len(),
        approx_stats,
        accuracy,
        vulns,
        extended_call_graph: extended_analysis.call_graph,
        baseline_call_graph: baseline_analysis.call_graph,
        hints,
        obs: None,
    })
}

/// Produces the dynamic call graph of a project by concretely executing
/// its test driver (or, failing that, its main module). Returns `None`
/// only when the project does not parse.
pub fn dynamic_call_graph(
    project: &Project,
    interp_opts: &InterpOptions,
) -> Option<BTreeSet<(Loc, Loc)>> {
    let parsed = aji_parser::parse_project(project).ok()?;
    Some(dynamic_call_graph_parsed(project, &parsed, interp_opts))
}

/// [`dynamic_call_graph`] over an already-parsed project.
pub fn dynamic_call_graph_parsed(
    project: &Project,
    parsed: &ParsedProject,
    interp_opts: &InterpOptions,
) -> BTreeSet<(Loc, Loc)> {
    let recorder = Rc::new(RefCell::new(DynCallGraph::new()));
    let mut interp =
        Interp::with_parsed(project, parsed, interp_opts.clone(), Box::new(recorder.clone()));
    let driver = project
        .test_driver
        .clone()
        .unwrap_or_else(|| project.main.clone());
    // A crashing driver still leaves a partial call graph — keep it, like
    // the paper keeps partially-covering test suites.
    let _ = interp.run_module(&driver);
    let edges = recorder
        .borrow()
        .edges
        .iter()
        .map(|e| (e.call_site, e.callee))
        .collect();
    edges
}

/// Computes §5's vulnerability reachability: how many annotated functions
/// are reachable in each call graph.
fn vuln_reachability(
    project: &Project,
    parsed: &ParsedProject,
    baseline: &Analysis,
    extended: &Analysis,
) -> VulnReport {
    let locs = vuln_function_locs_parsed(project, parsed);
    let mut report = VulnReport {
        total: project.vulns.len(),
        ..VulnReport::default()
    };
    for loc in locs.iter().flatten() {
        if baseline.call_graph.reachable_functions.contains(loc) {
            report.reachable_baseline += 1;
        }
        if extended.call_graph.reachable_functions.contains(loc) {
            report.reachable_extended += 1;
        }
    }
    report
}

/// Resolves each vulnerability annotation to the location of the named
/// function in the named file (`None` when not found).
///
/// # Errors
///
/// Returns [`PipelineError::Parse`] if the project does not parse; use
/// [`vuln_function_locs_parsed`] to reuse an existing parse.
pub fn vuln_function_locs(project: &Project) -> Result<Vec<Option<Loc>>, PipelineError> {
    let parsed = aji_parser::parse_project(project)?;
    Ok(vuln_function_locs_parsed(project, &parsed))
}

/// [`vuln_function_locs`] over an already-parsed project.
pub fn vuln_function_locs_parsed(project: &Project, parsed: &ParsedProject) -> Vec<Option<Loc>> {
    use aji_ast::visit::{FunctionCollector, Visit};
    let mut out = Vec::with_capacity(project.vulns.len());
    for v in &project.vulns {
        let Some(file_idx) = project.files.iter().position(|f| f.path == v.path) else {
            out.push(None);
            continue;
        };
        let mut c = FunctionCollector::default();
        c.visit_module(&parsed.modules[file_idx]);
        let loc = c
            .functions
            .iter()
            .find(|(_, _, name)| name.as_deref() == Some(v.function.as_str()))
            .map(|(_, span, _)| parsed.source_map.loc(*span));
        out.push(loc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_on_method_table() {
        let mut p = Project::new("demo");
        p.add_file(
            "index.js",
            "var api = {};\n\
             ['a', 'b'].forEach(function(m) { api[m] = function() {}; });\n\
             api.a();\n\
             api.b();",
        );
        let r = run_benchmark(&p, &PipelineOptions::default()).unwrap();
        assert!(r.extended.call_edges > r.baseline.call_edges);
        assert!(r.hint_count >= 2);
        assert!(r.approx_seconds >= 0.0);
    }

    #[test]
    fn pipeline_with_dynamic_cg() {
        let mut p = Project::new("demo");
        p.add_file(
            "index.js",
            "var t = { run: function() { helper(); } };\n\
             function helper() {}\n\
             var k = 'run';\n\
             t[k]();",
        );
        p.test_driver = Some("index.js".to_string());
        let r = run_benchmark(&p, &PipelineOptions::with_dynamic_cg()).unwrap();
        let acc = r.accuracy.expect("dynamic cg");
        assert!(acc.dynamic_edges >= 2);
        assert!(acc.extended.recall_pct() >= acc.baseline.recall_pct());
    }

    #[test]
    fn pipeline_with_vulns() {
        let mut p = Project::new("demo");
        p.add_file("index.js", "var d = require('dep');\nd.used();");
        p.add_file(
            "node_modules/dep/index.js",
            "exports.used = function used() {};\n\
             exports.unused = function unusedVuln() {};",
        );
        p.add_vuln("CVE-SYN-1", "node_modules/dep/index.js", "used");
        p.add_vuln("CVE-SYN-2", "node_modules/dep/index.js", "unusedVuln");
        let r = run_benchmark(&p, &PipelineOptions::default()).unwrap();
        let v = r.vulns.expect("vuln report");
        assert_eq!(v.total, 2);
        assert_eq!(v.reachable_baseline, 1);
        assert_eq!(v.reachable_extended, 1);
    }

    #[test]
    fn cached_entry_points_match_cold_run() {
        let mut p = Project::new("demo");
        p.add_file(
            "index.js",
            "var api = {};\n\
             ['a', 'b'].forEach(function(m) { api[m] = function() {}; });\n\
             api.a();\n\
             api.b();",
        );
        p.test_driver = Some("index.js".to_string());
        let opts = PipelineOptions::with_dynamic_cg();
        let cold = run_benchmark(&p, &opts).unwrap();
        let golden = cold.metrics_json().to_string();

        let parsed = aji_parser::parse_project(&p).unwrap();
        let warm = run_benchmark_parsed(&p, &parsed, &opts).unwrap();
        assert_eq!(warm.metrics_json().to_string(), golden);
        assert_eq!(warm.parse_seconds, 0.0);

        let hinted = run_benchmark_with_hints(
            &p,
            &parsed,
            cold.hints.clone(),
            cold.approx_stats.clone(),
            &opts,
        )
        .unwrap();
        assert_eq!(hinted.metrics_json().to_string(), golden);
        assert_eq!(hinted.approx_seconds, 0.0);
    }

    #[test]
    fn fingerprints_separate_option_sets() {
        let base = PipelineOptions::default().fingerprint();
        assert_eq!(base, PipelineOptions::default().fingerprint());
        assert_ne!(base, PipelineOptions::with_dynamic_cg().fingerprint());
        let mut tight = PipelineOptions::default();
        tight.approx.interp.max_steps = 1;
        assert_ne!(base, tight.fingerprint());
        // Property observation never changes a result and shares cache keys.
        let mut observing = PipelineOptions::default();
        observing.approx.interp.observe_props = true;
        assert_eq!(base, observing.fingerprint());
    }

    #[test]
    fn report_serializes_and_hints_reload() {
        let mut p = Project::new("demo");
        p.add_file(
            "index.js",
            "var api = {};\n\
             ['a', 'b'].forEach(function(m) { api[m] = function() {}; });\n\
             api.a();",
        );
        p.test_driver = Some("index.js".to_string());
        let r = run_benchmark(&p, &PipelineOptions::with_dynamic_cg()).unwrap();
        let text = r.to_json().to_string();
        let doc = Json::parse(&text).expect("report JSON parses");
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("demo"));
        assert!(doc.get("accuracy").is_some());
        // The persisted hints reload to an equal hint set.
        let hints_json = doc.get("hints").expect("hints field");
        let reloaded = Hints::from_json_str(&hints_json.to_string()).unwrap();
        assert_eq!(reloaded, r.hints);
        assert_eq!(reloaded.len(), r.hint_count);
    }
}
