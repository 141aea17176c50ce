//! The differential harness: dynamic vs. static call graphs, edge by edge.
//!
//! [`run_oracle`] runs one project through the full pipeline — parse,
//! baseline analysis, approximate interpretation, hint-extended analysis,
//! and the concrete interpreter's call-graph tracer — and intersects the
//! three call graphs into an [`EdgeDiff`]:
//!
//! * **missed** — dynamic edges absent from the extended graph: the
//!   residual unsoundness the oracle exists to explain (they go to
//!   [`crate::triage()`]);
//! * **recovered** — dynamic edges the hints added over the baseline:
//!   the paper's headline recall improvement, per edge;
//! * **spurious** — extended edges *at dynamically exercised call sites*
//!   that the run never took: the precision cost, restricted to sites
//!   where the dynamic graph can actually contradict the static one.
//!
//! [`run_oracle_corpus`] fans the same computation over a corpus with
//! [`aji_bench::run_corpus_map`], so the aggregate report is byte-identical
//! whatever `--threads` says.

use crate::spurious::{triage_spurious, SpuriousCause, SpuriousEdge};
use crate::triage::{triage, Cause, MissedEdge};
use aji::{dynamic_call_graph_parsed, PipelineError};
use aji_approx::{approximate_interpret_parsed, ApproxOptions, ApproxStats};
use aji_ast::{Loc, Project};
use aji_bench::{run_corpus_map, ProjectResult};
use aji_interp::InterpOptions;
use aji_pta::{Accuracy, AnalysisOptions, ConstraintGraph};
use aji_support::{Json, ToJson};
use std::collections::BTreeSet;

/// Options for one oracle run. The defaults mirror the main pipeline:
/// default approximation budgets, the full `extended()` hint set, and
/// default concrete-interpreter budgets for the dynamic run.
#[derive(Debug, Clone, Default)]
pub struct OracleOptions {
    /// Pre-analysis (approximate interpretation) options.
    pub approx: ApproxOptions,
    /// Hint rules applied in the extended analysis. The baseline is always
    /// [`AnalysisOptions::baseline`]; this controls only the extended run.
    pub analysis: AnalysisOptions,
    /// Interpreter budgets for the dynamic call-graph run.
    pub dynamic_interp: InterpOptions,
}

impl OracleOptions {
    /// A stable digest of every result-affecting option, for cache keys —
    /// the oracle-side counterpart of `aji::PipelineOptions::fingerprint`
    /// (the `aji serve` store keys cached `oracle` responses on it).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        // Domain-separated from the pipeline fingerprint so an `analyze`
        // cache entry can never be mistaken for an `oracle` one.
        let mut h = aji_support::Fnv64::new(0x04AC_1E00);
        self.approx.fingerprint_into(&mut h);
        self.analysis.fingerprint_into(&mut h);
        self.dynamic_interp.fingerprint_into(&mut h);
        h.finish()
    }
}

/// Edge-level difference between the dynamic call graph and the two
/// static ones.
#[derive(Debug, Clone)]
pub struct EdgeDiff {
    /// Number of dynamically observed call edges.
    pub dynamic_edges: usize,
    /// Dynamic edges present in the extended graph.
    pub matched: BTreeSet<(Loc, Loc)>,
    /// Dynamic edges absent from the extended graph.
    pub missed: BTreeSet<(Loc, Loc)>,
    /// Dynamic edges in the extended graph but not the baseline —
    /// recall the hints bought.
    pub recovered: BTreeSet<(Loc, Loc)>,
    /// Extended edges at dynamically exercised call sites that the run
    /// never took.
    pub spurious: BTreeSet<(Loc, Loc)>,
    /// Baseline recall/precision against the dynamic graph.
    pub baseline: Accuracy,
    /// Extended recall/precision against the dynamic graph.
    pub extended: Accuracy,
}

impl EdgeDiff {
    /// Intersects the three call graphs.
    #[must_use]
    pub fn compute(
        baseline: &aji_pta::CallGraph,
        extended: &aji_pta::CallGraph,
        dynamic: &BTreeSet<(Loc, Loc)>,
    ) -> EdgeDiff {
        let matched: BTreeSet<_> = dynamic.intersection(&extended.edges).copied().collect();
        let missed: BTreeSet<_> = dynamic.difference(&extended.edges).copied().collect();
        let recovered: BTreeSet<_> = matched
            .iter()
            .filter(|e| !baseline.edges.contains(e))
            .copied()
            .collect();
        // Sites the dynamic run exercised: only there can an extended
        // edge be *contradicted* rather than merely unobserved.
        let covered_sites: BTreeSet<Loc> = dynamic.iter().map(|&(s, _)| s).collect();
        let spurious: BTreeSet<_> = extended
            .edges
            .iter()
            .filter(|&&(s, _)| covered_sites.contains(&s))
            .filter(|e| !dynamic.contains(e))
            .copied()
            .collect();
        EdgeDiff {
            dynamic_edges: dynamic.len(),
            matched,
            missed,
            recovered,
            spurious,
            baseline: Accuracy::compare(baseline, dynamic),
            extended: Accuracy::compare(extended, dynamic),
        }
    }

    /// Serializes the diff's counts and accuracy (not the raw edge sets)
    /// for the deterministic report.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("dynamic_edges", Json::Num(self.dynamic_edges as f64)),
            ("matched", Json::Num(self.matched.len() as f64)),
            ("missed", Json::Num(self.missed.len() as f64)),
            ("recovered", Json::Num(self.recovered.len() as f64)),
            ("spurious", Json::Num(self.spurious.len() as f64)),
            ("baseline", self.baseline.to_json()),
            ("extended", self.extended.to_json()),
        ])
    }
}

/// The oracle's verdict on one project.
#[derive(Debug)]
pub struct ProjectOracle {
    /// `Project::name`.
    pub name: String,
    /// Edge-level diff of the three call graphs.
    pub diff: EdgeDiff,
    /// Every missed edge, triaged (ordered by `(site, callee)`).
    pub missed: Vec<MissedEdge>,
    /// Every spurious edge, triaged (ordered by `(site, callee)`).
    pub spurious: Vec<SpuriousEdge>,
    /// Total hints the approximate interpretation produced
    /// (`|H_R| + |H_W| + |proxy reads|`).
    pub hint_count: usize,
    /// Approximate-interpretation run statistics.
    pub approx_stats: ApproxStats,
}

impl ProjectOracle {
    /// The cause histogram: every [`Cause`] (in fixed order) with the
    /// number of missed edges it explains, zeros included so reports from
    /// different projects align.
    #[must_use]
    pub fn histogram(&self) -> Vec<(&'static str, usize)> {
        Cause::all()
            .iter()
            .map(|c| {
                (
                    c.key(),
                    self.missed.iter().filter(|m| m.cause == *c).count(),
                )
            })
            .collect()
    }

    /// The spurious-cause histogram: every [`SpuriousCause`] (in fixed
    /// order) with the number of spurious edges it explains, zeros
    /// included so reports from different projects align.
    #[must_use]
    pub fn spurious_histogram(&self) -> Vec<(&'static str, usize)> {
        SpuriousCause::all()
            .iter()
            .map(|c| {
                (
                    c.key(),
                    self.spurious.iter().filter(|s| s.cause == *c).count(),
                )
            })
            .collect()
    }

    /// The missed edges that count as **findings**: a hint already names
    /// the callee ([`MissedEdge::hint_covered`]), so the extended analysis
    /// had the information and still missed — an unsoundness regression,
    /// not a documented limit of the approach.
    #[must_use]
    pub fn findings(&self) -> Vec<&MissedEdge> {
        self.missed.iter().filter(|m| m.hint_covered).collect()
    }

    /// Serializes the project verdict for the deterministic report.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("diff", self.diff.to_json()),
            (
                "causes",
                Json::Obj(
                    self.histogram()
                        .into_iter()
                        .map(|(k, n)| (k.to_string(), Json::Num(n as f64)))
                        .collect(),
                ),
            ),
            (
                "spurious_causes",
                Json::Obj(
                    self.spurious_histogram()
                        .into_iter()
                        .map(|(k, n)| (k.to_string(), Json::Num(n as f64)))
                        .collect(),
                ),
            ),
            (
                "missed",
                Json::Arr(self.missed.iter().map(MissedEdge::to_json).collect()),
            ),
            (
                "spurious_edges",
                Json::Arr(self.spurious.iter().map(SpuriousEdge::to_json).collect()),
            ),
            (
                "findings",
                Json::Num(self.missed.iter().filter(|m| m.hint_covered).count() as f64),
            ),
            ("hints", Json::Num(self.hint_count as f64)),
        ])
    }
}

/// Runs the differential oracle on one project.
///
/// # Errors
///
/// [`PipelineError::Parse`] if the project does not parse. A crashing
/// test driver is *not* an error: the partial dynamic graph is used, like
/// a partially covering test suite.
///
/// # Example
///
/// ```
/// use aji_oracle::{run_oracle, OracleOptions};
///
/// let project = aji_corpus::pattern_projects().remove(0);
/// let oracle = run_oracle(&project, &OracleOptions::default()).unwrap();
/// // Hints never hurt recall: everything the baseline had, extended keeps.
/// assert!(oracle.diff.extended.matched_edges >= oracle.diff.baseline.matched_edges);
/// ```
pub fn run_oracle(
    project: &Project,
    opts: &OracleOptions,
) -> Result<ProjectOracle, PipelineError> {
    let parsed = aji_parser::parse_project(project)?;
    Ok(run_oracle_parsed(project, &parsed, opts))
}

/// [`run_oracle`] over an already-parsed project — the cache-aware entry
/// point the `aji serve` daemon uses so an `oracle` request reuses the
/// modules its content-hash-keyed parse cache already holds (the oracle's
/// four phases then run parse-free).
pub fn run_oracle_parsed(
    project: &Project,
    parsed: &aji_parser::ParsedProject,
    opts: &OracleOptions,
) -> ProjectOracle {
    let _span = aji_obs::span("oracle");

    // Approximate interpretation runs before the constraint graph is
    // built, so the solved graph never shares the heap with the
    // interpreter; the extended analysis extends the baseline fixpoint.
    let approx = {
        let _s = aji_obs::span("approx");
        approximate_interpret_parsed(project, parsed, &opts.approx)
    };
    let (mut graph, baseline) = {
        let _s = aji_obs::span("baseline");
        let mut graph = ConstraintGraph::build(project, parsed);
        let baseline = graph.extend(None, &AnalysisOptions::baseline());
        (graph, baseline)
    };
    let extended = {
        let _s = aji_obs::span("extended");
        graph.extend(Some(&approx.hints), &opts.analysis)
    };
    // Freed before the dynamic run builds its interpreter.
    drop(graph);
    let dynamic = {
        let _s = aji_obs::span("dynamic");
        dynamic_call_graph_parsed(project, parsed, &opts.dynamic_interp)
    };

    let diff = {
        let _s = aji_obs::span("diff");
        EdgeDiff::compute(&baseline.call_graph, &extended.call_graph, &dynamic)
    };
    let missed = triage(
        parsed,
        &approx.hints,
        &approx,
        &extended.call_graph,
        &diff.missed,
    );
    let spurious = triage_spurious(parsed, &baseline.call_graph, &diff.spurious);
    aji_obs::counter_add("oracle.missed_edges", diff.missed.len() as u64);
    aji_obs::counter_add("oracle.spurious_edges", diff.spurious.len() as u64);
    aji_obs::counter_add(
        "oracle.findings",
        missed.iter().filter(|m| m.hint_covered).count() as u64,
    );
    if let Some(rec) = aji_obs::trace_recorder() {
        // One flight-recorder event per finding (hint-covered missed
        // edge), in triage order — `missed` is sorted by (site, callee),
        // so the stream is deterministic.
        for m in missed.iter().filter(|m| m.hint_covered) {
            rec.record(
                aji_obs::TraceKind::OracleFinding,
                &format!("{} -> {}", m.site_display, m.callee_display),
                m.cause.key(),
            );
        }
    }

    let hint_count = approx.hints.reads.values().map(BTreeSet::len).sum::<usize>()
        + approx.hints.writes.len()
        + approx.hints.proxy_reads.len();
    ProjectOracle {
        name: project.name.clone(),
        diff,
        missed,
        spurious,
        hint_count,
        approx_stats: approx.stats,
    }
}

/// Corpus-level aggregate of per-project oracle runs.
#[derive(Debug)]
pub struct CorpusOracle {
    /// Per-project verdicts, in corpus order (failures excluded).
    pub projects: Vec<ProjectOracle>,
    /// Projects that failed the pipeline: `(name, error)` in corpus order.
    pub errors: Vec<(String, String)>,
}

impl CorpusOracle {
    /// Total dynamic / missed / recovered / spurious edge counts over all
    /// projects.
    #[must_use]
    pub fn totals(&self) -> (usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0);
        for p in &self.projects {
            t.0 += p.diff.dynamic_edges;
            t.1 += p.diff.missed.len();
            t.2 += p.diff.recovered.len();
            t.3 += p.diff.spurious.len();
        }
        t
    }

    /// The corpus-wide cause histogram (every cause, zeros included).
    #[must_use]
    pub fn histogram(&self) -> Vec<(&'static str, usize)> {
        Cause::all()
            .iter()
            .map(|c| {
                (
                    c.key(),
                    self.projects
                        .iter()
                        .flat_map(|p| &p.missed)
                        .filter(|m| m.cause == *c)
                        .count(),
                )
            })
            .collect()
    }

    /// The corpus-wide spurious-cause histogram (every cause, zeros
    /// included).
    #[must_use]
    pub fn spurious_histogram(&self) -> Vec<(&'static str, usize)> {
        SpuriousCause::all()
            .iter()
            .map(|c| {
                (
                    c.key(),
                    self.projects
                        .iter()
                        .flat_map(|p| &p.spurious)
                        .filter(|s| s.cause == *c)
                        .count(),
                )
            })
            .collect()
    }

    /// Micro-averaged corpus recall, `(baseline_pct, extended_pct)` —
    /// total matched edges over total dynamic edges.
    #[must_use]
    pub fn recall(&self) -> (f64, f64) {
        let dynamic: usize = self.projects.iter().map(|p| p.diff.dynamic_edges).sum();
        if dynamic == 0 {
            return (100.0, 100.0);
        }
        let base: usize = self
            .projects
            .iter()
            .map(|p| p.diff.baseline.matched_edges)
            .sum();
        let ext: usize = self
            .projects
            .iter()
            .map(|p| p.diff.extended.matched_edges)
            .sum();
        (
            base as f64 / dynamic as f64 * 100.0,
            ext as f64 / dynamic as f64 * 100.0,
        )
    }

    /// The deterministic corpus report: excludes every wall-clock field,
    /// so two runs over the same corpus (any thread count) print
    /// byte-identical text.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let (dynamic, missed, recovered, spurious) = self.totals();
        let (base_recall, ext_recall) = self.recall();
        Json::obj(vec![
            ("projects", Json::Num(self.projects.len() as f64)),
            ("errors", Json::Num(self.errors.len() as f64)),
            ("dynamic_edges", Json::Num(dynamic as f64)),
            ("missed", Json::Num(missed as f64)),
            ("recovered", Json::Num(recovered as f64)),
            ("spurious", Json::Num(spurious as f64)),
            ("baseline_recall_pct", Json::Num(base_recall)),
            ("extended_recall_pct", Json::Num(ext_recall)),
            (
                "causes",
                Json::Obj(
                    self.histogram()
                        .into_iter()
                        .map(|(k, n)| (k.to_string(), Json::Num(n as f64)))
                        .collect(),
                ),
            ),
            (
                "spurious_causes",
                Json::Obj(
                    self.spurious_histogram()
                        .into_iter()
                        .map(|(k, n)| (k.to_string(), Json::Num(n as f64)))
                        .collect(),
                ),
            ),
            (
                "per_project",
                Json::Arr(self.projects.iter().map(ProjectOracle::to_json).collect()),
            ),
            (
                "failures",
                Json::Arr(
                    self.errors
                        .iter()
                        .map(|(n, e)| {
                            Json::obj(vec![
                                ("name", Json::Str(n.clone())),
                                ("error", Json::Str(e.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Runs [`run_oracle`] over a corpus on up to `threads` workers
/// (`0` = auto), preserving corpus order — the report is byte-identical
/// to a serial run.
#[must_use]
pub fn run_oracle_corpus(
    projects: Vec<Project>,
    opts: &OracleOptions,
    threads: usize,
) -> CorpusOracle {
    let results: Vec<ProjectResult<ProjectOracle, PipelineError>> =
        run_corpus_map(projects, threads, |p| run_oracle(p, opts));
    let mut oracle = CorpusOracle {
        projects: Vec::with_capacity(results.len()),
        errors: Vec::new(),
    };
    for r in results {
        match r.outcome {
            Ok(p) => oracle.projects.push(p),
            Err(e) => oracle.errors.push((r.name, e.to_string())),
        }
    }
    oracle
}
