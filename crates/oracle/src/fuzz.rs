//! The seeded soundness fuzzer: generate, diff, triage, shrink, repeat.
//!
//! [`run_fuzz`] drives the `aji-corpus` generator in a loop-until-dry:
//! each batch draws fresh [`GenConfig`]s through a recorded
//! [`TestCase`] choice sequence (so every generated project is replayable
//! from its choices alone), runs the differential oracle on each, and
//! flags any **finding** — a dynamic edge the hint-augmented analysis
//! missed even though a hint already names the callee
//! ([`crate::MissedEdge::hint_covered`]). Misses with other causes (the
//! documented limits: proxy-dependent keys, eval, coverage) are counted in
//! the histogram but are not findings, which is what lets a healthy
//! build's fuzz run go *dry* and exit clean.
//!
//! The first few findings are then **shrunk** with
//! [`aji_support::check::shrink_choices`]: the choice sequence is
//! minimised while the finding persists, and the minimal sequence is
//! replayed into a reproducer — generator config, project source and the
//! surviving missed edges — embedded in the report.
//!
//! Everything is deterministic in `(seed, cases)`: batches have a fixed
//! size, per-case seeds come from [`aji_support::rng::splitmix64`], the
//! fan-out preserves input order, and the shrinker is itself
//! deterministic — so the JSON report is byte-identical across runs and
//! thread counts.

use crate::diff::{run_oracle, OracleOptions};
use crate::triage::{Cause, MissedEdge};
use aji_ast::Project;
use aji_bench::{failures_json, run_corpus_map, split_results, ProjectResult};
use aji_corpus::{generate, GenConfig};
use aji_support::check::{shrink_choices, TestCase};
use aji_support::rng::splitmix64;
use aji_support::Json;

/// Cases evaluated per batch. Fixed (never derived from `--threads`) so
/// the dry-out point, and hence the whole report, is thread-invariant.
const BATCH: usize = 8;

/// Consecutive zero-finding batches before the fuzzer stops early.
const DRY_BATCHES: usize = 2;

/// Options for [`run_fuzz`].
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master seed; every per-case seed derives from it.
    pub seed: u64,
    /// Maximum cases to evaluate (the loop may stop earlier when dry).
    pub cases: usize,
    /// Worker threads for the per-batch fan-out (`0` = auto).
    pub threads: usize,
    /// Findings to shrink (shrinking re-runs the pipeline many times, so
    /// only the first few findings get a reproducer).
    pub max_shrunk: usize,
    /// Shrink budget per finding, in property executions.
    pub max_shrink_runs: u32,
    /// Pipeline options for each differential run.
    pub oracle: OracleOptions,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 1,
            cases: 50,
            threads: 0,
            max_shrunk: 3,
            max_shrink_runs: 200,
            oracle: OracleOptions::default(),
        }
    }
}

/// The per-case seed: a [`splitmix64`] stream over the master seed, so
/// neighbouring cases get statistically independent generators.
#[must_use]
pub fn case_seed(seed: u64, case: usize) -> u64 {
    let mut s = seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// Draws one generator config from a recorded choice sequence.
///
/// Every field that shapes the program comes from `tc`, so a shrunk
/// choice sequence replays into a (smaller) config; the all-zeroes
/// sequence is still a valid config. Dynamic-idiom knobs
/// (`dynamic_fraction`, `computed_writes`, `accessor_methods`,
/// `hard_dispatch_fraction`) are all exercised.
#[must_use]
pub fn case_config(tc: &mut TestCase, case: usize) -> GenConfig {
    GenConfig {
        name: format!("fuzz-{case:04}"),
        seed: tc.choice(0xFFFF_FFFF),
        libs: tc.int_in(1..4),
        methods_per_lib: tc.int_in(1..6),
        dynamic_fraction: tc.int_in(0..11_usize) as f64 / 10.0,
        app_modules: tc.int_in(1..4),
        calls_per_module: tc.int_in(1..6),
        use_mixin: tc.bool(),
        use_emitter: tc.bool(),
        driver_coverage: tc.int_in(0..11_usize) as f64 / 10.0,
        vulns: 0,
        hard_dispatch_fraction: if tc.bool() { 0.3 } else { 0.0 },
        computed_writes: tc.int_in(0..4),
        accessor_methods: tc.int_in(0..3),
        // The fuzzer hunts unsoundness in call-graph recovery; seeded
        // property typos are the finder's concern, not the fuzzer's.
        typo_injections: 0,
    }
}

/// A minimal replayable counterexample for one finding.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// The shrunk choice sequence ([`TestCase::for_choices`] +
    /// [`case_config`] rebuilds the project).
    pub choices: Vec<u64>,
    /// Full source of the shrunk project, files concatenated under
    /// `// ==== path ====` headers.
    pub source: String,
    /// The findings that survive in the shrunk project.
    pub missed: Vec<MissedEdge>,
    /// Number of files in the shrunk project.
    pub files: usize,
    /// Property executions the shrinker spent.
    pub shrink_runs: u32,
}

/// One fuzzer finding: a generated project where the hint-augmented
/// analysis missed a dynamic edge *despite a hint naming the callee*.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Case index within the run.
    pub case: usize,
    /// Generated project name.
    pub name: String,
    /// The recorded choice sequence that generated the project.
    pub choices: Vec<u64>,
    /// The hint-covered missed edges, triaged.
    pub missed: Vec<MissedEdge>,
    /// The shrunk reproducer, for the first [`FuzzOptions::max_shrunk`]
    /// findings.
    pub shrunk: Option<Reproducer>,
}

impl Finding {
    /// Serializes the finding for the deterministic report.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("case", Json::Num(self.case as f64)),
            ("name", Json::Str(self.name.clone())),
            (
                "choices",
                Json::Arr(self.choices.iter().map(|&c| Json::Num(c as f64)).collect()),
            ),
            (
                "missed",
                Json::Arr(self.missed.iter().map(MissedEdge::to_json).collect()),
            ),
        ];
        match &self.shrunk {
            Some(r) => pairs.push((
                "shrunk",
                Json::obj(vec![
                    (
                        "choices",
                        Json::Arr(r.choices.iter().map(|&c| Json::Num(c as f64)).collect()),
                    ),
                    ("files", Json::Num(r.files as f64)),
                    ("shrink_runs", Json::Num(f64::from(r.shrink_runs))),
                    (
                        "missed",
                        Json::Arr(r.missed.iter().map(MissedEdge::to_json).collect()),
                    ),
                    ("source", Json::Str(r.source.clone())),
                ]),
            )),
            None => pairs.push(("shrunk", Json::Null)),
        }
        Json::obj(pairs)
    }
}

/// The full fuzzer report.
#[derive(Debug)]
pub struct FuzzReport {
    /// Master seed the run used.
    pub seed: u64,
    /// `--cases` as requested.
    pub cases_requested: usize,
    /// Cases actually evaluated (≤ requested when the run went dry).
    pub cases_run: usize,
    /// Total dynamic edges observed over all cases.
    pub dynamic_edges: usize,
    /// Total missed edges (all causes) over all cases.
    pub missed_edges: usize,
    /// Corpus-wide cause histogram, every cause, zeros included.
    pub causes: Vec<(&'static str, usize)>,
    /// The findings (unsoundness regressions), in case order.
    pub findings: Vec<Finding>,
    /// Cases whose pipeline failed outright: `(name, error)`.
    pub errors: Vec<(String, String)>,
}

impl FuzzReport {
    /// `true` when the run produced no findings and no pipeline errors —
    /// the healthy-build outcome.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.errors.is_empty()
    }

    /// The deterministic JSON report (no wall-clock fields).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::Num(self.seed as f64)),
            ("cases_requested", Json::Num(self.cases_requested as f64)),
            ("cases_run", Json::Num(self.cases_run as f64)),
            ("dynamic_edges", Json::Num(self.dynamic_edges as f64)),
            ("missed_edges", Json::Num(self.missed_edges as f64)),
            (
                "causes",
                Json::Obj(
                    self.causes
                        .iter()
                        .map(|&(k, n)| (k.to_string(), Json::Num(n as f64)))
                        .collect(),
                ),
            ),
            (
                "findings",
                Json::Arr(self.findings.iter().map(Finding::to_json).collect()),
            ),
            ("errors", failures_json(&self.errors)),
        ])
    }

    /// A short human-readable summary (multi-line).
    #[must_use]
    pub fn summary_text(&self) -> String {
        let mut out = format!(
            "fuzz: seed {} | {}/{} cases | {} dynamic edges | {} missed\n",
            self.seed, self.cases_run, self.cases_requested, self.dynamic_edges, self.missed_edges
        );
        out.push_str("causes:");
        for (k, n) in &self.causes {
            if *n > 0 {
                out.push_str(&format!(" {k}={n}"));
            }
        }
        out.push('\n');
        if self.clean() {
            out.push_str("no findings: every hint-covered dynamic edge was recovered\n");
        } else {
            out.push_str(&format!(
                "{} finding(s), {} error(s)\n",
                self.findings.len(),
                self.errors.len()
            ));
            for f in &self.findings {
                out.push_str(&format!("  {} ({} hint-covered miss(es))", f.name, f.missed.len()));
                if let Some(r) = &f.shrunk {
                    out.push_str(&format!(
                        " -> shrunk to {} choice(s), {} file(s) in {} runs",
                        r.choices.len(),
                        r.files,
                        r.shrink_runs
                    ));
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Extracts the hint-covered misses — the finding criterion.
fn hint_covered(missed: &[MissedEdge]) -> Vec<MissedEdge> {
    missed.iter().filter(|m| m.hint_covered).cloned().collect()
}

/// Concatenates a project's files under `// ==== path ====` headers.
fn render_source(project: &Project) -> String {
    let mut out = String::new();
    for f in &project.files {
        out.push_str(&format!("// ==== {} ====\n", f.path));
        out.push_str(&f.src);
        if !f.src.ends_with('\n') {
            out.push('\n');
        }
    }
    out
}

/// Runs the soundness fuzzer. See the module docs for the loop shape;
/// the result is deterministic in `(opts.seed, opts.cases)` whatever
/// `opts.threads` is.
#[must_use]
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzReport {
    let _span = aji_obs::span("fuzz");
    let mut report = FuzzReport {
        seed: opts.seed,
        cases_requested: opts.cases,
        cases_run: 0,
        dynamic_edges: 0,
        missed_edges: 0,
        causes: Cause::all().iter().map(|c| (c.key(), 0)).collect(),
        findings: Vec::new(),
        errors: Vec::new(),
    };

    let mut dry = 0usize;
    while report.cases_run < opts.cases && dry < DRY_BATCHES {
        let lo = report.cases_run;
        let hi = (lo + BATCH).min(opts.cases);

        // Generate the batch serially, recording each case's choices.
        let mut metas: Vec<(usize, Vec<u64>)> = Vec::with_capacity(hi - lo);
        let mut projects: Vec<Project> = Vec::with_capacity(hi - lo);
        for case in lo..hi {
            let mut tc = TestCase::with_seed(case_seed(opts.seed, case));
            let cfg = case_config(&mut tc, case);
            projects.push(generate(&cfg));
            metas.push((case, tc.choices().to_vec()));
        }

        // Fan the oracle out; results come back in input (case) order.
        let results = run_corpus_map(projects, opts.threads, |p| run_oracle(p, &opts.oracle));
        let (oracles, errors) = split_results(
            metas
                .into_iter()
                .zip(results)
                .map(|(meta, r)| ProjectResult {
                    name: r.name,
                    outcome: r.outcome.map(|po| (meta, po)),
                }),
        );
        report.errors.extend(errors);

        let mut batch_findings = 0usize;
        for ((case, choices), po) in oracles {
            report.dynamic_edges += po.diff.dynamic_edges;
            report.missed_edges += po.diff.missed.len();
            for m in &po.missed {
                if let Some(slot) = report.causes.iter_mut().find(|(k, _)| *k == m.cause.key()) {
                    slot.1 += 1;
                }
            }
            let covered = hint_covered(&po.missed);
            if !covered.is_empty() {
                batch_findings += 1;
                report.findings.push(Finding {
                    case,
                    name: po.name,
                    choices,
                    missed: covered,
                    shrunk: None,
                });
            }
        }
        report.cases_run = hi;
        if batch_findings == 0 {
            dry += 1;
        } else {
            dry = 0;
        }
    }

    // Shrink the first few findings to minimal reproducers.
    let n_shrink = report.findings.len().min(opts.max_shrunk);
    for f in report.findings.iter_mut().take(n_shrink) {
        let _s = aji_obs::span("shrink");
        f.shrunk = Some(shrink_finding(f, opts));
    }
    aji_obs::counter_add("fuzz.cases", report.cases_run as u64);
    aji_obs::counter_add("fuzz.findings", report.findings.len() as u64);
    report
}

/// Minimises one finding's choice sequence and replays it into a
/// [`Reproducer`].
fn shrink_finding(f: &Finding, opts: &FuzzOptions) -> Reproducer {
    let case = f.case;
    let oracle_opts = opts.oracle.clone();
    // The property FAILS (Err) while the finding persists; pipeline
    // errors count as passing so the shrinker never trades the soundness
    // bug for a differently broken program.
    let prop = move |tc: &mut TestCase| -> Result<(), String> {
        let cfg = case_config(tc, case);
        let project = generate(&cfg);
        match run_oracle(&project, &oracle_opts) {
            Ok(po) if po.missed.iter().any(|m| m.hint_covered) => {
                Err("hint-covered dynamic edge still missed".to_string())
            }
            _ => Ok(()),
        }
    };
    let (choices, _msg, shrink_runs) = shrink_choices(
        f.choices.clone(),
        "hint-covered dynamic edge still missed".to_string(),
        opts.max_shrink_runs,
        prop,
    );

    // Replay the minimal sequence into the reproducer.
    let mut tc = TestCase::for_choices(choices.clone());
    let cfg = case_config(&mut tc, case);
    let project = generate(&cfg);
    let missed = match run_oracle(&project, &opts.oracle) {
        Ok(po) => hint_covered(&po.missed),
        Err(_) => Vec::new(),
    };
    aji_obs::counter_add("fuzz.shrink_runs", u64::from(shrink_runs));
    Reproducer {
        choices,
        source: render_source(&project),
        missed,
        files: project.files.len(),
        shrink_runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn case_seed_is_deterministic_and_well_spread() {
        assert_eq!(case_seed(1, 3), case_seed(1, 3));
        assert_ne!(case_seed(1, 3), case_seed(2, 3));
        let seeds: BTreeSet<u64> = (0..100).map(|c| case_seed(1, c)).collect();
        assert_eq!(seeds.len(), 100, "per-case seeds must not collide");
    }

    #[test]
    fn case_config_replays_exactly_from_recorded_choices() {
        let mut tc = TestCase::with_seed(case_seed(9, 4));
        let cfg = case_config(&mut tc, 4);
        let mut replay = TestCase::for_choices(tc.choices().to_vec());
        let cfg2 = case_config(&mut replay, 4);
        assert_eq!(format!("{cfg:?}"), format!("{cfg2:?}"));
    }

    #[test]
    fn all_zero_choices_make_a_valid_minimal_config() {
        let mut tc = TestCase::for_choices(Vec::new());
        let cfg = case_config(&mut tc, 0);
        assert_eq!((cfg.libs, cfg.app_modules, cfg.calls_per_module), (1, 1, 1));
        assert_eq!(cfg.computed_writes, 0);
        let project = generate(&cfg);
        assert!(aji_parser::parse_project(&project).is_ok());
    }

    #[test]
    fn render_source_headers_every_file() {
        let mut tc = TestCase::for_choices(Vec::new());
        let project = generate(&case_config(&mut tc, 0));
        let src = render_source(&project);
        for f in &project.files {
            assert!(src.contains(&format!("// ==== {} ====", f.path)));
        }
    }
}
