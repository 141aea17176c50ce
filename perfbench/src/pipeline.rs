//! The `population` and `oracle` workloads: every project runs cold
//! through `aji::run_benchmark` or `aji_oracle::run_oracle`, serially,
//! pass after pass, in a seeded order.
//!
//! The traced run replaces each call with the same composition of the
//! layers' public functions, timing each call, and checks that the
//! composition's output is byte-identical to the untraced call's.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;

use aji::{BenchmarkReport, PipelineOptions, VulnReport};
use aji_approx::approximate_interpret_parsed;
use aji_ast::{Loc, Project};
use aji_interp::{DynCallGraph, Interp, NoopTracer};
use aji_oracle::{triage, triage_spurious, EdgeDiff, OracleOptions, ProjectOracle};
use aji_parser::ParsedProject;
use aji_pta::{analyze_parsed, Analysis, AnalysisOptions, CgMetrics};
use aji_support::{Json, Rng};

use crate::spans::Spans;
use crate::stats::{peak_rss_kb, Latencies, Tally};
use crate::{corpus, Outcome, SETUPS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Population,
    Oracle,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Population => "population",
            Kind::Oracle => "oracle",
        }
    }
}

/// Corpus totals of one pass, compared with `expected.json` at seed 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub baseline_edges: u64,
    pub extended_edges: u64,
    pub hints: u64,
    pub dynamic_edges: u64,
    pub missed: u64,
    pub spurious: u64,
}

impl Totals {
    fn add(&mut self, o: &Totals) {
        self.baseline_edges += o.baseline_edges;
        self.extended_edges += o.extended_edges;
        self.hints += o.hints;
        self.dynamic_edges += o.dynamic_edges;
        self.missed += o.missed;
        self.spurious += o.spurious;
    }

    fn to_json(self, kind: Kind) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        match kind {
            Kind::Population => Json::obj(vec![
                ("baseline_edges", n(self.baseline_edges)),
                ("extended_edges", n(self.extended_edges)),
                ("hints", n(self.hints)),
            ]),
            Kind::Oracle => Json::obj(vec![
                ("dynamic_edges", n(self.dynamic_edges)),
                ("baseline_matched", n(self.baseline_edges)),
                ("extended_matched", n(self.extended_edges)),
                ("hints", n(self.hints)),
                ("missed", n(self.missed)),
                ("spurious", n(self.spurious)),
            ]),
        }
    }
}

/// The checked result of one op: its deterministic JSON, compared across
/// passes, and its share of the corpus totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    pub json: String,
    pub totals: Totals,
}

/// Checks a pipeline report and reduces it to its deterministic output.
/// Hints only add constraints (§4), so the extended call graph must
/// contain the baseline's.
pub fn population_output(r: &BenchmarkReport) -> Result<Output, String> {
    if !r
        .baseline_call_graph
        .edges
        .is_subset(&r.extended_call_graph.edges)
    {
        return Err("extended call graph is not a superset of the baseline's".into());
    }
    Ok(Output {
        json: r.metrics_json().to_string(),
        totals: Totals {
            baseline_edges: r.baseline.call_edges as u64,
            extended_edges: r.extended.call_edges as u64,
            hints: r.hint_count as u64,
            ..Totals::default()
        },
    })
}

/// Checks an oracle verdict: hints never lose a matched dynamic edge.
pub fn oracle_output(o: &ProjectOracle) -> Result<Output, String> {
    let (base, ext) = (&o.diff.baseline, &o.diff.extended);
    if ext.matched_edges < base.matched_edges {
        return Err(format!(
            "matched edges fell with hints: {} < {}",
            ext.matched_edges, base.matched_edges
        ));
    }
    Ok(Output {
        json: o.to_json().to_string(),
        totals: Totals {
            baseline_edges: base.matched_edges as u64,
            extended_edges: ext.matched_edges as u64,
            hints: o.hint_count as u64,
            dynamic_edges: o.diff.dynamic_edges as u64,
            missed: o.diff.missed.len() as u64,
            spurious: o.diff.spurious.len() as u64,
        },
    })
}

/// What an op returns: the public entry point's own result.
pub enum Raw {
    Report(Box<BenchmarkReport>),
    Oracle(Box<ProjectOracle>),
}

/// One untraced op: the public entry point, called as a user would.
pub fn call(kind: Kind, p: &Project) -> Result<Raw, String> {
    match kind {
        Kind::Population => {
            aji::run_benchmark(p, &PipelineOptions::default()).map(|r| Raw::Report(Box::new(r)))
        }
        Kind::Oracle => {
            aji_oracle::run_oracle(p, &OracleOptions::default()).map(|o| Raw::Oracle(Box::new(o)))
        }
    }
    .map_err(|e| e.to_string())
}

/// Checks an op's result and reduces it to its deterministic output;
/// done after the op's clock stops.
pub fn output(raw: Result<Raw, String>) -> Result<Output, String> {
    match raw? {
        Raw::Report(r) => population_output(&r),
        Raw::Oracle(o) => oracle_output(&o),
    }
}

/// Work counts taken from the public return values of traced ops.
#[derive(Debug, Default)]
pub struct Counts {
    ops: u64,
    files: u64,
    cells: u64,
    tokens: u64,
    propagations: u64,
    solve_rounds: u64,
    approx_steps: u64,
    approx_items: u64,
    approx_aborted: u64,
    approx_hints: u64,
    functions_total: u64,
    functions_visited: u64,
    realms: u64,
    dynamic_steps: u64,
    missed: u64,
    spurious: u64,
}

impl Counts {
    fn add_analysis(&mut self, a: &Analysis) {
        self.cells += a.solver_stats.cells as u64;
        self.tokens += a.solver_stats.tokens as u64;
        self.propagations += a.solver_stats.propagations;
        self.solve_rounds += a.solver_stats.solve_rounds;
    }
}

/// The shared front of both compositions: parse, baseline PTA,
/// approximate interpretation, extended PTA — in `run_benchmark`'s order.
struct Front {
    parsed: ParsedProject,
    baseline: Analysis,
    approx: aji_approx::ApproxResult,
    extended: Analysis,
}

fn front(
    p: &Project,
    approx_opts: &aji_approx::ApproxOptions,
    analysis: &AnalysisOptions,
    sp: &mut Spans,
    c: &mut Counts,
) -> Result<Front, String> {
    let parsed = sp
        .time("parser.parse", || aji_parser::parse_project(p))
        .map_err(|e| e.to_string())?;
    let baseline = sp.time("pta.baseline", || {
        analyze_parsed(p, &parsed, None, &AnalysisOptions::baseline())
    });
    let approx = sp.time("approx.worklist", || {
        approximate_interpret_parsed(p, &parsed, approx_opts)
    });
    let extended = sp.time("pta.extended", || {
        analyze_parsed(p, &parsed, Some(&approx.hints), analysis)
    });
    c.files += parsed.modules.len() as u64;
    c.add_analysis(&baseline);
    c.add_analysis(&extended);
    let s = &approx.stats;
    c.approx_steps += s.total_steps;
    c.approx_items += s.items_processed as u64;
    c.approx_aborted += s.items_aborted as u64;
    c.functions_total += s.functions_total as u64;
    c.functions_visited += s.functions_visited as u64;
    // approximate_interpret_parsed builds one interpreter realm.
    c.realms += 1;
    Ok(Front {
        parsed,
        baseline,
        approx,
        extended,
    })
}

/// `aji::run_benchmark` with default options, composed from the layers'
/// public calls.
pub fn population_traced(p: &Project, sp: &mut Spans, c: &mut Counts) -> Result<Raw, String> {
    let opts = PipelineOptions::default();
    let f = front(p, &opts.approx, &opts.analysis, sp, c)?;
    let vulns = (!p.vulns.is_empty()).then(|| {
        sp.time("core.vuln", || {
            let locs = aji::vuln_function_locs_parsed(p, &f.parsed);
            let reachable = |a: &Analysis| {
                locs.iter()
                    .flatten()
                    .filter(|l| a.call_graph.reachable_functions.contains(l))
                    .count()
            };
            VulnReport {
                total: p.vulns.len(),
                reachable_baseline: reachable(&f.baseline),
                reachable_extended: reachable(&f.extended),
            }
        })
    });
    c.approx_hints += f.approx.hints.len() as u64;
    let report = BenchmarkReport {
        name: p.name.clone(),
        baseline: CgMetrics::of(&f.baseline.call_graph),
        extended: CgMetrics::of(&f.extended.call_graph),
        parse_seconds: 0.0,
        baseline_seconds: 0.0,
        approx_seconds: 0.0,
        extended_seconds: 0.0,
        baseline_analysis_seconds: 0.0,
        extended_analysis_seconds: 0.0,
        dynamic_seconds: 0.0,
        total_seconds: 0.0,
        hint_count: f.approx.hints.len(),
        approx_stats: f.approx.stats,
        accuracy: None,
        vulns,
        extended_call_graph: f.extended.call_graph,
        baseline_call_graph: f.baseline.call_graph,
        hints: f.approx.hints,
        obs: None,
    };
    Ok(Raw::Report(Box::new(report)))
}

/// `aji_oracle::run_oracle` with default options, composed from the
/// layers' public calls.
pub fn oracle_traced(p: &Project, sp: &mut Spans, c: &mut Counts) -> Result<Raw, String> {
    let opts = OracleOptions::default();
    let f = front(p, &opts.approx, &opts.analysis, sp, c)?;
    let recorder = Rc::new(RefCell::new(DynCallGraph::new()));
    let mut interp = sp.time("interp.realm", || {
        Interp::with_parsed(
            p,
            &f.parsed,
            opts.dynamic_interp.clone(),
            Box::new(recorder.clone()),
        )
    });
    c.realms += 1;
    let driver = p.test_driver.clone().unwrap_or_else(|| p.main.clone());
    sp.time("interp.dynamic", || {
        // A crashing driver still leaves a partial call graph.
        let _ = interp.run_module(&driver);
        c.dynamic_steps += interp.steps();
        drop(interp);
    });
    let dynamic: BTreeSet<(Loc, Loc)> = recorder
        .borrow()
        .edges
        .iter()
        .map(|e| (e.call_site, e.callee))
        .collect();
    let diff = sp.time("oracle.diff", || {
        EdgeDiff::compute(&f.baseline.call_graph, &f.extended.call_graph, &dynamic)
    });
    let missed = sp.time("oracle.triage", || {
        triage(
            &f.parsed,
            &f.approx.hints,
            &f.approx,
            &f.extended.call_graph,
            &diff.missed,
        )
    });
    let spurious = sp.time("oracle.spurious", || {
        triage_spurious(&f.parsed, &f.baseline.call_graph, &diff.spurious)
    });
    let h = &f.approx.hints;
    let hint_count =
        h.reads.values().map(BTreeSet::len).sum::<usize>() + h.writes.len() + h.proxy_reads.len();
    c.approx_hints += f.approx.hints.len() as u64;
    c.missed += diff.missed.len() as u64;
    c.spurious += diff.spurious.len() as u64;
    Ok(Raw::Oracle(Box::new(ProjectOracle {
        name: p.name.clone(),
        diff,
        missed,
        spurious,
        hint_count,
        approx_stats: f.approx.stats,
    })))
}

/// One traced op: the composition under an `op` span, then two probes
/// outside it. Scope resolution and realm construction run inside
/// `analyze_parsed` and `approximate_interpret_parsed`, so they cannot be
/// timed there from outside; the probes time one more call of each on
/// the same parse and are not part of the op.
/// Returns the op's output and its latency in milliseconds.
fn traced_op(
    kind: Kind,
    p: &Project,
    sp: &mut Spans,
    c: &mut Counts,
) -> (Result<Raw, String>, f64) {
    let root = sp.begin("op");
    let out = match kind {
        Kind::Population => population_traced(p, sp, c),
        Kind::Oracle => oracle_traced(p, sp, c),
    };
    let ms = sp.end(root);
    c.ops += 1;
    if let Ok(parsed) = aji_parser::parse_project(p) {
        sp.time("probe.scopes", || aji_pta::scopes::resolve(&parsed.modules));
        let interp_opts = aji_approx::ApproxOptions::default().interp;
        sp.time("probe.realm", || {
            Interp::with_parsed(p, &parsed, interp_opts, Box::new(NoopTracer))
        });
    }
    (out, ms)
}

fn check(reference: &Option<Output>, got: Result<Output, String>) -> Result<(), String> {
    let got = got?;
    match reference {
        Some(r) if *r == got => Ok(()),
        Some(_) => Err("output differs from the warm-up pass".into()),
        None => Err("the warm-up op failed, so there is nothing to compare".into()),
    }
}

/// Runs the workload: `SETUPS` set-ups (corpus generation plus a checked
/// warm-up pass), then timed passes until `seconds` have elapsed.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool, start: Instant) -> Outcome {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut refs: Vec<Option<Output>> = Vec::new();
    let mut projects = Vec::new();
    for k in 0..SETUPS {
        let t0 = if k == 0 { start } else { Instant::now() };
        projects = corpus::population(seed);
        // Each result is checked as soon as it arrives, so the set-up
        // holds one report at a time; the checking is not set-up time.
        let mut busy = t0.elapsed();
        let outs: Vec<_> = projects
            .iter()
            .map(|p| {
                let t = Instant::now();
                let raw = call(kind, p);
                busy += t.elapsed();
                output(raw)
            })
            .collect();
        setup_s.push(busy.as_secs_f64());
        if k == 0 {
            refs = outs
                .into_iter()
                .zip(&projects)
                .map(|(o, p)| {
                    tally.record(&p.name, o.as_ref().map(|_| ()).map_err(Clone::clone));
                    o.ok()
                })
                .collect();
            if seed == 0 {
                tally.record("corpus totals", check_totals(kind, &refs));
            }
        } else {
            for ((o, r), p) in outs.into_iter().zip(&refs).zip(&projects) {
                tally.record(&p.name, check(r, o));
            }
        }
    }

    let mut lat = Latencies::default();
    let mut untraced = Latencies::default();
    let mut sp = Spans::default();
    let mut counts = Counts::default();
    let mut rng = Rng::seed_from_u64(seed ^ 0x0BE7_5EED);
    let mut order: Vec<usize> = (0..projects.len()).collect();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut op_id = 0u64;
    // Whole passes only, so that every project is sampled equally often
    // and the summaries do not depend on where the clock ran out. The
    // traced run alternates traced and untraced passes (at least one of
    // each); the difference between them is the tracing overhead.
    let mut pass = 0;
    while Instant::now() < deadline || (trace && pass < 2) {
        rng.shuffle(&mut order);
        let traced = trace && pass % 2 == 0;
        for &i in &order {
            let p = &projects[i];
            let raw = if traced {
                sp.set_op(op_id);
                let (raw, ms) = traced_op(kind, p, &mut sp, &mut counts);
                lat.push(i, ms);
                raw
            } else {
                let t = Instant::now();
                let raw = call(kind, p);
                untraced.push(i, t.elapsed().as_secs_f64() * 1e3);
                raw
            };
            op_id += 1;
            tally.record(&p.name, check(&refs[i], output(raw)));
        }
        pass += 1;
    }

    let (lat, layers) = if trace {
        crate::write_spans(kind.name(), &sp);
        let layers = layer_metrics(kind, &sp, &counts, &lat, &untraced);
        (lat, Some(layers))
    } else {
        (untraced, None)
    };
    Outcome {
        setup_s,
        lat,
        tally,
        peak_rss_kb: peak_rss_kb("self").unwrap_or(0),
        layers,
    }
}

/// Per-layer metrics of a traced run, per traced op.
fn layer_metrics(
    kind: Kind,
    sp: &Spans,
    c: &Counts,
    traced: &Latencies,
    untraced: &Latencies,
) -> BTreeMap<&'static str, f64> {
    let ops = c.ops.max(1) as f64;
    let self_ms = sp.self_ms();
    let per_op = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / ops;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut m = BTreeMap::new();
    m.insert("parser.parse_ms", per_op("parser.parse"));
    m.insert("parser.files", c.files as f64 / ops);
    m.insert("pta.scopes_ms", per_op("probe.scopes"));
    m.insert("pta.baseline_ms", per_op("pta.baseline"));
    m.insert("pta.extended_ms", per_op("pta.extended"));
    m.insert("pta.cells", c.cells as f64 / ops);
    m.insert("pta.tokens", c.tokens as f64 / ops);
    m.insert("pta.propagations", c.propagations as f64 / ops);
    m.insert("pta.solve_rounds", c.solve_rounds as f64 / ops);
    m.insert("approx.worklist_ms", per_op("approx.worklist"));
    m.insert("approx.steps", c.approx_steps as f64 / ops);
    m.insert("approx.items", c.approx_items as f64 / ops);
    m.insert(
        "approx.aborted_ratio",
        ratio(c.approx_aborted, c.approx_items),
    );
    m.insert("approx.hints", c.approx_hints as f64 / ops);
    m.insert(
        "approx.coverage",
        ratio(c.functions_visited, c.functions_total),
    );
    m.insert("interp.realm_ms", per_op("interp.realm"));
    m.insert("interp.realm_probe_ms", per_op("probe.realm"));
    m.insert("interp.realms", c.realms as f64 / ops);
    m.insert("interp.dynamic_ms", per_op("interp.dynamic"));
    m.insert("interp.dynamic_steps", c.dynamic_steps as f64 / ops);
    m.insert("core.vuln_ms", per_op("core.vuln"));
    if kind == Kind::Oracle {
        m.insert("oracle.diff_ms", per_op("oracle.diff"));
        m.insert("oracle.triage_ms", per_op("oracle.triage"));
        m.insert("oracle.spurious_ms", per_op("oracle.spurious"));
        m.insert("oracle.missed", c.missed as f64 / ops);
        m.insert("oracle.spurious", c.spurious as f64 / ops);
    }
    m.insert("core.unattributed_ms", per_op("op"));
    crate::insert_core(&mut m, traced, untraced);
    m
}

fn check_totals(kind: Kind, refs: &[Option<Output>]) -> Result<(), String> {
    let mut sum = Totals::default();
    for r in refs.iter().flatten() {
        sum.add(&r.totals);
    }
    let got = sum.to_json(kind);
    let expected =
        Json::parse(include_str!("../expected.json")).map_err(|e| format!("expected.json: {e}"))?;
    match expected.get(kind.name()) {
        Some(want) if *want == got => Ok(()),
        Some(want) => Err(format!("corpus totals {got} differ from expected {want}")),
        None => Err(format!(
            "expected.json has no '{}' entry; totals are {got}",
            kind.name()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced composition must produce byte-identical output to the
    /// untraced public entry point.
    fn composition_matches(kind: Kind, projects: &[Project]) {
        let mut sp = Spans::default();
        let mut c = Counts::default();
        for p in projects {
            let untraced = output(call(kind, p)).expect("untraced op");
            let traced = output(traced_op(kind, p, &mut sp, &mut c).0).expect("traced op");
            assert_eq!(traced, untraced, "{}", p.name);
        }
        assert_eq!(c.ops, projects.len() as u64);
        let self_ms = sp.self_ms();
        assert!(self_ms.contains_key("parser.parse"));
        assert!(self_ms.contains_key("approx.worklist"));
    }

    fn sample() -> Vec<Project> {
        // The pattern projects (vulnerability annotations, dynamic
        // drivers) and one generated project of each size class.
        let pop = corpus::population(0);
        let mut out: Vec<Project> = pop[..14].to_vec();
        out.extend(pop[14..18].iter().cloned());
        out
    }

    #[test]
    fn traced_population_matches_run_benchmark() {
        composition_matches(Kind::Population, &sample());
    }

    #[test]
    fn traced_oracle_matches_run_oracle() {
        composition_matches(Kind::Oracle, &sample());
    }

    #[test]
    fn a_differing_output_is_a_failure() {
        let out = Output {
            json: "{}".into(),
            totals: Totals::default(),
        };
        assert!(check(&Some(out.clone()), Ok(out.clone())).is_ok());
        let other = Output {
            json: "{\"x\":1}".into(),
            ..out.clone()
        };
        assert!(check(&Some(out.clone()), Ok(other)).is_err());
        assert!(check(&None, Ok(out.clone())).is_err());
        assert!(check(&Some(out), Err("boom".into())).is_err());
    }
}
