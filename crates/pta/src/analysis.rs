//! Top-level analysis driver: parse → resolve scopes → generate
//! constraints → apply hints (\[DPR\]/\[DPW\]/module hints) → solve → extract
//! the call graph.
//!
//! Scope resolution and constraint generation build a [`ConstraintGraph`]
//! once per project; the rest is [`ConstraintGraph::extend`], which can
//! run again on the solved graph with more hint rules enabled. The hint
//! rules only add tokens and constraints (paper §4), so extending the
//! baseline fixpoint reaches the same fixpoint as a from-scratch extended
//! solve.

use crate::callgraph::{extract, CallGraph};
use crate::gen::{generate, GenOutput};
use crate::scopes;
use crate::solver::{CellId, CellKind, Constraint, FuncIdx, Solver, SolverStats, Token, TokenData};
use aji_approx::Hints;
use aji_ast::{Loc, Project};
use aji_support::FxHashMap;
use std::time::Instant;

/// Which hint rules the analysis applies. The baseline disables all of
/// them; Table 2's `*`-marked row corresponds to write hints only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Apply \[DPR\] (read hints).
    pub use_read_hints: bool,
    /// Apply \[DPW\] (write hints).
    pub use_write_hints: bool,
    /// Resolve dynamic `require` through module hints (§3's extension).
    pub use_module_hints: bool,
    /// §4's discussed *non-relational* alternative to \[DPW\]: model each
    /// dynamic write site as static writes `E.p1 = E'' ∧ … ∧ E.pn = E''`
    /// for the observed names. Loses the relational precision of \[DPW\];
    /// provided for the ablation study.
    pub nonrelational_writes: bool,
    /// §6's "unknown function arguments" extension: treat a dynamic read
    /// whose base was the proxy but whose key was a known string as a
    /// static read — only where no ordinary read hints exist.
    pub use_proxy_read_hints: bool,
}

impl AnalysisOptions {
    /// The baseline static analysis: dynamic property accesses ignored.
    pub fn baseline() -> Self {
        AnalysisOptions {
            use_read_hints: false,
            use_write_hints: false,
            use_module_hints: false,
            nonrelational_writes: false,
            use_proxy_read_hints: false,
        }
    }

    /// The extended analysis with the paper's hint rules enabled.
    pub fn extended() -> Self {
        AnalysisOptions {
            use_read_hints: true,
            use_write_hints: true,
            use_module_hints: true,
            nonrelational_writes: false,
            use_proxy_read_hints: false,
        }
    }

    /// The §4 non-relational ablation: write hints replaced by
    /// per-site property-name injection.
    pub fn nonrelational() -> Self {
        AnalysisOptions {
            use_write_hints: false,
            nonrelational_writes: true,
            ..Self::extended()
        }
    }

    /// The extended analysis plus the §6 proxy-read extension.
    pub fn with_proxy_reads() -> Self {
        AnalysisOptions {
            use_proxy_read_hints: true,
            ..Self::extended()
        }
    }

    /// Folds the rule configuration into `h` as one bit per rule — the
    /// cache-key contribution the `aji serve` hint store uses so a solved
    /// call graph is never reused under a different rule set (e.g. an
    /// `AJI_PTA_ABLATE` ablation run must miss a cache warmed without it).
    pub fn fingerprint_into(&self, h: &mut aji_support::Fnv64) {
        let bits = u64::from(self.use_read_hints)
            | u64::from(self.use_write_hints) << 1
            | u64::from(self.use_module_hints) << 2
            | u64::from(self.nonrelational_writes) << 3
            | u64::from(self.use_proxy_read_hints) << 4
            | u64::from(rule_ablated("dpw")) << 5;
        h.write_u64(bits);
    }
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self::extended()
    }
}

/// Test-only ablation switch: `true` when the `AJI_PTA_ABLATE`
/// environment variable names `rule` (comma-separated, case-insensitive).
///
/// The soundness oracle's regression test sets `AJI_PTA_ABLATE=dpw` to
/// silently disable the \[DPW\] rule *without* touching
/// [`AnalysisOptions`] — mimicking how a real unsoundness regression
/// would slip in: the configuration still claims write hints are on, but
/// the rule no longer fires. Production paths never set the variable, so
/// the switch is inert outside tests.
#[must_use]
pub fn rule_ablated(rule: &str) -> bool {
    match std::env::var("AJI_PTA_ABLATE") {
        Ok(v) => v.split(',').any(|r| r.trim().eq_ignore_ascii_case(rule)),
        Err(_) => false,
    }
}

/// Result of one static analysis run.
#[derive(Debug)]
pub struct Analysis {
    /// The computed call graph.
    pub call_graph: CallGraph,
    /// Solver statistics.
    pub solver_stats: SolverStats,
    /// Wall-clock analysis time in seconds (excluding parsing).
    pub analysis_seconds: f64,
    /// Number of hints that were actually applied (matched a known site
    /// or token).
    pub hints_applied: usize,
}

/// Runs the static call graph and points-to analysis on a project.
///
/// With `hints == None` (or all hint options disabled) this is the
/// baseline analysis of Figure 3's first five rules; with hints it
/// additionally applies \[DPR\] and \[DPW\].
///
/// Parses the project first; callers that already hold a
/// [`aji_parser::ParsedProject`] — e.g. to run several hint
/// configurations over one parse — should use [`analyze_parsed`].
///
/// # Errors
///
/// Returns a parse error if any project file fails to parse.
pub fn analyze(
    project: &Project,
    hints: Option<&Hints>,
    opts: &AnalysisOptions,
) -> Result<Analysis, aji_parser::ParseError> {
    let parsed = aji_parser::parse_project(project)?;
    Ok(analyze_parsed(project, &parsed, hints, opts))
}

/// [`analyze`] over an already-parsed project: builds the project's
/// [`ConstraintGraph`] and extends it once.
///
/// Infallible: parse errors are the only failure mode of the analysis,
/// and the caller has already parsed. `parsed` must be the parse of
/// `project` (the project supplies vulnerability annotations and file
/// paths; the AST and source map come from `parsed`). Callers that run
/// several configurations over one project — baseline, then extended —
/// should build the graph themselves and extend it once per
/// configuration.
pub fn analyze_parsed(
    project: &Project,
    parsed: &aji_parser::ParsedProject,
    hints: Option<&Hints>,
    opts: &AnalysisOptions,
) -> Analysis {
    let start = Instant::now();
    let mut analysis = ConstraintGraph::build(project, parsed).extend(hints, opts);
    analysis.analysis_seconds = start.elapsed().as_secs_f64();
    analysis
}

/// A project's constraint graph: scopes resolved and constraints
/// generated once, with no hints, then solved by [`ConstraintGraph::extend`]
/// under one or more hint configurations.
///
/// Each `extend` applies only the hint rules not applied by an earlier
/// call and re-solves from the current fixpoint, so the usual chain —
/// baseline, then extended — pays for one generation and one
/// propagation of the baseline solution. The result of every `extend`
/// is the [`Analysis`] a from-scratch [`analyze_parsed`] would return
/// for the same hints and options, up to wall-clock time.
///
/// # Example
///
/// ```
/// use aji_approx::{approximate_interpret_parsed, ApproxOptions};
/// use aji_ast::Project;
/// use aji_pta::{AnalysisOptions, ConstraintGraph};
///
/// let mut project = Project::new("demo");
/// project.add_file(
///     "index.js",
///     "var api = {};\n\
///      ['run'].forEach(function(m) { api[m] = function() { return 1; }; });\n\
///      api.run();",
/// );
/// let parsed = aji_parser::parse_project(&project).unwrap();
/// let hints = approximate_interpret_parsed(&project, &parsed, &ApproxOptions::default()).hints;
/// let mut graph = ConstraintGraph::build(&project, &parsed);
/// let baseline = graph.extend(None, &AnalysisOptions::baseline());
/// let extended = graph.extend(Some(&hints), &AnalysisOptions::extended());
/// assert!(extended.call_graph.edge_count() > baseline.call_graph.edge_count());
/// ```
pub struct ConstraintGraph<'p> {
    project: &'p Project,
    solver: Solver,
    dyn_reads: FxHashMap<Loc, (CellId, CellId)>,
    dyn_writes: FxHashMap<Loc, (CellId, CellId)>,
    funcs_by_loc: FxHashMap<Loc, FuncIdx>,
    objs_by_loc: FxHashMap<Loc, Token>,
    /// The hint rules applied so far.
    applied: AnalysisOptions,
    hints_applied: usize,
}

impl<'p> ConstraintGraph<'p> {
    /// Resolves scopes and generates the hint-free constraints of
    /// `project`. `parsed` must be the parse of `project`.
    pub fn build(project: &'p Project, parsed: &aji_parser::ParsedProject) -> Self {
        let res = {
            let _s = aji_obs::span("resolve-scopes");
            scopes::resolve(&parsed.modules)
        };
        let paths: Vec<String> = project.files.iter().map(|f| f.path.clone()).collect();
        let _s = aji_obs::span("generate");
        let GenOutput {
            solver,
            dyn_reads,
            dyn_writes,
            funcs_by_loc,
            objs_by_loc,
        } = generate(&parsed.modules, &parsed.source_map, &res, paths);
        ConstraintGraph {
            project,
            solver,
            dyn_reads,
            dyn_writes,
            funcs_by_loc,
            objs_by_loc,
            applied: AnalysisOptions::baseline(),
            hints_applied: 0,
        }
    }

    /// Applies the hint rules `opts` enables that are not applied yet,
    /// solves to the new fixpoint and extracts the call graph.
    ///
    /// With `hints == None` no rule is applied (and none is marked
    /// applied). Every call on one graph must pass the same hint set.
    /// `analysis_seconds` covers this call only; `solver_stats` and
    /// `hints_applied` are totals over the graph's life.
    ///
    /// # Panics
    ///
    /// If `opts` disables a rule an earlier call applied: a graph only
    /// grows, so it cannot be narrowed to a smaller configuration.
    pub fn extend(&mut self, hints: Option<&Hints>, opts: &AnalysisOptions) -> Analysis {
        let start = Instant::now();
        {
            let _s = aji_obs::span("apply-hints");
            if let Some(h) = hints {
                self.apply_hints(h, opts);
            }
        }
        {
            let _s = aji_obs::span("solve");
            self.solver.solve();
        }
        let call_graph = {
            let _s = aji_obs::span("extract-cg");
            extract(&self.solver, self.project)
        };
        let stats = &self.solver.stats;
        aji_obs::counter_add("pta.cells", stats.cells as u64);
        aji_obs::counter_add("pta.tokens", stats.tokens as u64);
        aji_obs::counter_add("pta.call_edges", call_graph.edge_count() as u64);
        aji_obs::counter_add("pta.hints_applied", self.hints_applied as u64);
        Analysis {
            call_graph,
            solver_stats: stats.clone(),
            analysis_seconds: start.elapsed().as_secs_f64(),
            hints_applied: self.hints_applied,
        }
    }

    fn apply_hints(&mut self, h: &Hints, opts: &AnalysisOptions) {
        let was = self.applied;
        for (name, before, now) in [
            ("read", was.use_read_hints, opts.use_read_hints),
            ("write", was.use_write_hints, opts.use_write_hints),
            ("module", was.use_module_hints, opts.use_module_hints),
            (
                "non-relational",
                was.nonrelational_writes,
                opts.nonrelational_writes,
            ),
            (
                "proxy-read",
                was.use_proxy_read_hints,
                opts.use_proxy_read_hints,
            ),
        ] {
            assert!(
                now || !before,
                "{name} hints are already applied to this constraint graph"
            );
        }
        self.applied = *opts;
        let solver = &mut self.solver;
        // Flight-recorder sink, fetched once: one `HintApply` event per rule
        // application, named by the rule and detailed by the property (or
        // location/path) it injected. Hint maps iterate in `BTreeMap` order,
        // so the event stream is deterministic.
        let rec = aji_obs::trace_recorder();
        // Hint locations resolve to function tokens first, then to known
        // (or freshly minted) object allocation-site tokens. Line-0
        // sentinel locations denote module `exports` / `module` objects
        // (see the interpreter's module loader).
        let (funcs_by_loc, objs_by_loc) = (&self.funcs_by_loc, &self.objs_by_loc);
        let token_at = |solver: &mut Solver, loc: Loc| {
            if loc.line == 0 {
                return if loc.col == 0 {
                    solver.token(TokenData::Exports(loc.file))
                } else {
                    solver.token(TokenData::ModuleObj(loc.file))
                };
            }
            if let Some(owner) = loc.prototype_owner() {
                if let Some(f) = funcs_by_loc.get(&owner) {
                    return solver.token(TokenData::Proto(*f));
                }
                return solver.token(TokenData::Obj(loc));
            }
            if let Some(f) = funcs_by_loc.get(&loc) {
                solver.token(TokenData::Func(*f))
            } else if let Some(t) = objs_by_loc.get(&loc) {
                *t
            } else {
                solver.token(TokenData::Obj(loc))
            }
        };
        if opts.use_write_hints && !was.use_write_hints && !rule_ablated("dpw") {
            // [DPW]: t_{ℓ''} ∈ ⟦t_ℓ.p⟧
            for w in &h.writes {
                let t_obj = token_at(solver, w.obj);
                let t_val = token_at(solver, w.value);
                let prop = solver.interner.intern(&w.prop);
                let field = solver.cell(CellKind::Field(t_obj, prop));
                solver.add_token(field, t_val);
                self.hints_applied += 1;
                if let Some(rec) = &rec {
                    rec.record(aji_obs::TraceKind::HintApply, "dpw", &w.prop);
                }
            }
        }
        if opts.use_read_hints && !was.use_read_hints {
            // [DPR]: t_{ℓ'} ∈ ⟦E[E']⟧
            for (op, locs) in &h.reads {
                let Some((_, cell)) = self.dyn_reads.get(op) else {
                    continue;
                };
                for l in locs {
                    let t = token_at(solver, *l);
                    solver.add_token(*cell, t);
                    self.hints_applied += 1;
                    if let Some(rec) = &rec {
                        rec.record(aji_obs::TraceKind::HintApply, "dpr", &l.to_string());
                    }
                }
            }
        }
        if opts.nonrelational_writes && !was.nonrelational_writes {
            // §4's discussed alternative: every observed name at a write
            // site becomes a static write of the site's value expression
            // into that property of *all* base objects.
            for (site, props) in &h.write_props {
                let Some((base, value)) = self.dyn_writes.get(site) else {
                    continue;
                };
                for p in props {
                    let prop = solver.interner.intern(p);
                    solver.add_constraint(*base, Constraint::Store { prop, src: *value });
                    self.hints_applied += 1;
                    if let Some(rec) = &rec {
                        rec.record(aji_obs::TraceKind::HintApply, "nonrel-write", p);
                    }
                }
            }
        }
        if opts.use_proxy_read_hints && !was.use_proxy_read_hints {
            // §6 extension: only where no ordinary read hints exist.
            for (site, props) in &h.proxy_reads {
                if h.reads.contains_key(site) {
                    continue;
                }
                let Some((base, result)) = self.dyn_reads.get(site) else {
                    continue;
                };
                for p in props {
                    let prop = solver.interner.intern(p);
                    solver.add_constraint(*base, Constraint::Load { prop, dst: *result });
                    self.hints_applied += 1;
                    if let Some(rec) = &rec {
                        rec.record(aji_obs::TraceKind::HintApply, "proxy-read", p);
                    }
                }
            }
        }
        if opts.use_module_hints && !was.use_module_hints {
            for (site, paths) in &h.modules {
                self.hints_applied += paths.len();
                if let Some(rec) = &rec {
                    for p in paths {
                        rec.record(aji_obs::TraceKind::HintApply, "module", p);
                    }
                }
                solver.add_module_hint(*site, paths.iter().cloned().collect());
            }
        }
    }
}
