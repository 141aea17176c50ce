//! Root-cause triage for missed call edges.
//!
//! For every dynamic edge the hint-augmented analysis failed to find, the
//! triage pass inspects the AST around the call site and the hint sets the
//! approximate interpretation produced, and assigns one [`Cause`] — the
//! edge-level analogue of the root-cause quantification of Chakraborty et
//! al. for JavaScript call graphs, specialised to the idioms this
//! reproduction models.
//!
//! The classification is a fixed precedence chain (first match wins), so
//! two runs over the same project always agree:
//!
//! 1. the call site reads a **computed property** → a read-side cause:
//!    [`Cause::DynamicRead`] when a read hint names the callee (a genuine
//!    \[DPR\] failure) or when no hint recovered it, and
//!    [`Cause::HigherOrderProxy`] when the key came from a caller-supplied
//!    parameter or was read off the proxy `p*` during forced execution;
//! 2. the callee is the **value of a recorded write hint** →
//!    [`Cause::DynamicWrite`] (a genuine \[DPW\] failure — the hint exists
//!    but the rule did not land the edge);
//! 3. an **`eval` call** appears in the site's or the callee's file →
//!    [`Cause::EvalApi`];
//! 4. a **dynamic `require`** appears in the site's file, or the callee's
//!    module is not reachable in the extended call graph →
//!    [`Cause::DynamicRequire`];
//! 5. the callee was **never forced-executed** by the approximate
//!    interpretation → [`Cause::BudgetExhausted`];
//! 6. otherwise [`Cause::Unknown`].
//!
//! Each [`MissedEdge`] also carries [`MissedEdge::hint_covered`]: whether
//! a hint *already names the callee* for that edge, i.e. whether the
//! extended analysis had everything it needed and still missed. Those are
//! the unsoundness regressions the fuzzer flags; the other causes are the
//! documented limits of the approach (proxy-dependent keys, coverage).

use aji_approx::{ApproxResult, Hints, WriteHint};
use aji_ast::ast::{Expr, ExprKind, Function, MemberProp, Pattern, PatternKind};
use aji_ast::visit::{walk_expr, walk_function, FunctionCollector, Visit};
use aji_ast::{FileId, Loc, NodeId, SourceMap};
use aji_parser::ParsedProject;
use aji_pta::CallGraph;
use aji_support::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Why the extended analysis missed a dynamically observed call edge.
///
/// Variants are ordered by triage precedence (see the module docs); the
/// [`Cause::key`] strings are the stable names used in JSON reports and
/// histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cause {
    /// Call through a computed property read that no read hint recovered.
    DynamicRead,
    /// Callee installed by a dynamic property write that \[DPW\] failed to
    /// apply (the write hint exists).
    DynamicWrite,
    /// An `eval`-built API near the edge is invisible to the static
    /// subset.
    EvalApi,
    /// The callee's module is only loadable through a dynamic `require`.
    DynamicRequire,
    /// The computed key came from a caller-supplied parameter — it was the
    /// proxy `p*` during forced execution, so no concrete hint exists.
    HigherOrderProxy,
    /// The callee was never forced-executed (worklist budget or coverage
    /// gap), so no hint could mention it.
    BudgetExhausted,
    /// No triage rule matched.
    Unknown,
}

impl Cause {
    /// The stable report/histogram name of this cause.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Cause::DynamicRead => "dynamic-read",
            Cause::DynamicWrite => "dynamic-write",
            Cause::EvalApi => "eval-api",
            Cause::DynamicRequire => "dynamic-require",
            Cause::HigherOrderProxy => "higher-order-proxy",
            Cause::BudgetExhausted => "budget-exhausted",
            Cause::Unknown => "unknown",
        }
    }

    /// Every cause, in a fixed presentation order (histograms list all of
    /// them so reports from different projects align).
    #[must_use]
    pub fn all() -> [Cause; 7] {
        [
            Cause::DynamicRead,
            Cause::DynamicWrite,
            Cause::EvalApi,
            Cause::DynamicRequire,
            Cause::HigherOrderProxy,
            Cause::BudgetExhausted,
            Cause::Unknown,
        ]
    }
}

/// One triaged missed edge: a dynamic call edge absent from the extended
/// (hint-augmented) call graph, with its classified root cause.
#[derive(Debug, Clone)]
pub struct MissedEdge {
    /// Call-site location.
    pub site: Loc,
    /// Callee definition location.
    pub callee: Loc,
    /// `path:line:col` rendering of the site.
    pub site_display: String,
    /// `path:line:col` rendering of the callee.
    pub callee_display: String,
    /// Classified root cause.
    pub cause: Cause,
    /// Whether a hint already names the callee for this edge — `true`
    /// means the extended analysis had the information and still missed,
    /// i.e. an unsoundness regression rather than a documented limit.
    pub hint_covered: bool,
    /// Human-readable one-line explanation.
    pub detail: String,
}

impl MissedEdge {
    /// Serializes the edge for the deterministic JSON report.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("site", Json::Str(self.site_display.clone())),
            ("callee", Json::Str(self.callee_display.clone())),
            ("cause", Json::Str(self.cause.key().to_string())),
            ("hint_covered", Json::Bool(self.hint_covered)),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }
}

/// A computed-member call site, as found by the AST scan.
struct ComputedSite {
    /// Location of the member expression (the key of `H_R` read hints).
    member_loc: Loc,
    /// Whether the key expression references an enclosing function
    /// parameter.
    param_dependent: bool,
}

/// Everything the classifier needs to know about the project's AST.
#[derive(Default)]
struct SiteIndex {
    /// Call-expression location → computed-site facts.
    computed: BTreeMap<Loc, ComputedSite>,
    /// Call-expression location → property name, for static member calls
    /// `E.p(...)` — the shape whose callee cell a \[DPW\]-seeded field
    /// token reaches directly.
    static_member: BTreeMap<Loc, String>,
    /// Files containing a direct `eval(...)` call.
    eval_files: BTreeSet<FileId>,
    /// Files containing a `require(E)` whose argument is not a string
    /// literal.
    dyn_require_files: BTreeSet<FileId>,
    /// Function definition location → node id (for coverage lookups).
    funcs: BTreeMap<Loc, NodeId>,
}

/// Collects identifier names appearing anywhere in a pattern.
fn pattern_names(p: &Pattern, out: &mut BTreeSet<String>) {
    match &p.kind {
        PatternKind::Ident(n) => {
            out.insert(n.clone());
        }
        PatternKind::Array { elems, rest } => {
            for el in elems.iter().flatten() {
                pattern_names(el, out);
            }
            if let Some(r) = rest {
                pattern_names(r, out);
            }
        }
        PatternKind::Object { props, rest } => {
            for pr in props {
                pattern_names(&pr.value, out);
            }
            if let Some(r) = rest {
                pattern_names(r, out);
            }
        }
        PatternKind::Assign { pat, .. } => pattern_names(pat, out),
    }
}

/// Collects identifier names appearing anywhere in an expression.
struct IdentCollector(BTreeSet<String>);

impl Visit for IdentCollector {
    fn visit_expr(&mut self, e: &Expr) {
        if let ExprKind::Ident(n) = &e.kind {
            self.0.insert(n.clone());
        }
        walk_expr(self, e);
    }
}

/// The AST scan behind [`SiteIndex`]: walks one module tracking the
/// enclosing functions' parameter names.
struct IndexBuilder<'a> {
    sm: &'a SourceMap,
    file: FileId,
    params: Vec<BTreeSet<String>>,
    out: &'a mut SiteIndex,
}

impl Visit for IndexBuilder<'_> {
    fn visit_function(&mut self, f: &Arc<Function>) {
        let mut names = BTreeSet::new();
        for p in &f.params {
            pattern_names(&p.pat, &mut names);
        }
        if let Some(r) = &f.rest {
            pattern_names(r, &mut names);
        }
        self.params.push(names);
        walk_function(self, f);
        self.params.pop();
    }

    fn visit_expr(&mut self, e: &Expr) {
        if let ExprKind::Call { callee, args, .. } = &e.kind {
            let cu = callee.unparen();
            match &cu.kind {
                ExprKind::Member {
                    prop: MemberProp::Computed(k),
                    ..
                } => {
                    let mut idents = IdentCollector(BTreeSet::new());
                    idents.visit_expr(k);
                    let param_dependent = idents
                        .0
                        .iter()
                        .any(|n| self.params.iter().any(|scope| scope.contains(n)));
                    self.out.computed.insert(
                        self.sm.loc(e.span),
                        ComputedSite {
                            member_loc: self.sm.loc(cu.span),
                            param_dependent,
                        },
                    );
                }
                ExprKind::Member {
                    prop: MemberProp::Static(name),
                    ..
                } => {
                    self.out
                        .static_member
                        .insert(self.sm.loc(e.span), name.clone());
                }
                ExprKind::Ident(n) if n == "eval" => {
                    self.out.eval_files.insert(self.file);
                }
                ExprKind::Ident(n) if n == "require" => {
                    let literal = args
                        .first()
                        .filter(|a| !a.spread)
                        .and_then(|a| a.expr.as_str_lit());
                    if literal.is_none() {
                        self.out.dyn_require_files.insert(self.file);
                    }
                }
                _ => {}
            }
        }
        walk_expr(self, e);
    }
}

fn build_index(parsed: &ParsedProject) -> SiteIndex {
    let mut idx = SiteIndex::default();
    for (i, module) in parsed.modules.iter().enumerate() {
        let file = FileId(i as u32);
        let mut b = IndexBuilder {
            sm: &parsed.source_map,
            file,
            params: Vec::new(),
            out: &mut idx,
        };
        b.visit_module(module);
        let mut fc = FunctionCollector::default();
        fc.visit_module(module);
        for (id, span, _) in fc.functions {
            idx.funcs.insert(parsed.source_map.loc(span), id);
        }
    }
    idx
}

/// Classifies every missed edge (see the module docs for the precedence
/// chain). The result is ordered like `missed` — i.e. by `(site, callee)`
/// location — so reports are deterministic.
#[must_use]
pub fn triage(
    parsed: &ParsedProject,
    hints: &Hints,
    approx: &ApproxResult,
    extended: &CallGraph,
    missed: &BTreeSet<(Loc, Loc)>,
) -> Vec<MissedEdge> {
    let _span = aji_obs::span("oracle-triage");
    let idx = build_index(parsed);
    let sm = &parsed.source_map;

    // Dynamic-write values: callee location → the (first) write hint that
    // installed it. BTreeSet iteration makes "first" deterministic.
    let mut write_values: BTreeMap<Loc, &WriteHint> = BTreeMap::new();
    for w in &hints.writes {
        write_values.entry(w.value).or_insert(w);
    }

    let mut out = Vec::with_capacity(missed.len());
    for &(site, callee) in missed {
        let (cause, hint_covered, detail) =
            classify(site, callee, &idx, hints, approx, extended, &write_values, sm);
        out.push(MissedEdge {
            site,
            callee,
            site_display: sm.display_loc(site),
            callee_display: sm.display_loc(callee),
            cause,
            hint_covered,
            detail,
        });
        aji_obs::counter_add(&format!("oracle.cause.{}", cause.key()), 1);
    }
    out
}

#[allow(clippy::too_many_arguments)] // internal helper of `triage`
fn classify(
    site: Loc,
    callee: Loc,
    idx: &SiteIndex,
    hints: &Hints,
    approx: &ApproxResult,
    extended: &CallGraph,
    write_values: &BTreeMap<Loc, &WriteHint>,
    sm: &SourceMap,
) -> (Cause, bool, String) {
    // 1. Computed-member call sites: read-side causes.
    if let Some(cs) = idx.computed.get(&site) {
        let read_covered = hints
            .reads
            .get(&cs.member_loc)
            .is_some_and(|targets| targets.contains(&callee));
        if read_covered {
            return (
                Cause::DynamicRead,
                true,
                format!(
                    "a read hint at {} names this callee but [DPR] did not land the edge",
                    sm.display_loc(cs.member_loc)
                ),
            );
        }
        if cs.param_dependent {
            return (
                Cause::HigherOrderProxy,
                false,
                "the computed key comes from a caller-supplied parameter, so forced \
                 execution only saw the proxy p*"
                    .to_string(),
            );
        }
        if hints.proxy_reads.contains_key(&cs.member_loc) {
            return (
                Cause::HigherOrderProxy,
                false,
                "forced execution read this key off the proxy; only the §6 proxy-read \
                 extension could recover it"
                    .to_string(),
            );
        }
        return (
            Cause::DynamicRead,
            false,
            "computed property read with no recovering read hint".to_string(),
        );
    }

    // 2. Write-side cause: the callee is a recorded dynamic-write value.
    // The edge counts as hint-covered (a [DPW] regression) only when the
    // call site is a static member call of the written property — the
    // shape whose callee cell the [DPW]-seeded field token reaches.
    // Indirect consumption (a computed read into a local, a re-export)
    // is a read-side limitation, not a write-hint failure.
    if let Some(w) = write_values.get(&callee) {
        let matching = idx.static_member.get(&site).and_then(|p| {
            hints
                .writes
                .iter()
                .find(|w| w.value == callee && &w.prop == p)
        });
        if let Some(w) = matching {
            return (
                Cause::DynamicWrite,
                true,
                format!(
                    "callee was installed by a dynamic write of '{}' on {} and the site \
                     calls '.{}' statically; [DPW] should recover this edge",
                    w.prop,
                    sm.display_loc(w.obj),
                    w.prop
                ),
            );
        }
        return (
            Cause::DynamicWrite,
            false,
            format!(
                "callee was installed by a dynamic write of '{}' on {} but is consumed \
                 through an indirect or computed read the static subset cannot resolve",
                w.prop,
                sm.display_loc(w.obj)
            ),
        );
    }

    // 3. eval-built APIs.
    if idx.eval_files.contains(&site.file) || idx.eval_files.contains(&callee.file) {
        return (
            Cause::EvalApi,
            false,
            "an eval-built API in this file is invisible to the static subset".to_string(),
        );
    }

    // 4. Dynamic require / unreachable module.
    if idx.dyn_require_files.contains(&site.file) {
        return (
            Cause::DynamicRequire,
            false,
            "the site's file loads modules through a dynamic require".to_string(),
        );
    }
    if !extended.reachable_modules.contains(&callee.file) {
        return (
            Cause::DynamicRequire,
            false,
            "the callee's module is not reachable in the extended call graph".to_string(),
        );
    }

    // 5. Forced-execution coverage.
    match idx.funcs.get(&callee) {
        Some(id) if !approx.visited.contains(id) => (
            Cause::BudgetExhausted,
            false,
            format!(
                "callee was never forced-executed (coverage {}/{}, {} worklist items aborted)",
                approx.stats.functions_visited,
                approx.stats.functions_total,
                approx.stats.items_aborted
            ),
        ),
        _ => (
            Cause::Unknown,
            false,
            "no triage rule matched".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aji_ast::Project;

    fn parse(src: &str) -> ParsedProject {
        let mut p = Project::new("t");
        p.add_file("index.js", src);
        aji_parser::parse_project(&p).unwrap()
    }

    #[test]
    fn cause_keys_are_unique_and_stable() {
        let keys: BTreeSet<&str> = Cause::all().iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), Cause::all().len());
        assert!(keys.contains("dynamic-write") && keys.contains("higher-order-proxy"));
    }

    #[test]
    fn index_finds_computed_sites_eval_and_dynamic_require() {
        let parsed = parse(
            r#"function call(obj, name) { return obj[name](); }
var fixed = { k1: function () { return 1; } };
fixed['k' + 1]();
eval('1');
function pick() { return './x'; }
require(pick());
"#,
        );
        let idx = build_index(&parsed);
        assert_eq!(idx.computed.len(), 2, "both computed call sites indexed");
        assert!(
            idx.computed.values().any(|c| c.param_dependent),
            "obj[name]() key comes from a parameter"
        );
        assert!(
            idx.computed.values().any(|c| !c.param_dependent),
            "fixed['k' + 1]() key does not"
        );
        assert!(idx.eval_files.contains(&FileId(0)));
        assert!(idx.dyn_require_files.contains(&FileId(0)));
        assert!(!idx.funcs.is_empty(), "function locations collected");
    }

    #[test]
    fn static_member_calls_are_indexed_by_property() {
        let parsed = parse("var o = { m: function () { return 1; } };\no.m();\n");
        let idx = build_index(&parsed);
        assert!(idx.computed.is_empty());
        assert_eq!(
            idx.static_member.values().collect::<Vec<_>>(),
            vec![&"m".to_string()]
        );
    }

    #[test]
    fn literal_require_is_not_dynamic() {
        let parsed = parse("var x = require('./lib');\n");
        let idx = build_index(&parsed);
        assert!(idx.dyn_require_files.is_empty());
    }
}
