//! Root-cause triage for spurious call edges — the precision-side mirror
//! of [`crate::triage()`].
//!
//! A *spurious* edge is an extended-graph edge at a dynamically exercised
//! call site that the concrete run never took ([`crate::EdgeDiff`]). Every
//! one is a precision cost the analysis paid somewhere; this pass names
//! where. The classification is a fixed precedence chain (first match
//! wins), so two runs over the same project always agree:
//!
//! 1. the site is a static member call named in
//!    [`aji_pta::LISTENER_METHODS`] and the spurious callee is one of the
//!    site's own function-literal arguments → [`SpuriousCause::ListenerModel`]: the
//!    name-based listener-registration model in `aji-pta`'s `method_model`
//!    attributed the future listener invocation to the registration site.
//!    When the receiver's `on` is itself a user function (a pure-JS
//!    emitter) *and* read hints recover the real dispatch loop, the model
//!    edge is pure over-approximation;
//! 2. the site is a static member call with a known stdlib **callback
//!    model** ([`aji_pta::CALLBACK_METHODS`]) and the callee is a function
//!    argument of the site → [`SpuriousCause::CallbackModel`]: the model
//!    fired but the run never invoked that callback (empty receiver,
//!    short-circuit, rejected promise path);
//! 3. the site is a `.call`/`.apply` dispatch →
//!    [`SpuriousCause::DotDispatch`]: the `f.call(..)` model invoked every
//!    function flowing into `f`, not just the one the run picked;
//! 4. the edge is **already in the baseline graph** →
//!    [`SpuriousCause::StaticImprecision`]: plain flow-insensitive
//!    over-approximation (allocation-site merging, polyvariance loss) —
//!    hints played no part;
//! 5. otherwise the edge exists only in the extended graph →
//!    [`SpuriousCause::HintImprecision`]: a hint token's allocation-site
//!    abstraction merged distinct runtime objects, so the hint landed the
//!    real edge *and* this phantom one.
//!
//! Causes 1–3 are deliberate unsoundness-vs-precision trades baked into
//! the static models; 4–5 are the abstraction's intrinsic cost. None is a
//! hint-application bug: a hint-application bug would show up as a
//! [`SpuriousCause::HintImprecision`] edge whose callee token cannot be
//! reached from any recorded hint, and the regression test in
//! `tests/oracle_pipeline.rs` pins the corpus histogram so any such drift
//! is caught.

use aji_ast::ast::{Expr, ExprKind, MemberProp};
use aji_ast::visit::{walk_expr, Visit};
use aji_ast::{Loc, SourceMap};
use aji_parser::ParsedProject;
use aji_pta::{CallGraph, CALLBACK_METHODS, LISTENER_METHODS};
use aji_support::Json;
use std::collections::{BTreeMap, BTreeSet};

/// Why the extended analysis kept a call edge the dynamic run
/// contradicted.
///
/// Variants are ordered by triage precedence (see the module docs); the
/// [`SpuriousCause::key`] strings are the stable names used in JSON
/// reports and histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpuriousCause {
    /// The name-based `on`/`once`/`addListener` registration model
    /// attributed the listener's future invocation to the registration
    /// site.
    ListenerModel,
    /// A stdlib callback model (`forEach`, `then`, …) invoked a callback
    /// the run never called.
    CallbackModel,
    /// The `.call`/`.apply` dispatch model invoked a function the run
    /// never picked.
    DotDispatch,
    /// Baseline over-approximation: the edge needs no hints to appear.
    StaticImprecision,
    /// Extended-only over-approximation: a hint's allocation-site token
    /// merged distinct runtime objects.
    HintImprecision,
}

impl SpuriousCause {
    /// The stable report/histogram name of this cause.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            SpuriousCause::ListenerModel => "listener-model",
            SpuriousCause::CallbackModel => "callback-model",
            SpuriousCause::DotDispatch => "dot-dispatch",
            SpuriousCause::StaticImprecision => "static-imprecision",
            SpuriousCause::HintImprecision => "hint-imprecision",
        }
    }

    /// Every cause, in a fixed presentation order (histograms list all of
    /// them so reports from different projects align).
    #[must_use]
    pub fn all() -> [SpuriousCause; 5] {
        [
            SpuriousCause::ListenerModel,
            SpuriousCause::CallbackModel,
            SpuriousCause::DotDispatch,
            SpuriousCause::StaticImprecision,
            SpuriousCause::HintImprecision,
        ]
    }
}

/// One triaged spurious edge: an extended-graph edge at a dynamically
/// exercised site that the run never took, with its classified cause.
#[derive(Debug, Clone)]
pub struct SpuriousEdge {
    /// Call-site location.
    pub site: Loc,
    /// Callee definition location.
    pub callee: Loc,
    /// `path:line:col` rendering of the site.
    pub site_display: String,
    /// `path:line:col` rendering of the callee.
    pub callee_display: String,
    /// Classified root cause.
    pub cause: SpuriousCause,
    /// Whether the baseline graph already has the edge — `false` means
    /// the hints introduced it.
    pub in_baseline: bool,
    /// Human-readable one-line explanation.
    pub detail: String,
}

impl SpuriousEdge {
    /// Serializes the edge for the deterministic JSON report.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("site", Json::Str(self.site_display.clone())),
            ("callee", Json::Str(self.callee_display.clone())),
            ("cause", Json::Str(self.cause.key().to_string())),
            ("in_baseline", Json::Bool(self.in_baseline)),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }
}

/// Facts about one call expression, keyed by its location.
struct CallInfo {
    /// Static member name of the callee, if `E.p(..)`.
    method: Option<String>,
    /// Locations of function-literal arguments (`function` or arrow).
    fn_args: BTreeSet<Loc>,
}

/// The AST scan: call-site location → [`CallInfo`].
struct CallIndexBuilder<'a> {
    sm: &'a SourceMap,
    out: &'a mut BTreeMap<Loc, CallInfo>,
}

impl Visit for CallIndexBuilder<'_> {
    fn visit_expr(&mut self, e: &Expr) {
        if let ExprKind::Call { callee, args, .. } = &e.kind {
            let method = match &callee.unparen().kind {
                ExprKind::Member {
                    prop: MemberProp::Static(name),
                    ..
                } => Some(name.to_string()),
                _ => None,
            };
            let mut fn_args = BTreeSet::new();
            for a in args {
                let au = a.expr.unparen();
                if matches!(au.kind, ExprKind::Function(_) | ExprKind::Arrow(_)) {
                    fn_args.insert(self.sm.loc(au.span));
                }
            }
            self.out
                .insert(self.sm.loc(e.span), CallInfo { method, fn_args });
        }
        walk_expr(self, e);
    }
}

fn build_call_index(parsed: &ParsedProject) -> BTreeMap<Loc, CallInfo> {
    let mut out = BTreeMap::new();
    for module in &parsed.modules {
        let mut b = CallIndexBuilder {
            sm: &parsed.source_map,
            out: &mut out,
        };
        b.visit_module(module);
    }
    out
}

/// Classifies every spurious edge (see the module docs for the precedence
/// chain). The result is ordered like `spurious` — i.e. by
/// `(site, callee)` location — so reports are deterministic.
#[must_use]
pub fn triage_spurious(
    parsed: &ParsedProject,
    baseline: &CallGraph,
    spurious: &BTreeSet<(Loc, Loc)>,
) -> Vec<SpuriousEdge> {
    let _span = aji_obs::span("oracle-triage-spurious");
    if spurious.is_empty() {
        return Vec::new();
    }
    let calls = build_call_index(parsed);
    let sm = &parsed.source_map;

    let mut out = Vec::with_capacity(spurious.len());
    for &(site, callee) in spurious {
        let in_baseline = baseline.edges.contains(&(site, callee));
        let (cause, detail) = classify(site, callee, &calls, in_baseline);
        out.push(SpuriousEdge {
            site,
            callee,
            site_display: sm.display_loc(site),
            callee_display: sm.display_loc(callee),
            cause,
            in_baseline,
            detail,
        });
        aji_obs::counter_add(&format!("oracle.spurious_cause.{}", cause.key()), 1);
    }
    out
}

fn classify(
    site: Loc,
    callee: Loc,
    calls: &BTreeMap<Loc, CallInfo>,
    in_baseline: bool,
) -> (SpuriousCause, String) {
    if let Some(info) = calls.get(&site) {
        if let Some(m) = &info.method {
            if info.fn_args.contains(&callee) {
                if LISTENER_METHODS.contains(&m.as_str()) {
                    return (
                        SpuriousCause::ListenerModel,
                        format!(
                            "the name-based '.{m}' registration model attributes the \
                             listener's future invocation to the registration site; the \
                             run dispatched it elsewhere"
                        ),
                    );
                }
                if CALLBACK_METHODS.iter().any(|ms| ms.contains(&m.as_str())) {
                    return (
                        SpuriousCause::CallbackModel,
                        format!(
                            "the stdlib '.{m}' callback model invoked this argument, but \
                             the run never called it at this site"
                        ),
                    );
                }
            }
            if m == "call" || m == "apply" {
                return (
                    SpuriousCause::DotDispatch,
                    format!(
                        "the '.{m}' dispatch model invokes every function flowing into \
                         the receiver, not only the one the run picked"
                    ),
                );
            }
        }
    }
    if in_baseline {
        (
            SpuriousCause::StaticImprecision,
            "baseline over-approximation: flow-insensitive points-to keeps this edge \
             without any hint"
                .to_string(),
        )
    } else {
        (
            SpuriousCause::HintImprecision,
            "hint-only edge: a hint token's allocation-site abstraction merged distinct \
             runtime objects"
                .to_string(),
        )
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
        let keys: BTreeSet<&str> = SpuriousCause::all().iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), SpuriousCause::all().len());
        assert!(keys.contains("listener-model") && keys.contains("hint-imprecision"));
    }

    #[test]
    fn call_index_records_methods_and_function_arguments() {
        let parsed = parse(
            "var e = { on: function (n, f) { return f; } };\n\
             e.on('x', function handler() { return 1; });\n\
             plain(function cb() { return 2; });\n",
        );
        let calls = build_call_index(&parsed);
        let on_site = calls
            .values()
            .find(|c| c.method.as_deref() == Some("on"))
            .expect("e.on site indexed");
        assert_eq!(on_site.fn_args.len(), 1, "handler literal recorded");
        let plain = calls
            .values()
            .find(|c| c.method.is_none() && !c.fn_args.is_empty())
            .expect("plain call indexed");
        assert_eq!(plain.fn_args.len(), 1);
    }

    #[test]
    fn listener_model_beats_baseline_fallback() {
        let parsed =
            parse("var e = { on: function (n, f) { return f; } };\ne.on('x', function h() {});\n");
        let calls = build_call_index(&parsed);
        let (&site, info) = calls
            .iter()
            .find(|(_, c)| c.method.as_deref() == Some("on"))
            .unwrap();
        let &callee = info.fn_args.iter().next().unwrap();
        // Even when the edge is in the baseline (the model fires there
        // too), the listener model names the cause.
        let (cause, _) = classify(site, callee, &calls, true);
        assert_eq!(cause, SpuriousCause::ListenerModel);
    }

    #[test]
    fn fallback_splits_on_baseline_membership() {
        let calls = BTreeMap::new();
        let site = Loc {
            file: aji_ast::FileId(0),
            line: 1,
            col: 1,
        };
        let callee = Loc {
            file: aji_ast::FileId(0),
            line: 2,
            col: 1,
        };
        let (c1, _) = classify(site, callee, &calls, true);
        assert_eq!(c1, SpuriousCause::StaticImprecision);
        let (c2, _) = classify(site, callee, &calls, false);
        assert_eq!(c2, SpuriousCause::HintImprecision);
    }
}
