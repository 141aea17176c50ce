//! The §3 worklist algorithm: force-execute modules and discovered
//! function values, collecting hints through the interpreter's tracer.

use crate::hints::Hints;
use aji_ast::{Loc, NodeId, Project};
use aji_interp::tracer::Tracer;
use aji_interp::{Interp, InterpOptions, JsError, Value};
use aji_support::hash::{FxHashMap, FxHashSet};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

/// Options for approximate interpretation.
#[derive(Debug, Clone)]
pub struct ApproxOptions {
    /// Interpreter budgets. `approx` is forced on.
    pub interp: InterpOptions,
}

impl Default for ApproxOptions {
    fn default() -> Self {
        ApproxOptions {
            interp: InterpOptions::approx_defaults(),
        }
    }
}

impl ApproxOptions {
    /// Folds every field that can change the produced hint set into `h` —
    /// the cache-key contribution the `aji serve` hint store uses, so a
    /// persisted hint set is only ever reused under the exact options
    /// that computed it.
    pub fn fingerprint_into(&self, h: &mut aji_support::Fnv64) {
        self.interp.fingerprint_into(h);
    }
}

/// Statistics about one pre-analysis run (§5 reports function coverage and
/// running times).
#[derive(Debug, Clone, Default)]
pub struct ApproxStats {
    /// Function definitions in the project (static count).
    pub functions_total: usize,
    /// Function definitions executed by the worklist.
    pub functions_visited: usize,
    /// Worklist items processed.
    pub items_processed: usize,
    /// Items that ended with a caught error (exception or budget).
    pub items_aborted: usize,
    /// Total interpreter steps across all items.
    pub total_steps: u64,
}

impl ApproxStats {
    /// Fraction of function definitions visited (the paper reports 60% on
    /// its benchmarks).
    pub fn coverage(&self) -> f64 {
        if self.functions_total == 0 {
            return 1.0;
        }
        self.functions_visited as f64 / self.functions_total as f64
    }
}

/// Result of approximate interpretation.
#[derive(Debug)]
pub struct ApproxResult {
    /// The collected hints (`H_R`, `H_W`, module hints).
    pub hints: Hints,
    /// Function definitions that were executed.
    pub visited: BTreeSet<NodeId>,
    /// Run statistics.
    pub stats: ApproxStats,
}

/// Shared state between the worklist driver and the interpreter's tracer.
#[derive(Default)]
struct ApproxState {
    hints: Hints,
    /// Function definitions already executed (the paper's `Visited`).
    visited: BTreeSet<NodeId>,
    /// Function definitions currently queued.
    queued: BTreeSet<NodeId>,
    /// Newly discovered function values, drained by the driver after each
    /// item.
    discovered: Vec<(NodeId, Value)>,
    /// The paper's `this` map: function object → receiver observed at a
    /// static property write.
    this_map: FxHashMap<aji_interp::ObjId, Value>,
}

impl Tracer for ApproxState {
    fn on_function_def(&mut self, def: NodeId, _loc: Option<Loc>, value: &Value) {
        if !self.visited.contains(&def) && self.queued.insert(def) {
            self.discovered.push((def, value.clone()));
        }
    }

    fn on_call(&mut self, _call_site: Option<Loc>, callee_def: NodeId, _callee_loc: Option<Loc>) {
        // "Before entering the function body, v is added to Visited and
        // removed from Worklist."
        self.visited.insert(callee_def);
        self.queued.remove(&callee_def);
    }

    fn on_dynamic_read(&mut self, op_loc: Loc, _result: &Value, result_loc: Option<Loc>) {
        if let Some(l) = result_loc {
            self.hints.add_read(op_loc, l);
        }
    }

    fn on_dynamic_write(
        &mut self,
        op_loc: Option<Loc>,
        obj_loc: Option<Loc>,
        prop: &str,
        value_loc: Option<Loc>,
        _value: &Value,
    ) {
        if let (Some(o), Some(v)) = (obj_loc, value_loc) {
            self.hints.add_write(o, prop, v);
        }
        if let Some(site) = op_loc {
            self.hints.add_write_prop(site, prop);
        }
    }

    fn on_proxy_base_read(&mut self, op_loc: Loc, key: &str) {
        self.hints.add_proxy_read(op_loc, key);
    }

    fn on_static_write(&mut self, obj: &Value, prop: &str, value: &Value) {
        let _ = prop;
        // this(o') := o, if not already defined (§3). Recording every
        // object-valued write is harmless: only function values are ever
        // looked up.
        if let (Some(fid), Some(_)) = (value.as_obj(), obj.as_obj()) {
            self.this_map.entry(fid).or_insert_with(|| obj.clone());
        }
    }

    fn on_require(&mut self, site: Loc, _name: &str, resolved: Option<&str>) {
        if let Some(path) = resolved {
            self.hints.add_module(site, path);
        }
    }
}

/// One worklist item: a module (by path) or a discovered function value.
enum Item {
    Module(String),
    Function(NodeId, Value),
}

/// Observability counters of the worklist driver (all no-ops when
/// `aji-obs` is inactive).
#[derive(Default)]
struct WorklistObs {
    iterations: aji_obs::Counter,
    modules: aji_obs::Counter,
    functions: aji_obs::Counter,
    aborted: aji_obs::Counter,
    read_hints: aji_obs::Counter,
    write_hints: aji_obs::Counter,
    module_hints: aji_obs::Counter,
}

impl WorklistObs {
    fn bind() -> WorklistObs {
        WorklistObs {
            iterations: aji_obs::counter("approx.iterations"),
            modules: aji_obs::counter("approx.modules_processed"),
            functions: aji_obs::counter("approx.functions_processed"),
            aborted: aji_obs::counter("approx.items_aborted"),
            read_hints: aji_obs::counter("approx.read_hints"),
            write_hints: aji_obs::counter("approx.write_hints"),
            module_hints: aji_obs::counter("approx.module_hints"),
        }
    }

    /// Records how many hints of each kind one worklist item discovered.
    fn record_hint_deltas(&self, before: (usize, usize, usize), after: (usize, usize, usize)) {
        let reads = (after.0 - before.0) as u64;
        let writes = (after.1 - before.1) as u64;
        let modules = (after.2 - before.2) as u64;
        self.read_hints.add(reads);
        self.write_hints.add(writes);
        self.module_hints.add(modules);
        aji_obs::histogram_record("approx.hints_per_item", reads + writes + modules);
    }
}

/// (read, write, module) hint counts currently collected.
fn hint_counts(state: &Rc<RefCell<ApproxState>>) -> (usize, usize, usize) {
    let st = state.borrow();
    (
        st.hints.reads.values().map(|s| s.len()).sum(),
        st.hints.writes.len(),
        st.hints.modules.values().map(|s| s.len()).sum(),
    )
}

/// Runs approximate interpretation on a project.
///
/// Parses the project first; callers that already hold a
/// [`aji_parser::ParsedProject`] should use
/// [`approximate_interpret_parsed`] to avoid the re-parse.
///
/// # Errors
///
/// Returns a parse error if any project file fails to parse. Runtime
/// errors inside individual worklist items are *not* errors of the
/// analysis: they abort the item and are counted in
/// [`ApproxStats::items_aborted`].
pub fn approximate_interpret(
    project: &Project,
    opts: &ApproxOptions,
) -> Result<ApproxResult, aji_parser::ParseError> {
    let parsed = aji_parser::parse_project(project)?;
    Ok(approximate_interpret_parsed(project, &parsed, opts))
}

/// [`approximate_interpret`] over an already-parsed project.
///
/// Infallible: parsing is the pre-analysis' only failure mode, and the
/// caller has already parsed. `parsed` must be the parse of `project`.
pub fn approximate_interpret_parsed(
    project: &Project,
    parsed: &aji_parser::ParsedProject,
    opts: &ApproxOptions,
) -> ApproxResult {
    let _span = aji_obs::span("worklist");
    let obs = WorklistObs::bind();
    let state = Rc::new(RefCell::new(ApproxState::default()));
    let mut interp_opts = opts.interp.clone();
    interp_opts.approx = true;
    let mut interp = Interp::with_parsed(project, parsed, interp_opts, Box::new(state.clone()));

    let project_functions = parsed_function_ids(parsed);
    let functions_total = project_functions.len();

    // Seed the worklist with every module of the main package (the
    // paper's "each application-code module"), main module first. The
    // test driver is deliberately excluded: unlike the dynamic call
    // graphs used as ground truth, the pre-analysis must not rely on
    // existing test suites (§1 of the paper — it is fully automatic).
    let driver = project.test_driver.clone().unwrap_or_default();
    let mut worklist: VecDeque<Item> = VecDeque::new();
    worklist.push_back(Item::Module(project.main.clone()));
    for p in project.main_package_paths() {
        if p != project.main && p != driver && p.ends_with(".js") {
            worklist.push_back(Item::Module(p.to_string()));
        }
    }

    let mut stats = ApproxStats {
        functions_total,
        ..ApproxStats::default()
    };

    loop {
        // Pull in functions discovered during the previous item.
        {
            let mut st = state.borrow_mut();
            let discovered = std::mem::take(&mut st.discovered);
            drop(st);
            for (def, value) in discovered {
                worklist.push_back(Item::Function(def, value));
            }
        }
        let Some(item) = worklist.pop_front() else {
            break;
        };
        stats.items_processed += 1;
        interp.reset_steps();
        // Hint counting walks the collected maps — only pay for it when
        // observability is actually recording.
        let hints_before = obs.iterations.is_live().then(|| hint_counts(&state));
        let outcome: Result<(), JsError> = match item {
            Item::Module(path) => {
                obs.modules.inc();
                interp.run_module(&path).map(|_| ())
            }
            Item::Function(def, value) => {
                let already_visited = {
                    let st = state.borrow();
                    st.visited.contains(&def)
                };
                if already_visited {
                    stats.items_processed -= 1;
                    continue;
                }
                obs.functions.inc();
                run_function_item(&mut interp, &state, def, value)
            }
        };
        obs.iterations.inc();
        if let Some(before) = hints_before {
            obs.record_hint_deltas(before, hint_counts(&state));
        }
        stats.total_steps += interp.steps();
        if outcome.is_err() {
            obs.aborted.inc();
            stats.items_aborted += 1;
        }
    }

    let st = Rc::try_unwrap(state)
        .map(RefCell::into_inner)
        .unwrap_or_else(|rc| {
            let borrowed = rc.borrow();
            ApproxState {
                hints: borrowed.hints.clone(),
                visited: borrowed.visited.clone(),
                queued: BTreeSet::new(),
                discovered: Vec::new(),
                this_map: FxHashMap::default(),
            }
        });
    // `visited` also holds prelude, `eval` and `Function` code; coverage
    // counts only the project's own definitions.
    stats.functions_visited = st
        .visited
        .iter()
        .filter(|id| project_functions.contains(id))
        .count();
    ApproxResult {
        hints: st.hints,
        visited: st.visited,
        stats,
    }
}

/// Executes one discovered function value: `f.apply(w, p*)` where `w` is
/// the recorded receiver (wrapped to delegate absent properties to `p*`)
/// or `p*` itself.
fn run_function_item(
    interp: &mut Interp,
    state: &Rc<RefCell<ApproxState>>,
    _def: NodeId,
    value: Value,
) -> Result<(), JsError> {
    let this = {
        let st = state.borrow();
        value.as_obj().and_then(|id| st.this_map.get(&id).cloned())
    };
    let this = match this {
        Some(Value::Obj(base)) => interp.make_this_wrapper(base),
        _ => interp.proxy_value(),
    };
    // Bind every declared parameter (and `arguments`) to p*.
    let n_params = interp.param_count(&value).unwrap_or(0);
    let proxy = interp.proxy_value();
    let args = vec![proxy; n_params.max(1)];
    interp.call_function(value, this, &args).map(|_| ())
}

/// The function definitions across a parsed project's modules (the
/// universe of the coverage statistic).
fn parsed_function_ids(parsed: &aji_parser::ParsedProject) -> FxHashSet<NodeId> {
    use aji_ast::visit::{FunctionCollector, Visit};
    let mut c = FunctionCollector::default();
    for m in &parsed.modules {
        c.visit_module(m);
    }
    c.functions.into_iter().map(|(id, _, _)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn project_with(src: &str) -> Project {
        let mut p = Project::new("t");
        p.add_file("index.js", src);
        p
    }

    #[test]
    fn collects_write_hints_from_method_table() {
        let p = project_with(
            "var api = {};\n\
             ['get', 'post', 'put'].forEach(function(m) {\n\
             api[m] = function() { return m; };\n\
             });\n\
             module.exports = api;",
        );
        let r = approximate_interpret(&p, &ApproxOptions::default()).unwrap();
        assert_eq!(r.hints.writes.len(), 3);
        let props: Vec<&str> = r.hints.writes.iter().map(|w| w.prop.as_str()).collect();
        assert_eq!(props, vec!["get", "post", "put"]);
    }

    #[test]
    fn collects_read_hints() {
        let p = project_with(
            "var table = { handler: function() { return 1; } };\n\
             var k = 'handler';\n\
             var f = table[k];\n\
             f();",
        );
        let r = approximate_interpret(&p, &ApproxOptions::default()).unwrap();
        assert_eq!(r.hints.reads.len(), 1);
    }

    #[test]
    fn executes_unreached_functions_with_proxy_args() {
        // `installer` is never called by the module; the worklist must
        // force-execute it and observe its dynamic write.
        let p = project_with(
            "var target = {};\n\
             function installer(name) {\n\
             target[name] = function() {};\n\
             }\n\
             module.exports = installer;",
        );
        let r = approximate_interpret(&p, &ApproxOptions::default()).unwrap();
        // The write key is the proxy, so no hint is recorded for it — but
        // the function must have been visited.
        assert!(r.stats.functions_visited >= 1);
    }

    #[test]
    fn function_definitions_run_at_most_once() {
        let p = project_with(
            "var count = 0;\n\
             function f() { count++; }\n\
             f(); f(); f();",
        );
        let r = approximate_interpret(&p, &ApproxOptions::default()).unwrap();
        // f was called during module init, so the worklist must not run it
        // again: visited contains it already.
        assert!(r.stats.items_processed <= 3);
        assert!(!r.visited.is_empty());
    }

    #[test]
    fn module_hints_for_dynamic_require() {
        let mut p = Project::new("t");
        p.add_file(
            "index.js",
            "var which = 'en';\n\
             var lang = require('./langs/' + which);\n\
             module.exports = lang;",
        );
        p.add_file("langs/en.js", "module.exports = { hello: 'hello' };");
        let r = approximate_interpret(&p, &ApproxOptions::default()).unwrap();
        let all: Vec<String> = r
            .hints
            .modules
            .values()
            .flat_map(|s| s.iter().cloned())
            .collect();
        assert!(all.contains(&"langs/en.js".to_string()));
    }

    #[test]
    fn aborted_items_do_not_kill_analysis() {
        let p = project_with(
            "function boom() { throw new Error('x'); }\n\
             var api = {};\n\
             api['late'] = function() {};\n\
             module.exports = { boom: boom, api: api };",
        );
        let r = approximate_interpret(&p, &ApproxOptions::default()).unwrap();
        assert!(!r.hints.writes.is_empty());
    }

    #[test]
    fn this_map_used_for_method_receivers() {
        // `helper` is assigned to `obj.run` (static write). When the
        // worklist later force-executes `helper`, `this` must be a wrapper
        // over `obj`, so `this.table[k]` observes obj's real table and the
        // read hint records the function's allocation site.
        let p = project_with(
            "var obj = { table: { x: function target() {} } };\n\
             obj.run = function helper(k) {\n\
             var f = this.table['x'];\n\
             return f;\n\
             };\n\
             module.exports = obj;",
        );
        let r = approximate_interpret(&p, &ApproxOptions::default()).unwrap();
        assert_eq!(r.hints.reads.len(), 1, "hints: {:?}", r.hints);
    }

    #[test]
    fn stats_coverage() {
        // Prelude (`events`) and `eval` functions run too, but coverage
        // counts only the project's own definitions.
        let p = project_with(
            "var EventEmitter = require('events');\n\
             var e = new EventEmitter();\n\
             e.on('x', function a() {});\n\
             e.emit('x');\n\
             eval('(function c() {})')();\n\
             function b() {}",
        );
        let r = approximate_interpret(&p, &ApproxOptions::default()).unwrap();
        assert_eq!(r.stats.functions_total, 2);
        assert!(r.visited.len() > 2, "prelude and eval code ran too");
        assert!(r.stats.functions_visited <= r.stats.functions_total);
        assert_eq!(r.stats.functions_visited, 2);
        assert_eq!(r.stats.coverage(), 1.0);
    }

    #[test]
    fn eval_code_produces_hints_without_alloc_sites() {
        // Dynamic writes inside eval'd code where both objects come from
        // static code still produce hints (§3).
        let p = project_with(
            "var target = {};\n\
             var fn = function handler() {};\n\
             eval('target[\"k\"] = fn;');\n\
             module.exports = target;",
        );
        let r = approximate_interpret(&p, &ApproxOptions::default()).unwrap();
        assert_eq!(r.hints.writes.len(), 1);
        let w = r.hints.writes.iter().next().unwrap();
        assert_eq!(w.prop, "k");
    }
}
