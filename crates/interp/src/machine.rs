//! The interpreter: state, module system, call machinery.
//!
//! Statement execution lives in `stmts.rs`, expression evaluation in
//! `exprs.rs` and property access / conversions in `props.rs`; they are all
//! `impl Interp` blocks over the state defined here.

use crate::builtins::{self, NativeEntry};
use crate::env::{Scope, ScopeKind, ScopeRef};
use crate::error::{BudgetKind, Flow, JsError};
use crate::heap::{FuncData, Heap, ObjKind, Prop};
use crate::obs::InterpObs;
use crate::profile::Profiler;
use crate::registry::FuncRegistry;
use crate::tracer::{NoopTracer, Tracer};
use crate::value::{ObjId, Value};
use aji_ast::ast::{Function, Module};
use aji_ast::{Loc, NodeIdGen, Project, SourceMap, Span};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Tuning knobs for an interpreter instance.
#[derive(Debug, Clone)]
pub struct InterpOptions {
    /// Run with approximate-interpretation semantics: unknown values are
    /// represented by the proxy `p*`, calls on the proxy are no-ops,
    /// unresolved identifiers/modules yield the proxy, and calling a
    /// non-callable yields the proxy instead of throwing.
    pub approx: bool,
    /// Maximum number of evaluation steps before aborting with a budget
    /// error.
    pub max_steps: u64,
    /// Maximum JavaScript call-stack depth.
    pub max_stack: u32,
    /// Maximum iterations of any single loop execution (the paper's
    /// long-running-loop abort).
    pub max_loop_iters: u64,
    /// Emit [`crate::Tracer::on_prop_access`] events for *static* member
    /// reads (and string-keyed computed reads) on plain objects — the feed
    /// of the `aji-quant` statistical property-access finder. Off by
    /// default: the event carries the receiver's own-key shape, which
    /// costs a key walk per read.
    pub observe_props: bool,
}

impl Default for InterpOptions {
    fn default() -> Self {
        InterpOptions {
            approx: false,
            max_steps: 20_000_000,
            max_stack: 64,
            max_loop_iters: 500_000,
            observe_props: false,
        }
    }
}

impl InterpOptions {
    /// The defaults the approximate interpreter uses: proxy semantics on,
    /// tighter budgets (the pre-analysis favors breadth over depth).
    pub fn approx_defaults() -> Self {
        InterpOptions {
            approx: true,
            max_steps: 5_000_000,
            max_stack: 48,
            max_loop_iters: 10_000,
            observe_props: false,
        }
    }

    /// Folds every semantics-affecting field into `h`, so caches keyed on
    /// the digest (the `aji serve` hint store) never serve a result
    /// computed under different budgets or engine settings.
    ///
    /// `observe_props` is deliberately **excluded**: it adds tracer
    /// events but never changes a computed result, so an observing run
    /// may reuse cached analysis answers.
    pub fn fingerprint_into(&self, h: &mut aji_support::Fnv64) {
        h.write_u64(u64::from(self.approx));
        h.write_u64(self.max_steps);
        h.write_u64(u64::from(self.max_stack));
        h.write_u64(self.max_loop_iters);
    }
}

/// Builtin prototype objects.
#[derive(Debug, Clone, Copy)]
pub struct Protos {
    /// `Object.prototype`.
    pub object: ObjId,
    /// `Function.prototype`.
    pub function: ObjId,
    /// `Array.prototype`.
    pub array: ObjId,
    /// String wrapper prototype (methods for string primitives).
    pub string: ObjId,
    /// Number wrapper prototype.
    pub number: ObjId,
    /// Boolean wrapper prototype.
    pub boolean: ObjId,
    /// `Error.prototype`.
    pub error: ObjId,
    /// RegExp prototype.
    pub regexp: ObjId,
    /// Promise prototype.
    pub promise: ObjId,
}

/// A tree-walking JavaScript interpreter over an in-memory [`Project`].
///
/// One instance owns its parse of the project (node ids and source
/// locations are deterministic, so they agree with any other parse of the
/// same project — the static analysis relies on this), its heap, and a
/// [`Tracer`] receiving instrumentation events.
pub struct Interp {
    /// The object heap.
    pub heap: Heap,
    /// Options.
    pub opts: InterpOptions,
    /// Instrumentation sink.
    pub tracer: Box<dyn Tracer>,
    /// Function-definition registry.
    pub registry: FuncRegistry,
    /// Source map: project files first, then prelude/eval files.
    pub source_map: SourceMap,
    /// Console output captured from `console.log` and friends.
    pub console: Vec<String>,
    /// Observability counters (no-op handles when `aji-obs` is inactive).
    pub obs: InterpObs,

    pub(crate) modules: Vec<Rc<Module>>,
    pub(crate) paths: Vec<String>,
    pub(crate) project_file_count: usize,
    pub(crate) global_scope: ScopeRef,
    pub(crate) global_obj: ObjId,
    pub(crate) protos: Protos,
    pub(crate) proxy: ObjId,
    pub(crate) natives: Vec<NativeEntry>,
    pub(crate) module_cache: HashMap<usize, ObjId>,
    pub(crate) builtin_cache: HashMap<String, Value>,
    pub(crate) ids: NodeIdGen,
    pub(crate) steps: u64,
    /// Steps already folded into the `interp.steps` counter; the
    /// remainder is batched in on flush/reset (one atomic add instead of
    /// one per step — the hot path stays counter-free).
    pub(crate) steps_reported: u64,
    pub(crate) depth: u32,
    pub(crate) eval_depth: u32,
    pub(crate) rng: u64,
    pub(crate) current_call_site: Option<Loc>,
    pub(crate) pending_new_loc: Option<Loc>,
    pub(crate) pending_label: Option<String>,
    /// Whether the current run has already recorded a budget exhaustion.
    /// One exhausted run counts exactly once in `obs.budget_exhaustions`,
    /// however many budget errors surface while it unwinds (`finally`
    /// blocks keep executing — and stepping — after an uncatchable
    /// `Budget` error).
    pub(crate) budget_tripped: bool,
    /// Step-attributed hot-function profiler, present only when the
    /// registry active at construction carried a flight recorder with
    /// profiling on. Flushed into that registry when the interpreter
    /// drops (or explicitly via [`Interp::flush_profile`]).
    pub(crate) profiler: Option<Box<Profiler>>,
}

impl Interp {
    /// Parses `project` and builds an interpreter with default options and
    /// no tracer.
    ///
    /// # Errors
    ///
    /// Returns the first parse error in the project.
    pub fn new(project: &Project) -> Result<Interp, aji_parser::ParseError> {
        Interp::with_options(project, InterpOptions::default(), Box::new(NoopTracer))
    }

    /// Parses `project` and builds an interpreter with the given options
    /// and tracer.
    ///
    /// # Errors
    ///
    /// Returns the first parse error in the project.
    pub fn with_options(
        project: &Project,
        opts: InterpOptions,
        tracer: Box<dyn Tracer>,
    ) -> Result<Interp, aji_parser::ParseError> {
        let parsed = aji_parser::parse_project(project)?;
        Ok(Interp::with_parsed(project, &parsed, opts, tracer))
    }

    /// Builds an interpreter over an already-parsed project, sharing the
    /// parse with other pipeline phases (the modules are reference-counted;
    /// only the source map and id generator are cloned, so the interpreter
    /// can extend them with prelude/`eval` files without touching the
    /// caller's copy).
    ///
    /// `parsed` must be the parse of `project` (paths and the test driver
    /// come from `project`).
    pub fn with_parsed(
        project: &Project,
        parsed: &aji_parser::ParsedProject,
        opts: InterpOptions,
        tracer: Box<dyn Tracer>,
    ) -> Interp {
        let parsed = parsed.clone();
        let mut registry = FuncRegistry::new();
        for m in &parsed.modules {
            registry.add_module(m, &parsed.source_map);
        }
        let project_file_count = parsed.source_map.len();
        let mut heap = Heap::new();

        // Placeholder prototype ids; builtins::install fills them in.
        let global_obj = heap.alloc(ObjKind::Plain);
        let proxy = heap.alloc(ObjKind::Proxy);

        let global_scope = Scope::new(ScopeKind::Global, None);
        global_scope.borrow_mut().this_val = Some(Value::Obj(global_obj));

        let obs = InterpObs::bind();
        let profiler = obs
            .recorder
            .as_ref()
            .filter(|r| r.config().profile)
            .map(|_| Box::new(Profiler::new()));
        let mut interp = Interp {
            heap,
            opts,
            tracer,
            registry,
            source_map: parsed.source_map,
            console: Vec::new(),
            obs,
            modules: parsed.modules,
            paths: project.files.iter().map(|f| f.path.clone()).collect(),
            project_file_count,
            global_scope,
            global_obj,
            protos: Protos {
                object: ObjId(0),
                function: ObjId(0),
                array: ObjId(0),
                string: ObjId(0),
                number: ObjId(0),
                boolean: ObjId(0),
                error: ObjId(0),
                regexp: ObjId(0),
                promise: ObjId(0),
            },
            proxy,
            natives: Vec::new(),
            module_cache: HashMap::new(),
            builtin_cache: HashMap::new(),
            ids: parsed.ids,
            steps: 0,
            steps_reported: 0,
            depth: 0,
            eval_depth: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            current_call_site: None,
            pending_new_loc: None,
            pending_label: None,
            budget_tripped: false,
            profiler,
        };
        builtins::install(&mut interp);
        interp
    }

    /// The singleton unknown-value proxy `p*`.
    pub fn proxy_value(&self) -> Value {
        Value::Obj(self.proxy)
    }

    /// The global object.
    pub fn global_object(&self) -> Value {
        Value::Obj(self.global_obj)
    }

    /// The global scope (useful for binding extra test hooks).
    pub fn global_scope(&self) -> ScopeRef {
        self.global_scope.clone()
    }

    /// Number of evaluation steps consumed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Resets the step budget (the approximate interpreter resets it per
    /// worklist item so one long-running module cannot starve the rest).
    pub fn reset_steps(&mut self) {
        // Settle everything owed at the old counter value, then re-base:
        // the batched `interp.steps` delta and the profiler's mark both
        // use delta accounting against `self.steps`.
        self.flush_batched_counters();
        let now = self.steps;
        if let Some(p) = self.profiler.as_deref_mut() {
            p.sync(now);
            p.rebase(0);
        }
        self.steps = 0;
        self.steps_reported = 0;
        self.budget_tripped = false;
    }

    /// Folds the batched step tally into its observability counter.
    /// Called on flush/drop and before any re-basing of `self.steps`; the
    /// hot path only bumps a plain integer.
    fn flush_batched_counters(&mut self) {
        let d = self.steps - self.steps_reported;
        if d > 0 {
            self.obs.steps.add(d);
            self.steps_reported = self.steps;
        }
    }

    /// Raises a budget error, counting the exhaustion once per run: the
    /// first trip increments `obs.budget_exhaustions`; repeat trips while
    /// the same run unwinds (or keeps stepping through `finally` blocks)
    /// reuse the flag and stay silent. [`Interp::reset_steps`] and the
    /// public entry points arm the flag again.
    pub(crate) fn trip_budget(&mut self, kind: BudgetKind) -> JsError {
        if !self.budget_tripped {
            self.budget_tripped = true;
            self.obs.budget_exhaustions.inc();
            let name = match kind {
                BudgetKind::Steps => "steps",
                BudgetKind::Stack => "stack",
                BudgetKind::Loop => "loop",
            };
            self.trace(aji_obs::TraceKind::BudgetTrip, name, "");
        }
        JsError::Budget(kind)
    }

    /// Records a flight-recorder event stamped with the current step
    /// index, when the construction-time registry had a recorder.
    #[cold]
    pub(crate) fn trace(&self, kind: aji_obs::TraceKind, name: &str, detail: &str) {
        if let Some(rec) = &self.obs.recorder {
            rec.record_at(self.steps, kind, name, detail);
        }
    }

    /// Human-readable profile/trace key of a function: `name@file:line`
    /// (`<anon>` for unnamed functions).
    pub(crate) fn fn_display_key(&self, name: Option<&str>, span: Span) -> String {
        let loc = self.source_map.loc(span);
        let file = &self.source_map.file(span.file).path;
        format!("{}@{}:{}", name.unwrap_or("<anon>"), file, loc.line)
    }

    /// Pushes a profiled call frame for `def` (no-op without a profiler).
    #[cold]
    fn profile_enter(&mut self, def: &Arc<Function>) {
        let now = self.steps;
        if let Some(mut p) = self.profiler.take() {
            p.enter(def.id, now, || {
                self.fn_display_key(def.name.as_deref(), def.span)
            });
            self.profiler = Some(p);
        }
    }

    /// Pops the current profiled call frame (no-op without a profiler).
    #[cold]
    fn profile_exit(&mut self) {
        let now = self.steps;
        if let Some(p) = self.profiler.as_deref_mut() {
            p.exit(now);
        }
    }

    /// Flushes the hot-function profile and heap gauge into the registry
    /// bound at construction. Runs automatically on drop; calling it
    /// earlier flushes once and disarms the drop hook.
    pub fn flush_profile(&mut self) {
        self.flush_batched_counters();
        let Some(reg) = self.obs.registry.clone() else {
            return;
        };
        if self.obs.recorder.is_some() {
            reg.gauge_max("interp.peak_heap_objects", self.heap.len() as u64);
        }
        let now = self.steps;
        if let Some(mut p) = self.profiler.take() {
            p.flush(now, &reg);
        }
    }

    /// Creates the receiver wrapper of §3: an object that behaves like
    /// `base` for its known properties but yields the proxy `p*` for
    /// absent ones ("we wrap it into a proxy object that delegates to p*
    /// for absent properties").
    pub fn make_this_wrapper(&mut self, base: ObjId) -> Value {
        let w = self.heap.alloc_plain(Some(base), None);
        self.heap.set_prop(w, "__proxy_fallback__", Value::Bool(true));
        if let Some(p) = self.heap.get_mut(w).props.get_mut("__proxy_fallback__") {
            p.enumerable = false;
        }
        Value::Obj(w)
    }

    /// Allocation site of a value, if it is an object created by
    /// statically known code (the paper's `loc` map).
    pub fn loc_of(&self, v: &Value) -> Option<Loc> {
        v.as_obj().and_then(|id| self.heap.get(id).born_at)
    }

    /// The source location of a span, unless the span belongs to
    /// dynamically generated or prelude code (whose locations must not be
    /// used as allocation sites).
    pub(crate) fn static_loc(&self, span: Span) -> Option<Loc> {
        if self.eval_depth > 0 || span.file.index() >= self.project_file_count {
            None
        } else {
            Some(self.source_map.loc(span))
        }
    }

    #[inline]
    pub(crate) fn step(&mut self) -> Result<(), JsError> {
        self.steps += 1;
        if self.steps > self.opts.max_steps {
            Err(self.trip_budget(BudgetKind::Steps))
        } else {
            Ok(())
        }
    }

    /// Throws a JavaScript `Error` with the given name and message.
    pub fn throw_error(&mut self, name: &str, msg: impl AsRef<str>) -> JsError {
        let obj = self.heap.alloc(ObjKind::Plain);
        self.heap.get_mut(obj).proto = Some(self.protos.error);
        self.heap.set_prop(obj, "name", Value::str(name));
        self.heap.set_prop(obj, "message", Value::str(msg.as_ref()));
        JsError::Thrown(Value::Obj(obj))
    }

    // ----- module system -----

    /// Runs the module at `path` (loading it if needed) and returns its
    /// exports. This is the entry point used for both the main module and
    /// test drivers.
    ///
    /// # Errors
    ///
    /// Returns any uncaught exception, budget exhaustion or missing-module
    /// error.
    pub fn run_module(&mut self, path: &str) -> Result<Value, JsError> {
        self.budget_tripped = false;
        let Some(idx) = self.paths.iter().position(|p| p == path) else {
            return Err(self.throw_error("Error", format!("Cannot find module '{path}'")));
        };
        self.require_index(idx)
    }

    /// Loads a project module by file index, returning `module.exports`.
    pub(crate) fn require_index(&mut self, idx: usize) -> Result<Value, JsError> {
        if let Some(&mobj) = self.module_cache.get(&idx) {
            return Ok(self.exports_of(mobj));
        }
        // Create the module object eagerly so cyclic requires observe the
        // partial exports, as in Node. The sentinel locations (line 0)
        // identify these analysis-relevant objects to the static analysis:
        // hints mentioning them map onto the `Exports`/`ModuleObj` tokens.
        let file = aji_ast::FileId(idx as u32);
        let exports = self
            .heap
            .alloc_plain(Some(self.protos.object), Some(Loc::new(file, 0, 0)));
        let mobj = self
            .heap
            .alloc_plain(Some(self.protos.object), Some(Loc::new(file, 0, 1)));
        self.heap
            .set_prop(mobj, "exports", Value::Obj(exports));
        self.heap
            .set_prop(mobj, "id", Value::str(&self.paths[idx]));
        self.module_cache.insert(idx, mobj);

        let module_rc = self.modules[idx].clone();
        let scope = Scope::new(ScopeKind::Module, Some(self.global_scope.clone()));
        scope.borrow_mut().this_val = Some(Value::Obj(exports));
        {
            let mut s = scope.borrow_mut();
            s.declare("module", Value::Obj(mobj));
            s.declare("exports", Value::Obj(exports));
            let req = self.make_require(idx);
            s.declare("require", req);
            s.declare("__filename", Value::str(&self.paths[idx]));
            let dir = self.paths[idx].rsplit_once('/').map_or("", |(dir, _)| dir);
            s.declare("__dirname", Value::str(dir));
        }
        let result = self.exec_module_body(&module_rc, &scope);
        match result {
            Ok(()) => Ok(self.exports_of(mobj)),
            Err(e) => {
                // Leave the partial exports cached (Node keeps failed
                // modules out of the cache, but keeping them maximizes the
                // information available to the pre-analysis).
                Err(e)
            }
        }
    }

    fn exec_module_body(&mut self, module: &Rc<Module>, scope: &ScopeRef) -> Result<(), JsError> {
        self.hoist(&module.body, scope)?;
        for stmt in &module.body {
            match self.exec_stmt(stmt, scope)? {
                Flow::Normal => {}
                _ => break,
            }
        }
        Ok(())
    }

    pub(crate) fn exports_of(&self, mobj: ObjId) -> Value {
        match self.heap.own_prop(mobj, "exports") {
            Some(p) => match p.value {
                crate::heap::PropValue::Data(v) => v,
                _ => Value::Undefined,
            },
            None => Value::Undefined,
        }
    }

    /// Creates the `require` function for the module at file index `idx`.
    pub(crate) fn make_require(&mut self, idx: usize) -> Value {
        let nid = builtins::native_id(self, "require");
        let f = self.heap.alloc(ObjKind::Native(nid));
        self.heap.get_mut(f).proto = Some(self.protos.function);
        self.heap
            .set_prop(f, "__module_index__", Value::Num(idx as f64));
        // `require.cache`, `require.resolve` are occasionally touched.
        let resolve = builtins::make_native(self, "require_resolve");
        self.heap.set_prop(f, "resolve", resolve);
        Value::Obj(f)
    }

    /// Loads the module named `name` from the module at `from_idx`:
    /// Node core modules first (prelude implementations or sandbox mocks),
    /// then project files. Used by the `require` native.
    pub(crate) fn load_module(
        &mut self,
        from_idx: usize,
        name: &str,
        site: Option<Loc>,
    ) -> Result<Value, JsError> {
        let is_pathy = name.starts_with("./") || name.starts_with("../") || name.starts_with('/');
        if !is_pathy {
            if let Some(v) = self.builtin_cache.get(name) {
                if let Some(s) = site {
                    self.tracer.on_require(s, name, None);
                }
                return Ok(v.clone());
            }
            if let Some(src) = crate::prelude::source(name) {
                let v = self.load_prelude(name, src)?;
                self.builtin_cache.insert(name.to_string(), v.clone());
                if let Some(s) = site {
                    self.tracer.on_require(s, name, None);
                }
                return Ok(v);
            }
            if crate::prelude::is_mocked(name) {
                let v = builtins::make_mock(self, name);
                self.builtin_cache.insert(name.to_string(), v.clone());
                if let Some(s) = site {
                    self.tracer.on_require(s, name, None);
                }
                return Ok(v);
            }
        }
        match aji_ast::resolve_module(&self.paths, from_idx, name) {
            Some(idx) => {
                let path = self.paths[idx].clone();
                if let Some(s) = site {
                    self.tracer.on_require(s, name, Some(&path));
                }
                if path.ends_with(".json") {
                    return self.load_json_module(idx);
                }
                self.require_index(idx)
            }
            None => {
                if let Some(s) = site {
                    self.tracer.on_require(s, name, None);
                }
                if self.opts.approx {
                    Ok(self.proxy_value())
                } else {
                    Err(self.throw_error(
                        "Error",
                        format!("Cannot find module '{name}'"),
                    ))
                }
            }
        }
    }

    /// Executes an embedded core-module implementation.
    fn load_prelude(&mut self, name: &str, src: &'static str) -> Result<Value, JsError> {
        let file = self
            .source_map
            .add_file(format!("<builtin:{name}>"), src);
        let module = aji_parser::parse_module(src, file, &mut self.ids)
            .map_err(|e| JsError::Internal(format!("prelude `{name}` failed to parse: {e}")))?;
        // Register functions without locations: prelude code is not part
        // of the analyzed program, so its definitions must not become
        // allocation sites.
        self.registry.add_module_defs_only(&module);
        let module = Rc::new(module);

        let exports = self.heap.alloc_plain(Some(self.protos.object), None);
        let mobj = self.heap.alloc_plain(Some(self.protos.object), None);
        self.heap.set_prop(mobj, "exports", Value::Obj(exports));
        let scope = Scope::new(ScopeKind::Module, Some(self.global_scope.clone()));
        scope.borrow_mut().this_val = Some(Value::Obj(exports));
        {
            let mut s = scope.borrow_mut();
            s.declare("module", Value::Obj(mobj));
            s.declare("exports", Value::Obj(exports));
            let req = self.make_require(0);
            s.declare("require", req);
            s.declare("__filename", Value::str(format!("<builtin:{name}>")));
            s.declare("__dirname", Value::str("<builtin>"));
        }
        self.exec_module_body(&module, &scope)?;
        Ok(self.exports_of(mobj))
    }

    /// Loads a `.json` project file as data.
    fn load_json_module(&mut self, idx: usize) -> Result<Value, JsError> {
        if let Some(&mobj) = self.module_cache.get(&idx) {
            return Ok(self.exports_of(mobj));
        }
        let text = self.source_map.file(aji_ast::FileId(idx as u32)).src.clone();
        let json = builtins::make_native(self, "json_parse");
        let v = self.call_value(json, Value::Undefined, &[Value::from(text)], None)?;
        let mobj = self.heap.alloc_plain(Some(self.protos.object), None);
        self.heap.set_prop(mobj, "exports", v.clone());
        self.module_cache.insert(idx, mobj);
        Ok(v)
    }

    // ----- calls -----

    /// Calls a value as a function. This is the public entry used by the
    /// approximate interpreter's worklist (`f.apply(w, p*)` in the paper).
    ///
    /// # Errors
    ///
    /// Propagates thrown exceptions and budget exhaustion.
    pub fn call_function(
        &mut self,
        callee: Value,
        this: Value,
        args: &[Value],
    ) -> Result<Value, JsError> {
        self.budget_tripped = false;
        self.obs.forced_calls.inc();
        self.call_value(callee, this, args, None)
    }

    pub(crate) fn call_value(
        &mut self,
        callee: Value,
        this: Value,
        args: &[Value],
        call_site: Option<Loc>,
    ) -> Result<Value, JsError> {
        let Some(id) = callee.as_obj() else {
            if self.opts.approx {
                return Ok(self.proxy_value());
            }
            return Err(self.throw_error(
                "TypeError",
                format!("{} is not a function", callee),
            ));
        };
        let kind = self.heap.get(id).kind.clone();
        match kind {
            ObjKind::Proxy => {
                // Rule 1 of §3: calls on p* are no-ops with p* as result.
                self.obs.proxy_ops.inc();
                Ok(self.proxy_value())
            }
            ObjKind::Native(n) => {
                self.obs.builtin_dispatches.inc();
                // Natives count against the stack budget too: some call
                // back into user code (callbacks, getters, toString).
                self.depth += 1;
                if self.depth > self.opts.max_stack {
                    self.depth -= 1;
                    return Err(self.trip_budget(BudgetKind::Stack));
                }
                let saved_site = self.current_call_site;
                self.current_call_site = call_site;
                let entry = self.natives[n as usize];
                let r = (entry.f)(self, id, this, args);
                self.current_call_site = saved_site;
                self.depth -= 1;
                r
            }
            ObjKind::Function(data) => self.call_closure(id, &data, this, args, call_site),
            _ => {
                if self.opts.approx {
                    Ok(self.proxy_value())
                } else {
                    Err(self.throw_error(
                        "TypeError",
                        format!("{} is not a function", callee),
                    ))
                }
            }
        }
    }

    pub(crate) fn call_closure(
        &mut self,
        fobj: ObjId,
        data: &FuncData,
        this: Value,
        args: &[Value],
        call_site: Option<Loc>,
    ) -> Result<Value, JsError> {
        self.depth += 1;
        if self.depth > self.opts.max_stack {
            self.depth -= 1;
            return Err(self.trip_budget(BudgetKind::Stack));
        }
        self.obs.calls.inc();
        let profiled = self.profiler.is_some();
        if profiled {
            self.profile_enter(&data.def);
        }
        let result = self.call_closure_inner(fobj, data, this, args, call_site);
        if profiled {
            self.profile_exit();
        }
        self.depth -= 1;
        result
    }

    fn call_closure_inner(
        &mut self,
        fobj: ObjId,
        data: &FuncData,
        this: Value,
        args: &[Value],
        call_site: Option<Loc>,
    ) -> Result<Value, JsError> {
        let def = data.def.clone();
        let def_loc = self.registry.loc(def.id);
        self.tracer.on_call(call_site, def.id, def_loc);

        // Assemble the full argument list (bound args from `bind` first).
        let mut all_args: Vec<Value>;
        let args = if data.bound_args.is_empty() {
            args
        } else {
            all_args = data.bound_args.clone();
            all_args.extend_from_slice(args);
            &all_args[..]
        };

        let kind = if def.is_arrow {
            ScopeKind::Arrow
        } else {
            ScopeKind::Function
        };
        let scope = Scope::new(kind, Some(data.env.clone()));
        if !def.is_arrow {
            let effective_this = match &data.bound_this {
                Some(b) => (**b).clone(),
                None => this,
            };
            scope.borrow_mut().this_val = Some(effective_this);
            // `arguments`.
            let args_obj = self.heap.alloc(ObjKind::Array(args.to_vec()));
            self.heap.get_mut(args_obj).proto = Some(self.protos.array);
            scope.borrow_mut().declare("arguments", Value::Obj(args_obj));
        }
        // Named function expressions can refer to themselves.
        if let Some(name) = &def.name {
            scope.borrow_mut().declare(name.as_str(), Value::Obj(fobj));
        }
        // Class plumbing for `super`.
        if let Some(home) = data.home_proto {
            if let Some(sp) = self.heap.get(home).proto {
                scope.borrow_mut().declare("%superproto%", Value::Obj(sp));
            }
        }
        if let Some(sc) = &data.super_ctor {
            scope.borrow_mut().declare("%superctor%", (**sc).clone());
        }

        // Bind parameters.
        for (i, param) in def.params.iter().enumerate() {
            let mut v = args.get(i).cloned().unwrap_or(Value::Undefined);
            if v.is_nullish() {
                if let Some(d) = &param.default {
                    if matches!(v, Value::Undefined) {
                        v = self.eval_expr(d, &scope)?;
                    }
                }
            }
            self.bind_pattern(&param.pat, v, &scope, true)?;
        }
        if let Some(rest) = &def.rest {
            let extra: Vec<Value> = args
                .iter()
                .skip(def.params.len())
                .cloned()
                .collect();
            let arr = self.heap.alloc(ObjKind::Array(extra));
            self.heap.get_mut(arr).proto = Some(self.protos.array);
            self.bind_pattern(rest, Value::Obj(arr), &scope, true)?;
        }

        match &def.body {
            aji_ast::ast::FuncBody::Block(stmts) => {
                self.hoist(stmts, &scope)?;
                for s in stmts {
                    match self.exec_stmt(s, &scope)? {
                        Flow::Normal => {}
                        Flow::Return(v) => return Ok(v),
                        Flow::Break(_) | Flow::Continue(_) => break,
                    }
                }
                Ok(Value::Undefined)
            }
            aji_ast::ast::FuncBody::Expr(e) => self.eval_expr(e, &scope),
        }
    }

    /// Creates a closure value for a function definition evaluated in
    /// `scope`.
    pub(crate) fn make_closure(&mut self, def: &Arc<Function>, scope: &ScopeRef) -> Value {
        let shared = match self.registry.get(def.id) {
            Some(rc) => rc,
            None => {
                // Function from dynamically generated code.
                self.registry
                    .add_dynamic(def.clone(), self.static_loc(def.span));
                def.clone()
            }
        };
        let born_at = self.static_loc(def.span);
        let id = self.heap.alloc(ObjKind::Function(Box::new(FuncData {
            def: shared,
            env: scope.clone(),
            bound_this: None,
            bound_args: Vec::new(),
            super_ctor: None,
            home_proto: None,
        })));
        {
            let obj = self.heap.get_mut(id);
            obj.proto = Some(self.protos.function);
            obj.born_at = born_at;
            obj.func_def = Some(def.id);
        }
        if let Some(name) = &def.name {
            self.heap
                .get_mut(id)
                .props
                .insert(Rc::from("name"), Prop::hidden(Value::str(name)));
        }
        self.heap.get_mut(id).props.insert(
            Rc::from("length"),
            Prop::hidden(Value::Num(def.params.len() as f64)),
        );
        self.tracer
            .on_function_def(def.id, born_at, &Value::Obj(id));
        Value::Obj(id)
    }

    /// Ensures a function object has a `prototype` property and returns it.
    pub(crate) fn function_prototype(&mut self, fid: ObjId) -> ObjId {
        if let Some(p) = self.heap.own_prop(fid, "prototype") {
            if let crate::heap::PropValue::Data(Value::Obj(pid)) = p.value {
                return pid;
            }
        }
        // The prototype object inherits a sentinel allocation site derived
        // from its function's, so hints about `F.prototype` map onto the
        // static analysis' Proto token.
        let proto_site = self
            .heap
            .get(fid)
            .born_at
            .map(|l| l.prototype_site());
        let proto = self.heap.alloc_plain(Some(self.protos.object), proto_site);
        self.heap
            .set_prop(proto, "constructor", Value::Obj(fid));
        if let Some(p) = self.heap.get_mut(proto).props.get_mut("constructor") {
            p.enumerable = false;
        }
        self.heap.get_mut(fid).props.insert(
            Rc::from("prototype"),
            Prop::hidden(Value::Obj(proto)),
        );
        proto
    }

    /// `new callee(...args)`.
    pub(crate) fn construct(
        &mut self,
        callee: Value,
        args: &[Value],
        site_loc: Option<Loc>,
        call_site: Option<Loc>,
    ) -> Result<Value, JsError> {
        let Some(id) = callee.as_obj() else {
            if self.opts.approx {
                return Ok(self.proxy_value());
            }
            return Err(self.throw_error("TypeError", "not a constructor"));
        };
        let kind = self.heap.get(id).kind.clone();
        match kind {
            ObjKind::Proxy => {
                self.obs.proxy_ops.inc();
                Ok(self.proxy_value())
            }
            ObjKind::Native(_) => {
                self.pending_new_loc = site_loc;
                let r = self.call_value(callee, Value::Undefined, args, call_site);
                self.pending_new_loc = None;
                r
            }
            ObjKind::Function(data) => {
                let proto = self.function_prototype(id);
                let obj = self.heap.alloc_plain(Some(proto), site_loc);
                self.tracer.on_alloc(site_loc);
                let this = Value::Obj(obj);
                // A derived class's default constructor forwards its
                // arguments to the superclass constructor.
                if self.heap.own_prop(id, "__default_derived_ctor__").is_some() {
                    if let Some(sc) = &data.super_ctor {
                        self.call_value((**sc).clone(), this.clone(), args, call_site)?;
                    }
                }
                // Class instance fields.
                self.run_instance_fields(id, &this)?;
                let r = self.call_closure(id, &data, this.clone(), args, call_site)?;
                Ok(match r {
                    Value::Obj(rid) if !matches!(self.heap.get(rid).kind, ObjKind::Proxy) => {
                        Value::Obj(rid)
                    }
                    Value::Obj(_) => r,
                    _ => this,
                })
            }
            _ => {
                if self.opts.approx {
                    Ok(self.proxy_value())
                } else {
                    Err(self.throw_error("TypeError", "not a constructor"))
                }
            }
        }
    }

    /// Deterministic pseudo-random stream for `Math.random` — determinism
    /// keeps analysis runs reproducible.
    pub(crate) fn next_random(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Drop for Interp {
    /// Flushes the hot-function profile (when profiling was on) so
    /// pipeline code never has to remember to; the registry handle was
    /// captured at construction, so the flush lands correctly even after
    /// the installing scope popped.
    fn drop(&mut self) {
        self.flush_profile();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_defaults() {
        let d = InterpOptions::default();
        assert!(!d.approx);
        let a = InterpOptions::approx_defaults();
        assert!(a.approx);
        assert!(a.max_loop_iters < d.max_loop_iters);
    }
}
