//! Constraint generation: walks every module's AST and populates the
//! solver with the subset constraints of Figure 3 (object construction,
//! function definition, calls, static property reads/writes), the module
//! system, and gen-time models for common stdlib method calls.
//!
//! Dynamic property reads/writes generate **no** constraints here — that
//! is the baseline's unsoundness. The hint rules \[DPR\]/\[DPW\] are applied
//! afterwards (see `analysis.rs`) using the site maps this generator
//! records.

use crate::scopes::{Resolution, VarInfo};
use crate::solver::{
    CallSite, CellId, CellKind, Constraint, Encl, FuncIdx, FuncInfo, Solver, Token, TokenData,
};
use aji_ast::ast::*;
use aji_ast::{FileId, Loc, SourceMap};
use aji_support::FxHashMap;

/// Global names seeded with builtin tokens.
const BUILTIN_GLOBALS: &[&str] = &[
    "Object",
    "Array",
    "Function",
    "String",
    "Number",
    "Boolean",
    "Math",
    "JSON",
    "console",
    "Promise",
    "Symbol",
    "RegExp",
    "Date",
    "Error",
    "TypeError",
    "RangeError",
    "SyntaxError",
    "EvalError",
    "ReferenceError",
    "process",
    "Buffer",
    "parseInt",
    "parseFloat",
    "isNaN",
    "isFinite",
    "eval",
    "setTimeout",
    "setInterval",
    "setImmediate",
    "clearTimeout",
    "clearInterval",
    "queueMicrotask",
    "encodeURIComponent",
    "decodeURIComponent",
];

/// Array methods whose model calls the first argument on each element.
pub const ELEMENT_CALLBACK_METHODS: &[&str] = &[
    "forEach",
    "map",
    "filter",
    "find",
    "findIndex",
    "some",
    "every",
    "sort",
    "flatMap",
];

/// Folds, whose model calls the first argument on the accumulator and
/// each element.
pub const FOLD_METHODS: &[&str] = &["reduce", "reduceRight"];

/// Promise reactions: the model calls `then`'s first two arguments and
/// the first argument of `catch` and `finally`.
pub const PROMISE_METHODS: &[&str] = &["then", "catch", "finally"];

/// Every method whose model calls a function argument at the call site.
pub const CALLBACK_METHODS: [&[&str]; 3] =
    [ELEMENT_CALLBACK_METHODS, FOLD_METHODS, PROMISE_METHODS];

/// Listener registrations, whose model calls the second argument with
/// the receiver as `this`.
pub const LISTENER_METHODS: &[&str] = &["on", "once", "addListener", "prependListener"];

/// Output of constraint generation.
pub struct GenOutput {
    /// The populated solver (not yet solved).
    pub solver: Solver,
    /// Dynamic property read sites: operation location → (base cell,
    /// result cell). The result cell is the \[DPR\] injection point; the
    /// base cell serves the §6 proxy-read extension.
    pub dyn_reads: FxHashMap<Loc, (CellId, CellId)>,
    /// Dynamic property write sites: operation location → (base cell,
    /// value cell) — the raw material of the §4 non-relational ablation.
    pub dyn_writes: FxHashMap<Loc, (CellId, CellId)>,
    /// Function definitions by location (the \[DPW\]/\[DPR\] token lookup).
    pub funcs_by_loc: FxHashMap<Loc, FuncIdx>,
    /// Object allocation sites by location.
    pub objs_by_loc: FxHashMap<Loc, Token>,
}

/// Generates constraints for a parsed project.
pub fn generate(
    modules: &[std::rc::Rc<Module>],
    source_map: &SourceMap,
    res: &Resolution,
    paths: Vec<String>,
) -> GenOutput {
    let mut g = Gen {
        solver: Solver::new(paths),
        res,
        sm: source_map,
        file: FileId(0),
        encl: Encl::Module(FileId(0)),
        this_cell: CellId(0),
        dyn_reads: FxHashMap::default(),
        dyn_writes: FxHashMap::default(),
        funcs_by_loc: FxHashMap::default(),
        objs_by_loc: FxHashMap::default(),
        magic_vars: FxHashMap::default(),
    };

    // Locate per-module magic vars and seed globals.
    for (i, info) in res.vars.iter().enumerate() {
        match info {
            VarInfo::ModuleMagic(file, name) => {
                g.magic_vars
                    .insert((*file, name.clone()), crate::scopes::VarId(i as u32));
            }
            VarInfo::Global(name) => {
                if BUILTIN_GLOBALS.contains(&name.as_str()) {
                    let sym = g.solver.interner.intern(name);
                    let tok = g.solver.token(TokenData::Builtin(sym));
                    let cell = g.solver.cell(CellKind::Var(crate::scopes::VarId(i as u32)));
                    g.solver.add_token(cell, tok);
                }
            }
            VarInfo::Local(_) => {}
        }
    }

    for (i, m) in modules.iter().enumerate() {
        let file = FileId(i as u32);
        g.file = file;
        g.encl = Encl::Module(file);
        g.this_cell = g.solver.cell(CellKind::ModuleThis(file));

        // Module environment.
        let mobj = g.solver.token(TokenData::ModuleObj(file));
        let exports = g.solver.token(TokenData::Exports(file));
        let exports_sym = g.solver.interner.intern("exports");
        let f = g.solver.cell(CellKind::Field(mobj, exports_sym));
        g.solver.add_token(f, exports);
        g.solver.add_token(g.this_cell, exports);
        for (name, tok) in [("module", Some(mobj)), ("exports", Some(exports))] {
            if let Some(v) = g.magic_vars.get(&(file, name.to_string())) {
                let cell = g.solver.cell(CellKind::Var(*v));
                if let Some(t) = tok {
                    g.solver.add_token(cell, t);
                }
            }
        }
        if let Some(v) = g.magic_vars.get(&(file, "require".to_string())) {
            let sym = g.solver.interner.intern("require");
            let tok = g.solver.token(TokenData::Builtin(sym));
            let cell = g.solver.cell(CellKind::Var(*v));
            g.solver.add_token(cell, tok);
        }

        for s in &m.body {
            g.stmt(s);
        }
    }

    GenOutput {
        solver: g.solver,
        dyn_reads: g.dyn_reads,
        dyn_writes: g.dyn_writes,
        funcs_by_loc: g.funcs_by_loc,
        objs_by_loc: g.objs_by_loc,
    }
}

struct Gen<'a> {
    solver: Solver,
    res: &'a Resolution,
    sm: &'a SourceMap,
    file: FileId,
    encl: Encl,
    this_cell: CellId,
    dyn_reads: FxHashMap<Loc, (CellId, CellId)>,
    dyn_writes: FxHashMap<Loc, (CellId, CellId)>,
    funcs_by_loc: FxHashMap<Loc, FuncIdx>,
    objs_by_loc: FxHashMap<Loc, Token>,
    magic_vars: FxHashMap<(FileId, String), crate::scopes::VarId>,
}

impl<'a> Gen<'a> {
    fn loc(&self, span: aji_ast::Span) -> Loc {
        self.sm.loc(span)
    }

    fn expr_cell(&mut self, e: &Expr) -> CellId {
        self.solver.cell(CellKind::Expr(e.id))
    }

    fn var_cell_of(&mut self, node: aji_ast::NodeId) -> Option<CellId> {
        self.res
            .var_of(node)
            .map(|v| self.solver.cell(CellKind::Var(v)))
    }

    fn obj_token(&mut self, loc: Loc) -> Token {
        let t = self.solver.token(TokenData::Obj(loc));
        self.objs_by_loc.insert(loc, t);
        t
    }

    // ----- statements -----

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => {
                self.expr(e);
            }
            StmtKind::VarDecl(d) => {
                for decl in &d.decls {
                    let init = decl.init.as_ref().map(|e| self.expr(e));
                    if let Some(src) = init {
                        self.bind_pattern(&decl.name, src);
                    }
                }
            }
            StmtKind::FuncDecl(f) => {
                let idx = self.function(f);
                let tok = self.solver.token(TokenData::Func(idx));
                if let Some(v) = self.res.decl_of(f.id) {
                    let cell = self.solver.cell(CellKind::Var(v));
                    self.solver.add_token(cell, tok);
                }
            }
            StmtKind::ClassDecl(c) => {
                let tok = self.class(c);
                if let Some(v) = self.res.decl_of(c.id) {
                    let cell = self.solver.cell(CellKind::Var(v));
                    self.solver.add_token(cell, tok);
                }
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    let c = self.expr(e);
                    if let Encl::Func(f) = self.encl {
                        let r = self.solver.cell(CellKind::Ret(f));
                        self.solver.add_edge(c, r);
                    }
                }
            }
            StmtKind::If { test, cons, alt } => {
                self.expr(test);
                self.stmt(cons);
                if let Some(a) = alt {
                    self.stmt(a);
                }
            }
            StmtKind::While { test, body } => {
                self.expr(test);
                self.stmt(body);
            }
            StmtKind::DoWhile { body, test } => {
                self.stmt(body);
                self.expr(test);
            }
            StmtKind::For(for_stmt) => {
                let ForStmt {
                    init,
                    test,
                    update,
                    body,
                } = &**for_stmt;
                match init {
                    Some(ForInit::VarDecl(d)) => {
                        for decl in &d.decls {
                            let init = decl.init.as_ref().map(|e| self.expr(e));
                            if let Some(src) = init {
                                self.bind_pattern(&decl.name, src);
                            }
                        }
                    }
                    Some(ForInit::Expr(e)) => {
                        self.expr(e);
                    }
                    None => {}
                }
                if let Some(t) = test {
                    self.expr(t);
                }
                if let Some(u) = update {
                    self.expr(u);
                }
                self.stmt(body);
            }
            StmtKind::ForIn(for_in) => {
                let ForEachStmt {
                    head,
                    right: obj,
                    body,
                } = &**for_in;
                // Keys are strings: no token flow.
                self.for_head_no_flow(head);
                self.expr(obj);
                self.stmt(body);
            }
            StmtKind::ForOf(for_of) => {
                let ForEachStmt {
                    head,
                    right: iter,
                    body,
                } = &**for_of;
                let it = self.expr(iter);
                let elems = self.solver.tmp();
                let elems_sym = self.solver.elems_sym;
                self.solver.add_constraint(
                    it,
                    Constraint::Load {
                        prop: elems_sym,
                        dst: elems,
                    },
                );
                match head {
                    ForHead::VarDecl { pat, .. } => self.bind_pattern(pat, elems),
                    ForHead::Target(e) => self.assign_into_expr(e, elems),
                }
                self.stmt(body);
            }
            StmtKind::Block(body) => {
                for s in body {
                    self.stmt(s);
                }
            }
            StmtKind::Empty | StmtKind::Break(_) | StmtKind::Continue(_) | StmtKind::Debugger => {}
            StmtKind::Labeled { body, .. } => self.stmt(body),
            StmtKind::Switch { disc, cases } => {
                self.expr(disc);
                for c in cases {
                    if let Some(t) = &c.test {
                        self.expr(t);
                    }
                    for s in &c.body {
                        self.stmt(s);
                    }
                }
            }
            StmtKind::Throw(e) => {
                self.expr(e);
            }
            StmtKind::Try(try_stmt) => {
                let TryStmt {
                    block,
                    catch,
                    finally,
                } = &**try_stmt;
                for s in block {
                    self.stmt(s);
                }
                if let Some(c) = catch {
                    // No exception flow: the catch variable is empty.
                    for s in &c.body {
                        self.stmt(s);
                    }
                }
                if let Some(f) = finally {
                    for s in f {
                        self.stmt(s);
                    }
                }
            }
        }
    }

    fn for_head_no_flow(&mut self, head: &ForHead) {
        if let ForHead::Target(e) = head {
            self.expr(e);
        }
    }

    // ----- patterns -----

    fn bind_pattern(&mut self, p: &Pattern, src: CellId) {
        match &p.kind {
            PatternKind::Ident(_) => {
                if let Some(v) = self.var_cell_of(p.id) {
                    self.solver.add_edge(src, v);
                }
            }
            PatternKind::Assign { pat, default } => {
                let d = self.expr(default);
                self.bind_pattern(pat, src);
                self.bind_pattern(pat, d);
            }
            PatternKind::Array { elems, rest } => {
                let elem_cell = self.solver.tmp();
                let elems_sym = self.solver.elems_sym;
                self.solver.add_constraint(
                    src,
                    Constraint::Load {
                        prop: elems_sym,
                        dst: elem_cell,
                    },
                );
                for e in elems.iter().flatten() {
                    self.bind_pattern(e, elem_cell);
                }
                if let Some(r) = rest {
                    let loc = self.loc(r.span);
                    let tok = self.obj_token(loc);
                    let f = self.solver.cell(CellKind::Field(tok, elems_sym));
                    self.solver.add_edge(elem_cell, f);
                    let rest_cell = self.solver.tmp();
                    self.solver.add_token(rest_cell, tok);
                    self.bind_pattern(r, rest_cell);
                }
            }
            PatternKind::Object { props, rest } => {
                for pr in props {
                    match &pr.key {
                        PropName::Computed(k) => {
                            self.expr(k);
                            // Dynamic destructuring read — ignored
                            // (baseline unsoundness).
                        }
                        other => {
                            if let Some(name) = other.static_name() {
                                let prop = self.solver.interner.intern(&name);
                                let tmp = self.solver.tmp();
                                self.solver
                                    .add_constraint(src, Constraint::Load { prop, dst: tmp });
                                self.bind_pattern(&pr.value, tmp);
                                continue;
                            }
                        }
                    }
                    // Computed keys: bind the sub-pattern to nothing.
                    self.bind_pattern_empty(&pr.value);
                }
                if let Some(r) = rest {
                    // Rest object: alias the source (approximation).
                    self.bind_pattern(r, src);
                }
            }
        }
    }

    fn bind_pattern_empty(&mut self, p: &Pattern) {
        let empty = self.solver.tmp();
        self.bind_pattern(p, empty);
    }

    // ----- functions and classes -----

    fn function(&mut self, f: &Function) -> FuncIdx {
        let loc = self.loc(f.span);
        let idx = FuncIdx(self.solver.funcs.len() as u32);
        self.solver.funcs.push(FuncInfo {
            node: f.id,
            loc,
            file: self.file,
            name: f.name.clone(),
            param_count: f.params.len() as u16,
            has_rest: f.rest.is_some(),
            enclosing: self.encl,
        });
        self.funcs_by_loc.insert(loc, idx);

        let saved_encl = self.encl;
        let saved_this = self.this_cell;
        self.encl = Encl::Func(idx);
        if !f.is_arrow {
            self.this_cell = self.solver.cell(CellKind::This(idx));
        }

        // Self-reference binding for named function expressions.
        if let Some(v) = self.res.self_of(f.id) {
            let tok = self.solver.token(TokenData::Func(idx));
            let cell = self.solver.cell(CellKind::Var(v));
            self.solver.add_token(cell, tok);
        }
        // `arguments`.
        if let Some(v) = self.res.arguments_of(f.id) {
            let tok = self.solver.token(TokenData::Args(idx));
            let cell = self.solver.cell(CellKind::Var(v));
            self.solver.add_token(cell, tok);
        }
        // Parameters.
        for (i, p) in f.params.iter().enumerate() {
            let pc = self.solver.cell(CellKind::Param(idx, i as u16));
            if let Some(d) = &p.default {
                let dc = self.expr(d);
                self.solver.add_edge(dc, pc);
            }
            self.bind_pattern(&p.pat, pc);
        }
        if let Some(r) = &f.rest {
            let tok = self.solver.token(TokenData::Rest(idx));
            let rc = self.solver.tmp();
            self.solver.add_token(rc, tok);
            self.bind_pattern(r, rc);
        }
        // Seed the prototype property.
        let ftok = self.solver.token(TokenData::Func(idx));
        let ptok = self.solver.token(TokenData::Proto(idx));
        let psym = self.solver.prototype_sym;
        let pf = self.solver.cell(CellKind::Field(ftok, psym));
        self.solver.add_token(pf, ptok);

        match &f.body {
            FuncBody::Block(stmts) => {
                for s in stmts {
                    self.stmt(s);
                }
            }
            FuncBody::Expr(e) => {
                let c = self.expr(e);
                let r = self.solver.cell(CellKind::Ret(idx));
                self.solver.add_edge(c, r);
            }
        }

        self.encl = saved_encl;
        self.this_cell = saved_this;
        idx
    }

    fn class(&mut self, c: &Class) -> Token {
        let class_loc = self.loc(c.span);
        // Constructor.
        let ctor = c.members.iter().find_map(|m| match &m.kind {
            ClassMemberKind::Constructor(f) => Some(f),
            _ => None,
        });
        let idx = match ctor {
            Some(f) => self.function(f),
            None => {
                let idx = FuncIdx(self.solver.funcs.len() as u32);
                self.solver.funcs.push(FuncInfo {
                    node: c.id,
                    loc: class_loc,
                    file: self.file,
                    name: c.name.clone(),
                    param_count: 0,
                    has_rest: false,
                    enclosing: self.encl,
                });
                idx
            }
        };
        // The class value's allocation site is the class itself (matching
        // the interpreter's `born_at`).
        self.funcs_by_loc.insert(class_loc, idx);
        let ftok = self.solver.token(TokenData::Func(idx));
        let ptok = self.solver.token(TokenData::Proto(idx));
        let psym = self.solver.prototype_sym;
        let pf = self.solver.cell(CellKind::Field(ftok, psym));
        self.solver.add_token(pf, ptok);

        // extends: link prototypes and statics.
        if let Some(sc) = &c.super_class {
            let scell = self.expr(sc);
            let tmp = self.solver.tmp();
            self.solver.add_constraint(
                scell,
                Constraint::Load {
                    prop: psym,
                    dst: tmp,
                },
            );
            self.solver
                .add_constraint(tmp, Constraint::ProtoFor { child: ptok });
            self.solver
                .add_constraint(scell, Constraint::ProtoFor { child: ftok });
        }

        for m in &c.members {
            let key_name = match &m.key {
                PropName::Computed(k) => {
                    self.expr(k);
                    None
                }
                other => other.static_name(),
            };
            let target = if m.is_static { ftok } else { ptok };
            match &m.kind {
                ClassMemberKind::Constructor(_) => {}
                ClassMemberKind::Method { kind, func } => {
                    let midx = self.function(func);
                    let mtok = self.solver.token(TokenData::Func(midx));
                    if let Some(name) = &key_name {
                        let prop = self.solver.interner.intern(name);
                        let field = self.solver.cell(CellKind::Field(target, prop));
                        match kind {
                            MethodKind::Method => {
                                self.solver.add_token(field, mtok);
                            }
                            MethodKind::Get => {
                                let r = self.solver.cell(CellKind::Ret(midx));
                                self.solver.add_edge(r, field);
                            }
                            MethodKind::Set => {
                                let p = self.solver.cell(CellKind::Param(midx, 0));
                                self.solver.add_edge(field, p);
                            }
                        }
                    }
                }
                ClassMemberKind::Field(init) => {
                    if let Some(e) = init {
                        let v = self.expr(e);
                        if let Some(name) = &key_name {
                            let prop = self.solver.interner.intern(name);
                            let field = self.solver.cell(CellKind::Field(target, prop));
                            self.solver.add_edge(v, field);
                        }
                    }
                }
            }
        }
        ftok
    }

    // ----- expressions -----

    fn expr(&mut self, e: &Expr) -> CellId {
        let cell = self.expr_cell(e);
        match &e.kind {
            ExprKind::Num(_) | ExprKind::Str(_) | ExprKind::Bool(_) | ExprKind::Null => {}
            ExprKind::Template(template) => {
                for x in &template.exprs {
                    self.expr(x);
                }
            }
            ExprKind::Regex(_) => {
                let loc = self.loc(e.span);
                let tok = self.obj_token(loc);
                self.solver.add_token(cell, tok);
            }
            ExprKind::Ident(name) => {
                if &**name != "super" {
                    if let Some(v) = self.var_cell_of(e.id) {
                        self.solver.add_edge(v, cell);
                    }
                }
            }
            ExprKind::This => {
                let tc = self.this_cell;
                self.solver.add_edge(tc, cell);
            }
            ExprKind::Array(elems) => {
                let loc = self.loc(e.span);
                let tok = self.obj_token(loc);
                self.solver.add_token(cell, tok);
                let elems_sym = self.solver.elems_sym;
                let field = self.solver.cell(CellKind::Field(tok, elems_sym));
                for el in elems.iter().flatten() {
                    let c = self.expr(&el.expr);
                    if el.spread {
                        self.solver.add_constraint(
                            c,
                            Constraint::Load {
                                prop: elems_sym,
                                dst: field,
                            },
                        );
                    } else {
                        self.solver.add_edge(c, field);
                    }
                }
            }
            ExprKind::Object(props) => {
                let loc = self.loc(e.span);
                let tok = self.obj_token(loc);
                self.solver.add_token(cell, tok);
                for p in props {
                    match p {
                        Property::KeyValue { key, value } => {
                            let v = self.expr(value);
                            match key {
                                PropName::Computed(k) => {
                                    // Dynamic write in a literal — ignored
                                    // statically; hints recover it. Site
                                    // recorded for the ablation.
                                    self.expr(k);
                                    let base = self.solver.tmp();
                                    self.solver.add_token(base, tok);
                                    let loc = self.loc(e.span);
                                    self.dyn_writes.insert(loc, (base, v));
                                }
                                other => {
                                    if let Some(name) = other.static_name() {
                                        let prop = self.solver.interner.intern(&name);
                                        let f = self.solver.cell(CellKind::Field(tok, prop));
                                        self.solver.add_edge(v, f);
                                    }
                                }
                            }
                        }
                        Property::Method { key, kind, func } => {
                            let midx = self.function(func);
                            let mtok = self.solver.token(TokenData::Func(midx));
                            let name = match key {
                                PropName::Computed(k) => {
                                    self.expr(k);
                                    None
                                }
                                other => other.static_name(),
                            };
                            if let Some(name) = name {
                                let prop = self.solver.interner.intern(&name);
                                let f = self.solver.cell(CellKind::Field(tok, prop));
                                match kind {
                                    MethodKind::Method => self.solver.add_token(f, mtok),
                                    MethodKind::Get => {
                                        let r = self.solver.cell(CellKind::Ret(midx));
                                        self.solver.add_edge(r, f);
                                    }
                                    MethodKind::Set => {
                                        let p = self.solver.cell(CellKind::Param(midx, 0));
                                        self.solver.add_edge(f, p);
                                    }
                                }
                            }
                        }
                        Property::Spread(inner) => {
                            // Object spread is dynamic copying — ignored
                            // statically (hints recover the flows).
                            self.expr(inner);
                        }
                    }
                }
            }
            ExprKind::Function(f) | ExprKind::Arrow(f) => {
                let idx = self.function(f);
                let tok = self.solver.token(TokenData::Func(idx));
                self.solver.add_token(cell, tok);
            }
            ExprKind::Class(c) => {
                let tok = self.class(c);
                self.solver.add_token(cell, tok);
            }
            ExprKind::Unary { expr, .. } => {
                self.expr(expr);
            }
            ExprKind::Update { expr, .. } => {
                self.expr(expr);
            }
            ExprKind::Binary { left, right, .. } => {
                self.expr(left);
                self.expr(right);
            }
            ExprKind::Logical { left, right, .. } => {
                let l = self.expr(left);
                let r = self.expr(right);
                self.solver.add_edge(l, cell);
                self.solver.add_edge(r, cell);
            }
            ExprKind::Assign { op, target, value } => {
                let v = self.expr(value);
                let flows = matches!(
                    op,
                    AssignOp::Assign | AssignOp::And | AssignOp::Or | AssignOp::Nullish
                );
                if flows {
                    match &**target {
                        AssignTarget::Ident { id, .. } => {
                            if let Some(var) = self.var_cell_of(*id) {
                                self.solver.add_edge(v, var);
                                self.solver.add_edge(var, cell);
                            }
                        }
                        AssignTarget::Member(m) => {
                            self.assign_into_member(m, v);
                        }
                        AssignTarget::Pattern(p) => {
                            self.bind_pattern(p, v);
                        }
                    }
                } else {
                    // Arithmetic compound assignment: no object flow, but
                    // the target expression's sub-expressions must still be
                    // generated.
                    match &**target {
                        AssignTarget::Member(m) => {
                            self.expr(m);
                        }
                        AssignTarget::Ident { .. } | AssignTarget::Pattern(_) => {}
                    }
                }
                self.solver.add_edge(v, cell);
            }
            ExprKind::Cond { test, cons, alt } => {
                self.expr(test);
                let c1 = self.expr(cons);
                let c2 = self.expr(alt);
                self.solver.add_edge(c1, cell);
                self.solver.add_edge(c2, cell);
            }
            ExprKind::Call { callee, args, .. } => {
                return self.call(e, callee, args, false);
            }
            ExprKind::New { callee, args } => {
                return self.call(e, callee, args, true);
            }
            ExprKind::Member { obj, prop, .. } => {
                if matches!(&obj.unparen().kind, ExprKind::Ident(n) if &**n == "super") {
                    // `super.x` is not modeled statically.
                    return cell;
                }
                let base = self.expr(obj);
                match prop {
                    MemberProp::Static(name) => {
                        let p = self.solver.interner.intern(name);
                        self.solver
                            .add_constraint(base, Constraint::Load { prop: p, dst: cell });
                    }
                    MemberProp::Computed(k) => {
                        self.expr(k);
                        // Dynamic property read: ignored by the baseline;
                        // [DPR] injects hint tokens into `cell`.
                        let loc = self.loc(e.span);
                        self.dyn_reads.insert(loc, (base, cell));
                    }
                }
            }
            ExprKind::Seq(exprs) => {
                let mut last = None;
                for x in exprs {
                    last = Some(self.expr(x));
                }
                if let Some(l) = last {
                    self.solver.add_edge(l, cell);
                }
            }
            ExprKind::Paren(inner) => {
                let c = self.expr(inner);
                self.solver.add_edge(c, cell);
            }
        }
        cell
    }

    fn assign_into_expr(&mut self, target: &Expr, src: CellId) {
        match &target.unparen().kind {
            ExprKind::Ident(_) => {
                if let Some(v) = self.var_cell_of(target.unparen().id) {
                    self.solver.add_edge(src, v);
                }
            }
            ExprKind::Member { .. } => self.assign_into_member(target, src),
            _ => {}
        }
    }

    fn assign_into_member(&mut self, m: &Expr, src: CellId) {
        let ExprKind::Member { obj, prop, .. } = &m.unparen().kind else {
            return;
        };
        if matches!(&obj.unparen().kind, ExprKind::Ident(n) if &**n == "super") {
            return;
        }
        let base = self.expr(obj);
        match prop {
            MemberProp::Static(name) => {
                let p = self.solver.interner.intern(name);
                self.solver
                    .add_constraint(base, Constraint::Store { prop: p, src });
            }
            MemberProp::Computed(k) => {
                self.expr(k);
                // Dynamic property write: ignored by the baseline; [DPW]
                // injects hint flows globally. The site is recorded for
                // the non-relational ablation.
                let loc = self.loc(m.unparen().span);
                self.dyn_writes.insert(loc, (base, src));
            }
        }
    }

    // ----- calls -----

    fn call(&mut self, e: &Expr, callee: &Expr, args: &[ExprOrSpread], is_new: bool) -> CellId {
        let result = self.expr_cell(e);
        let loc = self.loc(e.span);

        // Evaluate arguments.
        let mut arg_cells = Vec::with_capacity(args.len());
        let mut any_spread = false;
        for a in args {
            arg_cells.push(self.expr(&a.expr));
            any_spread |= a.spread;
        }
        let spread = if any_spread {
            let sp = self.solver.tmp();
            let elems_sym = self.solver.elems_sym;
            for (a, cell) in args.iter().zip(&arg_cells) {
                if a.spread {
                    self.solver.add_constraint(
                        *cell,
                        Constraint::Load {
                            prop: elems_sym,
                            dst: sp,
                        },
                    );
                }
            }
            Some(sp)
        } else {
            None
        };
        let lit_arg0 = args
            .first()
            .filter(|a| !a.spread)
            .and_then(|a| a.expr.as_str_lit().map(|s| s.to_string()));

        let new_token = if is_new {
            Some(self.obj_token(loc))
        } else {
            None
        };
        let site_idx = self.solver.sites.len() as u32;
        self.solver.sites.push(CallSite {
            node: e.id,
            loc,
            file: self.file,
            enclosing: self.encl,
            args: arg_cells.clone(),
            spread,
            this_cell: None,
            result,
            is_new,
            new_token,
            lit_arg0,
        });

        let callee_u = callee.unparen();
        match &callee_u.kind {
            // `super(...)` — constructor chaining is not modeled.
            ExprKind::Ident(n) if &**n == "super" => {}
            ExprKind::Member { obj, prop, .. } if !matches!(&obj.unparen().kind, ExprKind::Ident(n) if &**n == "super") =>
            {
                let base = self.expr(obj);
                self.solver.sites[site_idx as usize].this_cell = Some(base);
                let member_cell = self.expr_cell(callee_u);
                match prop {
                    MemberProp::Static(name) => {
                        let p = self.solver.interner.intern(name);
                        self.solver.add_constraint(
                            base,
                            Constraint::Load {
                                prop: p,
                                dst: member_cell,
                            },
                        );
                        self.solver
                            .add_constraint(member_cell, Constraint::Call { site: site_idx });
                        self.method_model(site_idx, name, base, &arg_cells, result, loc);
                    }
                    MemberProp::Computed(k) => {
                        self.expr(k);
                        let mloc = self.loc(callee_u.span);
                        self.dyn_reads.insert(mloc, (base, member_cell));
                        self.solver
                            .add_constraint(member_cell, Constraint::Call { site: site_idx });
                    }
                }
            }
            _ => {
                let c = self.expr(callee);
                self.solver
                    .add_constraint(c, Constraint::Call { site: site_idx });
            }
        }
        result
    }

    /// Gen-time models for well-known method names (stdlib behavior that
    /// the token-based resolution cannot see because the receiver is an
    /// ordinary object token).
    fn method_model(
        &mut self,
        site: u32,
        name: &str,
        base: CellId,
        args: &[CellId],
        result: CellId,
        loc: Loc,
    ) {
        let elems_sym = self.solver.elems_sym;
        match name {
            "call" => {
                self.solver
                    .add_constraint(base, Constraint::DotCall { site });
            }
            "apply" => {
                // Collect the argument array's elements in the site's
                // spread cell.
                let sp = self.solver.tmp();
                if let Some(a1) = args.get(1) {
                    self.solver.add_constraint(
                        *a1,
                        Constraint::Load {
                            prop: elems_sym,
                            dst: sp,
                        },
                    );
                }
                self.solver.sites[site as usize].spread = Some(sp);
                self.solver
                    .add_constraint(base, Constraint::DotApply { site });
            }
            "bind" => {
                // Bound functions keep their identity.
                self.solver.add_edge(base, result);
            }
            n if ELEMENT_CALLBACK_METHODS.contains(&n) => {
                let elem = self.solver.tmp();
                self.solver.add_constraint(
                    base,
                    Constraint::Load {
                        prop: elems_sym,
                        dst: elem,
                    },
                );
                let ret = match name {
                    "map" | "flatMap" => {
                        let tok = self.obj_token(loc);
                        self.solver.add_token(result, tok);
                        Some(self.solver.cell(CellKind::Field(tok, elems_sym)))
                    }
                    _ => None,
                };
                match name {
                    "filter" | "sort" => self.solver.add_edge(base, result),
                    "find" => self.solver.add_edge(elem, result),
                    _ => {}
                }
                if let Some(cb) = args.first() {
                    self.solver.add_constraint(
                        *cb,
                        Constraint::Callback {
                            site,
                            p0: Some(elem),
                            p1: None,
                            this0: args.get(1).copied(),
                            ret,
                        },
                    );
                }
            }
            n if FOLD_METHODS.contains(&n) => {
                let elem = self.solver.tmp();
                self.solver.add_constraint(
                    base,
                    Constraint::Load {
                        prop: elems_sym,
                        dst: elem,
                    },
                );
                let acc = self.solver.tmp();
                if let Some(init) = args.get(1) {
                    self.solver.add_edge(*init, acc);
                }
                self.solver.add_edge(elem, acc);
                self.solver.add_edge(acc, result);
                if let Some(cb) = args.first() {
                    self.solver.add_constraint(
                        *cb,
                        Constraint::Callback {
                            site,
                            p0: Some(acc),
                            p1: Some(elem),
                            this0: None,
                            ret: Some(acc),
                        },
                    );
                }
            }
            "push" | "unshift" => {
                for a in args {
                    self.solver.add_constraint(
                        base,
                        Constraint::Store {
                            prop: elems_sym,
                            src: *a,
                        },
                    );
                }
            }
            "pop" | "shift" => {
                self.solver.add_constraint(
                    base,
                    Constraint::Load {
                        prop: elems_sym,
                        dst: result,
                    },
                );
            }
            "concat" => {
                self.solver.add_edge(base, result);
                for a in args {
                    let tmp = self.solver.tmp();
                    self.solver.add_constraint(
                        *a,
                        Constraint::Load {
                            prop: elems_sym,
                            dst: tmp,
                        },
                    );
                    self.solver.add_constraint(
                        base,
                        Constraint::Store {
                            prop: elems_sym,
                            src: tmp,
                        },
                    );
                }
            }
            "slice" | "splice" | "reverse" | "fill" | "flat" => {
                self.solver.add_edge(base, result);
            }
            n if PROMISE_METHODS.contains(&n) => {
                self.solver.add_edge(base, result);
                let callbacks = if n == "then" { 2 } else { 1 };
                for cb in args.iter().take(callbacks) {
                    self.solver.add_constraint(
                        *cb,
                        Constraint::Callback {
                            site,
                            p0: None,
                            p1: None,
                            this0: None,
                            ret: None,
                        },
                    );
                }
            }
            n if LISTENER_METHODS.contains(&n) => {
                // Listener registration: the listener will be invoked.
                self.solver.add_edge(base, result);
                if let Some(cb) = args.get(1) {
                    self.solver.add_constraint(
                        *cb,
                        Constraint::Callback {
                            site,
                            p0: None,
                            p1: None,
                            this0: Some(base),
                            ret: None,
                        },
                    );
                }
            }
            _ => {}
        }
    }
}
