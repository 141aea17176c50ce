//! Statement execution and declaration hoisting.

use crate::env::{self, Scope, ScopeKind, ScopeRef};
use crate::error::{BudgetKind, Flow, JsError};
use crate::heap::ObjKind;
use crate::machine::Interp;
use crate::value::Value;
use aji_ast::ast::*;
use aji_ast::visit::{self, BlockDecl};

impl Interp {
    /// Hoists the declarations of a function, module or `eval` body about
    /// to execute in `scope`: its `var` names (through nested blocks, see
    /// [`visit::var_names`]) to the nearest function scope, then its
    /// block-level declarations as [`Interp::hoist_block`] does.
    pub(crate) fn hoist_body(&mut self, stmts: &[Stmt], scope: &ScopeRef) {
        let mut var_names = Vec::new();
        visit::var_names(stmts, &mut var_names);
        let target = env::hoist_target(scope);
        {
            let mut t = target.borrow_mut();
            for name in var_names {
                if !t.has_own(name) {
                    t.declare(name, Value::Undefined);
                }
            }
        }
        self.hoist_block(stmts, scope);
    }

    /// Hoists a statement list's block-level declarations into `scope`:
    /// function declarations fully initialized, then `let`/`const`/`class`
    /// names initialized to undefined (TDZ is not modeled).
    pub(crate) fn hoist_block(&mut self, stmts: &[Stmt], scope: &ScopeRef) {
        for d in visit::block_decls(stmts) {
            if let BlockDecl::Function(f) = d {
                let v = self.make_closure(f, scope);
                if let Some(name) = &f.name {
                    scope.borrow_mut().declare(&**name, v);
                }
            }
        }
        let mut names = Vec::new();
        for d in visit::block_decls(stmts) {
            match d {
                BlockDecl::Function(_) => {}
                BlockDecl::Class(c) => names.extend(c.name.as_deref()),
                BlockDecl::Lexical(d) => {
                    for decl in &d.decls {
                        visit::pattern_names(&decl.name, &mut names);
                    }
                }
            }
        }
        let mut b = scope.borrow_mut();
        for n in names {
            b.declare(n, Value::Undefined);
        }
    }

    /// Executes one statement.
    pub(crate) fn exec_stmt(&mut self, s: &Stmt, scope: &ScopeRef) -> Result<Flow, JsError> {
        self.step()?;
        match &s.kind {
            StmtKind::Expr(e) => {
                self.eval_expr(e, scope)?;
                Ok(Flow::Normal)
            }
            StmtKind::VarDecl(d) => {
                self.exec_var_decl(d, scope)?;
                Ok(Flow::Normal)
            }
            StmtKind::FuncDecl(_) => Ok(Flow::Normal), // handled by hoisting
            StmtKind::ClassDecl(c) => {
                let v = self.eval_class(c, scope)?;
                if let Some(name) = &c.name {
                    env::assign(scope, name, v);
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.eval_expr(e, scope)?,
                    None => Value::Undefined,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::If { test, cons, alt } => {
                let t = self.eval_expr(test, scope)?;
                if self.truthy(&t) {
                    self.exec_stmt(cons, scope)
                } else if let Some(alt) = alt {
                    self.exec_stmt(alt, scope)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { test, body } => self.exec_loop(scope, None, |i, sc| {
                let t = i.eval_expr(test, sc)?;
                if !i.truthy(&t) {
                    return Ok(LoopStep::Done);
                }
                Ok(LoopStep::Body(body))
            }),
            StmtKind::DoWhile { body, test } => {
                let mut first = true;
                self.exec_loop(scope, None, |i, sc| {
                    if !first {
                        let t = i.eval_expr(test, sc)?;
                        if !i.truthy(&t) {
                            return Ok(LoopStep::Done);
                        }
                    }
                    first = false;
                    Ok(LoopStep::Body(body))
                })
            }
            StmtKind::For(f) => {
                let ForStmt {
                    init,
                    test,
                    update,
                    body,
                } = &**f;
                let loop_scope = Scope::new(ScopeKind::Block, Some(scope.clone()));
                match init {
                    Some(ForInit::VarDecl(d)) => {
                        if d.kind != VarKind::Var {
                            let mut names = Vec::new();
                            for decl in &d.decls {
                                visit::pattern_names(&decl.name, &mut names);
                            }
                            let mut b = loop_scope.borrow_mut();
                            for n in names {
                                b.declare(n, Value::Undefined);
                            }
                        }
                        self.exec_var_decl(d, &loop_scope)?;
                    }
                    Some(ForInit::Expr(e)) => {
                        self.eval_expr(e, &loop_scope)?;
                    }
                    None => {}
                }
                let mut started = false;
                self.exec_loop(&loop_scope, None, |i, sc| {
                    if started {
                        if let Some(u) = update {
                            i.eval_expr(u, sc)?;
                        }
                    }
                    started = true;
                    if let Some(t) = test {
                        let tv = i.eval_expr(t, sc)?;
                        if !i.truthy(&tv) {
                            return Ok(LoopStep::Done);
                        }
                    }
                    Ok(LoopStep::Body(body))
                })
            }
            StmtKind::ForIn(f) => {
                let ForEachStmt {
                    head,
                    right: obj,
                    body,
                } = &**f;
                let o = self.eval_expr(obj, scope)?;
                let keys = self.enumerate_keys(&o);
                let mut iter = keys.into_iter();
                self.exec_loop(scope, None, |i, sc| {
                    let Some(k) = iter.next() else {
                        return Ok(LoopStep::Done);
                    };
                    let iter_scope = Scope::new(ScopeKind::Block, Some(sc.clone()));
                    i.bind_for_head(head, Value::str(&k), &iter_scope)?;
                    Ok(LoopStep::BodyIn(body, iter_scope))
                })
            }
            StmtKind::ForOf(f) => {
                let ForEachStmt {
                    head,
                    right: iter,
                    body,
                } = &**f;
                let o = self.eval_expr(iter, scope)?;
                let values = self.iterate_values(&o)?;
                let mut iter_vals = values.into_iter();
                self.exec_loop(scope, None, |i, sc| {
                    let Some(v) = iter_vals.next() else {
                        return Ok(LoopStep::Done);
                    };
                    let iter_scope = Scope::new(ScopeKind::Block, Some(sc.clone()));
                    i.bind_for_head(head, v, &iter_scope)?;
                    Ok(LoopStep::BodyIn(body, iter_scope))
                })
            }
            StmtKind::Block(body) => {
                let block_scope = Scope::new(ScopeKind::Block, Some(scope.clone()));
                self.hoist_block(body, &block_scope);
                for s in body {
                    match self.exec_stmt(s, &block_scope)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Empty | StmtKind::Debugger => Ok(Flow::Normal),
            StmtKind::Break(l) => Ok(Flow::Break(l.clone())),
            StmtKind::Continue(l) => Ok(Flow::Continue(l.clone())),
            StmtKind::Labeled { label, body } => {
                let flow = self.exec_labeled(label, body, scope)?;
                Ok(flow)
            }
            StmtKind::Switch { disc, cases } => self.exec_switch(disc, cases, scope),
            StmtKind::Throw(e) => {
                let v = self.eval_expr(e, scope)?;
                Err(JsError::Thrown(v))
            }
            StmtKind::Try(t) => {
                let TryStmt {
                    block,
                    catch,
                    finally,
                } = &**t;
                let mut outcome = (|| -> Result<Flow, JsError> {
                    let try_scope = Scope::new(ScopeKind::Block, Some(scope.clone()));
                    self.hoist_block(block, &try_scope);
                    for s in block {
                        match self.exec_stmt(s, &try_scope)? {
                            Flow::Normal => {}
                            other => return Ok(other),
                        }
                    }
                    Ok(Flow::Normal)
                })();
                if let Err(err) = &outcome {
                    if err.is_catchable() {
                        if let Some(c) = catch {
                            let caught = match err {
                                JsError::Thrown(v) => v.clone(),
                                _ => unreachable!(),
                            };
                            let catch_scope = Scope::new(ScopeKind::Block, Some(scope.clone()));
                            if let Some(p) = &c.param {
                                self.bind_pattern(p, caught, &catch_scope, true)?;
                            }
                            outcome = (|| -> Result<Flow, JsError> {
                                self.hoist_block(&c.body, &catch_scope);
                                for s in &c.body {
                                    match self.exec_stmt(s, &catch_scope)? {
                                        Flow::Normal => {}
                                        other => return Ok(other),
                                    }
                                }
                                Ok(Flow::Normal)
                            })();
                        }
                    }
                }
                if let Some(fin) = finally {
                    let fin_scope = Scope::new(ScopeKind::Block, Some(scope.clone()));
                    self.hoist_block(fin, &fin_scope);
                    for s in fin {
                        match self.exec_stmt(s, &fin_scope)? {
                            Flow::Normal => {}
                            // An abnormal completion in `finally` overrides
                            // the try/catch outcome.
                            other => return Ok(other),
                        }
                    }
                }
                outcome
            }
        }
    }

    fn exec_var_decl(&mut self, d: &VarDecl, scope: &ScopeRef) -> Result<(), JsError> {
        for decl in &d.decls {
            let v = match &decl.init {
                Some(e) => self.eval_expr(e, scope)?,
                None => Value::Undefined,
            };
            match d.kind {
                VarKind::Var => {
                    // The name was hoisted; write through the scope chain.
                    if decl.init.is_some() || !pattern_names_bound(&decl.name, scope) {
                        self.bind_pattern(&decl.name, v, scope, false)?;
                    }
                }
                VarKind::Let | VarKind::Const => {
                    self.bind_pattern(&decl.name, v, scope, true)?;
                }
            }
        }
        Ok(())
    }

    fn exec_labeled(
        &mut self,
        label: &str,
        body: &Stmt,
        scope: &ScopeRef,
    ) -> Result<Flow, JsError> {
        // Loops need to see the label so `continue label` works; we pass it
        // via a field consumed by exec_loop.
        self.pending_label = Some(label.to_string());
        let flow = self.exec_stmt(body, scope);
        self.pending_label = None;
        match flow? {
            Flow::Break(Some(l)) if &*l == label => Ok(Flow::Normal),
            Flow::Continue(Some(l)) if &*l == label => Ok(Flow::Normal),
            other => Ok(other),
        }
    }

    fn exec_switch(
        &mut self,
        disc: &Expr,
        cases: &[SwitchCase],
        scope: &ScopeRef,
    ) -> Result<Flow, JsError> {
        let d = self.eval_expr(disc, scope)?;
        let switch_scope = Scope::new(ScopeKind::Block, Some(scope.clone()));
        // Find the first matching case (or default).
        let mut start = None;
        for (i, c) in cases.iter().enumerate() {
            if let Some(t) = &c.test {
                let tv = self.eval_expr(t, &switch_scope)?;
                if d.strict_eq(&tv) {
                    start = Some(i);
                    break;
                }
            }
        }
        if start.is_none() {
            start = cases.iter().position(|c| c.test.is_none());
        }
        let Some(start) = start else {
            return Ok(Flow::Normal);
        };
        for c in &cases[start..] {
            self.hoist_block(&c.body, &switch_scope);
            for s in &c.body {
                match self.exec_stmt(s, &switch_scope)? {
                    Flow::Normal => {}
                    Flow::Break(None) => return Ok(Flow::Normal),
                    other => return Ok(other),
                }
            }
        }
        Ok(Flow::Normal)
    }

    /// Shared loop driver with iteration budgets and label handling.
    fn exec_loop<'b, F>(
        &mut self,
        scope: &ScopeRef,
        _label: Option<&str>,
        mut step: F,
    ) -> Result<Flow, JsError>
    where
        F: FnMut(&mut Interp, &ScopeRef) -> Result<LoopStep<'b>, JsError>,
    {
        let label = self.pending_label.take();
        let mut iters: u64 = 0;
        loop {
            iters += 1;
            if iters > self.opts.max_loop_iters {
                return Err(self.trip_budget(BudgetKind::Loop));
            }
            let (body, body_scope) = match step(self, scope)? {
                LoopStep::Done => return Ok(Flow::Normal),
                LoopStep::Body(b) => (b, scope.clone()),
                LoopStep::BodyIn(b, s) => (b, s),
            };
            match self.exec_stmt(body, &body_scope)? {
                Flow::Normal => {}
                Flow::Break(None) => return Ok(Flow::Normal),
                Flow::Break(Some(l)) => {
                    if label.as_deref() == Some(&*l) {
                        return Ok(Flow::Normal);
                    }
                    return Ok(Flow::Break(Some(l)));
                }
                Flow::Continue(None) => {}
                Flow::Continue(Some(l)) => {
                    if label.as_deref() == Some(&*l) {
                        continue;
                    }
                    return Ok(Flow::Continue(Some(l)));
                }
                Flow::Return(v) => return Ok(Flow::Return(v)),
            }
        }
    }

    fn bind_for_head(&mut self, head: &ForHead, v: Value, scope: &ScopeRef) -> Result<(), JsError> {
        match head {
            // A `var` head writes through to the hoisted binding.
            ForHead::VarDecl { kind, pat } => {
                self.bind_pattern(pat, v, scope, *kind != VarKind::Var)
            }
            ForHead::Target(e) => {
                self.assign_to_expr(e, v, scope)?;
                Ok(())
            }
        }
    }

    /// Keys enumerated by `for-in` (own + inherited enumerable, deduped).
    pub(crate) fn enumerate_keys(&self, v: &Value) -> Vec<std::rc::Rc<str>> {
        let Some(id) = v.as_obj() else {
            return Vec::new();
        };
        if matches!(self.heap.get(id).kind, ObjKind::Proxy) {
            return Vec::new();
        }
        let mut seen = aji_support::hash::FxHashSet::default();
        let mut out = Vec::new();
        let mut cur = Some(id);
        let mut hops = 0;
        while let Some(o) = cur {
            for k in self.heap.own_enumerable_keys(o) {
                if seen.insert(k.clone()) {
                    out.push(k);
                }
            }
            cur = self.heap.get(o).proto;
            hops += 1;
            if hops > 64 {
                break;
            }
        }
        out
    }

    /// Values iterated by `for-of` / spread (arrays, strings, array-likes).
    pub(crate) fn iterate_values(&mut self, v: &Value) -> Result<Vec<Value>, JsError> {
        match v {
            Value::Str(s) => Ok(s.chars().map(|c| Value::str(c.to_string())).collect()),
            Value::Obj(id) => {
                let obj = self.heap.get(*id);
                match &obj.kind {
                    ObjKind::Array(elems) => Ok(elems.clone()),
                    ObjKind::Proxy => Ok(Vec::new()),
                    _ => {
                        // Array-like: use `length` + indices.
                        let len = match self.get_property(v.clone(), "length", None)? {
                            Value::Num(n) if n.is_finite() && n >= 0.0 => n as usize,
                            _ => {
                                if self.opts.approx {
                                    return Ok(Vec::new());
                                }
                                return Err(self.throw_error("TypeError", "value is not iterable"));
                            }
                        };
                        let mut out = Vec::with_capacity(len.min(4096));
                        for i in 0..len.min(100_000) {
                            out.push(self.get_property(v.clone(), &i.to_string(), None)?);
                        }
                        Ok(out)
                    }
                }
            }
            _ => {
                if self.opts.approx {
                    Ok(Vec::new())
                } else {
                    Err(self.throw_error("TypeError", "value is not iterable"))
                }
            }
        }
    }
}

enum LoopStep<'a> {
    Done,
    Body(&'a Stmt),
    BodyIn(&'a Stmt, ScopeRef),
}

fn pattern_names_bound(p: &Pattern, scope: &ScopeRef) -> bool {
    let mut names = Vec::new();
    visit::pattern_names(p, &mut names);
    names.iter().all(|n| crate::env::lookup(scope, n).is_some())
}
