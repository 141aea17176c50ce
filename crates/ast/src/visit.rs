//! Read-only AST visitors.
//!
//! [`Visit`] provides one overridable method per node category, each with a
//! default implementation that recurses via the free `walk_*` functions.
//! Overriding a method and *not* calling the corresponding `walk_*` prunes
//! the traversal below that node.
//!
//! The declaration walkers [`var_names`], [`pattern_names`] and
//! [`block_decls`] are the one statement of JavaScript's hoisting rules;
//! the interpreter and the points-to analysis's scope resolution both use
//! them.

use crate::ast::*;
use std::sync::Arc;

/// A read-only visitor over the AST.
///
/// Implementors override the hooks they care about; unimplemented hooks
/// recurse into children.
pub trait Visit: Sized {
    /// Visits a module.
    fn visit_module(&mut self, m: &Module) {
        walk_module(self, m);
    }
    /// Visits a statement.
    fn visit_stmt(&mut self, s: &Stmt) {
        walk_stmt(self, s);
    }
    /// Visits an expression.
    fn visit_expr(&mut self, e: &Expr) {
        walk_expr(self, e);
    }
    /// Visits a function (declaration, expression, arrow, method). The
    /// function arrives as the tree's own shared pointer, so a visitor can
    /// keep it without copying the body.
    fn visit_function(&mut self, f: &Arc<Function>) {
        walk_function(self, f);
    }
    /// Visits a class.
    fn visit_class(&mut self, c: &Class) {
        walk_class(self, c);
    }
    /// Visits a pattern.
    fn visit_pattern(&mut self, p: &Pattern) {
        walk_pattern(self, p);
    }
    /// Visits a variable declaration list.
    fn visit_var_decl(&mut self, d: &VarDecl) {
        walk_var_decl(self, d);
    }
    /// Visits a property name (computed keys contain expressions).
    fn visit_prop_name(&mut self, p: &PropName) {
        walk_prop_name(self, p);
    }
}

/// Recurses into a module's statements.
pub fn walk_module<V: Visit>(v: &mut V, m: &Module) {
    for s in &m.body {
        v.visit_stmt(s);
    }
}

/// Recurses into a statement's children.
pub fn walk_stmt<V: Visit>(v: &mut V, s: &Stmt) {
    match &s.kind {
        StmtKind::Expr(e) => v.visit_expr(e),
        StmtKind::VarDecl(d) => v.visit_var_decl(d),
        StmtKind::FuncDecl(f) => v.visit_function(f),
        StmtKind::ClassDecl(c) => v.visit_class(c),
        StmtKind::Return(e) => {
            if let Some(e) = e {
                v.visit_expr(e);
            }
        }
        StmtKind::If { test, cons, alt } => {
            v.visit_expr(test);
            v.visit_stmt(cons);
            if let Some(alt) = alt {
                v.visit_stmt(alt);
            }
        }
        StmtKind::While { test, body } => {
            v.visit_expr(test);
            v.visit_stmt(body);
        }
        StmtKind::DoWhile { body, test } => {
            v.visit_stmt(body);
            v.visit_expr(test);
        }
        StmtKind::For(f) => {
            let ForStmt {
                init,
                test,
                update,
                body,
            } = &**f;
            match init {
                Some(ForInit::VarDecl(d)) => v.visit_var_decl(d),
                Some(ForInit::Expr(e)) => v.visit_expr(e),
                None => {}
            }
            if let Some(t) = test {
                v.visit_expr(t);
            }
            if let Some(u) = update {
                v.visit_expr(u);
            }
            v.visit_stmt(body);
        }
        StmtKind::ForIn(f) | StmtKind::ForOf(f) => {
            walk_for_head(v, &f.head);
            v.visit_expr(&f.right);
            v.visit_stmt(&f.body);
        }
        StmtKind::Block(body) => {
            for s in body {
                v.visit_stmt(s);
            }
        }
        StmtKind::Empty | StmtKind::Break(_) | StmtKind::Continue(_) | StmtKind::Debugger => {}
        StmtKind::Labeled { body, .. } => v.visit_stmt(body),
        StmtKind::Switch { disc, cases } => {
            v.visit_expr(disc);
            for c in cases {
                if let Some(t) = &c.test {
                    v.visit_expr(t);
                }
                for s in &c.body {
                    v.visit_stmt(s);
                }
            }
        }
        StmtKind::Throw(e) => v.visit_expr(e),
        StmtKind::Try(t) => {
            let TryStmt {
                block,
                catch,
                finally,
            } = &**t;
            for s in block {
                v.visit_stmt(s);
            }
            if let Some(c) = catch {
                if let Some(p) = &c.param {
                    v.visit_pattern(p);
                }
                for s in &c.body {
                    v.visit_stmt(s);
                }
            }
            if let Some(f) = finally {
                for s in f {
                    v.visit_stmt(s);
                }
            }
        }
    }
}

fn walk_for_head<V: Visit>(v: &mut V, head: &ForHead) {
    match head {
        ForHead::VarDecl { pat, .. } => v.visit_pattern(pat),
        ForHead::Target(e) => v.visit_expr(e),
    }
}

/// Recurses into an expression's children.
pub fn walk_expr<V: Visit>(v: &mut V, e: &Expr) {
    match &e.kind {
        ExprKind::Num(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::Null
        | ExprKind::Regex(_)
        | ExprKind::Ident(_)
        | ExprKind::This => {}
        ExprKind::Template(t) => {
            for x in &t.exprs {
                v.visit_expr(x);
            }
        }
        ExprKind::Array(elems) => {
            for el in elems.iter().flatten() {
                v.visit_expr(&el.expr);
            }
        }
        ExprKind::Object(props) => {
            for p in props {
                match p {
                    Property::KeyValue { key, value } => {
                        v.visit_prop_name(key);
                        v.visit_expr(value);
                    }
                    Property::Method { key, func, .. } => {
                        v.visit_prop_name(key);
                        v.visit_function(func);
                    }
                    Property::Spread(e) => v.visit_expr(e),
                }
            }
        }
        ExprKind::Function(f) | ExprKind::Arrow(f) => v.visit_function(f),
        ExprKind::Class(c) => v.visit_class(c),
        ExprKind::Unary { expr, .. } => v.visit_expr(expr),
        ExprKind::Update { expr, .. } => v.visit_expr(expr),
        ExprKind::Binary { left, right, .. } | ExprKind::Logical { left, right, .. } => {
            v.visit_expr(left);
            v.visit_expr(right);
        }
        ExprKind::Assign { target, value, .. } => {
            match &**target {
                AssignTarget::Ident { .. } => {}
                AssignTarget::Member(m) => v.visit_expr(m),
                AssignTarget::Pattern(p) => v.visit_pattern(p),
            }
            v.visit_expr(value);
        }
        ExprKind::Cond { test, cons, alt } => {
            v.visit_expr(test);
            v.visit_expr(cons);
            v.visit_expr(alt);
        }
        ExprKind::Call { callee, args, .. } => {
            v.visit_expr(callee);
            for a in args {
                v.visit_expr(&a.expr);
            }
        }
        ExprKind::New { callee, args } => {
            v.visit_expr(callee);
            for a in args {
                v.visit_expr(&a.expr);
            }
        }
        ExprKind::Member { obj, prop, .. } => {
            v.visit_expr(obj);
            if let MemberProp::Computed(p) = prop {
                v.visit_expr(p);
            }
        }
        ExprKind::Seq(exprs) => {
            for x in exprs {
                v.visit_expr(x);
            }
        }
        ExprKind::Paren(inner) => v.visit_expr(inner),
    }
}

/// Recurses into a function's parameters and body.
pub fn walk_function<V: Visit>(v: &mut V, f: &Function) {
    for p in &f.params {
        v.visit_pattern(&p.pat);
        if let Some(d) = &p.default {
            v.visit_expr(d);
        }
    }
    if let Some(r) = &f.rest {
        v.visit_pattern(r);
    }
    match &f.body {
        FuncBody::Block(stmts) => {
            for s in stmts {
                v.visit_stmt(s);
            }
        }
        FuncBody::Expr(e) => v.visit_expr(e),
    }
}

/// Recurses into a class's superclass and members.
pub fn walk_class<V: Visit>(v: &mut V, c: &Class) {
    if let Some(s) = &c.super_class {
        v.visit_expr(s);
    }
    for m in &c.members {
        v.visit_prop_name(&m.key);
        match &m.kind {
            ClassMemberKind::Constructor(f) => v.visit_function(f),
            ClassMemberKind::Method { func, .. } => v.visit_function(func),
            ClassMemberKind::Field(init) => {
                if let Some(e) = init {
                    v.visit_expr(e);
                }
            }
        }
    }
}

/// Recurses into a pattern's children.
pub fn walk_pattern<V: Visit>(v: &mut V, p: &Pattern) {
    match &p.kind {
        PatternKind::Ident(_) => {}
        PatternKind::Array { elems, rest } => {
            for el in elems.iter().flatten() {
                v.visit_pattern(el);
            }
            if let Some(r) = rest {
                v.visit_pattern(r);
            }
        }
        PatternKind::Object { props, rest } => {
            for pr in props {
                v.visit_prop_name(&pr.key);
                v.visit_pattern(&pr.value);
            }
            if let Some(r) = rest {
                v.visit_pattern(r);
            }
        }
        PatternKind::Assign { pat, default } => {
            v.visit_pattern(pat);
            v.visit_expr(default);
        }
    }
}

/// Recurses into a declaration list's declarators.
pub fn walk_var_decl<V: Visit>(v: &mut V, d: &VarDecl) {
    for decl in &d.decls {
        v.visit_pattern(&decl.name);
        if let Some(init) = &decl.init {
            v.visit_expr(init);
        }
    }
}

/// Recurses into a computed property name.
pub fn walk_prop_name<V: Visit>(v: &mut V, p: &PropName) {
    if let PropName::Computed(e) = p {
        v.visit_expr(e);
    }
}

// ----- Declarations -------------------------------------------------------
//
// JavaScript's binding rules live here once, so that the interpreter and
// the points-to analysis agree on what every name is bound to: `var` names
// belong to the enclosing function, module or `eval` body ([`var_names`]);
// functions, classes and `let`/`const` bind in the statement list they
// appear in ([`block_decls`]).

/// Collects the `var` names a function, module or `eval` body declares, in
/// source order: through every nested statement and `for` head, but not
/// into nested functions or classes. A name declared twice appears twice.
pub fn var_names<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a str>) {
    for s in stmts {
        stmt_var_names(s, out);
    }
}

fn stmt_var_names<'a>(s: &'a Stmt, out: &mut Vec<&'a str>) {
    match &s.kind {
        StmtKind::VarDecl(d) => var_decl_names(d, out),
        StmtKind::If { cons, alt, .. } => {
            stmt_var_names(cons, out);
            if let Some(a) = alt {
                stmt_var_names(a, out);
            }
        }
        StmtKind::While { body, .. }
        | StmtKind::DoWhile { body, .. }
        | StmtKind::Labeled { body, .. } => stmt_var_names(body, out),
        StmtKind::For(f) => {
            if let Some(ForInit::VarDecl(d)) = &f.init {
                var_decl_names(d, out);
            }
            stmt_var_names(&f.body, out);
        }
        StmtKind::ForIn(f) | StmtKind::ForOf(f) => {
            if let ForHead::VarDecl {
                kind: VarKind::Var,
                pat,
            } = &f.head
            {
                pattern_names(pat, out);
            }
            stmt_var_names(&f.body, out);
        }
        StmtKind::Block(body) => var_names(body, out),
        StmtKind::Switch { cases, .. } => {
            for c in cases {
                var_names(&c.body, out);
            }
        }
        StmtKind::Try(t) => {
            var_names(&t.block, out);
            if let Some(c) = &t.catch {
                var_names(&c.body, out);
            }
            if let Some(f) = &t.finally {
                var_names(f, out);
            }
        }
        StmtKind::Expr(_)
        | StmtKind::FuncDecl(_)
        | StmtKind::ClassDecl(_)
        | StmtKind::Return(_)
        | StmtKind::Empty
        | StmtKind::Break(_)
        | StmtKind::Continue(_)
        | StmtKind::Throw(_)
        | StmtKind::Debugger => {}
    }
}

fn var_decl_names<'a>(d: &'a VarDecl, out: &mut Vec<&'a str>) {
    if d.kind == VarKind::Var {
        for decl in &d.decls {
            pattern_names(&decl.name, out);
        }
    }
}

/// Collects the names a binding pattern binds, in source order: through
/// array and object destructuring, defaults and rest elements.
pub fn pattern_names<'a>(p: &'a Pattern, out: &mut Vec<&'a str>) {
    match &p.kind {
        PatternKind::Ident(n) => out.push(n),
        PatternKind::Array { elems, rest } => {
            for e in elems.iter().flatten() {
                pattern_names(e, out);
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

/// A declaration that binds its names in the statement list it appears
/// in, rather than in the enclosing function.
#[derive(Debug, Clone, Copy)]
pub enum BlockDecl<'a> {
    /// A function declaration, bound (with its value) on entry.
    Function(&'a Arc<Function>),
    /// A class declaration.
    Class(&'a Class),
    /// A `let` or `const` declaration list.
    Lexical(&'a VarDecl),
}

/// Lists a statement list's own block-level declarations — functions,
/// classes and `let`/`const` — in source order. Nested statements are not
/// entered: each block, case list and loop head scopes its own.
pub fn block_decls(stmts: &[Stmt]) -> impl Iterator<Item = BlockDecl<'_>> {
    stmts.iter().filter_map(|s| match &s.kind {
        StmtKind::FuncDecl(f) => Some(BlockDecl::Function(f)),
        StmtKind::ClassDecl(c) => Some(BlockDecl::Class(c)),
        StmtKind::VarDecl(d) if d.kind != VarKind::Var => Some(BlockDecl::Lexical(d)),
        _ => None,
    })
}

/// Collects the [`NodeId`]s and spans of every function definition in a
/// module (including methods, arrows and class members), in traversal
/// order. This is the definition universe used by the coverage statistics
/// in §5 of the paper.
#[derive(Debug, Default)]
pub struct FunctionCollector {
    /// Collected `(id, span, name)` triples.
    pub functions: Vec<(NodeId, crate::Span, Option<Box<str>>)>,
}

impl Visit for FunctionCollector {
    fn visit_function(&mut self, f: &Arc<Function>) {
        self.functions.push((f.id, f.span, f.name.clone()));
        walk_function(self, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeIdGen, Span};

    fn dummy_span() -> Span {
        Span::dummy(crate::FileId(0))
    }

    fn ident(g: &mut NodeIdGen, name: &str) -> Expr {
        Expr {
            id: g.fresh(),
            span: dummy_span(),
            kind: ExprKind::Ident(name.into()),
        }
    }

    #[test]
    fn function_collector_finds_nested_functions() {
        let mut g = NodeIdGen::new();
        // function outer() { var f = function inner() {}; }
        let inner = Function {
            id: g.fresh(),
            span: dummy_span(),
            name: Some("inner".into()),
            params: Box::default(),
            rest: None,
            body: FuncBody::Block(Box::default()),
            is_arrow: false,
            is_async: false,
            is_generator: false,
        };
        let decl = Stmt {
            id: g.fresh(),
            span: dummy_span(),
            kind: StmtKind::VarDecl(VarDecl {
                kind: VarKind::Var,
                decls: Box::new([VarDeclarator {
                    span: dummy_span(),
                    name: Pattern {
                        id: g.fresh(),
                        span: dummy_span(),
                        kind: PatternKind::Ident("f".into()),
                    },
                    init: Some(Expr {
                        id: g.fresh(),
                        span: dummy_span(),
                        kind: ExprKind::Function(Arc::new(inner)),
                    }),
                }]),
            }),
        };
        let outer = Function {
            id: g.fresh(),
            span: dummy_span(),
            name: Some("outer".into()),
            params: Box::default(),
            rest: None,
            body: FuncBody::Block(Box::new([decl])),
            is_arrow: false,
            is_async: false,
            is_generator: false,
        };
        let module = Module {
            id: g.fresh(),
            span: dummy_span(),
            body: Box::new([Stmt {
                id: g.fresh(),
                span: dummy_span(),
                kind: StmtKind::FuncDecl(Arc::new(outer)),
            }]),
        };
        let mut c = FunctionCollector::default();
        c.visit_module(&module);
        let names: Vec<_> = c.functions.iter().map(|(_, _, n)| n.clone()).collect();
        assert_eq!(names, vec![Some("outer".into()), Some("inner".into())]);
    }

    #[test]
    fn walk_expr_visits_call_args() {
        let mut g = NodeIdGen::new();
        let callee = ident(&mut g, "f");
        let arg = ident(&mut g, "a");
        let call = Expr {
            id: g.fresh(),
            span: dummy_span(),
            kind: ExprKind::Call {
                callee: Box::new(callee),
                args: Box::new([ExprOrSpread {
                    spread: false,
                    expr: arg,
                }]),
                optional: false,
            },
        };
        struct IdentCounter(usize);
        impl Visit for IdentCounter {
            fn visit_expr(&mut self, e: &Expr) {
                if matches!(e.kind, ExprKind::Ident(_)) {
                    self.0 += 1;
                }
                walk_expr(self, e);
            }
        }
        let mut c = IdentCounter(0);
        c.visit_expr(&call);
        assert_eq!(c.0, 2);
    }
}
