//! Lexical scope resolution.
//!
//! Maps every identifier reference (and declaration) to a `VarId` so the
//! constraint generator can use one points-to cell per variable binding
//! (context-insensitive). Unresolved names map to shared per-name global
//! variables, as in sloppy-mode JavaScript.

use aji_ast::ast::*;
use aji_ast::{FileId, NodeId};
use aji_support::FxHashMap;
use std::sync::Arc;

/// Identifier of a resolved variable binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub u32);

/// What a variable binding is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarInfo {
    /// Ordinary lexical binding (name kept for diagnostics).
    Local(String),
    /// Global (unresolved) name, shared project-wide.
    Global(String),
    /// Per-module magic binding (`module`, `exports`, `require`, ...).
    ModuleMagic(FileId, String),
}

/// Output of scope resolution for a whole project.
#[derive(Debug, Default)]
pub struct Resolution {
    /// Reference/declaration node → variable, indexed by node id.
    refs: Vec<Option<VarId>>,
    /// Variable metadata, indexed by `VarId`.
    pub vars: Vec<VarInfo>,
    /// Function/class declaration node → the variable its name binds.
    decls: FxHashMap<NodeId, VarId>,
    /// Named function expression node → its self-reference binding.
    selfs: FxHashMap<NodeId, VarId>,
    /// Function node → its `arguments` binding.
    args: FxHashMap<NodeId, VarId>,
    globals: FxHashMap<String, VarId>,
}

impl Resolution {
    /// The variable a node refers to, if resolved.
    pub fn var_of(&self, node: NodeId) -> Option<VarId> {
        self.refs.get(node.0 as usize).copied().flatten()
    }

    fn set_ref(&mut self, node: NodeId, v: VarId) {
        *crate::dense_slot(&mut self.refs, node.0) = Some(v);
    }

    /// The global variable cell for a name (created on demand by the
    /// resolver; read-only here).
    pub fn global(&self, name: &str) -> Option<VarId> {
        self.globals.get(name).copied()
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The variable bound by a function/class *declaration*'s name.
    pub fn decl_of(&self, node: NodeId) -> Option<VarId> {
        self.decls.get(&node).copied()
    }

    /// The self-reference binding of a named function expression.
    pub fn self_of(&self, node: NodeId) -> Option<VarId> {
        self.selfs.get(&node).copied()
    }

    /// The `arguments` binding of a function.
    pub fn arguments_of(&self, node: NodeId) -> Option<VarId> {
        self.args.get(&node).copied()
    }

    fn fresh(&mut self, info: VarInfo) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(info);
        id
    }

    fn global_var(&mut self, name: &str) -> VarId {
        if let Some(v) = self.globals.get(name) {
            return *v;
        }
        let v = self.fresh(VarInfo::Global(name.to_string()));
        self.globals.insert(name.to_string(), v);
        v
    }
}

/// Magic names bound in every module scope.
pub const MODULE_MAGIC: [&str; 5] = ["module", "exports", "require", "__filename", "__dirname"];

/// Resolves all modules of a project. `modules[i]` must correspond to
/// `FileId(i)`.
pub fn resolve(modules: &[std::rc::Rc<Module>]) -> Resolution {
    let mut res = Resolution::default();
    for (i, m) in modules.iter().enumerate() {
        let file = FileId(i as u32);
        let mut r = Resolver {
            res: &mut res,
            scopes: Vec::new(),
        };
        r.push_scope();
        for name in MODULE_MAGIC {
            let v = r
                .res
                .fresh(VarInfo::ModuleMagic(file, name.to_string()));
            r.declare_raw(name, v);
        }
        r.hoist_stmts(&m.body, true);
        for s in &m.body {
            r.stmt(s);
        }
        r.pop_scope();
    }
    res
}

struct Resolver<'a> {
    res: &'a mut Resolution,
    scopes: Vec<FxHashMap<String, VarId>>,
}

impl<'a> Resolver<'a> {
    fn push_scope(&mut self) {
        self.scopes.push(FxHashMap::default());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn declare_raw(&mut self, name: &str, v: VarId) {
        self.scopes
            .last_mut()
            .expect("scope stack")
            .insert(name.to_string(), v);
    }

    fn declare(&mut self, name: &str) -> VarId {
        if let Some(v) = self.scopes.last().and_then(|s| s.get(name)) {
            return *v;
        }
        let v = self.res.fresh(VarInfo::Local(name.to_string()));
        self.declare_raw(name, v);
        v
    }

    fn lookup(&mut self, name: &str) -> VarId {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return *v;
            }
        }
        self.res.global_var(name)
    }

    /// Hoists declarations for a statement list. With `function_scope`,
    /// `var` names are declared here (the caller is a function or module
    /// body); otherwise only block-scoped names are.
    fn hoist_stmts(&mut self, stmts: &[Stmt], function_scope: bool) {
        if function_scope {
            let mut names = Vec::new();
            collect_var_names(stmts, &mut names);
            for n in names {
                self.declare(&n);
            }
        }
        for s in stmts {
            match &s.kind {
                StmtKind::FuncDecl(f) => {
                    if let Some(n) = &f.name {
                        let v = self.declare(n);
                        self.res.decls.insert(f.id, v);
                    }
                }
                StmtKind::ClassDecl(c) => {
                    if let Some(n) = &c.name {
                        let v = self.declare(n);
                        self.res.decls.insert(c.id, v);
                    }
                }
                StmtKind::VarDecl(d) if d.kind != VarKind::Var => {
                    for decl in &d.decls {
                        self.declare_pattern_names(&decl.name);
                    }
                }
                _ => {}
            }
        }
    }

    fn declare_pattern_names(&mut self, p: &Pattern) {
        match &p.kind {
            PatternKind::Ident(n) => {
                let v = self.declare(n);
                self.res.set_ref(p.id, v);
            }
            PatternKind::Array { elems, rest } => {
                for e in elems.iter().flatten() {
                    self.declare_pattern_names(e);
                }
                if let Some(r) = rest {
                    self.declare_pattern_names(r);
                }
            }
            PatternKind::Object { props, rest } => {
                for pr in props {
                    if let PropName::Computed(e) = &pr.key {
                        self.expr(e);
                    }
                    self.declare_pattern_names(&pr.value);
                }
                if let Some(r) = rest {
                    self.declare_pattern_names(r);
                }
            }
            PatternKind::Assign { pat, default } => {
                self.declare_pattern_names(pat);
                self.expr(default);
            }
        }
    }

    /// Re-resolves a pattern's idents against existing bindings (for
    /// assignment-style destructuring).
    fn resolve_pattern_refs(&mut self, p: &Pattern) {
        match &p.kind {
            PatternKind::Ident(n) => {
                let v = self.lookup(n);
                self.res.set_ref(p.id, v);
            }
            PatternKind::Array { elems, rest } => {
                for e in elems.iter().flatten() {
                    self.resolve_pattern_refs(e);
                }
                if let Some(r) = rest {
                    self.resolve_pattern_refs(r);
                }
            }
            PatternKind::Object { props, rest } => {
                for pr in props {
                    if let PropName::Computed(e) = &pr.key {
                        self.expr(e);
                    }
                    self.resolve_pattern_refs(&pr.value);
                }
                if let Some(r) = rest {
                    self.resolve_pattern_refs(r);
                }
            }
            PatternKind::Assign { pat, default } => {
                self.resolve_pattern_refs(pat);
                self.expr(default);
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::VarDecl(d) => {
                for decl in &d.decls {
                    // Names were hoisted; bind the pattern refs and walk
                    // the initializer.
                    self.declare_pattern_names(&decl.name);
                    if let Some(init) = &decl.init {
                        self.expr(init);
                    }
                }
            }
            StmtKind::FuncDecl(f) => self.function(f),
            StmtKind::ClassDecl(c) => self.class(c),
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    self.expr(e);
                }
            }
            StmtKind::If { test, cons, alt } => {
                self.expr(test);
                self.stmt_in_block(cons);
                if let Some(a) = alt {
                    self.stmt_in_block(a);
                }
            }
            StmtKind::While { test, body } => {
                self.expr(test);
                self.stmt_in_block(body);
            }
            StmtKind::DoWhile { body, test } => {
                self.stmt_in_block(body);
                self.expr(test);
            }
            StmtKind::For {
                init,
                test,
                update,
                body,
            } => {
                self.push_scope();
                match init {
                    Some(ForInit::VarDecl(d)) => {
                        for decl in &d.decls {
                            self.declare_pattern_names(&decl.name);
                            if let Some(i) = &decl.init {
                                self.expr(i);
                            }
                        }
                    }
                    Some(ForInit::Expr(e)) => self.expr(e),
                    None => {}
                }
                if let Some(t) = test {
                    self.expr(t);
                }
                if let Some(u) = update {
                    self.expr(u);
                }
                self.stmt_in_block(body);
                self.pop_scope();
            }
            StmtKind::ForIn { head, obj, body } => {
                self.push_scope();
                match head {
                    ForHead::VarDecl { pat, .. } => self.declare_pattern_names(pat),
                    ForHead::Target(e) => self.expr(e),
                }
                self.expr(obj);
                self.stmt_in_block(body);
                self.pop_scope();
            }
            StmtKind::ForOf { head, iter, body } => {
                self.push_scope();
                match head {
                    ForHead::VarDecl { pat, .. } => self.declare_pattern_names(pat),
                    ForHead::Target(e) => self.expr(e),
                }
                self.expr(iter);
                self.stmt_in_block(body);
                self.pop_scope();
            }
            StmtKind::Block(body) => {
                self.push_scope();
                self.hoist_stmts(body, false);
                for s in body {
                    self.stmt(s);
                }
                self.pop_scope();
            }
            StmtKind::Empty
            | StmtKind::Break(_)
            | StmtKind::Continue(_)
            | StmtKind::Debugger => {}
            StmtKind::Labeled { body, .. } => self.stmt(body),
            StmtKind::Switch { disc, cases } => {
                self.expr(disc);
                self.push_scope();
                for c in cases {
                    self.hoist_stmts(&c.body, false);
                }
                for c in cases {
                    if let Some(t) = &c.test {
                        self.expr(t);
                    }
                    for s in &c.body {
                        self.stmt(s);
                    }
                }
                self.pop_scope();
            }
            StmtKind::Throw(e) => self.expr(e),
            StmtKind::Try {
                block,
                catch,
                finally,
            } => {
                self.push_scope();
                self.hoist_stmts(block, false);
                for s in block {
                    self.stmt(s);
                }
                self.pop_scope();
                if let Some(c) = catch {
                    self.push_scope();
                    if let Some(p) = &c.param {
                        self.declare_pattern_names(p);
                    }
                    self.hoist_stmts(&c.body, false);
                    for s in &c.body {
                        self.stmt(s);
                    }
                    self.pop_scope();
                }
                if let Some(f) = finally {
                    self.push_scope();
                    self.hoist_stmts(f, false);
                    for s in f {
                        self.stmt(s);
                    }
                    self.pop_scope();
                }
            }
        }
    }

    fn stmt_in_block(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Block(_) => self.stmt(s),
            _ => {
                self.push_scope();
                self.stmt(s);
                self.pop_scope();
            }
        }
    }

    fn function(&mut self, f: &Function) {
        self.push_scope();
        if let Some(n) = &f.name {
            // Named function expressions can refer to themselves.
            let v = self.declare(n);
            self.res.selfs.insert(f.id, v);
        }
        for p in &f.params {
            self.declare_pattern_names(&p.pat);
            if let Some(d) = &p.default {
                self.expr(d);
            }
        }
        if let Some(r) = &f.rest {
            self.declare_pattern_names(r);
        }
        // `arguments` is a binding of its own.
        let av = self.declare("arguments");
        self.res.args.insert(f.id, av);
        match &f.body {
            FuncBody::Block(stmts) => {
                self.hoist_stmts(stmts, true);
                for s in stmts {
                    self.stmt(s);
                }
            }
            FuncBody::Expr(e) => self.expr(e),
        }
        self.pop_scope();
    }

    fn class(&mut self, c: &Class) {
        if let Some(s) = &c.super_class {
            self.expr(s);
        }
        for m in &c.members {
            if let PropName::Computed(e) = &m.key {
                self.expr(e);
            }
            match &m.kind {
                ClassMemberKind::Constructor(f) => self.function(f),
                ClassMemberKind::Method { func, .. } => self.function(func),
                ClassMemberKind::Field(Some(e)) => self.expr(e),
                ClassMemberKind::Field(None) => {}
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Ident(name) => {
                if name == "super" {
                    return;
                }
                let v = self.lookup(name);
                self.res.set_ref(e.id, v);
            }
            ExprKind::Function(f) | ExprKind::Arrow(f) => self.function(f),
            ExprKind::Class(c) => self.class(c),
            ExprKind::Assign { target, value, .. } => {
                match target {
                    AssignTarget::Ident { id, name, .. } => {
                        let v = self.lookup(name);
                        self.res.set_ref(*id, v);
                    }
                    AssignTarget::Member(m) => self.expr(m),
                    AssignTarget::Pattern(p) => self.resolve_pattern_refs(p),
                }
                self.expr(value);
            }
            ExprKind::Object(props) => {
                for p in props {
                    match p {
                        Property::KeyValue { key, value } => {
                            if let PropName::Computed(k) = key {
                                self.expr(k);
                            }
                            self.expr(value);
                        }
                        Property::Method { key, func, .. } => {
                            if let PropName::Computed(k) = key {
                                self.expr(k);
                            }
                            self.function(func);
                        }
                        Property::Spread(e) => self.expr(e),
                    }
                }
            }
            _ => {
                // Generic recursion over children.
                use aji_ast::visit::{walk_expr, Visit};
                struct Walk<'b, 'c>(&'b mut Resolver<'c>);
                impl Visit for Walk<'_, '_> {
                    fn visit_expr(&mut self, e: &Expr) {
                        self.0.expr(e);
                    }
                    fn visit_function(&mut self, f: &Arc<Function>) {
                        self.0.function(f);
                    }
                    fn visit_class(&mut self, c: &Class) {
                        self.0.class(c);
                    }
                    fn visit_pattern(&mut self, p: &Pattern) {
                        self.0.resolve_pattern_refs(p);
                    }
                }
                walk_expr(&mut Walk(self), e);
            }
        }
    }
}

/// Collects `var` names without entering nested functions.
fn collect_var_names(stmts: &[Stmt], out: &mut Vec<String>) {
    for s in stmts {
        collect_stmt(s, out);
    }
}

fn collect_stmt(s: &Stmt, out: &mut Vec<String>) {
    match &s.kind {
        StmtKind::VarDecl(d) if d.kind == VarKind::Var => {
            for decl in &d.decls {
                pattern_names(&decl.name, out);
            }
        }
        StmtKind::If { cons, alt, .. } => {
            collect_stmt(cons, out);
            if let Some(a) = alt {
                collect_stmt(a, out);
            }
        }
        StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => collect_stmt(body, out),
        StmtKind::For { init, body, .. } => {
            if let Some(ForInit::VarDecl(d)) = init {
                if d.kind == VarKind::Var {
                    for decl in &d.decls {
                        pattern_names(&decl.name, out);
                    }
                }
            }
            collect_stmt(body, out);
        }
        StmtKind::ForIn { head, body, .. } | StmtKind::ForOf { head, body, .. } => {
            if let ForHead::VarDecl {
                kind: VarKind::Var,
                pat,
            } = head
            {
                pattern_names(pat, out);
            }
            collect_stmt(body, out);
        }
        StmtKind::Block(body) => collect_var_names(body, out),
        StmtKind::Labeled { body, .. } => collect_stmt(body, out),
        StmtKind::Switch { cases, .. } => {
            for c in cases {
                collect_var_names(&c.body, out);
            }
        }
        StmtKind::Try {
            block,
            catch,
            finally,
        } => {
            collect_var_names(block, out);
            if let Some(c) = catch {
                collect_var_names(&c.body, out);
            }
            if let Some(f) = finally {
                collect_var_names(f, out);
            }
        }
        _ => {}
    }
}

fn pattern_names(p: &Pattern, out: &mut Vec<String>) {
    match &p.kind {
        PatternKind::Ident(n) => out.push(n.clone()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use aji_ast::{NodeIdGen, Project};

    fn resolve_src(src: &str) -> (Vec<std::rc::Rc<Module>>, Resolution) {
        let mut p = Project::new("t");
        p.add_file("index.js", src);
        let parsed = aji_parser::parse_project(&p).unwrap();
        let res = resolve(&parsed.modules);
        (parsed.modules, res)
    }

    fn find_ident(m: &Module, name: &str) -> Vec<NodeId> {
        use aji_ast::visit::{walk_expr, Visit};
        struct F<'a>(&'a str, Vec<NodeId>);
        impl Visit for F<'_> {
            fn visit_expr(&mut self, e: &Expr) {
                if let ExprKind::Ident(n) = &e.kind {
                    if n == self.0 {
                        self.1.push(e.id);
                    }
                }
                walk_expr(self, e);
            }
        }
        let mut f = F(name, Vec::new());
        use aji_ast::visit::walk_module;
        walk_module(&mut f, m);
        f.1
    }

    #[test]
    fn closure_references_resolve_to_same_var() {
        let (ms, res) = resolve_src(
            "var x = 1; function f() { return x; } function g() { return x; }",
        );
        let refs = find_ident(&ms[0], "x");
        assert_eq!(refs.len(), 2);
        let v1 = res.var_of(refs[0]).unwrap();
        let v2 = res.var_of(refs[1]).unwrap();
        assert_eq!(v1, v2);
        assert!(matches!(res.vars[v1.0 as usize], VarInfo::Local(_)));
    }

    #[test]
    fn shadowing_creates_distinct_vars() {
        let (ms, res) = resolve_src("var x = 1; function f(x) { return x; } var y = x;");
        let refs = find_ident(&ms[0], "x");
        // `return x` resolves to the parameter, `var y = x` to the outer.
        assert_eq!(refs.len(), 2);
        assert_ne!(res.var_of(refs[0]), res.var_of(refs[1]));
    }

    #[test]
    fn unresolved_names_are_globals() {
        let (ms, res) = resolve_src("missing(1);");
        let refs = find_ident(&ms[0], "missing");
        let v = res.var_of(refs[0]).unwrap();
        assert!(matches!(res.vars[v.0 as usize], VarInfo::Global(_)));
    }

    #[test]
    fn module_magic_vars() {
        let (ms, res) = resolve_src("module.exports = exports;");
        let m_refs = find_ident(&ms[0], "module");
        let v = res.var_of(m_refs[0]).unwrap();
        assert!(matches!(
            res.vars[v.0 as usize],
            VarInfo::ModuleMagic(_, ref n) if n == "module"
        ));
    }

    #[test]
    fn let_is_block_scoped() {
        let (ms, res) = resolve_src("let a = 1; { let a = 2; use(a); } use2(a);");
        let refs = find_ident(&ms[0], "a");
        assert_eq!(refs.len(), 2);
        assert_ne!(res.var_of(refs[0]), res.var_of(refs[1]));
    }

    #[test]
    fn var_hoists_through_blocks() {
        let (ms, res) = resolve_src("{ var a = 1; } use(a);");
        let refs = find_ident(&ms[0], "a");
        let v = res.var_of(refs[0]).unwrap();
        assert!(matches!(res.vars[v.0 as usize], VarInfo::Local(_)));
    }

    #[test]
    fn catch_param_is_scoped() {
        let (_ms, res) = resolve_src("try { f(); } catch (e) { g(e); }");
        // No panic, e resolves locally — enough that resolution exists.
        assert!(res.var_count() > 0);
    }

    #[test]
    fn unused_generator_is_fine() {
        let mut gen = NodeIdGen::new();
        let _ = gen.fresh();
        // Smoke check of resolve on empty input.
        let res = resolve(&[]);
        assert_eq!(res.var_count(), 0);
    }
}
