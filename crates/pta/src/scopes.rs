//! Lexical scope resolution.
//!
//! Maps every identifier reference (and declaration) to a `VarId` so the
//! constraint generator can use one points-to cell per variable binding
//! (context-insensitive). Unresolved names map to shared per-name global
//! variables, as in sloppy-mode JavaScript.

use aji_ast::ast::*;
use aji_ast::visit::{self, BlockDecl};
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
            let v = r.res.fresh(VarInfo::ModuleMagic(file, name.to_string()));
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
    /// body, see [`visit::var_names`]); otherwise only block-level names
    /// are.
    fn hoist_stmts(&mut self, stmts: &[Stmt], function_scope: bool) {
        let mut names = Vec::new();
        if function_scope {
            visit::var_names(stmts, &mut names);
        }
        for n in names.drain(..) {
            self.declare(n);
        }
        for d in visit::block_decls(stmts) {
            match d {
                BlockDecl::Function(f) => self.declare_decl(f.id, f.name.as_deref()),
                BlockDecl::Class(c) => self.declare_decl(c.id, c.name.as_deref()),
                BlockDecl::Lexical(d) => {
                    for decl in &d.decls {
                        visit::pattern_names(&decl.name, &mut names);
                    }
                    for n in names.drain(..) {
                        self.declare(n);
                    }
                }
            }
        }
    }

    /// Declares a function or class declaration's name and records the
    /// binding against the declaration node.
    fn declare_decl(&mut self, node: NodeId, name: Option<&str>) {
        if let Some(n) = name {
            let v = self.declare(n);
            self.res.decls.insert(node, v);
        }
    }

    /// Binds a pattern's idents and resolves its defaults and computed
    /// keys. A `let`/`const`/parameter/catch pattern (`declare`) binds in
    /// the innermost scope; a `var` pattern or an assignment target
    /// resolves to the binding already in scope, so a `var` in a nested
    /// block or loop head writes the function's hoisted binding.
    fn bind_pattern(&mut self, p: &Pattern, declare: bool) {
        match &p.kind {
            PatternKind::Ident(n) => {
                let v = if declare {
                    self.declare(n)
                } else {
                    self.lookup(n)
                };
                self.res.set_ref(p.id, v);
            }
            PatternKind::Array { elems, rest } => {
                for e in elems.iter().flatten() {
                    self.bind_pattern(e, declare);
                }
                if let Some(r) = rest {
                    self.bind_pattern(r, declare);
                }
            }
            PatternKind::Object { props, rest } => {
                for pr in props {
                    if let PropName::Computed(e) = &pr.key {
                        self.expr(e);
                    }
                    self.bind_pattern(&pr.value, declare);
                }
                if let Some(r) = rest {
                    self.bind_pattern(r, declare);
                }
            }
            PatternKind::Assign { pat, default } => {
                self.bind_pattern(pat, declare);
                self.expr(default);
            }
        }
    }

    /// Resolves a declaration list: binds each declarator's pattern (see
    /// [`Resolver::bind_pattern`]) and walks its initializer.
    fn var_decl(&mut self, d: &VarDecl) {
        for decl in &d.decls {
            self.bind_pattern(&decl.name, d.kind != VarKind::Var);
            if let Some(init) = &decl.init {
                self.expr(init);
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::VarDecl(d) => self.var_decl(d),
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
            StmtKind::For(for_stmt) => {
                let ForStmt {
                    init,
                    test,
                    update,
                    body,
                } = &**for_stmt;
                self.push_scope();
                match init {
                    Some(ForInit::VarDecl(d)) => self.var_decl(d),
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
            StmtKind::ForIn(f) | StmtKind::ForOf(f) => {
                self.push_scope();
                match &f.head {
                    ForHead::VarDecl { kind, pat } => self.bind_pattern(pat, *kind != VarKind::Var),
                    ForHead::Target(e) => self.expr(e),
                }
                self.expr(&f.right);
                self.stmt_in_block(&f.body);
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
            StmtKind::Empty | StmtKind::Break(_) | StmtKind::Continue(_) | StmtKind::Debugger => {}
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
            StmtKind::Try(try_stmt) => {
                let TryStmt {
                    block,
                    catch,
                    finally,
                } = &**try_stmt;
                self.push_scope();
                self.hoist_stmts(block, false);
                for s in block {
                    self.stmt(s);
                }
                self.pop_scope();
                if let Some(c) = catch {
                    self.push_scope();
                    if let Some(p) = &c.param {
                        self.bind_pattern(p, true);
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
            self.bind_pattern(&p.pat, true);
            if let Some(d) = &p.default {
                self.expr(d);
            }
        }
        if let Some(r) = &f.rest {
            self.bind_pattern(r, true);
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
                if &**name == "super" {
                    return;
                }
                let v = self.lookup(name);
                self.res.set_ref(e.id, v);
            }
            ExprKind::Function(f) | ExprKind::Arrow(f) => self.function(f),
            ExprKind::Class(c) => self.class(c),
            ExprKind::Assign { target, value, .. } => {
                match &**target {
                    AssignTarget::Ident { id, name, .. } => {
                        let v = self.lookup(name);
                        self.res.set_ref(*id, v);
                    }
                    AssignTarget::Member(m) => self.expr(m),
                    AssignTarget::Pattern(p) => self.bind_pattern(p, false),
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
                        self.0.bind_pattern(p, false);
                    }
                }
                walk_expr(&mut Walk(self), e);
            }
        }
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
                    if &**n == self.0 {
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
        let (ms, res) =
            resolve_src("var x = 1; function f() { return x; } function g() { return x; }");
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

    /// Ids of the binding patterns that declare `name`.
    fn find_binding(m: &Module, name: &str) -> Vec<NodeId> {
        use aji_ast::visit::{walk_module, walk_pattern, Visit};
        struct F<'a>(&'a str, Vec<NodeId>);
        impl Visit for F<'_> {
            fn visit_pattern(&mut self, p: &Pattern) {
                if matches!(&p.kind, PatternKind::Ident(n) if &**n == self.0) {
                    self.1.push(p.id);
                }
                walk_pattern(self, p);
            }
        }
        let mut f = F(name, Vec::new());
        walk_module(&mut f, m);
        f.1
    }

    #[test]
    fn nested_var_declarations_bind_the_hoisted_name() {
        for src in [
            "function f() { { var a = 1; } use(a); }",
            "function f(c) { if (c) var a = 1; use(a); }",
            "function f(c) { if (c) { var a = 1; } use(a); }",
            "function f() { for (var a = 0; a < 1; a++) {} use(a); }",
            "function f(o) { for (var a in o) {} use(a); }",
            "function f(o) { for (var a of o) {} use(a); }",
        ] {
            let (ms, res) = resolve_src(src);
            let decl = find_binding(&ms[0], "a");
            let uses = find_ident(&ms[0], "a");
            let (Some(&decl), Some(&after)) = (decl.first(), uses.last()) else {
                panic!("no declaration or use of `a` in {src}");
            };
            let v = res.var_of(decl).unwrap();
            assert_eq!(Some(v), res.var_of(after), "{src}");
            assert!(matches!(res.vars[v.0 as usize], VarInfo::Local(_)), "{src}");
        }
    }

    #[test]
    fn let_in_a_loop_head_stays_in_the_loop() {
        let (ms, res) = resolve_src("function f(o) { for (let a in o) { g(a); } use(a); }");
        let uses = find_ident(&ms[0], "a");
        assert_eq!(uses.len(), 2);
        let inner = res.var_of(uses[0]).unwrap();
        let after = res.var_of(uses[1]).unwrap();
        assert!(matches!(res.vars[inner.0 as usize], VarInfo::Local(_)));
        assert!(matches!(res.vars[after.0 as usize], VarInfo::Global(_)));
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
