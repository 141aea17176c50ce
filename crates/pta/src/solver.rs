//! Subset-constraint solver: tokens, cells, difference propagation and
//! on-the-fly call resolution (Figure 3 of the paper, plus pragmatic
//! models of the core standard library in the style of Jelly).

use crate::dense_slot;
use crate::scopes::VarId;
use aji_ast::{resolve_module, FileId, Loc, NodeId};
use aji_support::{FxHashMap, FxHashSet};
use std::collections::VecDeque;

/// Interned string (property names, builtin paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// Simple string interner.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    map: FxHashMap<String, Sym>,
    names: Vec<String>,
}

impl Interner {
    /// Interns a string.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Sym(self.names.len() as u32);
        self.names.push(s.to_string());
        self.map.insert(s.to_string(), sym);
        sym
    }

    /// The string of a symbol.
    pub fn name(&self, s: Sym) -> &str {
        &self.names[s.0 as usize]
    }
}

/// Index of a function in the solver's function table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncIdx(pub u32);

/// An abstract value (allocation-site abstraction, Figure 3's `V`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u32);

/// What a token abstracts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TokenData {
    /// Objects allocated at a source location (object/array literals,
    /// `new` sites, `Object.create` sites, hint-referenced sites).
    Obj(Loc),
    /// Function values of a function definition.
    Func(FuncIdx),
    /// The initial `prototype` object of a function.
    Proto(FuncIdx),
    /// A module's `module` object.
    ModuleObj(FileId),
    /// A module's initial `exports` object.
    Exports(FileId),
    /// An opaque builtin, identified by a dotted path like
    /// `Object.create` or `module:events`.
    Builtin(Sym),
    /// The `arguments` object of a function.
    Args(FuncIdx),
    /// The rest-parameter array of a function.
    Rest(FuncIdx),
}

/// Where a call site or function definition syntactically lives — the
/// reachability roots and edges in §5's "reachable functions" metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encl {
    /// Top-level code of a module.
    Module(FileId),
    /// Inside a function definition.
    Func(FuncIdx),
}

/// A constraint-variable cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// A resolved variable.
    Var(VarId),
    /// An expression's value.
    Expr(NodeId),
    /// A property of an abstract object: `⟦t.p⟧`.
    Field(Token, Sym),
    /// Parameter `i` of a function.
    Param(FuncIdx, u16),
    /// Return cell of a function.
    Ret(FuncIdx),
    /// `this` cell of a function.
    This(FuncIdx),
    /// `this` at a module's top level.
    ModuleThis(FileId),
    /// Generator-allocated temporary.
    Tmp(u32),
}

/// Cell handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// Complex constraints attached to cells, fired per arriving token.
#[derive(Debug, Clone)]
pub enum Constraint {
    /// `dst ⊇ ⟦t.prop⟧` for every token `t` arriving here (property read,
    /// consulting the prototype chain).
    Load {
        /// Property read.
        prop: Sym,
        /// Destination cell.
        dst: CellId,
    },
    /// `⟦t.prop⟧ ⊇ src` for every `t` arriving here (property write).
    Store {
        /// Property written.
        prop: Sym,
        /// Source cell.
        src: CellId,
    },
    /// Arriving tokens are callees of call site `site`.
    Call {
        /// Call-site index.
        site: u32,
    },
    /// Arriving function tokens are invoked as callbacks of `site` with
    /// the given argument/return wiring (stdlib model).
    Callback {
        /// Call-site index (for the call edge).
        site: u32,
        /// Cell flowing into the callback's first parameter.
        p0: Option<CellId>,
        /// Cell flowing into the callback's second parameter.
        p1: Option<CellId>,
        /// Cell flowing into the callback's `this`.
        this0: Option<CellId>,
        /// Cell receiving the callback's return value.
        ret: Option<CellId>,
    },
    /// Arriving function tokens are invoked via `f.call(this, a, b)`.
    DotCall {
        /// Call-site index.
        site: u32,
    },
    /// Arriving function tokens are invoked via `f.apply(this, args)`.
    DotApply {
        /// Call-site index.
        site: u32,
    },
    /// Arriving tokens become prototypes of `child`.
    ProtoFor {
        /// The token whose prototype set grows.
        child: Token,
    },
}

/// Metadata of one function definition.
#[derive(Debug, Clone)]
pub struct FuncInfo {
    /// Definition node.
    pub node: NodeId,
    /// Definition location (matches hint locations).
    pub loc: Loc,
    /// File containing the definition.
    pub file: FileId,
    /// Name (diagnostics).
    pub name: Option<Box<str>>,
    /// Number of declared parameters.
    pub param_count: u16,
    /// Whether the function has a rest parameter.
    pub has_rest: bool,
    /// Where the definition lives (reachability edge source grouping).
    pub enclosing: Encl,
}

/// One call or `new` site.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The call expression node.
    pub node: NodeId,
    /// Location of the call expression.
    pub loc: Loc,
    /// File of the call site.
    pub file: FileId,
    /// Syntactic context.
    pub enclosing: Encl,
    /// Argument cells, in order.
    pub args: Vec<CellId>,
    /// Cell collecting elements of spread arguments, if any.
    pub spread: Option<CellId>,
    /// Receiver cell for method calls.
    pub this_cell: Option<CellId>,
    /// Result cell.
    pub result: CellId,
    /// Whether this is a `new` expression.
    pub is_new: bool,
    /// The abstract object allocated by a `new` site (pre-minted by the
    /// generator so hint locations resolve to the same token).
    pub new_token: Option<Token>,
    /// First argument when it is a string literal (for `require`).
    pub lit_arg0: Option<String>,
}

#[derive(Debug, Default, Clone)]
struct Cell {
    tokens: FxHashSet<Token>,
    succs: Vec<CellId>,
    cons: Vec<Constraint>,
}

/// Solver statistics.
#[derive(Debug, Clone, Default)]
pub struct SolverStats {
    /// Number of cells created.
    pub cells: usize,
    /// Number of tokens created.
    pub tokens: usize,
    /// Number of (cell, token) propagation steps processed.
    pub propagations: u64,
    /// Number of [`Solver::solve`] fixpoint rounds run.
    pub solve_rounds: u64,
}

/// The constraint solver.
#[derive(Clone)]
pub struct Solver {
    /// String interner for properties and builtin paths.
    pub interner: Interner,
    /// Function table.
    pub funcs: Vec<FuncInfo>,
    /// Call-site table.
    pub sites: Vec<CallSite>,
    /// Token table.
    pub token_data: Vec<TokenData>,
    /// Project file paths (for `require` resolution), indexed by FileId.
    pub paths: Vec<String>,

    cells: Vec<Cell>,
    /// Cells of the sparse kinds; `Expr` and `Var` cells live in the
    /// dense tables below, indexed by node and variable id.
    cell_ids: FxHashMap<CellKind, CellId>,
    expr_cells: Vec<Option<CellId>>,
    var_cells: Vec<Option<CellId>>,
    token_ids: FxHashMap<TokenData, Token>,
    tmp_counter: u32,
    worklist: VecDeque<(CellId, Token)>,

    /// Prototype graph: token → its prototypes.
    protos: FxHashMap<Token, Vec<Token>>,
    inv_protos: FxHashMap<Token, Vec<Token>>,
    loads_by_token: FxHashMap<Token, Vec<(Sym, CellId)>>,

    /// Discovered call edges: (site, callee function).
    pub call_edges: FxHashSet<(u32, FuncIdx)>,
    /// Discovered module-load edges: (site, loaded file).
    pub module_edges: FxHashSet<(u32, FileId)>,
    /// Module hints: `require` site loc → hinted file indices (extended
    /// mode).
    module_hints: FxHashMap<Loc, Vec<usize>>,
    /// Sites the `require` builtin has fired at, by location: a module
    /// hint added after the fact is wired into these directly.
    required_at: FxHashMap<Loc, Vec<u32>>,

    /// The interned element property for arrays.
    pub elems_sym: Sym,
    /// The interned `prototype` property.
    pub prototype_sym: Sym,

    /// Statistics.
    pub stats: SolverStats,
}

impl Solver {
    /// Creates an empty solver for a project with the given file paths.
    pub fn new(paths: Vec<String>) -> Self {
        let mut interner = Interner::default();
        let elems_sym = interner.intern("\u{0}elems");
        let prototype_sym = interner.intern("prototype");
        Solver {
            interner,
            funcs: Vec::new(),
            sites: Vec::new(),
            token_data: Vec::new(),
            paths,
            cells: Vec::new(),
            cell_ids: FxHashMap::default(),
            expr_cells: Vec::new(),
            var_cells: Vec::new(),
            token_ids: FxHashMap::default(),
            tmp_counter: 0,
            worklist: VecDeque::new(),
            protos: FxHashMap::default(),
            inv_protos: FxHashMap::default(),
            loads_by_token: FxHashMap::default(),
            call_edges: FxHashSet::default(),
            module_edges: FxHashSet::default(),
            module_hints: FxHashMap::default(),
            required_at: FxHashMap::default(),
            elems_sym,
            prototype_sym,
            stats: SolverStats::default(),
        }
    }

    /// Returns (or creates) the cell for a kind.
    pub fn cell(&mut self, kind: CellKind) -> CellId {
        let fresh = CellId(self.cells.len() as u32);
        let id = match kind {
            CellKind::Expr(n) => *dense_slot(&mut self.expr_cells, n.0).get_or_insert(fresh),
            CellKind::Var(v) => *dense_slot(&mut self.var_cells, v.0).get_or_insert(fresh),
            _ => *self.cell_ids.entry(kind).or_insert(fresh),
        };
        if id == fresh {
            self.cells.push(Cell::default());
            self.stats.cells += 1;
        }
        id
    }

    /// Creates a fresh temporary cell.
    pub fn tmp(&mut self) -> CellId {
        self.tmp_counter += 1;
        self.cell(CellKind::Tmp(self.tmp_counter))
    }

    /// Returns (or creates) the token for a datum.
    pub fn token(&mut self, data: TokenData) -> Token {
        if let Some(&t) = self.token_ids.get(&data) {
            return t;
        }
        let t = Token(self.token_data.len() as u32);
        self.token_data.push(data.clone());
        self.token_ids.insert(data, t);
        self.stats.tokens += 1;
        t
    }

    /// The data of a token.
    pub fn data(&self, t: Token) -> &TokenData {
        &self.token_data[t.0 as usize]
    }

    /// Adds a token to a cell.
    pub fn add_token(&mut self, cell: CellId, t: Token) {
        if self.cells[cell.0 as usize].tokens.insert(t) {
            self.worklist.push_back((cell, t));
        }
    }

    /// Adds a subset edge `from ⊆ to` and propagates existing tokens.
    pub fn add_edge(&mut self, from: CellId, to: CellId) {
        if from == to {
            return;
        }
        let c = &mut self.cells[from.0 as usize];
        if c.succs.contains(&to) {
            return;
        }
        c.succs.push(to);
        let tokens: Vec<Token> = self.cells[from.0 as usize].tokens.iter().copied().collect();
        for t in tokens {
            self.add_token(to, t);
        }
    }

    /// Attaches a constraint to a cell, replaying existing tokens.
    pub fn add_constraint(&mut self, cell: CellId, c: Constraint) {
        let tokens: Vec<Token> = self.cells[cell.0 as usize].tokens.iter().copied().collect();
        self.cells[cell.0 as usize].cons.push(c.clone());
        for t in tokens {
            self.apply(cell, t, &c);
        }
    }

    /// The tokens currently in a cell.
    pub fn tokens_of(&self, cell: CellId) -> Vec<Token> {
        self.cells[cell.0 as usize].tokens.iter().copied().collect()
    }

    /// Looks up a cell without creating it.
    pub fn cell_if_exists(&self, kind: CellKind) -> Option<CellId> {
        match kind {
            CellKind::Expr(n) => self.expr_cells.get(n.0 as usize).copied().flatten(),
            CellKind::Var(v) => self.var_cells.get(v.0 as usize).copied().flatten(),
            _ => self.cell_ids.get(&kind).copied(),
        }
    }

    /// Adds a module hint: the `require` call at `site` also loads the
    /// project files `paths` (paths outside the project are ignored). A
    /// site the builtin has already fired at is wired at once;
    /// [`Solver::solve`] then propagates the new exports.
    pub fn add_module_hint(&mut self, site: Loc, paths: Vec<String>) {
        let files: Vec<usize> = paths
            .iter()
            .filter_map(|path| self.paths.iter().position(|p| p == path))
            .collect();
        for idx in self.required_at.get(&site).cloned().unwrap_or_default() {
            self.wire_require_targets(idx, &files);
        }
        self.module_hints.insert(site, files);
    }

    /// Runs propagation to a fixpoint.
    pub fn solve(&mut self) {
        let steps = aji_obs::counter("pta.propagations");
        let before = self.stats.propagations;
        while let Some((cell, t)) = self.worklist.pop_front() {
            self.stats.propagations += 1;
            steps.inc();
            // Successors.
            let succs = self.cells[cell.0 as usize].succs.clone();
            for s in succs {
                self.add_token(s, t);
            }
            // Constraints.
            let cons = self.cells[cell.0 as usize].cons.clone();
            for c in cons {
                self.apply(cell, t, &c);
            }
        }
        self.stats.solve_rounds += 1;
        if steps.is_live() {
            aji_obs::counter_add("pta.solve_rounds", 1);
            aji_obs::histogram_record(
                "pta.propagations_per_round",
                self.stats.propagations - before,
            );
        }
    }

    fn apply(&mut self, _cell: CellId, t: Token, c: &Constraint) {
        match c {
            Constraint::Load { prop, dst } => self.apply_load(t, *prop, *dst),
            Constraint::Store { prop, src } => {
                let f = self.cell(CellKind::Field(t, *prop));
                self.add_edge(*src, f);
            }
            Constraint::Call { site } => self.resolve_call(*site, t),
            Constraint::Callback {
                site,
                p0,
                p1,
                this0,
                ret,
            } => {
                if let TokenData::Func(f) = *self.data(t) {
                    self.call_edges.insert((*site, f));
                    let info_params = self.funcs[f.0 as usize].param_count;
                    if let Some(p0) = p0 {
                        if info_params > 0 {
                            let pc = self.cell(CellKind::Param(f, 0));
                            self.add_edge(*p0, pc);
                        }
                    }
                    if let Some(p1) = p1 {
                        if info_params > 1 {
                            let pc = self.cell(CellKind::Param(f, 1));
                            self.add_edge(*p1, pc);
                        }
                    }
                    if let Some(this0) = this0 {
                        let tc = self.cell(CellKind::This(f));
                        self.add_edge(*this0, tc);
                    }
                    if let Some(ret) = ret {
                        let rc = self.cell(CellKind::Ret(f));
                        self.add_edge(rc, *ret);
                    }
                }
            }
            Constraint::DotCall { site } => {
                if let TokenData::Func(f) = *self.data(t) {
                    let site_idx = *site;
                    self.call_edges.insert((site_idx, f));
                    let (args, result) = {
                        let s = &self.sites[site_idx as usize];
                        (s.args.clone(), s.result)
                    };
                    if let Some(this_arg) = args.first() {
                        let tc = self.cell(CellKind::This(f));
                        self.add_edge(*this_arg, tc);
                    }
                    let n = self.funcs[f.0 as usize].param_count as usize;
                    for (i, a) in args.iter().skip(1).enumerate() {
                        if i < n {
                            let pc = self.cell(CellKind::Param(f, i as u16));
                            self.add_edge(*a, pc);
                        }
                    }
                    let rc = self.cell(CellKind::Ret(f));
                    self.add_edge(rc, result);
                }
            }
            Constraint::DotApply { site } => {
                if let TokenData::Func(f) = *self.data(t) {
                    let site_idx = *site;
                    self.call_edges.insert((site_idx, f));
                    let (args, spread, result) = {
                        let s = &self.sites[site_idx as usize];
                        (s.args.clone(), s.spread, s.result)
                    };
                    if let Some(this_arg) = args.first() {
                        let tc = self.cell(CellKind::This(f));
                        self.add_edge(*this_arg, tc);
                    }
                    // The elements of the argument array flow into every
                    // parameter (collected in the site's spread cell by the
                    // generator).
                    if let Some(sp) = spread {
                        let n = self.funcs[f.0 as usize].param_count;
                        for i in 0..n {
                            let pc = self.cell(CellKind::Param(f, i));
                            self.add_edge(sp, pc);
                        }
                        self.wire_rest(f, &[], sp);
                    }
                    let rc = self.cell(CellKind::Ret(f));
                    self.add_edge(rc, result);
                }
            }
            Constraint::ProtoFor { child } => {
                self.add_proto(*child, t);
            }
        }
    }

    /// Property read on token `t`: consult the token's field and its
    /// prototype chain, replaying when new prototype links appear.
    fn apply_load(&mut self, t: Token, prop: Sym, dst: CellId) {
        // Builtin namespaces: `Math.floor` → Builtin("Math.floor").
        if let TokenData::Builtin(b) = self.data(t) {
            let name = self.interner.name(*b).to_string();
            let pname = self.interner.name(prop).to_string();
            if !pname.starts_with('\u{0}') {
                let sub = self.interner.intern(&format!("{name}.{pname}"));
                let tok = self.token(TokenData::Builtin(sub));
                self.add_token(dst, tok);
            }
        }
        self.loads_by_token.entry(t).or_default().push((prop, dst));
        // Field of t and of every ancestor.
        let chain = self.proto_chain(t);
        for a in chain {
            let f = self.cell(CellKind::Field(a, prop));
            self.add_edge(f, dst);
        }
    }

    /// The token and its transitive prototypes (cycle-safe).
    fn proto_chain(&self, t: Token) -> Vec<Token> {
        let mut out = Vec::new();
        let mut seen = FxHashSet::default();
        let mut stack = vec![t];
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            out.push(x);
            if let Some(ps) = self.protos.get(&x) {
                stack.extend(ps.iter().copied());
            }
        }
        out
    }

    /// Adds a prototype link `child → parent`, replaying recorded loads of
    /// `child` and of its transitive children.
    pub fn add_proto(&mut self, child: Token, parent: Token) {
        if child == parent {
            return;
        }
        let ps = self.protos.entry(child).or_default();
        if ps.contains(&parent) {
            return;
        }
        ps.push(parent);
        self.inv_protos.entry(parent).or_default().push(child);

        // Tokens whose chains pass through `child`.
        let mut affected = Vec::new();
        let mut seen = FxHashSet::default();
        let mut stack = vec![child];
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            affected.push(x);
            if let Some(kids) = self.inv_protos.get(&x) {
                stack.extend(kids.iter().copied());
            }
        }
        // Replay their loads against the new ancestor chain.
        let parent_chain = self.proto_chain(parent);
        for x in affected {
            let loads = self.loads_by_token.get(&x).cloned().unwrap_or_default();
            for (prop, dst) in loads {
                for a in &parent_chain {
                    let f = self.cell(CellKind::Field(*a, prop));
                    self.add_edge(f, dst);
                }
            }
        }
    }

    /// Resolves a call-site callee token (rule for `E(E')` in Figure 3,
    /// plus builtin models).
    fn resolve_call(&mut self, site: u32, t: Token) {
        match self.data(t).clone() {
            TokenData::Func(f) => self.call_user_function(site, f),
            TokenData::Builtin(name) => {
                let name = self.interner.name(name).to_string();
                self.call_builtin(site, &name);
            }
            _ => {}
        }
    }

    fn call_user_function(&mut self, site: u32, f: FuncIdx) {
        self.call_edges.insert((site, f));
        let (args, spread, this_cell, result, is_new, new_token, loc) = {
            let s = &self.sites[site as usize];
            (
                s.args.clone(),
                s.spread,
                s.this_cell,
                s.result,
                s.is_new,
                s.new_token,
                s.loc,
            )
        };
        let n = self.funcs[f.0 as usize].param_count as usize;
        for (i, a) in args.iter().enumerate() {
            if i < n {
                let pc = self.cell(CellKind::Param(f, i as u16));
                self.add_edge(*a, pc);
            }
        }
        if let Some(sp) = spread {
            for i in 0..n {
                let pc = self.cell(CellKind::Param(f, i as u16));
                self.add_edge(sp, pc);
            }
        }
        // Extra args → rest array and `arguments`.
        let extra: Vec<CellId> = args.iter().skip(n).copied().collect();
        let sp = spread.unwrap_or_else(|| self.tmp());
        self.wire_rest(f, &extra, sp);
        // All args → arguments object elements.
        let args_tok = self.token(TokenData::Args(f));
        let elems = self.cell(CellKind::Field(args_tok, self.elems_sym));
        for a in &args {
            self.add_edge(*a, elems);
        }
        if is_new {
            // Fresh abstract object per new-site, linked to the function's
            // prototype property.
            let newtok = new_token.unwrap_or_else(|| self.token(TokenData::Obj(loc)));
            self.add_token(result, newtok);
            let tc = self.cell(CellKind::This(f));
            self.add_token(tc, newtok);
            let ftok = self.token(TokenData::Func(f));
            let protofield = self.cell(CellKind::Field(ftok, self.prototype_sym));
            self.add_constraint(protofield, Constraint::ProtoFor { child: newtok });
        } else {
            if let Some(tc) = this_cell {
                let this = self.cell(CellKind::This(f));
                self.add_edge(tc, this);
            }
            let rc = self.cell(CellKind::Ret(f));
            self.add_edge(rc, result);
        }
    }

    fn wire_rest(&mut self, f: FuncIdx, extra: &[CellId], spread: CellId) {
        if !self.funcs[f.0 as usize].has_rest {
            return;
        }
        let rest_tok = self.token(TokenData::Rest(f));
        let elems = self.cell(CellKind::Field(rest_tok, self.elems_sym));
        for a in extra {
            self.add_edge(*a, elems);
        }
        self.add_edge(spread, elems);
    }

    /// Models of builtin callees.
    fn call_builtin(&mut self, site: u32, name: &str) {
        let (args, result, loc, file, is_new, lit_arg0) = {
            let s = &self.sites[site as usize];
            (
                s.args.clone(),
                s.result,
                s.loc,
                s.file,
                s.is_new,
                s.lit_arg0.clone(),
            )
        };
        let last = name.rsplit('.').next().unwrap_or(name);
        match name {
            "require" => {
                let mut targets: Vec<usize> = Vec::new();
                if let Some(spec) = &lit_arg0 {
                    if let Some(idx) = resolve_module(&self.paths, file.index(), spec) {
                        targets.push(idx);
                    } else if !spec.starts_with('.') && !spec.starts_with('/') {
                        // Core module: opaque builtin namespace.
                        let sym = self.interner.intern(&format!("module:{spec}"));
                        let tok = self.token(TokenData::Builtin(sym));
                        self.add_token(result, tok);
                    }
                }
                if let Some(hinted) = self.module_hints.get(&loc) {
                    targets.extend(hinted);
                }
                self.wire_require_targets(site, &targets);
                self.required_at.entry(loc).or_default().push(site);
            }
            "Object.create" => {
                let newtok = self.token(TokenData::Obj(loc));
                self.add_token(result, newtok);
                if let Some(a0) = args.first() {
                    self.add_constraint(*a0, Constraint::ProtoFor { child: newtok });
                }
            }
            "Object.assign"
            | "Object.defineProperty"
            | "Object.defineProperties"
            | "Object.freeze"
            | "Object.seal"
            | "Object.setPrototypeOf" => {
                if let Some(a0) = args.first() {
                    self.add_edge(*a0, result);
                }
            }
            "Object.getPrototypeOf" => {}
            "Promise.resolve" => {
                if let Some(a0) = args.first() {
                    self.add_edge(*a0, result);
                }
            }
            _ => {
                // Error constructors and similar object-producing builtins
                // give the site an abstract object.
                if is_new
                    || matches!(
                        last,
                        "Error" | "TypeError" | "RangeError" | "SyntaxError" | "Date"
                    )
                {
                    let newtok = self.token(TokenData::Obj(loc));
                    self.add_token(result, newtok);
                }
                // Generic conservative behavior: any function argument may
                // be invoked as a callback with unknown arguments.
                for a in &args {
                    self.add_constraint(
                        *a,
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
        }
    }

    /// Makes `require` call `site` load each of the project files
    /// `targets` (file indices): a module edge, and the file's
    /// `module.exports` flowing into the call's result.
    fn wire_require_targets(&mut self, site: u32, targets: &[usize]) {
        let result = self.sites[site as usize].result;
        for &idx in targets {
            let fid = FileId(idx as u32);
            self.module_edges.insert((site, fid));
            let mobj = self.token(TokenData::ModuleObj(fid));
            let exports_sym = self.interner.intern("exports");
            let f = self.cell(CellKind::Field(mobj, exports_sym));
            self.add_edge(f, result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(line: u32) -> Loc {
        Loc::new(FileId(0), line, 1)
    }

    #[test]
    fn basic_propagation() {
        let mut s = Solver::new(vec![]);
        let a = s.tmp();
        let b = s.tmp();
        let c = s.tmp();
        let t = s.token(TokenData::Obj(loc(1)));
        s.add_token(a, t);
        s.add_edge(a, b);
        s.add_edge(b, c);
        s.solve();
        assert_eq!(s.tokens_of(c), vec![t]);
    }

    #[test]
    fn edges_added_after_tokens_propagate() {
        let mut s = Solver::new(vec![]);
        let a = s.tmp();
        let b = s.tmp();
        let t = s.token(TokenData::Obj(loc(1)));
        s.add_token(a, t);
        s.solve();
        s.add_edge(a, b);
        s.solve();
        assert_eq!(s.tokens_of(b), vec![t]);
    }

    #[test]
    fn load_store_through_fields() {
        let mut s = Solver::new(vec![]);
        let objcell = s.tmp();
        let val = s.tmp();
        let out = s.tmp();
        let obj = s.token(TokenData::Obj(loc(1)));
        let v = s.token(TokenData::Obj(loc(2)));
        let p = s.interner.intern("p");
        s.add_token(objcell, obj);
        s.add_token(val, v);
        s.add_constraint(objcell, Constraint::Store { prop: p, src: val });
        s.add_constraint(objcell, Constraint::Load { prop: p, dst: out });
        s.solve();
        assert_eq!(s.tokens_of(out), vec![v]);
    }

    #[test]
    fn prototype_chain_reads() {
        let mut s = Solver::new(vec![]);
        let child_cell = s.tmp();
        let out = s.tmp();
        let parent = s.token(TokenData::Obj(loc(10)));
        let child = s.token(TokenData::Obj(loc(11)));
        let v = s.token(TokenData::Obj(loc(12)));
        let m = s.interner.intern("m");
        // parent.m = v
        let f = s.cell(CellKind::Field(parent, m));
        s.add_token(f, v);
        // read child.m BEFORE the proto link exists
        s.add_token(child_cell, child);
        s.add_constraint(child_cell, Constraint::Load { prop: m, dst: out });
        s.solve();
        assert!(s.tokens_of(out).is_empty());
        // add proto link: replay must fire
        s.add_proto(child, parent);
        s.solve();
        assert_eq!(s.tokens_of(out), vec![v]);
    }

    #[test]
    fn builtin_member_paths() {
        let mut s = Solver::new(vec![]);
        let obj = s.interner.intern("Object");
        let t = s.token(TokenData::Builtin(obj));
        let cell = s.tmp();
        let out = s.tmp();
        let create = s.interner.intern("create");
        s.add_token(cell, t);
        s.add_constraint(
            cell,
            Constraint::Load {
                prop: create,
                dst: out,
            },
        );
        s.solve();
        let toks = s.tokens_of(out);
        assert_eq!(toks.len(), 1);
        assert!(matches!(
            s.data(toks[0]),
            TokenData::Builtin(b) if s.interner.name(*b) == "Object.create"
        ));
    }
}
