//! AST-to-source printer.
//!
//! Produces valid JavaScript from an AST. Used by tests (print → reparse
//! fixpoint), by diagnostics and by the corpus tooling. The printer is
//! precedence-aware: it inserts parentheses whenever a child's precedence
//! is too low for its context, so the output always reparses to the same
//! structure.

use crate::ast::*;
use crate::number;
use std::fmt::Write;

/// Prints a module as JavaScript source.
pub fn print_module(m: &Module) -> String {
    let mut p = Printer::new();
    for s in &m.body {
        p.stmt(s);
    }
    p.out
}

/// Prints a single statement as JavaScript source.
pub fn print_stmt(s: &Stmt) -> String {
    let mut p = Printer::new();
    p.stmt(s);
    p.out
}

/// Prints a single expression as JavaScript source.
pub fn print_expr(e: &Expr) -> String {
    let mut p = Printer::new();
    p.expr(e, 0);
    p.out
}

/// Escapes a string into a double-quoted JavaScript string literal.
pub fn quote_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\0' => out.push_str("\\0"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Printer {
    out: String,
    indent: usize,
}

// Precedence levels, higher binds tighter. Mirrors the ECMAScript operator
// table closely enough for safe parenthesization.
const PREC_SEQ: u8 = 1;
const PREC_ASSIGN: u8 = 2;
const PREC_COND: u8 = 3;
const PREC_NULLISH: u8 = 4;
const PREC_OR: u8 = 5;
const PREC_AND: u8 = 6;
const PREC_BITOR: u8 = 7;
const PREC_BITXOR: u8 = 8;
const PREC_BITAND: u8 = 9;
const PREC_EQ: u8 = 10;
const PREC_REL: u8 = 11;
const PREC_SHIFT: u8 = 12;
const PREC_ADD: u8 = 13;
const PREC_MUL: u8 = 14;
const PREC_EXP: u8 = 15;
const PREC_UNARY: u8 = 16;
const PREC_POSTFIX: u8 = 17;
const PREC_NEW: u8 = 18;
const PREC_CALL: u8 = 19;
const PREC_PRIMARY: u8 = 20;

fn binary_prec(op: BinaryOp) -> u8 {
    use BinaryOp::*;
    match op {
        Exp => PREC_EXP,
        Mul | Div | Rem => PREC_MUL,
        Add | Sub => PREC_ADD,
        Shl | Shr | UShr => PREC_SHIFT,
        Lt | Le | Gt | Ge | In | InstanceOf => PREC_REL,
        EqLoose | NeqLoose | EqStrict | NeqStrict => PREC_EQ,
        BitAnd => PREC_BITAND,
        BitXor => PREC_BITXOR,
        BitOr => PREC_BITOR,
    }
}

fn logical_prec(op: LogicalOp) -> u8 {
    match op {
        LogicalOp::And => PREC_AND,
        LogicalOp::Or => PREC_OR,
        LogicalOp::Nullish => PREC_NULLISH,
    }
}

fn expr_prec(e: &Expr) -> u8 {
    match &e.kind {
        ExprKind::Seq(_) => PREC_SEQ,
        ExprKind::Assign { .. } => PREC_ASSIGN,
        ExprKind::Arrow(_) => PREC_ASSIGN,
        ExprKind::Cond { .. } => PREC_COND,
        ExprKind::Logical { op, .. } => logical_prec(*op),
        ExprKind::Binary { op, .. } => binary_prec(*op),
        ExprKind::Unary { .. } => PREC_UNARY,
        ExprKind::Update { prefix, .. } => {
            if *prefix {
                PREC_UNARY
            } else {
                PREC_POSTFIX
            }
        }
        ExprKind::New { .. } => PREC_NEW,
        ExprKind::Call { .. } => PREC_CALL,
        ExprKind::Member { .. } => PREC_CALL,
        ExprKind::Paren(_) => PREC_PRIMARY,
        _ => PREC_PRIMARY,
    }
}

impl Printer {
    fn new() -> Self {
        Printer {
            out: String::new(),
            indent: 0,
        }
    }

    fn nl(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn word(&mut self, s: &str) {
        self.out.push_str(s);
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => {
                // An expression statement must not start with `{`,
                // `function` or `class`.
                let needs_paren = starts_ambiguously(e);
                if needs_paren {
                    self.word("(");
                    self.expr(e, 0);
                    self.word(");");
                } else {
                    self.expr(e, PREC_SEQ);
                    self.word(";");
                }
                self.nl();
            }
            StmtKind::VarDecl(d) => {
                self.var_decl(d);
                self.word(";");
                self.nl();
            }
            StmtKind::FuncDecl(f) => {
                self.function(f, true);
                self.nl();
            }
            StmtKind::ClassDecl(c) => {
                self.class(c);
                self.nl();
            }
            StmtKind::Return(e) => {
                self.word("return");
                if let Some(e) = e {
                    self.word(" ");
                    self.expr(e, PREC_SEQ);
                }
                self.word(";");
                self.nl();
            }
            StmtKind::If { test, cons, alt } => {
                self.word("if (");
                self.expr(test, 0);
                self.word(") ");
                self.stmt_as_block(cons);
                if let Some(alt) = alt {
                    self.word(" else ");
                    if matches!(alt.kind, StmtKind::If { .. }) {
                        self.stmt(alt);
                    } else {
                        self.stmt_as_block(alt);
                        self.nl();
                    }
                } else {
                    self.nl();
                }
            }
            StmtKind::While { test, body } => {
                self.word("while (");
                self.expr(test, 0);
                self.word(") ");
                self.stmt_as_block(body);
                self.nl();
            }
            StmtKind::DoWhile { body, test } => {
                self.word("do ");
                self.stmt_as_block(body);
                self.word(" while (");
                self.expr(test, 0);
                self.word(");");
                self.nl();
            }
            StmtKind::For(f) => {
                let ForStmt {
                    init,
                    test,
                    update,
                    body,
                } = &**f;
                self.word("for (");
                match init {
                    Some(ForInit::VarDecl(d)) => self.var_decl(d),
                    Some(ForInit::Expr(e)) => self.expr(e, 0),
                    None => {}
                }
                self.word("; ");
                if let Some(t) = test {
                    self.expr(t, 0);
                }
                self.word("; ");
                if let Some(u) = update {
                    self.expr(u, 0);
                }
                self.word(") ");
                self.stmt_as_block(body);
                self.nl();
            }
            StmtKind::ForIn(f) => {
                let ForEachStmt {
                    head,
                    right: obj,
                    body,
                } = &**f;
                self.word("for (");
                self.for_head(head);
                self.word(" in ");
                self.expr(obj, PREC_SEQ);
                self.word(") ");
                self.stmt_as_block(body);
                self.nl();
            }
            StmtKind::ForOf(f) => {
                let ForEachStmt {
                    head,
                    right: iter,
                    body,
                } = &**f;
                self.word("for (");
                self.for_head(head);
                self.word(" of ");
                self.expr(iter, PREC_ASSIGN);
                self.word(") ");
                self.stmt_as_block(body);
                self.nl();
            }
            StmtKind::Block(body) => {
                self.block(body);
                self.nl();
            }
            StmtKind::Empty => {
                self.word(";");
                self.nl();
            }
            StmtKind::Break(label) => {
                self.word("break");
                if let Some(l) = label {
                    self.word(" ");
                    self.word(l);
                }
                self.word(";");
                self.nl();
            }
            StmtKind::Continue(label) => {
                self.word("continue");
                if let Some(l) = label {
                    self.word(" ");
                    self.word(l);
                }
                self.word(";");
                self.nl();
            }
            StmtKind::Labeled { label, body } => {
                self.word(label);
                self.word(": ");
                self.stmt(body);
            }
            StmtKind::Switch { disc, cases } => {
                self.word("switch (");
                self.expr(disc, 0);
                self.word(") {");
                self.indent += 1;
                for c in cases {
                    self.nl();
                    match &c.test {
                        Some(t) => {
                            self.word("case ");
                            self.expr(t, PREC_SEQ);
                            self.word(":");
                        }
                        None => self.word("default:"),
                    }
                    self.indent += 1;
                    for s in &c.body {
                        self.nl();
                        self.stmt_inline(s);
                    }
                    self.indent -= 1;
                }
                self.indent -= 1;
                self.nl();
                self.word("}");
                self.nl();
            }
            StmtKind::Throw(e) => {
                self.word("throw ");
                self.expr(e, PREC_SEQ);
                self.word(";");
                self.nl();
            }
            StmtKind::Try(t) => {
                let TryStmt {
                    block,
                    catch,
                    finally,
                } = &**t;
                self.word("try ");
                self.block(block);
                if let Some(c) = catch {
                    self.word(" catch ");
                    if let Some(p) = &c.param {
                        self.word("(");
                        self.pattern(p);
                        self.word(") ");
                    }
                    self.block(&c.body);
                }
                if let Some(f) = finally {
                    self.word(" finally ");
                    self.block(f);
                }
                self.nl();
            }
            StmtKind::Debugger => {
                self.word("debugger;");
                self.nl();
            }
        }
    }

    /// Prints a statement without a trailing newline adjustment (used inside
    /// switch arms where `stmt` already positions us).
    fn stmt_inline(&mut self, s: &Stmt) {
        // Reuse stmt, but strip the trailing newline it appends.
        let before = self.out.len();
        self.stmt(s);
        // Remove trailing indentation-only newline to keep switch arms tight.
        while self.out.len() > before && self.out.ends_with([' ', '\n']) {
            self.out.pop();
        }
    }

    fn for_head(&mut self, head: &ForHead) {
        match head {
            ForHead::VarDecl { kind, pat } => {
                self.word(&kind.to_string());
                self.word(" ");
                self.pattern(pat);
            }
            ForHead::Target(e) => self.expr(e, PREC_CALL),
        }
    }

    fn stmt_as_block(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Block(body) => self.block(body),
            _ => {
                self.word("{");
                self.indent += 1;
                self.nl();
                self.stmt_inline(s);
                self.indent -= 1;
                self.nl();
                self.word("}");
            }
        }
    }

    fn block(&mut self, body: &[Stmt]) {
        if body.is_empty() {
            self.word("{}");
            return;
        }
        self.word("{");
        self.indent += 1;
        self.nl();
        for (i, s) in body.iter().enumerate() {
            self.stmt_inline(s);
            if i + 1 < body.len() {
                self.nl();
            }
        }
        self.indent -= 1;
        self.nl();
        self.word("}");
    }

    fn var_decl(&mut self, d: &VarDecl) {
        self.word(&d.kind.to_string());
        self.word(" ");
        for (i, decl) in d.decls.iter().enumerate() {
            if i > 0 {
                self.word(", ");
            }
            self.pattern(&decl.name);
            if let Some(init) = &decl.init {
                self.word(" = ");
                self.expr(init, PREC_ASSIGN);
            }
        }
    }

    fn function(&mut self, f: &Function, _is_decl: bool) {
        if f.is_async {
            self.word("async ");
        }
        self.word("function");
        if f.is_generator {
            self.word("*");
        }
        if let Some(name) = &f.name {
            self.word(" ");
            self.word(name);
        }
        self.params(f);
        self.word(" ");
        match &f.body {
            FuncBody::Block(body) => self.block(body),
            FuncBody::Expr(e) => {
                // Only arrows have expression bodies; a `function` printed
                // here must have a block, so wrap it.
                self.word("{ return ");
                self.expr(e, PREC_SEQ);
                self.word("; }");
            }
        }
    }

    fn arrow(&mut self, f: &Function) {
        if f.is_async {
            self.word("async ");
        }
        self.params(f);
        self.word(" => ");
        match &f.body {
            FuncBody::Block(body) => self.block(body),
            FuncBody::Expr(e) => {
                // An object literal body needs parens.
                if starts_with_brace(e) {
                    self.word("(");
                    self.expr(e, PREC_ASSIGN);
                    self.word(")");
                } else {
                    self.expr(e, PREC_ASSIGN);
                }
            }
        }
    }

    fn params(&mut self, f: &Function) {
        self.word("(");
        let mut first = true;
        for p in &f.params {
            if !first {
                self.word(", ");
            }
            first = false;
            self.pattern(&p.pat);
            if let Some(d) = &p.default {
                self.word(" = ");
                self.expr(d, PREC_ASSIGN);
            }
        }
        if let Some(r) = &f.rest {
            if !first {
                self.word(", ");
            }
            self.word("...");
            self.pattern(r);
        }
        self.word(")");
    }

    fn class(&mut self, c: &Class) {
        self.word("class");
        if let Some(n) = &c.name {
            self.word(" ");
            self.word(n);
        }
        if let Some(s) = &c.super_class {
            self.word(" extends ");
            self.expr(s, PREC_CALL);
        }
        self.word(" {");
        self.indent += 1;
        for m in &c.members {
            self.nl();
            if m.is_static {
                self.word("static ");
            }
            match &m.kind {
                ClassMemberKind::Constructor(f) => {
                    self.word("constructor");
                    self.params(f);
                    self.word(" ");
                    if let FuncBody::Block(b) = &f.body {
                        self.block(b);
                    }
                }
                ClassMemberKind::Method { kind, func } => {
                    match kind {
                        MethodKind::Get => self.word("get "),
                        MethodKind::Set => self.word("set "),
                        MethodKind::Method => {}
                    }
                    self.prop_name(&m.key);
                    self.params(func);
                    self.word(" ");
                    if let FuncBody::Block(b) = &func.body {
                        self.block(b);
                    }
                }
                ClassMemberKind::Field(init) => {
                    self.prop_name(&m.key);
                    if let Some(e) = init {
                        self.word(" = ");
                        self.expr(e, PREC_ASSIGN);
                    }
                    self.word(";");
                }
            }
        }
        self.indent -= 1;
        self.nl();
        self.word("}");
    }

    fn prop_name(&mut self, p: &PropName) {
        match p {
            PropName::Ident(s) => self.word(s),
            PropName::Str(s) => self.word(&quote_str(s)),
            PropName::Num(n) => self.word(&number::to_string(*n)),
            PropName::Computed(e) => {
                self.word("[");
                self.expr(e, PREC_ASSIGN);
                self.word("]");
            }
        }
    }

    fn pattern(&mut self, p: &Pattern) {
        match &p.kind {
            PatternKind::Ident(s) => self.word(s),
            PatternKind::Array { elems, rest } => {
                self.word("[");
                for (i, el) in elems.iter().enumerate() {
                    if i > 0 {
                        self.word(", ");
                    }
                    if let Some(el) = el {
                        self.pattern(el);
                    }
                }
                if let Some(r) = rest {
                    if !elems.is_empty() {
                        self.word(", ");
                    }
                    self.word("...");
                    self.pattern(r);
                }
                self.word("]");
            }
            PatternKind::Object { props, rest } => {
                self.word("{");
                for (i, pr) in props.iter().enumerate() {
                    if i > 0 {
                        self.word(", ");
                    }
                    self.prop_name(&pr.key);
                    self.word(": ");
                    self.pattern(&pr.value);
                }
                if let Some(r) = rest {
                    if !props.is_empty() {
                        self.word(", ");
                    }
                    self.word("...");
                    self.pattern(r);
                }
                self.word("}");
            }
            PatternKind::Assign { pat, default } => {
                self.pattern(pat);
                self.word(" = ");
                self.expr(default, PREC_ASSIGN);
            }
        }
    }

    /// Prints `e`, parenthesizing it if its precedence is below `min_prec`.
    fn expr(&mut self, e: &Expr, min_prec: u8) {
        let prec = expr_prec(e);
        let needs_paren = prec < min_prec;
        if needs_paren {
            self.word("(");
        }
        self.expr_inner(e);
        if needs_paren {
            self.word(")");
        }
    }

    fn expr_inner(&mut self, e: &Expr) {
        match &e.kind {
            // `Infinity` is an identifier; `1e999` is the literal.
            ExprKind::Num(n) if n.is_infinite() => {
                self.word(if *n > 0.0 { "1e999" } else { "-1e999" });
            }
            ExprKind::Num(n) => self.word(&number::to_string(*n)),
            ExprKind::Str(s) => self.word(&quote_str(s)),
            ExprKind::Bool(b) => self.word(if *b { "true" } else { "false" }),
            ExprKind::Null => self.word("null"),
            ExprKind::Template(t) => {
                let Template { quasis, exprs } = &**t;
                self.word("`");
                for (i, q) in quasis.iter().enumerate() {
                    for c in q.chars() {
                        match c {
                            '`' => self.word("\\`"),
                            '\\' => self.word("\\\\"),
                            '$' => self.word("\\$"),
                            c => self.out.push(c),
                        }
                    }
                    if i < exprs.len() {
                        self.word("${");
                        self.expr(&exprs[i], 0);
                        self.word("}");
                    }
                }
                self.word("`");
            }
            ExprKind::Regex(re) => {
                let Regex { pattern, flags } = &**re;
                self.word("/");
                self.word(pattern);
                self.word("/");
                self.word(flags);
            }
            ExprKind::Ident(s) => self.word(s),
            ExprKind::This => self.word("this"),
            ExprKind::Array(elems) => {
                self.word("[");
                for (i, el) in elems.iter().enumerate() {
                    if i > 0 {
                        self.word(", ");
                    }
                    if let Some(el) = el {
                        if el.spread {
                            self.word("...");
                        }
                        self.expr(&el.expr, PREC_ASSIGN);
                    }
                }
                self.word("]");
            }
            ExprKind::Object(props) => {
                if props.is_empty() {
                    self.word("{}");
                    return;
                }
                self.word("{ ");
                for (i, p) in props.iter().enumerate() {
                    if i > 0 {
                        self.word(", ");
                    }
                    match p {
                        Property::KeyValue { key, value } => {
                            self.prop_name(key);
                            self.word(": ");
                            self.expr(value, PREC_ASSIGN);
                        }
                        Property::Method { key, kind, func } => {
                            match kind {
                                MethodKind::Get => self.word("get "),
                                MethodKind::Set => self.word("set "),
                                MethodKind::Method => {}
                            }
                            self.prop_name(key);
                            self.params(func);
                            self.word(" ");
                            if let FuncBody::Block(b) = &func.body {
                                self.block(b);
                            }
                        }
                        Property::Spread(e) => {
                            self.word("...");
                            self.expr(e, PREC_ASSIGN);
                        }
                    }
                }
                self.word(" }");
            }
            ExprKind::Function(f) => self.function(f, false),
            ExprKind::Arrow(f) => self.arrow(f),
            ExprKind::Class(c) => self.class(c),
            ExprKind::Unary { op, expr } => {
                self.word(op.as_str());
                match op {
                    UnaryOp::TypeOf | UnaryOp::Void | UnaryOp::Delete => self.word(" "),
                    // Avoid `--x` when printing `-(-x)`.
                    UnaryOp::Neg | UnaryOp::Pos => {
                        if matches!(expr.kind, ExprKind::Unary { .. } | ExprKind::Update { .. }) {
                            self.word(" ");
                        } else if let ExprKind::Num(n) = expr.kind {
                            if n < 0.0 {
                                self.word(" ");
                            }
                        }
                    }
                    _ => {}
                }
                self.expr(expr, PREC_UNARY);
            }
            ExprKind::Update { op, prefix, expr } => {
                let op_str = match op {
                    UpdateOp::Inc => "++",
                    UpdateOp::Dec => "--",
                };
                if *prefix {
                    self.word(op_str);
                    self.expr(expr, PREC_UNARY);
                } else {
                    self.expr(expr, PREC_POSTFIX);
                    self.word(op_str);
                }
            }
            ExprKind::Binary { op, left, right } => {
                let prec = binary_prec(*op);
                // `**` is right-associative; everything else left.
                if *op == BinaryOp::Exp {
                    self.expr(left, prec + 1);
                    self.word(" ** ");
                    self.expr(right, prec);
                } else {
                    self.expr(left, prec);
                    self.word(" ");
                    self.word(op.as_str());
                    self.word(" ");
                    self.expr(right, prec + 1);
                }
            }
            ExprKind::Logical { op, left, right } => {
                let prec = logical_prec(*op);
                // `??` must not mix unparenthesized with `&&`/`||`.
                let left_min = if *op == LogicalOp::Nullish {
                    PREC_AND + 1
                } else {
                    prec
                };
                self.expr(left, left_min);
                self.word(" ");
                self.word(op.as_str());
                self.word(" ");
                self.expr(
                    right,
                    if *op == LogicalOp::Nullish {
                        PREC_AND + 1
                    } else {
                        prec + 1
                    },
                );
            }
            ExprKind::Assign { op, target, value } => {
                match &**target {
                    AssignTarget::Ident { name, .. } => self.word(name),
                    AssignTarget::Member(m) => self.expr(m, PREC_CALL),
                    AssignTarget::Pattern(p) => self.pattern(p),
                }
                self.word(" ");
                self.word(op.as_str());
                self.word(" ");
                self.expr(value, PREC_ASSIGN);
            }
            ExprKind::Cond { test, cons, alt } => {
                self.expr(test, PREC_COND + 1);
                self.word(" ? ");
                self.expr(cons, PREC_ASSIGN);
                self.word(" : ");
                self.expr(alt, PREC_ASSIGN);
            }
            ExprKind::Call {
                callee,
                args,
                optional,
            } => {
                self.expr(callee, PREC_CALL);
                if *optional {
                    self.word("?.");
                }
                self.args(args);
            }
            ExprKind::New { callee, args } => {
                self.word("new ");
                // The callee of `new` must not itself contain a call.
                self.expr(callee, PREC_NEW + 1);
                self.args(args);
            }
            ExprKind::Member {
                obj,
                prop,
                optional,
            } => {
                // A `new X()` base is fine; a numeric literal base needs
                // parens for `.`; keep it simple and require PREC_CALL.
                let needs_paren =
                    matches!(obj.kind, ExprKind::Num(_)) || expr_prec(obj) < PREC_CALL;
                if needs_paren {
                    self.word("(");
                    self.expr(obj, 0);
                    self.word(")");
                } else {
                    self.expr_inner(obj);
                }
                match prop {
                    MemberProp::Static(name) => {
                        if *optional {
                            self.word("?.");
                        } else {
                            self.word(".");
                        }
                        self.word(name);
                    }
                    MemberProp::Computed(e) => {
                        if *optional {
                            self.word("?.");
                        }
                        self.word("[");
                        self.expr(e, 0);
                        self.word("]");
                    }
                }
            }
            ExprKind::Seq(exprs) => {
                for (i, x) in exprs.iter().enumerate() {
                    if i > 0 {
                        self.word(", ");
                    }
                    self.expr(x, PREC_ASSIGN);
                }
            }
            ExprKind::Paren(inner) => {
                self.word("(");
                self.expr(inner, 0);
                self.word(")");
            }
        }
    }

    fn args(&mut self, args: &[ExprOrSpread]) {
        self.word("(");
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                self.word(", ");
            }
            if a.spread {
                self.word("...");
            }
            self.expr(&a.expr, PREC_ASSIGN);
        }
        self.word(")");
    }
}

/// Whether an expression statement starting with this expression would be
/// misparsed (object literal as block, function expression as declaration).
fn starts_ambiguously(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Object(_) | ExprKind::Function(_) | ExprKind::Class(_) => true,
        ExprKind::Assign { target, .. } => match &**target {
            AssignTarget::Member(m) => starts_ambiguously(m),
            AssignTarget::Pattern(p) => matches!(p.kind, PatternKind::Object { .. }),
            AssignTarget::Ident { .. } => false,
        },
        ExprKind::Binary { left, .. } | ExprKind::Logical { left, .. } => starts_ambiguously(left),
        ExprKind::Cond { test, .. } => starts_ambiguously(test),
        ExprKind::Member { obj, .. } => starts_ambiguously(obj),
        ExprKind::Call { callee, .. } => starts_ambiguously(callee),
        ExprKind::Seq(exprs) => exprs.first().is_some_and(starts_ambiguously),
        ExprKind::Update {
            prefix: false,
            expr,
            ..
        } => starts_ambiguously(expr),
        _ => false,
    }
}

fn starts_with_brace(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Object(_) => true,
        ExprKind::Seq(exprs) => exprs.first().is_some_and(starts_with_brace),
        ExprKind::Binary { left, .. } | ExprKind::Logical { left, .. } => starts_with_brace(left),
        ExprKind::Member { obj, .. } => starts_with_brace(obj),
        ExprKind::Call { callee, .. } => starts_with_brace(callee),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileId, NodeIdGen, Span};

    fn sp() -> Span {
        Span::dummy(FileId(0))
    }

    fn expr(g: &mut NodeIdGen, kind: ExprKind) -> Expr {
        Expr {
            id: g.fresh(),
            span: sp(),
            kind,
        }
    }

    #[test]
    fn quote_str_escapes() {
        assert_eq!(quote_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(quote_str("a\nb"), "\"a\\nb\"");
        assert_eq!(quote_str("back\\slash"), "\"back\\\\slash\"");
        assert_eq!(quote_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn print_binary_precedence() {
        let mut g = NodeIdGen::new();
        // (1 + 2) * 3
        let one = expr(&mut g, ExprKind::Num(1.0));
        let two = expr(&mut g, ExprKind::Num(2.0));
        let three = expr(&mut g, ExprKind::Num(3.0));
        let sum = expr(
            &mut g,
            ExprKind::Binary {
                op: BinaryOp::Add,
                left: Box::new(one),
                right: Box::new(two),
            },
        );
        let prod = expr(
            &mut g,
            ExprKind::Binary {
                op: BinaryOp::Mul,
                left: Box::new(sum),
                right: Box::new(three),
            },
        );
        assert_eq!(print_expr(&prod), "(1 + 2) * 3");
    }

    #[test]
    fn print_member_of_call() {
        let mut g = NodeIdGen::new();
        let f = expr(&mut g, ExprKind::Ident("f".into()));
        let call = expr(
            &mut g,
            ExprKind::Call {
                callee: Box::new(f),
                args: Box::default(),
                optional: false,
            },
        );
        let member = expr(
            &mut g,
            ExprKind::Member {
                obj: Box::new(call),
                prop: MemberProp::Static("x".into()),
                optional: false,
            },
        );
        assert_eq!(print_expr(&member), "f().x");
    }

    #[test]
    fn print_object_statement_parenthesized() {
        let mut g = NodeIdGen::new();
        let obj = expr(&mut g, ExprKind::Object(Box::default()));
        let s = Stmt {
            id: g.fresh(),
            span: sp(),
            kind: StmtKind::Expr(obj),
        };
        assert!(print_stmt(&s).starts_with("({}"));
    }

    #[test]
    fn print_dynamic_member() {
        let mut g = NodeIdGen::new();
        let o = expr(&mut g, ExprKind::Ident("o".into()));
        let k = expr(&mut g, ExprKind::Ident("k".into()));
        let m = expr(
            &mut g,
            ExprKind::Member {
                obj: Box::new(o),
                prop: MemberProp::Computed(Box::new(k)),
                optional: false,
            },
        );
        assert_eq!(print_expr(&m), "o[k]");
    }

    #[test]
    fn print_negative_number_member_parenthesized() {
        let mut g = NodeIdGen::new();
        let one = expr(&mut g, ExprKind::Num(1.0));
        let m = expr(
            &mut g,
            ExprKind::Member {
                obj: Box::new(one),
                prop: MemberProp::Static("toString".into()),
                optional: false,
            },
        );
        assert_eq!(print_expr(&m), "(1).toString");
    }
}
