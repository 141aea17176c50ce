//! Abstract syntax tree for the JavaScript subset handled by the toolchain.
//!
//! Every expression, statement and pattern carries a [`NodeId`] (globally
//! unique within one parsed project — the static analysis uses them as
//! constraint-variable keys) and a [`Span`] (from which allocation-site
//! [`crate::Loc`]s are derived).
//!
//! # Layout
//!
//! A long-lived process (the `aji serve` daemon) keeps every parsed
//! project in memory, so the tree is laid out for size:
//!
//! * every list is a `Box<[T]>` built once at its exact length, never a
//!   `Vec<T>` with spare capacity;
//! * every name or string is a `Box<str>`;
//! * the payloads of rare, large nodes — [`StmtKind::For`],
//!   [`StmtKind::ForIn`], [`StmtKind::ForOf`], [`StmtKind::Try`],
//!   [`ExprKind::Template`], [`ExprKind::Regex`] and the
//!   [`ExprKind::Assign`] target — are boxed, so they do not widen every
//!   statement or expression.
//!
//! The unit tests pin the sizes of [`Stmt`], [`Expr`], [`ExprKind`] and
//! [`Function`]; a new variant that re-inflates them fails there.

use crate::source::Span;
use std::fmt;
use std::sync::Arc;

/// Identifier of an AST node, unique across all files parsed with the same
/// [`NodeIdGen`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Generator of fresh [`NodeId`]s, shared across the files of one project so
/// that node ids are project-unique.
///
/// Cloning forks the counter: ids minted by the clone are unique against
/// everything minted *before* the fork, which is what consumers that take
/// a snapshot of a parsed project (e.g. the interpreter, for `eval`) need.
#[derive(Debug, Clone, Default)]
pub struct NodeIdGen {
    next: u32,
}

impl NodeIdGen {
    /// Creates a generator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh id.
    pub fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.next);
        self.next += 1;
        id
    }

    /// Number of ids handed out so far.
    pub fn count(&self) -> usize {
        self.next as usize
    }

    /// Creates a generator whose next fresh id is `n`.
    ///
    /// The `aji serve` parse cache uses this to resume project-wide id
    /// numbering after splicing in a cached module parse: a module reused
    /// at the same id offset is byte-identical to a fresh whole-project
    /// parse, so ids stay project-unique and analyses downstream cannot
    /// tell the difference.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` ids.
    pub fn starting_at(n: usize) -> Self {
        NodeIdGen {
            next: u32::try_from(n).expect("node id space exhausted"),
        }
    }
}

/// A parsed module: the top-level statements of one source file.
#[derive(Debug, Clone)]
pub struct Module {
    /// Node id of the module itself (used as the module-function identity).
    pub id: NodeId,
    /// Span covering the whole file.
    pub span: Span,
    /// Top-level statements.
    pub body: Box<[Stmt]>,
}

/// A statement.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Unique node id.
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// The statement proper.
    pub kind: StmtKind,
}

/// Kinds of statements.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// Expression statement `E;`.
    Expr(Expr),
    /// `var`/`let`/`const` declaration list.
    VarDecl(VarDecl),
    /// Function declaration `function f(...) {...}`.
    FuncDecl(Arc<Function>),
    /// Class declaration.
    ClassDecl(Box<Class>),
    /// `return E?;`
    Return(Option<Expr>),
    /// `if (test) cons else alt?`
    If {
        /// Condition.
        test: Expr,
        /// Then-branch.
        cons: Box<Stmt>,
        /// Optional else-branch.
        alt: Option<Box<Stmt>>,
    },
    /// `while (test) body`
    While {
        /// Loop condition.
        test: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `do body while (test);`
    DoWhile {
        /// Loop body.
        body: Box<Stmt>,
        /// Loop condition.
        test: Expr,
    },
    /// C-style `for`.
    For(Box<ForStmt>),
    /// `for (head in obj) body`
    ForIn(Box<ForEachStmt>),
    /// `for (head of iter) body`
    ForOf(Box<ForEachStmt>),
    /// Block `{ ... }`.
    Block(Box<[Stmt]>),
    /// Empty statement `;`.
    Empty,
    /// `break label?;`
    Break(Option<Box<str>>),
    /// `continue label?;`
    Continue(Option<Box<str>>),
    /// `label: stmt`
    Labeled {
        /// Label name.
        label: Box<str>,
        /// Labeled statement.
        body: Box<Stmt>,
    },
    /// `switch (disc) { cases }`
    Switch {
        /// Discriminant.
        disc: Expr,
        /// Cases in source order.
        cases: Box<[SwitchCase]>,
    },
    /// `throw E;`
    Throw(Expr),
    /// `try { .. } catch (p)? { .. } finally { .. }?`
    Try(Box<TryStmt>),
    /// `debugger;` — a no-op.
    Debugger,
}

/// Payload of [`StmtKind::For`], boxed because C-style loops are rare and
/// large.
#[derive(Debug, Clone)]
pub struct ForStmt {
    /// Optional initializer.
    pub init: Option<ForInit>,
    /// Optional condition.
    pub test: Option<Expr>,
    /// Optional update expression.
    pub update: Option<Expr>,
    /// Loop body.
    pub body: Stmt,
}

/// Payload of [`StmtKind::ForIn`] and [`StmtKind::ForOf`].
#[derive(Debug, Clone)]
pub struct ForEachStmt {
    /// Loop variable.
    pub head: ForHead,
    /// For `for-in`, the object whose enumerable property names are
    /// iterated; for `for-of`, the iterable.
    pub right: Expr,
    /// Loop body.
    pub body: Stmt,
}

/// Payload of [`StmtKind::Try`].
#[derive(Debug, Clone)]
pub struct TryStmt {
    /// Protected block.
    pub block: Box<[Stmt]>,
    /// Optional catch clause.
    pub catch: Option<CatchClause>,
    /// Optional finally block.
    pub finally: Option<Box<[Stmt]>>,
}

/// One `case`/`default` arm of a `switch`.
#[derive(Debug, Clone)]
pub struct SwitchCase {
    /// Span of the arm.
    pub span: Span,
    /// `None` for `default:`.
    pub test: Option<Expr>,
    /// Statements in the arm.
    pub body: Box<[Stmt]>,
}

/// A `catch` clause.
#[derive(Debug, Clone)]
pub struct CatchClause {
    /// Bound exception pattern, absent for `catch { ... }`.
    pub param: Option<Pattern>,
    /// Handler body.
    pub body: Box<[Stmt]>,
}

/// Initializer of a C-style `for`.
#[derive(Debug, Clone)]
pub enum ForInit {
    /// `for (var i = 0; ...)`
    VarDecl(VarDecl),
    /// `for (i = 0; ...)`
    Expr(Expr),
}

/// Head of `for-in` / `for-of`.
#[derive(Debug, Clone)]
pub enum ForHead {
    /// `for (var x ...)` / `for (const [a, b] ...)`
    VarDecl {
        /// Declaration kind.
        kind: VarKind,
        /// Bound pattern.
        pat: Pattern,
    },
    /// `for (x ...)` — assignment to an existing target.
    Target(Box<Expr>),
}

/// `var` / `let` / `const`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Function-scoped `var`.
    Var,
    /// Block-scoped `let`.
    Let,
    /// Block-scoped `const`.
    Const,
}

impl fmt::Display for VarKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            VarKind::Var => "var",
            VarKind::Let => "let",
            VarKind::Const => "const",
        })
    }
}

/// A declaration list, e.g. `var a = 1, [b] = xs;`.
#[derive(Debug, Clone)]
pub struct VarDecl {
    /// Declaration kind.
    pub kind: VarKind,
    /// Individual declarators.
    pub decls: Box<[VarDeclarator]>,
}

/// A single declarator within a [`VarDecl`].
#[derive(Debug, Clone)]
pub struct VarDeclarator {
    /// Span of the declarator.
    pub span: Span,
    /// Bound pattern.
    pub name: Pattern,
    /// Optional initializer.
    pub init: Option<Expr>,
}

/// An expression.
#[derive(Debug, Clone)]
pub struct Expr {
    /// Unique node id (the static analysis' constraint-variable key).
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// The expression proper.
    pub kind: ExprKind,
}

/// Kinds of expressions.
#[derive(Debug, Clone)]
pub enum ExprKind {
    /// Numeric literal.
    Num(f64),
    /// String literal.
    Str(Box<str>),
    /// Boolean literal.
    Bool(bool),
    /// `null`.
    Null,
    /// Template literal `` `a${b}c` ``.
    Template(Box<Template>),
    /// Regular expression literal, kept opaque.
    Regex(Box<Regex>),
    /// Variable reference.
    Ident(Box<str>),
    /// `this`.
    This,
    /// Array literal; `None` elements are holes.
    Array(Box<[Option<ExprOrSpread>]>),
    /// Object literal.
    Object(Box<[Property]>),
    /// Function expression (`function (..) {..}` or named).
    Function(Arc<Function>),
    /// Arrow function.
    Arrow(Arc<Function>),
    /// Class expression.
    Class(Box<Class>),
    /// Unary operator application.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `++`/`--`.
    Update {
        /// Operator.
        op: UpdateOp,
        /// Prefix (`++x`) or postfix (`x++`).
        prefix: bool,
        /// Target (identifier or member expression).
        expr: Box<Expr>,
    },
    /// Binary (non-short-circuiting) operator application.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `&&` / `||` / `??`.
    Logical {
        /// Operator.
        op: LogicalOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Assignment, possibly compound.
    Assign {
        /// Operator (`=`, `+=`, ...).
        op: AssignOp,
        /// Assignment target, boxed: most targets are identifiers or
        /// members, yet the identifier form is as large as an [`Expr`].
        target: Box<AssignTarget>,
        /// Right-hand side.
        value: Box<Expr>,
    },
    /// Conditional `test ? cons : alt`.
    Cond {
        /// Condition.
        test: Box<Expr>,
        /// Value if truthy.
        cons: Box<Expr>,
        /// Value if falsy.
        alt: Box<Expr>,
    },
    /// Function call.
    Call {
        /// Callee expression.
        callee: Box<Expr>,
        /// Arguments.
        args: Box<[ExprOrSpread]>,
        /// Optional-chaining call `f?.()`.
        optional: bool,
    },
    /// `new` expression.
    New {
        /// Constructor expression.
        callee: Box<Expr>,
        /// Arguments.
        args: Box<[ExprOrSpread]>,
    },
    /// Property access, static (`o.p`) or computed (`o[e]`).
    Member {
        /// Base object.
        obj: Box<Expr>,
        /// Property selector.
        prop: MemberProp,
        /// Optional chaining `o?.p`.
        optional: bool,
    },
    /// Comma sequence `(a, b, c)`.
    Seq(Box<[Expr]>),
    /// Parenthesized expression (kept so the printer can round-trip).
    Paren(Box<Expr>),
}

/// Payload of [`ExprKind::Template`]: `quasis.len() == exprs.len() + 1`.
#[derive(Debug, Clone)]
pub struct Template {
    /// Literal chunks.
    pub quasis: Box<[Box<str>]>,
    /// Interpolated expressions.
    pub exprs: Box<[Expr]>,
}

/// Payload of [`ExprKind::Regex`].
#[derive(Debug, Clone)]
pub struct Regex {
    /// Pattern source between the slashes.
    pub pattern: Box<str>,
    /// Flags.
    pub flags: Box<str>,
}

/// Property selector of a member expression.
#[derive(Debug, Clone)]
pub enum MemberProp {
    /// Fixed property name `o.p`.
    Static(Box<str>),
    /// Dynamically computed name `o[e]` — the construct the paper targets.
    Computed(Box<Expr>),
}

/// Argument or array element that may be a spread.
#[derive(Debug, Clone)]
pub struct ExprOrSpread {
    /// Whether the value is spread (`...e`).
    pub spread: bool,
    /// The value.
    pub expr: Expr,
}

/// Entry in an object literal.
#[derive(Debug, Clone)]
pub enum Property {
    /// `key: value` (covers shorthand — the parser expands it).
    KeyValue {
        /// Property name.
        key: PropName,
        /// Property value.
        value: Expr,
    },
    /// `m() {..}`, `get p() {..}`, `set p(v) {..}`.
    Method {
        /// Property name.
        key: PropName,
        /// Ordinary method, getter or setter.
        kind: MethodKind,
        /// Underlying function.
        func: Arc<Function>,
    },
    /// `...e` spread into the literal.
    Spread(Expr),
}

/// Method flavor in object literals and classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// Plain method.
    Method,
    /// Getter.
    Get,
    /// Setter.
    Set,
}

/// Property name in object literals and classes.
#[derive(Debug, Clone)]
pub enum PropName {
    /// Identifier key `foo:`.
    Ident(Box<str>),
    /// String key `"foo":`.
    Str(Box<str>),
    /// Numeric key `42:`.
    Num(f64),
    /// Computed key `[e]:` — also a dynamic property write site.
    Computed(Box<Expr>),
}

impl PropName {
    /// The statically known name, if any.
    pub fn static_name(&self) -> Option<String> {
        match self {
            PropName::Ident(s) | PropName::Str(s) => Some(s.to_string()),
            PropName::Num(n) => Some(crate::number::to_string(*n)),
            PropName::Computed(_) => None,
        }
    }
}

/// A function: declaration, expression, arrow, method or class member.
#[derive(Debug, Clone)]
pub struct Function {
    /// Node id — the identity of the *function definition* (paper §3).
    pub id: NodeId,
    /// Span of the whole function.
    pub span: Span,
    /// Name, if any (declaration or named expression).
    pub name: Option<Box<str>>,
    /// Declared parameters in order.
    pub params: Box<[Param]>,
    /// Rest parameter, if any.
    pub rest: Option<Pattern>,
    /// Function body.
    pub body: FuncBody,
    /// Whether this is an arrow function (lexical `this`, no `arguments`).
    pub is_arrow: bool,
    /// `async` flag (executed synchronously by the interpreter).
    pub is_async: bool,
    /// Generator flag (approximated by the interpreter).
    pub is_generator: bool,
}

/// A single declared parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding pattern.
    pub pat: Pattern,
    /// Default value, if any.
    pub default: Option<Expr>,
}

/// Body of a function.
#[derive(Debug, Clone)]
pub enum FuncBody {
    /// Block body.
    Block(Box<[Stmt]>),
    /// Arrow-function expression body.
    Expr(Box<Expr>),
}

/// A class declaration or expression.
#[derive(Debug, Clone)]
pub struct Class {
    /// Node id — allocation site of the class's constructor function.
    pub id: NodeId,
    /// Span of the whole class.
    pub span: Span,
    /// Name, if any.
    pub name: Option<Box<str>>,
    /// `extends` clause.
    pub super_class: Option<Box<Expr>>,
    /// Members in source order.
    pub members: Box<[ClassMember]>,
}

/// A member of a class body.
#[derive(Debug, Clone)]
pub struct ClassMember {
    /// Span of the member.
    pub span: Span,
    /// Member name.
    pub key: PropName,
    /// What kind of member this is.
    pub kind: ClassMemberKind,
    /// Declared `static`.
    pub is_static: bool,
}

/// Kinds of class members.
#[derive(Debug, Clone)]
pub enum ClassMemberKind {
    /// `constructor(..) {..}`.
    Constructor(Arc<Function>),
    /// Method / getter / setter.
    Method {
        /// Method flavor.
        kind: MethodKind,
        /// Underlying function.
        func: Arc<Function>,
    },
    /// Field with optional initializer.
    Field(Option<Expr>),
}

/// Assignment target: identifier, member expression or destructuring
/// pattern.
#[derive(Debug, Clone)]
pub enum AssignTarget {
    /// `x = ..`
    Ident {
        /// Node id of the reference.
        id: NodeId,
        /// Span of the identifier.
        span: Span,
        /// Variable name.
        name: Box<str>,
    },
    /// `o.p = ..` / `o[e] = ..` — the latter is the paper's dynamic write.
    Member(Box<Expr>),
    /// `[a, b] = ..` / `{x} = ..`
    Pattern(Box<Pattern>),
}

/// Binding/destructuring pattern.
#[derive(Debug, Clone)]
pub struct Pattern {
    /// Unique node id.
    pub id: NodeId,
    /// Span of the pattern.
    pub span: Span,
    /// The pattern proper.
    pub kind: PatternKind,
}

/// Kinds of patterns.
#[derive(Debug, Clone)]
pub enum PatternKind {
    /// Simple identifier binding.
    Ident(Box<str>),
    /// Array pattern; `None` elements are holes.
    Array {
        /// Element patterns.
        elems: Box<[Option<Pattern>]>,
        /// Trailing rest element.
        rest: Option<Box<Pattern>>,
    },
    /// Object pattern.
    Object {
        /// Destructured properties.
        props: Box<[ObjectPatProp]>,
        /// Trailing rest element.
        rest: Option<Box<Pattern>>,
    },
    /// Pattern with a default: `x = e` inside a larger pattern.
    Assign {
        /// Inner pattern.
        pat: Box<Pattern>,
        /// Default value.
        default: Box<Expr>,
    },
}

/// One property of an object pattern.
#[derive(Debug, Clone)]
pub struct ObjectPatProp {
    /// Property name being read.
    pub key: PropName,
    /// Pattern the value is bound to.
    pub value: Pattern,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `+`
    Pos,
    /// `!`
    Not,
    /// `~`
    BitNot,
    /// `typeof`
    TypeOf,
    /// `void`
    Void,
    /// `delete`
    Delete,
}

impl UnaryOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Pos => "+",
            UnaryOp::Not => "!",
            UnaryOp::BitNot => "~",
            UnaryOp::TypeOf => "typeof",
            UnaryOp::Void => "void",
            UnaryOp::Delete => "delete",
        }
    }
}

/// `++` / `--`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// `++`
    Inc,
    /// `--`
    Dec,
}

/// Binary operators (strict-evaluation ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `**`
    Exp,
    /// `==`
    EqLoose,
    /// `!=`
    NeqLoose,
    /// `===`
    EqStrict,
    /// `!==`
    NeqStrict,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `>>>`
    UShr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `in`
    In,
    /// `instanceof`
    InstanceOf,
}

impl BinaryOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Rem => "%",
            BinaryOp::Exp => "**",
            BinaryOp::EqLoose => "==",
            BinaryOp::NeqLoose => "!=",
            BinaryOp::EqStrict => "===",
            BinaryOp::NeqStrict => "!==",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::Shl => "<<",
            BinaryOp::Shr => ">>",
            BinaryOp::UShr => ">>>",
            BinaryOp::BitAnd => "&",
            BinaryOp::BitOr => "|",
            BinaryOp::BitXor => "^",
            BinaryOp::In => "in",
            BinaryOp::InstanceOf => "instanceof",
        }
    }
}

/// Short-circuiting operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicalOp {
    /// `&&`
    And,
    /// `||`
    Or,
    /// `??`
    Nullish,
}

impl LogicalOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            LogicalOp::And => "&&",
            LogicalOp::Or => "||",
            LogicalOp::Nullish => "??",
        }
    }
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
    /// `%=`
    Rem,
    /// `**=`
    Exp,
    /// `<<=`
    Shl,
    /// `>>=`
    Shr,
    /// `>>>=`
    UShr,
    /// `&=`
    BitAnd,
    /// `|=`
    BitOr,
    /// `^=`
    BitXor,
    /// `&&=`
    And,
    /// `||=`
    Or,
    /// `??=`
    Nullish,
}

impl AssignOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
            AssignOp::Rem => "%=",
            AssignOp::Exp => "**=",
            AssignOp::Shl => "<<=",
            AssignOp::Shr => ">>=",
            AssignOp::UShr => ">>>=",
            AssignOp::BitAnd => "&=",
            AssignOp::BitOr => "|=",
            AssignOp::BitXor => "^=",
            AssignOp::And => "&&=",
            AssignOp::Or => "||=",
            AssignOp::Nullish => "??=",
        }
    }

    /// The underlying binary operator of a compound assignment, if any.
    pub fn binary_op(self) -> Option<BinaryOp> {
        Some(match self {
            AssignOp::Add => BinaryOp::Add,
            AssignOp::Sub => BinaryOp::Sub,
            AssignOp::Mul => BinaryOp::Mul,
            AssignOp::Div => BinaryOp::Div,
            AssignOp::Rem => BinaryOp::Rem,
            AssignOp::Exp => BinaryOp::Exp,
            AssignOp::Shl => BinaryOp::Shl,
            AssignOp::Shr => BinaryOp::Shr,
            AssignOp::UShr => BinaryOp::UShr,
            AssignOp::BitAnd => BinaryOp::BitAnd,
            AssignOp::BitOr => BinaryOp::BitOr,
            AssignOp::BitXor => BinaryOp::BitXor,
            AssignOp::Assign | AssignOp::And | AssignOp::Or | AssignOp::Nullish => return None,
        })
    }
}

impl Expr {
    /// Strips parentheses.
    pub fn unparen(&self) -> &Expr {
        match &self.kind {
            ExprKind::Paren(inner) => inner.unparen(),
            _ => self,
        }
    }

    /// If the expression is a string literal, returns its value.
    pub fn as_str_lit(&self) -> Option<&str> {
        match &self.unparen().kind {
            ExprKind::Str(s) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_gen_is_sequential() {
        let mut g = NodeIdGen::new();
        assert_eq!(g.fresh(), NodeId(0));
        assert_eq!(g.fresh(), NodeId(1));
        assert_eq!(g.count(), 2);
    }

    #[test]
    fn assign_op_binary_mapping() {
        assert_eq!(AssignOp::Add.binary_op(), Some(BinaryOp::Add));
        assert_eq!(AssignOp::Assign.binary_op(), None);
        assert_eq!(AssignOp::Or.binary_op(), None);
    }

    #[test]
    fn prop_name_static_name() {
        assert_eq!(
            PropName::Ident("x".into()).static_name().as_deref(),
            Some("x")
        );
        assert_eq!(
            PropName::Str("y z".into()).static_name().as_deref(),
            Some("y z")
        );
        assert_eq!(PropName::Num(3.0).static_name().as_deref(), Some("3"));
    }

    #[test]
    fn node_layouts_stay_lean() {
        use std::mem::size_of;
        assert!(size_of::<Stmt>() <= 88, "Stmt is {} B", size_of::<Stmt>());
        assert!(size_of::<Expr>() <= 48, "Expr is {} B", size_of::<Expr>());
        assert!(
            size_of::<ExprKind>() <= 32,
            "ExprKind is {} B",
            size_of::<ExprKind>()
        );
        assert!(
            size_of::<Function>() <= 120,
            "Function is {} B",
            size_of::<Function>()
        );
    }

    #[test]
    fn operator_strings_round_trip() {
        assert_eq!(BinaryOp::UShr.as_str(), ">>>");
        assert_eq!(LogicalOp::Nullish.as_str(), "??");
        assert_eq!(UnaryOp::TypeOf.as_str(), "typeof");
        assert_eq!(AssignOp::Nullish.as_str(), "??=");
    }
}
