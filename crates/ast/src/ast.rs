//! Abstract syntax tree for the JavaScript subset handled by the toolchain.
//!
//! Every expression, statement and pattern carries a [`NodeId`] (globally
//! unique within one parsed project — the static analysis uses them as
//! constraint-variable keys) and a [`Span`] (from which allocation-site
//! [`crate::Loc`]s are derived).

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
    pub body: Vec<Stmt>,
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
    For {
        /// Optional initializer.
        init: Option<ForInit>,
        /// Optional condition.
        test: Option<Expr>,
        /// Optional update expression.
        update: Option<Expr>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `for (head in obj) body`
    ForIn {
        /// Loop variable.
        head: ForHead,
        /// Object whose enumerable property names are iterated.
        obj: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `for (head of iter) body`
    ForOf {
        /// Loop variable.
        head: ForHead,
        /// Iterable.
        iter: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// Block `{ ... }`.
    Block(Vec<Stmt>),
    /// Empty statement `;`.
    Empty,
    /// `break label?;`
    Break(Option<String>),
    /// `continue label?;`
    Continue(Option<String>),
    /// `label: stmt`
    Labeled {
        /// Label name.
        label: String,
        /// Labeled statement.
        body: Box<Stmt>,
    },
    /// `switch (disc) { cases }`
    Switch {
        /// Discriminant.
        disc: Expr,
        /// Cases in source order.
        cases: Vec<SwitchCase>,
    },
    /// `throw E;`
    Throw(Expr),
    /// `try { .. } catch (p)? { .. } finally { .. }?`
    Try {
        /// Protected block.
        block: Vec<Stmt>,
        /// Optional catch clause.
        catch: Option<CatchClause>,
        /// Optional finally block.
        finally: Option<Vec<Stmt>>,
    },
    /// `debugger;` — a no-op.
    Debugger,
}

/// One `case`/`default` arm of a `switch`.
#[derive(Debug, Clone)]
pub struct SwitchCase {
    /// Span of the arm.
    pub span: Span,
    /// `None` for `default:`.
    pub test: Option<Expr>,
    /// Statements in the arm.
    pub body: Vec<Stmt>,
}

/// A `catch` clause.
#[derive(Debug, Clone)]
pub struct CatchClause {
    /// Bound exception pattern, absent for `catch { ... }`.
    pub param: Option<Pattern>,
    /// Handler body.
    pub body: Vec<Stmt>,
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
    pub decls: Vec<VarDeclarator>,
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
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `null`.
    Null,
    /// Template literal `` `a${b}c` ``: `quasis.len() == exprs.len() + 1`.
    Template {
        /// Literal chunks.
        quasis: Vec<String>,
        /// Interpolated expressions.
        exprs: Vec<Expr>,
    },
    /// Regular expression literal, kept opaque.
    Regex {
        /// Pattern source between the slashes.
        pattern: String,
        /// Flags.
        flags: String,
    },
    /// Variable reference.
    Ident(String),
    /// `this`.
    This,
    /// Array literal; `None` elements are holes.
    Array(Vec<Option<ExprOrSpread>>),
    /// Object literal.
    Object(Vec<Property>),
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
        /// Assignment target.
        target: AssignTarget,
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
        args: Vec<ExprOrSpread>,
        /// Optional-chaining call `f?.()`.
        optional: bool,
    },
    /// `new` expression.
    New {
        /// Constructor expression.
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<ExprOrSpread>,
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
    Seq(Vec<Expr>),
    /// Parenthesized expression (kept so the printer can round-trip).
    Paren(Box<Expr>),
}

/// Property selector of a member expression.
#[derive(Debug, Clone)]
pub enum MemberProp {
    /// Fixed property name `o.p`.
    Static(String),
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
    Ident(String),
    /// String key `"foo":`.
    Str(String),
    /// Numeric key `42:`.
    Num(f64),
    /// Computed key `[e]:` — also a dynamic property write site.
    Computed(Box<Expr>),
}

impl PropName {
    /// The statically known name, if any.
    pub fn static_name(&self) -> Option<String> {
        match self {
            PropName::Ident(s) | PropName::Str(s) => Some(s.clone()),
            PropName::Num(n) => Some(crate::num_to_prop_name(*n)),
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
    pub name: Option<String>,
    /// Declared parameters in order.
    pub params: Vec<Param>,
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
    Block(Vec<Stmt>),
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
    pub name: Option<String>,
    /// `extends` clause.
    pub super_class: Option<Box<Expr>>,
    /// Members in source order.
    pub members: Vec<ClassMember>,
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
        name: String,
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
    Ident(String),
    /// Array pattern; `None` elements are holes.
    Array {
        /// Element patterns.
        elems: Vec<Option<Pattern>>,
        /// Trailing rest element.
        rest: Option<Box<Pattern>>,
    },
    /// Object pattern.
    Object {
        /// Destructured properties.
        props: Vec<ObjectPatProp>,
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
    fn operator_strings_round_trip() {
        assert_eq!(BinaryOp::UShr.as_str(), ">>>");
        assert_eq!(LogicalOp::Nullish.as_str(), "??");
        assert_eq!(UnaryOp::TypeOf.as_str(), "typeof");
        assert_eq!(AssignOp::Nullish.as_str(), "??=");
    }
}
