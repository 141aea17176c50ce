//! Token definitions for the JavaScript lexer.

use std::fmt;

/// A lexed token with its span and newline information (used for automatic
/// semicolon insertion).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token proper.
    pub kind: Tok,
    /// Byte offset of the first character.
    pub lo: u32,
    /// Byte offset one past the last character.
    pub hi: u32,
    /// Whether a line terminator occurred between the previous token and
    /// this one (drives ASI and restricted productions).
    pub newline_before: bool,
}

/// Kinds of tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Numeric literal (value already decoded).
    Num(f64),
    /// String literal (value already unescaped).
    Str(String),
    /// `` `abc` `` — template with no substitutions.
    TemplateNoSub(String),
    /// `` `abc${ `` — start of a template with substitutions.
    TemplateHead(String),
    /// `}abc${` — middle chunk.
    TemplateMiddle(String),
    /// `` }abc` `` — final chunk.
    TemplateTail(String),
    /// Regular expression literal.
    Regex {
        /// Pattern between the slashes.
        pattern: String,
        /// Trailing flags.
        flags: String,
    },
    /// Identifier or contextual keyword (`of`, `get`, `set`, `static`,
    /// `async`, `await`, `yield` are lexed as identifiers).
    Ident(String),
    /// Reserved word.
    Kw(Kw),
    /// Punctuator.
    P(P),
    /// End of input.
    Eof,
}

/// Reserved words recognized by the lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Kw {
    Var,
    Let,
    Const,
    Function,
    Return,
    If,
    Else,
    While,
    Do,
    For,
    In,
    New,
    Delete,
    TypeOf,
    Void,
    InstanceOf,
    This,
    Null,
    True,
    False,
    Class,
    Extends,
    Super,
    Try,
    Catch,
    Finally,
    Throw,
    Switch,
    Case,
    Default,
    Break,
    Continue,
    Debugger,
}

impl Kw {
    /// Looks up a reserved word. (Not `FromStr`: lookup failure is an
    /// ordinary outcome, not an error.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Kw> {
        Some(match s {
            "var" => Kw::Var,
            "let" => Kw::Let,
            "const" => Kw::Const,
            "function" => Kw::Function,
            "return" => Kw::Return,
            "if" => Kw::If,
            "else" => Kw::Else,
            "while" => Kw::While,
            "do" => Kw::Do,
            "for" => Kw::For,
            "in" => Kw::In,
            "new" => Kw::New,
            "delete" => Kw::Delete,
            "typeof" => Kw::TypeOf,
            "void" => Kw::Void,
            "instanceof" => Kw::InstanceOf,
            "this" => Kw::This,
            "null" => Kw::Null,
            "true" => Kw::True,
            "false" => Kw::False,
            "class" => Kw::Class,
            "extends" => Kw::Extends,
            "super" => Kw::Super,
            "try" => Kw::Try,
            "catch" => Kw::Catch,
            "finally" => Kw::Finally,
            "throw" => Kw::Throw,
            "switch" => Kw::Switch,
            "case" => Kw::Case,
            "default" => Kw::Default,
            "break" => Kw::Break,
            "continue" => Kw::Continue,
            "debugger" => Kw::Debugger,
            _ => return None,
        })
    }

    /// Source text of the keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Kw::Var => "var",
            Kw::Let => "let",
            Kw::Const => "const",
            Kw::Function => "function",
            Kw::Return => "return",
            Kw::If => "if",
            Kw::Else => "else",
            Kw::While => "while",
            Kw::Do => "do",
            Kw::For => "for",
            Kw::In => "in",
            Kw::New => "new",
            Kw::Delete => "delete",
            Kw::TypeOf => "typeof",
            Kw::Void => "void",
            Kw::InstanceOf => "instanceof",
            Kw::This => "this",
            Kw::Null => "null",
            Kw::True => "true",
            Kw::False => "false",
            Kw::Class => "class",
            Kw::Extends => "extends",
            Kw::Super => "super",
            Kw::Try => "try",
            Kw::Catch => "catch",
            Kw::Finally => "finally",
            Kw::Throw => "throw",
            Kw::Switch => "switch",
            Kw::Case => "case",
            Kw::Default => "default",
            Kw::Break => "break",
            Kw::Continue => "continue",
            Kw::Debugger => "debugger",
        }
    }
}

/// Punctuators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum P {
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    DotDotDot,
    QuestionDot,
    Arrow,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    NotEq,
    EqEqEq,
    NotEqEq,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    StarStar,
    PlusPlus,
    MinusMinus,
    Shl,
    Shr,
    UShr,
    Amp,
    Pipe,
    Caret,
    Bang,
    Tilde,
    AmpAmp,
    PipePipe,
    QuestionQuestion,
    Question,
    Colon,
    Eq,
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    PercentEq,
    StarStarEq,
    ShlEq,
    ShrEq,
    UShrEq,
    AmpEq,
    PipeEq,
    CaretEq,
    AmpAmpEq,
    PipePipeEq,
    QuestionQuestionEq,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Num(n) => write!(f, "number {}", aji_ast::number::to_string(*n)),
            Tok::Str(_) => write!(f, "string literal"),
            Tok::TemplateNoSub(_)
            | Tok::TemplateHead(_)
            | Tok::TemplateMiddle(_)
            | Tok::TemplateTail(_) => write!(f, "template literal"),
            Tok::Regex { .. } => write!(f, "regex literal"),
            Tok::Ident(s) => write!(f, "identifier `{}`", s),
            Tok::Kw(k) => write!(f, "keyword `{}`", k.as_str()),
            Tok::P(p) => write!(f, "`{:?}`", p),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}
