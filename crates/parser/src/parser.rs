//! Recursive-descent / precedence-climbing parser.
//!
//! Supports the JavaScript subset described in `aji-ast`: ES5 plus the
//! ES2015+ features that dominate real-world Node.js code (arrow functions,
//! classes, template literals, destructuring, default/rest parameters,
//! spread, optional chaining, nullish coalescing, `let`/`const`,
//! `for-of`, getters/setters). Automatic semicolon insertion follows the
//! newline flags produced by the lexer.

use crate::error::ParseError;
use crate::lexer::lex;
use crate::token::{Kw, Tok, Token, P};
use aji_ast::ast::*;
use aji_ast::{FileId, NodeIdGen, Span};
use std::sync::Arc;

/// Parses one file into a [`Module`].
///
/// `ids` must be shared across the files of a project so node ids are
/// project-unique.
///
/// # Errors
///
/// Returns the first lex or parse error encountered.
pub fn parse_module(
    src: &str,
    file: FileId,
    ids: &mut NodeIdGen,
) -> Result<Module, ParseError> {
    let tokens = lex(src)?;
    aji_obs::counter_add("parser.tokens", tokens.len() as u64);
    let mut p = Parser {
        tokens,
        idx: 0,
        file,
        ids,
        no_in: false,
        depth: 0,
        links: 0,
    };
    let lo = 0u32;
    let mut body = Vec::new();
    while !p.at_eof() {
        body.push(p.stmt()?);
    }
    let hi = src.len() as u32;
    Ok(Module {
        id: p.ids.fresh(),
        span: Span::new(file, lo, hi),
        body,
    })
}

/// Parses a string as a single expression (used by tests and by `eval`
/// handling when the code is an expression).
///
/// # Errors
///
/// Returns the first lex or parse error encountered.
pub fn parse_expr(
    src: &str,
    file: FileId,
    ids: &mut NodeIdGen,
) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    aji_obs::counter_add("parser.tokens", tokens.len() as u64);
    let mut p = Parser {
        tokens,
        idx: 0,
        file,
        ids,
        no_in: false,
        depth: 0,
        links: 0,
    };
    let e = p.expr()?;
    if !p.at_eof() {
        return Err(p.unexpected("end of input"));
    }
    Ok(e)
}

struct Parser<'a> {
    tokens: Vec<Token>,
    idx: usize,
    file: FileId,
    ids: &'a mut NodeIdGen,
    /// Set while parsing the init of a C-style `for` head: the `in`
    /// operator is not allowed there.
    no_in: bool,
    /// Current recursion depth, bounded by [`MAX_DEPTH`].
    depth: u32,
    /// Chain links held by the chains being built on the current path,
    /// bounded by [`MAX_CHAIN_LINKS`].
    links: u32,
}

/// Maximum nesting depth of statements/expressions before the parser bails
/// out with an error instead of overflowing the stack.
const MAX_DEPTH: u32 = 100;

/// Maximum number of left-associative chain links — binary and logical
/// operators, member accesses, calls — open on one path of the tree.
///
/// The parser builds such chains in loops, so [`MAX_DEPTH`] never sees
/// them, yet each link is one more level of AST that every later walker
/// (interpreter, scope resolution, constraint generation, printer)
/// recurses through. Without this budget a 10 KB `1+1+…+1` file
/// overflows a 2 MiB thread. Together with [`MAX_DEPTH`] it bounds the
/// depth of any tree the parser returns. The deepest chain in the corpus
/// has 10 links; a chain at the budget still runs through the whole
/// pipeline on a 2 MiB thread in an unoptimized build, whose frames are
/// several times larger. Links are counted while their chain is open, so
/// an argument list inside a chain starts from the links already held.
const MAX_CHAIN_LINKS: u32 = 200;

impl<'a> Parser<'a> {
    // ----- token helpers -----

    fn cur(&self) -> &Tok {
        &self.tokens[self.idx].kind
    }

    fn cur_token(&self) -> &Token {
        &self.tokens[self.idx]
    }

    fn peek_kind(&self, n: usize) -> &Tok {
        let i = (self.idx + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn at_eof(&self) -> bool {
        matches!(self.cur(), Tok::Eof)
    }

    fn at(&self, p: P) -> bool {
        matches!(self.cur(), Tok::P(q) if *q == p)
    }

    fn at_kw(&self, k: Kw) -> bool {
        matches!(self.cur(), Tok::Kw(q) if *q == k)
    }

    fn at_ident(&self, name: &str) -> bool {
        matches!(self.cur(), Tok::Ident(s) if s == name)
    }

    /// Consumes the current token and returns it. The token's kind is
    /// moved out, not cloned: the parser never looks back at a consumed
    /// token except for its `hi` offset ([`Parser::prev_hi`]). The final
    /// `Eof` is never advanced past, so it is cloned instead and stays in
    /// place for every later look.
    fn bump(&mut self) -> Token {
        if self.idx + 1 == self.tokens.len() {
            return self.tokens[self.idx].clone();
        }
        let t = &mut self.tokens[self.idx];
        let kind = std::mem::replace(&mut t.kind, Tok::Eof);
        let bumped = Token { kind, ..*t };
        self.idx += 1;
        bumped
    }

    /// Consumes the current token, which must carry a string (identifier,
    /// string literal or template chunk), and returns that string.
    fn bump_str(&mut self) -> String {
        match self.bump().kind {
            Tok::Ident(s)
            | Tok::Str(s)
            | Tok::TemplateNoSub(s)
            | Tok::TemplateHead(s)
            | Tok::TemplateMiddle(s)
            | Tok::TemplateTail(s) => s,
            other => unreachable!("bump_str on {other}"),
        }
    }

    fn eat(&mut self, p: P) -> bool {
        if self.at(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: Kw) -> bool {
        if self.at_kw(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, p: P) -> Result<(), ParseError> {
        if self.eat(p) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{:?}`", p)))
        }
    }

    fn unexpected(&self, wanted: &str) -> ParseError {
        ParseError::new(
            format!("expected {}, found {}", wanted, self.cur()),
            self.tokens[self.idx].lo,
        )
    }

    fn enter(&mut self) -> Result<DepthGuard, ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(ParseError::new(
                "expression or statement nesting too deep",
                self.tokens[self.idx].lo,
            ));
        }
        Ok(DepthGuard)
    }

    fn leave(&mut self, _g: DepthGuard) {
        self.depth -= 1;
    }

    /// Charges one more link of the chain being built against
    /// [`MAX_CHAIN_LINKS`]. The caller returns the links it charged with
    /// [`Parser::release_links`] once its chain is complete; on an error
    /// the whole parse is abandoned, so nothing needs returning.
    fn charge_link(&mut self) -> Result<(), ParseError> {
        self.links += 1;
        if self.links > MAX_CHAIN_LINKS {
            return Err(ParseError::new(
                "operator, member or call chain too long",
                self.tokens[self.idx].lo,
            ));
        }
        Ok(())
    }

    fn release_links(&mut self, n: u32) {
        self.links -= n;
    }

    fn lo(&self) -> u32 {
        self.tokens[self.idx].lo
    }

    fn prev_hi(&self) -> u32 {
        if self.idx == 0 {
            0
        } else {
            self.tokens[self.idx - 1].hi
        }
    }

    fn span_from(&self, lo: u32) -> Span {
        Span::new(self.file, lo, self.prev_hi())
    }

    fn fresh(&mut self) -> NodeId {
        self.ids.fresh()
    }

    fn ident_name(&mut self) -> Result<String, ParseError> {
        match *self.cur() {
            Tok::Ident(_) => Ok(self.bump_str()),
            // Keywords usable as plain identifiers in limited positions
            // (e.g. variable named `let` is rejected, but allow a few that
            // commonly appear as ES5 identifiers).
            _ => Err(self.unexpected("identifier")),
        }
    }

    /// Accepts identifiers *and* keywords as property names after `.`.
    fn prop_ident(&mut self) -> Result<String, ParseError> {
        match *self.cur() {
            Tok::Ident(_) => Ok(self.bump_str()),
            Tok::Kw(k) => {
                self.bump();
                Ok(k.as_str().to_string())
            }
            _ => Err(self.unexpected("property name")),
        }
    }

    /// Consumes a statement-terminating semicolon, applying ASI.
    fn semi(&mut self) -> Result<(), ParseError> {
        if self.eat(P::Semi) {
            return Ok(());
        }
        if self.at(P::RBrace) || self.at_eof() || self.cur_token().newline_before {
            return Ok(());
        }
        Err(self.unexpected("`;`"))
    }

    // ----- statements -----

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let g = self.enter()?;
        let r = self.stmt_inner();
        self.leave(g);
        r
    }

    fn stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        let lo = self.lo();
        match *self.cur() {
            Tok::P(P::LBrace) => {
                self.bump();
                let mut body = Vec::new();
                while !self.at(P::RBrace) && !self.at_eof() {
                    body.push(self.stmt()?);
                }
                self.expect(P::RBrace)?;
                Ok(self.mk_stmt(lo, StmtKind::Block(body)))
            }
            Tok::P(P::Semi) => {
                self.bump();
                Ok(self.mk_stmt(lo, StmtKind::Empty))
            }
            Tok::Kw(Kw::Var) | Tok::Kw(Kw::Let) | Tok::Kw(Kw::Const) => {
                let d = self.var_decl()?;
                self.semi()?;
                Ok(self.mk_stmt(lo, StmtKind::VarDecl(d)))
            }
            Tok::Kw(Kw::Function) => {
                let f = self.function(true, false)?;
                Ok(self.mk_stmt(lo, StmtKind::FuncDecl(Arc::new(f))))
            }
            Tok::Ident(ref s)
                if s == "async"
                    && matches!(self.peek_kind(1), Tok::Kw(Kw::Function))
                    && !self.tokens[self.idx + 1].newline_before =>
            {
                self.bump(); // async
                let mut f = self.function(true, false)?;
                f.is_async = true;
                Ok(self.mk_stmt(lo, StmtKind::FuncDecl(Arc::new(f))))
            }
            Tok::Kw(Kw::Class) => {
                let c = self.class()?;
                Ok(self.mk_stmt(lo, StmtKind::ClassDecl(Box::new(c))))
            }
            Tok::Kw(Kw::Return) => {
                self.bump();
                let arg = if self.at(P::Semi)
                    || self.at(P::RBrace)
                    || self.at_eof()
                    || self.cur_token().newline_before
                {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.semi()?;
                Ok(self.mk_stmt(lo, StmtKind::Return(arg)))
            }
            Tok::Kw(Kw::If) => {
                self.bump();
                self.expect(P::LParen)?;
                let test = self.expr()?;
                self.expect(P::RParen)?;
                let cons = Box::new(self.stmt()?);
                let alt = if self.eat_kw(Kw::Else) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(self.mk_stmt(lo, StmtKind::If { test, cons, alt }))
            }
            Tok::Kw(Kw::While) => {
                self.bump();
                self.expect(P::LParen)?;
                let test = self.expr()?;
                self.expect(P::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(self.mk_stmt(lo, StmtKind::While { test, body }))
            }
            Tok::Kw(Kw::Do) => {
                self.bump();
                let body = Box::new(self.stmt()?);
                if !self.eat_kw(Kw::While) {
                    return Err(self.unexpected("`while`"));
                }
                self.expect(P::LParen)?;
                let test = self.expr()?;
                self.expect(P::RParen)?;
                self.eat(P::Semi);
                Ok(self.mk_stmt(lo, StmtKind::DoWhile { body, test }))
            }
            Tok::Kw(Kw::For) => self.for_stmt(lo),
            Tok::Kw(Kw::Break) => {
                self.bump();
                let label = self.optional_label();
                self.semi()?;
                Ok(self.mk_stmt(lo, StmtKind::Break(label)))
            }
            Tok::Kw(Kw::Continue) => {
                self.bump();
                let label = self.optional_label();
                self.semi()?;
                Ok(self.mk_stmt(lo, StmtKind::Continue(label)))
            }
            Tok::Kw(Kw::Switch) => {
                self.bump();
                self.expect(P::LParen)?;
                let disc = self.expr()?;
                self.expect(P::RParen)?;
                self.expect(P::LBrace)?;
                let mut cases = Vec::new();
                while !self.at(P::RBrace) && !self.at_eof() {
                    let clo = self.lo();
                    let test = if self.eat_kw(Kw::Case) {
                        let t = self.expr()?;
                        self.expect(P::Colon)?;
                        Some(t)
                    } else if self.eat_kw(Kw::Default) {
                        self.expect(P::Colon)?;
                        None
                    } else {
                        return Err(self.unexpected("`case` or `default`"));
                    };
                    let mut body = Vec::new();
                    while !self.at(P::RBrace)
                        && !self.at_kw(Kw::Case)
                        && !self.at_kw(Kw::Default)
                        && !self.at_eof()
                    {
                        body.push(self.stmt()?);
                    }
                    cases.push(SwitchCase {
                        span: self.span_from(clo),
                        test,
                        body,
                    });
                }
                self.expect(P::RBrace)?;
                Ok(self.mk_stmt(lo, StmtKind::Switch { disc, cases }))
            }
            Tok::Kw(Kw::Throw) => {
                self.bump();
                if self.cur_token().newline_before {
                    return Err(self.unexpected("expression after `throw`"));
                }
                let e = self.expr()?;
                self.semi()?;
                Ok(self.mk_stmt(lo, StmtKind::Throw(e)))
            }
            Tok::Kw(Kw::Try) => {
                self.bump();
                self.expect(P::LBrace)?;
                let mut block = Vec::new();
                while !self.at(P::RBrace) && !self.at_eof() {
                    block.push(self.stmt()?);
                }
                self.expect(P::RBrace)?;
                let catch = if self.eat_kw(Kw::Catch) {
                    let param = if self.eat(P::LParen) {
                        let p = self.pattern()?;
                        self.expect(P::RParen)?;
                        Some(p)
                    } else {
                        None
                    };
                    self.expect(P::LBrace)?;
                    let mut body = Vec::new();
                    while !self.at(P::RBrace) && !self.at_eof() {
                        body.push(self.stmt()?);
                    }
                    self.expect(P::RBrace)?;
                    Some(CatchClause { param, body })
                } else {
                    None
                };
                let finally = if self.eat_kw(Kw::Finally) {
                    self.expect(P::LBrace)?;
                    let mut body = Vec::new();
                    while !self.at(P::RBrace) && !self.at_eof() {
                        body.push(self.stmt()?);
                    }
                    self.expect(P::RBrace)?;
                    Some(body)
                } else {
                    None
                };
                if catch.is_none() && finally.is_none() {
                    return Err(self.unexpected("`catch` or `finally`"));
                }
                Ok(self.mk_stmt(
                    lo,
                    StmtKind::Try {
                        block,
                        catch,
                        finally,
                    },
                ))
            }
            Tok::Kw(Kw::Debugger) => {
                self.bump();
                self.semi()?;
                Ok(self.mk_stmt(lo, StmtKind::Debugger))
            }
            // Labeled statement: `ident :`.
            Tok::Ident(_) if matches!(self.peek_kind(1), Tok::P(P::Colon)) => {
                let label = self.bump_str();
                self.bump();
                let body = Box::new(self.stmt()?);
                Ok(self.mk_stmt(lo, StmtKind::Labeled { label, body }))
            }
            _ => {
                let e = self.expr()?;
                self.semi()?;
                Ok(self.mk_stmt(lo, StmtKind::Expr(e)))
            }
        }
    }

    fn optional_label(&mut self) -> Option<String> {
        if self.cur_token().newline_before {
            return None;
        }
        if let Tok::Ident(_) = self.cur() {
            Some(self.bump_str())
        } else {
            None
        }
    }

    fn mk_stmt(&mut self, lo: u32, kind: StmtKind) -> Stmt {
        Stmt {
            id: self.fresh(),
            span: self.span_from(lo),
            kind,
        }
    }

    fn var_decl(&mut self) -> Result<VarDecl, ParseError> {
        let kind = match self.cur() {
            Tok::Kw(Kw::Var) => VarKind::Var,
            Tok::Kw(Kw::Let) => VarKind::Let,
            Tok::Kw(Kw::Const) => VarKind::Const,
            _ => return Err(self.unexpected("`var`, `let` or `const`")),
        };
        self.bump();
        let mut decls = Vec::new();
        loop {
            let dlo = self.lo();
            let name = self.pattern()?;
            let init = if self.eat(P::Eq) {
                Some(self.assign_expr()?)
            } else {
                None
            };
            decls.push(VarDeclarator {
                span: self.span_from(dlo),
                name,
                init,
            });
            if !self.eat(P::Comma) {
                break;
            }
        }
        Ok(VarDecl { kind, decls })
    }

    fn for_stmt(&mut self, lo: u32) -> Result<Stmt, ParseError> {
        self.bump(); // for
        self.expect(P::LParen)?;

        // Empty init.
        if self.eat(P::Semi) {
            return self.for_rest(lo, None);
        }

        if self.at_kw(Kw::Var) || self.at_kw(Kw::Let) || self.at_kw(Kw::Const) {
            let kind = match self.cur() {
                Tok::Kw(Kw::Var) => VarKind::Var,
                Tok::Kw(Kw::Let) => VarKind::Let,
                _ => VarKind::Const,
            };
            self.bump();
            let pat = self.pattern()?;
            if self.eat_kw(Kw::In) {
                let obj = self.expr()?;
                self.expect(P::RParen)?;
                let body = Box::new(self.stmt()?);
                return Ok(self.mk_stmt(
                    lo,
                    StmtKind::ForIn {
                        head: ForHead::VarDecl { kind, pat },
                        obj,
                        body,
                    },
                ));
            }
            if self.at_ident("of") {
                self.bump();
                let iter = self.assign_expr()?;
                self.expect(P::RParen)?;
                let body = Box::new(self.stmt()?);
                return Ok(self.mk_stmt(
                    lo,
                    StmtKind::ForOf {
                        head: ForHead::VarDecl { kind, pat },
                        iter,
                        body,
                    },
                ));
            }
            // C-style: finish the declarator list.
            let dlo = self.lo();
            let init = if self.eat(P::Eq) {
                self.no_in = true;
                let e = self.assign_expr();
                self.no_in = false;
                Some(e?)
            } else {
                None
            };
            let mut decls = vec![VarDeclarator {
                span: self.span_from(dlo),
                name: pat,
                init,
            }];
            while self.eat(P::Comma) {
                let dlo = self.lo();
                let name = self.pattern()?;
                let init = if self.eat(P::Eq) {
                    self.no_in = true;
                    let e = self.assign_expr();
                    self.no_in = false;
                    Some(e?)
                } else {
                    None
                };
                decls.push(VarDeclarator {
                    span: self.span_from(dlo),
                    name,
                    init,
                });
            }
            self.expect(P::Semi)?;
            return self.for_rest(lo, Some(ForInit::VarDecl(VarDecl { kind, decls })));
        }

        // Expression init.
        self.no_in = true;
        let e = self.expr();
        self.no_in = false;
        let e = e?;
        if self.eat_kw(Kw::In) {
            let obj = self.expr()?;
            self.expect(P::RParen)?;
            let body = Box::new(self.stmt()?);
            return Ok(self.mk_stmt(
                lo,
                StmtKind::ForIn {
                    head: ForHead::Target(Box::new(e)),
                    obj,
                    body,
                },
            ));
        }
        if self.at_ident("of") {
            self.bump();
            let iter = self.assign_expr()?;
            self.expect(P::RParen)?;
            let body = Box::new(self.stmt()?);
            return Ok(self.mk_stmt(
                lo,
                StmtKind::ForOf {
                    head: ForHead::Target(Box::new(e)),
                    iter,
                    body,
                },
            ));
        }
        self.expect(P::Semi)?;
        self.for_rest(lo, Some(ForInit::Expr(e)))
    }

    fn for_rest(&mut self, lo: u32, init: Option<ForInit>) -> Result<Stmt, ParseError> {
        let test = if self.at(P::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(P::Semi)?;
        let update = if self.at(P::RParen) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(P::RParen)?;
        let body = Box::new(self.stmt()?);
        Ok(self.mk_stmt(
            lo,
            StmtKind::For {
                init,
                test,
                update,
                body,
            },
        ))
    }

    // ----- patterns -----

    fn pattern(&mut self) -> Result<Pattern, ParseError> {
        let g = self.enter()?;
        let r = self.pattern_inner();
        self.leave(g);
        r
    }

    fn pattern_inner(&mut self) -> Result<Pattern, ParseError> {
        let lo = self.lo();
        let kind = match *self.cur() {
            Tok::Ident(_) => PatternKind::Ident(self.bump_str()),
            Tok::P(P::LBracket) => {
                self.bump();
                let mut elems = Vec::new();
                let mut rest = None;
                while !self.at(P::RBracket) {
                    if self.at(P::Comma) {
                        self.bump();
                        elems.push(None);
                        continue;
                    }
                    if self.eat(P::DotDotDot) {
                        rest = Some(Box::new(self.pattern()?));
                        break;
                    }
                    let p = self.pattern_with_default()?;
                    elems.push(Some(p));
                    if !self.eat(P::Comma) {
                        break;
                    }
                }
                self.expect(P::RBracket)?;
                PatternKind::Array { elems, rest }
            }
            Tok::P(P::LBrace) => {
                self.bump();
                let mut props = Vec::new();
                let mut rest = None;
                while !self.at(P::RBrace) {
                    if self.eat(P::DotDotDot) {
                        rest = Some(Box::new(self.pattern()?));
                        break;
                    }
                    let key = self.prop_name()?;
                    let value = if self.eat(P::Colon) {
                        self.pattern_with_default()?
                    } else {
                        // Shorthand `{x}` or `{x = default}`.
                        let name = match &key {
                            PropName::Ident(s) => s.clone(),
                            _ => return Err(self.unexpected("`:` after pattern key")),
                        };
                        let ilo = self.prev_hi();
                        let base = Pattern {
                            id: self.fresh(),
                            span: self.span_from(ilo),
                            kind: PatternKind::Ident(name),
                        };
                        if self.eat(P::Eq) {
                            let default = self.assign_expr()?;
                            Pattern {
                                id: self.fresh(),
                                span: self.span_from(ilo),
                                kind: PatternKind::Assign {
                                    pat: Box::new(base),
                                    default: Box::new(default),
                                },
                            }
                        } else {
                            base
                        }
                    };
                    props.push(ObjectPatProp { key, value });
                    if !self.eat(P::Comma) {
                        break;
                    }
                }
                self.expect(P::RBrace)?;
                PatternKind::Object { props, rest }
            }
            _ => return Err(self.unexpected("binding pattern")),
        };
        Ok(Pattern {
            id: self.fresh(),
            span: self.span_from(lo),
            kind,
        })
    }

    fn pattern_with_default(&mut self) -> Result<Pattern, ParseError> {
        let lo = self.lo();
        let pat = self.pattern()?;
        if self.eat(P::Eq) {
            let default = self.assign_expr()?;
            Ok(Pattern {
                id: self.fresh(),
                span: self.span_from(lo),
                kind: PatternKind::Assign {
                    pat: Box::new(pat),
                    default: Box::new(default),
                },
            })
        } else {
            Ok(pat)
        }
    }

    // ----- functions and classes -----

    /// Parses `function name? (params) { body }`. When `require_name` the
    /// function is a declaration.
    fn function(&mut self, require_name: bool, _method: bool) -> Result<Function, ParseError> {
        let lo = self.lo();
        if !self.eat_kw(Kw::Function) {
            return Err(self.unexpected("`function`"));
        }
        let is_generator = self.eat(P::Star);
        let name = if let Tok::Ident(_) = self.cur() {
            Some(self.bump_str())
        } else {
            if require_name {
                return Err(self.unexpected("function name"));
            }
            None
        };
        let (params, rest) = self.param_list()?;
        let body = self.func_block_body()?;
        Ok(Function {
            id: self.fresh(),
            span: self.span_from(lo),
            name,
            params,
            rest,
            body,
            is_arrow: false,
            is_async: false,
            is_generator,
        })
    }

    fn param_list(&mut self) -> Result<(Vec<Param>, Option<Pattern>), ParseError> {
        self.expect(P::LParen)?;
        let mut params = Vec::new();
        let mut rest = None;
        while !self.at(P::RParen) {
            if self.eat(P::DotDotDot) {
                rest = Some(self.pattern()?);
                break;
            }
            let pat = self.pattern()?;
            let default = if self.eat(P::Eq) {
                Some(self.assign_expr()?)
            } else {
                None
            };
            params.push(Param { pat, default });
            if !self.eat(P::Comma) {
                break;
            }
        }
        self.expect(P::RParen)?;
        Ok((params, rest))
    }

    fn func_block_body(&mut self) -> Result<FuncBody, ParseError> {
        self.expect(P::LBrace)?;
        let mut body = Vec::new();
        while !self.at(P::RBrace) && !self.at_eof() {
            body.push(self.stmt()?);
        }
        self.expect(P::RBrace)?;
        Ok(FuncBody::Block(body))
    }

    fn class(&mut self) -> Result<Class, ParseError> {
        let lo = self.lo();
        if !self.eat_kw(Kw::Class) {
            return Err(self.unexpected("`class`"));
        }
        let name = if let Tok::Ident(_) = self.cur() {
            Some(self.bump_str())
        } else {
            None
        };
        let super_class = if self.eat_kw(Kw::Extends) {
            Some(Box::new(self.lhs_expr()?))
        } else {
            None
        };
        self.expect(P::LBrace)?;
        let mut members = Vec::new();
        while !self.at(P::RBrace) && !self.at_eof() {
            if self.eat(P::Semi) {
                continue;
            }
            members.push(self.class_member()?);
        }
        self.expect(P::RBrace)?;
        Ok(Class {
            id: self.fresh(),
            span: self.span_from(lo),
            name,
            super_class,
            members,
        })
    }

    fn class_member(&mut self) -> Result<ClassMember, ParseError> {
        let lo = self.lo();
        let mut is_static = false;
        if self.at_ident("static")
            && !matches!(
                self.peek_kind(1),
                Tok::P(P::LParen) | Tok::P(P::Eq) | Tok::P(P::Semi)
            )
        {
            self.bump();
            is_static = true;
        }
        let mut is_async = false;
        if self.at_ident("async")
            && !matches!(
                self.peek_kind(1),
                Tok::P(P::LParen) | Tok::P(P::Eq) | Tok::P(P::Semi)
            )
            && !self.tokens[self.idx + 1].newline_before
        {
            self.bump();
            is_async = true;
        }
        let is_generator = self.eat(P::Star);
        // Getter / setter?
        let accessor = if (self.at_ident("get") || self.at_ident("set"))
            && !matches!(
                self.peek_kind(1),
                Tok::P(P::LParen) | Tok::P(P::Eq) | Tok::P(P::Semi) | Tok::P(P::RBrace)
            ) {
            let kind = if self.at_ident("get") {
                MethodKind::Get
            } else {
                MethodKind::Set
            };
            self.bump();
            Some(kind)
        } else {
            None
        };
        let key = self.prop_name()?;
        if self.at(P::LParen) {
            let flo = self.lo();
            let (params, rest) = self.param_list()?;
            let body = self.func_block_body()?;
            let func = Arc::new(Function {
                id: self.fresh(),
                span: self.span_from(flo),
                name: key.static_name(),
                params,
                rest,
                body,
                is_arrow: false,
                is_async,
                is_generator,
            });
            let is_ctor =
                !is_static && accessor.is_none() && key.static_name().as_deref() == Some("constructor");
            let kind = if is_ctor {
                ClassMemberKind::Constructor(func)
            } else {
                ClassMemberKind::Method {
                    kind: accessor.unwrap_or(MethodKind::Method),
                    func,
                }
            };
            Ok(ClassMember {
                span: self.span_from(lo),
                key,
                kind,
                is_static,
            })
        } else {
            // Field.
            let init = if self.eat(P::Eq) {
                Some(self.assign_expr()?)
            } else {
                None
            };
            self.semi()?;
            Ok(ClassMember {
                span: self.span_from(lo),
                key,
                kind: ClassMemberKind::Field(init),
                is_static,
            })
        }
    }

    fn prop_name(&mut self) -> Result<PropName, ParseError> {
        match *self.cur() {
            Tok::Ident(_) => Ok(PropName::Ident(self.bump_str())),
            Tok::Kw(k) => {
                self.bump();
                Ok(PropName::Ident(k.as_str().to_string()))
            }
            Tok::Str(_) => Ok(PropName::Str(self.bump_str())),
            Tok::Num(n) => {
                self.bump();
                Ok(PropName::Num(n))
            }
            Tok::P(P::LBracket) => {
                self.bump();
                let e = self.assign_expr()?;
                self.expect(P::RBracket)?;
                Ok(PropName::Computed(Box::new(e)))
            }
            _ => Err(self.unexpected("property name")),
        }
    }

    // ----- expressions -----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let lo = self.lo();
        let first = self.assign_expr()?;
        if !self.at(P::Comma) {
            return Ok(first);
        }
        let mut exprs = vec![first];
        while self.eat(P::Comma) {
            exprs.push(self.assign_expr()?);
        }
        Ok(self.mk_expr(lo, ExprKind::Seq(exprs)))
    }

    fn mk_expr(&mut self, lo: u32, kind: ExprKind) -> Expr {
        Expr {
            id: self.fresh(),
            span: self.span_from(lo),
            kind,
        }
    }

    fn assign_expr(&mut self) -> Result<Expr, ParseError> {
        let g = self.enter()?;
        let r = self.assign_expr_inner();
        self.leave(g);
        r
    }

    fn assign_expr_inner(&mut self) -> Result<Expr, ParseError> {
        // Arrow functions first (they parse like nothing else).
        if let Some(arrow) = self.try_arrow()? {
            return Ok(arrow);
        }
        let lo = self.lo();
        let left = self.cond_expr()?;
        let op = match self.cur() {
            Tok::P(P::Eq) => AssignOp::Assign,
            Tok::P(P::PlusEq) => AssignOp::Add,
            Tok::P(P::MinusEq) => AssignOp::Sub,
            Tok::P(P::StarEq) => AssignOp::Mul,
            Tok::P(P::SlashEq) => AssignOp::Div,
            Tok::P(P::PercentEq) => AssignOp::Rem,
            Tok::P(P::StarStarEq) => AssignOp::Exp,
            Tok::P(P::ShlEq) => AssignOp::Shl,
            Tok::P(P::ShrEq) => AssignOp::Shr,
            Tok::P(P::UShrEq) => AssignOp::UShr,
            Tok::P(P::AmpEq) => AssignOp::BitAnd,
            Tok::P(P::PipeEq) => AssignOp::BitOr,
            Tok::P(P::CaretEq) => AssignOp::BitXor,
            Tok::P(P::AmpAmpEq) => AssignOp::And,
            Tok::P(P::PipePipeEq) => AssignOp::Or,
            Tok::P(P::QuestionQuestionEq) => AssignOp::Nullish,
            _ => return Ok(left),
        };
        self.bump();
        let target = self.expr_to_assign_target(left)?;
        let value = Box::new(self.assign_expr()?);
        Ok(self.mk_expr(lo, ExprKind::Assign { op, target, value }))
    }

    fn expr_to_assign_target(&mut self, e: Expr) -> Result<AssignTarget, ParseError> {
        match e.kind {
            ExprKind::Ident(name) => Ok(AssignTarget::Ident {
                id: e.id,
                span: e.span,
                name,
            }),
            ExprKind::Member { .. } => Ok(AssignTarget::Member(Box::new(e))),
            ExprKind::Paren(inner) => self.expr_to_assign_target(*inner),
            ExprKind::Array(_) | ExprKind::Object(_) => {
                let pat = self.expr_to_pattern(e)?;
                Ok(AssignTarget::Pattern(Box::new(pat)))
            }
            _ => Err(ParseError::new(
                "invalid assignment target",
                e.span.lo,
            )),
        }
    }

    /// Converts an already-parsed expression to a destructuring pattern
    /// (for `[a, b] = ..` style assignments).
    fn expr_to_pattern(&mut self, e: Expr) -> Result<Pattern, ParseError> {
        let span = e.span;
        let kind = match e.kind {
            ExprKind::Ident(name) => PatternKind::Ident(name),
            ExprKind::Paren(inner) => return self.expr_to_pattern(*inner),
            ExprKind::Assign {
                op: AssignOp::Assign,
                target,
                value,
            } => {
                let pat = match target {
                    AssignTarget::Ident { id, span, name } => Pattern {
                        id,
                        span,
                        kind: PatternKind::Ident(name),
                    },
                    AssignTarget::Pattern(p) => *p,
                    AssignTarget::Member(m) => {
                        return Err(ParseError::new(
                            "member expressions in destructuring are not supported",
                            m.span.lo,
                        ))
                    }
                };
                PatternKind::Assign {
                    pat: Box::new(pat),
                    default: value,
                }
            }
            ExprKind::Array(elems) => {
                let mut pelems = Vec::new();
                let mut rest = None;
                let n = elems.len();
                for (i, el) in elems.into_iter().enumerate() {
                    match el {
                        None => pelems.push(None),
                        Some(ExprOrSpread { spread: true, expr }) => {
                            if i + 1 != n {
                                return Err(ParseError::new(
                                    "rest element must be last",
                                    expr.span.lo,
                                ));
                            }
                            rest = Some(Box::new(self.expr_to_pattern(expr)?));
                        }
                        Some(ExprOrSpread { expr, .. }) => {
                            pelems.push(Some(self.expr_to_pattern(expr)?));
                        }
                    }
                }
                PatternKind::Array { elems: pelems, rest }
            }
            ExprKind::Object(props) => {
                let mut pprops = Vec::new();
                let mut rest = None;
                for p in props {
                    match p {
                        Property::KeyValue { key, value } => {
                            pprops.push(ObjectPatProp {
                                key,
                                value: self.expr_to_pattern(value)?,
                            });
                        }
                        Property::Spread(e) => {
                            rest = Some(Box::new(self.expr_to_pattern(e)?));
                        }
                        Property::Method { key, .. } => {
                            return Err(ParseError::new(
                                "method in destructuring pattern",
                                match key {
                                    PropName::Computed(e) => e.span.lo,
                                    _ => span.lo,
                                },
                            ))
                        }
                    }
                }
                PatternKind::Object { props: pprops, rest }
            }
            _ => {
                return Err(ParseError::new(
                    "invalid destructuring pattern",
                    span.lo,
                ))
            }
        };
        Ok(Pattern {
            id: self.fresh(),
            span,
            kind,
        })
    }

    /// Detects and parses an arrow function at the current position.
    fn try_arrow(&mut self) -> Result<Option<Expr>, ParseError> {
        let lo = self.lo();
        // `async` prefix?
        let (is_async, start) = if self.at_ident("async")
            && !self.tokens[self.idx + 1].newline_before
            && matches!(self.peek_kind(1), Tok::Ident(_) | Tok::P(P::LParen))
            && !matches!(self.peek_kind(1), Tok::Ident(s) if s == "async")
        {
            (true, self.idx + 1)
        } else {
            (false, self.idx)
        };

        let tokens_ahead = &self.tokens[start..];
        let arrow_at = match &tokens_ahead[0].kind {
            // `x => ...`
            Tok::Ident(_) => {
                if matches!(tokens_ahead.get(1).map(|t| &t.kind), Some(Tok::P(P::Arrow))) {
                    Some(start + 2)
                } else {
                    None
                }
            }
            // `(params) => ...`
            Tok::P(P::LParen) => {
                let mut depth = 0usize;
                let mut i = 0usize;
                loop {
                    match tokens_ahead.get(i).map(|t| &t.kind) {
                        Some(Tok::P(P::LParen)) => depth += 1,
                        Some(Tok::P(P::RParen)) => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Some(Tok::Eof) | None => return Ok(None),
                        _ => {}
                    }
                    i += 1;
                }
                if matches!(
                    tokens_ahead.get(i + 1).map(|t| &t.kind),
                    Some(Tok::P(P::Arrow))
                ) {
                    Some(start) // params parsed below from `(`
                } else {
                    None
                }
            }
            _ => None,
        };

        let Some(pos) = arrow_at else {
            return Ok(None);
        };

        if is_async {
            self.bump(); // async
        }

        // Parse params.
        let (params, rest) = if self.at(P::LParen) {
            self.param_list()?
        } else {
            // Single identifier param; `pos` marks the token after `=>`.
            let _ = pos;
            let plo = self.lo();
            let name = self.ident_name()?;
            let pat = Pattern {
                id: self.fresh(),
                span: self.span_from(plo),
                kind: PatternKind::Ident(name),
            };
            (
                vec![Param {
                    pat,
                    default: None,
                }],
                None,
            )
        };
        self.expect(P::Arrow)?;
        let body = if self.at(P::LBrace) {
            self.func_block_body()?
        } else {
            FuncBody::Expr(Box::new(self.assign_expr()?))
        };
        let f = Function {
            id: self.fresh(),
            span: self.span_from(lo),
            name: None,
            params,
            rest,
            body,
            is_arrow: true,
            is_async,
            is_generator: false,
        };
        Ok(Some(self.mk_expr(lo, ExprKind::Arrow(Arc::new(f)))))
    }

    fn cond_expr(&mut self) -> Result<Expr, ParseError> {
        let lo = self.lo();
        let test = self.binary_expr(0)?;
        if !self.eat(P::Question) {
            return Ok(test);
        }
        let cons = Box::new(self.assign_expr()?);
        self.expect(P::Colon)?;
        let alt = Box::new(self.assign_expr()?);
        Ok(self.mk_expr(
            lo,
            ExprKind::Cond {
                test: Box::new(test),
                cons,
                alt,
            },
        ))
    }

    /// Precedence-climbing parser for binary and logical operators.
    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let lo = self.lo();
        let mut left = self.unary_expr()?;
        let mut links = 0;
        loop {
            let (prec, right_assoc, op) = match self.cur() {
                Tok::P(P::QuestionQuestion) => (1, false, BinOrLogical::Logical(LogicalOp::Nullish)),
                Tok::P(P::PipePipe) => (2, false, BinOrLogical::Logical(LogicalOp::Or)),
                Tok::P(P::AmpAmp) => (3, false, BinOrLogical::Logical(LogicalOp::And)),
                Tok::P(P::Pipe) => (4, false, BinOrLogical::Binary(BinaryOp::BitOr)),
                Tok::P(P::Caret) => (5, false, BinOrLogical::Binary(BinaryOp::BitXor)),
                Tok::P(P::Amp) => (6, false, BinOrLogical::Binary(BinaryOp::BitAnd)),
                Tok::P(P::EqEq) => (7, false, BinOrLogical::Binary(BinaryOp::EqLoose)),
                Tok::P(P::NotEq) => (7, false, BinOrLogical::Binary(BinaryOp::NeqLoose)),
                Tok::P(P::EqEqEq) => (7, false, BinOrLogical::Binary(BinaryOp::EqStrict)),
                Tok::P(P::NotEqEq) => (7, false, BinOrLogical::Binary(BinaryOp::NeqStrict)),
                Tok::P(P::Lt) => (8, false, BinOrLogical::Binary(BinaryOp::Lt)),
                Tok::P(P::Le) => (8, false, BinOrLogical::Binary(BinaryOp::Le)),
                Tok::P(P::Gt) => (8, false, BinOrLogical::Binary(BinaryOp::Gt)),
                Tok::P(P::Ge) => (8, false, BinOrLogical::Binary(BinaryOp::Ge)),
                Tok::Kw(Kw::In) if !self.no_in => (8, false, BinOrLogical::Binary(BinaryOp::In)),
                Tok::Kw(Kw::InstanceOf) => (8, false, BinOrLogical::Binary(BinaryOp::InstanceOf)),
                Tok::P(P::Shl) => (9, false, BinOrLogical::Binary(BinaryOp::Shl)),
                Tok::P(P::Shr) => (9, false, BinOrLogical::Binary(BinaryOp::Shr)),
                Tok::P(P::UShr) => (9, false, BinOrLogical::Binary(BinaryOp::UShr)),
                Tok::P(P::Plus) => (10, false, BinOrLogical::Binary(BinaryOp::Add)),
                Tok::P(P::Minus) => (10, false, BinOrLogical::Binary(BinaryOp::Sub)),
                Tok::P(P::Star) => (11, false, BinOrLogical::Binary(BinaryOp::Mul)),
                Tok::P(P::Slash) => (11, false, BinOrLogical::Binary(BinaryOp::Div)),
                Tok::P(P::Percent) => (11, false, BinOrLogical::Binary(BinaryOp::Rem)),
                Tok::P(P::StarStar) => (12, true, BinOrLogical::Binary(BinaryOp::Exp)),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.charge_link()?;
            links += 1;
            self.bump();
            let next_min = if right_assoc { prec } else { prec + 1 };
            let right = self.binary_expr(next_min)?;
            left = self.mk_expr(
                lo,
                match op {
                    BinOrLogical::Binary(op) => ExprKind::Binary {
                        op,
                        left: Box::new(left),
                        right: Box::new(right),
                    },
                    BinOrLogical::Logical(op) => ExprKind::Logical {
                        op,
                        left: Box::new(left),
                        right: Box::new(right),
                    },
                },
            );
        }
        self.release_links(links);
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        let g = self.enter()?;
        let r = self.unary_expr_inner();
        self.leave(g);
        r
    }

    fn unary_expr_inner(&mut self) -> Result<Expr, ParseError> {
        let lo = self.lo();
        let op = match self.cur() {
            Tok::P(P::Minus) => Some(UnaryOp::Neg),
            Tok::P(P::Plus) => Some(UnaryOp::Pos),
            Tok::P(P::Bang) => Some(UnaryOp::Not),
            Tok::P(P::Tilde) => Some(UnaryOp::BitNot),
            Tok::Kw(Kw::TypeOf) => Some(UnaryOp::TypeOf),
            Tok::Kw(Kw::Void) => Some(UnaryOp::Void),
            Tok::Kw(Kw::Delete) => Some(UnaryOp::Delete),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let expr = Box::new(self.unary_expr()?);
            return Ok(self.mk_expr(lo, ExprKind::Unary { op, expr }));
        }
        if self.at(P::PlusPlus) || self.at(P::MinusMinus) {
            let op = if self.at(P::PlusPlus) {
                UpdateOp::Inc
            } else {
                UpdateOp::Dec
            };
            self.bump();
            let expr = Box::new(self.unary_expr()?);
            return Ok(self.mk_expr(
                lo,
                ExprKind::Update {
                    op,
                    prefix: true,
                    expr,
                },
            ));
        }
        // `await e` — evaluate the operand synchronously.
        if self.at_ident("await") && !matches!(self.peek_kind(1), Tok::P(P::Semi) | Tok::P(P::RParen) | Tok::P(P::Comma) | Tok::P(P::RBrace) | Tok::Eof | Tok::P(P::Dot) | Tok::P(P::Arrow) | Tok::P(P::Colon) | Tok::P(P::Eq)) {
            self.bump();
            return self.unary_expr();
        }
        // `yield e?` — treat as its operand (or undefined-ish void 0).
        if self.at_ident("yield") {
            if matches!(
                self.peek_kind(1),
                Tok::P(P::Semi) | Tok::P(P::RParen) | Tok::P(P::RBrace) | Tok::P(P::RBracket) | Tok::P(P::Comma) | Tok::Eof
            ) || self.tokens[self.idx + 1].newline_before
            {
                self.bump();
                let zero = self.mk_expr(lo, ExprKind::Num(0.0));
                return Ok(self.mk_expr(
                    lo,
                    ExprKind::Unary {
                        op: UnaryOp::Void,
                        expr: Box::new(zero),
                    },
                ));
            }
            self.bump();
            self.eat(P::Star);
            return self.assign_expr();
        }
        let mut e = self.lhs_expr()?;
        // Postfix update (no newline allowed before the operator).
        if (self.at(P::PlusPlus) || self.at(P::MinusMinus)) && !self.cur_token().newline_before {
            let op = if self.at(P::PlusPlus) {
                UpdateOp::Inc
            } else {
                UpdateOp::Dec
            };
            self.bump();
            e = self.mk_expr(
                lo,
                ExprKind::Update {
                    op,
                    prefix: false,
                    expr: Box::new(e),
                },
            );
        }
        Ok(e)
    }

    /// Parses `new`-expressions, calls and member accesses.
    fn lhs_expr(&mut self) -> Result<Expr, ParseError> {
        let lo = self.lo();
        let mut e = if self.at_kw(Kw::New) {
            self.parse_new()?
        } else {
            self.primary()?
        };
        // Member / call chain.
        let mut links = 0;
        loop {
            if matches!(
                self.cur(),
                Tok::P(P::Dot | P::QuestionDot | P::LBracket | P::LParen)
                    | Tok::TemplateNoSub(_)
                    | Tok::TemplateHead(_)
            ) {
                self.charge_link()?;
                links += 1;
            }
            if self.at(P::Dot) {
                self.bump();
                let name = self.prop_ident()?;
                e = self.mk_expr(
                    lo,
                    ExprKind::Member {
                        obj: Box::new(e),
                        prop: MemberProp::Static(name),
                        optional: false,
                    },
                );
            } else if self.at(P::QuestionDot) {
                self.bump();
                if self.at(P::LParen) {
                    let args = self.call_args()?;
                    e = self.mk_expr(
                        lo,
                        ExprKind::Call {
                            callee: Box::new(e),
                            args,
                            optional: true,
                        },
                    );
                } else if self.at(P::LBracket) {
                    self.bump();
                    let prop = self.expr()?;
                    self.expect(P::RBracket)?;
                    e = self.mk_expr(
                        lo,
                        ExprKind::Member {
                            obj: Box::new(e),
                            prop: MemberProp::Computed(Box::new(prop)),
                            optional: true,
                        },
                    );
                } else {
                    let name = self.prop_ident()?;
                    e = self.mk_expr(
                        lo,
                        ExprKind::Member {
                            obj: Box::new(e),
                            prop: MemberProp::Static(name),
                            optional: true,
                        },
                    );
                }
            } else if self.at(P::LBracket) {
                self.bump();
                let saved_no_in = self.no_in;
                self.no_in = false;
                let prop = self.expr();
                self.no_in = saved_no_in;
                let prop = prop?;
                self.expect(P::RBracket)?;
                e = self.mk_expr(
                    lo,
                    ExprKind::Member {
                        obj: Box::new(e),
                        prop: MemberProp::Computed(Box::new(prop)),
                        optional: false,
                    },
                );
            } else if self.at(P::LParen) {
                let args = self.call_args()?;
                e = self.mk_expr(
                    lo,
                    ExprKind::Call {
                        callee: Box::new(e),
                        args,
                        optional: false,
                    },
                );
            } else if matches!(self.cur(), Tok::TemplateNoSub(_) | Tok::TemplateHead(_)) {
                // Tagged template: desugar to a call with the template as
                // the single argument.
                let tpl = self.template_expr()?;
                e = self.mk_expr(
                    lo,
                    ExprKind::Call {
                        callee: Box::new(e),
                        args: vec![ExprOrSpread {
                            spread: false,
                            expr: tpl,
                        }],
                        optional: false,
                    },
                );
            } else {
                break;
            }
        }
        self.release_links(links);
        Ok(e)
    }

    fn parse_new(&mut self) -> Result<Expr, ParseError> {
        let lo = self.lo();
        self.bump(); // new
        if self.at(P::Dot) {
            // `new.target` — model as undefined-ish identifier.
            self.bump();
            let _ = self.prop_ident()?;
            return Ok(self.mk_expr(lo, ExprKind::Ident("undefined".into())));
        }
        // Callee: a member expression without call arguments. A nested
        // `new` is one more link of the chain.
        let mut links = 0;
        let mut callee = if self.at_kw(Kw::New) {
            self.charge_link()?;
            links += 1;
            self.parse_new()?
        } else {
            self.primary()?
        };
        loop {
            if self.at(P::Dot) || self.at(P::LBracket) {
                self.charge_link()?;
                links += 1;
            }
            if self.at(P::Dot) {
                self.bump();
                let name = self.prop_ident()?;
                callee = self.mk_expr(
                    lo,
                    ExprKind::Member {
                        obj: Box::new(callee),
                        prop: MemberProp::Static(name),
                        optional: false,
                    },
                );
            } else if self.at(P::LBracket) {
                self.bump();
                let prop = self.expr()?;
                self.expect(P::RBracket)?;
                callee = self.mk_expr(
                    lo,
                    ExprKind::Member {
                        obj: Box::new(callee),
                        prop: MemberProp::Computed(Box::new(prop)),
                        optional: false,
                    },
                );
            } else {
                break;
            }
        }
        let args = if self.at(P::LParen) {
            self.call_args()?
        } else {
            Vec::new()
        };
        self.release_links(links);
        Ok(self.mk_expr(
            lo,
            ExprKind::New {
                callee: Box::new(callee),
                args,
            },
        ))
    }

    fn call_args(&mut self) -> Result<Vec<ExprOrSpread>, ParseError> {
        self.expect(P::LParen)?;
        let saved_no_in = self.no_in;
        self.no_in = false;
        let mut args = Vec::new();
        while !self.at(P::RParen) {
            let spread = self.eat(P::DotDotDot);
            let expr = self.assign_expr()?;
            args.push(ExprOrSpread { spread, expr });
            if !self.eat(P::Comma) {
                break;
            }
        }
        self.no_in = saved_no_in;
        self.expect(P::RParen)?;
        Ok(args)
    }

    fn template_expr(&mut self) -> Result<Expr, ParseError> {
        let lo = self.lo();
        match *self.cur() {
            Tok::TemplateNoSub(_) => {
                let quasis = vec![self.bump_str()];
                Ok(self.mk_expr(
                    lo,
                    ExprKind::Template {
                        quasis,
                        exprs: vec![],
                    },
                ))
            }
            Tok::TemplateHead(_) => {
                let mut quasis = vec![self.bump_str()];
                let mut exprs = Vec::new();
                loop {
                    exprs.push(self.expr()?);
                    match *self.cur() {
                        Tok::TemplateMiddle(_) => quasis.push(self.bump_str()),
                        Tok::TemplateTail(_) => {
                            quasis.push(self.bump_str());
                            break;
                        }
                        _ => return Err(self.unexpected("template continuation")),
                    }
                }
                Ok(self.mk_expr(lo, ExprKind::Template { quasis, exprs }))
            }
            _ => Err(self.unexpected("template literal")),
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let lo = self.lo();
        match *self.cur() {
            Tok::Num(n) => {
                self.bump();
                Ok(self.mk_expr(lo, ExprKind::Num(n)))
            }
            Tok::Str(_) => {
                let s = self.bump_str();
                Ok(self.mk_expr(lo, ExprKind::Str(s)))
            }
            Tok::TemplateNoSub(_) | Tok::TemplateHead(_) => self.template_expr(),
            Tok::Regex { .. } => {
                let Tok::Regex { pattern, flags } = self.bump().kind else {
                    unreachable!("matched a regex token")
                };
                Ok(self.mk_expr(lo, ExprKind::Regex { pattern, flags }))
            }
            Tok::Kw(Kw::True) => {
                self.bump();
                Ok(self.mk_expr(lo, ExprKind::Bool(true)))
            }
            Tok::Kw(Kw::False) => {
                self.bump();
                Ok(self.mk_expr(lo, ExprKind::Bool(false)))
            }
            Tok::Kw(Kw::Null) => {
                self.bump();
                Ok(self.mk_expr(lo, ExprKind::Null))
            }
            Tok::Kw(Kw::This) => {
                self.bump();
                Ok(self.mk_expr(lo, ExprKind::This))
            }
            Tok::Kw(Kw::Super) => {
                // Model `super` as a plain identifier; the interpreter
                // resolves it through the class runtime.
                self.bump();
                Ok(self.mk_expr(lo, ExprKind::Ident("super".into())))
            }
            Tok::Kw(Kw::Function) => {
                let f = self.function(false, false)?;
                Ok(self.mk_expr(lo, ExprKind::Function(Arc::new(f))))
            }
            Tok::Ident(ref s)
                if s == "async"
                    && matches!(self.peek_kind(1), Tok::Kw(Kw::Function))
                    && !self.tokens[self.idx + 1].newline_before =>
            {
                self.bump();
                let mut f = self.function(false, false)?;
                f.is_async = true;
                Ok(self.mk_expr(lo, ExprKind::Function(Arc::new(f))))
            }
            Tok::Kw(Kw::Class) => {
                let c = self.class()?;
                Ok(self.mk_expr(lo, ExprKind::Class(Box::new(c))))
            }
            Tok::Ident(_) => {
                let name = self.bump_str();
                Ok(self.mk_expr(lo, ExprKind::Ident(name)))
            }
            Tok::P(P::LParen) => {
                self.bump();
                let saved_no_in = self.no_in;
                self.no_in = false;
                let inner = self.expr();
                self.no_in = saved_no_in;
                let inner = inner?;
                self.expect(P::RParen)?;
                Ok(self.mk_expr(lo, ExprKind::Paren(Box::new(inner))))
            }
            Tok::P(P::LBracket) => {
                self.bump();
                let mut elems = Vec::new();
                loop {
                    if self.at(P::RBracket) {
                        break;
                    }
                    if self.at(P::Comma) {
                        self.bump();
                        elems.push(None);
                        continue;
                    }
                    let spread = self.eat(P::DotDotDot);
                    let expr = self.assign_expr()?;
                    elems.push(Some(ExprOrSpread { spread, expr }));
                    if !self.eat(P::Comma) {
                        break;
                    }
                }
                self.expect(P::RBracket)?;
                Ok(self.mk_expr(lo, ExprKind::Array(elems)))
            }
            Tok::P(P::LBrace) => {
                self.bump();
                let mut props = Vec::new();
                while !self.at(P::RBrace) {
                    props.push(self.object_prop()?);
                    if !self.eat(P::Comma) {
                        break;
                    }
                }
                self.expect(P::RBrace)?;
                Ok(self.mk_expr(lo, ExprKind::Object(props)))
            }
            _ => Err(self.unexpected("expression")),
        }
    }

    fn object_prop(&mut self) -> Result<Property, ParseError> {
        // Spread.
        if self.eat(P::DotDotDot) {
            let e = self.assign_expr()?;
            return Ok(Property::Spread(e));
        }
        // Getter / setter: `get name() {}` where `get` is not itself the key.
        if (self.at_ident("get") || self.at_ident("set"))
            && !matches!(
                self.peek_kind(1),
                Tok::P(P::Colon) | Tok::P(P::Comma) | Tok::P(P::RBrace) | Tok::P(P::LParen)
            )
        {
            let kind = if self.at_ident("get") {
                MethodKind::Get
            } else {
                MethodKind::Set
            };
            self.bump();
            let key = self.prop_name()?;
            let flo = self.lo();
            let (params, rest) = self.param_list()?;
            let body = self.func_block_body()?;
            let func = Arc::new(Function {
                id: self.fresh(),
                span: self.span_from(flo),
                name: key.static_name(),
                params,
                rest,
                body,
                is_arrow: false,
                is_async: false,
                is_generator: false,
            });
            return Ok(Property::Method { key, kind, func });
        }
        // Async / generator method prefixes.
        let mut is_async = false;
        if self.at_ident("async")
            && !matches!(
                self.peek_kind(1),
                Tok::P(P::Colon) | Tok::P(P::Comma) | Tok::P(P::RBrace) | Tok::P(P::LParen)
            )
            && !self.tokens[self.idx + 1].newline_before
        {
            self.bump();
            is_async = true;
        }
        let is_generator = self.eat(P::Star);

        let key = self.prop_name()?;
        if self.at(P::LParen) {
            // Method.
            let flo = self.lo();
            let (params, rest) = self.param_list()?;
            let body = self.func_block_body()?;
            let func = Arc::new(Function {
                id: self.fresh(),
                span: self.span_from(flo),
                name: key.static_name(),
                params,
                rest,
                body,
                is_arrow: false,
                is_async,
                is_generator,
            });
            return Ok(Property::Method {
                key,
                kind: MethodKind::Method,
                func,
            });
        }
        if self.eat(P::Colon) {
            let value = self.assign_expr()?;
            return Ok(Property::KeyValue { key, value });
        }
        // Shorthand `{x}`.
        match &key {
            PropName::Ident(name) => {
                let lo = self.prev_hi();
                let name = name.clone();
                let value = self.mk_expr(lo, ExprKind::Ident(name));
                Ok(Property::KeyValue { key, value })
            }
            _ => Err(self.unexpected("`:` after property key")),
        }
    }
}

enum BinOrLogical {
    Binary(BinaryOp),
    Logical(LogicalOp),
}

/// Marker returned by [`Parser::enter`]; must be passed back to
/// [`Parser::leave`] so depths stay balanced.
struct DepthGuard;
