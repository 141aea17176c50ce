//! Hand-written JavaScript lexer.
//!
//! Produces a full token vector in one pass. Handles string escapes,
//! template literals (via a brace/template stack so `}` resumes the right
//! template), regex-vs-division disambiguation via the previous significant
//! token, comments, and the newline flags required for automatic semicolon
//! insertion.

use crate::error::ParseError;
use crate::token::{Kw, Tok, Token, P};

/// Lexes an entire source file into tokens (ending with [`Tok::Eof`]).
///
/// # Errors
///
/// Returns a [`ParseError`] for unterminated strings/templates/comments and
/// malformed escapes. Every numeric literal lexes
/// ([`aji_ast::number::scan_literal`]).
pub fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    newline_before: bool,
    tokens: Vec<Token>,
    /// Stack of brace depths at which an interpolated template is waiting
    /// for its `}`.
    template_stack: Vec<u32>,
    brace_depth: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            newline_before: false,
            tokens: Vec::new(),
            template_stack: Vec::new(),
            brace_depth: 0,
        }
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        c
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == c {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.pos as u32)
    }

    fn push(&mut self, kind: Tok, lo: usize) {
        self.tokens.push(Token {
            kind,
            lo: lo as u32,
            hi: self.pos as u32,
            newline_before: self.newline_before,
        });
        self.newline_before = false;
    }

    fn run(mut self) -> Result<Vec<Token>, ParseError> {
        loop {
            self.skip_trivia()?;
            let lo = self.pos;
            if self.pos >= self.src.len() {
                self.push(Tok::Eof, lo);
                return Ok(self.tokens);
            }
            let c = self.peek();
            match c {
                b'0'..=b'9' => self.number(lo),
                b'.' if self.peek2().is_ascii_digit() => self.number(lo),
                b'"' | b'\'' => self.string(lo)?,
                b'`' => self.template(lo, true)?,
                b'/' => {
                    if self.regex_allowed() {
                        self.regex(lo)?;
                    } else {
                        self.bump();
                        if self.eat(b'=') {
                            self.push(Tok::P(P::SlashEq), lo);
                        } else {
                            self.push(Tok::P(P::Slash), lo);
                        }
                    }
                }
                c if is_ident_start(c) => self.ident(lo),
                _ => self.punct(lo)?,
            }
        }
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | 0x0b | 0x0c => {
                    self.pos += 1;
                }
                b'\n' => {
                    self.pos += 1;
                    self.newline_before = true;
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        if self.pos >= self.src.len() {
                            return Err(ParseError::new(
                                "unterminated block comment",
                                start as u32,
                            ));
                        }
                        if self.peek() == b'\n' {
                            self.newline_before = true;
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.pos += 2;
                            break;
                        }
                        self.pos += 1;
                    }
                }
                // UTF-8 non-breaking space and friends: skip any non-ASCII
                // whitespace conservatively (0xc2 0xa0).
                0xc2 if self.peek2() == 0xa0 => {
                    self.pos += 2;
                }
                _ => return Ok(()),
            }
        }
    }

    /// Whether a `/` at the current position starts a regex rather than a
    /// division, judged by the previous significant token.
    fn regex_allowed(&self) -> bool {
        match self.tokens.last().map(|t| &t.kind) {
            None => true,
            Some(Tok::Num(_))
            | Some(Tok::Str(_))
            | Some(Tok::Regex { .. })
            | Some(Tok::TemplateNoSub(_))
            | Some(Tok::TemplateTail(_)) => false,
            Some(Tok::Ident(_)) => false,
            Some(Tok::Kw(k)) => {
                !matches!(k, Kw::This | Kw::Null | Kw::True | Kw::False | Kw::Super)
            }
            Some(Tok::P(p)) => !matches!(p, P::RParen | P::RBracket | P::PlusPlus | P::MinusMinus),
            _ => true,
        }
    }

    fn ident(&mut self, lo: usize) {
        while is_ident_continue(self.peek()) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[lo..self.pos])
            .unwrap_or("")
            .to_string();
        match Kw::from_str(&text) {
            Some(k) => self.push(Tok::Kw(k), lo),
            None => self.push(Tok::Ident(text), lo),
        }
    }

    fn number(&mut self, lo: usize) {
        let (v, len) = aji_ast::number::scan_literal(&self.src[lo..]);
        self.pos = lo + len;
        self.push(Tok::Num(v), lo);
    }

    fn string(&mut self, lo: usize) -> Result<(), ParseError> {
        let quote = self.bump();
        let mut value = String::new();
        loop {
            if self.pos >= self.src.len() {
                return Err(ParseError::new("unterminated string literal", lo as u32));
            }
            let c = self.bump();
            if c == quote {
                break;
            }
            match c {
                b'\\' => self.escape(&mut value)?,
                b'\n' => return Err(ParseError::new("unterminated string literal", lo as u32)),
                c if c < 0x80 => value.push(c as char),
                c => {
                    // Re-decode a UTF-8 sequence.
                    let start = self.pos - 1;
                    let len = utf8_len(c);
                    self.pos = (start + len).min(self.src.len());
                    if let Ok(s) = std::str::from_utf8(&self.src[start..self.pos]) {
                        value.push_str(s);
                    }
                }
            }
        }
        self.push(Tok::Str(value), lo);
        Ok(())
    }

    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let c = self.bump();
        match c {
            b'n' => out.push('\n'),
            b't' => out.push('\t'),
            b'r' => out.push('\r'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'v' => out.push('\u{b}'),
            b'0' if !self.peek().is_ascii_digit() => out.push('\0'),
            b'x' => {
                let h = self.hex_digits(2)?;
                out.push(char::from_u32(h).unwrap_or('\u{fffd}'));
            }
            b'u' => {
                if self.eat(b'{') {
                    let start = self.pos;
                    while self.peek() != b'}' && self.pos < self.src.len() {
                        self.pos += 1;
                    }
                    let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                    let v = u32::from_str_radix(text, 16)
                        .map_err(|_| self.error("invalid unicode escape"))?;
                    if !self.eat(b'}') {
                        return Err(self.error("unterminated unicode escape"));
                    }
                    out.push(char::from_u32(v).unwrap_or('\u{fffd}'));
                } else {
                    let h = self.hex_digits(4)?;
                    out.push(char::from_u32(h).unwrap_or('\u{fffd}'));
                }
            }
            b'\n' => {} // line continuation
            b'\r' => {
                self.eat(b'\n');
            }
            c if c < 0x80 => out.push(c as char),
            c => {
                let start = self.pos - 1;
                let len = utf8_len(c);
                self.pos = (start + len).min(self.src.len());
                if let Ok(s) = std::str::from_utf8(&self.src[start..self.pos]) {
                    out.push_str(s);
                }
            }
        }
        Ok(())
    }

    fn hex_digits(&mut self, n: usize) -> Result<u32, ParseError> {
        let start = self.pos;
        for _ in 0..n {
            if !self.peek().is_ascii_hexdigit() {
                return Err(self.error("invalid hex escape"));
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        u32::from_str_radix(text, 16).map_err(|_| self.error("invalid hex escape"))
    }

    /// Lexes a template chunk starting at `` ` `` (if `head`) or at `}`
    /// (continuation). Produces the appropriate template token.
    fn template(&mut self, lo: usize, head: bool) -> Result<(), ParseError> {
        self.bump(); // ` or }
        let mut value = String::new();
        loop {
            if self.pos >= self.src.len() {
                return Err(ParseError::new("unterminated template literal", lo as u32));
            }
            let c = self.bump();
            match c {
                b'`' => {
                    let kind = if head {
                        Tok::TemplateNoSub(value)
                    } else {
                        Tok::TemplateTail(value)
                    };
                    self.push(kind, lo);
                    return Ok(());
                }
                b'$' if self.peek() == b'{' => {
                    self.bump();
                    let kind = if head {
                        Tok::TemplateHead(value)
                    } else {
                        Tok::TemplateMiddle(value)
                    };
                    self.push(kind, lo);
                    // Remember at which brace depth this template resumes.
                    self.template_stack.push(self.brace_depth);
                    return Ok(());
                }
                b'\\' => self.escape(&mut value)?,
                b'\n' => {
                    self.newline_before = true;
                    value.push('\n');
                }
                c if c < 0x80 => value.push(c as char),
                c => {
                    let start = self.pos - 1;
                    let len = utf8_len(c);
                    self.pos = (start + len).min(self.src.len());
                    if let Ok(s) = std::str::from_utf8(&self.src[start..self.pos]) {
                        value.push_str(s);
                    }
                }
            }
        }
    }

    fn regex(&mut self, lo: usize) -> Result<(), ParseError> {
        self.bump(); // /
        let start = self.pos;
        let mut in_class = false;
        loop {
            if self.pos >= self.src.len() {
                return Err(ParseError::new("unterminated regex literal", lo as u32));
            }
            let c = self.bump();
            match c {
                b'\\' => {
                    self.bump();
                }
                b'[' => in_class = true,
                b']' => in_class = false,
                b'/' if !in_class => break,
                b'\n' => return Err(ParseError::new("unterminated regex literal", lo as u32)),
                _ => {}
            }
        }
        let pattern = std::str::from_utf8(&self.src[start..self.pos - 1])
            .unwrap_or("")
            .to_string();
        let fstart = self.pos;
        while is_ident_continue(self.peek()) {
            self.pos += 1;
        }
        let flags = std::str::from_utf8(&self.src[fstart..self.pos])
            .unwrap_or("")
            .to_string();
        self.push(Tok::Regex { pattern, flags }, lo);
        Ok(())
    }

    fn punct(&mut self, lo: usize) -> Result<(), ParseError> {
        use P::*;
        let c = self.bump();
        let kind = match c {
            b'{' => {
                self.brace_depth += 1;
                LBrace
            }
            b'}' => {
                // Does this `}` resume a template?
                if self.template_stack.last() == Some(&self.brace_depth) {
                    self.template_stack.pop();
                    self.pos -= 1;
                    return self.template(lo, false);
                }
                self.brace_depth = self.brace_depth.saturating_sub(1);
                RBrace
            }
            b'(' => LParen,
            b')' => RParen,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'.' => {
                if self.peek() == b'.' && self.peek2() == b'.' {
                    self.pos += 2;
                    DotDotDot
                } else {
                    Dot
                }
            }
            b'?' => {
                if self.eat(b'.') {
                    QuestionDot
                } else if self.peek() == b'?' {
                    self.bump();
                    if self.eat(b'=') {
                        QuestionQuestionEq
                    } else {
                        QuestionQuestion
                    }
                } else {
                    Question
                }
            }
            b':' => Colon,
            b'<' => {
                if self.peek() == b'<' {
                    self.bump();
                    if self.eat(b'=') {
                        ShlEq
                    } else {
                        Shl
                    }
                } else if self.eat(b'=') {
                    Le
                } else {
                    Lt
                }
            }
            b'>' => {
                if self.peek() == b'>' && self.peek2() == b'>' {
                    self.pos += 2;
                    if self.eat(b'=') {
                        UShrEq
                    } else {
                        UShr
                    }
                } else if self.peek() == b'>' {
                    self.bump();
                    if self.eat(b'=') {
                        ShrEq
                    } else {
                        Shr
                    }
                } else if self.eat(b'=') {
                    Ge
                } else {
                    Gt
                }
            }
            b'=' => {
                if self.peek() == b'=' && self.peek2() == b'=' {
                    self.pos += 2;
                    EqEqEq
                } else if self.peek() == b'=' {
                    self.bump();
                    EqEq
                } else if self.peek() == b'>' {
                    self.bump();
                    Arrow
                } else {
                    Eq
                }
            }
            b'!' => {
                if self.peek() == b'=' && self.peek2() == b'=' {
                    self.pos += 2;
                    NotEqEq
                } else if self.peek() == b'=' {
                    self.bump();
                    NotEq
                } else {
                    Bang
                }
            }
            b'+' => {
                if self.eat(b'+') {
                    PlusPlus
                } else if self.eat(b'=') {
                    PlusEq
                } else {
                    Plus
                }
            }
            b'-' => {
                if self.eat(b'-') {
                    MinusMinus
                } else if self.eat(b'=') {
                    MinusEq
                } else {
                    Minus
                }
            }
            b'*' => {
                if self.peek() == b'*' {
                    self.bump();
                    if self.eat(b'=') {
                        StarStarEq
                    } else {
                        StarStar
                    }
                } else if self.eat(b'=') {
                    StarEq
                } else {
                    Star
                }
            }
            b'%' => {
                if self.eat(b'=') {
                    PercentEq
                } else {
                    Percent
                }
            }
            b'&' => {
                if self.peek() == b'&' {
                    self.bump();
                    if self.eat(b'=') {
                        AmpAmpEq
                    } else {
                        AmpAmp
                    }
                } else if self.eat(b'=') {
                    AmpEq
                } else {
                    Amp
                }
            }
            b'|' => {
                if self.peek() == b'|' {
                    self.bump();
                    if self.eat(b'=') {
                        PipePipeEq
                    } else {
                        PipePipe
                    }
                } else if self.eat(b'=') {
                    PipeEq
                } else {
                    Pipe
                }
            }
            b'^' => {
                if self.eat(b'=') {
                    CaretEq
                } else {
                    Caret
                }
            }
            b'~' => Tilde,
            b'#' => {
                // Hashbang on the first line; also tolerate private names
                // by lexing `#name` as an identifier-ish token.
                if lo == 0 && self.peek() == b'!' {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.pos += 1;
                    }
                    return Ok(());
                }
                let start = self.pos;
                while is_ident_continue(self.peek()) {
                    self.pos += 1;
                }
                let text = format!(
                    "#{}",
                    std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("")
                );
                self.push(Tok::Ident(text), lo);
                return Ok(());
            }
            other => {
                return Err(ParseError::new(
                    format!("unexpected character `{}`", other as char),
                    lo as u32,
                ))
            }
        };
        self.push(Tok::P(kind), lo);
        Ok(())
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c == b'$' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'$' || c >= 0x80
}

fn utf8_len(first: u8) -> usize {
    if first >= 0xf0 {
        4
    } else if first >= 0xe0 {
        3
    } else {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_simple_statement() {
        let toks = kinds("var x = 1;");
        assert_eq!(
            toks,
            vec![
                Tok::Kw(Kw::Var),
                Tok::Ident("x".into()),
                Tok::P(P::Eq),
                Tok::Num(1.0),
                Tok::P(P::Semi),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(kinds("0x10")[0], Tok::Num(16.0));
        assert_eq!(kinds("0b101")[0], Tok::Num(5.0));
        assert_eq!(kinds("0o17")[0], Tok::Num(15.0));
        assert_eq!(kinds("1.5e3")[0], Tok::Num(1500.0));
        assert_eq!(kinds(".25")[0], Tok::Num(0.25));
        assert_eq!(kinds("1_000")[0], Tok::Num(1000.0));
        assert_eq!(kinds("010")[0], Tok::Num(8.0));
        assert_eq!(
            kinds("0x1fffffffffffffffff")[0],
            Tok::Num(590295810358705700000.0)
        );
    }

    #[test]
    fn lex_strings_with_escapes() {
        assert_eq!(kinds(r#""a\nb""#)[0], Tok::Str("a\nb".into()));
        assert_eq!(kinds(r#"'it\'s'"#)[0], Tok::Str("it's".into()));
        assert_eq!(kinds(r#""A""#)[0], Tok::Str("A".into()));
        assert_eq!(kinds(r#""\u{1F600}""#)[0], Tok::Str("😀".into()));
        assert_eq!(kinds(r#""\x41""#)[0], Tok::Str("A".into()));
    }

    #[test]
    fn lex_template_literals() {
        let toks = kinds("`ab${x}cd`");
        assert_eq!(toks[0], Tok::TemplateHead("ab".into()));
        assert_eq!(toks[1], Tok::Ident("x".into()));
        assert_eq!(toks[2], Tok::TemplateTail("cd".into()));
        let toks = kinds("`plain`");
        assert_eq!(toks[0], Tok::TemplateNoSub("plain".into()));
    }

    #[test]
    fn lex_nested_template_braces() {
        // Object literal inside the interpolation.
        let toks = kinds("`a${ {x: 1}.x }b`");
        assert!(matches!(toks[0], Tok::TemplateHead(_)));
        assert!(toks.iter().any(|t| matches!(t, Tok::TemplateTail(_))));
    }

    #[test]
    fn regex_vs_division() {
        let toks = kinds("a / b");
        assert_eq!(toks[1], Tok::P(P::Slash));
        let toks = kinds("x = /ab+c/g");
        assert_eq!(
            toks[2],
            Tok::Regex {
                pattern: "ab+c".into(),
                flags: "g".into()
            }
        );
        // After `)` it's a division.
        let toks = kinds("(a) / b");
        assert!(toks.contains(&Tok::P(P::Slash)));
        // After `return` it's a regex.
        let toks = kinds("return /x/;");
        assert!(matches!(toks[1], Tok::Regex { .. }));
    }

    #[test]
    fn regex_char_class_slash() {
        let toks = kinds("var r = /[/]/;");
        assert!(matches!(toks[3], Tok::Regex { ref pattern, .. } if pattern == "[/]"));
    }

    #[test]
    fn newline_flags_for_asi() {
        let toks = lex("a\nb").unwrap();
        assert!(!toks[0].newline_before);
        assert!(toks[1].newline_before);
    }

    #[test]
    fn comments_are_trivia_but_preserve_newlines() {
        let toks = lex("a // hi\nb /* multi\nline */ c").unwrap();
        assert!(toks[1].newline_before); // b
        assert!(toks[2].newline_before); // c, newline inside block comment
    }

    #[test]
    fn punctuators_multichar() {
        let toks = kinds("a >>>= b ?? c?.d ... ");
        assert!(toks.contains(&Tok::P(P::UShrEq)));
        assert!(toks.contains(&Tok::P(P::QuestionQuestion)));
        assert!(toks.contains(&Tok::P(P::QuestionDot)));
        assert!(toks.contains(&Tok::P(P::DotDotDot)));
    }

    #[test]
    fn hashbang_skipped() {
        let toks = kinds("#!/usr/bin/env node\nvar x;");
        assert_eq!(toks[0], Tok::Kw(Kw::Var));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("\"abc").is_err());
        assert!(lex("'abc\ndef'").is_err());
        assert!(lex("`abc").is_err());
        assert!(lex("/* abc").is_err());
    }

    #[test]
    fn unicode_identifiers_and_strings() {
        let toks = kinds("var café = \"naïve\";");
        assert_eq!(toks[1], Tok::Ident("café".into()));
        assert_eq!(toks[3], Tok::Str("naïve".into()));
    }

    #[test]
    fn keywords_recognized() {
        let toks = kinds("typeof instanceof in of");
        assert_eq!(toks[0], Tok::Kw(Kw::TypeOf));
        assert_eq!(toks[1], Tok::Kw(Kw::InstanceOf));
        assert_eq!(toks[2], Tok::Kw(Kw::In));
        // `of` is contextual.
        assert_eq!(toks[3], Tok::Ident("of".into()));
    }
}
