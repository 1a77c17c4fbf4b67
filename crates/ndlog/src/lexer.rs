//! Hand-written lexer for NDlog source text.

use crate::error::ParseError;
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier (variable, table, rule id, function name, bare string).
    Ident(String),
    /// Integer literal's magnitude, at most 2^63 so that `i64::MIN` can
    /// be written; unary minus is a separate token.
    Int(u64),
    /// Single-quoted string literal.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `@`
    At,
    /// `:-`
    Derives,
    /// `:=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*` (multiplication or the JID wildcard, context decides)
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
}

/// Write `s` as a literal the lexer reads back: quoted, `\`, `'` and newlines escaped.
pub(crate) fn write_quoted(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("'")?;
    s.chars().try_for_each(|c| match c { '\n' => f.write_str("\\n"), '\\' | '\'' => write!(f, "\\{c}"), c => write!(f, "{c}") })?;
    f.write_str("'")
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Str(s) => write_quoted(f, s),
            Tok::LParen => f.write_str("("),
            Tok::RParen => f.write_str(")"),
            Tok::Comma => f.write_str(","),
            Tok::Dot => f.write_str("."),
            Tok::At => f.write_str("@"),
            Tok::Derives => f.write_str(":-"),
            Tok::Assign => f.write_str(":="),
            Tok::EqEq => f.write_str("=="),
            Tok::NotEq => f.write_str("!="),
            Tok::Lt => f.write_str("<"),
            Tok::Le => f.write_str("<="),
            Tok::Gt => f.write_str(">"),
            Tok::Ge => f.write_str(">="),
            Tok::Plus => f.write_str("+"),
            Tok::Minus => f.write_str("-"),
            Tok::Star => f.write_str("*"),
            Tok::Slash => f.write_str("/"),
            Tok::Percent => f.write_str("%"),
        }
    }
}

/// A token with its source position (1-based line/column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Tokenize NDlog source. `//` comments run to end of line.
pub fn lex(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut out = Vec::new();
    let mut chars = src.chars().peekable();
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! push {
        ($tok:expr, $l:expr, $c:expr) => {
            out.push(Spanned { tok: $tok, line: $l, col: $c })
        };
    }

    while let Some(&c) = chars.peek() {
        let (tl, tc) = (line, col);
        match c {
            '\n' => {
                chars.next();
                line += 1;
                col = 1;
            }
            c if c.is_whitespace() => {
                chars.next();
                col += 1;
            }
            '/' => {
                chars.next();
                col += 1;
                if chars.peek() == Some(&'/') {
                    // line comment
                    for nc in chars.by_ref() {
                        if nc == '\n' {
                            line += 1;
                            col = 1;
                            break;
                        }
                    }
                } else {
                    push!(Tok::Slash, tl, tc);
                }
            }
            '(' => {
                chars.next();
                col += 1;
                push!(Tok::LParen, tl, tc);
            }
            ')' => {
                chars.next();
                col += 1;
                push!(Tok::RParen, tl, tc);
            }
            ',' => {
                chars.next();
                col += 1;
                push!(Tok::Comma, tl, tc);
            }
            '.' => {
                chars.next();
                col += 1;
                push!(Tok::Dot, tl, tc);
            }
            '@' => {
                chars.next();
                col += 1;
                push!(Tok::At, tl, tc);
            }
            '+' => {
                chars.next();
                col += 1;
                push!(Tok::Plus, tl, tc);
            }
            '-' => {
                chars.next();
                col += 1;
                push!(Tok::Minus, tl, tc);
            }
            '*' => {
                chars.next();
                col += 1;
                push!(Tok::Star, tl, tc);
            }
            '%' => {
                chars.next();
                col += 1;
                push!(Tok::Percent, tl, tc);
            }
            ':' => {
                chars.next();
                col += 1;
                match chars.peek() {
                    Some('-') => {
                        chars.next();
                        col += 1;
                        push!(Tok::Derives, tl, tc);
                    }
                    Some('=') => {
                        chars.next();
                        col += 1;
                        push!(Tok::Assign, tl, tc);
                    }
                    _ => {
                        return Err(ParseError::at(tl, tc, "expected `:-` or `:=` after `:`"));
                    }
                }
            }
            '=' => {
                chars.next();
                col += 1;
                if chars.peek() == Some(&'=') {
                    chars.next();
                    col += 1;
                    push!(Tok::EqEq, tl, tc);
                } else {
                    return Err(ParseError::at(tl, tc, "expected `==` (single `=` is not NDlog)"));
                }
            }
            '!' => {
                chars.next();
                col += 1;
                if chars.peek() == Some(&'=') {
                    chars.next();
                    col += 1;
                    push!(Tok::NotEq, tl, tc);
                } else {
                    return Err(ParseError::at(tl, tc, "expected `!=`"));
                }
            }
            '<' => {
                chars.next();
                col += 1;
                if chars.peek() == Some(&'=') {
                    chars.next();
                    col += 1;
                    push!(Tok::Le, tl, tc);
                } else {
                    push!(Tok::Lt, tl, tc);
                }
            }
            '>' => {
                chars.next();
                col += 1;
                if chars.peek() == Some(&'=') {
                    chars.next();
                    col += 1;
                    push!(Tok::Ge, tl, tc);
                } else {
                    push!(Tok::Gt, tl, tc);
                }
            }
            '\'' => {
                chars.next();
                col += 1;
                let mut s = String::new();
                let mut closed = false;
                while let Some(nc) = chars.next() {
                    col += 1;
                    if nc == '\'' {
                        closed = true;
                        break;
                    }
                    if nc == '\n' {
                        return Err(ParseError::at(tl, tc, "unterminated string literal"));
                    }
                    if nc == '\\' {
                        col += 1;
                        let escaped = chars.next().filter(|e| matches!(e, '\'' | '\\' | 'n'));
                        let e = escaped.ok_or_else(|| ParseError::at(line, col - 2, "unknown escape in string literal"))?;
                        s.push(if e == 'n' { '\n' } else { e });
                        continue;
                    }
                    s.push(nc);
                }
                if !closed {
                    return Err(ParseError::at(tl, tc, "unterminated string literal"));
                }
                push!(Tok::Str(s), tl, tc);
            }
            c if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some(&d) = chars.peek() {
                    if let Some(dd) = d.to_digit(10) {
                        n = n
                            .checked_mul(10)
                            .and_then(|n| n.checked_add(u64::from(dd)))
                            .filter(|&n| n <= i64::MIN.unsigned_abs())
                            .ok_or_else(|| ParseError::at(tl, tc, "integer literal overflows i64"))?;
                        chars.next();
                        col += 1;
                    } else {
                        break;
                    }
                }
                push!(Tok::Int(n), tl, tc);
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' {
                        s.push(d);
                        chars.next();
                        col += 1;
                    } else {
                        break;
                    }
                }
                push!(Tok::Ident(s), tl, tc);
            }
            other => {
                return Err(ParseError::at(tl, tc, format!("unexpected character `{other}`")));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lexes_a_rule() {
        let t = toks("r7 FlowTable(@Swi,Hdr) :- Swi == 2.");
        assert_eq!(
            t,
            vec![
                Tok::Ident("r7".into()),
                Tok::Ident("FlowTable".into()),
                Tok::LParen,
                Tok::At,
                Tok::Ident("Swi".into()),
                Tok::Comma,
                Tok::Ident("Hdr".into()),
                Tok::RParen,
                Tok::Derives,
                Tok::Ident("Swi".into()),
                Tok::EqEq,
                Tok::Int(2),
                Tok::Dot,
            ]
        );
    }

    #[test]
    fn lexes_operators_and_assign() {
        assert_eq!(
            toks(":= :- == != < <= > >= + - * / %"),
            vec![
                Tok::Assign,
                Tok::Derives,
                Tok::EqEq,
                Tok::NotEq,
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::Plus,
                Tok::Minus,
                Tok::Star,
                Tok::Slash,
                Tok::Percent,
            ]
        );
    }

    #[test]
    fn lexes_strings_and_comments() {
        assert_eq!(
            toks("'Swi == 2' // trailing comment\n42"),
            vec![Tok::Str("Swi == 2".into()), Tok::Int(42)]
        );
    }

    #[test]
    fn tracks_positions() {
        let spanned = lex("A\n  B").unwrap();
        assert_eq!((spanned[0].line, spanned[0].col), (1, 1));
        assert_eq!((spanned[1].line, spanned[1].col), (2, 3));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(lex("a = b").is_err());
        assert!(lex("a ! b").is_err());
        assert!(lex("'unterminated").is_err());
        assert!(lex("#").is_err());
        assert!(lex("999999999999999999999999").is_err());
    }
}
