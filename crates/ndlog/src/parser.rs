//! Recursive-descent parser for NDlog programs.
//!
//! Grammar (a superset of the µDlog grammar in Fig. 3):
//!
//! ```text
//! program    ← (materialize | rule)*
//! materialize← "materialize" "(" IDENT "," lifetime "," INT "," "keys" "(" ints? ")" ")" "."
//! lifetime   ← "infinity" | "event"
//! rule       ← [ID] atom ":-" elem ("," elem)* "."
//! elem       ← atom | VAR ":=" expr | expr cmp expr
//! atom       ← TABLE "(" "@" term ("," term)* ")"
//! term       ← VAR | const | agg
//! agg        ← ("a_count"|"a_min"|"a_max") "<" VAR ">"
//! const      ← ["-"] INT | STRING | "true" | "false" | "*" | lowercase-IDENT
//! expr       ← addsub ; usual precedence, "(" expr ")" allowed
//! cmp        ← "==" | "!=" | "<" | "<=" | ">" | ">="
//! ```
//!
//! Identifier conventions follow datalog practice: uppercase-initial
//! identifiers are variables (or table names when followed by `(`),
//! lowercase-initial identifiers are built-in functions when followed by
//! `(` and bare string constants otherwise.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::{lex, Spanned, Tok};
use crate::schema::{Persistence, Schema};
use crate::value::Value;

/// Parse a full program.
pub fn parse_program(name: &str, src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, auto_rule: 0 };
    let mut prog = Program::new(name);
    while !p.at_end() {
        if p.peek_ident() == Some("materialize") {
            let schema = p.materialize()?;
            prog.catalog.insert(schema);
        } else {
            let rule = p.rule()?;
            prog.rules.push(rule);
        }
    }
    Ok(prog)
}

/// Parse a single rule (convenience for tests and the repair generator).
pub fn parse_rule(src: &str) -> Result<Rule, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, auto_rule: 0 };
    let r = p.rule()?;
    if !p.at_end() {
        return Err(p.err("trailing input after rule"));
    }
    Ok(r)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    auto_rule: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|s| &s.tok)
    }

    fn peek_ident(&self) -> Option<&str> {
        match self.peek() {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        self.pos += 1;
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let (line, col) = self
            .toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|s| (s.line, s.col))
            .unwrap_or((0, 0));
        ParseError::at(line, col, msg)
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if *t == tok => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.err(format!("expected `{tok}`, found `{t}`"))),
            None => Err(self.err(format!("expected `{tok}`, found end of input"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(t) => Err(self.err_back(format!("expected identifier, found `{t}`"))),
            None => Err(self.err("expected identifier, found end of input")),
        }
    }

    fn err_back(&self, msg: impl Into<String>) -> ParseError {
        let (line, col) = self
            .toks
            .get(self.pos.saturating_sub(1))
            .map(|s| (s.line, s.col))
            .unwrap_or((0, 0));
        ParseError::at(line, col, msg)
    }

    fn expect_int(&mut self) -> Result<u64, ParseError> {
        match self.next() {
            Some(Tok::Int(i)) => Ok(i),
            Some(t) => Err(self.err_back(format!("expected integer, found `{t}`"))),
            None => Err(self.err("expected integer, found end of input")),
        }
    }

    /// The integer literal just consumed, of `magnitude`, negated if a
    /// unary minus preceded it. Magnitudes reach 2^63, so `i64::MIN` reads
    /// back as itself and only a positive 2^63 is refused.
    fn int_value(&self, magnitude: u64, negated: bool) -> Result<i64, ParseError> {
        let signed = if negated { -i128::from(magnitude) } else { i128::from(magnitude) };
        i64::try_from(signed).map_err(|_| self.err_back("integer literal overflows i64"))
    }

    // materialize(Table, infinity, 3, keys(0,1)).
    fn materialize(&mut self) -> Result<Schema, ParseError> {
        self.expect_ident()?; // "materialize"
        self.expect(Tok::LParen)?;
        let table = self.expect_ident()?;
        self.expect(Tok::Comma)?;
        let life = self.expect_ident()?;
        let persistence = match life.as_str() {
            "infinity" => Persistence::State,
            "event" => Persistence::Event,
            other => {
                return Err(self.err_back(format!(
                    "lifetime must be `infinity` or `event`, found `{other}`"
                )))
            }
        };
        self.expect(Tok::Comma)?;
        let arity = self.expect_int()? as usize;
        self.expect(Tok::Comma)?;
        let kw = self.expect_ident()?;
        if kw != "keys" {
            return Err(self.err_back(format!("expected `keys`, found `{kw}`")));
        }
        self.expect(Tok::LParen)?;
        let mut keys = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                keys.push(self.expect_int()? as usize);
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::RParen)?;
        self.expect(Tok::Dot)?;
        Ok(Schema { table, arity, keys, persistence })
    }

    fn rule(&mut self) -> Result<Rule, ParseError> {
        // Optional rule id: IDENT IDENT "(" means id + head; IDENT "(" means
        // the head directly (auto-id).
        let id = match (self.peek(), self.peek2()) {
            (Some(Tok::Ident(_)), Some(Tok::Ident(_))) => {
                let id = self.expect_ident()?;
                Some(id)
            }
            _ => None,
        };
        let id = id.unwrap_or_else(|| {
            self.auto_rule += 1;
            format!("auto{}", self.auto_rule)
        });
        let head = self.atom()?;
        self.expect(Tok::Derives)?;
        let mut body = Vec::new();
        let mut sels = Vec::new();
        let mut assigns = Vec::new();
        loop {
            self.elem(&mut body, &mut sels, &mut assigns)?;
            match self.peek() {
                Some(Tok::Comma) => {
                    self.pos += 1;
                }
                Some(Tok::Dot) => {
                    self.pos += 1;
                    break;
                }
                Some(t) => return Err(self.err(format!("expected `,` or `.`, found `{t}`"))),
                None => return Err(self.err("unterminated rule (missing `.`)")),
            }
        }
        Ok(Rule { id, head, body, sels, assigns })
    }

    fn elem(
        &mut self,
        body: &mut Vec<Atom>,
        sels: &mut Vec<Selection>,
        assigns: &mut Vec<Assign>,
    ) -> Result<(), ParseError> {
        // Atom: Uppercase-ident followed by "(".
        if let (Some(Tok::Ident(name)), Some(Tok::LParen)) = (self.peek(), self.peek2()) {
            if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                let a = self.atom()?;
                body.push(a);
                return Ok(());
            }
        }
        // Assignment: VAR ":=" expr.
        if let (Some(Tok::Ident(v)), Some(Tok::Assign)) = (self.peek(), self.peek2()) {
            let var = v.clone();
            self.pos += 2;
            let expr = self.expr()?;
            assigns.push(Assign { var, expr });
            return Ok(());
        }
        // Otherwise: selection `expr cmp expr`.
        let lhs = self.expr()?;
        let op = match self.next() {
            Some(Tok::EqEq) => CmpOp::Eq,
            Some(Tok::NotEq) => CmpOp::Ne,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            Some(t) => return Err(self.err_back(format!("expected comparison operator, found `{t}`"))),
            None => return Err(self.err("expected comparison operator, found end of input")),
        };
        let rhs = self.expr()?;
        sels.push(Selection { lhs, op, rhs });
        Ok(())
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let table = self.expect_ident()?;
        self.expect(Tok::LParen)?;
        self.expect(Tok::At)?;
        let loc = self.term()?;
        let mut args = Vec::new();
        while self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            args.push(self.term()?);
        }
        self.expect(Tok::RParen)?;
        Ok(Atom { table, loc, args })
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                // Aggregate: a_count<V>
                if matches!(s.as_str(), "a_count" | "a_min" | "a_max")
                    && self.peek2() == Some(&Tok::Lt)
                {
                    self.pos += 2;
                    let var = self.expect_ident()?;
                    self.expect(Tok::Gt)?;
                    let kind = match s.as_str() {
                        "a_count" => AggKind::Count,
                        "a_min" => AggKind::Min,
                        _ => AggKind::Max,
                    };
                    return Ok(Term::Agg(kind, var));
                }
                self.pos += 1;
                if s.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    Ok(Term::Var(s))
                } else if s == "true" {
                    Ok(Term::Const(Value::Bool(true)))
                } else if s == "false" {
                    Ok(Term::Const(Value::Bool(false)))
                } else {
                    Ok(Term::Const(Value::Str(s)))
                }
            }
            Some(Tok::Int(i)) => {
                let i = *i;
                self.pos += 1;
                Ok(Term::Const(Value::Int(self.int_value(i, false)?)))
            }
            Some(Tok::Minus) => {
                self.pos += 1;
                let i = self.expect_int()?;
                Ok(Term::Const(Value::Int(self.int_value(i, true)?)))
            }
            Some(Tok::Str(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(Term::Const(Value::Str(s)))
            }
            Some(Tok::Star) => {
                self.pos += 1;
                Ok(Term::Const(Value::Wild))
            }
            Some(t) => Err(self.err(format!("expected term, found `{t}`"))),
            None => Err(self.err("expected term, found end of input")),
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.addsub()
    }

    fn addsub(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.muldiv()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.muldiv()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn muldiv(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == Some(&Tok::Minus) {
            self.pos += 1;
            // Fold negation into integer literals; otherwise 0 - e.
            if let Some(Tok::Int(i)) = self.peek() {
                let i = *i;
                self.pos += 1;
                return Ok(Expr::Const(Value::Int(self.int_value(i, true)?)));
            }
            let e = self.unary()?;
            return Ok(Expr::Binary(BinOp::Sub, Box::new(Expr::int(0)), Box::new(e)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Tok::Int(i)) => {
                let i = *i;
                self.pos += 1;
                Ok(Expr::Const(Value::Int(self.int_value(i, false)?)))
            }
            Some(Tok::Str(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(Expr::Const(Value::Str(s)))
            }
            Some(Tok::Star) => {
                // Wildcard constant in primary position (e.g. `JID := *`).
                self.pos += 1;
                Ok(Expr::Const(Value::Wild))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                if self.peek() == Some(&Tok::LParen) {
                    // Built-in call.
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.peek() == Some(&Tok::Comma) {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    Ok(Expr::Call(s, args))
                } else if s.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    Ok(Expr::Var(s))
                } else if s == "true" {
                    Ok(Expr::Const(Value::Bool(true)))
                } else if s == "false" {
                    Ok(Expr::Const(Value::Bool(false)))
                } else {
                    Ok(Expr::Const(Value::Str(s)))
                }
            }
            Some(t) => Err(self.err(format!("expected expression, found `{t}`"))),
            None => Err(self.err("expected expression, found end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig2_rule() {
        let r = parse_rule(
            "r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.",
        )
        .unwrap();
        assert_eq!(r.id, "r7");
        assert_eq!(r.head.table, "FlowTable");
        assert_eq!(r.body.len(), 1);
        assert_eq!(r.sels.len(), 2);
        assert_eq!(r.assigns.len(), 1);
        assert_eq!(r.sels[0].sid(), "Swi == 2");
    }

    #[test]
    fn parses_full_fig2_program() {
        let src = r"
            materialize(FlowTable, infinity, 2, keys(0,1)).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
            r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 53, Prt := 2.
            r3 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr != 53, Prt := -1.
            r4 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr != 80, Prt := -1.
            r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
            r6 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 53, Prt := 2.
            r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
        ";
        let p = parse_program("fig2", src).unwrap();
        assert_eq!(p.rules.len(), 7);
        assert!(p.validate().is_ok());
        assert_eq!(p.catalog.get("FlowTable").unwrap().keys, vec![0, 1]);
        // r3 assigns a negative constant
        let r3 = p.rule("r3").unwrap();
        assert_eq!(r3.assigns[0].expr, Expr::int(-1));
        // base tables: PacketIn + WebLoadBalancer
        let bases: Vec<_> = p.base_tables().into_iter().collect();
        assert_eq!(bases, vec!["PacketIn".to_string(), "WebLoadBalancer".to_string()]);
    }

    #[test]
    fn parses_aggregates_and_builtins() {
        let r = parse_rule(
            "p2 PredFuncCount(@C,Rul,a_count<N>) :- PredFunc(@C,Rul,Tab,N), JID := f_unique().",
        )
        .unwrap();
        assert!(r.is_aggregate());
        assert_eq!(r.assigns[0].expr, Expr::Call("f_unique".into(), vec![]));
    }

    #[test]
    fn parses_wildcard_and_strings() {
        let r = parse_rule("e1 Expr(@C,Rul,JID,ID,Val) :- Const(@C,Rul,ID,Val), JID := *.").unwrap();
        assert_eq!(r.assigns[0].expr, Expr::Const(Value::Wild));
        let r = parse_rule("x T(@C,A) :- S(@C,A), A == 'Swi == 2'.").unwrap();
        assert_eq!(r.sels[0].rhs, Expr::Const(Value::str("Swi == 2")));
    }

    #[test]
    fn auto_rule_ids() {
        let p = parse_program("t", "A(@X,Y) :- B(@X,Y). A(@X,Y) :- C(@X,Y).").unwrap();
        assert_eq!(p.rules[0].id, "auto1");
        assert_eq!(p.rules[1].id, "auto2");
    }

    #[test]
    fn expression_precedence() {
        let r = parse_rule("x T(@C,A) :- S(@C,B), A := 1 + B * 2.").unwrap();
        assert_eq!(
            r.assigns[0].expr,
            Expr::Binary(
                BinOp::Add,
                Box::new(Expr::int(1)),
                Box::new(Expr::Binary(BinOp::Mul, Box::new(Expr::var("B")), Box::new(Expr::int(2))))
            )
        );
        let r = parse_rule("x T(@C,A) :- S(@C,B), A := (1 + B) * 2.").unwrap();
        assert_eq!(
            r.assigns[0].expr,
            Expr::Binary(
                BinOp::Mul,
                Box::new(Expr::Binary(BinOp::Add, Box::new(Expr::int(1)), Box::new(Expr::var("B")))),
                Box::new(Expr::int(2))
            )
        );
    }

    #[test]
    fn error_positions_are_reported() {
        let e = parse_program("t", "A(@X,Y) :- B(@X,Y)").unwrap_err();
        assert!(e.to_string().contains("unterminated rule"));
        let e = parse_program("t", "A(X) :- B(@X).").unwrap_err();
        assert!(e.to_string().contains('@'));
    }

    #[test]
    fn roundtrip_through_pretty_printer() {
        let src = "r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.";
        let r = parse_rule(src).unwrap();
        assert_eq!(parse_rule(&r.to_string()).unwrap(), r);
    }

    #[test]
    fn integer_literals_span_i64() {
        let r = parse_rule("r1 B(@X,-9223372036854775808) :- A(@X,Y), Y == -9223372036854775808, Z := 9223372036854775807.")
            .unwrap();
        assert_eq!(r.head.args[0], Term::Const(Value::Int(i64::MIN)));
        assert_eq!(r.sels[0].rhs, Expr::Const(Value::Int(i64::MIN)));
        assert_eq!(r.assigns[0].expr, Expr::Const(Value::Int(i64::MAX)));
        assert_eq!(parse_rule(&r.to_string()).unwrap(), r);
        for bad in ["Y == 9223372036854775808", "Y == -9223372036854775809", "Y == 99999999999999999999"] {
            let err = parse_rule(&format!("r1 B(@X,Y) :- A(@X,Y), {bad}.")).unwrap_err();
            assert!(err.to_string().contains("overflows i64"), "{bad}: {err}");
        }
    }
}
