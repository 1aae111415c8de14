//! Recursive-descent parser for the Datalog dialect.
//!
//! Grammar (informally):
//!
//! ```text
//! program   := (directive | clause)*
//! directive := '.input' IDENT | '.output' IDENT
//! clause    := atom '.'                      (fact, if all terms constant)
//!            | atom ':-' literal (',' literal)* '.'
//! literal   := '!' atom | atom | aexpr cmp aexpr
//! atom      := IDENT '(' term (',' term)* ')'
//! term      := AGG '(' aexpr ')'             (heads only)
//!            | aexpr
//! aexpr     := product (('+'|'-') product)*
//! product   := primary ('*' primary)*
//! primary   := INT | IDENT | '_' | '-' primary | '(' aexpr ')'
//! cmp       := '=' | '!=' | '<' | '<=' | '>' | '>='
//! ```
//!
//! Variables are identifiers in term position; `_` is an anonymous variable
//! (each occurrence unique). An aggregate name (`MIN`, …) followed by `(` in
//! a head term position parses as aggregation.

use recstep_common::lang::{AggFunc, CmpOp};
use recstep_common::{Error, Result};

use crate::ast::{AExpr, Atom, BodyTerm, HeadTerm, Literal, Program, Rule};
use crate::lexer::{lex, Spanned, Tok};

/// Parse a program source.
pub fn parse(src: &str) -> Result<Program> {
    Parser::new(lex(src)?).program()
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    anon: usize,
}

impl Parser {
    fn new(toks: Vec<Spanned>) -> Self {
        Parser {
            toks,
            pos: 0,
            anon: 0,
        }
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        let s = &self.toks[self.pos];
        Error::Parse {
            line: s.line,
            col: s.col,
            msg: msg.into(),
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<()> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn fresh_anon(&mut self) -> String {
        self.anon += 1;
        format!("_anon{}", self.anon)
    }

    fn program(&mut self) -> Result<Program> {
        let mut prog = Program::default();
        loop {
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Directive(kind) => {
                    self.bump();
                    let name = self.ident("relation name after directive")?;
                    if kind == "input" {
                        prog.inputs.push(name);
                    } else {
                        prog.outputs.push(name);
                    }
                }
                _ => self.clause(&mut prog)?,
            }
        }
        Ok(prog)
    }

    fn clause(&mut self, prog: &mut Program) -> Result<()> {
        let head = self.head_atom()?;
        match self.peek() {
            Tok::Dot => {
                self.bump();
                // A bodyless clause must be a ground fact.
                let mut vals = Vec::with_capacity(head.terms.len());
                for t in &head.terms {
                    match t {
                        HeadTerm::Plain(AExpr::Const(c)) => vals.push(*c),
                        _ => {
                            return Err(self.err(format!(
                                "fact {}(...) must be ground (constants only)",
                                head.pred
                            )))
                        }
                    }
                }
                prog.facts.push((head.pred, vals));
                Ok(())
            }
            Tok::Turnstile => {
                self.bump();
                let mut body = vec![self.literal()?];
                while *self.peek() == Tok::Comma {
                    self.bump();
                    body.push(self.literal()?);
                }
                self.expect(Tok::Dot, "'.' at end of rule")?;
                prog.rules.push(Rule { head, body });
                Ok(())
            }
            _ => Err(self.err("expected '.' or ':-' after head atom")),
        }
    }

    fn head_atom(&mut self) -> Result<Atom<HeadTerm>> {
        let pred = self.ident("relation name")?;
        self.expect(Tok::LParen, "'('")?;
        let mut terms = Vec::new();
        loop {
            terms.push(self.head_term()?);
            match self.bump() {
                Tok::Comma => continue,
                Tok::RParen => break,
                _ => return Err(self.err("expected ',' or ')' in head atom")),
            }
        }
        Ok(Atom { pred, terms })
    }

    fn head_term(&mut self) -> Result<HeadTerm> {
        // Aggregate: IDENT in the agg set followed by '('.
        if let Tok::Ident(name) = self.peek() {
            if let Some(func) = AggFunc::parse(name) {
                if *self.peek2() == Tok::LParen {
                    self.bump(); // name
                    self.bump(); // (
                    let expr = self.aexpr()?;
                    self.expect(Tok::RParen, "')' closing aggregate")?;
                    return Ok(HeadTerm::Agg { func, expr });
                }
            }
        }
        Ok(HeadTerm::Plain(self.aexpr()?))
    }

    fn literal(&mut self) -> Result<Literal> {
        if *self.peek() == Tok::Bang {
            self.bump();
            return Ok(Literal::Neg(self.body_atom()?));
        }
        // Atom iff IDENT '(' — otherwise a comparison.
        if matches!(self.peek(), Tok::Ident(_)) && *self.peek2() == Tok::LParen {
            return Ok(Literal::Pos(self.body_atom()?));
        }
        let lhs = self.aexpr()?;
        let op = match self.bump() {
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            _ => {
                self.pos -= 1;
                return Err(self.err("expected comparison operator"));
            }
        };
        let rhs = self.aexpr()?;
        Ok(Literal::Cmp { lhs, op, rhs })
    }

    fn body_atom(&mut self) -> Result<Atom<BodyTerm>> {
        let pred = self.ident("relation name")?;
        self.expect(Tok::LParen, "'('")?;
        let mut terms = Vec::new();
        loop {
            let term = match self.peek().clone() {
                Tok::Ident(v) => {
                    self.bump();
                    BodyTerm::Var(v)
                }
                Tok::Underscore => {
                    self.bump();
                    BodyTerm::Var(self.fresh_anon())
                }
                Tok::Int(v) => {
                    self.bump();
                    BodyTerm::Const(v)
                }
                Tok::Minus => {
                    self.bump();
                    match self.bump() {
                        Tok::Int(v) => BodyTerm::Const(-v),
                        _ => return Err(self.err("expected integer after '-'")),
                    }
                }
                other => return Err(self.err(format!("expected term in atom, found {other:?}"))),
            };
            terms.push(term);
            match self.bump() {
                Tok::Comma => continue,
                Tok::RParen => break,
                _ => return Err(self.err("expected ',' or ')' in atom")),
            }
        }
        Ok(Atom { pred, terms })
    }

    fn aexpr(&mut self) -> Result<AExpr> {
        let mut lhs = self.product()?;
        loop {
            match self.peek() {
                Tok::Plus => {
                    self.bump();
                    lhs = AExpr::Add(Box::new(lhs), Box::new(self.product()?));
                }
                Tok::Minus => {
                    self.bump();
                    lhs = AExpr::Sub(Box::new(lhs), Box::new(self.product()?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn product(&mut self) -> Result<AExpr> {
        let mut lhs = self.primary()?;
        while *self.peek() == Tok::Star {
            self.bump();
            lhs = AExpr::Mul(Box::new(lhs), Box::new(self.primary()?));
        }
        Ok(lhs)
    }

    fn primary(&mut self) -> Result<AExpr> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(AExpr::Const(v))
            }
            Tok::Ident(v) => {
                self.bump();
                Ok(AExpr::Var(v))
            }
            Tok::Underscore => {
                self.bump();
                Ok(AExpr::Var(self.fresh_anon()))
            }
            Tok::Minus => {
                self.bump();
                let inner = self.primary()?;
                Ok(match inner {
                    AExpr::Const(c) => AExpr::Const(-c),
                    e => AExpr::Sub(Box::new(AExpr::Const(0)), Box::new(e)),
                })
            }
            Tok::LParen => {
                self.bump();
                let e = self.aexpr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(e)
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_tc() {
        let p = parse("tc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[1].display(), "tc(x, y) :- tc(x, z), arc(z, y).");
    }

    #[test]
    fn parse_facts_and_directives() {
        let p = parse(".input arc\n.output tc\narc(1, 2). arc(2, -3).").unwrap();
        assert_eq!(p.inputs, vec!["arc"]);
        assert_eq!(p.outputs, vec!["tc"]);
        assert_eq!(
            p.facts,
            vec![
                ("arc".to_string(), vec![1, 2]),
                ("arc".to_string(), vec![2, -3])
            ]
        );
    }

    #[test]
    fn parse_negation() {
        let p = parse("ntc(x, y) :- node(x), node(y), !tc(x, y).").unwrap();
        let r = &p.rules[0];
        assert_eq!(r.positive_atoms().count(), 2);
        assert_eq!(r.negated_atoms().count(), 1);
    }

    #[test]
    fn parse_aggregation_and_arith() {
        let p = parse("sssp2(y, MIN(d1 + d2)) :- sssp2(x, d1), arc(x, y, d2).").unwrap();
        let r = &p.rules[0];
        assert!(r.has_aggregation());
        match &r.head.terms[1] {
            HeadTerm::Agg { func, expr } => {
                assert_eq!(*func, AggFunc::Min);
                assert_eq!(expr.display(), "d1 + d2");
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn parse_comparison_literals() {
        let p = parse("sg(x, y) :- arc(p, x), arc(p, y), x != y.").unwrap();
        match &p.rules[0].body[2] {
            Literal::Cmp { op, .. } => assert_eq!(*op, CmpOp::Ne),
            other => panic!("expected comparison, got {other:?}"),
        }
    }

    #[test]
    fn anonymous_vars_are_unique() {
        let p = parse("cc3(x, MIN(x)) :- arc(x, _).\nr(x) :- s(_, _), t(x).").unwrap();
        let atoms: Vec<_> = p.rules[1].positive_atoms().collect();
        match (&atoms[0].terms[0], &atoms[0].terms[1]) {
            (BodyTerm::Var(a), BodyTerm::Var(b)) => assert_ne!(a, b),
            other => panic!("expected vars, got {other:?}"),
        }
    }

    #[test]
    fn min_as_plain_relation_name_still_parses() {
        // An aggregate name NOT followed by '(' is an ordinary variable.
        let p = parse("r(min) :- s(min).").unwrap();
        assert_eq!(p.rules[0].display(), "r(min) :- s(min).");
    }

    #[test]
    fn negative_constants_in_atoms_and_exprs() {
        let p = parse("r(x) :- s(x, -5), x > -2.").unwrap();
        let atom = p.rules[0].positive_atoms().next().unwrap();
        assert_eq!(atom.terms[1], BodyTerm::Const(-5));
        match &p.rules[0].body[1] {
            Literal::Cmp { rhs, .. } => assert_eq!(*rhs, AExpr::Const(-2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("tc(x, y :- arc(x, y).").is_err());
        assert!(parse("tc(x, y).").is_err()); // non-ground fact
        assert!(parse("tc(x, y) :- .").is_err());
        assert!(parse("tc(x, y) :- arc(x, y)").is_err()); // missing dot
    }

    #[test]
    fn operator_precedence() {
        let p = parse("r(x + y * 2) :- s(x, y).").unwrap();
        match &p.rules[0].head.terms[0] {
            HeadTerm::Plain(AExpr::Add(_, rhs)) => {
                assert!(matches!(**rhs, AExpr::Mul(_, _)));
            }
            other => panic!("{other:?}"),
        }
    }
}
