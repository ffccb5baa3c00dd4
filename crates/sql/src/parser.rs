//! Recursive-descent parser for a `WHERE` body.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! input    := expr [';']
//! expr     := or
//! or       := and (OR and)*
//! and      := not (AND not)*
//! not      := NOT not | primary
//! primary  := '(' expr ')' | TRUE | FALSE
//!           | ident cmp literal
//!           | ident IN '(' literal (',' literal)* ')'
//!           | ident IS [NOT] NULL
//! cmp      := '=' | '<>' | '!=' | '<' | '<=' | '>' | '>='
//! literal  := int | float | string | TRUE | FALSE | NULL
//! ```

use crate::ast::{Expr, Literal};
use crate::error::SqlError;
use crate::lexer::{lex, Token, TokenKind};
use seedb_engine::CmpOp;

/// Parses a boolean expression: the body of a `WHERE` clause, as
/// `/recommend`'s `where` and `reference` fields carry it.
pub fn parse_expr(src: &str) -> Result<Expr, SqlError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Maximum boolean-expression nesting (parentheses and `NOT` chains).
/// The parser and the planner both recurse over the AST, so unbounded
/// nesting from untrusted input (a network request body) would overflow
/// the stack — an abort, not a catchable error. 128 levels is far beyond
/// any real filter.
const MAX_EXPR_DEPTH: usize = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl Parser {
    #[expect(
        clippy::indexing_slicing,
        reason = "lex() always appends Eof, so tokens.len() >= 1 and the min-clamp stays in bounds"
    )]
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "lex() always appends Eof, so tokens.len() >= 1 and the min-clamp stays in bounds"
    )]
    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        self.pos += 1;
        t
    }

    fn err_here(&self, msg: impl Into<String>) -> SqlError {
        SqlError::new(self.peek().pos, msg)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(&self.peek().kind, TokenKind::Keyword(k) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected {kw}")))
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if matches!(&self.peek().kind, TokenKind::Symbol(s) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), SqlError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected '{sym}'")))
        }
    }

    /// Consumes an identifier, returning it with its byte offset.
    fn expect_ident(&mut self) -> Result<(String, usize), SqlError> {
        let t = self.peek();
        match &t.kind {
            TokenKind::Ident(name) => {
                let ident = (name.clone(), t.pos);
                self.pos += 1;
                Ok(ident)
            }
            _ => Err(self.err_here("expected identifier")),
        }
    }

    fn expect_eof(&mut self) -> Result<(), SqlError> {
        // Allow a trailing semicolon.
        self.eat_symbol(";");
        if matches!(self.peek().kind, TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err_here("unexpected trailing input"))
        }
    }

    fn expr(&mut self) -> Result<Expr, SqlError> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            self.depth -= 1;
            return Err(self.err_here(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        let e = self.or_expr();
        self.depth -= 1;
        e
    }

    fn or_expr(&mut self) -> Result<Expr, SqlError> {
        let mut parts = vec![self.and_expr()?];
        while self.eat_keyword("OR") {
            parts.push(self.and_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.swap_remove(0)
        } else {
            Expr::Or(parts)
        })
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut parts = vec![self.not_expr()?];
        while self.eat_keyword("AND") {
            parts.push(self.not_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.swap_remove(0)
        } else {
            Expr::And(parts)
        })
    }

    /// `NOT` chains parse iteratively (no parser recursion), but the
    /// resulting AST nesting still counts against [`MAX_EXPR_DEPTH`] —
    /// everything downstream (planner, printer) recurses over it.
    fn not_expr(&mut self) -> Result<Expr, SqlError> {
        let mut negations = 0usize;
        while self.eat_keyword("NOT") {
            negations += 1;
            if self.depth + negations > MAX_EXPR_DEPTH {
                return Err(self.err_here(format!(
                    "expression nested deeper than {MAX_EXPR_DEPTH} levels"
                )));
            }
        }
        let mut e = self.primary()?;
        for _ in 0..negations {
            e = Expr::Not(Box::new(e));
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, SqlError> {
        if self.eat_symbol("(") {
            let e = self.expr()?;
            self.expect_symbol(")")?;
            return Ok(e);
        }
        if self.eat_keyword("TRUE") {
            return Ok(Expr::BoolLit(true));
        }
        if self.eat_keyword("FALSE") {
            return Ok(Expr::BoolLit(false));
        }
        let (col, pos) = self.expect_ident()?;
        // IN list
        if self.eat_keyword("IN") {
            self.expect_symbol("(")?;
            let mut list = vec![self.literal()?];
            while self.eat_symbol(",") {
                list.push(self.literal()?);
            }
            self.expect_symbol(")")?;
            return Ok(Expr::In { col, pos, list });
        }
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull { col, pos, negated });
        }
        // comparison
        let op = match &self.peek().kind {
            TokenKind::Symbol("=") => CmpOp::Eq,
            TokenKind::Symbol("<>") | TokenKind::Symbol("!=") => CmpOp::Ne,
            TokenKind::Symbol("<") => CmpOp::Lt,
            TokenKind::Symbol("<=") => CmpOp::Le,
            TokenKind::Symbol(">") => CmpOp::Gt,
            TokenKind::Symbol(">=") => CmpOp::Ge,
            _ => return Err(self.err_here("expected comparison operator, IN, or IS")),
        };
        self.advance();
        let lit = self.literal()?;
        Ok(Expr::Cmp { col, pos, op, lit })
    }

    fn literal(&mut self) -> Result<Literal, SqlError> {
        let t = self.advance();
        match t.kind {
            TokenKind::Int(v) => Ok(Literal::Int(v)),
            TokenKind::Float(v) => Ok(Literal::Float(v)),
            TokenKind::Str(s) => Ok(Literal::Str(s)),
            TokenKind::Keyword(k) if k == "TRUE" => Ok(Literal::Bool(true)),
            TokenKind::Keyword(k) if k == "FALSE" => Ok(Literal::Bool(false)),
            TokenKind::Keyword(k) if k == "NULL" => Ok(Literal::Null),
            _ => Err(SqlError::new(t.pos, "expected literal")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_boolean_structure_with_precedence() {
        // AND binds tighter than OR.
        match parse_expr("a = 1 OR b = 2 AND c = 3").unwrap() {
            Expr::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], Expr::And(_)));
            }
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn parses_parenthesized_override() {
        let e = parse_expr("(a = 1 OR b = 2) AND c = 3").unwrap();
        assert!(matches!(e, Expr::And(_)));
    }

    #[test]
    fn parses_in_is_null_not() {
        match parse_expr("x IN ('a', 'b') AND y IS NOT NULL AND NOT z = 3").unwrap() {
            Expr::And(parts) => {
                assert!(matches!(&parts[0], Expr::In { list, .. } if list.len() == 2));
                assert!(matches!(&parts[1], Expr::IsNull { negated: true, .. }));
                assert!(matches!(&parts[2], Expr::Not(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trailing_semicolon_accepted() {
        assert!(parse_expr("a = 1;").is_ok());
        assert!(parse_expr("a = 1;;").is_err());
    }

    #[test]
    fn error_positions_are_precise() {
        let err = parse_expr("a = 1 AND b IS NUL").unwrap_err();
        assert_eq!(err.pos, 15);
        assert!(err.message.contains("NULL"));

        let err = parse_expr("a = 1 AND").unwrap_err();
        assert_eq!(err.pos, 9);
        assert!(err.message.contains("identifier"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse_expr("a = 1 b").unwrap_err();
        assert!(err.message.contains("trailing"));
        assert_eq!(err.pos, 6);
    }

    #[test]
    fn parse_expr_standalone() {
        let e = parse_expr("age >= 18 AND sex = 'F'").unwrap();
        assert!(matches!(e, Expr::And(_)));
        assert!(parse_expr("age >= ").is_err());
    }

    #[test]
    fn nesting_depth_is_bounded_not_a_stack_overflow() {
        // Parenthesized nesting: 100k opens must error cleanly.
        let deep = format!("{}x = 1{}", "(".repeat(100_000), ")".repeat(100_000));
        let err = parse_expr(&deep).unwrap_err();
        assert!(err.message.contains("nested"), "{}", err.message);
        // NOT chains build AST depth even without parser recursion.
        let nots = format!("{}TRUE", "NOT ".repeat(100_000));
        let err = parse_expr(&nots).unwrap_err();
        assert!(err.message.contains("nested"), "{}", err.message);
        // Reasonable nesting still parses.
        let ok = format!("{}x = 1{}", "(".repeat(50), ")".repeat(50));
        assert!(parse_expr(&ok).is_ok());
        assert!(parse_expr("NOT NOT NOT x = 1").is_ok());
    }

    #[test]
    fn pretty_print_round_trips() {
        let sources = [
            "TRUE",
            "marital = 'unmarried'",
            "a = 1 OR b = 2 AND c = 3",
            "(a = 1 OR b = 2) AND NOT c IN (1, 2, 3)",
            "x IS NOT NULL AND y <= 2.5",
            "NOT (s <> 'it''s' OR f = FALSE) AND g IS NULL",
            // Spacing moves every column offset; the AST must not change.
            "a>=-7   AND(b!=1e3 OR c IN('x','y'))",
            // Literals past f64's range read as ±∞.
            "gain > 1e999",
            "gain < -1e999",
        ];
        for src in sources {
            let e1 = parse_expr(src).unwrap();
            let printed = e1.to_string();
            let e2 = parse_expr(&printed)
                .unwrap_or_else(|e| panic!("re-parse failed for '{printed}': {e}"));
            assert_eq!(e1, e2, "round trip changed AST for '{src}'");
        }
    }
}
