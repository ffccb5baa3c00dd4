//! Recursive-descent parser for the SQL subset.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query    := SELECT items FROM ident [WHERE expr] [GROUP BY idents] [';']
//! items    := '*' | item (',' item)*
//! item     := ident | func '(' ident ')'
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

use crate::ast::{Expr, Literal, Query, SelectItem};
use crate::error::SqlError;
use crate::lexer::{lex, Token, TokenKind};
use seedb_engine::CmpOp;

/// Parses a single `SELECT` statement.
pub fn parse_query(src: &str) -> Result<Query, SqlError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

/// Parses a standalone boolean expression (a bare `WHERE` body) — used by
/// the interactive front-ends to parse user filters.
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

    fn expect_ident(&mut self) -> Result<String, SqlError> {
        match &self.peek().kind {
            TokenKind::Ident(name) => {
                let name = name.clone();
                self.pos += 1;
                Ok(name)
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

    fn query(&mut self) -> Result<Query, SqlError> {
        self.expect_keyword("SELECT")?;
        let select = self.select_items()?;
        self.expect_keyword("FROM")?;
        let from = self.expect_ident()?;
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.expect_ident()?);
            while self.eat_symbol(",") {
                group_by.push(self.expect_ident()?);
            }
        }
        Ok(Query {
            select,
            from,
            where_clause,
            group_by,
        })
    }

    fn select_items(&mut self) -> Result<Vec<SelectItem>, SqlError> {
        if self.eat_symbol("*") {
            return Ok(vec![SelectItem::Star]);
        }
        let mut items = vec![self.select_item()?];
        while self.eat_symbol(",") {
            items.push(self.select_item()?);
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        let name = self.expect_ident()?;
        if self.eat_symbol("(") {
            let func = name.parse().map_err(|e: String| self.err_here(e))?;
            let arg = self.expect_ident()?;
            self.expect_symbol(")")?;
            Ok(SelectItem::Aggregate { func, arg })
        } else {
            Ok(SelectItem::Column(name))
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
        let col = self.expect_ident()?;
        // IN list
        if self.eat_keyword("IN") {
            self.expect_symbol("(")?;
            let mut list = vec![self.literal()?];
            while self.eat_symbol(",") {
                list.push(self.literal()?);
            }
            self.expect_symbol(")")?;
            return Ok(Expr::In { col, list });
        }
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull { col, negated });
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
        Ok(Expr::Cmp { col, op, lit })
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
    use seedb_engine::AggFunc;

    #[test]
    fn parses_star_query() {
        let q = parse_query("SELECT * FROM census").unwrap();
        assert_eq!(q.select, vec![SelectItem::Star]);
        assert_eq!(q.from, "census");
        assert!(q.where_clause.is_none());
        assert!(q.group_by.is_empty());
    }

    #[test]
    fn parses_aggregate_view_query() {
        let q = parse_query(
            "SELECT sex, AVG(capital_gain), COUNT(age) FROM census \
             WHERE marital = 'unmarried' GROUP BY sex",
        )
        .unwrap();
        assert_eq!(q.select.len(), 3);
        assert_eq!(
            q.select[1],
            SelectItem::Aggregate {
                func: AggFunc::Avg,
                arg: "capital_gain".into()
            }
        );
        assert_eq!(q.group_by, vec!["sex".to_owned()]);
        assert!(matches!(q.where_clause, Some(Expr::Cmp { .. })));
    }

    #[test]
    fn parses_multi_group_by() {
        let q = parse_query("SELECT a, b, SUM(m) FROM t GROUP BY a, b").unwrap();
        assert_eq!(q.group_by, vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn parses_boolean_structure_with_precedence() {
        let q = parse_query("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        // AND binds tighter than OR.
        match q.where_clause.unwrap() {
            Expr::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], Expr::And(_)));
            }
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn parses_parenthesized_override() {
        let q = parse_query("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3").unwrap();
        assert!(matches!(q.where_clause.unwrap(), Expr::And(_)));
    }

    #[test]
    fn parses_in_is_null_not() {
        let q =
            parse_query("SELECT * FROM t WHERE x IN ('a', 'b') AND y IS NOT NULL AND NOT z = 3")
                .unwrap();
        match q.where_clause.unwrap() {
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
        assert!(parse_query("SELECT * FROM t;").is_ok());
    }

    #[test]
    fn error_positions_are_precise() {
        let err = parse_query("SELECT a FRM t").unwrap_err();
        assert_eq!(err.pos, 9);
        assert!(err.message.contains("FROM"));

        let err = parse_query("SELECT a FROM t WHERE").unwrap_err();
        assert!(err.message.contains("identifier") || err.message.contains("expected"));
    }

    #[test]
    fn unknown_aggregate_function_rejected() {
        let err = parse_query("SELECT MEDIAN(x) FROM t").unwrap_err();
        assert!(err.message.contains("MEDIAN"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse_query("SELECT * FROM t GROUP BY a b").unwrap_err();
        assert!(err.message.contains("trailing"));
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
            "SELECT * FROM t",
            "SELECT a, AVG(m) FROM t GROUP BY a",
            "SELECT sex, AVG(capital_gain) FROM census WHERE marital = 'unmarried' GROUP BY sex",
            "SELECT * FROM t WHERE (a = 1 OR b = 2) AND NOT c IN (1, 2, 3)",
            "SELECT * FROM t WHERE x IS NOT NULL AND y <= 2.5",
            "SELECT COUNT(m), SUM(m), MIN(m), MAX(m) FROM t GROUP BY a, b, c",
        ];
        for src in sources {
            let q1 = parse_query(src).unwrap();
            let printed = q1.to_string();
            let q2 = parse_query(&printed)
                .unwrap_or_else(|e| panic!("re-parse failed for '{printed}': {e}"));
            assert_eq!(q1, q2, "round trip changed AST for '{src}'");
        }
    }
}
