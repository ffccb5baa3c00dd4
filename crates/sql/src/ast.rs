//! Abstract syntax tree of a `WHERE` body, with a pretty-printer whose
//! output re-parses to the same AST (tested in the parser module).

use seedb_engine::CmpOp;
use std::fmt;

/// A literal value in a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// NULL literal.
    Null,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Literal::Null => write!(f, "NULL"),
        }
    }
}

/// A boolean expression (`WHERE` clause body).
///
/// A leaf keeps its column token's byte offset (`pos`) so that the planner
/// can point its errors at the column. Where a node was read is not what it
/// is: equality ignores `pos`.
#[derive(Debug, Clone)]
pub enum Expr {
    /// `col op literal`
    Cmp {
        /// Column name.
        col: String,
        /// Byte offset of the column token.
        pos: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand literal.
        lit: Literal,
    },
    /// `col IN (lit, lit, ...)`
    In {
        /// Column name.
        col: String,
        /// Byte offset of the column token.
        pos: usize,
        /// Member literals.
        list: Vec<Literal>,
    },
    /// `col IS NULL` / `col IS NOT NULL`
    IsNull {
        /// Column name.
        col: String,
        /// Byte offset of the column token.
        pos: usize,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// Conjunction (≥ 2 operands).
    And(Vec<Expr>),
    /// Disjunction (≥ 2 operands).
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// `TRUE` / `FALSE`
    BoolLit(bool),
}

impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                Expr::Cmp { col, op, lit, .. },
                Expr::Cmp {
                    col: c,
                    op: o,
                    lit: l,
                    ..
                },
            ) => col == c && op == o && lit == l,
            (
                Expr::In { col, list, .. },
                Expr::In {
                    col: c, list: l, ..
                },
            ) => col == c && list == l,
            (
                Expr::IsNull { col, negated, .. },
                Expr::IsNull {
                    col: c, negated: n, ..
                },
            ) => col == c && negated == n,
            (Expr::And(a), Expr::And(b)) | (Expr::Or(a), Expr::Or(b)) => a == b,
            (Expr::Not(a), Expr::Not(b)) => a == b,
            (Expr::BoolLit(a), Expr::BoolLit(b)) => a == b,
            _ => false,
        }
    }
}

impl Expr {
    fn precedence(&self) -> u8 {
        match self {
            Expr::Or(_) => 1,
            Expr::And(_) => 2,
            Expr::Not(_) => 3,
            _ => 4,
        }
    }

    fn fmt_with_parens(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        let prec = self.precedence();
        let need = prec < parent_prec;
        if need {
            write!(f, "(")?;
        }
        match self {
            Expr::Cmp { col, op, lit, .. } => write!(f, "{col} {} {lit}", op.sql())?,
            Expr::In { col, list, .. } => {
                let items: Vec<String> = list.iter().map(Literal::to_string).collect();
                write!(f, "{col} IN ({})", items.join(", "))?;
            }
            Expr::IsNull { col, negated, .. } => {
                write!(f, "{col} IS {}NULL", if *negated { "NOT " } else { "" })?;
            }
            Expr::And(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    p.fmt_with_parens(f, prec + 1)?;
                }
            }
            Expr::Or(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    p.fmt_with_parens(f, prec + 1)?;
                }
            }
            Expr::Not(inner) => {
                write!(f, "NOT ")?;
                inner.fmt_with_parens(f, prec)?;
            }
            Expr::BoolLit(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" })?,
        }
        if need {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with_parens(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_display() {
        assert_eq!(Literal::Int(3).to_string(), "3");
        assert_eq!(Literal::Float(2.0).to_string(), "2.0");
        assert_eq!(Literal::Float(2.5).to_string(), "2.5");
        assert_eq!(Literal::Str("a'b".into()).to_string(), "'a''b'");
        assert_eq!(Literal::Bool(true).to_string(), "TRUE");
        assert_eq!(Literal::Null.to_string(), "NULL");
    }

    #[test]
    fn expr_display_inserts_parens_only_when_needed() {
        let cmp = |c: &str| Expr::Cmp {
            col: c.into(),
            pos: 0,
            op: CmpOp::Eq,
            lit: Literal::Int(1),
        };
        let e = Expr::And(vec![Expr::Or(vec![cmp("a"), cmp("b")]), cmp("c")]);
        assert_eq!(e.to_string(), "(a = 1 OR b = 1) AND c = 1");
        let e = Expr::Or(vec![Expr::And(vec![cmp("a"), cmp("b")]), cmp("c")]);
        assert_eq!(e.to_string(), "a = 1 AND b = 1 OR c = 1");
        let e = Expr::Not(Box::new(Expr::And(vec![cmp("a"), cmp("b")])));
        assert_eq!(e.to_string(), "NOT (a = 1 AND b = 1)");
    }
}
