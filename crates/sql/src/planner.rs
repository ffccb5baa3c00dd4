//! Binding a parsed `WHERE` body against a table schema.
//!
//! The planner lowers an [`Expr`] into an engine [`Predicate`], resolving
//! column names through the schema and string literals through per-column
//! dictionaries. Every error it raises points at the offending column's
//! token, so a rendered error puts its caret under that column.

use crate::ast::{Expr, Literal};
use crate::error::SqlError;
use seedb_engine::{CmpOp, Predicate};
use seedb_storage::{ColumnId, ColumnType, Table};

/// Schema-aware lowering of a parsed `WHERE` body.
pub struct Planner<'a> {
    table: &'a dyn Table,
}

impl<'a> Planner<'a> {
    /// Creates a planner over `table`'s schema and dictionaries.
    pub fn new(table: &'a dyn Table) -> Self {
        Planner { table }
    }

    /// Lowers a boolean expression to an engine predicate.
    pub fn plan_predicate(&self, e: &Expr) -> Result<Predicate, SqlError> {
        let schema = self.table.schema();
        match e {
            Expr::BoolLit(true) => Ok(Predicate::True),
            Expr::BoolLit(false) => Ok(Predicate::False),
            Expr::Not(inner) => Ok(self.plan_predicate(inner)?.negate()),
            Expr::And(parts) => Ok(Predicate::And(
                parts
                    .iter()
                    .map(|p| self.plan_predicate(p))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::Or(parts) => Ok(Predicate::Or(
                parts
                    .iter()
                    .map(|p| self.plan_predicate(p))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::IsNull { col, pos, negated } => {
                let id = self.column(col, *pos)?;
                let p = Predicate::IsNull { col: id };
                Ok(if *negated { p.negate() } else { p })
            }
            Expr::In { col, pos, list } => {
                let id = self.column(col, *pos)?;
                match schema.column(id).ty {
                    ColumnType::Categorical => {
                        let dict = self.table.dictionary(id).ok_or_else(|| {
                            SqlError::new(*pos, format!("no dictionary for categorical '{col}'"))
                        })?;
                        let mut codes = Vec::new();
                        for lit in list {
                            match lit {
                                Literal::Str(s) => {
                                    if let Some(code) = dict.code(s) {
                                        codes.push(code);
                                    }
                                    // Unknown labels match nothing: skip.
                                }
                                other => {
                                    return Err(SqlError::new(
                                        *pos,
                                        format!("IN list for '{col}' expects strings, got {other}"),
                                    ))
                                }
                            }
                        }
                        if codes.is_empty() {
                            Ok(Predicate::False)
                        } else {
                            Ok(Predicate::CatIn { col: id, codes })
                        }
                    }
                    ColumnType::Int64 | ColumnType::Float64 => {
                        let mut arms = Vec::new();
                        for lit in list {
                            let v = numeric_literal(col, *pos, lit)?;
                            arms.push(Predicate::NumCmp {
                                col: id,
                                op: CmpOp::Eq,
                                value: v,
                            });
                        }
                        Ok(Predicate::Or(arms))
                    }
                    ColumnType::Bool => Err(SqlError::new(
                        *pos,
                        format!("IN is not supported for boolean column '{col}'"),
                    )),
                }
            }
            Expr::Cmp { col, pos, op, lit } => {
                let id = self.column(col, *pos)?;
                if matches!(lit, Literal::Null) {
                    return Err(SqlError::new(
                        *pos,
                        format!("comparison with NULL is always false; use '{col} IS NULL'"),
                    ));
                }
                match schema.column(id).ty {
                    ColumnType::Categorical => {
                        let s = match lit {
                            Literal::Str(s) => s,
                            other => {
                                return Err(SqlError::new(
                                    *pos,
                                    format!("'{col}' is categorical, expected string, got {other}"),
                                ))
                            }
                        };
                        if !matches!(op, CmpOp::Eq | CmpOp::Ne) {
                            return Err(SqlError::new(
                                *pos,
                                format!("only = and <> are supported for categorical '{col}'"),
                            ));
                        }
                        let dict = self.table.dictionary(id).ok_or_else(|| {
                            SqlError::new(*pos, format!("no dictionary for categorical '{col}'"))
                        })?;
                        let base = match dict.code(s) {
                            Some(code) => Predicate::CatEq { col: id, code },
                            None => Predicate::False,
                        };
                        Ok(if *op == CmpOp::Ne {
                            base.negate()
                        } else {
                            base
                        })
                    }
                    ColumnType::Bool => {
                        let b = match lit {
                            Literal::Bool(b) => *b,
                            other => {
                                return Err(SqlError::new(
                                    *pos,
                                    format!("'{col}' is boolean, got {other}"),
                                ))
                            }
                        };
                        if !matches!(op, CmpOp::Eq | CmpOp::Ne) {
                            return Err(SqlError::new(
                                *pos,
                                format!("only = and <> are supported for boolean '{col}'"),
                            ));
                        }
                        let base = Predicate::BoolEq { col: id, value: b };
                        Ok(if *op == CmpOp::Ne {
                            base.negate()
                        } else {
                            base
                        })
                    }
                    ColumnType::Int64 | ColumnType::Float64 => {
                        let v = numeric_literal(col, *pos, lit)?;
                        Ok(Predicate::NumCmp {
                            col: id,
                            op: *op,
                            value: v,
                        })
                    }
                }
            }
        }
    }

    /// Resolves a column name read at byte `pos`.
    fn column(&self, col: &str, pos: usize) -> Result<ColumnId, SqlError> {
        self.table
            .schema()
            .column_id(col)
            .ok_or_else(|| SqlError::new(pos, format!("unknown column '{col}'")))
    }
}

fn numeric_literal(col: &str, pos: usize, lit: &Literal) -> Result<f64, SqlError> {
    match lit {
        Literal::Int(v) => Ok(*v as f64),
        Literal::Float(v) => Ok(*v),
        other => Err(SqlError::new(
            pos,
            format!("\'{col}\' is numeric, expected number, got {other}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use seedb_engine::{execute_combined, AggFunc, AggSpec, CombinedQuery, ExecStats, SplitSpec};
    use seedb_storage::{BoxedTable, ColumnDef, ColumnRole, StoreKind, TableBuilder, Value};

    fn census() -> BoxedTable {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("sex"),
            ColumnDef::dim("marital"),
            ColumnDef::measure("gain"),
            ColumnDef::new("age", ColumnType::Int64, ColumnRole::Measure),
            ColumnDef::new("citizen", ColumnType::Bool, ColumnRole::Dimension),
        ]);
        let rows: [(&str, &str, f64, i64, bool); 4] = [
            ("F", "unmarried", 500.0, 30, true),
            ("M", "unmarried", 480.0, 32, false),
            ("F", "married", 300.0, 45, true),
            ("M", "married", 700.0, 50, true),
        ];
        for (s, m, g, a, c) in rows {
            b.push_row(&[
                Value::str(s),
                Value::str(m),
                Value::Float(g),
                Value::Int(a),
                Value::Bool(c),
            ])
            .unwrap();
        }
        b.build(StoreKind::Column).unwrap()
    }

    fn plan_pred(src: &str) -> Result<Predicate, SqlError> {
        let t = census();
        let e = parse_expr(src).unwrap();
        Planner::new(t.as_ref()).plan_predicate(&e)
    }

    #[test]
    fn categorical_equality_resolves_dictionary_code() {
        let p = plan_pred("marital = 'married'").unwrap();
        assert_eq!(
            p,
            Predicate::CatEq {
                col: ColumnId(1),
                code: 1
            }
        );
        // Unknown label collapses to False.
        assert_eq!(plan_pred("marital = 'widowed'").unwrap(), Predicate::False);
        // <> of an unknown label is True (matches every row).
        assert_eq!(plan_pred("marital <> 'widowed'").unwrap(), Predicate::True);
    }

    #[test]
    fn numeric_and_boolean_comparisons() {
        assert_eq!(
            plan_pred("age >= 40").unwrap(),
            Predicate::NumCmp {
                col: ColumnId(3),
                op: CmpOp::Ge,
                value: 40.0
            }
        );
        assert_eq!(
            plan_pred("gain < 400.5").unwrap(),
            Predicate::NumCmp {
                col: ColumnId(2),
                op: CmpOp::Lt,
                value: 400.5
            }
        );
        assert_eq!(
            plan_pred("citizen = TRUE").unwrap(),
            Predicate::BoolEq {
                col: ColumnId(4),
                value: true
            }
        );
    }

    #[test]
    fn in_list_lowering() {
        assert_eq!(
            plan_pred("sex IN ('F', 'M', 'X')").unwrap(),
            Predicate::CatIn {
                col: ColumnId(0),
                codes: vec![0, 1]
            }
        );
        assert_eq!(plan_pred("sex IN ('Q')").unwrap(), Predicate::False);
        assert!(matches!(plan_pred("age IN (30, 32)").unwrap(), Predicate::Or(v) if v.len() == 2));
    }

    #[test]
    fn is_null_lowering() {
        assert_eq!(
            plan_pred("gain IS NULL").unwrap(),
            Predicate::IsNull { col: ColumnId(2) }
        );
        assert!(matches!(
            plan_pred("gain IS NOT NULL").unwrap(),
            Predicate::Not(_)
        ));
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(plan_pred("marital = 3").is_err());
        assert!(plan_pred("age = 'old'").is_err());
        assert!(plan_pred("citizen = 'yes'").is_err());
        assert!(plan_pred("marital < 'a'").is_err());
        assert!(plan_pred("gain = NULL")
            .unwrap_err()
            .message
            .contains("IS NULL"));
        assert!(plan_pred("ghost = 1")
            .unwrap_err()
            .message
            .contains("ghost"));
    }

    #[test]
    fn errors_point_at_the_column() {
        // Unknown column, a categorical compared with a number, and an
        // operator a categorical does not support: each caret sits under
        // the column at byte 14.
        for (src, message) in [
            ("age >= 18 AND ghost = 'x'", "unknown column 'ghost'"),
            ("age >= 18 AND sex = 3", "categorical"),
            ("age >= 18 AND sex < 'F'", "only = and <>"),
        ] {
            let err = plan_pred(src).unwrap_err();
            assert_eq!(err.pos, 14, "{src}");
            assert!(err.message.contains(message), "{src}: {}", err.message);
            let caret = err.render(src).lines().last().unwrap().to_owned();
            assert_eq!(caret, format!("  {}^", " ".repeat(14)), "{src}");
        }
        assert_eq!(plan_pred("citizen IN (TRUE)").unwrap_err().pos, 0);
        assert_eq!(plan_pred("sex = 'F' OR age IN ('x')").unwrap_err().pos, 13);
        assert_eq!(plan_pred("NOT (ghost IS NULL)").unwrap_err().pos, 5);
    }

    #[test]
    fn a_column_named_group_can_be_filtered_on() {
        let mut b = TableBuilder::new(vec![ColumnDef::dim("group"), ColumnDef::measure("m")]);
        b.push_row(&[Value::str("a"), Value::Float(1.0)]).unwrap();
        let t = b.build(StoreKind::Column).unwrap();
        let e = parse_expr("group = 'a' AND m > 0").unwrap();
        assert_eq!(
            Planner::new(t.as_ref()).plan_predicate(&e).unwrap(),
            Predicate::And(vec![
                Predicate::CatEq {
                    col: ColumnId(0),
                    code: 0
                },
                Predicate::NumCmp {
                    col: ColumnId(1),
                    op: CmpOp::Gt,
                    value: 0.0
                },
            ])
        );
    }

    #[test]
    fn complex_where_executes_correctly() {
        let t = census();
        let filter = plan_pred("(age >= 40 OR sex = 'F') AND citizen = TRUE").unwrap();
        // COUNT(gain) GROUP BY marital over the filtered rows.
        let query = CombinedQuery {
            group_by: vec![ColumnId(1)],
            aggregates: vec![AggSpec::new(AggFunc::Count, ColumnId(2))],
            filter: None,
            split: SplitSpec::TargetOnly(filter),
        };
        let r = execute_combined(t.as_ref(), &query, &mut ExecStats::new());
        // Matching rows: (F,unmarried,30,T), (F,married,45,T), (M,married,50,T)
        let (counts, _) = r.value_vectors(0);
        assert_eq!(counts, vec![1.0, 2.0]); // unmarried=1, married=2
    }
}
