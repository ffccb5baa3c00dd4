//! # seedb-sql
//!
//! `WHERE`-body predicates: lexer, parser, binder.
//!
//! The paper positions SeeDB as middleware that writes SQL view queries for
//! a DBMS (§3). This reproduction executes its view queries directly, so the
//! one piece of SQL a request carries is a filter: `/recommend`'s `where`
//! and `reference` fields and `seedb::recommend_sql`'s target. This crate
//! turns that text into an engine predicate:
//!
//! * [`lex`] — tokenizer with byte-offset positions,
//! * [`parse_expr`] — recursive-descent parser for a boolean expression,
//! * AST pretty-printing (`Display`) that round-trips through the parser,
//! * [`Planner`] — binds an expression against a table schema, lowering it
//!   to an engine [`Predicate`](seedb_engine::Predicate),
//! * [`SqlError::render`] — an error with a caret under the offending token.
//!
//! ```
//! use seedb_engine::Predicate;
//! use seedb_sql::{parse_expr, Planner};
//! use seedb_storage::{ColumnDef, StoreKind, TableBuilder, Value};
//!
//! let mut b = TableBuilder::new(vec![
//!     ColumnDef::dim("sex"),
//!     ColumnDef::measure("capital_gain"),
//! ]);
//! b.push_row(&[Value::str("F"), Value::Float(510.0)]).unwrap();
//! let table = b.build(StoreKind::Column).unwrap();
//! let planner = Planner::new(table.as_ref());
//!
//! let filter = parse_expr("sex = 'F' AND capital_gain > 500").unwrap();
//! let predicate = planner.plan_predicate(&filter).unwrap();
//! assert!(matches!(predicate, Predicate::And(parts) if parts.len() == 2));
//!
//! let src = "sex = 'F' AND ghost > 500";
//! let err = planner.plan_predicate(&parse_expr(src).unwrap()).unwrap_err();
//! assert_eq!(err.pos, 14);
//! assert!(err.render(src).ends_with("\n                ^"));
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod planner;

pub use ast::{Expr, Literal};
pub use error::SqlError;
pub use lexer::{lex, Token, TokenKind};
pub use parser::parse_expr;
pub use planner::Planner;
