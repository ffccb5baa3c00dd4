//! # seedb-sql
//!
//! A SQL subset frontend for SeeDB's middleware layer.
//!
//! The paper positions SeeDB as *"a middleware layer that can run on top of
//! any SQL-compliant DBMS"* (§3): the view generator emits SQL view queries,
//! and the sharing optimizer rewrites them. This crate provides the SQL
//! surface of that story for our embedded substrate:
//!
//! * [`lex`](lexer::lex) — tokenizer with byte-offset positions,
//! * [`parse_query`](parser::parse_query) — recursive-descent parser for
//!   `SELECT … FROM … [WHERE …] [GROUP BY …]`,
//! * AST pretty-printing (`Display`) that round-trips through the parser,
//! * [`Planner`] — binds an AST against a table schema, lowering `WHERE`
//!   clauses to engine [`Predicate`](seedb_engine::Predicate)s and aggregate
//!   select lists to engine [`CombinedQuery`](seedb_engine::CombinedQuery)s.
//!
//! ```
//! use seedb_sql::{parse_query, Planner};
//! use seedb_storage::{ColumnDef, StoreKind, TableBuilder, Value};
//!
//! let mut b = TableBuilder::new(vec![
//!     ColumnDef::dim("sex"),
//!     ColumnDef::measure("capital_gain"),
//! ]);
//! b.push_row(&[Value::str("F"), Value::Float(510.0)]).unwrap();
//! let table = b.build(StoreKind::Column).unwrap();
//!
//! let q = parse_query(
//!     "SELECT sex, AVG(capital_gain) FROM census WHERE sex = 'F' GROUP BY sex",
//! ).unwrap();
//! let planned = Planner::new(table.as_ref()).plan(&q).unwrap();
//! assert_eq!(planned.group_by.len(), 1);
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

pub use ast::{Expr, Literal, Query, SelectItem};
pub use error::SqlError;
pub use lexer::{lex, Token, TokenKind};
pub use parser::parse_query;
pub use planner::{PlannedQuery, Planner};
