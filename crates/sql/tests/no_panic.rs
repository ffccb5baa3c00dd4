//! Fuzz-ish property tests: no input — random bytes or adversarial token
//! soup — may panic the SQL front-end. `seedbd` feeds raw HTTP request
//! bodies through `lex → parse_expr → plan_predicate`, so a reachable
//! panic here is a remote crash of the daemon. Every function must return
//! `Ok` or a positioned `SqlError`, never unwind (and never abort via
//! stack overflow — nesting is depth-capped).

use proptest::prelude::*;
use seedb_sql::lexer::lex;
use seedb_sql::parser::parse_expr;
use seedb_sql::Planner;
use seedb_storage::{
    BoxedTable, ColumnDef, ColumnRole, ColumnType, StoreKind, TableBuilder, Value,
};

/// A small schema covering every column type the planner branches on.
fn table() -> BoxedTable {
    let mut b = TableBuilder::new(vec![
        ColumnDef::dim("sex"),
        ColumnDef::dim("marital"),
        ColumnDef::measure("gain"),
        ColumnDef::new("age", ColumnType::Int64, ColumnRole::Measure),
        ColumnDef::new("citizen", ColumnType::Bool, ColumnRole::Dimension),
    ]);
    for (s, m, g, a, c) in [
        ("F", "unmarried", 500.0, 30, true),
        ("M", "married", 700.0, 50, false),
    ] {
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

/// Runs one input through every user-reachable entry point. The results
/// are ignored — only reaching the end without unwinding matters.
fn exercise(table: &BoxedTable, src: &str) {
    let _ = lex(src);
    if let Ok(expr) = parse_expr(src) {
        let _ = Planner::new(table.as_ref()).plan_predicate(&expr);
        // The printer is part of the error-reporting path.
        let _ = expr.to_string();
    }
}

/// Fragments that compose into near-miss SQL: real keywords, operators,
/// schema column names, literals, and junk — far more likely to reach
/// deep parser/planner states than uniform noise. Statement words
/// (`SELECT` … `BY`) lex as identifiers, so they reach the unknown-column
/// path.
const FRAGMENTS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "AND",
    "OR",
    "NOT",
    "IN",
    "IS",
    "NULL",
    "TRUE",
    "FALSE",
    "AVG",
    "SUM",
    "COUNT",
    "MIN",
    "MAX",
    "(",
    ")",
    ",",
    "*",
    ";",
    "=",
    "<>",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "sex",
    "marital",
    "gain",
    "age",
    "citizen",
    "ghost",
    "t",
    "'F'",
    "'x''y'",
    "''",
    "'unterminated",
    "0",
    "1",
    "-7",
    "3.25",
    "1e3",
    "1e999",
    "9999999999999999999999",
    "-",
    ".",
    "!",
    "@",
    "_id",
    "é",
];

fn arb_token_soup() -> impl Strategy<Value = String> {
    prop::collection::vec((0usize..FRAGMENTS.len(), any::<bool>()), 0..40).prop_map(|picks| {
        let mut out = String::new();
        for (idx, space) in picks {
            out.push_str(FRAGMENTS[idx]);
            if space {
                out.push(' ');
            }
        }
        out
    })
}

fn arb_raw_bytes() -> impl Strategy<Value = String> {
    prop::collection::vec(0u16..256, 0..120).prop_map(|words| {
        let bytes: Vec<u8> = words.into_iter().map(|w| w as u8).collect();
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn token_soup_never_panics(src in arb_token_soup()) {
        let t = table();
        exercise(&t, &src);
    }

    #[test]
    fn raw_bytes_never_panic(src in arb_raw_bytes()) {
        let t = table();
        exercise(&t, &src);
    }
}

#[test]
fn adversarial_regressions_never_panic() {
    let t = table();
    for src in [
        // Stack-depth attacks (would abort, not unwind, without the cap).
        &format!("{}x = 1{}", "(".repeat(200_000), ")".repeat(200_000)),
        &format!("{}TRUE", "NOT ".repeat(200_000)),
        &format!("SELECT * FROM t WHERE {}", "(".repeat(50_000)),
        // Numeric edges.
        "age = 99999999999999999999999999",
        "gain = 1e99999",
        "gain = -1e-99999",
        // Type confusion against every column type.
        "citizen IN (TRUE)",
        "sex IN (1, 2)",
        "marital < 'a'",
        "gain = NULL",
        // Truncations at every clause boundary.
        "SELECT",
        "SELECT a FROM",
        "SELECT a FROM t WHERE",
        "SELECT a FROM t GROUP",
        "SELECT a FROM t GROUP BY",
        "SELECT AVG( FROM t",
        // Unicode in and out of strings.
        "sex = '日本語'",
        "日本語 = 1",
        "sex = '\u{0}'",
    ] {
        exercise(&t, src);
    }
}
