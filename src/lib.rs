//! # seedb
//!
//! A from-scratch Rust reproduction of **SeeDB** (Vartak, Rahman, Madden,
//! Parameswaran, Polyzotis — *"SeeDB: Efficient Data-Driven Visualization
//! Recommendations to Support Visual Analytics"*, PVLDB 8(13), 2015).
//!
//! Given a table and a target selection, SeeDB enumerates every aggregate
//! view `(dimension, measure, function)`, scores each by the deviation
//! between its target and reference distributions, and returns the top-k —
//! using shared scans, memory-budgeted group-by combining, phased
//! execution, and confidence-interval / bandit pruning to do so at
//! interactive latencies.
//!
//! This crate is the facade: it re-exports the workspace's components and
//! adds SQL-string conveniences. See the individual crates for depth:
//!
//! | crate | contents |
//! |---|---|
//! | [`storage`] | row-store & column-store substrate |
//! | [`sql`] | `WHERE`-body predicates: lexer, parser, binder |
//! | [`engine`] | shared-scan aggregation engine |
//! | [`metrics`] | distance functions (EMD, …) |
//! | [`core`] | view generation, phases, pruning, recommendations |
//! | [`data`] | Table 1 dataset generators |
//! | [`server`] | `seedbd`: HTTP serving layer + cross-request cache |
//! | [`util`] | shared dependency-free JSON |
//!
//! ## Quickstart
//!
//! ```
//! use seedb::prelude::*;
//!
//! // Build a table (or use seedb::data's generators).
//! let mut b = TableBuilder::new(vec![
//!     ColumnDef::dim("sex"),
//!     ColumnDef::dim("marital"),
//!     ColumnDef::measure("capital_gain"),
//! ]);
//! for (s, m, g) in [("F", "single", 500.0), ("M", "single", 480.0),
//!                   ("F", "married", 300.0), ("M", "married", 700.0)] {
//!     b.push_row(&[Value::str(s), Value::str(m), Value::Float(g)]).unwrap();
//! }
//! let table = b.build(StoreKind::Column).unwrap();
//!
//! // Recommend: target = single adults, reference = everyone else.
//! let rec = seedb::recommend_sql(table, "marital = 'single'").unwrap();
//! assert!(!rec.views.is_empty());
//! ```

#![forbid(unsafe_code)]

pub use seedb_core as core;
pub use seedb_data as data;
pub use seedb_engine as engine;
pub use seedb_metrics as metrics;
pub use seedb_server as server;
pub use seedb_sql as sql;
pub use seedb_storage as storage;
pub use seedb_util as util;

use seedb_core::{Recommendation, ReferenceSpec, SeeDb, SeeDbConfig};
use seedb_sql::{parser::parse_expr, Planner};
use seedb_storage::BoxedTable;

/// Everything needed for typical use, importable in one line.
pub mod prelude {
    pub use seedb_core::{
        AggFunc, DistanceKind, ExecutionStrategy, Predicate, PruningKind, RankedView,
        Recommendation, ReferenceSpec, SeeDb, SeeDbConfig, SharingConfig, ViewSpec,
    };
    pub use seedb_storage::{
        BoxedTable, ColumnDef, ColumnRole, ColumnType, StoreKind, Table, TableBuilder, Value,
    };
}

/// Errors from the SQL-string conveniences.
#[derive(Debug)]
pub enum Error {
    /// SQL lexing/parsing/planning failed.
    Sql(seedb_sql::SqlError),
    /// The recommendation run failed.
    Core(seedb_core::CoreError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Sql(e) => write!(f, "SQL error: {e}"),
            Error::Core(e) => write!(f, "recommendation error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

/// Recommends visualizations for the target selection given as a SQL
/// `WHERE`-clause body (e.g. `"marital = 'single' AND age >= 18"`), using
/// the default configuration and `D_R = D` (whole-table reference).
pub fn recommend_sql(table: BoxedTable, target_where: &str) -> Result<Recommendation, Error> {
    recommend_sql_with(
        table,
        target_where,
        SeeDbConfig::default(),
        ReferenceSpec::WholeTable,
    )
}

/// [`recommend_sql`] with explicit configuration and reference.
pub fn recommend_sql_with(
    table: BoxedTable,
    target_where: &str,
    config: SeeDbConfig,
    reference: ReferenceSpec,
) -> Result<Recommendation, Error> {
    let expr = parse_expr(target_where).map_err(Error::Sql)?;
    let target = Planner::new(table.as_ref())
        .plan_predicate(&expr)
        .map_err(Error::Sql)?;
    SeeDb::with_config(table, config)
        .recommend(&target, &reference)
        .map_err(Error::Core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn table() -> BoxedTable {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("grp"),
            ColumnDef::dim("flag"),
            ColumnDef::measure("m"),
        ]);
        for i in 0..100 {
            let grp = if i % 2 == 0 { "a" } else { "b" };
            let flag = if i % 4 == 0 { "t" } else { "f" };
            let m = if i % 4 == 0 && i % 2 == 0 {
                100.0
            } else {
                10.0
            };
            b.push_row(&[Value::str(grp), Value::str(flag), Value::Float(m)])
                .unwrap();
        }
        b.build(StoreKind::Column).unwrap()
    }

    #[test]
    fn recommend_sql_happy_path() {
        let rec = recommend_sql(table(), "flag = 't'").unwrap();
        assert!(!rec.views.is_empty());
        assert!(rec.views[0].utility >= 0.0);
    }

    #[test]
    fn recommend_sql_with_custom_config() {
        let cfg = SeeDbConfig {
            k: 1,
            strategy: ExecutionStrategy::NoOpt,
            ..Default::default()
        };
        let rec =
            recommend_sql_with(table(), "flag = 't'", cfg, ReferenceSpec::Complement).unwrap();
        assert_eq!(rec.views.len(), 1);
    }

    #[test]
    fn bad_sql_is_reported() {
        let err = recommend_sql(table(), "flag = ").unwrap_err();
        assert!(matches!(err, Error::Sql(_)));
        assert!(err.to_string().contains("SQL"));
    }

    #[test]
    fn unknown_column_is_reported() {
        let err = recommend_sql(table(), "ghost = 'x'").unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }
}
