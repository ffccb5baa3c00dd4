//! Aggregate views and the view generator.
//!
//! §2: a visualization is an *aggregate view* `V = (a, m, f)`. The view
//! generator enumerates `A × M × F` from table metadata, exactly as the
//! SeeDB middleware queries DBMS metadata (§3). The engine executes a view's
//! target and reference queries directly, as one shared scan, so a view is
//! never rendered as SQL.

use seedb_engine::AggFunc;
use seedb_storage::{ColumnId, Table};
use std::fmt;

/// Dense identifier of a view within one enumeration.
pub type ViewId = usize;

/// One aggregate view `(a, m, f)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ViewSpec {
    /// Position in the enumeration (stable within a run).
    pub id: ViewId,
    /// Group-by dimension attribute `a`.
    pub dim: ColumnId,
    /// Measure attribute `m`.
    pub measure: ColumnId,
    /// Aggregate function `f`.
    pub func: AggFunc,
}

impl ViewSpec {
    /// Human-readable description against a table, e.g.
    /// `AVG(capital_gain) BY sex`.
    pub fn describe(&self, table: &dyn Table) -> String {
        let schema = table.schema();
        format!(
            "{}({}) BY {}",
            self.func,
            schema.column(self.measure).name,
            schema.column(self.dim).name
        )
    }
}

impl fmt::Display for ViewSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "V{}({}, {}, {})",
            self.id, self.dim, self.measure, self.func
        )
    }
}

/// Enumerates every view `(a, m, f)` for the table's declared dimensions
/// and measures and the configured aggregate functions.
///
/// Enumeration order is deterministic: functions outermost, then dimensions,
/// then measures — so view ids are stable across runs and across storage
/// layouts.
pub fn enumerate_views(table: &dyn Table, funcs: &[AggFunc]) -> Vec<ViewSpec> {
    let schema = table.schema();
    let dims = schema.dimensions();
    let measures = schema.measures();
    let mut views = Vec::with_capacity(dims.len() * measures.len() * funcs.len());
    let mut id = 0;
    for &func in funcs {
        for &dim in &dims {
            for &measure in &measures {
                views.push(ViewSpec {
                    id,
                    dim,
                    measure,
                    func,
                });
                id += 1;
            }
        }
    }
    views
}

#[cfg(test)]
mod tests {
    use super::*;
    use seedb_storage::{BoxedTable, ColumnDef, StoreKind, TableBuilder, Value};

    fn table() -> BoxedTable {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("sex"),
            ColumnDef::dim("race"),
            ColumnDef::measure("gain"),
            ColumnDef::measure("hours"),
        ]);
        b.push_row(&[
            Value::str("F"),
            Value::str("A"),
            Value::Float(1.0),
            Value::Float(2.0),
        ])
        .unwrap();
        b.build(StoreKind::Column).unwrap()
    }

    #[test]
    fn enumeration_covers_cross_product() {
        let t = table();
        let views = enumerate_views(t.as_ref(), &[AggFunc::Avg]);
        assert_eq!(views.len(), 4); // 2 dims × 2 measures × 1 func
        let views = enumerate_views(t.as_ref(), &[AggFunc::Avg, AggFunc::Sum, AggFunc::Count]);
        assert_eq!(views.len(), 12);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let t = table();
        let views = enumerate_views(t.as_ref(), &[AggFunc::Avg, AggFunc::Count]);
        for (i, v) in views.iter().enumerate() {
            assert_eq!(v.id, i);
        }
        // First block is all-AVG, second all-COUNT.
        assert!(views[..4].iter().all(|v| v.func == AggFunc::Avg));
        assert!(views[4..].iter().all(|v| v.func == AggFunc::Count));
    }

    #[test]
    fn paper_view_count_formula() {
        // Table 1 reports |views| = |A| × |M| with a single aggregate:
        // BANK 11×7=77. Emulate with an 11-dim, 7-measure schema.
        let mut defs = Vec::new();
        for i in 0..11 {
            defs.push(ColumnDef::dim(format!("d{i}")));
        }
        for i in 0..7 {
            defs.push(ColumnDef::measure(format!("m{i}")));
        }
        let mut b = TableBuilder::new(defs);
        let mut row = Vec::new();
        for _ in 0..11 {
            row.push(Value::str("x"));
        }
        for _ in 0..7 {
            row.push(Value::Float(0.0));
        }
        b.push_row(&row).unwrap();
        let t = b.build(StoreKind::Column).unwrap();
        assert_eq!(enumerate_views(t.as_ref(), &[AggFunc::Avg]).len(), 77);
    }

    #[test]
    fn describe_and_sql_render() {
        let t = table();
        let views = enumerate_views(t.as_ref(), &[AggFunc::Avg]);
        let v = &views[0];
        assert_eq!(v.describe(t.as_ref()), "AVG(gain) BY sex");
        // The aggregate is spelled as SQL spells it.
        let views = enumerate_views(t.as_ref(), &[AggFunc::Count]);
        assert_eq!(views[3].describe(t.as_ref()), "COUNT(hours) BY race");
    }
}
