//! `|a_i|` for every twin: each dimension's build-time distinct count must
//! equal an independent count of its non-NULL cells, on both layouts, and
//! only dimensions carry a count at all.

use seedb_data::registry::generate_by_name;
use seedb_data::table1;
use seedb_storage::{ColumnDef, ColumnId, StoreKind, Table, TableBuilder, Value};
use std::collections::BTreeSet;

/// Distinct non-NULL labels of `col`, counted from a scan (floor 1, as
/// `distinct_count` reports it).
fn scanned_distinct(table: &dyn Table, col: ColumnId) -> usize {
    let mut labels = BTreeSet::new();
    table.scan_range(&[col], 0..table.num_rows(), &mut |cells| {
        if !cells[0].is_null() {
            labels.insert(table.cell_label(col, cells[0]));
        }
    });
    labels.len().max(1)
}

#[test]
fn every_twin_dimension_counts_exactly_and_measures_count_nothing() {
    for info in table1() {
        let scale = (800.0 / info.rows as f64).min(1.0);
        for kind in [StoreKind::Row, StoreKind::Column] {
            let ds = generate_by_name(info.name, scale, 23, kind).expect("generator exists");
            let table = ds.table.as_ref();
            let schema = table.schema();
            for dim in schema.dimensions() {
                assert_eq!(
                    table.distinct_count(dim),
                    scanned_distinct(table, dim),
                    "{} {kind} {}",
                    info.name,
                    schema.column(dim).name
                );
            }
            for measure in schema.measures() {
                assert_eq!(
                    table.stats(measure).distinct,
                    None,
                    "{} {kind} {}",
                    info.name,
                    schema.column(measure).name
                );
            }
        }
    }
}

#[test]
fn all_null_dimension_counts_zero_and_reports_one() {
    for kind in [StoreKind::Row, StoreKind::Column] {
        let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")]);
        for i in 0..10 {
            b.push_row(&[Value::Null, Value::Float(i as f64)]).unwrap();
        }
        let table = b.build(kind).unwrap();
        let d = ColumnId(0);
        assert_eq!(table.stats(d).distinct, Some(0), "{kind}");
        assert_eq!(table.distinct_count(d), 1, "{kind}");
        assert_eq!(scanned_distinct(table.as_ref(), d), 1, "{kind}");
        assert_eq!(table.stats(ColumnId(1)).distinct, None, "{kind}");
    }
}
