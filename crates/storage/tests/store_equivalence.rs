//! Property tests: the row store and the column store are observationally
//! equivalent — same cells, same stats, same scan output — for arbitrary
//! tables. The entire engine relies on this invariant (the paper's ROW/COL
//! comparison is meaningful only if both layouts compute identical answers).

use proptest::prelude::*;
use seedb_storage::{
    Cell, ColumnDef, ColumnId, ColumnRole, ColumnType, Table, TableBuilder, Value,
};

#[derive(Debug, Clone)]
struct ArbTable {
    defs: Vec<ColumnDef>,
    rows: Vec<Vec<Value>>,
}

fn arb_value(ty: ColumnType) -> BoxedStrategy<Value> {
    match ty {
        ColumnType::Int64 => prop_oneof![
            3 => any::<i64>().prop_map(Value::Int),
            1 => Just(Value::Null),
        ]
        .boxed(),
        ColumnType::Float64 => prop_oneof![
            3 => (-1e9f64..1e9).prop_map(Value::Float),
            1 => Just(Value::Null),
        ]
        .boxed(),
        ColumnType::Categorical => prop_oneof![
            3 => "[a-e]{1,3}".prop_map(Value::Str),
            1 => Just(Value::Null),
        ]
        .boxed(),
        ColumnType::Bool => prop_oneof![
            3 => any::<bool>().prop_map(Value::Bool),
            1 => Just(Value::Null),
        ]
        .boxed(),
    }
}

fn arb_table() -> impl Strategy<Value = ArbTable> {
    let col_types = prop::collection::vec(
        prop_oneof![
            Just(ColumnType::Int64),
            Just(ColumnType::Float64),
            Just(ColumnType::Categorical),
            Just(ColumnType::Bool),
        ],
        1..6,
    );
    (col_types, 0usize..40).prop_flat_map(|(types, nrows)| {
        let defs: Vec<ColumnDef> = types
            .iter()
            .enumerate()
            .map(|(i, &ty)| {
                let role = if matches!(ty, ColumnType::Int64 | ColumnType::Float64) {
                    ColumnRole::Measure
                } else {
                    ColumnRole::Dimension
                };
                ColumnDef::new(format!("c{i}"), ty, role)
            })
            .collect();
        let row_strategy: Vec<BoxedStrategy<Value>> =
            types.iter().map(|&ty| arb_value(ty)).collect();
        prop::collection::vec(row_strategy, nrows).prop_map(move |rows| ArbTable {
            defs: defs.clone(),
            rows,
        })
    })
}

fn build_both(t: &ArbTable) -> (Box<dyn Table>, Box<dyn Table>) {
    let mut b1 = TableBuilder::new(t.defs.clone());
    let mut b2 = TableBuilder::new(t.defs.clone());
    for r in &t.rows {
        b1.push_row(r).unwrap();
        b2.push_row(r).unwrap();
    }
    (
        Box::new(b1.build_row_store().unwrap()),
        Box::new(b2.build_column_store().unwrap()),
    )
}

fn cells_eq(a: Cell, b: Cell) -> bool {
    match (a, b) {
        (Cell::Float(x), Cell::Float(y)) => x == y || (x.is_nan() && y.is_nan()),
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cell_level_equivalence(t in arb_table()) {
        let (row_t, col_t) = build_both(&t);
        prop_assert_eq!(row_t.num_rows(), col_t.num_rows());
        for row in 0..row_t.num_rows() {
            for col in 0..t.defs.len() {
                let id = ColumnId(col as u32);
                prop_assert!(
                    cells_eq(row_t.cell(row, id), col_t.cell(row, id)),
                    "cell mismatch at ({}, {})", row, col
                );
            }
        }
    }

    #[test]
    fn stats_equivalence(t in arb_table()) {
        let (row_t, col_t) = build_both(&t);
        for col in 0..t.defs.len() {
            let id = ColumnId(col as u32);
            prop_assert_eq!(row_t.stats(id).distinct, col_t.stats(id).distinct);
            prop_assert_eq!(row_t.stats(id).null_count, col_t.stats(id).null_count);
            if t.defs[col].role == ColumnRole::Dimension {
                prop_assert_eq!(row_t.distinct_count(id), col_t.distinct_count(id));
            }
        }
    }

    #[test]
    fn scan_equivalence_on_random_projection(
        t in arb_table(),
        proj_seed in any::<u64>(),
        lo_frac in 0.0f64..1.0,
        hi_frac in 0.0f64..1.0,
    ) {
        let (row_t, col_t) = build_both(&t);
        // Derive a projection deterministically from the seed: a rotation of
        // a subset of column ids.
        let ncols = t.defs.len();
        let take = (proj_seed as usize % ncols) + 1;
        let start = (proj_seed >> 8) as usize % ncols;
        let projection: Vec<ColumnId> =
            (0..take).map(|i| ColumnId(((start + i) % ncols) as u32)).collect();

        let n = row_t.num_rows();
        let lo = (lo_frac * n as f64) as usize;
        let hi = (hi_frac * n as f64) as usize;
        let range = lo.min(hi)..lo.max(hi);

        let mut row_out: Vec<Vec<Cell>> = Vec::new();
        row_t.scan_range(&projection, range.clone(), &mut |cells| {
            row_out.push(cells.to_vec());
        });
        let mut col_out: Vec<Vec<Cell>> = Vec::new();
        col_t.scan_range(&projection, range, &mut |cells| {
            col_out.push(cells.to_vec());
        });
        prop_assert_eq!(row_out.len(), col_out.len());
        for (a, b) in row_out.iter().zip(&col_out) {
            for (&x, &y) in a.iter().zip(b) {
                prop_assert!(cells_eq(x, y));
            }
        }
    }

    #[test]
    fn batched_scan_matches_row_scan(
        t in arb_table(),
        batch_size in 1usize..70,
        lo_frac in 0.0f64..1.0,
        hi_frac in 0.0f64..1.0,
    ) {
        // scan_batches (zero-copy for COL, materialized fallback for ROW)
        // must reconstruct exactly what scan_range yields, cell for cell,
        // for any batch size and sub-range.
        let (row_t, col_t) = build_both(&t);
        let projection: Vec<ColumnId> = (0..t.defs.len()).map(|i| ColumnId(i as u32)).collect();
        let n = row_t.num_rows();
        let lo = (lo_frac * n as f64) as usize;
        let hi = (hi_frac * n as f64) as usize;
        let range = lo.min(hi)..lo.max(hi);

        for table in [&row_t, &col_t] {
            let mut scan_out: Vec<Vec<Cell>> = Vec::new();
            table.scan_range(&projection, range.clone(), &mut |cells| {
                scan_out.push(cells.to_vec());
            });

            let mut batch_out: Vec<Vec<Cell>> = Vec::new();
            let mut next_start = range.start;
            table.scan_batches(&projection, range.clone(), batch_size, &mut |batch| {
                assert_eq!(batch.start_row, next_start, "batches must be contiguous");
                assert!(batch.len() <= batch_size && !batch.is_empty());
                assert_eq!(batch.num_columns(), projection.len());
                next_start += batch.len();
                for i in 0..batch.len() {
                    batch_out.push(
                        (0..projection.len()).map(|slot| batch.column(slot).cell(i)).collect(),
                    );
                }
            });

            prop_assert_eq!(scan_out.len(), batch_out.len(), "{} row count", table.kind());
            for (a, b) in scan_out.iter().zip(&batch_out) {
                for (&x, &y) in a.iter().zip(b) {
                    prop_assert!(cells_eq(x, y), "{} cell mismatch", table.kind());
                }
            }
        }
    }

    #[test]
    fn scan_full_range_matches_random_access(t in arb_table()) {
        let (row_t, _) = build_both(&t);
        let projection: Vec<ColumnId> = (0..t.defs.len()).map(|i| ColumnId(i as u32)).collect();
        let mut row_idx = 0usize;
        row_t.scan_range(&projection, 0..row_t.num_rows(), &mut |cells| {
            for (col, &cell) in cells.iter().enumerate() {
                assert!(cells_eq(cell, row_t.cell(row_idx, ColumnId(col as u32))));
            }
            row_idx += 1;
        });
        prop_assert_eq!(row_idx, row_t.num_rows());
    }
}
