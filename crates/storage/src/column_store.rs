//! Column-oriented storage: one typed vector per column.
//!
//! A projected scan touches only the projected columns' vectors, so its
//! memory traffic is proportional to the projection width — the reason the
//! paper's COL baseline is ~5× faster than ROW on SeeDB's narrow view
//! queries (§5.2), and the reason sharing optimizations help COL less.

use crate::batch::{Batch, BatchColumn, BatchData};
use crate::column::{Column, ColumnData};
use crate::dictionary::Dictionary;
use crate::partition::Partition;
use crate::schema::{ColumnId, ColumnStats, Schema};
use crate::table::{StoreKind, Table};
use crate::value::Cell;
use std::ops::Range;

/// Immutable column-oriented table.
pub struct ColumnStore {
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
    dictionaries: Vec<Option<Dictionary>>,
    stats: Vec<ColumnStats>,
    partitions: Vec<Partition>,
}

impl ColumnStore {
    /// Assembles a column store from pre-validated parts (used by the builder).
    pub(crate) fn from_parts(
        schema: Schema,
        columns: Vec<Column>,
        dictionaries: Vec<Option<Dictionary>>,
        stats: Vec<ColumnStats>,
        partitions: Vec<Partition>,
    ) -> Self {
        let num_rows = columns.first().map_or(0, Column::len);
        debug_assert!(columns.iter().all(|c| c.len() == num_rows));
        debug_assert_eq!(
            partitions.iter().map(Partition::len).sum::<usize>(),
            num_rows
        );
        ColumnStore {
            schema,
            columns,
            num_rows,
            dictionaries,
            stats,
            partitions,
        }
    }

    /// Direct access to a column (tests and micro-benches).
    pub fn column(&self, col: ColumnId) -> &Column {
        &self.columns[col.index()]
    }
}

impl Table for ColumnStore {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn num_rows(&self) -> usize {
        self.num_rows
    }

    fn kind(&self) -> StoreKind {
        StoreKind::Column
    }

    fn dictionary(&self, col: ColumnId) -> Option<&Dictionary> {
        self.dictionaries[col.index()].as_ref()
    }

    fn stats(&self, col: ColumnId) -> &ColumnStats {
        &self.stats[col.index()]
    }

    fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    fn cell(&self, row: usize, col: ColumnId) -> Cell {
        assert!(row < self.num_rows, "row {row} out of bounds");
        self.columns[col.index()].cell(row)
    }

    fn scan_range(
        &self,
        projection: &[ColumnId],
        range: Range<usize>,
        visitor: &mut dyn FnMut(&[Cell]),
    ) {
        let start = range.start.min(self.num_rows);
        let end = range.end.min(self.num_rows);
        let cols: Vec<&Column> = projection
            .iter()
            .map(|c| &self.columns[c.index()])
            .collect();
        let mut buf = vec![Cell::Null; projection.len()];
        for row in start..end {
            for (slot, col) in cols.iter().enumerate() {
                buf[slot] = col.cell(row);
            }
            visitor(&buf);
        }
    }

    /// Zero-copy batches: numeric and categorical payloads are served as
    /// subslices of the column vectors. Only bit-packed data (bool payloads
    /// and validity bitmaps) is unpacked into per-batch scratch buffers.
    fn scan_batches(
        &self,
        projection: &[ColumnId],
        range: Range<usize>,
        batch_size: usize,
        visitor: &mut dyn FnMut(&Batch<'_>),
    ) {
        let batch_size = batch_size.max(1);
        let start = range.start.min(self.num_rows);
        let end = range.end.min(self.num_rows);
        let cols: Vec<&Column> = projection
            .iter()
            .map(|c| &self.columns[c.index()])
            .collect();
        let mut bool_scratch: Vec<Vec<bool>> = vec![Vec::new(); projection.len()];
        let mut valid_scratch: Vec<Vec<bool>> = vec![Vec::new(); projection.len()];

        let mut lo = start;
        while lo < end {
            let hi = (lo + batch_size).min(end);
            for (slot, col) in cols.iter().enumerate() {
                if let ColumnData::Bool(bits) = &col.data {
                    bits.fill_bools(lo..hi, &mut bool_scratch[slot]);
                }
                if let Some(v) = &col.validity {
                    v.fill_bools(lo..hi, &mut valid_scratch[slot]);
                }
            }
            let columns: Vec<BatchColumn<'_>> = cols
                .iter()
                .enumerate()
                .map(|(slot, col)| {
                    let data = match &col.data {
                        ColumnData::Int64(v) => BatchData::Int(&v[lo..hi]),
                        ColumnData::Float64(v) => BatchData::Float(&v[lo..hi]),
                        ColumnData::Categorical(v) => BatchData::Cat(&v[lo..hi]),
                        ColumnData::Bool(_) => BatchData::Bool(&bool_scratch[slot]),
                    };
                    let validity = col
                        .validity
                        .as_ref()
                        .map(|_| valid_scratch[slot].as_slice());
                    BatchColumn { data, validity }
                })
                .collect();
            visitor(&Batch::new(lo, hi - lo, columns));
            lo = hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TableBuilder;
    use crate::schema::{ColumnDef, ColumnRole, ColumnType};
    use crate::value::Value;

    fn small_table() -> ColumnStore {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("color"),
            ColumnDef::new("n", ColumnType::Int64, ColumnRole::Measure),
        ]);
        b.push_row(&[Value::str("red"), Value::Int(10)]).unwrap();
        b.push_row(&[Value::str("blue"), Value::Null]).unwrap();
        b.push_row(&[Value::str("blue"), Value::Int(30)]).unwrap();
        b.build_column_store().unwrap()
    }

    #[test]
    fn random_access() {
        let t = small_table();
        assert_eq!(t.cell(0, ColumnId(0)), Cell::Cat(0));
        assert_eq!(t.cell(1, ColumnId(1)), Cell::Null);
        assert_eq!(t.cell(2, ColumnId(1)), Cell::Int(30));
        assert_eq!(t.kind(), StoreKind::Column);
    }

    #[test]
    fn scan_touches_projection_only() {
        let t = small_table();
        let mut codes = Vec::new();
        t.scan_range(&[ColumnId(0)], 0..t.num_rows(), &mut |cells| {
            assert_eq!(cells.len(), 1);
            codes.push(cells[0]);
        });
        assert_eq!(codes, vec![Cell::Cat(0), Cell::Cat(1), Cell::Cat(1)]);
    }

    #[test]
    fn scan_partial_range() {
        let t = small_table();
        let mut n = 0;
        t.scan_range(&[ColumnId(1)], 1..2, &mut |cells| {
            assert_eq!(cells[0], Cell::Null);
            n += 1;
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn stats_and_dictionary() {
        let t = small_table();
        assert_eq!(t.stats(ColumnId(0)).distinct, Some(2));
        assert_eq!(t.stats(ColumnId(1)).null_count, 1);
        assert_eq!(t.dictionary(ColumnId(0)).unwrap().label(1), Some("blue"));
    }

    #[test]
    fn distinct_count_floor_is_one() {
        // An empty table still reports >= 1 so log-weights stay finite.
        let b = TableBuilder::new(vec![ColumnDef::dim("c")]);
        let t = b.build_column_store().unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.distinct_count(ColumnId(0)), 1);
    }
}
