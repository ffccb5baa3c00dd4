//! The [`Table`] trait: the scan interface every SeeDB component runs on.
//!
//! SeeDB's phased execution framework (§3 of the paper) processes the *i*-th
//! of *n* equal partitions of the table per phase; [`Table::scan_range`]
//! exposes exactly that: a projected scan over a contiguous row range.
//! Both storage layouts implement it, with costs characteristic of their
//! layout (see crate docs).

use crate::batch::{Batch, BatchColumn, Staging};
use crate::dictionary::Dictionary;
use crate::partition::Partition;
use crate::schema::{ColumnId, ColumnStats, Schema};
use crate::value::Cell;
use std::ops::Range;
use std::sync::Arc;

/// Which physical layout a table uses. Mirrors the paper's ROW vs COL axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// Row-oriented layout (paper: "ROW", PostgreSQL).
    Row,
    /// Column-oriented layout (paper: "COL").
    Column,
}

impl StoreKind {
    /// Paper-style label ("ROW" / "COL").
    pub fn label(&self) -> &'static str {
        match self {
            StoreKind::Row => "ROW",
            StoreKind::Column => "COL",
        }
    }
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Read interface over an immutable, fully-loaded table.
pub trait Table: Send + Sync {
    /// The table's schema.
    fn schema(&self) -> &Schema;

    /// Total number of rows.
    fn num_rows(&self) -> usize;

    /// Physical layout of this table.
    fn kind(&self) -> StoreKind;

    /// Dictionary of a categorical column (`None` for non-categorical).
    fn dictionary(&self, col: ColumnId) -> Option<&Dictionary>;

    /// Build-time statistics for a column.
    fn stats(&self, col: ColumnId) -> &ColumnStats;

    /// The table's partition directory: fixed-size row segments with
    /// per-column zone maps, sealed during load. An empty slice means the
    /// table carries no partition metadata — callers must then treat the
    /// whole table as one unprunable segment (see
    /// [`Table::partition_ranges`], which does exactly that).
    fn partitions(&self) -> &[Partition] {
        &[]
    }

    /// Partition-iterator view of a scan: intersects `range` (clamped to
    /// the table) with the partition directory and yields one
    /// `(partition_index, clipped_rows)` pair per overlapping partition,
    /// in ascending row order. Tables without partition metadata yield a
    /// single pseudo-segment covering the clamped range, whose index has
    /// no corresponding [`Table::partitions`] entry.
    fn partition_ranges(&self, range: Range<usize>) -> Vec<(usize, Range<usize>)> {
        let start = range.start.min(self.num_rows());
        let end = range.end.min(self.num_rows());
        if start >= end {
            return Vec::new();
        }
        let parts = self.partitions();
        if parts.is_empty() {
            return vec![(0, start..end)];
        }
        parts
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                let clipped = p.clip(&(start..end));
                (!clipped.is_empty()).then_some((i, clipped))
            })
            .collect()
    }

    /// Random access to a single cell (intended for tests and result
    /// labelling, not hot loops).
    fn cell(&self, row: usize, col: ColumnId) -> Cell;

    /// Scans rows `range`, invoking `visitor` once per row with the cells of
    /// `projection`, in projection order.
    ///
    /// The cell slice passed to the visitor is only valid for the duration of
    /// the call (implementations reuse an internal buffer).
    fn scan_range(
        &self,
        projection: &[ColumnId],
        range: Range<usize>,
        visitor: &mut dyn FnMut(&[Cell]),
    );

    /// Scans rows `range` in fixed-size [`Batch`]es of up to `batch_size`
    /// rows, invoking `visitor` once per batch with typed per-column slices
    /// (see `crate::batch`).
    ///
    /// The default implementation materializes each batch through
    /// [`Table::scan_range`], which is correct for any layout; the column
    /// store overrides it to serve numeric and categorical columns
    /// zero-copy. Batches and their slices are only valid for the duration
    /// of the visitor call.
    fn scan_batches(
        &self,
        projection: &[ColumnId],
        range: Range<usize>,
        batch_size: usize,
        visitor: &mut dyn FnMut(&Batch<'_>),
    ) {
        let batch_size = batch_size.max(1);
        let start = range.start.min(self.num_rows());
        let end = range.end.min(self.num_rows());
        let schema = self.schema();
        let mut staging: Vec<Staging> = projection
            .iter()
            .map(|c| Staging::for_type(schema.column(*c).ty))
            .collect();
        let mut validity: Vec<Vec<bool>> = vec![Vec::new(); projection.len()];
        let mut has_null: Vec<bool> = vec![false; projection.len()];

        let mut lo = start;
        while lo < end {
            let hi = (lo + batch_size).min(end);
            for (slot, s) in staging.iter_mut().enumerate() {
                s.clear();
                validity[slot].clear();
                has_null[slot] = false;
            }
            self.scan_range(projection, lo..hi, &mut |cells| {
                for (slot, cell) in cells.iter().enumerate() {
                    staging[slot].push(*cell);
                    validity[slot].push(!cell.is_null());
                    has_null[slot] |= cell.is_null();
                }
            });
            let columns: Vec<BatchColumn<'_>> = staging
                .iter()
                .enumerate()
                .map(|(slot, s)| BatchColumn {
                    data: s.as_data(),
                    validity: has_null[slot].then_some(validity[slot].as_slice()),
                })
                .collect();
            visitor(&Batch::new(lo, hi - lo, columns));
            lo = hi;
        }
    }

    /// Distinct non-NULL value count of a dimension column, `|a_i|` in the
    /// paper. Never returns 0 (empty columns report 1) so that bin-packing
    /// weights `log2(|a_i|)` stay finite.
    ///
    /// Only dimensions carry a count ([`ColumnStats::distinct`]); asking
    /// about any other column is a caller bug, caught in debug builds.
    fn distinct_count(&self, col: ColumnId) -> usize {
        let distinct = self.stats(col).distinct;
        debug_assert!(distinct.is_some(), "distinct_count of non-dimension {col}");
        distinct.unwrap_or(0).max(1)
    }

    /// Human-readable label for a cell of column `col` (dictionary decoding
    /// for categoricals, plain formatting otherwise).
    fn cell_label(&self, col: ColumnId, cell: Cell) -> String {
        match cell {
            Cell::Null => "NULL".to_owned(),
            Cell::Cat(code) => self
                .dictionary(col)
                .and_then(|d| d.label(code))
                .map(str::to_owned)
                .unwrap_or_else(|| format!("cat#{code}")),
            Cell::Int(v) => v.to_string(),
            Cell::Float(v) => format!("{v}"),
            Cell::Bool(b) => b.to_string(),
        }
    }
}

/// Shared, dynamically-typed table handle.
pub type BoxedTable = Arc<dyn Table>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_kind_labels_match_paper() {
        assert_eq!(StoreKind::Row.label(), "ROW");
        assert_eq!(StoreKind::Column.label(), "COL");
        assert_eq!(StoreKind::Row.to_string(), "ROW");
    }
}
