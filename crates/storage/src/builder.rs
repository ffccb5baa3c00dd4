//! [`TableBuilder`]: validated row-at-a-time ingestion that can materialize
//! either storage layout from the same staged data.
//!
//! The builder stages data column-wise (cheap to convert to a
//! [`ColumnStore`], and a single packing pass away from a [`RowStore`]),
//! interns categorical labels, and maintains the per-column statistics the
//! engine reads: null counts and min/max for every column, and distinct
//! counts `|a_i|` for dimensions only — the bin-packing weights of §4.1.

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnData};
use crate::column_store::ColumnStore;
use crate::dictionary::Dictionary;
use crate::error::StorageError;
use crate::partition::{Partition, DEFAULT_PARTITION_ROWS};
use crate::row_store::{encode_payload, RowStore};
use crate::schema::{ColumnDef, ColumnRole, ColumnStats, ColumnType, Schema};
use crate::table::{BoxedTable, StoreKind};
use crate::value::{Cell, Value};
use crate::zonemap::ZoneBuilder;
use std::sync::Arc;

/// Set of value identities (float bit patterns, integer values, booleans)
/// behind a non-categorical dimension's distinct count.
///
/// Identities are folded (`bits ^ bits >> 32`, a bijection, so counts are
/// unchanged) before they reach the hasher. Fx multiplies the word by an
/// odd constant and the table indexes buckets by the hash's low bits, so an
/// identity whose low bits are all zero — every integer-valued `f64`: its
/// low mantissa bits are empty — hashes to low bits of zero too, and a
/// high-cardinality column of them piles into a handful of buckets (a
/// 1M-row build took minutes instead of a second).
#[derive(Debug, Default)]
struct DistinctSet(rustc_hash::FxHashSet<u64>);

impl DistinctSet {
    fn insert(&mut self, identity: u64) {
        self.0.insert(identity ^ (identity >> 32));
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Staging state for one column.
struct StagedColumn {
    data: ColumnData,
    validity: Bitmap,
    /// Whole-table distinct values of a non-categorical dimension. A
    /// categorical dimension counts them in its dictionary, and measure and
    /// ignored columns count nothing: no reader asks them.
    distinct: Option<DistinctSet>,
    null_count: usize,
    min: Option<f64>,
    max: Option<f64>,
}

impl StagedColumn {
    fn new(def: &ColumnDef) -> Self {
        let data = match def.ty {
            ColumnType::Int64 => ColumnData::Int64(Vec::new()),
            ColumnType::Float64 => ColumnData::Float64(Vec::new()),
            ColumnType::Categorical => ColumnData::Categorical(Vec::new()),
            ColumnType::Bool => ColumnData::Bool(Bitmap::new()),
        };
        let counted = def.role == ColumnRole::Dimension && def.ty != ColumnType::Categorical;
        StagedColumn {
            data,
            validity: Bitmap::new(),
            distinct: counted.then(DistinctSet::default),
            null_count: 0,
            min: None,
            max: None,
        }
    }

    fn push_null(&mut self) {
        match &mut self.data {
            ColumnData::Int64(v) => v.push(0),
            ColumnData::Float64(v) => v.push(0.0),
            ColumnData::Categorical(v) => v.push(0),
            ColumnData::Bool(b) => b.push(false),
        }
        self.validity.push(false);
        self.null_count += 1;
    }

    fn observe_numeric(&mut self, x: f64) {
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    fn stats(&self, def: &ColumnDef, dictionary: Option<&Dictionary>) -> ColumnStats {
        let distinct = match (&self.distinct, dictionary) {
            (Some(set), _) => Some(set.len()),
            // The builder interns only labels it stores, so the dictionary
            // holds exactly the column's non-NULL distinct values.
            (None, Some(dict)) if def.role == ColumnRole::Dimension => Some(dict.len()),
            _ => None,
        };
        ColumnStats {
            distinct,
            null_count: self.null_count,
            min: self.min,
            max: self.max,
        }
    }
}

/// Row-at-a-time table builder; see module docs.
pub struct TableBuilder {
    schema: Schema,
    staged: Vec<StagedColumn>,
    dictionaries: Vec<Option<Dictionary>>,
    num_rows: usize,
    /// Partition sealing interval (rows per partition).
    partition_rows: usize,
    /// Zone accumulators for the partition currently being filled.
    zones: Vec<ZoneBuilder>,
    /// Partitions sealed so far.
    partitions: Vec<Partition>,
    /// First row of the partition currently being filled.
    partition_start: usize,
}

impl TableBuilder {
    /// Creates a builder for `columns`.
    ///
    /// # Panics
    /// Panics if the schema is invalid (empty or duplicate names); use
    /// [`TableBuilder::try_new`] to handle that as an error.
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        Self::try_new(columns).expect("invalid schema")
    }

    /// Fallible constructor.
    pub fn try_new(columns: Vec<ColumnDef>) -> Result<Self, StorageError> {
        let schema = Schema::new(columns)?;
        let staged = schema.columns().iter().map(StagedColumn::new).collect();
        let dictionaries = schema
            .columns()
            .iter()
            .map(|c| {
                if c.ty == ColumnType::Categorical {
                    Some(Dictionary::new())
                } else {
                    None
                }
            })
            .collect();
        let zones = schema
            .columns()
            .iter()
            .map(|c| ZoneBuilder::new(c.ty))
            .collect();
        Ok(TableBuilder {
            schema,
            staged,
            dictionaries,
            num_rows: 0,
            partition_rows: DEFAULT_PARTITION_ROWS,
            zones,
            partitions: Vec::new(),
            partition_start: 0,
        })
    }

    /// Sets the partition sealing interval (rows per partition), clamped to
    /// at least 1. Must be configured before the first row is pushed so
    /// every partition has the same nominal size.
    ///
    /// # Panics
    /// Panics if rows have already been staged.
    pub fn with_partition_rows(mut self, rows: usize) -> Self {
        assert_eq!(
            self.num_rows, 0,
            "partition size must be set before rows are pushed"
        );
        self.partition_rows = rows.max(1);
        self
    }

    /// The schema under construction.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows staged so far.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Appends one row. Values must match the schema's arity and types;
    /// `Value::Null` is accepted in any column.
    pub fn push_row(&mut self, row: &[Value]) -> Result<(), StorageError> {
        if row.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        // Validate all values before mutating any column so a failed push
        // leaves the builder unchanged.
        for (i, value) in row.iter().enumerate() {
            let def = &self.schema.columns()[i];
            let ok = matches!(
                (def.ty, value),
                (_, Value::Null)
                    | (ColumnType::Int64, Value::Int(_))
                    | (ColumnType::Float64, Value::Float(_))
                    | (ColumnType::Float64, Value::Int(_))
                    | (ColumnType::Categorical, Value::Str(_))
                    | (ColumnType::Bool, Value::Bool(_))
            );
            if !ok {
                return Err(StorageError::TypeMismatch {
                    column: def.name.clone(),
                    expected: def.ty.name(),
                    got: value.type_name(),
                });
            }
        }
        for (i, value) in row.iter().enumerate() {
            let staged = &mut self.staged[i];
            let zone = &mut self.zones[i];
            // (distinct identity, numeric view) of the stored value.
            let (identity, numeric) = match (value, &mut staged.data) {
                (Value::Null, _) => {
                    staged.push_null();
                    zone.observe_null();
                    continue;
                }
                (Value::Int(v), ColumnData::Int64(vec)) => {
                    vec.push(*v);
                    (Cell::Int(*v).group_code(), *v as f64)
                }
                // Int literals are accepted into float columns.
                (Value::Int(v), ColumnData::Float64(vec)) => {
                    vec.push(*v as f64);
                    ((*v as f64).to_bits(), *v as f64)
                }
                (Value::Float(v), ColumnData::Float64(vec)) => {
                    vec.push(*v);
                    (v.to_bits(), *v)
                }
                (Value::Str(s), ColumnData::Categorical(vec)) => {
                    let dict = self.dictionaries[i].as_mut().expect("categorical column");
                    let code = dict.intern(s);
                    vec.push(code);
                    (code as u64, code as f64)
                }
                (Value::Bool(b), ColumnData::Bool(bits)) => {
                    bits.push(*b);
                    (*b as u64, if *b { 1.0 } else { 0.0 })
                }
                _ => unreachable!("validated above"),
            };
            staged.validity.push(true);
            if let Some(set) = &mut staged.distinct {
                set.insert(identity);
            }
            if matches!(staged.data, ColumnData::Int64(_) | ColumnData::Float64(_)) {
                staged.observe_numeric(numeric);
            }
            zone.observe(numeric);
        }
        self.num_rows += 1;
        if self.num_rows - self.partition_start >= self.partition_rows {
            self.seal_partition();
        }
        Ok(())
    }

    /// Seals the partition currently being filled (rows
    /// `partition_start..num_rows`) and starts a new one.
    fn seal_partition(&mut self) {
        debug_assert!(self.num_rows > self.partition_start);
        self.partitions.push(Partition {
            rows: self.partition_start..self.num_rows,
            zones: self.zones.iter_mut().map(ZoneBuilder::seal).collect(),
        });
        self.partition_start = self.num_rows;
    }

    /// Seals the trailing partial partition (if any) and returns the full
    /// partition directory.
    fn finish_partitions(&mut self) -> Vec<Partition> {
        if self.num_rows > self.partition_start {
            self.seal_partition();
        }
        std::mem::take(&mut self.partitions)
    }

    /// Build-time statistics of every column, in schema order.
    fn column_stats(&self) -> Vec<ColumnStats> {
        self.schema
            .columns()
            .iter()
            .zip(&self.staged)
            .zip(&self.dictionaries)
            .map(|((def, staged), dict)| staged.stats(def, dict.as_ref()))
            .collect()
    }

    /// Materializes the staged data as the requested layout.
    pub fn build(self, kind: StoreKind) -> Result<BoxedTable, StorageError> {
        match kind {
            StoreKind::Row => Ok(Arc::new(self.build_row_store()?)),
            StoreKind::Column => Ok(Arc::new(self.build_column_store()?)),
        }
    }

    /// Materializes a [`ColumnStore`].
    pub fn build_column_store(mut self) -> Result<ColumnStore, StorageError> {
        let partitions = self.finish_partitions();
        let stats = self.column_stats();
        let columns: Vec<Column> = self
            .staged
            .into_iter()
            .map(|s| Column::with_validity(s.data, s.validity))
            .collect();
        Ok(ColumnStore::from_parts(
            self.schema,
            columns,
            self.dictionaries,
            stats,
            partitions,
        ))
    }

    /// Materializes a [`RowStore`] by packing the staged columns row-wise.
    pub fn build_row_store(mut self) -> Result<RowStore, StorageError> {
        let partitions = self.finish_partitions();
        let stats = self.column_stats();
        let (stride, null_bytes) = RowStore::layout(&self.schema);
        let mut data = vec![0u8; self.num_rows * stride];
        for (col_idx, staged) in self.staged.iter().enumerate() {
            for row in 0..self.num_rows {
                let base = row * stride;
                if staged.validity.get(row) {
                    data[base + col_idx / 8] |= 1 << (col_idx % 8);
                    let payload = encode_payload(&staged.data.raw_cell(row));
                    let off = base + null_bytes + col_idx * 8;
                    data[off..off + 8].copy_from_slice(&payload.to_le_bytes());
                }
            }
        }
        Ok(RowStore::from_parts(
            self.schema,
            data,
            self.num_rows,
            self.dictionaries,
            stats,
            partitions,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn defs() -> Vec<ColumnDef> {
        vec![
            ColumnDef::dim("cat"),
            ColumnDef::new("i", ColumnType::Int64, ColumnRole::Measure),
            ColumnDef::new("f", ColumnType::Float64, ColumnRole::Measure),
            ColumnDef::new("b", ColumnType::Bool, ColumnRole::Dimension),
        ]
    }

    #[test]
    fn arity_mismatch_rejected_without_mutation() {
        let mut b = TableBuilder::new(defs());
        let err = b.push_row(&[Value::str("x")]).unwrap_err();
        assert!(matches!(
            err,
            StorageError::ArityMismatch {
                expected: 4,
                got: 1
            }
        ));
        assert_eq!(b.num_rows(), 0);
    }

    #[test]
    fn type_mismatch_rejected_without_partial_write() {
        let mut b = TableBuilder::new(defs());
        // Third value has the wrong type; the first two must NOT be staged.
        let err = b
            .push_row(&[
                Value::str("x"),
                Value::Int(1),
                Value::str("oops"),
                Value::Bool(true),
            ])
            .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
        assert_eq!(b.num_rows(), 0);
        // A subsequent valid push works and the table is consistent.
        b.push_row(&[
            Value::str("x"),
            Value::Int(1),
            Value::Float(1.0),
            Value::Bool(true),
        ])
        .unwrap();
        let t = b.build_column_store().unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn int_literals_coerce_into_float_columns() {
        let mut b = TableBuilder::new(vec![ColumnDef::measure("f")]);
        b.push_row(&[Value::Int(3)]).unwrap();
        let t = b.build_column_store().unwrap();
        assert_eq!(t.cell(0, crate::ColumnId(0)), Cell::Float(3.0));
    }

    #[test]
    fn both_layouts_agree_cell_for_cell() {
        let rows = vec![
            vec![
                Value::str("a"),
                Value::Int(1),
                Value::Float(0.1),
                Value::Bool(true),
            ],
            vec![Value::str("b"), Value::Null, Value::Float(0.2), Value::Null],
            vec![
                Value::str("a"),
                Value::Int(3),
                Value::Null,
                Value::Bool(false),
            ],
        ];
        let mut b1 = TableBuilder::new(defs());
        let mut b2 = TableBuilder::new(defs());
        for r in &rows {
            b1.push_row(r).unwrap();
            b2.push_row(r).unwrap();
        }
        let row_t = b1.build_row_store().unwrap();
        let col_t = b2.build_column_store().unwrap();
        assert_eq!(row_t.num_rows(), col_t.num_rows());
        for row in 0..rows.len() {
            for col in 0..defs().len() {
                let id = crate::ColumnId(col as u32);
                assert_eq!(
                    row_t.cell(row, id),
                    col_t.cell(row, id),
                    "mismatch at ({row},{col})"
                );
            }
        }
    }

    #[test]
    fn build_boxed_dispatches_kind() {
        let mut b = TableBuilder::new(defs());
        b.push_row(&[
            Value::str("a"),
            Value::Int(1),
            Value::Float(0.1),
            Value::Bool(true),
        ])
        .unwrap();
        let t = b.build(StoreKind::Row).unwrap();
        assert_eq!(t.kind(), StoreKind::Row);
    }

    #[test]
    fn stats_track_distinct_and_nulls() {
        let mut b = TableBuilder::new(defs());
        for (s, i) in [("a", 1), ("b", 2), ("a", 2)] {
            b.push_row(&[Value::str(s), Value::Int(i), Value::Null, Value::Null])
                .unwrap();
        }
        let t = b.build_column_store().unwrap();
        let stats = |c: u32| t.stats(crate::ColumnId(c));
        // Dimensions count distinct values: the categorical one from its
        // dictionary, the Bool one (all NULL here) from its own set.
        assert_eq!(stats(0).distinct, Some(2));
        assert_eq!(stats(3).distinct, Some(0));
        assert_eq!(t.distinct_count(crate::ColumnId(3)), 1);
        // Measures count none, but keep NULL counts and min/max.
        assert_eq!(stats(1).distinct, None);
        assert_eq!((stats(1).min, stats(1).max), (Some(1.0), Some(2.0)));
        assert_eq!(stats(2).null_count, 3);
        assert_eq!(stats(2).distinct, None);
    }

    #[test]
    fn integral_float_column_builds_as_fast_as_int_column() {
        // 200k distinct integer-valued floats in a dimension (the only
        // non-categorical column that keeps a `DistinctSet`): every bit
        // pattern ends in 30+ zero bits. Hashed raw through Fx they collapse
        // into a few buckets and the build goes quadratic (tens of seconds
        // here); folded first it costs what the Int64 twin costs.
        const ROWS: i64 = 200_000;
        let build = |ty: ColumnType, value: fn(i64) -> Value| {
            let started = std::time::Instant::now();
            let mut b = TableBuilder::new(vec![ColumnDef::new("x", ty, ColumnRole::Dimension)]);
            for i in 0..ROWS {
                b.push_row(&[value(i)]).unwrap();
            }
            let table = b.build_column_store().unwrap();
            (table, started.elapsed())
        };
        let (as_int, int_time) = build(ColumnType::Int64, Value::Int);
        let (as_float, float_time) = build(ColumnType::Float64, |i| Value::Float(i as f64));
        let (int_stats, float_stats) = (
            as_int.stats(crate::ColumnId(0)),
            as_float.stats(crate::ColumnId(0)),
        );
        assert_eq!(float_stats.distinct, Some(ROWS as usize));
        assert_eq!(float_stats.distinct, int_stats.distinct);
        assert_eq!(float_stats.min, int_stats.min);
        assert_eq!(float_stats.max, int_stats.max);
        assert!(
            float_time < int_time * 5 + std::time::Duration::from_millis(200),
            "Float64 build {float_time:?} vs Int64 build {int_time:?}"
        );
    }

    #[test]
    fn try_new_surfaces_schema_errors() {
        assert!(TableBuilder::try_new(vec![]).is_err());
        assert!(TableBuilder::try_new(vec![ColumnDef::dim("a"), ColumnDef::dim("a")]).is_err());
    }

    #[test]
    fn partitions_seal_at_configured_interval() {
        for kind in [StoreKind::Row, StoreKind::Column] {
            let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")])
                .with_partition_rows(4);
            for i in 0..10 {
                b.push_row(&[Value::str(format!("v{}", i % 3)), Value::Float(i as f64)])
                    .unwrap();
            }
            let t = b.build(kind).unwrap();
            let parts = t.partitions();
            assert_eq!(parts.len(), 3); // 4 + 4 + 2 (trailing partial)
            assert_eq!(parts[0].rows, 0..4);
            assert_eq!(parts[1].rows, 4..8);
            assert_eq!(parts[2].rows, 8..10);
            // Zone maps reflect each partition's slice, not the table.
            let m = crate::ColumnId(1);
            assert_eq!(parts[0].zone(m).unwrap().min, Some(0.0));
            assert_eq!(parts[0].zone(m).unwrap().max, Some(3.0));
            assert_eq!(parts[2].zone(m).unwrap().min, Some(8.0));
            assert_eq!(parts[2].zone(m).unwrap().rows, 2);
            // Categorical zones bound dictionary codes per partition.
            let d = parts[0].zone(crate::ColumnId(0)).unwrap();
            assert_eq!((d.min, d.max), (Some(0.0), Some(2.0)));
        }
    }

    #[test]
    fn whole_table_fits_one_partition_by_default() {
        let mut b = TableBuilder::new(vec![ColumnDef::measure("m")]);
        for i in 0..100 {
            b.push_row(&[Value::Float(i as f64)]).unwrap();
        }
        let t = b.build_column_store().unwrap();
        let parts = <ColumnStore as crate::Table>::partitions(&t);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].rows, 0..100);
    }

    #[test]
    fn empty_table_has_no_partitions() {
        let b = TableBuilder::new(vec![ColumnDef::dim("d")]);
        let t = b.build(StoreKind::Column).unwrap();
        assert!(t.partitions().is_empty());
    }

    #[test]
    fn zone_null_counts_are_per_partition() {
        let mut b = TableBuilder::new(vec![ColumnDef::measure("m")]).with_partition_rows(2);
        b.push_row(&[Value::Null]).unwrap();
        b.push_row(&[Value::Null]).unwrap();
        b.push_row(&[Value::Float(1.0)]).unwrap();
        let t = b.build(StoreKind::Row).unwrap();
        let parts = t.partitions();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].zone(crate::ColumnId(0)).unwrap().null_count, 2);
        assert_eq!(parts[0].zone(crate::ColumnId(0)).unwrap().min, None);
        assert_eq!(parts[1].zone(crate::ColumnId(0)).unwrap().null_count, 0);
    }
}
