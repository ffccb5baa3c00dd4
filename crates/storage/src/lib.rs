//! # seedb-storage
//!
//! In-memory storage substrate for the SeeDB reproduction.
//!
//! The SeeDB paper (Vartak et al., VLDB 2015) evaluates its middleware on a
//! row-oriented DBMS (`ROW`, PostgreSQL in the paper) and a column-oriented
//! DBMS (`COL`, a commercial column store). This crate provides both layouts
//! behind the common [`Table`] trait:
//!
//! * [`RowStore`] — rows are packed contiguously into a byte buffer with a
//!   fixed stride. A scan that projects two columns out of thirty still walks
//!   the full row stride, so memory traffic is proportional to the *row*
//!   width. This mirrors the access pattern of a row-oriented DBMS.
//! * [`ColumnStore`] — each column is a dense, typed vector (with optional
//!   validity bitmap). A scan touches only the projected columns, so memory
//!   traffic is proportional to the *projection* width.
//!
//! Categorical data is dictionary-encoded per column ([`Dictionary`]), which
//! both compresses storage and gives the engine cheap distinct-value counts
//! for its memory-budget planning (Problem 4.1 in the paper).
//!
//! Scans come in two granularities: the row-at-a-time
//! [`Table::scan_range`] (a visitor call per row with a [`Cell`] slice) and
//! the batched [`Table::scan_batches`], which yields fixed-size
//! [`Batch`]es of typed per-column slices (dictionary codes for
//! categoricals, raw `i64`/`f64` for numerics). The column store serves
//! batches zero-copy from its column vectors; the row store materializes
//! them as a fallback. The batched form is what the engine's vectorized
//! execution mode runs on.
//!
//! ## Quick example
//!
//! ```
//! use seedb_storage::{ColumnDef, ColumnRole, ColumnType, StoreKind, TableBuilder, Value};
//!
//! let mut b = TableBuilder::new(vec![
//!     ColumnDef::new("sex", ColumnType::Categorical, ColumnRole::Dimension),
//!     ColumnDef::new("capital_gain", ColumnType::Float64, ColumnRole::Measure),
//! ]);
//! b.push_row(&[Value::str("F"), Value::Float(510.0)]).unwrap();
//! b.push_row(&[Value::str("M"), Value::Float(485.0)]).unwrap();
//! let table = b.build(StoreKind::Column).unwrap();
//! assert_eq!(table.num_rows(), 2);
//! ```

#![forbid(unsafe_code)]

mod batch;
mod bitmap;
mod builder;
mod column;
mod column_store;
mod dictionary;
mod error;
mod partition;
mod row_store;
mod schema;
mod table;
mod value;
mod zonemap;

pub use batch::{
    morsel_ranges, Batch, BatchColumn, BatchData, DEFAULT_BATCH_SIZE, DEFAULT_MORSEL_ROWS,
};
pub use bitmap::Bitmap;
pub use builder::TableBuilder;
pub use column::{Column, ColumnData};
pub use column_store::ColumnStore;
pub use dictionary::Dictionary;
pub use error::StorageError;
pub use partition::{Partition, DEFAULT_PARTITION_ROWS};
pub use row_store::RowStore;
pub use schema::{ColumnDef, ColumnId, ColumnRole, ColumnStats, ColumnType, Schema};
pub use table::{BoxedTable, StoreKind, Table};
pub use value::{Cell, Value};
pub use zonemap::{ColumnZone, ZoneBuilder, ZoneMatch};
