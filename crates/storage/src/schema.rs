//! Table schema: column names, types, and SeeDB roles.
//!
//! SeeDB partitions a table's attributes into *dimension* attributes `A`
//! (eligible for GROUP BY) and *measure* attributes `M` (eligible for
//! aggregation). The role is declared per column here; the view generator in
//! `seedb-core` enumerates `A × M × F` from this metadata, exactly as the
//! paper's view generator reads DBMS metadata (§3).

use crate::error::StorageError;
use rustc_hash::FxHashMap;
use std::fmt;

/// Physical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integers.
    Int64,
    /// 64-bit floats.
    Float64,
    /// Dictionary-encoded strings.
    Categorical,
    /// Booleans.
    Bool,
}

impl ColumnType {
    /// Name used in error messages and schema printing.
    pub fn name(&self) -> &'static str {
        match self {
            ColumnType::Int64 => "Int64",
            ColumnType::Float64 => "Float64",
            ColumnType::Categorical => "Categorical",
            ColumnType::Bool => "Bool",
        }
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// SeeDB role of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnRole {
    /// Group-by candidate (`a ∈ A`).
    Dimension,
    /// Aggregation candidate (`m ∈ M`).
    Measure,
    /// Present in the table but excluded from view enumeration
    /// (e.g. primary keys, free-text fields).
    Ignore,
}

/// Identifier of a column within one table: its ordinal position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnId(pub u32);

impl ColumnId {
    /// The ordinal as a `usize` index.
    #[inline]
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ColumnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Declaration of a single column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unique within a schema).
    pub name: String,
    /// Physical type.
    pub ty: ColumnType,
    /// SeeDB role.
    pub role: ColumnRole,
}

impl ColumnDef {
    /// Creates a column definition.
    pub fn new(name: impl Into<String>, ty: ColumnType, role: ColumnRole) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            role,
        }
    }

    /// Shorthand for a categorical dimension.
    pub fn dim(name: impl Into<String>) -> Self {
        Self::new(name, ColumnType::Categorical, ColumnRole::Dimension)
    }

    /// Shorthand for a float measure.
    pub fn measure(name: impl Into<String>) -> Self {
        Self::new(name, ColumnType::Float64, ColumnRole::Measure)
    }
}

/// Per-column statistics collected at build time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ColumnStats {
    /// Number of distinct non-NULL values (`|a_i|` in the paper), counted
    /// for dimension columns only: `None` for measure and ignored columns.
    pub distinct: Option<usize>,
    /// Number of NULLs.
    pub null_count: usize,
    /// Minimum numeric value, if the column is numeric and non-empty.
    pub min: Option<f64>,
    /// Maximum numeric value, if the column is numeric and non-empty.
    pub max: Option<f64>,
}

/// An ordered collection of column definitions with by-name lookup.
#[derive(Debug, Clone)]
pub struct Schema {
    columns: Vec<ColumnDef>,
    by_name: FxHashMap<String, ColumnId>,
}

impl Schema {
    /// Builds a schema, validating non-emptiness and name uniqueness.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Self, StorageError> {
        if columns.is_empty() {
            return Err(StorageError::EmptySchema);
        }
        let mut by_name = FxHashMap::default();
        for (i, c) in columns.iter().enumerate() {
            if by_name.insert(c.name.clone(), ColumnId(i as u32)).is_some() {
                return Err(StorageError::DuplicateColumn(c.name.clone()));
            }
        }
        Ok(Schema { columns, by_name })
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns (never true for a built schema).
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The definition of column `id`. Panics if out of range.
    pub fn column(&self, id: ColumnId) -> &ColumnDef {
        &self.columns[id.index()]
    }

    /// All column definitions in ordinal order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Resolves a column by name.
    pub fn column_id(&self, name: &str) -> Option<ColumnId> {
        self.by_name.get(name).copied()
    }

    /// Resolves a column by name, or returns an [`StorageError::UnknownColumn`].
    pub fn require(&self, name: &str) -> Result<ColumnId, StorageError> {
        self.column_id(name)
            .ok_or_else(|| StorageError::UnknownColumn(name.to_owned()))
    }

    /// Ids of all dimension columns, in ordinal order.
    pub fn dimensions(&self) -> Vec<ColumnId> {
        self.ids_with_role(ColumnRole::Dimension)
    }

    /// Ids of all measure columns, in ordinal order.
    pub fn measures(&self) -> Vec<ColumnId> {
        self.ids_with_role(ColumnRole::Measure)
    }

    fn ids_with_role(&self, role: ColumnRole) -> Vec<ColumnId> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.role == role)
            .map(|(i, _)| ColumnId(i as u32))
            .collect()
    }

    /// Iterator over `(ColumnId, &ColumnDef)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ColumnId, &ColumnDef)> {
        self.columns
            .iter()
            .enumerate()
            .map(|(i, c)| (ColumnId(i as u32), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            ColumnDef::dim("sex"),
            ColumnDef::dim("race"),
            ColumnDef::measure("capital_gain"),
            ColumnDef::new("id", ColumnType::Int64, ColumnRole::Ignore),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_by_name_and_id() {
        let s = sample();
        let id = s.column_id("race").unwrap();
        assert_eq!(id, ColumnId(1));
        assert_eq!(s.column(id).name, "race");
        assert!(s.column_id("missing").is_none());
    }

    #[test]
    fn require_reports_unknown_column() {
        let s = sample();
        assert_eq!(
            s.require("nope"),
            Err(StorageError::UnknownColumn("nope".into()))
        );
        assert!(s.require("sex").is_ok());
    }

    #[test]
    fn roles_partition_columns() {
        let s = sample();
        assert_eq!(s.dimensions(), vec![ColumnId(0), ColumnId(1)]);
        assert_eq!(s.measures(), vec![ColumnId(2)]);
        // Ignore columns appear in neither.
        assert_eq!(s.dimensions().len() + s.measures().len(), 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![ColumnDef::dim("a"), ColumnDef::dim("a")]).unwrap_err();
        assert_eq!(err, StorageError::DuplicateColumn("a".into()));
    }

    #[test]
    fn empty_schema_rejected() {
        assert_eq!(Schema::new(vec![]).unwrap_err(), StorageError::EmptySchema);
    }

    #[test]
    fn column_type_display() {
        assert_eq!(ColumnType::Int64.to_string(), "Int64");
        assert_eq!(ColumnType::Categorical.to_string(), "Categorical");
    }

    #[test]
    fn iter_covers_all_columns_in_order() {
        let s = sample();
        let names: Vec<_> = s.iter().map(|(_, c)| c.name.clone()).collect();
        assert_eq!(names, vec!["sex", "race", "capital_gain", "id"]);
    }
}
