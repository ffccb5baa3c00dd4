//! Per-partition zone maps: small-footprint column summaries that let a
//! scan prove "no row in this partition can match" without touching the
//! partition's rows.
//!
//! A [`ColumnZone`] summarizes one column over one partition: row count,
//! NULL count, NaN count, and the min/max of the column's numeric view (integers and booleans widen to `f64`, categorical
//! values use their dictionary code — exactly the domain row-level
//! predicates compare in, so interval reasoning over a zone is sound by
//! construction).
//!
//! Zone verdicts are tri-state ([`ZoneMatch`]): a predicate either matches
//! **no** row of the partition (`Never`), **every** row (`Always`), or the
//! zone cannot decide (`Maybe`). `Never`/`Always` are hard guarantees —
//! the planner prunes partitions only on `Never`, and `Always` exists so
//! negation stays exact (`NOT always` = `never`). `Maybe` is always a safe
//! answer.
//!
//! NULL and NaN handling mirror the engine's row-level semantics: SQL
//! comparisons against NULL are false (so NULL rows can never satisfy a
//! comparison, only `IS NULL`), `NaN` fails every comparison except `<>`,
//! and min/max never include NULL or NaN (they are counted separately).

use crate::schema::ColumnType;

/// Tri-state verdict of a zone-map check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneMatch {
    /// No row in the partition can satisfy the predicate.
    Never,
    /// The zone cannot decide; the partition must be scanned.
    Maybe,
    /// Every row in the partition satisfies the predicate.
    Always,
}

impl ZoneMatch {
    /// Conjunction: `Never` dominates, `Always` requires both sides.
    #[inline]
    pub fn and(self, other: ZoneMatch) -> ZoneMatch {
        match (self, other) {
            (ZoneMatch::Never, _) | (_, ZoneMatch::Never) => ZoneMatch::Never,
            (ZoneMatch::Always, ZoneMatch::Always) => ZoneMatch::Always,
            _ => ZoneMatch::Maybe,
        }
    }

    /// Disjunction: `Always` dominates, `Never` requires both sides.
    #[inline]
    pub fn or(self, other: ZoneMatch) -> ZoneMatch {
        match (self, other) {
            (ZoneMatch::Always, _) | (_, ZoneMatch::Always) => ZoneMatch::Always,
            (ZoneMatch::Never, ZoneMatch::Never) => ZoneMatch::Never,
            _ => ZoneMatch::Maybe,
        }
    }

    /// Negation: swaps the two certain verdicts, keeps `Maybe`.
    #[inline]
    pub fn negate(self) -> ZoneMatch {
        match self {
            ZoneMatch::Never => ZoneMatch::Always,
            ZoneMatch::Maybe => ZoneMatch::Maybe,
            ZoneMatch::Always => ZoneMatch::Never,
        }
    }
}

/// Zone-map summary of one column over one partition.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnZone {
    /// The column's declared type (verdicts about typed predicates need it).
    pub ty: ColumnType,
    /// Rows in the partition (NULLs included).
    pub rows: usize,
    /// NULL rows.
    pub null_count: usize,
    /// Non-NULL `NaN` rows (only ever non-zero for `Float64` columns).
    /// Tracked separately because NaN fails every comparison except `<>`
    /// and is excluded from `min`/`max`.
    pub nan_count: usize,
    /// Minimum of the column's numeric view over non-NULL, non-NaN rows
    /// (`None` when there are none).
    pub min: Option<f64>,
    /// Maximum of the column's numeric view over non-NULL, non-NaN rows.
    pub max: Option<f64>,
}

impl ColumnZone {
    /// Count of rows that are neither NULL nor NaN — the rows covered by
    /// the `[min, max]` interval.
    #[inline]
    fn interval_rows(&self) -> usize {
        self.rows - self.null_count - self.nan_count
    }

    /// Verdict for `column IS NULL`.
    pub fn match_is_null(&self) -> ZoneMatch {
        if self.null_count == 0 {
            ZoneMatch::Never
        } else if self.null_count == self.rows {
            ZoneMatch::Always
        } else {
            ZoneMatch::Maybe
        }
    }

    /// Verdict for `column = value` on the numeric view.
    ///
    /// NULL rows never match; NaN rows never match; `value = NaN` matches
    /// nothing.
    pub fn match_eq(&self, value: f64) -> ZoneMatch {
        if value.is_nan() || self.interval_rows() == 0 {
            return ZoneMatch::Never;
        }
        let (min, max) = (self.min.unwrap(), self.max.unwrap());
        if value < min || value > max {
            return ZoneMatch::Never;
        }
        if self.null_count == 0 && self.nan_count == 0 && min == max && min == value {
            return ZoneMatch::Always;
        }
        ZoneMatch::Maybe
    }

    /// Verdict for `column <> value` on the numeric view.
    ///
    /// NULL rows never match; NaN rows **always** match (`NaN <> x` is
    /// true); `value = NaN` is matched by every non-NULL row.
    pub fn match_ne(&self, value: f64) -> ZoneMatch {
        if value.is_nan() {
            // Every non-NULL row satisfies `x <> NaN`.
            return if self.null_count == self.rows {
                ZoneMatch::Never
            } else if self.null_count == 0 {
                ZoneMatch::Always
            } else {
                ZoneMatch::Maybe
            };
        }
        let all_interval_eq = match (self.min, self.max) {
            (Some(min), Some(max)) => min == max && min == value,
            // No interval rows: vacuously "all equal".
            _ => true,
        };
        if self.nan_count == 0 && all_interval_eq {
            // Every non-NULL row equals `value` (or there are none): no
            // row matches `<>`.
            return ZoneMatch::Never;
        }
        let no_interval_eq = match (self.min, self.max) {
            (Some(min), Some(max)) => value < min || value > max,
            _ => true,
        };
        if self.null_count == 0 && no_interval_eq {
            // Interval rows all differ from `value`, NaN rows always match.
            return ZoneMatch::Always;
        }
        ZoneMatch::Maybe
    }

    /// Verdict for `column < value` on the numeric view.
    pub fn match_lt(&self, value: f64) -> ZoneMatch {
        self.match_interval(value, |min, _max, v| min < v, |_min, max, v| max < v)
    }

    /// Verdict for `column <= value` on the numeric view.
    pub fn match_le(&self, value: f64) -> ZoneMatch {
        self.match_interval(value, |min, _max, v| min <= v, |_min, max, v| max <= v)
    }

    /// Verdict for `column > value` on the numeric view.
    pub fn match_gt(&self, value: f64) -> ZoneMatch {
        self.match_interval(value, |_min, max, v| max > v, |min, _max, v| min > v)
    }

    /// Verdict for `column >= value` on the numeric view.
    pub fn match_ge(&self, value: f64) -> ZoneMatch {
        self.match_interval(value, |_min, max, v| max >= v, |min, _max, v| min >= v)
    }

    /// Shared shape of the four ordering comparisons: `some` decides whether
    /// *any* interval row can match, `all` whether *every* interval row
    /// must. NULL and NaN rows never satisfy an ordering comparison, so
    /// `Always` additionally requires the partition to contain neither.
    fn match_interval(
        &self,
        value: f64,
        some: impl Fn(f64, f64, f64) -> bool,
        all: impl Fn(f64, f64, f64) -> bool,
    ) -> ZoneMatch {
        if value.is_nan() || self.interval_rows() == 0 {
            return ZoneMatch::Never;
        }
        let (min, max) = (self.min.unwrap(), self.max.unwrap());
        if !some(min, max, value) {
            return ZoneMatch::Never;
        }
        if self.null_count == 0 && self.nan_count == 0 && all(min, max, value) {
            return ZoneMatch::Always;
        }
        ZoneMatch::Maybe
    }
}

/// Incremental [`ColumnZone`] accumulator used by the table builder: one
/// per column, reset at each partition boundary.
#[derive(Debug)]
pub struct ZoneBuilder {
    ty: ColumnType,
    rows: usize,
    null_count: usize,
    nan_count: usize,
    min: Option<f64>,
    max: Option<f64>,
}

impl ZoneBuilder {
    /// Fresh accumulator for a column of type `ty`.
    pub fn new(ty: ColumnType) -> Self {
        ZoneBuilder {
            ty,
            rows: 0,
            null_count: 0,
            nan_count: 0,
            min: None,
            max: None,
        }
    }

    /// Records a NULL row.
    pub fn observe_null(&mut self) {
        self.rows += 1;
        self.null_count += 1;
    }

    /// Records a non-NULL row by its numeric view (the same view row-level
    /// predicates compare in: code for categoricals, 0/1 for booleans).
    pub fn observe(&mut self, numeric: f64) {
        self.rows += 1;
        if numeric.is_nan() {
            self.nan_count += 1;
        } else {
            self.min = Some(self.min.map_or(numeric, |m| m.min(numeric)));
            self.max = Some(self.max.map_or(numeric, |m| m.max(numeric)));
        }
    }

    /// Seals the accumulated state into a [`ColumnZone`] and resets the
    /// accumulator for the next partition.
    pub fn seal(&mut self) -> ColumnZone {
        let zone = ColumnZone {
            ty: self.ty,
            rows: self.rows,
            null_count: self.null_count,
            nan_count: self.nan_count,
            min: self.min,
            max: self.max,
        };
        self.rows = 0;
        self.null_count = 0;
        self.nan_count = 0;
        self.min = None;
        self.max = None;
        zone
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone(values: &[f64], nulls: usize) -> ColumnZone {
        let mut b = ZoneBuilder::new(ColumnType::Float64);
        for &v in values {
            b.observe(v);
        }
        for _ in 0..nulls {
            b.observe_null();
        }
        b.seal()
    }

    #[test]
    fn tri_state_algebra() {
        use ZoneMatch::*;
        assert_eq!(Never.and(Always), Never);
        assert_eq!(Always.and(Always), Always);
        assert_eq!(Maybe.and(Always), Maybe);
        assert_eq!(Always.or(Never), Always);
        assert_eq!(Never.or(Never), Never);
        assert_eq!(Maybe.or(Never), Maybe);
        assert_eq!(Never.negate(), Always);
        assert_eq!(Always.negate(), Never);
        assert_eq!(Maybe.negate(), Maybe);
    }

    #[test]
    fn eq_interval_reasoning() {
        let z = zone(&[1.0, 5.0, 3.0], 0);
        assert_eq!(z.match_eq(0.5), ZoneMatch::Never);
        assert_eq!(z.match_eq(6.0), ZoneMatch::Never);
        assert_eq!(z.match_eq(3.0), ZoneMatch::Maybe);
        let constant = zone(&[2.0, 2.0], 0);
        assert_eq!(constant.match_eq(2.0), ZoneMatch::Always);
        let with_null = zone(&[2.0], 1);
        assert_eq!(with_null.match_eq(2.0), ZoneMatch::Maybe);
    }

    #[test]
    fn ne_requires_nan_awareness() {
        let constant = zone(&[2.0, 2.0], 0);
        assert_eq!(constant.match_ne(2.0), ZoneMatch::Never);
        assert_eq!(constant.match_ne(9.0), ZoneMatch::Always);
        // A NaN row *does* satisfy `<> 2.0`, so Never must not fire.
        let with_nan = zone(&[2.0, f64::NAN], 0);
        assert_eq!(with_nan.match_ne(2.0), ZoneMatch::Maybe);
        // NULL rows never match `<>`.
        let with_null = zone(&[9.0], 1);
        assert_eq!(with_null.match_ne(2.0), ZoneMatch::Maybe);
    }

    #[test]
    fn ordering_comparisons() {
        let z = zone(&[10.0, 20.0], 0);
        assert_eq!(z.match_lt(10.0), ZoneMatch::Never);
        assert_eq!(z.match_lt(15.0), ZoneMatch::Maybe);
        assert_eq!(z.match_lt(25.0), ZoneMatch::Always);
        assert_eq!(z.match_le(9.0), ZoneMatch::Never);
        assert_eq!(z.match_le(20.0), ZoneMatch::Always);
        assert_eq!(z.match_gt(20.0), ZoneMatch::Never);
        assert_eq!(z.match_gt(5.0), ZoneMatch::Always);
        assert_eq!(z.match_ge(21.0), ZoneMatch::Never);
        assert_eq!(z.match_ge(10.0), ZoneMatch::Always);
    }

    #[test]
    fn nan_value_and_nan_rows() {
        let z = zone(&[1.0, 2.0], 0);
        assert_eq!(z.match_eq(f64::NAN), ZoneMatch::Never);
        assert_eq!(z.match_lt(f64::NAN), ZoneMatch::Never);
        // Every non-NULL row satisfies `<> NaN`.
        assert_eq!(z.match_ne(f64::NAN), ZoneMatch::Always);
        // NaN rows block Always for ordering comparisons.
        let with_nan = zone(&[1.0, f64::NAN], 0);
        assert_eq!(with_nan.match_lt(5.0), ZoneMatch::Maybe);
        assert_eq!(with_nan.nan_count, 1);
    }

    #[test]
    fn all_null_partition() {
        let z = zone(&[], 3);
        assert_eq!(z.match_is_null(), ZoneMatch::Always);
        assert_eq!(z.match_eq(0.0), ZoneMatch::Never);
        assert_eq!(z.match_lt(0.0), ZoneMatch::Never);
        assert_eq!(z.match_ne(0.0), ZoneMatch::Never);
        let mixed = zone(&[1.0], 1);
        assert_eq!(mixed.match_is_null(), ZoneMatch::Maybe);
        let no_null = zone(&[1.0], 0);
        assert_eq!(no_null.match_is_null(), ZoneMatch::Never);
    }

    #[test]
    fn builder_resets_between_partitions() {
        let mut b = ZoneBuilder::new(ColumnType::Float64);
        b.observe(1.0);
        b.observe_null();
        let first = b.seal();
        assert_eq!(first.rows, 2);
        assert_eq!(first.null_count, 1);
        assert_eq!((first.min, first.max), (Some(1.0), Some(1.0)));
        b.observe(7.0);
        let second = b.seal();
        assert_eq!(second.rows, 1);
        assert_eq!(second.null_count, 0);
        assert_eq!(second.min, Some(7.0));
    }

    #[test]
    fn negative_zero_equality_is_sound() {
        // -0.0 == 0.0 in f64 comparison, and row-level predicates compare
        // with ==, so an all-negative-zero partition must answer Always
        // for `= 0.0` and Never for `<> 0.0`.
        let z = zone(&[-0.0, -0.0], 0);
        assert_eq!(z.match_eq(0.0), ZoneMatch::Always);
        assert_eq!(z.match_ne(0.0), ZoneMatch::Never);
    }
}
