//! Query specifications the engine executes.
//!
//! A [`CombinedQuery`] is the engine-level representation of one SQL view
//! query *after* the sharing optimizer has (possibly) merged several SeeDB
//! views into it: it may carry multiple aggregates, multiple group-by
//! attributes, and a target/reference split — each corresponding to one of
//! §4.1's rewrites. The unoptimized baseline simply issues many
//! `CombinedQuery`s with one aggregate, one group-by and a `TargetOnly`
//! split, which is exactly the paper's 2·f·a·m query explosion.

use crate::expr::Predicate;
use seedb_storage::ColumnId;

use crate::agg::AggFunc;

/// One aggregate to compute: `func(measure)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// Aggregate function.
    pub func: AggFunc,
    /// Measure column.
    pub measure: ColumnId,
}

impl AggSpec {
    /// Creates an aggregate spec.
    pub fn new(func: AggFunc, measure: ColumnId) -> Self {
        AggSpec { func, measure }
    }
}

/// How scanned rows are classified into target and reference datasets.
///
/// §2 of the paper: the reference `D_R` may be the entire dataset `D`
/// (default), the complement `D − D_Q`, or the result of an arbitrary
/// query `Q'`.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitSpec {
    /// Target = rows matching the predicate; reference = **all** rows
    /// (`D_R = D`, the paper's default). Target rows count on both sides.
    TargetVsAll(Predicate),
    /// Target = rows matching; reference = rows not matching
    /// (`D_R = D − D_Q`).
    TargetVsComplement(Predicate),
    /// Target and reference each defined by their own predicate
    /// (`D_R = D_{Q'}`).
    TargetVsQuery {
        /// Target selection (the user's query `Q`).
        target: Predicate,
        /// Reference selection (`Q'`).
        reference: Predicate,
    },
    /// Only the target side is populated. Used by the unoptimized baseline,
    /// which issues separate SQL queries for target and reference views.
    TargetOnly(Predicate),
}

impl SplitSpec {
    /// Every predicate involved (for projection planning).
    pub fn predicates(&self) -> Vec<&Predicate> {
        match self {
            SplitSpec::TargetVsAll(p)
            | SplitSpec::TargetVsComplement(p)
            | SplitSpec::TargetOnly(p) => vec![p],
            SplitSpec::TargetVsQuery { target, reference } => vec![target, reference],
        }
    }
}

/// A single engine query: scan once, group, aggregate, split.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedQuery {
    /// Grouping attributes (≥ 1; > 1 when the combine-group-by optimization
    /// merged several views).
    pub group_by: Vec<ColumnId>,
    /// Aggregates to maintain per group (≥ 1; > 1 when the combine-aggregates
    /// optimization merged several views).
    pub aggregates: Vec<AggSpec>,
    /// Optional scan-wide filter applied before the split (models the
    /// select-project-join context of §2; `None` = whole table).
    pub filter: Option<Predicate>,
    /// Target/reference classification.
    pub split: SplitSpec,
}

impl CombinedQuery {
    /// A simple single-view query: `SELECT a, f(m) ... GROUP BY a` with the
    /// given split.
    pub fn single(dim: ColumnId, agg: AggSpec, split: SplitSpec) -> Self {
        CombinedQuery {
            group_by: vec![dim],
            aggregates: vec![agg],
            filter: None,
            split,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seedb_storage::{ColumnDef, ColumnRole, ColumnType, StoreKind, TableBuilder, Value};

    /// The target-side predicate.
    fn target_predicate(split: &SplitSpec) -> &Predicate {
        match split {
            SplitSpec::TargetVsAll(p)
            | SplitSpec::TargetVsComplement(p)
            | SplitSpec::TargetOnly(p) => p,
            SplitSpec::TargetVsQuery { target, .. } => target,
        }
    }

    /// Upper bound on the number of distinct groups `query` maintains,
    /// i.e. `∏ |a_i|` over its grouping attributes (§4.1's memory model),
    /// which must be dimensions: only they carry a distinct count.
    fn group_upper_bound(query: &CombinedQuery, table: &dyn seedb_storage::Table) -> usize {
        query
            .group_by
            .iter()
            .map(|c| table.distinct_count(*c))
            .fold(1usize, |acc, d| acc.saturating_mul(d))
    }

    #[test]
    fn split_exposes_predicates() {
        let p = Predicate::True;
        let q = Predicate::False;
        assert_eq!(SplitSpec::TargetVsAll(p.clone()).predicates().len(), 1);
        assert_eq!(
            SplitSpec::TargetVsQuery {
                target: p.clone(),
                reference: q.clone()
            }
            .predicates()
            .len(),
            2
        );
        assert_eq!(
            target_predicate(&SplitSpec::TargetVsQuery {
                target: p.clone(),
                reference: q
            }),
            &p
        );
    }

    #[test]
    fn single_query_shape() {
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Avg, ColumnId(1)),
            SplitSpec::TargetVsAll(Predicate::True),
        );
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.aggregates.len(), 1);
        assert!(q.filter.is_none());
    }

    #[test]
    fn group_upper_bound_multiplies_cardinalities() {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("a"),
            ColumnDef::dim("b"),
            ColumnDef::new("m", ColumnType::Float64, ColumnRole::Measure),
        ]);
        for (a, bb) in [("x", "1"), ("y", "2"), ("z", "1")] {
            b.push_row(&[Value::str(a), Value::str(bb), Value::Float(1.0)])
                .unwrap();
        }
        let t = b.build(StoreKind::Column).unwrap();
        let q = CombinedQuery {
            group_by: vec![ColumnId(0), ColumnId(1)],
            aggregates: vec![AggSpec::new(AggFunc::Count, ColumnId(2))],
            filter: None,
            split: SplitSpec::TargetVsAll(Predicate::True),
        };
        assert_eq!(group_upper_bound(&q, t.as_ref()), 6); // 3 * 2
    }
}
