//! Zone-map partition pruning: skip whole segments before the morsel scan.
//!
//! A partition may be skipped for a query exactly when **no row in it can
//! contribute to the result**. The hash aggregation paths (scalar and
//! vectorized alike) create group entries only for rows that pass the
//! query's filter *and* land on at least one side of the split, so the
//! *contribution predicate* of a [`CombinedQuery`] is
//!
//! ```text
//! filter AND (target-side OR reference-side)
//! ```
//!
//! with the reference side of `TargetVsAll` / `TargetVsComplement` being
//! every row (`True`). [`zone_match`] evaluates an unbound [`Predicate`]
//! against a partition's [`ColumnZone`]s tri-state
//! ([`ZoneMatch::Never`] / `Maybe` / `Always`); a partition whose
//! contribution predicate is provably `Never` produces zero group entries
//! and zero accumulator updates, so skipping it leaves the aggregation
//! state — and therefore the final result — **bit-identical**.
//!
//! `Maybe` is always sound (the partition is scanned normally), so every
//! rule below only has to be conservative, never complete.

use crate::expr::{CmpOp, Predicate};
use crate::spec::{CombinedQuery, SplitSpec};
use seedb_storage::{morsel_ranges, ColumnId, ColumnType, ColumnZone, Table, ZoneMatch};
use std::ops::Range;

/// The predicate a row must satisfy to contribute to `query`'s result
/// (create or update a group on either side of the split).
pub fn contribution_predicate(query: &CombinedQuery) -> Predicate {
    let split = match &query.split {
        // Reference = all rows: every filtered row contributes.
        SplitSpec::TargetVsAll(_) => Predicate::True,
        // Target ∪ complement = all rows.
        SplitSpec::TargetVsComplement(_) => Predicate::True,
        SplitSpec::TargetVsQuery { target, reference } => {
            Predicate::Or(vec![target.clone(), reference.clone()])
        }
        SplitSpec::TargetOnly(p) => p.clone(),
    };
    match &query.filter {
        Some(f) => Predicate::And(vec![f.clone(), split]),
        None => split,
    }
}

/// Tri-state evaluation of an unbound predicate against one partition's
/// zone maps (`zones[col.index()]`, schema order). Columns without a zone
/// entry yield `Maybe`.
pub fn zone_match(pred: &Predicate, zones: &[ColumnZone]) -> ZoneMatch {
    let zone = |col: &ColumnId| zones.get(col.index());
    match pred {
        Predicate::True => ZoneMatch::Always,
        Predicate::False => ZoneMatch::Never,
        Predicate::CatEq { col, code } => match zone(col) {
            // A categorical equality can only match categorical cells.
            Some(z) if z.ty == ColumnType::Categorical => z.match_eq(*code as f64),
            Some(_) => ZoneMatch::Never,
            None => ZoneMatch::Maybe,
        },
        Predicate::CatIn { col, codes } => match zone(col) {
            Some(z) if z.ty == ColumnType::Categorical => codes
                .iter()
                .map(|c| z.match_eq(*c as f64))
                .fold(ZoneMatch::Never, ZoneMatch::or),
            Some(_) => ZoneMatch::Never,
            None => ZoneMatch::Maybe,
        },
        Predicate::BoolEq { col, value } => match zone(col) {
            Some(z) if z.ty == ColumnType::Bool => z.match_eq(if *value { 1.0 } else { 0.0 }),
            Some(_) => ZoneMatch::Never,
            None => ZoneMatch::Maybe,
        },
        Predicate::NumCmp { col, op, value } => match zone(col) {
            // `Cell::as_f64` yields None for categorical codes, so a
            // numeric comparison can never match a categorical column.
            Some(z) if z.ty == ColumnType::Categorical => ZoneMatch::Never,
            Some(z) => match op {
                CmpOp::Eq => z.match_eq(*value),
                CmpOp::Ne => z.match_ne(*value),
                CmpOp::Lt => z.match_lt(*value),
                CmpOp::Le => z.match_le(*value),
                CmpOp::Gt => z.match_gt(*value),
                CmpOp::Ge => z.match_ge(*value),
            },
            None => ZoneMatch::Maybe,
        },
        Predicate::IsNull { col } => match zone(col) {
            Some(z) => z.match_is_null(),
            None => ZoneMatch::Maybe,
        },
        Predicate::And(ps) => ps
            .iter()
            .map(|p| zone_match(p, zones))
            .fold(ZoneMatch::Always, ZoneMatch::and),
        Predicate::Or(ps) => ps
            .iter()
            .map(|p| zone_match(p, zones))
            .fold(ZoneMatch::Never, ZoneMatch::or),
        Predicate::Not(p) => zone_match(p, zones).negate(),
    }
}

/// A query's pruned scan plan over one row range: the morsels to scan and
/// the partition accounting for [`crate::ExecStats`].
#[derive(Debug)]
pub struct PrunedScan {
    /// Morsel ranges to scan, ascending: every run of adjacent surviving
    /// partitions, cut into steps of `morsel_rows`.
    pub morsels: Vec<Range<usize>>,
    /// Partitions (or pseudo-segments) that survived pruning.
    pub partitions_scanned: u64,
    /// Partitions skipped because no row in them can contribute.
    pub partitions_pruned: u64,
}

/// Plans `query`'s scan of rows `range`: walks the table's partition
/// directory, drops every partition whose zone maps prove the query's
/// contribution predicate can match no row, joins adjacent survivors into
/// runs, and cuts each run into morsels of at most `morsel_rows` rows.
/// Partition edges inside a run cut nothing: a range that straddles one (a
/// phase of the phased executor, typically) is one morsel — one worker
/// partial — when it fits, not one per partition piece. Tables without
/// partition metadata fall back to a single unpruned segment, making this
/// exactly the pre-partitioning plan.
pub fn pruned_scan(
    table: &dyn Table,
    query: &CombinedQuery,
    range: Range<usize>,
    morsel_rows: usize,
) -> PrunedScan {
    let contribution = contribution_predicate(query);
    let partitions = table.partitions();
    let mut plan = PrunedScan {
        morsels: Vec::new(),
        partitions_scanned: 0,
        partitions_pruned: 0,
    };
    // The run of adjacent surviving pieces not yet cut into morsels.
    let mut run = 0..0;
    for (idx, rows) in table.partition_ranges(range) {
        let prunable = partitions
            .get(idx)
            .is_some_and(|p| zone_match(&contribution, &p.zones) == ZoneMatch::Never);
        if prunable {
            plan.partitions_pruned += 1;
            continue;
        }
        plan.partitions_scanned += 1;
        if run.end == rows.start {
            run.end = rows.end;
        } else {
            plan.morsels.extend(morsel_ranges(run, morsel_rows));
            run = rows;
        }
    }
    plan.morsels.extend(morsel_ranges(run, morsel_rows));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::spec::AggSpec;
    use seedb_storage::{BoxedTable, ColumnDef, StoreKind, TableBuilder, Value};

    /// 40 rows, partition size 10; `m` is `0..40` sorted so zone intervals
    /// are [0,9], [10,19], [20,29], [30,39]; `d` cycles over two labels.
    fn sorted_table(kind: StoreKind) -> BoxedTable {
        let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")])
            .with_partition_rows(10);
        for i in 0..40 {
            b.push_row(&[
                Value::str(if i < 10 { "lo" } else { "hi" }),
                Value::Float(i as f64),
            ])
            .unwrap();
        }
        b.build(kind).unwrap()
    }

    fn query(split: SplitSpec, filter: Option<Predicate>) -> CombinedQuery {
        CombinedQuery {
            group_by: vec![ColumnId(0)],
            aggregates: vec![AggSpec::new(AggFunc::Avg, ColumnId(1))],
            filter,
            split,
        }
    }

    fn lt(value: f64) -> Predicate {
        Predicate::NumCmp {
            col: ColumnId(1),
            op: CmpOp::Lt,
            value,
        }
    }

    #[test]
    fn contribution_covers_both_sides() {
        let p = lt(5.0);
        let q = query(SplitSpec::TargetVsAll(p.clone()), None);
        assert_eq!(contribution_predicate(&q), Predicate::True);
        let q = query(SplitSpec::TargetVsComplement(p.clone()), None);
        assert_eq!(contribution_predicate(&q), Predicate::True);
        let q = query(SplitSpec::TargetOnly(p.clone()), None);
        assert_eq!(contribution_predicate(&q), p);
        let q = query(
            SplitSpec::TargetVsQuery {
                target: p.clone(),
                reference: lt(9.0),
            },
            None,
        );
        assert_eq!(
            contribution_predicate(&q),
            Predicate::Or(vec![p.clone(), lt(9.0)])
        );
        let q = query(SplitSpec::TargetVsAll(p.clone()), Some(p.clone()));
        assert_eq!(
            contribution_predicate(&q),
            Predicate::And(vec![p, Predicate::True])
        );
    }

    #[test]
    fn selective_target_only_prunes_segments() {
        for kind in [StoreKind::Row, StoreKind::Column] {
            let t = sorted_table(kind);
            let q = query(SplitSpec::TargetOnly(lt(10.0)), None);
            let plan = pruned_scan(t.as_ref(), &q, 0..t.num_rows(), usize::MAX);
            assert_eq!(plan.partitions_scanned, 1);
            assert_eq!(plan.partitions_pruned, 3);
            assert_eq!(plan.morsels, vec![0..10]);
        }
    }

    #[test]
    fn unprunable_splits_scan_everything() {
        let t = sorted_table(StoreKind::Column);
        let q = query(SplitSpec::TargetVsAll(lt(10.0)), None);
        let plan = pruned_scan(t.as_ref(), &q, 0..t.num_rows(), usize::MAX);
        assert_eq!(plan.partitions_scanned, 4);
        assert_eq!(plan.partitions_pruned, 0);
    }

    #[test]
    fn filter_composes_with_split() {
        let t = sorted_table(StoreKind::Column);
        // TargetVsAll is unprunable on its own, but the filter restricts
        // contributing rows to the first two partitions.
        let q = query(SplitSpec::TargetVsAll(Predicate::True), Some(lt(20.0)));
        let plan = pruned_scan(t.as_ref(), &q, 0..t.num_rows(), usize::MAX);
        assert_eq!(plan.partitions_scanned, 2);
        assert_eq!(plan.partitions_pruned, 2);
    }

    #[test]
    fn range_clips_partitions_before_pruning() {
        let t = sorted_table(StoreKind::Column);
        let q = query(SplitSpec::TargetOnly(lt(100.0)), None);
        let plan = pruned_scan(t.as_ref(), &q, 5..25, 7);
        // Partitions clipped to 5..10, 10..20, 20..25; morsels split at 7.
        assert_eq!(plan.partitions_scanned, 3);
        let total: usize = plan.morsels.iter().map(|r| r.end - r.start).sum();
        assert_eq!(total, 20);
        assert!(plan.morsels.iter().all(|r| r.end - r.start <= 7));
    }

    #[test]
    fn adjacent_survivors_are_cut_as_one_run() {
        let t = sorted_table(StoreKind::Column);
        let all = query(SplitSpec::TargetOnly(lt(100.0)), None);
        let morsels =
            |q: &CombinedQuery, range, rows| pruned_scan(t.as_ref(), q, range, rows).morsels;
        // A range across four partitions is one morsel when it fits…
        assert_eq!(morsels(&all, 5..35, usize::MAX), vec![5..35]);
        assert_eq!(morsels(&all, 5..35, 30), vec![5..35]);
        // …and is cut at `morsel_rows` steps, not at partition edges, when
        // it does not.
        assert_eq!(morsels(&all, 5..35, 25), vec![5..30, 30..35]);
        assert_eq!(
            morsels(&all, 5..35, 7),
            vec![5..12, 12..19, 19..26, 26..33, 33..35]
        );
        // A pruned partition ends the run on either side of it.
        let ge20 = Predicate::NumCmp {
            col: ColumnId(1),
            op: CmpOp::Ge,
            value: 20.0,
        };
        let holed = query(
            SplitSpec::TargetOnly(Predicate::Or(vec![lt(10.0), ge20])),
            None,
        );
        let plan = pruned_scan(t.as_ref(), &holed, 0..40, usize::MAX);
        assert_eq!(plan.morsels, vec![0..10, 20..40]);
        assert_eq!((plan.partitions_scanned, plan.partitions_pruned), (3, 1));
    }

    #[test]
    fn false_predicate_prunes_all_partitions() {
        let t = sorted_table(StoreKind::Row);
        let q = query(SplitSpec::TargetOnly(Predicate::False), None);
        let plan = pruned_scan(t.as_ref(), &q, 0..t.num_rows(), usize::MAX);
        assert_eq!(plan.partitions_scanned, 0);
        assert_eq!(plan.partitions_pruned, 4);
        assert!(plan.morsels.is_empty());
    }

    #[test]
    fn cat_predicates_prune_by_code_interval() {
        let t = sorted_table(StoreKind::Column);
        // "lo" is interned first (code 0) and only appears in partition 0.
        let p = Predicate::col_eq_str(t.as_ref(), "d", "lo");
        let q = query(SplitSpec::TargetOnly(p), None);
        let plan = pruned_scan(t.as_ref(), &q, 0..t.num_rows(), usize::MAX);
        assert_eq!(plan.partitions_scanned, 1);
        assert_eq!(plan.partitions_pruned, 3);
    }

    #[test]
    fn type_mismatched_leaves_are_never() {
        let t = sorted_table(StoreKind::Column);
        let zones = &t.partitions()[0].zones;
        // Numeric comparison on the categorical column matches no cell.
        let p = Predicate::NumCmp {
            col: ColumnId(0),
            op: CmpOp::Ge,
            value: 0.0,
        };
        assert_eq!(zone_match(&p, zones), ZoneMatch::Never);
        // Bool equality on a float column matches no cell.
        let p = Predicate::BoolEq {
            col: ColumnId(1),
            value: true,
        };
        assert_eq!(zone_match(&p, zones), ZoneMatch::Never);
        // Categorical equality on a float column matches no cell.
        let p = Predicate::CatEq {
            col: ColumnId(1),
            code: 0,
        };
        assert_eq!(zone_match(&p, zones), ZoneMatch::Never);
    }

    #[test]
    fn connectives_follow_tri_state_algebra() {
        let t = sorted_table(StoreKind::Column);
        let zones = &t.partitions()[0].zones; // m in [0, 9]
        let never = lt(0.0);
        let always = lt(100.0);
        let maybe = lt(5.0);
        assert_eq!(zone_match(&never, zones), ZoneMatch::Never);
        assert_eq!(zone_match(&always, zones), ZoneMatch::Always);
        assert_eq!(zone_match(&maybe, zones), ZoneMatch::Maybe);
        assert_eq!(
            zone_match(&Predicate::And(vec![always.clone(), never.clone()]), zones),
            ZoneMatch::Never
        );
        assert_eq!(
            zone_match(&Predicate::Or(vec![maybe.clone(), always.clone()]), zones),
            ZoneMatch::Always
        );
        assert_eq!(
            zone_match(&Predicate::Not(Box::new(always.clone())), zones),
            ZoneMatch::Never
        );
        assert_eq!(
            zone_match(&Predicate::Not(Box::new(maybe)), zones),
            ZoneMatch::Maybe
        );
        // Empty connectives mirror row-level semantics: AND [] = true.
        assert_eq!(
            zone_match(&Predicate::And(vec![]), zones),
            ZoneMatch::Always
        );
        assert_eq!(zone_match(&Predicate::Or(vec![]), zones), ZoneMatch::Never);
    }

    #[test]
    fn is_null_pruning() {
        let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")])
            .with_partition_rows(2);
        b.push_row(&[Value::str("a"), Value::Float(1.0)]).unwrap();
        b.push_row(&[Value::str("a"), Value::Float(2.0)]).unwrap();
        b.push_row(&[Value::str("a"), Value::Null]).unwrap();
        b.push_row(&[Value::str("a"), Value::Null]).unwrap();
        let t = b.build(StoreKind::Column).unwrap();
        let is_null = Predicate::IsNull { col: ColumnId(1) };
        let q = query(SplitSpec::TargetOnly(is_null.clone()), None);
        let plan = pruned_scan(t.as_ref(), &q, 0..4, usize::MAX);
        assert_eq!(plan.morsels, vec![2..4]);
        // NOT IS NULL prunes the all-NULL partition instead.
        let q = query(
            SplitSpec::TargetOnly(Predicate::Not(Box::new(is_null))),
            None,
        );
        let plan = pruned_scan(t.as_ref(), &q, 0..4, usize::MAX);
        assert_eq!(plan.morsels, vec![0..2]);
    }
}
