//! Rolling a multi-attribute GROUP BY result up to single-attribute views.
//!
//! The combine-multiple-GROUP-BYs optimization (§4.1) executes one query
//! grouped by `(a₁, …, a_p)` and recovers each single-attribute view
//! `GROUP BY a_i` by merging accumulators over the other attributes. This
//! is lossless for COUNT/SUM/AVG/MIN/MAX because [`crate::Accumulator`]s
//! merge exactly. The cluster's query carries each distinct aggregate once
//! (every view on `(a_i, m_j)` reads aggregate `j` of the roll-up to
//! `a_i`), so rolling up one position merges q accumulators per group and
//! side — not one per member view.
//!
//! Position codes are read straight out of each group key (no sub-key
//! re-projection/allocation per group), and when the position's codes are
//! small — always true for the dictionary-coded attributes bin-packing
//! produces, whose radix the mixed-radix dense index already bounded — the
//! merge goes through a dense code-indexed table instead of a hash map, so
//! the bin-packed cluster path stays hash-free end to end.

use crate::groupkey::GroupKey;
use crate::hashagg::DENSE_CARDINALITY_MAX;
use crate::{GroupEntry, GroupedResult};
use rustc_hash::FxHashMap;

/// Projects `result` (grouped by several attributes) onto the single
/// grouping attribute at `position`, merging all groups that share that
/// attribute's code.
///
/// # Panics
/// Panics if `position` is out of range of `result.group_by`.
pub fn rollup(result: &GroupedResult, position: usize) -> GroupedResult {
    assert!(
        position < result.group_by.len(),
        "rollup position {position} out of range ({} grouping attrs)",
        result.group_by.len()
    );
    let n_aggs = result.aggregates.len();
    let mut merged: Vec<GroupEntry> = Vec::new();

    // Dense merge when every code at `position` is small (dictionary codes
    // are; float-bit or wide integer codes are not). NULL (u64::MAX) owns
    // slot 0, code c owns slot c + 1 — the radix layout the dense group
    // index uses.
    let max_code = result
        .groups
        .iter()
        .map(|e| e.key.code(position))
        .filter(|&c| c != u64::MAX)
        .max();
    let dense_slots = match max_code {
        None => Some(1),
        Some(c) if (c as usize) < DENSE_CARDINALITY_MAX => Some(c as usize + 2),
        Some(_) => None,
    };

    let fold = |merged: &mut Vec<GroupEntry>, entry: &GroupEntry, idx: usize| {
        for agg in 0..n_aggs {
            merged[idx].target[agg].merge(&entry.target[agg]);
            merged[idx].reference[agg].merge(&entry.reference[agg]);
        }
    };
    let new_entry = |code: u64| GroupEntry {
        key: GroupKey::One(code),
        target: vec![Default::default(); n_aggs],
        reference: vec![Default::default(); n_aggs],
    };

    if let Some(len) = dense_slots {
        let mut slots: Vec<u32> = vec![0; len];
        for entry in &result.groups {
            let code = entry.key.code(position);
            let si = if code == u64::MAX {
                0
            } else {
                code as usize + 1
            };
            let idx = match slots[si] {
                0 => {
                    merged.push(new_entry(code));
                    slots[si] = merged.len() as u32;
                    merged.len() - 1
                }
                v => v as usize - 1,
            };
            fold(&mut merged, entry, idx);
        }
    } else {
        let mut map: FxHashMap<u64, usize> = FxHashMap::default();
        for entry in &result.groups {
            let code = entry.key.code(position);
            let idx = *map.entry(code).or_insert_with(|| {
                merged.push(new_entry(code));
                merged.len() - 1
            });
            fold(&mut merged, entry, idx);
        }
    }
    merged.sort_by(|a, b| a.key.cmp(&b.key));
    GroupedResult {
        group_by: vec![result.group_by[position]],
        aggregates: result.aggregates.clone(),
        groups: merged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::expr::Predicate;
    use crate::hashagg::execute_combined;
    use crate::spec::{AggSpec, CombinedQuery, SplitSpec};
    use crate::stats::ExecStats;
    use seedb_storage::{
        BoxedTable, ColumnDef, ColumnId, ColumnRole, ColumnType, StoreKind, TableBuilder, Value,
    };

    fn table() -> BoxedTable {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("a"),
            ColumnDef::dim("b"),
            ColumnDef::new("m", ColumnType::Float64, ColumnRole::Measure),
        ]);
        let rows = [
            ("x", "p", 1.0),
            ("x", "q", 2.0),
            ("y", "p", 4.0),
            ("y", "q", 8.0),
            ("x", "p", 16.0),
        ];
        for (a, bb, m) in rows {
            b.push_row(&[Value::str(a), Value::str(bb), Value::Float(m)])
                .unwrap();
        }
        b.build(StoreKind::Column).unwrap()
    }

    fn multi_query(t: &dyn seedb_storage::Table) -> GroupedResult {
        let q = CombinedQuery {
            group_by: vec![ColumnId(0), ColumnId(1)],
            aggregates: vec![
                AggSpec::new(AggFunc::Sum, ColumnId(2)),
                AggSpec::new(AggFunc::Count, ColumnId(2)),
                AggSpec::new(AggFunc::Avg, ColumnId(2)),
                AggSpec::new(AggFunc::Min, ColumnId(2)),
                AggSpec::new(AggFunc::Max, ColumnId(2)),
            ],
            filter: None,
            split: SplitSpec::TargetVsAll(Predicate::col_eq_str(t, "b", "p")),
        };
        execute_combined(t, &q, &mut ExecStats::default())
    }

    fn single_query(t: &dyn seedb_storage::Table, dim: u32) -> GroupedResult {
        let q = CombinedQuery {
            group_by: vec![ColumnId(dim)],
            aggregates: vec![
                AggSpec::new(AggFunc::Sum, ColumnId(2)),
                AggSpec::new(AggFunc::Count, ColumnId(2)),
                AggSpec::new(AggFunc::Avg, ColumnId(2)),
                AggSpec::new(AggFunc::Min, ColumnId(2)),
                AggSpec::new(AggFunc::Max, ColumnId(2)),
            ],
            filter: None,
            split: SplitSpec::TargetVsAll(Predicate::col_eq_str(t, "b", "p")),
        };
        execute_combined(t, &q, &mut ExecStats::default())
    }

    #[test]
    fn rollup_matches_direct_single_attribute_query_for_all_aggregates() {
        let t = table();
        let multi = multi_query(t.as_ref());
        for (pos, dim) in [(0usize, 0u32), (1, 1)] {
            let rolled = rollup(&multi, pos);
            let direct = single_query(t.as_ref(), dim);
            assert_eq!(rolled.num_groups(), direct.num_groups(), "dim {dim}");
            for agg in 0..5 {
                let (rt, rr) = rolled.value_vectors(agg);
                let (dt, dr) = direct.value_vectors(agg);
                assert_eq!(rt, dt, "target mismatch dim {dim} agg {agg}");
                assert_eq!(rr, dr, "reference mismatch dim {dim} agg {agg}");
            }
        }
    }

    #[test]
    fn rollup_preserves_group_by_metadata() {
        let t = table();
        let multi = multi_query(t.as_ref());
        let rolled = rollup(&multi, 1);
        assert_eq!(rolled.group_by, vec![ColumnId(1)]);
        assert_eq!(rolled.aggregates.len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rollup_position_out_of_range_panics() {
        let t = table();
        let multi = multi_query(t.as_ref());
        rollup(&multi, 2);
    }

    #[test]
    fn rollup_over_wide_codes_takes_hash_fallback() {
        // Grouping by a float measure produces `f64::to_bits` group codes
        // far past the dense cap; the rollup must fall back to hashing and
        // still merge correctly.
        let mut b = TableBuilder::new(vec![
            ColumnDef::new("f", ColumnType::Float64, ColumnRole::Dimension),
            ColumnDef::dim("d"),
            ColumnDef::new("m", ColumnType::Float64, ColumnRole::Measure),
        ]);
        for (f, d, m) in [
            (1.5, "x", 10.0),
            (2.5, "y", 20.0),
            (1.5, "y", 30.0),
            (2.5, "x", 40.0),
        ] {
            b.push_row(&[Value::Float(f), Value::str(d), Value::Float(m)])
                .unwrap();
        }
        let t = b.build(StoreKind::Column).unwrap();
        let q = CombinedQuery {
            group_by: vec![ColumnId(0), ColumnId(1)],
            aggregates: vec![AggSpec::new(AggFunc::Sum, ColumnId(2))],
            filter: None,
            split: SplitSpec::TargetVsAll(Predicate::True),
        };
        let multi = execute_combined(t.as_ref(), &q, &mut ExecStats::default());
        let rolled = rollup(&multi, 0);
        assert_eq!(rolled.num_groups(), 2);
        let (target, _) = rolled.value_vectors(0);
        assert_eq!(target, vec![40.0, 60.0]); // keys sort by to_bits: 1.5 < 2.5
    }

    #[test]
    fn rollup_of_single_attribute_result_is_identity() {
        let t = table();
        let single = single_query(t.as_ref(), 0);
        let rolled = rollup(&single, 0);
        assert_eq!(rolled.num_groups(), single.num_groups());
        for agg in 0..5 {
            assert_eq!(rolled.value_vectors(agg), single.value_vectors(agg));
        }
    }
}
