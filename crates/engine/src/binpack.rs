//! Bin packing of group-by attributes under a memory budget.
//!
//! Problem 4.1 of the paper: divide the dimension attributes into groups
//! `A₁, …, A_l` such that a query grouping by any `A_i` keeps its distinct
//! -group count under the memory budget `𝓜`. With item weight
//! `log₂|a_i|` and bin capacity `log₂𝓜`, this is exactly bin packing; the
//! paper uses the standard **first-fit** algorithm, with first-fit-
//! decreasing provided for ablation (Fig 8b compares packing policies).

use seedb_storage::{ColumnId, Table};

/// A grouping plan: each inner vector is one combined query's group-by set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupingPlan {
    /// The attribute groups `A₁, …, A_l`.
    pub bins: Vec<Vec<ColumnId>>,
    /// The memory budget (max distinct groups per query) the plan respects.
    pub budget: usize,
}

/// First-fit bin packing of `attrs` with weights `log₂|a_i|` into bins of
/// capacity `log₂ budget`.
///
/// Attributes whose own cardinality exceeds the budget get a dedicated bin
/// (they must still be queried; they simply cannot be combined). `attrs`
/// must be dimension columns: only they carry the build-time distinct
/// counts ([`Table::distinct_count`]) the weights come from.
pub fn first_fit(table: &dyn Table, attrs: &[ColumnId], budget: usize) -> GroupingPlan {
    pack(table, attrs, budget)
}

/// First-fit-decreasing: sorts attributes by descending weight first, which
/// classically wastes less capacity. Exposed for the packing-policy ablation.
pub fn first_fit_decreasing(table: &dyn Table, attrs: &[ColumnId], budget: usize) -> GroupingPlan {
    let mut sorted: Vec<ColumnId> = attrs.to_vec();
    sorted.sort_by(|a, b| {
        table
            .distinct_count(*b)
            .cmp(&table.distinct_count(*a))
            .then(a.cmp(b))
    });
    pack(table, &sorted, budget)
}

fn pack(table: &dyn Table, attrs: &[ColumnId], budget: usize) -> GroupingPlan {
    let budget = budget.max(1);
    let capacity = (budget as f64).log2();
    let mut bins: Vec<Vec<ColumnId>> = Vec::new();
    let mut loads: Vec<f64> = Vec::new();
    // Exact distinct-count product per bin. The accumulated `log2` load is
    // only a heuristic: its rounding error plus the `1e-9` comparison
    // tolerance can admit a bin whose true group-count product exceeds the
    // budget, so every placement is additionally validated against the
    // exact (saturating) product.
    let mut products: Vec<usize> = Vec::new();

    for &attr in attrs {
        let distinct = table.distinct_count(attr);
        let weight = (distinct as f64).log2();
        if weight > capacity {
            // Oversized attribute: dedicated bin, not combinable.
            bins.push(vec![attr]);
            loads.push(f64::INFINITY);
            products.push(distinct);
            continue;
        }
        // First fit: place in the first bin with room, where "room" means
        // both the float load heuristic and the exact product bound hold.
        let fit = (0..bins.len()).find(|&i| {
            loads[i] + weight <= capacity + 1e-9 && products[i].saturating_mul(distinct) <= budget
        });
        match fit {
            Some(i) => {
                bins[i].push(attr);
                loads[i] += weight;
                products[i] = products[i].saturating_mul(distinct);
            }
            None => {
                bins.push(vec![attr]);
                loads.push(weight);
                products.push(distinct);
            }
        }
    }
    GroupingPlan { bins, budget }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seedb_storage::{BoxedTable, ColumnDef, StoreKind, TableBuilder, Value};

    /// Total number of attributes across all bins.
    fn num_attributes(plan: &GroupingPlan) -> usize {
        plan.bins.iter().map(Vec::len).sum()
    }

    /// Whether every bin's group-count upper bound is within budget
    /// (single-attribute bins are always allowed: they cannot be split
    /// further, matching the paper's treatment of oversized attributes).
    fn respects_budget(plan: &GroupingPlan, table: &dyn Table) -> bool {
        plan.bins
            .iter()
            .all(|bin| bin.len() == 1 || bin_group_bound(table, bin) <= plan.budget)
    }

    /// `∏ |a_i|` over a bin, saturating.
    fn bin_group_bound(table: &dyn Table, bin: &[ColumnId]) -> usize {
        bin.iter()
            .map(|c| table.distinct_count(*c))
            .fold(1usize, |acc, d| acc.saturating_mul(d))
    }

    /// Builds a table whose dimension columns have the given cardinalities.
    fn table_with_cardinalities(cards: &[usize]) -> BoxedTable {
        let defs: Vec<ColumnDef> = (0..cards.len())
            .map(|i| ColumnDef::dim(format!("d{i}")))
            .collect();
        let mut b = TableBuilder::new(defs);
        let max_card = cards.iter().copied().max().unwrap_or(1);
        for row in 0..max_card {
            let values: Vec<Value> = cards
                .iter()
                .map(|&c| Value::str(format!("v{}", row % c)))
                .collect();
            b.push_row(&values).unwrap();
        }
        b.build(StoreKind::Column).unwrap()
    }

    fn ids(n: usize) -> Vec<ColumnId> {
        (0..n).map(|i| ColumnId(i as u32)).collect()
    }

    #[test]
    fn all_attributes_are_packed_exactly_once() {
        let t = table_with_cardinalities(&[10, 10, 10, 10, 10]);
        let plan = first_fit(t.as_ref(), &ids(5), 10_000);
        assert_eq!(num_attributes(&plan), 5);
        let mut seen: Vec<ColumnId> = plan.bins.iter().flatten().copied().collect();
        seen.sort();
        assert_eq!(seen, ids(5));
    }

    #[test]
    fn budget_10k_packs_four_card10_attrs_per_bin() {
        // 10^4 = 10000 <= budget, 10^5 > budget.
        let t = table_with_cardinalities(&[10; 8]);
        let plan = first_fit(t.as_ref(), &ids(8), 10_000);
        assert!(respects_budget(&plan, t.as_ref()));
        assert_eq!(plan.bins.len(), 2);
        assert_eq!(plan.bins[0].len(), 4);
        assert_eq!(plan.bins[1].len(), 4);
    }

    #[test]
    fn tiny_budget_forces_singletons() {
        // COL-store budget of 100 with cardinality-100 attrs: each bin holds
        // exactly one attribute.
        let t = table_with_cardinalities(&[100, 100, 100]);
        let plan = first_fit(t.as_ref(), &ids(3), 100);
        assert_eq!(plan.bins.len(), 3);
        assert!(plan.bins.iter().all(|b| b.len() == 1));
        assert!(respects_budget(&plan, t.as_ref()));
    }

    #[test]
    fn oversized_attribute_gets_own_bin() {
        let t = table_with_cardinalities(&[1000, 2, 2]);
        let plan = first_fit(t.as_ref(), &ids(3), 100);
        // d0 (card 1000 > 100) must be alone; d1,d2 can combine (2*2=4 <= 100).
        let big_bin = plan.bins.iter().find(|b| b.contains(&ColumnId(0))).unwrap();
        assert_eq!(big_bin.len(), 1);
        assert!(respects_budget(&plan, t.as_ref()));
        assert_eq!(num_attributes(&plan), 3);
    }

    #[test]
    fn every_bin_respects_budget_product() {
        let t = table_with_cardinalities(&[3, 7, 11, 13, 2, 5]);
        for budget in [10, 100, 1000, 10_000] {
            let plan = first_fit(t.as_ref(), &ids(6), budget);
            assert!(
                respects_budget(&plan, t.as_ref()),
                "budget {budget}: {plan:?}"
            );
            assert_eq!(num_attributes(&plan), 6);
        }
    }

    #[test]
    fn ffd_never_uses_more_bins_than_ff_on_these_inputs() {
        let t = table_with_cardinalities(&[50, 3, 40, 4, 30, 5, 20, 6]);
        for budget in [100, 500, 2000] {
            let ff = first_fit(t.as_ref(), &ids(8), budget);
            let ffd = first_fit_decreasing(t.as_ref(), &ids(8), budget);
            assert!(ffd.bins.len() <= ff.bins.len(), "budget {budget}");
            assert!(respects_budget(&ffd, t.as_ref()));
        }
    }

    #[test]
    fn float_tolerance_cannot_admit_over_budget_products() {
        // Regression: with cardinalities 55556 × 54000 the exact group
        // bound is 3_000_024_000, one over this budget — but the rounded
        // `log2` weights sum to within the 1e-9 comparison tolerance of
        // the capacity (log2(product/budget) ≈ 4.8e-10), so the float
        // heuristic alone would pack both attributes into one bin. The
        // exact-product validation must keep them apart.
        let t = table_with_cardinalities(&[55556, 54000]);
        let budget = 3_000_023_999usize;
        let w0 = (t.distinct_count(ColumnId(0)) as f64).log2();
        let w1 = (t.distinct_count(ColumnId(1)) as f64).log2();
        assert!(
            w0 + w1 <= (budget as f64).log2() + 1e-9,
            "test premise: float heuristic admits the pair"
        );
        assert!(bin_group_bound(t.as_ref(), &ids(2)) > budget);

        let plan = first_fit(t.as_ref(), &ids(2), budget);
        assert_eq!(plan.bins.len(), 2, "over-budget pair must be split");
        assert_eq!(num_attributes(&plan), 2);
        assert!(respects_budget(&plan, t.as_ref()));
    }

    #[test]
    fn budget_one_is_sane() {
        let t = table_with_cardinalities(&[2, 2]);
        let plan = first_fit(t.as_ref(), &ids(2), 1);
        assert_eq!(num_attributes(&plan), 2);
        assert!(plan.bins.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn empty_attribute_list_gives_empty_plan() {
        let t = table_with_cardinalities(&[2]);
        let plan = first_fit(t.as_ref(), &[], 100);
        assert!(plan.bins.is_empty());
        assert_eq!(num_attributes(&plan), 0);
    }
}
