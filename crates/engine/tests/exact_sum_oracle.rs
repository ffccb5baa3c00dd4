//! Independent oracle for the fixed-point exact sum.
//!
//! The other equivalence suites compare the engine with itself, so a
//! *consistently* wrong SUM would pass them all. This suite checks
//! [`Accumulator`]'s sum, bit for bit, against the algorithm it replaced:
//! the Shewchuk grow-expansion with the `math.fsum` rounding tail, kept
//! here as test-only code. The two share nothing — one is error-free
//! floating-point transformations, the other integer chunks — so agreement
//! on random multisets spanning 2⁻¹⁰⁷⁴…2¹⁰²³ (subnormals, ±0, mixed signs,
//! catastrophic cancellation), under random permutations and random
//! split/merge trees, is evidence both round the exact sum correctly.
//!
//! Random trees mostly merge partials whose windows happen to coincide, so
//! a third property builds the two sides of a merge on purpose — same
//! window, windows one chunk apart, windows that share no chunk, a spilled
//! side, an empty side — and a fixed test walks the carry-budget edge.
//!
//! The vectorized scan adds most values to fixed-point *lanes* first and
//! folds those into the accumulators later, so the last part of the suite
//! sends multisets through a real batched aggregation — bands the lanes
//! take whole, bands one binade wider than a lane, values no lane takes
//! (subnormals, `-0.0`, ±∞, NaN) in the middle of a batch, cancellation at
//! 2¹⁰⁰⁰, a lane's add budget to its edge — and checks every group against
//! the same oracle.

use proptest::prelude::*;
use seedb_engine::{
    execute_combined_with_mode, Accumulator, AggFunc, AggSpec, CombinedQuery, ExecMode, ExecStats,
    GroupedResult, Predicate, SplitSpec,
};
use seedb_storage::{ColumnDef, ColumnId, StoreKind, TableBuilder, Value};

/// Error-free transformation: `a + b = s + err` exactly (Knuth's TwoSum).
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let err = (a - (s - bb)) + (b - bb);
    (s, err)
}

/// The retired accumulator: a Shewchuk expansion of non-overlapping
/// partials in increasing magnitude order whose sum is the exact sum of the
/// inputs. Exact only while `Σ|xᵢ|` stays finite — callers keep it there.
#[derive(Default)]
struct Shewchuk {
    partials: Vec<f64>,
}

impl Shewchuk {
    fn add(&mut self, mut x: f64) {
        let mut kept = 0;
        for j in 0..self.partials.len() {
            let (hi, lo) = two_sum(x, self.partials[j]);
            if lo != 0.0 {
                self.partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        assert!(x.is_finite(), "oracle driven outside its exact domain");
        self.partials.truncate(kept);
        self.partials.push(x);
    }

    /// Correctly rounded value of the expansion (the `fsum` tail: sum from
    /// the top, stop at the first inexact step, fix up round-half-even).
    fn value(&self) -> f64 {
        let p = &self.partials;
        let Some(&last) = p.last() else {
            return 0.0;
        };
        let mut n = p.len() - 1;
        let mut hi = last;
        let mut lo = 0.0;
        while n > 0 {
            let x = hi;
            n -= 1;
            let y = p[n];
            hi = x + y;
            let yr = hi - x;
            lo = y - yr;
            if lo != 0.0 {
                break;
            }
        }
        if n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }
}

fn oracle_sum(values: &[f64]) -> f64 {
    let mut s = Shewchuk::default();
    for &x in values {
        s.add(x);
    }
    s.value()
}

fn sequential(values: &[f64]) -> Accumulator {
    let mut a = Accumulator::new();
    for &x in values {
        a.update(Some(x));
    }
    a
}

/// [`sequential`] keeping only what `func` reads, as the engine does for a
/// query of `func` alone.
fn sequential_for(values: &[f64], func: AggFunc) -> Accumulator {
    let mut a = Accumulator::new();
    for &x in values {
        a.update_for(Some(x), func);
    }
    a
}

/// Accumulates `values` through a random split/merge tree: `cuts` decides,
/// node by node, whether to feed the slice sequentially or to split it,
/// recurse, and merge the halves (in either order).
fn tree(values: &[f64], cuts: &mut impl Iterator<Item = u16>) -> Accumulator {
    let cut = cuts.next().unwrap_or(0);
    // Bits 0–1: leaf (one in four) or split; bit 2: merge direction; the
    // rest: where to split.
    if values.len() < 2 || cut & 3 == 0 {
        return sequential(values);
    }
    let at = 1 + (cut as usize >> 3) % (values.len() - 1);
    let mut left = tree(&values[..at], cuts);
    let mut right = tree(&values[at..], cuts);
    if cut & 4 == 0 {
        left.merge(&right);
        left
    } else {
        right.merge(&left);
        right
    }
}

/// `values` reordered by the sort keys in `order` (cycled).
fn permuted(values: &[f64], order: &[u32]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by_key(|&i| (order[i % order.len()], i));
    idx.into_iter().map(|i| values[i]).collect()
}

fn float(negative: bool, exp_field: u64, fraction: u64) -> f64 {
    f64::from_bits((negative as u64) << 63 | exp_field << 52 | fraction & ((1 << 52) - 1))
}

/// One draw of the multiset generator: a lone value, or a group built to
/// cancel.
#[derive(Debug, Clone)]
enum Item {
    One(f64),
    /// `x` and `-x`.
    Cancel(f64),
    /// `x` and `-(x nudged by a few ULPs)`: leaves a residue ~2⁵⁰ below.
    NearCancel(f64, u8),
    /// `x`, a residue far below, and `-x`.
    Buried(f64, f64),
    /// `x` and half an ULP of `x`: an exact rounding tie.
    Tie(f64),
}

fn expand(items: &[Item]) -> Vec<f64> {
    let mut out = Vec::new();
    for item in items {
        match *item {
            Item::One(x) => out.push(x),
            Item::Cancel(x) => out.extend([x, -x]),
            Item::NearCancel(x, ulps) => {
                // Nudge towards zero (away from it only at the very bottom),
                // so the partner never leaves the finite range.
                let magnitude = x.abs().to_bits();
                let nudged = if magnitude >= 16 {
                    magnitude - ulps as u64
                } else {
                    magnitude + ulps as u64
                };
                out.extend([x, -f64::from_bits(nudged).copysign(x)])
            }
            Item::Buried(x, small) => out.extend([x, small, -x]),
            Item::Tie(x) => {
                out.push(x);
                let exp_field = x.to_bits() >> 52 & 0x7FF;
                if exp_field > 53 {
                    out.push(float(x < 0.0, exp_field - 53, 0));
                }
            }
        }
    }
    out
}

/// Values with exponent fields in `lo..=hi`, mixing full-range draws,
/// a narrow band (realistic columns), subnormals and signed zeros (when the
/// range reaches them), and cancelling groups.
fn arb_items(lo: u64, hi: u64, max_len: usize) -> impl Strategy<Value = Vec<Item>> {
    let any_value =
        move || (any::<bool>(), lo..hi + 1, any::<u64>()).prop_map(|(s, e, f)| float(s, e, f));
    let band = (lo + hi) / 2;
    let banded =
        (any::<bool>(), band..band + 12, any::<u64>()).prop_map(|(s, e, f)| float(s, e, f));
    // Exponent field `lo` is 0 (subnormals, and ±0 for a zero fraction)
    // only in the full-range suite; in the top-range suite these are just
    // more small values.
    let lowest = (any::<bool>(), any::<u64>()).prop_map(move |(s, f)| float(s, lo, f));
    let zero = any::<bool>().prop_map(move |s| float(s, lo, 0));
    let item = prop_oneof![
        4 => any_value().prop_map(Item::One),
        4 => banded.prop_map(Item::One),
        2 => lowest.prop_map(Item::One),
        1 => zero.prop_map(Item::One),
        2 => any_value().prop_map(Item::Cancel),
        2 => (any_value(), 1u8..16).prop_map(|(x, u)| Item::NearCancel(x, u)),
        2 => (any_value(), any_value()).prop_map(|(x, s)| Item::Buried(x, s)),
        2 => any_value().prop_map(Item::Tie),
    ];
    prop::collection::vec(item, 0..max_len)
}

fn arb_shape() -> impl Strategy<Value = (Vec<u32>, Vec<u16>)> {
    (
        prop::collection::vec(any::<u32>(), 1..64),
        prop::collection::vec(any::<u16>(), 0..64),
    )
}

/// Asserts that every accumulation shape of `values` produces `expected`'s
/// bits, and agrees on count/min/max.
fn check_all_shapes(values: &[f64], expected: f64, order: &[u32], cuts: &[u16]) {
    let serial = sequential(values);
    assert_eq!(
        serial.sum().to_bits(),
        expected.to_bits(),
        "serial {:e} vs oracle {:e} over {values:?}",
        serial.sum(),
        expected
    );
    let shuffled = permuted(values, order);
    for input in [values, &shuffled[..]] {
        let merged = tree(input, &mut cuts.iter().copied());
        assert_eq!(
            merged.sum().to_bits(),
            expected.to_bits(),
            "tree {:e} vs oracle {:e} over {input:?} cuts {cuts:?}",
            merged.sum(),
            expected
        );
        assert_eq!(merged.count, values.len() as u64);
        assert_eq!(merged, serial);
    }
}

/// Draws for a band of values that share one accumulator window however
/// they are signed: `(sign, exponent-field offset, fraction)`, placed by
/// [`band`].
fn arb_band(max_len: usize) -> impl Strategy<Value = Vec<(bool, u64, u64)>> {
    prop::collection::vec((any::<bool>(), 0u64..12, any::<u64>()), 0..max_len)
}

/// The drawn band with exponent fields in `field..field + 12`.
fn band(draws: &[(bool, u64, u64)], field: u64) -> Vec<f64> {
    draws
        .iter()
        .map(|&(s, e, f)| float(s, field + e, f))
        .collect()
}

/// How the right-hand side of a forced merge sits relative to the left
/// (whose values have exponent fields around 1000).
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// The same band: the windows coincide (the five-add route).
    SameBase,
    /// 2³² below / above: windows one chunk apart, still overlapping.
    ChunkBelow,
    ChunkAbove,
    /// 2³²⁰ below / above: windows with no chunk in common; the merged
    /// span cannot fit one window, so the receiver spills.
    Disjoint,
    DisjointAbove,
}

impl Placement {
    fn field(self) -> u64 {
        match self {
            Placement::SameBase => 1000,
            Placement::ChunkBelow => 1000 - 32,
            Placement::ChunkAbove => 1000 + 32,
            Placement::Disjoint => 1000 - 320,
            Placement::DisjointAbove => 1000 + 320,
        }
    }
}

fn arb_placement() -> impl Strategy<Value = Placement> {
    prop_oneof![
        3 => Just(Placement::SameBase),
        1 => Just(Placement::ChunkBelow),
        1 => Just(Placement::ChunkAbove),
        1 => Just(Placement::Disjoint),
        1 => Just(Placement::DisjointAbove),
    ]
}

/// `values`, preceded — when `spill` — by a cancelling pair far above and
/// a pair far below: the span outgrows the window on the way (the spill is
/// sticky) while the exact sum is unchanged.
fn side(values: &[f64], spill: bool) -> (Accumulator, Vec<f64>) {
    let mut fed = Vec::new();
    if spill {
        fed.extend([
            2f64.powi(300),
            2f64.powi(-300),
            -2f64.powi(300),
            -2f64.powi(-300),
        ]);
    }
    fed.extend_from_slice(values);
    let acc = sequential(&fed);
    assert_eq!(acc.sum_spilled(), spill, "test premise over {fed:?}");
    (acc, fed)
}

/// `SUM(m) GROUP BY g` over `values` — value `i` in group `i % groups` —
/// through the batched (lane) path of the engine, on a column store whose
/// partitions hold `partition_rows` rows.
fn sum_through_lanes(
    values: &[f64],
    groups: usize,
    partition_rows: usize,
) -> (GroupedResult, ExecStats) {
    let mut b = TableBuilder::new(vec![ColumnDef::dim("g"), ColumnDef::measure("m")])
        .with_partition_rows(partition_rows);
    for (i, &x) in values.iter().enumerate() {
        b.push_row(&[Value::str(format!("g{}", i % groups)), Value::Float(x)])
            .unwrap();
    }
    let table = b.build(StoreKind::Column).unwrap();
    let query = CombinedQuery::single(
        ColumnId(0),
        AggSpec::new(AggFunc::Sum, ColumnId(1)),
        SplitSpec::TargetOnly(Predicate::True),
    );
    let mut stats = ExecStats::new();
    let result =
        execute_combined_with_mode(table.as_ref(), &query, ExecMode::Vectorized, &mut stats);
    (result, stats)
}

/// Checks every group of [`sum_through_lanes`] against the oracle and
/// against an accumulator fed one value at a time (keeping what SUM reads,
/// as the engine does). Returns the share of
/// the values that went through a lane.
fn check_through_lanes(values: &[f64], groups: usize, partition_rows: usize) -> f64 {
    let (result, stats) = sum_through_lanes(values, groups, partition_rows);
    assert_eq!(result.num_groups(), groups.min(values.len()));
    // Groups sort by dictionary code, which is first-seen order: i % groups.
    for (g, entry) in result.groups.iter().enumerate() {
        let own: Vec<f64> = values.iter().skip(g).step_by(groups).copied().collect();
        let got = &entry.target[0];
        let expected = if own.iter().all(|x| x.is_finite()) {
            oracle_sum(&own)
        } else {
            own.iter().sum() // ±∞ and NaN follow IEEE: saturate or poison
        };
        assert!(
            got.sum().to_bits() == expected.to_bits() || (got.sum().is_nan() && expected.is_nan()),
            "group {g}: lanes {:e} vs oracle {expected:e} over {own:?}",
            got.sum()
        );
        assert_eq!(
            got,
            &sequential_for(&own, AggFunc::Sum),
            "group {g} over {own:?}"
        );
    }
    assert_eq!(stats.accumulator_updates, values.len() as u64);
    stats.fixed_lane_updates as f64 / values.len().max(1) as f64
}

/// Exponent field of the largest magnitude in a test column: its lanes
/// take fields `TOP - 36 ..= TOP`.
const TOP: u64 = 1040;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random multisets through the lanes: a band a lane takes whole, or
    /// one the full-range draws keep straying from, in one to three groups
    /// over one or several batches and partitions.
    #[test]
    fn lane_sums_match_shewchuk(
        wide in arb_items(0, 2038, 48),
        narrow in arb_band(1500),
        field in prop_oneof![Just(1), Just(990u64), Just(2030)],
        mix in any::<bool>(),
        layout in (1usize..4, prop_oneof![Just(64usize), Just(1 << 16)]),
        order in prop::collection::vec(any::<u32>(), 1..64),
    ) {
        let (groups, partition_rows) = layout;
        let mut values = band(&narrow, field);
        if mix {
            values.extend(expand(&wide));
        }
        let values = permuted(&values, &order);
        let share = check_through_lanes(&values, groups, partition_rows);
        prop_assert!(mix || values.is_empty() || share == 1.0, "a 12-binade band strayed: {}", share);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every route through `merge`, forced: the two sides are built to sit
    /// on the same window, one chunk apart, or nowhere near each other;
    /// either may have spilled; either may be empty — merged in both
    /// directions, and through a fresh (adopting) accumulator.
    #[test]
    fn forced_merge_routes_match_shewchuk(
        left in arb_band(40),
        placement in arb_placement(),
        right in arb_band(40),
        spilled in (any::<bool>(), any::<bool>()),
        extra in arb_band(8),
    ) {
        let (left, extra) = (band(&left, 1000), band(&extra, 1000));
        let right = band(&right, placement.field());
        let (l, l_fed) = side(&left, spilled.0 && !left.is_empty());
        let (r, r_fed) = side(&right, spilled.1 && !right.is_empty());
        let mut all = l_fed.clone();
        all.extend_from_slice(&r_fed);
        let expected = oracle_sum(&all);

        let mut lr = l.clone();
        lr.merge(&r);
        let mut rl = r.clone();
        rl.merge(&l);
        let mut adopted = Accumulator::new();
        adopted.merge(&l);
        adopted.merge(&r);
        for (name, merged) in [("l←r", &lr), ("r←l", &rl), ("∅←l←r", &adopted)] {
            prop_assert_eq!(
                merged.sum().to_bits(),
                expected.to_bits(),
                "{} {:?}: {:e} vs oracle {:e} over {:?} + {:?}",
                name, placement, merged.sum(), expected, l_fed, r_fed
            );
            prop_assert_eq!(merged.count, all.len() as u64);
        }
        prop_assert_eq!(&lr, &rl);

        // The merged state keeps accumulating exactly, whichever route
        // built it (and whatever it did to the carry budget).
        all.extend_from_slice(&extra);
        let expected = oracle_sum(&all);
        for mut merged in [lr, rl, adopted] {
            extra.iter().for_each(|&x| merged.update(Some(x)));
            prop_assert_eq!(merged.sum().to_bits(), expected.to_bits());
        }
    }

    /// 2⁻¹⁰⁷⁴ … 2¹⁰¹⁵: everything from the smallest subnormal up to where
    /// 200 addends can no longer overflow the oracle's intermediate sums.
    #[test]
    fn matches_shewchuk_across_the_range(
        items in arb_items(0, 2038, 96),
        shape in arb_shape(),
    ) {
        let values = expand(&items);
        check_all_shapes(&values, oracle_sum(&values), &shape.0, &shape.1);
    }

    /// 2¹⁷⁷ … 2¹⁰²³: the top of the range, where intermediate (and final)
    /// sums pass `f64::MAX`. The oracle sums the inputs scaled down by 2⁷⁰
    /// (exact: nothing here is within 2⁷⁰ of subnormal) and its rounded
    /// result is scaled back up, overflowing to ±∞ exactly when the
    /// correctly rounded true sum does.
    #[test]
    fn matches_scaled_shewchuk_at_the_top(
        items in arb_items(1200, 2046, 48),
        shape in arb_shape(),
    ) {
        let values = expand(&items);
        let down = 2f64.powi(-70);
        let scaled: Vec<f64> = values.iter().map(|x| x * down).collect();
        let expected = oracle_sum(&scaled) * 2f64.powi(70);
        check_all_shapes(&values, expected, &shape.0, &shape.1);
    }
}

/// A lane spans the 36 binades under the column's largest magnitude: values
/// in the lowest of them go through it, values one binade further down are
/// strays — and either way the sums are the oracle's.
#[test]
fn the_lane_limit_and_one_binade_over_match_shewchuk() {
    let column = |fields: &[u64]| -> Vec<f64> {
        let first = (0..1024).map(|i| float(i % 2 == 0, TOP - (i % 5), 0xD1B5_4A32 * i));
        let rest = fields.iter().cycle().take(3000).enumerate();
        first
            .chain(rest.map(|(i, &field)| float(i % 3 == 0, field, 0x9E37_79B9 * i as u64)))
            .collect()
    };
    for groups in [1, 3] {
        let inside = column(&[TOP - 36, TOP - 1, TOP - 13, TOP]);
        assert_eq!(check_through_lanes(&inside, groups, 1 << 16), 1.0);
        let below = column(&[TOP - 37, TOP - 36, TOP, TOP]);
        assert_eq!(
            check_through_lanes(&below, groups, 1 << 16),
            3274.0 / 4024.0
        );
        // Mostly below: strays are taken value by value, so the quarter
        // that fits still goes through the lanes.
        let far = column(&[TOP - 37, TOP - 40, TOP - 90, TOP]);
        assert_eq!(check_through_lanes(&far, groups, 1 << 16), 1774.0 / 4024.0);
    }
}

/// What no lane takes, in the middle of batches that otherwise go through
/// one: subnormals, `-0.0` (alone in a group, and among other values) and
/// NaN — and ±∞, which the table's statistics report, so that such a column
/// gets no lanes at all; then cancellation at 2¹⁰⁰⁰ with alternating signs.
#[test]
fn strays_and_cancellation_through_the_lanes_match_shewchuk() {
    let ordinary = |i: usize| {
        float(
            i.is_multiple_of(2),
            1023 + (i % 9) as u64,
            0xD1B5_4A32 * i as u64,
        )
    };
    let tiny = [
        f64::from_bits(1),
        -f64::from_bits(0xF_FFFF_FFFF_FFFF),
        f64::MIN_POSITIVE / 4.0,
    ];
    for strays in [
        &tiny[..],
        &[-0.0][..],
        &[f64::NAN],
        &[f64::INFINITY],
        &[f64::NEG_INFINITY, f64::NAN],
    ] {
        for groups in [1, 2, 3] {
            let mut values: Vec<f64> = (0..2500).map(ordinary).collect();
            for (k, &stray) in strays.iter().cycle().take(40).enumerate() {
                values[500 + 37 * k] = stray;
            }
            let share = check_through_lanes(&values, groups, 1 << 16);
            let lanes = strays.iter().all(|x| !x.is_infinite());
            assert_eq!(
                share,
                if lanes { 2460.0 / 2500.0 } else { 0.0 },
                "{strays:?}"
            );
        }
    }
    // Group 1 of 2 sees nothing but -0.0 (its sum must be -0.0); group 0
    // sees zeros of both signs among ordinary values.
    let values: Vec<f64> = (0..3000)
        .map(|i| match i % 4 {
            1 | 3 => -0.0,
            0 => 0.0,
            _ => ordinary(i),
        })
        .collect();
    check_through_lanes(&values, 2, 1 << 16);
    check_through_lanes(&vec![-0.0; 1500], 1, 64);
    check_through_lanes(&vec![0.0; 1500], 1, 64);

    // ±(2¹⁰⁰⁰ · (1 + k · 2⁻⁵²)), signs alternating: the exact sum is a few
    // thousand ULPs of 2¹⁰⁰⁰, 2⁵⁰ below any addend.
    let values: Vec<f64> = (0..4000u64)
        .map(|k| float(k % 2 == 1, 1000 + 1023, k * 7 % 4096))
        .collect();
    for groups in [1, 2, 3] {
        assert_eq!(check_through_lanes(&values, groups, 1 << 16), 1.0);
    }
}

/// The analogue of the carry-budget edge for a lane: it may absorb
/// 2¹⁸ − 1 = 262 143 values between folds (its low 18 bits count them).
/// One group takes a few values more than that, all of the column's largest
/// magnitude, so a scan that skipped the budget check would carry the
/// count into the sum; compared with integer arithmetic (`n · (2⁵³ − 1)`
/// is exact in `u128`, `as f64` rounds it half-to-even, the scale is a
/// power of two) and with the oracle.
#[test]
fn a_lane_walked_to_its_add_budget_is_exact() {
    const BUDGET: usize = (1 << 18) - 1;
    let mantissa = (1u128 << 53) - 1;
    let x = float(false, TOP + 6, u64::MAX); // (2⁵³ − 1) · 2^(TOP + 6 − 1075)
    for (n, sign) in [
        (BUDGET - 1, 1.0),
        (BUDGET, -1.0),
        (BUDGET + 1, 1.0),
        (2 * BUDGET + 3, -1.0),
    ] {
        let mut values = vec![float(false, TOP, 0)];
        values.extend(std::iter::repeat_n(sign * x, n));
        assert_eq!(check_through_lanes(&values, 1, 1 << 20), 1.0);

        let (result, _) = sum_through_lanes(&values[1..], 1, 1 << 20);
        let exact = (n as u128 * mantissa) as f64 * 2f64.powi(TOP as i32 + 6 - 1075);
        assert_eq!(result.groups[0].target[0].sum(), sign * exact, "{n} adds");
        assert_eq!(result.groups[0].target[0].count, n as u64);
    }
}

/// The carry-budget edge of the in-place merge: two partials on one window
/// whose pending adds sum to 2 045 (the merge spends the last unit of the
/// 2 046 budget in place), 2 046 and 2 047 (it must normalize first), and
/// two full budgets. The values put just under 2⁵² into a chunk per add —
/// the fastest a chunk can grow — so a merge that skipped the budget check
/// overflows an `i64` chunk here (a panic in debug, wrong bits in release).
#[test]
fn merge_at_the_carry_budget_edge_matches_shewchuk() {
    let x = f64::from_bits(1152 << 52 | ((1 << 52) - 1)); // (2⁵³−1)·2⁷⁷
    for total in [2045usize, 2046, 2047, 2 * 2046] {
        for mine in [1, total / 2, total.min(2046 + 1) - 1] {
            let theirs = total - mine;
            if theirs > 2046 {
                continue;
            }
            for (a, b) in [(x, x), (x, -x), (-x, -x)] {
                let left = vec![a; mine];
                let right = vec![b; theirs];
                let mut merged = sequential(&left);
                merged.merge(&sequential(&right));
                // Keep going past the merge: the budget it left must hold.
                let tail = vec![a; 2046];
                tail.iter().for_each(|&v| merged.update(Some(v)));
                let all: Vec<f64> = left.iter().chain(&right).chain(&tail).copied().collect();
                assert_eq!(
                    merged.sum().to_bits(),
                    oracle_sum(&all).to_bits(),
                    "{mine} + {theirs} of {a:e}/{b:e}"
                );
                assert!(!merged.sum_spilled());
            }
        }
    }
}
