//! Property tests: the vectorized (batched) execution path is **exactly**
//! equivalent to the scalar row-at-a-time path, and morsel-driven parallel
//! execution is **exactly** equivalent to serial execution.
//!
//! The equivalence is bit-level, not approximate: for arbitrary tables
//! (including NULLs in dimensions and measures), arbitrary predicates,
//! every split kind, both store layouts, single- and multi-attribute
//! group-bys (i.e. the mixed-radix dense index over one attribute and
//! over several, *and* the hash fallback), arbitrary phase
//! partitions, and every `(worker count, morsel size)` combination, every
//! accumulator — count, sum, min, max — must be identical under `==`
//! (which for sums compares the correctly-rounded exact value), and the
//! one-shot and morsel properties also compare every aggregate's
//! `finish` bits, which tell `-0.0` from `0.0` where `==` does not. A
//! [`ScanSession`] that drains one set of worker partials range after range
//! must hand back, for every range, what a fresh scalar run of that range
//! computes.
//!
//! The vectorized path sums NULL-free float measures in fixed-point lanes
//! placed by the magnitudes of the first batch; the last property walks the
//! seams of that: columns whose magnitude jumps between batches (strays,
//! then a fold and a re-placed lane), partials with different lane scales
//! merged, a partial drained and reused, and a validity bitmap on one
//! measure only.

use proptest::prelude::*;
use seedb_engine::{
    execute_morsels, with_pool, Accumulator, AggFunc, AggSpec, CancelToken, CmpOp, CombinedQuery,
    ExecMode, ExecStats, GroupedResult, PartialAggregation, Predicate, ScanSession, ScanShape,
    SplitSpec, TraceCtx,
};
use seedb_storage::{
    BoxedTable, ColumnDef, ColumnId, ColumnRole, ColumnType, StoreKind, TableBuilder, Value,
};

/// One generated row: `(dim_a, dim_b, bool_dim, float measure, int
/// measure)`; `None` = NULL.
type Row = (Option<u8>, u8, Option<bool>, Option<f64>, Option<i64>);

#[derive(Debug, Clone)]
struct Dataset {
    rows: Vec<Row>,
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        (
            prop::option::of(0u8..5),
            0u8..3,
            prop::option::of(any::<bool>()),
            // Both zeros too: MIN and MAX must order them the same way
            // whichever partial saw which first.
            prop::option::of(prop_oneof![
                8 => -100.0f64..100.0,
                1 => Just(0.0),
                1 => Just(-0.0),
            ]),
            prop::option::of(-50i64..50),
        ),
        1..250,
    )
    .prop_map(|rows| Dataset { rows })
}

fn build(ds: &Dataset, kind: StoreKind) -> BoxedTable {
    build_partitioned(ds, kind, seedb_storage::DEFAULT_PARTITION_ROWS)
}

fn build_partitioned(ds: &Dataset, kind: StoreKind, partition_rows: usize) -> BoxedTable {
    let mut b = TableBuilder::new(vec![
        ColumnDef::dim("a"),
        ColumnDef::dim("b"),
        ColumnDef::new("flag", ColumnType::Bool, ColumnRole::Dimension),
        ColumnDef::new("m", ColumnType::Float64, ColumnRole::Measure),
        ColumnDef::new("n", ColumnType::Int64, ColumnRole::Measure),
    ])
    .with_partition_rows(partition_rows);
    for (a, bb, flag, m, n) in &ds.rows {
        b.push_row(&[
            a.map(|v| Value::str(format!("a{v}")))
                .unwrap_or(Value::Null),
            Value::str(format!("b{bb}")),
            flag.map(Value::Bool).unwrap_or(Value::Null),
            m.map(Value::Float).unwrap_or(Value::Null),
            n.map(Value::Int).unwrap_or(Value::Null),
        ])
        .unwrap();
    }
    b.build(kind).unwrap()
}

/// A predicate over the generated schema: leaves on dimensions, the bool
/// column, and both measures, plus one level of connectives.
fn arb_leaf() -> BoxedStrategy<Predicate> {
    prop_oneof![
        Just(Predicate::True),
        Just(Predicate::False),
        (0u32..5).prop_map(|code| Predicate::CatEq {
            col: ColumnId(0),
            code,
        }),
        prop::collection::vec(0u32..5, 0..3).prop_map(|codes| Predicate::CatIn {
            col: ColumnId(1),
            codes,
        }),
        any::<bool>().prop_map(|value| Predicate::BoolEq {
            col: ColumnId(2),
            value,
        }),
        (-80.0f64..80.0, 0usize..6).prop_map(|(value, op)| Predicate::NumCmp {
            col: ColumnId(3),
            op: [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge
            ][op],
            value,
        }),
        (-40.0f64..40.0).prop_map(|value| Predicate::NumCmp {
            col: ColumnId(4),
            op: CmpOp::Lt,
            value,
        }),
        (0u32..5).prop_map(|c| Predicate::IsNull { col: ColumnId(c) }),
    ]
    .boxed()
}

fn arb_predicate() -> BoxedStrategy<Predicate> {
    prop_oneof![
        4 => arb_leaf(),
        1 => prop::collection::vec(arb_leaf(), 0..3).prop_map(Predicate::And),
        1 => prop::collection::vec(arb_leaf(), 0..3).prop_map(Predicate::Or),
        1 => arb_leaf().prop_map(|p| Predicate::Not(Box::new(p))),
    ]
    .boxed()
}

fn arb_split() -> BoxedStrategy<SplitSpec> {
    prop_oneof![
        arb_predicate().prop_map(SplitSpec::TargetVsAll),
        arb_predicate().prop_map(SplitSpec::TargetVsComplement),
        (arb_predicate(), arb_predicate())
            .prop_map(|(target, reference)| { SplitSpec::TargetVsQuery { target, reference } }),
        arb_predicate().prop_map(SplitSpec::TargetOnly),
    ]
    .boxed()
}

/// Group-by shapes: single categorical (dense path), single bool /
/// measure-typed attribute (vectorized hash path), and multi-attribute
/// (hash path + rollup clusters).
fn arb_group_by() -> BoxedStrategy<Vec<ColumnId>> {
    prop_oneof![
        3 => Just(vec![ColumnId(0)]),
        2 => Just(vec![ColumnId(1)]),
        1 => Just(vec![ColumnId(2)]),
        2 => Just(vec![ColumnId(0), ColumnId(1)]),
        1 => Just(vec![ColumnId(1), ColumnId(2)]),
    ]
    .boxed()
}

fn arb_query() -> BoxedStrategy<CombinedQuery> {
    (
        arb_group_by(),
        arb_split(),
        prop::option::of(arb_predicate()),
    )
        .prop_map(|(group_by, split, filter)| CombinedQuery {
            group_by,
            aggregates: vec![
                AggSpec::new(AggFunc::Count, ColumnId(3)),
                AggSpec::new(AggFunc::Sum, ColumnId(3)),
                AggSpec::new(AggFunc::Avg, ColumnId(4)),
                AggSpec::new(AggFunc::Min, ColumnId(3)),
                AggSpec::new(AggFunc::Max, ColumnId(4)),
            ],
            filter,
            split,
        })
        .boxed()
}

/// Runs `query` in `mode`, feeding the table in `phases` contiguous
/// partitions (1 = one-shot).
fn run(table: &BoxedTable, query: &CombinedQuery, mode: ExecMode, phases: usize) -> GroupedResult {
    let n = table.num_rows();
    let mut agg = PartialAggregation::with_mode(query.clone(), mode);
    let mut stats = ExecStats::new();
    for i in 0..phases {
        let lo = n * i / phases;
        let hi = n * (i + 1) / phases;
        agg.update(table.as_ref(), lo..hi, &mut stats);
    }
    agg.finalize()
}

/// Exact (bitwise-on-floats) equality of two grouped results.
macro_rules! prop_assert_identical {
    ($a:expr, $b:expr, $label:expr) => {{
        let (a, b) = (&$a, &$b);
        prop_assert_eq!(a.num_groups(), b.num_groups(), "{}: group count", $label);
        for (ga, gb) in a.groups.iter().zip(&b.groups) {
            prop_assert_eq!(&ga.key, &gb.key, "{}: key order", $label);
            prop_assert_eq!(&ga.target, &gb.target, "{}: target accumulators", $label);
            prop_assert_eq!(
                &ga.reference,
                &gb.reference,
                "{}: reference accumulators",
                $label
            );
        }
    }};
}

/// [`prop_assert_identical`] plus equal `finish` bits for every aggregate
/// of every group: `==` compares `min`/`max` as numbers, under which `-0.0`
/// equals `0.0`.
macro_rules! prop_assert_bit_identical {
    ($a:expr, $b:expr, $label:expr) => {{
        let (a, b) = (&$a, &$b);
        prop_assert_identical!(a, b, $label);
        for (ga, gb) in a.groups.iter().zip(&b.groups) {
            for (i, spec) in a.aggregates.iter().enumerate() {
                let bits = |acc: &Accumulator| acc.finish(spec.func).map(f64::to_bits);
                for (side, x, y) in [
                    ("target", &ga.target[i], &gb.target[i]),
                    ("reference", &ga.reference[i], &gb.reference[i]),
                ] {
                    prop_assert_eq!(bits(x), bits(y), "{}: {} {} bits", $label, spec.func, side);
                }
            }
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scalar vs vectorized, one-shot, on both store layouts.
    #[test]
    fn scalar_and_vectorized_agree_exactly(ds in arb_dataset(), query in arb_query()) {
        for kind in [StoreKind::Row, StoreKind::Column] {
            let t = build(&ds, kind);
            let scalar = run(&t, &query, ExecMode::Scalar, 1);
            let vectorized = run(&t, &query, ExecMode::Vectorized, 1);
            prop_assert_bit_identical!(scalar, vectorized, format!("{kind}"));
        }
    }

    /// Phased vectorized execution equals one-shot scalar execution: the
    /// resumable `PartialAggregation` contract survives batching.
    #[test]
    fn phased_vectorized_equals_one_shot_scalar(
        ds in arb_dataset(),
        query in arb_query(),
        phases in 1usize..7,
    ) {
        let t = build(&ds, StoreKind::Column);
        let scalar = run(&t, &query, ExecMode::Scalar, 1);
        let phased = run(&t, &query, ExecMode::Vectorized, phases);
        prop_assert_identical!(scalar, phased, format!("{phases} phases"));
    }

    /// Row and column stores agree bit-for-bit under the vectorized path
    /// (zero-copy column batches vs materialized row-store batches).
    #[test]
    fn row_and_column_stores_agree_vectorized(
        ds in arb_dataset(),
        query in arb_query(),
        phases in 1usize..5,
    ) {
        let row_t = build(&ds, StoreKind::Row);
        let col_t = build(&ds, StoreKind::Column);
        let a = run(&row_t, &query, ExecMode::Vectorized, phases);
        let b = run(&col_t, &query, ExecMode::Vectorized, phases);
        prop_assert_identical!(a, b, "ROW vs COL");
    }

    /// Morsel-driven parallel execution is bit-identical to the serial
    /// scalar oracle across the full cross product of worker counts,
    /// morsel sizes (including single-row and whole-range), store layouts,
    /// and group-index shapes (`arb_group_by` spans the dense index over
    /// one attribute and over two, and the hash fallback).
    #[test]
    fn morsel_parallel_execution_is_bit_identical(
        ds in arb_dataset(),
        query in arb_query(),
    ) {
        for kind in [StoreKind::Row, StoreKind::Column] {
            let t = build(&ds, kind);
            let serial = run(&t, &query, ExecMode::Scalar, 1);
            for threads in [1usize, 2, 8] {
                const MORSELS: [usize; 4] = [1, 7, 1024, usize::MAX];
                // One pool per worker count; all morsel sweeps reuse it.
                let per_morsel: Vec<(GroupedResult, ExecStats)> = with_pool(threads, |pool| {
                    MORSELS
                        .iter()
                        .map(|&morsel_rows| {
                            execute_morsels(
                                pool,
                                t.as_ref(),
                                std::slice::from_ref(&query),
                                0..t.num_rows(),
                                ScanShape::new(ExecMode::Vectorized, morsel_rows),
                                &seedb_engine::CancelToken::none(),
                            )
                            .pop()
                            .expect("one query in, one result out")
                        })
                        .collect()
                });
                for (morsel_rows, (morsel_result, stats)) in MORSELS.iter().zip(&per_morsel) {
                    // Zone-map pruning may skip partitions outright (e.g. a
                    // `False` filter prunes everything); absent pruning the
                    // full range must still be walked.
                    if stats.partitions_pruned == 0 {
                        prop_assert_eq!(stats.rows_scanned, t.num_rows() as u64);
                    } else {
                        prop_assert!(stats.rows_scanned < t.num_rows() as u64);
                    }
                    prop_assert_bit_identical!(
                        serial,
                        *morsel_result,
                        format!("{kind} threads={threads} morsel={morsel_rows}")
                    );
                }
            }
        }
    }

    /// Mid-stream snapshots are identical across modes after every phase.
    #[test]
    fn snapshots_agree_across_modes(ds in arb_dataset(), query in arb_query()) {
        let t = build(&ds, StoreKind::Column);
        let n = t.num_rows();
        let mut scalar = PartialAggregation::with_mode(query.clone(), ExecMode::Scalar);
        let mut vectorized = PartialAggregation::with_mode(query.clone(), ExecMode::Vectorized);
        let mut stats = ExecStats::new();
        for (lo, hi) in [(0, n / 2), (n / 2, n)] {
            scalar.update(t.as_ref(), lo..hi, &mut stats);
            vectorized.update(t.as_ref(), lo..hi, &mut stats);
            prop_assert_eq!(scalar.rows_consumed(), vectorized.rows_consumed());
            prop_assert_eq!(scalar.num_groups(), vectorized.num_groups());
            prop_assert_identical!(scalar.snapshot(), vectorized.snapshot(), "snapshot");
        }
    }
}

/// Magnitude regime of one stretch of a measure column.
#[derive(Debug, Clone, Copy)]
enum Regime {
    /// `scale · [-4, 4)`.
    Around(f64),
    /// Exponents spread over 80 binades: wider than any lane.
    Wide,
    /// ±0 and a few ordinary values.
    Zeros,
    /// Ordinary values with ±∞, NaN and subnormals sprinkled in.
    Sprinkled,
}

fn arb_regime() -> BoxedStrategy<Regime> {
    prop_oneof![
        3 => Just(Regime::Around(1.0)),
        2 => Just(Regime::Around(1e-200)),
        2 => Just(Regime::Around(1e200)),
        1 => Just(Regime::Around(3e5)),
        1 => Just(Regime::Wide),
        1 => Just(Regime::Zeros),
        1 => Just(Regime::Sprinkled),
    ]
    .boxed()
}

/// Row `i`'s value under `regime`, from the 64 random bits `r`.
fn regime_value(regime: Regime, r: u64) -> f64 {
    let unit = (r >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    let ordinary = (unit - 0.5) * 8.0;
    match regime {
        Regime::Around(scale) => ordinary * scale,
        Regime::Wide => ordinary * 2f64.powi((r % 80) as i32 - 40),
        Regime::Zeros => match r % 4 {
            0 => -0.0,
            1 | 2 => 0.0,
            _ => ordinary,
        },
        Regime::Sprinkled => match r % 16 {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => f64::NAN,
            3 => f64::from_bits(r >> 13),
            _ => ordinary,
        },
    }
}

/// A table `a | b | m | p`: two dimensions, a NULL-free float measure `m`
/// and a float measure `p` that is NULL in some stretches only (so the ROW
/// store's per-batch validity comes and goes). Each stretch — up to 1 500
/// rows, around a batch — draws `m` and `p` from its own regimes.
fn seam_table(
    stretches: &[(usize, Regime, Regime, bool)],
    seed: u64,
    kind: StoreKind,
) -> BoxedTable {
    let mut b = TableBuilder::new(vec![
        ColumnDef::dim("a"),
        ColumnDef::dim("b"),
        ColumnDef::new("m", ColumnType::Float64, ColumnRole::Measure),
        ColumnDef::new("p", ColumnType::Float64, ColumnRole::Measure),
    ]);
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for &(len, m_regime, p_regime, p_nulls) in stretches {
        for _ in 0..len {
            let r = next();
            let p = if p_nulls && r % 5 == 0 {
                Value::Null
            } else {
                Value::Float(regime_value(p_regime, next()))
            };
            b.push_row(&[
                Value::str(format!("a{}", r % 4)),
                Value::str(format!("b{}", (r >> 8) % 3)),
                Value::Float(regime_value(m_regime, next())),
                p,
            ])
            .unwrap();
        }
    }
    b.build(kind).unwrap()
}

fn arb_seam_query() -> BoxedStrategy<CombinedQuery> {
    let leaf = || {
        prop_oneof![
            Just(Predicate::True),
            (0u32..4).prop_map(|code| Predicate::CatEq {
                col: ColumnId(0),
                code
            }),
            prop::collection::vec(0u32..3, 0..3).prop_map(|codes| Predicate::CatIn {
                col: ColumnId(1),
                codes
            }),
            (-3.0f64..3.0).prop_map(|value| Predicate::NumCmp {
                col: ColumnId(2),
                op: CmpOp::Lt,
                value,
            }),
        ]
    };
    let split = prop_oneof![
        leaf().prop_map(SplitSpec::TargetVsAll),
        leaf().prop_map(SplitSpec::TargetVsComplement),
        (leaf(), leaf())
            .prop_map(|(target, reference)| SplitSpec::TargetVsQuery { target, reference }),
        leaf().prop_map(SplitSpec::TargetOnly),
    ];
    (any::<bool>(), split)
        .prop_map(|(composite, split)| CombinedQuery {
            group_by: if composite {
                vec![ColumnId(0), ColumnId(1)]
            } else {
                vec![ColumnId(0)]
            },
            aggregates: vec![
                AggSpec::new(AggFunc::Sum, ColumnId(2)),
                AggSpec::new(AggFunc::Avg, ColumnId(3)),
                AggSpec::new(AggFunc::Min, ColumnId(2)),
                AggSpec::new(AggFunc::Max, ColumnId(3)),
            ],
            filter: None,
            split,
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The seams of the fixed-point lanes, all bit-identical to one serial
    /// scalar pass (`parallelism = 1`): magnitude jumps between stretches
    /// of a column, phases cut anywhere, a partial merged into one that
    /// placed its lanes by other magnitudes (both ways), a partial drained,
    /// snapshotted and reused — a lane that kept anything across the drain
    /// would show in the next range's result — and a validity bitmap that
    /// covers one of the two measures in some batches only.
    #[test]
    fn lane_seams_equal_scalar(
        stretches in prop::collection::vec(
            (1usize..1500, arb_regime(), arb_regime(), any::<bool>()),
            1..5,
        ),
        seed in any::<u64>(),
        query in arb_seam_query(),
        cuts in (0usize..6000, 1usize..5),
    ) {
        for kind in [StoreKind::Row, StoreKind::Column] {
            let t = seam_table(&stretches, seed, kind);
            let n = t.num_rows();
            let scalar = run(&t, &query, ExecMode::Scalar, 1);
            prop_assert_identical!(scalar, run(&t, &query, ExecMode::Vectorized, 1), format!("{kind} one-shot"));
            prop_assert_identical!(scalar, run(&t, &query, ExecMode::Vectorized, cuts.1), format!("{kind} phased"));

            // Two partials, each over its own side of `cut`, merged both ways.
            let cut = cuts.0 % (n + 1);
            let part = |range: std::ops::Range<usize>| {
                let mut agg = PartialAggregation::with_mode(query.clone(), ExecMode::Vectorized);
                agg.update(t.as_ref(), range, &mut ExecStats::new());
                agg
            };
            let (mut low, mut high) = (part(0..cut), part(cut..n));
            low.merge(&mut high);
            prop_assert_eq!(high.touched_groups(), 0);
            prop_assert_identical!(scalar, low.finalize(), format!("{kind} low<-high at {cut}"));
            let (mut low, mut high) = (part(0..cut), part(cut..n));
            high.merge(&mut low);
            prop_assert_identical!(scalar, high.finalize(), format!("{kind} high<-low at {cut}"));

            // One partial: range, snapshot, drain, next range.
            let fresh = |range: std::ops::Range<usize>| {
                let mut agg = PartialAggregation::with_mode(query.clone(), ExecMode::Scalar);
                agg.update(t.as_ref(), range, &mut ExecStats::new());
                agg.finalize()
            };
            let mut reused = PartialAggregation::with_mode(query.clone(), ExecMode::Vectorized);
            for range in [0..cut, cut..n, 0..n] {
                reused.update(t.as_ref(), range.clone(), &mut ExecStats::new());
                let want = fresh(range.clone());
                prop_assert_identical!(want, reused.snapshot(), format!("{kind} snapshot of {range:?}"));
                prop_assert_identical!(want, reused.drain_result(), format!("{kind} drain of {range:?}"));
                prop_assert_eq!(reused.touched_groups(), 0);
            }
        }
    }
}

/// A table whose dictionary for column `col` is reported narrower than the
/// codes its rows carry — what a group index planned against one table
/// instance sees when fed another. Everything else delegates.
struct NarrowDictionary {
    inner: BoxedTable,
    col: ColumnId,
    narrow: seedb_storage::Dictionary,
}

impl seedb_storage::Table for NarrowDictionary {
    fn schema(&self) -> &seedb_storage::Schema {
        self.inner.schema()
    }
    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }
    fn kind(&self) -> StoreKind {
        self.inner.kind()
    }
    fn dictionary(&self, col: ColumnId) -> Option<&seedb_storage::Dictionary> {
        if col == self.col {
            Some(&self.narrow)
        } else {
            self.inner.dictionary(col)
        }
    }
    fn stats(&self, col: ColumnId) -> &seedb_storage::ColumnStats {
        self.inner.stats(col)
    }
    fn partitions(&self) -> &[seedb_storage::Partition] {
        self.inner.partitions()
    }
    fn cell(&self, row: usize, col: ColumnId) -> seedb_storage::Cell {
        self.inner.cell(row, col)
    }
    fn scan_range(
        &self,
        projection: &[ColumnId],
        range: std::ops::Range<usize>,
        visitor: &mut dyn FnMut(&[seedb_storage::Cell]),
    ) {
        self.inner.scan_range(projection, range, visitor)
    }
    fn scan_batches(
        &self,
        projection: &[ColumnId],
        range: std::ops::Range<usize>,
        batch_size: usize,
        visitor: &mut dyn FnMut(&seedb_storage::Batch<'_>),
    ) {
        self.inner
            .scan_batches(projection, range, batch_size, visitor)
    }
}

/// The table of the session property: `ds` with `a4` held back until row
/// `stray_from`, in partitions of `partition_rows`, and — when `narrow` —
/// behind a dictionary for `a` that stops short of the label interned
/// last. That label's code is then out of radix for every group index
/// planned against the table, and no range before its first row sees it.
fn session_table(
    ds: &Dataset,
    kind: StoreKind,
    stray_from: usize,
    narrow: bool,
    partition_rows: usize,
) -> BoxedTable {
    let mut ds = ds.clone();
    for row in ds.rows.iter_mut().take(stray_from) {
        if row.0 == Some(4) {
            row.0 = Some(3);
        }
    }
    let inner = build_partitioned(&ds, kind, partition_rows);
    let full = inner.dictionary(ColumnId(0)).unwrap();
    if !narrow || full.len() < 2 {
        return inner;
    }
    let mut narrow = seedb_storage::Dictionary::new();
    for (_, label) in full.iter().take(full.len() - 1) {
        narrow.intern(label);
    }
    std::sync::Arc::new(NarrowDictionary {
        inner,
        col: ColumnId(0),
        narrow,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One session, K consecutive ranges: range by range, every query's
    /// drained result equals a fresh scalar aggregation of that range — on
    /// both stores, through the dense index over one and over two
    /// attributes and the hash index, with NULL dimensions, with a code
    /// past the planned radix that only later ranges contain, on 1, 2 and 8
    /// workers, with morsels shorter than a partition (cut inside it) and
    /// longer (adjacent partition pieces scanned as one). The query list
    /// alternates between two lists as `lists` says — the same two queries
    /// in either order: a repeated list reuses the drained partials, a
    /// changed one must rebuild them.
    #[test]
    fn session_ranges_equal_fresh_scalar_runs(
        ds in arb_dataset(),
        (stray_from, narrow) in (0usize..250, any::<bool>()),
        queries in (arb_query(), arb_query()),
        cuts in prop::collection::vec(0usize..250, 0..6),
        lists in prop::collection::vec(any::<bool>(), 7),
        (partition_rows, mode) in (
            prop_oneof![Just(16usize), Just(64), Just(8192)],
            prop_oneof![
                1 => Just(ExecMode::Scalar),
                2 => Just(ExecMode::Vectorized),
            ],
        ),
    ) {
        let list_a = vec![queries.0.clone(), queries.1.clone()];
        let list_b = vec![queries.1.clone(), queries.0.clone()];
        for kind in [StoreKind::Row, StoreKind::Column] {
            let t = session_table(&ds, kind, stray_from, narrow, partition_rows);
            let n = t.num_rows();
            let mut edges: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
            edges.extend([0, n]);
            edges.sort_unstable();
            // (query list, range, the fresh scalar result of every query).
            let calls: Vec<(&Vec<CombinedQuery>, std::ops::Range<usize>, Vec<GroupedResult>)> = edges
                .windows(2)
                .zip(&lists)
                .map(|(edge, &first)| {
                    let list = if first { &list_a } else { &list_b };
                    let range = edge[0]..edge[1];
                    let want = list
                        .iter()
                        .map(|q| {
                            let mut fresh = PartialAggregation::with_mode(q.clone(), ExecMode::Scalar);
                            fresh.update(t.as_ref(), range.clone(), &mut ExecStats::new());
                            fresh.finalize()
                        })
                        .collect();
                    (list, range, want)
                })
                .collect();
            for threads in [1usize, 2, 8] {
                with_pool(threads, |pool| {
                    for morsel_rows in [7usize, 64, usize::MAX] {
                        let mut session = ScanSession::new(
                            pool,
                            t.as_ref(),
                            ScanShape::new(mode, morsel_rows),
                            &CancelToken::none(),
                            &TraceCtx::disabled(),
                        );
                        for (list, range, want) in &calls {
                            let got = session
                                .scan(list, range.clone(), |_, partial| partial.drain_result())
                                .expect("no deadline");
                            prop_assert_eq!(got.len(), want.len());
                            for ((result, stats), want) in got.iter().zip(want) {
                                prop_assert_eq!(
                                    result, want,
                                    "{} {} threads={} morsel={} partition={} range {:?}",
                                    kind, mode, threads, morsel_rows, partition_rows, range
                                );
                                prop_assert_eq!(stats.queries_issued, 1);
                                prop_assert_eq!(stats.groups_max, want.num_groups() as u64);
                                if stats.partitions_pruned == 0 {
                                    prop_assert_eq!(stats.rows_scanned, range.len() as u64);
                                }
                            }
                        }
                    }
                });
            }
        }
    }
}

/// The dense index's column-at-a-time slot pass and both of its row-wise
/// fallbacks, in one table, grouping by one attribute and by two. The ROW
/// store reports validity per batch, so 1024-row batch 0 is all dense
/// in-radix code slices (fast path), batch 1 holds one code past the
/// planned radix (the per-batch flag sends it row-wise, the stray spilling
/// to the hash map), batch 2 holds NULL dimensions (validity present:
/// row-wise), and batch 3 is dense again — re-entering the fast path on
/// groups the fallbacks made.
#[test]
fn composite_fast_path_and_fallbacks_agree_with_scalar() {
    const BATCH: usize = 1024;
    let mut b = TableBuilder::new(vec![
        ColumnDef::dim("a"),
        ColumnDef::dim("b"),
        ColumnDef::new("flag", ColumnType::Bool, ColumnRole::Dimension),
        ColumnDef::new("m", ColumnType::Float64, ColumnRole::Measure),
        ColumnDef::new("n", ColumnType::Int64, ColumnRole::Measure),
    ]);
    for i in 0..4 * BATCH + 100 {
        let batch = i / BATCH;
        let a = if i == BATCH + 17 {
            Value::str("stray")
        } else if batch == 2 && i % 7 == 0 {
            Value::Null
        } else {
            Value::str(format!("a{}", i % 3))
        };
        let bb = if batch == 2 && i % 5 == 0 {
            Value::Null
        } else {
            Value::str(format!("b{}", i % 2))
        };
        b.push_row(&[
            a,
            bb,
            Value::Bool(i % 4 == 0),
            Value::Float((i % 101) as f64 * 0.37 - 11.0),
            Value::Int((i % 13) as i64 - 6),
        ])
        .unwrap();
    }
    let inner = b.build(StoreKind::Row).unwrap();
    // Labels intern in first-seen order: a0, a1, a2, then the stray.
    let full = inner.dictionary(ColumnId(0)).unwrap();
    assert_eq!(full.code("stray"), Some(3));
    let mut narrow = seedb_storage::Dictionary::new();
    for (_, label) in full.iter().take(3) {
        narrow.intern(label);
    }
    let table: BoxedTable = std::sync::Arc::new(NarrowDictionary {
        inner,
        col: ColumnId(0),
        narrow,
    });

    // 3 labels + stray + NULL on `a`, 2 labels + NULL on `b`: beyond the
    // groups the labels alone make, the stray row and the NULL rows each
    // open groups of their own.
    for (group_by, labelled) in [(vec![ColumnId(0)], 3), (vec![ColumnId(0), ColumnId(1)], 6)] {
        for split in [
            SplitSpec::TargetVsAll(Predicate::BoolEq {
                col: ColumnId(2),
                value: true,
            }),
            SplitSpec::TargetOnly(Predicate::NumCmp {
                col: ColumnId(3),
                op: CmpOp::Gt,
                value: 20.0,
            }),
        ] {
            let query = CombinedQuery {
                group_by: group_by.clone(),
                aggregates: vec![
                    AggSpec::new(AggFunc::Avg, ColumnId(3)),
                    AggSpec::new(AggFunc::Sum, ColumnId(4)),
                ],
                filter: None,
                split,
            };
            let scalar = run(&table, &query, ExecMode::Scalar, 1);
            let groups = scalar.num_groups();
            assert!(groups > labelled, "{groups} groups by {group_by:?}");
            for phases in [1, 3] {
                let vectorized = run(&table, &query, ExecMode::Vectorized, phases);
                assert_eq!(scalar.num_groups(), vectorized.num_groups());
                for (ga, gb) in scalar.groups.iter().zip(&vectorized.groups) {
                    assert_eq!(ga.key, gb.key, "{phases} phases");
                    assert_eq!(ga.target, gb.target, "{phases} phases");
                    assert_eq!(ga.reference, gb.reference, "{phases} phases");
                }
            }
        }
    }
}

/// MIN and MAX over both zeros are `-0.0` and `+0.0`, bit for bit, however
/// the rows are cut into morsels and whichever worker's partial saw which
/// zero first: with one-row morsels on four workers, partials merge in
/// every order. `m` is NULL-free and also summed, so its extremes are
/// widened in the lane loop (`-0.0` is a stray there, `+0.0` a lane term);
/// `p` has NULLs and goes one value at a time.
#[test]
fn extremes_of_signed_zeros_are_bit_identical_across_morsel_shapes() {
    // Group z0 sees +0 before -0, z1 the reverse, z2 only +0 and z3 only
    // -0; group x holds the ordinary values that place the lanes.
    let mut b = TableBuilder::new(vec![
        ColumnDef::dim("g"),
        ColumnDef::new("m", ColumnType::Float64, ColumnRole::Measure),
        ColumnDef::new("p", ColumnType::Float64, ColumnRole::Measure),
    ]);
    let zeros = |group: usize, i: usize| match group {
        0 => [0.0, -0.0][usize::from(i >= 20)],
        1 => [-0.0, 0.0][usize::from(i >= 20)],
        2 => 0.0,
        _ => -0.0,
    };
    for i in 0..40 {
        for group in 0..4 {
            let z = zeros(group, i);
            let p = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Float(z)
            };
            b.push_row(&[Value::str(format!("z{group}")), Value::Float(z), p])
                .unwrap();
        }
        let x = i as f64 - 19.5;
        b.push_row(&[Value::str("x"), Value::Float(x), Value::Float(x)])
            .unwrap();
    }
    let t = b.build(StoreKind::Column).unwrap();
    let query = CombinedQuery {
        group_by: vec![ColumnId(0)],
        aggregates: vec![
            AggSpec::new(AggFunc::Sum, ColumnId(1)),
            AggSpec::new(AggFunc::Min, ColumnId(1)),
            AggSpec::new(AggFunc::Max, ColumnId(1)),
            AggSpec::new(AggFunc::Min, ColumnId(2)),
            AggSpec::new(AggFunc::Max, ColumnId(2)),
        ],
        filter: None,
        split: SplitSpec::TargetOnly(Predicate::True),
    };
    let (neg, pos) = ((-0.0f64).to_bits(), 0.0f64.to_bits());
    // (MIN, MAX) bits of z0 ..= z3, groups in first-seen order.
    let want = [(neg, pos), (neg, pos), (pos, pos), (neg, neg)];
    let check = |result: &GroupedResult, label: &str| {
        for (group, &(min, max)) in want.iter().enumerate() {
            let target = &result.groups[group].target;
            for (agg, func, bits) in [
                (1, AggFunc::Min, min),
                (2, AggFunc::Max, max),
                (3, AggFunc::Min, min),
                (4, AggFunc::Max, max),
            ] {
                let got = target[agg].finish(func).map(f64::to_bits);
                assert_eq!(
                    got,
                    Some(bits),
                    "{label}: z{group} {func} (aggregate {agg})"
                );
            }
        }
    };
    for mode in ExecMode::ALL {
        check(&run(&t, &query, mode, 1), &format!("{mode} one-shot"));
    }
    for threads in [1usize, 4] {
        with_pool(threads, |pool| {
            for morsel_rows in [1usize, 7, 64] {
                let (result, _) = execute_morsels(
                    pool,
                    t.as_ref(),
                    std::slice::from_ref(&query),
                    0..t.num_rows(),
                    ScanShape::new(ExecMode::Vectorized, morsel_rows),
                    &CancelToken::none(),
                )
                .pop()
                .expect("one query in, one result out");
                check(&result, &format!("threads={threads} morsel={morsel_rows}"));
            }
        });
    }
}
