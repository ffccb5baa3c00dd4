//! Property tests for the engine's sharing rewrites: every §4.1
//! optimization must be *result-preserving*. We generate random tables and
//! random view sets, then check that
//!
//! 1. combined multi-aggregate queries ≡ separate per-aggregate queries,
//! 2. multi-GROUP-BY queries + rollup ≡ direct single-attribute queries,
//! 3. combined target/reference execution ≡ two separate `TargetOnly` runs,
//! 4. phased (partitioned) execution ≡ one-shot execution,
//! 5. ROW and COL layouts agree,
//! 6. 1–3 hold bit for bit against the serial scalar engine when a measure
//!    changes magnitude mid-scan (the vectorized path's fixed-point lanes
//!    stray, fold and are placed again) and only one of two measures has
//!    NULLs,
//! 7. every function over one measure, sharing one accumulator state, is
//!    bit for bit what a query of that function alone computes — in both
//!    modes, on one and four workers, drained range after range.

use proptest::prelude::*;
use seedb_engine::{
    execute_combined, execute_combined_with_mode, rollup, with_pool, AggFunc, AggSpec, CancelToken,
    CombinedQuery, ExecMode, ExecStats, GroupedResult, PartialAggregation, Predicate, ScanSession,
    ScanShape, SplitSpec, TraceCtx,
};
use seedb_storage::{
    BoxedTable, ColumnDef, ColumnId, ColumnRole, ColumnType, StoreKind, TableBuilder, Value,
};

#[derive(Debug, Clone)]
struct Dataset {
    rows: Vec<(u8, u8, u8, Option<f64>)>, // (dim_a, dim_b, dim_c, measure)
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        (0u8..4, 0u8..3, 0u8..5, prop::option::of(-100.0f64..100.0)),
        1..200,
    )
    .prop_map(|rows| Dataset { rows })
}

fn build(ds: &Dataset, kind: StoreKind) -> BoxedTable {
    let mut b = TableBuilder::new(vec![
        ColumnDef::dim("a"),
        ColumnDef::dim("b"),
        ColumnDef::dim("c"),
        ColumnDef::new("m", ColumnType::Float64, ColumnRole::Measure),
    ]);
    for (a, bb, c, m) in &ds.rows {
        b.push_row(&[
            Value::str(format!("a{a}")),
            Value::str(format!("b{bb}")),
            Value::str(format!("c{c}")),
            m.map(Value::Float).unwrap_or(Value::Null),
        ])
        .unwrap();
    }
    b.build(kind).unwrap()
}

fn target_pred(table: &dyn seedb_storage::Table) -> Predicate {
    // Target = rows with dim_a == 'a0' (always a valid label if present;
    // Predicate::False otherwise, which is also a legal target).
    Predicate::col_eq_str(table, "a", "a0")
}

fn vectors_close(x: &(Vec<f64>, Vec<f64>), y: &(Vec<f64>, Vec<f64>)) -> bool {
    let close = |p: &[f64], q: &[f64]| {
        p.len() == q.len()
            && p.iter()
                .zip(q)
                .all(|(a, b)| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())))
    };
    close(&x.0, &y.0) && close(&x.1, &y.1)
}

const FUNCS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn combined_aggregates_equal_separate_queries(ds in arb_dataset()) {
        let t = build(&ds, StoreKind::Column);
        let split = SplitSpec::TargetVsAll(target_pred(t.as_ref()));
        let combined = CombinedQuery {
            group_by: vec![ColumnId(0)],
            aggregates: FUNCS.iter().map(|&f| AggSpec::new(f, ColumnId(3))).collect(),
            filter: None,
            split: split.clone(),
        };
        let merged = execute_combined(t.as_ref(), &combined, &mut ExecStats::new());
        for (i, &f) in FUNCS.iter().enumerate() {
            let single = CombinedQuery::single(
                ColumnId(0),
                AggSpec::new(f, ColumnId(3)),
                split.clone(),
            );
            let alone = execute_combined(t.as_ref(), &single, &mut ExecStats::new());
            prop_assert!(
                vectors_close(&merged.value_vectors(i), &alone.value_vectors(0)),
                "aggregate {f} diverged"
            );
        }
    }

    #[test]
    fn multi_group_by_rollup_equals_direct(ds in arb_dataset()) {
        let t = build(&ds, StoreKind::Column);
        let split = SplitSpec::TargetVsComplement(target_pred(t.as_ref()));
        let aggs = vec![
            AggSpec::new(AggFunc::Count, ColumnId(3)),
            AggSpec::new(AggFunc::Avg, ColumnId(3)),
        ];
        let multi = CombinedQuery {
            group_by: vec![ColumnId(1), ColumnId(2)],
            aggregates: aggs.clone(),
            filter: None,
            split: split.clone(),
        };
        let multi_result = execute_combined(t.as_ref(), &multi, &mut ExecStats::new());
        for (pos, dim) in [(0usize, 1u32), (1, 2)] {
            let rolled = rollup(&multi_result, pos);
            let direct = execute_combined(
                t.as_ref(),
                &CombinedQuery {
                    group_by: vec![ColumnId(dim)],
                    aggregates: aggs.clone(),
                    filter: None,
                    split: split.clone(),
                },
                &mut ExecStats::new(),
            );
            prop_assert_eq!(rolled.num_groups(), direct.num_groups());
            for agg in 0..aggs.len() {
                prop_assert!(
                    vectors_close(&rolled.value_vectors(agg), &direct.value_vectors(agg)),
                    "rollup diverged on dim {} agg {}", dim, agg
                );
            }
        }
    }

    #[test]
    fn combined_split_equals_two_target_only_queries(ds in arb_dataset()) {
        let t = build(&ds, StoreKind::Column);
        let target = target_pred(t.as_ref());
        let combined = CombinedQuery::single(
            ColumnId(1),
            AggSpec::new(AggFunc::Sum, ColumnId(3)),
            SplitSpec::TargetVsComplement(target.clone()),
        );
        let both = execute_combined(t.as_ref(), &combined, &mut ExecStats::new());

        let run_side = |pred: Predicate| -> GroupedResult {
            execute_combined(
                t.as_ref(),
                &CombinedQuery::single(
                    ColumnId(1),
                    AggSpec::new(AggFunc::Sum, ColumnId(3)),
                    SplitSpec::TargetOnly(pred),
                ),
                &mut ExecStats::new(),
            )
        };
        let t_side = run_side(target.clone());
        let r_side = run_side(target.negate());

        // Align by key: combined result may have groups the single-sided
        // queries lack (a group whose rows are all on one side).
        for g in &both.groups {
            let t_val = g.target[0].finish(AggFunc::Sum).unwrap();
            let r_val = g.reference[0].finish(AggFunc::Sum).unwrap();
            let t_direct = t_side
                .groups
                .iter()
                .find(|e| e.key == g.key)
                .map(|e| e.target[0].finish(AggFunc::Sum).unwrap())
                .unwrap_or(0.0);
            let r_direct = r_side
                .groups
                .iter()
                .find(|e| e.key == g.key)
                .map(|e| e.target[0].finish(AggFunc::Sum).unwrap())
                .unwrap_or(0.0);
            prop_assert!((t_val - t_direct).abs() < 1e-9);
            prop_assert!((r_val - r_direct).abs() < 1e-9);
        }
    }

    #[test]
    fn phased_execution_equals_one_shot(ds in arb_dataset(), phases in 1usize..8) {
        let t = build(&ds, StoreKind::Row);
        let q = CombinedQuery::single(
            ColumnId(2),
            AggSpec::new(AggFunc::Avg, ColumnId(3)),
            SplitSpec::TargetVsAll(target_pred(t.as_ref())),
        );
        let one_shot = execute_combined(t.as_ref(), &q, &mut ExecStats::new());

        let n = t.num_rows();
        let mut partial = PartialAggregation::new(q);
        let mut stats = ExecStats::new();
        for i in 0..phases {
            let lo = n * i / phases;
            let hi = n * (i + 1) / phases;
            partial.update(t.as_ref(), lo..hi, &mut stats);
        }
        let phased = partial.finalize();
        prop_assert_eq!(one_shot.num_groups(), phased.num_groups());
        prop_assert!(vectors_close(&one_shot.value_vectors(0), &phased.value_vectors(0)));
        prop_assert_eq!(stats.rows_scanned, n as u64);
    }

    #[test]
    fn row_and_column_stores_agree(ds in arb_dataset()) {
        let row_t = build(&ds, StoreKind::Row);
        let col_t = build(&ds, StoreKind::Column);
        let q = CombinedQuery {
            group_by: vec![ColumnId(0), ColumnId(1)],
            aggregates: vec![
                AggSpec::new(AggFunc::Count, ColumnId(3)),
                AggSpec::new(AggFunc::Avg, ColumnId(3)),
            ],
            filter: None,
            split: SplitSpec::TargetVsComplement(target_pred(row_t.as_ref())),
        };
        let a = execute_combined(row_t.as_ref(), &q, &mut ExecStats::new());
        let b = execute_combined(col_t.as_ref(), &q, &mut ExecStats::new());
        prop_assert_eq!(a.num_groups(), b.num_groups());
        for agg in 0..2 {
            prop_assert!(vectors_close(&a.value_vectors(agg), &b.value_vectors(agg)));
        }
    }
}

/// `a | b | c | m | p` over `rows` rows: `m` is NULL-free and `tiny` times
/// smaller before row `jump` than after it; `p` is NULL on every fifth row.
fn jumping_table(rows: usize, jump: usize, tiny: f64, seed: u64, kind: StoreKind) -> BoxedTable {
    let mut b = TableBuilder::new(vec![
        ColumnDef::dim("a"),
        ColumnDef::dim("b"),
        ColumnDef::dim("c"),
        ColumnDef::new("m", ColumnType::Float64, ColumnRole::Measure),
        ColumnDef::new("p", ColumnType::Float64, ColumnRole::Measure),
    ]);
    let mut state = seed | 1;
    for i in 0..rows {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let x = ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 200.0;
        b.push_row(&[
            Value::str(format!("a{}", state % 4)),
            Value::str(format!("b{}", (state >> 8) % 3)),
            Value::str(format!("c{}", (state >> 16) % 5)),
            Value::Float(if i < jump { x * tiny } else { x }),
            if i % 5 == 0 {
                Value::Null
            } else {
                Value::Float(x + 0.25)
            },
        ])
        .unwrap();
    }
    b.build(kind).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharing_rewrites_hold_bitwise_across_lane_seams(
        rows in 1usize..4000,
        jump in 0usize..4000,
        tiny in prop_oneof![Just(1.0), Just(1e-9), Just(1e-30), Just(1e-250)],
        seed in any::<u64>(),
        row_store in any::<bool>(),
    ) {
        let kind = if row_store { StoreKind::Row } else { StoreKind::Column };
        let t = jumping_table(rows, jump, tiny, seed, kind);
        let split = SplitSpec::TargetVsAll(target_pred(t.as_ref()));
        let run = |q: &CombinedQuery, mode| execute_combined_with_mode(t.as_ref(), q, mode, &mut ExecStats::new());
        let aggregates = vec![
            AggSpec::new(AggFunc::Sum, ColumnId(3)),
            AggSpec::new(AggFunc::Avg, ColumnId(4)),
            AggSpec::new(AggFunc::Max, ColumnId(3)),
        ];

        // One packed cluster, every aggregate and both sides in one scan …
        let packed = run(
            &CombinedQuery { group_by: vec![ColumnId(1), ColumnId(2)], aggregates: aggregates.clone(), filter: None, split: split.clone() },
            ExecMode::Vectorized,
        );
        for (pos, dim) in [(0usize, 1u32), (1, 2)] {
            let rolled = rollup(&packed, pos);
            for (i, agg) in aggregates.iter().enumerate() {
                // … against one serial scalar query per dimension and aggregate.
                let direct = run(&CombinedQuery::single(ColumnId(dim), *agg, split.clone()), ExecMode::Scalar);
                prop_assert_eq!(rolled.num_groups(), direct.num_groups());
                for (r, d) in rolled.groups.iter().zip(&direct.groups) {
                    prop_assert_eq!(&r.key, &d.key);
                    prop_assert_eq!(&r.target[i], &d.target[0], "dim {} agg {} target", dim, i);
                    prop_assert_eq!(&r.reference[i], &d.reference[0], "dim {} agg {} reference", dim, i);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One cluster computing COUNT, SUM, AVG, MIN and MAX of `m` (NULL-free:
    /// lanes, with strays at the magnitude jump) and of `p` (NULL-able: one
    /// value at a time) keeps one state per measure, and hands each
    /// aggregate exactly the accumulator — and the `finish` bits — of a
    /// query of that aggregate alone. All eleven queries run in one scan
    /// session, range by range, so the phased drains, both modes and both
    /// worker counts see the same cuts.
    #[test]
    fn one_state_per_measure_serves_every_function_bit_for_bit(
        rows in 1usize..3000,
        jump in 0usize..3000,
        tiny in prop_oneof![Just(1.0), Just(1e-30)],
        seed in any::<u64>(),
        cuts in prop::collection::vec(0usize..3000, 0..4),
    ) {
        let t = jumping_table(rows, jump, tiny, seed, StoreKind::Column);
        let split = SplitSpec::TargetVsAll(target_pred(t.as_ref()));
        let aggregates: Vec<AggSpec> = [ColumnId(3), ColumnId(4)]
            .into_iter()
            .flat_map(|m| AggFunc::ALL.map(|f| AggSpec::new(f, m)))
            .collect();
        let mut queries = vec![CombinedQuery {
            group_by: vec![ColumnId(0)],
            aggregates: aggregates.clone(),
            filter: None,
            split: split.clone(),
        }];
        queries.extend(aggregates.iter().map(|&a| CombinedQuery::single(ColumnId(0), a, split.clone())));
        let mut edges: Vec<usize> = cuts.iter().map(|c| c % (rows + 1)).collect();
        edges.extend([0, rows]);
        edges.sort_unstable();
        for mode in ExecMode::ALL {
            for threads in [1usize, 4] {
                with_pool(threads, |pool| {
                    let mut session = ScanSession::new(
                        pool,
                        t.as_ref(),
                        ScanShape::new(mode, 256),
                        &CancelToken::none(),
                        &TraceCtx::disabled(),
                    );
                    for edge in edges.windows(2) {
                        let results = session
                            .scan(&queries, edge[0]..edge[1], |_, partial| partial.drain_result())
                            .expect("no deadline");
                        let (shared, shared_stats) = &results[0];
                        // Two states: one update per selected row, side and measure.
                        let (_, alone_stats) = &results[1];
                        prop_assert_eq!(shared_stats.accumulator_updates, 2 * alone_stats.accumulator_updates);
                        for (i, spec) in aggregates.iter().enumerate() {
                            let alone = &results[1 + i].0;
                            let label = format!("{mode} threads={threads} {}({}) over {edge:?}", spec.func, spec.measure.0);
                            prop_assert_eq!(shared.num_groups(), alone.num_groups(), "{}", label);
                            for (g, a) in shared.groups.iter().zip(&alone.groups) {
                                prop_assert_eq!(&g.key, &a.key, "{}", label);
                                prop_assert_eq!(&g.target[i], &a.target[0], "{} target", label);
                                prop_assert_eq!(&g.reference[i], &a.reference[0], "{} reference", label);
                                let bits = |acc: &seedb_engine::Accumulator| acc.finish(spec.func).map(f64::to_bits);
                                prop_assert_eq!(bits(&g.target[i]), bits(&a.target[0]), "{} target bits", label);
                                prop_assert_eq!(bits(&g.reference[i]), bits(&a.reference[0]), "{} reference bits", label);
                            }
                        }
                    }
                });
            }
        }
    }
}
