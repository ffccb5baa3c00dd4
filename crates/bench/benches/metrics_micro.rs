//! Micro-benchmarks of the deviation metrics (every `DistanceKind` over
//! distributions of increasing width) and of the engine's scan→aggregate
//! hot path (scalar vs vectorized execution modes on both store layouts;
//! one bin-packed cluster with shared vs per-view aggregate lists and
//! column-at-a-time vs row-wise group slots), down to the bare accumulator
//! update against a naive `+=`, and of what a phase of the phased executor
//! pays beyond its rows (`phase_boundary`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use seedb_bench::BENCH_SEED;
use seedb_data::syn::{syn, SynConfig};
use seedb_engine::{
    execute_combined_with_mode, Accumulator, AggFunc, AggSpec, CombinedQuery, ExecMode, ExecStats,
    SplitSpec,
};
use seedb_metrics::{normalize, DistanceKind};
use seedb_storage::{BoxedTable, ColumnDef, StoreKind, TableBuilder, Value};

fn distributions(len: usize) -> (Vec<f64>, Vec<f64>) {
    // Deterministic, non-degenerate shapes: power-law vs near-uniform.
    let p: Vec<f64> = (1..=len).map(|i| 1.0 / i as f64).collect();
    let q: Vec<f64> = (1..=len).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    (normalize(&p), normalize(&q))
}

fn metrics_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics_micro");
    group.sample_size(20);
    for len in [8usize, 64, 1024] {
        let (p, q) = distributions(len);
        for kind in DistanceKind::ALL {
            group.bench_with_input(
                BenchmarkId::new(kind.name(), len),
                &(p.clone(), q.clone()),
                |b, (p, q)| b.iter(|| kind.compute(black_box(p), black_box(q))),
            );
        }
    }
    group.finish();
}

fn normalize_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("normalize_micro");
    group.sample_size(20);
    for len in [8usize, 64, 1024] {
        let raw: Vec<f64> = (0..len).map(|i| (i % 13) as f64 + 0.5).collect();
        group.bench_with_input(BenchmarkId::new("normalize", len), &raw, |b, raw| {
            b.iter(|| normalize(black_box(raw)))
        });
    }
    group.finish();
}

/// The innermost loop of every recommendation, isolated: 64k DIAB-like
/// measure values (Gaussian, clamped at zero) fed to a naive `f64 +=` and to
/// [`Accumulator::update`] (exact sum + count + min + max), into one
/// accumulator (`ungrouped`: every update depends on the previous one) and
/// scattered over 8 groups (`grouped`: the shape `PartialAggregation` runs).
/// Divide by 65 536 for ns per row·aggregate; the naive rows are the
/// roofline the exact accumulator is held against.
fn accumulate(c: &mut Criterion) {
    const ROWS: usize = 1 << 16;
    const GROUPS: usize = 8;
    // SplitMix64: a few lines, so the bench needs no RNG dependency.
    let mut state = BENCH_SEED;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut uniform = || (next() >> 11) as f64 / (1u64 << 53) as f64;
    let values: Vec<f64> = (0..ROWS)
        .map(|_| {
            // Irwin–Hall(12) − 6 ≈ N(0, 1); mean 16, sd 8 like DIAB's
            // `num_medications`.
            let z: f64 = (0..12).map(|_| uniform()).sum::<f64>() - 6.0;
            f64::max(16.0 + 8.0 * z, 0.0)
        })
        .collect();
    let group_of: Vec<u32> = (0..ROWS)
        .map(|_| (uniform() * GROUPS as f64) as u32)
        .collect();

    let mut group = c.benchmark_group("accumulate");
    group.sample_size(20);
    group.bench_function("naive_ungrouped", |b| {
        b.iter(|| black_box(&values).iter().sum::<f64>())
    });
    group.bench_function("exact_ungrouped", |b| {
        b.iter(|| {
            let mut acc = Accumulator::new();
            for &x in black_box(&values) {
                acc.update(Some(x));
            }
            acc
        })
    });
    group.bench_function("naive_grouped", |b| {
        b.iter(|| {
            let mut sums = [0.0f64; GROUPS];
            for (&x, &g) in black_box(&values).iter().zip(&group_of) {
                sums[g as usize] += x;
            }
            sums
        })
    });
    group.bench_function("exact_grouped", |b| {
        b.iter(|| {
            let mut accs = vec![Accumulator::new(); GROUPS];
            for (&x, &g) in black_box(&values).iter().zip(&group_of) {
                accs[g as usize].update(Some(x));
            }
            accs
        })
    });
    group.finish();
}

/// The scan→aggregate hot path: one single-dimension grouped AVG with a
/// target/reference split — the query shape SeeDB issues per view — under
/// both engine modes. The vectorized mode's dense dictionary-direct path
/// should show its largest advantage on the column store.
fn scan_aggregate_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_aggregate");
    group.sample_size(15);
    for kind in [StoreKind::Column, StoreKind::Row] {
        let dataset = syn(
            &SynConfig {
                rows: 50_000,
                dims: 4,
                measures: 2,
                distinct: Some(10),
                seed: BENCH_SEED,
            },
            kind,
        );
        let dim = dataset.table.schema().dimensions()[0];
        let measure = dataset.table.schema().measures()[0];
        let query = CombinedQuery {
            group_by: vec![dim],
            aggregates: vec![AggSpec::new(AggFunc::Avg, measure)],
            filter: None,
            split: SplitSpec::TargetVsAll(dataset.target.clone()),
        };
        for mode in ExecMode::ALL {
            group.bench_with_input(
                BenchmarkId::new(format!("{}_{}", kind.label(), mode.label()), dataset.rows()),
                &query,
                |b, query| {
                    b.iter(|| {
                        let mut stats = ExecStats::new();
                        execute_combined_with_mode(
                            dataset.table.as_ref(),
                            black_box(query),
                            mode,
                            &mut stats,
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

/// One bin-packed cluster — 3 dimensions (4 × 5 × 6 values) × 8 measures,
/// 100k rows — scanned three ways. `shared_8_aggs` is what the executor
/// issues: each measure aggregated once, group slots resolved
/// column-at-a-time. `per_view_24_aggs` is the list one `AggSpec` per
/// member view used to produce (every measure three times over).
/// `rowwise_8_aggs` scans the same rows with one NULL in a dimension, whose
/// validity slice sends every batch down the row-wise slot path.
fn cluster_scan(c: &mut Criterion) {
    const ROWS: usize = 100_000;
    let build = |null_row: Option<usize>| -> BoxedTable {
        let mut defs: Vec<ColumnDef> = (0..3).map(|d| ColumnDef::dim(format!("d{d}"))).collect();
        defs.extend((0..8).map(|m| ColumnDef::measure(format!("m{m}"))));
        let mut b = TableBuilder::new(defs);
        for i in 0..ROWS {
            let mut row: Vec<Value> = [4usize, 5, 6]
                .iter()
                .map(|card| Value::str(format!("v{}", (i * 7 + i / 11) % card)))
                .collect();
            if null_row == Some(i) {
                row[1] = Value::Null;
            }
            row.extend((0..8).map(|m| Value::Float(((i * (m + 3)) % 97) as f64 * 0.5)));
            b.push_row(&row).unwrap();
        }
        b.build(StoreKind::Column).unwrap()
    };
    let dense = build(None);
    let with_null = build(Some(ROWS / 2));
    let dims = dense.schema().dimensions();
    let shared: Vec<AggSpec> = dense
        .schema()
        .measures()
        .iter()
        .map(|m| AggSpec::new(AggFunc::Avg, *m))
        .collect();
    let per_view: Vec<AggSpec> = dims.iter().flat_map(|_| shared.clone()).collect();
    let query = |aggregates: &[AggSpec]| CombinedQuery {
        group_by: dims.clone(),
        aggregates: aggregates.to_vec(),
        filter: None,
        split: SplitSpec::TargetVsAll(seedb_engine::Predicate::CatEq {
            col: dims[0],
            code: 0,
        }),
    };

    let mut group = c.benchmark_group("cluster_scan");
    group.sample_size(15);
    for (name, table, query) in [
        ("shared_8_aggs", &dense, query(&shared)),
        ("per_view_24_aggs", &dense, query(&per_view)),
        ("rowwise_8_aggs", &with_null, query(&shared)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut stats = ExecStats::new();
                execute_combined_with_mode(
                    table.as_ref(),
                    black_box(&query),
                    ExecMode::Vectorized,
                    &mut stats,
                )
            })
        });
    }
    group.finish();
}

/// The raw morsel-scheduler hot path: one grouped AVG over the column
/// store executed through `execute_morsels`, sweeping worker count at the
/// default morsel size. Overhead relative to `scan_aggregate` at 1 thread
/// is the scheduler's fixed cost; scaling from 1 → 8 threads is the
/// intra-query parallelism payoff.
fn morsel_scan_aggregate(c: &mut Criterion) {
    use seedb_engine::{execute_morsels, with_pool, DEFAULT_MORSEL_ROWS};
    let mut group = c.benchmark_group("morsel_scan_aggregate");
    group.sample_size(15);
    let dataset = syn(
        &SynConfig {
            rows: 50_000,
            dims: 4,
            measures: 2,
            distinct: Some(10),
            seed: BENCH_SEED,
        },
        StoreKind::Column,
    );
    let dim = dataset.table.schema().dimensions()[0];
    let measure = dataset.table.schema().measures()[0];
    let query = CombinedQuery {
        group_by: vec![dim],
        aggregates: vec![AggSpec::new(AggFunc::Avg, measure)],
        filter: None,
        split: SplitSpec::TargetVsAll(dataset.target.clone()),
    };
    for threads in [1usize, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &query, |b, query| {
            with_pool(threads, |pool| {
                b.iter(|| {
                    execute_morsels(
                        pool,
                        dataset.table.as_ref(),
                        std::slice::from_ref(black_box(query)),
                        0..dataset.rows(),
                        seedb_engine::ScanShape::new(ExecMode::Vectorized, DEFAULT_MORSEL_ROWS),
                        &seedb_engine::CancelToken::none(),
                    )
                })
            });
        });
    }
    group.finish();
}

/// What a phase costs beyond its rows, on the DIAB 100K plan (the
/// planner's clusters, every measure, pool and morsel size as planned).
///
/// * `ten_phases/session` vs `ten_phases/one_shot`: ten 10 000-row ranges
///   through one [`ScanSession`] (worker partials drained and kept) against
///   ten `execute_morsels` calls (partials, results and all rebuilt per
///   call). `whole_table/one_shot` is the same rows in one call — the floor
///   both are held against.
/// * `merge/same_base` vs `merge/offset_base`: 4 096 `Accumulator::merge`s
///   whose windows sit on the same chunk (the five-add route) and one chunk
///   apart (the general route).
/// * `cluster_phase/scan_only` vs `cluster_phase/scan_and_fold`: one packed
///   cluster over one 10 000-row range, drained to nothing and folded into
///   its member views' groups; the difference is the fold.
fn phase_boundary(c: &mut Criterion) {
    use seedb_core::state::ViewState;
    use seedb_core::{fold_into_views, Member, ReferenceSpec, SeeDb, SeeDbConfig};
    use seedb_engine::{
        execute_morsels, with_pool, CancelToken, PartialAggregation, ScanSession, TraceCtx,
    };

    let diab = seedb_bench::bench_dataset("DIAB", 100_000, StoreKind::Column);
    let table = diab.table.as_ref();
    let plan = SeeDb::with_config(diab.table.clone(), SeeDbConfig::default())
        .plan(&diab.target, &ReferenceSpec::WholeTable);
    let clustered = seedb_bench::cluster_queries(&diab, &plan);
    let rows = table.num_rows();
    let phases: Vec<std::ops::Range<usize>> = seedb_core::phase_ranges(rows, 10);

    let mut group = c.benchmark_group("phase_boundary");
    group.sample_size(15);
    with_pool(plan.workers, |pool| {
        let cancel = CancelToken::none();
        group.bench_function("ten_phases/session", |b| {
            b.iter(|| {
                let trace = TraceCtx::disabled();
                let mut session = ScanSession::new(pool, table, plan.scan_shape(), &cancel, &trace);
                for range in &phases {
                    black_box(session.scan(&clustered, range.clone(), |_, partial| {
                        partial.touched_groups()
                    }));
                }
            })
        });
        group.bench_function("ten_phases/one_shot", |b| {
            b.iter(|| {
                for range in &phases {
                    black_box(execute_morsels(
                        pool,
                        table,
                        &clustered,
                        range.clone(),
                        plan.scan_shape(),
                        &cancel,
                    ));
                }
            })
        });
        group.bench_function("whole_table/one_shot", |b| {
            b.iter(|| execute_morsels(pool, table, &clustered, 0..rows, plan.scan_shape(), &cancel))
        });
    });

    // Sums of DIAB-like values share a window; scaling one side by 2⁻³²
    // moves its window exactly one chunk down.
    let fed = |scale: f64| -> Vec<Accumulator> {
        (0..4096)
            .map(|i| {
                let mut acc = Accumulator::new();
                for j in 0..8 {
                    acc.update(Some((16.0 + ((i * 8 + j) % 97) as f64 * 0.25) * scale));
                }
                acc
            })
            .collect()
    };
    let mine = fed(1.0);
    for (name, theirs) in [
        ("merge/same_base", fed(1.0)),
        ("merge/offset_base", fed(2f64.powi(-32))),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut mine = mine.clone();
                for (m, t) in mine.iter_mut().zip(black_box(&theirs)) {
                    m.merge(t);
                }
                mine
            })
        });
    }

    // The widest planned cluster: every (dimension, measure) pair a view.
    let cluster = clustered
        .iter()
        .max_by_key(|q| q.group_by.len())
        .expect("DIAB plans clusters");
    let mut members: Vec<Member> = Vec::new();
    let mut states: Vec<ViewState> = Vec::new();
    for (position, dim) in cluster.group_by.iter().enumerate() {
        for (agg, spec) in cluster.aggregates.iter().enumerate() {
            let view = seedb_core::ViewSpec {
                id: states.len(),
                dim: *dim,
                measure: spec.measure,
                func: spec.func,
            };
            members.push((view.id, agg, position));
            states.push(ViewState::for_table(view, table));
        }
    }
    let mut partial = PartialAggregation::with_mode(cluster.clone(), ExecMode::Vectorized);
    group.bench_function("cluster_phase/scan_only", |b| {
        b.iter(|| {
            partial.update(table, phases[0].clone(), &mut ExecStats::new());
            partial.drain(|_, _, _| {});
        })
    });
    group.bench_function("cluster_phase/scan_and_fold", |b| {
        b.iter(|| {
            partial.update(table, phases[0].clone(), &mut ExecStats::new());
            fold_into_views(&mut partial, &members, None, &states)
        })
    });
    group.finish();
}

/// The serving layer's cross-request cache, measured through real HTTP
/// round trips against an in-process `seedbd`: `cold` clears the cache
/// before every request (full engine run), `warm` repeats one request
/// (response-cache hit), `overlap` asks for a different `k` after
/// clearing only responses — the per-view partial-reuse path. The warm
/// hit should beat the cold miss by well over an order of magnitude.
fn server_cache(c: &mut Criterion) {
    use seedb_server::{client, Server, ServerConfig};
    let mut group = c.benchmark_group("server_cache");
    group.sample_size(10);

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_rows: 10_000,
        default_rows: 4_200,
        ..Default::default()
    };
    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let addr = handle.addr();
    let state = handle.state();
    let post = |body: &str| {
        let (status, _) = client::request(addr, "POST", "/recommend", Some(body)).expect("request");
        assert_eq!(status, 200);
    };
    let body = r#"{"dataset": "CENSUS", "rows": 4200, "k": 5}"#;

    group.bench_function("cold_miss", |b| {
        b.iter(|| {
            state.cache.clear();
            post(black_box(body));
        })
    });
    post(body); // prime
    group.bench_function("warm_hit", |b| b.iter(|| post(black_box(body))));

    // Partials are primed (by the k=5 requests above); every iteration
    // asks for a k this process has never served, so each request is a
    // response-cache miss whose views all come from partials — the
    // partial-reuse path in isolation, no cold engine run in the loop.
    let next_k = std::cell::Cell::new(100usize);
    group.bench_function("overlap_partial_reuse", |b| {
        b.iter(|| {
            let k = next_k.get();
            next_k.set(k + 1);
            let overlap = format!(r#"{{"dataset": "CENSUS", "rows": 4200, "k": {k}}}"#);
            post(black_box(&overlap));
        })
    });
    group.finish();
    handle.shutdown();
}

criterion_group!(
    benches,
    metrics_micro,
    normalize_micro,
    accumulate,
    scan_aggregate_micro,
    cluster_scan,
    morsel_scan_aggregate,
    phase_boundary,
    server_cache
);
criterion_main!(benches);
