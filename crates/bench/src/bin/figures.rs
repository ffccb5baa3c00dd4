//! Figure runner: runs the paper's Figures 5–9 and 11 and the repo's
//! ratio probes, writes one timing JSON per figure
//! (`BENCH_<figure>.json`), then checks [`GATES`] against the results it
//! holds and exits 1 on any violated or missing gate.
//!
//! Usage: `cargo run --release -p seedb-bench --bin figures [out_dir]`
//! (default `out_dir` is the current directory). Pass `--fast` to run a
//! reduced sweep for smoke-testing.
//!
//! Every timed comparison goes through [`interleave`]: the terms of a
//! comparison alternate within a round, and a ratio is the median across
//! rounds of the per-round ratio of the terms' medians. Latency and
//! throughput in absolute terms are the repo benchmark's job
//! (`benchmark/`), which compares two commits on one host.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use seedb_bench::Bound::{Ceiling, Floor};
use seedb_bench::{
    bench_dataset, check_gates, cluster_queries, interleave, recommend, Gate, Rounds, BENCH_SEED,
};
use seedb_core::{
    accuracy_at_k, utility_distance, ExecMode, ExecutionStrategy, GroupingPolicy, Knob,
    PruningKind, Recommendation, ReferenceSpec, SeeDb, SeeDbConfig, SharingConfig,
};
use seedb_data::syn::{syn, SynConfig};
use seedb_data::Dataset;
use seedb_engine::{
    execute_combined_with_mode, execute_morsels, with_pool, AggFunc, AggSpec, CancelToken, CmpOp,
    CombinedQuery, ExecStats, Predicate, ScanShape, SplitSpec,
};
use seedb_storage::{
    BatchData, ColumnDef, ColumnId, StoreKind, TableBuilder, Value, DEFAULT_BATCH_SIZE,
};
use seedb_util::Json;

/// Every gate, each limit written once. Each compares terms timed in one
/// run on one host, so the limits hold on any machine.
const GATES: &[Gate] = &[
    // The paper's orderings: one shared scan beats a query per view
    // (Figure 5), and the column store beats the row store (Figure 6), on
    // every dataset.
    Gate("fig5_overall", "no_opt_over_sharing", Floor, 1.0),
    Gate("fig6_baseline", "row_over_col", Floor, 1.0),
    // Zone maps skip the partitions a 10 % band predicate cannot match.
    Gate("partitions", "speedup_pruned_over_full_sel10", Floor, 2.0),
    // The planner's `Auto` knobs match the best hand-pinned grid arm.
    Gate("planner", "speedup_planned_over_best_fixed", Floor, 1.0),
    // What `SHARING` adds to its cluster scans (≈ 2.4 when a cluster
    // aggregates a measure once per member view), what a phase adds in
    // naive `f64` passes over the measures (≈ 2 when each phase rebuilt
    // its worker partials), what an exact grouped row·aggregate costs in
    // naive `f64` adds (≈ 10 with one window update per value), and the
    // share of DIAB's NULL-free float updates that go to the lanes.
    Gate(
        "sharing",
        "overhead_sharing_over_cluster_scan",
        Ceiling,
        1.25,
    ),
    Gate("sharing", "phase_constant_over_naive_pass", Ceiling, 1.0),
    Gate("sharing", "agg_over_naive_sum", Ceiling, 6.0),
    Gate("sharing", "lane_share_of_updates", Floor, 0.99),
    // The response cache serves pruned (COMB + CI) runs.
    Gate("server", "speedup_warm_over_cold_pruned", Floor, 5.0),
    // Under overload, a shed answers well before a served request does,
    // and every connection gets an answer.
    Gate("server_load", "speedup_served_over_shed", Floor, 2.0),
    Gate("server_load", "no_hung_connections", Floor, 1.0),
    // What request tracing adds on the warm cache-hit path.
    Gate("obs", "overhead_traced_over_untraced", Ceiling, 1.10),
];

/// Rounds per interleaved comparison; an odd count has a middle round.
const ROUNDS: usize = 5;

fn main() -> ExitCode {
    let mut out_dir = String::from(".");
    let mut fast = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--fast" => fast = true,
            other if !other.starts_with('-') => out_dir = other.to_owned(),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }
    let out = Path::new(&out_dir);
    std::fs::create_dir_all(out).expect("create output directory");
    // --fast shrinks datasets ~4x and takes 20 samples a term instead of
    // 50; figure structure stays identical.
    let runs = if fast { 2 } else { 5 };
    let scale = if fast { 4 } else { 1 };

    let figures = [
        ("fig5_overall", fig5(runs, scale)),
        ("fig6_baseline", fig6(runs, scale)),
        ("fig7_sharing", fig7(runs, scale)),
        ("fig8_groupby", fig8(runs, scale)),
        ("fig9_all_sharing", fig9(runs, scale)),
        ("fig11_pruning", fig11(runs, scale)),
        ("partitions", partitions(runs, scale)),
        ("planner", planner(runs, scale)),
        ("sharing", sharing_overhead(runs, scale)),
        ("server", server_cache(runs, scale)),
        ("server_load", server_load(runs, scale)),
        ("obs", obs_overhead(runs, scale)),
    ];
    for (figure, results) in &figures {
        emit(out, figure, results);
    }
    let verdicts = check_gates(GATES, &figures);
    for (_, line) in &verdicts {
        println!("{line}");
    }
    let failed = verdicts.iter().filter(|(passed, _)| !passed).count();
    if failed > 0 {
        eprintln!("figures: {failed} gate verdict(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `parallelism` tag: the pinned worker count, or `"auto"` when the
/// planner chooses.
fn parallelism_tag(knob: Knob) -> Json {
    match knob.fixed_value() {
        Some(n) => Json::from(n as u64),
        None => Json::from("auto"),
    }
}

/// `morsel_rows` tag: numeric, `"whole"` for the sentinel that disables
/// intra-scan splitting, or `"auto"` when the planner chooses.
fn morsel_tag(knob: Knob) -> Json {
    match knob.fixed_value() {
        Some(usize::MAX) => Json::from("whole"),
        Some(n) => Json::from(n as u64),
        None => Json::from("auto"),
    }
}

fn emit(out_dir: &Path, figure: &str, results: &[Json]) {
    let doc = Json::obj()
        .set("figure", figure)
        .set("seed", BENCH_SEED)
        .set("unit", "ms")
        .set("results", results.to_vec());
    let path = out_dir.join(format!("BENCH_{figure}.json"));
    std::fs::write(&path, doc.pretty()).expect("write figure JSON");
    println!("wrote {}", path.display());
}

/// [`interleave`] at the runner's budget: `ROUNDS × 2·runs` samples a
/// term.
fn sample(runs: usize, terms: usize, run: impl FnMut(usize)) -> Rounds {
    interleave(ROUNDS, 2 * runs, terms, run)
}

/// Times one recommendation per `(dataset, config)` arm, interleaved.
/// Returns each arm's last recommendation, its timing entry (tagged with
/// its knobs and the run's counters), and the rounds for the figure's
/// ratios.
fn sweep(
    arms: &[(&Dataset, SeeDbConfig)],
    runs: usize,
) -> (Vec<Recommendation>, Vec<Json>, Rounds) {
    let mut last: Vec<Option<Recommendation>> = arms.iter().map(|_| None).collect();
    let rounds = sample(runs, arms.len(), |arm| {
        let (dataset, config) = &arms[arm];
        last[arm] = Some(recommend(dataset, config));
    });
    let recs: Vec<Recommendation> = last.into_iter().flatten().collect();
    let timings = arms
        .iter()
        .zip(&recs)
        .enumerate()
        .map(|(arm, ((_, config), rec))| {
            Json::from(rounds.timing(arm))
                .set("engine_mode", config.engine_mode.label())
                .set("parallelism", parallelism_tag(config.sharing.parallelism))
                .set("morsel_rows", morsel_tag(config.sharing.morsel_rows))
                .set("queries_issued", rec.stats.queries_issued)
                .set("rows_scanned", rec.stats.rows_scanned)
                .set("phases_executed", rec.phases_executed)
        })
        .collect();
    (recs, timings, rounds)
}

/// Figure 5: the four execution strategies on three datasets; gated on
/// `NO_OPT ÷ SHARING` per dataset (see [`GATES`]).
fn fig5(runs: usize, scale: usize) -> Vec<Json> {
    let mut results = Vec::new();
    for (name, rows) in [("BANK", 4_000), ("DIAB", 4_000), ("CENSUS", 4_200)] {
        let dataset = bench_dataset(name, rows / scale, StoreKind::Column);
        let arms: Vec<_> = ExecutionStrategy::ALL
            .iter()
            .map(|s| (&dataset, SeeDbConfig::for_strategy(*s)))
            .collect();
        let (_, timings, rounds) = sweep(&arms, runs);
        for (strategy, timing) in ExecutionStrategy::ALL.iter().zip(timings) {
            results.push(
                Json::obj()
                    .set("dataset", name)
                    .set("rows", dataset.rows())
                    .set("strategy", strategy.label())
                    .set("timing", timing),
            );
        }
        let arm = |s| ExecutionStrategy::ALL.iter().position(|x| *x == s);
        let no_opt = arm(ExecutionStrategy::NoOpt).expect("a Figure 5 strategy");
        let sharing = arm(ExecutionStrategy::Sharing).expect("a Figure 5 strategy");
        results.push(
            Json::obj()
                .set("sweep", "summary")
                .set("dataset", name)
                .set("rows", dataset.rows())
                .set(
                    "no_opt_over_sharing",
                    rounds.stat(|r| r[no_opt] / r[sharing]),
                ),
        );
    }
    results
}

/// Figure 6: `NO_OPT` on the row and the column store; gated on
/// `ROW ÷ COL` per dataset (see [`GATES`]).
fn fig6(runs: usize, scale: usize) -> Vec<Json> {
    let config = SeeDbConfig::for_strategy(ExecutionStrategy::NoOpt);
    let mut results = Vec::new();
    for (name, rows) in [("BANK", 4_000), ("CENSUS", 4_200), ("MOVIES", 1_000)] {
        let row = bench_dataset(name, rows / scale, StoreKind::Row);
        let col = bench_dataset(name, rows / scale, StoreKind::Column);
        let (_, timings, rounds) = sweep(&[(&row, config.clone()), (&col, config.clone())], runs);
        for ((dataset, store), timing) in [(&row, "ROW"), (&col, "COL")].into_iter().zip(timings) {
            results.push(
                Json::obj()
                    .set("dataset", name)
                    .set("rows", dataset.rows())
                    .set("store", store)
                    .set("timing", timing),
            );
        }
        results.push(
            Json::obj()
                .set("sweep", "summary")
                .set("dataset", name)
                .set("rows", col.rows())
                .set("row_over_col", rounds.stat(|r| r[0] / r[1])),
        );
    }
    results
}

fn fig7(runs: usize, scale: usize) -> Vec<Json> {
    let mut results = Vec::new();

    let agg_cfg = SynConfig {
        rows: 20_000 / scale,
        dims: 2,
        measures: 10,
        distinct: Some(10),
        seed: BENCH_SEED,
    };
    let agg_ds = syn(&agg_cfg, StoreKind::Column);
    let naggs = [1usize, 2, 5, 10];
    let arms: Vec<_> = naggs
        .iter()
        .map(|&nagg| {
            let mut cfg = SeeDbConfig::for_strategy(ExecutionStrategy::Sharing);
            cfg.sharing.combine_group_bys = false;
            cfg.sharing.max_aggregates_per_query = Some(nagg);
            (&agg_ds, cfg)
        })
        .collect();
    for (nagg, timing) in naggs.iter().zip(sweep(&arms, runs).1) {
        results.push(
            Json::obj()
                .set("sweep", "7a_aggregates")
                .set("dataset", agg_ds.name.as_str())
                .set("rows", agg_ds.rows())
                .set("nagg", *nagg)
                .set("timing", timing),
        );
    }

    let par_cfg = SynConfig {
        rows: 20_000 / scale,
        dims: 10,
        measures: 4,
        distinct: Some(10),
        seed: BENCH_SEED,
    };
    let par_ds = syn(&par_cfg, StoreKind::Column);
    let threads = [1usize, 2, 4, 8];
    let arms: Vec<_> = threads
        .iter()
        .map(|&n| {
            let mut cfg = SeeDbConfig::for_strategy(ExecutionStrategy::Sharing);
            cfg.sharing.parallelism = Knob::Fixed(n);
            (&par_ds, cfg)
        })
        .collect();
    for (n, timing) in threads.iter().zip(sweep(&arms, runs).1) {
        results.push(
            Json::obj()
                .set("sweep", "7b_parallelism")
                .set("dataset", par_ds.name.as_str())
                .set("rows", par_ds.rows())
                .set("threads", *n)
                .set("timing", timing),
        );
    }
    results
}

fn fig8(runs: usize, scale: usize) -> Vec<Json> {
    let syn_cfg = SynConfig {
        rows: 16_000 / scale,
        dims: 12,
        measures: 2,
        distinct: None,
        seed: BENCH_SEED,
    };
    let dataset = syn(&syn_cfg, StoreKind::Column);
    let mut policies: Vec<(String, GroupingPolicy)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&n| (format!("MAX_GB({n})"), GroupingPolicy::MaxGb(n)))
        .collect();
    policies.push(("BP".to_owned(), GroupingPolicy::BinPack));
    let arms: Vec<_> = policies
        .iter()
        .map(|(_, policy)| {
            let mut cfg = SeeDbConfig::for_strategy(ExecutionStrategy::Sharing);
            cfg.sharing.combine_group_bys = true;
            cfg.sharing.grouping_policy = *policy;
            (&dataset, cfg)
        })
        .collect();
    policies
        .into_iter()
        .zip(sweep(&arms, runs).1)
        .map(|((label, _), timing)| {
            Json::obj()
                .set("dataset", dataset.name.as_str())
                .set("rows", dataset.rows())
                .set("policy", label)
                .set("timing", timing)
        })
        .collect()
}

fn fig9(runs: usize, scale: usize) -> Vec<Json> {
    let syn_cfg = SynConfig {
        rows: 20_000 / scale,
        dims: 10,
        measures: 5,
        distinct: Some(10),
        seed: BENCH_SEED,
    };
    let dataset = syn(&syn_cfg, StoreKind::Column);
    let mut combine_tr = SeeDbConfig::for_strategy(ExecutionStrategy::Sharing);
    combine_tr.sharing = SharingConfig {
        combine_target_reference: true,
        ..SharingConfig::none()
    };
    let setups = [
        (
            "NO_OPT",
            SeeDbConfig::for_strategy(ExecutionStrategy::NoOpt),
        ),
        ("COMBINE_TR", combine_tr),
        (
            "SHARING_ALL",
            SeeDbConfig::for_strategy(ExecutionStrategy::Sharing),
        ),
    ];
    let arms: Vec<_> = setups
        .iter()
        .map(|(_, cfg)| (&dataset, cfg.clone()))
        .collect();
    setups
        .iter()
        .zip(sweep(&arms, runs).1)
        .map(|((label, _), timing)| {
            Json::obj()
                .set("dataset", dataset.name.as_str())
                .set("rows", dataset.rows())
                .set("setup", *label)
                .set("timing", timing)
        })
        .collect()
}

fn fig11(runs: usize, scale: usize) -> Vec<Json> {
    let syn_cfg = SynConfig {
        rows: 20_000 / scale,
        dims: 10,
        measures: 4,
        distinct: Some(10),
        seed: BENCH_SEED,
    };
    let datasets = [
        bench_dataset("CENSUS", 8_400 / scale, StoreKind::Column),
        syn(&syn_cfg, StoreKind::Column),
    ];
    let mut results = Vec::new();
    for dataset in &datasets {
        // Ground truth for accuracy: unpruned phased execution.
        let mut truth_cfg = SeeDbConfig::for_strategy(ExecutionStrategy::Comb);
        truth_cfg.pruning = PruningKind::None;
        let truth = recommend(dataset, &truth_cfg);
        let true_top: Vec<usize> = truth.views.iter().map(|v| v.spec.id).collect();

        let arms: Vec<_> = PruningKind::ALL
            .iter()
            .map(|&pruning| {
                let mut cfg = SeeDbConfig::for_strategy(ExecutionStrategy::Comb);
                cfg.pruning = pruning;
                (dataset, cfg)
            })
            .collect();
        let (recs, timings, _) = sweep(&arms, runs);
        for ((pruning, rec), timing) in PruningKind::ALL.iter().zip(&recs).zip(timings) {
            let returned: Vec<usize> = rec.views.iter().map(|v| v.spec.id).collect();
            results.push(
                Json::obj()
                    .set("dataset", dataset.name.as_str())
                    .set("rows", dataset.rows())
                    .set("pruning", pruning.label())
                    .set("accuracy", accuracy_at_k(&true_top, &returned))
                    .set(
                        "utility_distance",
                        utility_distance(&true_top, &returned, &truth.all_utilities),
                    )
                    .set("timing", timing),
            );
        }
    }
    results
}

/// Zone-map partition pruning: one grouped aggregation whose target
/// predicate selects a prefix of a value-sorted table, over (a) the table
/// partitioned every 2 048 rows and (b) the same rows sealed as a single
/// whole-table partition that zone maps cannot prune. Sweeps selectivity
/// 1% → 100%; each selectivity records a within-run
/// `speedup_pruned_over_full_sel<pct>` ratio, and [`GATES`] holds the
/// 10 % one: if pruned execution stops skipping cold partitions, the
/// ratio collapses to ~1×.
fn partitions(runs: usize, scale: usize) -> Vec<Json> {
    let rows = 65_536 / scale;
    let partition_rows = 2_048;
    let build = |partition_rows: usize| {
        let mut b = TableBuilder::new(vec![ColumnDef::dim("bucket"), ColumnDef::measure("value")])
            .with_partition_rows(partition_rows);
        for i in 0..rows {
            b.push_row(&[
                Value::str(format!("b{:02}", i % 50)),
                Value::Float(i as f64),
            ])
            .expect("push bench row");
        }
        b.build(StoreKind::Column).expect("build bench table")
    };
    let variants = [
        ("pruned", build(partition_rows)),
        ("full", build(usize::MAX)),
    ];

    let mut results = Vec::new();
    for pct in [1u64, 10, 50, 100] {
        let query = CombinedQuery {
            group_by: vec![ColumnId(0)],
            aggregates: vec![AggSpec::new(AggFunc::Count, ColumnId(1))],
            filter: None,
            // A band predicate (`0 ≤ value < t`), the shape of an
            // analyst's range filter: both sides are checked per scanned
            // row, and zone maps answer `Never` for every partition
            // entirely outside the band.
            split: SplitSpec::TargetOnly(Predicate::And(vec![
                Predicate::NumCmp {
                    col: ColumnId(1),
                    op: CmpOp::Ge,
                    value: 0.0,
                },
                Predicate::NumCmp {
                    col: ColumnId(1),
                    op: CmpOp::Lt,
                    value: rows as f64 * pct as f64 / 100.0,
                },
            ])),
        };
        // One inline pool, created outside the timed loop — thread spawn
        // would otherwise swamp the scan itself. One worker: the
        // comparison is total work (rows touched), not scheduling — with
        // N workers the full variant hides its extra rows behind
        // parallelism the pruned variant's single surviving morsel cannot
        // use.
        let (stats, rounds) = with_pool(1, |pool| {
            let run = |variant: usize| {
                let table = variants[variant].1.as_ref();
                execute_morsels(
                    pool,
                    table,
                    std::slice::from_ref(&query),
                    0..table.num_rows(),
                    ScanShape::new(ExecMode::Vectorized, partition_rows),
                    &CancelToken::none(),
                )
            };
            let stats: Vec<ExecStats> = (0..variants.len()).map(|v| run(v)[0].1.clone()).collect();
            let rounds = interleave(ROUNDS, runs.max(2), variants.len(), |v| {
                std::hint::black_box(run(v));
            });
            (stats, rounds)
        });
        for (v, ((variant, _), stats)) in variants.iter().zip(&stats).enumerate() {
            results.push(
                Json::obj()
                    .set("sweep", *variant)
                    .set("dataset", "SORTED_SYN")
                    .set("rows", rows as u64)
                    .set("selectivity_pct", pct)
                    .set("rows_scanned", stats.rows_scanned)
                    .set("partitions_scanned", stats.partitions_scanned)
                    .set("partitions_pruned", stats.partitions_pruned)
                    .set("timing", rounds.timing(v)),
            );
        }
        results.push(
            Json::obj()
                .set("sweep", "summary")
                .set("dataset", "SORTED_SYN")
                .set("rows", rows as u64)
                .set(
                    format!("speedup_pruned_over_full_sel{pct}").as_str(),
                    rounds.stat(|r| r[1] / r[0]),
                ),
        );
    }
    results
}

/// Cost-based plan selection vs every fixed-knob configuration: the
/// default `Auto` knobs (workers and morsel size chosen by the planner
/// from table stats) against a worker × morsel grid of pinned knobs on
/// the all-sharing configuration, all thirteen arms interleaved. The
/// headline number, held by [`GATES`], is
/// `speedup_planned_over_best_fixed`: the best grid arm (lowest median
/// across rounds) over the planned arm, per round. The planner must match
/// the best hand tuning, because on this workload it derives (workers,
/// morsel) that land on the same execution shape as the winning grid arm.
/// The best arm is picked once, as a hand tuner would pin it: taking the
/// fastest of twelve arms afresh in every round would set the planner
/// against whichever arm's noise ran low that round, and several arms
/// share the planned shape.
///
/// The row count is NOT scaled down in --fast mode: the planner's worker
/// choice saturates the host only once the estimated post-pruning volume
/// covers `workers × DEFAULT_MORSEL_ROWS` rows, and shrinking the table
/// would turn the comparison into "serial vs serial".
fn planner(runs: usize, _scale: usize) -> Vec<Json> {
    let syn_cfg = SynConfig {
        rows: 140_000,
        dims: 10,
        measures: 5,
        distinct: Some(10),
        seed: BENCH_SEED,
    };
    let dataset = syn(&syn_cfg, StoreKind::Column);
    let all_sharing = SeeDbConfig::for_strategy(ExecutionStrategy::Sharing);
    let mut arms = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        for morsel_rows in [usize::MAX, 16 * 1024, 4 * 1024] {
            let mut cfg = all_sharing.clone();
            cfg.sharing.parallelism = Knob::Fixed(workers);
            cfg.sharing.morsel_rows = Knob::Fixed(morsel_rows);
            arms.push((&dataset, cfg));
        }
    }
    let grid = arms.len();
    arms.push((&dataset, all_sharing));
    let (_, timings, rounds) = sweep(&arms, runs);

    let mut results: Vec<Json> = timings
        .into_iter()
        .enumerate()
        .map(|(arm, timing)| {
            Json::obj()
                .set("sweep", if arm < grid { "fixed_grid" } else { "planned" })
                .set("dataset", dataset.name.as_str())
                .set("rows", dataset.rows())
                .set("timing", timing)
        })
        .collect();
    let best_fixed = (0..grid)
        .min_by(|a, b| rounds.median_ms(*a).total_cmp(&rounds.median_ms(*b)))
        .expect("a non-empty grid");
    let speedup = rounds.stat(|r| r[best_fixed] / r[grid]);
    results.push(
        Json::obj()
            .set("sweep", "summary")
            .set("dataset", dataset.name.as_str())
            .set("rows", dataset.rows())
            .set(
                "host_parallelism",
                seedb_engine::parallel::default_parallelism() as u64,
            )
            .set("speedup_planned_over_best_fixed", speedup),
    );
    results
}

/// What `SHARING` costs beyond its cluster scans: the executor's wall time
/// over a bare `execute_morsels` of the plan's clusters with each measure
/// aggregated **once** — the paper's one-query-per-bin shape. The gap is
/// planning, pool start, roll-ups, the fold into view states and the
/// utilities (a few percent); a cluster that aggregates a measure once per
/// member view instead lands at ≈ 2.4×.
///
/// Beside it, what phasing costs: `COMB` with no pruner (ten phases, every
/// view alive throughout) against `SHARING` — the same rows and the same
/// accumulator updates, so the difference is ten times the per-phase
/// constant (scan set-up and barriers, the drain and fold into the views'
/// groups, a round of utility estimates). `comb_nopru_over_sharing` reports
/// the Figure 5 ordering, and `phase_constant_over_naive_pass` is
/// `(COMB − SHARING) / phases` in units of the run's own speed reference,
/// one naive `f64` sum over the table's measure columns — a quantity that
/// does not move when the scan gets faster. ≈ 0.65 (0.3 ms a phase) with
/// worker partials kept across phases and one fold per cluster; ≈ 2 when
/// every phase rebuilt its partials and rolled up through intermediate
/// results.
///
/// And what exactness costs: one combined query per dimension with every
/// measure (the repo benchmark's `engine.agg_ns_per_row_agg` shape) over
/// that naive sum, per row·aggregate, as `agg_over_naive_sum` — ≈ 10 with
/// one window update per value, less with fixed-point lanes, and less
/// again since the default AVG keeps no `min`/`max`, so its lane add is the
/// whole update (each aggregate here is the only one over its measure, so
/// an update is a row·aggregate) — and
/// `lane_share_of_updates`, the share of the cluster scan's accumulator
/// updates that were lane adds (a count: 1.0 on DIAB's NULL-free float
/// measures). [`GATES`] holds all four.
///
/// The row count is NOT scaled down in --fast mode: at 1k rows the fixed
/// costs on the executor side would drown the ratios.
fn sharing_overhead(runs: usize, _scale: usize) -> Vec<Json> {
    let dataset = bench_dataset("DIAB", 100_000, StoreKind::Column);
    let table = dataset.table.as_ref();
    let config = SeeDbConfig::for_strategy(ExecutionStrategy::Sharing);
    let reference = ReferenceSpec::WholeTable;
    let plan =
        SeeDb::with_config(dataset.table.clone(), config.clone()).plan(&dataset.target, &reference);
    let queries = cluster_queries(&dataset, &plan);
    assert_eq!(
        plan.aggregates,
        queries.iter().map(|q| q.aggregates.len()).sum::<usize>(),
        "the probe must scan what the executor scans"
    );
    let (dims, measures) = (table.schema().dimensions(), table.schema().measures());
    let per_dim: Vec<CombinedQuery> = dims
        .iter()
        .map(|dim| CombinedQuery {
            group_by: vec![*dim],
            ..queries[0].clone()
        })
        .collect();
    let mut phased = SeeDbConfig::for_strategy(ExecutionStrategy::Comb);
    phased.pruning = PruningKind::None;
    phased.num_phases = 10;

    let scan = || {
        with_pool(plan.workers, |pool| {
            execute_morsels(
                pool,
                table,
                &queries,
                0..table.num_rows(),
                plan.scan_shape(),
                &CancelToken::none(),
            )
        })
    };
    let mut scanned = ExecStats::new();
    scan().iter().for_each(|(_, stats)| scanned.merge(stats));

    // The terms, in the order each round runs them.
    const SCAN: usize = 0;
    const AGG: usize = 1;
    const NAIVE: usize = 2;
    const SHARING: usize = 3;
    const COMB: usize = 4;
    let rounds = sample(runs, 5, |term| match term {
        SCAN => {
            std::hint::black_box(scan());
        }
        AGG => {
            for query in &per_dim {
                execute_combined_with_mode(table, query, plan.mode, &mut ExecStats::new());
            }
        }
        NAIVE => table.scan_batches(
            &measures,
            0..table.num_rows(),
            DEFAULT_BATCH_SIZE,
            &mut |batch| {
                for slot in 0..batch.num_columns() {
                    if let BatchData::Float(values) = batch.column(slot).data {
                        std::hint::black_box(values.iter().sum::<f64>());
                    }
                }
            },
        ),
        SHARING => {
            recommend(&dataset, &config);
        }
        _ => {
            recommend(&dataset, &phased);
        }
    });
    let phases = phased.num_phases as f64;
    let entry = |sweep: &str| {
        Json::obj()
            .set("sweep", sweep)
            .set("dataset", dataset.name.as_str())
            .set("rows", dataset.rows())
    };
    vec![
        entry("cluster_scan").set("timing", rounds.timing(SCAN)),
        entry("sharing").set("timing", rounds.timing(SHARING)),
        entry("comb_nopru")
            .set("phases", phased.num_phases)
            .set("timing", rounds.timing(COMB)),
        entry("summary")
            .set("plan", plan.summary())
            .set("aggregates_per_row", plan.aggregates)
            .set("views", plan.views)
            .set(
                "overhead_sharing_over_cluster_scan",
                rounds.stat(|r| r[SHARING] / r[SCAN]),
            )
            .set(
                "comb_nopru_over_sharing",
                rounds.stat(|r| r[COMB] / r[SHARING]),
            )
            .set(
                "phase_constant_over_naive_pass",
                rounds.stat(|r| (r[COMB] - r[SHARING]) / phases / r[NAIVE]),
            )
            .set(
                "agg_over_naive_sum",
                rounds.stat(|r| r[AGG] / dims.len() as f64 / r[NAIVE]),
            )
            .set(
                "lane_share_of_updates",
                scanned.fixed_lane_updates as f64 / scanned.accumulator_updates as f64,
            ),
    ]
}

/// The serving layer's cross-request cache: cold `/recommend` (engine
/// executes and fills the cache) vs warm repeats of the same request
/// (response served straight from the LRU), interleaved, for both the
/// pruning-free `SHARING` configuration and the default pruned one
/// (COMB + CI). `speedup_warm_over_cold` is reported;
/// `speedup_warm_over_cold_pruned` is held by [`GATES`].
/// `pruned_resume_first` times the prefix-resume path (a different k over
/// partials warmed by the pruned run).
fn server_cache(runs: usize, scale: usize) -> Vec<Json> {
    use seedb_server::{client, Server, ServerConfig};

    let rows = 8_400 / scale;
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_rows: 20_000,
        default_rows: rows,
        ..Default::default()
    };
    let handle = Server::bind(config)
        .expect("bind seedbd")
        .spawn()
        .expect("spawn seedbd");
    let addr = handle.addr();
    let state = handle.state();
    let handle_rows = rows as u64;
    let post = |body: &str| {
        let (status, _) =
            client::request(addr, "POST", "/recommend", Some(body)).expect("recommend request");
        assert_eq!(status, 200);
    };

    let mut results = Vec::new();
    // "": the server default (COMB + CI pruning); "_pruned"-suffixed
    // sweeps are redundant with it, so the unpruned baseline pins
    // SHARING explicitly and the pruned sweeps use the default.
    let sharing_body =
        format!(r#"{{"dataset": "CENSUS", "rows": {rows}, "k": 5, "strategy": "sharing"}}"#);
    let sharing_overlap =
        format!(r#"{{"dataset": "CENSUS", "rows": {rows}, "k": 7, "strategy": "sharing"}}"#);
    let pruned_body = format!(r#"{{"dataset": "CENSUS", "rows": {rows}, "k": 5}}"#);
    let pruned_overlap = format!(r#"{{"dataset": "CENSUS", "rows": {rows}, "k": 7}}"#);
    let sweeps = [
        ("", "overlap_first", &sharing_body, &sharing_overlap),
        (
            "_pruned",
            "pruned_resume_first",
            &pruned_body,
            &pruned_overlap,
        ),
    ];
    for (suffix, overlap_sweep, body, overlap_body) in sweeps {
        // Term 0 (cold) clears the cache first, so the engine runs — the
        // clear itself is O(entries) and negligible next to the scan —
        // and leaves the response behind, so term 1 (warm) is a hit.
        let rounds = sample(runs, 2, |term| {
            if term == 0 {
                state.cache.clear();
            }
            post(body);
        });
        // Partial reuse: a different k over the same predicate reuses
        // this sweep's per-view partials — one-phase entries replayed
        // whole under SHARING (overlap_first), per-phase prefixes
        // replayed/resumed under the pruned default
        // (pruned_resume_first). Measured before the next sweep's cold
        // loop clears the cache, while its own deposits are resident;
        // only the first request takes this path — afterwards the
        // response itself is cached — so it is a single sample.
        let start = Instant::now();
        post(overlap_body);
        let overlap_ms = start.elapsed().as_secs_f64() * 1e3;
        let entry = |sweep: &str| {
            Json::obj()
                .set("sweep", sweep)
                .set("dataset", "CENSUS")
                .set("rows", handle_rows)
        };
        results.push(entry(&format!("cold{suffix}")).set("timing", rounds.timing(0)));
        results.push(entry(&format!("warm{suffix}")).set("timing", rounds.timing(1)));
        results.push(entry(&format!("summary{suffix}")).set(
            format!("speedup_warm_over_cold{suffix}").as_str(),
            rounds.stat(|r| r[0] / r[1]),
        ));
        results.push(entry(overlap_sweep).set("first_ms", overlap_ms));
    }
    drop(state);
    handle.shutdown();
    results
}

/// Observability overhead: warm cache-hit p50 against a fully traced
/// daemon vs an identical daemon with the flight recorder disabled
/// (`trace_buffer = 0`), requests alternating between the two.
/// `overhead_traced_over_untraced` is held by [`GATES`].
fn obs_overhead(runs: usize, scale: usize) -> Vec<Json> {
    use seedb_server::{client, Server, ServerConfig};

    let rows = 8_400 / scale;
    let bind = |trace_buffer: usize| {
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_rows: 20_000,
            default_rows: rows,
            trace_buffer,
            ..Default::default()
        })
        .expect("bind seedbd")
        .spawn()
        .expect("spawn seedbd")
    };
    let daemons = [bind(256), bind(0)];
    let body = format!(r#"{{"dataset": "CENSUS", "rows": {rows}, "k": 5}}"#);
    // Warm hits are ~0.2 ms, so samples are cheap — buy the gate's
    // headroom with volume: hundreds of samples per round, several
    // rounds. The warmup call primes both response caches, so every timed
    // request is a hit.
    let rounds = interleave(runs.max(7), (runs * 50).max(100), 2, |daemon| {
        let (status, _) =
            client::request(daemons[daemon].addr(), "POST", "/recommend", Some(&body))
                .expect("recommend request");
        assert_eq!(status, 200);
    });
    let [traced, untraced] = daemons;
    traced.shutdown();
    untraced.shutdown();

    let entry = |sweep: &str| {
        Json::obj()
            .set("sweep", sweep)
            .set("dataset", "CENSUS")
            .set("rows", rows as u64)
    };
    vec![
        entry("traced_warm_hit").set("p50_ms", rounds.median_ms(0)),
        entry("untraced_warm_hit").set("p50_ms", rounds.median_ms(1)),
        entry("summary").set(
            "overhead_traced_over_untraced",
            rounds.stat(|r| r[0] / r[1]),
        ),
    ]
}

/// Overload behavior under open-loop load: an ephemeral `seedbd` with
/// deliberately tiny capacity (2 connection workers, 2 admission-queue
/// slots) takes cache-bypassing `/recommend` traffic at 1x/4x/16x its
/// measured closed-loop capacity. Open-loop means every request is
/// launched at its scheduled arrival time whether or not earlier ones
/// have finished — the client does not apply back-pressure, so the
/// daemon's admission control is what keeps the backlog bounded. Each
/// level records offered rate, throughput, served-latency quantiles,
/// shed rate, and shed-latency quantiles; the summary entry carries the
/// two fields [`GATES`] holds: admission sheds must answer much faster
/// than served requests (`speedup_served_over_shed` — shedding that is as
/// slow as serving is not load-shedding) and every connection must
/// receive *some* response (`no_hung_connections`).
fn server_load(runs: usize, scale: usize) -> Vec<Json> {
    use seedb_server::{client, Server, ServerConfig};
    use std::time::{Duration, Instant};

    let rows = 4_000 / scale;
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_rows: 20_000,
        default_rows: rows,
        max_connections: 2,
        admission_queue: 2,
        ..Default::default()
    };
    let handle = Server::bind(config)
        .expect("bind seedbd")
        .spawn()
        .expect("spawn seedbd");
    let addr = handle.addr();
    // Bypass the response cache so every served request actually runs the
    // engine — a warm cache would make "served" nearly as cheap as "shed"
    // and the figure would measure nothing.
    let body =
        format!(r#"{{"dataset": "CENSUS", "rows": {rows}, "k": 5, "cache_mode": "bypass"}}"#);

    // Closed-loop capacity probe: two clients — matching the two
    // connection workers — issue back-to-back requests, so sustained
    // completions per second under full utilization *is* the daemon's
    // capacity (a serial probe would overestimate it: concurrent runs
    // contend for cores and the worker budget). The first request also
    // absorbs the cold dataset build.
    let probe_n = (runs * 2).max(6);
    let probe_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let body = body.as_str();
            scope.spawn(move || {
                for _ in 0..probe_n {
                    let (status, _) = client::request(addr, "POST", "/recommend", Some(body))
                        .expect("capacity probe");
                    assert_eq!(status, 200);
                }
            });
        }
    });
    let capacity_rps = (2 * probe_n) as f64 / probe_start.elapsed().as_secs_f64();

    let requests = (runs * 12).max(24);
    let mut results = Vec::new();
    let mut served_all: Vec<f64> = Vec::new();
    let mut shed_all: Vec<f64> = Vec::new();
    let mut hung_total = 0u64;
    for multiplier in [1u32, 4, 16] {
        let offered_rps = capacity_rps * f64::from(multiplier);
        let interval = Duration::from_secs_f64(1.0 / offered_rps);
        let started = Instant::now();
        // One thread per arrival: each sleeps until its scheduled slot,
        // fires, and reports (status, latency). `requests` is small
        // enough (≤ 60) that thread-per-arrival is fine and keeps the
        // generator itself queue-free.
        let outcomes: Vec<(u16, String, f64)> = std::thread::scope(|scope| {
            let base = Instant::now() + Duration::from_millis(5);
            let handles: Vec<_> = (0..requests)
                .map(|i| {
                    let body = body.as_str();
                    scope.spawn(move || {
                        let target = base + interval * i as u32;
                        if let Some(wait) = target.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let t = Instant::now();
                        let (status, resp) =
                            client::request(addr, "POST", "/recommend", Some(body))
                                .unwrap_or((0, String::new()));
                        (status, resp, t.elapsed().as_secs_f64() * 1e3)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load generator thread"))
                .collect()
        });
        let wall_s = started.elapsed().as_secs_f64();

        let mut served: Vec<f64> = Vec::new();
        let mut shed: Vec<f64> = Vec::new();
        let mut busy = 0u64;
        let mut hung = 0u64;
        for (status, resp, ms) in &outcomes {
            match status {
                200 => served.push(*ms),
                // Admission sheds ("overloaded") answer before any work
                // starts and gate the fast-shed floor; "workers_busy"
                // sheds sit out a bounded lease wait first, so they are
                // counted but not pooled into the shed latencies.
                503 if resp.contains("workers_busy") => busy += 1,
                503 => shed.push(*ms),
                0 => hung += 1,
                _ => {}
            }
        }
        served.sort_by(f64::total_cmp);
        shed.sort_by(f64::total_cmp);
        hung_total += hung;
        results.push(
            Json::obj()
                .set("sweep", format!("load_{multiplier}x").as_str())
                .set("dataset", "CENSUS")
                .set("rows", rows as u64)
                .set("offered_rps", offered_rps)
                .set("requests", requests as u64)
                .set("served", served.len() as u64)
                .set("shed", shed.len() as u64)
                .set("workers_busy", busy)
                .set("hung", hung)
                .set("shed_rate", shed.len() as f64 / requests as f64)
                .set("throughput_rps", served.len() as f64 / wall_s)
                .set("served_p50_ms", quantile_ms(&served, 0.50))
                .set("served_p95_ms", quantile_ms(&served, 0.95))
                .set("served_p99_ms", quantile_ms(&served, 0.99))
                .set("shed_p99_ms", quantile_ms(&shed, 0.99)),
        );
        served_all.extend(served);
        shed_all.extend(shed);
    }
    handle.shutdown();

    served_all.sort_by(f64::total_cmp);
    shed_all.sort_by(f64::total_cmp);
    let served_p99 = quantile_ms(&served_all, 0.99);
    let shed_p99 = quantile_ms(&shed_all, 0.99);
    // Tail against tail: a shed's p99 must sit well under the served
    // p99, or rejection is costing as much as service. shed_p99 == 0.0
    // means no request was ever shed — the overload levels no longer
    // overload — and the 0.0 ratio trips the gate loudly instead of
    // passing vacuously.
    let speedup = if shed_p99 > 0.0 {
        served_p99 / shed_p99
    } else {
        0.0
    };
    results.push(
        Json::obj()
            .set("sweep", "summary")
            .set("dataset", "CENSUS")
            .set("rows", rows as u64)
            .set("capacity_rps", capacity_rps)
            .set("served_p50_ms", quantile_ms(&served_all, 0.50))
            .set("served_p99_ms", served_p99)
            .set("shed_p99_ms", shed_p99)
            .set("speedup_served_over_shed", speedup)
            .set(
                "no_hung_connections",
                if hung_total == 0 { 1.0 } else { 0.0 },
            ),
    );
    results
}

/// Nearest-rank quantile over an ascending-sorted latency sample
/// (empty sample → 0.0).
fn quantile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
