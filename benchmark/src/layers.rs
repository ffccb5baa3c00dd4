//! The per-layer ledger: every layer measured from outside, through
//! public functions and HTTP endpoints that already exist, on the
//! workload's own table and queries. Nothing here edits or instruments the
//! program under test; layers are named after their crates.
//!
//! A layer a workload never enters keeps its ledger rows at 0 — the
//! in-process workloads have no `server.*` cost, and that is the
//! prediction a later change is checked against.

use crate::gen::{self, Cond, Query};
use crate::serve::{self, Mode, Req, Served};
use crate::stats;
use crate::workload::{RunFacts, Subject};
use seedb_core::{
    predicate_signature,
    pruning::{make_pruner, ViewEstimate},
    reference_signature,
    view::enumerate_views,
    ExecutionStrategy, PruningKind, SeeDb, SeeDbConfig,
};
use seedb_data::Dataset;
use seedb_engine::{
    execute_combined_with_mode, execute_morsels, pruned_scan, rollup, with_pool, AggFunc, AggSpec,
    CancelToken, CmpOp, CombinedQuery, ExecMode, ExecStats, GroupedResult,
};
use seedb_metrics::normalize_pair;
use seedb_server::{api, client, csv, http::Request, router, Catalog};
use seedb_sql::{parser::parse_expr, Planner};
use seedb_storage::{BatchData, Bitmap, ColumnId, TableBuilder, DEFAULT_BATCH_SIZE};
use seedb_util::Json;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Ledger rows by metric name.
pub type Ledger = BTreeMap<&'static str, f64>;

/// Queries of a subject the engine-level probes average over.
const PROBE_QUERIES: usize = 4;
/// Longest any single probe keeps repeating.
const PROBE_BUDGET: Duration = Duration::from_millis(400);
/// Most repetitions of any single probe.
const PROBE_REPS: usize = 9;

/// Median seconds of `f` over up to [`PROBE_REPS`] runs inside `budget`
/// (always at least one run).
fn median_secs(budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut runs = Vec::new();
    while runs.is_empty() || (runs.len() < PROBE_REPS && started.elapsed() < budget) {
        let t = Instant::now();
        f();
        runs.push(t.elapsed().as_secs_f64());
    }
    stats::median(&runs)
}

/// Probes every library layer on `subject`.
pub fn probe_library(subject: &Subject, sweep: &[RunFacts], ledger: &mut Ledger) {
    let table = subject.table.as_ref();
    let rows = table.num_rows().max(1) as f64;
    let step = (subject.queries.len() / PROBE_QUERIES).max(1);
    let queries: Vec<&Query> = subject.queries.iter().step_by(step).collect();
    let bound: Vec<_> = queries.iter().map(|q| q.bind(table)).collect();
    let (target, reference) = &bound[0];
    let seedb = SeeDb::with_config(subject.table.clone(), subject.config.clone());

    ledger.insert("data.generate_s", subject.generate_s);

    // storage: produce batches of every referenced column, touch nothing.
    let predicates: Vec<_> = bound.iter().map(|(t, _)| t).collect();
    let columns = gen::referenced_columns(table, &predicates);
    let scan_s = median_secs(PROBE_BUDGET, || {
        table.scan_batches(
            &columns,
            0..table.num_rows(),
            DEFAULT_BATCH_SIZE,
            &mut |b| {
                black_box(b.len());
            },
        );
    });
    ledger.insert(
        "storage.scan_ns_per_row_col",
        scan_s * 1e9 / (rows * columns.len() as f64),
    );

    // engine: predicate bitmaps alone.
    let predicate_s: f64 = bound
        .iter()
        .map(|(target, _)| {
            let mut cols = Vec::new();
            target.collect_columns(&mut cols);
            let slot_of = |c: ColumnId| cols.iter().position(|x| *x == c).unwrap_or(0);
            let bound = target.bind(&slot_of);
            let mut bits = Bitmap::new();
            median_secs(PROBE_BUDGET / PROBE_QUERIES as u32, || {
                table.scan_batches(&cols, 0..table.num_rows(), DEFAULT_BATCH_SIZE, &mut |b| {
                    bound.eval_batch(b, &mut bits);
                    black_box(bits.words());
                });
            })
        })
        .sum();
    ledger.insert(
        "engine.predicate_ns_per_row",
        predicate_s * 1e9 / (rows * bound.len() as f64),
    );

    // engine: one combined query per dimension, every measure, target and
    // reference in one scan — in both modes, beside a naive f64 sum of the
    // same measure columns as the roofline.
    let dims = table.schema().dimensions();
    let measures = table.schema().measures();
    let aggregates: Vec<AggSpec> = measures
        .iter()
        .map(|m| AggSpec::new(AggFunc::Avg, *m))
        .collect();
    let per_dim: Vec<CombinedQuery> = dims
        .iter()
        .map(|dim| CombinedQuery {
            group_by: vec![*dim],
            aggregates: aggregates.clone(),
            filter: None,
            split: reference.to_split(target.clone()),
        })
        .collect();
    let cells = rows * dims.len() as f64 * measures.len() as f64;
    let mut results: Vec<GroupedResult> = Vec::new();
    for (name, mode) in [
        ("engine.agg_ns_per_row_agg", ExecMode::Vectorized),
        ("engine.agg_scalar_ns_per_row_agg", ExecMode::Scalar),
    ] {
        let secs = median_secs(PROBE_BUDGET, || {
            let mut stats = ExecStats::new();
            results = per_dim
                .iter()
                .map(|q| execute_combined_with_mode(table, q, mode, &mut stats))
                .collect();
        });
        ledger.insert(name, secs * 1e9 / cells);
    }
    let naive_s = median_secs(PROBE_BUDGET, || {
        table.scan_batches(
            &measures,
            0..table.num_rows(),
            DEFAULT_BATCH_SIZE,
            &mut |b| {
                for slot in 0..b.num_columns() {
                    let sum: f64 = match b.column(slot).data {
                        BatchData::Float(v) => v.iter().sum(),
                        BatchData::Int(v) => v.iter().map(|x| *x as f64).sum(),
                        _ => 0.0,
                    };
                    black_box(sum);
                }
            },
        );
    });
    ledger.insert(
        "engine.naive_sum_ns_per_row_agg",
        naive_s * 1e9 / (rows * measures.len() as f64),
    );

    // metrics: normalize + distance over each view's value vectors.
    let vectors: Vec<(Vec<f64>, Vec<f64>)> = results
        .iter()
        .flat_map(|r| (0..r.aggregates.len()).map(move |a| r.value_vectors(a)))
        .collect();
    let metric = subject.config.metric;
    let distance_s = median_secs(PROBE_BUDGET / 4, || {
        for (t, r) in &vectors {
            let (p, q) = normalize_pair(t, r);
            black_box(metric.compute(&p, &q));
        }
    });
    ledger.insert(
        "metrics.distance_ns_per_view",
        distance_s * 1e9 / vectors.len().max(1) as f64,
    );

    // engine: the planner's clusters as (cluster, morsel) work items on
    // the planner's pool, then the rollups that recover each dimension.
    let plan = seedb.plan(target, reference);
    let clustered: Vec<CombinedQuery> = plan
        .clusters
        .iter()
        .map(|cluster| CombinedQuery {
            group_by: cluster.clone(),
            aggregates: aggregates.clone(),
            filter: None,
            split: reference.to_split(target.clone()),
        })
        .collect();
    let mut packed: Vec<GroupedResult> = Vec::new();
    let morsels_s = median_secs(PROBE_BUDGET, || {
        packed = with_pool(plan.workers, |pool| {
            execute_morsels(
                pool,
                table,
                &clustered,
                0..table.num_rows(),
                plan.scan_shape(),
                &CancelToken::none(),
            )
        })
        .into_iter()
        .map(|(result, _)| result)
        .collect();
    });
    ledger.insert("engine.morsels_ms", morsels_s * 1e3);
    let rollup_s = median_secs(PROBE_BUDGET / 4, || {
        for result in packed.iter().filter(|r| r.group_by.len() > 1) {
            for position in 0..result.group_by.len() {
                black_box(rollup(result, position));
            }
        }
    });
    ledger.insert("engine.rollup_us", rollup_s * 1e6);

    // engine: zone-map verdicts for every cluster scan of every probed
    // query.
    let prune_s = median_secs(PROBE_BUDGET / 4, || {
        for (target, reference) in &bound {
            for cluster in &clustered {
                let query = CombinedQuery {
                    split: reference.to_split(target.clone()),
                    ..cluster.clone()
                };
                black_box(pruned_scan(
                    table,
                    &query,
                    0..table.num_rows(),
                    plan.morsel_rows,
                ));
            }
        }
    });
    ledger.insert("engine.zone_prune_us", prune_s * 1e6 / bound.len() as f64);

    // core: planning, view enumeration, cache-key signatures.
    let funcs = &subject.config.agg_functions;
    for (name, secs) in [
        (
            "core.plan_us",
            median_secs(PROBE_BUDGET / 4, || {
                black_box(seedb.plan(target, reference));
            }),
        ),
        (
            "core.enumerate_views_us",
            median_secs(PROBE_BUDGET / 4, || {
                black_box(enumerate_views(table, funcs));
            }),
        ),
        (
            "core.signature_us",
            median_secs(PROBE_BUDGET / 4, || {
                black_box(predicate_signature(target));
                black_box(reference_signature(reference));
                black_box(subject.config.result_signature());
            }),
        ),
    ] {
        ledger.insert(name, secs * 1e6);
    }

    // core: what the runs say about themselves.
    let sum = |f: &dyn Fn(&RunFacts) -> f64| sweep.iter().map(f).sum::<f64>();
    let med = |f: &dyn Fn(&RunFacts) -> f64| {
        let values: Vec<f64> = sweep.iter().map(f).collect();
        if values.is_empty() {
            0.0
        } else {
            stats::median(&values)
        }
    };
    let phase_sum = |r: &RunFacts| r.phase_us.iter().sum::<u64>() as f64;
    ledger.insert("core.phase_sum_us", med(&phase_sum));
    ledger.insert(
        "core.phase_max_us",
        med(&|r| r.phase_us.iter().copied().max().unwrap_or(0) as f64),
    );
    ledger.insert("core.phases_executed", med(&|r| r.phase_us.len() as f64));
    ledger.insert("core.recommend_wall_ms", med(&|r| r.wall_us / 1e3));
    ledger.insert(
        "core.overhead_ms",
        med(&|r| (r.wall_us - phase_sum(r)) / 1e3),
    );
    // Counts, so they repeat exactly: the work pruning avoided, by rows
    // (the phased pruner) and by partitions (the zone maps).
    ledger.insert(
        "core.rows_scanned_share",
        sum(&|r| r.rows_scanned as f64) / sum(&|r| r.rows_possible as f64).max(1.0),
    );
    let pruned = sum(&|r| r.partitions_pruned as f64);
    ledger.insert(
        "engine.partitions_pruned_share",
        pruned / (pruned + sum(&|r| r.partitions_scanned as f64)).max(1.0),
    );

    // core: the pruner's decisions replayed on exact utilities.
    ledger.insert(
        "core.pruner_decide_us",
        probe_pruner(&subject.config, subject, target, reference) * 1e6,
    );

    // sql: each query's WHERE body through the lexer, parser and planner.
    let planner = Planner::new(table);
    let sql: Vec<String> = queries.iter().map(|q| q.target.sql()).collect();
    let sql_s = median_secs(PROBE_BUDGET / 4, || {
        for text in &sql {
            black_box(
                parse_expr(text)
                    .map(|expr| planner.plan_predicate(&expr))
                    .ok(),
            );
        }
    });
    ledger.insert("sql.parse_plan_us", sql_s * 1e6 / sql.len() as f64);

    // util: the request bodies and a rendered answer through the JSON
    // reader and writer.
    let bodies: Vec<String> = queries
        .iter()
        .map(|q| {
            Req {
                dataset: subject.dataset.clone(),
                rows: Some(table.num_rows()),
                query: (*q).clone(),
                k: subject.config.k,
                metric: None,
                mode: Mode::Default,
            }
            .body()
        })
        .collect();
    let bytes: usize = bodies.iter().map(String::len).sum();
    let parse_s = median_secs(PROBE_BUDGET / 4, || {
        for body in &bodies {
            black_box(Json::parse(body).ok());
        }
    });
    ledger.insert(
        "util.json_parse_us_per_kb",
        parse_s * 1e6 / (bytes as f64 / 1024.0),
    );
    if let Ok(rec) = SeeDb::with_config(subject.table.clone(), exact(&subject.config))
        .recommend(target, reference)
    {
        let dataset = Dataset {
            name: subject.dataset.clone(),
            table: subject.table.clone(),
            target: target.clone(),
            task: String::new(),
        };
        let answer = api::render_recommendation(&dataset, &rec);
        let render_s = median_secs(PROBE_BUDGET / 4, || {
            black_box(answer.compact());
        });
        ledger.insert("util.json_render_us", render_s * 1e6);
    }
}

/// `config` without pruning: the exact answer.
fn exact(config: &SeeDbConfig) -> SeeDbConfig {
    SeeDbConfig {
        strategy: ExecutionStrategy::Sharing,
        ..config.clone()
    }
}

/// Seconds per `decide` call of the `CI` pruner, replayed over ten phases
/// on the exact utilities of one query as every view's running mean.
fn probe_pruner(
    config: &SeeDbConfig,
    subject: &Subject,
    target: &seedb_core::Predicate,
    reference: &seedb_core::ReferenceSpec,
) -> f64 {
    let Ok(rec) =
        SeeDb::with_config(subject.table.clone(), exact(config)).recommend(target, reference)
    else {
        return 0.0;
    };
    let phases = config.num_phases.max(1);
    let mut calls = 0usize;
    let secs = median_secs(PROBE_BUDGET / 4, || {
        calls = 0;
        let mut pruner = make_pruner(PruningKind::Ci, config.delta, config.seed);
        let mut live: Vec<usize> = (0..rec.all_utilities.len()).collect();
        let mut accepted = 0usize;
        for phase in 1..=phases {
            let estimates: Vec<ViewEstimate> = live
                .iter()
                .map(|&view_id| ViewEstimate {
                    view_id,
                    mean: rec.all_utilities[view_id],
                    samples: phase,
                })
                .collect();
            let decision = pruner.decide(&estimates, accepted, config.k, phase, phases);
            calls += 1;
            accepted += decision.accept.len();
            live.retain(|v| !decision.discard.contains(v) && !decision.accept.contains(v));
        }
    });
    secs / calls.max(1) as f64
}

/// Probes that do not depend on the workload: the JSON string decoder at
/// three payload sizes (the decode is superlinear — see the README's known
/// baselines), and the ingest path's stages on one 8 000-row events CSV.
pub fn probe_static(seed: u64, scale: f64, ledger: &mut Ledger) {
    for (name, kb) in [
        ("util.json_parse_16kb_us", 16usize),
        ("util.json_parse_64kb_us", 64),
        ("util.json_parse_256kb_us", 256),
    ] {
        let kb = ((kb as f64 * scale) as usize).max(1);
        let body = serve::ingest_body("payload", &"x".repeat(kb * 1024));
        let secs = median_secs(PROBE_BUDGET, || {
            black_box(Json::parse(&body).ok());
        });
        ledger.insert(name, secs * 1e6);
    }

    let rows = (serve::INGEST_ROWS as f64 * scale) as usize;
    let text = gen::events_csv(seed, rows);
    let parse_s = median_secs(PROBE_BUDGET, || {
        black_box(csv::parse_csv(&text).ok());
    });
    ledger.insert("server.csv_parse_ms", parse_s * 1e3);
    if let Ok(parsed) = csv::parse_csv(&text) {
        let build_s = median_secs(PROBE_BUDGET, || {
            let mut builder = TableBuilder::new(parsed.defs.clone());
            for row in &parsed.rows {
                let _ = builder.push_row(row);
            }
            black_box(builder.build(seedb_storage::StoreKind::Column).ok());
        });
        ledger.insert("storage.build_rows_per_s", rows as f64 / build_s);
    }
    let catalog = Catalog::new(rows.max(1), rows.max(1), seed);
    let ingest_s = median_secs(PROBE_BUDGET, || {
        black_box(catalog.ingest_csv("probe", &text).ok());
    });
    ledger.insert("server.ingest_ms", ingest_s * 1e3);
}

/// Probes the server's request handling in process, against the live
/// server's own state: the same request through `router::handle` as a
/// miss, a partial and a hit, then the hit over a socket for the I/O share.
pub fn probe_server(served: &Served, ledger: &mut Ledger) -> std::io::Result<()> {
    let state = served.server.state();
    let base = served.probe_request();
    let handle = |req: &Req| {
        let request = Request::new("POST", "/recommend", req.body());
        let t = Instant::now();
        let response = router::handle(&state, &request);
        (response.status == 200).then(|| t.elapsed().as_secs_f64())
    };
    let mut miss = Vec::new();
    let mut partial = Vec::new();
    let mut hit = Vec::new();
    for rep in 0..PROBE_REPS {
        // An always-true conjunct with its own constant makes every
        // repetition a first sight of its predicate; the same predicate
        // under another metric is the partial; a repeat is the hit.
        let fresh = Req {
            query: Query {
                target: Cond::And(vec![
                    base.query.target.clone(),
                    Cond::NumCmp {
                        column: served.probe_measure().to_owned(),
                        op: CmpOp::Gt,
                        value: -1e9 - rep as f64,
                    },
                ]),
                ..base.query.clone()
            },
            ..base.clone()
        };
        let overlap = Req {
            metric: Some("L1"),
            ..fresh.clone()
        };
        miss.extend(handle(&fresh));
        partial.extend(handle(&overlap));
        hit.extend(handle(&fresh));
    }
    let median_us = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            stats::median(v) * 1e6
        }
    };
    ledger.insert("server.handle_miss_us", median_us(&miss));
    ledger.insert("server.handle_partial_us", median_us(&partial));
    ledger.insert("server.handle_hit_us", median_us(&hit));

    // The same hit over a socket: what connect, HTTP framing and the
    // write add on top of handling.
    let body = base.body();
    client::request(served.addr(), "POST", "/recommend", Some(&body))?;
    let mut socket = Vec::new();
    let mut direct = Vec::new();
    for _ in 0..64 {
        let t = Instant::now();
        let (status, _) = client::request(served.addr(), "POST", "/recommend", Some(&body))?;
        if status == 200 {
            socket.push(t.elapsed().as_secs_f64());
        }
        direct.extend(handle(&base));
    }
    ledger.insert(
        "server.http_io_us",
        (median_us(&socket) - median_us(&direct)).max(0.0),
    );
    Ok(())
}

/// Server-side stage times from the daemon's own flight recorder: the
/// `/debug/traces` index, then up to sixteen evenly spaced `/recommend`
/// traces, median microseconds per span name.
pub fn probe_stages(served: &Served, ledger: &mut Ledger) -> std::io::Result<()> {
    const STAGES: [(&str, &str); 9] = [
        ("http_read", "server.stage_http_read_us"),
        ("queue_wait", "server.stage_queue_wait_us"),
        ("catalog", "server.stage_catalog_us"),
        ("cache_probe", "server.stage_cache_probe_us"),
        ("plan", "server.stage_plan_us"),
        ("admission", "server.stage_admission_us"),
        ("phase", "server.stage_phase_us"),
        ("cache_deposit", "server.stage_cache_deposit_us"),
        ("response_write", "server.stage_response_write_us"),
    ];
    let addr = served.addr();
    let (_, index) = client::request_json(addr, "GET", "/debug/traces", None)?;
    let ids: Vec<u64> = index
        .get("traces")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|t| t.get("route").and_then(Json::as_str) == Some("/recommend"))
        .filter_map(|t| t.get("id").and_then(Json::as_u64))
        .collect();
    let step = (ids.len() / 16).max(1);
    let mut by_stage: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for id in ids.iter().step_by(step) {
        let (status, trace) =
            client::request_json(addr, "GET", &format!("/debug/traces/{id}"), None)?;
        if status != 200 {
            continue;
        }
        // One request's spans of a name add up (ten phases, one stage).
        let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
        for event in trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            let name = event.get("name").and_then(Json::as_str).unwrap_or("");
            if let Some((stage, _)) = STAGES.iter().find(|(stage, _)| *stage == name) {
                *sums.entry(stage).or_insert(0.0) +=
                    event.get("dur").and_then(Json::as_num).unwrap_or(0.0);
            }
        }
        for (stage, sum) in sums {
            by_stage.entry(stage).or_default().push(sum);
        }
    }
    for (stage, metric) in STAGES {
        let value = by_stage.get(stage).map_or(0.0, |v| stats::median(v));
        ledger.insert(metric, value);
    }
    Ok(())
}

/// The planner's view of one query, for the human-readable report.
pub fn plan_summary(subject: &Subject) -> String {
    let (target, reference) = subject.queries[0].bind(subject.table.as_ref());
    SeeDb::with_config(subject.table.clone(), subject.config.clone())
        .plan(&target, &reference)
        .summary()
}
