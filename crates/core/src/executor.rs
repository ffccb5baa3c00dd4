//! The phased execution framework (§3) with sharing (§4.1) and pruning
//! (§4.2) combined.
//!
//! Every strategy is a configuration of one loop ([`Executor::run`]):
//!
//! 1. Partition the table into `n` phases ([`crate::phase::phase_ranges`]).
//! 2. Per phase, build **query clusters** from the views still alive
//!    ([`crate::plan`]'s one clustering function, re-run only when that set
//!    changes): group views by dimension (combine-aggregates), optionally
//!    bin-pack dimensions into multi-GROUP-BY clusters under the memory
//!    budget (combine-group-bys) — each cluster aggregating every distinct
//!    `(func, measure)` of its views once — and execute clusters in
//!    parallel, each as a single target+reference scan
//!    (combine-target-reference) or as two separate queries.
//! 3. Fold each cluster's partial results into per-view
//!    [`ViewState`]s — one pass from the cluster's groups to every member
//!    view's groups of the phase, run by the worker that scans the
//!    cluster's last morsel while the others keep scanning: the phase is
//!    one pool round ([`seedb_engine::ScanSession`], which also keeps the
//!    worker partials from phase to phase). The fold owns what it reads —
//!    the phase's clusters and a snapshot of each view's group layout — so
//!    the states stay the executor's alone. Then re-estimate utilities, and
//!    let the pruner discard or accept views.
//! 4. `COMB_EARLY` stops as soon as top-k membership is decided.
//!
//! `NO_OPT` and `SHARING` are the loop at one phase with no pruner;
//! `NO_OPT` also switches every sharing rewrite off (`crate::plan::shape`),
//! which leaves two serial full-table queries per view — exactly the
//! paper's basic execution engine (2·f·a·m queries).
//!
//! A run seeded from a cross-request cache ([`crate::cache`]) replays each
//! cached view's phases without scanning and resumes the scan where they
//! end, so the pruner sees the estimates an unseeded run would. A run with
//! a cache attached also keeps every view's groups of each phase it took
//! part in — what it folded into the view's state — for the cache.

use crate::cache::CachedPartial;
use crate::config::SeeDbConfig;
use crate::phase::phase_ranges;
use crate::plan::{build_clusters, phase_count, shape, Cluster, Member, PhysicalPlan};
use crate::pruning::{make_pruner, Pruner, ViewEstimate};
use crate::reference::ReferenceSpec;
use crate::state::{GroupLayout, Side, ViewGroups, ViewState};
use crate::view::{ViewId, ViewSpec};
use seedb_engine::{
    with_pool, CancelToken, CombinedQuery, ExecStats, PartialAggregation, Predicate, ScanSession,
    SplitSpec, TraceCtx,
};
use seedb_storage::Table;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of an execution: final per-view states plus run metadata.
#[derive(Debug)]
pub struct ExecutionReport {
    /// One state per enumerated view (indexed by `ViewSpec::id`).
    pub states: Vec<ViewState>,
    /// Work counters.
    pub stats: ExecStats,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Non-empty phases actually executed (< the effective phase count
    /// when early-stopped). Empty tail ranges from `phases > rows` are
    /// never executed and never counted.
    pub phases_executed: usize,
    /// Whether `COMB_EARLY` stopped before the final phase.
    pub early_stopped: bool,
    /// Whether the run's [`CancelToken`] expired mid-run. When set, the
    /// states cover only the phases completed before expiry (a possibly
    /// empty prefix) and the final phase's partial scan was discarded —
    /// callers must not rank, render, or cache them as a finished answer.
    pub deadline_exceeded: bool,
    /// The effective (non-empty) phase count of the partition — the
    /// granularity cached prefixes must match to be replayable.
    pub total_phases: usize,
    /// Per-view count of phases answered by scanning (vs seed replay).
    pub scanned_phases: Vec<usize>,
    /// Per-view groups of each phase the view took part in, in phase
    /// order (view-id indexed; replayed phases share the seed's `Arc`s).
    /// Captured only by a run with a cache — what the cache keeps of it;
    /// empty otherwise.
    pub deltas: Vec<Vec<Arc<ViewGroups>>>,
}

impl ExecutionReport {
    /// Ids of the top-k views, ranked purely by final utility estimate,
    /// descending. Ties break in favour of accepted views (the pruner
    /// confirmed those), then by view id for determinism. NaN utilities
    /// (e.g. from NaN measure data) rank below every finite utility instead
    /// of panicking the sort.
    ///
    /// If pruning discarded so aggressively that fewer than `k` views are
    /// still live or accepted, the tail is backfilled with pruned views
    /// ranked by their last-known utility, so callers always get
    /// `min(k, total views)` results.
    pub fn top_k(&self, k: usize, metric: seedb_metrics::DistanceKind) -> Vec<ViewId> {
        // NaN ⇒ −∞ so that total_cmp ranks unusable views last, not first.
        let rank = |u: f64| if u.is_nan() { f64::NEG_INFINITY } else { u };
        let order = |a: &(ViewId, f64, bool), b: &(ViewId, f64, bool)| {
            rank(b.1)
                .total_cmp(&rank(a.1))
                .then(b.2.cmp(&a.2))
                .then(a.0.cmp(&b.0))
        };

        let mut candidates: Vec<(ViewId, f64, bool)> = self
            .states
            .iter()
            .filter(|s| s.alive || s.accepted)
            .map(|s| (s.spec.id, s.utility(metric), s.accepted))
            .collect();
        candidates.sort_by(order);
        let mut top: Vec<ViewId> = candidates
            .into_iter()
            .take(k)
            .map(|(id, _, _)| id)
            .collect();

        if top.len() < k {
            let mut pruned: Vec<(ViewId, f64, bool)> = self
                .states
                .iter()
                .filter(|s| !s.alive && !s.accepted)
                .map(|s| (s.spec.id, s.utility(metric), false))
                .collect();
            pruned.sort_by(order);
            top.extend(pruned.into_iter().take(k - top.len()).map(|(id, _, _)| id));
        }
        top
    }
}

/// The shared queries of one phase: the clusters answering the views still
/// scanning, and each cluster's combined queries (one, or a target and a
/// reference query without combine-target-reference). Kept across phases
/// and rebuilt only when the scanning set changes.
struct PhaseQueries {
    scanning: Vec<ViewId>,
    clusters: Vec<Cluster>,
    queries: Vec<CombinedQuery>,
}

/// Drains `partial` — one cluster query's folded result for some row range
/// — into the groups that range contributes to each of the query's member
/// views: one [`ViewGroups`] per member, in member order, every
/// accumulator of the cluster merged exactly once, straight into the view
/// it belongs to. `side` is `None` for a combined target+reference query,
/// or the one side a `TargetOnly` query computed (which it accumulates on
/// its *target* side). `layouts` is indexed by view id.
fn fold_into_views(
    partial: &mut PartialAggregation,
    members: &[Member],
    side: Option<Side>,
    layouts: &[GroupLayout],
) -> Vec<ViewGroups> {
    let mut deltas: Vec<ViewGroups> = members
        .iter()
        .map(|&(view_id, ..)| layouts[view_id].empty())
        .collect();
    partial.drain(|key, target, reference| {
        for (delta, &(_, agg_idx, dim_pos)) in deltas.iter_mut().zip(members) {
            let pair = delta.pair(key.code(dim_pos));
            match side {
                None => {
                    pair.target.merge(&target[agg_idx]);
                    pair.reference.merge(&reference[agg_idx]);
                }
                Some(Side::Target) => pair.target.merge(&target[agg_idx]),
                Some(Side::Reference) => pair.reference.merge(&target[agg_idx]),
            }
        }
    });
    deltas
}

/// Strategy-driven executor over one table.
pub struct Executor<'a> {
    pub(crate) table: &'a dyn Table,
    pub(crate) config: &'a SeeDbConfig,
    /// The run's cooperative deadline, checked at phase boundaries (and,
    /// inside the engine, before each morsel).
    pub(crate) cancel: CancelToken,
    /// Each executed phase records a `phase` span (the exact interval
    /// pushed into `ExecStats::phase_times_us`), and the engine emits
    /// per-worker morsel spans.
    pub(crate) trace: TraceCtx,
}

impl<'a> Executor<'a> {
    /// Creates an executor for `table` under `config`, with no deadline and
    /// tracing off.
    pub fn new(table: &'a dyn Table, config: &'a SeeDbConfig) -> Self {
        Executor {
            table,
            config,
            cancel: CancelToken::none(),
            trace: TraceCtx::disabled(),
        }
    }

    /// Runs the configured strategy over `views`, seeded from `seeds`
    /// (view-id indexed; empty for a run without a cache — which then
    /// captures nothing). See the module docs for how a seed is replayed.
    ///
    /// A [`PhysicalPlan`] is derived first (stats-driven worker count,
    /// morsel size, and index choice, with `Knob::Fixed` overrides
    /// honored), then a single scoped worker pool
    /// ([`with_pool`]) lives for the whole run: each phase is one pool
    /// round of `(cluster, morsel)` work items on the same workers, and the
    /// worker that completes a cluster's last morsel folds it into its
    /// views' groups of the phase. Empty tail ranges (`phases > rows`) are
    /// skipped entirely so they never advance the pruner's sample count
    /// `m`.
    ///
    /// A seeded run is **bit-identical** to an unseeded one: replayed
    /// deltas merge exactly, so cumulative states — and therefore utility
    /// estimates and pruning decisions — reproduce the unseeded run's bits
    /// phase by phase.
    pub fn run(
        &self,
        views: &[ViewSpec],
        target: &Predicate,
        reference: &ReferenceSpec,
        seeds: &[Option<Arc<CachedPartial>>],
    ) -> ExecutionReport {
        let pruning = shape(self.config).pruning;
        let pruner = make_pruner(pruning, self.config.delta, self.config.seed);
        self.run_with(views, target, reference, seeds, pruner)
    }

    /// [`Executor::run`] under the given pruner.
    fn run_with(
        &self,
        views: &[ViewSpec],
        target: &Predicate,
        reference: &ReferenceSpec,
        seeds: &[Option<Arc<CachedPartial>>],
        mut pruner: Box<dyn Pruner>,
    ) -> ExecutionReport {
        let shape = shape(self.config);
        // Only non-empty ranges are phases: an empty range would advance
        // the pruner's sample count m — tightening the Hoeffding–Serfling
        // interval — without contributing a single row of evidence. Empty
        // ranges only ever trail the non-empty ones.
        let total_phases = phase_count(self.table, self.config);
        let mut ranges = phase_ranges(self.table.num_rows(), shape.phases);
        ranges.truncate(total_phases);
        let k = self.config.k;
        let metric = self.config.metric;
        let ref_pred = reference.reference_predicate(target);

        let capture = !seeds.is_empty();
        let mut states: Vec<ViewState> = views
            .iter()
            .map(|v| ViewState::for_table(*v, self.table))
            .collect();
        // The phase each view resumes scanning at, after replaying its
        // seed's prefix.
        let resume_phase: Vec<usize> = (0..views.len())
            .map(|i| {
                seeds
                    .get(i)
                    .and_then(Option::as_ref)
                    .map_or(0, |p| p.phases_done())
            })
            .collect();
        let mut report = ExecutionReport {
            states: Vec::new(),
            stats: ExecStats::new(),
            elapsed: Duration::ZERO,
            phases_executed: 0,
            early_stopped: false,
            deadline_exceeded: false,
            total_phases,
            scanned_phases: vec![0; views.len()],
            deltas: vec![Vec::new(); if capture { views.len() } else { 0 }],
        };

        let plan = PhysicalPlan::derive(self.table, self.config, views, target, reference);
        report.stats.plan_summary = plan.summary();
        let queries_per_cluster = if shape.sharing.combine_target_reference {
            1
        } else {
            2
        };
        with_pool(plan.workers, |pool| {
            let mut session = ScanSession::new(
                pool,
                self.table,
                plan.scan_shape(),
                &self.cancel,
                &self.trace,
            );
            // The run's wall clock covers its phases and what lies between
            // them, not planning or the pool's start-up and teardown.
            let start = Instant::now();
            let mut planned: Option<Arc<PhaseQueries>> = None;
            for (phase_idx, range) in ranges.iter().enumerate() {
                if self.cancel.is_expired() {
                    report.deadline_exceeded = true;
                    break;
                }
                let phase_start = Instant::now();
                // Scan for the live views whose seed does not cover this
                // phase (all of them, in an unseeded run), and replay the
                // cached delta of the others.
                let (scanning, replaying): (Vec<ViewId>, Vec<ViewId>) = (0..views.len())
                    .filter(|&i| states[i].alive || states[i].accepted)
                    .partition(|&i| phase_idx >= resume_phase[i]);
                if scanning.is_empty() && replaying.is_empty() {
                    break;
                }
                for i in replaying {
                    let seed = seeds[i].as_ref().expect("resume_phase implies a seed");
                    let delta = &seed.deltas[phase_idx];
                    states[i].merge_groups(delta);
                    if capture {
                        report.deltas[i].push(delta.clone());
                    }
                }
                let phase = match &planned {
                    Some(current) if current.scanning == scanning => Arc::clone(current),
                    _ => Arc::clone(planned.insert(Arc::new(self.phase_queries(
                        &shape.sharing,
                        views,
                        scanning,
                        target,
                        &ref_pred,
                        reference,
                    )))),
                };

                // Execute this phase's clusters: every cluster query is
                // split into morsels and all `(cluster, morsel)` work items
                // share the run-wide worker pool in one round, so even a
                // single bin-packed all-sharing cluster uses every worker;
                // the worker that completes a query's last morsel folds its
                // result into its member views' groups of this phase. The
                // dense-code counts in the layouts size each delta's table.
                let layouts: Vec<GroupLayout> =
                    states.iter().map(|s| s.groups().layout()).collect();
                let folded = Arc::clone(&phase);
                let results = session.scan(&phase.queries, range.clone(), move |job, partial| {
                    let side = match queries_per_cluster {
                        1 => None,
                        _ => Some([Side::Target, Side::Reference][job % 2]),
                    };
                    let members = &folded.clusters[job / queries_per_cluster].members;
                    fold_into_views(partial, members, side, &layouts)
                });
                // A deadline that expired during the scan makes this
                // phase's results garbage (workers skipped an arbitrary
                // suffix of the morsels): stop with the completed-phase
                // prefix. The already-merged states stay a valid prefix.
                let Some(results) = results.filter(|_| !self.cancel.is_expired()) else {
                    report.deadline_exceeded = true;
                    break;
                };

                // Per-view groups of this phase alone, captured for the
                // cache.
                let mut phase_groups: Vec<Option<ViewGroups>> = vec![None; views.len()];
                for (job, (deltas, job_stats)) in results.into_iter().enumerate() {
                    report.stats.merge(&job_stats);
                    let members = &phase.clusters[job / queries_per_cluster].members;
                    for (&(view_id, ..), delta) in members.iter().zip(deltas) {
                        states[view_id].merge_groups(&delta);
                        if capture {
                            match &mut phase_groups[view_id] {
                                // The other side, from a separate query.
                                Some(captured) => captured.merge(&delta),
                                empty => *empty = Some(delta),
                            }
                        }
                    }
                }

                // Every scanned view covered one more phase — even a view
                // whose groups were absent from this range must occupy the
                // phase slot, or replay indices would shift.
                for &id in &phase.scanning {
                    report.scanned_phases[id] += 1;
                    if capture {
                        let delta = phase_groups[id].take().unwrap_or_default();
                        report.deltas[id].push(Arc::new(delta));
                    }
                }

                report.phases_executed = phase_idx + 1;
                let phase_time = phase_start.elapsed();
                report
                    .stats
                    .phase_times_us
                    .push(phase_time.as_micros() as u64);
                self.trace.record(
                    "phase",
                    0,
                    phase_start,
                    phase_time,
                    vec![("phase", phase_idx.to_string())],
                );

                // Utility estimates for live, unaccepted views.
                let mut estimates = Vec::new();
                for state in states.iter_mut() {
                    if state.alive && !state.accepted {
                        let _ = state.record_estimate(metric);
                        estimates.push(ViewEstimate {
                            view_id: state.spec.id,
                            mean: state.estimate_mean(),
                            samples: state.estimates.len(),
                        });
                    }
                }
                let accepted_so_far = states.iter().filter(|s| s.accepted).count();
                let decision = pruner.decide(
                    &estimates,
                    accepted_so_far,
                    k,
                    report.phases_executed,
                    total_phases,
                );
                for id in decision.discard {
                    let s = &mut states[id];
                    s.alive = false;
                    s.pruned_at_phase = Some(phase_idx);
                }
                for id in decision.accept {
                    states[id].accepted = true;
                }

                if shape.early {
                    let accepted = states.iter().filter(|s| s.accepted).count();
                    let undecided = states.iter().filter(|s| s.alive && !s.accepted).count();
                    if accepted >= k || accepted + undecided <= k {
                        report.early_stopped = report.phases_executed < total_phases;
                        break;
                    }
                }
            }
            report.elapsed = start.elapsed();
        });
        report.states = states;
        report
    }

    /// Clusters the `scanning` views under `sharing` and builds each
    /// cluster's combined queries.
    fn phase_queries(
        &self,
        sharing: &crate::config::SharingConfig,
        views: &[ViewSpec],
        scanning: Vec<ViewId>,
        target: &Predicate,
        ref_pred: &Predicate,
        reference: &ReferenceSpec,
    ) -> PhaseQueries {
        let clusters = build_clusters(self.table, sharing, scanning.iter().map(|&id| &views[id]));
        let queries = clusters
            .iter()
            .flat_map(|cluster| {
                let query = |split: SplitSpec| CombinedQuery {
                    group_by: cluster.group_by.clone(),
                    aggregates: cluster.aggregates.clone(),
                    filter: None,
                    split,
                };
                if sharing.combine_target_reference {
                    vec![query(reference.to_split(target.clone()))]
                } else {
                    vec![
                        query(SplitSpec::TargetOnly(target.clone())),
                        query(SplitSpec::TargetOnly(ref_pred.clone())),
                    ]
                }
            })
            .collect();
        PhaseQueries {
            scanning,
            clusters,
            queries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExecutionStrategy, Knob, PruningKind, SharingConfig};
    use crate::view::enumerate_views;
    use seedb_engine::AggFunc;
    use seedb_metrics::DistanceKind;
    use seedb_storage::{BoxedTable, ColumnDef, StoreKind, TableBuilder, Value};

    /// 3 dims × 2 measures, with dim "d0" strongly deviating for the target.
    fn test_table(kind: StoreKind) -> BoxedTable {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("d0"),
            ColumnDef::dim("d1"),
            ColumnDef::dim("d2"),
            ColumnDef::measure("m0"),
            ColumnDef::measure("m1"),
        ]);
        for i in 0..400u32 {
            let in_target = i % 4 == 0;
            // d0 correlates with target membership; d1/d2 are noise.
            let d0 = if in_target {
                format!("g{}", i % 2)
            } else {
                format!("g{}", 2 + i % 2)
            };
            let d1 = format!("x{}", i % 3);
            let d2 = format!("y{}", i % 5);
            let m0 = if in_target {
                100.0 + (i % 7) as f64
            } else {
                10.0 + (i % 7) as f64
            };
            let m1 = (i % 11) as f64;
            b.push_row(&[
                Value::str(d0),
                Value::str(d1),
                Value::str(d2),
                Value::Float(m0),
                Value::Float(m1),
            ])
            .unwrap();
        }
        b.build(kind).unwrap()
    }

    fn target(t: &dyn Table) -> Predicate {
        // Target = rows whose m0 >= 100 (the planted quarter).
        Predicate::NumCmp {
            col: t.schema().column_id("m0").unwrap(),
            op: seedb_engine::CmpOp::Ge,
            value: 100.0,
        }
    }

    fn run_with(
        strategy: ExecutionStrategy,
        sharing: SharingConfig,
        pruning: PruningKind,
        kind: StoreKind,
    ) -> (ExecutionReport, SeeDbConfig, BoxedTable) {
        let table = test_table(kind);
        let mut cfg = SeeDbConfig::default();
        cfg.strategy = strategy;
        cfg.sharing = sharing;
        cfg.pruning = pruning;
        cfg.k = 3;
        cfg.num_phases = 5;
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let exec = Executor::new(table.as_ref(), &cfg);
        let report = exec.run(
            &views,
            &target(table.as_ref()),
            &ReferenceSpec::WholeTable,
            &[],
        );
        (report, cfg, table)
    }

    fn utilities(report: &ExecutionReport) -> Vec<f64> {
        report
            .states
            .iter()
            .map(|s| s.utility(DistanceKind::Emd))
            .collect()
    }

    #[test]
    fn no_opt_issues_two_queries_per_view() {
        let (report, _, table) = run_with(
            ExecutionStrategy::NoOpt,
            SharingConfig::none(),
            PruningKind::None,
            StoreKind::Column,
        );
        let n_views = enumerate_views(table.as_ref(), &[AggFunc::Avg]).len();
        assert_eq!(n_views, 6); // 3 dims × 2 measures
        assert_eq!(report.stats.queries_issued, 2 * n_views as u64);
        assert_eq!(report.stats.rows_scanned, (2 * n_views * 400) as u64);
    }

    #[test]
    fn sharing_reduces_queries_and_scanned_rows() {
        let (no_opt, ..) = run_with(
            ExecutionStrategy::NoOpt,
            SharingConfig::none(),
            PruningKind::None,
            StoreKind::Column,
        );
        let (shared, ..) = run_with(
            ExecutionStrategy::Sharing,
            SharingConfig {
                parallelism: Knob::Fixed(1),
                combine_group_bys: false,
                ..Default::default()
            },
            PruningKind::None,
            StoreKind::Column,
        );
        // One combined query per dimension instead of 2 per view.
        assert_eq!(shared.stats.queries_issued, 3);
        assert!(shared.stats.queries_issued < no_opt.stats.queries_issued);
        assert!(shared.stats.rows_scanned < no_opt.stats.rows_scanned);
    }

    #[test]
    fn all_strategies_agree_on_utilities_without_pruning() {
        let (no_opt, ..) = run_with(
            ExecutionStrategy::NoOpt,
            SharingConfig::none(),
            PruningKind::None,
            StoreKind::Column,
        );
        for combine_gb in [false, true] {
            for parallelism in [1, 4] {
                let (shared, ..) = run_with(
                    ExecutionStrategy::Sharing,
                    SharingConfig {
                        parallelism: Knob::Fixed(parallelism),
                        combine_group_bys: combine_gb,
                        memory_budget: Some(10_000),
                        ..Default::default()
                    },
                    PruningKind::None,
                    StoreKind::Column,
                );
                let a = utilities(&no_opt);
                let b = utilities(&shared);
                for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                    assert!(
                        (x - y).abs() < 1e-9,
                        "view {i}: NO_OPT {x} vs SHARING(gb={combine_gb},par={parallelism}) {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn separate_target_reference_execution_matches_combined() {
        let (combined, ..) = run_with(
            ExecutionStrategy::Sharing,
            SharingConfig {
                parallelism: Knob::Fixed(1),
                ..Default::default()
            },
            PruningKind::None,
            StoreKind::Column,
        );
        let (separate, ..) = run_with(
            ExecutionStrategy::Sharing,
            SharingConfig {
                parallelism: Knob::Fixed(1),
                combine_target_reference: false,
                ..Default::default()
            },
            PruningKind::None,
            StoreKind::Column,
        );
        let a = utilities(&combined);
        let b = utilities(&separate);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
        // Separate execution pays twice the queries.
        assert_eq!(
            separate.stats.queries_issued,
            2 * combined.stats.queries_issued
        );
    }

    #[test]
    fn comb_with_no_pruning_matches_sharing() {
        let (sharing, ..) = run_with(
            ExecutionStrategy::Sharing,
            SharingConfig {
                parallelism: Knob::Fixed(1),
                ..Default::default()
            },
            PruningKind::None,
            StoreKind::Column,
        );
        let (comb, ..) = run_with(
            ExecutionStrategy::Comb,
            SharingConfig {
                parallelism: Knob::Fixed(1),
                ..Default::default()
            },
            PruningKind::None,
            StoreKind::Column,
        );
        let a = utilities(&sharing);
        let b = utilities(&comb);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "{a:?} vs {b:?}");
        }
        assert_eq!(comb.phases_executed, 5);
    }

    #[test]
    fn ci_pruning_reduces_work_and_keeps_quality() {
        let (no_pru, cfg, _) = run_with(
            ExecutionStrategy::Comb,
            SharingConfig {
                parallelism: Knob::Fixed(1),
                ..Default::default()
            },
            PruningKind::None,
            StoreKind::Column,
        );
        let (ci, ..) = run_with(
            ExecutionStrategy::Comb,
            SharingConfig {
                parallelism: Knob::Fixed(1),
                ..Default::default()
            },
            PruningKind::Ci,
            StoreKind::Column,
        );
        assert!(ci.stats.rows_scanned <= no_pru.stats.rows_scanned);
        // Quality: the CI top-k should match the true top-k on this
        // well-separated dataset.
        let truth = no_pru.top_k(cfg.k, cfg.metric);
        let got = ci.top_k(cfg.k, cfg.metric);
        let acc = crate::quality::accuracy_at_k(&truth, &got);
        assert!(
            acc >= 2.0 / 3.0,
            "accuracy {acc}, truth {truth:?}, got {got:?}"
        );
    }

    #[test]
    fn comb_early_stops_early_and_returns_k_views() {
        let (early, cfg, _) = run_with(
            ExecutionStrategy::CombEarly,
            SharingConfig {
                parallelism: Knob::Fixed(1),
                ..Default::default()
            },
            PruningKind::Ci,
            StoreKind::Column,
        );
        let top = early.top_k(cfg.k, cfg.metric);
        assert_eq!(top.len(), cfg.k);
        assert!(early.phases_executed <= cfg.num_phases);
    }

    #[test]
    fn row_store_and_column_store_agree() {
        let (row, ..) = run_with(
            ExecutionStrategy::Sharing,
            SharingConfig {
                parallelism: Knob::Fixed(1),
                ..Default::default()
            },
            PruningKind::None,
            StoreKind::Row,
        );
        let (col, ..) = run_with(
            ExecutionStrategy::Sharing,
            SharingConfig {
                parallelism: Knob::Fixed(1),
                ..Default::default()
            },
            PruningKind::None,
            StoreKind::Column,
        );
        let a = utilities(&row);
        let b = utilities(&col);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn nagg_cap_chunks_clusters() {
        let queries = |combine_group_bys: bool, cap: Option<usize>| {
            let (report, ..) = run_with(
                ExecutionStrategy::Sharing,
                SharingConfig {
                    parallelism: Knob::Fixed(1),
                    combine_group_bys,
                    memory_budget: Some(1_000_000),
                    max_aggregates_per_query: cap,
                    ..Default::default()
                },
                PruningKind::None,
                StoreKind::Column,
            );
            (report.stats.queries_issued, utilities(&report))
        };
        let (uncapped, want) = queries(false, None);
        assert_eq!(uncapped, 3);
        // One dimension per query: each carries 2 distinct aggregates, so a
        // cap of 1 splits every query in two (6 vs 3 uncapped).
        let (capped, got) = queries(false, Some(1));
        assert_eq!(capped, 6);
        assert_eq!(got, want);
        // All three dims in one bin: 6 views, but n_agg is the width of the
        // SELECT list and the bin needs only AVG(m0), AVG(m1). Cap 2 is one
        // query answering all 6 views (chunking by member views made it 3);
        // cap 1 is one query per measure (it was one per view, 6).
        for (cap, expected) in [(None, 1), (Some(2), 1), (Some(1), 2)] {
            let (packed, got) = queries(true, cap);
            assert_eq!(packed, expected, "cap {cap:?}");
            assert_eq!(got, want, "cap {cap:?}");
        }
    }

    #[test]
    fn combine_group_bys_reduces_query_count() {
        let (packed, ..) = run_with(
            ExecutionStrategy::Sharing,
            SharingConfig {
                parallelism: Knob::Fixed(1),
                combine_group_bys: true,
                memory_budget: Some(1_000_000),
                ..Default::default()
            },
            PruningKind::None,
            StoreKind::Column,
        );
        // All three dims fit one bin (4 × 3 × 5 = 60 groups « budget).
        assert_eq!(packed.stats.queries_issued, 1);
    }

    #[test]
    fn sharing_updates_each_distinct_aggregate_once_per_row() {
        // 3 dims × 4 measures. A budget of 20 groups packs d0 × d1 (4 × 3)
        // and leaves d2 (5) alone: two clusters of 4 distinct aggregates.
        let rows = 600u64;
        for kind in [StoreKind::Row, StoreKind::Column] {
            let mut defs = vec![
                ColumnDef::dim("d0"),
                ColumnDef::dim("d1"),
                ColumnDef::dim("d2"),
            ];
            defs.extend((0..4).map(|m| ColumnDef::measure(format!("m{m}"))));
            let mut b = TableBuilder::new(defs);
            for i in 0..rows {
                let mut row = vec![
                    Value::str(format!("g{}", i % 4)),
                    Value::str(format!("x{}", i % 3)),
                    Value::str(format!("y{}", i % 5)),
                ];
                row.extend((0..4u64).map(|m| Value::Float(((i * (m + 3)) % 17) as f64)));
                b.push_row(&row).unwrap();
            }
            let table = b.build(kind).unwrap();
            let target = Predicate::col_eq_str(table.as_ref(), "d0", "g1");
            for mode in seedb_engine::ExecMode::ALL {
                let mut cfg = SeeDbConfig::for_strategy(ExecutionStrategy::Sharing);
                cfg.sharing.parallelism = Knob::Fixed(1);
                cfg.sharing.memory_budget = Some(20);
                cfg.engine_mode = mode;
                let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
                let exec = Executor::new(table.as_ref(), &cfg);
                let plan = PhysicalPlan::derive(
                    table.as_ref(),
                    &cfg,
                    &views,
                    &target,
                    &ReferenceSpec::WholeTable,
                );
                assert_eq!(plan.clusters.len(), 2, "{kind} {mode}");
                assert_eq!((plan.aggregates, plan.views), (8, 12), "{kind} {mode}");
                assert!(plan.summary().contains("aggs=8/12"), "{}", plan.summary());
                let report = exec.run(&views, &target, &ReferenceSpec::WholeTable, &[]);
                // Every row feeds one side (target, or the non-target rest
                // of the whole-table reference) of every distinct aggregate
                // of both clusters — 8 updates, not one per view (12).
                assert_eq!(report.stats.rows_scanned, 2 * rows, "{kind} {mode}");
                assert_eq!(report.stats.accumulator_updates, 8 * rows, "{kind} {mode}");
            }
        }
    }

    /// Discards the scripted views at the end of the scripted (1-based)
    /// phases; accepts nothing.
    struct ScriptedPruner(Vec<(usize, Vec<ViewId>)>);

    impl Pruner for ScriptedPruner {
        fn decide(
            &mut self,
            _estimates: &[ViewEstimate],
            _accepted_so_far: usize,
            _k: usize,
            phase: usize,
            _total_phases: usize,
        ) -> crate::pruning::PruneDecision {
            crate::pruning::PruneDecision {
                discard: self
                    .0
                    .iter()
                    .filter(|(at, _)| *at == phase)
                    .flat_map(|(_, ids)| ids.clone())
                    .collect(),
                accept: Vec::new(),
            }
        }

        fn label(&self) -> &'static str {
            "SCRIPTED"
        }
    }

    /// A 4-phase capturing run over `test_table` under a scripted pruner.
    fn scripted_run(combine_group_bys: bool, script: &[(usize, Vec<ViewId>)]) -> ExecutionReport {
        let table = test_table(StoreKind::Column);
        let mut cfg = SeeDbConfig::for_strategy(ExecutionStrategy::Comb);
        cfg.num_phases = 4;
        cfg.sharing.parallelism = Knob::Fixed(1);
        cfg.sharing.combine_group_bys = combine_group_bys;
        cfg.sharing.memory_budget = Some(1_000_000);
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let exec = Executor::new(table.as_ref(), &cfg);
        exec.run_with(
            &views,
            &target(table.as_ref()),
            &ReferenceSpec::WholeTable,
            &vec![None; views.len()],
            Box::new(ScriptedPruner(script.to_vec())),
        )
    }

    fn assert_same_deltas(a: &[Arc<ViewGroups>], b: &[Arc<ViewGroups>], label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: phases captured");
        for (phase, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x, y, "{label} phase {phase}");
        }
    }

    #[test]
    fn pruning_one_view_of_a_shared_aggregate_keeps_the_rest_exact() {
        // Views: 0 = (d0, m0), 1 = (d0, m1), 2 = (d1, m0), 3 = (d1, m1),
        // 4 = (d2, m0), 5 = (d2, m1); all three dims share one bin. Drop
        // (d0, m0) after phase 1 while (d1, m0) and (d2, m0) keep reading
        // the shared AVG(m0).
        let script = [(1, vec![0])];
        let shared = scripted_run(true, &script);
        let unshared = scripted_run(false, &script);

        // One query and two distinct aggregates per phase, before and after
        // the discard: m0 is accumulated once per row for whoever reads it.
        assert_eq!(shared.stats.queries_issued, 4);
        assert_eq!(shared.stats.accumulator_updates, 400 * 2);

        // The discarded view stopped advancing after its one phase.
        assert_eq!(shared.scanned_phases, vec![1, 4, 4, 4, 4, 4]);
        assert_eq!(shared.deltas[0].len(), 1);
        assert_eq!(shared.states[0].pruned_at_phase, Some(0));
        assert_eq!(shared.states[0].estimates.len(), 1);

        // Every view — the survivors on m0 above all — saw exactly the
        // values the unshared per-dimension queries gave it, phase by phase.
        for id in 0..6 {
            assert_same_deltas(
                &shared.deltas[id],
                &unshared.deltas[id],
                &format!("view {id}"),
            );
            assert_eq!(
                shared.states[id].value_vectors(),
                unshared.states[id].value_vectors(),
                "view {id}"
            );
        }
    }

    #[test]
    fn a_dimension_without_live_views_leaves_its_cluster() {
        // Both d0 views die after phase 2: phases 3–4 group by (d1, d2)
        // only, and nothing is rolled up for d0 any more.
        let shared = scripted_run(true, &[(2, vec![0, 1])]);
        assert_eq!(shared.scanned_phases, vec![2, 2, 4, 4, 4, 4]);
        let all_live = scripted_run(true, &[]);
        for id in 2..6 {
            assert_same_deltas(
                &shared.deltas[id],
                &all_live.deltas[id],
                &format!("view {id}"),
            );
        }

        let table = test_table(StoreKind::Column);
        let cfg = SeeDbConfig::default();
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let mut sharing = cfg.sharing.clone();
        sharing.memory_budget = Some(1_000_000);
        let clusters = build_clusters(table.as_ref(), &sharing, &views[2..]);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].group_by, vec![views[2].dim, views[4].dim]);
        assert_eq!(clusters[0].aggregates.len(), 2);
        assert_eq!(
            clusters[0].members,
            vec![(2, 0, 0), (3, 1, 0), (4, 0, 1), (5, 1, 1)]
        );
    }

    #[test]
    fn top_k_is_nan_safe_and_ranks_nan_last() {
        // A measure containing −∞ poisons normalization (the negative-value
        // shift becomes +∞, so finite groups normalize to ∞/∞ = NaN) and
        // that NaN propagates into the view's utility. top_k used to panic
        // on `partial_cmp().unwrap()`; it must now rank the poisoned view
        // below every finite-utility view.
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("d"),
            ColumnDef::measure("clean"),
            ColumnDef::measure("poisoned"),
        ]);
        for i in 0..40u32 {
            let clean = if i % 4 == 0 { 100.0 } else { 1.0 };
            let poisoned = if i % 2 == 0 { f64::NEG_INFINITY } else { 1.0 };
            b.push_row(&[
                Value::str(format!("g{}", i % 2)),
                Value::Float(clean),
                Value::Float(poisoned),
            ])
            .unwrap();
        }
        let table = b.build(StoreKind::Column).unwrap();
        let mut cfg = SeeDbConfig::default();
        cfg.strategy = ExecutionStrategy::Sharing;
        cfg.sharing.parallelism = Knob::Fixed(1);
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let target = Predicate::NumCmp {
            col: table.schema().column_id("clean").unwrap(),
            op: seedb_engine::CmpOp::Ge,
            value: 50.0,
        };
        let exec = Executor::new(table.as_ref(), &cfg);
        let report = exec.run(&views, &target, &ReferenceSpec::WholeTable, &[]);

        let nan_views: Vec<ViewId> = report
            .states
            .iter()
            .filter(|s| s.utility(cfg.metric).is_nan())
            .map(|s| s.spec.id)
            .collect();
        assert!(!nan_views.is_empty(), "test premise: a NaN-utility view");

        let top = report.top_k(views.len(), cfg.metric);
        assert_eq!(top.len(), views.len());
        assert!(
            !nan_views.contains(&top[0]),
            "NaN-utility view ranked first: {top:?}"
        );
        // NaN views occupy exactly the tail positions of the ranking.
        let tail = &top[top.len() - nan_views.len()..];
        let mut tail_sorted = tail.to_vec();
        tail_sorted.sort_unstable();
        let mut nan_sorted = nan_views.clone();
        nan_sorted.sort_unstable();
        assert_eq!(
            tail_sorted, nan_sorted,
            "NaN views must rank last: {top:?}, NaN = {nan_views:?}"
        );
    }

    #[test]
    fn top_k_backfills_from_pruned_views_when_over_pruned() {
        // RANDOM pruning keeps only k views after phase 1 and discards the
        // rest; asking for more than survived must backfill from the pruned
        // views (ranked by last-known utility) instead of silently
        // returning a short list.
        let (report, cfg, _) = run_with(
            ExecutionStrategy::CombEarly,
            SharingConfig {
                parallelism: Knob::Fixed(1),
                ..Default::default()
            },
            PruningKind::Random,
            StoreKind::Column,
        );
        let n_views = report.states.len();
        let survivors = report
            .states
            .iter()
            .filter(|s| s.alive || s.accepted)
            .count();
        assert!(
            survivors < n_views,
            "test premise: RANDOM pruning must discard some views"
        );

        let top = report.top_k(n_views, cfg.metric);
        assert_eq!(top.len(), n_views, "backfill must restore a full list");
        let mut unique = top.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), n_views, "no duplicate ids: {top:?}");
        // Surviving views occupy the head of the list; pruned views only
        // backfill the tail.
        for (pos, id) in top.iter().enumerate() {
            let s = &report.states[*id];
            if pos < survivors {
                assert!(s.alive || s.accepted, "position {pos} not a survivor");
            } else {
                assert!(!s.alive && !s.accepted, "position {pos} not backfill");
            }
        }
    }

    #[test]
    fn scalar_and_vectorized_modes_agree_bit_for_bit() {
        for kind in [StoreKind::Row, StoreKind::Column] {
            for strategy in [ExecutionStrategy::NoOpt, ExecutionStrategy::Sharing] {
                let table = test_table(kind);
                let mut per_mode: Vec<Vec<f64>> = Vec::new();
                for mode in seedb_engine::ExecMode::ALL {
                    let mut cfg = SeeDbConfig::for_strategy(strategy);
                    cfg.sharing.parallelism = Knob::Fixed(1);
                    cfg.k = 3;
                    cfg.num_phases = 5;
                    cfg.engine_mode = mode;
                    let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
                    let exec = Executor::new(table.as_ref(), &cfg);
                    let report = exec.run(
                        &views,
                        &target(table.as_ref()),
                        &ReferenceSpec::WholeTable,
                        &[],
                    );
                    per_mode.push(utilities(&report));
                }
                // Bit-identical, not approximately equal: both modes consume
                // rows in the same order.
                assert_eq!(per_mode[0], per_mode[1], "{kind} {strategy}");
            }
        }
    }

    #[test]
    fn utilities_bit_identical_across_parallelism_and_morsels() {
        // The morsel-driven executor promises *bit-identical* utilities for
        // every (worker count, morsel size, store layout, engine mode)
        // combination — the all-sharing configuration exercises the
        // mixed-radix dense index (vectorized) and the hash path (scalar).
        for kind in [StoreKind::Row, StoreKind::Column] {
            let mut baseline: Option<Vec<f64>> = None;
            for mode in seedb_engine::ExecMode::ALL {
                for parallelism in [1usize, 2, 8] {
                    for morsel_rows in [1usize, 7, 1024, usize::MAX] {
                        let table = test_table(kind);
                        let mut cfg = SeeDbConfig::for_strategy(ExecutionStrategy::Sharing);
                        cfg.sharing.parallelism = Knob::Fixed(parallelism);
                        cfg.sharing.morsel_rows = Knob::Fixed(morsel_rows);
                        cfg.sharing.memory_budget = Some(1_000_000);
                        cfg.engine_mode = mode;
                        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
                        let exec = Executor::new(table.as_ref(), &cfg);
                        let report = exec.run(
                            &views,
                            &target(table.as_ref()),
                            &ReferenceSpec::WholeTable,
                            &[],
                        );
                        let utils = utilities(&report);
                        match &baseline {
                            None => baseline = Some(utils),
                            Some(want) => assert_eq!(
                                want, &utils,
                                "{kind} {mode} par={parallelism} morsel={morsel_rows}"
                            ),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn no_opt_runs_morsel_parallel_with_identical_utilities() {
        let (serial, ..) = run_with(
            ExecutionStrategy::NoOpt,
            SharingConfig::none(),
            PruningKind::None,
            StoreKind::Column,
        );
        let (parallel, ..) = run_with(
            ExecutionStrategy::NoOpt,
            SharingConfig {
                parallelism: Knob::Fixed(8),
                morsel_rows: Knob::Fixed(64),
                ..SharingConfig::none()
            },
            PruningKind::None,
            StoreKind::Column,
        );
        assert_eq!(utilities(&serial), utilities(&parallel));
        assert_eq!(serial.stats.queries_issued, parallel.stats.queries_issued);
        assert_eq!(serial.stats.rows_scanned, parallel.stats.rows_scanned);
    }

    #[test]
    fn empty_phases_are_skipped_and_do_not_advance_the_pruner() {
        // 3 rows under 8 configured phases: only 3 ranges carry rows. The
        // executor must run exactly those — an executed empty phase would
        // advance the pruner's sample count m and tighten the
        // Hoeffding–Serfling interval with no new data (and `m = total`
        // would claim exactness before the scan is complete).
        let build = || {
            let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")]);
            for (d, m) in [("a", 10.0), ("a", 90.0), ("b", 30.0)] {
                b.push_row(&[Value::str(d), Value::Float(m)]).unwrap();
            }
            b.build(StoreKind::Column).unwrap()
        };
        let run = |phases: usize| {
            let table = build();
            let mut cfg = SeeDbConfig::default();
            cfg.strategy = ExecutionStrategy::Comb;
            cfg.pruning = PruningKind::Ci;
            cfg.sharing.parallelism = Knob::Fixed(1);
            cfg.num_phases = phases;
            cfg.k = 1;
            let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
            let target = Predicate::col_eq_str(table.as_ref(), "d", "a");
            let exec = Executor::new(table.as_ref(), &cfg);
            exec.run(&views, &target, &ReferenceSpec::WholeTable, &[])
        };
        let oversubscribed = run(8);
        assert_eq!(
            oversubscribed.phases_executed, 3,
            "empty tail phases must not execute"
        );
        // An 8-phase run over 3 rows is the same partition as a 3-phase
        // run — estimates, decisions, and utilities are bit-identical.
        let exact = run(3);
        assert_eq!(utilities(&oversubscribed), utilities(&exact));
        assert_eq!(oversubscribed.phases_executed, exact.phases_executed);
    }

    #[test]
    fn phase_timings_and_plan_summary_are_recorded() {
        // Auto knobs: the planner resolves the shape, and the executor
        // records one timing slot per executed phase plus the plan summary.
        let (report, ..) = run_with(
            ExecutionStrategy::Comb,
            SharingConfig::default(),
            PruningKind::None,
            StoreKind::Column,
        );
        assert_eq!(report.phases_executed, 5);
        assert_eq!(report.stats.phase_times_us.len(), 5);
        assert!(
            report.stats.plan_summary.contains("workers=1(auto)"),
            "400 rows is below the parallel threshold: {}",
            report.stats.plan_summary
        );

        let (no_opt, ..) = run_with(
            ExecutionStrategy::NoOpt,
            SharingConfig::none(),
            PruningKind::None,
            StoreKind::Column,
        );
        assert_eq!(no_opt.stats.phase_times_us.len(), 1);
        assert!(no_opt.stats.plan_summary.contains("workers=1(fixed)"));

        // Traced: every `phase` span is the interval pushed into
        // `phase_times_us`, to the microsecond, in phase order.
        for strategy in [ExecutionStrategy::Comb, ExecutionStrategy::NoOpt] {
            let table = test_table(StoreKind::Column);
            let mut cfg = SeeDbConfig::for_strategy(strategy);
            cfg.num_phases = 5;
            let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
            let trace = TraceCtx::enabled(7);
            let exec = Executor {
                trace: trace.clone(),
                ..Executor::new(table.as_ref(), &cfg)
            };
            let report = exec.run(
                &views,
                &target(table.as_ref()),
                &ReferenceSpec::WholeTable,
                &[],
            );
            let done = seedb_obs::Obs::default()
                .finish(&trace, "test", "/test", 200)
                .expect("the trace is live");
            let spans: Vec<u64> = done
                .spans
                .iter()
                .filter(|span| span.name == "phase")
                .map(|span| span.dur_us)
                .collect();
            assert_eq!(spans, report.stats.phase_times_us, "{strategy}");
            assert_eq!(spans.len(), report.phases_executed);
        }
    }

    #[test]
    fn auto_planned_run_matches_fixed_knob_runs() {
        let (auto, ..) = run_with(
            ExecutionStrategy::Sharing,
            SharingConfig::default(),
            PruningKind::None,
            StoreKind::Column,
        );
        for (parallelism, morsel_rows) in [(1, usize::MAX), (2, 64), (8, 1024)] {
            let (fixed, ..) = run_with(
                ExecutionStrategy::Sharing,
                SharingConfig {
                    parallelism: Knob::Fixed(parallelism),
                    morsel_rows: Knob::Fixed(morsel_rows),
                    ..Default::default()
                },
                PruningKind::None,
                StoreKind::Column,
            );
            assert_eq!(
                utilities(&auto),
                utilities(&fixed),
                "plan choice changed results: par={parallelism} morsel={morsel_rows}"
            );
        }
    }

    #[test]
    fn expired_deadline_stops_the_run_and_flags_the_report() {
        let table = test_table(StoreKind::Column);
        let mut cfg = SeeDbConfig::default();
        cfg.strategy = ExecutionStrategy::Comb;
        cfg.sharing.parallelism = Knob::Fixed(1);
        cfg.num_phases = 5;
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let expired = CancelToken::after(Duration::ZERO);
        let exec = Executor {
            cancel: expired,
            ..Executor::new(table.as_ref(), &cfg)
        };
        let report = exec.run(
            &views,
            &target(table.as_ref()),
            &ReferenceSpec::WholeTable,
            &[],
        );
        assert!(report.deadline_exceeded);
        assert_eq!(report.phases_executed, 0, "no phase completes past expiry");
        assert_eq!(report.stats.rows_scanned, 0);

        // And a deadline-free run is unflagged.
        let exec = Executor::new(table.as_ref(), &cfg);
        let report = exec.run(
            &views,
            &target(table.as_ref()),
            &ReferenceSpec::WholeTable,
            &[],
        );
        assert!(!report.deadline_exceeded);
        assert_eq!(report.phases_executed, 5);
    }

    #[test]
    fn random_pruning_scans_less_than_everything() {
        let (random, cfg, _) = run_with(
            ExecutionStrategy::CombEarly,
            SharingConfig {
                parallelism: Knob::Fixed(1),
                ..Default::default()
            },
            PruningKind::Random,
            StoreKind::Column,
        );
        // RANDOM decides after phase 1 => early stop.
        assert_eq!(random.phases_executed, 1);
        assert_eq!(random.top_k(cfg.k, cfg.metric).len(), cfg.k);
    }
}
