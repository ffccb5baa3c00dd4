//! Morsel-driven intra-query parallelism (Leis et al., SIGMOD 2014) over
//! the storage layer's partition directory.
//!
//! The coarse unit of SeeDB parallelism — one worker per query cluster —
//! collapses exactly when the sharing optimizer works best: the all-sharing
//! configuration bin-packs every view into a handful of clusters, leaving
//! most workers idle. This module plans each query's scan with
//! [`crate::prune::pruned_scan`] — the **partition** is the unit of work
//! distribution: zone-map-pruned partitions are dropped before any worker
//! runs, and the surviving rows are carved into fixed-size **morsels**.
//! The per-job morsel lists are flattened into one job-major item space and
//! run as **one round** of a shared worker pool ([`crate::parallel::Pool`]):
//! every worker aggregates the morsels it claims into a **thread-local
//! [`PartialAggregation`]** per job, and a per-job countdown lets the worker
//! that completes a job's last morsel fold that job's worker partials and
//! hand the folded partial to the caller's consumer, while the others keep
//! scanning. A job with no surviving morsel is one fold-only item.
//!
//! A [`ScanSession`] keeps those worker partials between calls: a phased
//! run scans the same queries over one range after another, so each call
//! *drains* the partials (accumulators reset; projection, bound predicates,
//! group keys and group index kept) instead of building them again.
//! [`execute_morsels`] is the one-shot form.
//!
//! Because accumulators merge exactly (order-invariant sums, see
//! [`crate::Accumulator`]) and pruning only drops partitions whose rows
//! provably create no group entry, the folded result is **bit-identical**
//! to a serial unpartitioned scan of the same range, for every
//! `(worker count, morsel size, partition size)` combination and whatever
//! ranges the session scanned before.

// Clock reads and allocation-prone calls (clippy.toml lists them) are
// denied in the morsel inner loop; timing goes through the probe types.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::cost::ScanShape;
use crate::parallel::{CancelToken, Pool, WorkerProbes};
use crate::prune::{pruned_scan, PrunedScan};
use crate::spec::CombinedQuery;
use crate::stats::ExecStats;
use crate::{GroupedResult, PartialAggregation};
use seedb_obs::TraceCtx;
use seedb_storage::Table;
use seedb_util::PLock;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

pub use seedb_storage::DEFAULT_MORSEL_ROWS;

/// One worker's partial state for one job.
struct WorkerPartial {
    agg: PartialAggregation,
    /// Counters of the morsels aggregated since the last fold.
    stats: ExecStats,
    /// Whether any morsel was, i.e. whether the fold has anything to take.
    scanned: bool,
}

/// `partials[job][worker]`. Each worker only ever touches its own slot
/// while scanning, and a job's slots are folded once all its morsels are
/// done, so the mutexes are uncontended; they keep the hot path in safe
/// code.
type Partials = Vec<Vec<PLock<Option<WorkerPartial>>>>;

/// A run-scoped morsel scanner: one pool, table, [`ScanShape`], deadline
/// and trace, any number of [`ScanSession::scan`] calls. Worker partials
/// live as long as consecutive calls pass the same query list.
pub struct ScanSession<'a, 'env> {
    pool: &'a Pool<'env>,
    table: &'env dyn Table,
    shape: ScanShape,
    cancel: CancelToken,
    trace: TraceCtx,
    /// The query list `partials` is bound to.
    queries: Arc<[CombinedQuery]>,
    /// Shared with each scan's round, which owns what it reads.
    partials: Arc<Partials>,
}

impl<'a, 'env> ScanSession<'a, 'env> {
    /// A session over `table` on `pool`. `cancel` is the cooperative
    /// deadline of every scan; when `trace` is enabled, each worker that
    /// claims at least one morsel of a scan emits one aggregated `morsels`
    /// span on trace lane `1 + worker` (start = the worker's first claim,
    /// duration = its summed busy time, with the morsel count, the
    /// accumulator updates and the share of them that were fixed-point lane
    /// adds as span arguments). A disabled trace costs one branch per morsel and
    /// allocates nothing; results are bit-identical either way.
    pub fn new(
        pool: &'a Pool<'env>,
        table: &'env dyn Table,
        shape: ScanShape,
        cancel: &CancelToken,
        trace: &TraceCtx,
    ) -> Self {
        ScanSession {
            pool,
            table,
            shape,
            cancel: *cancel,
            trace: trace.clone(),
            queries: Arc::new([]),
            partials: Arc::default(),
        }
    }

    /// Aggregates rows `range` for every query in `queries`, morsel-parallel,
    /// in one pool round: the worker that completes a query's last morsel
    /// runs `consume(job, folded partial)` for it. Returns the results with
    /// each job's stats, in input order. The folded partial holds exactly
    /// the groups and values of `range` (for the consumer to
    /// [`PartialAggregation::drain`]); whatever the consumer leaves in it is
    /// drained before the next call. `consume` owns what it reads, or
    /// borrows it from outside the pool's scope.
    ///
    /// Each query's scan is planned independently: partitions whose zone
    /// maps prove the query can match no row are pruned up front (tallied
    /// in `partitions_pruned`), the survivors carved into morsels. Each
    /// query counts as one issued query in its stats; `scan_passes`
    /// reflects the number of morsel scans.
    ///
    /// Once the deadline expires, workers stop aggregating before each
    /// newly claimed morsel (in-flight morsels finish) and consume nothing
    /// more, so the call returns within one morsel of the deadline — with
    /// `None`, because partially scanned aggregates are not a prefix of
    /// anything well-defined. The session drops every partial it holds at
    /// that point: nothing of a cancelled scan reaches a later call.
    pub fn scan<R: Send + 'env>(
        &mut self,
        queries: &[CombinedQuery],
        range: Range<usize>,
        consume: impl Fn(usize, &mut PartialAggregation) -> R + Send + Sync + 'env,
    ) -> Option<Vec<(R, ExecStats)>> {
        let n_jobs = queries.len();
        let workers = self.pool.threads();
        if *self.queries != *queries {
            self.queries = queries.iter().cloned().collect();
            self.partials = Arc::new(
                (0..n_jobs)
                    .map(|_| {
                        (0..workers)
                            .map(|_| PLock::new("engine.morsel.partials", None))
                            .collect()
                    })
                    .collect(),
            );
        }
        let (table, mode, cancel) = (self.table, self.shape.mode, self.cancel);

        // Per-job scan plans: prune partitions against each query's
        // contribution predicate, then flatten the surviving morsel lists
        // into one job-major item space. `job_offsets[j]..job_offsets[j + 1]`
        // are job j's items: its morsels, or one fold-only item when none
        // survived. `pending[j]` counts job j's items still running.
        let plans: Vec<PrunedScan> = queries
            .iter()
            .map(|q| pruned_scan(table, q, range.clone(), self.shape.morsel_rows))
            .collect();
        let mut job_offsets = Vec::with_capacity(n_jobs + 1);
        job_offsets.push(0usize);
        for plan in &plans {
            job_offsets.push(job_offsets[job_offsets.len() - 1] + plan.morsels.len().max(1));
        }
        let n_items = job_offsets[n_jobs];
        let pending: Vec<AtomicUsize> = plans
            .iter()
            .map(|plan| AtomicUsize::new(plan.morsels.len().max(1)))
            .collect();
        let results: Arc<Vec<_>> = Arc::new(
            (0..n_jobs)
                .map(|_| PLock::new("engine.morsel.results", None))
                .collect(),
        );
        let probes = Arc::new(WorkerProbes::new(workers, self.trace.is_enabled()));

        let (queries, partials) = (Arc::clone(&self.queries), Arc::clone(&self.partials));
        let (out, round_probes) = (Arc::clone(&results), Arc::clone(&probes));
        let fresh = move |job: usize| WorkerPartial {
            agg: PartialAggregation::with_mode(queries[job].clone(), mode),
            stats: ExecStats::new(),
            scanned: false,
        };
        self.pool.run(n_items, move |worker, item| {
            let job = job_offsets.partition_point(|&off| off <= item) - 1;
            let plan = &plans[job];
            if let Some(morsel) = plan.morsels.get(item - job_offsets[job]) {
                if cancel.is_expired() {
                    return;
                }
                let probe_start = round_probes.start();
                let mut slot = partials[job][worker].lock();
                let partial = slot.get_or_insert_with(|| fresh(job));
                partial.scanned = true;
                let before = (
                    partial.stats.accumulator_updates,
                    partial.stats.fixed_lane_updates,
                );
                partial
                    .agg
                    .update(table, morsel.clone(), &mut partial.stats);
                round_probes.record(
                    worker,
                    probe_start,
                    partial.stats.accumulator_updates - before.0,
                    partial.stats.fixed_lane_updates - before.1,
                );
            }
            // The job's last item folds it: the lowest worker that scanned
            // for the job takes the others' partials in. (Accumulator merges
            // are exact, so any order yields the same bits.) Workers that
            // claimed nothing for the job this call are left alone. Each
            // decrement releases its worker's partial; the last one acquires
            // them all.
            if pending[job].fetch_sub(1, Ordering::AcqRel) != 1 || cancel.is_expired() {
                return;
            }
            let mut stats = ExecStats::new();
            stats.queries_issued = 1;
            stats.partitions_scanned = plan.partitions_scanned;
            stats.partitions_pruned = plan.partitions_pruned;
            let mut slots: Vec<_> = partials[job].iter().map(|slot| slot.lock()).collect();
            let mut scanned = slots.iter_mut().filter_map(|slot| {
                let part = slot.as_mut()?;
                std::mem::take(&mut part.scanned).then_some(part)
            });
            let result = match scanned.next() {
                Some(first) => {
                    stats.merge(&std::mem::take(&mut first.stats));
                    for part in scanned {
                        stats.merge(&std::mem::take(&mut part.stats));
                        first.agg.merge(&mut part.agg);
                    }
                    // The partials outlive the call: what they report is the
                    // groups this range reached, not the ones they hold.
                    stats.groups_max = first.agg.touched_groups() as u64;
                    let result = consume(job, &mut first.agg);
                    first.agg.drain(|_, _, _| {});
                    result
                }
                // Empty range, or every partition pruned: an untouched
                // plan drains to the empty result — exactly what a serial
                // scan of rows that never create a group entry produces.
                None => {
                    drop(scanned);
                    consume(job, &mut slots[0].get_or_insert_with(|| fresh(job)).agg)
                }
            };
            drop(slots);
            *out[job].lock() = Some((result, stats));
        });
        probes.emit(&self.trace, "morsels");
        if cancel.is_expired() {
            self.queries = Arc::new([]);
            self.partials = Arc::default();
            return None;
        }
        Some(
            results
                .iter()
                .map(|slot| slot.lock().take().expect("a live scan folds every job"))
                .collect(),
        )
    }
}

/// Executes every query in `queries` over rows `range` of `table`,
/// morsel-parallel across `pool`, returning one `(result, stats)` pair per
/// query in input order — a one-call [`ScanSession`] whose folded partials
/// become the results. The scan's physical shape — execution mode and
/// morsel size — comes in as a [`ScanShape`], the engine-facing slice of
/// the planner's physical plan. Results are bit-identical to running each
/// query serially over the same range without partitioning, regardless of
/// pool size, morsel size, or the table's partition size.
///
/// `cancel` is the cooperative deadline (see [`ScanSession::scan`]); a scan
/// it cuts short returns every query's empty result.
pub fn execute_morsels<'env>(
    pool: &Pool<'env>,
    table: &'env dyn Table,
    queries: &[CombinedQuery],
    range: Range<usize>,
    shape: ScanShape,
    cancel: &CancelToken,
) -> Vec<(GroupedResult, ExecStats)> {
    ScanSession::new(pool, table, shape, cancel, &TraceCtx::disabled())
        .scan(queries, range, |_, partial| partial.drain_result())
        .unwrap_or_else(|| {
            queries
                .iter()
                .map(|q| {
                    let mut stats = ExecStats::new();
                    stats.queries_issued = 1;
                    let empty = PartialAggregation::with_mode(q.clone(), shape.mode);
                    (empty.finalize(), stats)
                })
                .collect()
        })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

    use super::*;
    use crate::agg::AggFunc;
    use crate::expr::{CmpOp, Predicate};
    use crate::parallel::with_pool;
    use crate::spec::{AggSpec, SplitSpec};
    use crate::ExecMode;
    use seedb_storage::{BoxedTable, ColumnDef, ColumnId, StoreKind, TableBuilder, Value};

    fn table(rows: usize) -> BoxedTable {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("d"),
            ColumnDef::dim("e"),
            ColumnDef::measure("m"),
        ]);
        for i in 0..rows {
            b.push_row(&[
                Value::str(format!("d{}", i % 7)),
                Value::str(format!("e{}", i % 3)),
                Value::Float((i as f64) * 0.37 - 11.0),
            ])
            .unwrap();
        }
        b.build(StoreKind::Column).unwrap()
    }

    fn queries(t: &dyn Table) -> Vec<CombinedQuery> {
        let split = SplitSpec::TargetVsAll(Predicate::col_eq_str(t, "e", "e0"));
        vec![
            CombinedQuery::single(
                ColumnId(0),
                AggSpec::new(AggFunc::Avg, ColumnId(2)),
                split.clone(),
            ),
            CombinedQuery {
                group_by: vec![ColumnId(0), ColumnId(1)],
                aggregates: vec![
                    AggSpec::new(AggFunc::Sum, ColumnId(2)),
                    AggSpec::new(AggFunc::Count, ColumnId(2)),
                ],
                filter: None,
                split,
            },
        ]
    }

    #[test]
    fn morsel_execution_matches_serial_bitwise() {
        let t = table(501);
        let qs = queries(t.as_ref());
        let serial: Vec<GroupedResult> = qs
            .iter()
            .map(|q| {
                crate::execute_combined_with_mode(
                    t.as_ref(),
                    q,
                    ExecMode::Vectorized,
                    &mut ExecStats::new(),
                )
            })
            .collect();
        for threads in [1usize, 2, 8] {
            for morsel in [1usize, 7, 64, usize::MAX] {
                let got = with_pool(threads, |pool| {
                    execute_morsels(
                        pool,
                        t.as_ref(),
                        &qs,
                        0..t.num_rows(),
                        ScanShape::new(ExecMode::Vectorized, morsel),
                        &CancelToken::none(),
                    )
                });
                assert_eq!(got.len(), serial.len());
                for ((result, stats), want) in got.iter().zip(&serial) {
                    assert_eq!(stats.queries_issued, 1);
                    assert_eq!(stats.rows_scanned, t.num_rows() as u64);
                    assert_eq!(result.num_groups(), want.num_groups());
                    for (a, b) in result.groups.iter().zip(&want.groups) {
                        assert_eq!(a.key, b.key, "threads {threads} morsel {morsel}");
                        assert_eq!(a.target, b.target, "threads {threads} morsel {morsel}");
                        assert_eq!(a.reference, b.reference);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_range_yields_empty_results() {
        let t = table(10);
        let qs = queries(t.as_ref());
        let got = with_pool(4, |pool| {
            execute_morsels(
                pool,
                t.as_ref(),
                &qs,
                5..5,
                ScanShape::new(ExecMode::Vectorized, 2),
                &CancelToken::none(),
            )
        });
        assert_eq!(got.len(), 2);
        for (result, stats) in &got {
            assert_eq!(result.num_groups(), 0);
            assert_eq!(stats.rows_scanned, 0);
            assert_eq!(stats.queries_issued, 1);
        }
    }

    #[test]
    fn no_queries_is_fine() {
        let t = table(10);
        let got = with_pool(2, |pool| {
            execute_morsels(
                pool,
                t.as_ref(),
                &[],
                0..10,
                ScanShape::new(ExecMode::Vectorized, 4),
                &CancelToken::none(),
            )
        });
        assert!(got.is_empty());
    }

    #[test]
    fn scalar_mode_morsels_agree_with_vectorized() {
        let t = table(333);
        let qs = queries(t.as_ref());
        let a = with_pool(4, |pool| {
            execute_morsels(
                pool,
                t.as_ref(),
                &qs,
                0..333,
                ScanShape::new(ExecMode::Scalar, 50),
                &CancelToken::none(),
            )
        });
        let b = with_pool(3, |pool| {
            execute_morsels(
                pool,
                t.as_ref(),
                &qs,
                0..333,
                ScanShape::new(ExecMode::Vectorized, 128),
                &CancelToken::none(),
            )
        });
        for ((ra, _), (rb, _)) in a.iter().zip(&b) {
            for (ga, gb) in ra.groups.iter().zip(&rb.groups) {
                assert_eq!(ga.key, gb.key);
                assert_eq!(ga.target, gb.target);
                assert_eq!(ga.reference, gb.reference);
            }
        }
    }

    /// Partitioned table + selective predicate: pruned parallel execution
    /// must stay bit-identical to the serial unpartitioned scan while
    /// actually skipping partitions.
    #[test]
    fn pruning_skips_partitions_and_stays_bitwise_identical() {
        // Sorted measure so zone intervals are disjoint across partitions.
        let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")])
            .with_partition_rows(64);
        for i in 0..500 {
            b.push_row(&[Value::str(format!("d{}", i % 5)), Value::Float(i as f64)])
                .unwrap();
        }
        let t = b.build(StoreKind::Column).unwrap();
        // Unpartitioned twin = serial oracle substrate.
        let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")]);
        for i in 0..500 {
            b.push_row(&[Value::str(format!("d{}", i % 5)), Value::Float(i as f64)])
                .unwrap();
        }
        let flat = b.build(StoreKind::Column).unwrap();

        let pred = Predicate::NumCmp {
            col: ColumnId(1),
            op: CmpOp::Lt,
            value: 100.0,
        };
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Avg, ColumnId(1)),
            SplitSpec::TargetOnly(pred),
        );
        let want = crate::execute_combined_with_mode(
            flat.as_ref(),
            &q,
            ExecMode::Scalar,
            &mut ExecStats::new(),
        );
        for threads in [1usize, 4] {
            for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
                let got = with_pool(threads, |pool| {
                    execute_morsels(
                        pool,
                        t.as_ref(),
                        std::slice::from_ref(&q),
                        0..t.num_rows(),
                        ScanShape::new(mode, 64),
                        &CancelToken::none(),
                    )
                });
                let (result, stats) = &got[0];
                // 500 rows at 64/partition = 8 partitions; rows < 100 live
                // in the first two (0..64, 64..128).
                assert_eq!(stats.partitions_scanned, 2);
                assert_eq!(stats.partitions_pruned, 6);
                assert_eq!(stats.rows_scanned, 128);
                assert_eq!(result.num_groups(), want.num_groups());
                for (a, b) in result.groups.iter().zip(&want.groups) {
                    assert_eq!(a.key, b.key);
                    assert_eq!(a.target, b.target);
                    assert_eq!(a.reference, b.reference);
                }
            }
        }
    }

    /// An already-expired token means no morsel is aggregated: workers
    /// see the expiry before their first claim, so nothing is scanned and
    /// the call returns immediately instead of running the full scan.
    #[test]
    fn expired_token_skips_all_morsels() {
        let t = table(501);
        let qs = queries(t.as_ref());
        let expired = CancelToken::after(std::time::Duration::ZERO);
        for threads in [1usize, 4] {
            let got = with_pool(threads, |pool| {
                execute_morsels(
                    pool,
                    t.as_ref(),
                    &qs,
                    0..t.num_rows(),
                    ScanShape::new(ExecMode::Vectorized, 16),
                    &expired,
                )
            });
            assert_eq!(got.len(), qs.len());
            for (result, stats) in &got {
                assert_eq!(result.num_groups(), 0, "threads {threads}");
                assert_eq!(stats.rows_scanned, 0, "threads {threads}");
            }
        }
    }

    /// A session whose deadline passes between two scans: the first drains
    /// normally, the second is cut short — `None`, and every partial the
    /// session held is gone with it.
    #[test]
    fn a_scan_cut_short_returns_none_and_keeps_no_partial() {
        let t = table(501);
        let qs = queries(t.as_ref());
        let shape = ScanShape::new(ExecMode::Vectorized, 64);
        for threads in [1usize, 4] {
            with_pool(threads, |pool| {
                let deadline = std::time::Instant::now() + std::time::Duration::from_millis(250);
                let cancel = CancelToken::with_deadline(deadline);
                let mut session =
                    ScanSession::new(pool, t.as_ref(), shape, &cancel, &TraceCtx::disabled());
                let first = session
                    .scan(&qs, 0..250, |_, partial| partial.drain_result())
                    .expect("a quarter second is plenty for 250 rows");
                assert!(first.iter().all(|(result, _)| result.num_groups() > 0));
                assert_eq!(session.partials.len(), qs.len());

                std::thread::sleep(deadline.saturating_duration_since(std::time::Instant::now()));
                let cut = session.scan(&qs, 250..501, |_, partial| partial.drain_result());
                assert!(cut.is_none(), "threads {threads}");
                assert!(session.partials.is_empty() && session.queries.is_empty());
            });
        }
    }

    /// Every job is consumed exactly once a scan — by the worker that
    /// completes its last morsel, or by its one fold-only item when no
    /// morsel survived — and the results are the serial engine's, bit for
    /// bit. An expired token consumes nothing.
    #[test]
    fn each_job_is_consumed_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let t = table(501);
        let mut qs = queries(t.as_ref());
        // No partition holds an `m` above 1e9: zero morsels survive.
        qs.push(CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Count, ColumnId(2)),
            SplitSpec::TargetOnly(Predicate::NumCmp {
                col: ColumnId(2),
                op: CmpOp::Gt,
                value: 1e9,
            }),
        ));
        let serial = |range: Range<usize>| -> Vec<GroupedResult> {
            qs.iter()
                .map(|q| {
                    if range.is_empty() {
                        return PartialAggregation::with_mode(q.clone(), ExecMode::Scalar)
                            .finalize();
                    }
                    crate::execute_combined_with_mode(
                        t.as_ref(),
                        q,
                        ExecMode::Vectorized,
                        &mut ExecStats::new(),
                    )
                })
                .collect()
        };
        let counts: Vec<AtomicUsize> = qs.iter().map(|_| AtomicUsize::new(0)).collect();
        let counts = &counts;
        let take =
            || -> Vec<usize> { counts.iter().map(|c| c.swap(0, Ordering::SeqCst)).collect() };
        for threads in [1usize, 2, 4] {
            for morsel in [1usize, 7, t.num_rows()] {
                for range in [0..t.num_rows(), 5..5] {
                    let label = format!("threads {threads} morsel {morsel} range {range:?}");
                    let got = with_pool(threads, |pool| {
                        let shape = ScanShape::new(ExecMode::Vectorized, morsel);
                        let cancel = CancelToken::none();
                        ScanSession::new(pool, t.as_ref(), shape, &cancel, &TraceCtx::disabled())
                            .scan(&qs, range.clone(), move |job, partial| {
                                counts[job].fetch_add(1, Ordering::SeqCst);
                                partial.drain_result()
                            })
                    })
                    .expect("no deadline");
                    assert_eq!(take(), vec![1; qs.len()], "{label}");
                    let pruned = &got[2].1;
                    assert_eq!(pruned.partitions_scanned, 0, "{label}");
                    assert_eq!(pruned.partitions_pruned > 0, !range.is_empty(), "{label}");
                    let results: Vec<GroupedResult> = got.into_iter().map(|(r, _)| r).collect();
                    assert_eq!(results, serial(range), "{label}");
                }
            }
            let expired = CancelToken::after(std::time::Duration::ZERO);
            let cut = with_pool(threads, |pool| {
                let shape = ScanShape::new(ExecMode::Vectorized, 7);
                ScanSession::new(pool, t.as_ref(), shape, &expired, &TraceCtx::disabled()).scan(
                    &qs,
                    0..t.num_rows(),
                    move |job, partial| {
                        counts[job].fetch_add(1, Ordering::SeqCst);
                        partial.drain_result()
                    },
                )
            });
            assert!(cut.is_none(), "threads {threads}");
            assert_eq!(take(), vec![0; qs.len()], "threads {threads}");
        }
    }

    /// A query whose contribution predicate prunes everything still returns
    /// a well-formed empty result.
    #[test]
    fn fully_pruned_job_finalizes_empty() {
        let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")])
            .with_partition_rows(8);
        for i in 0..32 {
            b.push_row(&[Value::str("x"), Value::Float(i as f64)])
                .unwrap();
        }
        let t = b.build(StoreKind::Row).unwrap();
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Count, ColumnId(1)),
            SplitSpec::TargetOnly(Predicate::NumCmp {
                col: ColumnId(1),
                op: CmpOp::Gt,
                value: 1000.0,
            }),
        );
        let got = with_pool(2, |pool| {
            execute_morsels(
                pool,
                t.as_ref(),
                std::slice::from_ref(&q),
                0..t.num_rows(),
                ScanShape::new(ExecMode::Vectorized, 4),
                &CancelToken::none(),
            )
        });
        let (result, stats) = &got[0];
        assert_eq!(result.num_groups(), 0);
        assert_eq!(stats.rows_scanned, 0);
        assert_eq!(stats.partitions_pruned, 4);
        assert_eq!(stats.partitions_scanned, 0);
        assert_eq!(stats.queries_issued, 1);
    }
}
