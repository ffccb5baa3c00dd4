//! The public SeeDB facade: table in, ranked visualizations out.
//!
//! A [`SeeDb`] holds its run context — trace, deadline, cross-request cache
//! — beside the table and configuration, and [`SeeDb::recommend`] is the
//! one way to run it: every strategy goes through the executor's one
//! phased loop, with or without a cache.

use crate::cache::{CacheUse, CachedPartial, ViewCache};
use crate::config::SeeDbConfig;
use crate::error::CoreError;
use crate::executor::{ExecutionReport, Executor};
use crate::plan::{phase_count, PhysicalPlan};
use crate::reference::ReferenceSpec;
use crate::signature::{predicate_signature, reference_signature};
use crate::state::ViewState;
use crate::view::{enumerate_views, ViewSpec};
use seedb_engine::{CancelToken, ExecStats, Predicate, TraceCtx};
use seedb_storage::{BoxedTable, Cell, Table};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recommended visualization: the view, its utility, and the aligned
/// target/reference distributions ready to render as a bar chart.
#[derive(Debug, Clone)]
pub struct RankedView {
    /// The aggregate view `(a, m, f)`.
    pub spec: ViewSpec,
    /// Deviation-based utility under the configured metric.
    pub utility: f64,
    /// Human-readable group labels (x-axis), in distribution order.
    pub group_labels: Vec<String>,
    /// Normalized target distribution `P[V(D_Q)]`.
    pub target_distribution: Vec<f64>,
    /// Normalized reference distribution `P[V(D_R)]`.
    pub reference_distribution: Vec<f64>,
    /// Raw (unnormalized) target aggregate values.
    pub target_values: Vec<f64>,
    /// Raw (unnormalized) reference aggregate values.
    pub reference_values: Vec<f64>,
}

/// The result of a recommendation run.
#[derive(Debug)]
pub struct Recommendation {
    /// Top-k views, highest utility first.
    pub views: Vec<RankedView>,
    /// Final utility of every enumerated view (id-indexed). For pruned
    /// views this is the estimate at pruning time.
    pub all_utilities: Vec<f64>,
    /// Engine work counters.
    pub stats: ExecStats,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Phases executed.
    pub phases_executed: usize,
    /// Whether the run stopped early (`COMB_EARLY`).
    pub early_stopped: bool,
    /// How the run used the attached cache (all zero without one).
    pub cache: CacheUse,
}

/// The SeeDB recommendation engine over one table.
pub struct SeeDb {
    table: BoxedTable,
    config: SeeDbConfig,
    trace: TraceCtx,
    cancel: CancelToken,
    cache: Option<Arc<dyn ViewCache>>,
}

impl SeeDb {
    /// Creates an engine with the default configuration (§5's COMB setup:
    /// EMD, k=10, CI pruning, 10 phases, all sharing optimizations).
    pub fn new(table: BoxedTable) -> Self {
        Self::with_config(table, SeeDbConfig::default())
    }

    /// Creates an engine with an explicit configuration: tracing off, no
    /// deadline, no cache.
    pub fn with_config(table: BoxedTable, config: SeeDbConfig) -> Self {
        SeeDb {
            table,
            config,
            trace: TraceCtx::disabled(),
            cancel: CancelToken::none(),
            cache: None,
        }
    }

    /// Attaches a trace context to every subsequent run: each executed
    /// phase records a `phase` span and the engine emits per-worker
    /// morsel spans into it. The default (disabled) context records
    /// nothing and costs nothing; tracing never changes results — runs
    /// stay bit-identical with it on or off.
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.trace = trace;
        self
    }

    /// Runs under a cooperative deadline: when `cancel` expires mid-run the
    /// executor stops at the next phase/morsel boundary and
    /// [`SeeDb::recommend`] returns [`CoreError::DeadlineExceeded`] — never
    /// a partial result dressed up as a finished one, and nothing reaches
    /// the cache.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Reuses per-view aggregates across runs through `cache` (see
    /// [`crate::cache`]).
    ///
    /// Each view is probed under one key: its canonical signature (target
    /// predicate × reference × view identity — deliberately *excluding*
    /// `k` and the metric, which don't change aggregates) plus the run's
    /// phase count. A cached entry holds the view's groups of each phase
    /// over the prefix it accumulated before being pruned (or all phases,
    /// if it survived): covered phases are **replayed** without scanning
    /// and a view that outlives its prefix **resumes** scanning at
    /// `phases_done` instead of row 0. Deltas carry no pruning decisions,
    /// so entries are reusable across runs differing in `k`, `delta`, or
    /// pruning scheme. A view whose run covered more phases than its entry
    /// had is stored back.
    ///
    /// The recommendation is **bit-identical** to a run without the cache:
    /// accumulator merges are exact, each view's aggregates are
    /// independent of which other views execute alongside it, and
    /// replayed cumulative states reproduce every utility estimate — and
    /// therefore every pruning decision — bit for bit. (Seeding a pruned
    /// run from a bare full-table aggregate would *break* that guarantee:
    /// without the per-phase structure the pruner would see a zero-width
    /// interval from phase 1. Hence the phase count in the key: strategies
    /// partitioned differently never read each other's entries.)
    pub fn with_cache(mut self, cache: Arc<dyn ViewCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &SeeDbConfig {
        &self.config
    }

    /// The underlying table.
    pub fn table(&self) -> &dyn Table {
        self.table.as_ref()
    }

    /// Every view the generator enumerates for this table (before pruning).
    pub fn views(&self) -> Vec<ViewSpec> {
        enumerate_views(self.table.as_ref(), &self.config.agg_functions)
    }

    /// The physical plan [`SeeDb::recommend`] would execute under —
    /// EXPLAIN without running the query.
    pub fn plan(&self, target: &Predicate, reference: &ReferenceSpec) -> PhysicalPlan {
        PhysicalPlan::derive(
            self.table.as_ref(),
            &self.config,
            &self.views(),
            target,
            reference,
        )
    }

    /// Recommends the top-k views for target selection `target` against the
    /// given reference, reading and filling the attached cache (if any)
    /// and stopping at the attached deadline (if any).
    pub fn recommend(
        &self,
        target: &Predicate,
        reference: &ReferenceSpec,
    ) -> Result<Recommendation, CoreError> {
        self.check_runnable()?;
        let views = self.views();
        let cached = (self.cache.as_deref()).map(|c| (c, ViewKeys::new(self, target, reference)));
        let seeds: Vec<Option<Arc<CachedPartial>>> = match &cached {
            Some((cache, keys)) => views.iter().map(|v| keys.get(*cache, v)).collect(),
            None => Vec::new(),
        };

        let executor = Executor {
            cancel: self.cancel,
            trace: self.trace.clone(),
            ..Executor::new(self.table.as_ref(), &self.config)
        };
        let mut report = executor.run(&views, target, reference, &seeds);
        // A cancelled run deposits nothing: its states are partial scans,
        // and its captured deltas stop at an arbitrary phase that later
        // requests would replay as if it were the real prefix.
        if report.deadline_exceeded {
            return Err(CoreError::DeadlineExceeded);
        }

        let mut usage = CacheUse::default();
        if let Some((cache, keys)) = &cached {
            for (i, view) in views.iter().enumerate() {
                match (&seeds[i], report.scanned_phases[i]) {
                    (Some(_), 0) => usage.hits += 1,
                    (Some(_), _) => usage.resumed += 1,
                    (None, _) => usage.misses += 1,
                }
                // Deposit: never shrink an existing prefix — a run that
                // pruned this view earlier than the cached run did has
                // nothing new to contribute.
                let prev = seeds[i].as_ref().map_or(0, |p| p.phases_done());
                if let Some(deltas) = report.deltas.get_mut(i).filter(|d| d.len() > prev) {
                    let partial = CachedPartial::prefix(std::mem::take(deltas), keys.total);
                    cache.put(&keys.key(view), Arc::new(partial));
                }
            }
        }
        Ok(self.build_recommendation(report, usage))
    }

    /// Best-effort degraded answer assembled *purely from the attached
    /// cache* — no scanning, no waiting. Probes the same per-view keys
    /// [`SeeDb::recommend`] deposits under, merges whatever deltas exist,
    /// and ranks the result. Views with no cached data stay empty (utility 0,
    /// ranked last); returns `None` when *no* view has any data, or no
    /// cache is attached.
    ///
    /// This is the serving layer's cached-partial rung on the degradation
    /// ladder: a deadline-expired request can answer with a clearly-tagged
    /// stale/partial recommendation instead of a bare timeout. The second
    /// tuple element is coverage — the fraction of `(view, phase)` slots a
    /// cached delta answered, 1.0 meaning every view replayed fully.
    pub fn degraded_from_cache(
        &self,
        target: &Predicate,
        reference: &ReferenceSpec,
    ) -> Option<(Recommendation, f64)> {
        let cache = self.cache.as_deref()?;
        self.check_runnable().ok()?;
        let start = Instant::now();
        let views = self.views();
        let keys = ViewKeys::new(self, target, reference);
        let total = keys.total;
        let mut states: Vec<ViewState> = views.iter().map(|v| ViewState::new(*v)).collect();
        let mut covered_slots = 0usize;
        let mut covered_views = 0usize;
        for (i, v) in views.iter().enumerate() {
            let Some(partial) = keys.get(cache, v) else {
                continue;
            };
            for delta in &partial.deltas {
                states[i].merge_groups(delta);
            }
            covered_views += 1;
            covered_slots += partial.phases_done().min(total);
        }
        if covered_views == 0 {
            return None;
        }
        let report = ExecutionReport {
            states,
            stats: ExecStats::new(),
            elapsed: start.elapsed(),
            phases_executed: 0,
            early_stopped: false,
            deadline_exceeded: false,
            total_phases: total,
            scanned_phases: Vec::new(),
            deltas: Vec::new(),
        };
        let coverage = covered_slots as f64 / (total.max(1) * views.len()) as f64;
        Some((
            self.build_recommendation(report, CacheUse::default()),
            coverage,
        ))
    }

    /// Shared validation for every recommendation entry point.
    fn check_runnable(&self) -> Result<(), CoreError> {
        self.config.validate()?;
        if self.table.schema().dimensions().is_empty() {
            return Err(CoreError::NoDimensions);
        }
        if self.table.schema().measures().is_empty() {
            return Err(CoreError::NoMeasures);
        }
        Ok(())
    }

    /// Ranks an execution report and materializes the public result.
    fn build_recommendation(&self, report: ExecutionReport, cache: CacheUse) -> Recommendation {
        let metric = self.config.metric;
        let all_utilities: Vec<f64> = report.states.iter().map(|s| s.utility(metric)).collect();
        let top_ids = report.top_k(self.config.k, metric);

        let ranked = top_ids
            .iter()
            .map(|&id| {
                let state = &report.states[id];
                let (t_raw, r_raw) = state.value_vectors();
                let labels = state
                    .group_keys()
                    .iter()
                    .map(|key| self.label_for(state.spec, key.code(0)))
                    .collect();
                RankedView {
                    spec: state.spec,
                    utility: all_utilities[id],
                    group_labels: labels,
                    target_distribution: seedb_metrics::normalize(&t_raw),
                    reference_distribution: seedb_metrics::normalize(&r_raw),
                    target_values: t_raw,
                    reference_values: r_raw,
                }
            })
            .collect();

        Recommendation {
            views: ranked,
            all_utilities,
            stats: report.stats,
            elapsed: report.elapsed,
            phases_executed: report.phases_executed,
            early_stopped: report.early_stopped,
            cache,
        }
    }

    /// Resolves a group code of a view's dimension back to a display label.
    fn label_for(&self, spec: ViewSpec, code: u64) -> String {
        if code == u64::MAX {
            return "NULL".to_owned();
        }
        let cell = match self.table.schema().column(spec.dim).ty {
            seedb_storage::ColumnType::Categorical => Cell::Cat(code as u32),
            seedb_storage::ColumnType::Int64 => Cell::Int(code as i64),
            seedb_storage::ColumnType::Bool => Cell::Bool(code != 0),
            seedb_storage::ColumnType::Float64 => Cell::Float(f64::from_bits(code)),
        };
        self.table.cell_label(spec.dim, cell)
    }
}

/// The cache keys of one query's views: `{predicate}|{reference}|{view}|ph{N}`,
/// `N` the run's phase count.
struct ViewKeys {
    query: String,
    total: usize,
}

impl ViewKeys {
    fn new(seedb: &SeeDb, target: &Predicate, reference: &ReferenceSpec) -> Self {
        ViewKeys {
            query: format!(
                "{}|{}",
                predicate_signature(target),
                reference_signature(reference)
            ),
            total: phase_count(seedb.table.as_ref(), &seedb.config),
        }
    }

    fn key(&self, view: &ViewSpec) -> String {
        format!("{}|{}|ph{}", self.query, view.signature(), self.total)
    }

    /// `view`'s entry, when it is replayable at this partition's
    /// granularity.
    fn get(&self, cache: &dyn ViewCache, view: &ViewSpec) -> Option<Arc<CachedPartial>> {
        cache
            .get(&self.key(view))
            .filter(|p| p.total_phases == self.total && !p.deltas.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MemoryViewCache;
    use crate::config::{ExecutionStrategy, PruningKind};
    use seedb_storage::{ColumnDef, StoreKind, TableBuilder, Value};

    /// A run of `seedb`'s configuration with `cache` attached: the
    /// recommendation and how it used the cache.
    fn recommend_cached(
        seedb: &SeeDb,
        target: &Predicate,
        reference: &ReferenceSpec,
        cache: &Arc<MemoryViewCache>,
    ) -> Result<(Recommendation, CacheUse), CoreError> {
        let rec = SeeDb::with_config(seedb.table.clone(), seedb.config.clone())
            .with_cache(cache.clone())
            .recommend(target, reference)?;
        let usage = rec.cache;
        Ok((rec, usage))
    }

    /// The paper's Figure 1 scenario in miniature: capital gain deviates by
    /// sex between unmarried and married adults; age does not.
    fn census() -> BoxedTable {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("sex"),
            ColumnDef::dim("marital"),
            ColumnDef::measure("capital_gain"),
            ColumnDef::measure("age"),
        ]);
        for i in 0..200u32 {
            let sex = if i % 2 == 0 { "F" } else { "M" };
            let married = i % 4 < 2;
            let marital = if married { "married" } else { "unmarried" };
            // Married: male gain double female gain. Unmarried: equal.
            let gain = match (married, sex) {
                (true, "F") => 300.0,
                (true, _) => 650.0,
                (false, "F") => 510.0,
                (false, _) => 490.0,
            };
            let age = 40.0 + (i % 3) as f64;
            b.push_row(&[
                Value::str(sex),
                Value::str(marital),
                Value::Float(gain),
                Value::Float(age),
            ])
            .unwrap();
        }
        b.build(StoreKind::Column).unwrap()
    }

    #[test]
    fn recommends_capital_gain_over_age() {
        let table = census();
        let target = Predicate::col_eq_str(table.as_ref(), "marital", "unmarried");
        let seedb = SeeDb::new(table);
        let rec = seedb
            .recommend(&target, &ReferenceSpec::Complement)
            .unwrap();
        assert!(!rec.views.is_empty());
        // The top view must aggregate capital_gain, not age, by sex.
        let top = &rec.views[0];
        let desc = top.spec.describe(seedb.table());
        assert!(desc.contains("capital_gain"), "top view was {desc}");
        assert!(top.utility > 0.05);
        // Age-by-sex should score near zero.
        let age_by_sex = rec
            .views
            .iter()
            .find(|v| v.spec.describe(seedb.table()) == "AVG(age) BY sex");
        if let Some(v) = age_by_sex {
            assert!(v.utility < top.utility);
        }
    }

    #[test]
    fn distributions_are_normalized_and_labeled() {
        let table = census();
        let target = Predicate::col_eq_str(table.as_ref(), "marital", "unmarried");
        let seedb = SeeDb::new(table);
        let rec = seedb
            .recommend(&target, &ReferenceSpec::WholeTable)
            .unwrap();
        for v in &rec.views {
            let ts: f64 = v.target_distribution.iter().sum();
            let rs: f64 = v.reference_distribution.iter().sum();
            assert!((ts - 1.0).abs() < 1e-9);
            assert!((rs - 1.0).abs() < 1e-9);
            assert_eq!(v.group_labels.len(), v.target_distribution.len());
            assert_eq!(v.target_values.len(), v.target_distribution.len());
        }
        // Labels decode through the dictionary: a view grouped by sex must
        // carry "F"/"M" labels. (The top view groups by marital — the
        // selection attribute shows maximal deviation — so search for one.)
        let by_sex = rec
            .views
            .iter()
            .find(|v| seedb.table().schema().column(v.spec.dim).name == "sex")
            .expect("a by-sex view in the top-k");
        assert!(by_sex.group_labels.contains(&"F".to_owned()));
        assert!(by_sex.group_labels.contains(&"M".to_owned()));
    }

    #[test]
    fn k_limits_returned_views() {
        let table = census();
        let target = Predicate::col_eq_str(table.as_ref(), "marital", "unmarried");
        let mut cfg = SeeDbConfig::default();
        cfg.k = 2;
        let seedb = SeeDb::with_config(table, cfg);
        let rec = seedb
            .recommend(&target, &ReferenceSpec::WholeTable)
            .unwrap();
        assert_eq!(rec.views.len(), 2);
        // Sorted descending by utility.
        assert!(rec.views[0].utility >= rec.views[1].utility);
    }

    #[test]
    fn all_utilities_cover_every_view() {
        let table = census();
        let target = Predicate::col_eq_str(table.as_ref(), "marital", "unmarried");
        let seedb = SeeDb::new(table);
        let rec = seedb
            .recommend(&target, &ReferenceSpec::WholeTable)
            .unwrap();
        assert_eq!(rec.all_utilities.len(), seedb.views().len());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let table = census();
        let mut cfg = SeeDbConfig::default();
        cfg.k = 0;
        let seedb = SeeDb::with_config(table, cfg);
        let err = seedb
            .recommend(&Predicate::True, &ReferenceSpec::WholeTable)
            .unwrap_err();
        assert_eq!(err, CoreError::ZeroK);
    }

    #[test]
    fn empty_target_selection_is_benign() {
        let table = census();
        let seedb = SeeDb::new(table);
        let rec = seedb
            .recommend(&Predicate::False, &ReferenceSpec::WholeTable)
            .unwrap();
        // All utilities ~0 (empty target normalizes to uniform vs uniform
        // after zero-sum handling) — no panics, k views returned.
        assert!(!rec.views.is_empty());
    }

    #[test]
    fn strategies_produce_consistent_top_view() {
        let table = census();
        let target = Predicate::col_eq_str(table.as_ref(), "marital", "unmarried");
        let mut tops = Vec::new();
        for strategy in ExecutionStrategy::ALL {
            let mut cfg = SeeDbConfig::for_strategy(strategy);
            cfg.k = 3;
            cfg.pruning = PruningKind::Ci;
            let seedb = SeeDb::with_config(table.clone(), cfg);
            let rec = seedb
                .recommend(&target, &ReferenceSpec::Complement)
                .unwrap();
            tops.push(rec.views[0].spec.id);
        }
        assert!(
            tops.windows(2).all(|w| w[0] == w[1]),
            "strategies disagree on the top view: {tops:?}"
        );
    }

    /// Bit-level equality of the response-visible parts of two
    /// recommendations.
    fn assert_same_recommendation(a: &Recommendation, b: &Recommendation) {
        assert_eq!(a.views.len(), b.views.len());
        for (x, y) in a.views.iter().zip(&b.views) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.utility.to_bits(), y.utility.to_bits());
            assert_eq!(x.group_labels, y.group_labels);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x.target_distribution), bits(&y.target_distribution));
            assert_eq!(
                bits(&x.reference_distribution),
                bits(&y.reference_distribution)
            );
            assert_eq!(bits(&x.target_values), bits(&y.target_values));
            assert_eq!(bits(&x.reference_values), bits(&y.reference_values));
        }
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.all_utilities), bits(&b.all_utilities));
    }

    #[test]
    fn cached_recommendation_is_bit_identical_to_direct() {
        let table = census();
        let target = Predicate::col_eq_str(table.as_ref(), "marital", "unmarried");
        for strategy in [ExecutionStrategy::NoOpt, ExecutionStrategy::Sharing] {
            let cfg = SeeDbConfig::for_strategy(strategy);
            let seedb = SeeDb::with_config(table.clone(), cfg);
            let direct = seedb
                .recommend(&target, &ReferenceSpec::WholeTable)
                .unwrap();

            let cache = Arc::new(MemoryViewCache::new());
            // Cold: everything misses, gets computed and cached.
            let (cold, use1) =
                recommend_cached(&seedb, &target, &ReferenceSpec::WholeTable, &cache).unwrap();
            assert_eq!(use1.hits, 0);
            assert_eq!(use1.misses, seedb.views().len());
            assert_same_recommendation(&direct, &cold);

            // Warm: everything hits; no rows are scanned.
            let (warm, use2) =
                recommend_cached(&seedb, &target, &ReferenceSpec::WholeTable, &cache).unwrap();
            assert!(use2.fully_cached());
            assert_eq!(warm.stats.rows_scanned, 0);
            assert_eq!(warm.stats.queries_issued, 0);
            assert_same_recommendation(&direct, &warm);
        }
    }

    #[test]
    fn cached_partials_survive_k_and_metric_changes() {
        let table = census();
        let target = Predicate::col_eq_str(table.as_ref(), "marital", "unmarried");
        let cache = Arc::new(MemoryViewCache::new());

        let mut cfg = SeeDbConfig::for_strategy(ExecutionStrategy::Sharing);
        let seedb = SeeDb::with_config(table.clone(), cfg.clone());
        let _ = recommend_cached(&seedb, &target, &ReferenceSpec::WholeTable, &cache).unwrap();

        // A follow-up with different k and metric reuses every partial.
        cfg.k = 1;
        cfg.metric = seedb_metrics::DistanceKind::L1;
        let seedb2 = SeeDb::with_config(table.clone(), cfg.clone());
        let (rec, usage) =
            recommend_cached(&seedb2, &target, &ReferenceSpec::WholeTable, &cache).unwrap();
        assert!(usage.fully_cached(), "{usage:?}");
        assert_same_recommendation(
            &seedb2
                .recommend(&target, &ReferenceSpec::WholeTable)
                .unwrap(),
            &rec,
        );

        // A different target misses.
        let other = Predicate::col_eq_str(table.as_ref(), "marital", "married");
        let (_, usage) =
            recommend_cached(&seedb2, &other, &ReferenceSpec::WholeTable, &cache).unwrap();
        assert_eq!(usage.hits, 0);
    }

    #[test]
    fn partial_overlap_executes_only_missing_views() {
        let table = census();
        let target = Predicate::col_eq_str(table.as_ref(), "marital", "unmarried");
        let cache = Arc::new(MemoryViewCache::new());
        // Warm the cache with AVG views only.
        let mut cfg = SeeDbConfig::for_strategy(ExecutionStrategy::Sharing);
        cfg.agg_functions = vec![seedb_engine::AggFunc::Avg];
        let seedb = SeeDb::with_config(table.clone(), cfg.clone());
        let _ = recommend_cached(&seedb, &target, &ReferenceSpec::WholeTable, &cache).unwrap();
        let avg_views = seedb.views().len();

        // AVG+SUM overlaps on the AVG half.
        cfg.agg_functions = vec![seedb_engine::AggFunc::Avg, seedb_engine::AggFunc::Sum];
        let seedb2 = SeeDb::with_config(table.clone(), cfg.clone());
        let direct = seedb2
            .recommend(&target, &ReferenceSpec::WholeTable)
            .unwrap();
        let (rec, usage) =
            recommend_cached(&seedb2, &target, &ReferenceSpec::WholeTable, &cache).unwrap();
        assert_eq!(usage.hits, avg_views);
        assert_eq!(usage.misses, seedb2.views().len() - avg_views);
        assert_same_recommendation(&direct, &rec);
    }

    /// Strongly separated 6-view table (3 dims × 2 measures). The target
    /// (`d0 ∈ {g0, g1}`) puts all of its mass on the first half of `d0`'s
    /// domain while the reference spreads evenly, so the `BY d0` views
    /// score EMD ≈ 1.0 and the `d1`/`d2` views ≈ 0 — far enough apart
    /// that CI pruning discards the noise views *before* the final phase
    /// and pruned cache entries include genuine prefixes, not just
    /// full-coverage views.
    fn separated() -> BoxedTable {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("d0"),
            ColumnDef::dim("d1"),
            ColumnDef::dim("d2"),
            ColumnDef::measure("m0"),
            ColumnDef::measure("m1"),
        ]);
        for i in 0..400u32 {
            b.push_row(&[
                Value::str(format!("g{}", i % 4)),
                Value::str(format!("x{}", i % 3)),
                Value::str(format!("y{}", i % 5)),
                Value::Float(50.0),
                Value::Float((i % 11) as f64),
            ])
            .unwrap();
        }
        b.build(StoreKind::Column).unwrap()
    }

    fn separated_target(t: &dyn Table) -> Predicate {
        Predicate::Or(vec![
            Predicate::col_eq_str(t, "d0", "g0"),
            Predicate::col_eq_str(t, "d0", "g1"),
        ])
    }

    #[test]
    fn pruned_config_warm_cache_is_bit_identical_and_scan_free() {
        let table = separated();
        let target = separated_target(table.as_ref());
        for pruning in [PruningKind::Ci, PruningKind::Mab] {
            let mut cfg = SeeDbConfig::default(); // COMB
            cfg.pruning = pruning;
            cfg.k = 2;
            let seedb = SeeDb::with_config(table.clone(), cfg);
            let direct = seedb
                .recommend(&target, &ReferenceSpec::WholeTable)
                .unwrap();

            let cache = Arc::new(MemoryViewCache::new());
            let (cold, use1) =
                recommend_cached(&seedb, &target, &ReferenceSpec::WholeTable, &cache).unwrap();
            assert_eq!(use1.misses, seedb.views().len());
            assert_same_recommendation(&direct, &cold);
            assert!(!cache.is_empty(), "pruned runs must deposit partials");

            // Warm repeat with the identical config: every phase replays,
            // no row is scanned, and the result is still bit-identical.
            let (warm, use2) =
                recommend_cached(&seedb, &target, &ReferenceSpec::WholeTable, &cache).unwrap();
            assert!(use2.fully_cached(), "{use2:?}");
            assert_eq!(warm.stats.rows_scanned, 0);
            assert_eq!(warm.stats.queries_issued, 0);
            assert_same_recommendation(&direct, &warm);
            assert_eq!(warm.phases_executed, direct.phases_executed);
            assert_eq!(warm.early_stopped, direct.early_stopped);
        }
    }

    #[test]
    fn pruned_cache_deposits_prefixes_for_pruned_views() {
        let table = separated();
        let target = separated_target(table.as_ref());
        let mut cfg = SeeDbConfig::default();
        cfg.k = 1; // aggressive: noise views get discarded pre-final-phase
        let seedb = SeeDb::with_config(table.clone(), cfg.clone());
        let cache = Arc::new(MemoryViewCache::new());
        let _ = recommend_cached(&seedb, &target, &ReferenceSpec::WholeTable, &cache).unwrap();

        let keys = ViewKeys::new(&seedb, &target, &ReferenceSpec::WholeTable);
        assert_eq!(keys.total, cfg.num_phases);
        let mut full = 0;
        let mut prefix = 0;
        for v in seedb.views() {
            let entry = cache
                .get(&keys.key(&v))
                .expect("every view deposits an entry");
            assert_eq!(entry.total_phases, keys.total);
            assert!(entry.phases_done() > 0);
            if entry.phases_done() == keys.total {
                full += 1;
            } else {
                prefix += 1;
            }
        }
        assert!(full >= 1, "the surviving view covers every phase");
        assert!(
            prefix >= 1,
            "pruned views must keep their prefix work instead of discarding it"
        );
    }

    #[test]
    fn pruned_cache_resumes_truncated_prefixes_bit_identically() {
        let table = separated();
        let target = separated_target(table.as_ref());
        let cfg = SeeDbConfig::default(); // COMB + CI
        let seedb = SeeDb::with_config(table.clone(), cfg.clone());
        let direct = seedb
            .recommend(&target, &ReferenceSpec::WholeTable)
            .unwrap();

        let cache = Arc::new(MemoryViewCache::new());
        let (cold, _) =
            recommend_cached(&seedb, &target, &ReferenceSpec::WholeTable, &cache).unwrap();
        assert_same_recommendation(&direct, &cold);

        // Truncate every cached entry to its first 4 phases: the warm run
        // must replay those and resume scanning at phase 4, not row 0.
        let keys = ViewKeys::new(&seedb, &target, &ReferenceSpec::WholeTable);
        for v in seedb.views() {
            let key = keys.key(&v);
            let entry = cache.get(&key).expect("deposited by the cold run");
            let cut: Vec<_> = entry.deltas.iter().take(4).cloned().collect();
            cache.put(&key, Arc::new(CachedPartial::prefix(cut, keys.total)));
        }

        let (resumed, usage) =
            recommend_cached(&seedb, &target, &ReferenceSpec::WholeTable, &cache).unwrap();
        assert!(usage.resumed >= 1, "{usage:?}");
        assert_eq!(usage.misses, 0);
        assert_same_recommendation(&direct, &resumed);
        assert!(
            resumed.stats.rows_scanned < cold.stats.rows_scanned,
            "resume must scan strictly less than a cold run: {} vs {}",
            resumed.stats.rows_scanned,
            cold.stats.rows_scanned
        );
        // And the deposits are healed back to full coverage: a second
        // warm run replays everything.
        let (warm, usage) =
            recommend_cached(&seedb, &target, &ReferenceSpec::WholeTable, &cache).unwrap();
        assert!(usage.fully_cached(), "{usage:?}");
        assert_same_recommendation(&direct, &warm);
    }

    #[test]
    fn pruned_cache_is_reusable_across_k_and_pruning_scheme() {
        let table = separated();
        let target = separated_target(table.as_ref());
        let cache = Arc::new(MemoryViewCache::new());

        // Warm the cache with k=1 + CI (prunes hard, leaves prefixes).
        let mut cfg = SeeDbConfig::default();
        cfg.k = 1;
        let seedb = SeeDb::with_config(table.clone(), cfg.clone());
        let _ = recommend_cached(&seedb, &target, &ReferenceSpec::WholeTable, &cache).unwrap();

        // A follow-up with different k and a different pruning scheme
        // reuses the same phase-partition entries: replay what's covered,
        // resume what isn't, and stay bit-identical to an uncached run.
        for (k, pruning) in [(3, PruningKind::Ci), (2, PruningKind::Mab)] {
            let mut cfg2 = SeeDbConfig::default();
            cfg2.k = k;
            cfg2.pruning = pruning;
            let seedb2 = SeeDb::with_config(table.clone(), cfg2);
            let direct = seedb2
                .recommend(&target, &ReferenceSpec::WholeTable)
                .unwrap();
            let (rec, usage) =
                recommend_cached(&seedb2, &target, &ReferenceSpec::WholeTable, &cache).unwrap();
            assert_eq!(usage.misses, 0, "{usage:?}");
            assert_same_recommendation(&direct, &rec);
        }
    }

    #[test]
    fn deposits_carry_the_runs_own_phase_count() {
        // One function gives the executor its partition and the cache its
        // keys: every strategy deposits entries over the phase count its
        // own run executes (one for the unphased strategies, whatever
        // `num_phases` says).
        let table = separated();
        let target = separated_target(table.as_ref());
        for strategy in ExecutionStrategy::ALL {
            let mut cfg = SeeDbConfig::for_strategy(strategy);
            cfg.num_phases = 5;
            let seedb = SeeDb::with_config(table.clone(), cfg.clone());
            let views = seedb.views();
            let report = Executor::new(table.as_ref(), &cfg).run(
                &views,
                &target,
                &ReferenceSpec::WholeTable,
                &[],
            );
            let phased = matches!(
                strategy,
                ExecutionStrategy::Comb | ExecutionStrategy::CombEarly
            );
            let want = if phased { 5 } else { 1 };
            assert_eq!(report.total_phases, want, "{strategy}");

            let cache = Arc::new(MemoryViewCache::new());
            let _ = recommend_cached(&seedb, &target, &ReferenceSpec::WholeTable, &cache).unwrap();
            let keys = ViewKeys::new(&seedb, &target, &ReferenceSpec::WholeTable);
            for v in &views {
                let entry = cache.get(&keys.key(v)).expect("every view deposits");
                assert_eq!(entry.total_phases, report.total_phases, "{strategy}");
            }
            assert_eq!(cache.len(), views.len(), "{strategy}: one entry a view");
        }
    }

    #[test]
    fn pathological_emd_view_exceeding_two_is_handled() {
        // EMD over many bins can exceed 2: all target mass lands in the
        // last group while the complement reference's mass sits in the
        // first, giving EMD = bins − 1. Such a utility violates the
        // Hoeffding–Serfling bound's [0, 1] precondition unless the CI
        // pruner clamps it (see `pruning::ci`); this run must neither
        // misrank nor destabilize pruning.
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("flag"),
            ColumnDef::dim("d"),
            ColumnDef::measure("m"),
            ColumnDef::measure("noise"),
        ]);
        for i in 0..160u32 {
            let group = i % 8;
            b.push_row(&[
                Value::str(if group == 7 { "yes" } else { "no" }),
                Value::str(format!("a{group}")),
                Value::Float(if group == 0 || group == 7 { 100.0 } else { 0.0 }),
                Value::Float((i % 3) as f64),
            ])
            .unwrap();
        }
        let table = b.build(StoreKind::Column).unwrap();
        let target = Predicate::col_eq_str(table.as_ref(), "flag", "yes");
        let mut cfg = SeeDbConfig::default(); // COMB + CI
        cfg.k = 2;
        let seedb = SeeDb::with_config(table, cfg.clone());
        let rec = seedb
            .recommend(&target, &ReferenceSpec::Complement)
            .unwrap();

        let top = &rec.views[0];
        assert!(
            top.utility > 2.0,
            "test premise: a pathological EMD view beyond the rescaling \
             constant (got {})",
            top.utility
        );
        assert!(top.utility.is_finite());
        assert_eq!(
            seedb.table().schema().column(top.spec.dim).name,
            "d",
            "the pathological view must still rank first"
        );
        // The same table under NO_PRU agrees on the winner.
        cfg.pruning = PruningKind::None;
        let seedb2 = SeeDb::with_config(seedb.table.clone(), cfg);
        let exact = seedb2
            .recommend(&target, &ReferenceSpec::Complement)
            .unwrap();
        assert_eq!(exact.views[0].spec, top.spec);
    }

    #[test]
    fn expired_deadline_errors_and_deposits_nothing() {
        let table = separated();
        let target = separated_target(table.as_ref());
        let expired = CancelToken::after(Duration::ZERO);

        // Direct run.
        let seedb = SeeDb::new(table.clone()).with_cancel(expired);
        let err = seedb
            .recommend(&target, &ReferenceSpec::WholeTable)
            .unwrap_err();
        assert_eq!(err, CoreError::DeadlineExceeded);

        // Cached paths: the cache must stay empty across both arms.
        for strategy in [ExecutionStrategy::Sharing, ExecutionStrategy::Comb] {
            let cfg = SeeDbConfig::for_strategy(strategy);
            let cache = Arc::new(MemoryViewCache::new());
            let seedb = SeeDb::with_config(table.clone(), cfg)
                .with_cache(cache.clone())
                .with_cancel(expired);
            let err = seedb
                .recommend(&target, &ReferenceSpec::WholeTable)
                .unwrap_err();
            assert_eq!(err, CoreError::DeadlineExceeded, "{strategy:?}");
            assert!(
                cache.is_empty(),
                "{strategy:?}: a cancelled run must not poison the cache"
            );
        }
    }

    #[test]
    fn generous_deadline_is_bit_identical_to_no_deadline() {
        let table = separated();
        let target = separated_target(table.as_ref());
        let plain = SeeDb::new(table.clone())
            .recommend(&target, &ReferenceSpec::WholeTable)
            .unwrap();
        let generous = SeeDb::new(table)
            .with_cancel(CancelToken::after(Duration::from_secs(3600)))
            .recommend(&target, &ReferenceSpec::WholeTable)
            .unwrap();
        assert_same_recommendation(&plain, &generous);
    }

    #[test]
    fn degraded_from_cache_serves_cached_views_and_reports_coverage() {
        let table = separated();
        let target = separated_target(table.as_ref());
        let cache = Arc::new(MemoryViewCache::new());
        let seedb = SeeDb::new(table.clone()).with_cache(cache.clone()); // COMB + CI default

        // Cold cache: nothing to degrade to.
        assert!(seedb
            .degraded_from_cache(&target, &ReferenceSpec::WholeTable)
            .is_none());

        // Warm the cache, then degrade: full coverage reproduces the
        // direct recommendation's top view without any scan.
        let direct = seedb
            .recommend(&target, &ReferenceSpec::WholeTable)
            .unwrap();
        let (degraded, coverage) = seedb
            .degraded_from_cache(&target, &ReferenceSpec::WholeTable)
            .expect("warm cache must yield a degraded answer");
        assert!(coverage > 0.0 && coverage <= 1.0, "coverage {coverage}");
        assert_eq!(
            degraded.stats.rows_scanned, 0,
            "degraded answers never scan"
        );
        assert_eq!(degraded.views[0].spec, direct.views[0].spec);

        // A different target still has nothing.
        let other = Predicate::col_eq_str(table.as_ref(), "d0", "g3");
        assert!(seedb
            .degraded_from_cache(&other, &ReferenceSpec::WholeTable)
            .is_none());
    }

    #[test]
    fn recommendation_is_deterministic() {
        let table = census();
        let target = Predicate::col_eq_str(table.as_ref(), "marital", "unmarried");
        let seedb = SeeDb::new(table);
        let a = seedb
            .recommend(&target, &ReferenceSpec::WholeTable)
            .unwrap();
        let b = seedb
            .recommend(&target, &ReferenceSpec::WholeTable)
            .unwrap();
        let ids_a: Vec<_> = a.views.iter().map(|v| v.spec.id).collect();
        let ids_b: Vec<_> = b.views.iter().map(|v| v.spec.id).collect();
        assert_eq!(ids_a, ids_b);
        assert_eq!(a.all_utilities, b.all_utilities);
    }
}
