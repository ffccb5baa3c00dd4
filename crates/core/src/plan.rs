//! Cost-based physical planning.
//!
//! A [`PhysicalPlan`] is derived once per run, *before* the worker pool is
//! created, from three inputs:
//!
//! 1. **Table statistics**, read off the table — its row count, each
//!    dimension's distinct count (the §4.1 bin-packing weights) and
//!    dictionary sizes, which `seedb_engine::cost` turns into the
//!    dense-vs-hash group index.
//! 2. **The query's contribution predicate** — the planner asks the zone
//!    maps which partitions can contribute rows
//!    ([`seedb_engine::estimate_scan`]) and sizes parallelism to the
//!    *post-pruning* row volume, not the raw table.
//! 3. **The configuration's knob overrides** — a
//!    [`Knob::Fixed`](crate::config::Knob) pins a shape dimension; `Auto`
//!    defers to the cost model in `seedb_engine::cost`.
//!
//! The invariant the whole suite leans on: a plan changes **how** we
//! execute — worker count, morsel size, group-index layout, cluster
//! packing — never **what** we compute. Every plannable shape is
//! bit-identical to the scalar serial oracle (accumulators merge exactly),
//! so the planner can be wrong about *cost* without ever being wrong about
//! *results*.

use crate::config::{ExecutionStrategy, GroupingPolicy, PruningKind, SeeDbConfig, SharingConfig};
use crate::phase::effective_phases;
use crate::reference::ReferenceSpec;
use crate::view::{ViewId, ViewSpec};
use seedb_engine::{
    binpack, choose_morsel_rows, choose_workers, contribution_predicate, estimate_scan,
    group_index_for, AggSpec, CombinedQuery, ExecMode, GroupIndexKind, Predicate, ScanShape,
};
use seedb_storage::{ColumnId, Table};
use seedb_util::Json;

/// One shared query cluster: the views of a bin `(a₁, …, a_p)` answered by
/// a single combined query `SELECT a₁, …, a_p, f(m₁), …, f(m_q) … GROUP BY
/// a₁, …, a_p` (§4.1). Every **distinct** `(func, measure)` of the member
/// views is aggregated once; each view `(a_i, m_j)` is recovered by rolling
/// the result up to `a_i` and reading aggregate `j`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Cluster {
    pub(crate) group_by: Vec<ColumnId>,
    /// The distinct aggregates of the member views, in first-seen order.
    pub(crate) aggregates: Vec<AggSpec>,
    /// Each member view's place in the query.
    pub(crate) members: Vec<Member>,
}

/// A view's place in a cluster's query: `(view id, index into the query's
/// aggregates, dim position within its group-by)`.
pub type Member = (ViewId, usize, usize);

/// Builds the query clusters answering `live`, applying the
/// combine-aggregates, combine-group-bys and nagg-cap knobs. The one
/// clustering decision: the plan reports it for every view, the executor
/// re-runs it over the views still scanning.
pub(crate) fn build_clusters<'v>(
    table: &dyn Table,
    sharing: &SharingConfig,
    live: impl IntoIterator<Item = &'v ViewSpec>,
) -> Vec<Cluster> {
    let agg_of = |v: &ViewSpec| AggSpec::new(v.func, v.measure);
    if !sharing.combine_aggregates {
        // One cluster per view: the unshared (but possibly parallel and
        // split-combined) shape.
        return live
            .into_iter()
            .map(|v| Cluster {
                group_by: vec![v.dim],
                aggregates: vec![agg_of(v)],
                members: vec![(v.id, 0, 0)],
            })
            .collect();
    }

    // Group views by dimension, preserving first-seen dim order.
    let mut dims: Vec<ColumnId> = Vec::new();
    let mut per_dim: Vec<Vec<&ViewSpec>> = Vec::new();
    for v in live {
        match dims.iter().position(|&d| d == v.dim) {
            Some(i) => per_dim[i].push(v),
            None => {
                dims.push(v.dim);
                per_dim.push(vec![v]);
            }
        }
    }

    // Optionally combine dimensions into shared multi-GB bins (exact
    // distinct-count products under the memory budget).
    let bins: Vec<Vec<ColumnId>> = if sharing.combine_group_bys && dims.len() > 1 {
        match sharing.grouping_policy {
            GroupingPolicy::BinPack => {
                let budget = sharing.effective_budget(table.kind());
                binpack::first_fit(table, &dims, budget).bins
            }
            GroupingPolicy::MaxGb(n) => dims.chunks(n.max(1)).map(|chunk| chunk.to_vec()).collect(),
        }
    } else {
        dims.iter().map(|&d| vec![d]).collect()
    };

    // n_agg caps the SELECT list, i.e. a query's distinct aggregates — not
    // the views reading them: a bin's aggregate list splits into chunks of
    // at most `cap`, and a view joins the chunk holding its aggregate.
    let cap = sharing
        .max_aggregates_per_query
        .unwrap_or(usize::MAX)
        .max(1);
    let mut clusters = Vec::new();
    for bin in &bins {
        let bin_views = |dim: &ColumnId| {
            let dim_idx = dims
                .iter()
                .position(|d| d == dim)
                .expect("bins hold live dims");
            per_dim[dim_idx].iter().copied()
        };
        let mut bin_aggs: Vec<AggSpec> = Vec::new();
        for v in bin.iter().flat_map(bin_views) {
            if !bin_aggs.contains(&agg_of(v)) {
                bin_aggs.push(agg_of(v));
            }
        }
        for aggregates in bin_aggs.chunks(cap) {
            // Group only by the dimensions some member still reads.
            let mut group_by: Vec<ColumnId> = Vec::new();
            let mut members = Vec::new();
            for dim in bin {
                for v in bin_views(dim) {
                    let Some(agg_idx) = aggregates.iter().position(|a| *a == agg_of(v)) else {
                        continue;
                    };
                    if group_by.last() != Some(dim) {
                        group_by.push(*dim);
                    }
                    members.push((v.id, agg_idx, group_by.len() - 1));
                }
            }
            clusters.push(Cluster {
                group_by,
                aggregates: aggregates.to_vec(),
                members,
            });
        }
    }
    clusters
}

/// How a strategy runs the one phased loop: its phase count, pruner,
/// whether it stops early, and the sharing rewrites it applies.
pub(crate) struct Shape {
    pub(crate) phases: usize,
    pub(crate) pruning: PruningKind,
    pub(crate) early: bool,
    pub(crate) sharing: SharingConfig,
}

/// The loop's shape for `config`'s strategy. `NO_OPT` and `SHARING` run
/// one phase with no pruner; `NO_OPT` also switches every sharing rewrite
/// off — whatever the sharing knobs say — so each view issues its own
/// target query and reference query, two per view.
pub(crate) fn shape(config: &SeeDbConfig) -> Shape {
    let (phases, pruning, early) = match config.strategy {
        ExecutionStrategy::NoOpt | ExecutionStrategy::Sharing => (1, PruningKind::None, false),
        ExecutionStrategy::Comb => (config.num_phases, config.pruning, false),
        ExecutionStrategy::CombEarly => (config.num_phases, config.pruning, true),
    };
    let mut sharing = config.sharing.clone();
    if config.strategy == ExecutionStrategy::NoOpt {
        sharing.combine_aggregates = false;
        sharing.combine_group_bys = false;
        sharing.combine_target_reference = false;
    }
    Shape {
        phases,
        pruning,
        early,
        sharing,
    }
}

/// The phases a run of `config` over `table` executes: the non-empty
/// ranges of its strategy's partition. The executor loops over exactly
/// these, and every cache key carries the count, so a cached prefix is
/// only ever replayed under the partition it was computed in.
pub(crate) fn phase_count(table: &dyn Table, config: &SeeDbConfig) -> usize {
    effective_phases(table.num_rows(), shape(config).phases)
}

/// The execution shape chosen for one run. See the module docs for how it
/// is derived; see [`PhysicalPlan::explain_json`] for the EXPLAIN wire
/// rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalPlan {
    /// Pool workers executing `(cluster, morsel)` work items; 1 = serial
    /// (no pool threads spawned at all).
    pub workers: usize,
    /// Whether `workers` came from the cost model (`true`) or a
    /// `Knob::Fixed` override (`false`).
    pub workers_auto: bool,
    /// Rows per morsel; `usize::MAX` = one morsel per run of surviving
    /// partitions.
    pub morsel_rows: usize,
    /// Whether `morsel_rows` came from the cost model.
    pub morsel_auto: bool,
    /// How the engine walks the table (copied from the config — the scalar
    /// oracle is never planner-selected away).
    pub mode: ExecMode,
    /// Group-index kind for the widest planned cluster (the cost-dominant
    /// one). Scalar mode always aggregates through the hash path.
    pub index: GroupIndexKind,
    /// The grouping attributes of each planned phase-1 cluster (every view
    /// alive), one entry per combined query. Later phases re-cluster over
    /// surviving views only, but phase 1 is the shape EXPLAIN reports and
    /// the one that dominates cost.
    pub clusters: Vec<Vec<ColumnId>>,
    /// Whether any planned cluster packs more than one dimension.
    pub packed: bool,
    /// Aggregates the planned clusters compute per scanned row: the sum of
    /// each cluster's distinct `(func, measure)` pairs.
    pub aggregates: usize,
    /// Views those aggregates answer.
    pub views: usize,
    /// Estimated rows the contribution predicate can touch (an upper
    /// bound: the row total of every partition the zone maps cannot rule
    /// out).
    pub estimated_rows: usize,
    /// Total storage partitions.
    pub partitions_total: usize,
    /// Partitions the zone maps prove irrelevant for this query.
    pub partitions_prunable: usize,
}

impl PhysicalPlan {
    /// Derives the plan for `config` over `table`, for a run answering
    /// `views` with the given target/reference selection.
    pub fn derive(
        table: &dyn Table,
        config: &SeeDbConfig,
        views: &[ViewSpec],
        target: &Predicate,
        reference: &ReferenceSpec,
    ) -> PhysicalPlan {
        // Post-pruning volume estimate: which partitions can contribute a
        // row to either side of the deviation computation?
        let probe = CombinedQuery {
            group_by: Vec::new(),
            aggregates: Vec::new(),
            filter: None,
            split: reference.to_split(target.clone()),
        };
        let contribution = contribution_predicate(&probe);
        let estimate = estimate_scan(table, &contribution);

        let Shape {
            phases, sharing, ..
        } = shape(config);
        let host = seedb_engine::parallel::default_parallelism();
        let workers = sharing
            .parallelism
            .resolve(choose_workers(estimate.rows, host));

        // Phase-1 clustering: the executor's own, over every view.
        let planned = build_clusters(table, &sharing, views);

        // Morsels are sized for what one engine call scans: a phased run
        // hands the engine one phase's rows at a time, for every cluster
        // query at once.
        let per_cluster = if sharing.combine_target_reference {
            1
        } else {
            2
        };
        let morsel_rows = sharing.morsel_rows.resolve(choose_morsel_rows(
            estimate.rows.div_ceil(phases.max(1)),
            per_cluster * planned.len(),
            workers,
        ));
        let aggregates = planned.iter().map(|c| c.aggregates.len()).sum();
        let clusters: Vec<Vec<ColumnId>> = planned.into_iter().map(|c| c.group_by).collect();
        let packed = clusters.iter().any(|bin| bin.len() > 1);

        // Index kind for the widest cluster — the engine makes the same
        // call per cluster (`group_index_for`), so EXPLAIN cannot disagree
        // with execution. The scalar oracle always uses the hash path.
        let index = if config.engine_mode == ExecMode::Scalar {
            GroupIndexKind::Hash
        } else {
            clusters
                .iter()
                .max_by_key(|bin| bin.len())
                .map(|bin| group_index_for(table, bin))
                .unwrap_or(GroupIndexKind::Hash)
        };

        PhysicalPlan {
            workers,
            workers_auto: sharing.parallelism.fixed_value().is_none(),
            morsel_rows,
            morsel_auto: sharing.morsel_rows.fixed_value().is_none(),
            mode: config.engine_mode,
            index,
            clusters,
            packed,
            aggregates,
            views: views.len(),
            estimated_rows: estimate.rows,
            partitions_total: estimate.partitions_total,
            partitions_prunable: estimate.partitions_prunable,
        }
    }

    /// The engine-facing slice of the plan.
    pub fn scan_shape(&self) -> ScanShape {
        ScanShape::new(self.mode, self.morsel_rows)
    }

    /// `morsel_rows` rendered for humans/JSON (`usize::MAX` means "one
    /// morsel per surviving partition").
    fn morsel_label(&self) -> String {
        if self.morsel_rows == usize::MAX {
            "whole".to_owned()
        } else {
            self.morsel_rows.to_string()
        }
    }

    fn source(auto: bool) -> &'static str {
        if auto {
            "auto"
        } else {
            "fixed"
        }
    }

    /// One-line summary recorded into
    /// [`ExecStats::plan_summary`](seedb_engine::ExecStats).
    pub fn summary(&self) -> String {
        format!(
            "workers={}({}) morsel_rows={}({}) mode={} index={} clusters={}{} aggs={}/{} est_rows={} partitions={}/{} prunable",
            self.workers,
            Self::source(self.workers_auto),
            self.morsel_label(),
            Self::source(self.morsel_auto),
            self.mode.label(),
            self.index.label(),
            self.clusters.len(),
            if self.packed { " packed" } else { "" },
            self.aggregates,
            self.views,
            self.estimated_rows,
            self.partitions_prunable,
            self.partitions_total,
        )
    }

    /// The plan as the JSON object the `"explain": true` response envelope
    /// carries.
    pub fn explain_json(&self) -> Json {
        Json::obj()
            .set("workers", self.workers)
            .set("workers_source", Self::source(self.workers_auto))
            .set("morsel_rows", self.morsel_label())
            .set("morsel_source", Self::source(self.morsel_auto))
            .set("mode", self.mode.label())
            .set("index", self.index.label())
            .set("clusters", self.clusters.len())
            .set("packed", self.packed)
            .set("aggregates", self.aggregates)
            .set("views", self.views)
            .set("estimated_rows", self.estimated_rows)
            .set("partitions_total", self.partitions_total)
            .set("partitions_prunable", self.partitions_prunable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Knob;
    use crate::view::enumerate_views;
    use seedb_storage::{ColumnDef, StoreKind, TableBuilder, Value};

    fn table_with_partitions(rows: usize, partition_rows: usize) -> seedb_storage::BoxedTable {
        let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")])
            .with_partition_rows(partition_rows);
        for i in 0..rows {
            b.push_row(&[Value::str(format!("g{}", i % 3)), Value::Float(i as f64)])
                .unwrap();
        }
        b.build(StoreKind::Column).unwrap()
    }

    #[test]
    fn fixed_knobs_override_the_cost_model() {
        let table = table_with_partitions(100, 25);
        let mut cfg = SeeDbConfig::default();
        cfg.sharing.parallelism = Knob::Fixed(3);
        cfg.sharing.morsel_rows = Knob::Fixed(7);
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let plan = PhysicalPlan::derive(
            table.as_ref(),
            &cfg,
            &views,
            &Predicate::True,
            &ReferenceSpec::WholeTable,
        );
        assert_eq!(plan.workers, 3);
        assert!(!plan.workers_auto);
        assert_eq!(plan.morsel_rows, 7);
        assert!(!plan.morsel_auto);
        assert_eq!(plan.scan_shape().morsel_rows, 7);
    }

    #[test]
    fn auto_plan_is_serial_on_small_tables() {
        // 100 rows is far below PARALLEL_ROWS_MIN: the planner must not
        // spin up a pool regardless of host cores, and a serial run scans
        // whole partitions (morsel splitting buys nothing).
        let table = table_with_partitions(100, 25);
        let cfg = SeeDbConfig::default();
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let plan = PhysicalPlan::derive(
            table.as_ref(),
            &cfg,
            &views,
            &Predicate::True,
            &ReferenceSpec::WholeTable,
        );
        assert_eq!(plan.workers, 1);
        assert!(plan.workers_auto);
        assert_eq!(plan.morsel_rows, usize::MAX);
        assert_eq!(plan.partitions_total, 4);
        assert_eq!(plan.estimated_rows, 100);
    }

    #[test]
    fn morsels_are_sized_for_one_phase_of_every_cluster() {
        // 40 000 rows, two dimensions (two clusters without bin-packing),
        // two workers pinned.
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("a"),
            ColumnDef::dim("b"),
            ColumnDef::measure("m"),
        ]);
        for i in 0..40_000usize {
            b.push_row(&[
                Value::str(format!("a{}", i % 4)),
                Value::str(format!("b{}", i % 5)),
                Value::Float(i as f64),
            ])
            .unwrap();
        }
        let table = b.build(StoreKind::Column).unwrap();
        let morsel_rows = |strategy: ExecutionStrategy, combine_group_bys: bool| {
            let mut cfg = SeeDbConfig::for_strategy(strategy);
            cfg.sharing.parallelism = Knob::Fixed(2);
            cfg.sharing.combine_group_bys = combine_group_bys;
            cfg.num_phases = 10;
            let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
            let plan = PhysicalPlan::derive(
                table.as_ref(),
                &cfg,
                &views,
                &Predicate::True,
                &ReferenceSpec::WholeTable,
            );
            assert!(plan.morsel_auto);
            plan.morsel_rows
        };
        // One call scans the whole table for both clusters: four pieces
        // of about half a default morsel each.
        assert_eq!(morsel_rows(ExecutionStrategy::Sharing, false), 10_240);
        // One call scans a 4 000-row phase for both clusters: two morsels
        // each hand the two workers their four items…
        assert_eq!(morsel_rows(ExecutionStrategy::Comb, false), 2048);
        // …and a single packed cluster has to supply all four itself.
        assert_eq!(morsel_rows(ExecutionStrategy::Comb, true), 1024);
    }

    #[test]
    fn plan_counts_prunable_partitions_for_selective_targets() {
        // Partitions carry m ranges [0,25), [25,50), [50,75), [75,100).
        // A complement reference keeps the contribution predicate True for
        // the whole-table reference, so restrict via TargetVsQuery.
        let table = table_with_partitions(100, 25);
        let cfg = SeeDbConfig::default();
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let col = table.schema().column_id("m").unwrap();
        let lo = Predicate::NumCmp {
            col,
            op: seedb_engine::CmpOp::Lt,
            value: 10.0,
        };
        let plan = PhysicalPlan::derive(
            table.as_ref(),
            &cfg,
            &views,
            &lo,
            &ReferenceSpec::Query(lo.clone()),
        );
        assert_eq!(plan.partitions_total, 4);
        assert_eq!(plan.partitions_prunable, 3);
        assert_eq!(plan.estimated_rows, 25);
    }

    #[test]
    fn plan_reports_cluster_packing_and_index_kind() {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("a"),
            ColumnDef::dim("b"),
            ColumnDef::measure("m"),
        ]);
        for i in 0..60usize {
            b.push_row(&[
                Value::str(format!("a{}", i % 4)),
                Value::str(format!("b{}", i % 5)),
                Value::Float(i as f64),
            ])
            .unwrap();
        }
        let table = b.build(StoreKind::Column).unwrap();
        let mut cfg = SeeDbConfig::default();
        cfg.sharing.memory_budget = Some(1_000_000);
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let plan = PhysicalPlan::derive(
            table.as_ref(),
            &cfg,
            &views,
            &Predicate::True,
            &ReferenceSpec::WholeTable,
        );
        // Both dims fit one bin (4 × 5 « budget) and the mixed-radix domain
        // 5 × 6 = 30 is dense-indexable.
        assert_eq!(plan.clusters.len(), 1);
        assert!(plan.packed);
        assert_eq!(plan.index, GroupIndexKind::Dense);

        // The scalar oracle never uses a dense index.
        cfg.engine_mode = ExecMode::Scalar;
        let scalar = PhysicalPlan::derive(
            table.as_ref(),
            &cfg,
            &views,
            &Predicate::True,
            &ReferenceSpec::WholeTable,
        );
        assert_eq!(scalar.index, GroupIndexKind::Hash);

        // NO_OPT never packs.
        let noopt_cfg = SeeDbConfig::for_strategy(ExecutionStrategy::NoOpt);
        let noopt = PhysicalPlan::derive(
            table.as_ref(),
            &noopt_cfg,
            &views,
            &Predicate::True,
            &ReferenceSpec::WholeTable,
        );
        assert_eq!(noopt.clusters.len(), 2);
        assert!(!noopt.packed);
        assert_eq!(noopt.workers, 1);
    }

    #[test]
    fn clusters_share_distinct_aggregates_and_chunk_by_them() {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("a"),
            ColumnDef::dim("b"),
            ColumnDef::measure("m0"),
            ColumnDef::measure("m1"),
        ]);
        for i in 0..12usize {
            b.push_row(&[
                Value::str(format!("a{}", i % 2)),
                Value::str(format!("b{}", i % 3)),
                Value::Float(i as f64),
                Value::Float(1.0),
            ])
            .unwrap();
        }
        let table = b.build(StoreKind::Column).unwrap();
        let mut cfg = SeeDbConfig::default();
        cfg.sharing.memory_budget = Some(1_000_000);
        // 0 = (a, m0), 1 = (a, m1), 2 = (b, m0), 3 = (b, m1).
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let (a, b) = (views[0].dim, views[2].dim);

        let all = build_clusters(table.as_ref(), &cfg.sharing, &views);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].group_by, vec![a, b]);
        assert_eq!(all[0].aggregates.len(), 2, "two measures, four views");
        assert_eq!(
            all[0].members,
            vec![(0, 0, 0), (1, 1, 0), (2, 0, 1), (3, 1, 1)]
        );

        // n_agg = 1: one query per distinct aggregate. With (a, m1) gone,
        // the m1 query has no reader on `a` and groups by `b` alone.
        cfg.sharing.max_aggregates_per_query = Some(1);
        let live = [views[0], views[2], views[3]];
        let capped = build_clusters(table.as_ref(), &cfg.sharing, &live);
        assert_eq!(capped.len(), 2);
        assert_eq!(capped[0].group_by, vec![a, b]);
        assert_eq!(capped[0].members, vec![(0, 0, 0), (2, 0, 1)]);
        assert_eq!(capped[1].group_by, vec![b]);
        assert_eq!(capped[1].members, vec![(3, 0, 0)]);
    }

    #[test]
    fn summary_and_json_render_the_choices() {
        let table = table_with_partitions(100, 25);
        let mut cfg = SeeDbConfig::default();
        cfg.sharing.parallelism = Knob::Fixed(2);
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let plan = PhysicalPlan::derive(
            table.as_ref(),
            &cfg,
            &views,
            &Predicate::True,
            &ReferenceSpec::WholeTable,
        );
        let summary = plan.summary();
        assert!(summary.contains("workers=2(fixed)"), "{summary}");
        assert!(summary.contains("mode=VECTORIZED"), "{summary}");
        assert!(summary.contains("clusters=1 aggs=1/1"), "{summary}");
        let json = plan.explain_json().compact();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"workers\":2"), "{json}");
        assert!(json.contains("\"workers_source\":\"fixed\""), "{json}");
        assert!(json.contains("\"morsel_source\":\"auto\""), "{json}");
        assert!(json.contains("\"partitions_total\":4"), "{json}");
        assert!(json.contains("\"aggregates\":1,\"views\":1"), "{json}");
    }

    #[test]
    fn derivation_is_deterministic() {
        let table = table_with_partitions(100, 25);
        let cfg = SeeDbConfig::default();
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let derive = || {
            PhysicalPlan::derive(
                table.as_ref(),
                &cfg,
                &views,
                &Predicate::True,
                &ReferenceSpec::WholeTable,
            )
        };
        assert_eq!(derive(), derive());
    }
}
