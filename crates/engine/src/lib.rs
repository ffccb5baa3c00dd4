//! # seedb-engine
//!
//! The execution engine underneath SeeDB: grouped aggregation over the
//! storage substrate, plus the building blocks for the paper's
//! *sharing-based optimizations* (§4.1):
//!
//! * **Combine multiple aggregates** — a [`CombinedQuery`] carries any
//!   number of [`AggSpec`]s, all evaluated in one scan.
//! * **Combine multiple GROUP BYs** — a `CombinedQuery` may group by several
//!   dimension attributes at once; [`rollup`](fn@rollup) recovers each
//!   single-attribute view from the multi-attribute result (COUNT/SUM/MIN/
//!   MAX/AVG all decompose losslessly because accumulators merge).
//!   [`binpack`] chooses which attributes to combine under a memory budget
//!   (Problem 4.1, first-fit over `log₂|aᵢ|` weights).
//! * **Combine target and reference view** — a [`SplitSpec`] classifies each
//!   scanned row as target and/or reference, so one scan feeds both sides
//!   of the deviation computation.
//! * **Parallel query execution** — a persistent scoped worker pool
//!   ([`parallel::with_pool`]) executes a scan's `(query, morsel)` work
//!   items as one round ([`morsel::ScanSession`], or
//!   [`morsel::execute_morsels`] for a single call): every query's scan
//!   range splits into fixed-size morsels, workers aggregate thread-local
//!   partials, and the worker that completes a query's last morsel folds
//!   them with [`PartialAggregation::merge`] — bit-identically to a serial
//!   scan, because accumulator sums are exact (see [`Accumulator`]). A
//!   round owns its task, which owns what it reads or borrows it from
//!   outside the pool's scope, so the compiler checks every borrow a
//!   worker makes.
//!
//! Execution is *phase-aware*: a [`PartialAggregation`] accepts any number
//! of row ranges and can be snapshotted or drained between ranges — a
//! drain hands over what the ranges since the last one accumulated and
//! keeps the plan, the group keys and the group index — which is exactly
//! what the phased pruning framework in `seedb-core` needs.
//!
//! Execution is also *mode-aware* ([`ExecMode`]): the default **vectorized**
//! mode drives the storage layer's batched scan API — selection bitmaps
//! from [`BoundPredicate::eval_batch`] and one mixed-radix dense group
//! index, for single-attribute views and bin-packed multi-GROUP-BY
//! clusters alike (see [`DENSE_CARDINALITY_MAX`]) — while the **scalar**
//! mode keeps the original row-at-a-time path as the bit-identical
//! equivalence oracle.

#![forbid(unsafe_code)]

pub mod agg;
pub mod binpack;
pub mod cost;
pub mod expr;
pub mod groupkey;
pub mod hashagg;
pub mod morsel;
pub mod parallel;
pub mod prune;
pub mod rollup;
pub mod spec;
pub mod stats;

pub use agg::{Accumulator, AggFunc};
pub use binpack::{first_fit, GroupingPlan};
pub use cost::{
    choose_group_index, choose_morsel_rows, choose_workers, estimate_scan, group_index_for,
    GroupIndexKind, ScanEstimate, ScanShape, PARALLEL_ROWS_MIN,
};
pub use expr::{BoundPredicate, CmpOp, Predicate};
pub use groupkey::GroupKey;
pub use hashagg::{
    execute_combined, execute_combined_with_mode, PartialAggregation, DENSE_CARDINALITY_MAX,
};
pub use morsel::{execute_morsels, ScanSession, DEFAULT_MORSEL_ROWS};
pub use parallel::{with_pool, BudgetLease, CancelToken, Pool, WorkerBudget};
pub use prune::{contribution_predicate, pruned_scan, zone_match, PrunedScan};
pub use rollup::rollup;
pub use seedb_obs::TraceCtx;
pub use spec::{AggSpec, CombinedQuery, SplitSpec};
pub use stats::ExecStats;

/// How the engine walks the table: row-at-a-time or in typed batches.
///
/// Both modes produce bit-identical results (accumulators are exact, so
/// neither row order nor partition boundaries can perturb a single bit);
/// `Vectorized` is the default and is substantially faster on the column
/// store, where batches are zero-copy slices and group lookups go through
/// the mixed-radix dense index (see [`DENSE_CARDINALITY_MAX`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Row-at-a-time execution through `Table::scan_range` (the original
    /// `dyn FnMut(&[Cell])` path; kept as the equivalence oracle).
    Scalar,
    /// Batched execution through `Table::scan_batches`: vectorized
    /// predicate bitmaps and mixed-radix dense aggregation.
    #[default]
    Vectorized,
}

impl ExecMode {
    /// Label used in bench output and logs.
    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::Scalar => "SCALAR",
            ExecMode::Vectorized => "VECTORIZED",
        }
    }

    /// Both modes, for sweeps and equivalence tests.
    pub const ALL: [ExecMode; 2] = [ExecMode::Scalar, ExecMode::Vectorized];
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Result of a grouped aggregation: one entry per observed group, sorted by
/// key for deterministic downstream consumption. Equality is equality of
/// keys and of every accumulator's observable state (see [`Accumulator`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedResult {
    /// The grouping attributes this result is keyed by.
    pub group_by: Vec<seedb_storage::ColumnId>,
    /// Aggregate specs, in the order accumulators appear in each entry.
    pub aggregates: Vec<AggSpec>,
    /// Per-group accumulated state.
    pub groups: Vec<GroupEntry>,
}

/// One group's accumulated target and reference state.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupEntry {
    /// Group key (one `u64` code per grouping attribute).
    pub key: GroupKey,
    /// Target-side accumulators, one per aggregate spec.
    pub target: Vec<Accumulator>,
    /// Reference-side accumulators, one per aggregate spec.
    pub reference: Vec<Accumulator>,
}

impl GroupedResult {
    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Extracts the aligned `(target, reference)` value vectors for
    /// aggregate `agg_idx`, with groups in key order. Groups where an AVG
    /// has no rows yield 0.0 — the normalization step treats missing mass
    /// as zero probability, matching the paper's treatment of absent groups.
    pub fn value_vectors(&self, agg_idx: usize) -> (Vec<f64>, Vec<f64>) {
        let func = self.aggregates[agg_idx].func;
        let mut t = Vec::with_capacity(self.groups.len());
        let mut r = Vec::with_capacity(self.groups.len());
        for g in &self.groups {
            t.push(g.target[agg_idx].finish(func).unwrap_or(0.0));
            r.push(g.reference[agg_idx].finish(func).unwrap_or(0.0));
        }
        (t, r)
    }
}
