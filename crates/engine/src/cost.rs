//! The engine-side cost model: stats-driven choices of execution shape.
//!
//! Every decision here is a pure function of table/partition statistics —
//! deterministic for fixed inputs, so a plan derived twice from the same
//! table is identical (cache keys and EXPLAIN output depend on this). The
//! decisions only ever change *how* a query executes, never *what* it
//! computes: every shape is bit-identical by engine contract (exact
//! accumulator merges, see [`crate::morsel`]), which is what makes an
//! estimate-driven planner safe to put in front of the executor.
//!
//! Three choices live here:
//!
//! * [`choose_group_index`] — dense-vs-hash group indexing. This is the
//!   *same function* the vectorized aggregation path calls when it builds
//!   its index ([`crate::PartialAggregation`]), so an EXPLAIN that reports
//!   the planned index kind reports the engine's literal decision, not a
//!   parallel reimplementation that could drift.
//! * [`estimate_scan`] — post-pruning row volume, from the zone-map
//!   verdicts of [`crate::prune::zone_match`] over the partition
//!   directory. A conservative *upper bound*: `Maybe` partitions count in
//!   full.
//! * [`choose_workers`] / [`choose_morsel_rows`] — worker count capped by
//!   the host and by the estimated volume (a 1-core host or a scan smaller
//!   than [`PARALLEL_ROWS_MIN`] runs serial — pool/morsel overhead loses
//!   below that), and a morsel size for one engine call's rows: about half
//!   a default morsel where the rows are many, and otherwise no split beyond
//!   what hands each worker a couple of batch-aligned work items, counting
//!   every query of the call.

use crate::expr::Predicate;
use crate::prune::zone_match;
use crate::ExecMode;
use seedb_storage::{ColumnId, Table, ZoneMatch, DEFAULT_BATCH_SIZE, DEFAULT_MORSEL_ROWS};

/// Largest dictionary cardinality for which the vectorized path uses a
/// dense dictionary-direct group index (see [`choose_group_index`]).
pub const DENSE_CARDINALITY_MAX: usize = 1 << 16;

/// Minimum estimated post-prune row volume before a scan fans out to more
/// than one worker: below two default morsels of work, the pool's
/// scheduling overhead exceeds the parallel win (measured on the 1-core
/// bench host, where parallelism > 1 *lost* to serial).
pub const PARALLEL_ROWS_MIN: usize = 2 * DEFAULT_MORSEL_ROWS;

/// Work items — morsels of any of a call's queries — the morsel-size choice
/// hands each worker at the least, so claim imbalance (one worker drawing
/// the last large morsel) stays bounded. Kept low: every extra morsel of a
/// query may leave one more worker holding a partial of it, which the fold
/// then has to merge and which widens that worker's accumulator working set
/// (two morsels per cluster and phase instead of one cost DIAB 100K, four
/// clusters on two workers, ≈ 10 % of a ten-phase run).
const ITEMS_PER_WORKER: usize = 2;

/// The morsel length aimed for once a call's rows are long enough to be cut
/// on their own account: short enough that the last morsel a worker draws
/// is a small share of a long scan, long enough to amortize its set-up.
const LONG_SCAN_MORSEL_ROWS: usize = DEFAULT_MORSEL_ROWS / 2;

/// Group-index strategy of the vectorized aggregation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupIndexKind {
    /// Single-attribute dictionary-direct dense index.
    DenseSingle,
    /// Mixed-radix composite dense index (bin-packed multi-GROUP-BY).
    DenseComposite,
    /// Hash-map lookups (non-categorical attribute or oversized domain).
    Hash,
}

impl GroupIndexKind {
    /// Short label for EXPLAIN output and figures.
    pub fn label(&self) -> &'static str {
        match self {
            GroupIndexKind::DenseSingle => "dense",
            GroupIndexKind::DenseComposite => "dense-composite",
            GroupIndexKind::Hash => "hash",
        }
    }
}

/// Picks the group-index strategy for a grouping whose attributes have the
/// given dictionary cardinalities (`None` = not dictionary-encoded):
///
/// * one attribute with a dictionary of ≤ [`DENSE_CARDINALITY_MAX`]
///   entries → [`GroupIndexKind::DenseSingle`];
/// * several attributes, all dictionary-encoded, whose mixed-radix domain
///   `Π (|aᵢ| + 1)` (the `+ 1` is each attribute's NULL slot) fits the
///   dense cap → [`GroupIndexKind::DenseComposite`];
/// * anything else → [`GroupIndexKind::Hash`].
///
/// This is the engine's *actual* decision rule — the vectorized
/// aggregation path routes through it — so planner EXPLAIN output and
/// execution can never disagree.
pub fn choose_group_index(dict_sizes: &[Option<usize>]) -> GroupIndexKind {
    match dict_sizes {
        [] => GroupIndexKind::Hash,
        [Some(d)] if *d <= DENSE_CARDINALITY_MAX => GroupIndexKind::DenseSingle,
        [_] => GroupIndexKind::Hash,
        many => {
            let mut domain: u128 = 1;
            for d in many {
                match d {
                    Some(d) => domain = domain.saturating_mul(*d as u128 + 1),
                    None => return GroupIndexKind::Hash,
                }
            }
            if domain <= DENSE_CARDINALITY_MAX as u128 + 1 {
                GroupIndexKind::DenseComposite
            } else {
                GroupIndexKind::Hash
            }
        }
    }
}

/// [`choose_group_index`] over a table's actual dictionaries for the given
/// grouping attributes.
pub fn group_index_for(table: &dyn Table, group_by: &[ColumnId]) -> GroupIndexKind {
    let dict_sizes: Vec<Option<usize>> = group_by
        .iter()
        .map(|&col| table.dictionary(col).map(|d| d.len()))
        .collect();
    choose_group_index(&dict_sizes)
}

/// Estimated cost-model view of one scan, derived from zone-map verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanEstimate {
    /// Upper bound on rows the scan will touch after partition pruning.
    pub rows: usize,
    /// Partitions in the table's directory (0 = no directory).
    pub partitions_total: usize,
    /// Partitions the zone maps already prove prunable for this predicate.
    pub partitions_prunable: usize,
}

/// Estimates the post-pruning row volume of scanning `table` under the
/// given contribution predicate: partitions whose zones answer
/// [`ZoneMatch::Never`] are excluded, every other partition counts in
/// full. Tables without a partition directory estimate the whole table.
pub fn estimate_scan(table: &dyn Table, contribution: &Predicate) -> ScanEstimate {
    let parts = table.partitions();
    if parts.is_empty() {
        return ScanEstimate {
            rows: table.num_rows(),
            partitions_total: 0,
            partitions_prunable: 0,
        };
    }
    let mut est = ScanEstimate {
        rows: 0,
        partitions_total: parts.len(),
        partitions_prunable: 0,
    };
    for p in parts {
        if zone_match(contribution, &p.zones) == ZoneMatch::Never {
            est.partitions_prunable += 1;
        } else {
            est.rows += p.len();
        }
    }
    est
}

/// Picks the worker count for a scan of `est_rows` (post-pruning estimate)
/// on a host with `host_parallelism` cores: serial when the host has one
/// core or the volume is below [`PARALLEL_ROWS_MIN`], otherwise capped so
/// every worker has at least one default morsel of work.
pub fn choose_workers(est_rows: usize, host_parallelism: usize) -> usize {
    if host_parallelism <= 1 || est_rows < PARALLEL_ROWS_MIN {
        return 1;
    }
    host_parallelism
        .min(est_rows.div_ceil(DEFAULT_MORSEL_ROWS))
        .max(1)
}

/// Picks the morsel size for one engine call that scans `call_rows` rows
/// for each of `queries` queries on `workers` workers: serial runs take one
/// morsel per run of surviving partitions (`usize::MAX` — no scheduling
/// overhead at all); parallel runs cut a query's rows into as many
/// batch-aligned pieces as `LONG_SCAN_MORSEL_ROWS` fits into them — one,
/// for anything shorter than two of those: a phase of a phased run stays
/// whole — and at least as many as it takes for the call as a whole to
/// offer `ITEMS_PER_WORKER` items per worker (none extra, when the
/// queries alone are that many).
pub fn choose_morsel_rows(call_rows: usize, queries: usize, workers: usize) -> usize {
    if workers <= 1 {
        return usize::MAX;
    }
    let for_balance = (workers * ITEMS_PER_WORKER).div_ceil(queries.max(1));
    let pieces = for_balance.max(call_rows / LONG_SCAN_MORSEL_ROWS);
    call_rows
        .div_ceil(pieces)
        .next_multiple_of(DEFAULT_BATCH_SIZE)
        .clamp(DEFAULT_BATCH_SIZE, DEFAULT_MORSEL_ROWS)
}

/// The per-scan slice of a physical plan the engine layers consume: how a
/// range is scanned (mode) and how it is carved into work items. The
/// planner in `seedb-core` builds one; [`crate::execute_morsels`] executes
/// under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanShape {
    /// Scalar or vectorized execution.
    pub mode: ExecMode,
    /// Maximum rows per morsel (`usize::MAX` = one morsel per run of
    /// adjacent surviving partitions).
    pub morsel_rows: usize,
}

impl ScanShape {
    /// A serial-friendly default shape in the given mode.
    pub fn new(mode: ExecMode, morsel_rows: usize) -> Self {
        ScanShape { mode, morsel_rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use seedb_storage::{BoxedTable, ColumnDef, StoreKind, TableBuilder, Value};

    #[test]
    fn group_index_choice_matches_engine_rules() {
        use GroupIndexKind::*;
        assert_eq!(choose_group_index(&[]), Hash);
        assert_eq!(choose_group_index(&[Some(5)]), DenseSingle);
        assert_eq!(
            choose_group_index(&[Some(DENSE_CARDINALITY_MAX)]),
            DenseSingle
        );
        assert_eq!(choose_group_index(&[Some(DENSE_CARDINALITY_MAX + 1)]), Hash);
        assert_eq!(choose_group_index(&[None]), Hash);
        assert_eq!(choose_group_index(&[Some(3), Some(4)]), DenseComposite);
        assert_eq!(choose_group_index(&[Some(3), None]), Hash);
        // (255+1) * (255+1) = 65536 ≤ cap + 1 → composite; one more bursts it.
        assert_eq!(choose_group_index(&[Some(255), Some(255)]), DenseComposite);
        assert_eq!(choose_group_index(&[Some(255), Some(256)]), Hash);
    }

    #[test]
    fn worker_choice_is_serial_on_one_core_or_small_volume() {
        assert_eq!(choose_workers(10_000_000, 1), 1);
        assert_eq!(choose_workers(PARALLEL_ROWS_MIN - 1, 8), 1);
        assert_eq!(choose_workers(PARALLEL_ROWS_MIN, 8), 2);
        assert_eq!(choose_workers(10_000_000, 8), 8);
        assert_eq!(choose_workers(0, 8), 1);
    }

    #[test]
    fn morsel_choice_is_whole_partitions_when_serial() {
        assert_eq!(choose_morsel_rows(1_000_000, 1, 1), usize::MAX);
        let m = choose_morsel_rows(1_000_000, 1, 4);
        assert!((DEFAULT_BATCH_SIZE..=DEFAULT_MORSEL_ROWS).contains(&m));
        assert_eq!(m % DEFAULT_BATCH_SIZE, 0);
        // Tiny volumes stay at the batch-size floor.
        assert_eq!(choose_morsel_rows(100, 1, 2), DEFAULT_BATCH_SIZE);
    }

    #[test]
    fn morsel_choice_counts_every_query_of_the_call() {
        // A 10 000-row phase of four cluster queries on two workers: the
        // queries are the work items, no range is split.
        assert_eq!(choose_morsel_rows(10_000, 4, 2), 10 * DEFAULT_BATCH_SIZE);
        // One query has to feed both workers itself: four morsels.
        assert_eq!(choose_morsel_rows(10_000, 1, 2), 3 * DEFAULT_BATCH_SIZE);
        // Three queries on two workers: two morsels each.
        assert_eq!(choose_morsel_rows(10_000, 3, 2), 5 * DEFAULT_BATCH_SIZE);
        // A phase of up to two long-scan morsels stays whole…
        assert_eq!(choose_morsel_rows(16_000, 4, 2), 16 * DEFAULT_BATCH_SIZE);
        // …and whole-table calls are cut into pieces of about one: twelve
        // for 100 000 rows.
        assert_eq!(choose_morsel_rows(100_000, 4, 2), 9 * DEFAULT_BATCH_SIZE);
        assert_eq!(choose_morsel_rows(1_000_000, 1, 4), 9 * DEFAULT_BATCH_SIZE);
    }

    #[test]
    fn decisions_are_deterministic_for_fixed_inputs() {
        for est in [0usize, 1, 10_000, 50_000, 1_000_000] {
            for host in [1usize, 2, 8, 64] {
                assert_eq!(choose_workers(est, host), choose_workers(est, host));
                let w = choose_workers(est, host);
                assert_eq!(choose_morsel_rows(est, 3, w), choose_morsel_rows(est, 3, w));
            }
        }
    }

    #[test]
    fn scan_estimate_counts_prunable_partitions() {
        // Sorted measure, partitions of 10 → disjoint zone intervals.
        let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")])
            .with_partition_rows(10);
        for i in 0..40 {
            b.push_row(&[Value::str("x"), Value::Float(i as f64)])
                .unwrap();
        }
        let t: BoxedTable = b.build(StoreKind::Column).unwrap();
        let pred = Predicate::NumCmp {
            col: ColumnId(1),
            op: CmpOp::Lt,
            value: 10.0,
        };
        let est = estimate_scan(t.as_ref(), &pred);
        assert_eq!(est.partitions_total, 4);
        assert_eq!(est.partitions_prunable, 3);
        assert_eq!(est.rows, 10);
        let est = estimate_scan(t.as_ref(), &Predicate::True);
        assert_eq!(est.rows, 40);
        assert_eq!(est.partitions_prunable, 0);
    }
}
