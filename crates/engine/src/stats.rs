//! Execution statistics.
//!
//! The paper reports *latency*; latency on our in-memory substrate is
//! dominated by the same quantities a disk-backed DBMS pays for — scan
//! passes, rows touched, cells materialized, groups maintained — so the
//! engine counts them explicitly. Tests use these counters to prove that
//! the sharing optimizations actually reduce work (e.g. SHARING issues
//! `#dims` queries instead of `2·a·m`), independent of wall-clock noise.

use std::fmt;
use std::ops::AddAssign;

/// Counters accumulated during query execution, plus per-run profiling
/// (phase wall-clock timings and the executed plan's summary).
///
/// Equality deliberately compares **only the eight work counters** — the
/// profiling fields are wall-clock-, host- or mode-dependent, and the
/// bit-identity suites (cached vs uncached, planned vs fixed-knob, scalar
/// vs vectorized) must not fail on timing noise, plan-summary differences
/// or which path an update took.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Number of engine queries issued (paper: SQL queries sent to the DBMS).
    pub queries_issued: u64,
    /// Number of scan passes over (a range of) the table.
    pub scan_passes: u64,
    /// Total rows visited across all scans.
    pub rows_scanned: u64,
    /// Total cells materialized (rows × projection width) — the COL-store
    /// cost proxy.
    pub cells_visited: u64,
    /// Accumulator updates performed: one per selected row (per side it
    /// feeds) and distinct measure of the executing query — the aggregates
    /// over one measure share one accumulator state. `SHARING` over a
    /// packed cluster pays `rows × distinct measures` here, not
    /// `rows × views` — the quantity §4.1's combining exists to shrink —
    /// and COUNT, SUM and AVG of a measure cost what AVG alone does.
    pub accumulator_updates: u64,
    /// Of those, the updates that were one integer add into a fixed-point
    /// lane (see [`crate::agg`]); the rest went through
    /// [`crate::Accumulator::update`] one value at a time. A profiling
    /// field: the scalar mode reports 0 for the same work.
    pub fixed_lane_updates: u64,
    /// Maximum number of groups maintained by any single query — the
    /// memory-budget quantity of §4.1.
    pub groups_max: u64,
    /// Storage partitions whose rows were actually scanned.
    pub partitions_scanned: u64,
    /// Storage partitions skipped because zone maps proved no row could
    /// contribute to the query.
    pub partitions_pruned: u64,
    /// Wall-clock microseconds per executed phase (empty for runs the
    /// phased executor never timed, e.g. cache replays).
    pub phase_times_us: Vec<u64>,
    /// One-line summary of the physical plan this run executed under
    /// (empty when no planner was involved).
    pub plan_summary: String,
}

impl ExecStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges counters from a sub-execution (parallel workers each keep
    /// their own and merge at the end). Phase timings concatenate;
    /// `plan_summary` keeps the receiver's value unless it is empty.
    pub fn merge(&mut self, other: &ExecStats) {
        self.queries_issued += other.queries_issued;
        self.scan_passes += other.scan_passes;
        self.rows_scanned += other.rows_scanned;
        self.cells_visited += other.cells_visited;
        self.accumulator_updates += other.accumulator_updates;
        self.fixed_lane_updates += other.fixed_lane_updates;
        self.groups_max = self.groups_max.max(other.groups_max);
        self.partitions_scanned += other.partitions_scanned;
        self.partitions_pruned += other.partitions_pruned;
        self.phase_times_us.extend_from_slice(&other.phase_times_us);
        if self.plan_summary.is_empty() {
            self.plan_summary = other.plan_summary.clone();
        }
    }
}

// Manual: work counters only (see the struct docs for why profiling
// fields are excluded).
impl PartialEq for ExecStats {
    fn eq(&self, other: &Self) -> bool {
        self.queries_issued == other.queries_issued
            && self.scan_passes == other.scan_passes
            && self.rows_scanned == other.rows_scanned
            && self.cells_visited == other.cells_visited
            && self.accumulator_updates == other.accumulator_updates
            && self.groups_max == other.groups_max
            && self.partitions_scanned == other.partitions_scanned
            && self.partitions_pruned == other.partitions_pruned
    }
}

impl Eq for ExecStats {}

impl AddAssign for ExecStats {
    fn add_assign(&mut self, rhs: ExecStats) {
        self.merge(&rhs);
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "queries={} scans={} rows={} cells={} acc_updates={} lane_updates={} max_groups={} parts_scanned={} parts_pruned={}",
            self.queries_issued,
            self.scan_passes,
            self.rows_scanned,
            self.cells_visited,
            self.accumulator_updates,
            self.fixed_lane_updates,
            self.groups_max,
            self.partitions_scanned,
            self.partitions_pruned
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counts_and_maxes_groups() {
        let mut a = ExecStats {
            queries_issued: 1,
            scan_passes: 2,
            rows_scanned: 100,
            cells_visited: 300,
            accumulator_updates: 800,
            fixed_lane_updates: 700,
            groups_max: 10,
            partitions_scanned: 3,
            partitions_pruned: 1,
            ..Default::default()
        };
        let b = ExecStats {
            queries_issued: 2,
            scan_passes: 1,
            rows_scanned: 50,
            cells_visited: 100,
            accumulator_updates: 50,
            fixed_lane_updates: 50,
            groups_max: 25,
            partitions_scanned: 2,
            partitions_pruned: 6,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.queries_issued, 3);
        assert_eq!(a.scan_passes, 3);
        assert_eq!(a.rows_scanned, 150);
        assert_eq!(a.cells_visited, 400);
        assert_eq!(a.accumulator_updates, 850);
        assert_eq!(a.fixed_lane_updates, 750);
        assert_eq!(a.groups_max, 25);
        assert_eq!(a.partitions_scanned, 5);
        assert_eq!(a.partitions_pruned, 7);
    }

    #[test]
    fn add_assign_delegates_to_merge() {
        let mut a = ExecStats::new();
        a += ExecStats {
            queries_issued: 5,
            ..Default::default()
        };
        assert_eq!(a.queries_issued, 5);
    }

    #[test]
    fn equality_ignores_profiling_fields() {
        let mut a = ExecStats {
            queries_issued: 3,
            rows_scanned: 10,
            ..Default::default()
        };
        let mut b = a.clone();
        b.phase_times_us = vec![1, 2, 3];
        b.plan_summary = "workers=1".to_owned();
        b.fixed_lane_updates = 10;
        assert_eq!(a, b);
        b.rows_scanned = 11;
        assert_ne!(a, b);
        // Merge concatenates timings and keeps the first non-empty summary.
        a.phase_times_us = vec![9];
        a.merge(&ExecStats {
            phase_times_us: vec![1, 2, 3],
            plan_summary: "workers=1".to_owned(),
            ..Default::default()
        });
        assert_eq!(a.phase_times_us, vec![9, 1, 2, 3]);
        assert_eq!(a.plan_summary, "workers=1");
    }

    #[test]
    fn display_mentions_all_counters() {
        let s = ExecStats {
            queries_issued: 1,
            scan_passes: 2,
            rows_scanned: 3,
            cells_visited: 4,
            accumulator_updates: 8,
            fixed_lane_updates: 9,
            groups_max: 5,
            partitions_scanned: 6,
            partitions_pruned: 7,
            ..Default::default()
        }
        .to_string();
        for token in [
            "queries=1",
            "scans=2",
            "rows=3",
            "cells=4",
            "acc_updates=8",
            "lane_updates=9",
            "max_groups=5",
            "parts_scanned=6",
            "parts_pruned=7",
        ] {
            assert!(s.contains(token), "missing {token} in '{s}'");
        }
    }
}
