//! Per-view accumulated state across phases.
//!
//! The phased framework executes *shared* queries per phase and folds each
//! phase's partial results into one [`ViewState`] per view. The state holds
//! mergeable accumulators per group and side (target/reference), so
//! utilities can be (re-)estimated after every phase — the quantity the
//! pruning schemes consume.
//!
//! A view groups by one attribute, so its groups are single codes. The
//! codes of a dictionary-coded attribute index a dense table
//! ([`ViewGroups`]); everything else lives in an ordered map. Either way
//! groups are read back in `GroupKey` order — EMD is order-sensitive.
//!
//! One phase's [`ViewGroups`] of a view is also what the cross-request
//! cache keeps of it ([`crate::cache::CachedPartial`]), so this module is
//! the one place that knows how large a cached delta is
//! (`ViewGroups::heap_bytes`).

use crate::view::ViewSpec;
use seedb_engine::{group_index_for, Accumulator, GroupIndexKind, GroupKey};
use seedb_metrics::{normalize, DistanceKind};
use seedb_storage::Table;
use std::collections::BTreeMap;
use std::mem::size_of;

/// Which side of the deviation comparison a partial result feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The target view (over `D_Q`).
    Target,
    /// The reference view (over `D_R`).
    Reference,
}

/// Target/reference accumulator pair for one group.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SidePair {
    pub(crate) target: Accumulator,
    pub(crate) reference: Accumulator,
}

impl SidePair {
    fn merge(&mut self, other: &SidePair) {
        self.target.merge(&other.target);
        self.reference.merge(&other.reference);
    }

    fn heap_bytes(&self) -> usize {
        self.target.heap_bytes() + self.reference.heap_bytes()
    }
}

/// Heap of a `BTreeMap<u64, SidePair>` of `len` entries, counted in std's
/// nodes: a leaf holds up to 11 entries (parent link, two `u16`s, keys and
/// values), an inner node a leaf plus 12 child links. Up to 11 entries
/// the map is exactly one leaf — a lone NULL group costs all of it. Past
/// that the node count depends on insertion order; entries inserted in
/// hash order average about 8.5 a leaf and 8 leaves an inner node, which
/// this charges (measured within ≈ 10 % from 200 entries up, ≈ 20 %
/// between 12 and 200).
fn map_bytes(len: usize) -> usize {
    const CAPACITY: usize = 11;
    const LEAF: usize = (size_of::<usize>()
        + 2 * size_of::<u16>()
        + CAPACITY * (size_of::<u64>() + size_of::<SidePair>()))
    .next_multiple_of(size_of::<usize>());
    const INNER: usize = LEAF + (CAPACITY + 1) * size_of::<usize>();
    match len {
        0 => 0,
        1..=CAPACITY => LEAF,
        _ => (len * (8 * LEAF + INNER) / 68).max(2 * LEAF + INNER),
    }
}

/// One view's groups — a whole run's, or one phase's delta — keyed by the
/// grouping attribute's code and iterated in code order, which is
/// `GroupKey` order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ViewGroups {
    /// Codes below this index `dense`: the attribute's dictionary size (0
    /// without a dictionary).
    domain: usize,
    /// `dense[code]`, once the code was observed; grows to the largest.
    dense: Vec<Option<SidePair>>,
    /// Every other code — non-dictionary values, strays past the
    /// dictionary, and NULL (`u64::MAX`) — all of which sort after `dense`.
    sparse: BTreeMap<u64, SidePair>,
}

impl ViewGroups {
    /// Empty groups for `spec`'s grouping attribute in `table`: dense when
    /// the engine would index that attribute densely too.
    fn for_view(table: &dyn Table, spec: &ViewSpec) -> Self {
        let domain = match group_index_for(table, &[spec.dim]) {
            GroupIndexKind::Dense => table.dictionary(spec.dim).map_or(0, |d| d.len()),
            _ => 0,
        };
        ViewGroups {
            domain,
            ..Default::default()
        }
    }

    /// How these groups are laid out, for empty groups like them.
    pub(crate) fn layout(&self) -> GroupLayout {
        GroupLayout {
            domain: self.domain,
            dense: self.dense.len(),
        }
    }

    /// The pair of group `code`, created empty on first sight.
    #[inline]
    pub(crate) fn pair(&mut self, code: u64) -> &mut SidePair {
        if code < self.domain as u64 {
            let code = code as usize;
            if code >= self.dense.len() {
                self.dense.resize_with(code + 1, || None);
            }
            self.dense[code].get_or_insert_with(SidePair::default)
        } else {
            self.sparse.entry(code).or_default()
        }
    }

    /// Merges every group of `other` into this one's.
    pub(crate) fn merge(&mut self, other: &ViewGroups) {
        for (code, pair) in other.iter() {
            self.pair(code).merge(pair);
        }
    }

    /// `(code, pair)` of every observed group, in code order.
    fn iter(&self) -> impl Iterator<Item = (u64, &SidePair)> {
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter_map(|(code, pair)| Some((code as u64, pair.as_ref()?)));
        dense.chain(self.sparse.iter().map(|(&code, pair)| (code, pair)))
    }

    fn len(&self) -> usize {
        self.dense.iter().flatten().count() + self.sparse.len()
    }

    /// Heap bytes these groups own: the dense table's whole capacity, the
    /// map's nodes, and whatever an accumulator spilled to the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        let spilled: usize = self.iter().map(|(_, pair)| pair.heap_bytes()).sum();
        self.dense.capacity() * size_of::<Option<SidePair>>()
            + map_bytes(self.sparse.len())
            + spilled
    }
}

/// A view's group layout at some point: its dense domain and how many dense
/// codes it had seen.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupLayout {
    domain: usize,
    dense: usize,
}

impl GroupLayout {
    /// Empty groups over this domain, with room for the dense codes seen.
    pub(crate) fn empty(self) -> ViewGroups {
        ViewGroups {
            domain: self.domain,
            dense: Vec::with_capacity(self.dense),
            sparse: BTreeMap::new(),
        }
    }
}

/// Accumulated state of one view across phases.
#[derive(Debug, Clone)]
pub struct ViewState {
    /// The view this state belongs to.
    pub spec: ViewSpec,
    /// Per-group accumulators, in group-key order.
    groups: ViewGroups,
    /// Still under consideration (not pruned)?
    pub alive: bool,
    /// Accepted into the top-k (MAB accept / CI early-accept)?
    pub accepted: bool,
    /// Per-phase utility estimates (cumulative-data estimate after each
    /// phase) — the `Y_i` sequence the CI pruner bounds.
    pub estimates: Vec<f64>,
    /// Phase index (0-based) at which the view was pruned, if any.
    pub pruned_at_phase: Option<usize>,
}

impl ViewState {
    /// Fresh state for `spec`, its groups in an ordered map.
    pub fn new(spec: ViewSpec) -> Self {
        Self::with_groups(spec, ViewGroups::default())
    }

    /// Fresh state for `spec` over `table`: the groups of a
    /// dictionary-coded grouping attribute live in a table indexed by
    /// dictionary code instead of the map.
    pub fn for_table(spec: ViewSpec, table: &dyn Table) -> Self {
        Self::with_groups(spec, ViewGroups::for_view(table, &spec))
    }

    fn with_groups(spec: ViewSpec, groups: ViewGroups) -> Self {
        ViewState {
            spec,
            groups,
            alive: true,
            accepted: false,
            estimates: Vec::new(),
            pruned_at_phase: None,
        }
    }

    /// The accumulated groups.
    pub(crate) fn groups(&self) -> &ViewGroups {
        &self.groups
    }

    /// Folds one phase's groups of this view (what the executor folded from
    /// the phase's cluster partials), or a cached copy of them, into the
    /// state. Accumulator merges are exact, so folding the same deltas in
    /// the same order reproduces the state bit for bit — what makes
    /// per-phase deltas safe to cache across requests.
    pub fn merge_groups(&mut self, delta: &ViewGroups) {
        self.groups.merge(delta);
    }

    /// Number of groups observed so far.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Aligned raw value vectors `(target, reference)` over the union of
    /// observed groups, in key order.
    pub fn value_vectors(&self) -> (Vec<f64>, Vec<f64>) {
        let func = self.spec.func;
        let groups = self.groups.len();
        let mut t = Vec::with_capacity(groups);
        let mut r = Vec::with_capacity(groups);
        for (_, pair) in self.groups.iter() {
            t.push(pair.target.finish(func).unwrap_or(0.0));
            r.push(pair.reference.finish(func).unwrap_or(0.0));
        }
        (t, r)
    }

    /// Group keys in the same order as [`ViewState::value_vectors`].
    pub fn group_keys(&self) -> Vec<GroupKey> {
        self.groups
            .iter()
            .map(|(code, _)| GroupKey::One(code))
            .collect()
    }

    /// Current deviation-based utility under `metric`: distance between the
    /// normalized target and reference distributions. A view with no groups
    /// yet has utility 0.
    pub fn utility(&self, metric: DistanceKind) -> f64 {
        let (t, r) = self.value_vectors();
        if t.is_empty() {
            return 0.0;
        }
        metric.compute(&normalize(&t), &normalize(&r))
    }

    /// Records the post-phase utility estimate (feeds the pruners).
    pub fn record_estimate(&mut self, metric: DistanceKind) -> f64 {
        let u = self.utility(metric);
        self.estimates.push(u);
        u
    }

    /// Mean of the recorded per-phase estimates (the running mean the
    /// Hoeffding–Serfling interval brackets). Falls back to the current
    /// utility if no estimate has been recorded.
    pub fn estimate_mean(&self) -> f64 {
        if self.estimates.is_empty() {
            0.0
        } else {
            self.estimates.iter().sum::<f64>() / self.estimates.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seedb_engine::{
        execute_combined, AggFunc, AggSpec, CombinedQuery, ExecStats, GroupEntry, GroupedResult,
        Predicate, SplitSpec,
    };
    use seedb_storage::{BoxedTable, ColumnDef, ColumnId, StoreKind, TableBuilder, Value};

    fn spec() -> ViewSpec {
        ViewSpec {
            id: 0,
            dim: ColumnId(0),
            measure: ColumnId(1),
            func: AggFunc::Avg,
        }
    }

    fn table() -> BoxedTable {
        let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")]);
        for (d, m) in [("a", 10.0), ("a", 20.0), ("b", 30.0), ("b", 50.0)] {
            b.push_row(&[Value::str(d), Value::Float(m)]).unwrap();
        }
        b.build(StoreKind::Column).unwrap()
    }

    /// Folds a combined (target + reference) result into `state`;
    /// `agg_idx` selects the view's aggregate within the shared result.
    fn merge_both(state: &mut ViewState, result: &GroupedResult, agg_idx: usize) {
        for entry in &result.groups {
            let pair = state.groups.pair(entry.key.code(0));
            pair.target.merge(&entry.target[agg_idx]);
            pair.reference.merge(&entry.reference[agg_idx]);
        }
    }

    /// Folds a single-sided result (from a separate target-only or
    /// reference-only query, as the unoptimized baseline issues) into the
    /// given side. The source values are read from the result's *target*
    /// accumulators, because a `TargetOnly` split accumulates there.
    fn merge_into_side(state: &mut ViewState, result: &GroupedResult, side: Side) {
        for entry in &result.groups {
            let pair = state.groups.pair(entry.key.code(0));
            match side {
                Side::Target => pair.target.merge(&entry.target[0]),
                Side::Reference => pair.reference.merge(&entry.target[0]),
            }
        }
    }

    fn run(split: SplitSpec) -> GroupedResult {
        execute_combined(
            table().as_ref(),
            &CombinedQuery::single(ColumnId(0), AggSpec::new(AggFunc::Avg, ColumnId(1)), split),
            &mut ExecStats::new(),
        )
    }

    #[test]
    fn merge_both_accumulates_target_and_reference() {
        let t = table();
        let pred = Predicate::col_eq_str(t.as_ref(), "d", "a");
        let result = run(SplitSpec::TargetVsAll(pred));
        let mut state = ViewState::new(spec());
        merge_both(&mut state, &result, 0);
        let (tv, rv) = state.value_vectors();
        assert_eq!(tv, vec![15.0, 0.0]); // target only has "a" rows
        assert_eq!(rv, vec![15.0, 40.0]); // reference = everything
    }

    #[test]
    fn merge_into_side_routes_single_sided_results() {
        let t = table();
        let target_pred = Predicate::col_eq_str(t.as_ref(), "d", "a");
        let t_result = run(SplitSpec::TargetOnly(target_pred.clone()));
        let r_result = run(SplitSpec::TargetOnly(Predicate::True));
        let mut state = ViewState::new(spec());
        merge_into_side(&mut state, &t_result, Side::Target);
        merge_into_side(&mut state, &r_result, Side::Reference);

        // Must equal the combined-split execution.
        let mut combined = ViewState::new(spec());
        merge_both(&mut combined, &run(SplitSpec::TargetVsAll(target_pred)), 0);
        assert_eq!(state.value_vectors(), combined.value_vectors());
    }

    #[test]
    fn utility_zero_when_target_equals_reference() {
        let result = run(SplitSpec::TargetVsAll(Predicate::True));
        let mut state = ViewState::new(spec());
        merge_both(&mut state, &result, 0);
        assert!(state.utility(DistanceKind::Emd).abs() < 1e-12);
    }

    #[test]
    fn utility_positive_on_deviation() {
        let t = table();
        let pred = Predicate::col_eq_str(t.as_ref(), "d", "a");
        let result = run(SplitSpec::TargetVsAll(pred));
        let mut state = ViewState::new(spec());
        merge_both(&mut state, &result, 0);
        assert!(state.utility(DistanceKind::Emd) > 0.1);
    }

    #[test]
    fn empty_state_has_zero_utility() {
        let state = ViewState::new(spec());
        assert_eq!(state.utility(DistanceKind::Emd), 0.0);
        assert_eq!(state.estimate_mean(), 0.0);
        assert_eq!(state.num_groups(), 0);
    }

    #[test]
    fn estimates_accumulate_and_average() {
        let t = table();
        let pred = Predicate::col_eq_str(t.as_ref(), "d", "a");
        let result = run(SplitSpec::TargetVsAll(pred));
        let mut state = ViewState::new(spec());
        merge_both(&mut state, &result, 0);
        let u1 = state.record_estimate(DistanceKind::Emd);
        let u2 = state.record_estimate(DistanceKind::Emd);
        assert_eq!(u1, u2);
        assert_eq!(state.estimates.len(), 2);
        assert!((state.estimate_mean() - u1).abs() < 1e-12);
    }

    #[test]
    fn export_reimport_round_trips_bit_for_bit() {
        let t = table();
        let pred = Predicate::col_eq_str(t.as_ref(), "d", "a");
        let result = run(SplitSpec::TargetVsAll(pred));
        let mut state = ViewState::new(spec());
        merge_both(&mut state, &result, 0);

        // What the cache keeps: a copy of the groups, folded into a fresh
        // state.
        let exported = state.groups().clone();
        let mut reimported = ViewState::new(spec());
        reimported.merge_groups(&exported);
        assert_eq!(state.value_vectors(), reimported.value_vectors());
        assert_eq!(state.group_keys(), reimported.group_keys());
        assert_eq!(
            state.utility(DistanceKind::Emd).to_bits(),
            reimported.utility(DistanceKind::Emd).to_bits()
        );
    }

    /// `marital` codes 0..3 in the dictionary, then — through the same
    /// state — a stray code past it, a wide non-dictionary code and NULL.
    fn coded_result(codes: &[u64]) -> GroupedResult {
        GroupedResult {
            group_by: vec![ColumnId(0)],
            aggregates: vec![AggSpec::new(AggFunc::Avg, ColumnId(1))],
            groups: codes
                .iter()
                .map(|&code| {
                    let mut target = Accumulator::new();
                    target.update(Some(code as f64 % 1000.0 + 1.0));
                    GroupEntry {
                        key: GroupKey::One(code),
                        target: vec![target.clone()],
                        reference: vec![target],
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn dense_and_map_groups_read_back_in_group_key_order() {
        let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")]);
        for d in ["p", "q", "r"] {
            b.push_row(&[Value::str(d), Value::Float(1.0)]).unwrap();
        }
        let t = b.build(StoreKind::Column).unwrap();
        // Dictionary codes, a stray one past the dictionary, float bits and
        // NULL, merged in no particular order and in two batches.
        let codes = [2, u64::MAX, 0, 7, 2.5f64.to_bits(), 1];
        let mut dense = ViewState::for_table(spec(), t.as_ref());
        let mut map = ViewState::new(spec());
        for state in [&mut dense, &mut map] {
            merge_both(state, &coded_result(&codes[..3]), 0);
            merge_both(state, &coded_result(&codes[2..]), 0);
        }
        let mut sorted: Vec<GroupKey> = codes.iter().map(|&c| GroupKey::One(c)).collect();
        sorted.sort();
        assert_eq!(dense.group_keys(), sorted);
        assert_eq!(map.group_keys(), sorted);
        assert_eq!(dense.value_vectors(), map.value_vectors());
        assert_eq!(dense.num_groups(), 6);
        assert_eq!(
            dense.utility(DistanceKind::Emd).to_bits(),
            map.utility(DistanceKind::Emd).to_bits()
        );
        // A phase's groups merged as such keep the order too.
        let mut again = ViewState::for_table(spec(), t.as_ref());
        again.merge_groups(dense.groups());
        again.merge_groups(dense.groups());
        assert_eq!(again.group_keys(), sorted);
        assert_eq!(again.value_vectors().0, dense.value_vectors().0);
    }

    #[test]
    fn group_keys_align_with_vectors() {
        let result = run(SplitSpec::TargetVsAll(Predicate::True));
        let mut state = ViewState::new(spec());
        merge_both(&mut state, &result, 0);
        assert_eq!(state.group_keys().len(), state.value_vectors().0.len());
    }
}
