//! Grouped aggregation with target/reference splitting.
//!
//! [`PartialAggregation`] is the phase-aware operator at the heart of the
//! engine: it can consume any number of row ranges (the phased framework
//! feeds it one partition per phase) and, after each, produce a consistent
//! snapshot or be *drained* — hand over what the ranges since the last
//! drain accumulated and start the next one empty, with its projection,
//! bound predicates, group keys and group index intact.
//! [`execute_combined`] is the one-shot convenience wrapper.
//!
//! Two execution modes share one accumulator representation and one
//! storage layout ([`crate::ExecMode`]): every group's accumulators live in
//! one flat `[group][side][aggregate]` array.
//!
//! * **Scalar** — the original row-at-a-time path: `Table::scan_range`
//!   yields a `Cell` slice per row and every row pays a hash lookup.
//! * **Vectorized** (default) — `Table::scan_batches` yields typed column
//!   slices; predicates evaluate to selection bitmaps
//!   ([`BoundPredicate::eval_batch`]), and group lookups go through a
//!   **dense index** whenever the grouping domain fits
//!   [`DENSE_CARDINALITY_MAX`]: dictionary-direct for single-attribute
//!   group-bys, **mixed-radix composite** for bin-packed multi-GROUP-BY
//!   clusters (per-attribute codes encode into one slot index,
//!   column-at-a-time over the batch's code slices — no `GroupKey`
//!   allocation, no hash probe and no per-attribute dispatch per row).
//!   Stray codes spill to the hash map; non-categorical attributes and
//!   oversized domains keep the hash path. Each batch resolves its
//!   selected rows to accumulator slots **once**, then runs one tight loop
//!   per measure over that vector and the measure's typed slice — for a
//!   NULL-free float column, one integer add per value into the slot's
//!   fixed-point lane ([`crate::agg`]), folded in before anything reads it.
//!
//! Aggregates over one measure share one accumulator **state** per group
//! and side, which keeps only what their functions read (`Needs`): the
//! exact sum for SUM and AVG, the extremes for MIN and MAX, the count for
//! all. Every update path — lanes, their stray pass, the per-value path
//! and the scalar mode — follows those needs, so both modes still build
//! equal accumulators. A result hands each aggregate its state's
//! accumulator projected on its own function's needs.
//!
//! A `TargetVsAll` split accumulates target and non-target rows into
//! disjoint sides — one update per selected row and state, not two —
//! and forms reference = target ⊕ non-target by exact merge when a result
//! is produced.
//!
//! Accumulators are exact and partials ([`PartialAggregation::merge`]) fold
//! exactly, so results are bit-identical across modes, phase partitions,
//! drains, and morsel-parallel execution — a property the equivalence test
//! suites assert exactly.

use crate::agg::{lane_powers, lane_term, lane_unit, Accumulator, AggFunc, Needs, LANE_BUDGET};
use crate::expr::BoundPredicate;
use crate::groupkey::GroupKey;
use crate::spec::{CombinedQuery, SplitSpec};
use crate::stats::ExecStats;
use crate::{ExecMode, GroupEntry, GroupedResult};
use rustc_hash::FxHashMap;
use seedb_storage::{Batch, BatchData, Bitmap, ColumnId, Table, DEFAULT_BATCH_SIZE};
use std::ops::Range;

/// Largest dictionary cardinality for which the vectorized path uses the
/// dense dictionary-direct group index. Beyond this (64 Ki distinct
/// values), a mostly-empty dense table would waste more cache than the
/// hash probes it avoids, so the engine falls back to hashing. The
/// decision rule itself lives in [`crate::cost::choose_group_index`] so
/// the planner's EXPLAIN output reports the engine's literal choice.
pub use crate::cost::DENSE_CARDINALITY_MAX;
use crate::cost::{group_index_for, GroupIndexKind};

/// Split predicates bound to projection slots.
// Variant names deliberately mirror the public `SplitSpec` they are
// lowered from, paper terminology included.
#[allow(clippy::enum_variant_names)]
enum BoundSplit {
    TargetVsAll(BoundPredicate),
    TargetVsComplement(BoundPredicate),
    TargetVsQuery(BoundPredicate, BoundPredicate),
    TargetOnly(BoundPredicate),
}

impl BoundSplit {
    /// Whether the reference is the target side plus the second side:
    /// `TargetVsAll` accumulates non-target rows on the second side, so
    /// every row feeds exactly one side.
    fn reference_includes_target(&self) -> bool {
        matches!(self, BoundSplit::TargetVsAll(_))
    }

    /// Classifies a row: `(feeds side 0, feeds side 1)`. Side 0 is the
    /// target; side 1 is the reference, except under `TargetVsAll`, where it
    /// is the non-target rest (see
    /// [`BoundSplit::reference_includes_target`]).
    #[inline]
    fn classify(&self, cells: &[seedb_storage::Cell]) -> (bool, bool) {
        match self {
            BoundSplit::TargetVsAll(p) | BoundSplit::TargetVsComplement(p) => {
                let t = p.eval(cells);
                (t, !t)
            }
            BoundSplit::TargetVsQuery(t, r) => (t.eval(cells), r.eval(cells)),
            BoundSplit::TargetOnly(p) => (p.eval(cells), false),
        }
    }

    /// Vectorized [`BoundSplit::classify`]: fills per-row side-0 / side-1
    /// selection bitmaps for a whole batch.
    fn classify_batch(&self, batch: &Batch<'_>, target: &mut Bitmap, reference: &mut Bitmap) {
        let n = batch.len();
        match self {
            BoundSplit::TargetVsAll(p) | BoundSplit::TargetVsComplement(p) => {
                p.eval_batch(batch, target);
                reference.copy_from(target);
                reference.invert();
            }
            BoundSplit::TargetVsQuery(t, r) => {
                t.eval_batch(batch, target);
                r.eval_batch(batch, reference);
            }
            BoundSplit::TargetOnly(p) => {
                p.eval_batch(batch, target);
                reference.reset(n, false);
            }
        }
    }
}

/// One grouping attribute's place in a composite (mixed-radix) dense
/// index: `base` radix values per attribute (dictionary cardinality + 1
/// for the NULL slot) and the attribute's positional `stride`.
#[derive(Debug, Clone, Copy)]
struct RadixDim {
    base: u64,
    stride: u64,
}

/// Mixed-radix slot of a code tuple, or `None` when any code falls outside
/// its planned radix (a stray code — e.g. from a different table instance —
/// which must spill to the hash map instead).
#[inline]
fn composite_slot(dims: &[RadixDim], codes: impl IntoIterator<Item = u64>) -> Option<usize> {
    let mut slot = 0u64;
    for (d, code) in dims.iter().zip(codes) {
        // NULL (code u64::MAX) owns sub-slot 0; code c owns c + 1.
        let sub = if code == u64::MAX { 0 } else { code + 1 };
        if sub >= d.base {
            return None;
        }
        slot += sub * d.stride;
    }
    Some(slot as usize)
}

/// Row `i`'s grouping codes, one per grouping attribute.
#[inline]
fn row_codes(batch: &Batch<'_>, group_slots: &[usize], i: usize, codes: &mut [u64]) {
    for (dst, &slot) in codes.iter_mut().zip(group_slots) {
        *dst = batch.column(slot).group_code(i);
    }
}

/// [`composite_slot`] for a whole batch, one grouping column at a time:
/// `out[i] = Σ (codeᵢ + 1) · strideᵢ` over the columns' code slices.
/// Returns `false` — leaving `out` unspecified — unless every grouping
/// column is a dense (NULL-free) dictionary-code slice whose codes all fall
/// inside the planned radix; the caller then resolves the batch row by row.
fn composite_slots(
    batch: &Batch<'_>,
    group_slots: &[usize],
    dims: &[RadixDim],
    out: &mut Vec<u32>,
) -> bool {
    out.clear();
    out.resize(batch.len(), 0);
    for (dim, &slot) in dims.iter().zip(group_slots) {
        let col = batch.column(slot);
        let (BatchData::Cat(codes), None) = (col.data, col.validity) else {
            return false;
        };
        // The dense domain Π baseᵢ is at most DENSE_CARDINALITY_MAX + 1, so
        // in-radix slots fit a u32; a stray code may wrap, and is caught by
        // the radix check below before `out` is read.
        let stride = dim.stride as u32;
        let mut max_code = 0u32;
        for (dst, &code) in out.iter_mut().zip(codes) {
            max_code = max_code.max(code);
            *dst = dst.wrapping_add(code.wrapping_add(1).wrapping_mul(stride));
        }
        if u64::from(max_code) + 1 >= dim.base {
            return false;
        }
    }
    true
}

/// Group-index strategy of the vectorized path.
enum DenseIndex {
    /// Not yet decided (no batch seen); resolved on the first update.
    Undecided,
    /// Hash lookups (non-categorical attribute or cardinality above
    /// [`DENSE_CARDINALITY_MAX`]).
    Disabled,
    /// Single-attribute dictionary-direct index: `slots[code + 1]` holds
    /// `entry_index + 1` (0 = group not yet observed); `slots[0]` is the
    /// NULL group's slot. Grows on demand for codes past the planning-time
    /// dictionary, up to the dense cap.
    Single { slots: Vec<u32> },
    /// Composite dense index for bin-packed multi-GROUP-BY clusters: the
    /// per-attribute dictionary codes are mixed-radix-encoded into one slot
    /// index (`Σ (codeᵢ + 1) · strideᵢ`, NULL = 0). Fixed-size — codes
    /// beyond an attribute's planned radix spill to the hash map.
    Composite {
        slots: Vec<u32>,
        dims: Vec<RadixDim>,
    },
}

/// Every group's key (in discovery order) and accumulator states, flat:
/// `accs[(group * 2 + side) * n_states + state]`, one state per distinct
/// measure. Side 0 is the target; side 1 the reference (or the non-target
/// rest, see [`BoundSplit::reference_includes_target`]). `group * 2 + side`
/// is a group-side **slot**.
///
/// Beside every accumulator sits its fixed-point **lane** (see
/// [`crate::agg`]'s module docs): the vectorized path adds a NULL-free float
/// column's values there, and [`Groups::fold_lanes`] moves what the lanes
/// hold into the accumulators before anything reads them.
///
/// Groups outlive a drain ([`PartialAggregation::drain`]): their keys and
/// index entries stay, their accumulators are reset and their row counts
/// zeroed.
struct Groups {
    n_states: usize,
    keys: Vec<GroupKey>,
    accs: Vec<Accumulator>,
    /// One lane per accumulator, zero when folded.
    lanes: Vec<i128>,
    /// Each state's lane unit (`None`: no lanes).
    lane_units: Vec<Option<u32>>,
    /// Upper bound on the values any lane absorbed since the last fold.
    lane_adds: u32,
    /// Rows that reached each slot since the last drain.
    rows: Vec<u64>,
}

impl Groups {
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Appends a group with empty accumulators; returns its index.
    fn push(&mut self, key: GroupKey) -> usize {
        self.keys.push(key);
        let slots = self.keys.len() * 2;
        self.rows.resize(slots, 0);
        self.lanes.resize(slots * self.n_states, 0);
        self.accs
            .resize_with(slots * self.n_states, Accumulator::new);
        self.keys.len() - 1
    }

    /// The group recorded in a dense-index `slot` (`index + 1`, 0 = none
    /// yet), created from `key` on first sight.
    #[inline]
    fn at_dense_slot(&mut self, slot: &mut u32, key: impl FnOnce() -> GroupKey) -> usize {
        if *slot == 0 {
            *slot = self.push(key()) as u32 + 1;
        }
        *slot as usize - 1
    }

    /// The group `map` records for `key`, created on first sight.
    fn at_key(&mut self, map: &mut FxHashMap<GroupKey, u32>, key: GroupKey) -> usize {
        match map.get(&key) {
            Some(&idx) => idx as usize,
            None => {
                let idx = self.push(key.clone());
                map.insert(key, idx as u32);
                idx
            }
        }
    }

    /// Whether a row (or merged partial) has reached `group` since the last
    /// drain.
    fn reached(&self, group: usize) -> bool {
        self.rows[group * 2] + self.rows[group * 2 + 1] > 0
    }

    /// Moves what the lanes hold into their accumulators.
    fn fold_lanes(&mut self) {
        if std::mem::take(&mut self.lane_adds) > 0 {
            fold_lanes(&self.lanes, &self.lane_units, &mut self.accs);
            self.lanes.fill(0);
        }
    }

    /// Adds the `selected` values of a NULL-free float column to state
    /// `state`'s lanes, one integer add per value; a stray (see
    /// [`lane_term`]) goes to its accumulator whole instead. With
    /// `EXTREMES` — the state also serves MIN or MAX — each value is
    /// compared with its accumulator's `min`/`max` as well, which are
    /// stored only when it widens them; without, the loop touches no
    /// accumulator. Returns how many values the lanes took, or `None` —
    /// nothing done — when the state has no lanes (or there is no group
    /// yet).
    #[inline(never)] // the lane loop wants the registers to itself
    fn add_to_lanes<const EXTREMES: bool>(
        &mut self,
        state: usize,
        values: &[f64],
        selected: &[(u32, u32)],
    ) -> Option<usize> {
        let unit = self.lane_units[state]?;
        let (powers, n_states) = (lane_powers(unit), self.n_states);
        let len = self.lanes.len().min(self.accs.len());
        let (lanes, accs) = (self.lanes.get_mut(state..len)?, &mut self.accs[state..len]);
        let mut any_stray = 0;
        for &(row, slot) in selected {
            let x = values[row as usize];
            let (term, stray) = lane_term(x.to_bits(), powers);
            any_stray |= stray;
            let i = slot as usize * n_states;
            lanes[i] += term;
            if EXTREMES && !(x > accs[i].min && x < accs[i].max) {
                accs[i].widen(x);
            }
        }
        if any_stray == 0 {
            return Some(selected.len());
        }
        let mut strays = 0;
        for &(row, slot) in selected {
            let x = values[row as usize];
            if lane_term(x.to_bits(), powers).1 != 0 {
                let i = slot as usize * n_states;
                lanes[i] -= 1;
                // The loop above took its extremes; the sum needs the window.
                accs[i].feed(Some(x), Needs::of(AggFunc::Sum));
                strays += 1;
            }
        }
        Some(selected.len() - strays)
    }
}

/// Folds `lanes` into `accs` — their own accumulators, or a copy of them —
/// both starting at a group boundary. (Only a placed lane is ever non-zero.)
fn fold_lanes(lanes: &[i128], units: &[Option<u32>], accs: &mut [Accumulator]) {
    for ((acc, &lane), unit) in accs.iter_mut().zip(lanes).zip(units.iter().cycle()) {
        acc.fold_lane(lane, unit.unwrap_or(0));
    }
}

/// Resumable grouped aggregation over a [`CombinedQuery`].
pub struct PartialAggregation {
    query: CombinedQuery,
    projection: Vec<ColumnId>,
    group_slots: Vec<usize>,
    /// One accumulator state per distinct measure, in first-seen order:
    /// its projection slot and the union of its aggregates' needs.
    states: Vec<(usize, Needs)>,
    /// Each aggregate's state and own needs — `None` when every aggregate
    /// has a state of its own, in list order, so a result hands the states
    /// over as they are.
    readers: Option<Vec<(usize, Needs)>>,
    filter: Option<BoundPredicate>,
    split: BoundSplit,
    mode: ExecMode,
    map: FxHashMap<GroupKey, u32>,
    dense: DenseIndex,
    groups: Groups,
    rows_consumed: u64,
    target_rows: u64,
}

impl PartialAggregation {
    /// Plans the projection and binds predicates for `query`, executing in
    /// the default [`ExecMode`].
    pub fn new(query: CombinedQuery) -> Self {
        Self::with_mode(query, ExecMode::default())
    }

    /// [`PartialAggregation::new`] with an explicit execution mode.
    pub fn with_mode(query: CombinedQuery, mode: ExecMode) -> Self {
        // Projection = group-by columns ++ measure columns ++ predicate
        // columns, deduplicated in that order.
        let mut projection: Vec<ColumnId> = Vec::new();
        let push = |c: ColumnId, projection: &mut Vec<ColumnId>| {
            if !projection.contains(&c) {
                projection.push(c);
            }
        };
        for &c in &query.group_by {
            push(c, &mut projection);
        }
        for a in &query.aggregates {
            push(a.measure, &mut projection);
        }
        let mut pred_cols = Vec::new();
        if let Some(f) = &query.filter {
            f.collect_columns(&mut pred_cols);
        }
        for p in query.split.predicates() {
            p.collect_columns(&mut pred_cols);
        }
        for c in pred_cols {
            push(c, &mut projection);
        }

        let slot_of = |col: ColumnId| -> usize {
            projection
                .iter()
                .position(|&c| c == col)
                .expect("column present in projection by construction")
        };
        let group_slots: Vec<usize> = query.group_by.iter().map(|&c| slot_of(c)).collect();
        let mut states: Vec<(usize, Needs)> = Vec::new();
        let readers: Vec<(usize, Needs)> = query
            .aggregates
            .iter()
            .map(|a| {
                let (slot, needs) = (slot_of(a.measure), Needs::of(a.func));
                let state = match states.iter().position(|&(s, _)| s == slot) {
                    Some(state) => state,
                    None => {
                        states.push((slot, Needs::default()));
                        states.len() - 1
                    }
                };
                states[state].1 = states[state].1.union(needs);
                (state, needs)
            })
            .collect();
        let readers = (readers.len() > states.len()).then_some(readers);
        let filter = query.filter.as_ref().map(|f| f.bind(&slot_of));
        let split = match &query.split {
            SplitSpec::TargetVsAll(p) => BoundSplit::TargetVsAll(p.bind(&slot_of)),
            SplitSpec::TargetVsComplement(p) => BoundSplit::TargetVsComplement(p.bind(&slot_of)),
            SplitSpec::TargetVsQuery { target, reference } => {
                BoundSplit::TargetVsQuery(target.bind(&slot_of), reference.bind(&slot_of))
            }
            SplitSpec::TargetOnly(p) => BoundSplit::TargetOnly(p.bind(&slot_of)),
        };

        let groups = Groups {
            n_states: states.len(),
            keys: Vec::new(),
            accs: Vec::new(),
            lanes: Vec::new(),
            lane_units: vec![None; states.len()],
            lane_adds: 0,
            rows: Vec::new(),
        };
        PartialAggregation {
            query,
            projection,
            group_slots,
            states,
            readers,
            filter,
            split,
            mode,
            map: FxHashMap::default(),
            dense: DenseIndex::Undecided,
            groups,
            rows_consumed: 0,
            target_rows: 0,
        }
    }

    /// Rows consumed since the last drain (across all `update` calls).
    pub fn rows_consumed(&self) -> u64 {
        self.rows_consumed
    }

    /// Rows since the last drain that were classified as target rows.
    pub fn target_rows(&self) -> u64 {
        self.target_rows
    }

    /// Number of groups currently maintained (the memory-budget quantity);
    /// drained groups keep their slot.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Consumes rows `range` of `table`, updating accumulators and `stats`.
    pub fn update(&mut self, table: &dyn Table, range: Range<usize>, stats: &mut ExecStats) {
        match self.mode {
            ExecMode::Scalar => self.update_scalar(table, range, stats),
            ExecMode::Vectorized => self.update_vectorized(table, range, stats),
        }
    }

    /// Row-at-a-time update through [`Table::scan_range`].
    fn update_scalar(&mut self, table: &dyn Table, range: Range<usize>, stats: &mut ExecStats) {
        let n_states = self.groups.n_states;
        let proj_width = self.projection.len();
        let start = range.start.min(table.num_rows());
        let end = range.end.min(table.num_rows());

        // Split borrows so the closure can touch disjoint fields.
        let map = &mut self.map;
        let groups = &mut self.groups;
        let group_slots = &self.group_slots;
        let states = &self.states;
        let filter = &self.filter;
        let split = &self.split;

        let mut codes: Vec<u64> = vec![0; group_slots.len()];
        let mut rows = 0u64;
        let mut target_rows = 0u64;
        let mut side_rows = 0u64;

        table.scan_range(&self.projection, start..end, &mut |cells| {
            rows += 1;
            if let Some(f) = filter {
                if !f.eval(cells) {
                    return;
                }
            }
            let (is_t, is_r) = split.classify(cells);
            if !is_t && !is_r {
                return;
            }
            if is_t {
                target_rows += 1;
            }
            side_rows += u64::from(is_t) + u64::from(is_r);
            for (dst, &slot) in codes.iter_mut().zip(group_slots) {
                *dst = cells[slot].group_code();
            }
            let group = groups.at_key(map, GroupKey::from_codes(&codes));
            groups.rows[group * 2] += u64::from(is_t);
            groups.rows[group * 2 + 1] += u64::from(is_r);
            let first = group * 2 * n_states;
            let (target, second) = groups.accs[first..first + 2 * n_states].split_at_mut(n_states);
            for (state, &(slot, needs)) in states.iter().enumerate() {
                let v = cells[slot].as_f64();
                if is_t {
                    target[state].feed(v, needs);
                }
                if is_r {
                    second[state].feed(v, needs);
                }
            }
        });

        self.rows_consumed += rows;
        self.target_rows += target_rows;
        stats.scan_passes += 1;
        stats.rows_scanned += rows;
        stats.cells_visited += rows * proj_width as u64;
        stats.accumulator_updates += side_rows * n_states as u64;
        stats.groups_max = stats.groups_max.max(self.groups.len() as u64);
    }

    /// Places the lanes and picks the vectorized path's group index on the
    /// first batch:
    ///
    /// * one categorical attribute of cardinality ≤
    ///   [`DENSE_CARDINALITY_MAX`] → the growable single-attribute
    ///   dictionary-direct index;
    /// * several attributes, all dictionary-encoded, whose mixed-radix
    ///   domain `Π (|aᵢ| + 1)` fits the dense cap → the composite
    ///   dense index (the bin-packed cluster case: the §4.1 memory budget
    ///   already bounds `Π |aᵢ|`, so packed clusters qualify whenever the
    ///   budget is within the cap);
    /// * anything else → hash lookups.
    fn ensure_group_index(&mut self, table: &dyn Table) {
        if !matches!(self.dense, DenseIndex::Undecided) {
            return;
        }
        // Lanes span the binades under each measure's largest magnitude;
        // a state that reads no sum has none.
        let units = self.groups.lane_units.iter_mut();
        for (unit, &(slot, needs)) in units.zip(&self.states) {
            let stats = table.stats(self.projection[slot]);
            let (low, high) = (stats.min.unwrap_or(0.0), stats.max.unwrap_or(0.0));
            let top = (low.abs().max(high.abs()).to_bits() >> 52) as u32;
            *unit = lane_unit(top).filter(|_| needs.sum);
        }
        // The dense-vs-hash decision is the cost model's — the planner
        // calls the same function, so EXPLAIN can never disagree with what
        // actually runs. This method only materializes the chosen index.
        self.dense = match group_index_for(table, &self.query.group_by) {
            GroupIndexKind::DenseSingle => {
                let d = table
                    .dictionary(self.query.group_by[0])
                    .expect("DenseSingle implies a dictionary");
                DenseIndex::Single {
                    // Slot 0 is the NULL group; code c maps to slot c + 1.
                    slots: vec![0; d.len() + 1],
                }
            }
            GroupIndexKind::DenseComposite => {
                let bases: Vec<u64> = self
                    .query
                    .group_by
                    .iter()
                    .map(|&col| {
                        table
                            .dictionary(col)
                            .expect("DenseComposite implies dictionaries")
                            .len() as u64
                            + 1 // + NULL slot
                    })
                    .collect();
                // Last attribute varies fastest (row-major radix layout);
                // the final stride is the full domain Π (|aᵢ| + 1).
                let mut dims = vec![RadixDim { base: 0, stride: 0 }; bases.len()];
                let mut stride = 1u64;
                for (i, &base) in bases.iter().enumerate().rev() {
                    dims[i] = RadixDim { base, stride };
                    stride *= base;
                }
                DenseIndex::Composite {
                    slots: vec![0; stride as usize],
                    dims,
                }
            }
            GroupIndexKind::Hash => DenseIndex::Disabled,
        };
    }

    /// Batched update through [`Table::scan_batches`]: per-batch selection
    /// bitmaps, one pass resolving every selected row to its group-side
    /// slot, then one tight accumulation loop per state over typed slices.
    fn update_vectorized(&mut self, table: &dyn Table, range: Range<usize>, stats: &mut ExecStats) {
        let n_states = self.groups.n_states;
        let proj_width = self.projection.len();
        let start = range.start.min(table.num_rows());
        let end = range.end.min(table.num_rows());

        self.ensure_group_index(table);

        // Split borrows so the closure can touch disjoint fields.
        let map = &mut self.map;
        let dense = &mut self.dense;
        let groups = &mut self.groups;
        let group_slots = &self.group_slots;
        let states = &self.states;
        let filter = &self.filter;
        let split = &self.split;

        let mut rows = 0u64;
        let mut target_rows = 0u64;
        let mut updates = 0u64;
        let mut lane_updates = 0u64;

        // Per-batch scratch, reused across batches.
        let mut t_bits = Bitmap::new();
        let mut r_bits = Bitmap::new();
        let mut f_bits = Bitmap::new();
        let mut codes: Vec<u64> = vec![0; group_slots.len()];
        // Composite slot of every batch row (column-at-a-time pass).
        let mut row_slots: Vec<u32> = Vec::new();
        // (row in batch, group-side slot) of every update the batch owes,
        // in row order.
        let mut selected: Vec<(u32, u32)> = Vec::new();

        table.scan_batches(
            &self.projection,
            start..end,
            DEFAULT_BATCH_SIZE,
            &mut |batch| {
                rows += batch.len() as u64;

                split.classify_batch(batch, &mut t_bits, &mut r_bits);
                if let Some(f) = filter {
                    f.eval_batch(batch, &mut f_bits);
                    t_bits.and_assign(&f_bits);
                    r_bits.and_assign(&f_bits);
                }

                // Which side a row feeds is data, not a pattern: both
                // entries are written and the side bits move the cursor.
                selected.resize(2 * batch.len(), (0, 0));
                let mut owed = 0;
                let mut select = |row: usize, group: usize, is_t: bool, is_r: bool| {
                    target_rows += u64::from(is_t);
                    selected[owed] = (row as u32, group as u32 * 2);
                    owed += usize::from(is_t);
                    selected[owed] = (row as u32, group as u32 * 2 + 1);
                    owed += usize::from(is_r);
                };
                match dense {
                    DenseIndex::Single { slots } => {
                        // Dense dictionary-direct path: one group attribute,
                        // group looked up by dictionary code. The common
                        // case — a dense categorical batch slice — reads codes
                        // straight from the slice without per-row dispatch.
                        let gcol = *batch.column(group_slots[0]);
                        let cat_codes = match (gcol.data, gcol.validity) {
                            (BatchData::Cat(v), None) => Some(v),
                            _ => None,
                        };
                        for_each_selected(&t_bits, &r_bits, |i, is_t, is_r| {
                            let code = match cat_codes {
                                Some(v) => v[i] as u64,
                                None => gcol.group_code(i),
                            };
                            let si = if code == u64::MAX {
                                0
                            } else {
                                code as usize + 1
                            };
                            let group = if si <= DENSE_CARDINALITY_MAX + 1 {
                                if si >= slots.len() {
                                    // A code beyond the planning-time dictionary
                                    // (e.g. a different table instance): grow,
                                    // bounded by the dense cardinality cap.
                                    slots.resize(si + 1, 0);
                                }
                                groups.at_dense_slot(&mut slots[si], || GroupKey::One(code))
                            } else {
                                // A stray code past the dense cap must not
                                // force a huge, mostly-empty dense table:
                                // overflow such groups into the hash map (keys
                                // stay disjoint — the dense table owns every
                                // code at or below the cap).
                                groups.at_key(map, GroupKey::One(code))
                            };
                            select(i, group, is_t, is_r);
                        });
                    }
                    DenseIndex::Composite { slots, dims } => {
                        // Composite dense path: the bin-packed multi-GROUP-BY
                        // cluster. Per-attribute codes are mixed-radix-encoded
                        // into one slot — no `GroupKey` allocation and no hash
                        // probe per row. The usual batch (every grouping
                        // column a dense code slice, every code in radix)
                        // encodes column-at-a-time, leaving one slot read per
                        // selected row; its key is only materialised on a
                        // group's first sight.
                        if composite_slots(batch, group_slots, dims, &mut row_slots) {
                            for_each_selected(&t_bits, &r_bits, |i, is_t, is_r| {
                                let entry = &mut slots[row_slots[i] as usize];
                                let group = groups.at_dense_slot(entry, || {
                                    row_codes(batch, group_slots, i, &mut codes);
                                    GroupKey::from_codes(&codes)
                                });
                                select(i, group, is_t, is_r);
                            });
                        } else {
                            // Row-wise: NULLs, non-slice columns, or stray
                            // codes (outside an attribute's planned radix),
                            // which spill to the hash map; the two key spaces
                            // are disjoint because the dense table owns
                            // exactly the in-radix tuples.
                            for_each_selected(&t_bits, &r_bits, |i, is_t, is_r| {
                                row_codes(batch, group_slots, i, &mut codes);
                                let group = match composite_slot(dims, codes.iter().copied()) {
                                    Some(si) => groups.at_dense_slot(&mut slots[si], || {
                                        GroupKey::from_codes(&codes)
                                    }),
                                    None => groups.at_key(map, GroupKey::from_codes(&codes)),
                                };
                                select(i, group, is_t, is_r);
                            });
                        }
                    }
                    DenseIndex::Disabled | DenseIndex::Undecided => {
                        // Hash path (non-dense attribute or oversized domain).
                        for_each_selected(&t_bits, &r_bits, |i, is_t, is_r| {
                            row_codes(batch, group_slots, i, &mut codes);
                            let group = groups.at_key(map, GroupKey::from_codes(&codes));
                            select(i, group, is_t, is_r);
                        });
                    }
                }

                selected.truncate(owed);
                if groups.lane_adds + selected.len() as u32 > LANE_BUDGET {
                    groups.fold_lanes();
                }
                groups.lane_adds += selected.len() as u32;
                for &(_, slot) in &selected {
                    groups.rows[slot as usize] += 1;
                }

                // One loop per state: a dense `f64` column (the common
                // measure shape) streams into its lanes, one per slot;
                // anything else feeds the accumulators a value at a time.
                updates += (selected.len() * n_states) as u64;
                for (state, &(slot, needs)) in states.iter().enumerate() {
                    let col = batch.column(slot);
                    if let (BatchData::Float(values), None) = (col.data, col.validity) {
                        let taken = if needs.extremes {
                            groups.add_to_lanes::<true>(state, values, &selected)
                        } else {
                            groups.add_to_lanes::<false>(state, values, &selected)
                        };
                        if let Some(taken) = taken {
                            lane_updates += taken as u64;
                            continue;
                        }
                    }
                    for &(row, gs) in &selected {
                        let acc = &mut groups.accs[gs as usize * n_states + state];
                        acc.feed(col.value_f64(row as usize), needs);
                    }
                }
            },
        );

        self.rows_consumed += rows;
        self.target_rows += target_rows;
        stats.scan_passes += 1;
        stats.rows_scanned += rows;
        stats.cells_visited += rows * proj_width as u64;
        stats.accumulator_updates += updates;
        stats.fixed_lane_updates += lane_updates;
        stats.groups_max = stats.groups_max.max(self.groups.len() as u64);
    }

    /// Looks up (or creates) the group for `key`, routing through whichever
    /// group index this aggregation runs — the merge-path twin of the
    /// per-row lookups in `update_vectorized`. Dense-vs-hash ownership is
    /// identical to the update path, so merging partials that used the same
    /// plan keeps the two key spaces disjoint.
    fn group_for_key(&mut self, key: &GroupKey) -> usize {
        let dense_slot = match &mut self.dense {
            DenseIndex::Single { slots } => {
                let code = key.code(0);
                let si = if code == u64::MAX {
                    0
                } else {
                    code as usize + 1
                };
                (si <= DENSE_CARDINALITY_MAX + 1).then(|| {
                    if si >= slots.len() {
                        slots.resize(si + 1, 0);
                    }
                    &mut slots[si]
                })
            }
            DenseIndex::Composite { slots, dims } => {
                composite_slot(dims, (0..key.arity()).map(|i| key.code(i))).map(|si| &mut slots[si])
            }
            DenseIndex::Disabled | DenseIndex::Undecided => None,
        };
        match dense_slot {
            Some(slot) => self.groups.at_dense_slot(slot, || key.clone()),
            None => self.groups.at_key(&mut self.map, key.clone()),
        }
    }

    /// Folds another partial aggregation of the **same plan** (query shape
    /// and mode) into this one, merging per-group accumulators, and leaves
    /// `other` drained (see [`PartialAggregation::drain`]) — ready to
    /// aggregate further ranges on its own. Because accumulators merge
    /// exactly (see [`Accumulator::merge`]), folding morsel partials — in
    /// any order — produces results bit-identical to a single serial scan.
    ///
    /// # Panics
    /// Debug-asserts that both sides execute the same group-by and
    /// aggregate list.
    pub fn merge(&mut self, other: &mut PartialAggregation) {
        debug_assert_eq!(self.query.group_by, other.query.group_by, "plan mismatch");
        debug_assert_eq!(
            self.query.aggregates, other.query.aggregates,
            "plan mismatch"
        );
        self.rows_consumed += std::mem::take(&mut other.rows_consumed);
        self.target_rows += std::mem::take(&mut other.target_rows);
        if self.groups.len() == 0 && matches!(self.dense, DenseIndex::Undecided) {
            // This side never consumed a batch: trade states wholesale
            // (index structure included).
            std::mem::swap(&mut self.dense, &mut other.dense);
            std::mem::swap(&mut self.map, &mut other.map);
            std::mem::swap(&mut self.groups, &mut other.groups);
            return;
        }
        // Lanes of one scale add up as they are, within one budget; lanes
        // of another (a partial fed another table) are folded first.
        if self.groups.lane_units != other.groups.lane_units {
            other.groups.fold_lanes();
        }
        if self.groups.lane_adds + other.groups.lane_adds > LANE_BUDGET {
            self.groups.fold_lanes();
        }
        self.groups.lane_adds += std::mem::take(&mut other.groups.lane_adds);
        let per_group = 2 * self.groups.n_states;
        for group in 0..other.groups.len() {
            if !other.groups.reached(group) {
                continue;
            }
            let into = self.group_for_key(&other.groups.keys[group]);
            for side in 0..2 {
                self.groups.rows[into * 2 + side] +=
                    std::mem::take(&mut other.groups.rows[group * 2 + side]);
            }
            let (mine, theirs) = (into * per_group.., group * per_group..);
            let lanes = other.groups.lanes[theirs.clone()][..per_group].iter_mut();
            for (mine, theirs) in self.groups.lanes[mine.clone()].iter_mut().zip(lanes) {
                *mine += std::mem::take(theirs);
            }
            let accs = other.groups.accs[theirs][..per_group].iter_mut();
            for (mine, theirs) in self.groups.accs[mine].iter_mut().zip(accs) {
                mine.merge(theirs);
                theirs.reset();
            }
        }
    }

    /// Groups a row (or merged partial) has reached since the last drain —
    /// the groups a result produced now would hold.
    pub fn touched_groups(&self) -> usize {
        (0..self.groups.len())
            .filter(|&group| self.groups.reached(group))
            .count()
    }

    /// Hands every group reached since the last drain to `visit(key,
    /// target, reference)` — in discovery order, the reference side formed
    /// (target ⊕ non-target when the split kept them disjoint) — then
    /// empties it: accumulators reset, row counters zeroed. Group keys, the
    /// group index and the bound predicates stay, so the next range pays no
    /// set-up and no group re-discovery; a group no later row reaches is
    /// simply not visited again. The visitor gets one accumulator per
    /// aggregate, in query order, and may move them out.
    pub fn drain(
        &mut self,
        mut visit: impl FnMut(&GroupKey, &mut [Accumulator], &mut [Accumulator]),
    ) {
        self.rows_consumed = 0;
        self.target_rows = 0;
        let reference_includes_target = self.split.reference_includes_target();
        let n_states = self.groups.n_states;
        self.groups.fold_lanes();
        let (mut shared_target, mut shared_reference) = (Vec::new(), Vec::new());
        for group in 0..self.groups.len() {
            if !self.groups.reached(group) {
                continue;
            }
            self.groups.rows[group * 2..][..2].fill(0);
            let sides = &mut self.groups.accs[group * 2 * n_states..][..2 * n_states];
            let (target, reference) = sides.split_at_mut(n_states);
            if reference_includes_target {
                for (r, t) in reference.iter_mut().zip(target.iter()) {
                    r.merge(t);
                }
            }
            let key = &self.groups.keys[group];
            match &self.readers {
                None => visit(key, target, reference),
                Some(readers) => {
                    shared_target.clear();
                    shared_target.extend(per_aggregate(readers, target));
                    shared_reference.clear();
                    shared_reference.extend(per_aggregate(readers, reference));
                    visit(key, &mut shared_target, &mut shared_reference);
                }
            }
            sides.iter_mut().for_each(Accumulator::reset);
        }
    }

    /// [`PartialAggregation::drain`] into a sorted [`GroupedResult`]: the
    /// accumulators move; only aggregates that share a state get copies.
    pub fn drain_result(&mut self) -> GroupedResult {
        let mut groups = Vec::with_capacity(self.touched_groups());
        self.drain(|key, target, reference| {
            groups.push(GroupEntry {
                key: key.clone(),
                target: target.iter_mut().map(std::mem::take).collect(),
                reference: reference.iter_mut().map(std::mem::take).collect(),
            });
        });
        self.sorted_result(groups)
    }

    /// `groups` of this aggregation's query as a key-sorted result.
    fn sorted_result(&self, mut groups: Vec<GroupEntry>) -> GroupedResult {
        groups.sort_by(|a, b| a.key.cmp(&b.key));
        GroupedResult {
            group_by: self.query.group_by.clone(),
            aggregates: self.query.aggregates.clone(),
            groups,
        }
    }

    /// Clones the state accumulated since the last drain into a sorted
    /// [`GroupedResult`], leaving the aggregation untouched (for callers
    /// that keep feeding it ranges).
    pub fn snapshot(&self) -> GroupedResult {
        let n_states = self.groups.n_states;
        let groups: Vec<GroupEntry> = (0..self.groups.len())
            .filter(|&group| self.groups.reached(group))
            .map(|group| {
                let sides = group * 2 * n_states..(group + 1) * 2 * n_states;
                let mut target = self.groups.accs[sides.clone()].to_vec();
                fold_lanes(
                    &self.groups.lanes[sides],
                    &self.groups.lane_units,
                    &mut target,
                );
                let mut reference = target.split_off(n_states);
                if self.split.reference_includes_target() {
                    for (r, t) in reference.iter_mut().zip(&target) {
                        r.merge(t);
                    }
                }
                if let Some(readers) = &self.readers {
                    target = per_aggregate(readers, &target).collect();
                    reference = per_aggregate(readers, &reference).collect();
                }
                GroupEntry {
                    key: self.groups.keys[group].clone(),
                    target,
                    reference,
                }
            })
            .collect();
        self.sorted_result(groups)
    }

    /// Consumes the aggregation, producing the final sorted result.
    pub fn finalize(mut self) -> GroupedResult {
        self.drain_result()
    }
}

/// Each aggregate's accumulator out of one group-side's `states`: its
/// state's, keeping only what the aggregate's own function reads — what a
/// query of that aggregate alone would have built.
fn per_aggregate<'a>(
    readers: &'a [(usize, Needs)],
    states: &'a [Accumulator],
) -> impl Iterator<Item = Accumulator> + 'a {
    readers
        .iter()
        .map(|&(state, needs)| states[state].project(needs))
}

/// Calls `body(row, on_side_0, on_side_1)` for every row selected on
/// either side, walking the two selection bitmaps one word at a time and
/// skipping unselected rows with bit tricks. Rows are visited in ascending
/// order, preserving scalar-path accumulation order.
#[inline]
fn for_each_selected(t_bits: &Bitmap, r_bits: &Bitmap, mut body: impl FnMut(usize, bool, bool)) {
    for (w, (&tw, &rw)) in t_bits.words().iter().zip(r_bits.words()).enumerate() {
        let mut any = tw | rw;
        while any != 0 {
            let bit = any.trailing_zeros() as usize;
            any &= any - 1;
            let i = (w << 6) | bit;
            body(i, (tw >> bit) & 1 == 1, (rw >> bit) & 1 == 1);
        }
    }
}

/// Executes `query` over the whole table in a single pass, in the default
/// [`ExecMode`].
pub fn execute_combined(
    table: &dyn Table,
    query: &CombinedQuery,
    stats: &mut ExecStats,
) -> GroupedResult {
    execute_combined_with_mode(table, query, ExecMode::default(), stats)
}

/// [`execute_combined`] with an explicit execution mode.
pub fn execute_combined_with_mode(
    table: &dyn Table,
    query: &CombinedQuery,
    mode: ExecMode,
    stats: &mut ExecStats,
) -> GroupedResult {
    stats.queries_issued += 1;
    let mut agg = PartialAggregation::with_mode(query.clone(), mode);
    agg.update(table, 0..table.num_rows(), stats);
    agg.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Predicate;
    use crate::spec::AggSpec;
    use seedb_storage::{
        BoxedTable, ColumnDef, ColumnRole, ColumnType, StoreKind, TableBuilder, Value,
    };

    /// sex | marital | gain
    fn census_mini(kind: StoreKind) -> BoxedTable {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("sex"),
            ColumnDef::dim("marital"),
            ColumnDef::new("gain", ColumnType::Float64, ColumnRole::Measure),
        ]);
        let rows = [
            ("F", "unmarried", 500.0),
            ("M", "unmarried", 480.0),
            ("F", "married", 300.0),
            ("M", "married", 700.0),
            ("F", "unmarried", 520.0),
            ("M", "married", 660.0),
        ];
        for (s, m, g) in rows {
            b.push_row(&[Value::str(s), Value::str(m), Value::Float(g)])
                .unwrap();
        }
        b.build(kind).unwrap()
    }

    fn unmarried(table: &dyn Table) -> Predicate {
        Predicate::col_eq_str(table, "marital", "unmarried")
    }

    #[test]
    fn count_group_by_whole_table() {
        for kind in [StoreKind::Row, StoreKind::Column] {
            let t = census_mini(kind);
            let q = CombinedQuery::single(
                ColumnId(0),
                AggSpec::new(AggFunc::Count, ColumnId(2)),
                SplitSpec::TargetOnly(Predicate::True),
            );
            let mut stats = ExecStats::default();
            let r = execute_combined(t.as_ref(), &q, &mut stats);
            assert_eq!(r.num_groups(), 2);
            // F interned first => code 0 sorts first.
            let (target, _) = r.value_vectors(0);
            assert_eq!(target, vec![3.0, 3.0]);
            assert_eq!(stats.queries_issued, 1);
            assert_eq!(stats.rows_scanned, 6);
        }
    }

    #[test]
    fn avg_with_target_vs_all_split() {
        let t = census_mini(StoreKind::Column);
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Avg, ColumnId(2)),
            SplitSpec::TargetVsAll(unmarried(t.as_ref())),
        );
        let mut stats = ExecStats::default();
        let r = execute_combined(t.as_ref(), &q, &mut stats);
        let (target, reference) = r.value_vectors(0);
        // Target (unmarried): F avg = (500+520)/2 = 510, M = 480.
        assert_eq!(target, vec![510.0, 480.0]);
        // Reference (all rows): F avg = (500+300+520)/3 = 440, M = (480+700+660)/3.
        assert!((reference[0] - 440.0).abs() < 1e-9);
        assert!((reference[1] - (480.0 + 700.0 + 660.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn complement_split_partitions_rows() {
        let t = census_mini(StoreKind::Row);
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Count, ColumnId(2)),
            SplitSpec::TargetVsComplement(unmarried(t.as_ref())),
        );
        let r = execute_combined(t.as_ref(), &q, &mut ExecStats::default());
        let (target, reference) = r.value_vectors(0);
        // Unmarried: F=2, M=1. Married: F=1, M=2.
        assert_eq!(target, vec![2.0, 1.0]);
        assert_eq!(reference, vec![1.0, 2.0]);
        // Target + complement = whole table.
        assert_eq!(
            target.iter().sum::<f64>() + reference.iter().sum::<f64>(),
            t.num_rows() as f64
        );
    }

    #[test]
    fn target_vs_query_split() {
        let t = census_mini(StoreKind::Column);
        let married = Predicate::col_eq_str(t.as_ref(), "marital", "married");
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Avg, ColumnId(2)),
            SplitSpec::TargetVsQuery {
                target: unmarried(t.as_ref()),
                reference: married,
            },
        );
        let r = execute_combined(t.as_ref(), &q, &mut ExecStats::default());
        let (target, reference) = r.value_vectors(0);
        assert_eq!(target, vec![510.0, 480.0]);
        assert_eq!(reference, vec![300.0, 680.0]);
    }

    #[test]
    fn multiple_aggregates_in_one_scan() {
        let t = census_mini(StoreKind::Column);
        let q = CombinedQuery {
            group_by: vec![ColumnId(0)],
            aggregates: vec![
                AggSpec::new(AggFunc::Count, ColumnId(2)),
                AggSpec::new(AggFunc::Sum, ColumnId(2)),
                AggSpec::new(AggFunc::Max, ColumnId(2)),
            ],
            filter: None,
            split: SplitSpec::TargetVsAll(Predicate::True),
        };
        let mut stats = ExecStats::default();
        let r = execute_combined(t.as_ref(), &q, &mut stats);
        assert_eq!(stats.scan_passes, 1); // all three aggregates in one pass
        let (count, _) = r.value_vectors(0);
        let (sum, _) = r.value_vectors(1);
        let (max, _) = r.value_vectors(2);
        assert_eq!(count, vec![3.0, 3.0]);
        assert_eq!(sum, vec![1320.0, 1840.0]);
        assert_eq!(max, vec![520.0, 700.0]);
    }

    #[test]
    fn multi_group_by_maintains_cross_product_groups() {
        let t = census_mini(StoreKind::Column);
        let q = CombinedQuery {
            group_by: vec![ColumnId(0), ColumnId(1)],
            aggregates: vec![AggSpec::new(AggFunc::Count, ColumnId(2))],
            filter: None,
            split: SplitSpec::TargetVsAll(Predicate::True),
        };
        let r = execute_combined(t.as_ref(), &q, &mut ExecStats::default());
        assert_eq!(r.num_groups(), 4); // (F,M) × (unmarried,married)
    }

    #[test]
    fn filter_restricts_scan() {
        let t = census_mini(StoreKind::Column);
        let q = CombinedQuery {
            group_by: vec![ColumnId(0)],
            aggregates: vec![AggSpec::new(AggFunc::Count, ColumnId(2))],
            filter: Some(Predicate::col_eq_str(t.as_ref(), "sex", "F")),
            split: SplitSpec::TargetVsAll(Predicate::True),
        };
        let r = execute_combined(t.as_ref(), &q, &mut ExecStats::default());
        assert_eq!(r.num_groups(), 1);
        let (target, _) = r.value_vectors(0);
        assert_eq!(target, vec![3.0]);
    }

    #[test]
    fn phased_updates_equal_single_pass() {
        let t = census_mini(StoreKind::Row);
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Avg, ColumnId(2)),
            SplitSpec::TargetVsAll(unmarried(t.as_ref())),
        );
        let mut stats = ExecStats::default();
        let one_shot = execute_combined(t.as_ref(), &q, &mut stats);

        let mut partial = PartialAggregation::new(q);
        let mut stats2 = ExecStats::default();
        partial.update(t.as_ref(), 0..2, &mut stats2);
        partial.update(t.as_ref(), 2..4, &mut stats2);
        partial.update(t.as_ref(), 4..6, &mut stats2);
        assert_eq!(partial.rows_consumed(), 6);
        let phased = partial.finalize();

        assert_eq!(one_shot.num_groups(), phased.num_groups());
        let (t1, r1) = one_shot.value_vectors(0);
        let (t2, r2) = phased.value_vectors(0);
        assert_eq!(t1, t2);
        assert_eq!(r1, r2);
        assert_eq!(stats2.scan_passes, 3);
    }

    #[test]
    fn snapshot_is_consistent_mid_stream() {
        let t = census_mini(StoreKind::Column);
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Count, ColumnId(2)),
            SplitSpec::TargetVsAll(Predicate::True),
        );
        let mut partial = PartialAggregation::new(q);
        partial.update(t.as_ref(), 0..3, &mut ExecStats::default());
        let snap = partial.snapshot();
        let total: f64 = snap.value_vectors(0).0.iter().sum();
        assert_eq!(total, 3.0);
        // Continue after snapshot; snapshot was a true copy.
        partial.update(t.as_ref(), 3..6, &mut ExecStats::default());
        let total2: f64 = partial.finalize().value_vectors(0).0.iter().sum();
        assert_eq!(total2, 6.0);
        let total_snap: f64 = snap.value_vectors(0).0.iter().sum();
        assert_eq!(total_snap, 3.0);
    }

    #[test]
    fn empty_target_selection_yields_empty_target_side() {
        let t = census_mini(StoreKind::Column);
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Avg, ColumnId(2)),
            SplitSpec::TargetVsAll(Predicate::False),
        );
        let r = execute_combined(t.as_ref(), &q, &mut ExecStats::default());
        // Groups exist (reference side saw rows) but target accumulators are empty.
        assert_eq!(r.num_groups(), 2);
        let (target, reference) = r.value_vectors(0);
        assert_eq!(target, vec![0.0, 0.0]); // AVG of empty -> None -> 0.0
        assert!(reference.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn dense_index_overflow_codes_spill_to_hash() {
        // Plan the dense index against a tiny dictionary, then feed a table
        // whose dictionary codes run past DENSE_CARDINALITY_MAX: the stray
        // codes must spill into the hash map (bounding the dense table's
        // growth at the cap) while producing exactly the scalar result.
        let build_with_card = |card: usize| -> BoxedTable {
            let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")]);
            for i in 0..card {
                b.push_row(&[Value::str(format!("v{i}")), Value::Float(1.0)])
                    .unwrap();
            }
            b.build(StoreKind::Column).unwrap()
        };
        let small = build_with_card(2);
        let big = build_with_card(DENSE_CARDINALITY_MAX + 40);

        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Count, ColumnId(1)),
            SplitSpec::TargetVsAll(Predicate::True),
        );
        let run = |mode: crate::ExecMode| -> GroupedResult {
            let mut agg = PartialAggregation::with_mode(q.clone(), mode);
            let mut stats = ExecStats::default();
            agg.update(small.as_ref(), 0..small.num_rows(), &mut stats);
            agg.update(big.as_ref(), 0..big.num_rows(), &mut stats);
            agg.finalize()
        };
        let vectorized = run(crate::ExecMode::Vectorized);
        let scalar = run(crate::ExecMode::Scalar);
        assert_eq!(vectorized.num_groups(), DENSE_CARDINALITY_MAX + 40);
        assert_eq!(vectorized.num_groups(), scalar.num_groups());
        for (a, b) in vectorized.groups.iter().zip(&scalar.groups) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.target, b.target);
        }
    }

    #[test]
    fn composite_dense_matches_scalar_for_multi_group_by() {
        // sex × marital fits the mixed-radix dense cap easily, so the
        // vectorized path uses the composite index; results must be
        // bit-identical to the (hash-only) scalar oracle.
        for kind in [StoreKind::Row, StoreKind::Column] {
            let t = census_mini(kind);
            let q = CombinedQuery {
                group_by: vec![ColumnId(0), ColumnId(1)],
                aggregates: vec![
                    AggSpec::new(AggFunc::Avg, ColumnId(2)),
                    AggSpec::new(AggFunc::Sum, ColumnId(2)),
                ],
                filter: None,
                split: SplitSpec::TargetVsComplement(unmarried(t.as_ref())),
            };
            let vectorized = execute_combined_with_mode(
                t.as_ref(),
                &q,
                crate::ExecMode::Vectorized,
                &mut ExecStats::default(),
            );
            let scalar = execute_combined_with_mode(
                t.as_ref(),
                &q,
                crate::ExecMode::Scalar,
                &mut ExecStats::default(),
            );
            assert_eq!(vectorized.num_groups(), 4);
            assert_eq!(vectorized.num_groups(), scalar.num_groups());
            for (a, b) in vectorized.groups.iter().zip(&scalar.groups) {
                assert_eq!(a.key, b.key);
                assert_eq!(a.target, b.target);
                assert_eq!(a.reference, b.reference);
            }
        }
    }

    #[test]
    fn composite_dense_stray_codes_spill_to_hash() {
        // Plan the composite index against tiny dictionaries, then feed a
        // table whose codes exceed the planned radix on both attributes:
        // the strays must spill to the hash map while matching the scalar
        // result exactly.
        let build = |card_a: usize, card_b: usize| -> BoxedTable {
            let mut b = TableBuilder::new(vec![
                ColumnDef::dim("a"),
                ColumnDef::dim("b"),
                ColumnDef::measure("m"),
            ]);
            let rows = card_a.max(card_b);
            for i in 0..rows {
                b.push_row(&[
                    Value::str(format!("a{}", i % card_a)),
                    Value::str(format!("b{}", i % card_b)),
                    Value::Float(i as f64 + 0.5),
                ])
                .unwrap();
            }
            b.build(StoreKind::Column).unwrap()
        };
        let small = build(2, 2);
        let big = build(9, 5);
        let q = CombinedQuery {
            group_by: vec![ColumnId(0), ColumnId(1)],
            aggregates: vec![AggSpec::new(AggFunc::Sum, ColumnId(2))],
            filter: None,
            split: SplitSpec::TargetVsAll(Predicate::True),
        };
        let run = |mode: crate::ExecMode| -> GroupedResult {
            let mut agg = PartialAggregation::with_mode(q.clone(), mode);
            let mut stats = ExecStats::default();
            agg.update(small.as_ref(), 0..small.num_rows(), &mut stats);
            agg.update(big.as_ref(), 0..big.num_rows(), &mut stats);
            agg.finalize()
        };
        let vectorized = run(crate::ExecMode::Vectorized);
        let scalar = run(crate::ExecMode::Scalar);
        assert_eq!(vectorized.num_groups(), scalar.num_groups());
        for (a, b) in vectorized.groups.iter().zip(&scalar.groups) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.target, b.target);
        }
    }

    #[test]
    fn merge_of_disjoint_partials_equals_single_pass() {
        // Split the table into three ranges, aggregate each into its own
        // partial, merge in order — must equal the one-shot result bitwise,
        // for both the dense single-dim and composite shapes.
        for group_by in [vec![ColumnId(0)], vec![ColumnId(0), ColumnId(1)]] {
            let t = census_mini(StoreKind::Column);
            let q = CombinedQuery {
                group_by,
                aggregates: vec![AggSpec::new(AggFunc::Avg, ColumnId(2))],
                filter: None,
                split: SplitSpec::TargetVsAll(unmarried(t.as_ref())),
            };
            let one_shot = execute_combined(t.as_ref(), &q, &mut ExecStats::default());
            let part = |range: Range<usize>| -> PartialAggregation {
                let mut agg = PartialAggregation::new(q.clone());
                agg.update(t.as_ref(), range, &mut ExecStats::default());
                agg
            };
            let mut merged = part(0..2);
            merged.merge(&mut part(2..4));
            merged.merge(&mut part(4..6));
            assert_eq!(merged.rows_consumed(), 6);
            let merged = merged.finalize();
            assert_eq!(merged.num_groups(), one_shot.num_groups());
            for (a, b) in merged.groups.iter().zip(&one_shot.groups) {
                assert_eq!(a.key, b.key);
                assert_eq!(a.target, b.target);
                assert_eq!(a.reference, b.reference);
            }
        }
    }

    #[test]
    fn merge_into_untouched_partial_adopts_state() {
        let t = census_mini(StoreKind::Column);
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Count, ColumnId(2)),
            SplitSpec::TargetVsAll(Predicate::True),
        );
        let mut full = PartialAggregation::new(q.clone());
        full.update(t.as_ref(), 0..6, &mut ExecStats::default());
        let mut empty = PartialAggregation::new(q);
        empty.merge(&mut full);
        assert_eq!(empty.rows_consumed(), 6);
        let (target, _) = empty.finalize().value_vectors(0);
        assert_eq!(target, vec![3.0, 3.0]);
    }

    #[test]
    fn drain_hands_over_one_range_at_a_time_and_keeps_the_plan() {
        // d | m: group "x" everywhere, "y" only in rows 0..2, "z" only in
        // rows 2..4 and there only with NULL measures.
        let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")]);
        for (d, m) in [
            ("x", Some(1.0)),
            ("y", Some(2.0)),
            ("x", Some(4.0)),
            ("z", None),
            ("x", Some(8.0)),
            ("x", Some(16.0)),
        ] {
            let m = m.map(Value::Float).unwrap_or(Value::Null);
            b.push_row(&[Value::str(d), m]).unwrap();
        }
        let t = b.build(StoreKind::Column).unwrap();
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Sum, ColumnId(1)),
            SplitSpec::TargetVsAll(Predicate::col_eq_str(t.as_ref(), "d", "x")),
        );
        for mode in crate::ExecMode::ALL {
            let mut agg = PartialAggregation::with_mode(q.clone(), mode);
            let mut drained = Vec::new();
            for range in [0..2, 2..4, 4..6] {
                agg.update(t.as_ref(), range.clone(), &mut ExecStats::default());
                assert_eq!(agg.rows_consumed(), 2);
                let snapshot = agg.snapshot();
                let mut seen = Vec::new();
                agg.drain(|key, target, reference| {
                    seen.push((key.code(0), target[0].sum(), reference[0].sum()));
                });
                seen.sort_by_key(|g| g.0);
                // What a fresh aggregation of the range alone produces —
                // including "z", which no measure value ever reached.
                let fresh = {
                    let mut fresh = PartialAggregation::with_mode(q.clone(), mode);
                    fresh.update(t.as_ref(), range, &mut ExecStats::default());
                    fresh.finalize()
                };
                assert_eq!(snapshot, fresh, "{mode}");
                let want: Vec<(u64, f64, f64)> = fresh
                    .groups
                    .iter()
                    .map(|g| (g.key.code(0), g.target[0].sum(), g.reference[0].sum()))
                    .collect();
                assert_eq!(seen, want, "{mode}");
                assert_eq!((agg.rows_consumed(), agg.touched_groups()), (0, 0));
                drained.push(seen);
            }
            // x, y (codes 0, 1) | x, z (0, 2) | x alone; every group keeps
            // its slot for the next range.
            assert_eq!(drained[0], vec![(0, 1.0, 1.0), (1, 0.0, 2.0)]);
            assert_eq!(drained[1], vec![(0, 4.0, 4.0), (2, 0.0, 0.0)]);
            assert_eq!(drained[2], vec![(0, 24.0, 24.0)]);
            assert_eq!(agg.num_groups(), 3);
            assert_eq!(agg.finalize().num_groups(), 0);
        }
    }

    #[test]
    fn lanes_hold_a_batch_until_a_fold_and_read_zero_after_a_drain() {
        let t = census_mini(StoreKind::Column);
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Sum, ColumnId(2)),
            SplitSpec::TargetVsAll(unmarried(t.as_ref())),
        );
        let mut agg = PartialAggregation::new(q.clone());
        let mut stats = ExecStats::default();
        agg.update(t.as_ref(), 0..6, &mut stats);
        // Six rows, one side each, all through the lanes: nothing has
        // reached an accumulator's count or sum yet.
        assert_eq!(
            (stats.accumulator_updates, stats.fixed_lane_updates),
            (6, 6)
        );
        assert_eq!(
            agg.groups.lanes.iter().filter(|&&lane| lane != 0).count(),
            4
        );
        assert!(agg.groups.accs.iter().all(|acc| acc.count == 0));
        assert_eq!(agg.groups.rows, vec![2, 1, 1, 2]);
        // A snapshot folds copies; a drain folds, hands over and empties.
        let snapshot = agg.snapshot();
        assert!(agg.groups.accs.iter().all(|acc| acc.count == 0));
        assert_eq!(
            snapshot.value_vectors(0),
            (vec![1020.0, 480.0], vec![1320.0, 1840.0])
        );
        assert_eq!(agg.drain_result(), snapshot);
        assert!(agg.groups.lanes.iter().all(|&lane| lane == 0));
        assert!(agg.groups.rows.iter().all(|&rows| rows == 0));
        assert_eq!(agg.groups.lane_adds, 0);
        // The scalar mode feeds the same row counts and no lane.
        let mut scalar = PartialAggregation::with_mode(q, crate::ExecMode::Scalar);
        let mut stats = ExecStats::default();
        scalar.update(t.as_ref(), 0..6, &mut stats);
        assert_eq!(
            (stats.accumulator_updates, stats.fixed_lane_updates),
            (6, 0)
        );
        assert_eq!(scalar.groups.rows, vec![2, 1, 1, 2]);
        assert_eq!(scalar.finalize(), snapshot);
    }

    #[test]
    fn a_group_side_slot_costs_a_lane_per_measure_and_a_row_count() {
        // What a live aggregation allocates per group-side slot: an
        // accumulator (≤ 80 B) and a lane (16 B) per measure, however many
        // aggregates read it, and one row count (8 B) — whichever index
        // found the groups.
        let t = census_mini(StoreKind::Column);
        let gain = |func| AggSpec::new(func, ColumnId(2));
        for (group_by, n_groups) in [(vec![ColumnId(0)], 2), (vec![ColumnId(0), ColumnId(1)], 4)] {
            for aggregates in [
                vec![gain(AggFunc::Avg)],
                vec![gain(AggFunc::Avg); 8],
                AggFunc::ALL.map(gain).to_vec(),
            ] {
                let q = CombinedQuery {
                    group_by: group_by.clone(),
                    aggregates,
                    filter: None,
                    split: SplitSpec::TargetVsAll(unmarried(t.as_ref())),
                };
                for mode in crate::ExecMode::ALL {
                    let mut agg = PartialAggregation::with_mode(q.clone(), mode);
                    agg.update(t.as_ref(), 0..6, &mut ExecStats::default());
                    let (groups, slots) = (&agg.groups, 2 * n_groups);
                    assert_eq!(groups.len(), n_groups);
                    assert_eq!(groups.rows.len(), slots);
                    assert_eq!(groups.accs.len(), slots);
                    assert_eq!(groups.lanes.len(), slots);
                    let bytes = std::mem::size_of_val(&groups.accs[..])
                        + std::mem::size_of_val(&groups.lanes[..])
                        + std::mem::size_of_val(&groups.rows[..]);
                    assert!(bytes <= slots * (80 + 16 + 8), "{bytes}");
                }
            }
        }
    }

    #[test]
    fn count_sum_and_avg_of_one_measure_make_one_lane_add_per_row() {
        let t = census_mini(StoreKind::Column);
        let q = CombinedQuery {
            group_by: vec![ColumnId(0)],
            aggregates: [AggFunc::Count, AggFunc::Sum, AggFunc::Avg]
                .map(|f| AggSpec::new(f, ColumnId(2)))
                .to_vec(),
            filter: None,
            split: SplitSpec::TargetVsAll(unmarried(t.as_ref())),
        };
        let mut stats = ExecStats::default();
        let result = execute_combined(t.as_ref(), &q, &mut stats);
        // Six rows, one side each, one shared state: six lane adds, not 18.
        assert_eq!(
            (stats.accumulator_updates, stats.fixed_lane_updates),
            (6, 6)
        );
        assert_eq!(result.value_vectors(0), (vec![2.0, 1.0], vec![3.0, 3.0]));
        assert_eq!(
            result.value_vectors(1),
            (vec![1020.0, 480.0], vec![1320.0, 1840.0])
        );
        assert_eq!(result.value_vectors(2).0, vec![510.0, 480.0]);
    }

    #[test]
    fn an_avg_scan_never_touches_the_extremes() {
        // `m` is NULL-free with strays (`-0.0`, and 1e-30 far under the
        // lanes' binades), `p` has NULLs, `n` is an integer: the lane loop,
        // its stray pass and the per-value path, in both modes.
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("d"),
            ColumnDef::measure("m"),
            ColumnDef::measure("p"),
            ColumnDef::new("n", ColumnType::Int64, ColumnRole::Measure),
        ]);
        for (i, m) in [1.5, -0.0, 1e-30, 2.0, -3.0, 0.0].into_iter().enumerate() {
            let p = if i % 2 == 0 {
                Value::Null
            } else {
                Value::Float(m)
            };
            let d = Value::str(["x", "y"][i % 2]);
            b.push_row(&[d, Value::Float(m), p, Value::Int(i as i64 - 2)])
                .unwrap();
        }
        let t = b.build(StoreKind::Column).unwrap();
        let q = CombinedQuery {
            group_by: vec![ColumnId(0)],
            aggregates: (1..4)
                .map(|m| AggSpec::new(AggFunc::Avg, ColumnId(m)))
                .collect(),
            filter: None,
            split: SplitSpec::TargetVsAll(Predicate::col_eq_str(t.as_ref(), "d", "x")),
        };
        let untouched =
            |acc: &Accumulator| acc.min == f64::INFINITY && acc.max == f64::NEG_INFINITY;
        for mode in crate::ExecMode::ALL {
            let mut agg = PartialAggregation::with_mode(q.clone(), mode);
            let mut stats = ExecStats::default();
            agg.update(t.as_ref(), 0..6, &mut stats);
            if mode == crate::ExecMode::Vectorized {
                assert!(stats.fixed_lane_updates > 0, "the lanes ran");
            }
            assert!(agg.groups.accs.iter().all(untouched), "{mode}");
            let result = agg.finalize();
            assert!(result.groups.iter().all(|g| g.target.iter().all(untouched)));
            assert!(result
                .groups
                .iter()
                .all(|g| g.reference.iter().all(untouched)));
            assert_eq!(result.value_vectors(2).1, vec![0.0, 1.0]);
        }
    }

    #[test]
    fn row_and_column_stores_agree() {
        let row_t = census_mini(StoreKind::Row);
        let col_t = census_mini(StoreKind::Column);
        let q = CombinedQuery {
            group_by: vec![ColumnId(1)],
            aggregates: vec![
                AggSpec::new(AggFunc::Avg, ColumnId(2)),
                AggSpec::new(AggFunc::Count, ColumnId(2)),
            ],
            filter: None,
            split: SplitSpec::TargetVsComplement(unmarried(row_t.as_ref())),
        };
        let a = execute_combined(row_t.as_ref(), &q, &mut ExecStats::default());
        let b = execute_combined(col_t.as_ref(), &q, &mut ExecStats::default());
        for agg in 0..2 {
            assert_eq!(a.value_vectors(agg), b.value_vectors(agg));
        }
    }
}
