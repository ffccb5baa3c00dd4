//! Aggregate functions and their mergeable accumulators.
//!
//! §2 of the paper: *"we denote by F the set of potential aggregate
//! functions over the measure attributes (e.g. COUNT, SUM, AVG)."* MIN and
//! MAX are included for completeness of the SQL surface.
//!
//! An [`Accumulator`] has room for what every function reads (count, sum,
//! min, max) and merges losslessly — the property that makes the
//! multi-GROUP-BY rollup, the phased partial execution, *and* morsel-driven
//! parallel execution correct.
//!
//! ## Only what a function reads
//!
//! The engine fills only the parts its query's functions read ([`Needs`]):
//! COUNT reads the count, SUM and AVG the count and the exact sum, MIN and
//! MAX the count and the extremes. The aggregates over one measure share
//! one state, which tracks the union of their needs, so `COUNT`, `SUM` and
//! `AVG` of one measure cost one update per row, and none of them pays the
//! `min`/`max` compare. Each aggregate is handed its state's accumulator
//! [projected](Accumulator::project) on its own function's needs — what a
//! query of that aggregate alone computes — so a result does not depend on
//! which aggregates shared the scan. [`Accumulator::update`], for
//! standalone use, tracks everything.
//!
//! ## Order-invariant summation
//!
//! Naive `f64` addition is not associative, so a partition-and-merge
//! execution (phases, morsels, rollups) would drift from the serial result
//! by a few ULPs depending on where the partition boundaries fall. The
//! engine promises **bit-identical** results across execution shapes, so
//! SUM is kept *exactly*, as a fixed-point superaccumulator ([`ExactSum`];
//! Neal, "Fast exact summation using small and large superaccumulators",
//! 2015), and rounded once at finalization. The rounded value therefore
//! depends only on the multiset of inputs — never on accumulation or merge
//! order.
//!
//! **Representation.** Every finite `f64` is an integer multiple of
//! 2⁻¹⁰⁷⁴: `x = ±m · 2ᵖ · 2⁻¹⁰⁷⁴` with a 53-bit mantissa `m` and
//! `p ∈ [0, 2045]`. The running sum is that integer, held as signed `i64`
//! *chunks spaced 32 bits apart*: chunk `c` has weight `2^(32c)`, and the
//! sum is `Σ chunk[c] · 2^(32c)`. Chunks overlap — each carries 32 payload
//! bits plus 31 bits of headroom — so an add never has to propagate a
//! carry: it splits `m · 2^(p mod 32)` (at most 84 bits) at bit 32 into a
//! low part `< 2³²` and a high part `< 2⁵²` and performs **two integer
//! adds**, into chunks `p / 32` and `p / 32 + 1`. There is no rounding
//! residue to branch on; the only data-dependent branch is the (rare,
//! predictable) window check below.
//!
//! **Why 32-bit spacing.** It is the widest spacing for which a shifted
//! 53-bit mantissa still lands in exactly two chunks with a useful carry
//! budget left in an `i64`: narrower spacing needs three adds per value,
//! wider spacing leaves the high part too few headroom bits.
//!
//! **Carry budget.** A normalized chunk is at most 2³¹ in magnitude and
//! one add contributes less than 2⁵², so 2046 adds fit in an `i64` before
//! any chunk can overflow; a `pending` counter tracks the adds (and
//! merged-in adds) since the last *carry normalization*, which pushes each
//! chunk's excess into its upper neighbour (leaving balanced digits in
//! `[-2³¹, 2³¹)`) and resets the budget. That is one pass over the live
//! chunks every ~2k updates.
//!
//! **Window, rebase, spill.** The full range (bit 0 = 2⁻¹⁰⁷⁴ up to 2⁶⁴
//! addends of `f64::MAX`) is 68 chunks, but one measure column touches a
//! handful: a value whose low chunk is `c` occupies `c ..= c + 2` once
//! carries are propagated, every value within 2³² of it lands on the same
//! chunks or one below, and their sum needs 2⁴³ such addends to climb past
//! chunk `c + 3`. So the accumulator keeps an inline **window of 5 chunks**
//! starting at chunk `base`, first placed one chunk below the first
//! non-zero value's low chunk. A value (or merged partial, or carry)
//! outside the window *rebases* — normalizes and slides the window — when
//! the occupied span plus the newcomer still fits in 5 chunks, and
//! otherwise *spills* once, permanently, to a boxed full-range array on
//! which the same two-add update keeps running. `size_of::<Accumulator>()`
//! is 80 bytes, the same as the expansion-based accumulator it replaces.
//!
//! **No bit lost.** Every add and merge is integer arithmetic that cannot
//! overflow (carry budget) and never discards a bit (the window only moves
//! over chunks that are zero), so the chunks always represent the exact
//! real sum of all finite inputs — including sums whose *intermediate*
//! value exceeds `f64::MAX`: `[1e308, 1e308, -1e308]` is `1e308` in any
//! order, and ±∞ results only when the exact total rounds to it.
//! [`ExactSum::value`] propagates carries once, takes the sign from the
//! top digit, and rounds the magnitude to 53 bits half-to-even (exactly,
//! when the result is subnormal). `merge` is a chunk-wise add of aligned
//! windows, so it commutes and associates with `add`.
//!
//! ## The cost of an add: lane → window → spill
//!
//! One exact sum, three prices; a value pays the next only when the
//! cheaper one has no place for it.
//!
//! **Lane** — one 128-bit integer add. Beside every accumulator the
//! vectorized scan keeps an `i128` in units of `2^(unit − 1074)`; `unit` is
//! placed per aggregate, [`LANE_SPREAD`] = 36 binades under the largest
//! magnitude the table's statistics report for the column — the same for
//! every partial of a scan, so their lanes add up as they are. A value
//! `±m · 2ᵖ` with `unit ≤ p ≤ unit + 36` adds `±m · 2^(p − unit + 18) + 1`
//! ([`lane_term`]: one table load for range check, sign and shift, one
//! multiply): its mantissa at the lane's scale and, in the 18 bits beneath,
//! a **count** of one. No window index, no carry budget, no flags, and —
//! unless the state also serves MIN or MAX — no `min`/`max` compare.
//! *Overflow:* a term is below `2^(53 + 36 + 18)` and at most
//! [`LANE_BUDGET`] = `2¹⁸ − 1` are added between folds, so a lane stays
//! below `2¹²⁵` and its count inside its 18 bits:
//! `53 + spread + 2 · log₂ budget ≤ 126`. A **fold**
//! ([`Accumulator::fold_lane`]; before any merge, drain, snapshot or result)
//! reads the count off the low bits and gives the rest to
//! [`ExactSum::add_fixed`] — one window operation per lane, not per value.
//! A *stray* (outside the lane's binades, subnormal, non-finite, `-0.0`)
//! adds a bare count, which a second pass over its batch takes back as it
//! feeds the value to the window. NULL-able and non-float columns never use
//! the lanes, and neither does a state that reads no sum.
//!
//! **Window** — the two-add update above with its bookkeeping, ≈ 2× a lane
//! add: the scalar mode, strays, and the columns lanes do not take.
//! **Spill** — the same on the boxed full-range array, once a column's
//! span outgrew five chunks; sticky, never reached by ordinary columns.
//!
//! COUNT, MIN, and MAX are order-invariant by nature — MIN and MAX order
//! `-0.0` below `+0.0`, so a group holding both zeros has the same extremes
//! in any order, bit for bit. Non-finite inputs are tracked as flags (any
//! NaN, or both infinities ⇒ NaN; one-sided infinities saturate), which is
//! again order-independent. A sum is `-0.0` exactly when every input was
//! `-0.0` (IEEE addition's rule, also kept as flags).

use std::fmt;
use std::ops::Range;
use std::str::FromStr;

/// SQL aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(m)` — number of non-NULL measure values.
    Count,
    /// `SUM(m)`.
    Sum,
    /// `AVG(m)`.
    Avg,
    /// `MIN(m)`.
    Min,
    /// `MAX(m)`.
    Max,
}

impl AggFunc {
    /// All functions, for sweeps.
    pub const ALL: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];

    /// SQL spelling.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// The parts of an [`Accumulator`] a set of functions reads. The count is
/// always kept: every function reads it (MIN, MAX and AVG to tell an empty
/// group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Needs {
    /// The exact sum: SUM and AVG.
    pub sum: bool,
    /// `min` and `max`: MIN and MAX.
    pub extremes: bool,
}

impl Needs {
    /// Everything: what [`Accumulator::update`] keeps.
    pub const ALL: Needs = Needs {
        sum: true,
        extremes: true,
    };

    /// What `func` reads.
    pub fn of(func: AggFunc) -> Needs {
        Needs {
            sum: matches!(func, AggFunc::Sum | AggFunc::Avg),
            extremes: matches!(func, AggFunc::Min | AggFunc::Max),
        }
    }

    /// What either `self` or `other` reads.
    pub fn union(self, other: Needs) -> Needs {
        Needs {
            sum: self.sum || other.sum,
            extremes: self.extremes || other.extremes,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AggFunc {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "COUNT" => Ok(AggFunc::Count),
            "SUM" => Ok(AggFunc::Sum),
            "AVG" => Ok(AggFunc::Avg),
            "MIN" => Ok(AggFunc::Min),
            "MAX" => Ok(AggFunc::Max),
            other => Err(format!("unknown aggregate function '{other}'")),
        }
    }
}

/// Bits between neighbouring chunk weights.
const CHUNK_BITS: u32 = 32;
/// Payload mask of one chunk.
const CHUNK_MASK: u64 = (1 << CHUNK_BITS) - 1;
/// Half a chunk: normalized (balanced) digits lie in `[-HALF, HALF)`.
const HALF: i64 = 1 << (CHUNK_BITS - 1);
/// Chunks held inline.
const WINDOW: usize = 5;
/// Chunks covering every reachable sum: the largest finite `f64` has its
/// top bit at position 2097 (in units of 2⁻¹⁰⁷⁴), and `count` is a `u64`,
/// so no sum exceeds 2²¹⁶² — 68 chunks of 32 bits.
const FULL_CHUNKS: usize = 68;
/// Adds (or merged-in adds) a chunk can absorb between carry
/// normalizations: `2³¹ + (MAX_PENDING + 1) · 2⁵² < 2⁶³`.
const MAX_PENDING: u16 = 2046;
/// `base` of an accumulator with no inline window (empty, or spilled).
const NO_WINDOW: u16 = u16::MAX;

const FRAC_MASK: u64 = (1 << 52) - 1;
const INF_BITS: u64 = 0x7FF << 52;
const NEG_ZERO_BITS: u64 = 1 << 63;

/// A `+∞` input was observed.
const SAW_POS_INF: u8 = 1;
/// A `−∞` input was observed.
const SAW_NEG_INF: u8 = 2;
/// A NaN input was observed.
const SAW_NAN: u8 = 4;
/// A `-0.0` input was observed.
const SAW_NEG_ZERO: u8 = 8;
/// An input other than `-0.0` was observed.
const SAW_OTHER: u8 = 16;

/// Low bits of a lane that count the values it absorbed (see the module
/// docs), which bounds the values it may absorb between folds.
pub(crate) const LANE_COUNT_BITS: u32 = 18;
/// Values a lane may absorb between folds.
pub(crate) const LANE_BUDGET: u32 = (1 << LANE_COUNT_BITS) - 1;
/// Binades above its unit a lane has room for: `53 + LANE_SPREAD +
/// 2 · LANE_COUNT_BITS ≤ 126`.
const LANE_SPREAD: u32 = 36;

/// Every lane's multiplier table, overlaid: entry `2048 + s` holds `2ˢ` and
/// entry `4096 + s` holds `−2ˢ` for the shifts `s` a lane accepts
/// (`LANE_COUNT_BITS ..= LANE_COUNT_BITS + LANE_SPREAD`); all else is zero.
/// A lane reads it from [`lane_powers`] on, by the sign and exponent bits of
/// a value: range check, sign and shift of [`lane_term`] are one load.
static LANE_POWERS: [i64; 2048 + 4096 + LANE_COUNT_BITS as usize] = {
    let mut pow = [0; 2048 + 4096 + LANE_COUNT_BITS as usize];
    let mut s = LANE_COUNT_BITS as usize;
    while s <= (LANE_COUNT_BITS + LANE_SPREAD) as usize {
        pow[2048 + s] = 1 << s;
        pow[4096 + s] = -(1 << s);
        s += 1;
    }
    pow
};

/// The unit (as a bit position above 2⁻¹⁰⁷⁴) of the lanes of a column
/// whose largest magnitude has the biased exponent `top`: that binade and
/// the [`LANE_SPREAD`] beneath it. `None` — no lanes — for a column of
/// zeros and subnormals (`top == 0`) or one that holds an infinity.
pub(crate) fn lane_unit(top: u32) -> Option<u32> {
    (1..0x7FF)
        .contains(&top)
        .then(|| (top - 1).saturating_sub(LANE_SPREAD))
}

/// The multipliers of a lane of unit `unit`, indexed by a value's sign and
/// exponent bits (`bits >> 52`): `±2^(exp − 1 − unit + LANE_COUNT_BITS)` for
/// the binades the lane spans, zero for every other.
pub(crate) fn lane_powers(unit: u32) -> &'static [i64; 4096] {
    let first = 2048 + LANE_COUNT_BITS as usize - 1 - unit as usize;
    LANE_POWERS[first..].first_chunk().expect("4096 entries")
}

/// What the value with bit pattern `bits` adds to the lane `powers`
/// belongs to: its count (bit 0) and, above [`LANE_COUNT_BITS`], its signed
/// mantissa shifted to the lane's scale. The second result is non-zero for
/// a **stray** — a value the lane has no place for (outside its binades,
/// subnormal, non-finite, `-0.0`) — whose term is the bare count.
#[inline(always)]
pub(crate) fn lane_term(bits: u64, powers: &[i64; 4096]) -> (i128, u64) {
    // Zero for everything the lane does not span, ±0 included.
    let pow = powers[(bits >> 52) as usize];
    let mant = ((bits & FRAC_MASK) | (1 << 52)) as i64;
    let stray = if pow == 0 { bits } else { 0 };
    ((mant as i128 * pow as i128) | 1, stray)
}

/// Exact running sum of `f64` values as a windowed fixed-point
/// superaccumulator (see the module docs): `Σ chunk[c] · 2^(32c) · 2⁻¹⁰⁷⁴`
/// is the exact real sum of all finite inputs, plus flags for the inputs
/// that have no fixed-point form.
#[derive(Debug, Clone)]
struct ExactSum {
    /// Chunks `base .. base + WINDOW` (all zero while `base == NO_WINDOW`).
    window: [i64; WINDOW],
    /// Chunks `0 .. FULL_CHUNKS` once the occupied span outgrew the window
    /// (sticky: never moves back inline).
    spill: Option<Box<[i64; FULL_CHUNKS]>>,
    /// Chunk index of `window[0]`, or [`NO_WINDOW`].
    base: u16,
    /// Adds since the last carry normalization (see [`MAX_PENDING`]).
    pending: u16,
    /// `SAW_*` bits.
    flags: u8,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum {
            window: [0; WINDOW],
            spill: None,
            base: NO_WINDOW,
            pending: 0,
            flags: 0,
        }
    }
}

/// Pushes each chunk's excess over 32 bits into its upper neighbour,
/// leaving balanced digits in `[-HALF, HALF)`; returns the carry out of the
/// last chunk.
fn carry_normalize(chunks: &mut [i64]) -> i64 {
    let mut carry = 0;
    for c in chunks {
        let v = *c + carry;
        carry = (v + HALF) >> CHUNK_BITS;
        *c = v - (carry << CHUNK_BITS);
    }
    carry
}

/// The absolute chunk range holding `chunks`' nonzero entries.
fn occupied(chunks: &[i64], base: usize) -> Range<usize> {
    match chunks.iter().position(|&c| c != 0) {
        None => 0..0,
        Some(first) => {
            let last = chunks.iter().rposition(|&c| c != 0).unwrap_or(first);
            base + first..base + last + 1
        }
    }
}

impl ExactSum {
    #[inline]
    fn add(&mut self, x: f64) {
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7FF) as usize;
        // x = ±mant · 2^pos · 2⁻¹⁰⁷⁴; subnormals and zeros have no
        // implicit bit and share the lowest position.
        let normal = usize::from(exp != 0);
        let mant = (bits & FRAC_MASK) | ((normal as u64) << 52);
        let pos = exp - normal;
        let shift = pos as u32 % CHUNK_BITS;
        // mant · 2^shift = lo + hi · 2³², sign applied branch-free.
        let neg = (bits as i64) >> 63;
        let lo = (((mant << shift) & CHUNK_MASK) as i64 ^ neg) - neg;
        let hi = ((mant >> (CHUNK_BITS - shift)) as i64 ^ neg) - neg;
        self.flags |= if bits == NEG_ZERO_BITS {
            SAW_NEG_ZERO
        } else {
            SAW_OTHER
        };
        let chunk = pos / CHUNK_BITS as usize;
        // ±0 adds nothing wherever it lands: park it on the window's first
        // pair so sparse columns stay on the fast path.
        let idx = if mant == 0 {
            0
        } else {
            chunk.wrapping_sub(self.base as usize)
        };
        if idx < WINDOW - 1 && self.pending < MAX_PENDING && exp != 0x7FF {
            self.window[idx] += lo;
            self.window[idx + 1] += hi;
            self.pending += 1;
        } else {
            self.add_slow(x, chunk, lo, hi);
        }
    }

    /// Everything [`ExactSum::add`]'s window check rejects: non-finite
    /// inputs, an exhausted carry budget, a value outside the inline
    /// window, or a spilled accumulator.
    #[cold]
    #[inline(never)]
    fn add_slow(&mut self, x: f64, chunk: usize, lo: i64, hi: i64) {
        if !x.is_finite() {
            self.flags |= if x.is_nan() {
                SAW_NAN
            } else if x > 0.0 {
                SAW_POS_INF
            } else {
                SAW_NEG_INF
            };
            return;
        }
        if self.pending >= MAX_PENDING {
            self.settle(0..0);
        }
        if x == 0.0 {
            return;
        }
        if !self.covers(&(chunk..chunk + 2)) {
            self.settle(chunk..chunk + 2);
        }
        let (chunks, base) = self.chunks_mut();
        chunks[chunk - base] += lo;
        chunks[chunk + 1 - base] += hi;
        self.pending += 1;
    }

    /// The live chunk array and the chunk index of its first element.
    fn chunks(&self) -> (&[i64], usize) {
        match &self.spill {
            Some(full) => (&full[..], 0),
            None => (&self.window, self.base as usize),
        }
    }

    fn chunks_mut(&mut self) -> (&mut [i64], usize) {
        match &mut self.spill {
            Some(full) => (&mut full[..], 0),
            None => (&mut self.window, self.base as usize),
        }
    }

    /// Whether every chunk of `span` is addressable without moving the
    /// window.
    fn covers(&self, span: &Range<usize>) -> bool {
        let base = self.base as usize;
        self.spill.is_some()
            || (self.base != NO_WINDOW && span.start >= base && span.end <= base + WINDOW)
    }

    /// Carry-normalizes the live chunks (resetting the carry budget) and
    /// makes the chunks of `need` addressable: in place when the window
    /// already covers them, by rebasing the window when the occupied span
    /// plus `need` fits in [`WINDOW`] chunks, by spilling to the full-range
    /// array otherwise. An empty `need` only normalizes.
    fn settle(&mut self, need: Range<usize>) {
        self.pending = 0;
        if let Some(full) = &mut self.spill {
            // The top chunk absorbs the last carry: no reachable sum
            // carries out of the full range.
            let carry = carry_normalize(&mut full[..FULL_CHUNKS - 1]);
            full[FULL_CHUNKS - 1] += carry;
            return;
        }
        let base = self.base as usize;
        let mut live = [0; WINDOW + 1];
        live[..WINDOW].copy_from_slice(&self.window);
        live[WINDOW] = carry_normalize(&mut live[..WINDOW]);
        let held = occupied(&live, base);
        let span = match (held.is_empty(), need.is_empty()) {
            (_, true) => held,
            (true, false) => need,
            (false, false) => held.start.min(need.start)..held.end.max(need.end),
        };
        debug_assert!(span.end <= FULL_CHUNKS, "sum beyond the full range");
        if span.is_empty() || self.covers(&span) {
            self.window.copy_from_slice(&live[..WINDOW]);
        } else if span.len() <= WINDOW {
            // One spare chunk below (values up to 2³² smaller than any seen
            // so far), the rest above (where the sum grows).
            let spare = (WINDOW - span.len()).min(1).min(span.start);
            let new_base = (span.start - spare).min(FULL_CHUNKS - WINDOW);
            self.window = [0; WINDOW];
            for (i, &c) in live.iter().enumerate() {
                if c != 0 {
                    self.window[base + i - new_base] = c;
                }
            }
            self.base = new_base as u16;
        } else {
            let mut full = Box::new([0; FULL_CHUNKS]);
            for (i, &c) in live.iter().enumerate() {
                if c != 0 {
                    full[base + i] = c;
                }
            }
            self.spill = Some(full);
            self.window = [0; WINDOW];
            self.base = NO_WINDOW;
        }
    }

    /// Adds `v · 2^pos` (in units of 2⁻¹⁰⁷⁴): a folded lane, standing for at
    /// least one value that was not `-0.0`. `|v|` is cut into 32-bit digits,
    /// each shifted and split over two chunks like the mantissa of an `add`,
    /// and the five chunks merge in as a partial sum would.
    fn add_fixed(&mut self, v: i128, pos: u32) {
        debug_assert!((pos / CHUNK_BITS) as usize + WINDOW <= FULL_CHUNKS);
        let mut part = ExactSum {
            base: (pos / CHUNK_BITS) as u16,
            pending: 1,
            flags: SAW_OTHER,
            ..ExactSum::default()
        };
        let sign = if v < 0 { -1 } else { 1 };
        for j in 0..WINDOW - 1 {
            let digit = (v.unsigned_abs() >> (CHUNK_BITS as usize * j)) as u64 & CHUNK_MASK;
            let shifted = digit << (pos % CHUNK_BITS);
            part.window[j] += sign * (shifted & CHUNK_MASK) as i64;
            part.window[j + 1] += sign * (shifted >> CHUNK_BITS) as i64;
        }
        self.merge(&part);
    }

    /// Adds `other`'s chunks into the aligned chunks of `self`.
    ///
    /// Partials of one measure column nearly always sit on the same `base`
    /// (the window is placed by the first value's magnitude), so the usual
    /// merge is five integer adds — as cheap as an `add`. The three
    /// shortcuts below only skip work [`ExactSum::merge_general`] would do
    /// to the same effect; everything else takes that route.
    #[inline]
    fn merge(&mut self, other: &ExactSum) {
        // Every add sets a flag, so no flags means no chunks either.
        if other.flags == 0 {
            return;
        }
        if other.spill.is_none() {
            if self.flags == 0 {
                // Nothing to align with yet: take over the other window.
                debug_assert!(self.spill.is_none() && self.pending == 0);
                self.window = other.window;
                self.base = other.base;
                self.pending = other.pending;
                self.flags = other.flags;
                return;
            }
            // Merged chunk magnitudes add, so the budgets do too (plus one
            // for the two normalized residues). Only inline windows have a
            // `base`, so sharing one means both sides are inline.
            let pending = self.pending as u32 + other.pending as u32 + 1;
            let aligned = self.base == other.base && self.base != NO_WINDOW;
            if aligned && pending <= MAX_PENDING as u32 {
                self.flags |= other.flags;
                for (mine, theirs) in self.window.iter_mut().zip(&other.window) {
                    *mine += theirs;
                }
                self.pending = pending as u16;
                return;
            }
        }
        self.merge_general(other);
    }

    /// [`ExactSum::merge`] for any pair of windows: rebases or spills
    /// `self` until it covers `other`'s occupied chunks, normalizing first
    /// when the summed carry budget would not fit.
    #[cold]
    #[inline(never)]
    fn merge_general(&mut self, other: &ExactSum) {
        self.flags |= other.flags;
        let (theirs, their_base) = other.chunks();
        let span = occupied(theirs, their_base);
        if span.is_empty() {
            return;
        }
        let pending = self.pending as u32 + other.pending as u32 + 1;
        if pending > MAX_PENDING as u32 || !self.covers(&span) {
            self.settle(span.clone());
        }
        let (mine, my_base) = self.chunks_mut();
        for c in span {
            mine[c - my_base] += theirs[c - their_base];
        }
        self.pending += other.pending + 1;
        if self.pending > MAX_PENDING {
            self.settle(0..0);
        }
    }

    /// Forgets every input. An inline window keeps its position: the same
    /// column's next values land on it again, so the first add skips the
    /// placement slow path and partials reset together stay aligned.
    fn reset(&mut self) {
        self.window = [0; WINDOW];
        self.spill = None;
        self.pending = 0;
        self.flags = 0;
    }

    /// Whether a value other than NaN was added: a finite one or an
    /// infinity. (Every add sets a flag; a NaN also sets `SAW_NAN`.)
    fn saw_non_nan(&self) -> bool {
        self.flags != 0 && self.flags & SAW_NAN == 0
    }

    /// Correctly-rounded value of the exact sum. Depends only on the
    /// multiset of inputs, not the order they were added or merged in.
    fn value(&self) -> f64 {
        let both_inf = SAW_POS_INF | SAW_NEG_INF;
        if self.flags & SAW_NAN != 0 || self.flags & both_inf == both_inf {
            return f64::NAN;
        }
        if self.flags & SAW_POS_INF != 0 {
            return f64::INFINITY;
        }
        if self.flags & SAW_NEG_INF != 0 {
            return f64::NEG_INFINITY;
        }
        // Non-negative 32-bit digits of |sum|, lowest first, with one extra
        // digit for the carry out of the top chunk. A negative total shows
        // as a negative final carry; negate the chunks and redo.
        let (chunks, base) = self.chunks();
        let n = chunks.len();
        let mut digits = [0u32; FULL_CHUNKS + 1];
        let mut negative = false;
        loop {
            let mut carry = 0;
            for (d, &c) in digits.iter_mut().zip(chunks) {
                let v = carry + if negative { -c } else { c };
                carry = v >> CHUNK_BITS;
                *d = v as u32;
            }
            if carry >= 0 {
                digits[n] = carry as u32;
                break;
            }
            negative = true;
        }
        let Some(top) = digits[..=n].iter().rposition(|&d| d != 0) else {
            // An exact zero: IEEE sums are -0.0 only when every addend is.
            let all_neg_zero = self.flags & (SAW_NEG_ZERO | SAW_OTHER) == SAW_NEG_ZERO;
            return if all_neg_zero { -0.0 } else { 0.0 };
        };
        // The top four digits as one 128-bit integer whose LSB sits at
        // absolute bit `low_bit` (digits below chunk 0 are zeros), plus a
        // sticky flag for everything beneath them.
        let digit = |back: usize| top.checked_sub(back).map_or(0, |i| digits[i] as u128);
        let head = digit(0) << 96 | digit(1) << 64 | digit(2) << 32 | digit(3);
        let sticky = digits[..top.saturating_sub(3)].iter().any(|&d| d != 0);
        let low_bit = CHUNK_BITS as i64 * ((base + top) as i64 - 3);
        let msb = 127 - head.leading_zeros() as i64;
        // `exp_field << 52 + mantissa` assembles the result: the implicit
        // bit of a normal mantissa bumps the exponent field by one, as does
        // a round-up out of the top mantissa bit.
        let (exp_field, mantissa) = if low_bit + msb <= 52 {
            // Below 2⁻¹⁰²¹ the f64 grid is 2⁻¹⁰⁷⁴, our unit: exact.
            (0, (head >> (-low_bit) as u32) as u64)
        } else {
            let drop = (msb - 52) as u32;
            let kept = (head >> drop) as u64;
            let rest = head & ((1 << drop) - 1);
            let half = 1 << (drop - 1);
            let up = rest > half || (rest == half && (sticky || kept & 1 == 1));
            ((low_bit + msb - 52) as u64, kept + u64::from(up))
        };
        let magnitude = ((exp_field << 52) + mantissa).min(INF_BITS);
        f64::from_bits(magnitude | (negative as u64) << 63)
    }
}

/// Mergeable aggregation state with room for every [`AggFunc`].
///
/// [`Accumulator::update`] keeps all of it. The engine keeps only what the
/// functions it computes read (see the module docs): the accumulator of a
/// `SUM` or `AVG` aggregate keeps `min = +∞` and `max = −∞`, and one of a
/// `COUNT`, `MIN` or `MAX` aggregate keeps a zero sum. Finishing it under a
/// function it was not kept for is a logic error; for MIN and MAX a debug
/// build catches it whenever the sum shows a value went in.
///
/// Equality compares *observable* state — count, the rounded sum, min, max
/// — not the internal chunks, so two accumulators that consumed the same
/// multiset of values through different partitions compare equal (and NaN
/// sums compare equal to NaN sums, which the equivalence suites rely on).
/// It compares `min` and `max` with `==`, under which `-0.0` equals `0.0`;
/// `finish(..).to_bits()` tells them apart.
#[derive(Debug, Clone)]
pub struct Accumulator {
    /// Number of non-NULL values observed.
    pub count: u64,
    /// Exact sum of observed values.
    sum: ExactSum,
    /// Minimum observed value (`+inf` when empty).
    pub min: f64,
    /// Maximum observed value (`-inf` when empty).
    pub max: f64,
}

impl Default for Accumulator {
    fn default() -> Self {
        Accumulator {
            count: 0,
            sum: ExactSum::default(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl PartialEq for Accumulator {
    fn eq(&self, other: &Self) -> bool {
        let sum_eq = {
            let (a, b) = (self.sum.value(), other.sum.value());
            a == b || (a.is_nan() && b.is_nan())
        };
        self.count == other.count && sum_eq && self.min == other.min && self.max == other.max
    }
}

impl Accumulator {
    /// Fresh empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one measure value (`None` = NULL, ignored per SQL semantics).
    #[inline]
    pub fn update(&mut self, value: Option<f64>) {
        self.feed(value, Needs::ALL);
    }

    /// Feeds one measure value keeping only what `func` reads: the
    /// accumulator an engine query of `func` alone builds from the same
    /// values.
    pub fn update_for(&mut self, value: Option<f64>, func: AggFunc) {
        self.feed(value, Needs::of(func));
    }

    /// [`Accumulator::update`] keeping only what `needs` covers.
    #[inline]
    pub(crate) fn feed(&mut self, value: Option<f64>, needs: Needs) {
        if let Some(x) = value {
            self.count += 1;
            if needs.sum {
                self.sum.add(x);
            }
            if needs.extremes {
                self.widen(x);
            }
        }
    }

    /// Stretches `min`/`max` to cover `x` (NaN covers nothing).
    #[inline]
    pub(crate) fn widen(&mut self, x: f64) {
        self.lower_min(x);
        self.raise_max(x);
    }

    /// `min = MIN(min, x)`, with `-0.0` below `+0.0`: without the tie rule
    /// the minimum of `{0.0, -0.0}` would be whichever came first.
    #[inline]
    fn lower_min(&mut self, x: f64) {
        if x < self.min || (x == self.min && x.is_sign_negative()) {
            self.min = x;
        }
    }

    /// `max = MAX(max, x)`, with `+0.0` above `-0.0`.
    #[inline]
    fn raise_max(&mut self, x: f64) {
        if x > self.max || (x == self.max && x.is_sign_positive()) {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (for rollups, cross-phase
    /// merging, and morsel-partial folding). Exact: the merged state equals
    /// the state of a single accumulator fed both input multisets, in any
    /// order.
    pub fn merge(&mut self, other: &Accumulator) {
        self.count += other.count;
        self.sum.merge(&other.sum);
        self.lower_min(other.min);
        self.raise_max(other.max);
    }

    /// A copy keeping only what `needs` covers; the rest is empty, as if
    /// never tracked.
    pub(crate) fn project(&self, needs: Needs) -> Accumulator {
        let empty = Accumulator::default();
        Accumulator {
            count: self.count,
            sum: if needs.sum {
                self.sum.clone()
            } else {
                empty.sum
            },
            min: if needs.extremes { self.min } else { empty.min },
            max: if needs.extremes { self.max } else { empty.max },
        }
    }

    /// Folds in a fixed-point lane of unit `unit` (see [`lane_term`]): the
    /// count and the exact sum of the values it absorbed. Their extremes
    /// reached `min` and `max` as they were absorbed.
    #[inline]
    pub(crate) fn fold_lane(&mut self, lane: i128, unit: u32) {
        let n = lane as u64 & LANE_BUDGET as u64;
        if n > 0 {
            self.count += n;
            self.sum.add_fixed(lane >> LANE_COUNT_BITS, unit);
        }
    }

    /// Returns the accumulator to its empty state, for reuse on the same
    /// measure (a drained partial's next phase).
    pub fn reset(&mut self) {
        self.count = 0;
        self.sum.reset();
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// True if no value has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The correctly-rounded sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum.value()
    }

    /// Whether the sum has outgrown its inline chunk window and moved to the
    /// heap-allocated full-range array (see the module docs). A diagnostic:
    /// ordinary measure columns never spill, and a footprint test holds the
    /// Table 1 twins to that.
    pub fn sum_spilled(&self) -> bool {
        self.sum.spill.is_some()
    }

    /// Heap bytes the accumulator owns: the full-range array once the sum
    /// spilled, nothing before.
    pub fn heap_bytes(&self) -> usize {
        if self.sum_spilled() {
            std::mem::size_of::<[i64; FULL_CHUNKS]>()
        } else {
            0
        }
    }

    /// Finalizes the accumulator under `func`. Returns `None` when the
    /// group saw no values and the function has no defined result
    /// (AVG/MIN/MAX of an empty set); `COUNT` and `SUM` of an empty set are
    /// 0, per SQL-on-groups semantics.
    pub fn finish(&self, func: AggFunc) -> Option<f64> {
        match func {
            AggFunc::Count => Some(self.count as f64),
            AggFunc::Sum => Some(self.sum.value()),
            AggFunc::Avg => {
                if self.count == 0 {
                    None
                } else {
                    Some(self.sum.value() / self.count as f64)
                }
            }
            AggFunc::Min | AggFunc::Max => {
                // A value other than NaN widens the extremes, so a kept pair
                // is ordered once the sum saw one.
                debug_assert!(
                    self.count == 0 || self.min <= self.max || !self.sum.saw_non_nan(),
                    "{func} of an accumulator that did not keep its extremes"
                );
                if self.count == 0 {
                    None
                } else if func == AggFunc::Min {
                    Some(self.min)
                } else {
                    Some(self.max)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of(values: &[f64]) -> f64 {
        let mut a = Accumulator::new();
        for &x in values {
            a.update(Some(x));
        }
        a.sum()
    }

    #[test]
    fn empty_accumulator_semantics() {
        let a = Accumulator::new();
        assert_eq!(a.finish(AggFunc::Count), Some(0.0));
        assert_eq!(a.finish(AggFunc::Sum), Some(0.0));
        assert_eq!(a.finish(AggFunc::Avg), None);
        assert_eq!(a.finish(AggFunc::Min), None);
        assert_eq!(a.finish(AggFunc::Max), None);
    }

    #[test]
    fn updates_feed_all_functions() {
        let mut a = Accumulator::new();
        for x in [3.0, -1.0, 4.0] {
            a.update(Some(x));
        }
        a.update(None); // NULL ignored
        assert_eq!(a.finish(AggFunc::Count), Some(3.0));
        assert_eq!(a.finish(AggFunc::Sum), Some(6.0));
        assert_eq!(a.finish(AggFunc::Avg), Some(2.0));
        assert_eq!(a.finish(AggFunc::Min), Some(-1.0));
        assert_eq!(a.finish(AggFunc::Max), Some(4.0));
    }

    #[test]
    fn merge_equals_sequential_updates() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut whole = Accumulator::new();
        for x in values {
            whole.update(Some(x));
        }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for x in &values[..2] {
            left.update(Some(*x));
        }
        for x in &values[2..] {
            right.update(Some(*x));
        }
        left.merge(&right);
        for f in AggFunc::ALL {
            assert_eq!(whole.finish(f), left.finish(f), "merge broke {f}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Accumulator::new();
        a.update(Some(7.0));
        let before = a.clone();
        a.merge(&Accumulator::new());
        assert_eq!(a, before);

        let mut empty = Accumulator::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn summation_is_bit_identical_across_partitions() {
        // Values chosen so naive left-to-right f64 addition differs by ULPs
        // from the re-associated (partitioned-and-merged) addition; the
        // exact accumulator must agree bitwise under every partitioning.
        let values: Vec<f64> = (0..257)
            .map(|i| {
                let x = (i as f64) * 0.1 - 11.7;
                x * (1.0 + (i % 13) as f64 * 1e-13)
            })
            .collect();
        // Sanity: the naive sums genuinely disagree, so this test has teeth.
        let naive_whole: f64 = values.iter().sum();
        let naive_split = values[..100].iter().sum::<f64>() + values[100..].iter().sum::<f64>();
        assert_ne!(naive_whole.to_bits(), naive_split.to_bits());

        let mut serial = Accumulator::new();
        for &x in &values {
            serial.update(Some(x));
        }
        for split_at in [1, 7, 100, 256] {
            let mut left = Accumulator::new();
            let mut right = Accumulator::new();
            for &x in &values[..split_at] {
                left.update(Some(x));
            }
            for &x in &values[split_at..] {
                right.update(Some(x));
            }
            left.merge(&right);
            assert_eq!(
                serial.finish(AggFunc::Sum).unwrap().to_bits(),
                left.finish(AggFunc::Sum).unwrap().to_bits(),
                "split at {split_at}"
            );
            assert_eq!(
                serial.finish(AggFunc::Avg).unwrap().to_bits(),
                left.finish(AggFunc::Avg).unwrap().to_bits(),
                "avg split at {split_at}"
            );
        }
        // Merge in the reverse order too: order must not matter.
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &x in &values[..100] {
            left.update(Some(x));
        }
        for &x in &values[100..] {
            right.update(Some(x));
        }
        right.merge(&left);
        assert_eq!(
            serial.finish(AggFunc::Sum).unwrap().to_bits(),
            right.finish(AggFunc::Sum).unwrap().to_bits()
        );
    }

    #[test]
    fn non_finite_inputs_are_order_invariant() {
        let feed = |values: &[f64]| {
            let mut a = Accumulator::new();
            for &x in values {
                a.update(Some(x));
            }
            a.finish(AggFunc::Sum).unwrap()
        };
        // One-sided infinity saturates regardless of position.
        assert_eq!(feed(&[1.0, f64::INFINITY, 2.0]), f64::INFINITY);
        assert_eq!(feed(&[f64::INFINITY, 1.0, 2.0]), f64::INFINITY);
        assert_eq!(feed(&[1.0, f64::NEG_INFINITY]), f64::NEG_INFINITY);
        // Both infinities (or any NaN) poison the sum, in any order.
        assert!(feed(&[f64::INFINITY, f64::NEG_INFINITY, 1.0]).is_nan());
        assert!(feed(&[1.0, f64::NEG_INFINITY, f64::INFINITY]).is_nan());
        assert!(feed(&[f64::NAN, 1.0]).is_nan());
        // Merging non-finite partials behaves identically.
        let mut a = Accumulator::new();
        a.update(Some(f64::INFINITY));
        let mut b = Accumulator::new();
        b.update(Some(f64::NEG_INFINITY));
        a.merge(&b);
        assert!(a.finish(AggFunc::Sum).unwrap().is_nan());
        // Min/max ignore nothing: infinities participate normally.
        assert_eq!(a.finish(AggFunc::Min), Some(f64::NEG_INFINITY));
        assert_eq!(a.finish(AggFunc::Max), Some(f64::INFINITY));
    }

    #[test]
    fn intermediate_overflow_saturates_like_ieee_summation() {
        // Naive IEEE summation of these saturates to +∞ at the second add.
        // The fixed-point sum has headroom chunks above f64::MAX, so it is
        // exact here too: 1e308 in every order, ±∞ only when the exact
        // total itself is out of range.
        for order in [
            [1e308, 1e308, -1e308],
            [1e308, -1e308, 1e308],
            [-1e308, 1e308, 1e308],
        ] {
            assert_eq!(sum_of(&order), 1e308, "{order:?}");
        }
        let mut a = Accumulator::new();
        for x in [1e308, 1e308] {
            a.update(Some(x));
        }
        assert_eq!(a.finish(AggFunc::Sum), Some(f64::INFINITY));
        // Not sticky: the state is still the exact 2e308.
        a.update(Some(-1e308));
        a.update(Some(5.0));
        assert_eq!(a.finish(AggFunc::Sum), Some(1e308));
        assert_eq!(a.count, 4);
        assert_eq!(a.finish(AggFunc::Min), Some(-1e308));

        // The negative direction, and a merge that brings the total back.
        let mut b = Accumulator::new();
        for x in [-1e308, -1e308] {
            b.update(Some(x));
        }
        assert_eq!(b.finish(AggFunc::Sum), Some(f64::NEG_INFINITY));
        b.merge(&a);
        assert_eq!(b.finish(AggFunc::Sum), Some(-1e308));

        // The rounding boundary itself: f64::MAX plus half its ULP is a tie
        // that rounds (to even) out of range; anything less stays finite.
        let half_ulp = 2f64.powi(970);
        assert_eq!(sum_of(&[f64::MAX, half_ulp]), f64::INFINITY);
        assert_eq!(sum_of(&[f64::MAX, half_ulp, -1.0]), f64::MAX);
        assert_eq!(sum_of(&[-f64::MAX, -half_ulp]), f64::NEG_INFINITY);

        // Many huge values of mixed magnitude: far out of range, then back.
        let mut c = Accumulator::new();
        let mut back = Accumulator::new();
        for i in 0..64 {
            for x in [
                1e300 * (1.0 + (i % 9) as f64 * 1e-13),
                1e30 + i as f64,
                f64::MAX / 4.0,
            ] {
                c.update(Some(x));
                back.update(Some(-x));
            }
        }
        assert_eq!(c.finish(AggFunc::Sum), Some(f64::INFINITY));
        c.update(Some(0.5));
        c.merge(&back);
        assert_eq!(c.finish(AggFunc::Sum), Some(0.5));
    }

    #[test]
    fn rounds_ties_to_even_at_the_53_bit_boundary() {
        let ulp = f64::EPSILON; // ULP of 1.0
        let next = 1.0 + ulp;
        // Exactly halfway between 1.0 (even mantissa) and `next` (odd).
        assert_eq!(sum_of(&[1.0, ulp / 2.0]), 1.0);
        // Halfway between `next` (odd) and 1.0 + 2·ulp (even).
        assert_eq!(sum_of(&[next, ulp / 2.0]), 1.0 + 2.0 * ulp);
        // Any bit below the tie — however far — breaks it upwards…
        assert_eq!(sum_of(&[1.0, ulp / 2.0, f64::from_bits(1)]), next);
        assert_eq!(sum_of(&[1.0, ulp / 2.0, 1e-300]), next);
        // …or downwards.
        assert_eq!(sum_of(&[next, ulp / 2.0, -1e-300]), next);
        // Negative sums mirror positive ones.
        assert_eq!(sum_of(&[-1.0, -ulp / 2.0]), -1.0);
        assert_eq!(sum_of(&[-next, -ulp / 2.0]), -1.0 - 2.0 * ulp);
        // Subnormal results are exact, never rounded.
        let tiny = f64::from_bits(1);
        assert_eq!(sum_of(&[tiny, tiny, tiny]), f64::from_bits(3));
        assert_eq!(
            sum_of(&[f64::MIN_POSITIVE, -tiny]),
            f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1)
        );
    }

    #[test]
    fn carry_budget_boundary_is_exact() {
        // The worst case for one chunk: a mantissa of all ones shifted as
        // far up as it goes (bit position ≡ 31 mod 32) puts just under 2⁵²
        // into the high chunk on every add. Cross the 2¹¹-add budget several
        // times, in both signs, and compare with integer arithmetic.
        let x = f64::from_bits(1152 << 52 | FRAC_MASK); // (2⁵³−1)·2⁷⁷
        assert_eq!(((x.to_bits() >> 52) as u32 - 1) % CHUNK_BITS, 31);
        let mut sum = ExactSum::default();
        for n in 1..=5000u64 {
            sum.add(x);
            if n == MAX_PENDING as u64 {
                assert_eq!(sum.pending, MAX_PENDING);
            }
            if n == MAX_PENDING as u64 + 1 {
                assert_eq!(sum.pending, 1, "normalized on the budget boundary");
            }
            if [2046, 2047, 2048, 2049, 4095, 5000].contains(&n) {
                // n·(2⁵³−1) is exact in u128 and `as f64` rounds it
                // half-to-even; scaling by 2⁷⁷ is exact.
                let exact = (n as u128 * ((1 << 53) - 1)) as f64 * 2f64.powi(77);
                assert_eq!(sum.value(), exact, "after {n} adds");
            }
        }
        assert!(sum.spill.is_none());
        for _ in 0..5000 {
            sum.add(-x);
        }
        assert_eq!(sum.value(), 0.0);

        // Merges spend the budget too: fold 64 full-budget partials.
        let mut partial = ExactSum::default();
        for _ in 0..MAX_PENDING {
            partial.add(x);
        }
        assert_eq!(partial.pending, MAX_PENDING);
        let mut folded = ExactSum::default();
        for _ in 0..64 {
            folded.merge(&partial);
        }
        let n = 64 * MAX_PENDING as u128;
        assert_eq!(folded.value(), (n * ((1 << 53) - 1)) as f64 * 2f64.powi(77));
    }

    #[test]
    fn window_rebases_when_the_span_fits_and_spills_when_not() {
        let mut sum = ExactSum::default();
        // 1.0 = 2⁵²·2¹⁰²²: added into chunks 31 and 32 (carry-normalized,
        // its one bit sits in chunk 33); the window starts one chunk below.
        sum.add(1.0);
        assert_eq!(sum.base, 30);
        // 2⁻⁴⁰ lands in the spare low chunk: no move.
        sum.add(2f64.powi(-40));
        assert_eq!(sum.base, 30);
        // 2⁻⁷⁰ needs chunks 29 and 30; with 32..=33 occupied that is a span
        // of 5: rebase, no spill.
        sum.add(2f64.powi(-70));
        assert!(sum.spill.is_none());
        assert_eq!(sum.base, 29);
        assert_eq!(sum.value(), 1.0 + 2f64.powi(-40));
        sum.add(-1.0);
        assert_eq!(sum.value(), 2f64.powi(-40) + 2f64.powi(-70));
        // Once the low chunks cancel, the window is free to follow the sum
        // anywhere.
        sum.add(-2f64.powi(-70));
        sum.add(-2f64.powi(-40));
        sum.add(2f64.powi(200));
        assert!(sum.spill.is_none());
        assert_eq!(sum.base, 37);
        assert_eq!(sum.value(), 2f64.powi(200));
        // A span wider than the window spills, once, and stays exact.
        sum.add(2f64.powi(-200));
        assert!(sum.spill.is_some());
        sum.add(-2f64.powi(200));
        assert_eq!(sum.value(), 2f64.powi(-200));
        sum.add(f64::MAX);
        sum.add(f64::from_bits(1));
        sum.add(-f64::MAX);
        assert_eq!(sum.value(), 2f64.powi(-200));
        sum.add(-2f64.powi(-200));
        assert_eq!(sum.value(), f64::from_bits(1));

        // Merging partials whose windows sit apart rebases or spills the
        // receiver, in either direction, with the same result.
        let part = |values: &[f64]| {
            let mut s = ExactSum::default();
            values.iter().for_each(|&x| s.add(x));
            s
        };
        for (a, b, spills) in [
            (&[1.0, 3.0][..], &[2f64.powi(-60)][..], false),
            (&[1e300][..], &[1e-300, -2e-300][..], true),
        ] {
            let (mut ab, mut ba) = (part(a), part(b));
            ab.merge(&part(b));
            ba.merge(&part(a));
            assert_eq!(ab.spill.is_some(), spills);
            assert_eq!(ba.spill.is_some(), spills);
            let all: Vec<f64> = a.iter().chain(b).copied().collect();
            assert_eq!(ab.value(), part(&all).value());
            assert_eq!(ba.value(), ab.value());
        }

        // Carry out of the window's top chunk slides it up: 2⁷⁰ equal
        // values' worth of growth, fed as doubling merges.
        let mut grow = part(&[1.5]);
        for _ in 0..70 {
            let copy = grow.clone();
            grow.merge(&copy);
        }
        assert!(grow.spill.is_none());
        assert_eq!(grow.value(), 1.5 * 2f64.powi(70));
    }

    #[test]
    fn same_base_merge_leaves_the_state_the_general_route_does() {
        let part = |n: usize, x: f64| {
            let mut s = ExactSum::default();
            (0..n).for_each(|_| s.add(x));
            s
        };
        // Worst-case chunk growth on a shared window: (2⁵³−1)·2⁷⁷ and its
        // negated neighbour. `mine + theirs` adds pending; the merge adds 1.
        let x = f64::from_bits(1152 << 52 | FRAC_MASK);
        let y = -f64::from_bits(1152 << 52 | (FRAC_MASK - 1));
        for (mine, theirs) in [
            (1, 1),
            (40, 60),
            (1000, 1044),
            (1000, 1045), // 2045 + 1 = the whole budget: still in place
            (1, 2044),
            (1000, 1046), // one over: normalize first
            (2045, 1),
            (1000, 1047),
            (2046, 2046),
        ] {
            let (left, right) = (part(mine, x), part(theirs, y));
            assert_eq!(left.base, right.base, "test premise: one window");
            let mut fast = left.clone();
            fast.merge(&right);
            let mut general = left.clone();
            general.merge_general(&right);
            assert_eq!(fast.pending, general.pending, "{mine} + {theirs}");
            assert_eq!(fast.flags, general.flags, "{mine} + {theirs}");
            assert_eq!((fast.base, fast.window), (general.base, general.window));
            assert!(fast.pending <= MAX_PENDING);
            let exact = mine as i128 * ((1 << 53) - 1) - theirs as i128 * ((1 << 53) - 2);
            assert_eq!(
                fast.value(),
                exact as f64 * 2f64.powi(77),
                "{mine} + {theirs}"
            );
        }

        // The other shortcuts agree with the general route on the value and
        // the flags; an empty side costs no carry budget.
        let some = part(3, 1.5);
        let mut adopted = ExactSum::default();
        adopted.merge(&some);
        assert_eq!((adopted.base, adopted.window), (some.base, some.window));
        assert_eq!((adopted.pending, adopted.flags), (some.pending, some.flags));
        let mut unchanged = some.clone();
        unchanged.merge(&ExactSum::default());
        assert_eq!(unchanged.pending, some.pending);
        assert_eq!(unchanged.value(), 4.5);

        // A reset accumulator is empty again but keeps its window, so the
        // next value of the same magnitude is a plain add.
        let mut reused = Accumulator::new();
        reused.update(Some(1.5));
        let base = reused.sum.base;
        reused.reset();
        assert_eq!(reused, Accumulator::new());
        assert_eq!((reused.sum.base, reused.sum.flags), (base, 0));
        reused.update(Some(-0.0));
        assert_eq!(reused.sum().to_bits(), (-0.0f64).to_bits());
        reused.reset();
        reused.merge(&{
            let mut other = Accumulator::new();
            other.update(Some(2f64.powi(-300)));
            other
        });
        assert_eq!(reused.sum(), 2f64.powi(-300));
    }

    #[test]
    fn signed_zero_follows_ieee_addition() {
        assert_eq!(sum_of(&[]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum_of(&[-0.0]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(sum_of(&[-0.0, -0.0]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(sum_of(&[-0.0, 0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum_of(&[1.0, -0.0, -1.0]).to_bits(), 0.0f64.to_bits());
        let mut a = Accumulator::new();
        a.update(Some(-0.0));
        let mut merged = Accumulator::new();
        merged.merge(&a);
        assert_eq!(merged.sum().to_bits(), (-0.0f64).to_bits());
        merged.update(Some(0.0));
        assert_eq!(merged.sum().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn extremes_order_negative_zero_below_positive_zero_in_any_order() {
        let bits = |a: &Accumulator, func| a.finish(func).map(f64::to_bits);
        let (neg, pos) = (Some((-0.0f64).to_bits()), Some(0.0f64.to_bits()));
        for order in [[0.0, -0.0], [-0.0, 0.0]] {
            let mut fed = Accumulator::new();
            let mut merged = Accumulator::new();
            for x in order {
                fed.update(Some(x));
                let mut part = Accumulator::new();
                part.update(Some(x));
                merged.merge(&part);
            }
            for acc in [&fed, &merged] {
                assert_eq!(bits(acc, AggFunc::Min), neg, "{order:?}");
                assert_eq!(bits(acc, AggFunc::Max), pos, "{order:?}");
            }
        }
        // One zero is its own MIN and MAX; NaN still widens nothing.
        for z in [0.0f64, -0.0] {
            let mut a = Accumulator::new();
            for x in [z, f64::NAN, z] {
                a.update(Some(x));
            }
            assert_eq!(bits(&a, AggFunc::Min), Some(z.to_bits()));
            assert_eq!(bits(&a, AggFunc::Max), Some(z.to_bits()));
        }
    }

    #[test]
    fn a_function_keeps_only_what_it_reads() {
        let values = [2.5, -1.0, f64::NAN, 4.0];
        let mut all = Accumulator::new();
        for x in values {
            all.update(Some(x));
        }
        all.update(None);
        for func in AggFunc::ALL {
            let mut own = Accumulator::new();
            for x in values {
                own.update_for(Some(x), func);
            }
            own.update_for(None, func);
            let needs = Needs::of(func);
            assert_eq!(own, all.project(needs), "{func}");
            let bits = |a: &Accumulator| a.finish(func).map(f64::to_bits);
            assert_eq!(bits(&own), bits(&all), "{func}");
            assert_eq!(own.count, 4);
            assert_eq!(own.sum.flags != 0, needs.sum, "{func}");
            assert_eq!(own.min == f64::INFINITY, !needs.extremes, "{func}");
        }
        assert_eq!(all.project(Needs::ALL), all);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "did not keep its extremes")]
    fn min_of_an_accumulator_without_extremes_fails_a_debug_assertion() {
        let mut avg = Accumulator::new();
        avg.update_for(Some(1.0), AggFunc::Avg);
        avg.finish(AggFunc::Min);
    }

    #[test]
    fn add_fixed_equals_adding_the_same_number_value_by_value() {
        // v · 2^pos as three exact f64 pieces of at most 43 bits each.
        let pieces = |v: i128, pos: u32| {
            let sign = if v < 0 { -1.0 } else { 1.0 };
            (0..3).map(move |j| {
                let piece = (v.unsigned_abs() >> (43 * j)) as u64 & ((1 << 43) - 1);
                let exp = 43 * j + pos as i32 - 1074;
                sign * piece as f64 * 2f64.powi(exp / 2) * 2f64.powi(exp - exp / 2)
            })
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..4096 {
            let mut fixed = ExactSum::default();
            let mut each = ExactSum::default();
            // Up to three lanes of different units into one sum, some of
            // them onto values that went in one at a time.
            if case % 3 == 0 {
                let x = f64::from_bits(next() >> 2) * 0.5;
                fixed.add(x);
                each.add(x);
            }
            for _ in 0..=case % 3 {
                let width = next() % 126;
                let v = ((next() as i128) << 64 | next() as i128) >> (127 - width);
                let v = if case % 7 == 0 { 0 } else { v };
                // 2^(pos + 127) must stay a finite f64 for the pieces.
                let pos = (next() % 1900) as u32;
                fixed.add_fixed(v, pos);
                pieces(v, pos).for_each(|x| each.add(x));
                if v == 0 {
                    each.add(0.0);
                }
            }
            assert_eq!(
                fixed.value().to_bits(),
                each.value().to_bits(),
                "case {case}"
            );
        }
        // The extremes of the type and of the position.
        for (v, pos) in [(i128::MAX, 0), (i128::MIN + 1, 1900), (1, 2009), (-1, 31)] {
            let mut fixed = ExactSum::default();
            fixed.add_fixed(v, pos);
            let mut each = ExactSum::default();
            pieces(v, pos).for_each(|x| each.add(x));
            assert_eq!(fixed.value().to_bits(), each.value().to_bits(), "{v} {pos}");
        }
    }

    #[test]
    fn lane_terms_hold_the_value_and_its_count_or_mark_a_stray() {
        let unit = lane_unit(1023 + 3).unwrap(); // a column whose largest magnitude is in [8, 16)
        assert_eq!(unit, 1022 + 3 - LANE_SPREAD);
        let back = |lane: i128| (lane >> LANE_COUNT_BITS) as f64 * 2f64.powi(unit as i32 - 1074);
        for x in [
            1.0,
            -1.0,
            15.999,
            -0.1,
            0.0,
            2f64.powi(3) * 1.75,
            3.0 * 2f64.powi(-34),
        ] {
            let (term, stray) = lane_term(x.to_bits(), lane_powers(unit));
            assert_eq!((stray, term & LANE_BUDGET as i128), (0, 1), "{x}");
            assert_eq!(back(term), x);
        }
        // One binade above and below the lane, and everything that has no
        // fixed-point form at all: the term is the bare count.
        for x in [
            2f64.powi(4),
            -2f64.powi(-34) * 1.5,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            let (term, stray) = lane_term(x.to_bits(), lane_powers(unit));
            assert!(stray != 0 && term == 1, "{x}");
        }
        // Placement at both ends of the exponent range.
        assert_eq!((lane_unit(0), lane_unit(0x7FF)), (None, None));
        assert_eq!(lane_unit(1), Some(0));
        let top = lane_unit(0x7FE).unwrap();
        assert_eq!(lane_term(f64::MAX.to_bits(), lane_powers(top)).1, 0);
        assert_ne!(lane_term(f64::INFINITY.to_bits(), lane_powers(top)).1, 0);
        assert_eq!(lane_term(f64::MIN_POSITIVE.to_bits(), lane_powers(0)).1, 0);

        // A full budget of the largest term a lane accepts, both signs:
        // count and sum come back exactly (53 + 36 + 2 · 18 ≤ 126 bits).
        let big = f64::from_bits((unit as u64 + 1 + LANE_SPREAD as u64) << 52 | FRAC_MASK);
        for x in [big, -big] {
            let (term, stray) = lane_term(x.to_bits(), lane_powers(unit));
            assert_eq!(stray, 0);
            let lane = term * LANE_BUDGET as i128; // no overflow panic: fits
            let mut folded = Accumulator::new();
            folded.fold_lane(lane, unit);
            assert_eq!(folded.count, LANE_BUDGET as u64);
            let exact = LANE_BUDGET as i128 * ((1 << 53) - 1);
            let scale = 2f64.powi((unit + LANE_SPREAD) as i32 - 1074);
            assert_eq!(folded.sum(), x.signum() * (exact as f64 * scale));
        }
    }

    #[test]
    fn accumulator_footprint_is_at_most_80_bytes() {
        // Cached partials and results are arrays of these; the
        // expansion-based accumulator this one replaced was 80 bytes. What a
        // live aggregation keeps beside them is bounded in `hashagg`.
        const _: () = assert!(std::mem::size_of::<Accumulator>() <= 80);
        assert_eq!(std::mem::size_of::<ExactSum>(), 56);
    }

    #[test]
    fn agg_func_parse_round_trip() {
        for f in AggFunc::ALL {
            assert_eq!(f.name().parse::<AggFunc>().unwrap(), f);
            assert_eq!(f.name().to_lowercase().parse::<AggFunc>().unwrap(), f);
        }
        assert!("MEDIAN".parse::<AggFunc>().is_err());
    }
}
