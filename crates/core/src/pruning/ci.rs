//! Confidence-interval pruning (§4.2, Theorem 4.1).
//!
//! After phase `m` of `N`, each view has `m` utility estimates
//! `Y₁, …, Y_m` (utility computed on the cumulative data after each
//! phase). The Hoeffding–Serfling inequality for sampling *without
//! replacement* gives a running confidence interval around their mean that
//! contains the true utility with probability ≥ 1 − δ.
//!
//! We use the Serfling-style half-width
//!
//! ```text
//! ε(m, N, δ) = sqrt( (1 − (m−1)/N) · ln(2/δ) / (2m) )
//! ```
//!
//! where the factor `1 − (m−1)/N` is the finite-population correction that
//! drives the interval to zero as the scan approaches the full dataset —
//! the property the paper's Theorem 4.1 provides. Utilities are distances
//! between probability distributions; every supported metric is bounded by
//! 2, so estimates are rescaled into `[0, 1]` by that constant before the
//! bound applies.
//!
//! **Pruning rule** (paper, §4.2): *"If the upper bound of the utility of
//! view Vi is less than the lower bound of the utility of k or more views,
//! then Vi is discarded."* Symmetrically, a view whose lower bound beats
//! the upper bound of all but fewer-than-k views is *accepted* — this is
//! what lets `COMB_EARLY` stop before the final phase.
//!
//! The bound treats per-phase utility estimates as values in `[0, 1]`.
//! Every supported L1-family metric on normalized distributions is ≤ 2,
//! so estimates are rescaled into `[0, 1]` by that constant — **and then
//! clamped**, because EMD over many bins can exceed 2 for pathological
//! mass transport (all target mass in the last bin, all reference mass in
//! the first gives EMD = bins − 1), which would silently violate the
//! bound's `[0, 1]` precondition. Clamping keeps such estimates inside
//! the bound's domain at the cost of not distinguishing utilities beyond
//! 2 from one another — conservative, never unsound. As the paper notes
//! (§4.2, "Consistent Distance Functions"), the guarantees do not carry
//! over exactly anyway; what matters — and what §5.4 measures — is that
//! pruning with these intervals is accurate in practice.

use super::{PruneDecision, Pruner, ViewEstimate};

/// Every supported metric on normalized distributions is bounded by this
/// constant — except EMD over many bins, which [`scale01`] clamps.
const UTILITY_SCALE: f64 = 2.0;

/// Maps a raw utility estimate into the Hoeffding–Serfling bound's
/// `[0, 1]` domain: rescale by [`UTILITY_SCALE`], then clamp. NaN passes
/// through: comparisons against it are false, so a NaN-utility view
/// never dominates nor is dominated, and the accept branch explicitly
/// skips it — it stays undecided. (Unreachable through the normal
/// pipeline — `normalize` yields finite distributions — but poisoned
/// measure data must not be "certainly top-k".)
fn scale01(u: f64) -> f64 {
    (u / UTILITY_SCALE).clamp(0.0, 1.0)
}

/// Hoeffding–Serfling confidence-interval pruner.
#[derive(Debug, Clone)]
pub struct CiPruner {
    delta: f64,
}

impl CiPruner {
    /// Creates a CI pruner with confidence parameter `delta`.
    pub fn new(delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        CiPruner { delta }
    }

    /// Interval half-width after `m` of `n` phases.
    pub fn half_width(&self, m: usize, n: usize) -> f64 {
        if m == 0 {
            return f64::INFINITY;
        }
        if m >= n {
            // Entire dataset consumed: the estimate is exact.
            return 0.0;
        }
        let m_f = m as f64;
        let n_f = n as f64;
        let correction = 1.0 - (m_f - 1.0) / n_f;
        ((correction * (2.0 / self.delta).ln()) / (2.0 * m_f)).sqrt()
    }
}

impl Pruner for CiPruner {
    fn decide(
        &mut self,
        estimates: &[ViewEstimate],
        accepted_so_far: usize,
        k: usize,
        phase: usize,
        total_phases: usize,
    ) -> PruneDecision {
        let mut decision = PruneDecision::default();
        let slots = k.saturating_sub(accepted_so_far);
        if estimates.is_empty() || slots == 0 {
            // Top-k already filled: everything left is discardable.
            decision.discard = estimates.iter().map(|e| e.view_id).collect();
            return decision;
        }
        let eps = self.half_width(phase, total_phases);
        let lower = |e: &ViewEstimate| scale01(e.mean) - eps;
        let upper = |e: &ViewEstimate| scale01(e.mean) + eps;

        for v in estimates {
            // Count live views whose lower bound exceeds v's upper bound.
            let dominated_by = estimates
                .iter()
                .filter(|o| o.view_id != v.view_id && lower(o) > upper(v))
                .count();
            if dominated_by >= slots {
                decision.discard.push(v.view_id);
                continue;
            }
            // Accept: v's lower bound beats the upper bound of all but
            // fewer than `slots` views — v is certainly in the top-k. A
            // NaN mean makes every comparison above false, which would
            // read as "dominates everything"; such a view is never
            // certain, so it stays undecided instead.
            let not_dominated = estimates
                .iter()
                .filter(|o| o.view_id != v.view_id && upper(o) >= lower(v))
                .count();
            if not_dominated < slots && !v.mean.is_nan() {
                decision.accept.push(v.view_id);
            }
        }
        // Never accept more than the remaining slots (ties could otherwise
        // overfill); prefer higher means.
        if decision.accept.len() > slots {
            let mut by_mean: Vec<&ViewEstimate> = estimates
                .iter()
                .filter(|e| decision.accept.contains(&e.view_id))
                .collect();
            by_mean.sort_by(|a, b| b.mean.partial_cmp(&a.mean).unwrap());
            decision.accept = by_mean.into_iter().take(slots).map(|e| e.view_id).collect();
        }
        decision
    }

    fn label(&self) -> &'static str {
        "CI"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::estimates_from;

    #[test]
    fn half_width_shrinks_with_phases_and_hits_zero() {
        let p = CiPruner::new(0.05);
        let n = 10;
        let widths: Vec<f64> = (1..=n).map(|m| p.half_width(m, n)).collect();
        for w in widths.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "widths must be non-increasing: {widths:?}"
            );
        }
        assert_eq!(widths[n - 1], 0.0, "full scan gives exact estimate");
        assert_eq!(p.half_width(0, n), f64::INFINITY);
    }

    /// The half-width `√((1 − (m−1)/N)·ln(2/δ) / 2m)` by hand for N = 10,
    /// δ = 0.05, where `ln(2/δ) = ln 40 = 3.688879…`:
    ///
    /// | m  | 1 − (m−1)/N | ·ln 40 / 2m          | √       |
    /// |----|-------------|----------------------|---------|
    /// | 1  | 1.0         | 3.688879 / 2 = 1.844440  | 1.35810 |
    /// | 5  | 0.6         | 2.213328 / 10 = 0.221333 | 0.47046 |
    /// | 9  | 0.2         | 0.737776 / 18 = 0.040988 | 0.20245 |
    /// | 10 | —           | the whole table: exact   | 0       |
    ///
    /// These are widths on `[0, 1]`-valued samples, which is why
    /// `scale01` (PR 5) rescales a utility by 2 — every supported metric
    /// on normalized distributions is at most 2 — **and clamps**: EMD over
    /// `b` bins reaches `b − 1`, and an estimate of, say, 5 would enter the
    /// comparison as 2.5 against intervals that can only ever speak about
    /// `[0, 1]`, so a bound that holds with probability 1 − δ for the
    /// clamped variable would be claimed for one it says nothing about.
    /// The table also shows why the pruner is idle on DIAB 100K until the
    /// last phase: after nine of ten phases the interval is still ± 0.20
    /// wide while the scaled utilities there span 0.1 – 0.3.
    #[test]
    fn half_width_matches_hand_worked_values() {
        let p = CiPruner::new(0.05);
        for (m, want) in [(1, 1.35810), (5, 0.47046), (9, 0.20245)] {
            let got = p.half_width(m, 10);
            assert!((got - want).abs() < 5e-6, "m = {m}: {got} vs {want}");
        }
        assert_eq!(p.half_width(10, 10), 0.0);
        // The unrounded formula, once: m = 5.
        let exact = (0.6 * 40f64.ln() / 10.0).sqrt();
        assert_eq!(p.half_width(5, 10), exact);
        // What the rescale-and-clamp feeds those intervals.
        assert_eq!(scale01(0.58), 0.29);
        assert_eq!(scale01(5.0), 1.0);
    }

    #[test]
    fn smaller_delta_gives_wider_intervals() {
        let tight = CiPruner::new(0.2);
        let loose = CiPruner::new(0.01);
        assert!(loose.half_width(3, 10) > tight.half_width(3, 10));
    }

    #[test]
    fn clearly_dominated_views_are_discarded() {
        let mut p = CiPruner::new(0.05);
        // One view far below k=2 others, near the end of the scan (tight
        // CI). Means are raw utilities in [0, 2]; the pruner rescales.
        let means = [1.8, 1.6, 0.05];
        let d = p.decide(&estimates_from(&means, 9), 0, 2, 9, 10);
        assert!(d.discard.contains(&2), "{d:?}");
        assert!(!d.discard.contains(&0));
        assert!(!d.discard.contains(&1));
    }

    #[test]
    fn oversized_emd_estimates_clamp_into_the_bound() {
        // EMD over many bins can exceed the rescaling constant 2 (all
        // target mass in the last bin vs all reference mass in the first
        // over B bins gives EMD = B − 1). Unclamped, a mean of 100 would
        // put its lower bound at 49.8 and instantly discard everything
        // else; clamped, both oversized means saturate at 1.0 and neither
        // can dominate the other.
        let mut p = CiPruner::new(0.05);
        let means = [100.0, 4.0];
        let d = p.decide(&estimates_from(&means, 9), 0, 1, 9, 10);
        assert!(d.discard.is_empty(), "{d:?}");
        // Against a genuinely low view the clamped estimate still prunes.
        let means = [100.0, 0.01];
        let d = p.decide(&estimates_from(&means, 9), 0, 1, 9, 10);
        assert_eq!(d.discard, vec![1], "{d:?}");
    }

    #[test]
    fn nan_means_stay_undecided() {
        // A NaN mean defeats every bound comparison; it must be neither
        // accepted ("certainly top-k") nor discarded.
        let mut p = CiPruner::new(0.05);
        let estimates = vec![
            ViewEstimate {
                view_id: 0,
                mean: f64::NAN,
                samples: 9,
            },
            ViewEstimate {
                view_id: 1,
                mean: 0.4,
                samples: 9,
            },
        ];
        let d = p.decide(&estimates, 0, 1, 9, 10);
        assert!(!d.accept.contains(&0), "{d:?}");
        assert!(!d.discard.contains(&0), "{d:?}");
    }

    #[test]
    fn scale01_maps_into_unit_interval() {
        assert_eq!(scale01(0.0), 0.0);
        assert_eq!(scale01(1.0), 0.5);
        assert_eq!(scale01(2.0), 1.0);
        assert_eq!(scale01(7.5), 1.0, "oversized EMD clamps");
        assert_eq!(scale01(-0.5), 0.0, "rounding noise clamps at zero");
        assert!(scale01(f64::NAN).is_nan());
    }

    #[test]
    fn wide_intervals_early_prevent_pruning() {
        let mut p = CiPruner::new(0.05);
        let means = [0.9, 0.8, 0.05];
        // Phase 1 of 100: intervals are huge, nothing should be decided.
        let d = p.decide(&estimates_from(&means, 1), 0, 2, 1, 100);
        assert!(d.discard.is_empty(), "{d:?}");
        assert!(d.accept.is_empty(), "{d:?}");
    }

    #[test]
    fn dominant_view_is_accepted() {
        let mut p = CiPruner::new(0.05);
        // k=1 and view 0 towers above the rest late in the scan.
        let means = [0.95, 0.1, 0.12, 0.08];
        let d = p.decide(&estimates_from(&means, 9), 0, 1, 9, 10);
        assert_eq!(d.accept, vec![0]);
    }

    #[test]
    fn accepts_capped_at_remaining_slots() {
        let mut p = CiPruner::new(0.05);
        // Three views tower over the fourth but only 2 slots remain.
        let means = [0.9, 0.89, 0.88, 0.01];
        let d = p.decide(&estimates_from(&means, 9), 0, 2, 9, 10);
        assert!(d.accept.len() <= 2, "{d:?}");
    }

    #[test]
    fn no_slots_left_discards_remaining() {
        let mut p = CiPruner::new(0.05);
        let means = [0.5, 0.4];
        let d = p.decide(&estimates_from(&means, 5), 3, 3, 5, 10);
        assert_eq!(d.discard.len(), 2);
    }

    #[test]
    fn ties_never_discard_within_interval() {
        let mut p = CiPruner::new(0.05);
        // All means equal: no view dominates another.
        let means = [0.5; 6];
        let d = p.decide(&estimates_from(&means, 5), 0, 2, 5, 10);
        assert!(d.discard.is_empty());
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn invalid_delta_panics() {
        CiPruner::new(0.0);
    }

    /// Empirical coverage: the running interval brackets the true mean with
    /// frequency ≥ 1 − δ under without-replacement sampling.
    #[test]
    fn empirical_coverage_of_running_interval() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 20usize; // phases
        let delta = 0.1;
        let p = CiPruner::new(delta);
        let mut violations = 0;
        let trials = 400;
        for _ in 0..trials {
            // Population of n per-phase estimates in [0,1].
            let mut pop: Vec<f64> = (0..n).map(|i| (i as f64 / n as f64).fract()).collect();
            pop.shuffle(&mut rng);
            let true_mean: f64 = pop.iter().sum::<f64>() / n as f64;
            let mut running_sum = 0.0;
            let mut violated = false;
            for m in 1..=n {
                running_sum += pop[m - 1];
                let mean_m = running_sum / m as f64;
                let eps = p.half_width(m, n);
                if (mean_m - true_mean).abs() > eps + 1e-12 {
                    violated = true;
                    break;
                }
            }
            if violated {
                violations += 1;
            }
        }
        let rate = violations as f64 / trials as f64;
        assert!(
            rate <= delta + 0.05,
            "violation rate {rate} exceeds delta {delta}"
        );
    }
}
