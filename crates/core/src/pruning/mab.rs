//! Multi-armed-bandit pruning (§4.2): the Successive Accepts and Rejects
//! strategy adapted from Bubeck et al., "Multiple identifications in
//! multi-armed bandits" (the paper's reference 5).
//!
//! At the end of every phase, live views are ranked by their running
//! utility means. Two gaps are computed:
//!
//! * `Δ₁` — highest mean minus the `(k+1)`-st highest mean,
//! * `Δ_n` — the `k`-th highest mean minus the lowest mean.
//!
//! If `Δ₁ > Δ_n`, the top view is **accepted** into the top-k (it stops
//! participating in pruning); otherwise the bottom view is **rejected**.
//! One arm is decided per phase, which is why MAB prunes more slowly — but
//! more cautiously — than CI (§5.4's CI-vs-MAB discussion).

use super::{PruneDecision, Pruner, ViewEstimate};

/// Successive-accepts-and-rejects pruner.
#[derive(Debug, Clone, Default)]
pub struct MabPruner;

impl MabPruner {
    /// Creates the MAB pruner.
    pub fn new() -> Self {
        MabPruner
    }
}

impl Pruner for MabPruner {
    fn decide(
        &mut self,
        estimates: &[ViewEstimate],
        accepted_so_far: usize,
        k: usize,
        _phase: usize,
        _total_phases: usize,
    ) -> PruneDecision {
        let mut decision = PruneDecision::default();
        let slots = k.saturating_sub(accepted_so_far);
        if slots == 0 {
            decision.discard = estimates.iter().map(|e| e.view_id).collect();
            return decision;
        }
        // If no more views than slots remain, everything left is top-k.
        if estimates.len() <= slots {
            return decision;
        }

        let mut ranked: Vec<&ViewEstimate> = estimates.iter().collect();
        ranked.sort_by(|a, b| b.mean.partial_cmp(&a.mean).unwrap());

        // Δ₁: best vs the first view that would *not* fit in the remaining
        // slots; Δ_n: the last fitting view vs the worst.
        let delta_1 = ranked[0].mean - ranked[slots].mean;
        let delta_n = ranked[slots - 1].mean - ranked[ranked.len() - 1].mean;

        if delta_1 > delta_n {
            decision.accept.push(ranked[0].view_id);
        } else {
            decision.discard.push(ranked[ranked.len() - 1].view_id);
        }
        decision
    }

    fn label(&self) -> &'static str {
        "MAB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::estimates_from;

    #[test]
    fn accepts_top_when_top_gap_dominates() {
        let mut p = MabPruner::new();
        // k=2: the top view's gap to the first non-fitting view (Δ₁ =
        // 0.9−0.3) exceeds the bottom gap (Δn = 0.85−0.28), so SAR accepts.
        let means = [0.9, 0.85, 0.30, 0.28];
        let d = p.decide(&estimates_from(&means, 3), 0, 2, 3, 10);
        assert_eq!(d.accept, vec![0]);
        assert!(d.discard.is_empty());
    }

    #[test]
    fn k_equals_one_only_rejects() {
        // With k=1, Δn = mean₁ − mean_last ≥ Δ₁ = mean₁ − mean₂ always, so
        // successive-rejects behaviour emerges: the bottom arm is discarded
        // each round (the classic best-arm identification algorithm).
        let mut p = MabPruner::new();
        let means = [0.9, 0.30, 0.29, 0.28];
        let d = p.decide(&estimates_from(&means, 3), 0, 1, 3, 10);
        assert!(d.accept.is_empty());
        assert_eq!(d.discard, vec![3]);
    }

    #[test]
    fn rejects_bottom_when_bottom_gap_dominates() {
        let mut p = MabPruner::new();
        // k=1: top views clustered, bottom far below.
        let means = [0.50, 0.49, 0.48, 0.05];
        let d = p.decide(&estimates_from(&means, 3), 0, 1, 3, 10);
        assert_eq!(d.discard, vec![3]);
        assert!(d.accept.is_empty());
    }

    #[test]
    fn decides_exactly_one_arm_per_phase() {
        let mut p = MabPruner::new();
        let means = [0.9, 0.7, 0.5, 0.3, 0.1];
        let d = p.decide(&estimates_from(&means, 4), 0, 2, 4, 10);
        assert_eq!(d.accept.len() + d.discard.len(), 1);
    }

    #[test]
    fn no_decision_when_views_fit_in_slots() {
        let mut p = MabPruner::new();
        let means = [0.9, 0.1];
        let d = p.decide(&estimates_from(&means, 4), 0, 5, 4, 10);
        assert!(d.accept.is_empty() && d.discard.is_empty());
    }

    #[test]
    fn accepted_slots_shrink_k() {
        let mut p = MabPruner::new();
        // k=3 with 2 already accepted => 1 effective slot, so SAR is in its
        // k=1 regime: it rejects the bottom arm rather than accepting.
        let means = [0.9, 0.2, 0.19];
        let d = p.decide(&estimates_from(&means, 4), 2, 3, 4, 10);
        assert!(d.accept.is_empty());
        assert_eq!(d.discard, vec![2]);
    }

    #[test]
    fn all_slots_taken_discards_rest() {
        let mut p = MabPruner::new();
        let means = [0.9, 0.8];
        let d = p.decide(&estimates_from(&means, 4), 3, 3, 4, 10);
        assert_eq!(d.discard.len(), 2);
    }

    #[test]
    fn simulated_run_identifies_true_top_k() {
        // Drive the pruner phase by phase on noiseless means; it must
        // eventually isolate the true top-2 of five views.
        let true_means = [0.8, 0.7, 0.3, 0.2, 0.1];
        let k = 2;
        let mut alive: Vec<usize> = (0..5).collect();
        let mut accepted: Vec<usize> = Vec::new();
        let mut p = MabPruner::new();
        for phase in 1..=10 {
            let ests: Vec<ViewEstimate> = alive
                .iter()
                .map(|&i| ViewEstimate {
                    view_id: i,
                    mean: true_means[i],
                    samples: phase,
                })
                .collect();
            let d = p.decide(&ests, accepted.len(), k, phase, 10);
            for a in d.accept {
                accepted.push(a);
                alive.retain(|&v| v != a);
            }
            for r in d.discard {
                alive.retain(|&v| v != r);
            }
            if accepted.len() == k || accepted.len() + alive.len() == k {
                break;
            }
        }
        let mut final_set: Vec<usize> = accepted;
        final_set.extend(alive);
        final_set.sort();
        assert_eq!(final_set, vec![0, 1]);
    }
}
