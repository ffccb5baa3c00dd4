//! # seedb-metrics
//!
//! Deviation-based utility metrics for SeeDB (§2 of the paper).
//!
//! A SeeDB view produces two aggregate vectors — one over the target data
//! `D_Q`, one over the reference data `D_R` — with one entry per group.
//! Both are normalized into probability distributions
//! ([`normalize`]), and the view's **utility** is the distance between the
//! two distributions under a chosen metric.
//!
//! The paper's default is Earth Mover's Distance; it also names Euclidean
//! distance, K-L divergence and Jenson-Shannon distance (§2), and evaluates
//! pruning under `MAX_DIFF` as well (§4.2). All are provided here, plus L1
//! and symmetric χ², as [`DistanceKind`] variants.
//!
//! ```
//! use seedb_metrics::{normalize, DistanceKind};
//!
//! let target = normalize(&[510.0, 485.0]);    // unmarried: F, M capital gain
//! let reference = normalize(&[300.0, 670.0]); // married: F, M capital gain
//! let utility = DistanceKind::Emd.compute(&target, &reference);
//! assert!(utility > 0.1); // large deviation => interesting
//! ```

#![forbid(unsafe_code)]

mod distances;
mod normalize;

pub use distances::{chi_squared, emd, euclidean, jensen_shannon, kl_divergence, l1, max_diff};
pub use normalize::{normalize, normalize_into, normalize_pair};

use std::fmt;
use std::str::FromStr;

/// The distance functions SeeDB supports for computing deviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistanceKind {
    /// Earth Mover's Distance over the 1-D group ordering (paper default).
    Emd,
    /// Euclidean (L2) distance.
    Euclidean,
    /// Manhattan (L1) distance.
    L1,
    /// Kullback–Leibler divergence `KL(target ‖ reference)` with ε-smoothing.
    KlDivergence,
    /// Jensen–Shannon distance (square root of the JS divergence, base-2).
    JensenShannon,
    /// Maximum per-group difference (paper's `MAX_DIFF`).
    MaxDiff,
    /// Symmetric chi-squared distance.
    ChiSquared,
}

impl DistanceKind {
    /// Every supported metric, for sweeps and ablations.
    pub const ALL: [DistanceKind; 7] = [
        DistanceKind::Emd,
        DistanceKind::Euclidean,
        DistanceKind::L1,
        DistanceKind::KlDivergence,
        DistanceKind::JensenShannon,
        DistanceKind::MaxDiff,
        DistanceKind::ChiSquared,
    ];

    /// Computes the distance between two equal-length probability vectors.
    ///
    /// Inputs are expected to be normalized (see [`normalize`]); both empty
    /// vectors yield 0.0.
    ///
    /// # Panics
    /// Panics if `p.len() != q.len()`.
    pub fn compute(&self, p: &[f64], q: &[f64]) -> f64 {
        assert_eq!(p.len(), q.len(), "distributions must have equal length");
        match self {
            DistanceKind::Emd => emd(p, q),
            DistanceKind::Euclidean => euclidean(p, q),
            DistanceKind::L1 => l1(p, q),
            DistanceKind::KlDivergence => kl_divergence(p, q),
            DistanceKind::JensenShannon => jensen_shannon(p, q),
            DistanceKind::MaxDiff => max_diff(p, q),
            DistanceKind::ChiSquared => chi_squared(p, q),
        }
    }

    /// Paper-style name of the metric.
    pub fn name(&self) -> &'static str {
        match self {
            DistanceKind::Emd => "EMD",
            DistanceKind::Euclidean => "EUCLIDEAN",
            DistanceKind::L1 => "L1",
            DistanceKind::KlDivergence => "KL",
            DistanceKind::JensenShannon => "JS",
            DistanceKind::MaxDiff => "MAX_DIFF",
            DistanceKind::ChiSquared => "CHI2",
        }
    }

    /// Whether the metric is symmetric in its arguments.
    ///
    /// All supported metrics except K-L divergence are symmetric; the pruning
    /// schemes do not require symmetry (Property 4.1 only requires
    /// consistency), but tests use this to decide which axioms to check.
    pub fn is_symmetric(&self) -> bool {
        !matches!(self, DistanceKind::KlDivergence)
    }
}

impl fmt::Display for DistanceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for DistanceKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "EMD" => Ok(DistanceKind::Emd),
            "EUCLIDEAN" | "L2" => Ok(DistanceKind::Euclidean),
            "L1" | "MANHATTAN" => Ok(DistanceKind::L1),
            "KL" => Ok(DistanceKind::KlDivergence),
            "JS" | "JENSEN_SHANNON" => Ok(DistanceKind::JensenShannon),
            "MAX_DIFF" | "MAXDIFF" => Ok(DistanceKind::MaxDiff),
            "CHI2" | "CHI_SQUARED" => Ok(DistanceKind::ChiSquared),
            other => Err(format!("unknown distance metric '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_metrics_zero_on_identical_distributions() {
        let p = normalize(&[1.0, 2.0, 3.0]);
        for kind in DistanceKind::ALL {
            let d = kind.compute(&p, &p);
            assert!(
                d.abs() < 1e-12,
                "{kind} on identical distributions gave {d}"
            );
        }
    }

    #[test]
    fn all_metrics_positive_on_different_distributions() {
        let p = normalize(&[1.0, 0.0]);
        let q = normalize(&[0.0, 1.0]);
        for kind in DistanceKind::ALL {
            let d = kind.compute(&p, &q);
            assert!(d > 0.0, "{kind} on disjoint distributions gave {d}");
        }
    }

    #[test]
    fn motivating_example_ordering() {
        // Figure 1 of the paper: capital-gain-by-sex deviates between
        // unmarried (0.52, 0.48) and married (0.31, 0.69); age-by-sex barely
        // deviates (0.5, 0.5) vs (0.51, 0.49). Every metric must rank the
        // capital-gain view above the age view.
        let cg_target = [0.52, 0.48];
        let cg_ref = [0.31, 0.69];
        let age_target = [0.50, 0.50];
        let age_ref = [0.51, 0.49];
        for kind in DistanceKind::ALL {
            let cg = kind.compute(&cg_target, &cg_ref);
            let age = kind.compute(&age_target, &age_ref);
            assert!(cg > age, "{kind}: capital-gain {cg} should beat age {age}");
        }
    }

    #[test]
    fn empty_distributions_have_zero_distance() {
        for kind in DistanceKind::ALL {
            assert_eq!(kind.compute(&[], &[]), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        DistanceKind::Emd.compute(&[1.0], &[0.5, 0.5]);
    }

    #[test]
    fn names_round_trip_through_from_str() {
        for kind in DistanceKind::ALL {
            let parsed: DistanceKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("bogus".parse::<DistanceKind>().is_err());
    }

    #[test]
    fn symmetry_flags() {
        assert!(DistanceKind::Emd.is_symmetric());
        assert!(!DistanceKind::KlDivergence.is_symmetric());
    }
}
