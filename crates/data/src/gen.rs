//! Random-generation primitives shared by all dataset generators.
//!
//! `rand` provides uniform sampling; the distributions data generators need
//! beyond that (Gaussian via Box–Muller, Zipf-weighted categorical picks)
//! are implemented here rather than pulling in `rand_distr`.

use rand::rngs::StdRng;
use rand::Rng;

/// Standard-normal sample via the Box–Muller transform.
pub fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Gaussian sample with the given mean and standard deviation.
pub fn gaussian(rng: &mut StdRng, mean: f64, sd: f64) -> f64 {
    mean + sd * normal(rng)
}

/// Zipf weights `1/rank^s` for `n` categories (unnormalized).
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect()
}

/// Samples an index proportional to `weights`.
pub fn pick_weighted(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn normal_has_roughly_standard_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn gaussian_scales_and_shifts() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut r, 50.0, 5.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 50.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn zipf_weights_decrease() {
        let w = zipf_weights(5, 1.0);
        assert_eq!(w.len(), 5);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
        // s = 0 gives uniform weights.
        assert!(zipf_weights(3, 0.0)
            .iter()
            .all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn pick_weighted_respects_weights() {
        let mut r = rng();
        let weights = [8.0, 1.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[pick_weighted(&mut r, &weights)] += 1;
        }
        assert!(counts[0] > counts[1] * 4);
        assert!(counts[0] > counts[2] * 4);
        assert!(counts[1] > 0 && counts[2] > 0);
    }

    #[test]
    fn pick_weighted_single_category() {
        let mut r = rng();
        assert_eq!(pick_weighted(&mut r, &[1.0]), 0);
    }

    #[test]
    fn determinism_under_seed() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(normal(&mut a), normal(&mut b));
        }
    }
}
