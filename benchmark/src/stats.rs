//! Order statistics over latency samples, and the sample-count rule for
//! tail percentiles.

/// Fewest samples a timing metric may be computed from. Below this not
/// even a p50 has ten samples on either side of it.
pub const MIN_SAMPLES: usize = 20;

/// The `q`-quantile of an ascending slice, linearly interpolated between
/// the two nearest ranks. Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `values` ascending (NaN-safe total order).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile_sorted(&v, 0.5)
}

/// The percentile a tail metric named `named` (0.90 for `p90`) may
/// actually report from `n` samples: the highest one that still has ten
/// samples beyond it, `(n − 10) / n`, capped at the named percentile.
/// `None` under [`MIN_SAMPLES`].
pub fn tail_quantile(n: usize, named: f64) -> Option<f64> {
    (n >= MIN_SAMPLES).then(|| named.min((n - 10) as f64 / n as f64))
}

/// Whether `n` samples support the named percentile itself (p90 needs
/// 100 samples, p99 needs 1 000).
pub fn supports(n: usize, named: f64) -> bool {
    tail_quantile(n, named).is_some_and(|q| q >= named)
}

/// A latency sample in milliseconds with its headline order statistics.
#[derive(Debug, Clone)]
pub struct Latencies {
    sorted_ms: Vec<f64>,
}

impl Latencies {
    /// Takes ownership of the raw millisecond samples.
    pub fn new(mut ms: Vec<f64>) -> Self {
        sort(&mut ms);
        Latencies { sorted_ms: ms }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted_ms.len()
    }

    /// Median, or `None` under [`MIN_SAMPLES`].
    pub fn p50(&self) -> Option<f64> {
        (self.len() >= MIN_SAMPLES).then(|| quantile_sorted(&self.sorted_ms, 0.5))
    }

    /// The tail statistic for a metric named `named`, with the percentile
    /// actually used (see [`tail_quantile`]).
    pub fn tail(&self, named: f64) -> Option<(f64, f64)> {
        let q = tail_quantile(self.len(), named)?;
        Some((quantile_sorted(&self.sorted_ms, q), q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // Under the floor nothing is reported at all.
        assert_eq!(tail_quantile(19, 0.90), None);
        // 50 samples: ten beyond p80, so a "p90" metric reports p80.
        assert_eq!(tail_quantile(50, 0.90), Some(0.8));
        assert!(!supports(50, 0.90));
        assert!(!supports(99, 0.90));
        // Exactly 100 samples is the first count that supports p90.
        assert_eq!(tail_quantile(100, 0.90), Some(0.90));
        assert!(supports(100, 0.90));
        // More samples never push past the named percentile.
        assert_eq!(tail_quantile(10_000, 0.90), Some(0.90));
        assert!(!supports(999, 0.99));
        assert!(supports(1_000, 0.99));
    }

    #[test]
    fn latencies_report_the_percentile_used() {
        let l = Latencies::new((1..=50).map(f64::from).collect());
        assert_eq!(l.len(), 50);
        assert_eq!(l.p50(), Some(25.5));
        let (value, q) = l.tail(0.90).unwrap();
        assert_eq!(q, 0.8);
        assert!((value - 40.2).abs() < 1e-9);
        assert!(Latencies::new(vec![1.0; 5]).p50().is_none());
    }
}
