//! Time-series comparison for model validation.
//!
//! The paper's Figure 4 compares transient temperature traces (real server
//! vs. Icepak, wax vs. placebo) and reports a steady-state mean difference
//! of 0.22 °C. [`compare`] computes the agreement statistics.

/// Agreement statistics between two equal-length sampled traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceComparison {
    /// Root-mean-square error.
    pub rmse: f64,
    /// Mean of `a − b` (the paper's "mean difference" metric).
    pub mean_difference: f64,
    /// Largest absolute pointwise difference.
    pub max_abs_difference: f64,
    /// Pearson correlation coefficient (NaN for constant traces).
    pub correlation: f64,
}

tts_units::derive_json! { struct TraceComparison { rmse, mean_difference, max_abs_difference, correlation } }

/// Compares two traces sample-by-sample.
///
/// # Panics
/// Panics if the traces differ in length or are empty — comparison of
/// mismatched validation runs is a harness bug, not a data condition.
pub fn compare(a: &[f64], b: &[f64]) -> TraceComparison {
    assert_eq!(
        a.len(),
        b.len(),
        "trace length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    assert!(!a.is_empty(), "cannot compare empty traces");
    let n = a.len() as f64;
    let mut sq = 0.0;
    let mut diff_sum = 0.0;
    let mut max_abs: f64 = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let d = x - y;
        sq += d * d;
        diff_sum += d;
        max_abs = max_abs.max(d.abs());
    }
    let mean_a = a.iter().sum::<f64>() / n;
    let mean_b = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - mean_a) * (y - mean_b);
        var_a += (x - mean_a) * (x - mean_a);
        var_b += (y - mean_b) * (y - mean_b);
    }
    TraceComparison {
        rmse: (sq / n).sqrt(),
        mean_difference: diff_sum / n,
        max_abs_difference: max_abs,
        correlation: cov / (var_a.sqrt() * var_b.sqrt()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_rng::prop::prelude::*;

    #[test]
    fn identical_traces_compare_perfectly() {
        let a = vec![1.0, 2.0, 3.0, 2.0];
        let c = compare(&a, &a);
        assert_eq!(c.rmse, 0.0);
        assert_eq!(c.mean_difference, 0.0);
        assert_eq!(c.max_abs_difference, 0.0);
        assert!((c.correlation - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_offset_shows_in_mean_difference() {
        let a = vec![10.0, 11.0, 12.0];
        let b = vec![10.22, 11.22, 12.22];
        let c = compare(&b, &a);
        assert!((c.mean_difference - 0.22).abs() < 1e-12);
        assert!((c.rmse - 0.22).abs() < 1e-12);
        assert!((c.correlation - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anticorrelated_traces() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![3.0, 2.0, 1.0];
        let c = compare(&a, &b);
        assert!((c.correlation + 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        compare(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_traces_panic() {
        compare(&[], &[]);
    }

    proptest! {
        #[test]
        fn rmse_bounds_mean_difference(
            a in collection::vec(-100.0f64..100.0, 1..50),
            offset in -10.0f64..10.0,
        ) {
            let b: Vec<f64> = a.iter().map(|v| v + offset).collect();
            let c = compare(&a, &b);
            prop_assert!(c.mean_difference.abs() <= c.rmse + 1e-9);
            prop_assert!(c.rmse <= c.max_abs_difference + 1e-9);
        }
    }
}
