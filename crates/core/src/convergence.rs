//! Convergence predicates and distance helpers shared by the case studies.

/// Euclidean (L2) distance between two equal-length vectors.
///
/// # Panics
/// Panics on length mismatch.
pub fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Largest absolute element-wise difference (L∞).
///
/// # Panics
/// Panics on length mismatch.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_basics() {
        assert_eq!(l2_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(l2_distance(&[], &[]), 0.0);
    }

    #[test]
    fn linf_basics() {
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[2.0, 2.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatch_panics() {
        l2_distance(&[1.0], &[1.0, 2.0]);
    }
}
