//! Default merge functions.
//!
//! The paper: "For models that can be represented as vectors, the default
//! merge functions can concatenate the vectors from sub-problems into a
//! single vector, sum the vectors, or average the respective entries in
//! the vectors." The sum and the average are here, plus a weighted
//! average; apps whose `split_model` cuts the model into disjoint parts
//! piece it back together in their own `merge`.

/// Average corresponding entries across sub-model vectors. All sub-models
/// must have equal length.
///
/// # Panics
/// Panics on empty input or mismatched lengths.
pub fn average(subs: &[Vec<f64>]) -> Vec<f64> {
    weighted_average(subs, &vec![1.0; subs.len()])
}

/// Weighted average of corresponding entries; `weights[i]` scales
/// sub-model `i` (e.g. by its partition's record count). Weights are
/// normalized internally.
///
/// # Panics
/// Panics on empty input, mismatched lengths, or non-positive total weight.
pub fn weighted_average(subs: &[Vec<f64>], weights: &[f64]) -> Vec<f64> {
    assert!(!subs.is_empty(), "cannot merge zero sub-models");
    assert_eq!(subs.len(), weights.len(), "one weight per sub-model");
    let len = subs[0].len();
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "total weight must be positive");
    let mut out = vec![0.0; len];
    for (sub, &w) in subs.iter().zip(weights) {
        assert_eq!(sub.len(), len, "sub-model length mismatch");
        for (o, &v) in out.iter_mut().zip(sub) {
            *o += w * v;
        }
    }
    for o in &mut out {
        *o /= total;
    }
    out
}

/// Element-wise sum of sub-model vectors.
///
/// # Panics
/// Panics on empty input or mismatched lengths.
pub fn sum(subs: &[Vec<f64>]) -> Vec<f64> {
    assert!(!subs.is_empty(), "cannot merge zero sub-models");
    let len = subs[0].len();
    let mut out = vec![0.0; len];
    for sub in subs {
        assert_eq!(sub.len(), len, "sub-model length mismatch");
        for (o, &v) in out.iter_mut().zip(sub) {
            *o += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_of_two() {
        let m = average(&[vec![1.0, 3.0], vec![3.0, 5.0]]);
        assert_eq!(m, vec![2.0, 4.0]);
    }

    #[test]
    fn weighted_average_respects_weights() {
        let m = weighted_average(&[vec![0.0], vec![10.0]], &[1.0, 3.0]);
        assert!((m[0] - 7.5).abs() < 1e-12);
    }

    #[test]
    fn average_is_weighted_average_with_equal_weights() {
        let subs = vec![vec![1.0, 2.0], vec![5.0, 6.0], vec![9.0, 1.0]];
        assert_eq!(average(&subs), weighted_average(&subs, &[2.0, 2.0, 2.0]));
    }

    #[test]
    fn sum_adds() {
        assert_eq!(sum(&[vec![1.0, 2.0], vec![10.0, 20.0]]), vec![11.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        average(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "zero sub-models")]
    fn empty_average_panics() {
        average(&[]);
    }

    #[test]
    fn single_submodel_passthrough() {
        // The paper's degenerate case: one partition makes merge identity.
        let m = vec![4.0, 2.0];
        assert_eq!(average(std::slice::from_ref(&m)), m);
    }
}
