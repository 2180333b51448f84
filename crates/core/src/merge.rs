//! Default merge functions.
//!
//! The paper: "For models that can be represented as vectors, the default
//! merge functions can concatenate the vectors from sub-problems into a
//! single vector, sum the vectors, or average the respective entries in
//! the vectors." The average is here; apps whose `split_model` cuts the
//! model into disjoint parts piece it back together in their own `merge`.

/// Average corresponding entries across sub-model vectors. All sub-models
/// must have equal length.
///
/// # Panics
/// Panics on empty input or mismatched lengths.
pub fn average(subs: &[Vec<f64>]) -> Vec<f64> {
    assert!(!subs.is_empty(), "cannot merge zero sub-models");
    let len = subs[0].len();
    let mut out = vec![0.0; len];
    for sub in subs {
        assert_eq!(sub.len(), len, "sub-model length mismatch");
        for (o, &v) in out.iter_mut().zip(sub) {
            *o += v;
        }
    }
    let n = subs.len() as f64;
    for o in &mut out {
        *o /= n;
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
