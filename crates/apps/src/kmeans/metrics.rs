//! Clustering quality metrics used in the paper's §VI.

use super::data::Point;
use super::mr::{CentroidTable, Centroids};

/// The Jagota index the paper uses to compare BE-phase and IC models
/// (its eq. in §VI.A): `Q = Σ_i (1/|C_i|) Σ_{x∈C_i} d(x, μ_i)` — mean
/// point-to-centroid distance summed over clusters. Lower is tighter;
/// the paper reports PIC's BE phase within 3% of IC.
pub fn jagota_index(points: &[Point], model: &Centroids) -> f64 {
    let k = model.k();
    let mut dist_sum = vec![0.0; k];
    let mut counts = vec![0u64; k];
    let table = CentroidTable::new(model);
    for p in points {
        let c = table.nearest(&p.coords);
        dist_sum[c] += p.dist2(&model.coords[c]).sqrt();
        counts[c] += 1;
    }
    dist_sum
        .iter()
        .zip(&counts)
        .filter(|(_, &n)| n > 0)
        .map(|(&s, &n)| s / n as f64)
        .sum()
}

/// Sum of squared errors (within-cluster): the classic K-means objective.
pub fn sse(points: &[Point], model: &Centroids) -> f64 {
    let table = CentroidTable::new(model);
    points
        .iter()
        .map(|p| p.dist2(&model.coords[table.nearest(&p.coords)]))
        .sum()
}

/// Mean distance from each centroid of `model` to its nearest centroid in
/// `reference` — the "distance to a reference solution" error metric of
/// Fig. 12(b). Nearest-matching keeps the metric permutation-invariant.
pub fn centroid_displacement(model: &Centroids, reference: &Centroids) -> f64 {
    assert!(!reference.coords.is_empty(), "empty reference");
    let table = CentroidTable::new(reference);
    let total: f64 = model
        .coords
        .iter()
        .map(|c| {
            let r = &reference.coords[table.nearest(c)];
            c.iter()
                .zip(r)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        })
        .sum();
    total / model.k() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(raw: &[[f64; 1]]) -> Vec<Point> {
        raw.iter().map(|c| Point::new(c.to_vec())).collect()
    }

    #[test]
    fn jagota_tight_beats_loose() {
        let points = pts(&[[0.0], [1.0], [10.0], [11.0]]);
        let tight = Centroids::new(vec![vec![0.5], vec![10.5]]);
        let loose = Centroids::new(vec![vec![3.0], vec![8.0]]);
        assert!(jagota_index(&points, &tight) < jagota_index(&points, &loose));
    }

    #[test]
    fn jagota_perfect_model_is_zero() {
        let points = pts(&[[2.0], [8.0]]);
        let m = Centroids::new(vec![vec![2.0], vec![8.0]]);
        assert_eq!(jagota_index(&points, &m), 0.0);
    }

    #[test]
    fn sse_decreases_after_lloyd_step() {
        let points = pts(&[[0.0], [2.0], [10.0], [12.0]]);
        let m0 = Centroids::new(vec![vec![3.0], vec![9.0]]);
        let m1 = super::super::mr::lloyd_step(&points, &m0);
        assert!(sse(&points, &m1) <= sse(&points, &m0));
    }

    #[test]
    fn displacement_zero_for_identical() {
        let m = Centroids::new(vec![vec![1.0], vec![5.0]]);
        assert_eq!(centroid_displacement(&m, &m), 0.0);
    }

    #[test]
    fn displacement_is_permutation_invariant() {
        let a = Centroids::new(vec![vec![1.0], vec![5.0]]);
        let b = Centroids::new(vec![vec![5.0], vec![1.0]]);
        assert_eq!(centroid_displacement(&a, &b), 0.0);
    }
}
