//! K-means clustering (paper Fig. 1(b) for IC, Fig. 6 for PIC).
//!
//! * **IC realization** (Fig. 1(b)): each iteration is one MapReduce job.
//!   The mapper assigns every point to its nearest centroid and emits
//!   `(cluster, (coordinate sum, count))`; a combiner pre-sums per map
//!   task; the reducer averages to produce the new centroid. Convergence:
//!   every centroid moved less than a threshold.
//! * **PIC realization** (Fig. 6): `partition` randomly splits the points
//!   and *copies* the model to every sub-problem; local iterations run
//!   Lloyd's algorithm to convergence inside each partition; `merge`
//!   averages corresponding centroids across partitions (plain average, as
//!   in the paper — a count-weighted variant is available for the
//!   ablation); `BE_converged` reuses the same threshold criterion.
//!
//! The synthetic generator produces a Gaussian mixture, the structure the
//! paper's "nearly uncoupled" argument assumes for clustering (§VI.B:
//! "the impact of far-away points on a centroid is much smaller than the
//! impact of close points").

mod app;
pub mod data;
mod metrics;
mod mr;

pub use app::{KMeansApp, MergeStrategy};
pub use data::{gaussian_mixture, init_kmeanspp, init_random_centroids, Point};
pub use metrics::{centroid_displacement, jagota_index, match_centroids, sse};
#[cfg(test)]
pub(crate) use mr::RunBounds;
pub use mr::{lloyd_step, AssignMapper, AverageReducer, Centroids, SumCombiner};
