//! # pic-apps — the five case studies from the PIC paper
//!
//! Each application provides:
//!
//! * a synthetic data generator with the statistical structure of the
//!   paper's dataset (documented per module);
//! * a conventional iterative-convergence (IC) realization on the
//!   MapReduce engine, following the paper's Fig. 1 template;
//! * a PIC realization (the `partition` / `merge` / `BE_converged` triple
//!   of Fig. 4) via the `pic-core` traits;
//! * quality metrics matching the ones the paper evaluates (§VI).
//!
//! | module | paper workload | model |
//! |---|---|---|
//! | [`kmeans`] | K-means clustering (Fig. 1b, Fig. 6) | k centroids |
//! | [`pagerank`] | Nutch-style PageRank (Fig. 7, Fig. 8) | vertex ranks + edge scores |
//! | [`neuralnet`] | backprop MLP on OCR vectors | layer weights |
//! | [`linsolve`] | Jacobi solver, weakly diagonally dominant | solution vector |
//! | [`smoothing`] | iterative image smoothing (stencil) | the image itself |

#![warn(missing_docs)]

#[cfg(test)]
mod fold_oracle;
pub mod kmeans;
pub mod linsolve;
pub mod neuralnet;
pub mod pagerank;
pub mod smoothing;
