//! Iterative linear-equation solver (the paper's fourth case study: "a
//! linear system of 100 variables with a weakly diagonal dominant
//! matrix").
//!
//! The iteration is Jacobi: `x_i' = (b_i − Σ_{j≠i} a_ij x_j) / a_ii`.
//!
//! * **IC realization**: one MapReduce job per sweep. The mapper holds the
//!   current `x` (the model) and processes one matrix row per record,
//!   emitting `(i, x_i')`; the reducer is identity. Convergence: largest
//!   component change below a threshold.
//! * **PIC realization**: `partition` splits rows into contiguous blocks —
//!   block Jacobi, which is exactly the additive-Schwarz structure the
//!   paper's §VI.B analyzes ("a 'weak diagonal dominant' matrix property
//!   guarantees the 'nearly uncoupled' property"). Local iterations sweep
//!   a block with off-block unknowns frozen at the best-effort iteration's
//!   starting values; `merge` concatenates the disjoint blocks (the
//!   paper's piece-back-together default).
//!
//! Weak diagonal dominance makes both the global sweep and every
//! sub-problem a contraction, so PIC provably converges to the same unique
//! solution — this is the app where the paper's preconditioner analysis is
//! exact.

mod app;
mod system;

pub use app::LinSolveApp;
pub use system::{diag_dominant_system, residual_l2, LinSystem, Row};
