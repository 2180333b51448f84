//! # pic-core — Partitioned Iterative Convergence
//!
//! The paper's primary contribution: a programming framework that
//! restructures iterative-convergence (IC) algorithms into a **best-effort
//! phase** (partition the problem, solve sub-problems independently with
//! *local iterations*, merge, repeat as *best-effort iterations*) followed
//! by a **top-off phase** (the original unpartitioned computation, started
//! from the merged model, run to true convergence).
//!
//! ## Programming model (paper Fig. 4)
//!
//! An application first implements [`IterativeApp`] — the conventional
//! MapReduce IC template of Fig. 1(a): an [`IterativeApp::iterate`] step
//! (one or more MapReduce jobs) and a [`IterativeApp::converged`]
//! predicate. That alone can be executed with [`driver::run_ic`], the
//! baseline the paper compares against.
//!
//! To opt into PIC, the application additionally implements [`PicApp`] —
//! exactly the three extra functions the paper's API adds (`partition`,
//! `merge`, `BE_converged`, here [`PicApp::partition_data`] +
//! [`PicApp::split_model`], [`PicApp::merge`] and [`PicApp::be_converged`])
//! plus [`PicApp::solve_local`], the in-memory sub-problem solver that the
//! paper's library derives from the app's own map/reduce (we make it
//! explicit so the engine can execute it for real). Default partitioners
//! and mergers from [`partition`] and [`merge`] cover the common cases, as
//! the paper's library does.
//!
//! [`driver::run_pic`] then executes the two-phase computation on the
//! simulated cluster, producing a [`report::PicReport`] with everything
//! the paper's evaluation reports: per-phase times, best-effort and local
//! iteration counts, the error-vs-time trajectory and byte-exact traffic.
//!
//! ## Quick example
//!
//! ```
//! use pic_core::prelude::*;
//! use pic_mapreduce::{Dataset, Engine};
//! use pic_simnet::ClusterSpec;
//!
//! // A toy IC app: the "model" is the mean of the data, iteratively
//! // moved 50% of the way toward the true mean each iteration.
//! struct MeanApp;
//!
//! impl IterativeApp for MeanApp {
//!     type Record = f64;
//!     type Model = f64;
//!     fn name(&self) -> &str { "mean" }
//!     fn iterate(&self, _e: &Engine, data: &Dataset<f64>, m: &f64,
//!                _s: &IterScope) -> f64 {
//!         let n = data.total_records() as f64;
//!         let sum: f64 = data.iter_records().sum();
//!         m + 0.5 * (sum / n - m)
//!     }
//!     fn converged(&self, prev: &f64, next: &f64) -> bool {
//!         (prev - next).abs() < 1e-9
//!     }
//! }
//!
//! let engine = Engine::new(ClusterSpec::small());
//! let data = Dataset::create(&engine, "/d", vec![1.0, 2.0, 3.0], 3);
//! let report = driver::run_ic(&engine, &MeanApp, &data, 0.0,
//!                             &IcOptions::default());
//! assert!(report.converged);
//! assert!((report.final_model - 2.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod app;
pub mod convergence;
pub mod driver;
pub mod merge;
pub mod partition;
pub mod report;
pub mod scope;

pub use app::{IterativeApp, PicApp};
pub use driver::{run_ic, run_pic, IcOptions, PicOptions};
pub use report::{IcReport, PicReport};
pub use scope::IterScope;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::app::{IterativeApp, PicApp};
    pub use crate::convergence;
    pub use crate::driver::{self, run_ic, run_pic, IcOptions, PicOptions};
    pub use crate::merge;
    pub use crate::partition;
    pub use crate::report::{IcReport, PicReport};
    pub use crate::scope::IterScope;
}
