//! The IC and PIC application traits (the paper's Fig. 4 API).

use crate::scope::IterScope;
use pic_mapreduce::traits::Value;
use pic_mapreduce::{Dataset, Engine};

/// How much of the model each map task must receive at the start of an
/// iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelFanout {
    /// Every task needs the whole model (K-means centroids, NN weights,
    /// the solver's full `x`): the driver charges a full broadcast,
    /// `nodes × model` bytes.
    #[default]
    Replicated,
    /// Each task needs only its slice of the model (a stencil row band,
    /// a sub-graph's edge scores): the group collectively reads the model
    /// once, `1 × model` bytes.
    Partitioned,
}

/// One quality sample of a model, as [`IterativeApp::quality`] returns it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QualitySample {
    /// [`IterativeApp::error`] of the model.
    pub objective: Option<f64>,
}

/// A conventional iterative-convergence application, per the template of
/// the paper's Fig. 1(a): repeat `model = iterate(data, model)` until
/// `converged(prev, next)`.
pub trait IterativeApp: Send + Sync {
    /// One element of the input data set.
    type Record: Value;
    /// The model being built. Must be sizeable (`ByteSize`) so model-update
    /// traffic can be charged; the paper correspondingly requires models to
    /// be expressible as key/value pairs.
    type Model: Value;

    /// Short name used in job labels and reports.
    fn name(&self) -> &str;

    /// One IC iteration: run this app's MapReduce job(s) on `engine` over
    /// `data` with the current `model`, returning the refined model.
    /// Use [`IterScope::job`] to build job configs so the same code runs
    /// cluster-wide and group-confined.
    fn iterate(
        &self,
        engine: &Engine,
        data: &Dataset<Self::Record>,
        model: &Self::Model,
        scope: &IterScope,
    ) -> Self::Model;

    /// The convergence criterion, evaluated on consecutive models.
    fn converged(&self, prev: &Self::Model, next: &Self::Model) -> bool;

    /// Optional application-specific error metric for error-vs-time
    /// trajectories (paper Fig. 12) and the trace's `quality` instants —
    /// the one quality signal the drivers evaluate, once per model.
    /// `None` disables trajectory tracking.
    fn error(&self, _model: &Self::Model) -> Option<f64> {
        None
    }

    /// [`IterativeApp::error`] wrapped in a [`QualitySample`]. Exists only
    /// for `benchmark/src/workloads/kmeans_fig2.rs`, until a
    /// `benchmark`-archetype issue switches it to `error`; the drivers
    /// call `error` directly.
    fn quality(&self, model: &Self::Model) -> QualitySample {
        QualitySample {
            objective: self.error(model),
        }
    }

    /// Hard iteration cap (PageRank-style fixed-iteration algorithms set
    /// their limit here; others use it as a runaway guard).
    fn max_iterations(&self) -> usize {
        200
    }

    /// Model distribution pattern per iteration (see [`ModelFanout`]).
    fn model_fanout(&self) -> ModelFanout {
        ModelFanout::Replicated
    }
}

/// The PIC extension: the three extra functions of the paper's API
/// (`partition`, `merge`, `BE_converged`) plus the in-memory sub-problem
/// solver that executes local iterations.
pub trait PicApp: IterativeApp {
    /// Partition the input data into `parts` sub-problem record sets
    /// (paper `partition`, data side). Default implementations for common
    /// strategies live in [`crate::partition`].
    fn partition_data(&self, data: &Dataset<Self::Record>, parts: usize) -> Vec<Vec<Self::Record>>;

    /// Derive each sub-problem's starting model from the current unified
    /// model (paper `partition`, model side). For copy-style apps
    /// (K-means, neural nets) this clones the model `parts` times; for
    /// split-style apps (PageRank, linear solver, image smoothing) it
    /// slices the model along the data partition.
    fn split_model(&self, model: &Self::Model, parts: usize) -> Vec<Self::Model>;

    /// Combine the sub-problem models into the next unified model (paper
    /// `merge`). `prev` is the unified model the best-effort iteration
    /// started from, available for apps that must account for
    /// cross-partition dependencies (e.g. PageRank's cross-edge scores).
    fn merge(&self, subs: &[Self::Model], prev: &Self::Model) -> Self::Model;

    /// Termination test for best-effort iterations (paper `BE_converged`).
    /// Defaults to the app's own convergence criterion, which is what the
    /// paper's case studies use.
    fn be_converged(&self, prev: &Self::Model, next: &Self::Model) -> bool {
        self.converged(prev, next)
    }

    /// Solve one sub-problem to local convergence, entirely in memory:
    /// iterate the *same* computation as [`IterativeApp::iterate`] on
    /// `records` until [`IterativeApp::converged`] holds or `cap` local
    /// iterations have run. Returns the sub-model and the local iteration
    /// count. `part` identifies the sub-problem (apps whose sub-problems
    /// differ structurally, like PageRank's sub-graphs, dispatch on it).
    ///
    /// This is the paper's "local iterations" execution: each sub-problem
    /// runs with *no* synchronization, communication, shuffle
    /// materialization or model writes — which is precisely why the
    /// best-effort phase's traffic collapses (paper Table II).
    fn solve_local(
        &self,
        part: usize,
        records: &[Self::Record],
        model: &Self::Model,
        cap: usize,
    ) -> (Self::Model, usize);

    /// Cap on local iterations per best-effort iteration.
    fn local_iteration_cap(&self) -> usize {
        50
    }

    /// Cap on best-effort iterations.
    fn max_be_iterations(&self) -> usize {
        20
    }

    /// Cap on top-off iterations. Defaults to the app's own
    /// [`IterativeApp::max_iterations`]; fixed-iteration apps (like the
    /// Nutch PageRank, which has no convergence test) override this with
    /// the small preset budget the refined starting model needs.
    fn max_topoff_iterations(&self) -> usize {
        self.max_iterations()
    }
}
