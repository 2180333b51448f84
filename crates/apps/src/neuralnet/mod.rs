//! Neural-network training with back-propagation (the paper's third case
//! study: "neural network training using back propagation" on ~210,000
//! optical character recognition vectors).
//!
//! The network is a one-hidden-layer MLP (sigmoid hidden units, softmax
//! output, cross-entropy loss) trained by full-batch gradient descent:
//!
//! * **IC realization**: each iteration is one MapReduce job. The mapper
//!   computes the back-propagated gradient of its sample and emits it
//!   keyed by a single key; a combiner sums gradients within each map task
//!   (without it the shuffle carries one full gradient *per sample* — the
//!   large-intermediate-data regime); the reducer sums to the batch
//!   gradient, and the driver takes a gradient step. Convergence: largest
//!   weight change below a threshold.
//! * **PIC realization**: `partition` randomly splits the training set and
//!   copies the model; local iterations run full-batch gradient descent on
//!   each partition to local convergence; `merge` averages the weight
//!   vectors — the model-averaging scheme the paper's merge defaults
//!   ("average the respective entries in the vectors") prescribe.
//!
//! The synthetic "OCR" set is a 10-class Gaussian mixture over pixel
//! vectors in `[0, 1]^d`, plus a held-out validation set used for the
//! paper's Fig. 12(a) error metric (misclassification rate).

mod app;
pub mod data;
mod mlp;
pub(crate) mod mr;
#[cfg(test)]
mod reference;

pub use app::NeuralNetApp;
pub use data::{ocr_like, ocr_like_split, Sample};
pub use mlp::Mlp;
