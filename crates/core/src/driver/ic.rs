//! The conventional iterative-convergence driver (paper Fig. 1(a)):
//!
//! ```text
//! do {
//!     m_prev = m;
//!     m = MapReduce(d, m);     // app.iterate
//! } until converged(m_prev, m);
//! ```
//!
//! Each iteration broadcasts the model to the workers (distributed-cache
//! style), runs the app's job(s), and writes the refined model back to the
//! replicated DFS — the two model-movement costs the paper identifies.

use crate::app::IterativeApp;
use crate::report::{IcReport, IterationStats};
use crate::scope::{IterScope, Memo};
use pic_mapreduce::kv::ByteSize;
use pic_mapreduce::{Dataset, Engine, Timing};
use pic_simnet::hostprof::{self, Stage};
use pic_simnet::trace::Payload;
use pic_simnet::traffic::TrafficClass;
use pic_simnet::transfer;
use pic_simnet::QualityPoint;

/// Options for an IC run. The run starts on the whole cluster (an elastic
/// resize shrinks or grows its node group) and every job has one reduce
/// task per node of the current group.
#[derive(Debug, Clone)]
pub struct IcOptions {
    /// Iteration cap; `None` defers to [`IterativeApp::max_iterations`].
    pub max_iterations: Option<usize>,
    /// Task-duration model.
    pub timing: Timing,
    /// Phase label in job names and reports ("ic" or "topoff").
    pub phase: &'static str,
    /// Charge the one-time job-chain startup overhead at the beginning.
    pub charge_startup: bool,
}

impl Default for IcOptions {
    fn default() -> Self {
        IcOptions {
            max_iterations: None,
            timing: Timing::default_analytic(),
            phase: "ic",
            charge_startup: true,
        }
    }
}

/// Run the conventional IC computation of `app` over `data` from the
/// starting model `init`.
pub fn run_ic<A: IterativeApp>(
    engine: &Engine,
    app: &A,
    data: &Dataset<A::Record>,
    init: A::Model,
    opts: &IcOptions,
) -> IcReport<A::Model> {
    let spec = engine.spec();

    // Driver-side trace: a root span for the whole run, one span per
    // iteration (category = the phase label, so best-effort vs top-off
    // ordering is checkable), with the engine's transfer/job spans
    // nesting inside.
    let tracer = engine.tracer().clone();
    let chaos = engine.chaos();
    let root_span = tracer.begin_at(
        format!("{}:{}", opts.phase, app.name()),
        "driver",
        engine.now(),
    );

    if opts.charge_startup {
        // One-time startup; per-iteration job re-creation is excluded, as
        // in the paper's adjusted baseline (§V.A).
        engine.advance(spec.job_overhead_s);
    }

    let run_t0 = engine.now();
    let run_traffic0 = engine.traffic();
    let max_iterations = opts.max_iterations.unwrap_or_else(|| app.max_iterations());
    assert!(max_iterations > 0, "need at least one iteration");

    // The run's memo lives as long as this call, which holds `data`.
    let mut scope = IterScope {
        phase: opts.phase,
        memo: Some(Memo::default()),
        ..IterScope::cluster(spec.nodes, opts.timing.clone())
    };

    let mut model = init;
    let mut trajectory = Vec::new();
    if let Some(e) = app.error(&model) {
        trajectory.push(QualityPoint {
            t_s: engine.now() - run_t0,
            err: e,
        });
    }

    let mut per_iteration = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    let model_file = format!("{}/{}.model", super::MODEL_PATH, app.name());

    while iterations < max_iterations {
        let it_t0 = engine.now();
        let it_traffic0 = engine.traffic();
        let it_span = tracer.begin_at(
            format!("{}-{}", opts.phase, scope.iteration),
            opts.phase,
            it_t0,
        );
        // The report layer keys its per-iteration decomposition off this
        // arg rather than re-parsing the span name.
        tracer.set_arg(it_span, "iteration", Payload::U64(scope.iteration as u64));

        // Ship the current model to the group's tasks.
        match app.model_fanout() {
            crate::app::ModelFanout::Replicated => {
                engine.broadcast_model(model.byte_size(), &scope.group)
            }
            crate::app::ModelFanout::Partitioned => {
                engine.scatter_model(model.byte_size(), &scope.group)
            }
        }

        // The data-parallel refinement (one or more MapReduce jobs).
        let next = {
            let _hp = hostprof::scope(Stage::IcIterate);
            app.iterate(engine, data, &model, &scope)
        };

        // Persist the refined model to the replicated DFS.
        engine.write_model(
            &model_file,
            next.byte_size(),
            scope.group.start,
            TrafficClass::ModelUpdate,
        );

        iterations += 1;
        // Evaluate the refined model once; record it while the iteration
        // span is still open, so the quality sample parents to (and lands
        // inside) it.
        let error = app.error(&next);
        super::record_quality(engine, error, scope.iteration, Vec::new());
        tracer.end_at(it_span, engine.now());
        per_iteration.push(IterationStats {
            time_s: engine.now() - it_t0,
            traffic: engine.traffic().delta_since(&it_traffic0),
        });
        if let Some(e) = error {
            trajectory.push(QualityPoint {
                t_s: engine.now() - run_t0,
                err: e,
            });
        }

        let done = app.converged(&model, &next);
        model = next;
        if done {
            converged = true;
            break;
        }
        scope = scope.next_iteration();

        // Elastic resize between iterations: the group shrinks or grows to
        // the new node count and the current model ships to the adjusted
        // group as recovery traffic (the data itself stays in the DFS, so
        // joining nodes read it through the normal remote-read path).
        if let Some((_, new_nodes)) = chaos.resize_after(iterations, engine.now()) {
            let n = new_nodes.clamp(1, spec.nodes);
            scope.group = 0..n;
            let (secs, net) = transfer::broadcast(spec, n, model.byte_size());
            engine.transfer(
                "rebalance",
                TrafficClass::Recovery,
                net,
                secs,
                &[("nodes", n as u64)],
            );
        }
    }

    tracer.end_at(root_span, engine.now());

    IcReport {
        final_model: model,
        iterations,
        converged,
        total_time_s: engine.now() - run_t0,
        traffic: engine.traffic().delta_since(&run_traffic0),
        per_iteration,
        trajectory,
    }
}
