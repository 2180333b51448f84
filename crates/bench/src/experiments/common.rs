//! Shared plumbing for experiment runners.

use super::ExperimentCtx;
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine};
use pic_simnet::chaos::FaultPlan;
use pic_simnet::{ClusterSpec, QualityPoint, Trace, TrafficSnapshot};
use rayon::prelude::*;

/// Deterministic per-record costs per application.
///
/// Two rates per app, and the gap between them is the heart of the
/// paper's result:
///
/// * **framework rate** (`map_secs`/`reduce_secs`): one record processed
///   by a Hadoop-era MapReduce pass — deserialization, object churn,
///   sort/spill bookkeeping *plus* the kernel. Calibrated so the paper's
///   reported runtimes come out right (e.g. 5M-point K-means at ~116 s
///   per iteration on 24 slots ⇒ ~0.2–0.5 ms per record; Nutch PageRank
///   over 1.8M pages at ~6 min per iteration ⇒ ~1 ms per page). Hadoop
///   0.20 really was this slow per record — that is much of why the
///   paper's baselines take an hour.
/// * **local rate** (`local_secs`): the same record inside a PIC local
///   iteration — a plain loop over an in-memory array, i.e. the kernel's
///   raw flops at ~1 GFLOP/s. Two to three orders of magnitude cheaper.
pub mod cost {
    use pic_mapreduce::Timing;

    /// One application's timing: framework rates plus the in-memory rate.
    #[derive(Debug, Clone)]
    pub struct AppCost {
        /// Framework (MapReduce-pass) rates.
        pub timing: Timing,
        /// In-memory per-record cost of one local iteration.
        pub local_secs: f64,
    }

    /// K-means, k=100, dim=3: kernel ≈ 600 flops per point. The
    /// framework rate is calibrated to the paper's own measurement:
    /// 5M points per iteration on 24 slots at ~116 s/iteration ⇒
    /// ~560 µs per record.
    pub fn kmeans() -> AppCost {
        AppCost {
            timing: Timing {
                map_secs: 5.6e-4,
                reduce_secs: 5e-5,
            },
            local_secs: 0.6e-6,
        }
    }

    /// PageRank over Nutch-style page records (heavy: URLs + link lists).
    pub fn pagerank() -> AppCost {
        AppCost {
            timing: Timing {
                map_secs: 1e-3,
                reduce_secs: 5e-5,
            },
            local_secs: 1e-6,
        }
    }

    /// MLP backprop, d=64 h=32 o=10: kernel ≈ 9k flops per sample.
    pub fn neuralnet() -> AppCost {
        AppCost {
            timing: Timing {
                map_secs: 1e-3,
                reduce_secs: 1e-4,
            },
            local_secs: 2e-5,
        }
    }

    /// Dense Jacobi row of n=100: kernel ≈ 200 flops per row.
    pub fn linsolve() -> AppCost {
        AppCost {
            timing: Timing {
                map_secs: 5e-4,
                reduce_secs: 5e-5,
            },
            local_secs: 0.2e-6,
        }
    }

    /// Stencil row of `w` pixels: kernel ≈ 8 flops per pixel.
    pub fn smoothing(w: usize) -> AppCost {
        AppCost {
            timing: Timing {
                map_secs: 2e-4 + 8e-9 * w as f64,
                reduce_secs: 5e-5,
            },
            local_secs: 8e-9 * w as f64,
        }
    }
}

/// Which driver a [`Workload`] runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// The conventional baseline ([`run_ic`]).
    Ic,
    /// Best-effort phase plus top-off ([`run_pic`]).
    Pic,
}

impl Driver {
    /// Both drivers, baseline first — the order every report uses.
    pub const BOTH: [Driver; 2] = [Driver::Ic, Driver::Pic];

    /// The `"ic"` / `"pic"` label used in rows, keys and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            Driver::Ic => "ic",
            Driver::Pic => "pic",
        }
    }
}

/// The report of whichever driver ran.
#[derive(Debug)]
pub enum DriverReport<M> {
    /// From [`Driver::Ic`].
    Ic(IcReport<M>),
    /// From [`Driver::Pic`].
    Pic(PicReport<M>),
}

impl<M> DriverReport<M> {
    /// What both drivers report alike: total simulated seconds, the
    /// error-vs-time trajectory, and the converged model.
    pub fn outcome(&self) -> (f64, &[QualityPoint], &M) {
        match self {
            DriverReport::Ic(r) => (r.total_time_s, &r.trajectory, &r.final_model),
            DriverReport::Pic(r) => (r.total_time_s, &r.trajectory, &r.final_model),
        }
    }
}

/// Everything one [`Workload::run`] produced. No analysis has been done:
/// callers validate, replay or profile as they need.
#[derive(Debug)]
pub struct Run<M> {
    /// The driver's own report.
    pub report: DriverReport<M>,
    /// Span/event trace of the run.
    pub trace: Trace,
    /// The engine's ledger totals (what `trace` must reconcile with,
    /// byte for byte).
    pub traffic: TrafficSnapshot,
    /// Fault events the injector fired (0 without a plan).
    pub injected_events: usize,
}

/// The bounds every runner needs of an app, stated once.
pub trait BenchApp: PicApp<Record: Clone, Model: Clone + PartialEq> {}
impl<A: PicApp<Record: Clone, Model: Clone + PartialEq>> BenchApp for A {}

/// One app over one dataset on one cluster — the single definition of
/// "IC or PIC on a fresh engine over a fresh [`Dataset`]" that the
/// experiment runners, the chaos campaign, the tenancy profiler and the
/// `pic <app>` launcher all go through.
pub struct Workload<'a, A: PicApp> {
    /// Application name, for error messages.
    pub name: &'static str,
    /// DFS path of the input. A field, not a constant: `pic_dfs` seeds
    /// replica placement from the path, so each caller's simulated bytes
    /// depend on it staying what it is.
    pub dfs_path: &'static str,
    /// The simulated cluster.
    pub spec: ClusterSpec,
    /// The application.
    pub app: &'a A,
    /// Input records (cloned into each run's dataset).
    pub records: Vec<A::Record>,
    /// Initial model.
    pub init: A::Model,
    /// Map-task count for the input.
    pub splits: usize,
    /// PIC sub-problem count.
    pub partitions: usize,
    /// The deterministic cost model.
    pub cost: cost::AppCost,
}

impl<A: BenchApp> Workload<'_, A> {
    /// Run `driver` on a fresh engine over a fresh dataset, under `plan`
    /// if given. Clean and faulty runs are identical setups, so
    /// `faulty - clean` isolates exactly what the plan cost. Errors only
    /// when the engine rejects the plan.
    pub fn run(&self, driver: Driver, plan: Option<&FaultPlan>) -> Result<Run<A::Model>, String> {
        let engine = Engine::new(self.spec.clone());
        let data = Dataset::create(&engine, self.dfs_path, self.records.clone(), self.splits);
        engine.reset(); // dataset load is not part of the measured run
        if let Some(p) = plan {
            engine
                .arm_chaos(p)
                .map_err(|es| format!("{}/{}: invalid plan: {es:?}", self.name, driver.label()))?;
        }
        let timing = self.cost.timing.clone();
        let report = match driver {
            Driver::Ic => DriverReport::Ic(run_ic(
                &engine,
                self.app,
                &data,
                self.init.clone(),
                &IcOptions {
                    timing,
                    ..Default::default()
                },
            )),
            Driver::Pic => DriverReport::Pic(run_pic(
                &engine,
                self.app,
                &data,
                self.init.clone(),
                &PicOptions {
                    partitions: self.partitions,
                    timing,
                    local_secs_per_record: Some(self.cost.local_secs),
                },
            )),
        };
        Ok(Run {
            report,
            traffic: engine.traffic(),
            injected_events: engine.chaos().injected_events(),
            trace: engine.into_trace(),
        })
    }

    /// The IC baseline and the PIC run, on independent engines over
    /// identical data. They run one after the other, each with the whole
    /// pool for its tasks: at full scale, running them side by side on
    /// half the pool each was slower (DESIGN.md §7).
    pub fn compare(&self) -> Comparison<A::Model> {
        let ic = self.run(Driver::Ic, None).expect("no plan to reject");
        let pic = self.run(Driver::Pic, None).expect("no plan to reject");
        match (ic.report, pic.report) {
            (DriverReport::Ic(ic_report), DriverReport::Pic(pic_report)) => Comparison {
                ic: ic_report,
                pic: pic_report,
                ic_trace: ic.trace,
                pic_trace: pic.trace,
                ic_traffic: ic.traffic,
                pic_traffic: pic.traffic,
            },
            _ => unreachable!("run returns the report of the driver it was given"),
        }
    }
}

/// The IC and PIC runs of one app on one cluster, executed on independent
/// engines over identical data, plus their reports.
pub struct Comparison<M> {
    /// The baseline report.
    pub ic: IcReport<M>,
    /// The PIC report.
    pub pic: PicReport<M>,
    /// Span/event trace of the baseline run.
    pub ic_trace: Trace,
    /// Span/event trace of the PIC run.
    pub pic_trace: Trace,
    /// The baseline engine's ledger totals (what `ic_trace` must
    /// reconcile with, byte for byte).
    pub ic_traffic: TrafficSnapshot,
    /// The PIC engine's ledger totals.
    pub pic_traffic: TrafficSnapshot,
}

impl<M> Comparison<M> {
    /// Speedup of PIC over the IC baseline (the paper's headline metric).
    pub fn speedup(&self) -> f64 {
        pic_core::report::speedup(self.ic.total_time_s, self.pic.total_time_s)
    }
}

/// Run `f` over every job and return the results in `jobs`' order: how
/// the chaos campaign and the tenancy profiler run the [`small_suite`]'s
/// independent [`Workload::run`]s side by side.
///
/// The jobs go through the pool like any parallel map (the caller works
/// too, jobs are claimed one at a time, and a job's panic reaches the
/// caller with its own payload), at a width of
/// [`rayon::current_num_threads`] clamped to the job count. Each job
/// runs under an equal share of the pool, at least one thread, for its
/// engine's own parallel loops, so no more threads run than the pool has.
/// On a pool no wider than the job count that share is one thread, and
/// a run's map and reduce tasks run inline instead of spawning per call.
pub fn fan_out<J: Sync, R: Send>(jobs: &[J], f: impl Fn(&J) -> R + Sync) -> Vec<R> {
    let threads = rayon::current_num_threads();
    let width = threads.min(jobs.len()).max(1);
    let share = rayon::ThreadPoolBuilder::new()
        .num_threads((threads / width).max(1))
        .build()
        .expect("a fixed-width pool always builds");
    jobs.par_iter()
        .map(|job| share.install(|| f(job)))
        .collect()
}

/// The error a run counts as converged at when the chaos campaign and
/// the tenancy stream read time-to-quality: within 5 % of `traj`'s final
/// error, plus an absolute hair so a zero final error is reachable.
/// `None` on an empty trajectory.
pub fn quality_target(traj: &[QualityPoint]) -> Option<f64> {
    traj.last().map(|p| p.err * 1.05 + 1e-12)
}

/// Run the IC baseline and the PIC implementation of `app` over the same
/// records on fresh engines of `spec`. `splits` is the map-task count for
/// the input; `cost` the deterministic cost model.
pub fn compare<A: BenchApp>(
    spec: &ClusterSpec,
    app: &A,
    records: Vec<A::Record>,
    init: A::Model,
    splits: usize,
    partitions: usize,
    cost: cost::AppCost,
) -> Comparison<A::Model> {
    Workload {
        name: "exp",
        dfs_path: "/exp/input",
        spec: spec.clone(),
        app,
        records,
        init,
        splits,
        partitions,
        cost,
    }
    .compare()
}

/// What a caller does with each workload of [`small_suite`]. A trait
/// rather than a closure because the three apps are three types.
pub trait SuiteVisitor {
    /// Called once per app, in suite order.
    fn visit<A: BenchApp>(&mut self, w: &Workload<'_, A>) -> Result<(), String>;
}

/// The apps of [`small_suite`], in visit order.
pub const SMALL_SUITE_APPS: [&str; 3] = ["kmeans", "linsolve", "smoothing"];

/// The cheap, representative three-app suite on the small reference
/// cluster — centroid model, dense vector model, grid model — that the
/// chaos campaign and the tenancy profiler both run. Only the k-means
/// record count follows `ctx.scale`.
pub fn small_suite(
    ctx: &ExperimentCtx,
    dfs_path: &'static str,
    visitor: &mut impl SuiteVisitor,
) -> Result<(), String> {
    let spec = ClusterSpec::small();
    {
        use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};
        let app = KMeansApp::new(4, 2, 1.0);
        let records = gaussian_mixture(ctx.n(2_000, 400), 4, 2, 1000.0, 40.0, 3);
        let init = Centroids::new(init_random_centroids(4, 2, 1000.0, 7));
        // Error metric: relative SSE excess on a subsample vs the
        // sequential solution (same construction as fig2).
        let sample: Vec<_> = records.iter().step_by(2).cloned().collect();
        let reference = app.solve_reference(&sample, &init, 300);
        let app = app.with_eval_sample(sample, &reference);
        visitor.visit(&Workload {
            name: "kmeans",
            dfs_path,
            spec: spec.clone(),
            app: &app,
            records,
            init,
            splits: 6,
            partitions: 4,
            cost: cost::kmeans(),
        })?;
    }
    {
        use pic_apps::linsolve::{diag_dominant_system, LinSolveApp};
        let n = 100; // the paper's exact size
        let sys = diag_dominant_system(n, 0.05, 11);
        let app = LinSolveApp::new(n, 5, 1e-8).with_exact(sys.exact.clone());
        visitor.visit(&Workload {
            name: "linsolve",
            dfs_path,
            spec: spec.clone(),
            app: &app,
            records: sys.rows,
            init: vec![0.0; n],
            splits: 5,
            partitions: 5,
            cost: cost::linsolve(),
        })?;
    }
    {
        use pic_apps::smoothing::{noisy_image, SmoothingApp};
        let side = 64;
        let f = noisy_image(side, side, 0.08, 5);
        let app = SmoothingApp::new(side, side, 8, 1e-6).with_observed(f.clone());
        visitor.visit(&Workload {
            name: "smoothing",
            dfs_path,
            spec,
            app: &app,
            records: f.rows(),
            init: f,
            splits: 8,
            partitions: 8,
            cost: cost::smoothing(side),
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};
    use std::collections::HashSet;
    use std::sync::Barrier;

    fn pool(width: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .unwrap()
    }

    /// Runs `job` on `width` jobs at once before any returns: the first
    /// `width` jobs meet at a barrier, so each worker holds one of them.
    fn all_workers_at_once<R: Send>(width: usize, job: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let barrier = Barrier::new(width);
        let jobs: Vec<usize> = (0..12).collect();
        pool(width).install(|| {
            fan_out(&jobs, |&j| {
                if j < width {
                    barrier.wait();
                }
                job(j)
            })
        })
    }

    #[test]
    fn fan_out_keeps_input_order() {
        for width in 1..=3 {
            let out = all_workers_at_once(width, |j| j * j);
            assert_eq!(out, (0..12).map(|j| j * j).collect::<Vec<_>>());
        }
        assert!(fan_out(&[] as &[u8], |_| ()).is_empty());
    }

    /// The caller is a worker, so exactly the pool's width of threads
    /// run jobs, and each job sees a one-thread pool when there are
    /// helpers.
    #[test]
    fn fan_out_runs_on_the_pool_width() {
        for width in 1..=3 {
            let seen = all_workers_at_once(width, |_| {
                (std::thread::current().id(), rayon::current_num_threads())
            });
            let threads: HashSet<_> = seen.iter().map(|&(id, _)| id).collect();
            assert_eq!(threads.len(), width);
            assert!(
                seen.iter().all(|&(_, inner)| inner == 1),
                "width {width}: {seen:?}"
            );
        }
    }

    /// A lone job keeps the caller's pool for its own parallel loops;
    /// fewer jobs than threads split the pool between them.
    #[test]
    fn each_job_gets_its_share_of_the_pool() {
        let inner = |width, jobs| {
            pool(width).install(|| fan_out(&vec![(); jobs], |_| rayon::current_num_threads()))
        };
        assert_eq!(inner(3, 1), [3]);
        assert_eq!(inner(4, 2), [2, 2]);
        assert_eq!(inner(3, 2), [1, 1]);
    }

    /// Only the helper's job fails, where a bare `std::thread::scope`
    /// would replace its message with its own.
    #[test]
    #[should_panic(expected = "a helper's job failed")]
    fn fan_out_reraises_the_jobs_own_panic() {
        let caller = std::thread::current().id();
        all_workers_at_once(2, |_| {
            if std::thread::current().id() != caller {
                panic!("a helper's job failed");
            }
        });
    }

    #[test]
    fn compare_runs_both_sides() {
        let app = KMeansApp::new(4, 2, 1e-3);
        let pts = gaussian_mixture(500, 4, 2, 100.0, 1.5, 3);
        let init = Centroids::new(init_random_centroids(4, 2, 100.0, 7));
        let cmp = compare(&ClusterSpec::small(), &app, pts, init, 6, 4, cost::kmeans());
        assert!(cmp.ic.iterations > 0);
        assert!(cmp.pic.be_iterations > 0);
        assert!(cmp.speedup() > 0.0);
        // Both runs carry a trace that passes the structural suite and
        // reconciles exactly with its engine's ledger.
        pic_simnet::trace::check::validate(&cmp.ic_trace, &cmp.ic_traffic).unwrap();
        pic_simnet::trace::check::validate(&cmp.pic_trace, &cmp.pic_traffic).unwrap();
    }
}
