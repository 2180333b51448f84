//! `kmeans_fig2`: the paper's headline experiment at the repo's full scale.
//!
//! One repetition is `run_ic` + `run_pic` over the same points on two traced
//! engines plus the trace and traffic snapshots `fig2::run_full` takes. The
//! real distance kernel in map and combine (IC, top-off) and in `solve_local`
//! (best-effort) on the rayon pool is nearly all of it; JSON, the analysis
//! stack and tenancy do nothing here.
//!
//! The draw is `fig2::run_full`'s own (mixture seed 21, initial centroids
//! seed 5): only there does the run sit in the paper's regime (3.23x), and
//! other draws need between 49 and 91 IC iterations and between 7 and 70
//! top-off iterations, so host time would swing by a factor of two with the
//! seed. `--seed` instead draws a rigid motion of the space (an axis
//! permutation, a reflection per axis, a whole-number translation) applied
//! to points and initial centroids alike. Lloyd's algorithm is invariant
//! under rigid motions in exact arithmetic, so every seed gives the program
//! different coordinates and the same iteration counts, up to rounding.

use super::{RepOutcome, Workload};
use crate::record::Recorder;
use crate::stats::{splitmix64, Digest};
use pic_apps::kmeans::{
    gaussian_mixture, init_random_centroids, lloyd_step, Centroids, KMeansApp, Point,
};
use pic_bench::experiments::common::cost;
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine};
use pic_simnet::ClusterSpec;

const POINTS: usize = 400_000;
const K: usize = 100;
const DIM: usize = 3;
const SPLITS: usize = 256;
const PARTITIONS: usize = 64;
const EXTENT: f64 = 1000.0;
const SIGMA: f64 = 40.0;
const MIXTURE_SEED: u64 = 21;
const INIT_SEED: u64 = 5;
/// The app's convergence threshold on the largest centroid displacement.
const THRESHOLD: f64 = 1.0;
/// Points of the evaluation sample the app's quality probe runs on.
const EVAL_SAMPLE: usize = 2_000;
/// Pinned ceiling on the quality probe's objective (relative SSE excess over
/// the sequential-Lloyd solution of the evaluation sample) for both final
/// models; both sit at 1.89 today.
const MAX_SSE_EXCESS: f64 = 2.5;
/// A converged model must be a fixed point of sequential Lloyd over all the
/// points: one more step may move no centroid further than this.
const MAX_FIXED_POINT_STEP: f64 = 2.0 * THRESHOLD;

pub const SIZES: &str = "400000 points, k=100, dim=3, 256 splits, 64 partitions, \
     ClusterSpec::medium(), cost::kmeans(); fig2's draw (seeds 21/5) under a rigid \
     motion drawn from --seed";

/// `x -> sign * x[perm] + shift`, per axis.
struct Motion {
    perm: [usize; DIM],
    sign: [f64; DIM],
    shift: [f64; DIM],
}

impl Motion {
    fn from_seed(seed: u64) -> Motion {
        let mut state = seed;
        let mut perm = [0, 1, 2];
        crate::stats::shuffle(&mut perm, &mut state);
        let mut sign = [1.0; DIM];
        let mut shift = [0.0; DIM];
        for d in 0..DIM {
            if splitmix64(&mut state) & 1 == 1 {
                sign[d] = -1.0;
            }
            shift[d] = (splitmix64(&mut state) % 2001) as f64 - 1000.0;
        }
        Motion { perm, sign, shift }
    }

    fn apply(&self, coords: &[f64]) -> Vec<f64> {
        (0..DIM)
            .map(|d| self.sign[d] * coords[self.perm[d]] + self.shift[d])
            .collect()
    }
}

/// What the per-layer report needs from the last repetition.
struct LastRun {
    ic_iterations: usize,
    be_iterations: usize,
    topoff_iterations: usize,
    local_iterations: usize,
    sim_ic_s: f64,
    sim_pic_s: f64,
    trace_spans: usize,
    trace_instants: usize,
}

pub struct KMeansFig2 {
    app: KMeansApp,
    points: Vec<Point>,
    init: Centroids,
    ic_engine: Engine,
    ic_data: Dataset<Point>,
    pic_engine: Engine,
    pic_data: Dataset<Point>,
    last: Option<LastRun>,
}

pub fn setup(seed: u64, rec: &mut Recorder) -> Result<(Box<dyn Workload>, RepOutcome), String> {
    let motion = Motion::from_seed(seed);
    let (points, init) = rec.span("apps.datagen_s", |_| {
        let points: Vec<Point> = gaussian_mixture(POINTS, K, DIM, EXTENT, SIGMA, MIXTURE_SEED)
            .iter()
            .map(|p| Point::new(motion.apply(&p.coords)))
            .collect();
        let init = init_random_centroids(K, DIM, EXTENT, INIT_SEED)
            .iter()
            .map(|c| motion.apply(c))
            .collect();
        (points, Centroids::new(init))
    });
    // The quality probe of `fig2::run_full`: relative SSE excess on a fixed
    // subsample against the sequential solution of that subsample.
    let app = rec.span("apps.reference_solve_s", |_| {
        let app = KMeansApp::new(K, DIM, THRESHOLD);
        let stride = (POINTS / EVAL_SAMPLE).max(1);
        let sample: Vec<Point> = points.iter().step_by(stride).cloned().collect();
        let reference = app.solve_reference(&sample, &init, 300);
        app.with_eval_sample(sample, &reference)
    });
    let load = |points: &[Point]| {
        let engine = Engine::new(ClusterSpec::medium());
        let data = Dataset::create(&engine, "/exp/input", points.to_vec(), SPLITS);
        engine.reset(); // the dataset load is not part of the measured run
        (engine, data)
    };
    let ((ic_engine, ic_data), (pic_engine, pic_data)) = rec
        .span("mapreduce.dataset_create_s", |_| {
            (load(&points), load(&points))
        });
    let workload = KMeansFig2 {
        app,
        points,
        init,
        ic_engine,
        ic_data,
        pic_engine,
        pic_data,
        last: None,
    };
    Ok((Box::new(workload), RepOutcome::default()))
}

fn digest_model(d: &mut Digest, model: &Centroids) {
    for c in &model.coords {
        for &x in c {
            d.float(x);
        }
    }
    for &n in &model.counts {
        d.word(n);
    }
}

impl KMeansFig2 {
    /// What is wrong with a converged model, if anything: the app's own
    /// quality probe against the sequential-Lloyd reference, and one more
    /// sequential Lloyd step over all the points.
    fn model_problem(&self, who: &str, converged: bool, model: &Centroids) -> Option<String> {
        if !converged {
            return Some(format!("{who} did not converge"));
        }
        let excess = self.app.quality(model).objective;
        if !excess.is_some_and(|e| e < MAX_SSE_EXCESS) {
            return Some(format!(
                "{who} quality probe objective {excess:?} is not below {MAX_SSE_EXCESS}"
            ));
        }
        let step = lloyd_step(&self.points, model).max_displacement(model);
        if !(step < MAX_FIXED_POINT_STEP) {
            return Some(format!(
                "{who} final model is no fixed point of sequential Lloyd: one more step \
                 moves a centroid by {step} (limit {MAX_FIXED_POINT_STEP})"
            ));
        }
        None
    }
}

impl Workload for KMeansFig2 {
    fn rep(&mut self, rec: &mut Recorder) -> Result<RepOutcome, String> {
        let cost = cost::kmeans();
        rec.span("mapreduce.reset_s", |_| {
            self.ic_engine.reset();
            self.pic_engine.reset();
        });
        let ic = rec.span("core.run_ic_s", |_| {
            run_ic(
                &self.ic_engine,
                &self.app,
                &self.ic_data,
                self.init.clone(),
                &IcOptions {
                    timing: cost.timing.clone(),
                    ..Default::default()
                },
            )
        });
        let pic = rec.span("core.run_pic_s", |_| {
            run_pic(
                &self.pic_engine,
                &self.app,
                &self.pic_data,
                self.init.clone(),
                &PicOptions {
                    partitions: PARTITIONS,
                    timing: cost.timing.clone(),
                    local_secs_per_record: Some(cost.local_secs),
                    ..Default::default()
                },
            )
        });
        let (ic_trace, pic_trace, ic_traffic, pic_traffic) = rec.span("core.snapshot_s", |_| {
            (
                self.ic_engine.trace(),
                self.pic_engine.trace(),
                self.ic_engine.traffic(),
                self.pic_engine.traffic(),
            )
        });

        let mut out = RepOutcome {
            sim_s: ic.total_time_s + pic.total_time_s,
            ..Default::default()
        };
        rec.check(|| {
            let mut ic_problem = self.model_problem("IC", ic.converged, &ic.final_model);
            if ic_trace.spans.is_empty() || ic_traffic != ic.traffic {
                ic_problem.get_or_insert("IC snapshot disagrees with its report".to_string());
            }
            out.op(ic_problem);
            let mut pic_problem = self.model_problem("PIC", pic.topoff_converged, &pic.final_model);
            if !(pic.total_time_s < ic.total_time_s) {
                pic_problem.get_or_insert(format!(
                    "PIC took {} simulated seconds, IC {}: the paper's ordering is lost",
                    pic.total_time_s, ic.total_time_s
                ));
            }
            if pic_trace.spans.is_empty() || pic_traffic != pic.traffic() {
                pic_problem.get_or_insert("PIC snapshot disagrees with its report".to_string());
            }
            out.op(pic_problem);

            let mut d = Digest::default();
            d.word(ic.iterations as u64);
            d.float(ic.total_time_s);
            for it in &ic.per_iteration {
                d.float(it.time_s);
            }
            d.bytes(format!("{ic_traffic:?}").as_bytes());
            digest_model(&mut d, &ic.final_model);
            d.word(pic.be_iterations as u64);
            d.word(pic.topoff_iterations as u64);
            for &n in pic.local_iterations.iter().flatten() {
                d.word(n as u64);
            }
            d.float(pic.be_time_s);
            d.float(pic.topoff_time_s);
            d.float(pic.total_time_s);
            d.bytes(format!("{pic_traffic:?}").as_bytes());
            digest_model(&mut d, &pic.final_model);
            for trace in [&ic_trace, &pic_trace] {
                d.word(trace.spans.len() as u64);
                d.word(trace.instants.len() as u64);
            }
            out.digest = d.finish();
        });

        self.last = Some(LastRun {
            ic_iterations: ic.iterations,
            be_iterations: pic.be_iterations,
            topoff_iterations: pic.topoff_iterations,
            local_iterations: pic.total_local_iterations(),
            sim_ic_s: ic.total_time_s,
            sim_pic_s: pic.total_time_s,
            trace_spans: ic_trace.spans.len() + pic_trace.spans.len(),
            trace_instants: ic_trace.instants.len() + pic_trace.instants.len(),
        });
        Ok(out)
    }

    fn layer_report(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let last = self.last.as_ref().ok_or("no repetition ran")?;
        let run_ic_s = rec.self_seconds("core.run_ic_s");
        rec.set(
            "core.ic_ms_per_iteration",
            1e3 * run_ic_s / last.ic_iterations as f64,
        );
        rec.set("core.ic_iterations", last.ic_iterations as f64);
        rec.set("core.pic_be_iterations", last.be_iterations as f64);
        rec.set("core.pic_topoff_iterations", last.topoff_iterations as f64);
        rec.set("core.pic_local_iterations", last.local_iterations as f64);
        rec.set("core.sim_ic_total_s", last.sim_ic_s);
        rec.set("core.sim_pic_total_s", last.sim_pic_s);
        rec.set("core.sim_speedup_x", last.sim_ic_s / last.sim_pic_s);
        rec.set("simnet.trace.spans", last.trace_spans as f64);
        rec.set("simnet.trace.instants", last.trace_instants as f64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motion_is_rigid_and_seeded() {
        let a = [3.0, -4.0, 12.0];
        let b = [0.5, 9.0, -2.0];
        let dist2 =
            |p: &[f64], q: &[f64]| -> f64 { p.iter().zip(q).map(|(x, y)| (x - y) * (x - y)).sum() };
        let mut distinct = std::collections::BTreeSet::new();
        for seed in 0..50 {
            let m = Motion::from_seed(seed);
            let (ma, mb) = (m.apply(&a), m.apply(&b));
            assert!(
                (dist2(&ma, &mb) - dist2(&a, &b)).abs() < 1e-9,
                "seed {seed}"
            );
            assert_eq!(
                ma,
                Motion::from_seed(seed).apply(&a),
                "same seed, same motion"
            );
            distinct.insert(format!("{ma:?}"));
        }
        assert!(distinct.len() > 40, "seeds give different coordinates");
    }
}
