//! The K-means [`IterativeApp`] / [`PicApp`] implementation.

use super::data::Point;
use super::metrics::centroid_displacement;
use super::mr::{bounded_lloyd, AssignMapper, AverageReducer, Centroids, SumCombiner};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine};

/// How sub-problem centroid sets are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeStrategy {
    /// Plain average of corresponding centroids — what the paper's case
    /// study uses ("Our merge function identifies corresponding centroid
    /// values from each partition and averages them").
    #[default]
    Average,
    /// Average weighted by each partition's assigned point count — the
    /// ablation variant (exactly recovers the global Lloyd update when
    /// assignments agree).
    WeightedAverage,
}

/// K-means clustering with `k` centroids over points of dimension `dim`.
pub struct KMeansApp {
    /// Number of clusters.
    pub k: usize,
    /// Point dimensionality.
    pub dim: usize,
    /// Convergence threshold on the largest centroid displacement.
    pub threshold: f64,
    /// Looser threshold ending the best-effort phase (paper §III.B: the
    /// developer "can specify a much looser criterion to quickly
    /// terminate the best-effort phase"). At small partition sizes the
    /// merged model keeps jittering by sampling noise, so insisting on
    /// the tight criterion would waste best-effort rounds polishing what
    /// the top-off phase polishes anyway.
    pub be_threshold: f64,
    /// Merge strategy for the PIC best-effort phase.
    pub merge_strategy: MergeStrategy,
    /// Seed for the random data partitioner.
    pub partition_seed: u64,
    /// Reference model for error trajectories (usually the converged
    /// sequential solution); `None` disables the error metric.
    pub reference: Option<Centroids>,
    /// Evaluation sample + its reference SSE for the quality-based error
    /// metric (set via [`KMeansApp::with_eval_sample`]); preferred over
    /// raw centroid distance when present, because K-means runs from the
    /// same init can land in different (equally good) local optima.
    pub eval_sample: Option<(Vec<Point>, f64)>,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl KMeansApp {
    /// A K-means app with the paper's defaults.
    pub fn new(k: usize, dim: usize, threshold: f64) -> Self {
        KMeansApp {
            k,
            dim,
            threshold,
            be_threshold: threshold * 10.0,
            merge_strategy: MergeStrategy::Average,
            partition_seed: 0x5eed,
            reference: None,
            eval_sample: None,
            max_iterations: 120,
        }
    }

    /// Attach a reference solution for error tracking.
    pub fn with_reference(mut self, reference: Centroids) -> Self {
        self.reference = Some(reference);
        self
    }

    /// Use a specific merge strategy.
    pub fn with_merge(mut self, s: MergeStrategy) -> Self {
        self.merge_strategy = s;
        self
    }

    /// Track error as *relative SSE excess* over `reference` on `sample`:
    /// `sse(model)/sse(reference) − 1`. Zero means reference-equivalent
    /// clustering quality, regardless of which local optimum was reached.
    pub fn with_eval_sample(mut self, sample: Vec<Point>, reference: &Centroids) -> Self {
        let sse_ref = super::metrics::sse(&sample, reference).max(1e-30);
        self.eval_sample = Some((sample, sse_ref));
        self
    }

    /// One IC iteration ([`IterativeApp::iterate`]) plus the full
    /// nearest-centroid scans its map tasks made. With the run's memo
    /// (`scope.memo()`, armed by `run_ic`) the map tasks keep Hamerly's
    /// bounds from job to job ([`AssignMapper::bounded`]); without one
    /// they map statelessly and every point scans.
    pub(crate) fn iterate_counting_scans(
        &self,
        engine: &Engine,
        data: &Dataset<Point>,
        model: &Centroids,
        scope: &IterScope,
    ) -> (Centroids, usize) {
        let mapper = match scope.memo() {
            Some(memo) => AssignMapper::bounded(
                model,
                memo.take().unwrap_or_default(),
                data.splits.iter().map(|s| s.records.len()),
            ),
            None => AssignMapper::new(model),
        };
        let res = engine.run_with_combiner(
            &scope.job("assign"),
            data,
            &mapper,
            &SumCombiner,
            &AverageReducer,
        );
        let scans = match (scope.memo(), mapper.into_bounds()) {
            (Some(memo), Some((bounds, scans))) => {
                memo.put(bounds);
                scans
            }
            _ => res.stats.input_records as usize,
        };
        // Fold reducer output into the next model; clusters that received
        // no points keep their previous centroid.
        let mut next = Centroids::new(model.coords.clone());
        for (cluster, coords, count) in res.output {
            let c = cluster as usize;
            assert!(c < self.k, "cluster id out of range");
            next.coords[c] = coords;
            next.counts[c] = count;
        }
        (next, scans)
    }

    /// Solve sequentially to convergence — the "sequential implementation"
    /// the paper uses as the reference for its error metric (§VI.A).
    pub fn solve_reference(&self, points: &[Point], init: &Centroids, cap: usize) -> Centroids {
        bounded_lloyd(points, init, cap, self.threshold).0
    }
}

impl IterativeApp for KMeansApp {
    type Record = Point;
    type Model = Centroids;

    fn name(&self) -> &str {
        "kmeans"
    }

    fn iterate(
        &self,
        engine: &Engine,
        data: &Dataset<Point>,
        model: &Centroids,
        scope: &IterScope,
    ) -> Centroids {
        self.iterate_counting_scans(engine, data, model, scope).0
    }

    fn converged(&self, prev: &Centroids, next: &Centroids) -> bool {
        next.max_displacement(prev) < self.threshold
    }

    fn error(&self, model: &Centroids) -> Option<f64> {
        if let Some((sample, sse_ref)) = &self.eval_sample {
            return Some((super::metrics::sse(sample, model) / sse_ref - 1.0).max(0.0));
        }
        self.reference
            .as_ref()
            .map(|r| centroid_displacement(model, r))
    }

    fn max_iterations(&self) -> usize {
        self.max_iterations
    }
}

impl PicApp for KMeansApp {
    fn partition_data(&self, data: &Dataset<Point>, parts: usize) -> Vec<Vec<Point>> {
        partition::random(data.iter_records().cloned(), parts, self.partition_seed)
    }

    fn split_model(&self, model: &Centroids, parts: usize) -> Vec<Centroids> {
        // Copy-style partitioning: every sub-problem clusters its points
        // against the full centroid set (paper Fig. 6).
        vec![model.clone(); parts]
    }

    fn merge(&self, subs: &[Centroids], prev: &Centroids) -> Centroids {
        assert!(!subs.is_empty(), "no sub-models to merge");
        let k = prev.k();
        let dim = self.dim;
        // Correspondence is index identity: every sub-problem started this
        // best-effort round from the same model copy, so centroid i in
        // each sub-model descends from prev's centroid i — exactly the
        // correspondence the paper's merge "identifies". (Greedy
        // re-matching by distance is available in
        // `metrics::match_centroids` but mis-pairs drifted centroids and
        // corrupts the average, so the merge does not use it.)
        let mut sums = vec![vec![0.0; dim]; k];
        let mut weights = vec![0.0; k];
        let mut counts = vec![0u64; k];
        for sub in subs {
            assert_eq!(sub.k(), k, "sub-model size mismatch");
            for i in 0..k {
                let w = match self.merge_strategy {
                    MergeStrategy::Average => {
                        // Sub-problems whose cluster i is empty kept the
                        // incoming centroid; averaging them in would drag
                        // the merged centroid back toward the stale value.
                        if sub.counts[i] == 0 {
                            0.0
                        } else {
                            1.0
                        }
                    }
                    MergeStrategy::WeightedAverage => sub.counts[i] as f64,
                };
                counts[i] += sub.counts[i];
                if w == 0.0 {
                    continue;
                }
                for (s, x) in sums[i].iter_mut().zip(&sub.coords[i]) {
                    *s += w * x;
                }
                weights[i] += w;
            }
        }
        let coords = sums
            .into_iter()
            .enumerate()
            .map(|(i, mut s)| {
                if weights[i] == 0.0 {
                    prev.coords[i].clone()
                } else {
                    for x in &mut s {
                        *x /= weights[i];
                    }
                    s
                }
            })
            .collect();
        Centroids { coords, counts }
    }

    fn be_converged(&self, prev: &Centroids, next: &Centroids) -> bool {
        next.max_displacement(prev) < self.be_threshold
    }

    fn max_be_iterations(&self) -> usize {
        // The paper's Table I observes 3–5 best-effort iterations; beyond
        // that the merged model can limit-cycle at the sampling-noise
        // amplitude of small partitions without further real refinement,
        // so budget the phase rather than chase the oscillation.
        6
    }

    fn solve_local(
        &self,
        _part: usize,
        records: &[Point],
        model: &Centroids,
        cap: usize,
    ) -> (Centroids, usize) {
        // "Each sub-problem performs as many local iterations as necessary
        // to obtain a converged partial model. The convergence criterion
        // ... is the same as the criterion used in the IC implementation."
        let (m, iterations, _) = bounded_lloyd(records, model, cap, self.threshold);
        (m, iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::data::gaussian_mixture;
    use crate::kmeans::lloyd_step;
    use pic_simnet::ClusterSpec;

    fn well_separated(n: usize) -> (Vec<Point>, Centroids) {
        let pts = gaussian_mixture(n, 4, 2, 100.0, 1.0, 11);
        let init = Centroids::new(super::super::data::init_random_centroids(4, 2, 100.0, 3));
        (pts, init)
    }

    #[test]
    fn ic_kmeans_converges_on_engine() {
        let engine = Engine::new(ClusterSpec::small());
        let (pts, init) = well_separated(400);
        let data = Dataset::create(&engine, "/km/ic", pts, 6);
        let app = KMeansApp::new(4, 2, 1e-3);
        let r = run_ic(&engine, &app, &data, init, &IcOptions::default());
        assert!(
            r.converged,
            "K-means should converge in {} iters",
            app.max_iterations
        );
        assert!(r.iterations >= 2);
    }

    #[test]
    fn mr_iteration_equals_sequential_lloyd() {
        // The MapReduce job must be numerically equivalent to one
        // sequential Lloyd step — the engine adds no approximation.
        let engine = Engine::new(ClusterSpec::small());
        let (pts, init) = well_separated(300);
        let data = Dataset::create(&engine, "/km/eq", pts.clone(), 5);
        let app = KMeansApp::new(4, 2, 1e-3);
        let scope = IterScope::cluster(6, pic_mapreduce::Timing::default_analytic());
        let via_mr = app.iterate(&engine, &data, &init, &scope);
        let via_seq = lloyd_step(&pts, &init);
        for (a, b) in via_mr.coords.iter().zip(&via_seq.coords) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9, "mr {x} vs seq {y}");
            }
        }
        assert_eq!(via_mr.counts, via_seq.counts);
    }

    #[test]
    fn pic_kmeans_matches_ic_quality() {
        // K-means is non-convex, so PIC and the sequential reference may
        // settle in different local optima; what the paper claims (and
        // what we assert) is comparable clustering *quality* — its §VI
        // uses the Jagota index and finds ≤3% difference. We allow a
        // modest band on SSE at this tiny test scale.
        let engine = Engine::new(ClusterSpec::small());
        let (pts, init) = well_separated(400);
        let app = KMeansApp::new(4, 2, 1e-3);
        let reference = app.solve_reference(&pts, &init, 200);
        let ref_sse = crate::kmeans::metrics::sse(&pts, &reference);
        let data = Dataset::create(&engine, "/km/pic", pts.clone(), 6);
        let app = app.with_reference(reference.clone());
        let r = run_pic(
            &engine,
            &app,
            &data,
            init,
            &PicOptions {
                partitions: 4,
                ..Default::default()
            },
        );
        assert!(r.topoff_converged);
        let pic_sse = crate::kmeans::metrics::sse(&pts, &r.final_model);
        assert!(
            pic_sse <= ref_sse * 1.5 + 1e-9,
            "PIC SSE {pic_sse} should be close to reference SSE {ref_sse}"
        );
    }

    #[test]
    fn merge_average_of_identical_submodels_is_identity() {
        let app = KMeansApp::new(2, 2, 1e-3);
        let m = Centroids::new(vec![vec![1.0, 2.0], vec![5.0, 6.0]]);
        let merged = app.merge(&[m.clone(), m.clone(), m.clone()], &m);
        for (a, b) in merged.coords.iter().zip(&m.coords) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn weighted_merge_respects_counts() {
        let app = KMeansApp::new(1, 1, 1e-3).with_merge(MergeStrategy::WeightedAverage);
        let prev = Centroids::new(vec![vec![0.0]]);
        let a = Centroids {
            coords: vec![vec![0.0]],
            counts: vec![1],
        };
        let b = Centroids {
            coords: vec![vec![10.0]],
            counts: vec![3],
        };
        let merged = app.merge(&[a, b], &prev);
        assert!((merged.coords[0][0] - 7.5).abs() < 1e-12);
    }

    /// `KMeansApp` under `run_ic`, either as it is or with every
    /// iteration on a scope of its own from [`IterScope::cluster`], so
    /// that it maps statelessly; either way it records each iteration's
    /// full scans.
    struct Probe {
        app: KMeansApp,
        stateless: bool,
        scans: std::sync::Mutex<Vec<usize>>,
    }

    impl Probe {
        fn new(app: KMeansApp, stateless: bool) -> Self {
            Probe {
                app,
                stateless,
                scans: Default::default(),
            }
        }
    }

    impl IterativeApp for Probe {
        type Record = Point;
        type Model = Centroids;

        fn name(&self) -> &str {
            self.app.name()
        }

        fn iterate(
            &self,
            engine: &Engine,
            data: &Dataset<Point>,
            model: &Centroids,
            scope: &IterScope,
        ) -> Centroids {
            let mut own = IterScope::cluster(engine.spec().nodes, scope.timing.clone());
            own.group = scope.group.clone();
            own.iteration = scope.iteration;
            own.phase = scope.phase;
            let scope = if self.stateless { &own } else { scope };
            let (next, scans) = self.app.iterate_counting_scans(engine, data, model, scope);
            self.scans.lock().unwrap().push(scans);
            next
        }

        fn converged(&self, prev: &Centroids, next: &Centroids) -> bool {
            self.app.converged(prev, next)
        }

        fn error(&self, model: &Centroids) -> Option<f64> {
            self.app.error(model)
        }
    }

    /// A seeded, well-separated mixture on 8 splits and its start.
    fn mixture(engine: &Engine) -> (Dataset<Point>, Centroids) {
        use crate::kmeans::data::init_random_centroids;
        let points = gaussian_mixture(4_000, 12, 3, 1000.0, 30.0, 7);
        let data = Dataset::create(engine, "/km/bounded", points, 8);
        (
            data,
            Centroids::new(init_random_centroids(12, 3, 1000.0, 8)),
        )
    }

    fn model_bits(m: &Centroids) -> (Vec<Vec<u64>>, Vec<u64>) {
        let coords = m
            .coords
            .iter()
            .map(|c| c.iter().map(|x| x.to_bits()).collect());
        (coords.collect(), m.counts.clone())
    }

    /// The run's memo changes how map tasks find each point's cluster and
    /// nothing else: `run_ic` is the loop of stateless iterations, model
    /// bits, iteration count, per-iteration stats, trace and ledger.
    #[test]
    fn run_ic_equals_a_loop_of_stateless_iterations() {
        let run = |stateless: bool| {
            let engine = Engine::new(ClusterSpec::small());
            let (data, init) = mixture(&engine);
            let probe = Probe::new(KMeansApp::new(12, 3, 1e-3), stateless);
            let r = run_ic(&engine, &probe, &data, init, &IcOptions::default());
            let scans = probe.scans.into_inner().unwrap();
            (r, engine.trace(), engine.traffic(), scans)
        };
        let (bounded, trace, traffic, scans) = run(false);
        let (stateless, ref_trace, ref_traffic, ref_scans) = run(true);
        assert!(bounded.converged && bounded.iterations >= 4);
        assert_eq!(
            model_bits(&bounded.final_model),
            model_bits(&stateless.final_model)
        );
        assert_eq!(bounded.iterations, stateless.iterations);
        assert_eq!(
            format!("{:?}", bounded.per_iteration),
            format!("{:?}", stateless.per_iteration)
        );
        assert_eq!(
            format!("{:?}", bounded.trajectory),
            format!("{:?}", stateless.trajectory)
        );
        assert!(trace == ref_trace, "traces differ");
        assert_eq!(traffic, ref_traffic);
        assert!(ref_scans.iter().all(|&n| n == 4_000), "{ref_scans:?}");
        assert_eq!(scans[0], 4_000, "the first job seeds every bound");
    }

    /// On well-separated clusters most of IC's point assignments after the
    /// first job skip the scan.
    #[test]
    fn ic_map_tasks_skip_most_scans_on_separated_clusters() {
        let engine = Engine::new(ClusterSpec::small());
        let (data, init) = mixture(&engine);
        let probe = Probe::new(KMeansApp::new(12, 3, 1e-3), false);
        let r = run_ic(&engine, &probe, &data, init, &IcOptions::default());
        let scans = probe.scans.into_inner().unwrap();
        assert_eq!(scans.len(), r.iterations);
        assert!(r.iterations >= 4, "{} iterations", r.iterations);
        let later: usize = scans[1..].iter().sum();
        let point_iterations = 4_000 * (r.iterations - 1);
        assert!(
            2 * later < point_iterations,
            "{later} full scans in {point_iterations} point-iterations after the first job"
        );
    }

    #[test]
    fn solve_local_converges_and_reports_iterations() {
        let (pts, init) = well_separated(200);
        let app = KMeansApp::new(4, 2, 1e-3);
        let (m, iters) = app.solve_local(0, &pts, &init, 100);
        assert!(iters < 100, "should converge before cap");
        let next = lloyd_step(&pts, &m);
        assert!(
            next.max_displacement(&m) < 1e-3,
            "claimed convergence is real"
        );
    }
}
