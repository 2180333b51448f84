//! The K-means model and its MapReduce step (paper Fig. 1(b)).

use super::data::Point;
use pic_mapreduce::{kv, ByteSize, Combiner, MapContext, Mapper, ReduceContext, Reducer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The K-means model: `k` centroids plus the point count last assigned to
/// each (counts ride along so the merge can skip empty sub-centroids; the
/// paper's model is the centroid set).
#[derive(Debug, Clone, PartialEq)]
pub struct Centroids {
    /// Centroid coordinates, `k × dim`.
    pub coords: Vec<Vec<f64>>,
    /// Points assigned to each centroid in the iteration that produced it
    /// (zero for a freshly initialized model).
    pub counts: Vec<u64>,
}

impl Centroids {
    /// A model from raw centroid coordinates with zeroed counts.
    pub fn new(coords: Vec<Vec<f64>>) -> Self {
        let k = coords.len();
        Centroids {
            coords,
            counts: vec![0; k],
        }
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.coords.len()
    }

    /// Largest per-centroid displacement between two models — the paper's
    /// convergence quantity.
    pub fn max_displacement(&self, other: &Centroids) -> f64 {
        assert_eq!(self.k(), other.k(), "model size mismatch");
        self.coords
            .iter()
            .zip(&other.coords)
            .map(|(a, b)| dist2(a, b).sqrt())
            .fold(0.0, f64::max)
    }
}

impl ByteSize for Centroids {
    fn byte_size(&self) -> u64 {
        // k centroids of dim doubles + k counts.
        4 + self
            .coords
            .iter()
            .map(|c| 4 + 8 * c.len() as u64)
            .sum::<u64>()
            + 8 * self.counts.len() as u64
    }
}

/// Squared Euclidean distance between two centroids, in
/// [`Point::dist2`]'s operation order.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Centroids per block of the nearest-centroid scan.
const LANES: usize = 8;

/// A model's centroids laid out for the nearest-centroid kernels every
/// assignment goes through (mapper, [`lloyd_step`], [`bounded_lloyd`], the
/// quality metrics).
///
/// Coordinate-major: `cols[d * kp + i]` is coordinate `d` of centroid `i`,
/// where `kp` is `k` rounded up to a multiple of [`LANES`]; the padding
/// slots hold `+∞`. One block of eight centroids is then eight adjacent
/// doubles per coordinate, contiguous for every block.
pub(crate) struct CentroidTable {
    cols: Vec<f64>,
    k: usize,
    kp: usize,
    dim: usize,
}

impl CentroidTable {
    /// Lay out `model`'s centroids; built once per model.
    ///
    /// # Panics
    /// Panics if the centroids do not all have the same dimension.
    pub(crate) fn new(model: &Centroids) -> Self {
        let k = model.k();
        let dim = model.coords.first().map_or(0, Vec::len);
        let kp = k.div_ceil(LANES) * LANES;
        let mut cols = vec![f64::INFINITY; dim * kp];
        for (i, c) in model.coords.iter().enumerate() {
            assert_eq!(
                c.len(),
                dim,
                "centroid {i} has dimension {} but centroid 0 has dimension {dim}",
                c.len()
            );
            for (d, &x) in c.iter().enumerate() {
                cols[d * kp + i] = x;
            }
        }
        CentroidTable { cols, k, kp, dim }
    }

    /// Index of the centroid nearest to `p` by squared Euclidean distance.
    ///
    /// Each block of eight centroids sums `(x_d − c_d)²` over `d = 0..dim`
    /// in that order into its own lane — the operation order of
    /// [`Point::dist2`], no fused multiply-add — so every distance is the
    /// one `dist2` computes, bit for bit. The scan is strict-`<` in index
    /// order: the first minimum wins, NaN never wins, and when no distance
    /// is below `+∞` the answer is 0. Padding is `+∞` or NaN and never wins.
    ///
    /// # Panics
    /// Panics if the model has no centroids or `p`'s dimension is not the
    /// model's.
    ///
    /// Never inlined: the kernel keeps one symbol of its own, so the
    /// 64-byte function alignment pins where its loop sits (DESIGN.md §14).
    #[inline(never)]
    pub(crate) fn nearest(&self, p: &[f64]) -> usize {
        self.check(p);
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for b in (0..self.kp).step_by(LANES) {
            for (j, d) in self.block(p, b).into_iter().enumerate() {
                if d < best_d {
                    best_d = d;
                    best = b + j;
                }
            }
        }
        best
    }

    /// [`CentroidTable::nearest`]'s index plus the two smallest squared
    /// distances: the winner's, and the smallest among the other
    /// centroids (equal to the winner's on a tie). Same distances, same
    /// order, same strict-`<` first-minimum rule, so the index is the one
    /// `nearest` returns; NaN never enters either distance, and a
    /// distance nothing beats is `+∞`. The second kernel of the bounded
    /// assignment ([`bounded_assign`]); never inlined, like `nearest`.
    #[inline(never)]
    pub(crate) fn nearest_two(&self, p: &[f64]) -> (usize, f64, f64) {
        self.check(p);
        let mut best = 0;
        let (mut best_d, mut second_d) = (f64::INFINITY, f64::INFINITY);
        for b in (0..self.kp).step_by(LANES) {
            for (j, d) in self.block(p, b).into_iter().enumerate() {
                if d < best_d {
                    second_d = best_d;
                    best_d = d;
                    best = b + j;
                } else if d < second_d {
                    second_d = d;
                }
            }
        }
        (best, best_d, second_d)
    }

    fn check(&self, p: &[f64]) {
        assert!(self.kp > 0, "model has no centroids");
        assert_eq!(
            p.len(),
            self.dim,
            "point has dimension {} but the model has dimension {}",
            p.len(),
            self.dim
        );
    }

    /// Squared distances from `p` to centroids `b..b + LANES`.
    #[inline(always)]
    fn block(&self, p: &[f64], b: usize) -> [f64; LANES] {
        let mut acc = [0.0f64; LANES];
        for (&x, col) in p.iter().zip(self.cols.chunks_exact(self.kp)) {
            let c: &[f64; LANES] = col[b..b + LANES].try_into().expect("one block");
            for (a, &y) in acc.iter_mut().zip(c) {
                *a += (x - y) * (x - y);
            }
        }
        acc
    }
}

/// Per-cluster coordinate sums and point counts of one assignment pass —
/// the accumulator behind [`lloyd_step`], [`bounded_lloyd`] and
/// [`AssignMapper::map_combined`].
///
/// Row `c` of `sums` starts at `+0.0` and adds the coordinates of each
/// point assigned to `c` in point order, the order [`SumCombiner`] adds a
/// cluster's values in.
struct ClusterSums {
    dim: usize,
    /// `k × dim`, row-major.
    sums: Vec<f64>,
    counts: Vec<u64>,
    /// Index of the last point assigned to each cluster (the only one
    /// when its count is 1).
    last: Vec<usize>,
}

impl ClusterSums {
    fn new(table: &CentroidTable) -> Self {
        let (k, dim) = (table.k, table.dim);
        ClusterSums {
            dim,
            sums: vec![0.0; k * dim],
            counts: vec![0; k],
            last: vec![0; k],
        }
    }

    /// Assign every point through `table` and sum per cluster.
    fn assign(table: &CentroidTable, points: &[Point]) -> Self {
        let mut acc = ClusterSums::new(table);
        for (i, p) in points.iter().enumerate() {
            acc.add(table.nearest(&p.coords), i, p);
        }
        acc
    }

    /// Add point `i`, `p`, to cluster `c`.
    fn add(&mut self, c: usize, i: usize, p: &Point) {
        let dim = self.dim;
        for (s, x) in self.sums[c * dim..(c + 1) * dim].iter_mut().zip(&p.coords) {
            *s += x;
        }
        self.counts[c] += 1;
        self.last[c] = i;
    }

    /// Cluster `c`'s coordinate sum.
    fn row(&self, c: usize) -> &[f64] {
        &self.sums[c * self.dim..(c + 1) * self.dim]
    }

    /// The Lloyd update: each cluster's mean, or `prev`'s centroid for a
    /// cluster that attracted no point (standard practice; keeps `k`
    /// stable).
    fn into_model(self, prev: &Centroids) -> Centroids {
        let coords = (0..prev.k())
            .map(|i| match self.counts[i] {
                0 => prev.coords[i].clone(),
                n => self.row(i).iter().map(|s| s / n as f64).collect(),
            })
            .collect();
        Centroids {
            coords,
            counts: self.counts,
        }
    }
}

/// Partial aggregate shuffled from map to reduce: coordinate sums plus a
/// count (the classic K-means combiner-friendly value).
pub type PartialSum = (Vec<f64>, u64);

/// Mapper: assign each point to its nearest centroid, emit
/// `(cluster, (coords, 1))` — Fig. 1(b)'s
/// `emit(closest_centroid(d_i, m), d_i)` in pre-aggregated form.
///
/// With a combiner the engine runs [`AssignMapper::map_combined`], which
/// sums per cluster as it assigns and emits one pair per hit cluster —
/// exactly what [`SumCombiner`] makes of the per-point pairs. Within one
/// IC run the map tasks keep Hamerly's bounds from job to job and skip
/// most nearest-centroid scans there (DESIGN.md §7); what they emit is
/// the same, bit for bit.
pub struct AssignMapper {
    table: CentroidTable,
    run: Option<BoundedJob>,
}

/// What a bounded mapper carries through one job: its model, the step
/// from the model the run's bounds were made for (`None`: every point
/// scans) and each split's bounds, marked once a task has mapped it.
struct BoundedJob {
    model: Centroids,
    step: Option<Step>,
    splits: Vec<Mutex<(Vec<Bound>, bool)>>,
    scans: AtomicUsize,
}

const POISONED: &str = "a map task panicked holding its split's bounds";

/// The Hamerly bounds one IC run keeps from job to job in its memo
/// (DESIGN.md §7): the model they were made for and, per split, one
/// [`Bound`] per point.
#[derive(Default)]
pub(crate) struct RunBounds {
    model: Option<Centroids>,
    splits: Vec<Vec<Bound>>,
}

impl AssignMapper {
    /// A mapper assigning against `model`.
    pub fn new(model: &Centroids) -> Self {
        AssignMapper {
            table: CentroidTable::new(model),
            run: None,
        }
    }

    /// A mapper assigning against `model` that carries `run`'s bounds
    /// through one job over splits of `split_lens` points. Bounds for
    /// another split layout are dropped, and each split's bound vector is
    /// allocated here, on the calling thread, so map tasks only write
    /// into it.
    pub(crate) fn bounded(
        model: &Centroids,
        run: RunBounds,
        split_lens: impl ExactSizeIterator<Item = usize>,
    ) -> Self {
        let table = CentroidTable::new(model);
        let step = run.model.and_then(|prev| Step::new(&prev, model, &table));
        let mut splits = run.splits;
        if splits.len() != split_lens.len() {
            splits = split_lens.map(Vec::with_capacity).collect();
        }
        AssignMapper {
            table,
            run: Some(BoundedJob {
                model: model.clone(),
                step,
                splits: splits.into_iter().map(|b| Mutex::new((b, false))).collect(),
                scans: AtomicUsize::new(0),
            }),
        }
    }

    /// A bounded mapper's bounds after its job, made for its model, and
    /// the full scans its tasks made; `None` for a stateless mapper. A
    /// split no task mapped keeps no bounds.
    pub(crate) fn into_bounds(self) -> Option<(RunBounds, usize)> {
        let run = self.run?;
        let splits = run
            .splits
            .into_iter()
            .map(|m| match m.into_inner().expect(POISONED) {
                (bounds, true) => bounds,
                (_, false) => Vec::new(),
            })
            .collect();
        let bounds = RunBounds {
            model: Some(run.model),
            splits,
        };
        Some((bounds, run.scans.into_inner()))
    }
}

impl Mapper for AssignMapper {
    type In = Point;
    type K = u64;
    type V = PartialSum;

    fn map(&self, p: &Point, ctx: &mut MapContext<u64, PartialSum>) {
        let c = self.table.nearest(&p.coords);
        ctx.emit(c as u64, (p.coords.clone(), 1));
    }

    /// One pair per hit cluster, in ascending cluster order. A cluster
    /// hit once ships its point's coordinates untouched, as the combiner
    /// (a no-op on one value) would.
    fn map_combined(&self, points: &[Point], ctx: &mut MapContext<u64, PartialSum>) {
        let bounded = self
            .run
            .as_ref()
            .and_then(|run| Some((run, run.splits.get(ctx.split())?)));
        let acc = match bounded {
            None => ClusterSums::assign(&self.table, points),
            Some((run, slot)) => {
                let mut slot = slot.lock().expect(POISONED);
                let (bounds, mapped) = &mut *slot;
                let mut acc = ClusterSums::new(&self.table);
                let step = run.step.as_ref();
                let scans = bounded_assign(&self.table, &run.model, step, points, bounds, &mut acc);
                *mapped = true;
                run.scans.fetch_add(scans, Ordering::Relaxed);
                acc
            }
        };
        for (c, &count) in acc.counts.iter().enumerate() {
            let coords = match count {
                0 => continue,
                1 => points[acc.last[c]].coords.clone(),
                _ => acc.row(c).to_vec(),
            };
            let (key, value) = (c as u64, (coords, count));
            // Every per-point pair of this cluster has the folded pair's
            // size: same key, a coordinate vector of the same length and
            // a fixed-width count.
            let bytes = count * kv::record_size(&key, &value);
            ctx.emit_folded(key, value, count as usize, bytes);
        }
    }
}

/// Combiner: sum coordinate vectors and counts per cluster within one map
/// task (the "well-known optimization" the paper grants the baseline).
pub struct SumCombiner;

impl Combiner for SumCombiner {
    type K = u64;
    type V = PartialSum;

    fn combine(&self, _k: &u64, values: &mut Vec<PartialSum>) {
        if values.len() <= 1 {
            return;
        }
        let dim = values[0].0.len();
        let mut sum = vec![0.0; dim];
        let mut count = 0u64;
        for (v, c) in values.iter() {
            for (s, x) in sum.iter_mut().zip(v) {
                *s += x;
            }
            count += c;
        }
        values.clear();
        values.push((sum, count));
    }
}

/// Reducer: average the summed coordinates into the new centroid —
/// Fig. 1(b)'s `reduce(centroid, points) -> updated centroid`.
pub struct AverageReducer;

impl Reducer for AverageReducer {
    type K = u64;
    type V = PartialSum;
    type Out = (u64, Vec<f64>, u64);

    fn reduce(
        &self,
        key: &u64,
        values: &[PartialSum],
        ctx: &mut ReduceContext<(u64, Vec<f64>, u64)>,
    ) {
        let dim = values[0].0.len();
        let mut sum = vec![0.0; dim];
        let mut count = 0u64;
        for (v, c) in values {
            for (s, x) in sum.iter_mut().zip(v) {
                *s += x;
            }
            count += c;
        }
        if count > 0 {
            for s in &mut sum {
                *s /= count as f64;
            }
        }
        ctx.emit((*key, sum, count));
    }
}

/// One sequential Lloyd iteration over `points`: returns the refined
/// model. Clusters that attract no points keep their previous centroid.
/// Numerically identical to one MapReduce iteration.
pub fn lloyd_step(points: &[Point], model: &Centroids) -> Centroids {
    ClusterSums::assign(&CentroidTable::new(model), points).into_model(model)
}

/// Relative slack every bound update of [`bounded_lloyd`] widens by: far
/// above the `(dim + 2)·2⁻⁵³` relative rounding of a computed distance.
const SLACK: f64 = 1e-9;
/// A point skips its scan only against a lower bound in
/// `[MIN_BOUND, MAX_BOUND]`: every squared distance the skip relies on is
/// then a normal double, so the relative slack covers its rounding.
const MIN_BOUND: f64 = 1e-100;
const MAX_BOUND: f64 = 1e100;
/// Past this dimension a distance's rounding nears [`SLACK`]; every point
/// scans.
const MAX_PRUNED_DIM: usize = 1 << 20;

/// A distance at least the true one (for `d2` a computed squared
/// distance), with the relative margin the skip test needs.
fn above(d2: f64) -> f64 {
    d2.sqrt() * (1.0 + SLACK)
}

/// A distance at most the true one, with the same margin.
fn below(d2: f64) -> f64 {
    d2.sqrt() * (1.0 - SLACK)
}

/// One point's state in [`bounded_assign`] (Hamerly's bounds): its
/// cluster, an upper bound on its distance to that centroid and a lower
/// bound on its distance to every other centroid.
struct Bound {
    cluster: usize,
    upper: f64,
    lower: f64,
}

impl Bound {
    fn scan(table: &CentroidTable, p: &Point) -> Self {
        let (cluster, d1, d2) = table.nearest_two(&p.coords);
        Bound {
            cluster,
            upper: above(d1),
            lower: below(d2),
        }
    }
}

/// Whether a point whose centroid is at most `upper` away, and every
/// other at least `nearest_other`, provably keeps its centroid: false for
/// every NaN, infinite or out-of-range bound.
fn separated(upper: f64, nearest_other: f64) -> bool {
    (MIN_BOUND..=MAX_BOUND).contains(&nearest_other) && upper < nearest_other
}

/// How far each centroid moved between two models (an upper bound, +∞
/// when undefined), and the largest move by anyone but the mover itself.
struct Drift {
    of: Vec<f64>,
    /// The centroid that moved most, its move and the runner-up's.
    far: (usize, f64, f64),
}

impl Drift {
    /// Both models must have the same `k`: the moves pair centroids up by
    /// index.
    fn between(prev: &Centroids, next: &Centroids) -> Self {
        let of: Vec<f64> = prev
            .coords
            .iter()
            .zip(&next.coords)
            .map(|(a, b)| match above(dist2(a, b)) {
                d if d.is_nan() => f64::INFINITY,
                d => d,
            })
            .collect();
        let mut far = (0, 0.0, 0.0);
        for (i, &d) in of.iter().enumerate() {
            if d > far.1 {
                far = (i, d, far.1);
            } else if d > far.2 {
                far.2 = d;
            }
        }
        Drift { of, far }
    }

    /// The largest move of a centroid other than `c`.
    fn others(&self, c: usize) -> f64 {
        if c == self.far.0 {
            self.far.2
        } else {
            self.far.1
        }
    }
}

/// What [`bounded_assign`] needs to carry bounds made for one model over
/// to the next: the centroids' drifts and half of each new centroid's
/// distance to its nearest other centroid, a lower bound. A centroid's
/// own distance is 0 (or NaN, when it is not finite), so `nearest_two`'s
/// runner-up is the nearest other centroid, or 0 when it has a
/// duplicate; a centroid with a NaN coordinate never wins a point.
struct Step {
    drift: Drift,
    half_gaps: Vec<f64>,
}

impl Step {
    /// The step from `prev` to `next`, laid out as `table`; `None` when
    /// the two differ in `k` or dimension, or the dimension is past
    /// [`MAX_PRUNED_DIM`].
    fn new(prev: &Centroids, next: &Centroids, table: &CentroidTable) -> Option<Self> {
        let prev_dim = prev.coords.first().map_or(0, Vec::len);
        if prev.k() != table.k || prev_dim != table.dim || table.dim > MAX_PRUNED_DIM {
            return None;
        }
        Some(Step {
            drift: Drift::between(prev, next),
            half_gaps: next
                .coords
                .iter()
                .map(|c| below(table.nearest_two(c).2) / 2.0)
                .collect(),
        })
    }
}

/// Assign each point of `points` to its nearest centroid of `model`, laid
/// out as `table`, into `acc`, keeping each point's [`Bound`] in
/// `bounds`; returns the full scans made. Point for point the assignment
/// is [`CentroidTable::nearest`]'s — the one pass behind [`bounded_lloyd`]
/// and a bounded [`AssignMapper`].
///
/// Given a `step` from the model `bounds` were made for, and one bound
/// per point, each bound widens by the drifts and the point keeps its
/// cluster while its upper bound is strictly below the larger of its
/// lower bound and half its centroid's distance to the nearest other
/// centroid. Otherwise the upper bound is first tightened to the exact
/// distance, and only then does the point scan through
/// [`CentroidTable::nearest_two`]. Every bound update widens by [`SLACK`],
/// so a kept point's computed squared distance to its centroid is
/// strictly below every other one that is not NaN, and `nearest` would
/// return it; NaN, infinite and out-of-range bounds always scan. Without
/// a step, or with bounds for another number of points, every point
/// scans and its bound is made afresh.
///
/// Never inlined: it keeps a symbol of its own for the 64-byte alignment
/// pin (DESIGN.md §14).
#[inline(never)]
fn bounded_assign(
    table: &CentroidTable,
    model: &Centroids,
    step: Option<&Step>,
    points: &[Point],
    bounds: &mut Vec<Bound>,
    acc: &mut ClusterSums,
) -> usize {
    let Some(step) = step.filter(|_| bounds.len() == points.len()) else {
        bounds.clear();
        for (i, p) in points.iter().enumerate() {
            let b = Bound::scan(table, p);
            acc.add(b.cluster, i, p);
            bounds.push(b);
        }
        return points.len();
    };
    let mut scans = 0;
    for (i, (p, b)) in points.iter().zip(bounds).enumerate() {
        b.upper = (b.upper + step.drift.of[b.cluster]) * (1.0 + SLACK);
        b.lower = (b.lower - step.drift.others(b.cluster)) * (1.0 - SLACK);
        let nearest_other = b.lower.max(step.half_gaps[b.cluster]);
        if !separated(b.upper, nearest_other) {
            b.upper = above(p.dist2(&model.coords[b.cluster]));
            if !separated(b.upper, nearest_other) {
                *b = Bound::scan(table, p);
                scans += 1;
            }
        }
        acc.add(b.cluster, i, p);
    }
    scans
}

/// Up to `cap` Lloyd iterations over `points` from `model`, stopping after
/// the first whose largest centroid displacement is below `threshold`.
/// Returns the model, the iterations run and the full nearest-centroid
/// scans made — PIC's local solve (DESIGN.md §7).
///
/// Bit for bit the model and iteration count of `lloyd_step` run in that
/// loop: the points' cluster sums are rebuilt every iteration in point
/// order through the same accumulator, and [`bounded_assign`] finds each
/// point's cluster, keeping its bounds from one iteration to the next.
///
/// Never inlined: it keeps a symbol of its own for the 64-byte alignment
/// pin (DESIGN.md §14).
#[inline(never)]
pub(crate) fn bounded_lloyd(
    points: &[Point],
    model: &Centroids,
    cap: usize,
    threshold: f64,
) -> (Centroids, usize, usize) {
    let mut m = model.clone();
    let mut prev: Option<Centroids> = None;
    let mut bounds = Vec::with_capacity(points.len());
    let mut scans = 0;
    for it in 1..=cap {
        let table = CentroidTable::new(&m);
        let step = prev.and_then(|prev| Step::new(&prev, &m, &table));
        let mut acc = ClusterSums::new(&table);
        scans += bounded_assign(&table, &m, step.as_ref(), points, &mut bounds, &mut acc);
        let next = acc.into_model(&m);
        if next.max_displacement(&m) < threshold {
            return (next, it, scans);
        }
        prev = Some(std::mem::replace(&mut m, next));
    }
    (m, cap, scans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(raw: &[[f64; 2]]) -> Vec<Point> {
        raw.iter().map(|c| Point::new(c.to_vec())).collect()
    }

    #[test]
    fn nearest_picks_closest() {
        let t = CentroidTable::new(&Centroids::new(vec![vec![0.0, 0.0], vec![10.0, 10.0]]));
        assert_eq!(t.nearest(&[1.0, 1.0]), 0);
        assert_eq!(t.nearest(&[9.0, 9.0]), 1);
    }

    #[test]
    #[should_panic(expected = "point has dimension 2 but the model has dimension 3")]
    fn lloyd_step_rejects_a_point_of_another_dimension() {
        lloyd_step(
            &[Point::new(vec![1.0, 2.0])],
            &Centroids::new(vec![vec![0.0; 3]]),
        );
    }

    /// The nearest-centroid scan as it was before [`CentroidTable`]: one
    /// `Point::dist2` per centroid over `Vec<Vec<f64>>`, strict `<`.
    fn nested_nearest(coords: &[Vec<f64>], p: &Point) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, c) in coords.iter().enumerate() {
            let d = p.dist2(c);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// `lloyd_step` as it was before [`CentroidTable`].
    fn nested_lloyd_step(points: &[Point], model: &Centroids) -> Centroids {
        let k = model.k();
        let dim = model.coords.first().map_or(0, Vec::len);
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0u64; k];
        for p in points {
            let c = nested_nearest(&model.coords, p);
            for (s, x) in sums[c].iter_mut().zip(&p.coords) {
                *s += x;
            }
            counts[c] += 1;
        }
        let coords = sums
            .into_iter()
            .enumerate()
            .map(|(i, mut s)| {
                if counts[i] == 0 {
                    model.coords[i].clone()
                } else {
                    for x in &mut s {
                        *x /= counts[i] as f64;
                    }
                    s
                }
            })
            .collect();
        Centroids { coords, counts }
    }

    /// PIC's local solve as it was before [`bounded_lloyd`]: `lloyd_step`
    /// until the displacement falls below `threshold` or `cap` steps.
    fn lloyd_loop(
        points: &[Point],
        model: &Centroids,
        cap: usize,
        threshold: f64,
    ) -> (Centroids, usize) {
        let mut m = model.clone();
        for it in 1..=cap {
            let next = lloyd_step(points, &m);
            let done = next.max_displacement(&m) < threshold;
            m = next;
            if done {
                return (m, it);
            }
        }
        (m, cap)
    }

    fn bits(m: &Centroids) -> (Vec<Vec<u64>>, Vec<u64>) {
        let coords = m
            .coords
            .iter()
            .map(|c| c.iter().map(|x| x.to_bits()).collect())
            .collect();
        (coords, m.counts.clone())
    }

    mod kernel_props {
        use super::*;
        use proptest::prelude::*;

        /// A coordinate: mostly small whole numbers (so distances tie),
        /// sometimes ±0.0, ±1e200 (squared distances overflow to +∞) or
        /// NaN, otherwise an arbitrary double in ±100.
        fn coord() -> impl Strategy<Value = f64> {
            (0u8..40, -3i32..4, -100.0f64..100.0).prop_map(|(kind, int, x)| match kind {
                0 => 0.0,
                1 => -0.0,
                2 | 3 => 1e200,
                4 => -1e200,
                5 => f64::NAN,
                6..=25 => int as f64,
                _ => x,
            })
        }

        /// Centroids (`k ∈ 1..=37`, `dim ∈ 1..=6`, about a quarter of
        /// them repeating an earlier centroid) and 16 points, some of them
        /// copies of a centroid.
        fn case() -> impl Strategy<Value = (Centroids, Vec<Point>)> {
            (
                1usize..38,
                1usize..7,
                proptest::collection::vec(coord(), 37 * 6),
                proptest::collection::vec(0usize..74, 37),
                proptest::collection::vec(coord(), 16 * 6),
                proptest::collection::vec(0usize..80, 16),
            )
                .prop_map(|(k, dim, pool, repeat, point_pool, copy)| {
                    let mut coords: Vec<Vec<f64>> = Vec::with_capacity(k);
                    for i in 0..k {
                        let c = if repeat[i] < i {
                            coords[repeat[i]].clone()
                        } else {
                            pool[i * dim..(i + 1) * dim].to_vec()
                        };
                        coords.push(c);
                    }
                    let points = (0..16)
                        .map(|j| {
                            Point::new(if copy[j] < k {
                                coords[copy[j]].clone()
                            } else {
                                point_pool[j * dim..(j + 1) * dim].to_vec()
                            })
                        })
                        .collect();
                    (Centroids::new(coords), points)
                })
        }

        /// A convergence threshold: 0 (never met), +∞ (met at once), NaN,
        /// or a distance on the scale of the coordinates.
        fn threshold() -> impl Strategy<Value = f64> {
            (0u8..6, 0.0f64..4.0).prop_map(|(kind, x)| match kind {
                0 => 0.0,
                1 => f64::INFINITY,
                2 => f64::NAN,
                _ => x,
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn bounded_lloyd_equals_the_lloyd_step_loop_bit_for_bit(
                case in case(),
                cap in 0usize..8,
                threshold in threshold(),
            ) {
                let (model, points) = case;
                let (m, iterations, _) = bounded_lloyd(&points, &model, cap, threshold);
                let (want, want_iterations) = lloyd_loop(&points, &model, cap, threshold);
                prop_assert_eq!(bits(&m), bits(&want));
                prop_assert_eq!(iterations, want_iterations);
                let table = CentroidTable::new(&model);
                for p in &points {
                    prop_assert_eq!(table.nearest_two(&p.coords).0, table.nearest(&p.coords));
                }
            }

            #[test]
            fn table_nearest_equals_the_nested_scan(case in case()) {
                let (model, points) = case;
                let table = CentroidTable::new(&model);
                for p in &points {
                    prop_assert_eq!(
                        table.nearest(&p.coords),
                        nested_nearest(&model.coords, p),
                        "point {:?}",
                        p.coords
                    );
                }
            }

            #[test]
            fn lloyd_step_equals_the_nested_lloyd_step_bit_for_bit(case in case()) {
                let (model, points) = case;
                prop_assert_eq!(
                    bits(&lloyd_step(&points, &model)),
                    bits(&nested_lloyd_step(&points, &model))
                );
            }
        }
    }

    #[test]
    fn nearest_two_reports_the_runner_up_and_ties() {
        let t = CentroidTable::new(&Centroids::new(vec![
            vec![0.0],
            vec![3.0],
            vec![1.0],
            vec![3.0],
        ]));
        assert_eq!(t.nearest_two(&[0.5]), (0, 0.25, 0.25));
        assert_eq!(t.nearest_two(&[3.0]), (1, 0.0, 0.0));
        assert_eq!(t.nearest_two(&[-1.0]), (0, 1.0, 4.0));
    }

    /// On well-separated clusters most points never rescan, and the
    /// model is still the `lloyd_step` loop's.
    #[test]
    fn bounded_lloyd_skips_most_scans_on_separated_clusters() {
        use crate::kmeans::data::{gaussian_mixture, init_random_centroids};
        let points = gaussian_mixture(3_000, 30, 3, 1000.0, 30.0, 1);
        let init = Centroids::new(init_random_centroids(30, 3, 1000.0, 101));
        let (m, iterations, scans) = bounded_lloyd(&points, &init, 100, 1e-3);
        let (want, want_iterations) = lloyd_loop(&points, &init, 100, 1e-3);
        assert_eq!(bits(&m), bits(&want));
        assert_eq!(iterations, want_iterations);
        assert!(iterations >= 4, "{iterations} iterations");
        let point_iterations = points.len() * iterations;
        assert!(
            2 * scans < point_iterations,
            "{scans} full scans in {point_iterations} point-iterations"
        );
    }

    #[test]
    fn lloyd_step_two_obvious_clusters() {
        let points = pts(&[[0.0, 0.0], [0.0, 2.0], [10.0, 10.0], [10.0, 12.0]]);
        let m0 = Centroids::new(vec![vec![1.0, 1.0], vec![9.0, 9.0]]);
        let m1 = lloyd_step(&points, &m0);
        assert_eq!(m1.coords[0], vec![0.0, 1.0]);
        assert_eq!(m1.coords[1], vec![10.0, 11.0]);
        assert_eq!(m1.counts, vec![2, 2]);
    }

    #[test]
    fn lloyd_keeps_empty_clusters() {
        let points = pts(&[[0.0, 0.0]]);
        let m0 = Centroids::new(vec![vec![0.0, 0.0], vec![100.0, 100.0]]);
        let m1 = lloyd_step(&points, &m0);
        assert_eq!(m1.coords[1], vec![100.0, 100.0], "empty cluster unchanged");
        assert_eq!(m1.counts[1], 0);
    }

    #[test]
    fn max_displacement_symmetric() {
        let a = Centroids::new(vec![vec![0.0], vec![1.0]]);
        let b = Centroids::new(vec![vec![3.0], vec![1.0]]);
        assert_eq!(a.max_displacement(&b), 3.0);
        assert_eq!(b.max_displacement(&a), 3.0);
    }

    #[test]
    fn combiner_sums() {
        let c = SumCombiner;
        let mut vals = vec![
            (vec![1.0, 2.0], 1),
            (vec![3.0, 4.0], 1),
            (vec![5.0, 6.0], 2),
        ];
        c.combine(&0, &mut vals);
        assert_eq!(vals, vec![(vec![9.0, 12.0], 4)]);
    }

    #[test]
    fn reducer_averages() {
        let r = AverageReducer;
        let mut ctx = ReduceContext::new();
        r.reduce(&3, &[(vec![2.0, 4.0], 2), (vec![4.0, 0.0], 2)], &mut ctx);
        let out = ctx.into_parts();
        assert_eq!(out, vec![(3, vec![1.5, 1.0], 4)]);
    }

    #[test]
    fn model_byte_size() {
        let m = Centroids::new(vec![vec![0.0; 3]; 100]);
        // 4 + 100*(4+24) + 100*8 = 4 + 2800 + 800
        assert_eq!(m.byte_size(), 3604);
    }
}
