//! `shuffle_wide`: the engine used the opposite way to `kmeans_fig2`.
//!
//! Two million seeded `u64` records, a trivial mapper that emits two pairs
//! per record onto about a million distinct keys, **no combiner**, 24
//! reducers summing. Partition, sort/merge/group and reduce dominate
//! (`host_partition_s` is about 65 % of a job), which is where the ROADMAP's
//! k-way-merge and cheaper-`bucket_of` candidates act. A map-kernel or
//! combiner gain predicts no change here; a grouping gain predicts little
//! change on `kmeans_fig2`.
//!
//! Every seed draws different records; the amount of work is the same
//! because record count, pair count and key space are.

use super::{RepOutcome, Workload};
use crate::record::Recorder;
use crate::stats::{median, splitmix64, tail_percentile, Digest};
use pic_mapreduce::{
    Dataset, Engine, JobConfig, JobStats, MapContext, Mapper, ReduceContext, Reducer, Timing,
};
use pic_simnet::report::percentile;
use pic_simnet::ClusterSpec;
use std::collections::BTreeMap;

const RECORDS: usize = 2_000_000;
const SPLITS: usize = 48;
const REDUCERS: usize = 24;
/// Keys are drawn from `0..KEY_SPACE`; four million draws hit about 98 % of
/// it, so a job groups about 1.03 million distinct keys.
const KEY_SPACE: u64 = 1 << 20;
/// Jobs on `Engine::untraced` behind `simnet.trace.record_overhead_x`.
const UNTRACED_JOBS: usize = 8;

pub const SIZES: &str = "2000000 u64 records, 48 splits, 2 pairs per record onto a 2^20 key \
     space, no combiner, 24 reducers, ClusterSpec::small(), Timing::default_analytic(); \
     one job per repetition";

struct TwoKeyMapper;

impl Mapper for TwoKeyMapper {
    type In = u64;
    type K = u64;
    type V = u64;

    fn map(&self, record: &u64, ctx: &mut MapContext<u64, u64>) {
        ctx.emit(record % KEY_SPACE, record >> 40);
        ctx.emit((record >> 20) % KEY_SPACE, 1);
    }
}

struct SumReducer;

impl Reducer for SumReducer {
    type K = u64;
    type V = u64;
    type Out = (u64, u64);

    fn reduce(&self, key: &u64, values: &[u64], ctx: &mut ReduceContext<(u64, u64)>) {
        ctx.emit((*key, values.iter().sum()));
    }
}

/// What the mapper and reducer compute, sequentially and without the engine.
fn reference(records: &[u64]) -> BTreeMap<u64, u64> {
    let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        *sums.entry(r % KEY_SPACE).or_default() += r >> 40;
        *sums.entry((r >> 20) % KEY_SPACE).or_default() += 1;
    }
    sums
}

fn job_config() -> JobConfig {
    JobConfig::new("shuffle_wide")
        .reducers(REDUCERS)
        .timing(Timing::default_analytic())
}

/// Digest of a job's output in the engine's own order and of every simulated
/// figure in its stats.
fn digest_job(output: &[(u64, u64)], stats: &JobStats) -> u64 {
    let mut d = Digest::default();
    for &(k, v) in output {
        d.word(k);
        d.word(v);
    }
    for s in [
        stats.map_time_s,
        stats.shuffle_time_s,
        stats.reduce_time_s,
        stats.total_time_s,
    ] {
        d.float(s);
    }
    for n in [
        stats.map_tasks as u64,
        stats.reduce_tasks as u64,
        stats.map_waves as u64,
        stats.reduce_waves as u64,
        stats.input_records,
        stats.map_output_records,
        stats.map_output_bytes,
        stats.shuffle_records,
        stats.shuffle_bytes,
        stats.output_records,
        stats.node_local_tasks as u64,
        stats.rack_local_tasks as u64,
        stats.remote_tasks as u64,
    ] {
        d.word(n);
    }
    d.finish()
}

pub struct ShuffleWide {
    engine: Engine,
    data: Dataset<u64>,
    /// Digest of the job that set-up checked against the reference.
    expected: u64,
    /// Stats of every timed job, for the per-layer report.
    timed: Vec<JobStats>,
}

/// `records` records in `splits` splits, one verified warm-up job included:
/// its output must equal the sequential `BTreeMap` reference, and every later
/// job must reproduce its digest.
fn build(
    seed: u64,
    records: usize,
    splits: usize,
    rec: &mut Recorder,
) -> Result<(ShuffleWide, RepOutcome), String> {
    let records: Vec<u64> = rec.span("apps.datagen_s", |_| {
        let mut state = seed;
        (0..records).map(|_| splitmix64(&mut state)).collect()
    });
    let reference = rec.span("apps.reference_solve_s", |_| reference(&records));
    let (engine, data) = rec.span("mapreduce.dataset_create_s", |_| {
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/bench/shuffle", records, splits);
        engine.reset();
        (engine, data)
    });
    // Also the warm-up: the first job pays for the allocator's first touch of
    // the shuffle buffers, which no later job pays again.
    let first = rec.span("mapreduce.warmup_job_s", |_| {
        let first = engine.run(&job_config(), &data, &TwoKeyMapper, &SumReducer);
        engine.reset();
        first
    });
    let mut checked = RepOutcome::default();
    let expected = rec.check(|| {
        let mut sorted = first.output.clone();
        sorted.sort_unstable();
        let equal = sorted.len() == reference.len()
            && sorted
                .iter()
                .zip(&reference)
                .all(|(a, (k, v))| a == &(*k, *v));
        checked.op((!equal).then(|| {
            format!(
                "first job's output ({} keys) differs from the sequential BTreeMap \
                 reference ({} keys)",
                sorted.len(),
                reference.len()
            )
        }));
        digest_job(&first.output, &first.stats)
    });
    let workload = ShuffleWide {
        engine,
        data,
        expected,
        timed: Vec::new(),
    };
    Ok((workload, checked))
}

pub fn setup(seed: u64, rec: &mut Recorder) -> Result<(Box<dyn Workload>, RepOutcome), String> {
    let (workload, checked) = build(seed, RECORDS, SPLITS, rec)?;
    Ok((Box::new(workload), checked))
}

impl Workload for ShuffleWide {
    /// One job and the reset that precedes the next.
    fn rep(&mut self, rec: &mut Recorder) -> Result<RepOutcome, String> {
        let res = rec.span("mapreduce.job_s", |_| {
            self.engine
                .run(&job_config(), &self.data, &TwoKeyMapper, &SumReducer)
        });
        rec.span("mapreduce.reset_s", |_| self.engine.reset());
        let mut out = RepOutcome {
            sim_s: res.stats.total_time_s,
            digest: rec.check(|| digest_job(&res.output, &res.stats)),
            ..Default::default()
        };
        out.op((out.digest != self.expected).then(|| {
            format!(
                "job digest {:016x} differs from the verified first job's {:016x}",
                out.digest, self.expected
            )
        }));
        self.timed.push(res.stats);
        Ok(out)
    }

    fn layer_report(&mut self, rec: &mut Recorder) -> Result<(), String> {
        // One more traced job for the size of what the tracer records.
        let res = self
            .engine
            .run(&job_config(), &self.data, &TwoKeyMapper, &SumReducer);
        let trace = self.engine.trace();
        self.engine.reset();
        if digest_job(&res.output, &res.stats) != self.expected {
            return Err("traced probe job differs from the verified first job".into());
        }
        rec.set("simnet.trace.spans", trace.spans.len() as f64);
        rec.set("simnet.trace.instants", trace.instants.len() as f64);

        // The same job with tracing disabled inside the program.
        let untraced = Engine::untraced(ClusterSpec::small());
        let records: Vec<u64> = self.data.iter_records().copied().collect();
        let data = Dataset::create(&untraced, "/bench/shuffle", records, SPLITS);
        untraced.reset();
        for _ in 0..=UNTRACED_JOBS {
            // The first of them warms up and is not reported.
            let res = rec.span("mapreduce.untraced_job_s", |_| {
                untraced.run(&job_config(), &data, &TwoKeyMapper, &SumReducer)
            });
            untraced.reset();
            if digest_job(&res.output, &res.stats) != self.expected {
                return Err("untraced engine's job differs from the traced engine's".into());
            }
        }
        let untraced_ms: Vec<f64> = rec.durations("mapreduce.untraced_job_s")[1..]
            .iter()
            .map(|s| 1e3 * s)
            .collect();

        // Per job, as medians over the timed jobs.
        let job_s = rec.durations("mapreduce.job_s");
        let job_ms: Vec<f64> = job_s.iter().map(|s| 1e3 * s).collect();
        let per_job = |f: &dyn Fn(&JobStats, f64) -> f64| -> f64 {
            median(
                &self
                    .timed
                    .iter()
                    .zip(&job_s)
                    .map(|(stats, &s)| f(stats, s))
                    .collect::<Vec<f64>>(),
            )
        };
        let last = self.timed.last().ok_or("no repetition ran")?;
        let tail = tail_percentile(job_ms.len());
        rec.set("mapreduce.jobs", job_ms.len() as f64);
        rec.set("mapreduce.job_ms_p50", median(&job_ms));
        rec.set(
            "mapreduce.job_ms_tail",
            percentile(&job_ms, f64::from(tail)),
        );
        rec.set("mapreduce.job_tail_pct", f64::from(tail));
        rec.set("mapreduce.host_map_s", per_job(&|st, _| st.host_map_s));
        rec.set(
            "mapreduce.host_partition_s",
            per_job(&|st, _| st.host_partition_s),
        );
        rec.set(
            "mapreduce.host_reduce_s",
            per_job(&|st, _| st.host_reduce_s),
        );
        rec.set(
            "mapreduce.other_s",
            per_job(&|st, s| s - st.host_map_s - st.host_partition_s - st.host_reduce_s),
        );
        rec.set(
            "mapreduce.pairs_per_s",
            per_job(&|st, s| st.shuffle_records as f64 / s),
        );
        rec.set("mapreduce.shuffle_records", last.shuffle_records as f64);
        rec.set("mapreduce.map_output_bytes", last.map_output_bytes as f64);
        rec.set("mapreduce.untraced_job_ms_p50", median(&untraced_ms));
        rec.set(
            "simnet.trace.record_overhead_x",
            median(&job_ms) / median(&untraced_ms),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shrunken instance: same mapper, reducer and checks, 1/100 the size.
    fn shrunken(seed: u64) -> (ShuffleWide, RepOutcome) {
        build(seed, RECORDS / 100, 6, &mut Recorder::new(false)).unwrap()
    }

    #[test]
    fn digest_is_stable_across_two_in_process_runs() {
        let (mut a, checked_a) = shrunken(11);
        let (mut b, checked_b) = shrunken(11);
        assert!(checked_a.failures.is_empty() && checked_b.failures.is_empty());
        assert_eq!(checked_a.attempted, 1);
        let mut rec = Recorder::new(false);
        let ra = a.rep(&mut rec).unwrap();
        let rb = b.rep(&mut rec).unwrap();
        let ra2 = a.rep(&mut rec).unwrap();
        assert_eq!(ra.digest, rb.digest, "two instances of one seed agree");
        assert_eq!(
            ra.digest, ra2.digest,
            "two repetitions of one instance agree"
        );
        assert_eq!(ra.attempted, 1);
        assert!(ra.failures.is_empty(), "{:?}", ra.failures);
        assert!(ra.sim_s > 0.0);
    }

    #[test]
    fn digest_follows_the_seed_and_the_oracle_bites() {
        let (mut a, _) = shrunken(11);
        let (mut c, _) = shrunken(12);
        let mut rec = Recorder::new(false);
        assert_ne!(
            a.rep(&mut rec).unwrap().digest,
            c.rep(&mut rec).unwrap().digest
        );
        // A job that disagrees with the verified one is a failed operation.
        a.expected ^= 1;
        let bad = a.rep(&mut rec).unwrap();
        assert_eq!((bad.attempted, bad.failures.len()), (1, 1));
        assert!(bad.failures[0].contains("differs from the verified first job"));
    }

    #[test]
    fn reference_sums_both_pairs_of_a_record() {
        let r = (5 << 40) | (7 << 20) | 9;
        let sums = reference(&[r, r]);
        assert_eq!(sums.get(&9), Some(&10));
        assert_eq!(sums.get(&7), Some(&2));
        assert_eq!(sums.len(), 2);
    }
}
