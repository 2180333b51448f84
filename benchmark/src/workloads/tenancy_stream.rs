//! `tenancy_stream`: a multi-tenant job stream on the `1k` preset.
//!
//! The timed section is `pic_simnet::tenancy::run_stream` — admission, fair
//! grants, preemption, one `SlotScheduler::schedule` per tenant iteration,
//! the quadratic contention attribution — plus the percentiles and the
//! per-job CSV. There is no engine or app work in it at all (the job
//! profiles are derived in set-up), so engine and JSON gains predict no
//! change here and scheduler, event-core and tenancy gains show only here.
//! It is single-threaded.
//!
//! The stream is the shape of `experiments::tenancy::default_workload()`
//! (three apps, both drivers, scales 64/128/256, Poisson arrivals), but
//! drawn by the harness rather than by `WorkloadSpec`, whose independent
//! draws put between 25 000 and 37 000 tenant iterations into 400 jobs
//! depending on the seed (a `linsolve` IC job alone is 334). Here every one
//! of the 18 (app, driver, scale) combinations occurs exactly 22 times; the
//! seed decides their order and the arrival gaps. Jobs arrive at 0.04/s,
//! twice the default rate: at 0.02/s one seed in ten leaves fewer than four
//! jobs queued, so that the stream's queue p99 is 0 and it exercises neither
//! admission nor preemption; at 0.04/s every seed tried queues about 200
//! jobs and preempts about 100.

use super::{RepOutcome, Workload};
use crate::record::Recorder;
use crate::stats::{shuffle, splitmix64, Digest};
use pic_bench::experiments::tenancy::{self, ProfileSet, TENANCY_APPS};
use pic_bench::experiments::ExperimentCtx;
use pic_simnet::tenancy::{preset, run_stream, JobArrival, TenancyJob};
use pic_simnet::{ClusterSpec, TenancyReport, Tracer};

const PRESET: &str = "1k";
const DRIVERS: [&str; 2] = ["ic", "pic"];
const SCALES: [usize; 3] = [64, 128, 256];
/// Times each (app, driver, scale) combination occurs in the stream.
const ROUNDS: usize = 22;
const JOBS: usize = ROUNDS * TENANCY_APPS.len() * DRIVERS.len() * SCALES.len();
const ARRIVALS_PER_S: f64 = 0.04;
/// Scale of the solo runs the job profiles are derived from.
const PROFILE_SCALE: f64 = 0.05;

pub const SIZES: &str = "396 tenant jobs = 22 x (3 apps x 2 drivers x scales 64/128/256) in \
     seeded order, Poisson arrivals at 0.04/s, preset 1k, profiles at scale 0.05";

/// The job stream of `seed`: every combination [`ROUNDS`] times, each round
/// in its own seeded order, exponential arrival gaps.
fn stream(seed: u64, profiles: &ProfileSet) -> Result<Vec<TenancyJob>, String> {
    let mut combos = Vec::new();
    for app in TENANCY_APPS {
        for driver in DRIVERS {
            for scale in SCALES {
                combos.push((app, driver, scale));
            }
        }
    }
    let mut state = seed;
    let mut jobs = Vec::with_capacity(JOBS);
    let mut arrival_s = 0.0_f64;
    for _ in 0..ROUNDS {
        shuffle(&mut combos, &mut state);
        for &(app, driver, scale) in &combos {
            // 53 uniform bits, so `u` is in [0, 1) and the gap is finite.
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            arrival_s += -(1.0 - u).ln() / ARRIVALS_PER_S;
            let profile = profiles
                .get(&(app.to_string(), driver))
                .ok_or_else(|| format!("tenancy::profiles derived none for {app}/{driver}"))?
                .profile
                .clone();
            jobs.push(TenancyJob {
                arrival: JobArrival {
                    id: jobs.len(),
                    app: app.to_string(),
                    driver,
                    arrival_s,
                    scale,
                },
                profile,
            });
        }
    }
    Ok(jobs)
}

pub struct TenancyStream {
    cluster: ClusterSpec,
    jobs: Vec<TenancyJob>,
    last: Option<TenancyReport>,
}

pub fn setup(seed: u64, rec: &mut Recorder) -> Result<(Box<dyn Workload>, RepOutcome), String> {
    let profiles = rec.span("bench.tenancy.profiles_s", |_| {
        tenancy::profiles(&ExperimentCtx {
            scale: PROFILE_SCALE,
        })
    })?;
    let jobs = rec.span("apps.datagen_s", |_| stream(seed, &profiles))?;
    let mut checked = RepOutcome::default();
    checked.op((!tenancy::models_exact(&profiles))
        .then(|| "a profile's second solo run did not reproduce its model".to_string()));
    let workload = TenancyStream {
        cluster: preset(PRESET)?,
        jobs,
        last: None,
    };
    Ok((Box::new(workload), checked))
}

impl Workload for TenancyStream {
    fn rep(&mut self, rec: &mut Recorder) -> Result<RepOutcome, String> {
        let report = rec.span("simnet.tenancy.run_stream_s", |_| {
            run_stream(PRESET, &self.cluster, &self.jobs, &Tracer::standalone())
        });
        let (percentiles, contention_s, preemptions, csv) =
            rec.span("simnet.tenancy.report_s", |_| {
                (
                    [
                        report.tt_quality_percentile(50.0),
                        report.tt_quality_percentile(95.0),
                        report.tt_quality_percentile(99.0),
                        report.queue_delay_percentile(50.0),
                        report.queue_delay_percentile(99.0),
                    ],
                    report.contention_total_s(),
                    report.preemption_total(),
                    tenancy::tenancy_csv(&report),
                )
            });

        let mut out = RepOutcome::default();
        rec.check(|| {
            for (row, job) in report.rows.iter().zip(&self.jobs) {
                let sane = row.finish_s.is_finite()
                    && row.tt_quality_s.is_finite()
                    && row.admitted_s >= row.arrival_s
                    && row.finish_s > row.admitted_s
                    && row.arrival_s == job.arrival.arrival_s;
                out.op((!sane).then(|| format!("tenant job {} has an insane row: {row:?}", row.id)));
                // Simulated seconds the tenant spent running.
                out.sim_s += row.finish_s - row.arrival_s - row.queue_delay_s;
            }
            // The stream must exercise what it is here for.
            let queue_p99 = percentiles[4];
            if report.rows.len() != self.jobs.len() || !(queue_p99 > 0.0) || preemptions == 0 {
                out.failures.push(format!(
                    "vacuous stream: {} rows for {} jobs, queue p99 {queue_p99} s, \
                     {preemptions} preemptions",
                    report.rows.len(),
                    self.jobs.len()
                ));
            }
            let mut d = Digest::default();
            d.bytes(csv.as_bytes());
            d.float(report.makespan_s);
            d.float(contention_s);
            for p in percentiles {
                d.float(p);
            }
            out.digest = d.finish();
        });
        self.last = Some(report);
        Ok(out)
    }

    fn layer_report(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let report = self.last.as_ref().ok_or("no repetition ran")?;
        // Iterations the stream completed; a preempted iteration runs again
        // and is scheduled twice.
        let iterations: usize = self
            .jobs
            .iter()
            .map(|j| j.profile.iterations.len())
            .sum::<usize>()
            + report.preemption_total();
        let run_stream_s = rec.self_seconds("simnet.tenancy.run_stream_s");
        rec.set(
            "simnet.tenancy.us_per_iteration",
            1e6 * run_stream_s / iterations as f64,
        );
        rec.set(
            "simnet.tenancy.jobs_per_s",
            self.jobs.len() as f64 / run_stream_s,
        );
        rec.set("simnet.tenancy.iterations", iterations as f64);
        rec.set(
            "simnet.tenancy.preemptions",
            report.preemption_total() as f64,
        );
        rec.set(
            "simnet.tenancy.queue_p99_sim_s",
            report.queue_delay_percentile(99.0),
        );
        rec.set("simnet.tenancy.makespan_sim_s", report.makespan_s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_simnet::tenancy::{IterKind, IterationDemand, JobProfile};
    use tenancy::SoloProfile;

    fn toy_profiles() -> ProfileSet {
        let mut set = ProfileSet::new();
        for app in TENANCY_APPS {
            for driver in DRIVERS {
                let profile = JobProfile {
                    iterations: vec![IterationDemand {
                        kind: IterKind::Ic,
                        tasks: 4,
                        task_duration_s: 1.0,
                        bisection_bytes: 0,
                    }],
                    quality_iteration: 1,
                };
                set.insert(
                    (app.to_string(), driver),
                    SoloProfile {
                        profile,
                        exact_model: true,
                    },
                );
            }
        }
        set
    }

    #[test]
    fn every_seed_draws_the_same_multiset_in_another_order() {
        let profiles = toy_profiles();
        let key = |j: &TenancyJob| (j.arrival.app.clone(), j.arrival.driver, j.arrival.scale);
        let a = stream(1, &profiles).unwrap();
        let b = stream(2, &profiles).unwrap();
        assert_eq!(a.len(), JOBS);
        assert_eq!(JOBS, 396);
        let order = |s: &[TenancyJob]| s.iter().map(key).collect::<Vec<_>>();
        assert_ne!(order(&a), order(&b));
        let mut counts = std::collections::BTreeMap::new();
        for j in &a {
            *counts.entry(key(j)).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 18);
        assert!(counts.values().all(|&n| n == ROUNDS));
        let (mut sa, mut sb) = (order(&a), order(&b));
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb);
        assert!(a
            .windows(2)
            .all(|w| w[0].arrival.arrival_s < w[1].arrival.arrival_s));
        assert!(a.iter().enumerate().all(|(i, j)| j.arrival.id == i));
        assert_eq!(order(&a), order(&stream(1, &profiles).unwrap()));
    }
}
