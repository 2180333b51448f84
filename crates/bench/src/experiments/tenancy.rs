//! Multi-tenant packing experiment (DESIGN.md §13): replay one seeded
//! 16-job stream of concurrent IC/PIC jobs on the 1k-node preset through
//! `pic_simnet::tenancy`'s cluster scheduler, and report per-job
//! time-to-quality percentiles plus the packing-density headline (PIC
//! p99 vs IC p99 at the same arrival stream).
//!
//! Job *profiles* are derived from real solo runs on the small reference
//! cluster: each driver runs once per app, its per-iteration simulated
//! times and bisection bytes become the profile, and the converged model
//! is kept. The tenancy simulation only re-times those iterations under
//! contention — it never re-computes them — so every tenant's model is
//! bit-identical to its solo run *by construction*. Each profile run is
//! repeated on a fresh engine and the two models compared, which pins
//! that construction against future drift.

use super::common::{
    fan_out, quality_target, small_suite, BenchApp, Driver, DriverReport, SuiteVisitor, Workload,
    SMALL_SUITE_APPS,
};
use super::ExperimentCtx;
use pic_simnet::report::{
    fmt_f64, JsonWriter, QualityPoint, QualityReport, TenancyReport, TenancyRow,
};
use pic_simnet::tenancy::{preset, IterKind, IterationDemand, JobArrival, JobProfile, TenancyJob};
use pic_simnet::{Tracer, TrafficClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The apps the tenancy stream draws from: [`small_suite`]'s, the same
/// representative subset as the chaos campaign.
pub const TENANCY_APPS: [&str; 3] = SMALL_SUITE_APPS;

/// Seed of the gated stream (arrivals, app picks, scale picks).
pub const STREAM_SEED: u64 = 0x7E4A;

/// Jobs in the gated stream.
pub const STREAM_JOBS: usize = 16;

/// Poisson arrival rate of the gated stream, jobs per simulated second:
/// inter-arrival gaps are `-ln(1-u)/rate`.
const ARRIVALS_PER_S: f64 = 0.02;

/// Node counts a job of the gated stream requests (uniform draw).
const SCALES: [usize; 3] = [64, 128, 256];

/// The topology preset the gated stream runs on.
const PRESET: &str = "1k";

/// Which drivers the stream's jobs use: the one setting `section`
/// varies between its three replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverMix {
    /// IC or PIC by a seeded coin flip per job.
    Mixed,
    /// Only classic iterative-convergence jobs.
    IcOnly,
    /// Only partitioned (best-effort + top-off) jobs.
    PicOnly,
}

/// The gated stream's arrivals under `drivers`: [`STREAM_JOBS`] jobs with
/// exponential gaps, each an equally likely app of [`TENANCY_APPS`] and
/// scale, all drawn from [`STREAM_SEED`]. Only [`DriverMix::Mixed`] draws
/// a coin per job, so the IC-only and PIC-only replays share every
/// arrival time, app and scale.
fn arrivals(drivers: DriverMix) -> Vec<JobArrival> {
    let mut rng = StdRng::seed_from_u64(STREAM_SEED);
    let mut t = 0.0_f64;
    (0..STREAM_JOBS)
        .map(|id| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / ARRIVALS_PER_S;
            let app = TENANCY_APPS[(rng.gen::<f64>() * TENANCY_APPS.len() as f64) as usize];
            let driver = match drivers {
                DriverMix::IcOnly => "ic",
                DriverMix::PicOnly => "pic",
                DriverMix::Mixed if rng.gen_bool(0.5) => "pic",
                DriverMix::Mixed => "ic",
            };
            JobArrival {
                id,
                app: app.to_string(),
                driver,
                arrival_s: t,
                scale: SCALES[rng.gen_range(0..SCALES.len())],
            }
        })
        .collect()
}

/// One derived profile: how the job runs, plus whether a second fresh
/// solo run converged to the bit-identical model.
#[derive(Debug, Clone, PartialEq)]
pub struct SoloProfile {
    /// Iteration demands + quality target derived from the solo run.
    pub profile: JobProfile,
    /// Second solo run produced the same model, bit for bit.
    pub exact_model: bool,
}

/// Profiles keyed by `(app, driver)`.
pub type ProfileSet = BTreeMap<(String, &'static str), SoloProfile>;

/// The `tenancy` section of `BENCH_pic.json`: the mixed stream plus the
/// packing-density comparison (same arrivals, IC-only vs PIC-only).
#[derive(Debug, Clone)]
pub struct TenancySection {
    /// The mixed IC/PIC stream.
    pub mixed: TenancyReport,
    /// p99 time-to-quality when every job is IC.
    pub ic_p99_tt_quality_s: f64,
    /// p99 time-to-quality when every job is PIC.
    pub pic_p99_tt_quality_s: f64,
    /// Packing density: `ic_p99 / pic_p99` (> 1 means PIC packs more
    /// tenants per cluster at equal p99).
    pub packing_x: f64,
    /// Every profile's second solo run reproduced its model exactly.
    pub exact_models: bool,
}

/// First index (1-based, over the last `total_iters` trajectory points)
/// at which the run reaches its own [`quality_target`].
fn quality_index(traj: &[QualityPoint], total_iters: usize) -> usize {
    let Some(target) = quality_target(traj).filter(|_| total_iters > 0) else {
        return total_iters.max(1);
    };
    let skip = traj.len().saturating_sub(total_iters);
    QualityReport::first_at_or_below(&traj[skip..], target)
        .map(|i| i + 1)
        .unwrap_or(total_iters)
        .clamp(1, total_iters)
}

/// Derive a job profile from one solo run's driver report.
fn profile_of<M>(
    who: &str,
    report: &DriverReport<M>,
    splits: usize,
    partitions: usize,
) -> Result<JobProfile, String> {
    let iterations: Vec<IterationDemand> = match report {
        DriverReport::Ic(r) => r
            .per_iteration
            .iter()
            .map(|it| IterationDemand {
                kind: IterKind::Ic,
                tasks: splits,
                task_duration_s: it.time_s,
                bisection_bytes: it.traffic.shuffle_total() + it.traffic.model_update_total(),
            })
            .collect(),
        DriverReport::Pic(r) => {
            // A phase's time and bisection bytes, spread evenly over its
            // `n` iterations.
            let phase = |kind, n: usize, tasks, secs: f64, bytes: u64| {
                (0..n).map(move |_| IterationDemand {
                    kind,
                    tasks,
                    task_duration_s: secs / n as f64,
                    bisection_bytes: bytes / n as u64,
                })
            };
            let (be, top) = (&r.be_traffic, &r.topoff_traffic);
            let be_bytes =
                be.get(TrafficClass::Merge) + be.model_update_total() + be.shuffle_total();
            let top_bytes = top.shuffle_total() + top.model_update_total();
            let (be_n, top_n) = (r.be_iterations, r.topoff_iterations);
            let be = phase(IterKind::Be, be_n, partitions, r.be_time_s, be_bytes);
            let topoff = phase(IterKind::Topoff, top_n, splits, r.topoff_time_s, top_bytes);
            be.chain(topoff).collect()
        }
    };
    if iterations.is_empty() {
        return Err(format!("{who}: solo run had no iterations"));
    }
    let (_, trajectory, _) = report.outcome();
    let quality_iteration = quality_index(trajectory, iterations.len());
    Ok(JobProfile {
        iterations,
        quality_iteration,
    })
}

/// Visits each suite workload: per driver, two solo runs on fresh
/// engines — the profile from the first, the exact-model bit from
/// comparing both converged models. The four runs fan out
/// ([`fan_out`]).
struct Profiler(ProfileSet);

impl SuiteVisitor for Profiler {
    fn visit<A: BenchApp>(&mut self, w: &Workload<'_, A>) -> Result<(), String> {
        let solo = [Driver::Ic, Driver::Ic, Driver::Pic, Driver::Pic];
        let mut reports =
            fan_out(&solo, |&driver| w.run(driver, None).map(|run| run.report)).into_iter();
        for driver in Driver::BOTH {
            let (Some(first), Some(second)) = (reports.next(), reports.next()) else {
                unreachable!("two solo runs per driver")
            };
            let (first, second) = (first?, second?);
            let ((_, _, model), (_, _, rerun_model)) = (first.outcome(), second.outcome());
            let who = format!("{}/{}", w.name, driver.label());
            self.0.insert(
                (w.name.to_string(), driver.label()),
                SoloProfile {
                    profile: profile_of(&who, &first, w.splits, w.partitions)?,
                    exact_model: model == rerun_model,
                },
            );
        }
        Ok(())
    }
}

/// Derive profiles for every `(app, driver)` pair the stream can draw:
/// [`TENANCY_APPS`] × {ic, pic}, on the small reference cluster with the
/// same per-app configurations as the chaos campaign.
pub fn profiles(ctx: &ExperimentCtx) -> Result<ProfileSet, String> {
    let mut profiler = Profiler(ProfileSet::new());
    small_suite(ctx, "/tenancy/input", &mut profiler)?;
    Ok(profiler.0)
}

/// True when every profile's repeat run reproduced its model exactly.
pub fn models_exact(set: &ProfileSet) -> bool {
    set.values().all(|p| p.exact_model)
}

/// Replay the gated stream under `drivers` with already-derived profiles.
pub fn stream(drivers: DriverMix, set: &ProfileSet) -> TenancyReport {
    let jobs: Vec<TenancyJob> = arrivals(drivers)
        .into_iter()
        .map(|arrival| {
            let key = (arrival.app.clone(), arrival.driver);
            let p = set
                .get(&key)
                .unwrap_or_else(|| panic!("no profile for {key:?}"))
                .profile
                .clone();
            TenancyJob {
                arrival,
                profile: p,
            }
        })
        .collect();
    let cluster = preset(PRESET).expect("the gated preset resolves");
    let tracer = Tracer::standalone();
    pic_simnet::tenancy::run_stream(PRESET, &cluster, &jobs, &tracer)
}

/// Build the BENCH `tenancy` section: the mixed stream at the 1k preset,
/// plus IC-only and PIC-only replays of the same arrivals for the
/// packing-density headline.
pub fn section(ctx: &ExperimentCtx) -> Result<TenancySection, String> {
    let set = profiles(ctx)?;
    let ic_p99 = stream(DriverMix::IcOnly, &set).tt_quality_percentile(99.0);
    let pic_p99 = stream(DriverMix::PicOnly, &set).tt_quality_percentile(99.0);
    Ok(TenancySection {
        mixed: stream(DriverMix::Mixed, &set),
        ic_p99_tt_quality_s: ic_p99,
        pic_p99_tt_quality_s: pic_p99,
        packing_x: if pic_p99 > 0.0 { ic_p99 / pic_p99 } else { 0.0 },
        exact_models: models_exact(&set),
    })
}

impl TenancySection {
    /// The section's fields (for `bench_json`), written into the
    /// caller's open object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.field("ic_p99_tt_quality_s", &fmt_f64(self.ic_p99_tt_quality_s));
        w.field("pic_p99_tt_quality_s", &fmt_f64(self.pic_p99_tt_quality_s));
        w.field("packing_x", &fmt_f64(self.packing_x));
        w.field("exact_models", &self.exact_models.to_string());
        w.object("mixed", |w| self.mixed.write_json(w));
    }
}

/// The per-job rows as one CSV document (the CI artifact).
pub fn tenancy_csv(r: &TenancyReport) -> String {
    crate::table::csv_doc(r.rows.iter().map(TenancyRow::columns))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ctx() -> ExperimentCtx {
        ExperimentCtx { scale: 0.01 }
    }

    /// A tiny synthetic profile set so scheduler-level tests don't pay
    /// for real solo runs.
    fn toy_profiles() -> ProfileSet {
        let mut set = ProfileSet::new();
        for app in TENANCY_APPS {
            for (driver, kind) in [("ic", IterKind::Ic), ("pic", IterKind::Be)] {
                set.insert(
                    (app.to_string(), driver),
                    SoloProfile {
                        profile: JobProfile {
                            iterations: (0..3)
                                .map(|_| IterationDemand {
                                    kind,
                                    tasks: 6,
                                    task_duration_s: 2.0,
                                    bisection_bytes: 10_000_000,
                                })
                                .collect(),
                            quality_iteration: 2,
                        },
                        exact_model: true,
                    },
                );
            }
        }
        set
    }

    #[test]
    fn arrivals_are_deterministic_and_sorted() {
        let a = arrivals(DriverMix::Mixed);
        assert_eq!(a, arrivals(DriverMix::Mixed));
        assert_eq!(a.len(), STREAM_JOBS);
        for w in a.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s);
        }
        assert!(a.iter().all(|j| j.arrival_s > 0.0));
        assert!(a.iter().enumerate().all(|(i, j)| j.id == i));
        // Mixed drivers really mix over 16 draws with this seed.
        assert!(a.iter().any(|j| j.driver == "ic"));
        assert!(a.iter().any(|j| j.driver == "pic"));
        // The single-driver replays differ only in the driver.
        let (ic, pic) = (arrivals(DriverMix::IcOnly), arrivals(DriverMix::PicOnly));
        assert!(ic.iter().all(|j| j.driver == "ic"));
        assert!(pic.iter().all(|j| j.driver == "pic"));
        let retagged: Vec<JobArrival> = ic
            .into_iter()
            .map(|j| JobArrival { driver: "pic", ..j })
            .collect();
        assert_eq!(retagged, pic);
    }

    #[test]
    fn stream_is_deterministic_with_fixed_profiles() {
        let set = toy_profiles();
        let a = tenancy_csv(&stream(DriverMix::Mixed, &set));
        let b = tenancy_csv(&stream(DriverMix::Mixed, &set));
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 1 + STREAM_JOBS);
    }

    #[test]
    fn profiles_are_exact_and_streams_pack() {
        let ctx = small_ctx();
        let set = profiles(&ctx).unwrap();
        assert_eq!(set.len(), TENANCY_APPS.len() * 2);
        assert!(models_exact(&set), "solo reruns must reproduce models");
        for ((app, driver), p) in &set {
            assert!(
                !p.profile.iterations.is_empty(),
                "{app}/{driver}: empty profile"
            );
            p.profile.validate().unwrap();
        }
        let s = section(&ctx).unwrap();
        assert!(s.exact_models);
        assert_eq!(s.mixed.rows.len(), STREAM_JOBS);
        assert!(s.ic_p99_tt_quality_s > 0.0);
        assert!(s.pic_p99_tt_quality_s > 0.0);
        // JSON embeds the summary keys the regress gate bands on.
        let j = JsonWriter::document(2, |w| s.write_json(w));
        assert!(j.contains("\"packing_x\""));
        assert!(j.contains("\"p99_tt_quality_s\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
