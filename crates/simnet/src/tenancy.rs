//! Multi-tenant job streams (DESIGN.md §13).
//!
//! The paper evaluates PIC one job at a time, but its headline claim —
//! the best-effort phase leaves the bisection idle — only pays off when
//! other tenants can use that headroom. This module provides the
//! cluster-level half of that experiment:
//!
//! * [`WorkloadSpec`] — a seeded description of a job stream: Poisson-ish
//!   arrivals (exponential inter-arrival times from the vendored `rand`),
//!   a weighted app mix, an IC/PIC driver mix, and a set of node-scale
//!   tiers, validated against a topology preset.
//! * [`preset`] — 1k–10k-node EMR-style topologies
//!   ([`ClusterSpec::large`]) addressable by name.
//! * [`JobProfile`] — the *shape* of one job as a sequence of
//!   [`IterationDemand`]s (task count, per-task seconds, bisection
//!   bytes). Profiles are derived by the bench layer from real solo
//!   runs, which is what makes every tenant's converged model
//!   bit-identical to its solo run by construction: tenancy re-times the
//!   iterations, it never re-computes them.
//! * [`ClusterScheduler`] — a discrete-event scheduler layered over the
//!   same [`SlotScheduler`] used inside jobs: FIFO admission with
//!   weighted fair node grants (weight = requested nodes), contiguous
//!   first-fit placement, and preemption of *best-effort* iterations
//!   when an arrival cannot be admitted. Each job's iterations are
//!   packed onto its granted node group, so a smaller grant means more
//!   waves and a longer iteration — contention moves timing, never
//!   computation.
//!
//! Everything is simulated and seeded, so a stream's
//! [`TenancyReport`] JSON is byte-identical
//! across rayon pool widths.

use crate::event::EventQueue;
use crate::report::{TenancyReport, TenancyRow};
use crate::scheduler::{SlotScheduler, TaskSpec};
use crate::topology::{ClusterSpec, NodeId};
use crate::trace::{Payload, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::ops::Range;

/// Topology presets addressable from [`preset`], in ascending size.
pub const PRESETS: [&str; 4] = ["1k", "2k", "4k", "10k"];

/// Resolve a named 1k–10k-node topology preset (EMR-style racks of 16,
/// [`ClusterSpec::large`]).
pub fn preset(name: &str) -> Result<ClusterSpec, String> {
    match name {
        "1k" => Ok(ClusterSpec::large(1000)),
        "2k" => Ok(ClusterSpec::large(2000)),
        "4k" => Ok(ClusterSpec::large(4000)),
        "10k" => Ok(ClusterSpec::large(10_000)),
        other => Err(format!("unknown preset '{other}'; known: {PRESETS:?}")),
    }
}

/// Which drivers the generator draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverMix {
    /// Alternate IC and PIC jobs (seeded coin flip).
    Mixed,
    /// Only classic iterative-convergence jobs.
    IcOnly,
    /// Only partitioned (best-effort + top-off) jobs.
    PicOnly,
}

impl DriverMix {
    /// Parse a `--drivers` value.
    pub fn parse(s: &str) -> Result<DriverMix, String> {
        match s {
            "mixed" => Ok(DriverMix::Mixed),
            "ic" => Ok(DriverMix::IcOnly),
            "pic" => Ok(DriverMix::PicOnly),
            other => Err(format!(
                "unknown driver mix '{other}'; known: [\"mixed\", \"ic\", \"pic\"]"
            )),
        }
    }
}

/// Seeded description of a multi-tenant job stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of jobs to submit.
    pub jobs: usize,
    /// Poisson arrival rate (jobs per simulated second); inter-arrival
    /// gaps are `-ln(1-u)/rate`.
    pub arrival_per_s: f64,
    /// Weighted app mix, e.g. `[("kmeans", 1.0), ("linsolve", 2.0)]`.
    pub mix: Vec<(String, f64)>,
    /// Which drivers jobs use.
    pub drivers: DriverMix,
    /// Node-scale tiers jobs request from (uniform draw).
    pub scales: Vec<usize>,
    /// RNG seed; same seed ⇒ same stream, byte for byte.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            jobs: 16,
            arrival_per_s: 0.02,
            mix: Vec::new(),
            drivers: DriverMix::Mixed,
            scales: vec![64, 128, 256],
            seed: 0x7E4A,
        }
    }
}

impl WorkloadSpec {
    /// Validate against the app registry and the target topology.
    /// Error strings are pinned by negative tests — change them only with
    /// the tests.
    pub fn validate(&self, known_apps: &[&str], cluster: &ClusterSpec) -> Result<(), String> {
        if self.jobs == 0 {
            return Err("workload must have at least one job".to_string());
        }
        if self.arrival_per_s <= 0.0 || self.arrival_per_s.is_nan() {
            return Err(format!(
                "arrival rate must be positive (got {})",
                self.arrival_per_s
            ));
        }
        // A gap is `-ln(1-u)/rate` with `u` a 53-bit draw from [0, 1), so it
        // is below `37/rate` and the last arrival below `jobs` such gaps.
        let last_arrival_bound_s = self.jobs as f64 * 37.0 / self.arrival_per_s;
        if !self.arrival_per_s.is_finite() || !last_arrival_bound_s.is_finite() {
            return Err(format!(
                "arrival rate must be finite and keep all {} arrivals at finite times (got {:e})",
                self.jobs, self.arrival_per_s
            ));
        }
        if self.mix.is_empty() {
            return Err("mix must name at least one app".to_string());
        }
        for (app, w) in &self.mix {
            if !known_apps.contains(&app.as_str()) {
                return Err(format!("unknown app '{app}' in mix; known: {known_apps:?}"));
            }
            if *w <= 0.0 || !w.is_finite() {
                return Err(format!(
                    "mix weight for '{app}' must be positive and finite (got {w})"
                ));
            }
        }
        if self.scales.is_empty() {
            return Err("scales must name at least one node count".to_string());
        }
        for &s in &self.scales {
            if s == 0 {
                return Err("job scale must be > 0 nodes".to_string());
            }
            if s > cluster.nodes {
                return Err(format!(
                    "job scale {s} exceeds topology capacity ({} nodes)",
                    cluster.nodes
                ));
            }
        }
        Ok(())
    }

    /// Generate the arrival stream. Call [`WorkloadSpec::validate`]
    /// first; this panics on an empty mix.
    pub fn arrivals(&self) -> Vec<JobArrival> {
        assert!(!self.mix.is_empty(), "validate() the workload first");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let total_w: f64 = self.mix.iter().map(|(_, w)| w).sum();
        let mut t = 0.0_f64;
        let mut out = Vec::with_capacity(self.jobs);
        for id in 0..self.jobs {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / self.arrival_per_s;
            let mut pick = rng.gen::<f64>() * total_w;
            let mut app = self.mix[0].0.clone();
            for (a, w) in &self.mix {
                if pick < *w {
                    app = a.clone();
                    break;
                }
                pick -= w;
            }
            let driver = match self.drivers {
                DriverMix::IcOnly => "ic",
                DriverMix::PicOnly => "pic",
                DriverMix::Mixed => {
                    if rng.gen_bool(0.5) {
                        "pic"
                    } else {
                        "ic"
                    }
                }
            };
            let scale = self.scales[rng.gen_range(0..self.scales.len())];
            out.push(JobArrival {
                id,
                app,
                driver,
                arrival_s: t,
                scale,
            });
        }
        out
    }
}

/// One generated arrival: which app/driver at what time, asking for how
/// many nodes. The fairness weight is the requested scale.
#[derive(Debug, Clone, PartialEq)]
pub struct JobArrival {
    /// Job id in arrival order.
    pub id: usize,
    /// Application name.
    pub app: String,
    /// `ic` or `pic`.
    pub driver: &'static str,
    /// Simulated submission time.
    pub arrival_s: f64,
    /// Requested nodes (also the fairness weight).
    pub scale: usize,
}

/// The phase an iteration belongs to. Only best-effort iterations are
/// preemptible: they synchronize nothing across partitions, so killing
/// and re-running one later is semantically free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterKind {
    /// PIC best-effort local iteration (preemptible).
    Be,
    /// Classic IC iteration.
    Ic,
    /// PIC top-off iteration.
    Topoff,
}

impl IterKind {
    /// The trace category, matching the driver span categories so
    /// tenancy timelines reuse the report's iteration buckets.
    pub fn cat(&self) -> &'static str {
        match self {
            IterKind::Be => "be-iteration",
            IterKind::Ic => "ic",
            IterKind::Topoff => "topoff",
        }
    }

    /// Whether a running iteration of this kind may be killed to admit
    /// a queued job.
    pub fn preemptible(&self) -> bool {
        matches!(self, IterKind::Be)
    }
}

/// Resource demand of one iteration of a job: `tasks` parallel tasks of
/// `task_duration_s` each, then `bisection_bytes` pushed across the
/// cluster core (merge/shuffle/model-update traffic).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationDemand {
    /// Phase of this iteration.
    pub kind: IterKind,
    /// Parallel tasks (splits for IC/top-off, partitions for BE).
    pub tasks: usize,
    /// Per-task compute seconds at the profiling reference.
    pub task_duration_s: f64,
    /// Bytes this iteration moves across the bisection after compute.
    pub bisection_bytes: u64,
}

/// The shape of one job: its iteration sequence plus the 1-based index
/// of the iteration at which the *solo* run reached within 5% of its
/// final error (the stream-level quality target).
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    /// Iterations in execution order; never empty.
    pub iterations: Vec<IterationDemand>,
    /// 1-based index into `iterations` of the quality-target iteration.
    pub quality_iteration: usize,
}

impl JobProfile {
    /// Sanity-check a profile before simulation.
    pub fn validate(&self) -> Result<(), String> {
        if self.iterations.is_empty() {
            return Err("job profile must have at least one iteration".to_string());
        }
        for (i, it) in self.iterations.iter().enumerate() {
            if it.tasks == 0 {
                return Err(format!("iteration {i} has zero tasks"));
            }
            if !(it.task_duration_s.is_finite() && it.task_duration_s >= 0.0) {
                return Err(format!("iteration {i} has invalid task duration"));
            }
        }
        if self.quality_iteration == 0 || self.quality_iteration > self.iterations.len() {
            return Err(format!(
                "quality iteration {} outside 1..={}",
                self.quality_iteration,
                self.iterations.len()
            ));
        }
        Ok(())
    }
}

/// One tenant: an arrival plus its profile.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyJob {
    /// When/what arrived.
    pub arrival: JobArrival,
    /// How it runs.
    pub profile: JobProfile,
}

/// Result of one stream simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyOutcome {
    /// Per-job rows in arrival order.
    pub rows: Vec<TenancyRow>,
    /// Completion time of the last job.
    pub makespan_s: f64,
}

#[derive(Debug)]
enum Ev {
    Arrive(usize),
    IterDone { job: usize, epoch: u64 },
}

#[derive(Debug)]
struct JobState {
    next_iter: usize,
    epoch: u64,
    group: Option<Range<NodeId>>,
    grant: usize,
    first_admitted_s: f64,
    queue_delay_s: f64,
    wait_since: f64,
    preemptions: usize,
    finish_s: f64,
    quality_s: f64,
    /// Bisection transfer windows `(t0, t1)` of completed iterations.
    windows: Vec<(f64, f64)>,
    done: bool,
}

/// Contiguous first-fit node allocator over `0..nodes`.
#[derive(Debug)]
struct NodePool {
    free: Vec<Range<usize>>,
}

impl NodePool {
    fn new(nodes: usize) -> Self {
        NodePool {
            free: std::iter::once(0..nodes).collect(),
        }
    }

    fn alloc(&mut self, n: usize) -> Option<Range<usize>> {
        let i = self.free.iter().position(|r| r.len() >= n)?;
        let r = self.free[i].clone();
        let taken = r.start..r.start + n;
        if r.len() == n {
            self.free.remove(i);
        } else {
            self.free[i] = r.start + n..r.end;
        }
        Some(taken)
    }

    fn release(&mut self, r: Range<usize>) {
        let at = self
            .free
            .iter()
            .position(|f| f.start > r.start)
            .unwrap_or(self.free.len());
        self.free.insert(at, r);
        // Coalesce neighbours.
        let mut i = at.saturating_sub(1);
        while i + 1 < self.free.len() {
            if self.free[i].end == self.free[i + 1].start {
                self.free[i] = self.free[i].start..self.free[i + 1].end;
                self.free.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }
}

/// Cluster-level scheduler: FIFO admission with weighted fair grants and
/// best-effort preemption, layered over [`SlotScheduler`] for intra-job
/// packing.
#[derive(Debug)]
pub struct ClusterScheduler<'a> {
    spec: &'a ClusterSpec,
    /// Each job may lose its best-effort iteration to an arrival at most
    /// this many times (bounds re-queue churn; preempted jobs become
    /// immune once they hit the cap).
    pub preemption_cap: usize,
}

impl<'a> ClusterScheduler<'a> {
    /// A scheduler for `spec` with the default preemption cap of 1.
    pub fn new(spec: &'a ClusterSpec) -> Self {
        ClusterScheduler {
            spec,
            preemption_cap: 1,
        }
    }

    /// Weighted fair node grant for `job` given the weights of currently
    /// running jobs: `share = nodes * w / (w + running_w)`, clamped to
    /// `1..=requested`.
    fn fair_grant(&self, requested: usize, weight: f64, running_weight: f64) -> usize {
        let share = (self.spec.nodes as f64 * weight / (weight + running_weight)).floor() as usize;
        requested.min(share.max(1))
    }

    /// Run the stream to completion; `tracer` gets one `job` span per
    /// tenant plus per-iteration spans on `tenant-<id>` lanes.
    pub fn run(&self, jobs: &[TenancyJob], tracer: &Tracer) -> TenancyOutcome {
        for j in jobs {
            j.profile
                .validate()
                .unwrap_or_else(|e| panic!("job {} profile invalid: {e}", j.arrival.id));
        }
        let mut q: EventQueue<Ev> = EventQueue::new();
        let mut states: Vec<JobState> = jobs
            .iter()
            .map(|j| JobState {
                next_iter: 0,
                epoch: 0,
                group: None,
                grant: 0,
                first_admitted_s: f64::NAN,
                queue_delay_s: 0.0,
                wait_since: j.arrival.arrival_s,
                preemptions: 0,
                finish_s: f64::NAN,
                quality_s: f64::NAN,
                windows: Vec::new(),
                done: false,
            })
            .collect();
        let mut pool = NodePool::new(self.spec.nodes);
        let mut queue: VecDeque<usize> = VecDeque::new();
        let slots_per_node = self.spec.map_slots_per_node().max(1);
        for (i, j) in jobs.iter().enumerate() {
            q.push(j.arrival.arrival_s, Ev::Arrive(i));
        }
        let mut makespan = 0.0_f64;
        while let Some((now, ev)) = q.pop() {
            match ev {
                Ev::Arrive(i) => {
                    tracer.instant_at_in(
                        &lane(i),
                        format!("arrive:{}", jobs[i].arrival.app),
                        "sched",
                        now,
                        vec![(
                            "scale".to_string(),
                            Payload::U64(jobs[i].arrival.scale as u64),
                        )],
                    );
                    queue.push_back(i);
                    self.admit_loop(
                        now,
                        jobs,
                        &mut states,
                        &mut pool,
                        &mut queue,
                        &mut q,
                        tracer,
                    );
                }
                Ev::IterDone { job, epoch } => {
                    if states[job].epoch != epoch || states[job].done {
                        continue; // stale: the iteration was preempted
                    }
                    let st = &mut states[job];
                    st.next_iter += 1;
                    if st.next_iter == jobs[job].profile.quality_iteration {
                        st.quality_s = now;
                    }
                    if st.next_iter == jobs[job].profile.iterations.len() {
                        st.done = true;
                        st.finish_s = now;
                        makespan = makespan.max(now);
                        if let Some(g) = st.group.take() {
                            pool.release(g);
                        }
                        tracer.span_at_in(
                            &lane(job),
                            format!(
                                "job-{}:{}/{}",
                                job, jobs[job].arrival.app, jobs[job].arrival.driver
                            ),
                            "job",
                            jobs[job].arrival.arrival_s,
                            now,
                            vec![(
                                "preemptions".to_string(),
                                Payload::U64(states[job].preemptions as u64),
                            )],
                        );
                        self.admit_loop(
                            now,
                            jobs,
                            &mut states,
                            &mut pool,
                            &mut queue,
                            &mut q,
                            tracer,
                        );
                    } else {
                        self.start_iteration(
                            job,
                            now,
                            jobs,
                            &mut states,
                            &mut q,
                            tracer,
                            slots_per_node,
                        );
                    }
                }
            }
        }
        let rows = jobs
            .iter()
            .zip(&states)
            .map(|(j, st)| TenancyRow {
                id: j.arrival.id,
                app: j.arrival.app.clone(),
                driver: j.arrival.driver.to_string(),
                arrival_s: j.arrival.arrival_s,
                admitted_s: st.first_admitted_s,
                finish_s: st.finish_s,
                queue_delay_s: st.queue_delay_s,
                tt_quality_s: st.quality_s - j.arrival.arrival_s,
                contention_s: 0.0, // filled below
                requested_nodes: j.arrival.scale,
                granted_nodes: st.grant,
                preemptions: st.preemptions,
            })
            .collect::<Vec<_>>();
        let rows = attribute_contention(rows, &states);
        TenancyOutcome {
            rows,
            makespan_s: makespan,
        }
    }

    /// Admit queued jobs FIFO while grants fit; preempt a best-effort
    /// iteration when the head cannot fit and a victim exists.
    #[allow(clippy::too_many_arguments)]
    fn admit_loop(
        &self,
        now: f64,
        jobs: &[TenancyJob],
        states: &mut [JobState],
        pool: &mut NodePool,
        queue: &mut VecDeque<usize>,
        q: &mut EventQueue<Ev>,
        tracer: &Tracer,
    ) {
        let slots_per_node = self.spec.map_slots_per_node().max(1);
        while let Some(&head) = queue.front() {
            let running_weight: f64 = states
                .iter()
                .enumerate()
                .filter(|(_, s)| s.group.is_some())
                .map(|(i, _)| jobs[i].arrival.scale as f64)
                .sum();
            let grant = self.fair_grant(
                jobs[head].arrival.scale,
                jobs[head].arrival.scale as f64,
                running_weight,
            );
            if let Some(g) = pool.alloc(grant) {
                queue.pop_front();
                let st = &mut states[head];
                st.queue_delay_s += now - st.wait_since;
                if st.first_admitted_s.is_nan() {
                    st.first_admitted_s = now;
                }
                st.group = Some(g);
                st.grant = grant;
                tracer.instant_at_in(
                    &lane(head),
                    "admit",
                    "sched",
                    now,
                    vec![("granted_nodes".to_string(), Payload::U64(grant as u64))],
                );
                self.start_iteration(head, now, jobs, states, q, tracer, slots_per_node);
                continue;
            }
            // Head does not fit: look for a preemptible victim — the
            // latest-admitted running job inside a best-effort iteration
            // that has not hit the preemption cap.
            let victim = states
                .iter()
                .enumerate()
                .filter(|(i, s)| {
                    s.group.is_some()
                        && !s.done
                        && s.preemptions < self.preemption_cap
                        && jobs[*i].profile.iterations[s.next_iter].kind.preemptible()
                })
                .max_by(|(i, a), (j, b)| {
                    a.first_admitted_s
                        .partial_cmp(&b.first_admitted_s)
                        .expect("admission times are never NaN")
                        .then(i.cmp(j))
                })
                .map(|(i, _)| i);
            let Some(v) = victim else { break };
            let st = &mut states[v];
            st.epoch += 1; // cancels the in-flight IterDone
            st.preemptions += 1;
            st.wait_since = now;
            if let Some(g) = st.group.take() {
                pool.release(g);
            }
            tracer.instant_at_in(
                &lane(v),
                "preempt",
                "sched",
                now,
                vec![(
                    "iteration".to_string(),
                    Payload::U64(states[v].next_iter as u64),
                )],
            );
            queue.push_back(v);
        }
    }

    /// Schedule iteration `states[job].next_iter` on the job's granted
    /// group: pack tasks with [`SlotScheduler`], then push the bisection
    /// bytes across the core.
    #[allow(clippy::too_many_arguments)]
    fn start_iteration(
        &self,
        job: usize,
        now: f64,
        jobs: &[TenancyJob],
        states: &mut [JobState],
        q: &mut EventQueue<Ev>,
        tracer: &Tracer,
        slots_per_node: usize,
    ) {
        let st = &mut states[job];
        let it = &jobs[job].profile.iterations[st.next_iter];
        let group = st.group.clone().expect("iteration started while queued");
        let tasks = vec![TaskSpec::compute(it.task_duration_s); it.tasks];
        let out = SlotScheduler::new(self.spec).schedule(&tasks, slots_per_node, group);
        let transfer_s = if it.bisection_bytes > 0 {
            it.bisection_bytes as f64 / self.spec.bisection_bw
        } else {
            0.0
        };
        let end = now + out.makespan_s + transfer_s;
        if it.bisection_bytes > 0 {
            st.windows.push((now + out.makespan_s, end));
        }
        tracer.span_at_in(
            &lane(job),
            format!("{}-{}", it.kind.cat(), st.next_iter),
            it.kind.cat(),
            now,
            end,
            vec![
                ("tasks".to_string(), Payload::U64(it.tasks as u64)),
                ("waves".to_string(), Payload::U64(out.waves as u64)),
                (
                    "bisection_bytes".to_string(),
                    Payload::U64(it.bisection_bytes),
                ),
            ],
        );
        q.push(
            end,
            Ev::IterDone {
                job,
                epoch: st.epoch,
            },
        );
    }
}

fn lane(job: usize) -> String {
    format!("tenant-{job}")
}

/// Fill `contention_s`: for each job, the measure of its bisection
/// windows overlapped by at least one *other* job's window. Overlap is a
/// telemetry observation, not a timing feedback — transfers are charged
/// uncontended so per-job results stay independent of co-tenants.
fn attribute_contention(mut rows: Vec<TenancyRow>, states: &[JobState]) -> Vec<TenancyRow> {
    for (i, row) in rows.iter_mut().enumerate() {
        let mut others: Vec<(f64, f64)> = states
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .flat_map(|(_, s)| s.windows.iter().copied())
            .collect();
        others.sort_by(|a, b| a.partial_cmp(b).expect("windows are never NaN"));
        // Merge the other jobs' windows, then intersect.
        let mut merged: Vec<(f64, f64)> = Vec::new();
        for w in others {
            match merged.last_mut() {
                Some(m) if w.0 <= m.1 => m.1 = m.1.max(w.1),
                _ => merged.push(w),
            }
        }
        let mut total = 0.0;
        for &(a0, a1) in &states[i].windows {
            for &(b0, b1) in &merged {
                let lo = a0.max(b0);
                let hi = a1.min(b1);
                if hi > lo {
                    total += hi - lo;
                }
            }
        }
        row.contention_s = total;
    }
    rows
}

/// Convenience: run a stream and wrap the outcome in a
/// [`TenancyReport`].
pub fn run_stream(
    preset_name: &str,
    spec: &ClusterSpec,
    jobs: &[TenancyJob],
    tracer: &Tracer,
) -> TenancyReport {
    let out = ClusterScheduler::new(spec).run(jobs, tracer);
    TenancyReport {
        preset: preset_name.to_string(),
        cluster_nodes: spec.nodes,
        rows: out.rows,
        makespan_s: out.makespan_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn profile(kind: IterKind, iters: usize, tasks: usize, dur: f64, bytes: u64) -> JobProfile {
        JobProfile {
            iterations: (0..iters)
                .map(|_| IterationDemand {
                    kind,
                    tasks,
                    task_duration_s: dur,
                    bisection_bytes: bytes,
                })
                .collect(),
            quality_iteration: iters,
        }
    }

    fn job(id: usize, arrival_s: f64, scale: usize, p: JobProfile) -> TenancyJob {
        TenancyJob {
            arrival: JobArrival {
                id,
                app: "kmeans".to_string(),
                driver: "ic",
                arrival_s,
                scale,
            },
            profile: p,
        }
    }

    #[test]
    fn preset_names_resolve_and_unknown_is_listed() {
        assert_eq!(preset("1k").unwrap().nodes, 1000);
        assert_eq!(preset("10k").unwrap().nodes, 10_000);
        let err = preset("3k").unwrap_err();
        assert!(err.contains("unknown preset '3k'"), "{err}");
        assert!(err.contains("1k"), "{err}");
    }

    #[test]
    fn arrivals_are_deterministic_and_sorted() {
        let wl = WorkloadSpec {
            mix: vec![("kmeans".to_string(), 1.0), ("linsolve".to_string(), 1.0)],
            ..WorkloadSpec::default()
        };
        let a = wl.arrivals();
        let b = wl.arrivals();
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        for w in a.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s);
        }
        assert!(a.iter().all(|j| j.arrival_s > 0.0));
        // Mixed drivers really mix over 16 draws with this seed.
        assert!(a.iter().any(|j| j.driver == "ic"));
        assert!(a.iter().any(|j| j.driver == "pic"));
    }

    #[test]
    fn different_seeds_differ() {
        let wl = WorkloadSpec {
            mix: vec![("kmeans".to_string(), 1.0)],
            ..WorkloadSpec::default()
        };
        let other = WorkloadSpec {
            seed: 1,
            ..wl.clone()
        };
        assert_ne!(wl.arrivals(), other.arrivals());
    }

    #[test]
    fn solo_job_has_no_queueing() {
        let spec = ClusterSpec::medium();
        let jobs = [job(0, 1.0, 8, profile(IterKind::Ic, 3, 16, 2.0, 1_000_000))];
        let tracer = Tracer::standalone();
        let out = ClusterScheduler::new(&spec).run(&jobs, &tracer);
        let r = &out.rows[0];
        assert_eq!(r.queue_delay_s, 0.0);
        assert_eq!(r.admitted_s, 1.0);
        assert_eq!(r.granted_nodes, 8);
        assert_eq!(r.preemptions, 0);
        assert_eq!(r.contention_s, 0.0);
        assert!(r.finish_s > r.arrival_s);
        assert_eq!(r.tt_quality_s, r.finish_s - r.arrival_s);
        assert_eq!(out.makespan_s, r.finish_s);
    }

    #[test]
    fn full_cluster_queues_second_job_fifo() {
        let spec = ClusterSpec::custom(8, 4, 1, 4.0);
        // Job 0 takes the whole cluster with non-preemptible IC work;
        // job 1 must wait for it to finish.
        let jobs = [
            job(0, 0.0, 8, profile(IterKind::Ic, 2, 8, 5.0, 0)),
            job(1, 1.0, 8, profile(IterKind::Ic, 1, 8, 5.0, 0)),
        ];
        let tracer = Tracer::standalone();
        let out = ClusterScheduler::new(&spec).run(&jobs, &tracer);
        assert_eq!(out.rows[0].queue_delay_s, 0.0);
        assert!(out.rows[1].queue_delay_s > 0.0);
        assert_eq!(out.rows[1].admitted_s, out.rows[0].finish_s);
        assert_eq!(out.rows[0].preemptions, 0, "IC is not preemptible");
    }

    #[test]
    fn best_effort_iteration_is_preempted_for_arrival() {
        let spec = ClusterSpec::custom(8, 4, 1, 4.0);
        let jobs = [
            job(0, 0.0, 8, profile(IterKind::Be, 2, 8, 100.0, 0)),
            job(1, 1.0, 8, profile(IterKind::Ic, 1, 8, 1.0, 0)),
        ];
        let tracer = Tracer::standalone();
        let out = ClusterScheduler::new(&spec).run(&jobs, &tracer);
        assert_eq!(out.rows[0].preemptions, 1, "BE job should lose its slot");
        assert!(out.rows[1].admitted_s < out.rows[0].finish_s);
        // The preempted BE iteration re-runs: job 0 still completes.
        assert!(out.rows[0].finish_s.is_finite());
        assert!(out.rows[0].queue_delay_s > 0.0);
    }

    #[test]
    fn stream_is_deterministic() {
        let spec = preset("1k").unwrap();
        let mk = || {
            let jobs: Vec<TenancyJob> = (0..6)
                .map(|i| {
                    job(
                        i,
                        i as f64 * 3.0,
                        200 + 100 * (i % 3),
                        profile(
                            if i % 2 == 0 {
                                IterKind::Be
                            } else {
                                IterKind::Ic
                            },
                            3 + i % 2,
                            32,
                            1.5,
                            50_000_000,
                        ),
                    )
                })
                .collect();
            let tracer = Tracer::standalone();
            ClusterScheduler::new(&spec).run(&jobs, &tracer)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn overlapping_transfers_count_contention() {
        let spec = ClusterSpec::custom(16, 4, 1, 4.0);
        // Two jobs, each granted half the cluster, same shape: their
        // bisection windows overlap.
        let big = 10_u64.pow(10); // long transfer so windows overlap
        let jobs = [
            job(0, 0.0, 8, profile(IterKind::Ic, 2, 8, 1.0, big)),
            job(1, 0.0, 8, profile(IterKind::Ic, 2, 8, 1.0, big)),
        ];
        let tracer = Tracer::standalone();
        let out = ClusterScheduler::new(&spec).run(&jobs, &tracer);
        assert!(out.rows[0].contention_s > 0.0);
        assert!(out.rows[1].contention_s > 0.0);
    }

    #[test]
    fn node_pool_first_fit_and_coalesce() {
        let mut p = NodePool::new(10);
        let a = p.alloc(4).unwrap();
        let b = p.alloc(4).unwrap();
        assert_eq!(a, 0..4);
        assert_eq!(b, 4..8);
        assert!(p.alloc(4).is_none());
        p.release(a);
        assert!(p.alloc(5).is_none(), "free space is fragmented");
        p.release(b);
        assert_eq!(p.alloc(10).unwrap(), 0..10, "released ranges coalesce");
    }

    #[test]
    fn profile_validation_rejects_bad_shapes() {
        let empty = JobProfile {
            iterations: Vec::new(),
            quality_iteration: 1,
        };
        assert!(empty.validate().unwrap_err().contains("at least one"));
        let mut p = profile(IterKind::Ic, 2, 4, 1.0, 0);
        p.quality_iteration = 3;
        assert!(p.validate().unwrap_err().contains("quality iteration"));
    }
}
