//! Multi-tenant job streams (DESIGN.md §13).
//!
//! The paper evaluates PIC one job at a time, but its headline claim —
//! the best-effort phase leaves the bisection idle — only pays off when
//! other tenants can use that headroom. This module provides the
//! cluster-level half of that experiment:
//!
//! * [`preset`] — the 1k-node EMR-style topology
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
//! The arrival stream itself is the caller's: the gated one is generated
//! by `pic_bench::experiments::tenancy`, the benchmark draws its own.
//! Everything is simulated, so a stream's [`TenancyReport`] JSON is
//! byte-identical across rayon pool widths.

use crate::event::EventQueue;
use crate::report::{TenancyReport, TenancyRow};
use crate::scheduler::{SlotScheduler, TaskSpec};
use crate::topology::{ClusterSpec, NodeId};
use crate::trace::Tracer;
use std::collections::VecDeque;
use std::ops::Range;

/// Resolve a named topology preset: `1k`, the 1 000-node EMR-style
/// cluster (racks of 16, [`ClusterSpec::large`]) the gated stream and the
/// benchmark run on.
pub fn preset(name: &str) -> Result<ClusterSpec, String> {
    match name {
        "1k" => Ok(ClusterSpec::large(1000)),
        other => Err(format!("unknown preset '{other}'; known: [\"1k\"]")),
    }
}

/// One arrival: which app/driver at what time, asking for how many
/// nodes. The fairness weight is the requested scale.
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

/// Each job may lose its best-effort iteration to an arrival at most
/// this many times (bounds re-queue churn; preempted jobs become immune
/// once they hit the cap).
const PREEMPTION_CAP: usize = 1;

/// Cluster-level scheduler: FIFO admission with weighted fair grants and
/// best-effort preemption, layered over [`SlotScheduler`] for intra-job
/// packing.
#[derive(Debug)]
pub struct ClusterScheduler<'a> {
    spec: &'a ClusterSpec,
}

impl<'a> ClusterScheduler<'a> {
    /// A scheduler for `spec`.
    pub fn new(spec: &'a ClusterSpec) -> Self {
        ClusterScheduler { spec }
    }

    /// Weighted fair node grant for `job` given the weights of currently
    /// running jobs: `share = nodes * w / (w + running_w)`, clamped to
    /// `1..=requested`.
    fn fair_grant(&self, requested: usize, weight: f64, running_weight: f64) -> usize {
        let share = (self.spec.nodes as f64 * weight / (weight + running_weight)).floor() as usize;
        requested.min(share.max(1))
    }

    /// Run the stream to completion.
    pub fn run(&self, jobs: &[TenancyJob]) -> TenancyOutcome {
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
        for (i, j) in jobs.iter().enumerate() {
            q.push(j.arrival.arrival_s, Ev::Arrive(i));
        }
        let mut makespan = 0.0_f64;
        while let Some((now, ev)) = q.pop() {
            match ev {
                Ev::Arrive(i) => {
                    queue.push_back(i);
                    self.admit_loop(now, jobs, &mut states, &mut pool, &mut queue, &mut q);
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
                        self.admit_loop(now, jobs, &mut states, &mut pool, &mut queue, &mut q);
                    } else {
                        self.start_iteration(job, now, jobs, &mut states, &mut q);
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
    fn admit_loop(
        &self,
        now: f64,
        jobs: &[TenancyJob],
        states: &mut [JobState],
        pool: &mut NodePool,
        queue: &mut VecDeque<usize>,
        q: &mut EventQueue<Ev>,
    ) {
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
                self.start_iteration(head, now, jobs, states, q);
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
                        && s.preemptions < PREEMPTION_CAP
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
            queue.push_back(v);
        }
    }

    /// Schedule iteration `states[job].next_iter` on the job's granted
    /// group: pack tasks with [`SlotScheduler`], then push the bisection
    /// bytes across the core.
    fn start_iteration(
        &self,
        job: usize,
        now: f64,
        jobs: &[TenancyJob],
        states: &mut [JobState],
        q: &mut EventQueue<Ev>,
    ) {
        let slots_per_node = self.spec.map_slots_per_node().max(1);
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
        q.push(
            end,
            Ev::IterDone {
                job,
                epoch: st.epoch,
            },
        );
    }
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
/// [`TenancyReport`]. The scheduler records no trace; `_tracer` is unused
/// and stays in the signature only for existing callers.
pub fn run_stream(
    preset_name: &str,
    spec: &ClusterSpec,
    jobs: &[TenancyJob],
    _tracer: &Tracer,
) -> TenancyReport {
    let out = ClusterScheduler::new(spec).run(jobs);
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
        let err = preset("3k").unwrap_err();
        assert!(err.contains("unknown preset '3k'"), "{err}");
        assert!(err.contains("1k"), "{err}");
    }

    #[test]
    fn solo_job_has_no_queueing() {
        let spec = ClusterSpec::medium();
        let jobs = [job(0, 1.0, 8, profile(IterKind::Ic, 3, 16, 2.0, 1_000_000))];
        let out = ClusterScheduler::new(&spec).run(&jobs);
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
        let out = ClusterScheduler::new(&spec).run(&jobs);
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
        let out = ClusterScheduler::new(&spec).run(&jobs);
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
            ClusterScheduler::new(&spec).run(&jobs)
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
        let out = ClusterScheduler::new(&spec).run(&jobs);
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
