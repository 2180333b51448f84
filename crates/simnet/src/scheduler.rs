//! Discrete-event slot scheduler.
//!
//! Hadoop executes a job's tasks in *waves*: the cluster has a fixed number
//! of map (or reduce) slots, tasks are queued, and the JobTracker assigns a
//! queued task to a slot the moment the slot frees, preferring tasks whose
//! input data lives on that slot's node (node-local), then in the same rack
//! (rack-local), then anything (remote, which pays a network read for its
//! input). This module simulates exactly that, driven by the per-task
//! durations the MapReduce engine's time model assigns to the computation
//! it ran for real on the host.
//!
//! A round's one record is its launch log ([`ScheduleOutcome::launches`]):
//! every attempt in assignment order with its slot, node, locality, times
//! and per-slot wave index. A task's last launch is its one completed
//! attempt (a killed attempt re-queues the task, so nothing of it can be
//! in flight again until the kill), which is where callers read a task's
//! placement, locality and finish time.

use crate::event::EventQueue;
use crate::topology::{ClusterSpec, NodeId};
use crate::trace::{Payload, Tracer};

/// When `node` dies in a round with crash schedule `deaths`, if ever
/// (earliest listed time).
fn death_of(deaths: &[(NodeId, f64)], node: NodeId) -> Option<f64> {
    deaths
        .iter()
        .filter(|(n, _)| *n == node)
        .map(|(_, t)| *t)
        .fold(None, |acc: Option<f64>, t| {
            Some(acc.map_or(t, |a| a.min(t)))
        })
}

/// One task to be placed on the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Pure compute time of the task, in simulated seconds.
    pub duration_s: f64,
    /// Nodes holding a replica of this task's input (empty = no locality
    /// preference, e.g. reducers).
    pub preferred_nodes: Vec<NodeId>,
    /// Bytes of input the task must fetch over the network if it runs on a
    /// node that holds no replica.
    pub input_bytes: u64,
}

impl TaskSpec {
    /// A task with compute time only, no placement preference.
    pub fn compute(duration_s: f64) -> Self {
        TaskSpec {
            duration_s,
            preferred_nodes: Vec::new(),
            input_bytes: 0,
        }
    }
}

/// How a scheduled task's input was reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locality {
    /// Ran on a node holding a replica of its input.
    NodeLocal,
    /// Ran in the same rack as a replica.
    RackLocal,
    /// Had to fetch its input across racks (or had no preference).
    Remote,
}

/// One task attempt assigned to a slot, in assignment order — the raw
/// event-log the trace layer replays into task spans.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskLaunch {
    /// Index of the task in the input slice.
    pub task: usize,
    /// Slot the attempt ran on (`0..nodes × slots_per_node`).
    pub slot: usize,
    /// Node hosting that slot.
    pub node: NodeId,
    /// Attempt start, seconds from the scheduling round's origin.
    pub start_s: f64,
    /// Attempt finish.
    pub finish_s: f64,
    /// True if this attempt was killed by its node dying mid-execution;
    /// `finish_s` is then the death time, not a completion.
    pub killed: bool,
    /// Locality class of this attempt's placement.
    pub locality: Locality,
    /// Per-slot launch index: how many earlier attempts ran on `slot`
    /// this round (0 for the slot's first wave).
    pub wave: usize,
}

/// Result of scheduling one batch of tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// Time from first assignment to last completion.
    pub makespan_s: f64,
    /// Number of scheduling waves (ceil(tasks / slots) for equal tasks; in
    /// general the max number of tasks any single slot executed).
    pub waves: usize,
    /// Every task attempt in assignment order, including attempts killed
    /// by node failures.
    pub launches: Vec<TaskLaunch>,
}

impl ScheduleOutcome {
    /// Replay this outcome into `tracer`: one `task` span per attempt on
    /// lane `{lane_prefix}-slot-{slot}`, shifted by `t0` (the scheduling
    /// round's simulated start). Every attempt ends by the makespan, so
    /// the spans stay inside their phase. Attempts killed by a node
    /// failure emit a `task-killed` sched instant at the kill time and
    /// are labelled ` (lost)`.
    ///
    /// Each span carries a `wave` arg: the attempt's
    /// [`TaskLaunch::wave`] — the straggler projection in
    /// [`crate::whatif`] clamps task durations to their wave's p50 using
    /// this arg.
    pub fn emit_task_spans(&self, tracer: &Tracer, t0: f64, lane_prefix: &str) {
        if !tracer.is_enabled() {
            return;
        }
        for l in &self.launches {
            let lane = format!("{lane_prefix}-slot-{}", l.slot);
            let s0 = t0 + l.start_s;
            let s1 = t0 + l.finish_s;
            let mut name = format!("{lane_prefix}-task-{}", l.task);
            if l.killed {
                name.push_str(" (lost)");
                tracer.instant_at_in(
                    &lane,
                    "task-killed",
                    "sched",
                    s1,
                    vec![
                        ("task".to_string(), Payload::U64(l.task as u64)),
                        ("node".to_string(), Payload::U64(l.node as u64)),
                    ],
                );
            }
            tracer.span_at_in(
                &lane,
                name,
                "task",
                s0,
                s1,
                vec![
                    ("task".to_string(), Payload::U64(l.task as u64)),
                    ("node".to_string(), Payload::U64(l.node as u64)),
                    ("wave".to_string(), Payload::U64(l.wave as u64)),
                    (
                        "locality".to_string(),
                        Payload::Str(format!("{:?}", l.locality)),
                    ),
                ],
            );
        }
    }
}

/// What a slot event in the discrete-event loop signifies.
#[derive(Debug, Clone, Copy)]
enum SlotWake {
    /// Initial arming, or an idle slot woken for a re-queued task.
    Free,
    /// The slot's in-flight attempt of `task` completed.
    Finished {
        /// Task index in the input slice.
        task: usize,
    },
    /// The slot's node died mid-attempt, killing `task`'s attempt.
    Killed {
        /// Task index in the input slice.
        task: usize,
    },
}

/// The slot scheduler for a cluster (or a contiguous node group of it —
/// PIC's best-effort sub-problems schedule on their own group).
#[derive(Debug, Clone)]
pub struct SlotScheduler<'a> {
    spec: &'a ClusterSpec,
}

impl<'a> SlotScheduler<'a> {
    /// A scheduler over `spec`.
    pub fn new(spec: &'a ClusterSpec) -> Self {
        SlotScheduler { spec }
    }

    /// Schedule `tasks` onto `slots_per_node` slots on each node of
    /// `nodes`, honouring locality preferences, and return the outcome.
    ///
    /// Every task is charged `spec.task_overhead_s` startup cost plus a
    /// remote-read penalty (`input_bytes` over the NIC or rack uplink) when
    /// it could not be placed near its data.
    ///
    /// # Panics
    /// Panics if `nodes` is empty or `slots_per_node == 0`.
    pub fn schedule(
        &self,
        tasks: &[TaskSpec],
        slots_per_node: usize,
        nodes: std::ops::Range<NodeId>,
    ) -> ScheduleOutcome {
        self.schedule_with(tasks, slots_per_node, nodes, &[])
    }

    /// [`SlotScheduler::schedule`] with node crashes injected into the
    /// round: `deaths` lists `(node, seconds from the round's start)`. A
    /// time `<= 0` means the node is dead before the round begins (its
    /// slots never fire). A node that dies mid-round kills its in-flight
    /// attempts at the death time; killed tasks are re-queued and
    /// re-executed on surviving nodes, exactly like Hadoop restarting the
    /// tasks of a lost TaskTracker. Fed by
    /// `chaos::ChaosInjector::peek_failures`.
    ///
    /// # Panics
    /// Panics as [`SlotScheduler::schedule`] does, and if every node of
    /// the group dies before some task could complete.
    pub fn schedule_with(
        &self,
        tasks: &[TaskSpec],
        slots_per_node: usize,
        nodes: std::ops::Range<NodeId>,
        deaths: &[(NodeId, f64)],
    ) -> ScheduleOutcome {
        assert!(!nodes.is_empty(), "cannot schedule on an empty node group");
        assert!(slots_per_node > 0, "need at least one slot per node");
        assert!(nodes.end <= self.spec.nodes, "node group exceeds cluster");

        let n_nodes = nodes.len();
        let n_slots = n_nodes * slots_per_node;
        let n_tasks = tasks.len();
        let mut pending: Vec<usize> = (0..n_tasks).collect();
        let mut per_slot_count = vec![0usize; n_slots];
        let mut completed = vec![false; n_tasks];
        let mut launches: Vec<TaskLaunch> = Vec::with_capacity(n_tasks);
        // Node-failure bookkeeping: which slots have gone idle (so a
        // re-queued task can wake them), and when each slot is busy until
        // (so a wake-up event arriving mid-attempt is ignored).
        let mut idle = vec![false; n_slots];
        let mut busy_until = vec![0.0f64; n_slots];

        // The launch cost of task `task_idx` placed at locality `loc`.
        let launch = |task_idx: usize, loc: Locality| -> f64 {
            let t = &tasks[task_idx];
            let fetch_s = match loc {
                Locality::NodeLocal => 0.0,
                Locality::RackLocal => t.input_bytes as f64 / self.spec.nic_bw,
                Locality::Remote => {
                    if t.preferred_nodes.is_empty() {
                        // No preference: input is wherever it needs to be
                        // (e.g. reducer pulling shuffle output, charged
                        // separately by the shuffle model).
                        0.0
                    } else {
                        t.input_bytes as f64 / self.spec.nic_bw.min(self.spec.rack_uplink_bw)
                    }
                }
            };
            self.spec.task_overhead_s + fetch_s + t.duration_s
        };

        // Each slot frees as an event; the payload carries what just
        // happened on it. Slot s lives on node nodes.start + s / slots_per_node.
        let mut q: EventQueue<(usize, SlotWake)> = EventQueue::new();
        for s in 0..n_slots {
            q.push(0.0, (s, SlotWake::Free));
        }

        while let Some((now, (slot, wake))) = q.pop() {
            match wake {
                SlotWake::Free => {
                    // A wake-up that raced with a launch on this slot
                    // (re-queued task waking an already-claimed slot).
                    if busy_until[slot] > now + 1e-12 {
                        continue;
                    }
                }
                SlotWake::Finished { task } => completed[task] = true,
                SlotWake::Killed { task } => {
                    // The node hosting this slot died at `now`, taking
                    // the in-flight attempt with it. The task goes back
                    // in the queue and idle surviving slots are woken to
                    // pick it up — the slot itself retires with its node.
                    pending.push(task);
                    for (s, slot_idle) in idle.iter_mut().enumerate() {
                        if *slot_idle {
                            let nd = nodes.start + s / slots_per_node;
                            if death_of(deaths, nd).is_none_or(|d| d > now + 1e-12) {
                                *slot_idle = false;
                                q.push(now, (s, SlotWake::Free));
                            }
                        }
                    }
                    continue;
                }
            }
            let node = nodes.start + slot / slots_per_node;
            // A dead node's slots retire: they launch nothing further.
            let death = death_of(deaths, node);
            if death.is_some_and(|d| d <= now + 1e-12) {
                continue;
            }
            if pending.is_empty() {
                idle[slot] = true;
                continue;
            }
            // Pick the best pending task for this node: node-local
            // first, then rack-local, then FIFO head.
            let (idx_in_pending, loc) = Self::pick_task(self.spec, tasks, &pending, node);
            let task_idx = pending.swap_remove(idx_in_pending);
            let finish = now + launch(task_idx, loc);
            let wave = per_slot_count[slot];
            per_slot_count[slot] += 1;
            idle[slot] = false;
            let (end, wake) = match death {
                Some(d) if d < finish => (d, SlotWake::Killed { task: task_idx }),
                _ => (finish, SlotWake::Finished { task: task_idx }),
            };
            busy_until[slot] = end;
            launches.push(TaskLaunch {
                task: task_idx,
                slot,
                node,
                start_s: now,
                finish_s: end,
                killed: matches!(wake, SlotWake::Killed { .. }),
                locality: loc,
                wave,
            });
            q.push(end, (slot, wake));
        }

        if let Some(t) = completed.iter().position(|&c| !c) {
            panic!(
                "task {t} could not be re-executed: every node in the \
                 scheduling group died before it could run"
            );
        }

        let makespan_s = launches
            .iter()
            .filter(|l| !l.killed)
            .map(|l| l.finish_s)
            .fold(0.0f64, f64::max);
        ScheduleOutcome {
            makespan_s,
            waves: per_slot_count.iter().copied().max().unwrap_or(0),
            launches,
        }
    }

    /// Choose the index (within `pending`) of the task to run on `node`,
    /// and the locality class achieved.
    fn pick_task(
        spec: &ClusterSpec,
        tasks: &[TaskSpec],
        pending: &[usize],
        node: NodeId,
    ) -> (usize, Locality) {
        let mut rack_candidate: Option<usize> = None;
        for (i, &t) in pending.iter().enumerate() {
            let prefs = &tasks[t].preferred_nodes;
            if prefs.contains(&node) {
                return (i, Locality::NodeLocal);
            }
            if rack_candidate.is_none()
                && prefs
                    .iter()
                    .any(|&p| p < spec.nodes && spec.same_rack(p, node))
            {
                rack_candidate = Some(i);
            }
        }
        if let Some(i) = rack_candidate {
            return (i, Locality::RackLocal);
        }
        (0, Locality::Remote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    /// Each task's completed attempt — its last launch — by task index.
    fn completed(out: &ScheduleOutcome, n_tasks: usize) -> Vec<&TaskLaunch> {
        let mut last = vec![None; n_tasks];
        for l in &out.launches {
            last[l.task] = Some(l);
        }
        last.into_iter()
            .map(|l| l.expect("every task launches"))
            .collect()
    }

    fn count(out: &ScheduleOutcome, loc: Locality) -> usize {
        out.launches
            .iter()
            .filter(|l| !l.killed && l.locality == loc)
            .count()
    }

    fn killed(out: &ScheduleOutcome) -> usize {
        out.launches.iter().filter(|l| l.killed).count()
    }

    #[test]
    fn one_wave_when_tasks_fit() {
        let spec = ClusterSpec::small(); // 6 nodes, task_overhead 0.5
        let tasks: Vec<_> = (0..24).map(|_| TaskSpec::compute(10.0)).collect();
        let out = SlotScheduler::new(&spec).schedule(&tasks, 4, 0..6);
        assert_eq!(out.waves, 1);
        assert!(close(out.makespan_s, 10.5), "{}", out.makespan_s);
    }

    #[test]
    fn waves_grow_with_task_count() {
        let spec = ClusterSpec::small();
        let tasks: Vec<_> = (0..48).map(|_| TaskSpec::compute(10.0)).collect();
        let out = SlotScheduler::new(&spec).schedule(&tasks, 4, 0..6);
        assert_eq!(out.waves, 2);
        assert!(close(out.makespan_s, 21.0), "{}", out.makespan_s);
    }

    #[test]
    fn uneven_tasks_pack_greedily() {
        let spec = ClusterSpec::single(); // task_overhead 0.1
                                          // 1 slot, 2 tasks.
        let tasks = vec![TaskSpec::compute(1.0), TaskSpec::compute(2.0)];
        let out = SlotScheduler::new(&spec).schedule(&tasks, 1, 0..1);
        assert_eq!(out.waves, 2);
        assert!(close(out.makespan_s, 3.2), "{}", out.makespan_s);
    }

    #[test]
    fn locality_preferred_when_available() {
        let spec = ClusterSpec::small();
        // 6 tasks, each preferring a distinct node; 1 slot per node.
        let tasks: Vec<_> = (0..6)
            .map(|n| TaskSpec {
                duration_s: 1.0,
                preferred_nodes: vec![n],
                input_bytes: 1_000_000_000,
            })
            .collect();
        let out = SlotScheduler::new(&spec).schedule(&tasks, 1, 0..6);
        assert_eq!(
            count(&out, Locality::NodeLocal),
            6,
            "every task should run on its data"
        );
        for (i, l) in completed(&out, 6).into_iter().enumerate() {
            assert_eq!(l.node, i);
        }
    }

    #[test]
    fn remote_task_pays_fetch_penalty() {
        let mut spec = ClusterSpec::small();
        spec.task_overhead_s = 0.0;
        // One node group, task's data is on node 5 outside group 0..1.
        let tasks = vec![TaskSpec {
            duration_s: 1.0,
            preferred_nodes: vec![5],
            input_bytes: 125_000_000, // 1 s at GbE... but same rack
        }];
        let out = SlotScheduler::new(&spec).schedule(&tasks, 1, 0..1);
        // small cluster is one rack, so this is rack-local: +1 s fetch.
        assert_eq!(count(&out, Locality::RackLocal), 1);
        assert!(close(out.makespan_s, 2.0), "{}", out.makespan_s);
    }

    #[test]
    fn no_preference_tasks_fetch_free() {
        let mut spec = ClusterSpec::small();
        spec.task_overhead_s = 0.0;
        let tasks = vec![TaskSpec {
            duration_s: 2.0,
            preferred_nodes: vec![],
            input_bytes: 999,
        }];
        let out = SlotScheduler::new(&spec).schedule(&tasks, 1, 0..6);
        assert!(close(out.makespan_s, 2.0), "{}", out.makespan_s);
        assert_eq!(count(&out, Locality::Remote), 1);
    }

    #[test]
    fn empty_task_list_has_zero_makespan() {
        let spec = ClusterSpec::small();
        let out = SlotScheduler::new(&spec).schedule(&[], 4, 0..6);
        assert_eq!(out.makespan_s, 0.0);
        assert_eq!(out.waves, 0);
    }

    #[test]
    fn subgroup_scheduling_stays_in_group() {
        let spec = ClusterSpec::medium();
        let tasks: Vec<_> = (0..32).map(|_| TaskSpec::compute(1.0)).collect();
        let group = 8..16;
        let out = SlotScheduler::new(&spec).schedule(&tasks, 2, group.clone());
        for l in &out.launches {
            assert!(group.contains(&l.node));
        }
    }

    #[test]
    #[should_panic(expected = "empty node group")]
    fn empty_group_panics() {
        let spec = ClusterSpec::small();
        SlotScheduler::new(&spec).schedule(&[TaskSpec::compute(1.0)], 1, 3..3);
    }

    #[test]
    fn emit_task_spans_labels_slot_lanes() {
        use crate::trace::{check, Tracer};

        let spec = ClusterSpec::single();
        let tasks = vec![TaskSpec::compute(1.0), TaskSpec::compute(2.0)];
        let out = SlotScheduler::new(&spec).schedule(&tasks, 1, 0..1);
        let tracer = Tracer::standalone();
        out.emit_task_spans(&tracer, 5.0, "map");
        let trace = tracer.trace();
        assert_eq!(trace.spans.len(), 2);
        for s in &trace.spans {
            assert_eq!(s.cat, "task");
            assert_eq!(s.lane, "map-slot-0");
        }
        check::no_overlap_per_slot(&trace).unwrap();
    }

    #[test]
    fn node_dead_from_start_never_runs_tasks() {
        let spec = ClusterSpec::small();
        let tasks: Vec<_> = (0..12).map(|_| TaskSpec::compute(5.0)).collect();
        let deaths = vec![(2, 0.0)];
        let out = SlotScheduler::new(&spec).schedule_with(&tasks, 2, 0..6, &deaths);
        assert_eq!(killed(&out), 0, "nothing was in flight to kill");
        assert!(out.launches.iter().all(|l| l.node != 2 && !l.killed));
        assert!(completed(&out, 12).iter().all(|l| l.finish_s > 0.0));
    }

    #[test]
    fn mid_round_crash_kills_and_reexecutes() {
        let spec = ClusterSpec::small(); // task_overhead 0.5
        let tasks: Vec<_> = (0..6).map(|_| TaskSpec::compute(10.0)).collect();
        // One slot per node: exactly one task in flight on node 3 when it
        // dies at t = 4.
        let deaths = vec![(3, 4.0)];
        let out = SlotScheduler::new(&spec).schedule_with(&tasks, 1, 0..6, &deaths);
        assert_eq!(killed(&out), 1);
        let killed: Vec<_> = out.launches.iter().filter(|l| l.killed).collect();
        assert_eq!(killed.len(), 1);
        assert_eq!(killed[0].node, 3);
        assert!(close(killed[0].finish_s, 4.0), "{}", killed[0].finish_s);
        let victim = killed[0].task;
        // The victim completes on a surviving node. Every live slot is
        // busy until 10.5, so the re-execution starts then:
        // 10.5 + 0.5 overhead + 10.0 compute = 21.
        let redo = completed(&out, 6)[victim];
        assert!(redo.node != 3);
        assert!(close(redo.finish_s, 21.0), "{}", redo.finish_s);
        assert!(close(out.makespan_s, 21.0), "{}", out.makespan_s);
        // 6 primary attempts + 1 re-execution.
        assert_eq!(out.launches.len(), 7);
    }

    #[test]
    fn crash_with_failures_matches_clean_when_nothing_dies_in_window() {
        let spec = ClusterSpec::small();
        let tasks: Vec<_> = (0..24)
            .map(|i| TaskSpec::compute(1.0 + (i % 3) as f64))
            .collect();
        let clean = SlotScheduler::new(&spec).schedule(&tasks, 4, 0..6);
        // A failure scheduled after the round ends changes nothing.
        let deaths = vec![(1, clean.makespan_s + 100.0)];
        let late = SlotScheduler::new(&spec).schedule_with(&tasks, 4, 0..6, &deaths);
        assert_eq!(clean, late);
    }

    #[test]
    #[should_panic(expected = "could not be re-executed")]
    fn all_nodes_dead_panics() {
        let spec = ClusterSpec::small();
        let tasks = vec![TaskSpec::compute(10.0)];
        let deaths: Vec<_> = (0..6).map(|n| (n, 1.0)).collect();
        SlotScheduler::new(&spec).schedule_with(&tasks, 1, 0..6, &deaths);
    }

    #[test]
    fn killed_attempts_emit_lost_spans_and_instants() {
        use crate::trace::{check, Tracer};

        let spec = ClusterSpec::small();
        let tasks: Vec<_> = (0..6).map(|_| TaskSpec::compute(10.0)).collect();
        let deaths = vec![(3, 4.0)];
        let out = SlotScheduler::new(&spec).schedule_with(&tasks, 1, 0..6, &deaths);
        let tracer = Tracer::standalone();
        out.emit_task_spans(&tracer, 0.0, "map");
        let trace = tracer.trace();
        let killed = trace
            .instants
            .iter()
            .filter(|i| i.cat == "sched" && i.name == "task-killed")
            .count();
        assert_eq!(killed, 1);
        assert_eq!(
            trace
                .spans
                .iter()
                .filter(|s| s.name.ends_with(" (lost)"))
                .count(),
            1
        );
        check::no_overlap_per_slot(&trace).unwrap();
    }

    #[test]
    fn failures_are_deterministic_across_runs() {
        let spec = ClusterSpec::medium();
        let tasks: Vec<_> = (0..100)
            .map(|i| TaskSpec {
                duration_s: 1.0 + (i % 7) as f64 * 0.3,
                preferred_nodes: vec![i % spec.nodes],
                input_bytes: 1000 * i as u64,
            })
            .collect();
        let deaths = vec![(3, 0.7), (11, 2.0)];
        let a = SlotScheduler::new(&spec).schedule_with(&tasks, 4, 0..spec.nodes, &deaths);
        let b = SlotScheduler::new(&spec).schedule_with(&tasks, 4, 0..spec.nodes, &deaths);
        assert_eq!(a, b);
        assert!(killed(&a) >= 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = ClusterSpec::medium();
        let tasks: Vec<_> = (0..100)
            .map(|i| TaskSpec {
                duration_s: 1.0 + (i % 7) as f64 * 0.3,
                preferred_nodes: vec![i % spec.nodes],
                input_bytes: 1000 * i as u64,
            })
            .collect();
        let a = SlotScheduler::new(&spec).schedule(&tasks, 4, 0..spec.nodes);
        let b = SlotScheduler::new(&spec).schedule(&tasks, 4, 0..spec.nodes);
        assert_eq!(a, b);
    }
}
