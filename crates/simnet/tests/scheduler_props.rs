//! Property-based tests for the slot scheduler: classic makespan bounds
//! and determinism, for arbitrary task sets.

use pic_simnet::scheduler::{SlotScheduler, TaskSpec};
use pic_simnet::ClusterSpec;
use proptest::prelude::*;

fn task_strategy(max_nodes: usize) -> impl Strategy<Value = TaskSpec> {
    (
        0.0f64..30.0,
        proptest::collection::vec(0..max_nodes, 0..3),
        0u64..50_000_000,
    )
        .prop_map(|(duration_s, preferred_nodes, input_bytes)| TaskSpec {
            duration_s,
            preferred_nodes,
            input_bytes,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Greedy list scheduling respects the two classic lower bounds:
    /// makespan ≥ longest single task, and ≥ total work / slot count
    /// (both plus per-task overhead effects).
    #[test]
    fn makespan_respects_lower_bounds(
        tasks in proptest::collection::vec(task_strategy(6), 1..60),
        slots_per_node in 1usize..5,
    ) {
        let spec = ClusterSpec::small();
        let out = SlotScheduler::new(&spec).schedule(&tasks, slots_per_node, 0..6);
        let n_slots = (6 * slots_per_node) as f64;
        let longest = tasks
            .iter()
            .map(|t| t.duration_s)
            .fold(0.0f64, f64::max);
        let total_work: f64 = tasks
            .iter()
            .map(|t| t.duration_s + spec.task_overhead_s)
            .sum();
        prop_assert!(out.makespan_s + 1e-9 >= longest + spec.task_overhead_s);
        prop_assert!(out.makespan_s + 1e-9 >= total_work / n_slots);
        // And the greedy upper bound: 2x optimal for list scheduling, with
        // optimal ≤ max(longest, total/slots) + fetch penalties. Fetch
        // penalties are bounded by input_bytes over the NIC.
        let max_fetch: f64 = tasks
            .iter()
            .map(|t| t.input_bytes as f64 / spec.nic_bw)
            .fold(0.0, f64::max);
        let bound = 2.0 * (longest + spec.task_overhead_s + max_fetch)
            + total_work / n_slots
            + tasks.len() as f64 * max_fetch / n_slots;
        prop_assert!(
            out.makespan_s <= bound + 1e-6,
            "makespan {} exceeds greedy bound {}",
            out.makespan_s,
            bound
        );
    }

    /// Every task completes exactly once, after its possible start.
    #[test]
    fn finish_times_are_complete_and_positive(
        tasks in proptest::collection::vec(task_strategy(6), 0..40),
    ) {
        let spec = ClusterSpec::small();
        let out = SlotScheduler::new(&spec).schedule(&tasks, 2, 0..6);
        prop_assert_eq!(out.launches.len(), tasks.len());
        for l in &out.launches {
            let t = &tasks[l.task];
            prop_assert!(
                l.finish_s + 1e-12 >= t.duration_s + spec.task_overhead_s,
                "task {} finished at {} before it could run",
                l.task,
                l.finish_s
            );
        }
    }

    /// The launch log is the round's one record, with or without
    /// injected crashes: each task's last launch is its only completed
    /// one, the makespan is the latest completion, and each slot's waves
    /// count up from 0 in launch order to `waves - 1` at most.
    #[test]
    fn launch_log_is_the_whole_record(
        tasks in proptest::collection::vec(task_strategy(6), 0..40),
        slots_per_node in 1usize..4,
        deaths in proptest::collection::vec((0usize..6, -1.0f64..20.0), 0..3),
    ) {
        let spec = ClusterSpec::small();
        let out = SlotScheduler::new(&spec).schedule_with(&tasks, slots_per_node, 0..6, &deaths);
        for task in 0..tasks.len() {
            let mine: Vec<_> = out.launches.iter().filter(|l| l.task == task).collect();
            let done: Vec<_> = mine.iter().filter(|l| !l.killed).collect();
            prop_assert_eq!(done.len(), 1, "task {} completed {} times", task, done.len());
            prop_assert!(!mine.last().unwrap().killed, "task {} ends killed", task);
        }
        let latest = out
            .launches
            .iter()
            .filter(|l| !l.killed)
            .map(|l| l.finish_s)
            .fold(0.0f64, f64::max);
        prop_assert_eq!(out.makespan_s, latest);
        prop_assert!(out.launches.iter().all(|l| l.finish_s <= out.makespan_s));
        let mut next_wave = vec![0usize; 6 * slots_per_node];
        for l in &out.launches {
            prop_assert_eq!(l.wave, next_wave[l.slot], "slot {} out of order", l.slot);
            next_wave[l.slot] += 1;
        }
        let top = out.launches.iter().map(|l| l.wave + 1).max().unwrap_or(0);
        prop_assert_eq!(out.waves, top);
    }

    /// Scheduling is a pure function of its inputs, injected crashes
    /// included (at most two of the six nodes die, so every task can
    /// still run somewhere).
    #[test]
    fn scheduling_is_deterministic(
        tasks in proptest::collection::vec(task_strategy(6), 0..40),
        deaths in proptest::collection::vec((0usize..6, -1.0f64..20.0), 0..3),
    ) {
        let spec = ClusterSpec::small();
        let s = SlotScheduler::new(&spec);
        let a = s.schedule_with(&tasks, 2, 0..6, &deaths);
        let b = s.schedule_with(&tasks, 2, 0..6, &deaths);
        prop_assert_eq!(a, b);
    }
}
