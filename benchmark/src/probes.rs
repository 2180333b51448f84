//! Micro-probes of the scheduler and the event core, run after the
//! repetitions of every traced run. Neither is called directly on an
//! end-to-end path (the engine and the tenancy scheduler call them), so they
//! are timed here in the two shapes the workloads use them in, and their
//! cost moves `wall_s` on `tenancy_stream` and `hostprof.schedule_s` on
//! `kmeans_fig2`.

use crate::record::Recorder;
use crate::stats::splitmix64;
use pic_simnet::event::{EventQueue, HeapQueue};
use pic_simnet::scheduler::{SlotScheduler, TaskSpec};
use pic_simnet::tenancy::preset;
use pic_simnet::ClusterSpec;
use std::hint::black_box;
use std::time::Instant;

/// The Fig. 2 map wave: 256 tasks with three replica preferences each.
const FIG2_TASKS: usize = 256;
const FIG2_ROUNDS: usize = 40;
/// A wide tenant iteration: preference-free tasks on a 128-node grant.
const TENANCY_TASKS: usize = 1024;
const TENANCY_NODES: usize = 128;
const TENANCY_ROUNDS: usize = 40;
/// `event_bench`'s hold model.
const HOLD_POPULATION: usize = 4096;
const HOLD_OPS: usize = 1_000_000;

fn schedule_us_per_task(
    spec: &ClusterSpec,
    tasks: &[TaskSpec],
    nodes: usize,
    rounds: usize,
) -> f64 {
    let scheduler = SlotScheduler::new(spec);
    let slots = spec.map_slots_per_node().max(1);
    let t = Instant::now();
    for _ in 0..rounds {
        black_box(scheduler.schedule(black_box(tasks), slots, 0..nodes));
    }
    1e6 * t.elapsed().as_secs_f64() / (rounds * tasks.len()) as f64
}

/// One hold run (pop, push a later replacement) over a constant population;
/// nanoseconds per operation and the checksum of every popped time.
macro_rules! hold {
    ($queue:expr) => {{
        let mut q = $queue;
        let mut state = 0xE7E4u64;
        for i in 0..HOLD_POPULATION {
            q.push(i as f64 * 1e-3, i as u32);
        }
        let t = Instant::now();
        let mut checksum = 0.0f64;
        for _ in 0..HOLD_OPS {
            let (time, id) = q.pop().expect("hold keeps the queue non-empty");
            checksum += time;
            let gap = (splitmix64(&mut state) % 1_000_000) as f64 * 1e-6 + 1e-6;
            q.push(time + gap, id);
        }
        (1e9 * t.elapsed().as_secs_f64() / HOLD_OPS as f64, checksum)
    }};
}

pub fn run(rec: &mut Recorder) -> Result<(), String> {
    let medium = ClusterSpec::medium();
    let fig2: Vec<TaskSpec> = (0..FIG2_TASKS)
        .map(|i| TaskSpec {
            duration_s: 0.875,
            preferred_nodes: (0..3).map(|r| (i * 7 + r * 23) % medium.nodes).collect(),
            input_bytes: 64 << 20,
        })
        .collect();
    rec.set(
        "simnet.scheduler.schedule_us_per_task",
        schedule_us_per_task(&medium, &fig2, medium.nodes, FIG2_ROUNDS),
    );
    let tenancy = vec![TaskSpec::compute(1.0); TENANCY_TASKS];
    rec.set(
        "simnet.scheduler.schedule_tenancy_us_per_task",
        schedule_us_per_task(&preset("1k")?, &tenancy, TENANCY_NODES, TENANCY_ROUNDS),
    );

    let (calendar_ns, calendar_sum) = hold!(EventQueue::new());
    let (heap_ns, heap_sum) = hold!(HeapQueue::new());
    if calendar_sum.to_bits() != heap_sum.to_bits() {
        return Err(format!(
            "EventQueue and HeapQueue popped different sequences: checksums \
             {calendar_sum} and {heap_sum}"
        ));
    }
    rec.set("simnet.event.hold_ns_per_op", calendar_ns);
    rec.set("simnet.event.heap_hold_ns_per_op", heap_ns);
    Ok(())
}
