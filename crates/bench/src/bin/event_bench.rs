//! `event_bench` — the committed event-core benchmark behind
//! `BENCH_event_queue.csv` (DESIGN.md §13).
//!
//! Runs the *hold* model (constant-population pop → push-replacement,
//! the steady state of a multi-tenant simulation) for `--events` total
//! operations at each `--jobs` concurrent-event population, once on the
//! `HeapQueue` BinaryHeap baseline and once on the calendar-queue
//! `EventQueue`, and reports host nanoseconds per operation.
//!
//! ```text
//! event_bench --events 1000000 --jobs 1024,4096 --out BENCH_event_queue.csv --check
//! ```
//!
//! `--check` exits non-zero unless the calendar queue beats the heap at
//! every population of 1k+ jobs — the CI wiring for the tentpole claim.
//!
//! The binary also owns the host-performance trend file `BENCH_host.csv`
//! (DESIGN.md §14). Host mode replaces the hold model: it runs the fixed
//! profiling workload `--host-reps` times, reduces to per-stage medians
//! and shares, and either writes the trend file or gates a fresh run
//! against the committed one:
//!
//! ```text
//! event_bench --host-csv BENCH_host.csv              # regenerate baseline
//! event_bench --host-check BENCH_host.csv            # CI gate
//! ```

use pic_bench::cli::{self, Failure, Matches};
use pic_bench::host_trend;
use pic_simnet::event::{EventQueue, HeapQueue};

const TAG: &str = "event_bench";

/// SplitMix64: deterministic hold increments without RNG setup cost.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn increment(state: &mut u64) -> f64 {
    (splitmix64(state) % 1_000_000) as f64 * 1e-6 + 1e-6
}

/// One hold run: `events` pop+push pairs over a `jobs`-event population.
/// Returns (ns per operation, checksum) — the checksum keeps the
/// optimizer honest and doubles as a cross-implementation assert.
macro_rules! hold {
    ($queue:expr, $jobs:expr, $events:expr) => {{
        let mut q = $queue;
        let mut rng = 0xE7E4u64;
        for i in 0..$jobs {
            q.push(i as f64 * 1e-3, i as u32);
        }
        let t0 = std::time::Instant::now();
        let mut checksum = 0.0f64;
        for _ in 0..$events {
            let (t, id) = q.pop().expect("hold keeps the queue non-empty");
            checksum += t;
            q.push(t + increment(&mut rng), id);
        }
        let ns = t0.elapsed().as_nanos() as f64 / $events as f64;
        (ns, checksum)
    }};
}

/// Host-trend mode: measure, print, then write and/or gate.
fn host_mode(m: &Matches) -> Result<i32, Failure> {
    let rows = host_trend::measure(m.num("--host-scale"), m.num("--host-reps"))
        .map_err(|e| Failure::Input(format!("host profile failed: {e}")))?;
    for r in &rows {
        println!(
            "{:<24} calls {:>8} bytes {:>12} median {:>10.6}s share {:>5.1}%",
            r.stage,
            r.calls,
            r.bytes,
            r.median_total_s,
            100.0 * r.share
        );
    }
    m.write("--host-csv", || host_trend::to_csv(&rows));
    let Some(path) = m.get("--host-check") else {
        return Ok(0);
    };
    let hint = format!("[{TAG}] generate it with: event_bench --host-csv {path}");
    let baseline = std::fs::read_to_string(path)
        .map_err(|e| Failure::Input(format!("cannot read baseline {path}: {e}\n{hint}")))?;
    let baseline = host_trend::from_csv(&baseline)
        .map_err(|e| Failure::Input(format!("baseline {path} is malformed: {e}\n{hint}")))?;
    let band = m.num("--host-band");
    let errs = host_trend::check(&baseline, &rows, band);
    if !errs.is_empty() {
        eprintln!(
            "[{TAG}] FAIL: {} host-trend violation(s) against {path}:",
            errs.len()
        );
        for e in &errs {
            eprintln!("[{TAG}]   {e}");
        }
        return Ok(1);
    }
    eprintln!(
        "[{TAG}] PASS: host profile matches {path} (calls/bytes exact, shares within {band})"
    );
    Ok(0)
}

/// The hold model, unless a host-trend flag asks for that mode instead.
fn bench(m: &Matches) -> Result<i32, Failure> {
    if m.get("--host-csv").is_some() || m.get("--host-check").is_some() {
        return host_mode(m);
    }
    let events: usize = m.num("--events");
    let mut csv = String::from("events,jobs,heap_ns_per_op,calendar_ns_per_op,speedup_x\n");
    let mut losses = 0usize;

    for jobs in m.counts("--jobs") {
        let (heap_ns, heap_sum) = hold!(HeapQueue::new(), jobs, events);
        let (cal_ns, cal_sum) = hold!(EventQueue::new(), jobs, events);
        assert_eq!(
            heap_sum.to_bits(),
            cal_sum.to_bits(),
            "hold runs must pop identical event sequences"
        );
        let speedup = heap_ns / cal_ns;
        println!(
            "jobs {jobs:>6}: heap {heap_ns:8.1} ns/op, calendar {cal_ns:8.1} ns/op, {speedup:.2}x"
        );
        csv.push_str(&format!(
            "{events},{jobs},{heap_ns:.1},{cal_ns:.1},{speedup:.3}\n"
        ));
        if jobs >= 1_000 && cal_ns >= heap_ns {
            losses += 1;
        }
    }
    m.write("--out", || csv);
    if m.on("--check") && losses > 0 {
        eprintln!("[{TAG}] FAIL: calendar queue lost at {losses} population(s) of 1k+ jobs");
        return Ok(1);
    }
    if m.on("--check") {
        eprintln!("[{TAG}] PASS: calendar queue wins at every 1k+ population");
    }
    Ok(0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(cli::run(&cli::EVENT_BENCH, &argv, bench));
}
