//! The repo's host-performance benchmark: host time, CPU and memory to
//! produce simulated results that must stay bit-identical. See README.md.
//!
//! One process runs one workload: set-up (several times, for a median),
//! then repetitions of the timed section in a closed loop with one caller,
//! the rayon pool pinned to `--threads`. The last line of standard output is
//! the result as one JSON object.

// A NaN must fail every check, so checks read `!(x < limit)`, never
// `x >= limit`.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod args;
mod metrics;
mod probes;
mod record;
mod stats;
mod workloads;

use args::{Args, Command};
use metrics::{Metric, END_TO_END, PER_LAYER};
use pic_simnet::hostprof;
use record::{Recorder, PROBES, REP, SETUP};
use stats::{median, Stamp};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{RepOutcome, Spec};

/// Set-up runs at least this often, and again while it has taken less than
/// [`SETUP_BUDGET_S`] in all, up to [`MAX_SETUPS`] times: a short set-up needs
/// more samples for a steady median than a long one.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => args,
        Ok(Command::List) => {
            for w in &workloads::WORKLOADS {
                println!("{}\n    why:   {}\n    sizes: {}", w.name, w.why, w.sizes);
            }
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("error: this is an unoptimised build; run the benchmark with --release");
        return ExitCode::from(2);
    }
    let pool = match rayon::ThreadPoolBuilder::new()
        .num_threads(args.threads)
        .build()
    {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match pool.install(|| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// First line of a tool's output, or "unknown" where the tool or the
/// repository is missing (the driver's checkout is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance stamp at the top of every output.
fn print_manifest(args: &Args, spec: &Spec) {
    println!("# pic-benchmark {}", env!("CARGO_PKG_VERSION"));
    println!("# workload: {}", spec.name);
    println!("# why: {}", spec.why);
    println!("# sizes: {}", spec.sizes);
    println!("# seed: {}", args.seed);
    println!("# seconds: {}", args.seconds);
    println!("# trace: {}", u8::from(args.trace));
    println!("# threads: {} (nproc {})", args.threads, args::nproc());
    println!("# profile: release (opt-level 3, no debug assertions)");
    println!(
        "# git rev: {}",
        tool_line("git", &["rev-parse", "--short", "HEAD"])
    );
    println!("# rustc: {}", tool_line("rustc", &["-V"]));
}

#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    sim_s: f64,
    digest: u64,
    attempted: u64,
    failures: Vec<String>,
}

impl Measured {
    fn count(&mut self, outcome: RepOutcome) {
        self.attempted += outcome.attempted;
        self.failures.extend(outcome.failures);
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = workloads::find(&args.workload)?;
    print_manifest(args, spec);
    let mut rec = Recorder::new(args.trace);
    let mut m = Measured::default();

    // Set-up: everything before the first timed repetition.
    let mut workload = None;
    let setup_start = Instant::now();
    while m.setup_s.len() < MIN_SETUPS
        || (m.setup_s.len() < MAX_SETUPS && setup_start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(workload.take()); // one copy of the inputs at a time
        let t = Instant::now();
        let (w, checked) = rec.span(SETUP, |rec| (spec.setup)(args.seed, rec))?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        m.count(checked);
        workload = Some(w);
    }
    let mut workload = workload.expect("set-up ran at least once");

    // The timed section, repeated while the next repetition is expected to
    // end within the budget.
    if args.trace && spec.hostprof {
        hostprof::reset();
        hostprof::enable();
    }
    let budget = Instant::now();
    loop {
        rec.take_excluded();
        let t = Stamp::now();
        let outcome = rec.span(REP, |rec| workload.rep(rec))?;
        let used = t.elapsed() - rec.take_excluded();
        m.wall_s.push(used.wall_s);
        m.cpu_s.push(used.cpu_s);
        if m.wall_s.len() == 1 {
            m.digest = outcome.digest;
            m.sim_s = outcome.sim_s;
        } else if (outcome.digest, outcome.sim_s.to_bits()) != (m.digest, m.sim_s.to_bits()) {
            m.failures.push(format!(
                "repetition {} simulated something else than the first: digest {:016x} and \
                 {} sim-s against {:016x} and {}",
                m.wall_s.len(),
                outcome.digest,
                outcome.sim_s,
                m.digest,
                m.sim_s
            ));
        }
        m.count(outcome);
        if budget.elapsed().as_secs_f64() + used.wall_s > args.seconds {
            break;
        }
    }
    hostprof::disable();

    println!("sim_digest {:016x}", m.digest);
    println!("sim_seconds_per_rep {}", m.sim_s);
    println!("reps {}", m.wall_s.len());
    println!("setups {}", m.setup_s.len());
    println!("ops_attempted {}", m.attempted);
    println!("ops_failed {}", m.failures.len());

    let values = if args.trace {
        if let Err(e) = rec.span(PROBES, |rec| {
            workload.layer_report(rec)?;
            probes::run(rec)
        }) {
            m.failures.push(format!("per-layer probes: {e}"));
        }
        per_layer(&mut rec, &m, spec.name)?
    } else {
        let wall_s = median(&m.wall_s);
        vec![
            wall_s,
            median(&m.cpu_s),
            stats::peak_rss_mb()?,
            median(&m.setup_s),
            m.sim_s / wall_s,
        ]
    };
    let table: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };

    for f in &m.failures {
        println!("FAILED: {f}");
    }
    let mut json = String::new();
    for (metric, value) in table.iter().zip(&values) {
        if !value.is_finite() {
            return Err(format!("metric {} is not a finite number", metric.name));
        }
        println!(
            "{} {value} {} ({} is better{})",
            metric.name,
            metric.unit,
            metric.better,
            if metric.exact { ", exact" } else { "" }
        );
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if json.is_empty() { "" } else { ", " },
            metric.name,
            metric.unit
        );
    }
    let correct = m.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        m.attempted,
        m.failures.len().min(m.attempted as usize)
    );
    Ok(correct)
}

/// Every per-layer metric, in table order; also writes the spans out.
fn per_layer(rec: &mut Recorder, m: &Measured, workload: &str) -> Result<Vec<f64>, String> {
    let profile = hostprof::snapshot();
    let reps = m.wall_s.len() as f64;
    for stage in hostprof::Stage::ALL {
        let (total_s, calls, bytes) = profile
            .get(stage)
            .map_or((0.0, 0, 0), |s| (s.total_s, s.calls, s.bytes));
        let name = |suffix: &str| format!("hostprof.{}_{suffix}", stage.label());
        rec.set(&name("s"), total_s / reps);
        rec.set(&name("calls"), calls as f64 / reps);
        rec.set(&name("bytes"), bytes as f64 / reps);
    }
    rec.set("harness.reps", reps);
    rec.set("harness.rep_wall_s", median(&m.wall_s));
    rec.set("harness.rep_cpu_s", median(&m.cpu_s));
    rec.set("harness.setup_wall_s", median(&m.setup_s));
    rec.set("harness.unattributed_s", rec.self_seconds(REP));
    rec.set("harness.spans", rec.span_count() as f64);

    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}.json"));
    std::fs::write(&path, rec.spans_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    let in_reps = rec.names_in_reps();
    println!("# spans inside the timed section: {}", in_reps.join(" "));

    Ok(PER_LAYER
        .iter()
        .map(|metric| {
            rec.value(metric.name)
                .unwrap_or_else(|| rec.self_seconds(metric.name))
        })
        .collect())
}
