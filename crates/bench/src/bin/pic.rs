//! `pic` — the workbench's one binary. `pic help` lists every command;
//! `pic <command> --help` lists its flags. Both are generated from the
//! command table in [`pic_bench::cli`], which also parses and
//! range-checks every flag — this file holds only what each command
//! *does* with its validated argv.
//!
//! ```text
//! pic kmeans    --n 100000 --k 100 --partitions 24 --cluster small
//! pic report    --scale 0.05 --check --traces target/traces
//! pic timeline  --scale 0.05 --apps kmeans --width 48
//! pic explain   kmeans --scale 0.05
//! pic watch     kmeans --scale 0.05 --width 40
//! pic regress   --baseline BENCH_pic.json --scale 0.05
//! pic repro     --exp fig9,table2
//! ```

use pic_bench::cli::Failure::{Input, Usage};
use pic_bench::cli::{self, write_artifact, Command, Failure, Group, Handler, Matches};
use pic_bench::experiments::common::{cost, BenchApp, Comparison, Workload};
use pic_bench::experiments::report as perf;
use pic_bench::experiments::{self, chaos, explain, watch, ExperimentCtx};
use pic_bench::json;
use pic_bench::table::{fmt_secs, fmt_x, Table};
use pic_simnet::{traffic::human_bytes, ClusterSpec, TrafficClass};

fn ctx_of(m: &Matches) -> ExperimentCtx {
    ExperimentCtx {
        scale: m.num("--scale"),
    }
}

/// A flag the table gives a default, so it always has a value.
fn text<'m>(m: &'m Matches, flag: &str) -> &'m str {
    m.get(flag).expect("the table gives this flag a default")
}

/// `pic report`: collect the runs, print the perf reports, optionally
/// export traces and validate every invariant (exit 1 on violation).
fn report(m: &Matches) -> Result<i32, Failure> {
    let tag = m.command.tag();
    let apps = m.names("--apps");
    let (runs, profile) =
        perf::profiled(m.on("--profile-host"), || perf::collect(&ctx_of(m), &apps));
    let runs = runs?;

    if let Some(profile) = &profile {
        println!("{}", profile.render());
    }
    for run in &runs {
        if m.on("--quality") {
            println!("{}", run.quality.render());
        } else {
            println!("{}", run.render());
        }
    }
    if let Some(dir) = m.get("--traces") {
        for run in &runs {
            // Counter tracks ride along so the Chrome view plots slot
            // occupancy under the span timeline.
            let sides = [
                ("ic", &run.ic_trace, run.ic_utilization()),
                ("pic", &run.pic_trace, run.pic_utilization()),
            ];
            for (side, trace, util) in sides {
                let path = format!("{dir}/{}_{side}_trace.json", run.app);
                let doc = trace.to_chrome_json_with_counters(&util.counter_tracks());
                write_artifact(&tag, &path, &doc);
            }
        }
    }
    if !m.on("--check") {
        return Ok(0);
    }
    let mut failures = 0;
    for run in &runs {
        let errs = run.validate();
        for e in &errs {
            eprintln!("[{tag}] violation: {e}");
        }
        if errs.is_empty() {
            eprintln!(
                "[{tag}] {} traces ok ({} + {} spans, bytes reconcile exactly)",
                run.app,
                run.ic_trace.spans.len(),
                run.pic_trace.spans.len()
            );
        }
        failures += errs.len();
    }
    if failures > 0 {
        eprintln!("[{tag}] {failures} invariant violation(s)");
        return Ok(1);
    }
    eprintln!("[{tag}] all trace invariants hold");
    Ok(0)
}

/// `pic timeline`: the side-by-side slot-occupancy heatmaps.
fn timeline(m: &Matches) -> Result<i32, Failure> {
    for run in &perf::collect(&ctx_of(m), &m.names("--apps"))? {
        println!(
            "=== {} ({}) on {} — slot occupancy, darkness = fraction of slots busy ===\n",
            run.app, run.experiment, run.spec.name
        );
        let (ic, pic) = (run.ic_utilization(), run.pic_utilization());
        let width = m.num("--width");
        println!(
            "{}",
            pic_simnet::timeline::render_side_by_side(ic, pic, width)
        );
    }
    Ok(0)
}

/// `pic chaos`: one row per (app, scenario, driver) campaign cell.
fn chaos(m: &Matches) -> Result<i32, Failure> {
    let cells = chaos::campaign(&ctx_of(m), &m.names("--scenarios"))?;
    let mut t = Table::new([
        "app", "scenario", "driver", "clean", "faulty", "recovery", "bytes", "events", "tt-Δ",
        "alerts", "exact",
    ]);
    for c in &cells {
        t.row([
            c.app,
            c.scenario,
            c.driver,
            &fmt_secs(c.clean_s),
            &fmt_secs(c.faulty_s),
            &fmt_secs(c.recovery_s),
            &human_bytes(c.recovery_bytes),
            &c.injected_events.to_string(),
            &fmt_secs(c.tt_quality_delta_s),
            // The §16 monitor's incident count for the faulty run; the
            // clean counterpart is pinned at 0 by the campaign tests.
            &c.incidents.to_string(),
            if c.exact_result { "yes" } else { "no" },
        ]);
    }
    println!("{}", t.render());
    Ok(0)
}

fn load_json(path: &str) -> Result<json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

/// `pic diff`: attribute the difference between two BENCH_pic.json
/// documents. Exits 0 when nothing simulated moved, 1 when deltas were
/// attributed, 2 on unusable inputs.
fn diff(m: &Matches) -> Result<i32, Failure> {
    let [old, new] = &m.positionals[..] else {
        unreachable!("the table asks for exactly two paths");
    };
    let (old, new) = (
        load_json(old).map_err(Input)?,
        load_json(new).map_err(Input)?,
    );
    let report = pic_bench::diff::diff_docs(&old, &new, json::EPSILON).map_err(Input)?;
    print!("{}", report.render(m.num("--top")));
    m.write("--json", || report.to_json());
    Ok(if report.is_empty() { 0 } else { 1 })
}

/// `pic explain`: replay the recorded runs under counterfactual edits
/// and print the IC-vs-PIC bottleneck-attribution table per app. Pure
/// trace post-processing, so the output is a deterministic function of
/// the runs.
fn explain(m: &Matches) -> Result<i32, Failure> {
    let ctx = ctx_of(m);
    let runs = perf::collect(&ctx, &m.positional_names())?;
    let sections = explain::sections(&runs, &pic_simnet::whatif::CATALOG);
    for s in &sections {
        print!("{}", explain::render_side_by_side(s));
        println!();
    }
    m.write("--json", || explain::explain_json(&ctx, &sections));
    Ok(0)
}

/// `pic watch`: replay the recorded runs through the online monitor and
/// render the dashboard plus the optional JSON document. Pure trace
/// post-processing.
fn watch(m: &Matches) -> Result<i32, Failure> {
    let ctx = ctx_of(m);
    let runs = perf::collect(&ctx, &m.positional_names())?;
    let sections = watch::sections(&runs)?;
    for s in &sections {
        print!("{}", watch::render_section(s, m.num("--width")));
        println!();
    }
    m.write("--json", || watch::watch_json(ctx.scale, &sections));
    Ok(0)
}

fn help(_: &Matches) -> Result<i32, Failure> {
    print!("{}", cli::help());
    Ok(0)
}

/// `pic regress`: the CI performance-regression gate. Re-runs the report
/// suite, writes the fresh `BENCH_pic.json`, and diffs it against the
/// committed baseline under the one band rule of DESIGN.md §9. Exits 0
/// on a match, 1 on any diff line, 2 on a configuration problem — a
/// missing, malformed or other-scale baseline is refused before the
/// suite runs or anything is written.
fn regress(m: &Matches) -> Result<i32, Failure> {
    let tag = m.command.tag();
    let ctx = ctx_of(m);
    let baseline_path = text(m, "--baseline");
    let baseline = if m.on("--update") {
        None
    } else {
        Some(load_baseline(&tag, baseline_path, ctx.scale)?)
    };
    let out = text(m, "--out");
    let fresh_text = perf::run_suite(&tag, &ctx, m.on("--profile-host"), out)?;

    let Some(baseline) = baseline else {
        write_artifact(&tag, baseline_path, &fresh_text);
        eprintln!("[{tag}] baseline {baseline_path} updated");
        return Ok(0);
    };
    let fresh = json::parse(&fresh_text).expect("bench_json emits valid JSON");
    let diffs = json::diff(&baseline, &fresh, json::EPSILON);
    if diffs.is_empty() {
        eprintln!("[{tag}] PASS: fresh report matches {baseline_path} within tolerance");
        return Ok(0);
    }
    eprintln!(
        "[{tag}] FAIL: {} regression(s) against {baseline_path}:",
        diffs.len()
    );
    for d in &diffs {
        eprintln!("[{tag}]   {d}");
    }
    Ok(1)
}

/// The baseline `pic regress` diffs against, refused when it cannot be
/// read or parsed, or was recorded at another scale than `scale`.
fn load_baseline(tag: &str, path: &str, scale: f64) -> Result<json::Json, Failure> {
    let baseline = load_json(path).map_err(|e| {
        Input(format!(
            "baseline: {e}\n[{tag}] generate it with: pic regress --update --scale {scale}"
        ))
    })?;
    // A baseline recorded at a different scale would diff everywhere;
    // refuse up front with a clear message instead.
    let baseline_scale = baseline.get("scale").and_then(|v| v.as_f64());
    if baseline_scale != Some(scale) {
        return Err(Input(format!(
            "baseline {path} was recorded at scale {baseline_scale:?}, this run is at {scale} \
             — pass a matching --scale or refresh with --update"
        )));
    }
    Ok(baseline)
}

/// `pic repro`: regenerate the paper's tables and figures.
fn repro(m: &Matches) -> Result<i32, Failure> {
    // The whole list is checked, like every catalog flag, before the
    // first experiment runs.
    let exps = match m.get("--exp") {
        None => return Err(Usage("no experiments selected".to_string())),
        Some("all") => experiments::ALL.to_vec(),
        Some(list) => {
            let names: Vec<&str> = list.split(',').collect();
            cli::canonical("--exp", "experiment", experiments::ALL, &names)?
        }
    };
    let ctx = ctx_of(m);
    for (idx, name) in exps.iter().enumerate() {
        if idx > 0 {
            println!("\n{}\n", "=".repeat(78));
        }
        let t0 = std::time::Instant::now();
        print!("{}", experiments::run(name, &ctx)?);
        eprintln!(
            "[{name}] completed in {:.1}s (host time)",
            t0.elapsed().as_secs_f64()
        );
    }
    Ok(0)
}

/// `--cluster small | medium | large[:N]`.
fn cluster_spec(name: &str) -> Result<ClusterSpec, String> {
    const MAX_NODES: usize = 10_000;
    match name.split_once(':') {
        None if name == "small" => Ok(ClusterSpec::small()),
        None if name == "medium" => Ok(ClusterSpec::medium()),
        None if name == "large" => Ok(ClusterSpec::large(64)),
        Some(("large", n)) => match n.parse() {
            Ok(n) if (1..=MAX_NODES).contains(&n) => Ok(ClusterSpec::large(n)),
            _ => Err(format!(
                "--cluster large:N wants an integer N in 1..={MAX_NODES}, got '{n}'"
            )),
        },
        _ => Err(format!(
            "unknown cluster '{name}' (small | medium | large:N)"
        )),
    }
}

/// Run one app through both drivers on `/cli/input` and print the
/// comparison.
fn compare_and_print<A: BenchApp>(
    spec: ClusterSpec,
    app: &A,
    records: Vec<A::Record>,
    init: A::Model,
    partitions: usize,
    cost: cost::AppCost,
) {
    let workload = Workload {
        name: "cli",
        dfs_path: "/cli/input",
        spec,
        app,
        records,
        init,
        splits: partitions,
        partitions,
        cost,
    };
    let Comparison { ic, pic, .. } = workload.compare();
    let mut t = Table::new(["", "IC baseline", "PIC"]);
    t.row([
        "simulated time",
        &fmt_secs(ic.total_time_s),
        &fmt_secs(pic.total_time_s),
    ]);
    t.row([
        "iterations",
        &ic.iterations.to_string(),
        &format!(
            "{} BE + {} top-off",
            pic.be_iterations, pic.topoff_iterations
        ),
    ]);
    t.row([
        "intermediate data",
        &human_bytes(ic.traffic.get(TrafficClass::MapSpill)),
        &human_bytes(pic.traffic().get(TrafficClass::MapSpill)),
    ]);
    t.row([
        "model updates",
        &human_bytes(ic.traffic.model_update_total()),
        &human_bytes(pic.traffic().model_update_total()),
    ]);
    if let (Some(a), Some(b)) = (ic.trajectory.last(), pic.trajectory.last()) {
        t.row([
            "final error",
            &format!("{:.4}", a.err),
            &format!("{:.4}", b.err),
        ]);
    }
    println!("{}", t.render());
    println!("speedup: {}", fmt_x(ic.total_time_s / pic.total_time_s));
    println!(
        "max local iterations per BE round: {:?}",
        pic.max_local_iterations()
    );
}

/// `pic <app>`: build the app's workload from the flags and compare the
/// drivers. The cross-flag checks sit next to the constructors that
/// would otherwise panic on them.
fn launch(m: &Matches) -> Result<i32, Failure> {
    let app_name = m.command.name;
    let (n, k, side): (usize, usize, usize) = (m.num("--n"), m.num("--k"), m.num("--side"));
    let (partitions, seed): (usize, u64) = (m.num("--partitions"), m.num("--seed"));
    let spec = cluster_spec(text(m, "--cluster"))?;
    // What the app constructors would otherwise panic on.
    let need = |flag: &str, value: usize, min: usize| {
        if value >= min {
            return Ok(());
        }
        Err(format!(
            "{app_name} wants {flag} ≥ {min} with --partitions {partitions}, got '{value}'"
        ))
    };
    println!(
        "app={app_name} cluster={} ({} nodes) partitions={partitions}\n",
        spec.name, spec.nodes
    );

    match app_name {
        "kmeans" => {
            use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};
            let app = KMeansApp::new(k, 3, 1.0);
            let pts = gaussian_mixture(n, k, 3, 1000.0, 40.0, seed);
            let init = Centroids::new(init_random_centroids(k, 3, 1000.0, seed.wrapping_add(1)));
            compare_and_print(spec, &app, pts, init, partitions, cost::kmeans());
        }
        "pagerank" => {
            use pic_apps::pagerank::{block_local_graph, PageRankApp, PartitionMode};
            need("--n", n, partitions.max(2))?; // a page needs another to link to
            let g = block_local_graph(n, partitions, 2, 8, 0.9, seed);
            let app = PageRankApp::new(g.clone(), partitions, PartitionMode::Random, seed);
            let init = app.initial_model();
            compare_and_print(spec, &app, g.records(), init, partitions, cost::pagerank());
        }
        "neuralnet" => {
            use pic_apps::neuralnet::{ocr_like_split, Mlp, NeuralNetApp};
            need("--n", n, 10)?; // a tenth of the points is the validation split
            let (train, valid) = ocr_like_split(n, n / 10, 10, 64, 0.2, seed);
            let app = NeuralNetApp::new(valid);
            let init = Mlp::random(64, 32, 10, seed.wrapping_add(1));
            compare_and_print(spec, &app, train, init, partitions, cost::neuralnet());
        }
        "linsolve" => {
            use pic_apps::linsolve::{diag_dominant_system, LinSolveApp};
            need("--n", n, partitions)?;
            // The system is a dense n × n matrix of doubles.
            const MAX_MATRIX_MIB: usize = 256;
            let max_n = ((MAX_MATRIX_MIB << 20) / 8).isqrt();
            if n > max_n {
                return Err(format!(
                    "linsolve wants --n ≤ {max_n} (its dense n × n matrix must fit in \
                     {MAX_MATRIX_MIB} MiB), got '{n}'"
                )
                .into());
            }
            let sys = diag_dominant_system(n, 0.05, seed);
            let app = LinSolveApp::new(n, partitions, 1e-8).with_exact(sys.exact.clone());
            let init = vec![0.0; n];
            compare_and_print(spec, &app, sys.rows, init, partitions, cost::linsolve());
        }
        "smoothing" => {
            use pic_apps::smoothing::{noisy_image, SmoothingApp};
            need("--side", side, partitions.max(2))?; // the stencil needs 2×2
            let f = noisy_image(side, side, 0.08, seed);
            let app = SmoothingApp::new(side, side, partitions, 1e-6);
            let rows = f.rows();
            compare_and_print(spec, &app, rows, f, partitions, cost::smoothing(side));
        }
        other => unreachable!("`pic {other}` is not a Group::App table entry"),
    }
    Ok(0)
}

/// The function behind each table entry: adding a subcommand is one
/// [`cli::COMMANDS`] row plus one arm here.
fn handler(command: &Command) -> Handler {
    match (command.group, command.name) {
        (Group::App, _) => launch,
        (_, "report") => report,
        (_, "timeline") => timeline,
        (_, "chaos") => chaos,
        (_, "diff") => diff,
        (_, "explain") => explain,
        (_, "watch") => watch,
        (_, "help") => help,
        (_, "regress") => regress,
        (_, "repro") => repro,
        (_, other) => panic!("table entry `pic {other}` has no handler"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        // Bare `pic` prints the command table instead of an error.
        None | Some("--help" | "-h") => {
            print!("{}", cli::help());
            0
        }
        Some("--list-apps") => {
            perf::APPS.iter().for_each(|app| println!("{app}"));
            0
        }
        Some(word) => match cli::COMMANDS.iter().find(|c| c.name == word) {
            Some(command) => cli::run(command, &argv[1..], handler(command)),
            None => {
                eprintln!("error: {}\n\nsee `pic help`", cli::unknown_command(word));
                2
            }
        },
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    /// `handler` panics on a table entry it has no arm for; the rest of
    /// the table's contract is pinned end to end by `tests/cli_table.rs`.
    #[test]
    fn every_table_entry_has_a_handler() {
        for command in pic_bench::cli::COMMANDS {
            super::handler(command);
        }
    }
}
