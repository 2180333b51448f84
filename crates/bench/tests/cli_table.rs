//! The command table is the contract (DESIGN.md §17): these
//! tests iterate `pic_bench::cli::COMMANDS` and drive the real binary,
//! so a table entry cannot ship with a flag that is undocumented,
//! unparsed, or able to panic on bad input.

use pic_bench::cli::{usage, Command, Kind, COMMANDS};
use std::process::{Command as Process, Output, Stdio};

/// Run `pic <command>` with `args`.
fn invoke(command: &Command, args: &[&str]) -> Output {
    Process::new(env!("CARGO_BIN_EXE_pic"))
        .arg(command.name)
        .args(args)
        .output()
        .expect("spawn")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Exit 2 with `error: <line>` first — never a panic (101) or an abort
/// (134). Returns the error line.
fn rejected(command: &Command, args: &[&str]) -> String {
    let out = invoke(command, args);
    let stderr = stderr_of(&out);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{} {args:?} must exit 2:\n{stderr}",
        command.invocation()
    );
    let first = stderr.lines().next().unwrap_or("");
    assert!(first.starts_with("error: "), "{first}");
    first.to_string()
}

#[test]
fn help_of_every_command_documents_every_flag() {
    for command in COMMANDS {
        let out = invoke(command, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{}", command.invocation());
        let text = String::from_utf8(out.stdout).unwrap();
        assert_eq!(text, usage(command));
        assert!(text.contains(command.summary), "{text}");
        for flag in command.flags {
            assert!(text.contains(flag.name), "{} missing:\n{text}", flag.name);
            assert!(text.contains(flag.help), "{} help missing", flag.name);
            assert!(text.contains(flag.metavar), "{} metavar", flag.name);
        }
    }
}

#[test]
fn unknown_flag_lists_the_commands_valid_flags() {
    for command in COMMANDS {
        let line = rejected(command, &["--no-such-flag"]);
        assert!(line.contains("unknown flag '--no-such-flag'"), "{line}");
        assert!(line.contains(&command.invocation()), "{line}");
        for flag in command.flags {
            assert!(line.contains(flag.name), "{} missing: {line}", flag.name);
        }
    }
}

/// Values the flag's kind must refuse: never parseable garbage for the
/// numeric kinds, plus both sides of every stated range.
fn bad_values(kind: Kind) -> Vec<String> {
    match kind {
        Kind::Switch | Kind::List(_) | Kind::Text => vec![],
        Kind::Positive(max) => vec!["x".into(), "0".into(), "-1".into(), "nan".into()]
            .into_iter()
            .chain([format!("{}", max * 2.0), "inf".into()])
            .collect(),
        Kind::Count(max) => vec!["x".into(), "0".into(), "-1".into(), (max + 1).to_string()],
        Kind::U64 => vec!["x".into(), "-1".into(), "1.5".into()],
        Kind::Names(..) => vec!["no-such-name".into()],
    }
}

#[test]
fn every_value_flag_rejects_missing_garbage_and_out_of_range_values() {
    for command in COMMANDS {
        for flag in command.flags {
            if matches!(flag.kind, Kind::Switch | Kind::List(_)) {
                continue;
            }
            let line = rejected(command, &[flag.name]);
            let wants = format!("{} wants {}", flag.name, flag.kind.wants());
            assert!(line.contains(&wants), "{line}");
            assert!(line.ends_with("got nothing"), "{line}");

            for value in bad_values(flag.kind) {
                let line = rejected(command, &[flag.name, &value]);
                assert!(line.contains(&format!("'{value}'")), "{line}");
                match flag.kind {
                    Kind::Names(what, catalog) => {
                        assert!(line.contains(&format!("unknown {what}")), "{line}");
                        assert!(line.contains(&catalog.join(", ")), "{line}");
                    }
                    _ => assert!(line.contains(&wants), "{line}"),
                }
            }
        }
    }
}

/// The argv cases that panicked, aborted, were silently accepted, or
/// were refused only after an experiment had run: each now exits 2,
/// before any run, naming the flag, the value and the accepted range or
/// catalog.
#[test]
fn known_bad_argvs_are_refused_by_name() {
    let cases: [(&str, &[&str], &str); 13] = [
        (
            "kmeans",
            &["--partitions", "0"],
            "--partitions wants an integer in 1..=4096, got '0'",
        ),
        (
            "kmeans",
            &["--k", "0", "--n", "1000"],
            "--k wants an integer in 1..=10000, got '0'",
        ),
        (
            "smoothing",
            &["--side", "0"],
            "--side wants an integer in 1..=4096, got '0'",
        ),
        (
            "linsolve",
            &["--n", "0"],
            "--n wants an integer in 1..=10000000, got '0'",
        ),
        (
            "kmeans",
            &["--cluster", "large:0"],
            "--cluster large:N wants an integer N in 1..=10000, got '0'",
        ),
        (
            "pagerank",
            &["--n", "10", "--partitions", "50"],
            "pagerank wants --n ≥ 50 with --partitions 50, got '10'",
        ),
        (
            "timeline",
            &["--width", "99999999999"],
            "--width wants an integer in 1..=4096, got '99999999999'",
        ),
        (
            "report",
            &["--scale", "inf"],
            "--scale wants a number in (0, 100], got 'inf'",
        ),
        (
            "diff",
            &["--top", "-1", "old.json", "new.json"],
            "--top wants an integer ≥ 0, got '-1'",
        ),
        (
            "timeline",
            &["--width", " 12", "--scale", "0.01", "--apps", "linsolve"],
            "--width wants an integer in 1..=4096, got ' 12'",
        ),
        (
            "repro",
            &["--exp", "table9"],
            "unknown experiment 'table9'; valid experiments: fig2, fig9, fig10, fig11, \
             fig12a, fig12b, fig12c, table1, table2, table3, weak, ablation",
        ),
        (
            "repro",
            &["--exp", "fig2,", "--scale", "0.001"],
            "unknown experiment ''; valid experiments: fig2, fig9, fig10, fig11, \
             fig12a, fig12b, fig12c, table1, table2, table3, weak, ablation",
        ),
        (
            "repro",
            &["--exp", "table2,table2", "--scale", "0.001"],
            "--exp lists experiment 'table2' twice",
        ),
    ];
    for (name, args, expected) in cases {
        let command = COMMANDS.iter().find(|c| c.name == name).unwrap();
        assert_eq!(rejected(command, args), format!("error: {expected}"));
    }
}

/// The launcher's cross-flag checks: shapes the app constructors would
/// panic (or, for a one-page graph, spin) on, and a neural net too small
/// to hold out a validation point.
#[test]
fn launcher_refuses_shapes_the_apps_cannot_build() {
    let cases: [(&str, &[&str], &str); 7] = [
        ("pagerank", &["--n", "1", "--partitions", "1"], "--n ≥ 2"),
        ("linsolve", &["--n", "5", "--partitions", "10"], "--n ≥ 10"),
        (
            "smoothing",
            &["--side", "4", "--partitions", "16"],
            "--side ≥ 16",
        ),
        (
            "smoothing",
            &["--side", "1", "--partitions", "1"],
            "--side ≥ 2",
        ),
        ("kmeans", &["--cluster", "largeX"], "unknown cluster"),
        ("kmeans", &["--cluster", "large:abc"], "got 'abc'"),
        ("neuralnet", &["--n", "9"], "--n ≥ 10"),
    ];
    for (name, args, expected) in cases {
        let command = COMMANDS.iter().find(|c| c.name == name).unwrap();
        let line = rejected(command, args);
        assert!(line.contains(expected), "{line}");
    }
}

/// A baseline `pic regress` cannot diff against — missing, or recorded
/// at another scale — is refused (exit 2) before the suite runs, so
/// `--out` is never written.
#[test]
fn regress_refuses_an_unusable_baseline_before_running_the_suite() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (missing, other_scale) = (dir.join("none.json"), dir.join("scale_0.05.json"));
    let _ = std::fs::remove_file(&missing);
    std::fs::write(&other_scale, r#"{"scale": 0.05}"#).unwrap();
    let regress = COMMANDS.iter().find(|c| c.name == "regress").unwrap();
    let cases = [
        (missing, "0.05", "baseline: cannot read"),
        (
            other_scale,
            "0.01",
            "recorded at scale Some(0.05), this run is at 0.01",
        ),
    ];
    for (i, (baseline, scale, expected)) in cases.into_iter().enumerate() {
        let fresh = dir.join(format!("unwritten_{i}.json"));
        let _ = std::fs::remove_file(&fresh);
        let args = [
            "--baseline",
            baseline.to_str().unwrap(),
            "--scale",
            scale,
            "--out",
            fresh.to_str().unwrap(),
        ];
        let out = invoke(regress, &args);
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.starts_with("[regress] "), "{stderr}");
        assert!(stderr.contains(expected), "{stderr}");
        assert!(
            !fresh.exists(),
            "{} was written:\n{stderr}",
            fresh.display()
        );
    }
}

/// `pic linsolve` runs on its own defaults (the paper's 100 unknowns),
/// and a system whose dense matrix would pass the memory bound is
/// refused by name instead of being allocated until the process dies.
#[test]
fn linsolve_runs_on_its_defaults_and_refuses_a_matrix_past_the_bound() {
    let linsolve = COMMANDS.iter().find(|c| c.name == "linsolve").unwrap();
    let out = invoke(linsolve, &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("speedup: "));
    assert_eq!(
        rejected(linsolve, &["--n", "50000"]),
        "error: linsolve wants --n ≤ 5792 (its dense n × n matrix must fit in 256 MiB), \
         got '50000'"
    );
}

/// `pic kmeans`, `pic pagerank` and `pic smoothing` finish on their
/// defaults, side by side. `pic linsolve` has its own test above; `pic
/// neuralnet` on its defaults runs for minutes and has none.
#[test]
fn apps_run_on_their_defaults() {
    let runs: Vec<_> = ["kmeans", "pagerank", "smoothing"]
        .into_iter()
        .map(|app| {
            let child = Process::new(env!("CARGO_BIN_EXE_pic"))
                .arg(app)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn");
            (app, child)
        })
        .collect();
    for (app, child) in runs {
        let out = child.wait_with_output().expect("wait");
        assert_eq!(out.status.code(), Some(0), "pic {app}: {}", stderr_of(&out));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("speedup: "), "pic {app}: {stdout}");
    }
}

/// A BENCH file nested past the parser's limit is an unusable input
/// (exit 2, `[pic diff] …` naming the limit), not a stack overflow (134).
#[test]
fn a_bench_file_nested_past_the_parser_limit_is_refused() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (deep, ok) = (dir.join("deep.json"), dir.join("ok.json"));
    std::fs::write(&deep, "[".repeat(200_000) + &"]".repeat(200_000)).unwrap();
    std::fs::write(&ok, "{}").unwrap();
    let diff = COMMANDS.iter().find(|c| c.name == "diff").unwrap();
    let out = invoke(diff, &[deep.to_str().unwrap(), ok.to_str().unwrap()]);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("[pic diff] "), "{stderr}");
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");
}

#[test]
fn pic_help_has_one_row_per_table_entry() {
    let out = Process::new(env!("CARGO_BIN_EXE_pic"))
        .arg("help")
        .output()
        .expect("spawn pic");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    let rows: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    assert_eq!(rows.len(), COMMANDS.len(), "{text}");
    for (row, command) in rows.iter().zip(COMMANDS) {
        assert!(row.starts_with(command.name), "{row}");
        assert!(row.contains(command.summary), "{row}");
        assert!(row.contains(command.design), "{row}");
    }
}
