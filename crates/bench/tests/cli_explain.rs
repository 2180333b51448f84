//! Acceptance tests for the `pic explain` CLI surface (DESIGN.md §15):
//! the unknown-subcommand error must name every recoverable entry point,
//! and the projection document must be a deterministic function of the
//! simulated runs — byte-identical across rayon pool widths.

use std::process::Command;

fn pic() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pic"))
}

/// Satellite CLI-symmetry pin: a typo'd first token exits 2 and the
/// error names every valid subcommand so the user can recover without
/// `--help`.
#[test]
fn unknown_subcommand_lists_every_subcommand() {
    let out = pic().arg("explian").output().expect("spawn pic");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    let first = stderr.lines().next().unwrap_or("");
    assert_eq!(
        first,
        "error: unknown app or subcommand 'explian'; valid apps: kmeans, \
         pagerank, neuralnet, linsolve, smoothing; valid subcommands: \
         report, timeline, chaos, diff, explain, watch, help"
    );
    for sub in [
        "report", "timeline", "chaos", "diff", "explain", "watch", "help",
    ] {
        assert!(first.contains(sub), "'{sub}' missing from: {first}");
    }
}

/// An unknown scenario name exits 2 and lists the catalog.
#[test]
fn unknown_scenario_lists_the_catalog() {
    let out = pic()
        .args(["explain", "linsolve", "--scenarios", "bisection-x3"])
        .output()
        .expect("spawn pic");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown scenario 'bisection-x3'"),
        "{stderr}"
    );
    for name in ["identity", "bisection-x2", "no-stragglers", "instant-merge"] {
        assert!(stderr.contains(name), "'{name}' missing from: {stderr}");
    }
}

/// The projection document is pure trace post-processing: running the
/// same app at the same scale on a 1-thread and a 4-thread rayon pool
/// must produce byte-identical `--json` artifacts.
#[test]
fn explain_json_is_byte_identical_across_pool_widths() {
    let dir = std::env::temp_dir().join(format!("pic-explain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut docs = Vec::new();
    for threads in ["1", "4"] {
        let path = dir.join(format!("explain-{threads}.json"));
        let out = pic()
            .env("RAYON_NUM_THREADS", threads)
            .args([
                "explain",
                "linsolve",
                "--scale",
                "0.01",
                "--json",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("spawn pic");
        assert!(
            out.status.success(),
            "explain failed on {threads} threads: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            stdout.contains("linsolve — bottleneck attribution"),
            "{stdout}"
        );
        docs.push(std::fs::read(&path).unwrap());
    }
    assert!(!docs[0].is_empty());
    assert_eq!(
        docs[0], docs[1],
        "explain --json must not depend on the rayon pool width"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
