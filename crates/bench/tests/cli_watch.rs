//! Acceptance tests for the `pic watch` and `pic help` CLI surfaces
//! (DESIGN.md §16): the monitor document must be a deterministic
//! function of the simulated runs — byte-identical across rayon pool
//! widths — and the help table must name every dispatched subcommand.

use std::process::Command;

fn pic() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pic"))
}

/// The seven dispatched subcommands, pinned: `pic help` (and bare
/// `pic`) must list every one of them.
const SUBCOMMANDS: [&str; 7] = [
    "report", "timeline", "chaos", "diff", "explain", "watch", "help",
];

/// The monitor replay is pure trace post-processing on the simulated
/// clock: the same app at the same scale on a 1-thread and a 4-thread
/// rayon pool must produce a byte-identical `--json` document and
/// stdout (instants keep recording order at equal times).
#[test]
fn watch_json_is_byte_identical_across_pool_widths() {
    let dir = std::env::temp_dir().join(format!("pic-watch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut docs = Vec::new();
    let mut stdouts = Vec::new();
    for threads in ["1", "4"] {
        let json = dir.join(format!("watch-{threads}.json"));
        let out = pic()
            .env("RAYON_NUM_THREADS", threads)
            .args([
                "watch",
                "linsolve",
                "--scale",
                "0.01",
                "--json",
                json.to_str().unwrap(),
            ])
            .output()
            .expect("spawn pic");
        assert!(
            out.status.success(),
            "watch failed on {threads} threads: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("linsolve"), "{stdout}");
        assert!(stdout.contains("online monitor"), "{stdout}");
        assert!(stdout.contains("util:bisection"), "{stdout}");
        docs.push(std::fs::read(&json).unwrap());
        stdouts.push(stdout);
    }
    assert!(!docs[0].is_empty());
    assert_eq!(
        docs[0], docs[1],
        "watch --json must not depend on the rayon pool width"
    );
    assert_eq!(
        stdouts[0], stdouts[1],
        "the watch dashboard must not depend on the rayon pool width"
    );
    let doc = String::from_utf8(docs.remove(0)).unwrap();
    assert!(doc.starts_with("{\n  \"suite\": \"pic-watch\",\n"), "{doc}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `pic help` renders the subcommand table with every dispatched entry,
/// and bare `pic` prints the same table instead of a usage error.
#[test]
fn help_lists_every_dispatched_subcommand() {
    let help = pic().arg("help").output().expect("spawn pic");
    assert_eq!(help.status.code(), Some(0));
    let help_text = String::from_utf8(help.stdout.clone()).unwrap();
    for sub in SUBCOMMANDS {
        assert!(
            help_text.lines().any(|l| l.starts_with(sub)),
            "'{sub}' missing from help:\n{help_text}"
        );
    }
    assert!(
        help_text.contains("apps: kmeans, pagerank, neuralnet, linsolve, smoothing"),
        "{help_text}"
    );

    let bare = pic().output().expect("spawn pic");
    assert_eq!(bare.status.code(), Some(0), "bare `pic` must exit 0");
    assert_eq!(bare.stdout, help.stdout);
}
