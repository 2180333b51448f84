//! The one front end (DESIGN.md §17): a static command table,
//! one argv parser, one usage / `pic help` renderer and one artifact
//! writer. Every `pic` command parses through [`parse`]; a new
//! subcommand is one [`COMMANDS`] entry plus one handler function in
//! `src/bin/pic.rs`.
//!
//! Each flag's [`Kind`] states the values it accepts, so out-of-range
//! input is refused here, in one line naming the flag, the value and the
//! range — never by a panic further down.

use crate::experiments::{self, chaos, report};
use crate::table::Table;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a flag accepts.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// No value: present or absent.
    Switch,
    /// No value: print this catalog, one name per line, and exit 0.
    List(&'static [&'static str]),
    /// A number in `(0, max]`.
    Positive(f64),
    /// An integer in `1..=max`.
    Count(usize),
    /// An integer ≥ 0 (seeds; row limits where 0 means "all").
    U64,
    /// A path, or a string the command's own handler validates
    /// (`--cluster large:N`, `--exp a,b|all`).
    Text,
    /// Comma-separated names of this noun from this catalog; absent
    /// means the whole catalog.
    Names(&'static str, &'static [&'static str]),
}

impl Kind {
    /// The accepted values, as the error line and the tests phrase them.
    pub fn wants(self) -> String {
        match self {
            Kind::Positive(max) => format!("a number in (0, {max}]"),
            Kind::Count(max) => format!("an integer in 1..={max}"),
            Kind::U64 => "an integer ≥ 0".into(),
            Kind::Switch | Kind::List(_) | Kind::Text => "a value".into(),
            Kind::Names(what, _) => format!("a comma-separated list of {what}s"),
        }
    }

    fn check(self, flag: &str, value: Option<&str>) -> Result<(), String> {
        let got = value.map_or("nothing".to_string(), |v| format!("'{v}'"));
        let bad = || format!("{flag} wants {}, got {got}", self.wants());
        let v = value.ok_or_else(bad)?;
        let number = |ok: &dyn Fn(f64) -> bool| v.parse::<f64>().is_ok_and(ok);
        let ok = match self {
            Kind::Switch | Kind::List(_) | Kind::Text => true,
            Kind::Positive(max) => number(&|x| 0.0 < x && x <= max),
            Kind::Count(max) => v.parse().is_ok_and(|n| (1..=max).contains(&n)),
            Kind::U64 => v.parse::<u64>().is_ok(),
            Kind::Names(what, catalog) => {
                let names: Vec<&str> = v.split(',').collect();
                return canonical(flag, what, catalog, &names).map(drop);
            }
        };
        ok.then_some(()).ok_or_else(bad)
    }
}

/// Each of `names` in the catalog's own `'static` spelling. An unknown
/// name gets the enumerating error (`unknown app 'x'; valid apps: a,
/// b`, pinned for every catalog flag by `tests/cli_table.rs`); a
/// repeated one is refused naming `source`, the flag or command that
/// listed it.
pub fn canonical(
    source: &str,
    what: &str,
    catalog: &'static [&'static str],
    names: &[&str],
) -> Result<Vec<&'static str>, String> {
    let mut found: Vec<&'static str> = Vec::new();
    for name in names {
        let name = name.trim();
        let Some(known) = catalog.iter().copied().find(|c| *c == name) else {
            let valid = catalog.join(", ");
            return Err(format!("unknown {what} '{name}'; valid {what}s: {valid}"));
        };
        if found.contains(&known) {
            return Err(format!("{source} lists {what} '{known}' twice"));
        }
        found.push(known);
    }
    Ok(found)
}

/// One flag of one command.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// `--name`.
    pub name: &'static str,
    /// Value placeholder in the usage text (`<f>`); empty for switches.
    pub metavar: &'static str,
    /// Accepted values.
    pub kind: Kind,
    /// Value when the flag is absent; empty for "none".
    pub default: &'static str,
    /// One-line help text.
    pub help: &'static str,
}

const fn flag(
    name: &'static str,
    metavar: &'static str,
    kind: Kind,
    default: &'static str,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        metavar,
        kind,
        default,
        help,
    }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    flag(name, "", Kind::Switch, "", help)
}

const fn list(name: &'static str, catalog: &'static [&'static str], help: &'static str) -> Flag {
    flag(name, "", Kind::List(catalog), "", help)
}

const fn path(name: &'static str, help: &'static str) -> Flag {
    flag(name, "<path>", Kind::Text, "", help)
}

/// Positional arguments a command takes.
#[derive(Debug, Clone, Copy)]
pub enum Positionals {
    /// Exactly these, in order (`pic diff <old.json> <new.json>`); most
    /// commands take [`NO_ARGS`].
    Exactly(&'static [&'static str]),
    /// Any number of names of this noun from this catalog; none means
    /// the whole catalog (`pic explain [apps..]`).
    Names(&'static str, &'static [&'static str]),
}

/// Where a command sits in `pic help` and in the unknown-name error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// `pic <app>`: run one case study, IC vs PIC.
    App,
    /// An analysis subcommand.
    Subcommand,
    /// A former stand-alone binary: the CI gate and the paper-figure
    /// regenerator.
    Tool,
}

/// One command: everything its parser, its usage text and its `pic
/// help` row are generated from.
#[derive(Debug)]
pub struct Command {
    /// The word after `pic`.
    pub name: &'static str,
    /// Which list it appears in.
    pub group: Group,
    /// One-line summary.
    pub summary: &'static str,
    /// DESIGN.md section that documents it (`"§9"`), or empty.
    pub design: &'static str,
    /// Positional shape.
    pub positionals: Positionals,
    /// Flags, in usage order. `--help` is implicit.
    pub flags: &'static [Flag],
}

impl Command {
    /// How the command is invoked (`pic report`).
    pub fn invocation(&self) -> String {
        format!("pic {}", self.name)
    }

    /// The `[tag]` its log lines carry: the former binaries keep theirs.
    pub fn tag(&self) -> String {
        match self.group {
            Group::Tool => self.name.to_string(),
            _ => self.invocation(),
        }
    }

    fn flag(&self, name: &str) -> &'static Flag {
        self.flags
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("{} has no flag {name}", self.invocation()))
    }
}

/// No positional arguments.
pub const NO_ARGS: Positionals = Positionals::Exactly(&[]);
const APPS: &[&str] = &report::APPS;
const WIDTH: Kind = Kind::Count(4_096);
/// Workload scale multipliers: 100× the documented sizes is already
/// 40M k-means points.
const SCALE_KIND: Kind = Kind::Positive(100.0);

const fn command(
    name: &'static str,
    group: Group,
    design: &'static str,
    positionals: Positionals,
    summary: &'static str,
    flags: &'static [Flag],
) -> Command {
    Command {
        name,
        group,
        summary,
        design,
        positionals,
        flags,
    }
}

const fn app(name: &'static str, summary: &'static str, flags: &'static [Flag]) -> Command {
    command(name, Group::App, "", NO_ARGS, summary, flags)
}

// The tables are one row per flag, aligned by hand: rustfmt would spread
// every row over seven lines and bury the columns.

#[rustfmt::skip]
const APP_FLAGS: [Flag; 6] = [
    flag("--n",          "<records>",  Kind::Count(10_000_000), "50000", "dataset size (points/pages/samples/unknowns)"),
    flag("--k",          "<clusters>", Kind::Count(10_000),     "100",   "K-means cluster count"),
    flag("--side",       "<pixels>",   Kind::Count(4_096),      "256",   "smoothing image side"),
    flag("--partitions", "<p>",        Kind::Count(4_096),      "24",    "PIC sub-problem count"),
    flag("--cluster",    "<c>",        Kind::Text,              "small", "small | medium | large:N"),
    flag("--seed",       "<s>",        Kind::U64,               "42",    "workload seed"),
];

/// `pic linsolve` defaults to the paper's 100 unknowns (DESIGN.md §4):
/// its system is a dense `n × n` matrix.
const LINSOLVE_FLAGS: [Flag; 6] = {
    let mut flags = APP_FLAGS;
    flags[0].default = "100";
    flags
};

#[rustfmt::skip]
const SCALE: Flag = flag("--scale", "<f>", SCALE_KIND, "1.0", "workload scale multiplier");
#[rustfmt::skip]
const APP_SUBSET: Flag = flag("--apps", "<a,b,..>", Kind::Names("app", APPS), "", "subset of the apps");

/// Every `pic` command, in `pic help` order.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    app("kmeans",    "K-means clustering, IC vs PIC",                  &APP_FLAGS),
    app("pagerank",  "PageRank on a block-local web graph, IC vs PIC", &APP_FLAGS),
    app("neuralnet", "MLP training on OCR-like vectors, IC vs PIC",    &APP_FLAGS),
    app("linsolve",  "Jacobi linear solver, IC vs PIC",                &LINSOLVE_FLAGS),
    app("smoothing", "image smoothing, IC vs PIC",                     &APP_FLAGS),
    command("report", Group::Subcommand, "§9", NO_ARGS, "trace-driven perf analysis of the recorded runs", &[
        SCALE,
        APP_SUBSET,
        flag("--traces",       "<dir>", Kind::Text, "",   "export Chrome about:tracing JSON per app/run"),
        flag("--path-limit",   "<n>",   Kind::U64,  "40", "critical-path lines to print (0 = all)"),
        switch("--check",      "validate every trace invariant; exit 1 on violation"),
        switch("--quality",    "print only the quality-of-convergence sections"),
        switch("--profile-host", "print host-side stage timings (DESIGN.md §14)"),
    ]),
    command("timeline", Group::Subcommand, "§11", NO_ARGS, "slot-occupancy heatmaps, IC vs PIC", &[
        SCALE,
        APP_SUBSET,
        flag("--width", "<n>", WIDTH, "48", "heatmap cells per side"),
    ]),
    command("chaos", Group::Subcommand, "§12", NO_ARGS, "fault-injection campaign, IC vs PIC", &[
        SCALE,
        flag("--scenarios", "<a,b,..>", Kind::Names("scenario", &chaos::SCENARIOS), "", "subset of the scenario matrix"),
        list("--list-scenarios", &chaos::SCENARIOS, "print the valid scenario names and exit"),
    ]),
    command("diff", Group::Subcommand, "§14", Positionals::Exactly(&["<old.json>", "<new.json>"]), "attribute the delta between two BENCH_pic.json documents under the gate's comparison", &[
        flag("--top", "<n>", Kind::U64, "15", "rows in the ranked segment table"),
        path("--json", "write the machine-readable attribution here"),
    ]),
    command("explain", Group::Subcommand, "§15", Positionals::Names("app", APPS), "counterfactual bottleneck attribution", &[
        SCALE,
        path("--json", "write the full projection document (both sides, with phases)"),
    ]),
    command("watch", Group::Subcommand, "§16", Positionals::Names("app", APPS), "online monitor replay: dashboard, alert rules, incident log", &[
        SCALE,
        flag("--width", "<n>", WIDTH, "48", "sparkline cells per series"),
        path("--json", "write the full monitor document (series + incidents)"),
    ]),
    command("help", Group::Subcommand, "", NO_ARGS, "print this command table", &[]),
    command("regress", Group::Tool, "§9", NO_ARGS, "the CI gate: diff a fresh report suite against the committed baseline under one band rule (exit 1 on regression, 2 on misconfiguration)", &[
        flag("--baseline", "<path>", Kind::Text, "BENCH_pic.json",              "the committed baseline to diff against"),
        flag("--scale",    "<f>",    SCALE_KIND, "0.05",                        "workload scale multiplier; must match the baseline's"),
        flag("--out",      "<path>", Kind::Text, "target/BENCH_pic.fresh.json", "where the fresh report is written; the suite CSVs go beside it"),
        switch("--update",    "rewrite the baseline from the fresh run instead of diffing"),
        switch("--profile-host", "record host-side stage timings (DESIGN.md §14) as host_profile in the JSON"),
    ]),
    command("repro", Group::Tool, "§4", NO_ARGS, "regenerate the paper's tables and figures", &[
        flag("--exp",   "<name[,name..]|all>", Kind::Text,     "",    "experiments to run (see --list)"),
        flag("--scale", "<f>",                 SCALE_KIND, "1.0", "multiplies every workload's record count"),
        list("--list", experiments::ALL, "print the experiment names and exit"),
    ]),
];

/// A parsed, validated argv: every value has passed its flag's [`Kind`].
#[derive(Debug)]
pub struct Matches {
    /// The command the argv was parsed against.
    pub command: &'static Command,
    /// The positional arguments, in order.
    pub positionals: Vec<String>,
    given: BTreeMap<&'static str, String>,
}

const VALIDATED: &str = "value was validated by cli::parse";

impl Matches {
    /// Whether a switch (or `--help`) was given.
    pub fn on(&self, flag: &str) -> bool {
        self.given.contains_key(flag)
    }

    /// The flag's value: as given, else its non-empty default.
    pub fn get(&self, flag: &str) -> Option<&str> {
        let default = self.command.flag(flag).default;
        match self.given.get(flag) {
            Some(v) => Some(v),
            None => (!default.is_empty()).then_some(default),
        }
    }

    /// If the path flag was given, write `doc()` there under the
    /// command's log tag (see [`write_artifact`]).
    pub fn write(&self, flag: &str, doc: impl FnOnce() -> String) {
        if let Some(path) = self.get(flag) {
            write_artifact(&self.command.tag(), path, &doc());
        }
    }

    /// A numeric flag's value (the flag must have a default).
    pub fn num<T: std::str::FromStr>(&self, flag: &str) -> T {
        let v = self.get(flag).expect("numeric flags have a default");
        v.parse().ok().expect(VALIDATED)
    }

    /// A [`Kind::Names`] flag's names in the catalog's own spelling; the
    /// whole catalog when the flag is absent.
    pub fn names(&self, flag: &str) -> Vec<&'static str> {
        let Kind::Names(what, catalog) = self.command.flag(flag).kind else {
            panic!("{flag} is not a Names flag");
        };
        let given = self
            .get(flag)
            .map_or(Vec::new(), |list| list.split(',').collect());
        resolve(flag, what, catalog, &given)
    }

    /// [`Positionals::Names`] arguments in the catalog's own spelling;
    /// the whole catalog when none were given.
    pub fn positional_names(&self) -> Vec<&'static str> {
        let Positionals::Names(what, catalog) = self.command.positionals else {
            panic!("{} takes no names", self.command.invocation());
        };
        let given: Vec<&str> = self.positionals.iter().map(String::as_str).collect();
        resolve(&self.command.invocation(), what, catalog, &given)
    }
}

/// Validated names in the catalog's spelling; none given means all.
fn resolve(
    source: &str,
    what: &str,
    catalog: &'static [&'static str],
    given: &[&str],
) -> Vec<&'static str> {
    if given.is_empty() {
        return catalog.to_vec();
    }
    canonical(source, what, catalog, given).expect(VALIDATED)
}

/// Parse `argv` (without the program and command words) against
/// `command`. Every value is checked against its flag's [`Kind`]; the
/// error is one line naming the flag, the offending value and what the
/// flag accepts.
pub fn parse(argv: &[String], command: &'static Command) -> Result<Matches, String> {
    let mut given = BTreeMap::new();
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].as_str();
        i += 1;
        if arg == "--help" || arg == "-h" {
            given.insert("--help", String::new());
        } else if !arg.starts_with("--") {
            positionals.push(arg.to_string());
        } else if let Some(f) = command.flags.iter().find(|f| f.name == arg) {
            let mut value = None;
            if !matches!(f.kind, Kind::Switch | Kind::List(_)) {
                value = argv.get(i).map(String::as_str);
                i += 1;
                f.kind.check(f.name, value)?;
            }
            given.insert(f.name, value.unwrap_or("").to_string());
        } else {
            let valid: Vec<&str> = command.flags.iter().map(|f| f.name).collect();
            return Err(format!(
                "unknown flag '{arg}' for {}; valid flags: {}, --help",
                command.invocation(),
                valid.join(", ")
            ));
        }
    }
    let inv = command.invocation();
    match command.positionals {
        _ if given.contains_key("--help") => {}
        Positionals::Exactly(metavars) => {
            if positionals.len() != metavars.len() {
                return Err(format!(
                    "{inv} takes {} positional arguments [{}], got {positionals:?}",
                    metavars.len(),
                    metavars.join(" ")
                ));
            }
        }
        Positionals::Names(what, catalog) => {
            let names: Vec<&str> = positionals.iter().map(String::as_str).collect();
            canonical(&inv, what, catalog, &names)?;
        }
    }
    Ok(Matches {
        command,
        given,
        positionals,
    })
}

/// The usage text of one command, generated from its table entry.
pub fn usage(command: &Command) -> String {
    let positionals = match command.positionals {
        Positionals::Exactly(metavars) => metavars.iter().map(|m| format!(" {m}")).collect(),
        Positionals::Names(what, _) => format!(" [{what}s..]"),
    };
    let mut out = format!(
        "usage: {}{positionals} [flags] — {}\n\nflags:\n",
        command.invocation(),
        summary(command)
    );
    for f in command.flags {
        let default = match (f.default, f.kind) {
            ("", Kind::Names(..)) => " (default all)".to_string(),
            ("", _) => String::new(),
            (d, _) => format!(" (default {d})"),
        };
        let spelled = format!("{} {}", f.name, f.metavar);
        let _ = writeln!(out, "  {spelled:<22} {}{default}", f.help);
    }
    let _ = writeln!(out, "  {:<22} print this message and exit", "--help");
    out
}

fn summary(command: &Command) -> String {
    if command.design.is_empty() {
        command.summary.to_string()
    } else {
        format!("{} (DESIGN.md {})", command.summary, command.design)
    }
}

/// `pic help`: one row per [`COMMANDS`] entry.
pub fn help() -> String {
    let mut t = Table::new(["command", "what it does"]);
    for c in COMMANDS {
        t.row([c.name.to_string(), summary(c)]);
    }
    format!(
        "pic — partitioned iterative convergence workbench\n\n\
         usage: pic <command> [flags]   (`pic <command> --help` lists the flags)\n\n\
         {}\n\
         apps: {}   (`pic --list-apps` prints one per line)\n",
        t.render(),
        names_in(Group::App)
    )
}

fn names_in(group: Group) -> String {
    let names: Vec<&str> = COMMANDS
        .iter()
        .filter(|c| c.group == group)
        .map(|c| c.name)
        .collect();
    names.join(", ")
}

/// The error for a first word that names no command: every recoverable
/// entry point, so a typo needs no `--help`.
pub fn unknown_command(word: &str) -> String {
    format!(
        "unknown app or subcommand '{word}'; valid apps: {}; valid subcommands: {}\n       \
         tools: {}",
        names_in(Group::App),
        names_in(Group::Subcommand),
        names_in(Group::Tool)
    )
}

/// Why a command stops with exit code 2.
#[derive(Debug)]
pub enum Failure {
    /// Bad argv: reported as `error: <msg>` plus the command's usage.
    /// What `?` makes of a `String` error.
    Usage(String),
    /// Unusable input (a missing baseline, a malformed document):
    /// reported as `[tag] <msg>`.
    Input(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Usage(msg)
    }
}

/// What a command does with its validated argv; `Ok` is the exit code.
pub type Handler = fn(&Matches) -> Result<i32, Failure>;

/// Parse `argv` against `command`, serve `--help` and the [`Kind::List`]
/// flags, run `handler`, and return the process exit code.
pub fn run(command: &'static Command, argv: &[String], handler: Handler) -> i32 {
    let outcome = parse(argv, command).map_err(Failure::Usage).and_then(|m| {
        if m.on("--help") {
            print!("{}", usage(command));
            return Ok(0);
        }
        for f in command.flags {
            if let Kind::List(catalog) = f.kind {
                if m.on(f.name) {
                    catalog.iter().for_each(|name| println!("{name}"));
                    return Ok(0);
                }
            }
        }
        handler(&m)
    });
    match outcome {
        Ok(code) => return code,
        Err(Failure::Usage(e)) => eprintln!("error: {e}\n\n{}", usage(command)),
        Err(Failure::Input(e)) => eprintln!("[{}] {e}", command.tag()),
    }
    2
}

/// Write `doc` to `path` (creating its directory) and log the write
/// under `[tag]`; an I/O failure is reported the same way and exits 2.
pub fn write_artifact(tag: &str, path: &str, doc: &str) {
    let dir = std::path::Path::new(path).parent();
    let written = dir
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, doc));
    if let Err(e) = written {
        eprintln!("[{tag}] cannot write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("[{tag}] wrote {path} ({} bytes)", doc.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn cmd(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    /// Every default in the table passes its own flag's check, so the
    /// typed getters can never panic on an absent flag.
    #[test]
    fn every_default_passes_its_own_kind() {
        for c in COMMANDS {
            for f in c.flags.iter().filter(|f| !f.default.is_empty()) {
                f.kind
                    .check(f.name, Some(f.default))
                    .unwrap_or_else(|e| panic!("{}: {e}", c.invocation()));
            }
        }
    }

    #[test]
    fn typed_getters_return_given_values_and_defaults() {
        let m = parse(
            &argv(&["--width", "12", "--apps", " linsolve"]),
            cmd("timeline"),
        )
        .unwrap();
        assert_eq!(m.num::<usize>("--width"), 12);
        assert_eq!(m.num::<f64>("--scale"), 1.0);
        assert_eq!(m.names("--apps"), ["linsolve"]);
        let m = parse(&[], cmd("timeline")).unwrap();
        assert_eq!(m.names("--apps"), report::APPS);
    }

    #[test]
    fn out_of_kind_values_name_flag_value_and_range() {
        let err = |name: &str, words: &[&str]| parse(&argv(words), cmd(name)).unwrap_err();
        assert_eq!(
            err("kmeans", &["--partitions", "0"]),
            "--partitions wants an integer in 1..=4096, got '0'"
        );
        assert_eq!(
            err("report", &["--scale", "inf"]),
            "--scale wants a number in (0, 100], got 'inf'"
        );
        assert_eq!(
            err("diff", &["--top", "-1"]),
            "--top wants an integer ≥ 0, got '-1'"
        );
        assert_eq!(
            err("watch", &["--width"]),
            "--width wants an integer in 1..=4096, got nothing"
        );
        assert_eq!(
            err("timeline", &["--width", " 12"]),
            "--width wants an integer in 1..=4096, got ' 12'"
        );
        assert!(err("diff", &["one.json"]).contains("takes 2 positional arguments"));
        assert!(err("report", &["stray"]).contains("takes 0 positional arguments"));
        let e = err("chaos", &["--bogus"]);
        assert!(e.starts_with("unknown flag '--bogus' for pic chaos"), "{e}");
        assert!(e.contains("--list-scenarios"), "{e}");
    }

    /// The suite documents are `pic regress`'s to write, and the views
    /// export one JSON document each: anything else is an unknown flag.
    /// `pic explain` prints its whole three-row catalog, so it has no
    /// selection flags either.
    #[test]
    fn removed_exports_are_unknown_flags() {
        let removed: [(&str, &[&str]); 5] = [
            ("report", &["--json", "--csv", "--util-csv", "--chaos-csv"]),
            (
                "explain",
                &[
                    "--side",
                    "--csv",
                    "--scenarios",
                    "--top",
                    "--list-scenarios",
                ],
            ),
            (
                "watch",
                &[
                    "--csv",
                    "--metrics",
                    "--rules",
                    "--window",
                    "--interval",
                    "--list-rules",
                ],
            ),
            ("chaos", &["--csv"]),
            (
                "regress",
                &[
                    "--csv",
                    "--util-csv",
                    "--chaos-csv",
                    "--tenancy-csv",
                    "--explain-csv",
                ],
            ),
        ];
        for (name, flags) in removed {
            for flag in flags {
                let e = parse(&argv(&[flag, "x"]), cmd(name)).unwrap_err();
                assert!(e.starts_with(&format!("unknown flag '{flag}' for pic {name}")));
            }
        }
    }

    /// A catalog name listed twice is refused at the table, before any
    /// run, by flag and by positional alike.
    #[test]
    fn a_repeated_catalog_name_is_refused() {
        let err = |name: &str, words: &[&str]| parse(&argv(words), cmd(name)).unwrap_err();
        assert_eq!(
            err("chaos", &["--scenarios", "node-crash,node-crash"]),
            "--scenarios lists scenario 'node-crash' twice"
        );
        assert_eq!(
            err("timeline", &["--apps", "kmeans, kmeans"]),
            "--apps lists app 'kmeans' twice"
        );
        assert_eq!(
            err("explain", &["linsolve", "linsolve"]),
            "pic explain lists app 'linsolve' twice"
        );
    }
}
