//! Command-line arguments. Every mistake is an error naming the valid
//! choices, never a panic.

use crate::workloads;

pub const USAGE: &str = "\
usage: pic-benchmark --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
                     [--threads <n>]
       pic-benchmark --list

  --workload  one of the workloads `--list` prints
  --seed      seed of the workload's inputs (default 0)
  --seconds   repetitions of the timed section start while the next one is
              expected to end within this many seconds; one always runs
              (default 20, as BENCHMARK.json's run_seconds)
  --trace     0: end-to-end metrics, nothing recorded (default)
              1: per-layer metrics from harness spans and the program's
                 hostprof registry; spans are written to benchmark/out/
  --threads   width of the rayon pool (default: min(nproc, 4))
  --list      print the workloads and why each exists";

const FLAGS: &str = "--workload, --seed, --seconds, --trace, --threads, --list";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    List,
    Run(Args),
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut threads = nproc().min(4);
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("flag '{flag}' needs a value"))
        };
        match flag.as_str() {
            "--list" => return Ok(Command::List),
            "--workload" => workload = Some(workloads::find(&value()?)?.name.to_string()),
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| {
                    format!("--seed wants a whole number from 0 to 2^64-1, got '{v}'")
                })?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => s,
                    _ => {
                        return Err(format!(
                            "--seconds wants a number of seconds >= 0, got '{v}'"
                        ))
                    }
                };
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got '{v}'")),
                };
            }
            "--threads" => {
                let v = value()?;
                threads = match v.parse::<usize>() {
                    Ok(n) if (1..=nproc()).contains(&n) => n,
                    _ => {
                        return Err(format!(
                            "--threads wants a whole number from 1 to {} (nproc), got '{v}'",
                            nproc()
                        ))
                    }
                };
            }
            other => return Err(format!("unknown flag '{other}'; known: {FLAGS}")),
        }
    }
    let workload = workload.ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("no --workload given; known: {known:?}")
    })?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
        threads,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Command, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cmd = parse_str("--workload shuffle_wide --seed 7 --seconds 15 --trace 1").unwrap();
        assert_eq!(
            cmd,
            Command::Run(Args {
                workload: "shuffle_wide".into(),
                seed: 7,
                seconds: 15.0,
                trace: true,
                threads: nproc().min(4),
            })
        );
        assert_eq!(parse_str("--list").unwrap(), Command::List);
        assert_eq!(
            parse_str("--workload kmeans_fig2 --threads 1"),
            Ok(Command::Run(Args {
                workload: "kmeans_fig2".into(),
                seed: 0,
                seconds: 20.0,
                trace: false,
                threads: 1,
            }))
        );
    }

    #[test]
    fn errors_enumerate_the_valid_choices() {
        assert_eq!(
            parse_str("--workload nope").unwrap_err(),
            "unknown workload 'nope'; known: [\"suite_regress\", \"kmeans_fig2\", \
             \"shuffle_wide\", \"tenancy_stream\"]"
        );
        assert_eq!(
            parse_str("--seed 1").unwrap_err(),
            "no --workload given; known: [\"suite_regress\", \"kmeans_fig2\", \
             \"shuffle_wide\", \"tenancy_stream\"]"
        );
        assert_eq!(
            parse_str("--wrkload x").unwrap_err(),
            "unknown flag '--wrkload'; known: --workload, --seed, --seconds, --trace, \
             --threads, --list"
        );
        assert_eq!(
            parse_str("--workload").unwrap_err(),
            "flag '--workload' needs a value"
        );
        assert_eq!(
            parse_str("--workload shuffle_wide --seed -3").unwrap_err(),
            "--seed wants a whole number from 0 to 2^64-1, got '-3'"
        );
        assert_eq!(
            parse_str("--workload shuffle_wide --seconds soon").unwrap_err(),
            "--seconds wants a number of seconds >= 0, got 'soon'"
        );
        assert_eq!(
            parse_str("--workload shuffle_wide --seconds nan").unwrap_err(),
            "--seconds wants a number of seconds >= 0, got 'nan'"
        );
        assert_eq!(
            parse_str("--workload shuffle_wide --trace 2").unwrap_err(),
            "--trace wants 0 or 1, got '2'"
        );
        let too_many = format!("--workload shuffle_wide --threads {}", nproc() + 1);
        assert_eq!(
            parse_str(&too_many).unwrap_err(),
            format!(
                "--threads wants a whole number from 1 to {} (nproc), got '{}'",
                nproc(),
                nproc() + 1
            )
        );
        assert!(parse_str("--workload shuffle_wide --threads 0").is_err());
    }
}
