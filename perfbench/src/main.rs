//! `perfbench` — the benchmark `BENCHMARK.json` names.
//!
//! One run starts a real `ode_server::Server` in this process, drives
//! it over the NDJSON wire protocol from two generator threads, checks
//! what came back against an independent model, and prints one JSON
//! line: the seven end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See `perfbench/README.md`.

mod bed;
mod driver;
mod layers;
mod modelio;
mod net;
mod oracle;
mod report;
mod rng;
mod span;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::UnknownWorkload;

/// The command line: `--workload <name> --seed <n> --seconds <s>
/// --trace <0|1>`.
#[derive(Debug, PartialEq, Eq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Why the command line was refused.
#[derive(Debug)]
pub enum ArgError {
    MissingValue(String),
    BadValue { flag: String, value: String },
    UnknownFlag(String),
    MissingWorkload,
    Workload(UnknownWorkload),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadValue { flag, value } => write!(f, "{flag}: cannot use {value:?}"),
            ArgError::UnknownFlag(flag) => write!(f, "unknown argument {flag:?}"),
            ArgError::MissingWorkload => write!(f, "--workload <name> is required"),
            ArgError::Workload(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (1u64, 24u64, false);
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            let value = argv
                .next()
                .ok_or_else(|| ArgError::MissingValue(flag.clone()))?;
            let bad = || ArgError::BadValue {
                flag: flag.clone(),
                value: value.clone(),
            };
            match flag.as_str() {
                "--workload" => {
                    workload::find(&value).map_err(ArgError::Workload)?;
                    workload = Some(value);
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad())?;
                    // Window 0 is warm-up; at least one more must follow.
                    if !(2..=60).contains(&seconds) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(ArgError::UnknownFlag(flag)),
            }
        }
        Ok(Args {
            workload: workload.ok_or(ArgError::MissingWorkload)?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Everything the run writes lives under here, inside the checkout the
/// command was started from.
pub fn run_root() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench-run")
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    // Counted before pinning, pinned before the first thread is
    // spawned so that all of them inherit it.
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = match net::pin_to_one_cpu() {
        Ok(cpu) => format!("cpus={cpus} pinned_cpu={cpu}"),
        Err(e) => {
            eprintln!("perfbench: cannot pin to one processor ({e}); the run will be noisier");
            format!("cpus={cpus} pinned_cpu=none")
        }
    };
    let dir = run_root().join(std::process::id().to_string());
    let result = report::run(&args, &host, &dir);
    // The run directory holds only scratch files (WAL, history, probe
    // stores); the trace file is written next to it.
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, ArgError> {
        Args::parse(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse(&[
            "--workload",
            "fanout",
            "--seed",
            "77",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "fanout".into(),
                seed: 77,
                seconds: 15,
                trace: true
            }
        );
    }

    #[test]
    fn refuses_bad_command_lines_with_a_typed_error() {
        assert!(matches!(
            parse(&["--workload", "nope"]),
            Err(ArgError::Workload(_))
        ));
        assert!(matches!(parse(&[]), Err(ArgError::MissingWorkload)));
        assert!(matches!(
            parse(&["--workload", "fanout", "--seed"]),
            Err(ArgError::MissingValue(_))
        ));
        assert!(matches!(
            parse(&["--workload", "fanout", "--trace", "2"]),
            Err(ArgError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&["--workload", "fanout", "--seconds", "1"]),
            Err(ArgError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&["--frobnicate", "1"]),
            Err(ArgError::UnknownFlag(_))
        ));
    }
}
