//! `lotterybus-sim` — run a custom bus simulation from a plain-text
//! spec file.
//!
//! ```console
//! $ lotterybus-sim my-system.spec
//! $ lotterybus-sim my-system.spec --vcd waves.vcd   # also dump a waveform
//! $ lotterybus-sim my-system.spec --jobs 4          # replica fan-out width
//! $ lotterybus-sim --example                        # print a starter spec
//! $ cat my-system.spec | lotterybus-sim -
//! ```
//!
//! With `replicas = N` in the spec, the N independent runs (derived
//! seeds) fan out across `--jobs` worker threads; the report shows
//! replica 0 followed by a cross-replica aggregate. The worker count
//! never changes the report — results are collected in replica order —
//! and wall-clock telemetry goes to stderr only.

use lotterybus_cli::scenario_cmd::CommandError;
use lotterybus_cli::spec::{run_spec, EXAMPLE_SPEC};
use lotterybus_cli::SimSpec;
use std::io::Read;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: lotterybus-sim <spec-file | -> [--vcd <file>] [--jobs <n>]
       lotterybus-sim scenario <files-or-dirs>... [--kernel cycle|fast] [--jobs <n>] [--fleet]
       lotterybus-sim fuzz [--seed <n>] [--iters <n>] [--out <dir>] [--demo-failure]
       lotterybus-sim search <file.scenario> [--points <n>] [--top <k>] [--confirm <k>] [--kernel cycle|fast] [--bursts <a,b>] [--load-scales <x,y>] [--max-tickets <n>]
       lotterybus-sim --example";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--example") => {
            print!("{EXAMPLE_SPEC}");
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            eprintln!("run `lotterybus-sim --example > system.spec` to get started");
            if args.is_empty() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Some("scenario") => {
            subcommand_exit(lotterybus_cli::scenario_cmd::run_scenario_command(&args[1..]))
        }
        Some("fuzz") => subcommand_exit(lotterybus_cli::scenario_cmd::run_fuzz_command(&args[1..])),
        Some("search") => {
            subcommand_exit(lotterybus_cli::search_cmd::run_search_command(&args[1..]))
        }
        Some(path) => {
            let outcome = vcd_path(&args)
                .and_then(|vcd| jobs_flag(&args).map(|jobs| (vcd, jobs)))
                .and_then(|(vcd, jobs)| run(path, vcd, jobs));
            match outcome {
                Ok(report) => {
                    print!("{report}");
                    ExitCode::SUCCESS
                }
                Err(message) => {
                    eprintln!("{message}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

/// Prints a subcommand's stdout payload and maps its verdict to the
/// process exit code (reports that ran but didn't match expectations
/// still print before the non-zero exit). Usage errors — a malformed
/// command line, e.g. an unknown `--kernel` value — exit with status
/// 2; runtime failures with 1.
fn subcommand_exit(outcome: Result<(String, bool), CommandError>) -> ExitCode {
    match outcome {
        Ok((stdout, ok)) => {
            print!("{stdout}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        Err(CommandError::Usage(message)) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CommandError::Failure(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Extracts the `--vcd <file>` option, if present. A trailing `--vcd`
/// with no file is a usage error, not a silent no-op.
fn vcd_path(args: &[String]) -> Result<Option<&str>, String> {
    match args.iter().position(|a| a == "--vcd") {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(file) => Ok(Some(file.as_str())),
            None => Err(format!("error: `--vcd` requires a file argument\n{USAGE}")),
        },
    }
}

/// Extracts the `--jobs <n>` option (worker threads for replica
/// fan-out; overrides the spec's `jobs` key). `None` = not given.
fn jobs_flag(args: &[String]) -> Result<Option<usize>, String> {
    match args.iter().position(|a| a == "--jobs") {
        None => Ok(None),
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(jobs) => Ok(Some(jobs)),
            None => Err(format!("error: `--jobs` requires a number\n{USAGE}")),
        },
    }
}

fn run(path: &str, vcd: Option<&str>, jobs: Option<usize>) -> Result<String, String> {
    let text = if path == "-" {
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        buffer
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?
    };
    let mut spec = SimSpec::parse(&text).map_err(|e| e.to_string())?;
    if let Some(jobs) = jobs {
        spec.jobs = jobs;
    }
    if spec.replicas > 1 && vcd.is_some() {
        return Err(format!(
            "error: `--vcd` requires `replicas = 1` (the spec requests {})\n{USAGE}",
            spec.replicas
        ));
    }
    let start = Instant::now();
    let report = run_spec(&spec, vcd)?;
    // Telemetry stays on stderr so stdout remains a clean, diffable
    // result stream.
    eprintln!(
        "ran {} replica(s) in {:.3}s with {} worker(s)",
        spec.replicas,
        start.elapsed().as_secs_f64(),
        socsim::pool::resolve_jobs(spec.jobs).min(spec.replicas.max(1) as usize),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn vcd_flag_with_file_is_extracted() {
        assert_eq!(vcd_path(&args(&["s.spec", "--vcd", "w.vcd"])).unwrap(), Some("w.vcd"));
        assert_eq!(vcd_path(&args(&["s.spec"])).unwrap(), None);
    }

    #[test]
    fn trailing_vcd_flag_is_a_usage_error() {
        let err = vcd_path(&args(&["s.spec", "--vcd"])).unwrap_err();
        assert!(err.contains("`--vcd` requires a file argument"), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }

    #[test]
    fn jobs_flag_is_extracted_and_validated() {
        assert_eq!(jobs_flag(&args(&["s.spec", "--jobs", "4"])).unwrap(), Some(4));
        assert_eq!(jobs_flag(&args(&["s.spec"])).unwrap(), None);
        let err = jobs_flag(&args(&["s.spec", "--jobs"])).unwrap_err();
        assert!(err.contains("`--jobs` requires a number"), "{err}");
        let err = jobs_flag(&args(&["s.spec", "--jobs", "many"])).unwrap_err();
        assert!(err.contains("usage:"), "{err}");
    }
}
