//! The `scenario` and `fuzz` subcommands.
//!
//! `lotterybus-sim scenario <files-or-dirs>…` parses every `.scenario`
//! file (directories are expanded to their sorted `*.scenario`
//! entries), executes them as one dependency plan, and prints the
//! verdict JSON on stdout. The JSON is deterministic and contains no
//! kernel or wall-clock information, so CI diffs a `--kernel cycle`
//! run against a `--kernel fast` run byte for byte. Exit status is
//! success iff every scenario's verdict matched its `expect` line.
//!
//! `lotterybus-sim fuzz` runs the seeded scenario fuzzer and prints
//! its report JSON; `--out <dir>` additionally writes each finding's
//! shrunk minimal reproducer as a committable `.scenario` file.

use scenario::{fuzz, FuzzConfig, Scenario};
use socsim::Kernel;
use std::path::{Path, PathBuf};

/// How a subcommand failed: usage errors (bad flags) exit with status
/// 2, runtime failures (unreadable files, invalid scenarios) with 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandError {
    /// The command line itself is malformed.
    Usage(String),
    /// The command line parsed but the command could not run.
    Failure(String),
}

impl CommandError {
    /// The human-readable message, regardless of kind.
    pub fn message(&self) -> &str {
        match self {
            CommandError::Usage(m) | CommandError::Failure(m) => m,
        }
    }
}

/// Parsed flags of the `scenario` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioArgs {
    /// Files or directories to load scenarios from.
    pub paths: Vec<String>,
    /// Simulation kernel to run under.
    pub kernel: Kernel,
    /// Worker threads (0 = all cores).
    pub jobs: usize,
    /// Pack each plan level into one lockstep fleet (lane-exact, so
    /// output is byte-identical to the default path).
    pub fleet: bool,
}

/// Parses the arguments after `scenario`.
pub fn parse_scenario_args(args: &[String]) -> Result<ScenarioArgs, String> {
    let mut parsed =
        ScenarioArgs { paths: Vec::new(), kernel: Kernel::Cycle, jobs: 0, fleet: false };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--kernel" => {
                let word = it.next().map(String::as_str).unwrap_or("nothing");
                parsed.kernel = Kernel::parse(word).ok_or(format!(
                    "`--kernel` must be `cycle` or `fast` (`tlm` is an alias of `fast`), \
                     got {word:?}"
                ))?;
            }
            "--jobs" => {
                parsed.jobs =
                    it.next().and_then(|v| v.parse().ok()).ok_or("`--jobs` requires a number")?;
            }
            "--fleet" => parsed.fleet = true,
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unknown scenario flag `{flag}`: expected --kernel, --jobs or --fleet"
                ))
            }
            path => parsed.paths.push(path.to_owned()),
        }
    }
    if parsed.paths.is_empty() {
        return Err("`scenario` needs at least one .scenario file or directory".to_owned());
    }
    Ok(parsed)
}

/// Expands files and directories into the ordered list of `.scenario`
/// files to load. Directory entries are sorted by name so a directory
/// is a deterministic plan.
pub fn collect_scenario_files(paths: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for path in paths {
        let p = Path::new(path);
        if p.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(p)
                .map_err(|e| format!("cannot read directory `{path}`: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "scenario"))
                .collect();
            entries.sort();
            if entries.is_empty() {
                return Err(format!("directory `{path}` contains no .scenario files"));
            }
            files.extend(entries);
        } else {
            files.push(p.to_path_buf());
        }
    }
    Ok(files)
}

/// Loads and parses every scenario file.
fn load_scenarios(files: &[PathBuf]) -> Result<Vec<Scenario>, String> {
    files
        .iter()
        .map(|file| {
            let text = std::fs::read_to_string(file)
                .map_err(|e| format!("cannot read `{}`: {e}", file.display()))?;
            Scenario::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
        })
        .collect()
}

/// Runs the `scenario` subcommand. Returns the stdout payload and
/// whether every scenario matched its expectation.
pub fn run_scenario_command(args: &[String]) -> Result<(String, bool), CommandError> {
    let parsed = parse_scenario_args(args).map_err(CommandError::Usage)?;
    let files = collect_scenario_files(&parsed.paths).map_err(CommandError::Failure)?;
    let scenarios = load_scenarios(&files).map_err(CommandError::Failure)?;
    let report = if parsed.fleet {
        scenario::run_plan_fleet(&scenarios).map_err(CommandError::Failure)?
    } else {
        scenario::run_plan(&scenarios, parsed.kernel, parsed.jobs).map_err(CommandError::Failure)?
    };
    let ok = report.all_as_expected();
    eprintln!(
        "ran {} scenario(s) under the {} kernel: {}",
        scenarios.len(),
        if parsed.fleet { "fleet-packed cycle" } else { parsed.kernel.name() },
        if ok { "all as expected" } else { "unexpected verdicts" },
    );
    Ok((report.to_json().render() + "\n", ok))
}

/// Parsed flags of the `fuzz` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzArgs {
    /// Campaign seed.
    pub seed: u64,
    /// Scenarios to generate.
    pub iters: u32,
    /// Directory for shrunk reproducers, if any.
    pub out: Option<String>,
    /// Arm the deterministic demo failure.
    pub demo: bool,
}

/// Parses the arguments after `fuzz`.
pub fn parse_fuzz_args(args: &[String]) -> Result<FuzzArgs, String> {
    let mut parsed = FuzzArgs { seed: 7, iters: 20, out: None, demo: false };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                parsed.seed =
                    it.next().and_then(|v| v.parse().ok()).ok_or("`--seed` requires a number")?;
            }
            "--iters" => {
                parsed.iters =
                    it.next().and_then(|v| v.parse().ok()).ok_or("`--iters` requires a number")?;
            }
            "--out" => {
                parsed.out = Some(it.next().ok_or("`--out` requires a directory")?.clone());
            }
            "--demo-failure" => parsed.demo = true,
            other => {
                return Err(format!(
                    "unknown fuzz flag `{other}`: expected --seed, --iters, --out or \
                     --demo-failure"
                ))
            }
        }
    }
    Ok(parsed)
}

/// Runs the `fuzz` subcommand. Returns the stdout payload and whether
/// the campaign counts as successful: no findings in normal mode; in
/// `--demo-failure` mode, at least one finding and nothing but the
/// injected `verdict-fail` kind.
pub fn run_fuzz_command(args: &[String]) -> Result<(String, bool), CommandError> {
    let parsed = parse_fuzz_args(args).map_err(CommandError::Usage)?;
    let config =
        FuzzConfig { seed: parsed.seed, iterations: parsed.iters, demo_failure: parsed.demo };
    let report = fuzz(&config);
    if let Some(dir) = &parsed.out {
        std::fs::create_dir_all(dir)
            .map_err(|e| CommandError::Failure(format!("cannot create `{dir}`: {e}")))?;
        for finding in &report.findings {
            let path = Path::new(dir).join(format!("{}.scenario", finding.shrunk.name));
            std::fs::write(&path, finding.shrunk.render()).map_err(|e| {
                CommandError::Failure(format!("cannot write `{}`: {e}", path.display()))
            })?;
            eprintln!("wrote shrunk reproducer {}", path.display());
        }
    }
    let ok = if parsed.demo {
        !report.findings.is_empty() && report.findings.iter().all(|f| f.invariant == "verdict-fail")
    } else {
        report.findings.is_empty()
    };
    eprintln!("fuzzed {} scenario(s), {} finding(s)", report.iterations, report.findings.len());
    Ok((report.to_json().render() + "\n", ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn scenario_flags_parse() {
        let parsed = parse_scenario_args(&args(&["scenarios", "--kernel", "fast", "--jobs", "2"]))
            .expect("valid");
        assert_eq!(
            parsed,
            ScenarioArgs {
                paths: vec!["scenarios".into()],
                kernel: Kernel::Fast,
                jobs: 2,
                fleet: false,
            }
        );
        let parsed = parse_scenario_args(&args(&["scenarios", "--kernel", "tlm"])).expect("valid");
        assert_eq!(parsed.kernel, Kernel::Tlm);
        let parsed = parse_scenario_args(&args(&["scenarios"])).expect("valid");
        assert_eq!(parsed.kernel, Kernel::Cycle, "default is the reference kernel");
        let parsed = parse_scenario_args(&args(&["scenarios", "--fleet"])).expect("valid");
        assert!(parsed.fleet, "--fleet switches to the packed executor");
    }

    #[test]
    fn scenario_flag_errors_are_actionable() {
        let e = parse_scenario_args(&args(&["dir", "--kernel", "warp"])).unwrap_err();
        assert!(e.contains("cycle") && e.contains("fast") && e.contains("tlm"), "{e}");
        let e = parse_scenario_args(&args(&["dir", "--frobnicate"])).unwrap_err();
        assert!(e.contains("--frobnicate") && e.contains("--fleet"), "{e}");
        // An unknown flag is a usage error (exit 2), not a runtime
        // failure, even when it takes an argument.
        let e = parse_scenario_args(&args(&["dir", "--bench", "x"])).unwrap_err();
        assert!(e.contains("--bench"), "{e}");
        let err = run_scenario_command(&args(&["dir", "--bench", "x"])).unwrap_err();
        assert!(matches!(err, CommandError::Usage(_)), "--bench must be a usage error");
        let e = parse_scenario_args(&args(&[])).unwrap_err();
        assert!(e.contains(".scenario"), "{e}");
    }

    #[test]
    fn unknown_kernel_is_a_usage_error_not_a_panic() {
        let err = run_scenario_command(&args(&["dir", "--kernel", "warp"])).unwrap_err();
        assert!(matches!(err, CommandError::Usage(_)), "bad --kernel must be a usage error");
        assert!(err.message().contains("tlm"), "{}", err.message());
        // A well-formed command line that fails at runtime is not a
        // usage error.
        let err = run_scenario_command(&args(&["/nonexistent-dir-for-test"])).unwrap_err();
        assert!(matches!(err, CommandError::Failure(_)));
    }

    #[test]
    fn fuzz_flags_parse() {
        let parsed = parse_fuzz_args(&args(&["--seed", "5", "--iters", "3", "--demo-failure"]))
            .expect("valid");
        assert_eq!(parsed, FuzzArgs { seed: 5, iters: 3, out: None, demo: true });
        let e = parse_fuzz_args(&args(&["--seed"])).unwrap_err();
        assert!(e.contains("--seed"), "{e}");
    }
}
