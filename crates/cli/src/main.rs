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

use lotterybus_cli::report::render_replica_summary;
use lotterybus_cli::scenario_cmd::CommandError;
use lotterybus_cli::{render_metrics, render_report, SimSpec, TraceSinkSpec};
use socsim::{SystemBuilder, TraceSink, WindowSample};
use std::io::Read;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: lotterybus-sim <spec-file | -> [--vcd <file>] [--jobs <n>]
       lotterybus-sim scenario <files-or-dirs>... [--kernel cycle|fast] [--jobs <n>] [--fleet]
       lotterybus-sim fuzz [--seed <n>] [--iters <n>] [--out <dir>] [--demo-failure]
       lotterybus-sim search <file.scenario> [--points <n>] [--top <k>] [--confirm <k>] [--kernel cycle|fast] [--bursts <a,b>] [--load-scales <x,y>] [--max-tickets <n>]
       lotterybus-sim --example";

const EXAMPLE_SPEC: &str = "\
# lotterybus-sim example spec
arbiter = lottery       # lottery | lottery-dynamic | priority | tdma | rr | token
burst   = 16
cycles  = 200000
warmup  = 20000
seed    = 7

# master <name> weight=<w> load=<words/cycle> size=<words> [burst|periodic]
master cpu   weight=4 load=0.30 size=16
master dsp   weight=2 load=0.25 size=16 burst
master dma   weight=1 load=0.15 size=8  periodic

# Optional fault injection & recovery (uncomment to enable).
# The plan is seeded from `seed`, so runs are reproducible.
# fault slave-error  rate=0.01
# fault slave-outage rate=0.001 duration=64
# fault grant-drop   rate=0.005
# fault master-stall rate=0.002 max=8
# retry max=4 backoff=2x
# timeout  = 256      # abort transactions wedged this many cycles
# failover = 64       # wrap the arbiter; fall over to round-robin

# Optional observability (uncomment to enable).
# metrics window=1000             # windowed metrics in the report
# trace sink=jsonl:events.jsonl   # stream trace events as JSON lines
# trace sink=vcd:waves.vcd        # or stream a VCD waveform

# Optional kernel selection. `fast` skips provably idle spans and is
# byte-identical to `cycle`; `tlm` is accepted as an alias of `fast`.
# kernel = fast                   # cycle | fast (default cycle)
";

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

/// Results of one replica's run: the statistics plus the windowed
/// metric samples when the spec enables metrics.
struct SimOutcome {
    stats: socsim::BusStats,
    samples: Option<Vec<WindowSample>>,
}

/// Runs one replica's simulation; the VCD trace path and the spec's
/// streaming trace sink apply only to single-replica runs.
fn simulate(spec: &SimSpec, vcd: Option<&str>) -> Result<SimOutcome, String> {
    let mut builder = SystemBuilder::new(spec.bus_config());
    for (i, master) in spec.masters.iter().enumerate() {
        builder = builder.master(
            master.name.clone(),
            master.generator(i).build_source(spec.seed.wrapping_add(i as u64)),
        );
    }
    if let Some(fault) = spec.fault {
        builder = builder.faults(fault);
    }
    if let Some(retry) = spec.retry {
        builder = builder.retry_policy(retry);
    }
    if let Some(timeout) = spec.timeout {
        builder = builder.timeout(timeout);
    }
    if let Some(window) = spec.metrics {
        builder = builder.metrics_window(window);
    }
    if let Some(sink_spec) = &spec.trace_sink {
        builder = builder.trace_sink(build_sink(spec, sink_spec)?);
    }
    if vcd.is_some() {
        // Record enough events for the whole measured window (a grant
        // plus a word event per cycle, worst case).
        builder = builder.trace_capacity(3 * spec.cycles as usize);
    }
    let mut system = builder
        .kernel(spec.kernel)
        .arbiter(spec.build_arbiter().map_err(|e| e.to_string())?)
        .build()
        .map_err(|e| e.to_string())?;
    system.warm_up(spec.warmup);
    system.run(spec.cycles);
    if let Some(vcd_file) = vcd {
        // The buffered trace is bounded; if it overflowed, say so
        // instead of silently rendering a waveform with a hole in it.
        if system.trace().is_truncated() {
            eprintln!(
                "warning: trace buffer overflowed; {} event(s) dropped, `{vcd_file}` is \
                 incomplete (use `trace sink=vcd:...` to stream without a buffer)",
                system.trace().dropped(),
            );
        }
        let names: Vec<String> = spec.masters.iter().map(|m| m.name.clone()).collect();
        let document = socsim::vcd::trace_to_vcd(system.trace(), &names, spec.warmup + spec.cycles);
        std::fs::write(vcd_file, document)
            .map_err(|e| format!("cannot write `{vcd_file}`: {e}"))?;
    }
    if let Some(sink_spec) = &spec.trace_sink {
        system.finish_trace().map_err(|e| format!("cannot write `{}`: {e}", sink_spec.path()))?;
    }
    system.flush_metrics();
    let samples = system.metrics().map(|m| m.samples().to_vec());
    Ok(SimOutcome { stats: system.stats().clone(), samples })
}

/// Opens the spec's streaming trace destination.
fn build_sink(spec: &SimSpec, sink_spec: &TraceSinkSpec) -> Result<Box<dyn TraceSink>, String> {
    let file = std::fs::File::create(sink_spec.path())
        .map_err(|e| format!("cannot create `{}`: {e}", sink_spec.path()))?;
    let writer = std::io::BufWriter::new(file);
    Ok(match sink_spec {
        TraceSinkSpec::Jsonl(_) => Box::new(socsim::JsonlSink::new(writer)),
        TraceSinkSpec::Vcd(_) => {
            let names: Vec<String> = spec.masters.iter().map(|m| m.name.clone()).collect();
            Box::new(socsim::VcdSink::new(writer, &names, spec.warmup + spec.cycles))
        }
    })
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
    let spec = SimSpec::parse(&text).map_err(|e| e.to_string())?;
    let jobs = jobs.unwrap_or(spec.jobs);
    if spec.replicas > 1 && vcd.is_some() {
        return Err(format!(
            "error: `--vcd` requires `replicas = 1` (the spec requests {})\n{USAGE}",
            spec.replicas
        ));
    }
    let start = Instant::now();
    let report = if spec.replicas == 1 {
        let outcome = simulate(&spec, vcd)?;
        let mut report = render_report(&spec, &outcome.stats);
        if let (Some(window), Some(samples)) = (spec.metrics, &outcome.samples) {
            report.push_str(&render_metrics(&spec, window, samples));
        }
        report
    } else {
        let indices: Vec<u32> = (0..spec.replicas).collect();
        let runs =
            socsim::pool::parallel_map(jobs, &indices, |_, &r| simulate(&spec.replica(r), None))
                .into_iter()
                .collect::<Result<Vec<_>, _>>()?;
        // Replica 0 ran with the unchanged seed, so its report is
        // byte-identical to a single-replica run of the same spec.
        let mut report = render_report(&spec, &runs[0].stats);
        if let (Some(window), Some(samples)) = (spec.metrics, &runs[0].samples) {
            report.push_str(&render_metrics(&spec, window, samples));
        }
        let stats: Vec<socsim::BusStats> = runs.iter().map(|r| r.stats.clone()).collect();
        report.push_str(&render_replica_summary(&spec, &stats));
        report
    };
    // Telemetry stays on stderr so stdout remains a clean, diffable
    // result stream.
    eprintln!(
        "ran {} replica(s) in {:.3}s with {} worker(s)",
        spec.replicas,
        start.elapsed().as_secs_f64(),
        socsim::pool::resolve_jobs(jobs).min(spec.replicas.max(1) as usize),
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
    fn example_spec_parses() {
        let spec = SimSpec::parse(EXAMPLE_SPEC).expect("example spec stays valid");
        assert_eq!(spec.masters.len(), 3);
        assert!(!spec.has_fault_machinery(), "fault lines ship commented out");
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

    #[test]
    fn fast_kernel_report_is_byte_identical() {
        let base = "arbiter = lottery\ncycles = 5000\nwarmup = 500\nmetrics window=500\n\
                    master cpu weight=3 load=0.2 size=16 periodic\n\
                    master dma weight=1 load=0.1 size=8 periodic\n";
        let render = |kernel: &str| -> String {
            let spec = SimSpec::parse(&format!("kernel = {kernel}\n{base}")).expect("valid spec");
            let outcome = simulate(&spec, None).expect("runs");
            let mut report = render_report(&spec, &outcome.stats);
            if let (Some(window), Some(samples)) = (spec.metrics, &outcome.samples) {
                report.push_str(&render_metrics(&spec, window, samples));
            }
            report
        };
        assert_eq!(render("cycle"), render("fast"), "kernels must render identically");
        assert_eq!(render("cycle"), render("tlm"), "tlm is an alias of fast");
    }

    #[test]
    fn replica_fanout_is_deterministic_and_extends_the_report() {
        let text = "arbiter = lottery\ncycles = 4000\nwarmup = 0\nreplicas = 3\n\
                    master cpu weight=3 load=0.4 size=16\n\
                    master dsp weight=1 load=0.3 size=16\n";
        let spec = SimSpec::parse(text).expect("valid");
        let simulate_all = |jobs: usize| -> Vec<socsim::BusStats> {
            let indices: Vec<u32> = (0..spec.replicas).collect();
            socsim::pool::parallel_map(jobs, &indices, |_, &r| {
                simulate(&spec.replica(r), None).expect("runs").stats
            })
        };
        let serial = simulate_all(1);
        let parallel = simulate_all(3);
        assert_eq!(serial, parallel, "worker count changed replica results");
        let report = render_report(&spec, &serial[0]) + &render_replica_summary(&spec, &serial);
        assert!(report.contains("replica aggregate over 3 runs"), "{report}");
    }
}
