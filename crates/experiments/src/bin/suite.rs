//! Runs the full experiment suite and emits one deterministic JSON
//! document on stdout (or `--out FILE`).
//!
//! ```text
//! suite [--quick] [--jobs N] [--kernel K] [--out FILE]
//! ```
//!
//! * `--quick` — short measurement window (CI-friendly).
//! * `--jobs N` — worker threads; `0` (default) = all cores. Never
//!   affects the JSON output, only wall-clock time.
//! * `--kernel K` — simulation kernel, `cycle` (default) or `fast`
//!   (`tlm` is accepted as an alias of `fast`). The fast-forward kernel
//!   skips provably idle spans and the JSON output is byte-identical
//!   (the CI kernel-diff gate checks exactly that).
//! * `--out FILE` — write the JSON document to FILE instead of stdout.
//!   FILE is created before the suite runs, so an unwritable path is
//!   reported on stderr with exit status 1 without running anything.
//!
//! Malformed flags exit with status 2. Timing telemetry always goes to
//! **stderr** so stdout stays a clean, diffable result stream.

use experiments::suite::{run_suite, SuiteOptions};
use socsim::Kernel;
use std::io::Write;

fn usage() -> ! {
    eprintln!("usage: suite [--quick] [--jobs N] [--kernel cycle|fast] [--out FILE]");
    std::process::exit(2);
}

fn cannot_write(path: &str, e: std::io::Error) -> ! {
    eprintln!("suite: cannot write `{path}`: {e}");
    std::process::exit(1);
}

fn main() {
    let mut opts = SuiteOptions { quick: false, jobs: 0, kernel: Kernel::Cycle };
    let mut out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--jobs" => {
                let value = args.next().unwrap_or_else(|| usage());
                opts.jobs = value.parse().unwrap_or_else(|_| usage());
            }
            "--kernel" => {
                let value = args.next().unwrap_or_else(|| usage());
                opts.kernel = Kernel::parse(&value).unwrap_or_else(|| usage());
            }
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    let file = out
        .as_deref()
        .map(|path| (path, std::fs::File::create(path).unwrap_or_else(|e| cannot_write(path, e))));

    let run = run_suite(&opts);
    eprintln!("{}", run.telemetry.report(socsim::pool::resolve_jobs(opts.jobs)));
    match file {
        Some((path, mut file)) => {
            file.write_all((run.json + "\n").as_bytes()).unwrap_or_else(|e| cannot_write(path, e))
        }
        None => println!("{}", run.json),
    }
}
