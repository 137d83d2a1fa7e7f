//! The repository benchmark.
//!
//! ```text
//! lbbench --workload W [--seed S] [--seconds N] [--trace 0|1]
//! lbbench run [--seed S] --out run.json
//! lbbench trace [--seed S] --out trace.json
//! lbbench compare BASE.json NEW.json
//! lbbench compare --pairs DIR
//! ```
//!
//! The first form measures one workload and prints, as the last line of
//! stdout, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced (`--trace 0`), every per-layer metric
//! traced (`--trace 1`). The line before it holds every observation.
//! `run` re-executes the first form as one child per (workload, round),
//! round-robin, one child at a time. `trace` writes the traced run's
//! spans. `compare` prints a verdict per (workload, metric). See
//! README.md.

use experiments::json::Json;
use lbbench::workloads::{Workload, DEFAULT_SEED};
use lbbench::{compare, json, measure, stats::Summary, sweep};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Rounds of `lbbench run`.
const ROUNDS: usize = 4;

/// Seconds of timed passes per `lbbench run` child.
const CHILD_SECONDS: u64 = 10;

/// A run-queue wait above this share of a run's wall time flags the host
/// as contended.
const CONTENDED: f64 = 0.05;

fn usage() -> ExitCode {
    eprintln!(
        "usage: lbbench --workload W [--seed S] [--seconds N] [--trace 0|1]\n       \
         lbbench run [--seed S] --out FILE\n       \
         lbbench trace [--seed S] --out FILE\n       \
         lbbench compare BASE.json NEW.json\n       \
         lbbench compare --pairs DIR\n\
         workloads: scenario-library, paper-suite, dma-sweep, design-search"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(|f| run_set(f.seed, &f.out?)),
        Some("trace") => parse_flags(&args[1..]).and_then(|f| trace(f.seed, &f.out?)),
        Some("compare") => compare_cmd(&args[1..]),
        Some(_) => parse_flags(&args).and_then(|f| single(f.workload?, f.seed, f.seconds, f.trace)),
        None => Err(Error::Usage("no arguments".to_owned())),
    };
    match result {
        Ok(code) => code,
        Err(Error::Usage(msg)) => {
            eprintln!("lbbench: {msg}");
            usage()
        }
        Err(Error::Failure(msg)) => {
            eprintln!("lbbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

enum Error {
    Usage(String),
    Failure(String),
}

impl From<String> for Error {
    fn from(msg: String) -> Error {
        Error::Failure(msg)
    }
}

struct Flags {
    workload: Result<Workload, Error>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Result<String, Error>,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, Error> {
    let mut flags = Flags {
        workload: Err(Error::Usage("--workload is required".to_owned())),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        out: Err(Error::Usage("--out is required".to_owned())),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| Error::Usage(format!("{flag} needs a value")))?;
        let bad = || Error::Usage(format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => flags.workload = Ok(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => flags.seed = parse_seed(value).ok_or_else(bad)?,
            "--seconds" => {
                flags.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => flags.out = Ok(value.clone()),
            _ => return Err(Error::Usage(format!("unknown flag {flag}"))),
        }
    }
    Ok(flags)
}

/// `{"name": {"value": v, "unit": u}, …}`.
fn metrics_json<'a>(metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> Json {
    metrics.into_iter().fold(Json::obj(), |o, (name, value, unit)| {
        o.field(name, Json::obj().field("value", value).field("unit", unit))
    })
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", metrics)
        .render()
}

/// One workload, untraced or traced: the driver-facing form.
fn single(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<ExitCode, Error> {
    if traced {
        let report = sweep::run(seed, w)?;
        println!("{}", report.to_json().render());
        let metrics = report.metrics.iter().map(|(n, v, u)| (n.as_str(), *v, *u));
        println!(
            "{}",
            result_line(report.correct(), report.attempted, report.failed, metrics_json(metrics))
        );
    } else {
        let report = measure::run(w, seed, seconds)?;
        if report.runqueue_wait_frac > CONTENDED {
            eprintln!(
                "lbbench: {} waited {:.1}% of its run for a CPU; the host is contended",
                w.name(),
                report.runqueue_wait_frac * 100.0
            );
        }
        println!("{}", report.detail_json().render());
        println!(
            "{}",
            result_line(
                report.correct(),
                report.attempted,
                report.failed,
                metrics_json(report.metrics())
            )
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// A child's two report lines: every observation, then the result.
fn run_child(exe: &Path, w: Workload, seed: u64) -> Result<(Json, Json), Error> {
    let output = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &CHILD_SECONDS.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!("{} child exited with {}", w.name(), output.status).into());
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., detail, result] = lines.as_slice() else {
        return Err(format!("{} child printed no report", w.name()).into());
    };
    Ok((json::parse(detail)?, json::parse(result)?))
}

/// `lbbench run`: every workload, [`ROUNDS`] rounds, round-robin.
fn run_set(seed: u64, out: &str) -> Result<ExitCode, Error> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
    let mut children: Vec<Vec<Json>> = vec![Vec::new(); Workload::ALL.len()];
    let mut all_correct = true;
    for round in 0..ROUNDS {
        for (k, w) in Workload::ALL.into_iter().enumerate() {
            let (detail, result) = run_child(&exe, w, seed)?;
            let num = |v: &Json, key| json::get(v, key).and_then(json::as_f64).unwrap_or(f64::NAN);
            let correct = json::get(&result, "correct") == Some(&Json::Bool(true));
            all_correct &= correct;
            let metrics = json::get(&result, "metrics").and_then(json::as_obj).unwrap_or_default();
            let flat =
                metrics.iter().fold(Json::obj(), |o, (name, m)| o.field(name, num(m, "value")));
            eprintln!(
                "round {round} {:<17} pass_s {:.4} setup_s {:.3e} peak_rss_mb {:.1} wait {:.1}%{}",
                w.name(),
                num(&flat, "pass_s"),
                num(&flat, "setup_s"),
                num(&flat, "peak_rss_mb"),
                num(&detail, "runqueue_wait_frac") * 100.0,
                if correct { "" } else { "  INCORRECT" }
            );
            children[k].push(
                Json::obj()
                    .field("round", round)
                    .field("correct", correct)
                    .field("attempted", num(&result, "attempted"))
                    .field("failed", num(&result, "failed"))
                    .field("metrics", flat)
                    .field("detail", detail),
            );
        }
    }

    let mut workloads = Json::obj();
    for (w, kids) in Workload::ALL.into_iter().zip(children) {
        // Every child of a workload must have reproduced one digest.
        let digests: Vec<&Json> = kids
            .iter()
            .filter_map(|c| json::get(c, "detail").and_then(|d| json::get(d, "digest")))
            .collect();
        let agree = digests.windows(2).all(|p| p[0] == p[1]);
        if !agree {
            eprintln!("lbbench: {} children disagree on the output digest", w.name());
            all_correct = false;
        }
        let mut summaries = Json::obj();
        for name in ["pass_s", "setup_s", "peak_rss_mb"] {
            let values: Vec<f64> = kids
                .iter()
                .filter_map(|c| json::get(c, "metrics").and_then(|m| json::get(m, name)))
                .filter_map(json::as_f64)
                .collect();
            if let Some(s) = Summary::of(&values) {
                summaries = summaries.field(name, s.to_json());
            }
        }
        workloads = workloads.field(
            w.name(),
            Json::obj()
                .field("digest", digests.first().map_or(Json::Null, |d| (*d).clone()))
                .field("digests_agree", agree)
                .field("metrics", summaries)
                .field("children", Json::Arr(kids)),
        );
    }
    let doc = Json::obj()
        .field("lbbench", "run")
        .field("seed", seed)
        .field("rounds", ROUNDS)
        .field("child_seconds", CHILD_SECONDS)
        .field("available_parallelism", std::thread::available_parallelism().map_or(1, |n| n.get()))
        .field("correct", all_correct)
        .field("workloads", workloads);
    std::fs::write(out, doc.render() + "\n").map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("lbbench: wrote {out}");
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `lbbench trace`: the traced run, spans and all, to a file.
fn trace(seed: u64, out: &str) -> Result<ExitCode, Error> {
    let report = sweep::run(seed, Workload::ScenarioLibrary)?;
    std::fs::write(out, report.to_json().render() + "\n")
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    for (name, value, unit) in &report.metrics {
        eprintln!("{name:<40} {value:>14.6e} {unit}");
    }
    eprintln!("lbbench: {} of {} checks failed; wrote {out}", report.failed, report.attempted);
    Ok(if report.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn read_json(path: &Path) -> Result<Json, Error> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
}

/// `lbbench compare BASE NEW`, or `lbbench compare --pairs DIR`.
fn compare_cmd(args: &[String]) -> Result<ExitCode, Error> {
    let bench_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bounds = compare::bounds(&read_json(&bench_path)?)?;
    let rows = match args {
        [flag, dir] if flag == "--pairs" => {
            let mut pairs = Vec::new();
            for i in 0.. {
                let side = |s: &str| PathBuf::from(dir).join(format!("{s}-{i}.json"));
                let (base, new) = (side("base"), side("new"));
                if !base.exists() || !new.exists() {
                    break;
                }
                pairs.push((read_json(&base)?, read_json(&new)?));
            }
            if pairs.is_empty() {
                return Err(format!("{dir} holds no base-0.json / new-0.json pair").into());
            }
            compare::compare_pairs(&pairs, &bounds)
        }
        [base, new] => {
            compare::compare(&read_json(base.as_ref())?, &read_json(new.as_ref())?, &bounds)
        }
        _ => {
            return Err(Error::Usage("compare takes BASE.json NEW.json, or --pairs DIR".to_owned()))
        }
    };
    print!("{}", compare::render(&rows));
    Ok(ExitCode::SUCCESS)
}
