//! The `search` subcommand: instant analytic design-space search
//! driven by a `.scenario` file.
//!
//! `lotterybus-sim search <file.scenario>` reads one scenario, maps
//! its masters and SLA lines onto the closed-form predictors of the
//! [`analytic`] crate, scans a million-plus (tickets, burst,
//! load-scale) design points in well under a second, and then
//! *confirms* the best short-listed candidates by running the full
//! scenario — phases, faults and all — through the simulator with the
//! candidate's weights substituted in.
//!
//! The stdout payload is deterministic JSON (wall-clock telemetry goes
//! to stderr), so CI can diff a search run byte for byte. Exit status
//! is 0 when at least one candidate is confirmed by simulation (or,
//! with `--confirm 0`, when the scan found any feasible point) and 2
//! when the SLA targets are infeasible over the scanned space or every
//! short-listed candidate failed confirmation.

use crate::scenario_cmd::CommandError;
use analytic::{
    search, Candidate, Protocol, SearchSpace, SlaTarget, TargetKind, TrafficInput, MAX_TICKETS,
};
use experiments::json::Json;
use scenario::{run_scenario, ArbiterSel, Outcome, Scenario, SlaKind};
use socsim::{BusConfig, Kernel};
use traffic_gen::SizeDist;

/// Parsed flags of the `search` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchArgs {
    /// The single `.scenario` file driving the search.
    pub path: String,
    /// Kernel used for the confirmation runs.
    pub kernel: Kernel,
    /// Minimum number of design points the scan must cover; the ticket
    /// grid is widened until it does.
    pub points: u64,
    /// Short-list size (shape-deduplicated feasible candidates).
    pub top: usize,
    /// How many short-listed candidates to confirm by simulation.
    pub confirm: usize,
    /// Burst limits to scan; empty = the scenario's own burst.
    pub bursts: Vec<u32>,
    /// Load multipliers to scan.
    pub load_scales: Vec<f64>,
    /// Fixed per-master ticket ceiling, at most [`MAX_TICKETS`];
    /// `None` auto-dimensions from `points`.
    pub max_tickets: Option<u32>,
}

/// Parses the arguments after `search`.
pub fn parse_search_args(args: &[String]) -> Result<SearchArgs, String> {
    let mut parsed = SearchArgs {
        path: String::new(),
        kernel: Kernel::Cycle,
        points: 1_000_000,
        top: 8,
        confirm: 3,
        bursts: Vec::new(),
        load_scales: vec![1.0],
        max_tickets: None,
    };
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
            "--points" => {
                parsed.points =
                    it.next().and_then(|v| v.parse().ok()).ok_or("`--points` requires a number")?;
            }
            "--top" => {
                parsed.top =
                    it.next().and_then(|v| v.parse().ok()).ok_or("`--top` requires a number")?;
                if parsed.top == 0 {
                    return Err("`--top` must be at least 1".to_owned());
                }
            }
            "--confirm" => {
                parsed.confirm = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("`--confirm` requires a number")?;
            }
            "--bursts" => {
                let list = it.next().ok_or("`--bursts` requires a comma-separated list")?;
                parsed.bursts = parse_list(list, "`--bursts`")?;
                if parsed.bursts.contains(&0) {
                    return Err("`--bursts` entries must be at least 1".to_owned());
                }
            }
            "--load-scales" => {
                let list = it.next().ok_or("`--load-scales` requires a comma-separated list")?;
                parsed.load_scales = parse_list(list, "`--load-scales`")?;
                if parsed.load_scales.iter().any(|&s: &f64| !s.is_finite() || s <= 0.0) {
                    return Err("`--load-scales` entries must be finite and > 0".to_owned());
                }
            }
            "--max-tickets" => {
                let n: u32 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("`--max-tickets` requires a number")?;
                if n == 0 || n > MAX_TICKETS {
                    return Err(format!("`--max-tickets` must be in 1..={MAX_TICKETS}, got {n}"));
                }
                parsed.max_tickets = Some(n);
            }
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unknown search flag `{flag}`: expected --kernel, --points, --top, \
                     --confirm, --bursts, --load-scales or --max-tickets"
                ))
            }
            path if parsed.path.is_empty() => parsed.path = path.to_owned(),
            extra => {
                return Err(format!(
                    "`search` takes exactly one .scenario file, got a second: `{extra}`"
                ))
            }
        }
    }
    if parsed.path.is_empty() {
        return Err("`search` needs a .scenario file whose SLAs define the targets".to_owned());
    }
    Ok(parsed)
}

/// Parses a comma-separated numeric list.
fn parse_list<T: std::str::FromStr>(list: &str, flag: &str) -> Result<Vec<T>, String> {
    let parsed: Result<Vec<T>, _> = list.split(',').map(str::parse).collect();
    parsed.map_err(|_| format!("{flag} wants a comma-separated list of numbers, got {list:?}"))
}

/// The analytic protocol standing in for a scenario's arbiter. The
/// dynamic lottery's long-run shares track its base tickets, and the
/// token ring grants one master per rotation like round-robin, so both
/// reuse the nearest static model.
fn protocol_for(sel: ArbiterSel) -> Protocol {
    match sel {
        ArbiterSel::Lottery | ArbiterSel::LotteryDynamic => Protocol::LotteryStatic,
        ArbiterSel::Priority => Protocol::StaticPriority,
        ArbiterSel::Tdma => Protocol::Tdma2Level,
        ArbiterSel::RoundRobin | ArbiterSel::TokenRing => Protocol::RoundRobin,
    }
}

/// One scannable target plus the report row describing it.
struct ScanTarget {
    target: SlaTarget,
    /// `(master name, kind keyword, bound)` for the JSON report.
    row: (String, &'static str, f64),
}

/// Splits the scenario's SLA lines into analytic scan targets and the
/// sim-only remainder (asserted during confirmation, not scanned).
/// Phase-filtered SLAs are sim-only too: the predictors model the
/// whole run at base load.
fn scan_targets(sc: &Scenario) -> (Vec<ScanTarget>, Vec<String>) {
    let mut targets = Vec::new();
    let mut sim_only = Vec::new();
    let index = |name: &str| sc.master_index(name).expect("validated scenario");
    for sla in &sc.slas {
        if sla.phase.is_some() {
            sim_only.push(format!("{} (phase-filtered)", sla.kind.keyword()));
            continue;
        }
        match &sla.kind {
            SlaKind::Bandwidth { master, min, max } => {
                if let Some(b) = min {
                    targets.push(ScanTarget {
                        target: SlaTarget { master: index(master), kind: TargetKind::MinShare(*b) },
                        row: (master.clone(), "min-share", *b),
                    });
                }
                if let Some(b) = max {
                    targets.push(ScanTarget {
                        target: SlaTarget { master: index(master), kind: TargetKind::MaxShare(*b) },
                        row: (master.clone(), "max-share", *b),
                    });
                }
            }
            SlaKind::LatencyMaster { master, p99 } => {
                targets.push(ScanTarget {
                    target: SlaTarget {
                        master: index(master),
                        kind: TargetKind::MaxP99(*p99 as f64),
                    },
                    row: (master.clone(), "max-p99", *p99 as f64),
                });
            }
            // A bus-wide p99 ceiling holds if every master's does —
            // conservative, which is the right direction for a
            // short-list that simulation then confirms.
            SlaKind::LatencyBus { p99 } => {
                for m in &sc.masters {
                    targets.push(ScanTarget {
                        target: SlaTarget {
                            master: index(&m.name),
                            kind: TargetKind::MaxP99(*p99 as f64),
                        },
                        row: (m.name.clone(), "max-p99", *p99 as f64),
                    });
                }
            }
            other => sim_only.push(other.keyword().to_owned()),
        }
    }
    (targets, sim_only)
}

/// Builds the analytic search space from the scenario: every master
/// becomes a Bernoulli stream at its long-run rate (assumption 1 of
/// the model), stalled by its addressed slave's wait states.
fn search_space(sc: &Scenario, args: &SearchArgs) -> SearchSpace {
    let bus = BusConfig { max_burst: sc.burst, ..BusConfig::new() };
    let traffic: Vec<TrafficInput> = sc
        .masters
        .iter()
        .map(|m| {
            let wait = sc.slaves.get(m.slave).map_or(0, |s| s.wait);
            TrafficInput {
                lambda: (m.load / f64::from(m.size)).min(1.0),
                size: SizeDist::fixed(m.size),
                stall: Some(bus.grant_stall(wait)),
            }
        })
        .collect();
    let mut space = SearchSpace::new(protocol_for(sc.arbiter), bus, traffic);
    space.tdma_block = sc.tdma_block;
    if !args.bursts.is_empty() {
        space.bursts = args.bursts.clone();
    }
    space.load_scales = args.load_scales.clone();
    match args.max_tickets {
        Some(n) => space.max_tickets = n,
        None => {
            space.max_tickets = 1;
            space.dimension_for(args.points);
        }
    }
    space
}

/// The scenario with one candidate's design point substituted in:
/// its weights, its burst limit, and its load scaling (clamped to the
/// grammar's (0, 1] load range).
fn candidate_scenario(sc: &Scenario, cand: &Candidate) -> Scenario {
    let mut out = sc.clone();
    out.burst = cand.burst;
    for (m, &w) in out.masters.iter_mut().zip(&cand.weights) {
        m.weight = w;
    }
    if cand.load_scale != 1.0 {
        for m in &mut out.masters {
            m.load = (m.load * cand.load_scale).min(1.0);
        }
    }
    out
}

/// Whole-run bandwidth share per master, reassembled from the phase
/// reports (words are cycle-weighted shares).
fn whole_run_shares(outcome: &Outcome) -> Vec<f64> {
    let n = outcome.phases.first().map_or(0, |p| p.shares.len());
    let total: u64 = outcome.phases.iter().map(|p| p.cycles).sum();
    (0..n)
        .map(|i| {
            if total == 0 {
                return 0.0;
            }
            let words: f64 = outcome.phases.iter().map(|p| p.shares[i] * p.cycles as f64).sum();
            words / total as f64
        })
        .collect()
}

/// One confirmation run's result.
struct Confirmation {
    confirmed: bool,
    measured_shares: Vec<f64>,
    share_error: f64,
    violations: Vec<String>,
}

/// Compares one candidate's confirmation run to its prediction.
fn confirmation(cand: &Candidate, outcome: &Outcome) -> Confirmation {
    let measured = whole_run_shares(outcome);
    let share_error = cand
        .predicted
        .iter()
        .zip(&measured)
        .map(|(p, &m)| (p.share - m).abs())
        .fold(0.0f64, f64::max);
    Confirmation {
        confirmed: outcome.passed,
        measured_shares: measured,
        share_error,
        violations: outcome.violations.iter().map(|v| v.message.clone()).collect(),
    }
}

/// Runs the confirmation simulations for the first `confirm`
/// short-listed candidates. Under the cycle kernel the whole
/// short-list is packed into one lockstep fleet
/// ([`scenario::run_scenarios_fleet`], lane-exact, so the JSON stays
/// byte-identical to per-candidate runs); other kernels confirm one
/// scenario at a time.
fn confirm_outcomes(
    sc: &Scenario,
    candidates: &[Candidate],
    confirm: usize,
    kernel: Kernel,
) -> Result<Vec<Outcome>, String> {
    let runs: Vec<Scenario> =
        candidates.iter().take(confirm).map(|cand| candidate_scenario(sc, cand)).collect();
    if kernel == Kernel::Cycle {
        let refs: Vec<&Scenario> = runs.iter().collect();
        scenario::run_scenarios_fleet(&refs)
    } else {
        runs.iter().map(|candidate| run_scenario(candidate, kernel)).collect()
    }
}

fn candidate_json(cand: &Candidate, conf: Option<&Confirmation>) -> Json {
    let predicted = cand
        .predicted
        .iter()
        .map(|p| {
            Json::obj()
                .field("share", p.share)
                .field("cycles_per_word", p.cycles_per_word.map_or(Json::Null, Json::from))
                .field("p99_latency", p.p99_latency.map_or(Json::Null, Json::from))
        })
        .collect();
    let mut json = Json::obj()
        .field(
            "weights",
            Json::Arr(cand.weights.iter().map(|&w| Json::from(u64::from(w))).collect()),
        )
        .field("burst", u64::from(cand.burst))
        .field("load_scale", cand.load_scale)
        .field("margin", cand.margin)
        .field("predicted", Json::Arr(predicted));
    json = match conf {
        None => json.field("simulated", false),
        Some(c) => json
            .field("simulated", true)
            .field("confirmed", c.confirmed)
            .field(
                "measured_shares",
                Json::Arr(c.measured_shares.iter().map(|&s| Json::from(s)).collect()),
            )
            .field("share_error", c.share_error)
            .field(
                "violations",
                Json::Arr(c.violations.iter().map(|v| Json::from(v.as_str())).collect()),
            ),
    };
    json
}

/// Runs the `search` subcommand. Returns the stdout payload and
/// whether the search succeeded: at least one candidate confirmed by
/// simulation, or — with `--confirm 0` — at least one feasible point.
pub fn run_search_command(args: &[String]) -> Result<(String, bool), CommandError> {
    let parsed = parse_search_args(args).map_err(CommandError::Usage)?;
    let text = std::fs::read_to_string(&parsed.path)
        .map_err(|e| CommandError::Failure(format!("cannot read `{}`: {e}", parsed.path)))?;
    let sc = Scenario::parse(&text)
        .map_err(|e| CommandError::Failure(format!("{}: {e}", parsed.path)))?;
    // Refuse a design the scenario's own arbiter cannot build (a static
    // lottery over more masters than its LUT holds, an oversized TDMA
    // wheel) before scanning, with the message `scenario` prints.
    scenario::build_arbiter(&sc).map_err(CommandError::Failure)?;

    let (targets, sim_only) = scan_targets(&sc);
    if targets.is_empty() {
        return Err(CommandError::Failure(format!(
            "scenario `{}` has no SLA lines the analytic model can scan (need a whole-run \
             `bandwidth` or `latency` SLA); {} sim-only SLA(s) present",
            sc.name,
            sim_only.len(),
        )));
    }
    let space = search_space(&sc, &parsed);
    let sla_targets: Vec<SlaTarget> = targets.iter().map(|t| t.target).collect();
    let start = std::time::Instant::now();
    let report = search(&space, &sla_targets, parsed.top).map_err(CommandError::Failure)?;
    let scan_wall = start.elapsed().as_secs_f64();
    eprintln!(
        "scanned {} design points ({} evaluated) in {:.3}s ({:.0} evaluations/s): {} feasible, \
         {} short-listed",
        report.scanned,
        report.evaluated,
        scan_wall,
        report.evaluated as f64 / scan_wall.max(f64::MIN_POSITIVE),
        report.feasible,
        report.candidates.len(),
    );

    let outcomes = confirm_outcomes(&sc, &report.candidates, parsed.confirm, parsed.kernel)
        .map_err(CommandError::Failure)?;
    let mut confirmations: Vec<Option<Confirmation>> = Vec::new();
    for (i, cand) in report.candidates.iter().enumerate() {
        let Some(outcome) = outcomes.get(i) else {
            confirmations.push(None);
            continue;
        };
        let conf = confirmation(cand, outcome);
        eprintln!(
            "confirm {:?} burst={} scale={}: {} (max share error {:.4})",
            cand.weights,
            cand.burst,
            cand.load_scale,
            if conf.confirmed { "confirmed" } else { "rejected" },
            conf.share_error,
        );
        confirmations.push(Some(conf));
    }
    let confirmed = confirmations.iter().flatten().filter(|c| c.confirmed).count() as u64;
    let simulated = confirmations.iter().flatten().count() as u64;

    let target_rows = targets
        .iter()
        .map(|t| {
            let (master, kind, bound) = &t.row;
            Json::obj().field("master", master.as_str()).field("kind", *kind).field("bound", *bound)
        })
        .collect();
    let candidates = report
        .candidates
        .iter()
        .zip(&confirmations)
        .map(|(c, conf)| candidate_json(c, conf.as_ref()))
        .collect();
    let json = Json::obj()
        .field("scenario", sc.name.as_str())
        .field("arbiter", sc.arbiter.keyword())
        .field("protocol_model", format!("{:?}", protocol_for(sc.arbiter)).as_str())
        .field("points", report.scanned)
        .field("max_tickets", u64::from(space.max_tickets))
        .field("feasible", report.feasible)
        .field("targets", Json::Arr(target_rows))
        .field(
            "sim_only_slas",
            Json::Arr(sim_only.iter().map(|s| Json::from(s.as_str())).collect()),
        )
        .field("simulated", simulated)
        .field("confirmed", confirmed)
        .field("candidates", Json::Arr(candidates));

    let ok = if parsed.confirm == 0 { report.feasible > 0 } else { confirmed > 0 };
    if !ok {
        eprintln!(
            "verdict: infeasible — {} over {} scanned points under the {} model",
            if report.feasible == 0 {
                "no design point satisfies the targets"
            } else {
                "no short-listed candidate survived simulation"
            },
            report.scanned,
            sc.arbiter.keyword(),
        );
    }
    Ok((json.render() + "\n", ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    fn write_scenario(name: &str, text: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir()
            .join(format!("lbsim-search-{name}-{}.scenario", std::process::id()));
        std::fs::write(&path, text).expect("temp scenario writes");
        path
    }

    const FEASIBLE: &str = "\
scenario search-feasible
seed = 11
arbiter = lottery
master cpu weight=1 load=0.60 size=16
master dsp weight=1 load=0.60 size=16
master dma weight=1 load=0.60 size=8
phase steady duration=30000
sla bandwidth master=cpu min=0.45 max=0.70
sla losses max=0
";

    #[test]
    fn search_flags_parse() {
        let parsed = parse_search_args(&args(&[
            "x.scenario",
            "--kernel",
            "fast",
            "--points",
            "4096",
            "--top",
            "4",
            "--confirm",
            "2",
            "--bursts",
            "8,16",
            "--load-scales",
            "0.8,1.0",
            "--max-tickets",
            "6",
        ]))
        .expect("valid");
        assert_eq!(
            parsed,
            SearchArgs {
                path: "x.scenario".into(),
                kernel: Kernel::Fast,
                points: 4096,
                top: 4,
                confirm: 2,
                bursts: vec![8, 16],
                load_scales: vec![0.8, 1.0],
                max_tickets: Some(6),
            }
        );
        let parsed = parse_search_args(&args(&["x.scenario"])).expect("valid");
        assert_eq!(parsed.points, 1_000_000, "default scan covers a million points");
        assert_eq!(parsed.confirm, 3);
    }

    #[test]
    fn search_flag_errors_are_actionable() {
        let e = parse_search_args(&args(&[])).unwrap_err();
        assert!(e.contains(".scenario"), "{e}");
        let e = parse_search_args(&args(&["a.scenario", "b.scenario"])).unwrap_err();
        assert!(e.contains("exactly one"), "{e}");
        let e = parse_search_args(&args(&["x", "--frobnicate"])).unwrap_err();
        assert!(e.contains("--frobnicate") && e.contains("--confirm"), "{e}");
        let e = parse_search_args(&args(&["x", "--kernel", "warp"])).unwrap_err();
        assert!(e.contains("cycle") && e.contains("tlm"), "{e}");
        let e = parse_search_args(&args(&["x", "--load-scales", "0,-1"])).unwrap_err();
        assert!(e.contains("> 0"), "{e}");
        let e = parse_search_args(&args(&["x", "--bursts", "16,0"])).unwrap_err();
        assert!(e.contains("at least 1"), "{e}");
        let e = parse_search_args(&args(&["x", "--top", "0"])).unwrap_err();
        assert!(e.contains("--top") && e.contains("at least 1"), "{e}");
        let e = parse_search_args(&args(&["x", "--max-tickets", "0"])).unwrap_err();
        assert!(e.contains("--max-tickets") && e.contains("1..=4096"), "{e}");
        let e = parse_search_args(&args(&["x", "--max-tickets", "4294967295"])).unwrap_err();
        assert!(e.contains("--max-tickets") && e.contains("1..=4096"), "{e}");
        let parsed = parse_search_args(&args(&["x", "--max-tickets", "4096"])).expect("valid");
        assert_eq!(parsed.max_tickets, Some(MAX_TICKETS));
    }

    #[test]
    fn every_arbiter_maps_to_a_protocol_model() {
        for sel in ArbiterSel::ALL {
            let _ = protocol_for(sel); // must not panic for any keyword
        }
        assert_eq!(protocol_for(ArbiterSel::TokenRing), Protocol::RoundRobin);
        assert_eq!(protocol_for(ArbiterSel::LotteryDynamic), Protocol::LotteryStatic);
    }

    #[test]
    fn slas_split_into_scannable_and_sim_only() {
        let sc = Scenario::parse(
            "scenario t\nseed = 1\narbiter = lottery\n\
             master a weight=1 load=0.5 size=16\n\
             master b weight=1 load=0.5 size=16\n\
             phase p duration=1000\n\
             sla bandwidth master=a min=0.3\n\
             sla latency master=b p99=500\n\
             sla latency p99=900\n\
             sla starvation master=a max-windows=0\n\
             sla bandwidth master=b max=0.8 phase=p\n",
        )
        .expect("valid");
        let (targets, sim_only) = scan_targets(&sc);
        // min-share + per-master p99 + bus-wide p99 fanned out to both
        // masters = 4 scannable targets.
        assert_eq!(targets.len(), 4);
        assert_eq!(targets[0].row, ("a".into(), "min-share", 0.3));
        assert_eq!(targets[1].row, ("b".into(), "max-p99", 500.0));
        assert_eq!(sim_only, vec!["starvation".to_owned(), "bandwidth (phase-filtered)".into()]);
    }

    #[test]
    fn feasible_search_confirms_by_simulation() {
        let path = write_scenario("feasible", FEASIBLE);
        let (stdout, ok) = run_search_command(&args(&[
            path.to_str().unwrap(),
            "--points",
            "4096",
            "--confirm",
            "1",
            "--kernel",
            "fast",
        ]))
        .expect("search runs");
        std::fs::remove_file(&path).ok();
        assert!(ok, "a 45% share for one of three equal masters is reachable: {stdout}");
        assert!(stdout.contains("\"confirmed\":true"), "{stdout}");
        assert!(stdout.contains("\"feasible\""), "{stdout}");
    }

    #[test]
    fn infeasible_targets_report_cleanly_without_simulating() {
        let text = FEASIBLE.replace("min=0.45 max=0.70", "min=0.99");
        let path = write_scenario("infeasible", &text);
        let (stdout, ok) = run_search_command(&args(&[path.to_str().unwrap(), "--points", "4096"]))
            .expect("search runs");
        std::fs::remove_file(&path).ok();
        assert!(!ok, "99% of a saturated 3-master bus is unreachable");
        assert!(stdout.contains("\"feasible\":0"), "{stdout}");
        assert!(stdout.contains("\"simulated\":0"), "{stdout}");
    }

    #[test]
    fn scenario_without_scannable_slas_is_a_runtime_failure() {
        let text = "scenario t\nseed = 1\narbiter = lottery\n\
                    master a weight=1 load=0.5 size=16\n\
                    phase p duration=1000\n\
                    sla losses max=0\n";
        let path = write_scenario("simonly", text);
        let err = run_search_command(&args(&[path.to_str().unwrap()])).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CommandError::Failure(_)));
        assert!(err.message().contains("bandwidth"), "{}", err.message());
    }

    #[test]
    fn missing_file_is_a_failure_not_a_usage_error() {
        let err = run_search_command(&args(&["/nonexistent.scenario"])).unwrap_err();
        assert!(matches!(err, CommandError::Failure(_)));
        let err = run_search_command(&args(&["x", "--kernel", "warp"])).unwrap_err();
        assert!(matches!(err, CommandError::Usage(_)));
    }
}
