//! Golden snapshot of the `search` subcommand: its stdout JSON for
//! every scannable library scenario, byte-exact.
//!
//! The scans run with `--confirm 0`, so the snapshot pins the analytic
//! side alone — the scanned and feasible counts, the short-list, its
//! order, and every predicted number — without paying for simulation.
//! One extra run scans several (burst, load-scale) cells, so the
//! per-cell dedup is pinned too.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```console
//! $ REGEN_GOLDEN=1 cargo test --test golden_search
//! $ git diff tests/golden/   # review before committing
//! ```

use lotterybus_cli::search_cmd::run_search_command;
use lotterybus_repro::experiments::json::Json;

const GOLDEN_PATH: &str = "tests/golden/search_library.json";

/// The library scenarios with at least one SLA the analytic model can
/// scan.
const SCANNABLE: [&str; 12] = [
    "arbiter-handoff-tdma",
    "atm-burst",
    "baseline-fairness",
    "bridge-congestion",
    "degraded-mode",
    "grant-glitches",
    "lottery-no-starvation",
    "mixed-criticality",
    "multi-tenant-isolation",
    "priority-starvation",
    "search-tuned",
    "token-fairness",
];

/// Every pinned invocation, as `search` argument lists.
fn invocations() -> Vec<Vec<String>> {
    let base = ["--confirm", "0", "--points", "20000"];
    let mut runs: Vec<Vec<String>> = SCANNABLE
        .iter()
        .map(|name| {
            let mut args = vec![format!("scenarios/{name}.scenario")];
            args.extend(base.iter().map(|s| (*s).to_owned()));
            args
        })
        .collect();
    let mut multi_cell = vec!["scenarios/baseline-fairness.scenario".to_owned()];
    multi_cell.extend(
        base.iter()
            .chain(&["--bursts", "8,16", "--load-scales", "0.8,1.0"])
            .map(|s| (*s).to_owned()),
    );
    runs.push(multi_cell);
    runs
}

/// One line per invocation: its arguments, its success flag, and its
/// stdout embedded verbatim (it is itself a JSON document).
fn document() -> String {
    let lines: Vec<String> = invocations()
        .iter()
        .map(|args| {
            let (stdout, ok) = run_search_command(args)
                .unwrap_or_else(|e| panic!("search {args:?} failed: {}", e.message()));
            let args = Json::from(args.join(" ").as_str()).render();
            format!("{{\"args\":{args},\"ok\":{ok},\"stdout\":{}}}", stdout.trim_end())
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[test]
fn golden_search_output_is_stable() {
    let document = document();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &document).expect("write golden snapshot");
        eprintln!("regenerated {GOLDEN_PATH}");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("cannot read {GOLDEN_PATH}: {e}; run with REGEN_GOLDEN=1 to create it")
    });
    assert_eq!(
        document, golden,
        "search output drifted from the golden snapshot; if the change is \
         intentional (model or search behaviour), regenerate with \
         REGEN_GOLDEN=1 and review the diff"
    );
}
