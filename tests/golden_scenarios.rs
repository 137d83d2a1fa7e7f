//! Golden snapshot of the `scenario` subcommand: the verdict JSON for
//! the whole `scenarios/` library, byte-exact, on three engines:
//!
//! - `--kernel cycle` runs each scenario as a one-lane `Fleet`, which
//!   batches tenures (fault lanes step each arbitration);
//! - `--kernel fast` runs each as a scalar `System` that idle-skips;
//! - `--fleet` packs every scenario of a plan level into one `Fleet`.
//!
//! None of them steps every cycle. The per-cycle scalar oracle is
//! checked against the default path, verdicts and windowed samples, by
//! the `scenario` crate's unit test
//! `default_path_matches_the_per_cycle_oracle_on_every_library_scenario`.
//!
//! The library is the one workload that switches generators at phase
//! boundaries, so this pins where each phase's arrival processes start
//! drawing, on every engine that can run it.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```console
//! $ REGEN_GOLDEN=1 cargo test --test golden_scenarios
//! $ git diff tests/golden/   # review before committing
//! ```

use lotterybus_cli::scenario_cmd::run_scenario_command;

const GOLDEN_PATH: &str = "tests/golden/scenario_library.json";

/// The verdict document of `scenario scenarios <flags>`.
fn verdicts(flags: &[&str]) -> String {
    let args: Vec<String> =
        std::iter::once("scenarios").chain(flags.iter().copied()).map(str::to_owned).collect();
    let (stdout, ok) = run_scenario_command(&args)
        .unwrap_or_else(|e| panic!("scenario {args:?} failed: {}", e.message()));
    assert!(ok, "scenario {args:?}: a library verdict no longer matches its `expect` line");
    stdout
}

#[test]
fn golden_scenario_library_is_stable_on_every_engine() {
    let document = verdicts(&["--kernel", "cycle", "--jobs", "1"]);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &document).expect("write golden snapshot");
        eprintln!("regenerated {GOLDEN_PATH}");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("cannot read {GOLDEN_PATH}: {e}; run with REGEN_GOLDEN=1 to create it")
    });
    assert_eq!(
        document, golden,
        "scenario verdicts drifted from the golden snapshot; if the change is \
         intentional, regenerate with REGEN_GOLDEN=1 and review the diff"
    );
    assert_eq!(verdicts(&["--kernel", "fast", "--jobs", "2"]), golden, "fast kernel");
    assert_eq!(verdicts(&["--fleet"]), golden, "fleet packing");
}
