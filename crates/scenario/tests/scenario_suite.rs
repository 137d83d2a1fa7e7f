//! Integration tests over the committed scenario library and the
//! fuzzer: every `.scenario` file in `scenarios/` must parse, run to
//! its expected verdict under ALL THREE kernels with byte-identical
//! verdict JSON, and survive a render/parse round trip. The fuzzer's
//! demo campaign must keep shrinking to the committed regression
//! file.

use scenario::{fuzz, run_plan, run_scenario, FuzzConfig, PlanOutcome, Scenario};
use socsim::Kernel;
use std::path::PathBuf;

/// Repo-root `scenarios/` directory, resolved from the crate root.
fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Loads the committed library in name order, as the CLI would.
fn load_library() -> Vec<Scenario> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "scenario"))
        .collect();
    files.sort();
    assert!(files.len() >= 15, "the library ships at least 15 scenarios, found {}", files.len());
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).expect("readable");
            Scenario::parse(&text).unwrap_or_else(|e| panic!("{} does not parse: {e}", f.display()))
        })
        .collect()
}

#[test]
fn library_verdicts_match_expectations_and_kernels_agree_bytewise() {
    let library = load_library();
    let cycle = run_plan(&library, Kernel::Cycle, 0).expect("cycle plan runs");
    assert!(cycle.all_as_expected(), "cycle verdicts: {}", cycle.to_json().render());
    let fast = run_plan(&library, Kernel::Fast, 0).expect("fast plan runs");
    assert_eq!(
        cycle.to_json().render(),
        fast.to_json().render(),
        "verdict JSON must be byte-identical between cycle and fast"
    );
}

#[test]
fn library_round_trips_through_render_and_parse() {
    for sc in load_library() {
        let rendered = sc.render();
        let reparsed = Scenario::parse(&rendered)
            .unwrap_or_else(|e| panic!("render of `{}` does not re-parse: {e}", sc.name));
        assert_eq!(reparsed, sc, "`{}` round trip changed the scenario", sc.name);
    }
}

#[test]
fn failover_recovery_scenario_fires_both_transitions_in_the_degraded_phase() {
    let text = std::fs::read_to_string(scenarios_dir().join("failover-recovery.scenario"))
        .expect("library file");
    let sc = Scenario::parse(&text).expect("parses");
    let outcome = run_scenario(&sc, Kernel::Cycle).expect("runs");
    assert!(outcome.passed, "violations: {:?}", outcome.violations);
    assert_eq!(outcome.failovers, 1, "exactly one failover");
    assert_eq!(outcome.recoveries, 1, "exactly one re-promotion");
    let degraded = outcome.phases.iter().find(|p| p.name == "degraded").expect("phase exists");
    assert_eq!((degraded.failovers, degraded.recoveries), (1, 1));
    let healthy = outcome.phases.iter().find(|p| p.name == "healthy").expect("phase exists");
    assert_eq!((healthy.failovers, healthy.recoveries), (0, 0));
}

#[test]
fn plan_dependencies_gate_execution() {
    let parent_fails = Scenario::parse(
        "scenario parent\n\
         expect = fail\n\
         master cpu load=0.3\n\
         phase p duration=2000\n\
         sla utilization min=0.99\n",
    )
    .expect("valid");
    let child = Scenario::parse(
        "scenario child\n\
         after parent\n\
         master cpu load=0.3\n\
         phase p duration=2000\n",
    )
    .expect("valid");
    let rescue = Scenario::parse(
        "scenario rescue\n\
         after parent failed\n\
         master cpu load=0.3\n\
         phase p duration=2000\n",
    )
    .expect("valid");
    let report = run_plan(&[parent_fails, child, rescue], Kernel::Cycle, 0).expect("plan runs");
    assert!(report.all_as_expected(), "{}", report.to_json().render());
    let get = |name: &str| &report.entries.iter().find(|(n, _)| n == name).expect("entry exists").1;
    assert!(matches!(get("parent"), PlanOutcome::Ran(o) if !o.passed));
    assert!(
        matches!(get("child"), PlanOutcome::Skipped { reason } if reason.contains("passed")),
        "child needs `passed` and must be skipped"
    );
    assert!(matches!(get("rescue"), PlanOutcome::Ran(o) if o.passed));
}

#[test]
fn duplicate_declaration_names_are_hard_parse_errors_with_line_numbers() {
    let dup_master = "scenario dup\n\
                      master cpu load=0.3\n\
                      master cpu load=0.2\n\
                      phase p duration=1000\n";
    let err = Scenario::parse(dup_master).expect_err("duplicate master must not parse");
    assert_eq!(err.line, 3, "error must point at the second declaration");
    assert!(err.message.contains("duplicate master name \"cpu\""), "got: {}", err.message);

    let dup_slave = "scenario dup\n\
                     master cpu load=0.3\n\
                     slave mem wait=1\n\
                     slave mem wait=2\n\
                     phase p duration=1000\n";
    let err = Scenario::parse(dup_slave).expect_err("duplicate slave must not parse");
    assert_eq!(err.line, 4);
    assert!(err.message.contains("duplicate slave name \"mem\""), "got: {}", err.message);

    let dup_phase = "scenario dup\n\
                     master cpu load=0.3\n\
                     phase p duration=1000\n\
                     phase p duration=2000\n";
    let err = Scenario::parse(dup_phase).expect_err("duplicate phase must not parse");
    assert_eq!(err.line, 4);
    assert!(err.message.contains("duplicate phase name \"p\""), "got: {}", err.message);
}

#[test]
fn non_finite_sla_bounds_are_parse_errors() {
    for (sla, bound) in [
        ("sla bandwidth master=cpu min=nan", "`min=` must be a finite number, got NaN"),
        ("sla bandwidth master=cpu min=inf", "`min=` must be a finite number, got inf"),
        ("sla bandwidth master=cpu min=0.1 max=-inf", "`max=` must be a finite number, got -inf"),
        ("sla utilization min=NaN", "`min=` must be a finite number, got NaN"),
        ("sla utilization max=infinity", "`max=` must be a finite number, got inf"),
    ] {
        let text = format!("scenario bounds\nmaster cpu load=0.3\nphase p duration=1000\n{sla}\n");
        let err = Scenario::parse(&text).expect_err(sla);
        assert!(err.message.contains(bound), "{sla}: {}", err.message);
    }
}

#[test]
fn share_bounds_outside_the_unit_interval_are_parse_errors() {
    for (sla, bound) in [
        ("sla bandwidth master=cpu min=-1e10", "`min=` must lie in [0, 1], got -10000000000"),
        ("sla bandwidth master=cpu min=0.1 max=1.01", "`max=` must lie in [0, 1], got 1.01"),
        ("sla utilization min=-0.5", "`min=` must lie in [0, 1], got -0.5"),
        ("sla utilization max=2", "`max=` must lie in [0, 1], got 2"),
    ] {
        let text = format!("scenario bounds\nmaster cpu load=0.3\nphase p duration=1000\n{sla}\n");
        let err = Scenario::parse(&text).expect_err(sla);
        assert!(err.message.contains(bound), "{sla}: {}", err.message);
    }
    // The interval's ends are valid bounds.
    for sla in ["sla bandwidth master=cpu min=0 max=1", "sla utilization min=0.0 max=1.0"] {
        let text = format!("scenario bounds\nmaster cpu load=0.3\nphase p duration=1000\n{sla}\n");
        Scenario::parse(&text).unwrap_or_else(|e| panic!("{sla}: {e}"));
    }
}

#[test]
fn fuzz_smoke_finds_nothing_organically() {
    let report = fuzz(&FuzzConfig { seed: 7, iterations: 10, demo_failure: false });
    assert_eq!(report.iterations, 10);
    assert!(
        report.findings.is_empty(),
        "seed 7 must stay clean; findings: {}",
        report.to_json().render()
    );
}

#[test]
fn fuzzer_reproducers_never_contain_duplicate_names() {
    // Duplicate master/slave/phase names are hard parse errors, so a
    // shrunk reproducer carrying one would be unloadable as a
    // committed regression file. Every finding's scenario and shrunk
    // form must validate and survive a render/parse round trip
    // (which now rejects duplicates with a line number).
    for seed in [7u64, 11, 99] {
        let report = fuzz(&FuzzConfig { seed, iterations: 3, demo_failure: true });
        for finding in &report.findings {
            for sc in [&finding.scenario, &finding.shrunk] {
                sc.validate().unwrap_or_else(|e| panic!("seed {seed}: invalid scenario: {e}"));
                let reparsed = Scenario::parse(&sc.render())
                    .unwrap_or_else(|e| panic!("seed {seed}: reproducer does not re-parse: {e}"));
                assert_eq!(&reparsed, sc, "seed {seed}: reproducer round-trip drifted");
            }
        }
    }
}

#[test]
fn demo_failure_shrinks_to_the_committed_regression_file() {
    let report = fuzz(&FuzzConfig { seed: 7, iterations: 1, demo_failure: true });
    assert_eq!(report.findings.len(), 1, "the armed failure must be found");
    let finding = &report.findings[0];
    assert_eq!(finding.invariant, "verdict-fail");
    let committed =
        std::fs::read_to_string(scenarios_dir().join("regressions/fuzz-0000-min.scenario"))
            .expect("committed regression file");
    assert_eq!(
        finding.shrunk.render(),
        committed,
        "the shrinker drifted from the committed reproducer — \
         regenerate scenarios/regressions/ or fix the regression"
    );
    // The reproducer itself runs to its recorded (failing) verdict.
    let sc = Scenario::parse(&committed).expect("parses");
    let outcome = run_scenario(&sc, Kernel::Cycle).expect("runs");
    assert!(outcome.as_expected(), "reproducer no longer reproduces");
}
