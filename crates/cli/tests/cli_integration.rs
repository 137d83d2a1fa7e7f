//! Integration tests driving the `lotterybus-sim` binary end to end.

use std::process::Command;

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lotterybus-sim"))
}

fn write_spec(name: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("lbsim-test-{name}-{}", std::process::id()));
    std::fs::write(&path, text).expect("write spec");
    path
}

const SPEC: &str = "\
arbiter = lottery
burst = 16
cycles = 20000
warmup = 1000
seed = 7
master cpu weight=3 load=0.5 size=16
master dma weight=1 load=0.5 size=16
";

#[test]
fn example_flag_prints_a_parseable_spec() {
    let out = binary().arg("--example").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("arbiter"));
    assert!(lotterybus_cli::SimSpec::parse(&text).is_ok(), "example must parse");
}

#[test]
fn runs_a_spec_and_reports_shares() {
    let path = write_spec("basic", SPEC);
    let out = binary().arg(&path).output().expect("run");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8(out.stdout).expect("utf8");
    assert!(report.contains("cpu"));
    assert!(report.contains("dma"));
    assert!(report.contains("bus utilization"));
}

#[test]
fn writes_a_vcd_when_asked() {
    let spec = write_spec("vcd", SPEC);
    let vcd = std::env::temp_dir().join(format!("lbsim-test-{}.vcd", std::process::id()));
    let out = binary().arg(&spec).arg("--vcd").arg(&vcd).output().expect("run");
    std::fs::remove_file(&spec).ok();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let dump = std::fs::read_to_string(&vcd).expect("vcd written");
    std::fs::remove_file(&vcd).ok();
    assert!(dump.starts_with("$date"));
    assert!(dump.contains("grant_cpu"));
    assert!(dump.contains("$enddefinitions"));
}

#[test]
fn bad_specs_fail_with_line_numbers() {
    let path = write_spec("bad", "arbiter = nonsense\nmaster a load=0.1\n");
    let out = binary().arg(&path).output().expect("run");
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("line 1"), "{err}");
}

#[test]
fn duplicate_master_names_exit_1_with_the_line() {
    let path = write_spec("dup", "master a load=0.1\nmaster b load=0.1\nmaster a load=0.2\n");
    let out = binary().arg(&path).output().expect("run");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no report for a rejected spec");
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("line 3: duplicate master name `a`"), "{err}");
}

#[test]
fn missing_file_reports_cleanly() {
    let out = binary().arg("/nonexistent/definitely-missing.spec").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// The path of a library scenario.
fn library_scenario(name: &str) -> String {
    format!("{}/../../scenarios/{name}.scenario", env!("CARGO_MANIFEST_DIR"))
}

/// Runs `search` on a library scenario without confirmation runs.
fn scan(name: &str, flags: &[&str]) -> std::process::Output {
    binary()
        .arg("search")
        .arg(library_scenario(name))
        .args(["--confirm", "0"])
        .args(flags)
        .output()
        .expect("run")
}

#[test]
fn unsaturated_lottery_scenarios_scan_with_one_evaluation() {
    // Their summed demand fits on the bus, so tickets change no
    // prediction and one evaluation stands for the million points.
    for name in ["bridge-congestion", "grant-glitches"] {
        let out = scan(name, &[]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: {err}");
        assert!(err.contains("(1 evaluated)"), "{name}: {err}");
        assert!(err.contains("evaluations/s"), "{name}: {err}");
    }
}

#[test]
fn max_tickets_accepts_4096_and_rejects_4097() {
    let out = scan("bridge-congestion", &["--max-tickets", "4096"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    // Three masters: 4096³ points.
    assert!(err.contains("scanned 68719476736 design points (1 evaluated)"), "{err}");
    let out = scan("bridge-congestion", &["--max-tickets", "4097"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("`--max-tickets` must be in 1..=4096, got 4097"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn priority_scan_evaluates_each_priority_order_once() {
    // Three masters have six priority orders; the million points
    // reuse their margins.
    let out = scan("priority-starvation", &[]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("scanned 1000000 design points (6 evaluated)"), "{err}");
}

#[test]
fn non_finite_sla_bounds_exit_1_from_scenario_and_search() {
    for bound in ["nan", "inf"] {
        let path = write_spec(
            &format!("{bound}-bound.scenario"),
            &format!(
                "scenario bounds\nmaster cpu load=0.3\nmaster dma load=0.3\n\
                 phase p duration=1000\nsla bandwidth master=cpu min={bound}\n"
            ),
        );
        for command in ["scenario", "search"] {
            let out = binary().arg(command).arg(&path).output().expect("run");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} min={bound}: {err}");
            assert!(err.contains("`min=` must be a finite number"), "{command}: {err}");
            assert!(out.stdout.is_empty(), "{command} min={bound} printed a report");
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Runs `cmd` and returns its output, failing the test if it has not
/// exited within `secs` seconds (the child is killed first).
fn output_within(mut cmd: Command, secs: u64) -> std::process::Output {
    use std::process::Stdio;
    let mut child = cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().expect("spawn");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(secs);
    while child.try_wait().expect("poll child").is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            panic!("still running after {secs} s");
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect output")
}

#[test]
fn vanishing_loads_finish_promptly() {
    // A load this small saturates the bursty off period to u64::MAX;
    // the traffic generator must read that as "no further burst", not
    // wrap around and queue messages until memory runs out.
    let spec = write_spec(
        "tiny-load-spec",
        "cycles = 2000\nwarmup = 100\nmaster a load=1e-20 burst\nmaster b load=0.2\n",
    );
    let mut cmd = binary();
    cmd.arg(&spec);
    let out = output_within(cmd, 60);
    std::fs::remove_file(&spec).ok();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    let scenario = write_spec(
        "tiny-load.scenario",
        "scenario tiny-load\nmaster a load=1e-20 burst\nphase p duration=100\n",
    );
    for fleet in [false, true] {
        let mut cmd = binary();
        cmd.arg("scenario").arg(&scenario);
        if fleet {
            cmd.arg("--fleet");
        }
        let out = output_within(cmd, 60);
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    }
    std::fs::remove_file(&scenario).ok();
}
