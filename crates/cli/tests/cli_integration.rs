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
