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

#[test]
fn out_of_range_share_bounds_exit_1_from_scenario_and_search() {
    // A share bound below 0 or above 1 used to pass, and made `search
    // --confirm 0` report every point feasible with margin `null`.
    for (file, sla, message) in [
        (
            "neg-share",
            "sla bandwidth master=cpu min=-1e10",
            "`min=` must lie in [0, 1], got -10000000000",
        ),
        ("big-share", "sla bandwidth master=cpu max=1.5", "`max=` must lie in [0, 1], got 1.5"),
        ("neg-util", "sla utilization min=-0.1", "`min=` must lie in [0, 1], got -0.1"),
    ] {
        let path = write_spec(
            &format!("{file}.scenario"),
            &format!(
                "scenario bounds\nmaster cpu load=0.3\nmaster dma load=0.3\n\
                 phase p duration=1000\n{sla}\n"
            ),
        );
        for command in ["scenario", "search"] {
            let mut cmd = binary();
            cmd.arg(command).arg(&path);
            if command == "search" {
                cmd.args(["--confirm", "0"]);
            }
            let out = cmd.output().expect("run");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} `{sla}`: {err}");
            assert!(err.contains(message), "{command} `{sla}`: {err}");
            assert!(out.stdout.is_empty(), "{command} `{sla}` printed a report");
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

/// A spec with `n` light masters `m1..mn` under `arbiter`.
fn spec_with_masters(arbiter: &str, n: usize) -> String {
    let mut text = format!("arbiter = {arbiter}\ncycles = 1000\nwarmup = 100\n");
    for i in 1..=n {
        text += &format!("master m{i} weight={i} load=0.01 size=4\n");
    }
    text
}

/// A scenario with `n` light masters `m1..mn` under `arbiter` and one
/// scannable SLA.
fn scenario_with_masters(arbiter: &str, n: usize) -> String {
    let mut text = format!("scenario limits\nseed = 1\narbiter = {arbiter}\n");
    for i in 1..=n {
        text += &format!("master m{i} weight={i} load=0.01 size=4\n");
    }
    text + "phase p duration=1000\nsla bandwidth master=m1 min=0.0\n"
}

/// Runs a spec (`command` empty) or `command` on a `.scenario` file and
/// checks the exit code; a refusal must name `message` on stderr and
/// print nothing on stdout.
fn assert_run(label: &str, command: &str, text: &str, code: i32, message: &str) {
    let ext = if command.is_empty() { "spec" } else { "scenario" };
    let path = write_spec(&format!("{label}.{ext}"), text);
    let mut cmd = binary();
    if !command.is_empty() {
        cmd.arg(command);
    }
    cmd.arg(&path);
    if command == "search" {
        cmd.args(["--confirm", "0"]);
    }
    let out = output_within(cmd, 60);
    std::fs::remove_file(&path).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{label}: {err}");
    if code == 0 {
        assert!(!out.stdout.is_empty(), "{label}: no report");
    } else {
        assert!(err.contains(message), "{label}: {err}");
        assert!(out.stdout.is_empty(), "{label}: printed a report");
    }
}

#[test]
fn master_limits_hold_at_their_boundaries_through_every_entry_point() {
    let lut = "at most 12 masters supported";
    let bus = "at most 32 supported";
    let scan = "search supports 1..=16 masters, got 17";
    // (arbiter, masters, entry point, exit code, message)
    let table: [(&str, usize, &str, i32, &str); 14] = [
        ("lottery", 12, "", 0, ""),
        ("lottery", 13, "", 1, lut),
        ("lottery", 12, "scenario", 0, ""),
        ("lottery", 13, "scenario", 1, lut),
        // `search` builds the scenario's own arbiter before scanning.
        ("lottery", 12, "search", 0, ""),
        ("lottery", 13, "search", 1, lut),
        ("rr", 16, "search", 0, ""),
        ("rr", 17, "search", 1, scan),
        ("rr", 32, "", 0, ""),
        ("rr", 33, "", 1, bus),
        ("rr", 32, "scenario", 0, ""),
        ("rr", 33, "scenario", 1, bus),
        ("rr", 33, "search", 1, bus),
        ("lottery", 17, "search", 1, lut),
    ];
    for (arbiter, n, command, code, message) in table {
        let label =
            format!("limit-{arbiter}-{n}-{}", if command.is_empty() { "spec" } else { command });
        let text = if command.is_empty() {
            spec_with_masters(arbiter, n)
        } else {
            scenario_with_masters(arbiter, n)
        };
        assert_run(&label, command, &text, code, message);
    }
}

#[test]
fn oversized_tdma_wheels_exit_1_from_spec_scenario_and_search() {
    // Each master reserves weight × tdma-block slots. Both products
    // used to go unchecked in `u32`: the wheel allocation aborted the
    // process, or the slot count wrapped to a tiny reservation.
    let message = "exceeds the limit of 1048576 slots";
    for (label, block, weight) in
        [("tdma-weight", 6u64, 4_294_967_295u64), ("tdma-block", 4_294_967_295, 1)]
    {
        let spec = format!(
            "arbiter = tdma\ntdma-block = {block}\ncycles = 1000\n\
             master a weight={weight} load=0.3\nmaster b weight=1 load=0.3\n"
        );
        assert_run(label, "", &spec, 1, message);
        let scenario = format!(
            "scenario wheel\narbiter = tdma\ntdma-block = {block}\n\
             master a weight={weight} load=0.3 size=4\nmaster b weight=1 load=0.3 size=4\n\
             phase p duration=1000\nsla bandwidth master=a min=0.1\n"
        );
        assert_run(label, "scenario", &scenario, 1, message);
        assert_run(label, "search", &scenario, 1, message);
    }
    // A wrapping product (715827883 × 6 = 2^32 + 2) is refused too.
    let wrap = "scenario wrap\narbiter = tdma\nmaster a weight=715827883 load=0.3 size=4\n\
                master b weight=1 load=0.3 size=4\nphase p duration=1000\n\
                sla bandwidth master=a min=0.1\n";
    assert_run("tdma-wrap", "scenario", wrap, 1, "TDMA timing wheel of 4294967304 slots");
}

#[test]
fn search_counts_tdma_points_with_oversized_wheels_infeasible() {
    // 524 · 2000 ≤ 2^20 < 525 · 2000 slots: of the million (a, b)
    // points only the 137,026 with a + b ≤ 524 can be built, and each
    // of them meets the target.
    let scenario = "scenario wheel-limit\nseed = 3\narbiter = tdma\ntdma-block = 2000\n\
                    master a weight=1 load=0.3 size=8\nmaster b weight=1 load=0.3 size=8\n\
                    phase steady duration=20000\nsla bandwidth master=a min=0.2\n";
    let path = write_spec("wheel-limit.scenario", scenario);
    let out = binary().arg("search").arg(&path).args(["--confirm", "0"]).output().expect("run");
    std::fs::remove_file(&path).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(err.contains("scanned 1000000 design points (137026 evaluated)"), "{err}");
    assert!(err.contains(": 137026 feasible"), "{err}");
    let json = String::from_utf8(out.stdout).expect("utf8");
    assert!(json.contains("\"points\":1000000"), "{json}");
    assert!(json.contains("\"feasible\":137026"), "{json}");
}
