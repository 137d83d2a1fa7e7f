//! The `suite` binary's exit codes: malformed flags are usage errors
//! (exit 2) and an unwritable `--out` path is a reported failure
//! (exit 1), never a panic.

use std::process::{Command, Output};

fn suite(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_suite")).args(args).output().expect("suite binary runs")
}

#[test]
fn retired_bench_flags_are_usage_errors() {
    for args in [&["--bench", "x"][..], &["--metrics", "5"], &["--validate-analytic"]] {
        let out = suite(args);
        assert_eq!(out.status.code(), Some(2), "suite {args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: suite"), "suite {args:?}: {stderr}");
    }
}

#[test]
fn unwritable_out_path_exits_1_with_the_io_error() {
    let dir = std::env::temp_dir().join("suite-cli-missing-dir-for-test");
    let path = dir.join("suite.json");
    let out = suite(&["--quick", "--jobs", "1", "--out", path.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot write") && stderr.contains("suite.json"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
