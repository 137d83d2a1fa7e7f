//! Golden outputs of the CLI spec path.
//!
//! Every `*.spec` file under `tests/golden/specs/` runs through the
//! `lotterybus-sim` runner ([`lotterybus_cli::spec::run_spec`]) twice:
//! once with `kernel = cycle` appended and once with `kernel = fast` (a
//! later key overrides an earlier one). Each run must reproduce the
//! committed files byte for byte:
//!
//! * `<name>.out` — the report the binary prints on stdout;
//! * `<name>.wave.vcd` — the `--vcd` waveform, for the specs in
//!   [`WITH_VCD`];
//! * the file a spec's `trace sink=jsonl:` / `trace sink=vcd:` line
//!   names, written here to a scratch directory instead.
//!
//! `example.spec` is the `lotterybus-sim --example` text, so the
//! starter spec is pinned both as text and as a run.
//!
//! After an intentional output change, regenerate with
//! `REGEN_GOLDEN=1 cargo test --test golden_specs` and review the
//! diff under `tests/golden/specs/`.

use lotterybus_cli::spec::{run_spec, EXAMPLE_SPEC};
use lotterybus_cli::{SimSpec, TraceSinkSpec};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Specs that also run with `--vcd <name>.wave.vcd`.
const WITH_VCD: &[&str] = &["faults", "lottery-dynamic"];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/specs")
}

/// Compares `actual` with the golden file `name` (or rewrites it under
/// `REGEN_GOLDEN=1`), naming the spec and kernel on a mismatch.
fn check(name: &str, actual: &[u8], context: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert!(
        actual == expected.as_slice(),
        "{context}: output differs from {}\n--- expected\n{}\n--- actual\n{}",
        path.display(),
        String::from_utf8_lossy(&expected),
        String::from_utf8_lossy(actual),
    );
}

/// Runs one spec under one kernel, checks every output it produces,
/// and returns the golden file names it checked.
fn run_and_check(name: &str, text: &str, kernel: &str) -> Vec<String> {
    let context = format!("{name}.spec with kernel = {kernel}");
    let mut spec = SimSpec::parse(&format!("{text}kernel = {kernel}\n"))
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_specs").join(kernel);
    fs::create_dir_all(&scratch).expect("create scratch dir");

    // Streaming sinks write to the scratch directory under the file
    // name the spec gives.
    let sink = spec.trace_sink.take().map(|sink| {
        let file = sink.path().to_owned();
        let path = scratch.join(&file).to_string_lossy().into_owned();
        spec.trace_sink = Some(match sink {
            TraceSinkSpec::Jsonl(_) => TraceSinkSpec::Jsonl(path.clone()),
            TraceSinkSpec::Vcd(_) => TraceSinkSpec::Vcd(path.clone()),
        });
        (file, path)
    });
    let wave = WITH_VCD.contains(&name).then(|| {
        let file = format!("{name}.wave.vcd");
        let path = scratch.join(&file).to_string_lossy().into_owned();
        (file, path)
    });

    let report = run_spec(&spec, wave.as_ref().map(|(_, path)| path.as_str()))
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    let mut checked = vec![format!("{name}.out")];
    check(&checked[0], report.as_bytes(), &context);
    for (file, path) in sink.into_iter().chain(wave) {
        check(&file, &fs::read(&path).expect("output written"), &context);
        checked.push(file);
    }
    checked
}

#[test]
fn golden_specs_are_stable_under_both_kernels() {
    let dir = golden_dir();
    let mut specs: Vec<String> = fs::read_dir(&dir)
        .expect("golden spec dir")
        .map(|entry| entry.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter_map(|file| file.strip_suffix(".spec").map(str::to_owned))
        .collect();
    specs.sort();
    assert!(specs.len() >= 9, "golden spec set shrank: {specs:?}");

    let mut expected_files = BTreeSet::new();
    for name in &specs {
        let file = format!("{name}.spec");
        let text = fs::read_to_string(dir.join(&file)).expect("read spec");
        expected_files.insert(file);
        for kernel in ["cycle", "fast"] {
            expected_files.extend(run_and_check(name, &text, kernel));
        }
    }

    // Every committed file is a spec or one of its checked outputs.
    let present: BTreeSet<String> = fs::read_dir(&dir)
        .expect("golden spec dir")
        .map(|entry| entry.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(present, expected_files, "orphaned or missing golden files");
}

#[test]
fn example_spec_is_the_committed_starter() {
    let committed = fs::read_to_string(golden_dir().join("example.spec")).expect("read example");
    assert_eq!(EXAMPLE_SPEC, committed, "`--example` text changed");
}
