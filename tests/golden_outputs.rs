//! Golden-output regression tests: a miniature suite document with a
//! pinned seed and short windows, snapshotted under `tests/golden/`.
//!
//! The snapshot pins the *numbers*, not just the invariants: any change
//! to arbiter decision order, RNG cadence, fault drawing, or kernel
//! accounting shows up here as a byte diff. The same document is
//! rendered under every kernel name, and once more with windowed
//! metrics collected in every simulation, so the golden file doubles
//! as a kernel-equivalence and metrics-inertness witness.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```console
//! $ REGEN_GOLDEN=1 cargo test --test golden_outputs
//! $ git diff tests/golden/   # review before committing
//! ```

use lotterybus_repro::experiments::json::{Json, ToJson};
use lotterybus_repro::experiments::{self, RunSettings};
use lotterybus_repro::socsim::Kernel;

const GOLDEN_PATH: &str = "tests/golden/suite_mini.json";

/// Pinned settings for the miniature suite: short windows, fixed seed,
/// one worker (worker count never changes results, but pinning it keeps
/// the document's provenance obvious).
fn golden_settings(kernel: Kernel) -> RunSettings {
    RunSettings { warmup: 500, measure: 4_000, seed: 0x60_1DEB, jobs: 1, ..RunSettings::new() }
        .with_kernel(kernel)
}

/// Renders the miniature suite document under `settings`.
fn golden_document(settings: &RunSettings) -> String {
    let doc = Json::obj()
        .field(
            "meta",
            Json::obj()
                .field("seed", settings.seed)
                .field("warmup", settings.warmup)
                .field("measure", settings.measure),
        )
        .field("fig4", experiments::fig4::run(settings).to_json())
        .field("fig5", experiments::fig5::run_kernel(1, settings.kernel).to_json())
        .field("starvation", experiments::starvation::run(settings).to_json())
        .field("energy", experiments::energy::run(settings).to_json());
    doc.render() + "\n"
}

#[test]
fn golden_suite_document_is_stable_under_both_exact_kernels() {
    // Two kernels, three spellings: `tlm` is an alias of `fast`, so it
    // must reproduce the snapshot too — including fig4/starvation/
    // energy, whose Bernoulli traffic is where an approximate kernel
    // would drift.
    let cycle = golden_document(&golden_settings(Kernel::Cycle));
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &cycle).expect("write golden snapshot");
        eprintln!("regenerated {GOLDEN_PATH}");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("cannot read {GOLDEN_PATH}: {e}; run with REGEN_GOLDEN=1 to create it")
    });
    assert_eq!(
        cycle, golden,
        "cycle-kernel output drifted from the golden snapshot; if the change is \
         intentional, regenerate with REGEN_GOLDEN=1 and review the diff"
    );
    for kernel in [Kernel::Fast, Kernel::Tlm] {
        assert_eq!(
            golden_document(&golden_settings(kernel)),
            golden,
            "{}-kernel output differs from the golden snapshot (kernel equivalence broken)",
            kernel.name()
        );
    }
    // Windowed metrics only observe: collecting them in every
    // simulation must not change a byte.
    assert_eq!(
        golden_document(&golden_settings(Kernel::Cycle).with_metrics(1_000)),
        golden,
        "output with windowed metrics (window 1000) differs from the golden snapshot"
    );
}
