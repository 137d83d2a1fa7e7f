//! Golden snapshot of the analytic-model validation grid: the full
//! predicted-vs-measured table at pinned quick settings, byte-exact.
//!
//! The snapshot pins both sides of every cell — the closed-form
//! prediction *and* the simulated measurement — so any drift in the
//! analytic derivations, the arbiters, the traffic generators, or the
//! error accounting shows up as a byte diff. It is also rendered at
//! two worker counts, so the grid doubles as a parallel-determinism
//! witness.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```console
//! $ REGEN_GOLDEN=1 cargo test --test golden_validation
//! $ git diff tests/golden/   # review before committing
//! ```

use lotterybus_repro::experiments::json::ToJson;
use lotterybus_repro::experiments::{validate, RunSettings};

const GOLDEN_PATH: &str = "tests/golden/validate_grid.json";

/// Pinned settings: short windows, fixed seed, one worker.
fn golden_settings() -> RunSettings {
    RunSettings { warmup: 2_000, measure: 30_000, seed: 0x60_1DEB, jobs: 1, ..RunSettings::quick() }
}

#[test]
fn golden_validation_grid_is_stable_and_jobs_invariant() {
    let grid = validate::run(&golden_settings());
    let document = grid.to_json().render() + "\n";
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &document).expect("write golden snapshot");
        eprintln!("regenerated {GOLDEN_PATH}");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("cannot read {GOLDEN_PATH}: {e}; run with REGEN_GOLDEN=1 to create it")
    });
    assert_eq!(
        document, golden,
        "validation grid drifted from the golden snapshot; if the change is \
         intentional (model or simulator behaviour), regenerate with \
         REGEN_GOLDEN=1 and review the diff"
    );
    // The grid fans its simulations out over a worker pool; the worker
    // count must never change a single byte of the document.
    let parallel = validate::run(&golden_settings().with_jobs(4));
    assert_eq!(
        parallel.to_json().render() + "\n",
        golden,
        "validation grid differs across worker counts"
    );
}

#[test]
fn golden_grid_errors_stay_inside_the_documented_bounds() {
    // The DESIGN.md error table promises these envelopes at full
    // windows; the quick grid is noisier, so the bounds here are the
    // looser CI tripwire, not the documented numbers.
    let summary = validate::run(&golden_settings()).summary();
    assert!(summary.share_cells > 50, "grid lost share cells: {}", summary.share_cells);
    assert!(
        summary.share_max_abs_error < 0.05,
        "share error blew up: {}",
        summary.share_max_abs_error
    );
    assert!(
        summary.latency_max_rel_error < 1.0,
        "latency error blew up: {}",
        summary.latency_max_rel_error
    );

    // The `RunSettings::quick()` grid (60k measured cycles) is held to
    // tighter ceilings and to cell floors, so a doubled error or a
    // shrinking grid fails here instead of hiding under a slack bound.
    // Measured: share max 0.0141 / mean 0.0031, latency max 0.51 /
    // mean 0.165, 75 share and 22 latency cells. The 0.02 share
    // ceiling is for this grid only: the 30k-cycle grid above measures
    // 0.0251.
    let quick = validate::run(&RunSettings::quick().with_jobs(1)).summary();
    for (what, value, ceiling) in [
        ("share max abs", quick.share_max_abs_error, 0.02),
        ("share mean abs", quick.share_mean_abs_error, 0.02),
        ("latency max rel", quick.latency_max_rel_error, 1.0),
        ("latency mean rel", quick.latency_mean_rel_error, 0.40),
    ] {
        assert!(value <= ceiling, "quick grid {what} error {value:.4} exceeds {ceiling}");
    }
    assert!(quick.share_cells >= 50, "quick grid lost share cells: {}", quick.share_cells);
    assert!(quick.latency_cells >= 15, "quick grid lost latency cells: {}", quick.latency_cells);
}
