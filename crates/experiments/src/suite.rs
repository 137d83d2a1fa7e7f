//! The full experiment suite as one deterministic JSON document.
//!
//! [`run_suite`] executes every figure, table, sweep and ablation and
//! serializes the results through [`crate::json`]. The output depends
//! only on the settings' seed and window — **never** on the worker
//! count — which is what the CI determinism gate checks by diffing
//! `--jobs 1` against `--jobs N` byte for byte. Wall-clock telemetry is
//! collected on the side ([`crate::telemetry`]) and kept out of the
//! result document.

use crate::json::{Json, ToJson};
use crate::telemetry::Telemetry;
use crate::RunSettings;
use traffic_gen::TrafficClass;

/// What to run and how wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteOptions {
    /// Use the short measurement window (CI-friendly).
    pub quick: bool,
    /// Worker threads (`0` = all available cores).
    pub jobs: usize,
    /// Which simulation kernel every simulation runs under. Every
    /// kernel keeps the result JSON byte-identical (the CI kernel-diff
    /// gate checks exactly that).
    pub kernel: socsim::Kernel,
}

impl SuiteOptions {
    /// The settings implied by these options.
    pub fn settings(&self) -> RunSettings {
        let base = if self.quick { RunSettings::quick() } else { RunSettings::new() };
        base.with_jobs(self.jobs).with_kernel(self.kernel)
    }
}

/// A completed suite run: the deterministic result document plus the
/// side-channel timings.
#[derive(Debug)]
pub struct SuiteRun {
    /// The rendered JSON document (worker-count independent).
    pub json: String,
    /// Per-phase wall-clock telemetry (worker-count *dependent*).
    pub telemetry: Telemetry,
}

/// Runs every experiment and serializes the results.
pub fn run_suite(opts: &SuiteOptions) -> SuiteRun {
    let settings = opts.settings();
    let mut t = Telemetry::new();

    let fig4 = t.time("fig4", 24, || crate::fig4::run(&settings));
    let fig4_ts = t.time("fig4_timeseries", 2, || crate::fig4::run_timeseries(&settings));
    let fig5 = t.time("fig5", 2, || crate::fig5::run_kernel(settings.jobs, settings.kernel));
    let fig6a = t.time("fig6a", 24, || crate::fig6::run_bandwidth(&settings));
    let fig6b = t.time("fig6b", 2, || crate::fig6::run_latency(TrafficClass::T6, &settings));
    let fig12a = t.time("fig12a", 9, || crate::fig12::run_bandwidth(&settings));
    let fig12b = t.time("fig12b", 6, || crate::fig12::run_tdma_latency(&settings));
    let fig12c = t.time("fig12c", 6, || crate::fig12::run_lottery_latency(&settings));
    let table1 = t.time("table1", 3, || {
        crate::table1::run_jobs(settings.measure, 17, settings.jobs).expect("switch runs")
    });
    let hw_table = t.time("hw_table", 0, crate::hw_table::run);
    let starvation = t.time("starvation", 6, || crate::starvation::run(&settings));
    let sweeps = t.time("sweeps", 39, || crate::sweeps::run(&settings));
    let energy = t.time("energy", 5, || crate::energy::run(&settings));
    let ablations = t.time("ablations", 12, || crate::ablations::run(&settings));

    let doc = Json::obj()
        .field(
            "meta",
            Json::obj()
                .field("seed", settings.seed)
                .field("warmup", settings.warmup)
                .field("measure", settings.measure)
                .field("quick", opts.quick),
        )
        .field("fig4", fig4.to_json())
        .field("fig4_timeseries", fig4_ts.to_json())
        .field("fig5", fig5.to_json())
        .field("fig6a", fig6a.to_json())
        .field("fig6b", fig6b.to_json())
        .field("fig12a", fig12a.to_json())
        .field("fig12b", fig12b.to_json())
        .field("fig12c", fig12c.to_json())
        .field("table1", table1.to_json())
        .field("hw_table", hw_table.to_json())
        .field("starvation", starvation.to_json())
        .field("sweeps", sweeps.to_json())
        .field("energy", energy.to_json())
        .field("ablations", ablations.to_json());

    SuiteRun { json: doc.render(), telemetry: t }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_map_to_settings() {
        use socsim::Kernel;
        let opts = SuiteOptions { quick: true, jobs: 3, kernel: Kernel::Cycle };
        let s = opts.settings();
        assert_eq!(s.jobs, 3);
        assert_eq!(s.measure, RunSettings::quick().measure);
        assert_eq!(s.metrics_window, None);
        assert_eq!(s.kernel, Kernel::Cycle);
        let full = SuiteOptions { quick: false, jobs: 0, kernel: Kernel::Fast }.settings();
        assert_eq!(full.measure, RunSettings::new().measure);
        assert_eq!(full.jobs, 0);
        assert_eq!(full.metrics_window, None);
        assert_eq!(full.kernel, Kernel::Fast);
    }
}
