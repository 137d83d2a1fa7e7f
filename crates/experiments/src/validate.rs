//! Analytic-model validation grid: every workload of the experiment
//! sweeps run through both the simulator and the closed-form
//! predictors of the [`analytic`] crate, with the per-cell error
//! recorded.
//!
//! Three sections cover the model's three regimes:
//!
//! * **granularity** — the saturated ticket-granularity sweep
//!   (tickets 1..64 vs three single-ticket competitors): pure
//!   saturation water-filling, bandwidth shares only.
//! * **latency_vs_load** — the 30-cell (load × protocol) sweep: shares
//!   plus the tagged master's mean latency where both the predictor
//!   and the simulator produce one. Cells the model declares unstable
//!   (or the simulator never completes a message in) are listed as
//!   skipped, with the reason.
//! * **classes** — the nine traffic classes T1–T9 under the static
//!   lottery: mixed under- and over-subscribed systems with periodic,
//!   bursty and memoryless sources all mapped to Bernoulli rates.
//!
//! The grid is deterministic under the settings' seed, so
//! `tests/golden_validation.rs` snapshots it byte for byte and holds
//! its summary errors to fixed ceilings.

use crate::common::{self, RunSettings};
use crate::json::{Json, ToJson};
use crate::runner;
use analytic::{Protocol, SystemModel};
use socsim::MasterId;
use traffic_gen::{GeneratorSpec, SizeDist, TrafficClass};

/// The analytic protocol lineup in [`common::protocol_arbiter`] index
/// order (the order of [`crate::sweeps::LATENCY_PROTOCOLS`]).
const LINEUP: [Protocol; 5] = [
    Protocol::StaticPriority,
    Protocol::RoundRobin,
    Protocol::DeficitRoundRobin,
    Protocol::Tdma2Level,
    Protocol::LotteryStatic,
];

/// One predicted-vs-measured comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Which workload and master this cell compares.
    pub label: String,
    /// `"share"` (bandwidth fraction, absolute error) or
    /// `"cycles_per_word"` (mean latency, relative error).
    pub metric: &'static str,
    /// The closed-form prediction.
    pub predicted: f64,
    /// The simulator's measurement.
    pub measured: f64,
    /// Absolute error for shares, relative error for latencies.
    pub error: f64,
}

/// One section of the grid: a named cell list plus the cells that
/// could not be compared (with reasons).
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Section name (`granularity`, `latency_vs_load`, `classes`).
    pub name: &'static str,
    /// Comparable cells.
    pub cells: Vec<Cell>,
    /// Human-readable reasons for cells with no comparison — e.g. the
    /// predictor declares a queue unstable at ≥100 % load, where the
    /// simulator still measures a (window-dependent) finite latency.
    pub skipped: Vec<String>,
}

/// The whole validation grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// All sections, in run order.
    pub sections: Vec<Section>,
}

/// Aggregate error figures over the whole grid — the numbers the bench
/// artifact gates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSummary {
    /// Number of bandwidth-share cells.
    pub share_cells: usize,
    /// Worst absolute share error.
    pub share_max_abs_error: f64,
    /// Mean absolute share error.
    pub share_mean_abs_error: f64,
    /// Number of latency cells.
    pub latency_cells: usize,
    /// Worst relative latency error.
    pub latency_max_rel_error: f64,
    /// Mean relative latency error.
    pub latency_mean_rel_error: f64,
    /// Cells skipped across all sections.
    pub skipped: usize,
}

impl Grid {
    /// Aggregates the per-cell errors.
    pub fn summary(&self) -> ErrorSummary {
        let mut s = ErrorSummary {
            share_cells: 0,
            share_max_abs_error: 0.0,
            share_mean_abs_error: 0.0,
            latency_cells: 0,
            latency_max_rel_error: 0.0,
            latency_mean_rel_error: 0.0,
            skipped: 0,
        };
        for section in &self.sections {
            s.skipped += section.skipped.len();
            for cell in &section.cells {
                if cell.metric == "share" {
                    s.share_cells += 1;
                    s.share_max_abs_error = s.share_max_abs_error.max(cell.error);
                    s.share_mean_abs_error += cell.error;
                } else {
                    s.latency_cells += 1;
                    s.latency_max_rel_error = s.latency_max_rel_error.max(cell.error);
                    s.latency_mean_rel_error += cell.error;
                }
            }
        }
        if s.share_cells > 0 {
            s.share_mean_abs_error /= s.share_cells as f64;
        }
        if s.latency_cells > 0 {
            s.latency_mean_rel_error /= s.latency_cells as f64;
        }
        s
    }
}

/// Runs the full validation grid: 48 simulations (9 granularity + 30
/// load-sweep + 9 class cells) fanned out on the settings' workers,
/// each compared against the closed forms.
pub fn run(settings: &RunSettings) -> Grid {
    Grid { sections: vec![granularity(settings), latency_vs_load(settings), classes(settings)] }
}

/// Saturated ticket-granularity sweep: predicted vs measured bandwidth
/// share of the swept master.
fn granularity(settings: &RunSettings) -> Section {
    let points = crate::sweeps::ticket_granularity(settings);
    let cells = points
        .iter()
        .map(|p| {
            let spec = GeneratorSpec::poisson(0.09, SizeDist::fixed(16));
            let model = SystemModel::from_specs(
                Protocol::LotteryStatic,
                &vec![spec; 4],
                &[p.tickets, 1, 1, 1],
                &settings.bus,
            );
            let predicted = model.predict().masters[0].share;
            Cell {
                label: format!("tickets={} C1", p.tickets),
                metric: "share",
                predicted,
                measured: p.measured,
                error: (predicted - p.measured).abs(),
            }
        })
        .collect();
    Section { name: "granularity", cells, skipped: Vec::new() }
}

/// The traffic specs of one latency-sweep cell (split 1:2:3:4 by
/// weight), mirroring [`crate::sweeps::latency_vs_load`].
fn load_specs(load: f64, weights: &[u32]) -> Vec<GeneratorSpec> {
    weights
        .iter()
        .map(|&w| {
            let rate = load * f64::from(w) / 10.0 / 16.0;
            GeneratorSpec::poisson(rate, SizeDist::fixed(16))
        })
        .collect()
}

/// The (load × protocol) sweep: share and mean latency of the tagged
/// weight-4 master.
fn latency_vs_load(settings: &RunSettings) -> Section {
    let weights = [1u32, 2, 3, 4];
    let loads = [0.3, 0.5, 0.7, 0.85, 1.0, 1.2];
    let tagged = MasterId::new(3);
    let grid: Vec<(f64, usize)> =
        loads.iter().flat_map(|&load| (0..LINEUP.len()).map(move |p| (load, p))).collect();
    let measured = runner::map(settings, &grid, |_, &(load, protocol)| {
        let stats = common::run_system(
            &load_specs(load, &weights),
            common::protocol_arbiter(protocol, settings.seed),
            settings,
        );
        (stats.bandwidth_fraction(tagged), stats.master(tagged).cycles_per_word())
    });

    let mut cells = Vec::new();
    let mut skipped = Vec::new();
    for (&(load, protocol), &(share, latency)) in grid.iter().zip(&measured) {
        let name = LINEUP[protocol].name();
        let label = format!("load={load:.2} {name} C4");
        let specs = load_specs(load, &weights);
        let model = SystemModel::from_specs(LINEUP[protocol], &specs, &weights, &settings.bus);
        let pred = model.predict().masters[3];
        cells.push(Cell {
            label: label.clone(),
            metric: "share",
            predicted: pred.share,
            measured: share,
            error: (pred.share - share).abs(),
        });
        match (pred.cycles_per_word, latency) {
            (Some(p), Some(m)) if m > 0.0 => cells.push(Cell {
                label,
                metric: "cycles_per_word",
                predicted: p,
                measured: m,
                error: (p - m).abs() / m,
            }),
            (None, Some(m)) => skipped.push(format!(
                "{label}: analytic predicts an unstable queue (unbounded latency); \
                 the simulator measured {m:.1} cycles/word in its finite window"
            )),
            (_, None) => {
                skipped.push(format!("{label}: no message completed in the measured window"));
            }
            (Some(_), Some(_)) => {
                skipped.push(format!("{label}: simulator measured zero latency"));
            }
        }
    }
    Section { name: "latency_vs_load", cells, skipped }
}

/// Traffic classes T1–T9 under the 1:2:3:4 static lottery: per-master
/// bandwidth shares.
fn classes(settings: &RunSettings) -> Section {
    let weights = [1u32, 2, 3, 4];
    let all = TrafficClass::all();
    let measured = runner::map(settings, &all, |_, &class| {
        let stats = common::run_system(
            &class.specs(&weights),
            common::protocol_arbiter(4, settings.seed),
            settings,
        );
        common::bandwidth_fractions(&stats, 4)
    });
    let mut cells = Vec::new();
    for (class, shares) in all.iter().zip(&measured) {
        let model = SystemModel::from_specs(
            Protocol::LotteryStatic,
            &class.specs(&weights),
            &weights,
            &settings.bus,
        );
        let pred = model.predict();
        for (i, (&m, p)) in shares.iter().zip(&pred.masters).enumerate() {
            cells.push(Cell {
                label: format!("{} C{}", class.name(), i + 1),
                metric: "share",
                predicted: p.share,
                measured: m,
                error: (p.share - m).abs(),
            });
        }
    }
    Section { name: "classes", cells, skipped: Vec::new() }
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("label", self.label.as_str())
            .field("metric", self.metric)
            .field("predicted", self.predicted)
            .field("measured", self.measured)
            .field("error", self.error)
    }
}

impl ToJson for Section {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("name", self.name)
            .field("cells", self.cells.to_json())
            .field("skipped", Json::Arr(self.skipped.iter().map(|s| s.as_str().into()).collect()))
    }
}

impl ToJson for ErrorSummary {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("share_cells", self.share_cells)
            .field("share_max_abs_error", self.share_max_abs_error)
            .field("share_mean_abs_error", self.share_mean_abs_error)
            .field("latency_cells", self.latency_cells)
            .field("latency_max_rel_error", self.latency_max_rel_error)
            .field("latency_mean_rel_error", self.latency_mean_rel_error)
            .field("skipped", self.skipped)
    }
}

impl ToJson for Grid {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("sections", self.sections.to_json())
            .field("summary", self.summary().to_json())
    }
}

impl std::fmt::Display for Grid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for section in &self.sections {
            writeln!(f, "Validation: {}", section.name)?;
            writeln!(
                f,
                "{:>32} {:>16} {:>10} {:>10} {:>8}",
                "cell", "metric", "predicted", "measured", "error"
            )?;
            for c in &section.cells {
                writeln!(
                    f,
                    "{:>32} {:>16} {:>10.4} {:>10.4} {:>8.4}",
                    c.label, c.metric, c.predicted, c.measured, c.error
                )?;
            }
            for s in &section.skipped {
                writeln!(f, "  skipped: {s}")?;
            }
            writeln!(f)?;
        }
        let s = self.summary();
        writeln!(
            f,
            "share: {} cells, max abs error {:.4}, mean {:.4}",
            s.share_cells, s.share_max_abs_error, s.share_mean_abs_error
        )?;
        writeln!(
            f,
            "latency: {} cells, max rel error {:.4}, mean {:.4} ({} skipped)",
            s.latency_cells, s.latency_max_rel_error, s.latency_mean_rel_error, s.skipped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings() -> RunSettings {
        RunSettings { measure: 50_000, warmup: 5_000, ..RunSettings::quick() }
    }

    #[test]
    fn grid_has_the_expected_shape() {
        let grid = run(&settings());
        assert_eq!(grid.sections.len(), 3);
        assert_eq!(grid.sections[0].cells.len(), 9, "granularity: 9 ticket counts");
        let ll = &grid.sections[1];
        // 30 share cells plus a latency cell or a skip reason per cell.
        let shares = ll.cells.iter().filter(|c| c.metric == "share").count();
        let latencies = ll.cells.iter().filter(|c| c.metric == "cycles_per_word").count();
        assert_eq!(shares, 30);
        assert_eq!(latencies + ll.skipped.len(), 30);
        assert!(!ll.skipped.is_empty(), "overloaded cells must be skipped with a reason");
        assert_eq!(grid.sections[2].cells.len(), 36, "classes: 9 classes x 4 masters");
    }

    #[test]
    fn shares_validate_tightly_and_latencies_within_bounds() {
        let grid = run(&settings());
        let s = grid.summary();
        assert!(s.share_max_abs_error < 0.03, "share error {:.4}", s.share_max_abs_error);
        assert!(s.share_mean_abs_error < 0.01, "mean share error {:.4}", s.share_mean_abs_error);
        assert!(s.latency_cells > 0);
        // Latency closed forms are approximations (the TDMA
        // slot-alignment term is an upper bound); they must stay well
        // under one mean's worth of relative error across the stable
        // grid.
        assert!(s.latency_max_rel_error < 1.0, "latency error {:.4}", s.latency_max_rel_error);
        assert!(
            s.latency_mean_rel_error < 0.4,
            "mean latency error {:.4}",
            s.latency_mean_rel_error
        );
    }

    #[test]
    fn json_roundtrip_is_deterministic() {
        let a = run(&settings()).to_json().render();
        let b = run(&settings()).to_json().render();
        assert_eq!(a, b);
        assert!(a.contains("\"summary\""));
    }
}
