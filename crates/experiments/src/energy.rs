//! Energy comparison of the communication architectures (extension).
//!
//! The paper motivates communication-architecture design through power
//! as well as performance (§1) but reports no power numbers. This
//! experiment combines the simulator's activity counts with the
//! hardware model's per-design arbitration energy to ask: *what does
//! the lottery's fancier arbiter cost in energy on a real workload?*
//! The answer — data movement dominates, arbitration energy is noise —
//! supports adopting the richer protocol.

use crate::common::{RecordedTraffic, RunSettings};
use crate::json::{Json, ToJson};
use crate::runner;
use arbiters::{ArbiterKind, RoundRobinArbiter, StaticPriorityArbiter, TdmaArbiter, WheelLayout};
use hwmodel::power::{estimate_energy, ActivityCounts, EnergyModel, EnergyReport};
use hwmodel::{managers, CellLibrary};
use lotterybus::{StaticLotteryArbiter, TicketAssignment};
use traffic_gen::TrafficClass;

/// One architecture's energy row.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyRow {
    /// Architecture name.
    pub architecture: String,
    /// Simulation activity the energy derives from.
    pub activity: ActivityCounts,
    /// The energy estimate.
    pub report: EnergyReport,
    /// Average power at the nominal 66 MHz bus clock, in mW.
    pub average_power_mw: f64,
}

/// The full energy comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyTable {
    /// Rows per architecture.
    pub rows: Vec<EnergyRow>,
}

/// Runs the heavy uniform class T1 under every architecture, over one
/// recording of its traffic, and prices the runs with the 0.35 µm-class
/// energy model.
pub fn run(settings: &RunSettings) -> EnergyTable {
    let weights = [1u32, 2, 3, 4];
    let lib = CellLibrary::cmos035();
    let model = EnergyModel::cmos035();
    let traffic = RecordedTraffic::record(
        &TrafficClass::T1.specs_with_frame(&weights, crate::fig6::TDMA_BLOCK),
        settings,
    );
    let slots: Vec<u32> = weights.iter().map(|w| w * 6).collect();

    // Hardware estimates are precomputed (plain data crosses the thread
    // boundary); the arbiters themselves are built inside each job from
    // the architecture name, since `ArbiterKind` is not `Send`.
    let candidates: Vec<(&str, hwmodel::HwEstimate)> = vec![
        ("static-priority", managers::static_priority_arbiter(&lib, 4).total),
        ("round-robin", managers::static_priority_arbiter(&lib, 4).total),
        ("tdma-2level", managers::tdma_arbiter(&lib, 4, 60).total),
        ("lottery-static", managers::static_lottery_manager(&lib, 4, 8).total),
        ("lottery-dynamic", managers::dynamic_lottery_manager(&lib, 4, 8).total),
    ];

    let rows = runner::map(settings, &candidates, |_, &(name, hw)| {
        let arbiter: ArbiterKind = match name {
            "static-priority" => {
                StaticPriorityArbiter::new(weights.to_vec()).expect("valid").into()
            }
            "round-robin" => RoundRobinArbiter::new(4).expect("valid").into(),
            "tdma-2level" => {
                TdmaArbiter::new(&slots, WheelLayout::Contiguous).expect("valid").into()
            }
            "lottery-static" => StaticLotteryArbiter::with_seed(
                TicketAssignment::new(weights.to_vec()).expect("valid"),
                settings.seed as u32 | 1,
            )
            .expect("valid")
            .into(),
            "lottery-dynamic" => lotterybus::DynamicLotteryArbiter::with_seed(
                TicketAssignment::new(weights.to_vec()).expect("valid"),
                settings.seed as u32 | 1,
            )
            .expect("valid")
            .into(),
            other => panic!("unknown architecture {other}"),
        };
        let stats = traffic.run(arbiter, settings);
        let activity = ActivityCounts {
            words: stats.busy_cycles,
            decisions: stats.grants,
            cycles: stats.cycles,
        };
        let report = estimate_energy(&model, &activity, &hw);
        EnergyRow {
            architecture: name.into(),
            activity,
            average_power_mw: report.average_power_mw(activity.cycles, 66.0),
            report,
        }
    });
    EnergyTable { rows }
}

impl ToJson for EnergyTable {
    fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                Json::obj()
                    .field("architecture", r.architecture.as_str())
                    .field(
                        "activity",
                        Json::obj()
                            .field("words", r.activity.words)
                            .field("decisions", r.activity.decisions)
                            .field("cycles", r.activity.cycles),
                    )
                    .field(
                        "report",
                        Json::obj()
                            .field("transfer_pj", r.report.transfer_pj)
                            .field("arbitration_pj", r.report.arbitration_pj)
                            .field("idle_pj", r.report.idle_pj),
                    )
                    .field("average_power_mw", r.average_power_mw)
            })
            .collect();
        Json::obj().field("rows", Json::Arr(rows))
    }
}

impl std::fmt::Display for EnergyTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Energy on traffic class T1 (0.35um-class model, 66 MHz bus)")?;
        writeln!(
            f,
            "{:<16} {:>10} {:>12} {:>12} {:>10} {:>10}",
            "architecture", "grants", "transfer uJ", "arbiter uJ", "idle uJ", "avg mW"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<16} {:>10} {:>12.2} {:>12.3} {:>10.3} {:>10.2}",
                row.architecture,
                row.activity.decisions,
                row.report.transfer_pj / 1e6,
                row.report.arbitration_pj / 1e6,
                row.report.idle_pj / 1e6,
                row.average_power_mw,
            )?;
        }
        write!(f, "arbitration energy stays well below data-movement energy for every design")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arbitration_energy_is_second_order() {
        let table = run(&RunSettings { measure: 40_000, warmup: 5_000, ..RunSettings::quick() });
        assert_eq!(table.rows.len(), 5);
        for row in &table.rows {
            assert!(
                row.report.arbitration_pj < 0.2 * row.report.transfer_pj,
                "{}: arbitration {:.0} pJ vs transfer {:.0} pJ",
                row.architecture,
                row.report.arbitration_pj,
                row.report.transfer_pj,
            );
            assert!(row.average_power_mw > 0.0);
        }
    }

    #[test]
    fn tdma_makes_many_more_decisions_per_word() {
        // Single-word slots mean one decision per word; burst protocols
        // amortize one decision over up to 16 words.
        let table = run(&RunSettings { measure: 40_000, warmup: 5_000, ..RunSettings::quick() });
        let tdma = &table.rows[2];
        let lottery = &table.rows[3];
        assert!(
            tdma.activity.decisions > 5 * lottery.activity.decisions,
            "TDMA {} vs lottery {}",
            tdma.activity.decisions,
            lottery.activity.decisions,
        );
    }
}
