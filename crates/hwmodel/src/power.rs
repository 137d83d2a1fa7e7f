//! Bus and arbiter power estimation.
//!
//! The paper motivates communication-architecture design partly through
//! power: "the delay and power in global interconnect is known to be an
//! increasing bottleneck with shrinking feature sizes" (§1). This module
//! provides a first-order energy model that combines a simulation's
//! activity counts ([`ActivityCounts`], extracted from
//! `socsim::BusStats`) with per-event energy costs calibrated to the
//! same 0.35 µm-class technology as the cell library:
//!
//! * **word transfers** dominate — each switches the long, heavily
//!   loaded global bus wires;
//! * **arbitration decisions** cost energy in the manager logic, with a
//!   per-design multiplier derived from its gate count (more cell grids
//!   ⇒ more switched capacitance per decision);
//! * **idle cycles** pay a small standby cost (clocking, leakage).

use crate::estimate::HwEstimate;

/// Per-event energy costs in picojoules, 0.35 µm-class defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy to drive one word across the shared bus wires.
    pub word_transfer_pj: f64,
    /// Arbitration energy per decision, per 1000 cell grids of arbiter
    /// logic (switched-capacitance proxy).
    pub decision_pj_per_kgrid: f64,
    /// Standby energy per bus cycle (clock tree, leakage).
    pub idle_pj: f64,
}

impl EnergyModel {
    /// The 0.35 µm-class defaults used throughout the reproduction:
    /// ~40 pJ per 32-bit word on a long global bus, ~2 pJ per decision
    /// per thousand cell grids, ~1 pJ standby per cycle.
    pub fn cmos035() -> Self {
        EnergyModel { word_transfer_pj: 40.0, decision_pj_per_kgrid: 2.0, idle_pj: 1.0 }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::cmos035()
    }
}

/// Activity counts of one simulation run, the inputs to the energy
/// model. Build it from a `socsim::BusStats` with
/// `ActivityCounts { words: stats.busy_cycles, decisions: stats.grants,
/// cycles: stats.cycles }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActivityCounts {
    /// Words transferred (busy cycles).
    pub words: u64,
    /// Arbitration decisions made (grants).
    pub decisions: u64,
    /// Total elapsed bus cycles.
    pub cycles: u64,
}

/// An energy estimate for one run under one arbiter implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Energy spent moving data, in pJ.
    pub transfer_pj: f64,
    /// Energy spent arbitrating, in pJ.
    pub arbitration_pj: f64,
    /// Standby energy, in pJ.
    pub idle_pj: f64,
}

impl EnergyReport {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.transfer_pj + self.arbitration_pj + self.idle_pj
    }

    /// Average power in mW at the given bus frequency.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero or `freq_mhz` is not positive.
    pub fn average_power_mw(&self, cycles: u64, freq_mhz: f64) -> f64 {
        assert!(cycles > 0, "power needs a nonzero run length");
        assert!(freq_mhz > 0.0, "frequency must be positive");
        // pJ per cycle × cycles/second = pJ/s × 1e-12 = W; ×1e3 = mW.
        let pj_per_cycle = self.total_pj() / cycles as f64;
        pj_per_cycle * freq_mhz * 1e6 * 1e-12 * 1e3
    }
}

/// Estimates the energy of a run: `activity` from the simulation,
/// `arbiter` the hardware estimate of the arbiter driving it.
pub fn estimate_energy(
    model: &EnergyModel,
    activity: &ActivityCounts,
    arbiter: &HwEstimate,
) -> EnergyReport {
    let idle_cycles = activity.cycles.saturating_sub(activity.words);
    EnergyReport {
        transfer_pj: activity.words as f64 * model.word_transfer_pj,
        arbitration_pj: activity.decisions as f64
            * model.decision_pj_per_kgrid
            * (arbiter.area_grids / 1000.0),
        idle_pj: idle_cycles as f64 * model.idle_pj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellLibrary;
    use crate::managers;

    fn activity() -> ActivityCounts {
        ActivityCounts { words: 80_000, decisions: 5_000, cycles: 100_000 }
    }

    #[test]
    fn transfers_dominate_for_reasonable_workloads() {
        let lib = CellLibrary::cmos035();
        let arbiter = managers::static_lottery_manager(&lib, 4, 8).total;
        let report = estimate_energy(&EnergyModel::cmos035(), &activity(), &arbiter);
        assert!(report.transfer_pj > report.arbitration_pj);
        assert!(report.transfer_pj > report.idle_pj);
        assert!(report.total_pj() > 0.0);
    }

    #[test]
    fn bigger_arbiters_cost_more_per_decision() {
        let lib = CellLibrary::cmos035();
        let small = managers::static_priority_arbiter(&lib, 4).total;
        let large = managers::static_lottery_manager(&lib, 4, 8).total;
        let model = EnergyModel::cmos035();
        let a = estimate_energy(&model, &activity(), &small);
        let b = estimate_energy(&model, &activity(), &large);
        assert!(b.arbitration_pj > a.arbitration_pj);
        assert_eq!(a.transfer_pj, b.transfer_pj, "data movement is arbiter-independent");
    }

    #[test]
    fn average_power_is_sane() {
        let lib = CellLibrary::cmos035();
        let arbiter = managers::static_lottery_manager(&lib, 4, 8).total;
        let report = estimate_energy(&EnergyModel::cmos035(), &activity(), &arbiter);
        let mw = report.average_power_mw(100_000, 66.0);
        // A 0.35 µm bus at 66 MHz burns a few mW — not µW, not W.
        assert!((0.1..100.0).contains(&mw), "power {mw} mW");
    }

    #[test]
    fn idle_bus_still_burns_standby_energy() {
        let arbiter = HwEstimate::new(1000.0, 1.0);
        let idle = ActivityCounts { words: 0, decisions: 0, cycles: 10_000 };
        let report = estimate_energy(&EnergyModel::cmos035(), &idle, &arbiter);
        assert_eq!(report.transfer_pj, 0.0);
        assert_eq!(report.arbitration_pj, 0.0);
        assert!(report.idle_pj > 0.0);
    }

    #[test]
    #[should_panic(expected = "nonzero run length")]
    fn power_of_empty_run_panics() {
        let report = EnergyReport { transfer_pj: 1.0, arbitration_pj: 0.0, idle_pj: 0.0 };
        let _ = report.average_power_mw(0, 66.0);
    }
}
