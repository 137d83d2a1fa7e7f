//! §5.2: hardware complexity of the LOTTERYBUS architecture.
//!
//! The paper implements the 4-master lottery manager in NEC's 0.35 µm
//! cell-based array, reports its area in cell grids, and concludes that
//! arbitration completes within a single bus cycle at bus speeds of a
//! few hundred MHz. This experiment regenerates that table from the
//! structural model in [`hwmodel`], plus a scaling sweep over master
//! count that contrasts the static design's exponential LUT with the
//! dynamic design's adder tree.

use crate::json::{Json, ToJson};
use hwmodel::{managers, CellLibrary, ManagerReport};

/// The hardware-complexity table.
#[derive(Debug, Clone, PartialEq)]
pub struct HwTable {
    /// Reports for the paper's 4-master configuration.
    pub four_master: Vec<ManagerReport>,
    /// Static-manager totals for 2..=8 masters (area, delay).
    pub static_sweep: Vec<ManagerReport>,
    /// Dynamic-manager totals for 2..=8 masters.
    pub dynamic_sweep: Vec<ManagerReport>,
}

/// Ticket width used in the paper-scale configuration.
pub const TICKET_BITS: u32 = 8;

/// Runs the hardware-complexity estimation.
pub fn run() -> HwTable {
    let lib = CellLibrary::cmos035();
    let four_master = vec![
        managers::static_lottery_manager(&lib, 4, TICKET_BITS),
        managers::dynamic_lottery_manager(&lib, 4, TICKET_BITS),
        managers::static_priority_arbiter(&lib, 4),
        managers::tdma_arbiter(&lib, 4, 60),
    ];
    let static_sweep =
        (2..=8).map(|n| managers::static_lottery_manager(&lib, n, TICKET_BITS)).collect();
    let dynamic_sweep =
        (2..=8).map(|n| managers::dynamic_lottery_manager(&lib, n, TICKET_BITS)).collect();
    HwTable { four_master, static_sweep, dynamic_sweep }
}

fn report_json(report: &ManagerReport) -> Json {
    Json::obj()
        .field("name", report.name.as_str())
        .field("masters", report.masters)
        .field("width_bits", report.width_bits)
        .field("area_grids", report.total.area_grids)
        .field("delay_ns", report.total.delay_ns)
}

impl ToJson for HwTable {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("four_master", Json::Arr(self.four_master.iter().map(report_json).collect()))
            .field("static_sweep", Json::Arr(self.static_sweep.iter().map(report_json).collect()))
            .field("dynamic_sweep", Json::Arr(self.dynamic_sweep.iter().map(report_json).collect()))
    }
}

impl std::fmt::Display for HwTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Hardware complexity (abstract 0.35um-class library)")?;
        for report in &self.four_master {
            writeln!(f, "{report}")?;
            writeln!(f)?;
        }
        writeln!(f, "Scaling with master count (total area in cell grids / delay in ns):")?;
        writeln!(f, "{:>8} {:>20} {:>20}", "masters", "static lottery", "dynamic lottery")?;
        for (s, d) in self.static_sweep.iter().zip(&self.dynamic_sweep) {
            writeln!(
                f,
                "{:>8} {:>12.0} / {:>4.2} {:>12.0} / {:>4.2}",
                s.masters,
                s.total.area_grids,
                s.total.delay_ns,
                d.total.area_grids,
                d.total.delay_ns,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_claims_hold() {
        let table = run();
        let static_mgr = &table.four_master[0];
        let dynamic_mgr = &table.four_master[1];
        // Single-cycle arbitration at a few hundred MHz (§5.2 reports
        // ~3 ns / ~300 MHz for the static manager).
        assert!(static_mgr.total.delay_ns < 4.0, "delay {}", static_mgr.total.delay_ns);
        assert!(static_mgr.total.max_freq_mhz() > 250.0);
        // Area on the order of 10^3..10^4 cell grids.
        assert!(static_mgr.total.area_grids > 500.0);
        assert!(static_mgr.total.area_grids < 50_000.0);
        // The dynamic manager pays for the adder tree and modulo unit.
        assert!(dynamic_mgr.total.delay_ns > static_mgr.total.delay_ns);
    }

    #[test]
    fn sweeps_cover_two_to_eight_masters() {
        let table = run();
        assert_eq!(table.static_sweep.len(), 7);
        assert_eq!(table.dynamic_sweep.len(), 7);
        // Exponential vs roughly-linear growth.
        let s_growth =
            table.static_sweep[6].total.area_grids / table.static_sweep[2].total.area_grids;
        let d_growth =
            table.dynamic_sweep[6].total.area_grids / table.dynamic_sweep[2].total.area_grids;
        assert!(s_growth > d_growth, "static {s_growth:.1}x vs dynamic {d_growth:.1}x");
    }
}
