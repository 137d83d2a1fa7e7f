//! Full arbiter hardware estimates, assembled from [`crate::blocks`].

use crate::blocks;
use crate::cells::CellLibrary;
use crate::estimate::HwEstimate;
use std::fmt;

/// One named block inside a manager, with its estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCost {
    /// Block name (e.g. `"range LUT"`).
    pub name: String,
    /// Area/delay of the block.
    pub estimate: HwEstimate,
    /// Whether the block sits on the arbitration critical path (storage
    /// updated off-path, like the LFSR state, does not).
    pub on_critical_path: bool,
}

/// A complete area/critical-path report for one arbiter implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagerReport {
    /// Implementation name.
    pub name: String,
    /// Number of masters served.
    pub masters: usize,
    /// Ticket (or counter) width in bits.
    pub width_bits: u32,
    /// Per-block breakdown.
    pub blocks: Vec<BlockCost>,
    /// Total area and critical-path delay.
    pub total: HwEstimate,
}

impl ManagerReport {
    fn from_blocks(
        name: impl Into<String>,
        masters: usize,
        width_bits: u32,
        blocks: Vec<BlockCost>,
    ) -> Self {
        let area: f64 = blocks.iter().map(|b| b.estimate.area_grids).sum();
        let delay: f64 =
            blocks.iter().filter(|b| b.on_critical_path).map(|b| b.estimate.delay_ns).sum();
        ManagerReport {
            name: name.into(),
            masters,
            width_bits,
            blocks,
            total: HwEstimate::new(area, delay),
        }
    }
}

impl fmt::Display for ManagerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({} masters, {}-bit tickets)", self.name, self.masters, self.width_bits)?;
        for block in &self.blocks {
            writeln!(
                f,
                "  {:<22} {:>9.0} grids  {:>6.2} ns{}",
                block.name,
                block.estimate.area_grids,
                block.estimate.delay_ns,
                if block.on_critical_path { "" } else { "  (off critical path)" },
            )?;
        }
        write!(
            f,
            "  {:<22} {:>9.0} grids  {:>6.2} ns  ({:.0} MHz single-cycle)",
            "TOTAL",
            self.total.area_grids,
            self.total.delay_ns,
            self.total.max_freq_mhz(),
        )
    }
}

/// The static lottery manager of Figure 9: request-map-indexed range
/// LUT, LFSR, parallel comparators, priority selector.
pub fn static_lottery_manager(
    lib: &CellLibrary,
    masters: usize,
    ticket_bits: u32,
) -> ManagerReport {
    // Scaled subset totals carry two extra resolution bits (§4.3).
    let range_bits = ticket_bits + 2;
    let lut_depth = 1usize << masters;
    let lut_width = masters as u32 * range_bits;
    let blocks = vec![
        BlockCost {
            name: "range LUT".into(),
            estimate: blocks::register_file(lib, lut_depth, lut_width),
            on_critical_path: true,
        },
        BlockCost {
            name: "LFSR".into(),
            // Pipelined with data transfer: contributes area, and only
            // its clock-to-Q delay lands on the arbitration path.
            estimate: blocks::lfsr(lib, range_bits),
            on_critical_path: false,
        },
        BlockCost {
            name: "comparators".into(),
            estimate: blocks::comparator(lib, range_bits).replicated(masters),
            on_critical_path: true,
        },
        BlockCost {
            name: "priority selector".into(),
            estimate: blocks::priority_selector(lib, masters),
            on_critical_path: true,
        },
    ];
    ManagerReport::from_blocks("static lottery manager", masters, ticket_bits, blocks)
}

/// The dynamic lottery manager of Figure 10: AND stage, adder tree,
/// modulo reduction, comparators, priority selector, plus the ticket
/// registers themselves.
pub fn dynamic_lottery_manager(
    lib: &CellLibrary,
    masters: usize,
    ticket_bits: u32,
) -> ManagerReport {
    let sum_bits = ticket_bits + (usize::BITS - masters.leading_zeros());
    let blocks = vec![
        BlockCost {
            name: "ticket registers".into(),
            estimate: HwEstimate::new(
                masters as f64 * f64::from(ticket_bits) * lib.dff.area_grids,
                0.0,
            ),
            on_critical_path: false,
        },
        BlockCost {
            name: "AND stage".into(),
            estimate: blocks::and_stage(lib, masters, ticket_bits),
            on_critical_path: true,
        },
        BlockCost {
            name: "adder tree".into(),
            estimate: blocks::adder_tree(lib, masters, ticket_bits),
            on_critical_path: true,
        },
        BlockCost {
            name: "RNG (LFSR)".into(),
            estimate: blocks::lfsr(lib, sum_bits),
            on_critical_path: false,
        },
        BlockCost {
            name: "modulo unit".into(),
            estimate: blocks::modulo_unit(lib, sum_bits),
            on_critical_path: true,
        },
        BlockCost {
            name: "comparators".into(),
            estimate: blocks::comparator(lib, sum_bits).replicated(masters),
            on_critical_path: true,
        },
        BlockCost {
            name: "priority selector".into(),
            estimate: blocks::priority_selector(lib, masters),
            on_critical_path: true,
        },
    ];
    ManagerReport::from_blocks("dynamic lottery manager", masters, ticket_bits, blocks)
}

/// A conventional static-priority arbiter: a fixed priority encoder.
pub fn static_priority_arbiter(lib: &CellLibrary, masters: usize) -> ManagerReport {
    let blocks = vec![BlockCost {
        name: "priority encoder".into(),
        estimate: blocks::priority_selector(lib, masters),
        on_critical_path: true,
    }];
    ManagerReport::from_blocks("static-priority arbiter", masters, 0, blocks)
}

/// A two-level TDMA arbiter: slot counter, wheel table and the
/// round-robin reclaim logic.
pub fn tdma_arbiter(lib: &CellLibrary, masters: usize, wheel_slots: usize) -> ManagerReport {
    let slot_bits = (usize::BITS - wheel_slots.saturating_sub(1).leading_zeros()).max(1);
    let master_bits = (usize::BITS - masters.saturating_sub(1).leading_zeros()).max(1);
    let blocks = vec![
        BlockCost {
            name: "slot counter".into(),
            estimate: HwEstimate::new(
                f64::from(slot_bits) * (lib.dff.area_grids + lib.fa.area_grids),
                0.0,
            ),
            on_critical_path: false,
        },
        BlockCost {
            name: "wheel table".into(),
            estimate: blocks::register_file(lib, wheel_slots, master_bits),
            on_critical_path: true,
        },
        BlockCost {
            name: "round-robin reclaim".into(),
            estimate: blocks::priority_selector(lib, masters)
                .then(blocks::priority_selector(lib, masters)),
            on_critical_path: true,
        },
    ];
    ManagerReport::from_blocks("two-level TDMA arbiter", masters, 0, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> CellLibrary {
        CellLibrary::cmos035()
    }

    #[test]
    fn static_manager_fits_one_cycle_at_high_speed() {
        // §5.2: arbitration in one cycle for bus speeds of a few hundred
        // MHz on the 4-master system.
        let report = static_lottery_manager(&lib(), 4, 8);
        assert!(report.total.delay_ns < 5.0, "delay {}", report.total.delay_ns);
        assert!(report.total.max_freq_mhz() > 200.0);
        assert!(report.total.area_grids > 100.0);
    }

    #[test]
    fn dynamic_manager_is_larger_and_slower_than_static() {
        let l = lib();
        let s = static_lottery_manager(&l, 4, 8);
        let d = dynamic_lottery_manager(&l, 4, 8);
        assert!(d.total.delay_ns > s.total.delay_ns, "dynamic must be slower (modulo unit)");
    }

    #[test]
    fn lottery_costs_more_than_conventional_arbiters() {
        let l = lib();
        let s = static_lottery_manager(&l, 4, 8);
        let p = static_priority_arbiter(&l, 4);
        assert!(s.total.area_grids > p.total.area_grids);
        assert!(s.total.delay_ns > p.total.delay_ns);
    }

    #[test]
    fn static_lut_grows_exponentially_with_masters() {
        let l = lib();
        let a4 = static_lottery_manager(&l, 4, 8).total.area_grids;
        let a6 = static_lottery_manager(&l, 6, 8).total.area_grids;
        let a8 = static_lottery_manager(&l, 8, 8).total.area_grids;
        assert!(a6 / a4 > 3.0, "LUT growth {a4} -> {a6}");
        assert!(a8 / a6 > 3.0, "LUT growth {a6} -> {a8}");
        // The dynamic design avoids the exponential LUT.
        let d4 = dynamic_lottery_manager(&l, 4, 8).total.area_grids;
        let d8 = dynamic_lottery_manager(&l, 8, 8).total.area_grids;
        assert!(d8 / d4 < 4.0, "adder-tree growth {d4} -> {d8}");
    }

    #[test]
    fn report_display_includes_totals() {
        let text = static_lottery_manager(&lib(), 4, 8).to_string();
        assert!(text.contains("TOTAL"));
        assert!(text.contains("range LUT"));
        assert!(text.contains("MHz"));
    }

    #[test]
    fn tdma_report_scales_with_wheel() {
        let l = lib();
        let small = tdma_arbiter(&l, 4, 10);
        let large = tdma_arbiter(&l, 4, 60);
        assert!(large.total.area_grids > small.total.area_grids);
    }
}
