//! The abstract standard-cell library.

/// One library cell: an area in *cell grids* (the paper's unit for NEC's
/// cell-based array) and a typical loaded propagation delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Area in cell grids.
    pub area_grids: f64,
    /// Propagation delay in nanoseconds.
    pub delay_ns: f64,
}

impl Cell {
    /// Creates a cell with the given area and delay.
    pub fn new(area_grids: f64, delay_ns: f64) -> Self {
        Cell { area_grids, delay_ns }
    }
}

/// A minimal standard-cell library sufficient to assemble the arbiter
/// datapaths of the paper's Figures 9 and 10.
///
/// The default constants are calibrated to a generic 0.35 µm process —
/// absolute values substitute for NEC's proprietary CB-C9 VX data, but
/// the ratios between cells are typical, so block-to-block comparisons
/// hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellLibrary {
    /// Inverter.
    pub inv: Cell,
    /// 2-input NAND.
    pub nand2: Cell,
    /// 2-input NOR.
    pub nor2: Cell,
    /// 2-input XOR.
    pub xor2: Cell,
    /// 2-to-1 multiplexer.
    pub mux2: Cell,
    /// AND-OR-invert (complex gate used in compare/select logic).
    pub aoi: Cell,
    /// D flip-flop (delay = clock-to-Q plus setup).
    pub dff: Cell,
    /// Full adder.
    pub fa: Cell,
}

impl CellLibrary {
    /// The 0.35 µm-class library used throughout the reproduction.
    pub fn cmos035() -> Self {
        CellLibrary {
            inv: Cell::new(2.0, 0.08),
            nand2: Cell::new(3.0, 0.12),
            nor2: Cell::new(3.0, 0.14),
            xor2: Cell::new(6.0, 0.22),
            mux2: Cell::new(5.0, 0.18),
            aoi: Cell::new(4.0, 0.15),
            dff: Cell::new(9.0, 0.45),
            fa: Cell::new(14.0, 0.40),
        }
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        CellLibrary::cmos035()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_cells_are_physical() {
        let lib = CellLibrary::cmos035();
        for cell in [lib.inv, lib.nand2, lib.nor2, lib.xor2, lib.mux2, lib.aoi, lib.dff, lib.fa] {
            assert!(cell.area_grids > 0.0);
            assert!(cell.delay_ns > 0.0);
        }
    }

    #[test]
    fn relative_sizes_are_sensible() {
        let lib = CellLibrary::cmos035();
        assert!(lib.inv.area_grids < lib.nand2.area_grids);
        assert!(lib.nand2.area_grids < lib.dff.area_grids);
        assert!(lib.fa.area_grids > lib.xor2.area_grids);
        assert!(lib.dff.delay_ns > lib.inv.delay_ns);
    }
}
