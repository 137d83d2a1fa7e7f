//! Table 1: the output-queued ATM switch under all three architectures.

use crate::json::{Json, ToJson};
use atm_switch::{AtmReport, SwitchArbiter, SwitchConfig};

/// The three rows of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Static priority, TDMA, LOTTERYBUS — in the paper's row order.
    pub rows: Vec<AtmReport>,
}

/// Runs Table 1: `cycles` measured cycles per architecture.
///
/// # Errors
///
/// Returns an error if the switch configuration cannot be assembled.
pub fn run(cycles: u64, seed: u64) -> Result<Table1, Box<dyn std::error::Error>> {
    run_jobs(cycles, seed, 1).map_err(Into::into)
}

/// [`run`] with an explicit worker count (`0` = auto). The three
/// architectures are independent simulations of the same switch config,
/// so they fan out one per worker; errors cross the thread boundary as
/// strings (`Box<dyn Error>` is not `Send`).
///
/// # Errors
///
/// Returns the first architecture's error message, in row order.
pub fn run_jobs(cycles: u64, seed: u64, jobs: usize) -> Result<Table1, String> {
    let cfg = SwitchConfig::paper_setup();
    let archs = [SwitchArbiter::StaticPriority, SwitchArbiter::Tdma, SwitchArbiter::Lottery];
    let rows = socsim::pool::parallel_map(jobs, &archs, |_, &arch| {
        cfg.run(arch, cycles, seed).map_err(|e| e.to_string())
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    Ok(Table1 { rows })
}

impl Table1 {
    /// The report for one architecture.
    pub fn report(&self, arch: SwitchArbiter) -> &AtmReport {
        let idx = match arch {
            SwitchArbiter::StaticPriority => 0,
            SwitchArbiter::Tdma => 1,
            SwitchArbiter::Lottery => 2,
        };
        &self.rows[idx]
    }
}

impl ToJson for Table1 {
    fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|row| {
                Json::obj()
                    .field("architecture", row.architecture.as_str())
                    .field("bandwidth", row.bandwidth.clone())
                    .field("latency_cycles_per_word", row.latency_cycles_per_word.clone())
                    .field("cells_forwarded", row.cells_forwarded.clone())
                    .field("cells_dropped", row.cells_dropped.clone())
                    .field("cells_aborted", row.cells_aborted.clone())
                    .field("utilization", row.utilization)
            })
            .collect();
        Json::obj().field("rows", Json::Arr(rows))
    }
}

impl std::fmt::Display for Table1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 1: ATM switch QoS (weights 1:2:4:6 for ports 1..4)")?;
        writeln!(
            f,
            "{:<16} {:>8} {:>8} {:>8} {:>8} {:>14}",
            "architecture", "P1 bw", "P2 bw", "P3 bw", "P4 bw", "P4 latency"
        )?;
        for row in &self.rows {
            let l4 =
                row.latency_cycles_per_word[3].map_or("-".into(), |v| format!("{v:.2} cyc/word"));
            writeln!(
                f,
                "{:<16} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>14}",
                row.architecture,
                row.bandwidth[0] * 100.0,
                row.bandwidth[1] * 100.0,
                row.bandwidth[2] * 100.0,
                row.bandwidth[3] * 100.0,
                l4,
            )?;
        }
        write!(f, "reservation target for ports 1-3: bandwidth ratio 1:2:4")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_rows_match_serial() {
        let serial = run_jobs(20_000, 17, 1).expect("switch runs");
        let parallel = run_jobs(20_000, 17, 3).expect("switch runs");
        assert_eq!(serial, parallel);
    }

    #[test]
    fn table1_reproduces_paper_shape() {
        let table = run(120_000, 17).expect("switch runs");
        let sp = table.report(SwitchArbiter::StaticPriority);
        let td = table.report(SwitchArbiter::Tdma);
        let lo = table.report(SwitchArbiter::Lottery);

        // (1) Port-4 latency: minimal under static priority, several
        // times larger under TDMA, comparable to static under lottery.
        let (l_sp, l_td, l_lo) =
            (sp.latency(3).unwrap(), td.latency(3).unwrap(), lo.latency(3).unwrap());
        assert!(l_td > 2.0 * l_sp, "TDMA {l_td:.2} vs static {l_sp:.2}");
        assert!(l_lo < 0.6 * l_td, "lottery {l_lo:.2} vs TDMA {l_td:.2}");

        // (2) Static priority does not respect reservations: port 1
        // starves.
        assert!(sp.bandwidth_fraction(0) < 0.08);

        // (3) Lottery bandwidth for ports 1-3 close to 1:2:4.
        let r21 = lo.bandwidth_ratio(1, 0);
        let r31 = lo.bandwidth_ratio(2, 0);
        assert!((r21 - 2.0).abs() < 0.6, "P2/P1 {r21:.2}");
        assert!((r31 - 4.0).abs() < 1.2, "P3/P1 {r31:.2}");

        // (4) TDMA's round-robin reclaim flattens the ratio.
        let tdma_r31 = td.bandwidth_ratio(2, 0);
        assert!(tdma_r31 < r31, "TDMA P3/P1 {tdma_r31:.2} vs lottery {r31:.2}");
    }
}
