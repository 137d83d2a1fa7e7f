//! Figure 6: the motivating LOTTERYBUS results.
//!
//! * **6(a)** — bandwidth sharing under the lottery across all 24 ticket
//!   permutations: the fraction each component receives is directly
//!   proportional to its tickets, unlike the priority cliff of Figure 4.
//! * **6(b)** — average communication latency of each component under
//!   TDMA and under LOTTERYBUS for an illustrative bursty traffic class:
//!   the highest-weight component's latency drops severalfold under the
//!   lottery (the paper reports 8.55 → 2.7 cycles/word).

use crate::common::{self, RecordedTraffic, RunSettings};
use crate::json::{Json, ToJson};
use crate::runner;
use arbiters::{TdmaArbiter, WheelLayout};
use lotterybus::{StaticLotteryArbiter, TicketAssignment};
use traffic_gen::TrafficClass;

/// Slots per weight unit in the TDMA wheels of the latency experiments
/// (contiguous blocks, following the paper's Figure 5 reservations).
pub const TDMA_BLOCK: u32 = 64;

/// One bar of Figure 6(a).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6aRow {
    /// Ticket assignment label, e.g. `"1234"`.
    pub assignment: String,
    /// Tickets per component.
    pub tickets: Vec<u32>,
    /// Measured bandwidth fraction per component.
    pub bandwidth: Vec<f64>,
}

/// Figure 6(a): lottery bandwidth sharing across ticket permutations.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6a {
    /// Rows in lexicographic assignment order.
    pub rows: Vec<Fig6aRow>,
}

/// Runs Figure 6(a). Each ticket permutation is an independent
/// simulation over one recording of the saturating traffic (the arbiter
/// is constructed inside the job), so the 24 rows fan out across
/// `settings.jobs` workers.
pub fn run_bandwidth(settings: &RunSettings) -> Fig6a {
    let traffic = RecordedTraffic::record(&traffic_gen::classes::saturating_specs(4), settings);
    let perms = common::permutations(4);
    let rows = runner::map(settings, &perms, |_, perm| {
        let tickets = TicketAssignment::new(perm.clone()).expect("valid tickets");
        let arbiter = StaticLotteryArbiter::with_seed(tickets, settings.seed as u32 | 1)
            .expect("4-master LUT fits");
        let stats = traffic.run(arbiter, settings);
        Fig6aRow {
            assignment: common::permutation_label(perm),
            tickets: perm.clone(),
            bandwidth: common::bandwidth_fractions(&stats, 4),
        }
    });
    Fig6a { rows }
}

impl Fig6a {
    /// Largest absolute error between a component's measured bandwidth
    /// fraction and its ticket fraction, across all rows.
    pub fn worst_proportionality_error(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for row in &self.rows {
            let total: u32 = row.tickets.iter().sum();
            for c in 0..row.tickets.len() {
                let entitled = f64::from(row.tickets[c]) / f64::from(total);
                worst = worst.max((row.bandwidth[c] - entitled).abs());
            }
        }
        worst
    }
}

impl ToJson for Fig6a {
    fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|row| {
                Json::obj()
                    .field("assignment", row.assignment.as_str())
                    .field("tickets", row.tickets.clone())
                    .field("bandwidth", row.bandwidth.clone())
            })
            .collect();
        Json::obj().field("rows", Json::Arr(rows))
    }
}

impl std::fmt::Display for Fig6a {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 6(a): bandwidth sharing under LOTTERYBUS (saturated bus)")?;
        writeln!(f, "{:>10} {:>8} {:>8} {:>8} {:>8}", "tickets", "C1", "C2", "C3", "C4")?;
        for row in &self.rows {
            writeln!(
                f,
                "{:>10} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
                row.assignment,
                row.bandwidth[0] * 100.0,
                row.bandwidth[1] * 100.0,
                row.bandwidth[2] * 100.0,
                row.bandwidth[3] * 100.0,
            )?;
        }
        write!(
            f,
            "worst |measured - ticket fraction| across all rows: {:.2} points",
            self.worst_proportionality_error() * 100.0,
        )
    }
}

/// Figure 6(b): per-component latency under TDMA vs LOTTERYBUS for one
/// illustrative traffic class.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6b {
    /// The traffic class used.
    pub class: TrafficClass,
    /// Cycles/word per component under the two-level TDMA bus.
    pub tdma: Vec<Option<f64>>,
    /// Cycles/word per component under LOTTERYBUS.
    pub lottery: Vec<Option<f64>>,
}

/// Runs Figure 6(b) with the paper's weights 1:2:3:4 on traffic class
/// `class` (the paper's illustrative class is T6), both arbiters over
/// one recording of the class's traffic.
pub fn run_latency(class: TrafficClass, settings: &RunSettings) -> Fig6b {
    let weights = [1u32, 2, 3, 4];
    let traffic = RecordedTraffic::record(&class.specs_with_frame(&weights, TDMA_BLOCK), settings);
    let (tdma_stats, lottery_stats) = runner::join(
        settings,
        || {
            let slots: Vec<u32> = weights.iter().map(|w| w * TDMA_BLOCK).collect();
            let tdma = TdmaArbiter::new(&slots, WheelLayout::Contiguous).expect("valid wheel");
            traffic.run(tdma, settings)
        },
        || {
            let tickets = TicketAssignment::new(weights.to_vec()).expect("valid tickets");
            let lottery = StaticLotteryArbiter::with_seed(tickets, settings.seed as u32 | 1)
                .expect("4-master LUT fits");
            traffic.run(lottery, settings)
        },
    );
    Fig6b {
        class,
        tdma: common::latencies(&tdma_stats, 4),
        lottery: common::latencies(&lottery_stats, 4),
    }
}

impl ToJson for Fig6b {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("class", self.class.to_string())
            .field("tdma", self.tdma.clone())
            .field("lottery", self.lottery.clone())
    }
}

impl std::fmt::Display for Fig6b {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 6(b): average latency, TDMA vs LOTTERYBUS (class {})", self.class)?;
        writeln!(f, "{:>10} {:>12} {:>12}", "component", "TDMA", "LOTTERYBUS")?;
        for c in 0..4 {
            let t = self.tdma[c].map_or("-".into(), |v| format!("{v:.2}"));
            let l = self.lottery[c].map_or("-".into(), |v| format!("{v:.2}"));
            writeln!(f, "{:>10} {:>12} {:>12}", format!("C{} ({})", c + 1, c + 1), t, l)?;
        }
        let (t4, l4) = (self.tdma[3].unwrap_or(f64::NAN), self.lottery[3].unwrap_or(f64::NAN));
        write!(f, "highest-weight component improves {:.1}x under the lottery", t4 / l4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_tracks_tickets_in_every_permutation() {
        let fig =
            run_bandwidth(&RunSettings { measure: 40_000, warmup: 5_000, ..RunSettings::quick() });
        assert_eq!(fig.rows.len(), 24);
        // Paper: "the actual allocation of bandwidth closely matches the
        // ratio of lottery tickets". Allow a few points of slack for the
        // power-of-two scaling and finite window.
        assert!(
            fig.worst_proportionality_error() < 0.06,
            "worst error {:.3}",
            fig.worst_proportionality_error()
        );
    }

    #[test]
    fn lottery_beats_tdma_for_high_weight_component() {
        let fig = run_latency(TrafficClass::T6, &RunSettings::quick());
        let (t4, l4) = (fig.tdma[3].expect("served"), fig.lottery[3].expect("served"));
        assert!(t4 > 1.5 * l4, "TDMA {t4:.2} should be well above lottery {l4:.2} for C4");
    }
}
