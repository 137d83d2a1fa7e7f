//! Empirical validation of the paper's starvation-freedom claim (§4.2).
//!
//! The paper argues LOTTERYBUS cannot starve a component because the
//! probability of winning within `n` lotteries, `p = 1 − (1 − t/T)^n`,
//! "converges rapidly to one". This experiment measures that CDF on a
//! live bus — a saturating heavy competitor versus a light observed
//! component holding `t` of `T` tickets — and prints predicted vs
//! measured side by side, together with the fairness of the resulting
//! allocation under every arbiter.

use crate::common::{self, RecordedTraffic, RunSettings};
use crate::json::{Json, ToJson};
use crate::runner;
use lotterybus::{analysis, StaticLotteryArbiter, TicketAssignment};
use socsim::stats::jain_fairness_index;
use socsim::{BusConfig, MasterId, SystemBuilder};
use traffic_gen::{GeneratorSpec, SizeDist};

/// One row of the win-within-n CDF.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfPoint {
    /// Number of lottery drawings.
    pub drawings: u32,
    /// Closed-form `1 − (1 − t/T)^n`.
    pub predicted: f64,
    /// Fraction of observed transactions granted within `drawings`
    /// competitor grants.
    pub measured: f64,
}

/// The starvation experiment results.
#[derive(Debug, Clone, PartialEq)]
pub struct Starvation {
    /// Tickets held by the observed component.
    pub tickets: u32,
    /// Total tickets in play while both contend.
    pub total: u32,
    /// Predicted-vs-measured CDF of lotteries-to-win.
    pub cdf: Vec<CdfPoint>,
    /// Weighted Jain fairness (share ÷ weight) of a saturated 1:2:3:4
    /// system under each arbiter, in [`FAIRNESS_PROTOCOLS`] order.
    pub fairness: Vec<f64>,
}

/// Protocol order of [`Starvation::fairness`].
pub const FAIRNESS_PROTOCOLS: [&str; 5] =
    ["static-priority", "round-robin", "deficit-rr", "tdma-2level", "lottery-static"];

/// Runs the starvation experiment: a 1-of-10 ticket holder with light
/// traffic against a 9-of-10 saturating competitor.
pub fn run(settings: &RunSettings) -> Starvation {
    // The long CDF simulation and the five fairness runs are
    // independent; run them side by side.
    let (cdf, fairness) = runner::join(settings, || cdf_curve(settings), || fairness_row(settings));
    Starvation { tickets: 1, total: 10, cdf, fairness }
}

fn cdf_curve(settings: &RunSettings) -> Vec<CdfPoint> {
    let (tickets, total) = (1u32, 10u32);
    // The light component issues single-word messages so each
    // transaction's wait counts whole competitor grants.
    let light = GeneratorSpec::poisson(0.001, SizeDist::fixed(1));
    let heavy = GeneratorSpec::poisson(0.08, SizeDist::fixed(16));
    let assignment = TicketAssignment::new(vec![tickets, total - tickets]).expect("valid tickets");
    let mut system = SystemBuilder::new(BusConfig::default())
        .kernel(settings.kernel)
        .master("observed", light.build_kind(settings.seed))
        .master("competitor", heavy.build_kind(settings.seed + 1))
        .arbiter(
            StaticLotteryArbiter::with_seed(assignment, settings.seed as u32 | 1).expect("valid"),
        )
        .build()
        .expect("valid system");
    system.warm_up(settings.warmup);
    system.run(settings.measure * 4);
    let observed = system.stats().master(MasterId::new(0));

    // Convert the wait histogram into "competitor grants waited": each
    // lost lottery costs one competitor burst of up to 16 cycles.
    [1u32, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|drawings| {
            let within_cycles = u64::from(drawings) * 16;
            let measured =
                observed.latency_histogram.fraction_at_most(within_cycles).unwrap_or(0.0);
            CdfPoint {
                drawings,
                predicted: analysis::win_within_probability(tickets, total, drawings),
                measured: measured.min(1.0),
            }
        })
        .collect()
}

/// The weighted fairness of each protocol, all five over one recording
/// of the saturating traffic.
fn fairness_row(settings: &RunSettings) -> Vec<f64> {
    let weights = [1u32, 2, 3, 4];
    let traffic = RecordedTraffic::record(&traffic_gen::classes::saturating_specs(4), settings);
    let protocols: Vec<usize> = (0..FAIRNESS_PROTOCOLS.len()).collect();
    runner::map(settings, &protocols, |_, &protocol| {
        let arbiter = common::protocol_arbiter(protocol, settings.seed);
        let stats = traffic.run(arbiter, settings);
        let weighted: Vec<f64> = (0..4)
            .map(|i| stats.bandwidth_fraction(MasterId::new(i)) / f64::from(weights[i]))
            .collect();
        jain_fairness_index(&weighted)
    })
}

impl ToJson for Starvation {
    fn to_json(&self) -> Json {
        let cdf: Vec<Json> = self
            .cdf
            .iter()
            .map(|p| {
                Json::obj()
                    .field("drawings", p.drawings)
                    .field("predicted", p.predicted)
                    .field("measured", p.measured)
            })
            .collect();
        Json::obj()
            .field("tickets", self.tickets)
            .field("total", self.total)
            .field("cdf", Json::Arr(cdf))
            .field(
                "fairness_protocols",
                Json::Arr(FAIRNESS_PROTOCOLS.iter().map(|&n| n.into()).collect()),
            )
            .field("fairness", self.fairness.clone())
    }
}

impl std::fmt::Display for Starvation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Starvation bound: P(win within n lotteries), {} of {} tickets",
            self.tickets, self.total
        )?;
        writeln!(f, "{:>10} {:>11} {:>11}", "drawings", "predicted", "measured")?;
        for point in &self.cdf {
            writeln!(
                f,
                "{:>10} {:>10.1}% {:>10.1}%",
                point.drawings,
                point.predicted * 100.0,
                point.measured * 100.0
            )?;
        }
        writeln!(f)?;
        writeln!(f, "Weighted Jain fairness of a saturated 1:2:3:4 system:")?;
        for (name, value) in FAIRNESS_PROTOCOLS.iter().zip(&self.fairness) {
            writeln!(f, "  {name:<16} {value:.3}")?;
        }
        write!(f, "(1.000 = shares exactly proportional to weights)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_cdf_tracks_the_closed_form() {
        let settings = RunSettings { measure: 60_000, warmup: 5_000, ..RunSettings::quick() };
        let result = run(&settings);
        for point in &result.cdf {
            // The histogram is 2x-coarse and the competitor's grants are
            // shorter than 16 cycles on average, so allow generous slack
            // — but the measured CDF must climb with the prediction and
            // never show starvation where the bound promises service.
            assert!(
                point.measured + 0.25 >= point.predicted,
                "n={}: measured {:.2} far below predicted {:.2}",
                point.drawings,
                point.measured,
                point.predicted,
            );
        }
        let last = result.cdf.last().expect("points");
        assert!(last.measured > 0.9, "32 drawings should serve >90%: {:.2}", last.measured);
    }

    #[test]
    fn lottery_is_the_fairest_weighted_allocator() {
        let settings = RunSettings { measure: 40_000, warmup: 5_000, ..RunSettings::quick() };
        let result = run(&settings);
        let lottery = result.fairness[4];
        assert!(lottery > 0.99, "lottery weighted fairness {lottery:.3}");
        // Static priority is maximally unfair under saturation.
        assert!(result.fairness[0] < 0.7, "priority fairness {:.3}", result.fairness[0]);
        // Round-robin ignores weights entirely, so its *weighted*
        // fairness is poor too.
        assert!(result.fairness[1] < lottery);
    }
}
