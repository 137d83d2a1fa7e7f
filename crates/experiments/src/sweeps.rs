//! Extension sweeps beyond the paper's figures.
//!
//! The paper claims LOTTERYBUS gives the designer "fine-grained control
//! over the fraction of communication bandwidth" and latencies that stay
//! low as load grows. These sweeps chart both claims as continuous
//! curves:
//!
//! * [`ticket_granularity`] — one component's ticket count sweeps 1..64
//!   against three 1-ticket competitors; its bandwidth share must track
//!   `k / (k + 3)` across the whole range.
//! * [`latency_vs_load`] — average latency of a tagged component as the
//!   total offered load rises from 30 % to 120 % of bus capacity, under
//!   every arbitration protocol: the queueing "hockey stick" and where
//!   each protocol's knee sits.

use crate::common::{self, RecordedTraffic, RunSettings};
use crate::json::{Json, ToJson};
use crate::runner;
use arbiters::ArbiterKind;
use lotterybus::{StaticLotteryArbiter, TicketAssignment};
use socsim::{BusStats, MasterId};
use traffic_gen::{GeneratorSpec, SizeDist};

/// One point of the ticket-granularity sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GranularityPoint {
    /// Tickets held by the swept component (competitors hold 1 each).
    pub tickets: u32,
    /// Its entitled share `k / (k + 3)`.
    pub entitled: f64,
    /// Its measured bandwidth share.
    pub measured: f64,
}

/// Sweeps one component's ticket count against three single-ticket
/// competitors on a saturated bus, every count over one recording of
/// the traffic.
pub fn ticket_granularity(settings: &RunSettings) -> Vec<GranularityPoint> {
    let counts = [1u32, 2, 3, 5, 8, 13, 21, 34, 64];
    let arbiter_for = |k: u32| -> ArbiterKind {
        let tickets = TicketAssignment::new(vec![k, 1, 1, 1]).expect("valid");
        StaticLotteryArbiter::with_seed(tickets, settings.seed as u32 | 1)
            .expect("4-master LUT fits")
            .into()
    };
    // Every master must offer more than any possible entitlement
    // (up to 64/67 ≈ 96 %), so each offers ~1.4× bus capacity.
    let spec = GeneratorSpec::poisson(0.09, SizeDist::fixed(16));
    let traffic = RecordedTraffic::record(&[spec; 4], settings);
    let stats: Vec<BusStats> =
        runner::map(settings, &counts, |_, &k| traffic.run(arbiter_for(k), settings));
    counts
        .iter()
        .zip(stats)
        .map(|(&k, stats)| GranularityPoint {
            tickets: k,
            entitled: f64::from(k) / f64::from(k + 3),
            measured: stats.bandwidth_fraction(MasterId::new(0)),
        })
        .collect()
}

/// One point of the latency-vs-load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Total offered load as a fraction of bus capacity.
    pub load: f64,
    /// Cycles/word of the tagged (highest-weight) component per protocol,
    /// in [`LATENCY_PROTOCOLS`] order.
    pub latency: Vec<Option<f64>>,
}

/// Protocol order of [`LoadPoint::latency`].
pub const LATENCY_PROTOCOLS: [&str; 5] =
    ["static-priority", "round-robin", "deficit-rr", "tdma-2level", "lottery-static"];

/// Sweeps total offered load and measures the tagged component's
/// latency under each protocol. Loads are split by weight 1:2:3:4; the
/// tagged component holds weight 4 (top priority / most slots / most
/// tickets). Each load's traffic is recorded once and replayed under
/// all five protocols.
pub fn latency_vs_load(settings: &RunSettings) -> Vec<LoadPoint> {
    let weights = [1u32, 2, 3, 4];
    let loads = [0.3, 0.5, 0.7, 0.85, 1.0, 1.2];
    let traffic: Vec<RecordedTraffic> = loads
        .iter()
        .map(|&load| {
            let specs: Vec<GeneratorSpec> = weights
                .iter()
                .map(|&w| {
                    let rate = load * f64::from(w) / 10.0 / 16.0;
                    GeneratorSpec::poisson(rate, SizeDist::fixed(16))
                })
                .collect();
            RecordedTraffic::record(&specs, settings)
        })
        .collect();
    // Flatten the (load × protocol) cross-product into one job list so
    // all 30 simulations fan out together; arbiters are built inside
    // each job from the lineup index ([`common::protocol_arbiter`]).
    let cells: Vec<(usize, usize)> = (0..loads.len())
        .flat_map(|load| (0..LATENCY_PROTOCOLS.len()).map(move |p| (load, p)))
        .collect();
    let latencies: Vec<Option<f64>> = runner::map(settings, &cells, |_, &(load, protocol)| {
        let arbiter = common::protocol_arbiter(protocol, settings.seed);
        let stats = traffic[load].run(arbiter, settings);
        stats.master(MasterId::new(3)).cycles_per_word()
    });
    loads
        .iter()
        .enumerate()
        .map(|(i, &load)| {
            let row = &latencies[i * LATENCY_PROTOCOLS.len()..(i + 1) * LATENCY_PROTOCOLS.len()];
            LoadPoint { load, latency: row.to_vec() }
        })
        .collect()
}

/// Both sweeps bundled for printing.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweeps {
    /// Ticket-granularity curve.
    pub granularity: Vec<GranularityPoint>,
    /// Latency-vs-load curves.
    pub load: Vec<LoadPoint>,
}

/// Runs both sweeps.
pub fn run(settings: &RunSettings) -> Sweeps {
    Sweeps { granularity: ticket_granularity(settings), load: latency_vs_load(settings) }
}

impl ToJson for Sweeps {
    fn to_json(&self) -> Json {
        let granularity: Vec<Json> = self
            .granularity
            .iter()
            .map(|p| {
                Json::obj()
                    .field("tickets", p.tickets)
                    .field("entitled", p.entitled)
                    .field("measured", p.measured)
            })
            .collect();
        let load: Vec<Json> = self
            .load
            .iter()
            .map(|p| Json::obj().field("load", p.load).field("latency", p.latency.clone()))
            .collect();
        Json::obj()
            .field("protocols", Json::Arr(LATENCY_PROTOCOLS.iter().map(|&n| n.into()).collect()))
            .field("granularity", Json::Arr(granularity))
            .field("load", Json::Arr(load))
    }
}

impl std::fmt::Display for Sweeps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Sweep: bandwidth share vs ticket count (3 single-ticket competitors)")?;
        writeln!(f, "{:>8} {:>10} {:>10}", "tickets", "entitled", "measured")?;
        for point in &self.granularity {
            writeln!(
                f,
                "{:>8} {:>9.1}% {:>9.1}%",
                point.tickets,
                point.entitled * 100.0,
                point.measured * 100.0
            )?;
        }
        writeln!(f)?;
        writeln!(f, "Sweep: top-weight component latency (cycles/word) vs offered load")?;
        write!(f, "{:>6}", "load")?;
        for name in LATENCY_PROTOCOLS {
            write!(f, " {name:>16}")?;
        }
        writeln!(f)?;
        for point in &self.load {
            write!(f, "{:>5.0}%", point.load * 100.0)?;
            for latency in &point.latency {
                write!(f, " {:>16}", latency.map_or("-".into(), |v| format!("{v:.2}")))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings() -> RunSettings {
        RunSettings { measure: 50_000, warmup: 5_000, ..RunSettings::quick() }
    }

    #[test]
    fn granularity_curve_tracks_entitlement() {
        for point in ticket_granularity(&settings()) {
            assert!(
                (point.measured - point.entitled).abs() < 0.05,
                "tickets {}: measured {:.3} vs entitled {:.3}",
                point.tickets,
                point.measured,
                point.entitled,
            );
        }
    }

    #[test]
    fn latency_grows_with_load_for_every_protocol() {
        let curve = latency_vs_load(&settings());
        let first = &curve[0];
        let last = curve.last().expect("points");
        for (p, name) in LATENCY_PROTOCOLS.iter().enumerate() {
            let (lo, hi) = (first.latency[p].expect("served"), last.latency[p].expect("served"));
            assert!(hi > lo, "{name}: latency {hi:.2} at high load not above {lo:.2}");
        }
    }

    #[test]
    fn top_priority_is_load_insensitive_under_static_priority() {
        // The top-priority master barely notices congestion: that is the
        // whole point of priority — and its cost is everyone else.
        let curve = latency_vs_load(&settings());
        let lo = curve[0].latency[0].expect("served");
        let hi = curve.last().expect("points").latency[0].expect("served");
        assert!(hi < 2.5 * lo, "static priority top master: {lo:.2} -> {hi:.2}");
    }
}
