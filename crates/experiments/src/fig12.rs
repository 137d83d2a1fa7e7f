//! Figure 12: performance across the communication-traffic space.
//!
//! * **12(a)** — LOTTERYBUS bandwidth allocation across classes T1–T9,
//!   including the unused fraction. Under heavy classes the allocation
//!   follows the 1:2:3:4 tickets; in the sparse classes (T3, T6) grants
//!   are mostly immediate and shares track offered load instead.
//! * **12(b)** — per-component latency under two-level TDMA across
//!   classes T1–T6.
//! * **12(c)** — the same under LOTTERYBUS: lower and far less variable
//!   for the high-weight components, and never inverted (a higher-weight
//!   component never does worse than a lower-weight one by a large
//!   factor, unlike TDMA).

use crate::common::{self, RunSettings};
use crate::fig6::TDMA_BLOCK;
use crate::json::{Json, ToJson};
use crate::runner;
use arbiters::{ArbiterKind, TdmaArbiter, WheelLayout};
use lotterybus::{StaticLotteryArbiter, TicketAssignment};
use traffic_gen::TrafficClass;

/// The component weights used throughout Figure 12 (tickets and slots).
pub const WEIGHTS: [u32; 4] = [1, 2, 3, 4];

/// One class's bandwidth row of Figure 12(a).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12aRow {
    /// Traffic class.
    pub class: TrafficClass,
    /// Bandwidth fraction per component.
    pub bandwidth: Vec<f64>,
    /// Fraction of the bus left unused.
    pub unused: f64,
}

/// Figure 12(a): lottery bandwidth allocation across T1–T9.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12a {
    /// One row per class.
    pub rows: Vec<Fig12aRow>,
}

/// Runs Figure 12(a). The nine traffic classes are independent
/// simulations, fanned out across `settings.jobs` workers.
pub fn run_bandwidth(settings: &RunSettings) -> Fig12a {
    let classes = TrafficClass::all();
    let rows = runner::map(settings, &classes, |_, &class| {
        let specs = class.specs_with_frame(&WEIGHTS, TDMA_BLOCK);
        let tickets = TicketAssignment::new(WEIGHTS.to_vec()).expect("valid");
        let arbiter = StaticLotteryArbiter::with_seed(tickets, settings.seed as u32 | 1)
            .expect("4-master LUT fits");
        let stats = common::run_system(&specs, arbiter, settings);
        Fig12aRow {
            class,
            bandwidth: common::bandwidth_fractions(&stats, 4),
            unused: stats.unused_fraction(),
        }
    });
    Fig12a { rows }
}

impl ToJson for Fig12a {
    fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|row| {
                Json::obj()
                    .field("class", row.class.to_string())
                    .field("bandwidth", row.bandwidth.clone())
                    .field("unused", row.unused)
            })
            .collect();
        Json::obj().field("rows", Json::Arr(rows))
    }
}

impl std::fmt::Display for Fig12a {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 12(a): LOTTERYBUS bandwidth allocation (tickets 1:2:3:4)")?;
        writeln!(
            f,
            "{:>6} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "class", "C1", "C2", "C3", "C4", "unused"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:>6} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
                row.class.name(),
                row.bandwidth[0] * 100.0,
                row.bandwidth[1] * 100.0,
                row.bandwidth[2] * 100.0,
                row.bandwidth[3] * 100.0,
                row.unused * 100.0,
            )?;
        }
        Ok(())
    }
}

/// A latency surface: classes × components, one architecture
/// (Figure 12(b) for TDMA, 12(c) for LOTTERYBUS).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySurface {
    /// Architecture name.
    pub architecture: String,
    /// Classes, in T1..T6 order.
    pub classes: Vec<TrafficClass>,
    /// `latency[k][c]` = cycles/word of component `c` under class `k`.
    pub latency: Vec<Vec<Option<f64>>>,
}

/// Runs Figure 12(b) — TDMA latency across classes T1–T6.
pub fn run_tdma_latency(settings: &RunSettings) -> LatencySurface {
    run_latency_surface("TDMA", settings, |seed| {
        let slots: Vec<u32> = WEIGHTS.iter().map(|w| w * TDMA_BLOCK).collect();
        let _ = seed;
        TdmaArbiter::new(&slots, WheelLayout::Contiguous).expect("valid wheel").into()
    })
}

/// Runs Figure 12(c) — LOTTERYBUS latency across classes T1–T6.
pub fn run_lottery_latency(settings: &RunSettings) -> LatencySurface {
    run_latency_surface("LOTTERYBUS", settings, |seed| {
        let tickets = TicketAssignment::new(WEIGHTS.to_vec()).expect("valid");
        StaticLotteryArbiter::with_seed(tickets, seed).expect("4-master LUT fits").into()
    })
}

fn run_latency_surface(
    name: &str,
    settings: &RunSettings,
    make_arbiter: impl Fn(u32) -> ArbiterKind + Sync,
) -> LatencySurface {
    let classes: Vec<TrafficClass> = TrafficClass::latency_set().to_vec();
    // Each class runs on its own worker; the arbiter is constructed
    // inside the job (`ArbiterKind` is not `Send`).
    let latency = runner::map(settings, &classes, |_, class| {
        let specs = class.specs_with_frame(&WEIGHTS, TDMA_BLOCK);
        let stats = common::run_system(&specs, make_arbiter(settings.seed as u32 | 1), settings);
        common::latencies(&stats, 4)
    });
    LatencySurface { architecture: name.into(), classes, latency }
}

impl LatencySurface {
    /// Latency of the component holding `weight` (1..=4) under `class`.
    pub fn at(&self, class: TrafficClass, weight: u32) -> Option<f64> {
        let k = self.classes.iter().position(|&c| c == class)?;
        self.latency[k][weight as usize - 1]
    }

    /// (min, max) latency of a component across all classes — the paper
    /// highlights how wide this range is for TDMA's high-priority
    /// component and how narrow for the lottery's.
    pub fn component_range(&self, weight: u32) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for row in &self.latency {
            if let Some(v) = row[weight as usize - 1] {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        (lo, hi)
    }
}

impl ToJson for LatencySurface {
    fn to_json(&self) -> Json {
        let classes: Vec<Json> = self.classes.iter().map(|c| c.to_string().into()).collect();
        let latency: Vec<Json> = self.latency.iter().map(|row| row.clone().into()).collect();
        Json::obj()
            .field("architecture", self.architecture.as_str())
            .field("classes", Json::Arr(classes))
            .field("latency", Json::Arr(latency))
    }
}

impl std::fmt::Display for LatencySurface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Average latency (cycles/word) under {}", self.architecture)?;
        writeln!(f, "{:>6} {:>9} {:>9} {:>9} {:>9}", "class", "w=1", "w=2", "w=3", "w=4")?;
        for (k, class) in self.classes.iter().enumerate() {
            let cells: Vec<String> = self.latency[k]
                .iter()
                .map(|v| v.map_or("-".into(), |x| format!("{x:.2}")))
                .collect();
            writeln!(
                f,
                "{:>6} {:>9} {:>9} {:>9} {:>9}",
                class.name(),
                cells[0],
                cells[1],
                cells[2],
                cells[3]
            )?;
        }
        let (lo, hi) = self.component_range(4);
        write!(f, "highest-weight component ranges {lo:.2}..{hi:.2} cycles/word")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings() -> RunSettings {
        RunSettings { measure: 60_000, warmup: 10_000, ..RunSettings::quick() }
    }

    #[test]
    fn heavy_classes_follow_tickets_sparse_classes_do_not() {
        let fig = run_bandwidth(&settings());
        for row in &fig.rows {
            match row.class {
                TrafficClass::T3 | TrafficClass::T6 => {
                    // Sparse: substantial unused bandwidth.
                    assert!(row.unused > 0.3, "{}: unused {:.2}", row.class, row.unused);
                }
                TrafficClass::T1 | TrafficClass::T8 => {
                    // Heavy: allocation ordered by tickets, C4 near 4/10.
                    assert!(row.bandwidth[3] > row.bandwidth[0], "{}", row.class);
                    assert!(
                        (row.bandwidth[3] - 0.34).abs() < 0.12,
                        "{}: C4 {:.2}",
                        row.class,
                        row.bandwidth[3]
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn lottery_latency_is_lower_and_steadier_than_tdma() {
        let s = settings();
        let tdma = run_tdma_latency(&s);
        let lottery = run_lottery_latency(&s);
        let (tlo, thi) = tdma.component_range(4);
        let (llo, lhi) = lottery.component_range(4);
        // The lottery's high-weight latency band sits below TDMA's peak
        // and is much narrower (paper: 0.65..10.5 vs a tight band).
        assert!(lhi < thi, "lottery max {lhi:.2} vs tdma max {thi:.2}");
        assert!(
            (lhi - llo) < (thi - tlo),
            "lottery spread {:.2} vs tdma spread {:.2}",
            lhi - llo,
            thi - tlo
        );
    }

    #[test]
    fn tdma_inverts_priorities_somewhere_lottery_does_not_badly() {
        let s = settings();
        let tdma = run_tdma_latency(&s);
        // Paper: under TDMA, higher-weight components can see *higher*
        // latency than lower-weight ones (e.g. T5, T6).
        let inverted =
            tdma.classes.iter().any(|&class| match (tdma.at(class, 4), tdma.at(class, 1)) {
                (Some(h), Some(l)) => h > l,
                _ => false,
            });
        assert!(inverted, "expected at least one TDMA inversion\n{tdma}");
    }
}
