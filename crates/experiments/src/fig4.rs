//! Figure 4: bandwidth sharing under the static-priority architecture.
//!
//! Four masters with saturating traffic contend under every possible
//! priority assignment. The paper's observations, which this experiment
//! reproduces: the bandwidth fraction a component receives is extremely
//! sensitive to its priority, and low-priority components are starved
//! (C1 received an average of ~0.1% across the combinations where it is
//! lowest priority).

use crate::common::{self, RecordedTraffic, RunSettings};
use crate::json::{Json, ToJson};
use crate::runner;
use arbiters::StaticPriorityArbiter;

/// One bar of Figure 4: a priority assignment and the measured
/// per-component bandwidth fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Priority assignment label, e.g. `"1234"` (C1 lowest … C4 highest).
    pub assignment: String,
    /// Priority value per component (larger = higher priority).
    pub priorities: Vec<u32>,
    /// Measured bandwidth fraction per component.
    pub bandwidth: Vec<f64>,
}

/// The full figure: one row per priority permutation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// Rows in lexicographic assignment order (the paper's x-axis).
    pub rows: Vec<Fig4Row>,
}

/// Runs the Figure 4 experiment. The 24 permutations are independent
/// simulations over one recording of the saturating traffic, so they
/// fan out across `settings.jobs` workers with results collected in
/// permutation order.
pub fn run(settings: &RunSettings) -> Fig4 {
    let traffic = RecordedTraffic::record(&traffic_gen::classes::saturating_specs(4), settings);
    let perms = common::permutations(4);
    let rows = runner::map(settings, &perms, |_, perm| {
        let arbiter = StaticPriorityArbiter::new(perm.clone()).expect("unique priorities");
        let stats = traffic.run(arbiter, settings);
        Fig4Row {
            assignment: common::permutation_label(perm),
            priorities: perm.clone(),
            bandwidth: common::bandwidth_fractions(&stats, 4),
        }
    });
    Fig4 { rows }
}

impl Fig4 {
    /// Bandwidth fraction of component `c` (0-based) in row `row`.
    pub fn fraction(&self, row: usize, c: usize) -> f64 {
        self.rows[row].bandwidth[c]
    }

    /// Range (min, max) of a component's bandwidth fraction across all
    /// priority assignments — the paper quotes C1 spanning 0.6%–77.8%.
    pub fn component_range(&self, c: usize) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for row in &self.rows {
            lo = lo.min(row.bandwidth[c]);
            hi = hi.max(row.bandwidth[c]);
        }
        (lo, hi)
    }

    /// Mean bandwidth of component `c` over the rows where it holds the
    /// lowest priority (the starvation statistic of Example 1).
    pub fn mean_when_lowest_priority(&self, c: usize) -> f64 {
        let rows: Vec<&Fig4Row> = self.rows.iter().filter(|r| r.priorities[c] == 1).collect();
        rows.iter().map(|r| r.bandwidth[c]).sum::<f64>() / rows.len() as f64
    }
}

/// One metrics window of the starvation time-series: when it started,
/// how long it was, and what each component got within it.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWindow {
    /// First cycle of the window (measured interval starts at 0).
    pub start: u64,
    /// Window length in cycles (the tail window may be short).
    pub cycles: u64,
    /// Bandwidth fraction per component *within this window*.
    pub share: Vec<f64>,
    /// Transaction backlog per component at window close.
    pub queue_depth: Vec<u64>,
}

/// The Figure 4 starvation story replayed as a time-series: the same
/// saturated four-master workload observed window by window under the
/// assignment where C1 is lowest (priorities/tickets `1,2,3,4`).
///
/// The aggregate numbers of [`Fig4`] say C1 averages ~0.1% under static
/// priority; the windowed view shows the *texture* of that starvation —
/// under priority C1 receives nothing in almost every window while its
/// queue grows without bound, whereas the lottery's probabilistic
/// grants give C1 a small share in window after window.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Timeseries {
    /// Metrics window length in cycles.
    pub window: u64,
    /// Windowed view under static priority (C1 lowest).
    pub priority: Vec<TimeWindow>,
    /// Windowed view under the static lottery (C1 holds 1 of 10 tickets).
    pub lottery: Vec<TimeWindow>,
}

/// Runs the windowed starvation experiment. The measured interval is
/// split into ~50 windows; the two arbiters are independent simulations
/// over one recording of the saturating traffic and fan out across
/// `settings.jobs` workers.
pub fn run_timeseries(settings: &RunSettings) -> Fig4Timeseries {
    let window = (settings.measure / 50).max(1);
    let traffic = RecordedTraffic::record(&traffic_gen::classes::saturating_specs(4), settings);
    let protocols = [0usize, 4]; // static priority, static lottery
    let series = runner::map(settings, &protocols, |_, &index| {
        let arbiter = common::protocol_arbiter(index, settings.seed);
        let (_, samples) = traffic.run_timeseries(arbiter, settings, window);
        samples
            .iter()
            .map(|s| TimeWindow {
                start: s.start.index(),
                cycles: s.cycles,
                share: (0..4).map(|m| s.bandwidth_share(m)).collect(),
                queue_depth: s.per_master.iter().map(|m| m.queue_depth).collect(),
            })
            .collect::<Vec<_>>()
    });
    let mut series = series.into_iter();
    Fig4Timeseries {
        window,
        priority: series.next().expect("priority series"),
        lottery: series.next().expect("lottery series"),
    }
}

impl Fig4Timeseries {
    /// Fraction of windows in which component `c` received **zero**
    /// bandwidth under the given series — the windowed starvation
    /// statistic.
    pub fn starved_fraction(series: &[TimeWindow], c: usize) -> f64 {
        if series.is_empty() {
            return 0.0;
        }
        let starved = series.iter().filter(|w| w.share[c] == 0.0).count();
        starved as f64 / series.len() as f64
    }

    /// Mean within-window bandwidth share of component `c`.
    pub fn mean_share(series: &[TimeWindow], c: usize) -> f64 {
        if series.is_empty() {
            return 0.0;
        }
        series.iter().map(|w| w.share[c]).sum::<f64>() / series.len() as f64
    }

    /// Renders a one-character-per-window sparkline of component `c`'s
    /// share (` ` = zero through `#` = ≥ its fair share of 10%×4).
    pub fn sparkline(series: &[TimeWindow], c: usize) -> String {
        const LEVELS: [char; 8] = [' ', '.', ':', '-', '=', '+', '*', '#'];
        series
            .iter()
            .map(|w| {
                // Scale so that 40% of the bus saturates the ramp.
                let level = (w.share[c] * 2.5 * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[level.min(LEVELS.len() - 1)]
            })
            .collect()
    }
}

impl ToJson for TimeWindow {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("start", self.start)
            .field("cycles", self.cycles)
            .field("share", self.share.clone())
            .field("queue_depth", self.queue_depth.clone())
    }
}

impl ToJson for Fig4Timeseries {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("window", self.window)
            .field("priority", self.priority.to_json())
            .field("lottery", self.lottery.to_json())
    }
}

impl std::fmt::Display for Fig4Timeseries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 4 time-series: C1 bandwidth per {}-cycle window (assignment 1234)",
            self.window
        )?;
        writeln!(f, "  priority [{}]", Self::sparkline(&self.priority, 0))?;
        writeln!(f, "  lottery  [{}]", Self::sparkline(&self.lottery, 0))?;
        write!(
            f,
            "C1 starved windows: priority {:.0}%, lottery {:.0}%; mean C1 share: {:.2}% vs {:.2}%",
            Self::starved_fraction(&self.priority, 0) * 100.0,
            Self::starved_fraction(&self.lottery, 0) * 100.0,
            Self::mean_share(&self.priority, 0) * 100.0,
            Self::mean_share(&self.lottery, 0) * 100.0,
        )
    }
}

impl ToJson for Fig4Row {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("assignment", self.assignment.as_str())
            .field("priorities", self.priorities.clone())
            .field("bandwidth", self.bandwidth.clone())
    }
}

impl ToJson for Fig4 {
    fn to_json(&self) -> Json {
        Json::obj().field("rows", self.rows.to_json())
    }
}

impl std::fmt::Display for Fig4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 4: bandwidth sharing under static priority (saturated bus)")?;
        writeln!(f, "{:>10} {:>8} {:>8} {:>8} {:>8}", "assign", "C1", "C2", "C3", "C4")?;
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
        let (lo, hi) = self.component_range(0);
        write!(
            f,
            "C1 bandwidth ranges from {:.1}% to {:.1}%; mean when lowest priority: {:.2}%",
            lo * 100.0,
            hi * 100.0,
            self.mean_when_lowest_priority(0) * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_steps_and_starvation() {
        let fig = run(&RunSettings { measure: 30_000, warmup: 5_000, ..RunSettings::quick() });
        assert_eq!(fig.rows.len(), 24);
        // Bandwidth is a steep step function of priority: the range of
        // C1's share across assignments must span a wide interval.
        let (lo, hi) = fig.component_range(0);
        assert!(lo < 0.05, "starved share {lo}");
        assert!(hi > 0.30, "top-priority share {hi}");
        // Starvation: when lowest priority, C1 gets a tiny share.
        assert!(fig.mean_when_lowest_priority(0) < 0.05);
    }

    #[test]
    fn timeseries_shows_persistent_priority_starvation() {
        let settings = RunSettings { measure: 30_000, warmup: 5_000, ..RunSettings::quick() };
        let ts = run_timeseries(&settings);
        assert_eq!(ts.window, 600);
        assert_eq!(ts.priority.len(), 50);
        assert_eq!(ts.lottery.len(), 50);
        assert_eq!(ts.priority.iter().map(|w| w.cycles).sum::<u64>(), 30_000);
        // Under static priority C1 (lowest) gets nothing in nearly
        // every window; under the lottery it is starved far less often.
        let starved_priority = Fig4Timeseries::starved_fraction(&ts.priority, 0);
        let starved_lottery = Fig4Timeseries::starved_fraction(&ts.lottery, 0);
        assert!(starved_priority > 0.8, "priority starved fraction {starved_priority}");
        assert!(starved_lottery < 0.5, "lottery starved fraction {starved_lottery}");
        assert!(
            Fig4Timeseries::mean_share(&ts.lottery, 0)
                > Fig4Timeseries::mean_share(&ts.priority, 0)
        );
        // The starved component's backlog only grows under priority.
        let first = ts.priority.first().expect("windows").queue_depth[0];
        let last = ts.priority.last().expect("windows").queue_depth[0];
        assert!(last > first, "C1 backlog should grow: {first} -> {last}");
        // Sparklines are one character per window, and the priority one
        // is visibly empty for C1.
        let spark = Fig4Timeseries::sparkline(&ts.priority, 0);
        assert_eq!(spark.chars().count(), 50);
        assert!(spark.chars().filter(|&c| c == ' ').count() > 40, "{spark:?}");
    }

    #[test]
    fn highest_priority_component_dominates() {
        let fig = run(&RunSettings { measure: 20_000, warmup: 5_000, ..RunSettings::quick() });
        for row in &fig.rows {
            let top = row.priorities.iter().position(|&p| p == 4).expect("has top");
            let bottom = row.priorities.iter().position(|&p| p == 1).expect("has bottom");
            assert!(
                row.bandwidth[top] > row.bandwidth[bottom],
                "row {}: top {} <= bottom {}",
                row.assignment,
                row.bandwidth[top],
                row.bandwidth[bottom],
            );
        }
    }
}
