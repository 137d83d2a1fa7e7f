//! Rendering simulation results for the terminal.

use crate::spec::SimSpec;
use socsim::{BusStats, MasterId, WindowSample};

/// Renders the end-of-run report: one row per master plus totals, with
/// an ASCII bandwidth bar.
pub fn render_report(spec: &SimSpec, stats: &BusStats) -> String {
    let mut out = String::new();
    let total_weight: u32 = spec.masters.iter().map(|m| m.weight).sum();
    out.push_str(&format!(
        "{:<10} {:>6} {:>9} {:>9} {:>12} {:>10}  bandwidth\n",
        "master", "weight", "entitled", "measured", "cyc/word", "p99 lat"
    ));
    for (i, master) in spec.masters.iter().enumerate() {
        let id = MasterId::new(i);
        let m = stats.master(id);
        let share = stats.bandwidth_fraction(id);
        let entitled = f64::from(master.weight) / f64::from(total_weight.max(1));
        let bar_len = (share * 40.0).round() as usize;
        out.push_str(&format!(
            "{:<10} {:>6} {:>8.1}% {:>8.1}% {:>12} {:>10}  {}\n",
            master.name,
            master.weight,
            entitled * 100.0,
            share * 100.0,
            m.cycles_per_word().map_or("-".into(), |v| format!("{v:.2}")),
            m.latency_quantile(0.99).map_or("-".into(), |v| format!("<{v}")),
            "#".repeat(bar_len),
        ));
    }
    out.push_str(&format!(
        "bus utilization {:.1}%  ({} grants over {} cycles)\n",
        stats.bus_utilization() * 100.0,
        stats.grants,
        stats.cycles,
    ));
    // Only specs that opt into fault machinery get the fault section;
    // fault-free specs render byte-identically to earlier versions.
    if spec.has_fault_machinery() {
        out.push_str(&format!(
            "faults: {} slave errors, {} dropped grants, {} corrupted grants\n",
            stats.slave_errors, stats.dropped_grants, stats.corrupted_grants,
        ));
        out.push_str(&format!(
            "recovery: {} retries, {} timeouts, {} aborted, {} failovers\n",
            stats.retries, stats.timeouts, stats.aborted_transactions, stats.failovers,
        ));
    }
    out
}

/// Renders the windowed-metrics section (`metrics window=<n>` in the
/// spec): the per-window utilization range plus, per master, the range
/// of its within-window bandwidth share and a sparkline of that share
/// over time (downsampled to at most 50 characters). Starvation that
/// an end-of-run average hides — a master that gets nothing for long
/// stretches — is visible here as blank runs in the sparkline.
pub fn render_metrics(spec: &SimSpec, window: u64, samples: &[WindowSample]) -> String {
    let mut out = format!("\nwindowed metrics ({} windows of {} cycles):\n", samples.len(), window);
    if samples.is_empty() {
        out.push_str("  (no complete windows)\n");
        return out;
    }
    let utils: Vec<f64> = samples.iter().map(WindowSample::utilization).collect();
    let (lo, hi) = min_max(&utils);
    out.push_str(&format!(
        "bus utilization mean {:.1}% (window range {:.1}%..{:.1}%)\n",
        mean(&utils) * 100.0,
        lo * 100.0,
        hi * 100.0,
    ));
    out.push_str(&format!(
        "{:<10} {:>9} {:>16}  share per window\n",
        "master", "mean bw", "bw min..max"
    ));
    for (i, master) in spec.masters.iter().enumerate() {
        let shares: Vec<f64> = samples.iter().map(|s| s.bandwidth_share(i)).collect();
        let (lo, hi) = min_max(&shares);
        out.push_str(&format!(
            "{:<10} {:>8.1}% {:>6.1}%..{:>6.1}%  [{}]\n",
            master.name,
            mean(&shares) * 100.0,
            lo * 100.0,
            hi * 100.0,
            sparkline(&shares),
        ));
    }
    out
}

/// A fixed-alphabet sparkline of `values` scaled to their maximum,
/// downsampled by averaging to at most 50 characters.
fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let stride = values.len().div_ceil(50).max(1);
    let max = values.iter().fold(0.0_f64, |m, &v| m.max(v));
    values
        .chunks(stride)
        .map(|chunk| {
            let avg = chunk.iter().sum::<f64>() / chunk.len() as f64;
            if max <= 0.0 {
                return LEVELS[0];
            }
            let level = (avg / max * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[level.min(LEVELS.len() - 1)]
        })
        .collect()
}

/// Renders the cross-replica aggregate section: per-master mean ±
/// spread of bandwidth share and latency over all replica runs, plus
/// utilization statistics. Appended after the replica-0 report when the
/// spec requests `replicas > 1`.
pub fn render_replica_summary(spec: &SimSpec, runs: &[BusStats]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\nreplica aggregate over {} runs (derived seeds):\n", runs.len()));
    out.push_str(&format!(
        "{:<10} {:>12} {:>18} {:>16}\n",
        "master", "mean bw", "bw min..max", "mean cyc/word"
    ));
    for (i, master) in spec.masters.iter().enumerate() {
        let id = MasterId::new(i);
        let shares: Vec<f64> = runs.iter().map(|s| s.bandwidth_fraction(id)).collect();
        let (lo, hi) = min_max(&shares);
        let latencies: Vec<f64> =
            runs.iter().filter_map(|s| s.master(id).cycles_per_word()).collect();
        let lat =
            if latencies.is_empty() { "-".to_owned() } else { format!("{:.2}", mean(&latencies)) };
        out.push_str(&format!(
            "{:<10} {:>11.1}% {:>8.1}%..{:>6.1}% {:>16}\n",
            master.name,
            mean(&shares) * 100.0,
            lo * 100.0,
            hi * 100.0,
            lat,
        ));
    }
    let utils: Vec<f64> = runs.iter().map(BusStats::bus_utilization).collect();
    let (lo, hi) = min_max(&utils);
    out.push_str(&format!(
        "bus utilization mean {:.1}% (range {:.1}%..{:.1}%)\n",
        mean(&utils) * 100.0,
        lo * 100.0,
        hi * 100.0,
    ));
    out
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{run_spec, simulate, SimSpec};
    use arbiters::{FailoverArbiter, StaticPriorityArbiter};
    use socsim::{Arbiter, Cycle, Grant, RequestMap, SystemBuilder};

    #[test]
    fn report_contains_every_master_and_totals() {
        let text = "arbiter = lottery\ncycles = 5000\nwarmup = 0\n\
                    master cpu weight=3 load=0.4 size=16\n\
                    master dsp weight=1 load=0.3 size=16\n";
        let spec = SimSpec::parse(text).expect("valid");
        let report = run_spec(&spec, None).expect("runs");
        assert!(report.contains("cpu"));
        assert!(report.contains("dsp"));
        assert!(report.contains("bus utilization"));
        assert!(report.contains('#'), "bandwidth bars rendered");
        assert!(!report.contains("faults:"), "fault-free report has no fault section");
        assert!(!report.contains("recovery:"), "fault-free report has no recovery section");
    }

    #[test]
    fn faulty_spec_report_shows_fault_section() {
        let text = "arbiter = lottery\ncycles = 5000\nwarmup = 0\n\
                    fault slave-error rate=0.2\n\
                    retry max=2 backoff=2x\n\
                    master cpu weight=3 load=0.4 size=16\n\
                    master dsp weight=1 load=0.3 size=16\n";
        let spec = SimSpec::parse(text).expect("valid");
        let stats = simulate(&spec, None).expect("runs").stats;
        assert!(stats.slave_errors > 0, "rate 0.2 over 5000 cycles injects errors");
        let report = render_report(&spec, &stats);
        assert!(report.contains(&format!("{} slave errors", stats.slave_errors)));
        assert!(report.contains(&format!("{} retries", stats.retries)));
    }

    #[test]
    fn replica_summary_aggregates_across_runs() {
        let text = "arbiter = lottery\ncycles = 4000\nwarmup = 0\nreplicas = 3\n\
                    master cpu weight=3 load=0.4 size=16\n\
                    master dsp weight=1 load=0.3 size=16\n";
        let spec = SimSpec::parse(text).expect("valid");
        let runs: Vec<socsim::BusStats> = (0..spec.replicas)
            .map(|r| simulate(&spec.replica(r), None).expect("runs").stats)
            .collect();
        let summary = render_replica_summary(&spec, &runs);
        assert!(summary.contains("replica aggregate over 3 runs"), "{summary}");
        assert!(summary.contains("cpu"));
        assert!(summary.contains("dsp"));
        assert!(summary.contains("bus utilization mean"));
    }

    #[test]
    fn metrics_section_shows_windows_and_sparklines() {
        let text = "arbiter = priority\ncycles = 10000\nwarmup = 0\nmetrics window=1000\n\
                    master cpu weight=2 load=0.9 size=16\n\
                    master dsp weight=1 load=0.9 size=16\n";
        let spec = SimSpec::parse(text).expect("valid");
        let samples = simulate(&spec, None).expect("runs").samples.expect("metrics on");
        assert_eq!(samples.len(), 10);
        let section = render_metrics(&spec, 1000, &samples);
        assert!(section.contains("windowed metrics (10 windows of 1000 cycles)"), "{section}");
        assert!(section.contains("cpu"), "{section}");
        assert!(section.contains("dsp"), "{section}");
        assert!(section.contains("bus utilization mean"), "{section}");
        // Sparklines render one row per master; scaling by the row
        // maximum guarantees at least one full-height character.
        let sparks: Vec<&str> = section.lines().filter(|l| l.contains('[')).collect();
        assert_eq!(sparks.len(), 2, "{section}");
        for line in sparks {
            assert!(line.contains('#'), "{line}");
        }
    }

    #[test]
    fn empty_metrics_section_is_explicit() {
        let spec = SimSpec::parse("master m load=0.1\n").expect("valid");
        let section = render_metrics(&spec, 500, &[]);
        assert!(section.contains("(no complete windows)"), "{section}");
    }

    /// End-to-end failover demo: a deliberately wedged primary trips the
    /// failover, the system keeps making progress on the backup, and the
    /// failover count appears in the rendered report.
    #[test]
    fn wedged_primary_failover_appears_in_report() {
        /// Grants normally for 100 cycles, then never again.
        struct WedgeAfter100(StaticPriorityArbiter);
        impl Arbiter for WedgeAfter100 {
            fn arbitrate(&mut self, requests: &RequestMap, now: Cycle) -> Option<Grant> {
                (now.index() < 100).then(|| self.0.arbitrate(requests, now)).flatten()
            }
            fn name(&self) -> &str {
                "wedging"
            }
        }

        let text = "cycles = 5000\nwarmup = 0\nfailover = 16\n\
                    master cpu weight=2 load=0.4 size=16\n\
                    master dsp weight=1 load=0.3 size=16\n";
        let spec = SimSpec::parse(text).expect("valid");
        let primary =
            Box::new(WedgeAfter100(StaticPriorityArbiter::new(vec![2, 1]).expect("valid")));
        let arbiter = FailoverArbiter::with_patience(
            primary,
            spec.masters.len(),
            spec.failover.expect("failover configured"),
        )
        .expect("valid");
        let mut builder = SystemBuilder::new(spec.bus_config());
        for (i, master) in spec.masters.iter().enumerate() {
            let generator = master.generator(i, master.load, 0).expect("positive load");
            builder =
                builder.master(master.name.clone(), generator.build_source(spec.seed + i as u64));
        }
        let mut system = builder.arbiter(arbiter).build().expect("valid");
        system.run(spec.cycles);
        let stats = system.stats();
        assert_eq!(stats.failovers, 1, "wedged primary tripped the failover");
        assert!(
            stats.grants > 200,
            "system kept progressing on the backup ({} grants)",
            stats.grants
        );
        let report = render_report(&spec, stats);
        assert!(report.contains("1 failovers"), "failover count rendered:\n{report}");
    }
}
