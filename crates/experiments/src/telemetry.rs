//! Wall-clock telemetry for experiment runs.
//!
//! Records per-phase timings (phase name, wall time, number of
//! simulation jobs executed) so the suite can report its throughput.
//! Telemetry is **never** mixed into the deterministic result stream —
//! timings go to stderr only, keeping the diffable experiment JSON
//! byte-identical across `--jobs` values.

use std::time::{Duration, Instant};

/// Wall time and job count of one timed phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Phase label, e.g. `"fig4"`.
    pub name: String,
    /// Wall-clock duration of the phase.
    pub wall: Duration,
    /// Independent simulation jobs the phase executed.
    pub jobs: usize,
}

impl PhaseTiming {
    /// Jobs completed per wall-clock second (`None` for a zero-length
    /// phase, which would divide by zero).
    pub fn jobs_per_sec(&self) -> Option<f64> {
        let secs = self.wall.as_secs_f64();
        (secs > 0.0).then(|| self.jobs as f64 / secs)
    }
}

/// Collects per-phase wall-clock timings across an experiment run.
#[derive(Debug, Default)]
pub struct Telemetry {
    phases: Vec<PhaseTiming>,
}

impl Telemetry {
    /// An empty collector.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Times `f`, records it as a phase running `jobs` simulation jobs,
    /// and returns its result.
    pub fn time<T>(&mut self, name: &str, jobs: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.phases.push(PhaseTiming { name: name.to_owned(), wall: start.elapsed(), jobs });
        value
    }

    /// The recorded phases, in execution order.
    pub fn phases(&self) -> &[PhaseTiming] {
        &self.phases
    }

    /// Sum of all phase wall times.
    pub fn total_wall(&self) -> Duration {
        self.phases.iter().map(|p| p.wall).sum()
    }

    /// Sum of all phase job counts.
    pub fn total_jobs(&self) -> usize {
        self.phases.iter().map(|p| p.jobs).sum()
    }

    /// Overall jobs per wall-clock second (`None` if no time elapsed).
    pub fn jobs_per_sec(&self) -> Option<f64> {
        let secs = self.total_wall().as_secs_f64();
        (secs > 0.0).then(|| self.total_jobs() as f64 / secs)
    }

    /// A human-readable per-phase table (for stderr, never for the
    /// deterministic result stream).
    pub fn report(&self, workers: usize) -> String {
        let mut out = format!("timing ({workers} worker thread(s)):\n");
        for p in &self.phases {
            let rate =
                p.jobs_per_sec().map_or_else(|| "-".to_owned(), |r| format!("{r:.1} jobs/s"));
            out.push_str(&format!(
                "  {:<12} {:>8.3}s  {:>3} jobs  {}\n",
                p.name,
                p.wall.as_secs_f64(),
                p.jobs,
                rate
            ));
        }
        let total_rate =
            self.jobs_per_sec().map_or_else(|| "-".to_owned(), |r| format!("{r:.1} jobs/s"));
        out.push_str(&format!(
            "  {:<12} {:>8.3}s  {:>3} jobs  {}\n",
            "total",
            self.total_wall().as_secs_f64(),
            self.total_jobs(),
            total_rate
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_phases_accumulate() {
        let mut t = Telemetry::new();
        let v = t.time("alpha", 3, || 41 + 1);
        assert_eq!(v, 42);
        t.time("beta", 5, || std::thread::sleep(Duration::from_millis(2)));
        assert_eq!(t.phases().len(), 2);
        assert_eq!(t.phases()[0].name, "alpha");
        assert_eq!(t.total_jobs(), 8);
        assert!(t.total_wall() >= Duration::from_millis(2));
        assert!(t.jobs_per_sec().unwrap() > 0.0);
    }

    #[test]
    fn report_lists_each_phase_and_a_total() {
        let mut t = Telemetry::new();
        t.time("fig4", 24, || ());
        let report = t.report(2);
        assert!(report.contains("fig4"));
        assert!(report.contains("total"));
        assert!(report.contains("2 worker"));
    }

    #[test]
    fn zero_duration_rate_is_none() {
        let p = PhaseTiming { name: "x".into(), wall: Duration::ZERO, jobs: 4 };
        assert_eq!(p.jobs_per_sec(), None);
    }
}
