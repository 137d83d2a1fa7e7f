//! Auto-sized timing windows, and the host counters a run reports.

use crate::workloads::splitmix64;
use std::time::Duration;

/// The shortest window a microprobe times, far above timer resolution.
pub const PROBE_WINDOW: Duration = Duration::from_millis(50);

/// Windows per microprobe.
pub const PROBE_REPEATS: usize = 5;

/// An operation timed in batches: `op(iters)` performs `iters` units of
/// work and returns the time they took (which may leave out the op's own
/// preparation).
pub type BatchOp<'a> = Box<dyn FnMut(u64) -> Duration + 'a>;

/// The batch size at which `op` fills `window`: doubles from 1, then
/// scales up to the window with 10% headroom.
pub fn calibrate(op: &mut dyn FnMut(u64) -> Duration, window: Duration) -> u64 {
    let mut iters = 1u64;
    loop {
        let took = op(iters);
        if took >= window || iters >= 1 << 40 {
            return iters;
        }
        let scale = window.as_secs_f64() * 1.1 / took.as_secs_f64().max(1e-9);
        iters = (iters as f64 * scale.clamp(2.0, 1024.0)).ceil() as u64;
    }
}

/// One named microprobe.
pub struct Probe<'a> {
    /// Metric name.
    pub name: String,
    /// Converts seconds per unit of `op` into the metric's unit.
    scale: f64,
    op: BatchOp<'a>,
    iters: u64,
    /// Seconds per unit, one sample per window.
    pub samples: Vec<f64>,
}

impl<'a> Probe<'a> {
    /// A probe timing `op`, reported as seconds per unit times `scale`.
    pub fn new(
        name: impl Into<String>,
        scale: f64,
        op: impl FnMut(u64) -> Duration + 'a,
    ) -> Probe<'a> {
        Probe { name: name.into(), scale, op: Box::new(op), iters: 0, samples: Vec::new() }
    }

    /// The median window, in the metric's unit.
    pub fn value(&self) -> f64 {
        crate::stats::median(&self.samples) * self.scale
    }
}

/// Sizes every probe to [`PROBE_WINDOW`], then times [`PROBE_REPEATS`]
/// rounds. Each round visits the probes in an order shuffled by `seed`,
/// so slow drift of the host spreads over all probes instead of biasing
/// whichever runs last.
pub fn run_probes(probes: &mut [Probe<'_>], seed: u64) {
    let mut rng = seed;
    for i in shuffled(probes.len(), &mut rng) {
        let p = &mut probes[i];
        p.iters = calibrate(&mut p.op, PROBE_WINDOW);
    }
    for _ in 0..PROBE_REPEATS {
        for i in shuffled(probes.len(), &mut rng) {
            let p = &mut probes[i];
            let took = (p.op)(p.iters);
            p.samples.push(took.as_secs_f64() / p.iters as f64);
        }
    }
}

/// A Fisher–Yates permutation of `0..n` drawn from the splitmix64
/// stream in `state`.
pub fn shuffled(n: usize, state: &mut u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        *state = splitmix64(*state);
        order.swap(i, (*state % (i as u64 + 1)) as usize);
    }
    order
}

/// A `/proc/self/status` field given in kB, as MiB.
pub fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.split(':').next() == Some(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// This process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM")
}

/// Nanoseconds this thread has spent runnable but waiting for a CPU
/// (the second field of `/proc/thread-self/schedstat`).
pub fn runqueue_wait_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_reaches_the_window() {
        let mut op = |iters: u64| Duration::from_micros(iters * 10);
        let iters = calibrate(&mut op, Duration::from_millis(50));
        assert!(op(iters) >= Duration::from_millis(50));
        assert!(iters < 10_000, "overshoots by at most the headroom: {iters}");
    }

    #[test]
    fn shuffles_are_permutations_and_seeded() {
        let (mut a, mut b) = (7u64, 7u64);
        let first = shuffled(10, &mut a);
        assert_eq!(first, shuffled(10, &mut b));
        let mut sorted = first.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_ne!(shuffled(10, &mut a), first, "successive rounds differ");
    }

    #[test]
    fn probes_collect_one_sample_per_round() {
        let mut probes = vec![Probe::new("x", 1e3, |iters: u64| Duration::from_millis(iters * 30))];
        run_probes(&mut probes, 1);
        assert_eq!(probes[0].samples.len(), PROBE_REPEATS);
        assert!((probes[0].value() - 30.0).abs() < 1e-9, "milliseconds per unit");
    }

    #[test]
    fn host_counters_are_readable() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        assert!(runqueue_wait_ns().is_some());
    }
}
