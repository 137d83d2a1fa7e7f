//! Shared experiment plumbing: system assembly, runs, permutations.

use arbiters::ArbiterKind;
use socsim::{
    Arbiter, BusConfig, BusStats, Kernel, LaneBuilder, MasterId, SystemBuilder, WindowSample,
};
use traffic_gen::{GeneratorSpec, SourceKind};

/// Simulation window settings shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSettings {
    /// Warm-up cycles discarded before measurement.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Base seed; per-master seeds derive from it.
    pub seed: u64,
    /// Bus configuration.
    pub bus: BusConfig,
    /// Worker threads for independent runs within one experiment
    /// (`0` = all available cores). Never affects results — every run
    /// owns its seed and results are collected in input order — only
    /// wall-clock time.
    pub jobs: usize,
    /// When set, every system built by [`run_system`] also collects
    /// windowed metrics with this window length. The samples are
    /// collected and discarded, so results stay byte-identical to a
    /// metrics-off run (`tests/golden_outputs.rs` checks exactly that).
    pub metrics_window: Option<u64>,
    /// Which simulation kernel every system built by [`run_system`]
    /// runs under (see `socsim::fastforward`). Every kernel's results
    /// are byte-identical to the cycle kernel's, so the suite JSON
    /// never records this field.
    pub kernel: Kernel,
}

impl RunSettings {
    /// The full-length window used for published numbers.
    pub fn new() -> Self {
        RunSettings {
            warmup: 20_000,
            measure: 200_000,
            seed: 0xC0FFEE,
            bus: BusConfig::default(),
            jobs: 0,
            metrics_window: None,
            kernel: Kernel::Cycle,
        }
    }

    /// A shorter window for tests (same shapes, faster).
    pub fn quick() -> Self {
        RunSettings { measure: 60_000, ..RunSettings::new() }
    }

    /// These settings with an explicit worker count.
    pub fn with_jobs(self, jobs: usize) -> Self {
        RunSettings { jobs, ..self }
    }

    /// These settings with windowed metrics enabled in every run.
    pub fn with_metrics(self, window: u64) -> Self {
        RunSettings { metrics_window: Some(window), ..self }
    }

    /// These settings running every system under `kernel`.
    pub fn with_kernel(self, kernel: Kernel) -> Self {
        RunSettings { kernel, ..self }
    }
}

impl Default for RunSettings {
    fn default() -> Self {
        RunSettings::new()
    }
}

/// Builds a single-bus system from per-master traffic specs and an
/// arbiter, runs it, and returns the steady-state statistics.
///
/// # Panics
///
/// Panics if the system cannot be built (the experiment definitions are
/// all statically valid).
pub fn run_system<A: Arbiter>(
    specs: &[GeneratorSpec],
    arbiter: A,
    settings: &RunSettings,
) -> BusStats {
    let mut system = build_system(specs, arbiter, settings);
    system.warm_up(settings.warmup);
    system.run(settings.measure);
    system.stats().clone()
}

/// Like [`run_system`], but also returns the windowed metric samples
/// of the measured interval. The window length is explicit (it is part
/// of the experiment's definition, not a tuning knob), and only the
/// measured interval lands in the series: warm-up samples are
/// discarded with the warm-up statistics, and a trailing partial
/// window is flushed as a final short sample.
///
/// # Panics
///
/// Panics if the system cannot be built or `window` is zero.
pub fn run_system_timeseries<A: Arbiter>(
    specs: &[GeneratorSpec],
    arbiter: A,
    settings: &RunSettings,
    window: u64,
) -> (BusStats, Vec<WindowSample>) {
    let with_metrics = RunSettings { metrics_window: Some(window), ..*settings };
    let mut system = build_system(specs, arbiter, &with_metrics);
    system.warm_up(settings.warmup);
    system.run(settings.measure);
    system.flush_metrics();
    let samples = system.metrics().expect("metrics enabled").samples().to_vec();
    (system.stats().clone(), samples)
}

/// The lane description of one experiment system: masters `C1..Cn`
/// driven by `specs`, per-master seeds derived from
/// [`RunSettings::seed`] and the master index, the settings' bus config
/// and optional metrics window. [`run_system`] builds it into a scalar
/// system under the settings' kernel and
/// [`crate::fleet::run_systems_fleet`] packs it as a fleet lane, so both
/// run the same system.
pub(crate) fn lane<A: Arbiter>(
    specs: &[GeneratorSpec],
    arbiter: A,
    settings: &RunSettings,
) -> LaneBuilder<A, SourceKind> {
    let mut lane = LaneBuilder::new(settings.bus);
    for (i, spec) in specs.iter().enumerate() {
        lane = lane.master(
            format!("C{}", i + 1),
            spec.build_kind(settings.seed.wrapping_add(i as u64 * 0x9E37_79B9)),
        );
    }
    if let Some(window) = settings.metrics_window {
        lane = lane.metrics_window(window);
    }
    lane.arbiter(arbiter)
}

fn build_system<A: Arbiter>(
    specs: &[GeneratorSpec],
    arbiter: A,
    settings: &RunSettings,
) -> socsim::System<A, SourceKind> {
    SystemBuilder::from(lane(specs, arbiter, settings))
        .kernel(settings.kernel)
        .build()
        .expect("experiment system is valid")
}

/// Builds the arbiter at `index` of the shared five-protocol comparison
/// lineup (static-priority, round-robin, deficit-RR, two-level TDMA,
/// static lottery) for a 1:2:3:4-weighted four-master system. Used by
/// the load sweeps and the fairness table, and callable from worker
/// threads because the arbiter is constructed inside the job.
///
/// Returns the enum-dispatched [`ArbiterKind`] so systems assembled
/// from the lineup arbitrate through a direct call rather than a
/// `Box<dyn Arbiter>` vtable hop.
///
/// # Panics
///
/// Panics if `index` is not in `0..5` (the lineup is fixed).
pub fn protocol_arbiter(index: usize, seed: u64) -> ArbiterKind {
    use arbiters::{
        DeficitRoundRobinArbiter, RoundRobinArbiter, StaticPriorityArbiter, TdmaArbiter,
        WheelLayout,
    };
    use lotterybus::{StaticLotteryArbiter, TicketAssignment};
    let weights = [1u32, 2, 3, 4];
    match index {
        0 => StaticPriorityArbiter::new(weights.to_vec()).expect("valid").into(),
        1 => RoundRobinArbiter::new(4).expect("valid").into(),
        2 => DeficitRoundRobinArbiter::new(&weights, 8).expect("valid").into(),
        3 => TdmaArbiter::new(&[6, 12, 18, 24], WheelLayout::Contiguous).expect("valid").into(),
        4 => StaticLotteryArbiter::with_seed(
            TicketAssignment::new(weights.to_vec()).expect("valid"),
            seed as u32 | 1,
        )
        .expect("valid")
        .into(),
        _ => panic!("protocol index {index} outside the five-protocol lineup"),
    }
}

/// A mostly-idle four-master workload for kernel benchmarking: each
/// master issues one short periodic message per long period (staggered
/// phases), so the bus sits idle for the vast majority of cycles. This
/// is the best case for the fast-forward kernel — `lbbench` times its
/// skip path on it (`socsim.skip_ns`) — while
/// [`traffic_gen::classes::saturating_specs`] is the worst case.
///
/// # Panics
///
/// Panics if `masters` is zero.
pub fn low_utilization_specs(masters: usize) -> Vec<GeneratorSpec> {
    assert!(masters > 0, "at least one master required");
    (0..masters)
        .map(|i| GeneratorSpec::periodic(500, 125 * i as u64, traffic_gen::SizeDist::fixed(8)))
        .collect()
}

/// Per-master bandwidth fractions from a run.
pub fn bandwidth_fractions(stats: &BusStats, masters: usize) -> Vec<f64> {
    (0..masters).map(|i| stats.bandwidth_fraction(MasterId::new(i))).collect()
}

/// Per-master cycles/word latencies from a run.
pub fn latencies(stats: &BusStats, masters: usize) -> Vec<Option<f64>> {
    (0..masters).map(|i| stats.master(MasterId::new(i)).cycles_per_word()).collect()
}

/// All permutations of `1..=n` in lexicographic order — the x-axis of
/// Figures 4 and 6(a) ("priority/ticket assignments to C1–C4").
pub fn permutations(n: usize) -> Vec<Vec<u32>> {
    let mut items: Vec<u32> = (1..=n as u32).collect();
    let mut out = Vec::new();
    heap_permute(&mut items, n, &mut out);
    out.sort();
    out
}

fn heap_permute(items: &mut Vec<u32>, k: usize, out: &mut Vec<Vec<u32>>) {
    if k == 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

/// Formats a permutation as the paper labels it, e.g. `[2,1,3,4]` →
/// `"2134"` (the value at position *i* is component C*i+1*'s assignment).
pub fn permutation_label(perm: &[u32]) -> String {
    perm.iter().map(|d| d.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbiters::RoundRobinArbiter;
    use traffic_gen::classes::saturating_specs;

    #[test]
    fn permutations_of_four_number_24() {
        let perms = permutations(4);
        assert_eq!(perms.len(), 24);
        assert_eq!(perms[0], vec![1, 2, 3, 4]);
        assert_eq!(perms[23], vec![4, 3, 2, 1]);
        // All distinct.
        let mut unique = perms.clone();
        unique.dedup();
        assert_eq!(unique.len(), 24);
    }

    #[test]
    fn labels_concatenate_digits() {
        assert_eq!(permutation_label(&[3, 1, 4, 2]), "3142");
    }

    #[test]
    fn metrics_collection_never_changes_results() {
        let settings = RunSettings { warmup: 1_000, measure: 8_000, ..RunSettings::quick() };
        let plain = run_system(
            &saturating_specs(4),
            Box::new(RoundRobinArbiter::new(4).expect("valid")),
            &settings,
        );
        let observed = run_system(
            &saturating_specs(4),
            Box::new(RoundRobinArbiter::new(4).expect("valid")),
            &settings.with_metrics(500),
        );
        assert_eq!(plain, observed, "metrics collection perturbed the simulation");
    }

    #[test]
    fn timeseries_covers_the_measured_interval() {
        let settings = RunSettings { warmup: 1_000, measure: 10_000, ..RunSettings::quick() };
        let (stats, samples) = run_system_timeseries(
            &saturating_specs(4),
            Box::new(RoundRobinArbiter::new(4).expect("valid")),
            &settings,
            1_000,
        );
        assert_eq!(stats.cycles, 10_000);
        assert_eq!(samples.len(), 10, "10k measured cycles / 1k window");
        assert_eq!(samples.iter().map(|s| s.cycles).sum::<u64>(), 10_000);
        let words: u64 = samples.iter().flat_map(|s| s.per_master.iter().map(|m| m.words)).sum();
        let total: u64 = stats.masters().iter().map(|m| m.words).sum();
        assert_eq!(words, total, "window word counts add up to the run total");
    }

    #[test]
    fn fast_forward_never_changes_results() {
        let settings = RunSettings { warmup: 1_000, measure: 8_000, ..RunSettings::quick() };
        let cycle = run_system(
            &saturating_specs(4),
            Box::new(RoundRobinArbiter::new(4).expect("valid")),
            &settings,
        );
        let fast = run_system(
            &saturating_specs(4),
            Box::new(RoundRobinArbiter::new(4).expect("valid")),
            &settings.with_kernel(Kernel::Fast),
        );
        assert_eq!(cycle, fast, "fast-forward kernel perturbed the simulation");
    }

    #[test]
    fn fast_and_tlm_kernels_are_exact_on_periodic_low_utilization_traffic() {
        let settings = RunSettings { warmup: 1_000, measure: 20_000, ..RunSettings::quick() };
        let cycle = run_system(
            &low_utilization_specs(4),
            Box::new(RoundRobinArbiter::new(4).expect("valid")),
            &settings,
        );
        for kernel in [Kernel::Fast, Kernel::Tlm] {
            let other = run_system(
                &low_utilization_specs(4),
                Box::new(RoundRobinArbiter::new(4).expect("valid")),
                &settings.with_kernel(kernel),
            );
            assert_eq!(cycle, other, "{} kernel perturbed an idle-heavy workload", kernel.name());
        }
    }

    #[test]
    fn run_system_produces_saturated_stats() {
        let settings = RunSettings { warmup: 1_000, measure: 10_000, ..RunSettings::quick() };
        let stats = run_system(
            &saturating_specs(4),
            Box::new(RoundRobinArbiter::new(4).expect("valid")),
            &settings,
        );
        assert_eq!(stats.cycles, 10_000);
        assert!(stats.bus_utilization() > 0.95, "util {}", stats.bus_utilization());
        let fractions = bandwidth_fractions(&stats, 4);
        // Round robin shares the saturated bus equally.
        for f in &fractions {
            assert!((f - 0.25).abs() < 0.05, "fractions {fractions:?}");
        }
    }
}
