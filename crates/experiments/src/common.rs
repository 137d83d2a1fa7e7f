//! Shared experiment plumbing: system assembly, runs, permutations.
//!
//! # Recorded traffic
//!
//! The paper holds the traffic fixed and varies the arbiter, and so do
//! most experiments here: one spec set runs under several arbiters or
//! bus configurations, every run with the same per-master seeds. Those
//! experiments record the spec set's traffic once ([`RecordedTraffic`])
//! before fanning out, replay it in every run, and drop it when they
//! return: Figures 4 and 6(a) (24 priority and ticket orders), the
//! Figure 4 time-series and Figure 6(b) (two arbiters each), the sweeps
//! (9 ticket counts; 5 protocols per load), the starvation experiment's
//! fairness row (5 protocols), the energy table (5 architectures) and
//! each ablation group. A replay is exact: a run's statistics equal the
//! live run's (`tests/kernel_equivalence.rs` checks every path).
//!
//! Traffic that runs once stays live, because recording it costs more
//! than generating it during the run: Figure 12(a)–(c) run each class
//! under one arbiter per call, and the starvation CDF is one system
//! with its own seeds.

use crate::runner;
use arbiters::ArbiterKind;
use socsim::{
    BusConfig, BusStats, Fleet, Kernel, LaneBuilder, MasterId, SystemBuilder, WindowSample,
};
use traffic_gen::{record_trace, GeneratorSpec, ReplaySource, SourceKind};

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
    /// runs under (see `socsim::fastforward`). `Cycle`, the default,
    /// runs the lane-exact one-lane fleet (`socsim::Fleet`), with or
    /// without a metrics window; `Fast` runs the scalar fast-forward
    /// kernel. Every kernel's results are byte-identical to the
    /// per-cycle kernel's, so the suite JSON never records this field.
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
/// Under the cycle kernel the system runs as a one-lane [`Fleet`], the
/// cycle kernel's lane-exact batched form; otherwise it runs as a
/// scalar [`socsim::System`] under the settings' kernel. Every path returns the same statistics. The arbiter runs as
/// an [`ArbiterKind`], so both engines are built for one arbiter type
/// and a built-in protocol's fleet lane can lower (see
/// `socsim::fleet`).
///
/// # Panics
///
/// Panics if the system cannot be built (the experiment definitions are
/// all statically valid).
pub fn run_system(
    specs: &[GeneratorSpec],
    arbiter: impl Into<ArbiterKind>,
    settings: &RunSettings,
) -> BusStats {
    run_lane(live_sources(specs, settings), arbiter.into(), settings)
}

/// The traffic of one spec set, generated once and replayed in every
/// run that uses it (see [the module docs](self#recorded-traffic)).
///
/// [`RecordedTraffic::record`] runs master `C`*i+1*'s generator with
/// the seed [`run_system`] gives it, from cycle 0 over the settings'
/// warm-up and measured window, into one shared `(stamp, words)` trace
/// per master. [`RecordedTraffic::run`] then builds the same system as
/// [`run_system`] with [`ReplaySource`]s reading those traces in place,
/// and returns the same statistics. Jobs borrow a recording read-only;
/// it lives as long as the experiment call that made it.
#[derive(Debug)]
pub struct RecordedTraffic {
    /// Per master, an unstarted replay of its trace; each run clones
    /// it, which shares the trace.
    masters: Vec<ReplaySource>,
    /// The seed and cycle count recorded, checked against every run.
    seed: u64,
    cycles: u64,
}

impl RecordedTraffic {
    /// Records `specs` for runs under `settings`: masters `C1..Cn`
    /// seeded as in [`run_system`], over `warmup + measure` cycles. The
    /// masters are recorded on the settings' workers.
    pub fn record(specs: &[GeneratorSpec], settings: &RunSettings) -> Self {
        let cycles = settings.warmup + settings.measure;
        let masters = runner::map(settings, specs, |i, spec| {
            let trace = record_trace(spec, master_seed(settings.seed, i), cycles);
            ReplaySource::shared(spec.slave, trace.into())
        });
        RecordedTraffic { masters, seed: settings.seed, cycles }
    }

    /// [`run_system`] on the recorded traffic: the same system, the
    /// same statistics.
    ///
    /// # Panics
    ///
    /// Panics if `settings` has another seed or window than the
    /// recording, or if the system cannot be built.
    pub fn run(&self, arbiter: impl Into<ArbiterKind>, settings: &RunSettings) -> BusStats {
        run_lane(self.sources(settings), arbiter.into(), settings)
    }

    /// Like [`RecordedTraffic::run`], but also returns the windowed
    /// metric samples of the measured interval. The window length is
    /// explicit (it is part of the experiment's definition, not a tuning
    /// knob), and only the measured interval lands in the series:
    /// warm-up samples are discarded with the warm-up statistics, and a
    /// trailing partial window is flushed as a final short sample.
    ///
    /// # Panics
    ///
    /// As [`RecordedTraffic::run`], and if `window` is zero.
    pub fn run_timeseries(
        &self,
        arbiter: impl Into<ArbiterKind>,
        settings: &RunSettings,
        window: u64,
    ) -> (BusStats, Vec<WindowSample>) {
        run_lane_timeseries(self.sources(settings), arbiter.into(), settings, window)
    }

    /// Fresh replays of every master's trace, for a run under
    /// `settings`.
    ///
    /// # Panics
    ///
    /// Panics if `settings` has another seed or window than the
    /// recording.
    fn sources(&self, settings: &RunSettings) -> impl Iterator<Item = SourceKind> + '_ {
        assert_eq!(
            (self.seed, self.cycles),
            (settings.seed, settings.warmup + settings.measure),
            "traffic recorded for another seed or window"
        );
        self.masters.iter().map(|replay| SourceKind::from(replay.clone()))
    }
}

/// The seed of master `index` in a system seeded with `seed`.
fn master_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add(index as u64 * 0x9E37_79B9)
}

/// Live generators for `specs`, seeded per master by [`master_seed`]
/// from [`RunSettings::seed`].
fn live_sources<'a>(
    specs: &'a [GeneratorSpec],
    settings: &RunSettings,
) -> impl Iterator<Item = SourceKind> + 'a {
    let seed = settings.seed;
    specs.iter().enumerate().map(move |(i, spec)| spec.build_kind(master_seed(seed, i)))
}

fn run_lane(
    sources: impl Iterator<Item = SourceKind>,
    arbiter: ArbiterKind,
    settings: &RunSettings,
) -> BusStats {
    let lane = lane(sources, arbiter, settings);
    if settings.kernel == Kernel::Cycle {
        let fleet = run_fleet(lane, settings);
        return fleet.stats(0).clone();
    }
    let mut system = build_system(lane, settings);
    system.warm_up(settings.warmup);
    system.run(settings.measure);
    system.stats().clone()
}

/// [`run_lane`] with a metrics window of `window` cycles, also returning
/// the measured interval's samples (the partial tail window flushed).
fn run_lane_timeseries(
    sources: impl Iterator<Item = SourceKind>,
    arbiter: ArbiterKind,
    settings: &RunSettings,
    window: u64,
) -> (BusStats, Vec<WindowSample>) {
    let with_metrics = RunSettings { metrics_window: Some(window), ..*settings };
    let lane = lane(sources, arbiter, &with_metrics);
    if settings.kernel == Kernel::Cycle {
        let mut fleet = run_fleet(lane, &with_metrics);
        fleet.flush_metrics();
        let samples = fleet.metrics(0).expect("metrics enabled").samples().to_vec();
        return (fleet.stats(0).clone(), samples);
    }
    let mut system = build_system(lane, &with_metrics);
    system.warm_up(settings.warmup);
    system.run(settings.measure);
    system.flush_metrics();
    let samples = system.metrics().expect("metrics enabled").samples().to_vec();
    (system.stats().clone(), samples)
}

/// Warms `lane` up and runs its measured window as a one-lane [`Fleet`].
fn run_fleet(
    lane: LaneBuilder<ArbiterKind, SourceKind>,
    settings: &RunSettings,
) -> Fleet<ArbiterKind, SourceKind> {
    let mut fleet = Fleet::build(vec![lane]).expect("experiment system is valid");
    fleet.warm_up(settings.warmup);
    fleet.run(settings.measure);
    fleet
}

/// The lane description of one experiment system: masters `C1..Cn`
/// driven by `sources` (live or replayed), the settings' bus config and
/// optional metrics window.
fn lane(
    sources: impl Iterator<Item = SourceKind>,
    arbiter: ArbiterKind,
    settings: &RunSettings,
) -> LaneBuilder<ArbiterKind, SourceKind> {
    let mut lane = LaneBuilder::new(settings.bus);
    for (i, source) in sources.enumerate() {
        lane = lane.master(format!("C{}", i + 1), source);
    }
    if let Some(window) = settings.metrics_window {
        lane = lane.metrics_window(window);
    }
    lane.arbiter(arbiter)
}

fn build_system(
    lane: LaneBuilder<ArbiterKind, SourceKind>,
    settings: &RunSettings,
) -> socsim::System<ArbiterKind, SourceKind> {
    SystemBuilder::from(lane).kernel(settings.kernel).build().expect("experiment system is valid")
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
        let plain =
            run_system(&saturating_specs(4), RoundRobinArbiter::new(4).expect("valid"), &settings);
        let observed = run_system(
            &saturating_specs(4),
            RoundRobinArbiter::new(4).expect("valid"),
            &settings.with_metrics(500),
        );
        assert_eq!(plain, observed, "metrics collection perturbed the simulation");
    }

    #[test]
    fn timeseries_covers_the_measured_interval() {
        let settings = RunSettings { warmup: 1_000, measure: 10_000, ..RunSettings::quick() };
        let (stats, samples) = run_lane_timeseries(
            live_sources(&saturating_specs(4), &settings),
            RoundRobinArbiter::new(4).expect("valid").into(),
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
        let cycle =
            run_system(&saturating_specs(4), RoundRobinArbiter::new(4).expect("valid"), &settings);
        let fast = run_system(
            &saturating_specs(4),
            RoundRobinArbiter::new(4).expect("valid"),
            &settings.with_kernel(Kernel::Fast),
        );
        assert_eq!(cycle, fast, "fast-forward kernel perturbed the simulation");
    }

    #[test]
    fn fast_and_tlm_kernels_are_exact_on_periodic_low_utilization_traffic() {
        let settings = RunSettings { warmup: 1_000, measure: 20_000, ..RunSettings::quick() };
        let cycle = run_system(
            &low_utilization_specs(4),
            RoundRobinArbiter::new(4).expect("valid"),
            &settings,
        );
        for kernel in [Kernel::Fast, Kernel::Tlm] {
            let other = run_system(
                &low_utilization_specs(4),
                RoundRobinArbiter::new(4).expect("valid"),
                &settings.with_kernel(kernel),
            );
            assert_eq!(cycle, other, "{} kernel perturbed an idle-heavy workload", kernel.name());
        }
    }

    #[test]
    fn recorded_traffic_replays_the_live_runs_on_every_path() {
        let settings = RunSettings { warmup: 1_000, measure: 8_000, ..RunSettings::quick() };
        let specs = [
            GeneratorSpec::poisson(0.05, traffic_gen::SizeDist::fixed(16)),
            GeneratorSpec::bursty(2, 6, 0, 30, 90, 3, traffic_gen::SizeDist::uniform(1, 16)),
            GeneratorSpec::periodic_jittered(24, 5, 30, traffic_gen::SizeDist::fixed(4)),
        ];
        let recorded = RecordedTraffic::record(&specs, &settings);
        let rr = || RoundRobinArbiter::new(3).expect("valid");
        for s in [settings, settings.with_kernel(Kernel::Fast), settings.with_metrics(500)] {
            assert_eq!(recorded.run(rr(), &s), run_system(&specs, rr(), &s), "{s:?}");
        }
        let live =
            |s: &RunSettings| run_lane_timeseries(live_sources(&specs, s), rr().into(), s, 1_000);
        assert_eq!(recorded.run_timeseries(rr(), &settings, 1_000), live(&settings));
        assert_eq!(live(&settings.with_kernel(Kernel::Fast)), live(&settings), "time series");
        // Recording on two workers changes nothing.
        let parallel = RecordedTraffic::record(&specs, &settings.with_jobs(2));
        assert_eq!(parallel.masters, recorded.masters);
    }

    #[test]
    #[should_panic(expected = "another seed or window")]
    fn recorded_traffic_refuses_other_settings() {
        let settings = RunSettings { warmup: 100, measure: 1_000, ..RunSettings::quick() };
        let recorded = RecordedTraffic::record(&saturating_specs(2), &settings);
        let longer = RunSettings { measure: 2_000, ..settings };
        recorded.run(RoundRobinArbiter::new(2).expect("valid"), &longer);
    }

    #[test]
    fn run_system_produces_saturated_stats() {
        let settings = RunSettings { warmup: 1_000, measure: 10_000, ..RunSettings::quick() };
        let stats =
            run_system(&saturating_specs(4), RoundRobinArbiter::new(4).expect("valid"), &settings);
        assert_eq!(stats.cycles, 10_000);
        assert!(stats.bus_utilization() > 0.95, "util {}", stats.bus_utilization());
        let fractions = bandwidth_fractions(&stats, 4);
        // Round robin shares the saturated bus equally.
        for f in &fractions {
            assert!((f - 0.25).abs() < 0.05, "fractions {fractions:?}");
        }
    }
}
