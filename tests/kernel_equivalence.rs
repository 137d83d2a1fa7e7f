//! Differential testing harness for the fast-forward kernel.
//!
//! Every suite experiment — and a set of system-level scenarios
//! covering fault injection, recovery, windowed metrics, traces,
//! waveforms, and replica fan-out — runs under both the cycle kernel
//! and the fast-forward kernel. The outputs must match exactly:
//! statistics struct-for-struct, serialized JSON byte-for-byte, trace
//! streams event-for-event. Fast-forward is a pure wall-clock
//! optimization; any divergence here is a kernel bug. (`tlm` names the
//! same kernel; `tests/golden_outputs.rs` covers that alias.)

use lotterybus_cli::spec::run_spec;
use lotterybus_cli::SimSpec;
use lotterybus_repro::arbiters::FailoverArbiter;
use lotterybus_repro::experiments::json::ToJson;
use lotterybus_repro::experiments::{self, RunSettings};
use lotterybus_repro::lottery::{StaticLotteryArbiter, TicketAssignment};
use lotterybus_repro::socsim::{
    vcd, Arbiter, BusConfig, FaultConfig, Kernel, RetryPolicy, RingSink, SystemBuilder,
};
use lotterybus_repro::traffic::{GeneratorSpec, SizeDist, TrafficClass};

/// Short settings so the whole experiment sweep stays debug-build fast.
fn short() -> RunSettings {
    RunSettings { warmup: 1_000, measure: 6_000, jobs: 1, ..RunSettings::new() }
}

/// Runs `experiment` under both kernels and asserts the results (and
/// their serialized JSON) are identical.
fn diff_experiment<T, F>(name: &str, experiment: F)
where
    T: PartialEq + std::fmt::Debug + ToJson,
    F: Fn(&RunSettings) -> T,
{
    let cycle = experiment(&short());
    let fast = experiment(&short().with_kernel(Kernel::Fast));
    assert_eq!(cycle, fast, "{name}: kernels disagree");
    assert_eq!(
        cycle.to_json().render(),
        fast.to_json().render(),
        "{name}: serialized JSON differs between kernels"
    );
}

#[test]
fn fig4_bandwidth_and_timeseries_match() {
    diff_experiment("fig4", experiments::fig4::run);
    diff_experiment("fig4_timeseries", experiments::fig4::run_timeseries);
}

#[test]
fn fig5_tdma_replay_matches() {
    let cycle = experiments::fig5::run_kernel(1, Kernel::Cycle);
    let fast = experiments::fig5::run_kernel(1, Kernel::Fast);
    assert_eq!(cycle, fast, "fig5: fast kernel disagrees");
    assert_eq!(cycle.to_json().render(), fast.to_json().render());
}

#[test]
fn fig6_bandwidth_and_latency_match() {
    diff_experiment("fig6a", experiments::fig6::run_bandwidth);
    diff_experiment("fig6b", |s| experiments::fig6::run_latency(TrafficClass::T6, s));
}

#[test]
fn fig12_dynamic_lottery_surfaces_match() {
    diff_experiment("fig12a", experiments::fig12::run_bandwidth);
    diff_experiment("fig12b", experiments::fig12::run_tdma_latency);
    diff_experiment("fig12c", experiments::fig12::run_lottery_latency);
}

#[test]
fn starvation_sweeps_energy_and_ablations_match() {
    diff_experiment("starvation", experiments::starvation::run);
    diff_experiment("sweeps", experiments::sweeps::run);
    diff_experiment("energy", experiments::energy::run);
    diff_experiment("ablations", experiments::ablations::run);
}

/// A mixed workload with every observability and fault feature on:
/// periodic + bursty + poisson traffic, all five fault classes, retry
/// with backoff, a watchdog timeout, a failover-wrapped lottery, a
/// windowed metrics collector, and a buffered + streamed trace.
fn build_full_system(seed: u64, kernel: Kernel) -> lotterybus_repro::socsim::System {
    let fault = FaultConfig {
        seed,
        slave_error_rate: 0.01,
        slave_outage_rate: 0.002,
        slave_outage_duration: 24,
        grant_drop_rate: 0.005,
        grant_corrupt_rate: 0.003,
        master_stall_rate: 0.004,
        master_stall_max: 6,
    };
    let tickets = TicketAssignment::new(vec![1, 2, 3]).expect("valid");
    let lottery: Box<dyn Arbiter> =
        Box::new(StaticLotteryArbiter::with_seed(tickets, seed as u32 | 1).expect("valid"));
    let arbiter = FailoverArbiter::with_patience(lottery, 3, 64).expect("valid");
    SystemBuilder::new(BusConfig::default())
        .kernel(kernel)
        .master("periodic", GeneratorSpec::periodic(90, 7, SizeDist::fixed(8)).build_source(seed))
        .master(
            "bursty",
            GeneratorSpec::bursty(2, 5, 1, 40, 120, 3, SizeDist::fixed(4)).build_source(seed + 1),
        )
        .master("poisson", GeneratorSpec::poisson(0.01, SizeDist::fixed(16)).build_source(seed + 2))
        .faults(fault)
        .retry_policy(RetryPolicy { max_retries: 3, backoff_base: 2, backoff_factor: 2 })
        .timeout(200)
        .metrics_window(128)
        .trace_capacity(1 << 16)
        .trace_sink(Box::new(RingSink::new(1 << 16)))
        .arbiter(Box::new(arbiter))
        .build()
        .expect("valid system")
}

#[test]
fn faulty_observed_system_matches_in_every_output_stream() {
    for seed in [3u64, 17, 101] {
        let mut cycle = build_full_system(seed, Kernel::Cycle);
        let mut fast = build_full_system(seed, Kernel::Fast);
        for system in [&mut cycle, &mut fast] {
            system.warm_up(500);
            system.run(20_000);
            system.flush_metrics();
        }
        assert_eq!(cycle.stats(), fast.stats(), "seed {seed}: statistics diverged");
        assert_eq!(cycle.trace(), fast.trace(), "seed {seed}: trace streams diverged");
        assert_eq!(cycle.fault_events(), fast.fault_events(), "seed {seed}: fault logs diverged");
        assert_eq!(
            cycle.metrics().expect("metrics on").samples(),
            fast.metrics().expect("metrics on").samples(),
            "seed {seed}: metrics time series diverged"
        );
        let names: Vec<String> =
            ["periodic", "bursty", "poisson"].iter().map(|s| (*s).to_string()).collect();
        assert_eq!(
            vcd::trace_to_vcd(cycle.trace(), &names, 20_500),
            vcd::trace_to_vcd(fast.trace(), &names, 20_500),
            "seed {seed}: VCD waveforms diverged"
        );
        assert_eq!(cycle.now(), fast.now(), "seed {seed}: clocks diverged");
    }
}

#[test]
fn replica_fanout_matches_across_kernels() {
    // Replicas derive their seeds the way the CLI does; every replica
    // must agree between kernels independently.
    let base_seed = 0xC0FFEEu64;
    for r in 0..3u64 {
        let seed = base_seed.wrapping_add(r.wrapping_mul(0x9E37_79B9_97F4_A7C5));
        let run = |kernel: Kernel| {
            let mut system = SystemBuilder::new(BusConfig::default())
                .kernel(kernel)
                .master("a", GeneratorSpec::periodic(64, 0, SizeDist::fixed(8)).build_source(seed))
                .master(
                    "b",
                    GeneratorSpec::poisson(0.005, SizeDist::fixed(16)).build_source(seed + 1),
                )
                .arbiter(experiments::common::protocol_arbiter(4, seed))
                .build()
                .expect("valid");
            system.run(15_000);
            system.stats().clone()
        };
        assert_eq!(run(Kernel::Cycle), run(Kernel::Fast), "replica {r} diverged between kernels");
    }
}

#[test]
fn cli_spec_pipeline_matches_across_kernels() {
    // The full CLI path: parse a spec, run it through the binary's
    // runner, and render the user-facing report plus the windowed
    // metrics section. `kernel = fast` must not change a byte.
    let spec_for = |kernel: &str| {
        let text = format!(
            "arbiter = lottery\n\
             burst   = 8\n\
             cycles  = 12000\n\
             warmup  = 1000\n\
             seed    = 99\n\
             kernel  = {kernel}\n\
             fault slave-error rate=0.01\n\
             fault master-stall rate=0.004 max=6\n\
             retry max=3 backoff=2x\n\
             timeout = 256\n\
             failover = 64\n\
             metrics window=512\n\
             master cpu weight=4 load=0.30 size=16\n\
             master dsp weight=2 load=0.05 size=16 burst\n\
             master dma weight=1 load=0.02 size=8 periodic\n"
        );
        SimSpec::parse(&text).expect("valid spec")
    };
    let render = |spec: &SimSpec| run_spec(spec, None).expect("spec runs");
    let cycle = render(&spec_for("cycle"));
    let fast = render(&spec_for("fast"));
    assert!(cycle.contains("fault"), "spec fault section missing from the report");
    assert_eq!(cycle, fast, "CLI report differs between kernels");
}

#[test]
fn scenario_and_suite_experiment_match_across_the_full_kernel_matrix() {
    // One declarative scenario, whose verdict must be byte-identical.
    let text = "scenario kernel-matrix\n\
                seed = 42\n\
                arbiter = lottery\n\
                master cpu weight=3 load=0.20 size=8\n\
                master dma weight=1 load=0.05 size=16\n\
                phase steady duration=20000\n\
                sla losses max=0\n";
    let sc = scenario::Scenario::parse(text).expect("valid scenario");
    let cycle = scenario::run_scenario(&sc, Kernel::Cycle).expect("cycle run");
    let fast = scenario::run_scenario(&sc, Kernel::Fast).expect("fast run");
    assert_eq!(
        cycle.to_json().render(),
        fast.to_json().render(),
        "scenario verdict differs under the fast kernel"
    );

    // One suite experiment on periodic low-utilization traffic, where
    // the fast kernel skips most cycles.
    let settings = short();
    let specs = experiments::common::low_utilization_specs(4);
    let run = |s: &RunSettings| {
        experiments::common::run_system(&specs, experiments::common::protocol_arbiter(4, s.seed), s)
    };
    assert_eq!(
        run(&settings),
        run(&settings.with_kernel(Kernel::Fast)),
        "suite experiment stats differ under the fast kernel"
    );
}

// ---------------------------------------------------------------------------
// Enum dispatch vs boxed dispatch (PR 5).
//
// The enum-dispatch kernel (`ArbiterKind` arbiters, `SourceKind`
// sources) must be observationally identical to the same protocols run
// through the open escape hatches (`ArbiterKind::Custom(Box<dyn
// Arbiter>)`, `Box<dyn TrafficSource>`): same statistics, same trace
// events, same VCD bytes, on randomized systems. Devirtualization is a
// pure wall-clock optimization; any divergence here is a dispatch bug.
// ---------------------------------------------------------------------------

use lotterybus_repro::arbiters::ArbiterKind;
use lotterybus_repro::experiments::hotpath::{hot_arbiter, HOT_PROTOCOLS};
use lotterybus_repro::socsim::{BusStats, TraceEvent, TrafficSource};
use lotterybus_repro::traffic::{SaturateSource, SourceKind};
use proptest::prelude::*;

/// One randomized master's traffic shape; buildable as both an enum
/// source and a boxed source from the same seed.
#[derive(Debug, Clone, Copy)]
enum SourceChoice {
    Periodic { period: u64, phase: u64, words: u32 },
    Poisson { rate_millis: u32, words: u32 },
    Saturate { words: u32 },
}

impl SourceChoice {
    fn spec(self) -> Option<GeneratorSpec> {
        match self {
            SourceChoice::Periodic { period, phase, words } => {
                Some(GeneratorSpec::periodic(period, phase, SizeDist::fixed(words)))
            }
            SourceChoice::Poisson { rate_millis, words } => Some(GeneratorSpec::poisson(
                f64::from(rate_millis) / 1000.0,
                SizeDist::fixed(words),
            )),
            SourceChoice::Saturate { .. } => None,
        }
    }

    fn enum_source(self, seed: u64) -> SourceKind {
        match (self, self.spec()) {
            (_, Some(spec)) => spec.build_kind(seed),
            (SourceChoice::Saturate { words }, None) => {
                SourceKind::from(SaturateSource::new(0, words))
            }
            _ => unreachable!("spec() is None only for Saturate"),
        }
    }

    fn boxed_source(self, seed: u64) -> Box<dyn TrafficSource> {
        match (self, self.spec()) {
            (_, Some(spec)) => spec.build_source(seed),
            (SourceChoice::Saturate { words }, None) => Box::new(SaturateSource::new(0, words)),
            _ => unreachable!("spec() is None only for Saturate"),
        }
    }
}

fn source_choice() -> impl Strategy<Value = SourceChoice> {
    prop_oneof![
        (10u64..200, 0u64..50, 1u32..24)
            .prop_map(|(period, phase, words)| { SourceChoice::Periodic { period, phase, words } }),
        (1u32..200, 1u32..24)
            .prop_map(|(rate_millis, words)| SourceChoice::Poisson { rate_millis, words }),
        (1u32..24).prop_map(|words| SourceChoice::Saturate { words }),
    ]
}

/// Everything observable from one dispatch run.
fn dispatch_outputs<S: TrafficSource>(
    sources: Vec<S>,
    arbiter: ArbiterKind,
    cycles: u64,
) -> (BusStats, Vec<TraceEvent>, String) {
    let mut builder: SystemBuilder<ArbiterKind, S> =
        SystemBuilder::new(BusConfig::default()).trace_capacity(1 << 14);
    let mut names = Vec::new();
    for (i, source) in sources.into_iter().enumerate() {
        let name = format!("M{}", i + 1);
        builder = builder.master(name.clone(), source);
        names.push(name);
    }
    let mut system = builder.arbiter(arbiter).build().expect("valid random system");
    system.run(cycles);
    let events = system.trace().events().to_vec();
    let waveform = vcd::trace_to_vcd(system.trace(), &names, cycles);
    (system.stats().clone(), events, waveform)
}

// ---------------------------------------------------------------------------
// Fleet lockstep kernel vs scalar kernels (PR 9).
//
// The SoA fleet kernel advances N independent systems per cycle over
// contiguous state. It must be *lane-exact*: every lane's statistics,
// trace stream, and windowed metrics byte-identical to the same system
// run solo through the scalar cycle kernel. The matrix covers every
// suite experiment workload shape, the committed scenario library, and
// a full-observability mixed fleet.
// ---------------------------------------------------------------------------

use lotterybus_repro::experiments::fleet::{run_systems_fleet, FleetJob};
use lotterybus_repro::socsim::{Fleet, LaneBuilder, Slave, SlaveId};

/// The suite's three workload shapes: saturated, mostly idle, and a
/// weighted Bernoulli mix (the load-sweep cell at 85% offered load).
fn suite_workloads() -> Vec<(&'static str, Vec<GeneratorSpec>)> {
    let weighted: Vec<GeneratorSpec> = [1u32, 2, 3, 4]
        .iter()
        .map(|&w| GeneratorSpec::poisson(0.85 * f64::from(w) / 10.0 / 16.0, SizeDist::fixed(16)))
        .collect();
    vec![
        ("saturating", lotterybus_repro::traffic::classes::saturating_specs(4)),
        ("low-utilization", experiments::common::low_utilization_specs(4)),
        ("weighted-poisson", weighted),
    ]
}

#[test]
fn fleet_matrix_every_suite_workload_lane_matches_its_scalar_run() {
    // All (protocol × workload) combinations of the suite's experiment
    // matrix as lanes of ONE fleet, each compared to its solo scalar
    // cycle-kernel run.
    let settings = short();
    let cells: Vec<(usize, &'static str, Vec<GeneratorSpec>)> = (0..5)
        .flat_map(|p| suite_workloads().into_iter().map(move |(name, specs)| (p, name, specs)))
        .collect();
    let jobs: Vec<FleetJob> = cells
        .iter()
        .map(|(p, _, specs)| {
            (specs.clone(), experiments::common::protocol_arbiter(*p, settings.seed))
        })
        .collect();
    let packed = run_systems_fleet(jobs, &settings);
    for ((p, name, specs), lane_stats) in cells.iter().zip(&packed) {
        let solo = experiments::common::run_system(
            specs,
            experiments::common::protocol_arbiter(*p, settings.seed),
            &settings,
        );
        assert_eq!(
            *lane_stats, solo,
            "protocol {p} on the {name} workload: fleet lane diverged from its scalar run"
        );
    }
}

#[test]
fn fleet_lanes_reproduce_scalar_traces_and_metrics_byte_for_byte() {
    // A full-observability mixed fleet: every lane traces into a ring
    // and samples windowed metrics, with heterogeneous sources, wait
    // states, and master counts; two lanes also carry a fault plan, a
    // retry policy and a watchdog. Stats, trace events, metric samples,
    // fault events and clocks must all match the solo scalar
    // cycle-kernel run of the same lane description.
    let seed = 0xFEE7u64;
    // Sources carry RNG state and are not `Clone`, so each shape is a
    // recipe evaluated once for the fleet lane and once for the solo run.
    let sources = |shape: usize| -> Vec<SourceKind> {
        match shape {
            0 => vec![
                GeneratorSpec::periodic(60, 3, SizeDist::fixed(8)).build_kind(seed),
                GeneratorSpec::poisson(0.02, SizeDist::fixed(16)).build_kind(seed + 1),
                SourceKind::from(SaturateSource::new(0, 4)),
            ],
            1 => vec![
                SourceKind::from(SaturateSource::new(0, 8)),
                SourceKind::from(SaturateSource::new(0, 8)),
            ],
            _ => vec![
                GeneratorSpec::periodic(200, 0, SizeDist::fixed(4)).build_kind(seed + 2),
                GeneratorSpec::periodic(170, 11, SizeDist::fixed(6)).build_kind(seed + 3),
            ],
        }
    };
    let faults = FaultConfig {
        seed: 41,
        slave_error_rate: 0.03,
        slave_outage_rate: 0.002,
        grant_drop_rate: 0.01,
        grant_corrupt_rate: 0.01,
        master_stall_rate: 0.005,
        ..FaultConfig::default()
    };
    let shapes = [
        (0usize, 0u32, false, "mixed"),
        (1, 2, false, "stalled-saturate"),
        (2, 0, false, "idle-heavy"),
        (0, 0, true, "faulted-mixed"),
        (1, 2, true, "faulted-saturate"),
    ];
    let lane_for = |&(shape, wait, faulted, _): &(usize, u32, bool, &str)| {
        let mut lane: LaneBuilder<ArbiterKind, SourceKind> = LaneBuilder::new(BusConfig::default());
        lane = lane
            .slave(Slave::with_wait_states(SlaveId::new(0), "mem", wait))
            .trace_capacity(1 << 14)
            .metrics_window(256);
        if faulted {
            lane = lane.faults(faults).retry_policy(RetryPolicy::exponential(3, 2)).timeout(400);
        }
        for (i, source) in sources(shape).into_iter().enumerate() {
            lane = lane.master(format!("M{}", i + 1), source);
        }
        lane.arbiter(hot_arbiter(HOT_PROTOCOLS[1], seed))
    };
    let mut fleet =
        Fleet::build(shapes.iter().map(lane_for).collect()).expect("matrix lanes are valid");
    fleet.warm_up(300);
    fleet.run(12_000);
    fleet.flush_metrics();
    for (lane, shape) in shapes.iter().enumerate() {
        let name = shape.3;
        let mut solo = SystemBuilder::from(lane_for(shape)).build().expect("valid");
        assert_eq!(solo.run_kernel(), Kernel::Cycle);
        solo.warm_up(300);
        solo.run(12_000);
        solo.flush_metrics();
        assert_eq!(fleet.stats(lane), solo.stats(), "{name}: statistics diverged");
        assert_eq!(
            fleet.trace(lane).events(),
            solo.trace().events(),
            "{name}: trace streams diverged"
        );
        assert_eq!(
            fleet.metrics(lane).expect("metrics on").samples(),
            solo.metrics().expect("metrics on").samples(),
            "{name}: metrics time series diverged"
        );
        assert_eq!(fleet.fault_events(lane), solo.fault_events(), "{name}: fault logs diverged");
        assert_eq!(fleet.fault_events(lane).is_empty(), !shape.2, "{name}: faults drawn");
        assert_eq!(fleet.now(lane), solo.now(), "{name}: clocks diverged");
    }
}

#[test]
fn fleet_scenario_library_matrix_matches_scalar_verdicts() {
    // The whole committed scenario library through the fleet runner:
    // every scenario's verdict JSON must be byte-identical to its solo
    // scalar cycle-kernel run. Every scenario packs, including those
    // with fault plans, retry policies and watchdogs (fault lanes).
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("scenarios/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "scenario"))
        .collect();
    files.sort();
    assert!(files.len() >= 25, "the library ships at least 25 scenarios, found {}", files.len());
    let library: Vec<scenario::Scenario> = files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).expect("readable");
            scenario::Scenario::parse(&text)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", f.display()))
        })
        .collect();
    let refs: Vec<&scenario::Scenario> = library.iter().collect();
    let packed = scenario::run_scenarios_fleet(&refs).expect("fleet pack runs");
    for (sc, fleet_outcome) in library.iter().zip(&packed) {
        let scalar = scenario::run_scenario(sc, Kernel::Cycle).expect("scalar run");
        assert_eq!(
            fleet_outcome.to_json().render(),
            scalar.to_json().render(),
            "scenario `{}`: fleet verdict diverged from the scalar cycle kernel",
            sc.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn enum_dispatch_matches_boxed_dispatch_on_random_systems(
        choices in prop::collection::vec(source_choice(), 4),
        protocol_index in 0usize..HOT_PROTOCOLS.len(),
        seed in 1u64..1_000_000,
        cycles in 500u64..4_000,
    ) {
        let protocol = HOT_PROTOCOLS[protocol_index];
        let enum_sources: Vec<SourceKind> = choices
            .iter()
            .enumerate()
            .map(|(i, c)| c.enum_source(seed.wrapping_add(i as u64)))
            .collect();
        let boxed_sources: Vec<Box<dyn TrafficSource>> = choices
            .iter()
            .enumerate()
            .map(|(i, c)| c.boxed_source(seed.wrapping_add(i as u64)))
            .collect();

        let direct = dispatch_outputs(enum_sources, hot_arbiter(protocol, seed), cycles);
        let boxed = dispatch_outputs(
            boxed_sources,
            ArbiterKind::Custom(Box::new(hot_arbiter(protocol, seed))),
            cycles,
        );

        prop_assert_eq!(&direct.0, &boxed.0, "{}: statistics diverged", protocol);
        prop_assert_eq!(&direct.1, &boxed.1, "{}: trace events diverged", protocol);
        prop_assert_eq!(&direct.2, &boxed.2, "{}: VCD bytes diverged", protocol);
    }
}
