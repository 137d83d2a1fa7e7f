//! Runs the full experiment suite and emits one deterministic JSON
//! document on stdout (or `--out FILE`).
//!
//! ```text
//! suite [--quick] [--jobs N] [--metrics W] [--kernel K] [--validate-analytic]
//!       [--out FILE] [--bench FILE]
//! ```
//!
//! * `--quick` — short measurement window (CI-friendly).
//! * `--jobs N` — worker threads; `0` (default) = all cores. Never
//!   affects the JSON output, only wall-clock time.
//! * `--metrics W` — also collect windowed metrics (window of W cycles)
//!   in every simulation. The samples are discarded, so the JSON output
//!   is byte-identical with or without this flag; it exists to exercise
//!   and measure the observability layer.
//! * `--kernel K` — simulation kernel, `cycle` (default) or `fast`
//!   (`tlm` is accepted as an alias of `fast`). The fast-forward kernel
//!   skips provably idle spans and the JSON output is byte-identical
//!   (the CI kernel-diff gate checks exactly that).
//! * `--validate-analytic` — additionally run the analytic-model
//!   validation grid (48 simulations, each compared against the
//!   closed-form predictors of the `analytic` crate) and embed the
//!   per-cell error table as an `analytic_validation` field of the
//!   result document. Off by default so the core document the CI
//!   determinism gates diff is unchanged.
//! * `--out FILE` — write the JSON document to FILE instead of stdout.
//! * `--bench FILE` — benchmark mode: run the suite serially (`--jobs
//!   1`) and with the requested worker count, with metrics off and on,
//!   and once under the fast-forward kernel; assert all result
//!   documents are byte-identical, profile the cycle kernel's phases,
//!   time the fast kernel against the cycle kernel on a low-utilization
//!   and a saturated workload, run the saturated hot-path lineup
//!   (steady-state cycles/sec per protocol), pack the same lineup as
//!   one SoA lockstep fleet and time it against the summed scalar runs
//!   (lane exactness hard-asserted, aggregate speedup reported), and
//!   write the wall-clock report to FILE (the `BENCH_PR9.json`
//!   artifact: parallel speedup, metrics overhead, kernel speedups,
//!   per-phase breakdown, per-protocol hot-path throughput, and the
//!   `fleet` section).
//!
//! Timing telemetry always goes to **stderr** so stdout stays a clean,
//! diffable result stream.

use experiments::suite::{run_suite, SuiteOptions};
use experiments::telemetry::{sim_phases_json, sim_phases_report};
use socsim::Kernel;

fn usage() -> ! {
    eprintln!(
        "usage: suite [--quick] [--jobs N] [--metrics W] [--kernel cycle|fast] \
         [--validate-analytic] [--out FILE] [--bench FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let mut opts = SuiteOptions {
        quick: false,
        jobs: 0,
        metrics_window: None,
        kernel: Kernel::Cycle,
        validate_analytic: false,
    };
    let mut out: Option<String> = None;
    let mut bench: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--jobs" => {
                let value = args.next().unwrap_or_else(|| usage());
                opts.jobs = value.parse().unwrap_or_else(|_| usage());
            }
            "--metrics" => {
                let value = args.next().unwrap_or_else(|| usage());
                let window: u64 = value.parse().unwrap_or_else(|_| usage());
                if window == 0 {
                    usage();
                }
                opts.metrics_window = Some(window);
            }
            "--kernel" => {
                let value = args.next().unwrap_or_else(|| usage());
                opts.kernel = Kernel::parse(&value).unwrap_or_else(|| usage());
            }
            "--validate-analytic" => opts.validate_analytic = true,
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--bench" => bench = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    let workers = socsim::pool::resolve_jobs(opts.jobs);

    if let Some(bench_path) = bench {
        emit(out.as_deref(), &run_bench(&opts, workers, &bench_path));
    } else {
        let run = run_suite(&opts);
        eprintln!("{}", run.telemetry.report(workers));
        emit(out.as_deref(), &run.json);
    }
}

/// The benchmark flow: four suite runs (serial/parallel × metrics
/// off/on) plus a fast-kernel run, byte-identity checks across all of
/// them, a profiled probe simulation, kernel-speedup probes, and the
/// JSON report. Returns the suite result document.
fn run_bench(opts: &SuiteOptions, workers: usize, bench_path: &str) -> String {
    let window = opts.metrics_window.unwrap_or(1_000);
    // The validation grid is benchmarked once on the side (below), not
    // inside each of the five suite runs the identity checks compare.
    let off = SuiteOptions {
        metrics_window: None,
        kernel: Kernel::Cycle,
        validate_analytic: false,
        ..*opts
    };
    let on = SuiteOptions { metrics_window: Some(window), kernel: Kernel::Cycle, ..off };

    // Serial baseline first, then the parallel run; the two result
    // documents must be byte-identical (the determinism guarantee the
    // rest of the tooling relies on).
    let serial = run_suite(&SuiteOptions { jobs: 1, ..off });
    eprintln!("{}", serial.telemetry.report(1));
    let parallel = run_suite(&off);
    eprintln!("{}", parallel.telemetry.report(workers));
    assert_eq!(
        serial.json, parallel.json,
        "suite output differs between --jobs 1 and --jobs {workers}"
    );

    // The same pair with windowed metrics collected in every system.
    // Metrics must neither perturb results nor break the jobs
    // invariance, so all four documents are identical.
    let serial_metrics = run_suite(&SuiteOptions { jobs: 1, ..on });
    let parallel_metrics = run_suite(&on);
    assert_eq!(
        serial.json, serial_metrics.json,
        "suite output changed when metrics (window={window}) were enabled"
    );
    assert_eq!(
        serial_metrics.json, parallel_metrics.json,
        "metrics-on output differs between --jobs 1 and --jobs {workers}"
    );

    // The fast-forward kernel must reproduce the suite byte for byte
    // — the same guarantee the CI kernel-diff gate enforces.
    let fast = run_suite(&SuiteOptions { jobs: 1, kernel: Kernel::Fast, ..off });
    assert_eq!(
        serial.json, fast.json,
        "suite output differs between the cycle and fast-forward kernels"
    );

    let serial_wall = serial.telemetry.total_wall().as_secs_f64();
    let fast_wall = fast.telemetry.total_wall().as_secs_f64();
    let kernel_suite_speedup = if fast_wall > 0.0 { serial_wall / fast_wall } else { 1.0 };
    let parallel_wall = parallel.telemetry.total_wall().as_secs_f64();
    let metrics_serial_wall = serial_metrics.telemetry.total_wall().as_secs_f64();
    let metrics_parallel_wall = parallel_metrics.telemetry.total_wall().as_secs_f64();
    let speedup = if parallel_wall > 0.0 { serial_wall / parallel_wall } else { 1.0 };
    let overhead_pct = if serial_wall > 0.0 {
        (metrics_serial_wall - serial_wall) / serial_wall * 100.0
    } else {
        0.0
    };

    // Where does simulation time go? Profile one saturated four-master
    // system (with metrics on, like the overhead run).
    let probe_settings = on.settings().with_jobs(1);
    let (_, profiler) = experiments::common::run_system_profiled(
        &traffic_gen::classes::saturating_specs(4),
        experiments::common::protocol_arbiter(4, probe_settings.seed),
        &probe_settings,
    );
    eprintln!("{}", sim_phases_report(&profiler));

    // Targeted kernel probes: the fast-forward kernel must win big on a
    // mostly-idle workload and must not lose at saturation.
    let probe = off.settings().with_jobs(1);
    let lowutil = kernel_probe(&experiments::common::low_utilization_specs(4), &probe);
    let saturated = kernel_probe(&traffic_gen::classes::saturating_specs(4), &probe);
    eprintln!(
        "fast kernel: suite {kernel_suite_speedup:.2}x, low-utilization {:.2}x, \
         saturated {:.2}x",
        lowutil.speedup, saturated.speedup
    );

    // The analytic crate's two headline numbers: how close the closed
    // forms track the simulator across the validation grid, and how
    // fast the design-space search scans. Both land in the bench
    // artifact so accuracy or throughput regressions fail the gate.
    let analytic_probe = analytic_probe(&probe, workers);
    eprintln!(
        "analytic: share err max {:.4} / mean {:.4}, latency rel err max {:.3} / mean {:.3}; \
         search {} points in {:.3}s ({:.1}M points/s)",
        analytic_probe.validation.share_max_abs_error,
        analytic_probe.validation.share_mean_abs_error,
        analytic_probe.validation.latency_max_rel_error,
        analytic_probe.validation.latency_mean_rel_error,
        analytic_probe.search_points,
        analytic_probe.search_wall_secs,
        analytic_probe.search_points_per_sec / 1e6,
    );

    // The saturated hot-path lineup: steady-state cycles/sec per
    // protocol with always-requesting sources (no RNG, no per-cycle
    // allocation), the number the enum-dispatch kernel is tuned for.
    let hot = experiments::hotpath::hot_lineup(&probe);
    for p in &hot {
        eprintln!(
            "hot {}: {:.2}M cycles/s ({} cycles in {:.4}s)",
            p.protocol,
            p.cycles_per_sec / 1e6,
            p.cycles,
            p.wall_secs
        );
    }

    // The fleet probes: saturated lineups packed as lanes of one SoA
    // lockstep fleet with grouped (lowered) arbitration, timed against
    // the sum of the equivalent scalar runs. Lane exactness is a hard
    // in-binary assert; the aggregate speedups are the PR-9/PR-10
    // acceptance numbers gated by tools/bench_regression.py.
    let fleet = fleet_probe(&probe, &FLEET_PROTOCOLS);
    eprintln!(
        "fleet: {} lanes, {:.2}x aggregate vs scalar ({:.4}s vs {:.4}s, \
         {:.2}M lane-cycles/s)",
        fleet.lanes,
        fleet.aggregate_speedup,
        fleet.fleet_wall_secs,
        fleet.scalar_wall_secs,
        fleet.lane_cycles_per_sec / 1e6,
    );
    let fleet_tdma = fleet_probe(&probe, &FLEET_TDMA_PACK);
    eprintln!(
        "fleet_arb tdma: {} lanes sharing {} wheel kernel(s), {:.2}x aggregate vs scalar \
         ({:.4}s vs {:.4}s, {:.2}M lane-cycles/s)",
        fleet_tdma.lanes,
        fleet_tdma.kernels,
        fleet_tdma.aggregate_speedup,
        fleet_tdma.fleet_wall_secs,
        fleet_tdma.scalar_wall_secs,
        fleet_tdma.lane_cycles_per_sec / 1e6,
    );

    let report = experiments::json::Json::obj()
        .field("quick", opts.quick)
        .field("host_parallelism", socsim::pool::available_jobs())
        .field("jobs", workers)
        .field("serial_wall_secs", serial_wall)
        .field("parallel_wall_secs", parallel_wall)
        .field("speedup", speedup)
        .field("byte_identical", true)
        .field("metrics_window", window)
        .field("metrics_serial_wall_secs", metrics_serial_wall)
        .field("metrics_parallel_wall_secs", metrics_parallel_wall)
        .field("metrics_overhead_pct", overhead_pct)
        .field("metrics_byte_identical", true)
        .field("kernel_suite_wall_secs", fast_wall)
        .field("kernel_suite_speedup", kernel_suite_speedup)
        .field("kernel_byte_identical", true)
        .field("kernel_lowutil", lowutil.to_json())
        .field("kernel_saturated", saturated.to_json())
        .field("analytic", analytic_probe.to_json())
        .field("hot", experiments::hotpath::hot_json(&hot))
        .field("fleet", fleet.to_json())
        .field(
            "fleet_arb",
            experiments::json::Json::obj()
                .field("probe", fleet.to_json())
                .field("tdma", fleet_tdma.to_json()),
        )
        .field("sim_phases", sim_phases_json(&profiler))
        .field("serial", serial.telemetry.to_json())
        .field("parallel", parallel.telemetry.to_json());
    std::fs::write(bench_path, report.render() + "\n").expect("write bench report");
    eprintln!(
        "speedup {speedup:.2}x with {workers} worker(s); metrics overhead {overhead_pct:.2}% \
         at window={window}; bench report: {bench_path}"
    );
    parallel.json
}

/// One kernel-speedup probe: the same workload timed under the cycle
/// kernel and the fast-forward kernel, with a stats-equality check.
struct KernelProbe {
    cycle_wall_secs: f64,
    fast_wall_secs: f64,
    speedup: f64,
}

impl KernelProbe {
    fn to_json(&self) -> experiments::json::Json {
        experiments::json::Json::obj()
            .field("cycle_wall_secs", self.cycle_wall_secs)
            .field("fast_wall_secs", self.fast_wall_secs)
            .field("speedup", self.speedup)
    }
}

fn kernel_probe(
    specs: &[traffic_gen::GeneratorSpec],
    settings: &experiments::RunSettings,
) -> KernelProbe {
    // Warm the caches once, then take the best of several timed runs
    // per kernel — single runs are short enough for scheduler noise to
    // dominate the ratio.
    experiments::common::run_system(
        specs,
        experiments::common::protocol_arbiter(4, settings.seed),
        settings,
    );
    let (cycle_wall_secs, cycle_stats) = time_best(specs, settings);
    let (fast_wall_secs, fast_stats) = time_best(specs, &settings.with_kernel(Kernel::Fast));
    assert_eq!(cycle_stats, fast_stats, "kernel probe results diverged");
    let speedup = if fast_wall_secs > 0.0 { cycle_wall_secs / fast_wall_secs } else { 1.0 };
    KernelProbe { cycle_wall_secs, fast_wall_secs, speedup }
}

/// Best-of-5 wall time for one workload under one kernel, returning the
/// (deterministic) stats of the final run alongside the timing.
fn time_best(
    specs: &[traffic_gen::GeneratorSpec],
    settings: &experiments::RunSettings,
) -> (f64, socsim::stats::BusStats) {
    let mut best = f64::INFINITY;
    let mut stats = None;
    for _ in 0..5 {
        let arbiter = experiments::common::protocol_arbiter(4, settings.seed);
        let start = std::time::Instant::now();
        let run = experiments::common::run_system(specs, arbiter, settings);
        best = best.min(start.elapsed().as_secs_f64());
        stats = Some(run);
    }
    (best, stats.expect("ran at least once"))
}

/// One fleet probe: a saturated protocol lineup packed as lanes of one
/// SoA lockstep fleet, timed against the summed wall clock of the
/// equivalent scalar cycle-kernel runs. Every lane's stats are
/// hard-asserted byte-identical to its scalar run before any number is
/// reported.
struct FleetProbe {
    protocols: &'static [&'static str],
    lanes: usize,
    lanes_lowered: usize,
    kernels: usize,
    cycles_per_lane: u64,
    fleet_wall_secs: f64,
    scalar_wall_secs: f64,
    aggregate_speedup: f64,
    lane_cycles_per_sec: f64,
}

/// Burst length (and bus `max_burst`) of the fleet probe's workload:
/// DMA-style long tenures, where the fleet's exact tenure batching
/// amortizes per-cycle stepping and the aggregate speedup target
/// (gated by `tools/bench_regression.py`) is meaningful. The
/// short-burst regime is covered by the `hot` probe above.
const FLEET_WORDS: u32 = 64;

/// The flagship fleet lineup: every built-in protocol whose grants can
/// span a multi-cycle tenure, one lane each, every lane lowered into
/// its (singleton) SoA decision kernel. TDMA is measured by its own
/// pack ([`FLEET_TDMA_PACK`]) instead — its wheel issues single-word
/// grants, so its fleet win comes from the arithmetic slot-position
/// walk rather than tenure batching, a different mechanism worth its
/// own number.
const FLEET_PROTOCOLS: [&str; 5] =
    ["static-priority", "round-robin", "deficit-rr", "lottery-static", "lottery-dynamic"];

/// The TDMA lane pack: identically-configured TDMA lanes that lower
/// into one SoA kernel sharing a single timing-wheel table, each lane
/// replayed by the arithmetic slot-position walk.
const FLEET_TDMA_PACK: [&str; 5] = ["tdma"; 5];

impl FleetProbe {
    fn to_json(&self) -> experiments::json::Json {
        use experiments::json::Json;
        let protocols: Vec<Json> = self.protocols.iter().map(|&p| Json::from(p)).collect();
        Json::obj()
            .field("lanes", self.lanes)
            .field("protocols", Json::Arr(protocols))
            .field("lanes_lowered", self.lanes_lowered)
            .field("kernels", self.kernels)
            .field("masters", experiments::hotpath::HOT_MASTERS)
            .field("words", u64::from(FLEET_WORDS))
            .field("cycles_per_lane", self.cycles_per_lane)
            .field("fleet_wall_secs", self.fleet_wall_secs)
            .field("scalar_wall_secs", self.scalar_wall_secs)
            .field("aggregate_speedup", self.aggregate_speedup)
            .field("lane_cycles_per_sec", self.lane_cycles_per_sec)
            .field("lane_exact", true)
    }
}

fn fleet_probe(
    settings: &experiments::RunSettings,
    protocols: &'static [&'static str],
) -> FleetProbe {
    use experiments::hotpath::{hot_arbiter, HOT_MASTERS};
    use socsim::fleet::{Fleet, LaneBuilder};
    use traffic_gen::{SaturateSource, SourceKind};

    let bus = socsim::BusConfig { max_burst: FLEET_WORDS, ..settings.bus };

    // Scalar baseline: one cycle-kernel system per protocol, walls
    // summed within a repetition, best repetition reported.
    let mut scalar_wall_secs = f64::INFINITY;
    let mut scalar_stats = Vec::new();
    for _ in 0..3 {
        let mut total = 0.0;
        let mut stats = Vec::new();
        for &protocol in protocols {
            let mut builder = socsim::SystemBuilder::new(bus);
            for i in 0..HOT_MASTERS {
                builder = builder.master(
                    format!("C{}", i + 1),
                    SourceKind::from(SaturateSource::new(0, FLEET_WORDS)),
                );
            }
            let mut system = builder
                .arbiter(hot_arbiter(protocol, settings.seed))
                .build()
                .expect("fleet-probe system is valid");
            system.warm_up(settings.warmup);
            let start = std::time::Instant::now();
            system.run(settings.measure);
            total += start.elapsed().as_secs_f64();
            stats.push(system.stats().clone());
        }
        scalar_wall_secs = scalar_wall_secs.min(total);
        scalar_stats = stats;
    }

    // The same systems as lanes of one fleet, advanced together with
    // grouped (SoA-lowered) arbitration.
    let mut fleet_wall_secs = f64::INFINITY;
    let mut fleet_stats = Vec::new();
    let mut lanes_lowered = 0;
    let mut kernels = 0;
    for _ in 0..3 {
        let lanes = protocols
            .iter()
            .map(|protocol| {
                let mut lane: LaneBuilder<arbiters::ArbiterKind, SourceKind> =
                    LaneBuilder::new(bus);
                for i in 0..HOT_MASTERS {
                    lane = lane.master(
                        format!("C{}", i + 1),
                        SourceKind::from(SaturateSource::new(0, FLEET_WORDS)),
                    );
                }
                lane.arbiter(hot_arbiter(protocol, settings.seed))
            })
            .collect();
        let mut fleet = Fleet::build(lanes).expect("fleet-probe lanes are valid");
        lanes_lowered = fleet.lowered_lanes();
        kernels = fleet.kernel_count();
        fleet.warm_up(settings.warmup);
        let start = std::time::Instant::now();
        fleet.run(settings.measure);
        fleet_wall_secs = fleet_wall_secs.min(start.elapsed().as_secs_f64());
        fleet_stats = (0..fleet.len()).map(|i| fleet.stats(i).clone()).collect();
    }
    assert_eq!(
        lanes_lowered,
        protocols.len(),
        "every probe lane must lower into an SoA decision kernel"
    );

    // Hard gate: every lane must reproduce its scalar run byte for
    // byte before any throughput number is believed.
    for ((protocol, lane), solo) in protocols.iter().zip(&fleet_stats).zip(&scalar_stats) {
        assert_eq!(lane, solo, "fleet lane {protocol} diverged from its scalar run");
        assert!(
            lane.bus_utilization() > 0.95,
            "{protocol} fleet lane is not saturated: utilization {}",
            lane.bus_utilization()
        );
    }

    let lanes = protocols.len();
    let aggregate_speedup =
        if fleet_wall_secs > 0.0 { scalar_wall_secs / fleet_wall_secs } else { 1.0 };
    let lane_cycles_per_sec = if fleet_wall_secs > 0.0 {
        settings.measure as f64 * lanes as f64 / fleet_wall_secs
    } else {
        0.0
    };
    FleetProbe {
        protocols,
        lanes,
        lanes_lowered,
        kernels,
        cycles_per_lane: settings.measure,
        fleet_wall_secs,
        scalar_wall_secs,
        aggregate_speedup,
        lane_cycles_per_sec,
    }
}

/// The analytic probe: the validation grid's error summary plus the
/// single-threaded design-space search throughput (the "scan a million
/// points in under five seconds" acceptance number).
struct AnalyticProbe {
    grid_wall_secs: f64,
    validation: experiments::validate::ErrorSummary,
    search_points: u64,
    search_feasible: u64,
    search_shortlisted: usize,
    search_wall_secs: f64,
    search_points_per_sec: f64,
}

impl AnalyticProbe {
    fn to_json(&self) -> experiments::json::Json {
        use experiments::json::ToJson as _;
        experiments::json::Json::obj()
            .field("grid_wall_secs", self.grid_wall_secs)
            .field("validation", self.validation.to_json())
            .field(
                "search",
                experiments::json::Json::obj()
                    .field("points", self.search_points)
                    .field("feasible", self.search_feasible)
                    .field("shortlisted", self.search_shortlisted)
                    .field("wall_secs", self.search_wall_secs)
                    .field("points_per_sec", self.search_points_per_sec),
            )
    }
}

fn analytic_probe(settings: &experiments::RunSettings, workers: usize) -> AnalyticProbe {
    let start = std::time::Instant::now();
    let grid = experiments::validate::run(&settings.with_jobs(workers));
    let grid_wall_secs = start.elapsed().as_secs_f64();
    let validation = grid.summary();

    // The acceptance scan: four saturating masters × tickets 1..=32 =
    // 1,048,576 lottery design points against a 40 % share SLA on the
    // last master — single-threaded, best of 3.
    let traffic = vec![
        analytic::TrafficInput {
            lambda: 0.09,
            size: traffic_gen::SizeDist::fixed(16),
            stall: None
        };
        4
    ];
    let space =
        analytic::SearchSpace::new(analytic::Protocol::LotteryStatic, settings.bus, traffic);
    let targets = [analytic::SlaTarget { master: 3, kind: analytic::TargetKind::MinShare(0.4) }];
    let mut wall = f64::INFINITY;
    let mut report = None;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        let r = analytic::search(&space, &targets, 8).expect("probe space is valid");
        wall = wall.min(start.elapsed().as_secs_f64());
        report = Some(r);
    }
    let report = report.expect("ran at least once");
    AnalyticProbe {
        grid_wall_secs,
        validation,
        search_points: report.scanned,
        search_feasible: report.feasible,
        search_shortlisted: report.candidates.len(),
        search_wall_secs: wall,
        search_points_per_sec: if wall > 0.0 { report.scanned as f64 / wall } else { 0.0 },
    }
}

fn emit(out: Option<&str>, json: &str) {
    match out {
        Some(path) => std::fs::write(path, json.to_owned() + "\n").expect("write suite output"),
        None => println!("{json}"),
    }
}
