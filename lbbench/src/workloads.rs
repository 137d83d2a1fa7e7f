//! The four workloads: inputs built from the seed, and one pass each.
//!
//! A pass is one closed-loop request — one client, no think time — and
//! returns the FNV-1a digest of its output. A pass panics when the
//! program fails or an invariant of the workload breaks; callers run it
//! under `catch_unwind` and count it as failed.

use crate::digest::{self, Fnv64};
use crate::tracer::Tracer;
use arbiters::{
    ArbiterKind, DeficitRoundRobinArbiter, RoundRobinArbiter, StaticPriorityArbiter, TdmaArbiter,
    WheelLayout,
};
use experiments::json::{Json, ToJson};
use experiments::RunSettings;
use lotterybus::{DynamicLotteryArbiter, StaticLotteryArbiter, TicketAssignment};
use lotterybus_cli::scenario_cmd::CommandError;
use scenario::Scenario;
use socsim::{BusConfig, BusStats, Fleet, Kernel, LaneBuilder, MasterId, SystemBuilder};
use std::path::{Path, PathBuf};
use traffic_gen::{SaturateSource, SourceKind, TrafficClass};

/// The seed at which every workload runs its committed inputs unchanged
/// and its digests must equal the goldens.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Warm-up cycles before a measured window (the suite's full window).
pub(crate) const WARMUP_CYCLES: u64 = 20_000;

/// Measured cycles of a `dma-sweep` pass.
pub(crate) const DMA_CYCLES: u64 = 1_000_000;

/// Message length and bus `max_burst` of the DMA masters.
const DMA_WORDS: u32 = 64;

/// The seed `run_suite` hands `table1`.
const TABLE1_SEED: u64 = 17;

/// The library scenarios with an SLA the analytic model can scan, in
/// the order `design-search` runs them.
const SEARCH_SCENARIOS: [&str; 12] = [
    "arbiter-handoff-tdma",
    "atm-burst",
    "baseline-fairness",
    "bridge-congestion",
    "degraded-mode",
    "grant-glitches",
    "lottery-no-starvation",
    "mixed-criticality",
    "multi-tenant-isolation",
    "priority-starvation",
    "search-tuned",
    "token-fairness",
];

/// The 14 experiments of `run_suite`, by their telemetry labels, in call
/// order.
pub(crate) const SUITE_EXPERIMENTS: [&str; 14] = [
    "fig4",
    "fig4_timeseries",
    "fig5",
    "fig6a",
    "fig6b",
    "fig12a",
    "fig12b",
    "fig12c",
    "table1",
    "hw_table",
    "starvation",
    "sweeps",
    "energy",
    "ablations",
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The frozen `.scenario` library as one dependency plan.
    ScenarioLibrary,
    /// The paper reproduction's 14 experiment calls.
    PaperSuite,
    /// One 24-lane fleet of saturating DMA masters.
    DmaSweep,
    /// The `search` command on the 12 scannable library scenarios.
    DesignSearch,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ScenarioLibrary,
        Workload::PaperSuite,
        Workload::DmaSweep,
        Workload::DesignSearch,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScenarioLibrary => "scenario-library",
            Workload::PaperSuite => "paper-suite",
            Workload::DmaSweep => "dma-sweep",
            Workload::DesignSearch => "design-search",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The engine a user of this surface runs by default.
    pub fn default_engine(self) -> Engine {
        match self {
            Workload::DmaSweep => Engine::Fleet,
            _ => Engine::Kernel(Kernel::default()),
        }
    }

    /// Every engine this workload's inputs can run under: each kernel
    /// name `Kernel::parse` accepts, plus the fleet path where the
    /// surface has a switch for it. The suite packs its sweeps into
    /// fleets under the cycle kernel and `search` confirms through one,
    /// so neither has a separate fleet path.
    pub fn engines(self) -> Vec<Engine> {
        let kernels = ["cycle", "fast", "tlm"].into_iter().filter_map(Kernel::parse);
        let mut engines: Vec<Engine> = kernels.map(Engine::Kernel).collect();
        if matches!(self, Workload::ScenarioLibrary | Workload::DmaSweep) {
            engines.push(Engine::Fleet);
        }
        engines
    }
}

/// How a pass executes the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Scalar `System`s under one kernel.
    Kernel(Kernel),
    /// Lanes of one lockstep `Fleet`.
    Fleet,
}

impl Engine {
    /// `cycle`, `fast`, `tlm` or `fleet`.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Kernel(k) => k.name(),
            Engine::Fleet => "fleet",
        }
    }

    /// Whether this engine must reproduce the reference byte for byte.
    /// The TLM kernel approximates contended memoryless traffic by
    /// design, so a differing digest there is a finding, not a failure.
    pub fn must_be_exact(self) -> bool {
        self != Engine::Kernel(Kernel::Tlm)
    }
}

/// A workload's inputs, built from the seed.
#[derive(Debug)]
pub enum Inputs {
    /// Parsed, reseeded library scenarios.
    Library(Vec<Scenario>),
    /// Suite settings plus table1's seed.
    Suite {
        /// Window, seed and kernel of every experiment.
        settings: RunSettings,
        /// The ATM switch table's seed.
        table1_seed: u64,
    },
    /// The fleet's lanes.
    Dma(Vec<Lane>),
    /// Reseeded scenario files for the `search` command.
    Search(Vec<PathBuf>),
}

/// One DMA lane: a protocol, a permutation of the 1:2:3:4 weights, and
/// the lottery seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    /// One of `experiments::hotpath::HOT_PROTOCOLS`.
    pub protocol: &'static str,
    /// Per-master weights (priorities, tickets, quanta or slot shares).
    pub weights: [u32; 4],
    /// Lottery seed.
    pub seed: u64,
}

/// splitmix64: one step of a well-mixed 64-bit sequence.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// XORed into every seed a workload carries. Zero at [`DEFAULT_SEED`],
/// so the default seed runs the committed inputs exactly as the
/// repository's own commands do, and its digests can be checked against
/// their output.
pub(crate) fn seed_offset(seed: u64) -> u64 {
    splitmix64(seed) ^ splitmix64(DEFAULT_SEED)
}

/// The directory holding the frozen scenario library and the goldens.
fn workloads_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads")
}

/// The committed digest of `w` at [`DEFAULT_SEED`].
pub fn golden(w: Workload) -> Option<u64> {
    let doc = crate::json::parse(include_str!("../workloads/golden.json")).ok()?;
    let hex = crate::json::get(&doc, w.name()).and_then(crate::json::as_str)?;
    u64::from_str_radix(hex, 16).ok()
}

/// Builds `w`'s inputs from `seed`: reads and parses what the workload
/// reads, derives every seed it carries, and writes the files the
/// `search` command is given.
pub fn setup(w: Workload, seed: u64) -> Result<Inputs, String> {
    let offset = seed_offset(seed);
    Ok(match w {
        Workload::ScenarioLibrary => Inputs::Library(load_library(offset)?),
        Workload::PaperSuite => {
            let base = RunSettings::new().with_jobs(1);
            Inputs::Suite {
                settings: RunSettings { seed: base.seed ^ offset, ..base },
                table1_seed: TABLE1_SEED ^ offset,
            }
        }
        Workload::DmaSweep => Inputs::Dma(dma_lanes(offset)),
        Workload::DesignSearch => Inputs::Search(search_inputs(seed, offset)?),
    })
}

fn read_scenario(path: &Path, offset: u64) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let mut sc = Scenario::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    sc.seed ^= offset;
    Ok(sc)
}

fn load_library(offset: u64) -> Result<Vec<Scenario>, String> {
    let dir = workloads_dir().join("scenarios").display().to_string();
    let files = lotterybus_cli::scenario_cmd::collect_scenario_files(&[dir])?;
    files.iter().map(|f| read_scenario(f, offset)).collect()
}

/// Renders the reseeded search scenarios into a directory next to the
/// benchmark binary (inside the build directory) and returns their paths.
fn search_inputs(seed: u64, offset: u64) -> Result<Vec<PathBuf>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the binary has no parent directory")?
        .join("lbbench-inputs")
        .join(digest::hex(seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    let library = workloads_dir().join("scenarios");
    SEARCH_SCENARIOS
        .iter()
        .map(|name| {
            let sc = read_scenario(&library.join(format!("{name}.scenario")), offset)?;
            let path = dir.join(format!("{name}.scenario"));
            std::fs::write(&path, sc.render())
                .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// The 24 DMA lanes: each `HOT_PROTOCOLS` entry under the four rotations
/// of the paper's 1:2:3:4 weights.
pub(crate) fn dma_lanes(offset: u64) -> Vec<Lane> {
    let base = DEFAULT_SEED ^ offset;
    let mut lanes = Vec::with_capacity(24);
    for protocol in experiments::hotpath::HOT_PROTOCOLS {
        for rotation in 0..4 {
            let mut weights = [1, 2, 3, 4];
            weights.rotate_left(rotation);
            let seed = base.wrapping_add(lanes.len() as u64 * 0x9E37_79B9);
            lanes.push(Lane { protocol, weights, seed });
        }
    }
    lanes
}

/// The lane's arbiter. Mirrors `experiments::hotpath::hot_arbiter`
/// (which fixes the weights at 1:2:3:4) with the lane's permutation.
fn lane_arbiter(lane: &Lane) -> ArbiterKind {
    let w = lane.weights;
    let seed = lane.seed as u32 | 1;
    let tickets = || TicketAssignment::new(w.to_vec()).expect("1:2:3:4 tickets are valid");
    match lane.protocol {
        "static-priority" => StaticPriorityArbiter::new(w.to_vec()).expect("valid").into(),
        "round-robin" => RoundRobinArbiter::new(w.len()).expect("valid").into(),
        "deficit-rr" => DeficitRoundRobinArbiter::new(&w, 8).expect("valid").into(),
        "tdma" => {
            let slots: Vec<u32> = w.iter().map(|x| x * 6).collect();
            TdmaArbiter::new(&slots, WheelLayout::Contiguous).expect("valid").into()
        }
        "lottery-static" => StaticLotteryArbiter::with_seed(tickets(), seed).expect("valid").into(),
        "lottery-dynamic" => {
            DynamicLotteryArbiter::with_seed(tickets(), seed).expect("valid").into()
        }
        other => panic!("unknown DMA protocol {other:?}"),
    }
}

fn dma_bus() -> BusConfig {
    BusConfig { max_burst: DMA_WORDS, ..BusConfig::default() }
}

fn dma_source() -> SourceKind {
    SourceKind::from(SaturateSource::new(0, DMA_WORDS))
}

/// The lane as a fleet lane: four saturating 64-word masters.
pub(crate) fn lane_builder(lane: &Lane) -> LaneBuilder<ArbiterKind, SourceKind> {
    let mut builder = LaneBuilder::new(dma_bus());
    for i in 0..lane.weights.len() {
        builder = builder.master(format!("C{}", i + 1), dma_source());
    }
    builder.arbiter(lane_arbiter(lane))
}

/// The lane as a standalone `System` under `kernel`.
pub(crate) fn lane_system(lane: &Lane, kernel: Kernel) -> socsim::System<ArbiterKind, SourceKind> {
    let mut builder = SystemBuilder::new(dma_bus()).kernel(kernel);
    for i in 0..lane.weights.len() {
        builder = builder.master(format!("C{}", i + 1), dma_source());
    }
    builder.arbiter(lane_arbiter(lane)).build().expect("DMA lane is a valid system")
}

/// Runs one pass of `inputs` under `engine` and returns its digest.
///
/// # Panics
///
/// Panics when the program reports an error, or the workload's own
/// invariant breaks (a DMA lane below 95% utilization).
pub fn pass(inputs: &Inputs, engine: Engine, tr: &mut Tracer) -> u64 {
    match inputs {
        Inputs::Library(lib) => library_pass(lib, engine, tr),
        Inputs::Suite { settings, table1_seed } => suite_pass(settings, *table1_seed, engine, tr),
        Inputs::Dma(lanes) => dma_pass(lanes, engine, tr),
        Inputs::Search(paths) => {
            let Engine::Kernel(kernel) = engine else { panic!("`search` has no fleet switch") };
            let extra: &[&str] =
                if kernel == Kernel::default() { &[] } else { &["--kernel", kernel.name()] };
            search_digest(&search_calls(paths, extra, tr))
        }
    }
}

fn library_pass(lib: &[Scenario], engine: Engine, tr: &mut Tracer) -> u64 {
    let report = match engine {
        Engine::Kernel(k) => tr.span("scenario::run_plan", || scenario::run_plan(lib, k, 1)),
        Engine::Fleet => tr.span("scenario::run_plan_fleet", || scenario::run_plan_fleet(lib)),
    }
    .unwrap_or_else(|e| panic!("scenario plan failed: {e}"));
    let doc = tr.span("scenario::PlanReport::to_json", || report.to_json());
    let text = tr.span("experiments::Json::render", || doc.render() + "\n");
    digest::of_bytes(text.as_bytes())
}

/// The suite pass: exactly the calls and the document of
/// `experiments::suite::run_suite`, one span per experiment, so its
/// digest at the default seed equals that of `suite --jobs 1`'s output.
fn suite_pass(settings: &RunSettings, table1_seed: u64, engine: Engine, tr: &mut Tracer) -> u64 {
    use experiments::{ablations, energy, fig12, fig4, fig5, fig6, hw_table, starvation, sweeps};
    let Engine::Kernel(kernel) = engine else { panic!("the suite has no fleet switch") };
    let s = settings.with_kernel(kernel);
    let fig4 = tr.span("experiments::fig4", || fig4::run(&s));
    let fig4_ts = tr.span("experiments::fig4_timeseries", || fig4::run_timeseries(&s));
    let fig5 = tr.span("experiments::fig5", || fig5::run_kernel(s.jobs, s.kernel));
    let fig6a = tr.span("experiments::fig6a", || fig6::run_bandwidth(&s));
    let fig6b = tr.span("experiments::fig6b", || fig6::run_latency(TrafficClass::T6, &s));
    let fig12a = tr.span("experiments::fig12a", || fig12::run_bandwidth(&s));
    let fig12b = tr.span("experiments::fig12b", || fig12::run_tdma_latency(&s));
    let fig12c = tr.span("experiments::fig12c", || fig12::run_lottery_latency(&s));
    let table1 = tr
        .span("experiments::table1", || {
            experiments::table1::run_jobs(s.measure, table1_seed, s.jobs)
        })
        .unwrap_or_else(|e| panic!("table1 failed: {e}"));
    let hw_table = tr.span("experiments::hw_table", hw_table::run);
    let starvation = tr.span("experiments::starvation", || starvation::run(&s));
    let sweeps = tr.span("experiments::sweeps", || sweeps::run(&s));
    let energy = tr.span("experiments::energy", || energy::run(&s));
    let ablations = tr.span("experiments::ablations", || ablations::run(&s));
    let text = tr.span("experiments::Json::render", || {
        let meta = Json::obj()
            .field("seed", s.seed)
            .field("warmup", s.warmup)
            .field("measure", s.measure)
            .field("quick", false);
        let doc = Json::obj()
            .field("meta", meta)
            .field("fig4", fig4.to_json())
            .field("fig4_timeseries", fig4_ts.to_json())
            .field("fig5", fig5.to_json())
            .field("fig6a", fig6a.to_json())
            .field("fig6b", fig6b.to_json())
            .field("fig12a", fig12a.to_json())
            .field("fig12b", fig12b.to_json())
            .field("fig12c", fig12c.to_json())
            .field("table1", table1.to_json())
            .field("hw_table", hw_table.to_json())
            .field("starvation", starvation.to_json())
            .field("sweeps", sweeps.to_json())
            .field("energy", energy.to_json())
            .field("ablations", ablations.to_json());
        doc.render() + "\n"
    });
    digest::of_bytes(text.as_bytes())
}

fn dma_pass(lanes: &[Lane], engine: Engine, tr: &mut Tracer) -> u64 {
    match engine {
        Engine::Fleet => {
            let builders = tr.span("arbiters::lanes", || lanes.iter().map(lane_builder).collect());
            let mut fleet = tr
                .span("socsim::Fleet::build", || Fleet::build(builders))
                .expect("DMA lanes are a valid fleet");
            tr.span("socsim::Fleet::warm_up", || fleet.warm_up(WARMUP_CYCLES));
            tr.span("socsim::Fleet::run", || fleet.run(DMA_CYCLES));
            stats_digest((0..fleet.len()).map(|i| fleet.stats(i)))
        }
        Engine::Kernel(kernel) => {
            let mut systems: Vec<_> = tr.span("socsim::SystemBuilder::build", || {
                lanes.iter().map(|lane| lane_system(lane, kernel)).collect()
            });
            tr.span("socsim::System::run", || {
                for system in &mut systems {
                    system.warm_up(WARMUP_CYCLES);
                    system.run(DMA_CYCLES);
                }
            });
            stats_digest(systems.iter().map(|s| s.stats()))
        }
    }
}

/// Digest of every lane's public statistics, checking each lane stays
/// saturated.
fn stats_digest<'a>(lanes: impl Iterator<Item = &'a BusStats>) -> u64 {
    let mut h = Fnv64::default();
    for (lane, stats) in lanes.enumerate() {
        let utilization = stats.bus_utilization();
        assert!(utilization > 0.95, "DMA lane {lane} is not saturated: utilization {utilization}");
        for v in [
            stats.cycles,
            stats.busy_cycles,
            stats.stall_cycles,
            stats.grants,
            stats.slave_errors,
            stats.dropped_grants,
            stats.corrupted_grants,
            stats.retries,
            stats.timeouts,
            stats.aborted_transactions,
            stats.failovers,
            stats.contended_arbitrations,
        ] {
            h.u64(v);
        }
        for (i, m) in stats.masters().iter().enumerate() {
            h.u64(stats.bandwidth_fraction(MasterId::new(i)).to_bits());
            for v in [
                m.words,
                m.transactions,
                m.completed_words,
                m.total_latency,
                m.total_wait,
                m.max_latency,
                m.grants,
                m.slave_errors,
                m.retries,
                m.timeouts,
                m.aborted,
                m.latency_histogram.count(),
            ] {
                h.u64(v);
            }
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                h.u64(m.latency_quantile(q).unwrap_or(u64::MAX));
            }
        }
    }
    h.finish()
}

/// One `search` call's result.
pub(crate) type SearchResult = Result<(String, bool), CommandError>;

/// Runs `lotterybus-sim search <path> <extra…>` on every path, one span
/// per call.
pub(crate) fn search_calls(
    paths: &[PathBuf],
    extra: &[&str],
    tr: &mut Tracer,
) -> Vec<SearchResult> {
    paths
        .iter()
        .map(|path| {
            let mut args = vec![path.display().to_string()];
            args.extend(extra.iter().map(|s| (*s).to_owned()));
            tr.span("lotterybus-cli::run_search_command", || {
                lotterybus_cli::search_cmd::run_search_command(&args)
            })
        })
        .collect()
}

/// Digest of every call's outcome: its stdout and success flag, or its
/// error kind and message (priority-starvation's error is expected).
pub(crate) fn search_digest(results: &[SearchResult]) -> u64 {
    let mut h = Fnv64::default();
    for result in results {
        match result {
            Ok((stdout, ok)) => {
                h.str("ok");
                h.u64(u64::from(*ok));
                h.str(stdout);
            }
            Err(e) => {
                h.str(match e {
                    CommandError::Usage(_) => "usage",
                    CommandError::Failure(_) => "failure",
                });
                h.str(e.message());
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_default_seed_keeps_inputs() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(golden(w).is_some(), "{} has a golden digest", w.name());
        }
        assert_eq!(seed_offset(DEFAULT_SEED), 0);
        assert_ne!(seed_offset(1), 0);
    }

    #[test]
    fn dma_lanes_cover_every_protocol_and_rotation() {
        let lanes = dma_lanes(0);
        assert_eq!(lanes.len(), 24);
        for p in experiments::hotpath::HOT_PROTOCOLS {
            let rotations: Vec<_> =
                lanes.iter().filter(|l| l.protocol == p).map(|l| l.weights).collect();
            assert_eq!(rotations, [[1, 2, 3, 4], [2, 3, 4, 1], [3, 4, 1, 2], [4, 1, 2, 3]]);
        }
        assert_eq!(lanes[0].seed, DEFAULT_SEED);
    }

    #[test]
    fn engines_follow_the_kernel_names() {
        let names = |w: Workload| w.engines().iter().map(|e| e.name()).collect::<Vec<_>>();
        assert_eq!(names(Workload::ScenarioLibrary), ["cycle", "fast", "tlm", "fleet"]);
        assert_eq!(names(Workload::PaperSuite), ["cycle", "fast", "tlm"]);
        assert_eq!(Workload::DmaSweep.default_engine(), Engine::Fleet);
        assert!(!Engine::Kernel(Kernel::Tlm).must_be_exact());
    }
}
