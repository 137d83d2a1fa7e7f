//! Property tests for the SoA lockstep fleet kernel.
//!
//! Random heterogeneous lane packs — protocol (lottery, round-robin,
//! static priority, deficit round-robin, or TDMA with tickets as slot
//! counts in either wheel layout), master count, ticket spread, seeds,
//! and traffic shapes all drawn independently per lane —
//! must be *lane-exact*: every lane's statistics and fault log identical
//! to the same system run solo through the scalar kernel. Lanes may
//! carry a fault plan, a retry policy and a watchdog timeout; they
//! batch their tenures up to the next master-stall draw or watchdog
//! deadline, and step every arbitration. Lanes with a windowed metrics
//! registry batch too, clipped at their window boundaries, and their
//! time-series must equal the scalar per-cycle kernel's. Two structural
//! properties ride along: a one-lane fleet degenerates to the scalar
//! kernel, and lane order is irrelevant (lanes never interact, so
//! packing order is a pure layout choice).

use lotterybus_repro::arbiters::{
    ArbiterKind, DeficitRoundRobinArbiter, RoundRobinArbiter, StaticPriorityArbiter, TdmaArbiter,
    WheelLayout,
};
use lotterybus_repro::lottery::{StaticLotteryArbiter, TicketAssignment};
use lotterybus_repro::socsim::{
    BusConfig, BusStats, FaultConfig, FaultEvent, Fleet, LaneBuilder, MoveCounters, RetryPolicy,
    SystemBuilder, WindowSample,
};
use lotterybus_repro::traffic::{GeneratorSpec, SaturateSource, SizeDist, SourceKind};
use proptest::prelude::*;

const WARMUP: u64 = 200;
const MEASURE: u64 = 3_000;

/// One randomized master's traffic shape.
#[derive(Debug, Clone, Copy)]
enum SourceShape {
    Periodic { period: u64, phase: u64, words: u32 },
    Poisson { rate_millis: u32, words: u32 },
    Saturate { words: u32 },
}

impl SourceShape {
    fn build(self, seed: u64) -> SourceKind {
        match self {
            SourceShape::Periodic { period, phase, words } => {
                GeneratorSpec::periodic(period, phase, SizeDist::fixed(words)).build_kind(seed)
            }
            SourceShape::Poisson { rate_millis, words } => {
                GeneratorSpec::poisson(f64::from(rate_millis) / 1000.0, SizeDist::fixed(words))
                    .build_kind(seed)
            }
            SourceShape::Saturate { words } => SourceKind::from(SaturateSource::new(0, words)),
        }
    }
}

fn source_shape() -> impl Strategy<Value = SourceShape> {
    prop_oneof![
        (10u64..200, 0u64..50, 1u32..24).prop_map(|(period, phase, words)| SourceShape::Periodic {
            period,
            phase,
            words
        }),
        (1u32..200, 1u32..24)
            .prop_map(|(rate_millis, words)| SourceShape::Poisson { rate_millis, words }),
        (1u32..24).prop_map(|words| SourceShape::Saturate { words }),
    ]
}

/// A lane's optional fault machinery: plan, retry policy, watchdog.
#[derive(Debug, Clone, Copy)]
struct FaultRecipe {
    faults: Option<FaultConfig>,
    retry: Option<RetryPolicy>,
    timeout: Option<u64>,
}

fn fault_recipe() -> impl Strategy<Value = FaultRecipe> {
    // Rates in per-mille, low enough that traffic still flows.
    let plan = (0u64..u64::MAX, 0u32..60, 0u32..6, (0u32..30, 0u32..30), (0u32..20, 1u32..=32))
        .prop_map(|(seed, error, outage, (drop, corrupt), (stall, stall_max))| FaultConfig {
            seed,
            slave_error_rate: f64::from(error) / 1000.0,
            slave_outage_rate: f64::from(outage) / 1000.0,
            grant_drop_rate: f64::from(drop) / 1000.0,
            grant_corrupt_rate: f64::from(corrupt) / 1000.0,
            master_stall_rate: f64::from(stall) / 1000.0,
            master_stall_max: stall_max,
            ..FaultConfig::default()
        });
    let retry = (0u32..4, 1u64..8).prop_map(|(max, base)| RetryPolicy::exponential(max, base));
    // Watchdog timeouts from one cycle up, so deadlines land inside
    // tenures as well as between them.
    let timeout = prop_oneof![1u64..40, 40u64..2_000];
    (
        prop_oneof![Just(None), plan.prop_map(Some)],
        prop_oneof![Just(None), retry.prop_map(Some)],
        prop_oneof![Just(None), timeout.prop_map(Some)],
    )
        .prop_map(|(faults, retry, timeout)| FaultRecipe { faults, retry, timeout })
}

/// The protocols a lane draws, by [`LaneRecipe::protocol`] index.
const PROTOCOLS: [&str; 6] = [
    "lottery",
    "round-robin",
    "static-priority",
    "deficit-rr",
    "tdma-contiguous",
    "tdma-interleaved",
];

/// Everything needed to build one lane twice: once into a fleet, once
/// as a solo scalar system. Master count is `tickets.len()`.
#[derive(Debug, Clone)]
struct LaneRecipe {
    /// Index into [`PROTOCOLS`].
    protocol: usize,
    tickets: Vec<u32>,
    seed: u64,
    shapes: Vec<SourceShape>,
    fault: FaultRecipe,
}

/// What a lane run is compared on: statistics and the fault log.
type LaneRun = (BusStats, Vec<FaultEvent>);

impl LaneRecipe {
    fn name(&self) -> &'static str {
        PROTOCOLS[self.protocol]
    }

    /// TDMA grants one word per slot, so its tenures have no cycles
    /// left to batch; the fused loop walks its slots instead.
    fn is_tdma(&self) -> bool {
        self.name().starts_with("tdma")
    }

    fn arbiter(&self) -> ArbiterKind {
        let masters = self.tickets.len();
        match self.name() {
            "lottery" => StaticLotteryArbiter::with_seed(
                TicketAssignment::new(self.tickets.clone()).expect("tickets are nonzero"),
                self.seed as u32 | 1,
            )
            .expect("small LUT fits")
            .into(),
            "round-robin" => RoundRobinArbiter::new(masters).expect("valid").into(),
            // Priorities must be unique; the offset keeps the random
            // ticket spread (< 16) while de-duplicating across masters.
            "static-priority" => {
                let priorities =
                    self.tickets.iter().enumerate().map(|(i, &t)| t + 16 * i as u32).collect();
                StaticPriorityArbiter::new(priorities).expect("valid").into()
            }
            "deficit-rr" => DeficitRoundRobinArbiter::new(&self.tickets, 8).expect("valid").into(),
            "tdma-contiguous" => {
                TdmaArbiter::new(&self.tickets, WheelLayout::Contiguous).expect("valid").into()
            }
            _ => TdmaArbiter::new(&self.tickets, WheelLayout::Interleaved).expect("valid").into(),
        }
    }

    fn master_seed(&self, i: usize) -> u64 {
        self.seed.wrapping_add(i as u64 * 0x9E37_79B9)
    }

    fn lane(&self) -> LaneBuilder<ArbiterKind, SourceKind> {
        let mut lane: LaneBuilder<ArbiterKind, SourceKind> = LaneBuilder::new(BusConfig::default());
        for (i, shape) in self.shapes.iter().enumerate() {
            lane = lane.master(format!("M{}", i + 1), shape.build(self.master_seed(i)));
        }
        if let Some(faults) = self.fault.faults {
            lane = lane.faults(faults);
        }
        if let Some(retry) = self.fault.retry {
            lane = lane.retry_policy(retry);
        }
        if let Some(timeout) = self.fault.timeout {
            lane = lane.timeout(timeout);
        }
        lane.arbiter(self.arbiter())
    }

    fn solo(&self) -> LaneRun {
        let mut builder: SystemBuilder<ArbiterKind, SourceKind> =
            SystemBuilder::new(BusConfig::default());
        for (i, shape) in self.shapes.iter().enumerate() {
            builder = builder.master(format!("M{}", i + 1), shape.build(self.master_seed(i)));
        }
        if let Some(faults) = self.fault.faults {
            builder = builder.faults(faults);
        }
        if let Some(retry) = self.fault.retry {
            builder = builder.retry_policy(retry);
        }
        if let Some(timeout) = self.fault.timeout {
            builder = builder.timeout(timeout);
        }
        let mut system = builder.arbiter(self.arbiter()).build().expect("valid random system");
        system.warm_up(WARMUP);
        system.run(MEASURE);
        (system.stats().clone(), system.fault_events().to_vec())
    }
}

fn lane_recipe() -> impl Strategy<Value = LaneRecipe> {
    // The vendored proptest has no flat-map: draw tickets and shapes at
    // the maximum width and truncate both to the drawn master count.
    (
        0usize..PROTOCOLS.len(),
        1usize..=4,
        0u64..u64::MAX,
        proptest::collection::vec(1u32..9, 4usize..=4),
        proptest::collection::vec(source_shape(), 4usize..=4),
        fault_recipe(),
    )
        .prop_map(|(protocol, masters, seed, mut tickets, mut shapes, fault)| {
            tickets.truncate(masters);
            shapes.truncate(masters);
            LaneRecipe { protocol, tickets, seed, shapes, fault }
        })
}

/// Metrics windows of the metrics-lane property: shorter than most
/// tenures (1, 2, 7 cycles against bursts of up to 16 words), not a
/// multiple of any burst above 1 (7), and longer than a tenure (64,
/// 512).
const WINDOWS: [u64; 5] = [1, 2, 7, 64, 512];

/// A fault-free lane whose master 0 saturates (so the lane is busy and
/// has tenures to batch), with a metrics window from [`WINDOWS`].
fn metrics_lane_recipe() -> impl Strategy<Value = (LaneRecipe, u64)> {
    (lane_recipe(), 1u32..24, 0usize..WINDOWS.len()).prop_map(|(mut recipe, words, window)| {
        recipe.shapes[0] = SourceShape::Saturate { words };
        recipe.fault = FaultRecipe { faults: None, retry: None, timeout: None };
        (recipe, WINDOWS[window])
    })
}

/// A lane with a fault layer whose master 0 saturates with messages of
/// at least three words, so it has tenures to batch: a tenure's grant
/// cycle steps, and a one-cycle remainder (all a 2-word message leaves)
/// is stepped too, so only longer tenures batch. The other masters do
/// not saturate: against a one-cycle watchdog, waiting saturating
/// masters would time out and refill on alternate cycles and leave no
/// tenure cycle to batch.
fn fault_lane_recipe() -> impl Strategy<Value = LaneRecipe> {
    (lane_recipe(), 3u32..24, fault_recipe(), 1u64..40).prop_map(
        |(mut recipe, words, mut fault, timeout)| {
            recipe.shapes[0] = SourceShape::Saturate { words };
            for shape in &mut recipe.shapes[1..] {
                if let SourceShape::Saturate { words } = *shape {
                    *shape = SourceShape::Periodic { period: 40, phase: 0, words };
                }
            }
            if fault.faults.is_none() && fault.retry.is_none() && fault.timeout.is_none() {
                fault.timeout = Some(timeout);
            }
            recipe.fault = fault;
            recipe
        },
    )
}

/// Statistics, fault log and batched tenure cycles of `recipe`'s lane
/// run as a one-lane fleet.
fn fleet_fault_run(recipe: &LaneRecipe) -> (LaneRun, u64) {
    let mut fleet = Fleet::build(vec![recipe.lane()]).expect("valid lane");
    fleet.warm_up(WARMUP);
    fleet.run(MEASURE);
    let moves = fleet.moves(0);
    assert_eq!(moves.fused + moves.wheel_batched, 0, "fault lanes never fuse: {moves:?}");
    ((fleet.stats(0).clone(), fleet.fault_events(0).to_vec()), moves.tenure_batched)
}

/// Statistics and flushed time-series of `lane` after the warm-up and
/// measured window.
type MetricsRun = (BusStats, Vec<WindowSample>);

fn fleet_metrics_run(lane: LaneBuilder<ArbiterKind, SourceKind>) -> (MetricsRun, MoveCounters) {
    let mut fleet = Fleet::build(vec![lane]).expect("valid lane");
    fleet.warm_up(WARMUP);
    fleet.run(MEASURE);
    fleet.flush_metrics();
    let samples = fleet.metrics(0).expect("metrics on").samples().to_vec();
    ((fleet.stats(0).clone(), samples), *fleet.moves(0))
}

fn scalar_metrics_run(lane: LaneBuilder<ArbiterKind, SourceKind>) -> MetricsRun {
    let mut system = SystemBuilder::from(lane).build().expect("valid lane");
    system.warm_up(WARMUP);
    system.run(MEASURE);
    system.flush_metrics();
    (system.stats().clone(), system.metrics().expect("metrics on").samples().to_vec())
}

fn run_pack(recipes: &[LaneRecipe]) -> Vec<LaneRun> {
    let mut fleet =
        Fleet::build(recipes.iter().map(LaneRecipe::lane).collect()).expect("valid lanes");
    fleet.warm_up(WARMUP);
    fleet.run(MEASURE);
    (0..fleet.len()).map(|i| (fleet.stats(i).clone(), fleet.fault_events(i).to_vec())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Heterogeneous random packs: every lane equals its solo run.
    #[test]
    fn random_lane_packs_are_lane_exact(
        recipes in proptest::collection::vec(lane_recipe(), 2..6),
    ) {
        let packed = run_pack(&recipes);
        for (i, (recipe, lane_run)) in recipes.iter().zip(&packed).enumerate() {
            let solo = recipe.solo();
            prop_assert_eq!(
                lane_run, &solo,
                "lane {} ({:?} {}) diverged from its solo scalar run",
                i, recipe.shapes, recipe.name()
            );
        }
    }

    /// A fleet of one lane IS the scalar kernel, fault machinery
    /// included.
    #[test]
    fn single_lane_fleet_degenerates_to_scalar(recipe in lane_recipe()) {
        let packed = run_pack(std::slice::from_ref(&recipe));
        prop_assert_eq!(&packed[0], &recipe.solo());
    }

    /// A lane with windowed metrics batches, and its one-lane fleet
    /// equals the scalar per-cycle system: statistics and every window
    /// sample. A one-cycle window makes every batch move a step; with a
    /// longer one, a TDMA lane walks its slots.
    #[test]
    fn metrics_lanes_batch_and_match_the_per_cycle_kernel(
        (recipe, window) in metrics_lane_recipe(),
    ) {
        let (fleet_run, moves) = fleet_metrics_run(recipe.lane().metrics_window(window));
        let scalar_run = scalar_metrics_run(recipe.lane().metrics_window(window));
        prop_assert_eq!(
            &fleet_run, &scalar_run,
            "window {} ({:?} {}) diverged from the per-cycle kernel",
            window, recipe.shapes, recipe.name()
        );
        prop_assert!(!scalar_run.1.is_empty());
        let batched = moves.tenure_batched + moves.fused + moves.wheel_batched;
        prop_assert_eq!(batched > 0, window > 1, "window {}: {:?}", window, moves);
        if recipe.is_tdma() {
            prop_assert_eq!(moves.wheel_batched > 0, window > 1, "window {}: {:?}", window, moves);
        }
    }

    /// A fault lane batches its tenures up to the next master-stall
    /// draw or watchdog deadline, and its one-lane fleet equals the
    /// scalar per-cycle system: statistics and fault log. A TDMA lane
    /// is exempt from batching: its one-word tenures end on their grant
    /// cycle, which steps.
    #[test]
    fn fault_lanes_batch_and_match_the_per_cycle_kernel(recipe in fault_lane_recipe()) {
        let (fleet_run, batched) = fleet_fault_run(&recipe);
        prop_assert_eq!(
            &fleet_run, &recipe.solo(),
            "{:?} ({:?} {}) diverged from the per-cycle kernel",
            recipe.fault, recipe.shapes, recipe.name()
        );
        if !recipe.is_tdma() {
            prop_assert!(batched > 0, "{:?}: no tenure cycle batched", recipe.fault);
        }
    }

    /// Lane order is a pure layout choice: shuffling the pack permutes
    /// the outputs and changes nothing else.
    #[test]
    fn lane_order_is_irrelevant(
        recipes in proptest::collection::vec(lane_recipe(), 2..6),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let perm = permutation(recipes.len(), shuffle_seed);
        let in_order = run_pack(&recipes);
        let shuffled_recipes: Vec<LaneRecipe> =
            perm.iter().map(|&i| recipes[i].clone()).collect();
        let shuffled = run_pack(&shuffled_recipes);
        for (j, &i) in perm.iter().enumerate() {
            prop_assert_eq!(
                &shuffled[j], &in_order[i],
                "lane moved from slot {} to slot {} and changed its result", i, j
            );
        }
    }
}

/// Fisher–Yates permutation of `0..n` from a splitmix-stepped seed
/// (the vendored proptest has no shuffle strategy).
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        indices.swap(i, j);
    }
    indices
}
