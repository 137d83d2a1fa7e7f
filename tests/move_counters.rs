//! The execution-move counters of `System` and `Fleet`, on the paper's
//! saturating memoryless workload (`saturating_specs(4)`, the traffic of
//! Figures 4 and 6(a)).
//!
//! Each run is paired with a control whose sources hide their horizon
//! (they keep the trait's every-cycle default, so they are polled every
//! cycle and never let a busy cycle batch). The pair must agree on every
//! statistic — the drawn-ahead Bernoulli schedule is exact — while the
//! counters show where the work went: far fewer polls, and most busy
//! cycles covered by batched moves instead of per-cycle steps. A fleet
//! runs a due Bernoulli poll inside its batch, so a hit no longer costs
//! a step; only one-cycle windows do.
//!
//! Saturate lanes with one fault class each (master stalls, watchdog,
//! grant drops, slave errors) match their scalar per-cycle twin, fault
//! log included, and batch every tenure cycle that no fault acts in.
//! An idle lane whose master waits out a retry backoff skips to the
//! backoff's end or its next stall draw instead of stepping the wait.
//!
//! Figure 12's TDMA lanes walk their wheel with the pending set held
//! fixed and match their scalar per-cycle twin, metrics samples and
//! port queues included; the busy T4 lane almost never arbitrates one
//! cycle at a time.

use lotterybus_repro::arbiters::{ArbiterKind, RoundRobinArbiter, TdmaArbiter, WheelLayout};
use lotterybus_repro::experiments::common::protocol_arbiter;
use lotterybus_repro::experiments::fig12::WEIGHTS;
use lotterybus_repro::experiments::fig6::TDMA_BLOCK;
use lotterybus_repro::socsim::fleet::{Fleet, LaneBuilder};
use lotterybus_repro::socsim::{
    BusConfig, BusStats, Cycle, FaultConfig, FaultEvent, FaultKind, MasterId, MasterPort,
    MoveCounters, RetryPolicy, SystemBuilder, TrafficSource, Transaction, WindowSample,
};
use lotterybus_repro::traffic::classes::saturating_specs;
use lotterybus_repro::traffic::{
    GeneratorSpec, SaturateSource, SizeDist, SourceKind, TrafficClass,
};

const WARMUP: u64 = 2_000;
const MEASURE: u64 = 20_000;
const SEED: u64 = 0x5A7;

/// Moves per lane of `fleet_run(false)` under the previous batch rule,
/// where a due Bernoulli poll ended the batch and cost a step (8,211 to
/// 8,305 on the five lanes, 18.5% of cycles stepped).
const MOVES_WHEN_POLLS_ENDED_BATCHES: u64 = 8_211;

/// Forwards polls but keeps the default horizon (`next_event == now`).
struct Pinned(Box<dyn TrafficSource>);

impl TrafficSource for Pinned {
    fn poll(&mut self, now: Cycle) -> Option<Transaction> {
        self.0.poll(now)
    }
}

fn sources(pinned: bool) -> Vec<Box<dyn TrafficSource>> {
    saturating_specs(4)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let source = spec.build_source(SEED + i as u64);
            if pinned {
                Box::new(Pinned(source)) as Box<dyn TrafficSource>
            } else {
                source
            }
        })
        .collect()
}

fn system_run(protocol: usize, pinned: bool) -> (BusStats, MoveCounters) {
    let mut builder = SystemBuilder::new(BusConfig::default());
    for (i, source) in sources(pinned).into_iter().enumerate() {
        builder = builder.master(format!("C{}", i + 1), source);
    }
    let mut system = builder.arbiter(protocol_arbiter(protocol, SEED)).build().expect("valid");
    system.warm_up(WARMUP);
    system.run(MEASURE);
    (system.stats().clone(), *system.moves())
}

fn fleet_run(pinned: bool) -> Vec<(BusStats, MoveCounters)> {
    let lanes = (0..5)
        .map(|protocol| {
            let mut lane: LaneBuilder<ArbiterKind> = LaneBuilder::new(BusConfig::default());
            for (i, source) in sources(pinned).into_iter().enumerate() {
                lane = lane.master(format!("C{}", i + 1), source);
            }
            lane.arbiter(protocol_arbiter(protocol, SEED))
        })
        .collect();
    let mut fleet = Fleet::build(lanes).expect("valid fleet");
    fleet.warm_up(WARMUP);
    fleet.run(MEASURE);
    (0..fleet.len()).map(|lane| (fleet.stats(lane).clone(), *fleet.moves(lane))).collect()
}

#[test]
fn system_polls_bernoulli_sources_only_at_their_horizons() {
    for protocol in 0..5 {
        let (stats, moves) = system_run(protocol, false);
        let (control_stats, control) = system_run(protocol, true);
        assert_eq!(stats, control_stats, "protocol {protocol}: statistics differ");
        for counters in [moves, control] {
            assert_eq!(counters.cycles(), WARMUP + MEASURE, "every cycle counted once");
            assert_eq!(counters.stepped, counters.cycles(), "the cycle kernel only steps");
            assert_eq!(counters.moves, counters.cycles());
        }
        assert_eq!(control.polls_per_cycle(), 4.0, "pinned sources poll every cycle");
        assert!(
            moves.polls_per_cycle() < 0.5,
            "protocol {protocol}: {:.3} polls per cycle",
            moves.polls_per_cycle()
        );
    }
}

#[test]
fn fleet_batches_most_busy_cycles_of_bernoulli_lanes() {
    let lanes = fleet_run(false);
    let control = fleet_run(true);
    for (lane, ((stats, moves), (control_stats, control_moves))) in
        lanes.iter().zip(&control).enumerate()
    {
        assert_eq!(stats, control_stats, "lane {lane}: statistics differ");
        assert_eq!(moves.cycles(), WARMUP + MEASURE, "lane {lane}: every cycle counted once");
        assert_eq!(control_moves.stepped_share(), 1.0, "lane {lane}: pinned lanes only step");
        assert!(moves.stepped_share() < 0.10, "lane {lane}: {moves:?}");
        assert!(moves.moves < MOVES_WHEN_POLLS_ENDED_BATCHES, "lane {lane}: {moves:?}");
        assert!(moves.cycles_per_move() > 2.0, "lane {lane}: {moves:?}");
        assert!(moves.polls_per_cycle() < 0.5, "lane {lane}: {moves:?}");
    }
}

/// One saturate lane of `protocol` (four masters issuing 16-word
/// messages back to back) run as a one-lane fleet, with an optional
/// metrics window, and its solo scalar twin's statistics.
fn saturate_lane_run(protocol: usize, window: Option<u64>) -> (BusStats, MoveCounters, BusStats) {
    let sources = || (0..4).map(|_| SourceKind::from(SaturateSource::new(0, 16)));
    let mut lane: LaneBuilder<ArbiterKind, SourceKind> = LaneBuilder::new(BusConfig::default());
    let mut solo = SystemBuilder::new(BusConfig::default());
    for (i, (a, b)) in sources().zip(sources()).enumerate() {
        lane = lane.master(format!("C{}", i + 1), a);
        solo = solo.master(format!("C{}", i + 1), b);
    }
    if let Some(window) = window {
        lane = lane.metrics_window(window);
        solo = solo.metrics_window(window);
    }
    let mut fleet =
        Fleet::build(vec![lane.arbiter(protocol_arbiter(protocol, SEED))]).expect("valid fleet");
    let mut solo = solo.arbiter(protocol_arbiter(protocol, SEED)).build().expect("valid");
    fleet.warm_up(WARMUP);
    fleet.run(MEASURE);
    solo.warm_up(WARMUP);
    solo.run(MEASURE);
    (fleet.stats(0).clone(), *fleet.moves(0), solo.stats().clone())
}

#[test]
fn fleet_fuses_back_to_back_saturate_tenures() {
    // Saturating sources refill their port the cycle its last message
    // completes; the fused loop runs that poll at the tenure boundary
    // and arbitrates on, so a lane makes at most one move per tenure.
    for protocol in 0..5 {
        let (stats, moves, solo) = saturate_lane_run(protocol, None);
        assert_eq!(stats, solo, "protocol {protocol}: statistics differ");
        assert_eq!(moves.cycles(), WARMUP + MEASURE, "protocol {protocol}: {moves:?}");
        assert!(stats.grants > 1_000, "protocol {protocol}: {} grants", stats.grants);
        assert!(moves.moves <= stats.grants, "protocol {protocol}: {moves:?}");
        let batched = moves.fused + moves.wheel_batched;
        assert!(batched as f64 > 0.99 * moves.cycles() as f64, "protocol {protocol}: {moves:?}");
    }
}

/// Moves per saturate lane with a 512-cycle metrics window: one per
/// window, as each batch move ends at the next window boundary (and
/// every 1,024-cycle chunk boundary is one): 4 in the 2,000-cycle
/// warm-up, whose last window the statistics reset cuts short, and 40
/// in the 20,000 measured cycles (39 full windows and a 32-cycle tail).
/// Without metrics a lane makes one move per chunk, 22 in all.
const MOVES_WITH_512_CYCLE_WINDOWS: u64 = 44;

#[test]
fn metrics_lanes_batch_saturate_tenures_up_to_each_window_boundary() {
    // The statistics stay those of the metrics-free run and of the
    // scalar per-cycle kernel; only the moves split at window
    // boundaries.
    for protocol in 0..5 {
        let (plain, plain_moves, _) = saturate_lane_run(protocol, None);
        let (stats, moves, solo) = saturate_lane_run(protocol, Some(512));
        assert_eq!(stats, plain, "protocol {protocol}: metrics changed the statistics");
        assert_eq!(stats, solo, "protocol {protocol}: statistics differ from the scalar run");
        assert_eq!(moves.cycles(), WARMUP + MEASURE, "protocol {protocol}: {moves:?}");
        assert!(moves.stepped_share() <= 0.01, "protocol {protocol}: {moves:?}");
        assert_eq!(plain_moves.moves, 22, "protocol {protocol}: {plain_moves:?}");
        assert_eq!(moves.moves, MOVES_WITH_512_CYCLE_WINDOWS, "protocol {protocol}: {moves:?}");
        let batched = moves.fused + moves.wheel_batched;
        assert!(batched as f64 > 0.99 * moves.cycles() as f64, "protocol {protocol}: {moves:?}");
    }
}

/// A fault class that acts on a saturate lane while some master owns
/// the bus, or at the grant that starts its tenure.
#[derive(Debug, Clone, Copy)]
enum FaultClass {
    MasterStall,
    Watchdog,
    GrantDrop,
    SlaveError,
}

/// A run's statistics and fault log.
type FaultRun = (BusStats, Vec<FaultEvent>);

/// The lottery saturate lane of [`saturate_lane_run`] with one fault
/// class, run as a one-lane fleet: its statistics, fault log and moves,
/// and its solo scalar per-cycle twin's statistics and fault log.
fn fault_lane_run(class: FaultClass) -> (FaultRun, MoveCounters, FaultRun) {
    let sources = || (0..4).map(|_| SourceKind::from(SaturateSource::new(0, 16)));
    let mut lane: LaneBuilder<ArbiterKind, SourceKind> = LaneBuilder::new(BusConfig::default());
    let mut solo = SystemBuilder::new(BusConfig::default());
    for (i, (a, b)) in sources().zip(sources()).enumerate() {
        lane = lane.master(format!("C{}", i + 1), a);
        solo = solo.master(format!("C{}", i + 1), b);
    }
    let plan = FaultConfig::with_seed(SEED);
    let (lane, solo) = match class {
        FaultClass::MasterStall => {
            let plan = FaultConfig { master_stall_rate: 0.01, master_stall_max: 24, ..plan };
            (lane.faults(plan), solo.faults(plan))
        }
        FaultClass::Watchdog => (lane.timeout(40), solo.timeout(40)),
        FaultClass::GrantDrop => {
            let plan = FaultConfig { grant_drop_rate: 0.02, ..plan };
            (lane.faults(plan), solo.faults(plan))
        }
        FaultClass::SlaveError => {
            let plan = FaultConfig { slave_error_rate: 0.02, ..plan };
            let retry = RetryPolicy::exponential(3, 4);
            (lane.faults(plan).retry_policy(retry), solo.faults(plan).retry_policy(retry))
        }
    };
    let mut fleet = Fleet::build(vec![lane.arbiter(protocol_arbiter(4, SEED))]).expect("valid");
    let mut solo = solo.arbiter(protocol_arbiter(4, SEED)).build().expect("valid");
    fleet.warm_up(WARMUP);
    fleet.run(MEASURE);
    solo.warm_up(WARMUP);
    solo.run(MEASURE);
    (
        (fleet.stats(0).clone(), fleet.fault_events(0).to_vec()),
        *fleet.moves(0),
        (solo.stats().clone(), solo.fault_events().to_vec()),
    )
}

/// Stepped and tenure-batched cycles of each [`fault_lane_run`] lane, of
/// `WARMUP + MEASURE` = 22,000. Every arbitration steps (about 1,375
/// grants of 16 words); a stall draw or a watchdog deadline inside a
/// tenure ends its batch, and the cycle it acts in steps too. Before
/// fault lanes batched, all 22,000 cycles stepped.
const FAULT_LANE_MOVES: [(FaultClass, u64, u64); 4] = [
    (FaultClass::MasterStall, 2_004, 19_996),
    (FaultClass::Watchdog, 2_569, 19_431),
    (FaultClass::GrantDrop, 1_392, 20_608),
    (FaultClass::SlaveError, 1_408, 20_592),
];

#[test]
fn fault_lanes_batch_tenures_between_fault_draws() {
    for (class, stepped, batched) in FAULT_LANE_MOVES {
        let (run, moves, solo) = fault_lane_run(class);
        assert_eq!(run, solo, "{class:?}: diverged from the scalar per-cycle run");
        assert!(!run.1.is_empty(), "{class:?}: no fault fired");
        assert_eq!(moves.cycles(), WARMUP + MEASURE, "{class:?}: {moves:?}");
        assert_eq!(
            (moves.stepped, moves.tenure_batched),
            (stepped, batched),
            "{class:?}: {moves:?}"
        );
    }
}

/// Stepped cycles of [`backoff_lane_run`] without stall draws: the
/// periodic arrivals and the retried attempts, each a few steps.
const BACKOFF_STEPPED_WITHOUT_STALLS: u64 = 393;

/// One master issuing 8 words every 500 cycles to a slave that errs on
/// half its attempts, retried up to 3 times after a backoff of 64
/// cycles and more, with master stalls drawn at `stall_rate`, run for
/// 100,000 cycles as a one-lane fleet: its statistics, fault log and
/// moves, and its scalar per-cycle twin's statistics and fault log.
fn backoff_lane_run(stall_rate: f64) -> (FaultRun, MoveCounters, FaultRun) {
    let source = || GeneratorSpec::periodic(500, 0, SizeDist::fixed(8)).build_kind(SEED);
    let plan = FaultConfig {
        slave_error_rate: 0.5,
        master_stall_rate: stall_rate,
        ..FaultConfig::with_seed(SEED)
    };
    let retry = RetryPolicy::exponential(3, 64);
    let arbiter = || ArbiterKind::from(RoundRobinArbiter::new(1).expect("valid"));
    let lane: LaneBuilder<ArbiterKind, SourceKind> = LaneBuilder::new(BusConfig::default())
        .master("C1", source())
        .faults(plan)
        .retry_policy(retry)
        .arbiter(arbiter());
    let mut solo = SystemBuilder::new(BusConfig::default())
        .master("C1", source())
        .faults(plan)
        .retry_policy(retry)
        .arbiter(arbiter())
        .build()
        .expect("valid");
    let mut fleet = Fleet::build(vec![lane]).expect("valid fleet");
    fleet.run(100_000);
    solo.run(100_000);
    (
        (fleet.stats(0).clone(), fleet.fault_events(0).to_vec()),
        *fleet.moves(0),
        (solo.stats().clone(), solo.fault_events().to_vec()),
    )
}

#[test]
fn idle_lanes_skip_retry_backoffs_up_to_the_next_stall_draw() {
    let (plain, plain_moves, plain_solo) = backoff_lane_run(0.0);
    assert_eq!(plain, plain_solo, "diverged from the scalar per-cycle run");
    assert_eq!(plain_moves.stepped, BACKOFF_STEPPED_WITHOUT_STALLS, "{plain_moves:?}");
    let (run, moves, solo) = backoff_lane_run(0.001);
    assert_eq!(run, solo, "diverged from the scalar per-cycle run, stalls drawn");
    assert!(
        run.1.iter().any(|event| matches!(event.kind, FaultKind::MasterStalled { .. })),
        "no stall fired"
    );
    // Stall draws add a few steps where one fires; before backoffs were
    // skipped, this lane stepped 21,834 of its 100,000 cycles.
    assert!(moves.stepped < 2 * BACKOFF_STEPPED_WITHOUT_STALLS, "{moves:?}");
}

/// What a TDMA lane run is compared on: statistics, the flushed
/// metrics samples, and each port's issued transactions and backlog.
type TdmaRun = (BusStats, Vec<WindowSample>, Vec<(u64, u64)>);

/// The Figure 12(b) lane of `class` (1:2:3:4 weights, 64-slot TDMA
/// blocks, contiguous wheel) with a metrics window of 500 cycles, run
/// as a one-lane fleet, and its solo scalar per-cycle twin.
fn fig12_tdma_lane_run(class: TrafficClass) -> (TdmaRun, MoveCounters, TdmaRun) {
    let specs = class.specs_with_frame(&WEIGHTS, TDMA_BLOCK);
    let slots: Vec<u32> = WEIGHTS.iter().map(|w| w * TDMA_BLOCK).collect();
    let arbiter = || ArbiterKind::from(TdmaArbiter::new(&slots, WheelLayout::Contiguous).unwrap());
    let mut lane: LaneBuilder<ArbiterKind, SourceKind> =
        LaneBuilder::new(BusConfig::default()).metrics_window(500);
    let mut solo = SystemBuilder::new(BusConfig::default()).metrics_window(500);
    for (i, spec) in specs.iter().enumerate() {
        lane = lane.master(format!("C{}", i + 1), spec.build_kind(SEED + i as u64));
        solo = solo.master(format!("C{}", i + 1), spec.build_kind(SEED + i as u64));
    }
    let mut fleet = Fleet::build(vec![lane.arbiter(arbiter())]).expect("valid fleet");
    let mut solo = solo.arbiter(arbiter()).build().expect("valid");
    fleet.warm_up(WARMUP);
    fleet.run(MEASURE);
    fleet.flush_metrics();
    solo.warm_up(WARMUP);
    solo.run(MEASURE);
    solo.flush_metrics();
    let ports = |port: &MasterPort| (port.issued_transactions(), port.backlog_words());
    let ids = || (0..specs.len()).map(MasterId::new);
    let fleet_run = (
        fleet.stats(0).clone(),
        fleet.metrics(0).expect("metrics on").samples().to_vec(),
        ids().map(|id| ports(fleet.master(0, id))).collect(),
    );
    let solo_run = (
        solo.stats().clone(),
        solo.metrics().expect("metrics on").samples().to_vec(),
        ids().map(|id| ports(solo.master(id))).collect(),
    );
    (fleet_run, *fleet.moves(0), solo_run)
}

#[test]
fn tdma_lanes_walk_their_wheel_while_the_pending_set_holds() {
    for class in TrafficClass::latency_set() {
        let (run, moves, solo) = fig12_tdma_lane_run(class);
        assert_eq!(run, solo, "{class}: diverged from the scalar per-cycle run");
        assert_eq!(moves.cycles(), WARMUP + MEASURE, "{class}: {moves:?}");
        assert!(moves.wheel_batched > 0, "{class}: {moves:?}");
    }
    // T4's frame-locked periodic masters keep the bus busy. Every busy
    // cycle grants one slot, so a lane that arbitrated cycle by cycle
    // would make one fused arbitration per busy cycle (all 22,000
    // cycles fused before the walk took partial pending sets).
    let (run, moves, _) = fig12_tdma_lane_run(TrafficClass::T4);
    assert!(run.0.busy_cycles > MEASURE / 2, "{} busy cycles", run.0.busy_cycles);
    assert!(moves.wheel_batched > MEASURE / 2, "{moves:?}");
    assert!((moves.fused as f64) < 0.01 * run.0.busy_cycles as f64, "{moves:?}");
}
