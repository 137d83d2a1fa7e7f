//! Golden fleet snapshot: a pinned heterogeneous lane pack, its
//! per-lane numbers snapshotted under `tests/golden/`.
//!
//! The snapshot pins the fleet kernel's *numbers* — utilization,
//! shares, latencies, completion counts per lane — so any change to the
//! SoA run loop's decision order, skip legality, or batching shows up
//! as a byte diff. The same document is also rendered from solo scalar
//! runs of each lane, so the golden file doubles as a lane-exactness
//! witness in CI.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```console
//! $ REGEN_GOLDEN=1 cargo test --test golden_fleet
//! $ git diff tests/golden/   # review before committing
//! ```

use lotterybus_repro::arbiters::ArbiterKind;
use lotterybus_repro::experiments::hotpath::{hot_arbiter, HOT_MASTERS, HOT_PROTOCOLS, HOT_WORDS};
use lotterybus_repro::experiments::json::Json;
use lotterybus_repro::socsim::{BusConfig, BusStats, Fleet, LaneBuilder, MasterId, SystemBuilder};
use lotterybus_repro::traffic::{GeneratorSpec, SaturateSource, SizeDist, SourceKind};

const GOLDEN_PATH: &str = "tests/golden/fleet_pack.json";
const SEED: u64 = 0x60_1DF1;
const WARMUP: u64 = 500;
const MEASURE: u64 = 8_000;

/// The pinned pack: every lineup protocol, one lane each, alternating
/// between the saturated hot-path workload and a sparse mixed one.
fn pack() -> Vec<(&'static str, Vec<SourceKind>)> {
    HOT_PROTOCOLS
        .iter()
        .enumerate()
        .map(|(i, &protocol)| {
            let sources = if i % 2 == 0 {
                (0..4).map(|_| SourceKind::from(SaturateSource::new(0, 8))).collect()
            } else {
                vec![
                    GeneratorSpec::periodic(40, 7, SizeDist::fixed(8))
                        .build_kind(SEED.wrapping_add(i as u64)),
                    GeneratorSpec::poisson(0.03, SizeDist::fixed(16))
                        .build_kind(SEED.wrapping_add(i as u64 + 100)),
                    SourceKind::from(SaturateSource::new(0, 4)),
                    GeneratorSpec::periodic(90, 31, SizeDist::fixed(12))
                        .build_kind(SEED.wrapping_add(i as u64 + 200)),
                ]
            };
            (protocol, sources)
        })
        .collect()
}

fn arbiter(protocol: &str) -> ArbiterKind {
    hot_arbiter(protocol, SEED)
}

/// One lane's numbers as a JSON object.
fn lane_json(protocol: &str, stats: &BusStats) -> Json {
    let masters = stats.masters().len();
    let shares: Vec<Json> =
        (0..masters).map(|i| stats.bandwidth_fraction(MasterId::new(i)).into()).collect();
    let latencies: Vec<Json> = (0..masters)
        .map(|i| match stats.master(MasterId::new(i)).cycles_per_word() {
            Some(v) => v.into(),
            None => Json::Null,
        })
        .collect();
    let completed: u64 = stats.masters().iter().map(|m| m.transactions).sum();
    Json::obj()
        .field("protocol", protocol)
        .field("utilization", stats.bus_utilization())
        .field("shares", Json::Arr(shares))
        .field("latencies", Json::Arr(latencies))
        .field("completed", completed)
}

fn document(stats: &[(&str, BusStats)]) -> String {
    let lanes: Vec<Json> = stats.iter().map(|(p, s)| lane_json(p, s)).collect();
    Json::obj()
        .field(
            "meta",
            Json::obj().field("seed", SEED).field("warmup", WARMUP).field("measure", MEASURE),
        )
        .field("lanes", Json::Arr(lanes))
        .render()
        + "\n"
}

#[test]
fn golden_fleet_pack_is_stable_and_lane_exact() {
    let lanes = pack()
        .into_iter()
        .map(|(protocol, sources)| {
            let mut lane: LaneBuilder<ArbiterKind, SourceKind> =
                LaneBuilder::new(BusConfig::default());
            for (i, source) in sources.into_iter().enumerate() {
                lane = lane.master(format!("C{}", i + 1), source);
            }
            lane.arbiter(arbiter(protocol))
        })
        .collect();
    let mut fleet = Fleet::build(lanes).expect("golden pack is valid");
    fleet.warm_up(WARMUP);
    fleet.run(MEASURE);
    let fleet_stats: Vec<(&str, BusStats)> =
        HOT_PROTOCOLS.iter().enumerate().map(|(i, &p)| (p, fleet.stats(i).clone())).collect();
    let fleet_doc = document(&fleet_stats);

    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &fleet_doc).expect("write golden snapshot");
        eprintln!("regenerated {GOLDEN_PATH}");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("cannot read {GOLDEN_PATH}: {e}; run with REGEN_GOLDEN=1 to create it")
    });
    assert_eq!(
        fleet_doc, golden,
        "fleet output drifted from the golden snapshot; if the change is \
         intentional, regenerate with REGEN_GOLDEN=1 and review the diff"
    );

    // The same document from solo scalar runs: the snapshot doubles as
    // a lane-exactness witness.
    let scalar_stats: Vec<(&str, BusStats)> = pack()
        .into_iter()
        .map(|(protocol, sources)| {
            let mut builder: SystemBuilder<ArbiterKind, SourceKind> =
                SystemBuilder::new(BusConfig::default());
            for (i, source) in sources.into_iter().enumerate() {
                builder = builder.master(format!("C{}", i + 1), source);
            }
            let mut system =
                builder.arbiter(arbiter(protocol)).build().expect("golden lane is valid");
            system.warm_up(WARMUP);
            system.run(MEASURE);
            (protocol, system.stats().clone())
        })
        .collect();
    assert_eq!(
        document(&scalar_stats),
        golden,
        "solo scalar runs differ from the golden fleet snapshot (lane exactness broken)"
    );
}

/// Packs `protocols` as lanes of saturating `words`-word masters on a
/// bus whose `max_burst` is `words`, and checks the pack against solo
/// runs: every lane lowers into a grouped decision kernel, reproduces
/// its scalar `System` run exactly, and keeps the bus saturated.
/// Returns the pack's kernel count.
fn check_saturated_pack(protocols: &[&str], words: u32) -> usize {
    let bus = BusConfig { max_burst: words, ..BusConfig::default() };
    let lanes = protocols
        .iter()
        .map(|&protocol| {
            let mut lane: LaneBuilder<ArbiterKind, SourceKind> = LaneBuilder::new(bus);
            for i in 0..HOT_MASTERS {
                lane = lane
                    .master(format!("C{}", i + 1), SourceKind::from(SaturateSource::new(0, words)));
            }
            lane.arbiter(arbiter(protocol))
        })
        .collect();
    let mut fleet = Fleet::build(lanes).expect("saturated pack is valid");
    assert_eq!(
        fleet.lowered_lanes(),
        protocols.len(),
        "every lane of {protocols:?} must lower into an SoA decision kernel"
    );
    fleet.warm_up(WARMUP);
    fleet.run(MEASURE);
    for (i, &protocol) in protocols.iter().enumerate() {
        let mut builder: SystemBuilder<ArbiterKind, SourceKind> = SystemBuilder::new(bus);
        for m in 0..HOT_MASTERS {
            builder = builder
                .master(format!("C{}", m + 1), SourceKind::from(SaturateSource::new(0, words)));
        }
        let mut system = builder.arbiter(arbiter(protocol)).build().expect("solo lane is valid");
        system.warm_up(WARMUP);
        system.run(MEASURE);
        let lane = fleet.stats(i);
        assert_eq!(lane, system.stats(), "{words}-word {protocol} lane diverged from its solo run");
        assert!(
            lane.bus_utilization() > 0.95,
            "{words}-word {protocol} lane is not saturated: utilization {}",
            lane.bus_utilization()
        );
    }
    fleet.kernel_count()
}

#[test]
fn saturated_lineups_lower_every_lane_and_match_their_solo_runs() {
    // The short-burst lineup: every protocol, 8-word messages.
    check_saturated_pack(&HOT_PROTOCOLS, HOT_WORDS);
    // DMA-style 64-word tenures on every protocol whose grants can span
    // a multi-cycle tenure, where exact tenure batching does the work.
    check_saturated_pack(
        &["static-priority", "round-robin", "deficit-rr", "lottery-static", "lottery-dynamic"],
        64,
    );
    // Identical TDMA lanes share one timing-wheel kernel.
    assert_eq!(check_saturated_pack(&["tdma"; 5], 64), 1, "identical TDMA lanes share one kernel");
}
