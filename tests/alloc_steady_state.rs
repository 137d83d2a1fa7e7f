//! Proof of the zero-allocation steady state (PR 5 tentpole).
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! tallies allocations made by *this thread* while a flag is up. Each
//! case builds a saturated four-master system (always-requesting
//! [`SaturateSource`]s — the hot-path probe workload), warms it past
//! every one-time allocation (queue capacity growth, lottery decision
//! cache fills, scratch buffers), then raises the flag across a long
//! measured window and requires **zero** heap allocations.
//!
//! The analytic design-space scan is held to the same standard per
//! point: its allocations must not grow with the ticket grid.
//!
//! The tally is thread-local so the test harness's own threads cannot
//! pollute the count, and the flag is only consulted on allocation (not
//! deallocation), so dropping the system afterwards is free.
//!
//! [`SaturateSource`]: lotterybus_repro::traffic::SaturateSource

use analytic::{Protocol, SearchSpace, SlaTarget, TargetKind, TrafficInput};
use lotterybus_repro::arbiters::ArbiterKind;
use lotterybus_repro::experiments::hotpath::{hot_arbiter, HOT_PROTOCOLS};
use lotterybus_repro::socsim::{BusConfig, Fleet, LaneBuilder, SystemBuilder};
use lotterybus_repro::traffic::{SaturateSource, SizeDist, SourceKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a thread-local allocation tally.
struct CountingAlloc;

// SAFETY: defers entirely to the system allocator; the tally uses
// `try_with` so a call during TLS teardown degrades to "not counted"
// instead of panicking inside the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTING.try_with(|counting| {
            if counting.get() {
                let _ = ALLOCS.try_with(|allocs| allocs.set(allocs.get() + 1));
            }
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = COUNTING.try_with(|counting| {
            if counting.get() {
                let _ = ALLOCS.try_with(|allocs| allocs.set(allocs.get() + 1));
            }
        });
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by a steady-state window of `measure` cycles after
/// `warmup` unmeasured cycles, for the given lineup protocol.
fn steady_state_allocs(protocol: &str, warmup: u64, measure: u64) -> u64 {
    let mut builder = SystemBuilder::new(BusConfig::default());
    for i in 0..4 {
        builder =
            builder.master(format!("C{}", i + 1), SourceKind::from(SaturateSource::new(0, 8)));
    }
    let mut system =
        builder.arbiter(hot_arbiter(protocol, 0xC0FFEE)).build().expect("probe system is valid");
    system.warm_up(warmup);
    ALLOCS.with(|allocs| allocs.set(0));
    COUNTING.with(|counting| counting.set(true));
    system.run(measure);
    COUNTING.with(|counting| counting.set(false));
    let counted = ALLOCS.with(|allocs| allocs.get());
    // The window must have actually exercised the hot path.
    assert!(
        system.stats().bus_utilization() > 0.95,
        "{protocol} probe is not saturated: utilization {}",
        system.stats().bus_utilization()
    );
    counted
}

#[test]
fn counter_sees_allocations_when_they_happen() {
    // Sanity-check the instrument itself: a deliberate allocation under
    // the flag must be counted, or the zero assertions below are
    // vacuous.
    ALLOCS.with(|allocs| allocs.set(0));
    COUNTING.with(|counting| counting.set(true));
    let v: Vec<u64> = Vec::with_capacity(32);
    COUNTING.with(|counting| counting.set(false));
    drop(v);
    assert!(ALLOCS.with(|allocs| allocs.get()) >= 1, "counting allocator missed a Vec");
}

#[test]
fn steady_state_makes_zero_allocations_for_every_lineup_protocol() {
    for protocol in HOT_PROTOCOLS {
        let allocs = steady_state_allocs(protocol, 2_000, 20_000);
        assert_eq!(
            allocs, 0,
            "{protocol}: {allocs} heap allocation(s) in a 20k-cycle steady-state window"
        );
    }
}

#[test]
fn fleet_steady_state_makes_zero_allocations_across_all_lineup_protocols() {
    // The whole lineup packed as one lockstep fleet — one lane per
    // protocol, each saturated. Past warm-up, advancing every lane must
    // be as allocation-free as the scalar kernel; the SoA batching may
    // move no per-cycle work onto the heap.
    let lanes = HOT_PROTOCOLS
        .iter()
        .map(|&protocol| {
            let mut lane: LaneBuilder<ArbiterKind, SourceKind> =
                LaneBuilder::new(BusConfig::default());
            for i in 0..4 {
                lane =
                    lane.master(format!("C{}", i + 1), SourceKind::from(SaturateSource::new(0, 8)));
            }
            lane.arbiter(hot_arbiter(protocol, 0xC0FFEE))
        })
        .collect();
    let mut fleet = Fleet::build(lanes).expect("probe fleet is valid");
    fleet.warm_up(2_000);
    ALLOCS.with(|allocs| allocs.set(0));
    COUNTING.with(|counting| counting.set(true));
    fleet.run(20_000);
    COUNTING.with(|counting| counting.set(false));
    let counted = ALLOCS.with(|allocs| allocs.get());
    for (lane, protocol) in HOT_PROTOCOLS.iter().enumerate() {
        assert!(
            fleet.stats(lane).bus_utilization() > 0.95,
            "{protocol} fleet lane is not saturated: utilization {}",
            fleet.stats(lane).bus_utilization()
        );
    }
    assert_eq!(
        counted,
        0,
        "{counted} heap allocation(s) in a 20k-cycle fleet steady-state window \
         across {} lanes",
        HOT_PROTOCOLS.len()
    );
}

#[test]
fn grouped_arbitration_steady_state_makes_zero_allocations() {
    // Grouped (shared-table) arbitration: four identically-configured
    // lanes per protocol, so each protocol's lanes lower into ONE SoA
    // decision kernel. Batched draws, shared ticket tables and the
    // TDMA wheel walk must all run off pre-built state — no per-cycle
    // or per-decision heap traffic.
    let pack: Vec<&str> = ["lottery-static", "tdma"]
        .into_iter()
        .flat_map(|protocol| std::iter::repeat_n(protocol, 4))
        .collect();
    let lanes = pack
        .iter()
        .map(|&protocol| {
            let mut lane: LaneBuilder<ArbiterKind, SourceKind> =
                LaneBuilder::new(BusConfig::default());
            for i in 0..4 {
                lane =
                    lane.master(format!("C{}", i + 1), SourceKind::from(SaturateSource::new(0, 8)));
            }
            lane.arbiter(hot_arbiter(protocol, 0xC0FFEE))
        })
        .collect();
    let mut fleet = Fleet::build(lanes).expect("grouped fleet is valid");
    assert_eq!(fleet.lowered_lanes(), pack.len(), "every lane lowers into a kernel");
    assert_eq!(fleet.kernel_count(), 2, "identical lanes share one kernel per protocol");
    fleet.warm_up(2_000);
    ALLOCS.with(|allocs| allocs.set(0));
    COUNTING.with(|counting| counting.set(true));
    fleet.run(20_000);
    COUNTING.with(|counting| counting.set(false));
    let counted = ALLOCS.with(|allocs| allocs.get());
    for (lane, protocol) in pack.iter().enumerate() {
        assert!(
            fleet.stats(lane).bus_utilization() > 0.95,
            "{protocol} grouped lane {lane} is not saturated: utilization {}",
            fleet.stats(lane).bus_utilization()
        );
    }
    assert_eq!(
        counted, 0,
        "{counted} heap allocation(s) in a 20k-cycle grouped-arbitration window"
    );
}

#[test]
fn analytic_scan_allocations_do_not_grow_with_the_ticket_grid() {
    // Three saturating masters, so no cell is weight-blind and every
    // protocol below scores its points one by one: 8³ points against
    // 48³. With no short list, what is left is the per-point work and
    // the per-cell setup (models, ticket tables, the order table).
    let traffic = vec![TrafficInput { lambda: 0.03, size: SizeDist::fixed(16), stall: None }; 3];
    let share = SlaTarget { master: 0, kind: TargetKind::MinShare(0.3) };
    let latency = SlaTarget { master: 1, kind: TargetKind::MaxP99(400.0) };
    for protocol in [
        Protocol::LotteryStatic,
        Protocol::DeficitRoundRobin,
        Protocol::Tdma2Level,
        Protocol::StaticPriority,
    ] {
        for targets in [vec![share], vec![share, latency]] {
            let allocs = |max_tickets: u32| {
                let mut space = SearchSpace::new(protocol, BusConfig::default(), traffic.clone());
                space.max_tickets = max_tickets;
                space.bursts = vec![8, 16];
                ALLOCS.with(|allocs| allocs.set(0));
                COUNTING.with(|counting| counting.set(true));
                let report = analytic::search(&space, &targets, 0).expect("valid space");
                COUNTING.with(|counting| counting.set(false));
                assert_eq!(report.scanned, 2 * u64::from(max_tickets).pow(3));
                ALLOCS.with(|allocs| allocs.get())
            };
            let (small, large) = (allocs(8), allocs(48));
            assert_eq!(
                small, large,
                "{protocol} {targets:?}: {small} allocations at 8 tickets, {large} at 48"
            );
        }
    }
}
