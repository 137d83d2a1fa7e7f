//! Property-based tests over the core data structures and protocol
//! invariants, spanning crates — including the fast-forward kernel's
//! two contracts: cycle-exact equivalence with the reference kernel on
//! random systems, and the idle-horizon never crossing an event.

use lotterybus_repro::arbiters::{
    RoundRobinArbiter, StaticPriorityArbiter, TdmaArbiter, WheelLayout,
};
use lotterybus_repro::experiments::common::protocol_arbiter;
use lotterybus_repro::lottery::{
    draw_winner, partial_sums, DynamicLotteryArbiter, Lfsr, StaticLotteryArbiter, TicketAssignment,
};
use lotterybus_repro::socsim::{Arbiter, Cycle, MasterId, RequestMap};
use lotterybus_repro::socsim::{
    BusConfig, FaultConfig, Kernel, RetryPolicy, System, SystemBuilder,
};
use lotterybus_repro::traffic::{GeneratorSpec, SizeDist};
use proptest::prelude::*;

/// Builds a request map for `n` masters from a pending bitmask.
fn map_from_mask(n: usize, mask: u32) -> RequestMap {
    let mut map = RequestMap::new(n);
    for i in 0..n {
        if (mask >> i) & 1 == 1 {
            map.set_pending(MasterId::new(i), 8);
        }
    }
    map
}

proptest! {
    #[test]
    fn partial_sums_are_monotone_and_total_matches(
        tickets in prop::collection::vec(0u32..1000, 1..12),
        mask in 0u32..4096,
    ) {
        let n = tickets.len();
        let map = map_from_mask(n, mask);
        let (sums, total) = partial_sums(&map, &tickets);
        let mut prev = 0u64;
        for &s in &sums[..n] {
            prop_assert!(s >= prev, "partial sums must be non-decreasing");
            prev = s;
        }
        prop_assert_eq!(sums[n - 1], total);
        let expected: u64 = (0..n)
            .filter(|&i| map.is_pending(MasterId::new(i)))
            .map(|i| u64::from(tickets[i]))
            .sum();
        prop_assert_eq!(total, expected);
    }

    #[test]
    fn draw_winner_is_pending_and_holds_tickets(
        tickets in prop::collection::vec(0u32..100, 1..10),
        mask in 0u32..1024,
        draw in 0u64..10_000,
    ) {
        let n = tickets.len();
        let map = map_from_mask(n, mask);
        let (_, total) = partial_sums(&map, &tickets);
        match draw_winner(&map, &tickets, draw) {
            Some(winner) => {
                prop_assert!(map.is_pending(winner));
                prop_assert!(tickets[winner.index()] > 0);
                prop_assert!(draw < total);
            }
            None => prop_assert!(total == 0 || draw >= total),
        }
    }

    #[test]
    fn scaling_hits_a_power_of_two_and_preserves_ratios(
        tickets in prop::collection::vec(0u32..500, 1..16)
            .prop_filter("need one nonzero", |t| t.iter().any(|&x| x > 0)),
    ) {
        let original = TicketAssignment::new(tickets).unwrap();
        let scaled = original.scaled_to_power_of_two();
        prop_assert!(scaled.total().is_power_of_two());
        prop_assert_eq!(original.masters(), scaled.masters());
        for i in 0..original.masters() {
            let id = MasterId::new(i);
            // Zero holders stay zero; nonzero holders stay enfranchised.
            prop_assert_eq!(original.get(id) == 0, scaled.get(id) == 0);
            let err = (original.fraction(id) - scaled.fraction(id)).abs();
            prop_assert!(err < 0.13, "master {} fraction drifted by {}", i, err);
        }
    }

    #[test]
    fn static_lottery_always_grants_a_pending_master(
        tickets in prop::collection::vec(1u32..50, 2..8),
        masks in prop::collection::vec(1u32..256, 1..50),
        seed in 1u32..u32::MAX,
    ) {
        let n = tickets.len();
        let assignment = TicketAssignment::new(tickets).unwrap();
        let mut arbiter = StaticLotteryArbiter::with_seed(assignment, seed).unwrap();
        for (k, mask) in masks.into_iter().enumerate() {
            let mask = mask & ((1 << n) - 1);
            let map = map_from_mask(n, mask);
            match arbiter.arbitrate(&map, Cycle::new(k as u64)) {
                Some(grant) => {
                    prop_assert!(map.is_pending(grant.master));
                    prop_assert!(grant.max_words > 0);
                }
                None => prop_assert!(map.is_empty()),
            }
        }
    }

    #[test]
    fn dynamic_lottery_always_grants_a_pending_master(
        tickets in prop::collection::vec(0u32..50, 2..8)
            .prop_filter("need one nonzero", |t| t.iter().any(|&x| x > 0)),
        masks in prop::collection::vec(1u32..256, 1..50),
        seed in 1u32..u32::MAX,
    ) {
        let n = tickets.len();
        let assignment = TicketAssignment::new(tickets).unwrap();
        let mut arbiter = DynamicLotteryArbiter::with_seed(assignment, seed).unwrap();
        for (k, mask) in masks.into_iter().enumerate() {
            let mask = mask & ((1 << n) - 1);
            let map = map_from_mask(n, mask);
            if let Some(grant) = arbiter.arbitrate(&map, Cycle::new(k as u64)) {
                prop_assert!(map.is_pending(grant.master));
            } else {
                prop_assert!(map.is_empty());
            }
        }
    }

    #[test]
    fn static_priority_grants_the_maximum_priority_requester(
        perm_seed in 0usize..24,
        mask in 1u32..16,
    ) {
        // Enumerate 4-master priority permutations via the seed.
        let mut priorities = vec![1u32, 2, 3, 4];
        for k in 0..perm_seed {
            priorities.swap(k % 3, (k + 1) % 4);
        }
        let mut sorted = priorities.clone();
        sorted.sort_unstable();
        prop_assume!(sorted == vec![1, 2, 3, 4]);
        let mut arbiter = StaticPriorityArbiter::new(priorities.clone()).unwrap();
        let map = map_from_mask(4, mask);
        let winner = arbiter.arbitrate(&map, Cycle::ZERO).unwrap().master;
        let best = (0..4)
            .filter(|&i| map.is_pending(MasterId::new(i)))
            .max_by_key(|&i| priorities[i])
            .unwrap();
        prop_assert_eq!(winner.index(), best);
    }

    #[test]
    fn tdma_saturated_grants_match_slot_counts_exactly(
        slots in prop::collection::vec(1u32..6, 2..6),
        layout in prop::sample::select(vec![WheelLayout::Contiguous, WheelLayout::Interleaved]),
    ) {
        let n = slots.len();
        let mut arbiter = TdmaArbiter::new(&slots, layout).unwrap();
        let map = map_from_mask(n, (1 << n) - 1);
        let wheel: u32 = slots.iter().sum();
        let rotations = 20u32;
        let mut wins = vec![0u32; n];
        for k in 0..(wheel * rotations) {
            let grant = arbiter.arbitrate(&map, Cycle::new(u64::from(k))).unwrap();
            prop_assert_eq!(grant.max_words, 1, "TDMA grants single words");
            wins[grant.master.index()] += 1;
        }
        for i in 0..n {
            prop_assert_eq!(wins[i], slots[i] * rotations, "master {} slot share", i);
        }
    }

    #[test]
    fn round_robin_is_fair_over_any_window(
        n in 2usize..8,
        rounds in 1u32..20,
    ) {
        let mut arbiter = RoundRobinArbiter::new(n).unwrap();
        let map = map_from_mask(n, (1 << n) - 1);
        let mut wins = vec![0u32; n];
        for k in 0..(rounds * n as u32) {
            wins[arbiter.arbitrate(&map, Cycle::new(u64::from(k))).unwrap().master.index()] += 1;
        }
        for &w in &wins {
            prop_assert_eq!(w, rounds);
        }
    }

    #[test]
    fn lfsr_never_reaches_zero_and_draws_stay_bounded(
        width in 2u32..=32,
        seed in 0u32..u32::MAX,
        bounds in prop::collection::vec(1u32..1_000_000, 1..20),
    ) {
        let mut lfsr = Lfsr::new(width, seed);
        for _ in 0..100 {
            lfsr.step();
            prop_assert_ne!(lfsr.state(), 0);
        }
        let mut source = lotterybus_repro::lottery::LfsrSource::new(width, seed);
        use lotterybus_repro::lottery::RandomSource;
        for bound in bounds {
            prop_assert!(source.draw(bound) < bound);
        }
    }
}

/// One random master: an arrival-process kind plus raw parameters,
/// mapped onto a [`GeneratorSpec`].
fn random_generator(kind: u8, a: u64, b: u64, size: u32) -> GeneratorSpec {
    let size = SizeDist::fixed(size);
    match kind % 3 {
        0 => GeneratorSpec::periodic(20 + a % 180, b % 100, size),
        1 => GeneratorSpec::poisson(0.001 + (a % 30) as f64 / 1_000.0, size),
        _ => GeneratorSpec::bursty(2, 4, 1, 20 + a % 80, 120 + b % 200, b % 7, size),
    }
}

/// Builds a random four-master system from proptest-drawn parameters:
/// one of the five lineup arbiters, mixed arrival processes, and
/// (optionally) fault injection with retry and a watchdog.
fn random_system(
    arb: usize,
    masters: &[(u8, u64, u64, u32)],
    with_faults: bool,
    seed: u64,
    kernel: Kernel,
) -> System<lotterybus_repro::arbiters::ArbiterKind> {
    let mut builder =
        SystemBuilder::new(BusConfig::default()).kernel(kernel).trace_capacity(1 << 15);
    for (i, &(kind, a, b, size)) in masters.iter().enumerate() {
        builder = builder.master(
            format!("m{i}"),
            random_generator(kind, a, b, size).build_source(seed.wrapping_add(i as u64)),
        );
    }
    if with_faults {
        builder = builder
            .faults(FaultConfig {
                seed,
                slave_error_rate: 0.01,
                grant_drop_rate: 0.002,
                master_stall_rate: 0.003,
                master_stall_max: 5,
                ..FaultConfig::default()
            })
            .retry_policy(RetryPolicy { max_retries: 2, backoff_base: 1, backoff_factor: 2 })
            .timeout(300);
    }
    builder.arbiter(protocol_arbiter(arb, seed)).build().expect("valid system")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn fast_kernel_matches_cycle_kernel_on_random_systems(
        arb in 0usize..5,
        masters in prop::collection::vec((0u8..3, 0u64..1_000, 0u64..1_000, 1u32..17), 4),
        faults in prop::sample::select(vec![false, true]),
        seed in 1u64..1_000_000,
    ) {
        let mut cycle = random_system(arb, &masters, faults, seed, Kernel::Cycle);
        let mut fast = random_system(arb, &masters, faults, seed, Kernel::Fast);
        cycle.run(2_500);
        fast.run(2_500);
        prop_assert_eq!(cycle.stats(), fast.stats(), "statistics diverged");
        prop_assert_eq!(cycle.trace(), fast.trace(), "trace streams diverged");
        prop_assert_eq!(cycle.fault_events(), fast.fault_events(), "fault logs diverged");
        prop_assert_eq!(cycle.now(), fast.now(), "clocks diverged");
    }

    #[test]
    fn idle_horizon_never_crosses_an_event(
        arb in 0usize..5,
        masters in prop::collection::vec((0u8..3, 0u64..1_000, 0u64..1_000, 1u32..17), 4),
        faults in prop::sample::select(vec![false, true]),
        seed in 1u64..1_000_000,
    ) {
        // The fast kernel may only jump to `idle_horizon()`; this drives
        // the *cycle* kernel one step at a time and asserts that every
        // cycle strictly below the advertised horizon really is
        // replicable idle time: no grants, no words, no fault events.
        let mut system = random_system(arb, &masters, faults, seed, Kernel::Cycle);
        for _ in 0..800u32 {
            let horizon = system.idle_horizon();
            let now = system.now();
            prop_assert!(horizon >= now, "horizon {:?} behind the clock {:?}", horizon, now);
            let grants = system.stats().grants;
            let words: u64 = system.stats().masters().iter().map(|m| m.words).sum();
            let fault_count = system.fault_events().len();
            system.step();
            if horizon > now {
                prop_assert_eq!(
                    system.stats().grants, grants,
                    "a grant fired at {:?}, inside the idle span ending at {:?}", now, horizon
                );
                let words_after: u64 =
                    system.stats().masters().iter().map(|m| m.words).sum();
                prop_assert_eq!(words_after, words, "words moved inside an idle span");
                prop_assert_eq!(
                    system.fault_events().len(), fault_count,
                    "a fault event was logged inside an idle span"
                );
            }
        }
    }
}
