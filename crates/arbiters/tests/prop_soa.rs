//! Property tests pinning the SoA decision kernels to their scalar
//! protocols: random request-bit streams (with random per-master
//! backlogs and interleaved idle skips) must produce byte-identical
//! grant sequences from a lowered kernel slot and its scalar twin —
//! through a mid-stream writeback / re-lower cycle, and for the dynamic
//! lottery through a ticket-epoch change applied between the two
//! lowered phases.

use arbiters::{
    ArbiterKind, DeficitRoundRobinArbiter, RoundRobinArbiter, StaticPriorityArbiter, TdmaArbiter,
    WheelLayout,
};
use lotterybus::{DynamicLotteryArbiter, StaticLotteryArbiter, TicketAssignment};
use proptest::prelude::*;
use socsim::{Arbiter, Cycle, MasterId, RequestMap, SoaKernel, WalkShare, MAX_MASTERS};

/// One step of the request stream: a pending bitmask, a seed the step
/// expands into per-master backlogs, and an idle-skip length replayed
/// through both `skip_idle` paths before the arbitration.
type Step = (u32, u8, u8);

fn map_for(masters: usize, step: &Step) -> RequestMap {
    let mut map = RequestMap::new(masters);
    for i in 0..masters {
        if (step.0 >> i) & 1 == 1 {
            let words = 1 + (u32::from(step.1).wrapping_mul(i as u32 + 7) % 64);
            map.set_pending(MasterId::new(i), words);
        }
    }
    map
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u32..=u32::MAX, 0u8..=u8::MAX, 0u8..5), 20..80)
}

/// Drives `scalars` (the reference) and `twins` (identically
/// constructed) through `stream`: the first half with the twins lowered
/// into an SoA kernel, then a writeback plus optional `mutate` (applied
/// to scalars and twins alike — the ticket-epoch change), a re-lower,
/// the second half under the fresh kernel, and a final writeback
/// followed by scalar-only steps proving the written-back state is the
/// scalar state.
fn assert_lockstep(
    mut scalars: Vec<ArbiterKind>,
    mut twins: Vec<ArbiterKind>,
    masters: usize,
    stream: &[Step],
    mutate: impl Fn(&mut ArbiterKind),
) -> Result<(), TestCaseError> {
    let mid = stream.len() / 2;
    let tail = mid + (stream.len() - mid) / 2;
    let slots = scalars.len();

    let mut kernel = {
        let peers: Vec<&ArbiterKind> = twins.iter().collect();
        <ArbiterKind as Arbiter>::lower_group(&peers).expect("protocol lowers")
    };
    for (t, step) in stream[..mid].iter().enumerate() {
        let map = map_for(masters, step);
        let now = Cycle::new(t as u64);
        for (slot, scalar) in scalars.iter_mut().enumerate() {
            if step.2 > 0 {
                scalar.skip_idle(u64::from(step.2));
                kernel.skip_idle_slot(slot, u64::from(step.2));
            }
            prop_assert_eq!(
                scalar.arbitrate(&map, now),
                kernel.arbitrate_slot(slot, &map, now),
                "slot {} diverged lowered at step {}",
                slot,
                t
            );
        }
    }

    // Writeback, epoch change, re-lower: the fleet's dissolve/rebuild
    // path in miniature.
    for (slot, twin) in twins.iter_mut().enumerate() {
        twin.writeback_from(kernel.as_ref(), slot);
        mutate(twin);
    }
    for scalar in scalars.iter_mut() {
        mutate(scalar);
    }
    let mut kernel = {
        let peers: Vec<&ArbiterKind> = twins.iter().collect();
        <ArbiterKind as Arbiter>::lower_group(&peers).expect("protocol re-lowers")
    };
    for (t, step) in stream[mid..tail].iter().enumerate() {
        let map = map_for(masters, step);
        let now = Cycle::new((mid + t) as u64);
        for (slot, scalar) in scalars.iter_mut().enumerate() {
            prop_assert_eq!(
                scalar.arbitrate(&map, now),
                kernel.arbitrate_slot(slot, &map, now),
                "slot {} diverged after re-lower at step {}",
                slot,
                mid + t
            );
        }
    }

    // Final writeback; from here both sides run scalar, so any state
    // the writeback failed to restore shows up as a divergence.
    for (slot, twin) in twins.iter_mut().enumerate() {
        twin.writeback_from(kernel.as_ref(), slot);
    }
    for (t, step) in stream[tail..].iter().enumerate() {
        let map = map_for(masters, step);
        let now = Cycle::new((tail + t) as u64);
        for slot in 0..slots {
            prop_assert_eq!(
                scalars[slot].arbitrate(&map, now),
                twins[slot].arbitrate(&map, now),
                "slot {} writeback state diverged at step {}",
                slot,
                tail + t
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn round_robin_slots_match_scalar(masters in 2usize..8, stream in steps()) {
        let build = || {
            (0..3)
                .map(|_| ArbiterKind::from(RoundRobinArbiter::new(masters).unwrap()))
                .collect::<Vec<_>>()
        };
        assert_lockstep(build(), build(), masters, &stream, |_| {})?;
    }

    #[test]
    fn static_priority_slots_match_scalar(
        priorities in prop::collection::vec(0u32..1000, 2..8)
            .prop_filter("unique", |p| {
                let mut s = p.clone();
                s.sort_unstable();
                s.windows(2).all(|w| w[0] != w[1])
            }),
        stream in steps(),
    ) {
        let masters = priorities.len();
        let build = || {
            (0..3)
                .map(|_| {
                    ArbiterKind::from(StaticPriorityArbiter::new(priorities.clone()).unwrap())
                })
                .collect::<Vec<_>>()
        };
        assert_lockstep(build(), build(), masters, &stream, |_| {})?;
    }

    #[test]
    fn deficit_rr_slots_match_scalar(
        weights in prop::collection::vec(1u32..6, 2..8),
        unit in 1u32..16,
        stream in steps(),
    ) {
        let masters = weights.len();
        let build = || {
            (0..3)
                .map(|_| {
                    ArbiterKind::from(DeficitRoundRobinArbiter::new(&weights, unit).unwrap())
                })
                .collect::<Vec<_>>()
        };
        assert_lockstep(build(), build(), masters, &stream, |_| {})?;
    }

    #[test]
    fn tdma_slots_match_scalar(
        slots in prop::collection::vec(1u32..5, 2..6),
        stream in steps(),
    ) {
        let masters = slots.len();
        // Two wheel layouts in one group: the kernel must keep separate
        // shared tables for differently-configured lanes.
        let build = || {
            vec![
                ArbiterKind::from(TdmaArbiter::new(&slots, WheelLayout::Contiguous).unwrap()),
                ArbiterKind::from(TdmaArbiter::new(&slots, WheelLayout::Interleaved).unwrap()),
                ArbiterKind::from(TdmaArbiter::new(&slots, WheelLayout::Contiguous).unwrap()),
            ]
        };
        assert_lockstep(build(), build(), masters, &stream, |_| {})?;
    }

    #[test]
    fn static_lottery_slots_match_scalar(
        tickets in prop::collection::vec(1u32..16, 2..6),
        seeds in prop::collection::vec(1u32..0xFFFF, 3),
        stream in steps(),
    ) {
        let masters = tickets.len();
        let build = || {
            seeds
                .iter()
                .map(|&seed| {
                    let assignment = TicketAssignment::new(tickets.clone()).unwrap();
                    ArbiterKind::from(StaticLotteryArbiter::with_seed(assignment, seed).unwrap())
                })
                .collect::<Vec<_>>()
        };
        assert_lockstep(build(), build(), masters, &stream, |_| {})?;
    }

    #[test]
    fn frozen_dynamic_lottery_slots_match_scalar_through_ticket_epochs(
        tickets in prop::collection::vec(1u32..16, 2..6),
        retickets in prop::collection::vec(1u32..16, 2..6),
        seeds in prop::collection::vec(1u32..0xFFFF, 3),
        stream in steps(),
    ) {
        let masters = tickets.len();
        // The mid-stream mutation reassigns every holding (same master
        // count), bumping the ticket epoch on scalars and twins alike;
        // the re-lowered kernel must follow the new holdings exactly.
        let retickets: Vec<u32> =
            (0..masters).map(|i| retickets[i % retickets.len()]).collect();
        let build = || {
            seeds
                .iter()
                .map(|&seed| {
                    let assignment = TicketAssignment::new(tickets.clone()).unwrap();
                    ArbiterKind::from(
                        DynamicLotteryArbiter::with_seed(assignment, seed).unwrap(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_lockstep(build(), build(), masters, &stream, move |arb| {
            if let ArbiterKind::DynamicLottery(a) = arb {
                a.set_tickets(retickets.clone()).expect("same master count");
            }
        })?;
    }
}

/// Which masters a slot-walk case holds pending.
#[derive(Debug, Clone, Copy)]
enum PendingSet {
    /// Every master: the walk's arithmetic, reclaim-free case.
    All,
    /// One master, `pick % masters`.
    Single(usize),
    /// The masters set in `mask` (the lowest master when none is).
    Subset(u32),
}

impl PendingSet {
    fn bits(self, masters: usize) -> u32 {
        let all = u32::MAX >> (32 - masters);
        match self {
            PendingSet::All => all,
            PendingSet::Single(pick) => 1 << (pick % masters),
            PendingSet::Subset(mask) if mask & all == 0 => 1,
            PendingSet::Subset(mask) => mask & all,
        }
    }
}

fn pending_set() -> impl Strategy<Value = PendingSet> {
    prop_oneof![
        Just(PendingSet::All),
        (0usize..8).prop_map(PendingSet::Single),
        (0u32..=u32::MAX).prop_map(PendingSet::Subset),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `walk_slots` equals stepping `arbitrate_slot` with the request
    /// map held fixed, until the first master's grants reach its head
    /// words or the bound: per-master grants and first and last offsets,
    /// the span, and the wheel position and reclaim pointer it leaves
    /// (compared through a writeback). Both layouts share one kernel,
    /// and a random prefix of decisions and idle skips sets the starting
    /// position and reclaim pointer.
    #[test]
    fn tdma_slot_walk_equals_stepping_with_the_map_held_fixed(
        slots in prop::collection::vec(1u32..6, 1..7),
        pending in pending_set(),
        words in prop::collection::vec(1u32..40, 6usize..=6),
        bound in 1u64..200,
        prefix in steps(),
    ) {
        let masters = slots.len();
        let mut wheels = [
            TdmaArbiter::new(&slots, WheelLayout::Contiguous).unwrap(),
            TdmaArbiter::new(&slots, WheelLayout::Interleaved).unwrap(),
        ];
        for (t, step) in prefix.iter().take(12).enumerate() {
            for wheel in wheels.iter_mut() {
                wheel.skip_idle(u64::from(step.2));
                wheel.arbitrate(&map_for(masters, step), Cycle::new(t as u64));
            }
        }
        let arbs: Vec<ArbiterKind> = wheels.iter().cloned().map(ArbiterKind::from).collect();
        let lower = || {
            let peers: Vec<&ArbiterKind> = arbs.iter().collect();
            <ArbiterKind as Arbiter>::lower_group(&peers).expect("tdma lowers")
        };
        // A slot's wheel position and reclaim pointer, written back into
        // a copy of its scalar arbiter.
        let state = |kernel: &dyn SoaKernel, slot: usize| {
            let mut arb = ArbiterKind::from(wheels[slot].clone());
            arb.writeback_from(kernel, slot);
            match arb {
                ArbiterKind::Tdma(tdma) => format!("{tdma:?}"),
                _ => unreachable!("built as tdma"),
            }
        };
        let (mut walker, mut stepper) = (lower(), lower());
        let bits = pending.bits(masters);
        let mut map = RequestMap::new(masters);
        for m in (0..masters).filter(|m| (bits >> m) & 1 == 1) {
            map.set_pending(MasterId::new(m), words[m]);
        }
        for slot in 0..arbs.len() {
            let mut shares = vec![WalkShare::default(); MAX_MASTERS];
            let span = walker
                .walk_slots(slot, &map, bound, &mut shares)
                .expect("tdma walks its wheel");
            let mut expected = vec![WalkShare::default(); MAX_MASTERS];
            let mut stepped = 0;
            while stepped < bound {
                let grant = stepper
                    .arbitrate_slot(slot, &map, Cycle::new(stepped))
                    .expect("a pending master is always granted");
                prop_assert_eq!(grant.max_words, 1, "tdma grants single words");
                let m = grant.master.index();
                let share = &mut expected[m];
                if share.grants == 0 {
                    share.first = stepped;
                }
                share.grants += 1;
                share.last = stepped;
                stepped += 1;
                if share.grants == u64::from(words[m]) {
                    break;
                }
            }
            prop_assert_eq!(span, stepped, "span, slot {} ({:?})", slot, pending);
            prop_assert_eq!(&shares, &expected, "shares, slot {} ({:?})", slot, pending);
            prop_assert_eq!(
                state(walker.as_ref(), slot),
                state(stepper.as_ref(), slot),
                "position or reclaim pointer, slot {} ({:?})",
                slot,
                pending
            );
        }
    }
}
