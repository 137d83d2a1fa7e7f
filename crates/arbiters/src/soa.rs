//! Structure-of-arrays decision kernels for fleet cross-lane lowering.
//!
//! When a [`socsim::fleet::Fleet`] detects a group of lanes running the
//! same protocol over the same master count, it lowers their scalar
//! arbiters into one of these kernels: per-lane mutable state becomes a
//! *slot* in flat vectors, and everything the lanes have in common —
//! largest-remainder lottery ticket tables, priority waterfalls, DRR
//! quanta, TDMA timing wheels — is stored **once** and shared by actual
//! equality. Per-slot decisions replicate the scalar protocol exactly:
//! same grants, same state evolution, same randomness consumption; the
//! `kernel_equivalence` fleet matrix and the `proptest` suite in this
//! module's tests pin that byte-for-byte.
//!
//! Each kernel also exposes the hooks the fleet's batched paths need:
//! round-robin uses a branchless two-mask rotation scan instead of the
//! scalar's candidate loop, static priority walks a precomputed
//! descending-priority waterfall over the request bitmask, and TDMA
//! walks its wheel for as long as a lane's pending set holds
//! ([`SoaKernel::walk_slots`]), so the fleet arbitrates single-word
//! slots in one call instead of one cycle at a time.

use crate::deficit_rr::DeficitRoundRobinArbiter;
use crate::round_robin::RoundRobinArbiter;
use crate::static_priority::StaticPriorityArbiter;
use crate::tdma::TdmaArbiter;
use lotterybus::{DynamicLotteryArbiter, RandomSourceKind, StaticLotteryArbiter, TicketAssignment};
use socsim::{Cycle, Grant, MasterId, RequestMap, SoaKernel, WalkShare};

/// Index of `entry` in `tables`, appending it if absent — the shared-
/// table deduplication every kernel uses. Grouping is by protocol +
/// master count only, so identically-configured lanes share one table
/// while differently-configured lanes in the same group each get their
/// own; correctness never depends on the signature avoiding collisions.
fn dedup_table<T: PartialEq>(tables: &mut Vec<T>, entry: T) -> u32 {
    if let Some(i) = tables.iter().position(|t| *t == entry) {
        return i as u32;
    }
    tables.push(entry);
    (tables.len() - 1) as u32
}

/// Batched single-level round-robin: one rotation pointer per slot, the
/// decision itself a branchless two-mask scan.
pub struct SoaRoundRobin {
    masters: usize,
    /// Per-slot index of the most recently granted master.
    last: Vec<usize>,
}

impl SoaRoundRobin {
    pub(crate) fn lower(peers: &[&RoundRobinArbiter]) -> Self {
        SoaRoundRobin {
            masters: peers[0].masters(),
            last: peers.iter().map(|p| p.last()).collect(),
        }
    }

    pub(crate) fn slot_last(&self, slot: usize) -> usize {
        self.last[slot]
    }
}

impl SoaKernel for SoaRoundRobin {
    fn arbitrate_slot(&mut self, slot: usize, requests: &RequestMap, _now: Cycle) -> Option<Grant> {
        let bits = requests.bits();
        if bits == 0 {
            return None;
        }
        // The scalar scan visits start, start+1, …, n-1, 0, …, start-1
        // and grants the first pending master. Split the bitmask at
        // `start`: any pending master at index >= start wins before any
        // below it, and trailing_zeros picks the lowest in each half.
        // `start <= masters - 1 <= 31`, so the shift never overflows.
        let start = (self.last[slot] + 1) % self.masters;
        let above = bits & (!0u32 << start);
        let winner = if above != 0 { above.trailing_zeros() } else { bits.trailing_zeros() };
        let winner = winner as usize;
        self.last[slot] = winner;
        Some(Grant::whole_burst(MasterId::new(winner)))
    }

    /// Empty arbitrations never move `last`: same contract as the
    /// scalar protocol's [`Cycle::NEVER`] horizon.
    fn next_event_slot(&self, _slot: usize, _now: Cycle) -> Cycle {
        Cycle::NEVER
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Batched static priority: stateless per slot; the shared table is the
/// waterfall (master ids in descending priority order), deduplicated
/// across identically-prioritised lanes.
pub struct SoaStaticPriority {
    /// Deduplicated waterfalls: masters in descending priority order.
    orders: Vec<Vec<MasterId>>,
    /// Per-slot index into `orders`.
    slot_order: Vec<u32>,
}

impl SoaStaticPriority {
    pub(crate) fn lower(peers: &[&StaticPriorityArbiter]) -> Self {
        let mut orders: Vec<Vec<MasterId>> = Vec::new();
        let slot_order = peers
            .iter()
            .map(|p| {
                let mut order: Vec<MasterId> = (0..p.masters()).map(MasterId::new).collect();
                // Priorities are unique by construction
                // (`ArbiterConfigError::DuplicatePriority`), so descending
                // order is total and the waterfall needs no tie-break.
                order.sort_by_key(|&m| std::cmp::Reverse(p.priority(m)));
                dedup_table(&mut orders, order)
            })
            .collect();
        SoaStaticPriority { orders, slot_order }
    }
}

impl SoaKernel for SoaStaticPriority {
    fn arbitrate_slot(&mut self, slot: usize, requests: &RequestMap, _now: Cycle) -> Option<Grant> {
        let bits = requests.bits();
        if bits == 0 {
            return None;
        }
        self.orders[self.slot_order[slot] as usize]
            .iter()
            .find(|m| bits & (1 << m.index()) != 0)
            .map(|&m| Grant::whole_burst(m))
    }

    /// Stateless protocol: idle spans change nothing.
    fn next_event_slot(&self, _slot: usize, _now: Cycle) -> Cycle {
        Cycle::NEVER
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Batched deficit round-robin: shared quanta tables, per-slot deficit
/// counters and visit pointer.
pub struct SoaDeficitRoundRobin {
    /// Deduplicated per-visit quanta tables.
    quanta: Vec<Vec<u32>>,
    /// Per-slot index into `quanta`.
    slot_table: Vec<u32>,
    /// Per-slot deficit counters, flattened at a `masters` stride so
    /// one slot's counters are a single contiguous block instead of a
    /// heap-scattered vector per slot.
    deficit: Vec<u32>,
    /// Per-slot round-robin visit pointer.
    next: Vec<usize>,
    masters: usize,
}

impl SoaDeficitRoundRobin {
    pub(crate) fn lower(peers: &[&DeficitRoundRobinArbiter]) -> Self {
        let mut quanta: Vec<Vec<u32>> = Vec::new();
        let slot_table =
            peers.iter().map(|p| dedup_table(&mut quanta, p.quanta().to_vec())).collect();
        SoaDeficitRoundRobin {
            quanta,
            slot_table,
            deficit: peers.iter().flat_map(|p| p.deficit().iter().copied()).collect(),
            next: peers.iter().map(|p| p.next()).collect(),
            masters: peers[0].quanta().len(),
        }
    }

    pub(crate) fn slot_deficit(&self, slot: usize) -> &[u32] {
        &self.deficit[slot * self.masters..][..self.masters]
    }

    pub(crate) fn slot_next(&self, slot: usize) -> usize {
        self.next[slot]
    }
}

impl SoaKernel for SoaDeficitRoundRobin {
    fn arbitrate_slot(&mut self, slot: usize, requests: &RequestMap, _now: Cycle) -> Option<Grant> {
        if requests.is_empty() {
            return None;
        }
        let n = self.masters;
        let quanta = &self.quanta[self.slot_table[slot] as usize][..n];
        let deficit = &mut self.deficit[slot * n..][..n];
        let next = &mut self.next[slot];
        // Identical to the scalar loop: at most one round, the pointer
        // always advances, idle masters visited on the way forfeit
        // their deficit, the first pending master is served.
        for _ in 0..n {
            let m = *next;
            *next = (*next + 1) % n;
            if requests.is_pending(MasterId::new(m)) {
                deficit[m] = deficit[m].saturating_add(quanta[m]);
                let words = deficit[m].min(requests.pending_words(MasterId::new(m)));
                deficit[m] -= words;
                return Some(Grant { master: MasterId::new(m), max_words: words });
            }
            deficit[m] = 0;
        }
        None
    }

    /// Empty arbitrations return before touching any state.
    fn next_event_slot(&self, _slot: usize, _now: Cycle) -> Cycle {
        Cycle::NEVER
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// One deduplicated TDMA timing wheel plus the per-master sorted slot
/// indices the all-pending walk counts with.
#[derive(PartialEq)]
struct WheelTable {
    wheel: Vec<MasterId>,
    /// `positions[m]` = sorted wheel indices owned by master `m`.
    positions: Vec<Vec<u32>>,
}

impl WheelTable {
    fn new(wheel: &[MasterId], masters: usize) -> Self {
        let mut positions = vec![Vec::new(); masters];
        for (i, owner) in wheel.iter().enumerate() {
            positions[owner.index()].push(i as u32);
        }
        WheelTable { wheel: wheel.to_vec(), positions }
    }

    /// Cycle offset, counted from wheel position `position`, of the
    /// `k`-th (1-based) slot owned by `master`; `None` if it owns none.
    fn occurrence_offset(&self, position: usize, master: usize, k: u64) -> Option<u64> {
        let pos = &self.positions[master];
        let t = pos.len() as u64;
        if t == 0 || k == 0 {
            return None;
        }
        let idx0 = pos.partition_point(|&q| (q as usize) < position) as u64;
        let a = idx0 + (k - 1);
        let lap = a / t;
        let w = (a % t) as usize;
        Some(lap * self.wheel.len() as u64 + u64::from(pos[w]) - position as u64)
    }

    /// Slots owned by `master` among the `window` slots from `position`.
    fn count_in(&self, position: usize, master: usize, window: u64) -> u64 {
        let pos = &self.positions[master];
        let len = self.wheel.len();
        let below = |bound: usize| pos.partition_point(|&q| (q as usize) < bound);
        let rem = (window % len as u64) as usize;
        let partial = if position + rem <= len {
            below(position + rem) - below(position)
        } else {
            (below(len) - below(position)) + below(position + rem - len)
        };
        window / len as u64 * pos.len() as u64 + partial as u64
    }
}

/// Batched two-level TDMA: shared deduplicated wheels, per-slot wheel
/// position and reclaim pointer. Walks single-word grants in bulk while
/// a lane's pending set holds ([`SoaKernel::walk_slots`]).
pub struct SoaTdma {
    tables: Vec<WheelTable>,
    /// Per-slot index into `tables`.
    slot_table: Vec<u32>,
    /// The deduplicated wheels flattened back to back: decisions and
    /// partial-set walks index this flat storage through the per-slot
    /// offset/length pair below; the all-pending walk counts with the
    /// `tables` structure instead.
    wheels: Vec<MasterId>,
    /// Per-slot offset of the slot's wheel inside `wheels`.
    wheel_off: Vec<u32>,
    /// Per-slot wheel length.
    wheel_len: Vec<u32>,
    /// Per-slot wheel position (next slot to be used).
    position: Vec<usize>,
    /// Per-slot second-level reclaim pointer.
    rr: Vec<usize>,
    masters: usize,
}

impl SoaTdma {
    pub(crate) fn lower(peers: &[&TdmaArbiter]) -> Self {
        let masters = peers[0].masters();
        let mut tables: Vec<WheelTable> = Vec::new();
        let slot_table: Vec<u32> = peers
            .iter()
            .map(|p| dedup_table(&mut tables, WheelTable::new(p.wheel(), masters)))
            .collect();
        let mut wheels = Vec::new();
        let table_off: Vec<u32> = tables
            .iter()
            .map(|t| {
                let off = wheels.len() as u32;
                wheels.extend_from_slice(&t.wheel);
                off
            })
            .collect();
        let wheel_off = slot_table.iter().map(|&t| table_off[t as usize]).collect();
        let wheel_len = slot_table.iter().map(|&t| tables[t as usize].wheel.len() as u32).collect();
        SoaTdma {
            tables,
            slot_table,
            wheels,
            wheel_off,
            wheel_len,
            position: peers.iter().map(|p| p.position()).collect(),
            rr: peers.iter().map(|p| p.rr()).collect(),
            masters,
        }
    }

    pub(crate) fn slot_position(&self, slot: usize) -> usize {
        self.position[slot]
    }

    pub(crate) fn slot_rr(&self, slot: usize) -> usize {
        self.rr[slot]
    }

    /// [`SoaKernel::walk_slots`] with every master pending: no slot is
    /// reclaimed, so master `m` is granted exactly its own slots and the
    /// reclaim pointer stays put. Counted per master from the sorted
    /// slot tables in O(masters · log slots), however long the walk.
    fn walk_all_pending(
        &mut self,
        slot: usize,
        requests: &RequestMap,
        max_cycles: u64,
        shares: &mut [WalkShare],
    ) -> u64 {
        let table = &self.tables[self.slot_table[slot] as usize];
        let position = self.position[slot];
        let len = table.wheel.len();
        // The walk ends on the cycle of the earliest head completion.
        let mut span = max_cycles;
        for m in 0..self.masters {
            let words = u64::from(requests.pending_words(MasterId::new(m)));
            if let Some(offset) = table.occurrence_offset(position, m, words) {
                span = span.min(offset + 1);
            }
        }
        for (m, share) in shares.iter_mut().enumerate() {
            let grants = table.count_in(position, m, span);
            if grants > 0 {
                let offset = |k| table.occurrence_offset(position, m, k).expect("m owns slots");
                *share = WalkShare { grants, first: offset(1), last: offset(grants) };
            }
        }
        self.position[slot] = (position + (span % len as u64) as usize) % len;
        span
    }

    /// [`SoaKernel::walk_slots`] with some master idle: slot by slot,
    /// the owner if pending, else the next pending master after the
    /// reclaim pointer, found with the same two-mask scan as
    /// [`SoaRoundRobin`].
    fn walk_some_pending(
        &mut self,
        slot: usize,
        requests: &RequestMap,
        max_cycles: u64,
        shares: &mut [WalkShare],
    ) -> u64 {
        let n = self.masters;
        let bits = requests.bits();
        let off = self.wheel_off[slot] as usize;
        let wheel = &self.wheels[off..off + self.wheel_len[slot] as usize];
        let (mut position, mut rr) = (self.position[slot], self.rr[slot]);
        let mut span = 0;
        while span < max_cycles {
            let owner = wheel[position].index();
            position += 1;
            if position == wheel.len() {
                position = 0;
            }
            let winner = if (bits >> owner) & 1 == 1 {
                owner
            } else {
                // `rr + 1 <= n <= 32`, so `start <= 31`.
                let start = (rr + 1) % n;
                let above = bits & (!0u32 << start);
                rr = if above != 0 { above } else { bits }.trailing_zeros() as usize;
                rr
            };
            let share = &mut shares[winner];
            if share.grants == 0 {
                share.first = span;
            }
            share.grants += 1;
            share.last = span;
            span += 1;
            if share.grants == u64::from(requests.pending_words(MasterId::new(winner))) {
                break;
            }
        }
        self.position[slot] = position;
        self.rr[slot] = rr;
        span
    }
}

impl SoaKernel for SoaTdma {
    fn arbitrate_slot(&mut self, slot: usize, requests: &RequestMap, _now: Cycle) -> Option<Grant> {
        let len = self.wheel_len[slot] as usize;
        // The wheel turns every bus cycle whether or not anyone uses
        // the slot — exactly like the scalar arbiter.
        let owner = self.wheels[self.wheel_off[slot] as usize + self.position[slot]];
        self.position[slot] = (self.position[slot] + 1) % len;
        if requests.is_pending(owner) {
            return Some(Grant::single_word(owner));
        }
        // Second level: round-robin reclaim of the unused slot.
        for k in 1..=self.masters {
            let candidate = MasterId::new((self.rr[slot] + k) % self.masters);
            if requests.is_pending(candidate) {
                self.rr[slot] = candidate.index();
                return Some(Grant::single_word(candidate));
            }
        }
        None
    }

    /// The wheel's idle rotation is a pure function of the skipped
    /// cycle count, replicated by [`SoaKernel::skip_idle_slot`].
    fn next_event_slot(&self, _slot: usize, _now: Cycle) -> Cycle {
        Cycle::NEVER
    }

    fn skip_idle_slot(&mut self, slot: usize, delta: u64) {
        let len = self.wheel_len[slot] as usize;
        self.position[slot] = (self.position[slot] + (delta % len as u64) as usize) % len;
    }

    fn walks_slots(&self) -> bool {
        true
    }

    fn walk_slots(
        &mut self,
        slot: usize,
        requests: &RequestMap,
        max_cycles: u64,
        shares: &mut [WalkShare],
    ) -> Option<u64> {
        let shares = &mut shares[..self.masters];
        shares.fill(WalkShare::default());
        debug_assert!(!requests.is_empty() && max_cycles > 0);
        let all = u32::MAX >> (32 - self.masters);
        let span = if requests.bits() == all {
            self.walk_all_pending(slot, requests, max_cycles, shares)
        } else {
            self.walk_some_pending(slot, requests, max_cycles, shares)
        };
        Some(span)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Batched static lottery: one representative arbiter per unique ticket
/// assignment carries the shared largest-remainder LUT; each slot keeps
/// only its own draw-source register.
pub struct SoaStaticLottery {
    /// Deduplicated representatives; the LUT inside each is the shared
    /// ticket table for every slot pointing at it.
    reps: Vec<StaticLotteryArbiter>,
    /// Per-slot index into `reps`.
    slot_rep: Vec<u32>,
    /// Per-slot draw source, register state moved in from the lane.
    sources: Vec<RandomSourceKind>,
}

impl SoaStaticLottery {
    pub(crate) fn lower(peers: &[&StaticLotteryArbiter]) -> Option<Self> {
        let mut reps: Vec<StaticLotteryArbiter> = Vec::new();
        let mut slot_rep = Vec::with_capacity(peers.len());
        let mut sources = Vec::with_capacity(peers.len());
        for peer in peers {
            // Custom (dyn-boxed) draw sources cannot be duplicated into
            // a slot; the whole group stays scalar.
            sources.push(peer.random_source().clone_builtin()?);
            let rep = match reps.iter().position(|r| r.tickets() == peer.tickets()) {
                Some(i) => i as u32,
                None => {
                    // Rebuilding from the same assignment reproduces the
                    // same LUT; the representative's own source is never
                    // drawn from.
                    reps.push(StaticLotteryArbiter::new(peer.tickets().clone()).ok()?);
                    (reps.len() - 1) as u32
                }
            };
            slot_rep.push(rep);
        }
        Some(SoaStaticLottery { reps, slot_rep, sources })
    }

    pub(crate) fn slot_source(&self, slot: usize) -> &RandomSourceKind {
        &self.sources[slot]
    }
}

impl SoaKernel for SoaStaticLottery {
    fn arbitrate_slot(&mut self, slot: usize, requests: &RequestMap, _now: Cycle) -> Option<Grant> {
        self.reps[self.slot_rep[slot] as usize].decide_with(requests, &mut self.sources[slot])
    }

    /// The LFSR only draws once contenders exist: idle spans change
    /// nothing, same as the scalar manager.
    fn next_event_slot(&self, _slot: usize, _now: Cycle) -> Cycle {
        Cycle::NEVER
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Batched *frozen* dynamic lottery (no policy, no compensation): the
/// effective holdings can never change, so slots sharing a ticket
/// assignment share one representative and differ only in draw state.
pub struct SoaDynamicLottery {
    reps: Vec<DynamicLotteryArbiter>,
    /// Per-slot index into `reps`.
    slot_rep: Vec<u32>,
    /// Per-slot draw source, register state moved in from the lane.
    sources: Vec<RandomSourceKind>,
}

impl SoaDynamicLottery {
    pub(crate) fn lower(peers: &[&DynamicLotteryArbiter]) -> Option<Self> {
        let mut reps: Vec<DynamicLotteryArbiter> = Vec::new();
        let mut slot_rep = Vec::with_capacity(peers.len());
        let mut sources = Vec::with_capacity(peers.len());
        for peer in peers {
            if !peer.is_frozen() {
                return None;
            }
            sources.push(peer.random_source().clone_builtin()?);
            let rep = match reps.iter().position(|r| r.tickets() == peer.tickets()) {
                Some(i) => i as u32,
                None => {
                    let tickets = TicketAssignment::new(peer.tickets().to_vec()).ok()?;
                    reps.push(DynamicLotteryArbiter::new(tickets));
                    (reps.len() - 1) as u32
                }
            };
            slot_rep.push(rep);
        }
        Some(SoaDynamicLottery { reps, slot_rep, sources })
    }

    pub(crate) fn slot_source(&self, slot: usize) -> &RandomSourceKind {
        &self.sources[slot]
    }
}

impl SoaKernel for SoaDynamicLottery {
    fn arbitrate_slot(&mut self, slot: usize, requests: &RequestMap, _now: Cycle) -> Option<Grant> {
        self.reps[self.slot_rep[slot] as usize].decide_frozen(requests, &mut self.sources[slot])
    }

    /// Frozen managers have no scheduled ticket updates.
    fn next_event_slot(&self, _slot: usize, _now: Cycle) -> Cycle {
        Cycle::NEVER
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
