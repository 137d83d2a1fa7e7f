//! The shared-bus transfer engine.

use crate::arbiter::Arbiter;
use crate::config::BusConfig;
use crate::cycle::Cycle;
use crate::fault::{FaultEvent, FaultKind, FaultLayer};
use crate::ids::{MasterId, SlaveId};
use crate::master::{Completion, MasterPort, RetryOutcome};
use crate::request::RequestMap;
use crate::slave::Slave;
use crate::stats::BusStats;
use crate::trace::{BusTrace, TraceEvent};

/// Internal transfer state of the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// No transfer in flight; arbitration happens this cycle.
    Idle,
    /// A grant was issued but arbitration overhead / slave wait states
    /// are still being paid.
    Stalled { master: MasterId, words: u32, stall_left: u32 },
    /// A burst is transferring, one word per cycle.
    Bursting { master: MasterId, words_left: u32 },
}

/// The shared bus: a single channel transferring one word per cycle,
/// with burst-mode grants decided by a pluggable [`Arbiter`].
///
/// `Bus` is driven by [`crate::System`] and by every [`crate::Fleet`]
/// lane; it is exposed so that custom drivers (like the ATM switch
/// crate) can inspect its configuration.
///
/// A bus may optionally carry a fault layer (see [`crate::fault`]):
/// injected faults are drawn at arbitration time, so a whole tenure
/// either proceeds or fails atomically. Without a fault layer the
/// fault paths are never entered and the cycle-by-cycle schedule is
/// identical to the pre-fault engine.
#[derive(Debug)]
pub struct Bus {
    config: BusConfig,
    state: State,
    pub(crate) faults: Option<FaultLayer>,
    /// Reusable per-arbitration request map: rebuilt in place each idle
    /// cycle instead of re-zeroing a fresh map (see
    /// [`RequestMap::reset_for`]).
    request_scratch: RequestMap,
}

impl Bus {
    /// Creates an idle bus with the given configuration.
    pub fn new(config: BusConfig) -> Self {
        Bus::with_faults(config, None)
    }

    /// Creates an idle bus carrying fault-injection machinery, if any.
    pub(crate) fn with_faults(config: BusConfig, faults: Option<FaultLayer>) -> Self {
        Bus { config, state: State::Idle, faults, request_scratch: RequestMap::new(1) }
    }

    /// The bus configuration.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Whether a burst (or its setup stall) is currently in flight.
    #[inline]
    pub fn is_busy(&self) -> bool {
        self.state != State::Idle
    }

    /// The recorded fault trace, empty when no fault layer is attached.
    pub fn fault_events(&self) -> &[FaultEvent] {
        self.faults.as_ref().map_or(&[], |layer| layer.log.events())
    }

    /// Whether the fault layer draws per-cycle master stalls, which
    /// changes which port horizon applies (see
    /// [`MasterPort::next_event_under_stall_faults`]).
    pub(crate) fn stall_faults_active(&self) -> bool {
        self.faults
            .as_ref()
            .and_then(|layer| layer.plan.as_ref())
            .is_some_and(|plan| plan.config().master_stall_rate > 0.0)
    }

    /// The tenure in flight as `(owner, setup-stall cycles left, words
    /// left)`, or `None` when idle. With the stall paid the burst moves
    /// one word per cycle. The fleet's batch moves read a tenure here,
    /// replay part of it arithmetically and store the rest with
    /// [`Bus::set_tenure`].
    #[inline]
    pub(crate) fn tenure(&self) -> Option<(MasterId, u32, u32)> {
        match self.state {
            State::Idle => None,
            State::Stalled { master, words, stall_left } => Some((master, stall_left, words)),
            State::Bursting { master, words_left } => Some((master, 0, words_left)),
        }
    }

    /// Arms the tenure of `master` with `stall` setup cycles still to
    /// pay before `words` words move; with nothing left the bus is idle.
    /// The inverse of [`Bus::tenure`], and the one place a tenure state
    /// is built.
    #[inline]
    pub(crate) fn set_tenure(&mut self, master: MasterId, stall: u32, words: u32) {
        self.state = if stall > 0 {
            State::Stalled { master, words, stall_left: stall }
        } else if words > 0 {
            State::Bursting { master, words_left: words }
        } else {
            State::Idle
        };
    }

    /// Per-cycle fault machinery that runs regardless of transfer
    /// state: injected master stalls and the watchdog timeout. The
    /// master owning the current tenure is exempt — it is making
    /// progress by definition.
    fn fault_prepass(&mut self, masters: &mut [MasterPort], now: Cycle, stats: &mut BusStats) {
        let owner = self.tenure().map(|(master, ..)| master);
        let Some(layer) = self.faults.as_mut() else {
            return;
        };
        for port in masters.iter_mut() {
            if owner == Some(port.id()) {
                continue;
            }
            if let Some(plan) = layer.plan {
                if port.is_requesting() && !port.is_stalled_at(now) {
                    if let Some(len) = plan.master_stall_at(now, port.id()) {
                        let until = now + u64::from(len);
                        port.set_stall(until);
                        layer.log.record(FaultEvent {
                            cycle: now,
                            kind: FaultKind::MasterStalled { master: port.id(), until },
                        });
                    }
                }
            }
            if let Some(timeout) = layer.timeout {
                if let Some(waited) = port.head_wait(now).filter(|&w| w >= timeout) {
                    port.abort_head();
                    stats.record_timeout(port.id());
                    layer.log.record(FaultEvent {
                        cycle: now,
                        kind: FaultKind::Timeout { master: port.id(), waited },
                    });
                }
            }
        }
    }

    /// Simulates one bus cycle.
    ///
    /// When idle, the request map is built from the master ports and the
    /// arbiter is consulted; a granted burst then occupies subsequent
    /// cycles at one word per cycle. Arbitration is pipelined: the first
    /// word of a zero-overhead grant transfers in the grant cycle itself.
    ///
    /// Returns the transaction that completed this cycle, if any — at
    /// most one, since the bus moves one word per cycle.
    pub(crate) fn step<A: Arbiter + ?Sized>(
        &mut self,
        arbiter: &mut A,
        masters: &mut [MasterPort],
        slaves: &[Slave],
        now: Cycle,
        stats: &mut BusStats,
        trace: &mut BusTrace,
    ) -> Option<(MasterId, Completion)> {
        if self.faults.is_some() {
            self.fault_prepass(masters, now, stats);
        }
        match self.state {
            State::Stalled { master, words, stall_left } => {
                stats.record_stall(1);
                self.set_tenure(master, stall_left - 1, words);
                None
            }
            State::Bursting { master, words_left } => {
                let done = self.transfer_word(master, masters, now, stats, trace);
                self.set_tenure(master, 0, words_left - 1);
                done
            }
            State::Idle => {
                let fault_aware = self.faults.is_some();
                self.request_scratch.reset_for(masters.len());
                for port in masters.iter() {
                    // Without a fault layer no stall or backoff is ever
                    // set, so the plain request line keeps the legacy
                    // schedule bit-exact.
                    let requesting =
                        if fault_aware { port.is_requesting_at(now) } else { port.is_requesting() };
                    if requesting {
                        self.request_scratch.set_pending(port.id(), port.pending_words());
                    }
                }
                if self.request_scratch.pending_count() >= 2 {
                    stats.record_contended_arbitration();
                }
                match arbiter.arbitrate(&self.request_scratch, now) {
                    Some(grant) => {
                        let pending_bits = self.request_scratch.bits();
                        assert!(
                            (pending_bits >> grant.master.index()) & 1 == 1,
                            "arbiter `{}` granted idle master {}",
                            arbiter.name(),
                            grant.master
                        );
                        assert!(grant.max_words > 0, "arbiter granted zero words");
                        let winner = self.deliver_grant(
                            grant.master,
                            pending_bits,
                            masters,
                            now,
                            stats,
                            trace,
                        )?;
                        let port = &mut masters[winner.index()];
                        let words =
                            grant.max_words.min(self.config.max_burst).min(port.pending_words());
                        stats.record_grant(winner);
                        port.note_grant(now);
                        trace.record(TraceEvent::Grant { cycle: now, master: winner, words });
                        let slave = port.head_slave().expect("pending master has head");
                        if self.slave_fault(winner, slave, masters, now, stats, trace) {
                            return None;
                        }
                        let stall = self.grant_stall(slaves, slave);
                        if stall > 0 {
                            stats.record_stall(1);
                            self.set_tenure(winner, stall - 1, words);
                            None
                        } else {
                            let done = self.transfer_word(winner, masters, now, stats, trace);
                            self.set_tenure(winner, 0, words - 1);
                            done
                        }
                    }
                    None => {
                        trace.record(TraceEvent::Idle { cycle: now });
                        None
                    }
                }
            }
        }
    }

    /// Setup-stall cycles of a grant addressing `slave`: arbitration
    /// overhead plus the slave's wait states (the bus default for a
    /// slave not in `slaves`).
    #[inline]
    pub(crate) fn grant_stall(&self, slaves: &[Slave], slave: SlaveId) -> u32 {
        let wait_states = slaves
            .iter()
            .find(|s| s.id() == slave)
            .map_or(self.config.slave_wait_states, Slave::wait_states);
        self.config.grant_stall(wait_states)
    }

    /// Applies grant-path faults: the grant may be dropped outright or
    /// delivered to the wrong (pending) master. Returns the master that
    /// actually receives the bus, or `None` if the grant was lost (the
    /// cycle is wasted and counted as a stall).
    fn deliver_grant(
        &mut self,
        chosen: MasterId,
        pending_bits: u32,
        masters: &[MasterPort],
        now: Cycle,
        stats: &mut BusStats,
        trace: &mut BusTrace,
    ) -> Option<MasterId> {
        let Some(layer) = self.faults.as_mut() else {
            return Some(chosen);
        };
        let Some(plan) = layer.plan else {
            return Some(chosen);
        };
        let mut drop_grant = plan.grant_dropped_at(now, chosen);
        if !drop_grant {
            if let Some(raw) = plan.grant_corrupted_at(now, chosen) {
                let to = MasterId::new((raw % masters.len() as u64) as usize);
                if to != chosen && (pending_bits >> to.index()) & 1 == 1 {
                    layer.log.record(FaultEvent {
                        cycle: now,
                        kind: FaultKind::GrantCorrupted { from: chosen, to },
                    });
                    stats.record_corrupted_grant();
                    trace.record(TraceEvent::Fault { cycle: now, master: chosen });
                    return Some(to);
                }
                // No distinct pending master to misdeliver to: the
                // corrupted grant reaches nobody and acts as a drop.
                drop_grant = true;
            }
        }
        if drop_grant {
            layer.log.record(FaultEvent {
                cycle: now,
                kind: FaultKind::GrantDropped { master: chosen },
            });
            stats.record_dropped_grant();
            stats.record_stall(1);
            trace.record(TraceEvent::Fault { cycle: now, master: chosen });
            return None;
        }
        Some(chosen)
    }

    /// Applies slave-side faults to a freshly granted tenure: if the
    /// addressed slave errors (or is in an outage block), the tenure is
    /// forfeited, the master's retry policy is applied, and the cycle
    /// is counted as a stall. Returns whether a fault fired.
    fn slave_fault(
        &mut self,
        winner: MasterId,
        slave: SlaveId,
        masters: &mut [MasterPort],
        now: Cycle,
        stats: &mut BusStats,
        trace: &mut BusTrace,
    ) -> bool {
        let Some(layer) = self.faults.as_mut() else {
            return false;
        };
        let Some(plan) = layer.plan else {
            return false;
        };
        let outage = plan.slave_out_at(now, slave);
        if !outage && !plan.slave_error_at(now, slave) {
            return false;
        }
        let kind = if outage {
            FaultKind::SlaveOutage { master: winner, slave }
        } else {
            FaultKind::SlaveError { master: winner, slave }
        };
        layer.log.record(FaultEvent { cycle: now, kind });
        stats.record_slave_error(winner);
        trace.record(TraceEvent::Fault { cycle: now, master: winner });
        let retry = layer.retry;
        match masters[winner.index()].fail_attempt(now, &retry) {
            RetryOutcome::Retry { attempt, resume_at } => {
                stats.record_retry(winner);
                layer.log.record(FaultEvent {
                    cycle: now,
                    kind: FaultKind::Retry { master: winner, attempt, resume_at },
                });
            }
            RetryOutcome::Aborted { attempts } => {
                stats.record_abort(winner);
                layer.log.record(FaultEvent {
                    cycle: now,
                    kind: FaultKind::Aborted { master: winner, attempts },
                });
            }
        }
        stats.record_stall(1);
        true
    }

    #[inline]
    fn transfer_word(
        &self,
        master: MasterId,
        masters: &mut [MasterPort],
        now: Cycle,
        stats: &mut BusStats,
        trace: &mut BusTrace,
    ) -> Option<(MasterId, Completion)> {
        stats.record_words(master, 1);
        trace.record(TraceEvent::Word { cycle: now, master });
        let done = masters[master.index()].transfer(1, now)?;
        stats.record_completion(master, &done);
        Some((master, done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::FixedOrderArbiter;
    use crate::fault::{FaultConfig, FaultPlan, RetryPolicy};
    use crate::request::Transaction;

    fn setup(masters: usize) -> (Bus, Vec<MasterPort>, BusStats, BusTrace) {
        let bus = Bus::new(BusConfig::default());
        let ports =
            (0..masters).map(|i| MasterPort::new(MasterId::new(i), format!("m{i}"))).collect();
        (bus, ports, BusStats::new(masters), BusTrace::enabled(1024))
    }

    #[test]
    fn single_burst_transfers_back_to_back() {
        let (mut bus, mut ports, mut stats, mut trace) = setup(1);
        let mut arb = FixedOrderArbiter::new(1);
        ports[0].enqueue(Transaction::new(SlaveId::new(0), 3, Cycle::ZERO));
        for c in 0..4 {
            bus.step(&mut arb, &mut ports, &[], Cycle::new(c), &mut stats, &mut trace);
            stats.record_cycle();
        }
        assert_eq!(stats.master(MasterId::new(0)).words, 3);
        assert_eq!(stats.master(MasterId::new(0)).transactions, 1);
        // 3 words in cycles 0..3 (pipelined arbitration), idle cycle 3.
        assert_eq!(trace.render_owners(0..4), "000.");
        assert_eq!(stats.master(MasterId::new(0)).cycles_per_word(), Some(1.0));
    }

    #[test]
    fn burst_cap_forces_rearbitration() {
        let cfg = BusConfig { max_burst: 2, ..BusConfig::default() };
        let mut bus = Bus::new(cfg);
        let mut ports =
            vec![MasterPort::new(MasterId::new(0), "a"), MasterPort::new(MasterId::new(1), "b")];
        let mut stats = BusStats::new(2);
        let mut trace = BusTrace::enabled(64);
        let mut arb = FixedOrderArbiter::new(2);
        ports[0].enqueue(Transaction::new(SlaveId::new(0), 4, Cycle::ZERO));
        ports[1].enqueue(Transaction::new(SlaveId::new(0), 2, Cycle::ZERO));
        for c in 0..8 {
            bus.step(&mut arb, &mut ports, &[], Cycle::new(c), &mut stats, &mut trace);
            stats.record_cycle();
        }
        // Master 0 (higher priority in fixed order) transfers in two
        // 2-word bursts, then master 1 gets the bus.
        assert_eq!(trace.render_owners(0..6), "000011");
        assert_eq!(stats.grants, 3);
    }

    #[test]
    fn arbitration_overhead_inserts_stalls() {
        let cfg = BusConfig { arbitration_overhead: 2, ..BusConfig::default() };
        let mut bus = Bus::new(cfg);
        let mut ports = vec![MasterPort::new(MasterId::new(0), "a")];
        let mut stats = BusStats::new(1);
        let mut trace = BusTrace::enabled(64);
        let mut arb = FixedOrderArbiter::new(1);
        ports[0].enqueue(Transaction::new(SlaveId::new(0), 2, Cycle::ZERO));
        for c in 0..5 {
            bus.step(&mut arb, &mut ports, &[], Cycle::new(c), &mut stats, &mut trace);
            stats.record_cycle();
        }
        assert_eq!(stats.stall_cycles, 2);
        assert_eq!(stats.master(MasterId::new(0)).words, 2);
        // Words move in cycles 2 and 3.
        assert_eq!(trace.render_owners(0..5), "  00.");
    }

    #[test]
    fn slave_wait_states_apply_per_burst() {
        let mut bus = Bus::new(BusConfig::default());
        let slaves = vec![Slave::with_wait_states(SlaveId::new(0), "slow", 1)];
        let mut ports = vec![MasterPort::new(MasterId::new(0), "a")];
        let mut stats = BusStats::new(1);
        let mut trace = BusTrace::disabled();
        let mut arb = FixedOrderArbiter::new(1);
        ports[0].enqueue(Transaction::new(SlaveId::new(0), 2, Cycle::ZERO));
        for c in 0..4 {
            bus.step(&mut arb, &mut ports, &slaves, Cycle::new(c), &mut stats, &mut trace);
            stats.record_cycle();
        }
        assert_eq!(stats.stall_cycles, 1);
        assert_eq!(stats.master(MasterId::new(0)).words, 2);
    }

    #[test]
    fn idle_bus_records_idle_events() {
        let (mut bus, mut ports, mut stats, mut trace) = setup(1);
        let mut arb = FixedOrderArbiter::new(1);
        bus.step(&mut arb, &mut ports, &[], Cycle::ZERO, &mut stats, &mut trace);
        assert_eq!(trace.render_owners(0..1), ".");
        assert!(!bus.is_busy());
    }

    fn run_with_faults(layer: FaultLayer, cycles: u64, words: u32) -> (Bus, BusStats, BusTrace) {
        let mut bus = Bus::with_faults(BusConfig::default(), Some(layer));
        let mut ports = vec![MasterPort::new(MasterId::new(0), "a")];
        let mut stats = BusStats::new(1);
        let mut trace = BusTrace::enabled(4096);
        let mut arb = FixedOrderArbiter::new(1);
        ports[0].enqueue(Transaction::new(SlaveId::new(0), words, Cycle::ZERO));
        for c in 0..cycles {
            bus.step(&mut arb, &mut ports, &[], Cycle::new(c), &mut stats, &mut trace);
            stats.record_cycle();
        }
        (bus, stats, trace)
    }

    #[test]
    fn certain_slave_error_exhausts_retries_and_aborts() {
        let cfg = FaultConfig { seed: 1, slave_error_rate: 1.0, ..FaultConfig::default() };
        let layer =
            FaultLayer::new(Some(FaultPlan::new(cfg)), RetryPolicy::exponential(1, 1), None);
        let (bus, stats, _) = run_with_faults(layer, 50, 4);
        let m = stats.master(MasterId::new(0));
        assert_eq!(m.slave_errors, 2, "first attempt + one retry");
        assert_eq!(m.retries, 1);
        assert_eq!(m.aborted, 1);
        assert_eq!(m.transactions, 0);
        assert_eq!(m.words, 0);
        // Fault trace: error, retry, error, abort.
        let kinds: Vec<_> = bus.fault_events().iter().map(|e| e.kind).collect();
        assert!(matches!(kinds[0], FaultKind::SlaveError { .. }));
        assert!(matches!(kinds[1], FaultKind::Retry { attempt: 1, .. }));
        assert!(matches!(kinds[2], FaultKind::SlaveError { .. }));
        assert!(matches!(kinds[3], FaultKind::Aborted { attempts: 2, .. }));
    }

    #[test]
    fn certain_grant_drop_starves_the_bus() {
        let cfg = FaultConfig { seed: 2, grant_drop_rate: 1.0, ..FaultConfig::default() };
        let layer = FaultLayer::new(Some(FaultPlan::new(cfg)), RetryPolicy::none(), None);
        let (bus, stats, trace) = run_with_faults(layer, 20, 2);
        assert_eq!(stats.master(MasterId::new(0)).words, 0);
        assert_eq!(stats.dropped_grants, 20);
        assert_eq!(stats.grants, 0, "dropped grants never reach the master");
        assert_eq!(bus.fault_events().len(), 20);
        assert_eq!(trace.render_owners(0..4), "xxxx");
    }

    #[test]
    fn watchdog_aborts_wedged_transaction() {
        /// An arbiter that never grants — a wedged primary.
        struct Wedged;
        impl Arbiter for Wedged {
            fn arbitrate(&mut self, _: &RequestMap, _: Cycle) -> Option<crate::arbiter::Grant> {
                None
            }
            fn name(&self) -> &str {
                "wedged"
            }
        }
        let layer = FaultLayer::new(None, RetryPolicy::none(), Some(10));
        let mut bus = Bus::with_faults(BusConfig::default(), Some(layer));
        let mut ports = vec![MasterPort::new(MasterId::new(0), "a")];
        let mut stats = BusStats::new(1);
        let mut trace = BusTrace::disabled();
        let mut arb = Wedged;
        ports[0].enqueue(Transaction::new(SlaveId::new(0), 4, Cycle::ZERO));
        for c in 0..20 {
            bus.step(&mut arb, &mut ports, &[], Cycle::new(c), &mut stats, &mut trace);
            stats.record_cycle();
        }
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.aborted_transactions, 1);
        assert!(!ports[0].is_requesting(), "wedged transaction was flushed");
        assert!(matches!(bus.fault_events()[0].kind, FaultKind::Timeout { waited: 10, .. }));
    }

    #[test]
    fn inert_fault_layer_matches_plain_run() {
        let run = |faults: Option<FaultLayer>| {
            let mut bus = Bus::with_faults(BusConfig::default(), faults);
            let mut ports = vec![
                MasterPort::new(MasterId::new(0), "a"),
                MasterPort::new(MasterId::new(1), "b"),
            ];
            let mut stats = BusStats::new(2);
            let mut trace = BusTrace::enabled(256);
            let mut arb = FixedOrderArbiter::new(2);
            for c in 0..64u64 {
                if c % 7 == 0 {
                    ports[0].enqueue(Transaction::new(SlaveId::new(0), 3, Cycle::new(c)));
                }
                if c % 11 == 0 {
                    ports[1].enqueue(Transaction::new(SlaveId::new(0), 2, Cycle::new(c)));
                }
                bus.step(&mut arb, &mut ports, &[], Cycle::new(c), &mut stats, &mut trace);
                stats.record_cycle();
            }
            (stats, trace)
        };
        // A fault layer with all-zero rates and no watchdog must be inert.
        let inert = FaultLayer::new(
            Some(FaultPlan::new(FaultConfig::with_seed(42))),
            RetryPolicy::exponential(3, 2),
            None,
        );
        let (plain_stats, plain_trace) = run(None);
        let (fault_stats, fault_trace) = run(Some(inert));
        assert_eq!(plain_stats, fault_stats);
        assert_eq!(plain_trace, fault_trace);
    }
}
