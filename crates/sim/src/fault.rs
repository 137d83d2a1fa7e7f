//! Deterministic fault injection and recovery machinery.
//!
//! The paper evaluates LOTTERYBUS under fault-free traffic only; this
//! module opens the orthogonal experimental axis of *how arbitration
//! schemes degrade under stress*. It provides:
//!
//! * [`FaultPlan`] — a seeded plan of injected faults. Every decision
//!   is a pure function of `(seed, cycle, actor)` (a counter-based
//!   hash, no RNG state), so a fault-injected run is bit-for-bit
//!   reproducible and independent of evaluation order: the same
//!   `(spec, seed)` always yields the same fault sequence.
//! * [`RetryPolicy`] — per-master recovery with bounded retries and
//!   exponential backoff between attempts.
//! * A transaction **timeout watchdog** (configured on the system
//!   builders) that aborts transactions wedged at the head of a
//!   master's queue — e.g. behind a misbehaving arbiter — and records
//!   them.
//! * [`FaultEvent`] records — the fault trace — accumulated alongside
//!   the bus trace so experiments can correlate injected faults with
//!   latency effects.
//!
//! Injected fault classes (all drawn independently per cycle):
//!
//! * **Slave errors** — the addressed slave returns an error response
//!   for the whole tenure; the transfer does not happen and the master
//!   retries (or aborts) under its [`RetryPolicy`].
//! * **Slave outages** — a slave goes dark for a contiguous block of
//!   cycles; accesses during the outage fail like errors.
//! * **Grant drops / corruption** — the arbiter-to-bus grant path
//!   loses a grant cycle entirely, or delivers it to the wrong master.
//! * **Master stalls** — a master's request line is held deasserted
//!   for a bounded number of cycles (a stalled component).

use crate::cycle::Cycle;
use crate::ids::{MasterId, SlaveId};

/// Fault-injection rates and shapes. All rates are per-opportunity
/// probabilities in `[0, 1]`; the all-zero default injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault plan. Independent of traffic seeds.
    pub seed: u64,
    /// Probability that a granted access receives a slave error
    /// response (drawn per grant).
    pub slave_error_rate: f64,
    /// Probability that a slave is dark for a given outage block
    /// (drawn once per slave per block of `slave_outage_duration`
    /// cycles).
    pub slave_outage_rate: f64,
    /// Length, in cycles, of one slave outage block.
    pub slave_outage_duration: u32,
    /// Probability that a grant cycle is dropped on the way from the
    /// arbiter to the bus (drawn per grant).
    pub grant_drop_rate: f64,
    /// Probability that a grant is delivered to the wrong master
    /// (drawn per grant; the substitute master is drawn from the same
    /// plan).
    pub grant_corrupt_rate: f64,
    /// Probability per cycle that a master stalls (drawn per master
    /// per cycle while not already stalled).
    pub master_stall_rate: f64,
    /// Longest master stall, in cycles.
    pub master_stall_max: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            slave_error_rate: 0.0,
            slave_outage_rate: 0.0,
            slave_outage_duration: 32,
            grant_drop_rate: 0.0,
            grant_corrupt_rate: 0.0,
            master_stall_rate: 0.0,
            master_stall_max: 8,
        }
    }
}

impl FaultConfig {
    /// An inert config (all rates zero) with the given plan seed.
    pub fn with_seed(seed: u64) -> Self {
        FaultConfig { seed, ..FaultConfig::default() }
    }

    /// Whether any fault class has a nonzero rate.
    pub fn is_active(&self) -> bool {
        self.slave_error_rate > 0.0
            || self.slave_outage_rate > 0.0
            || self.grant_drop_rate > 0.0
            || self.grant_corrupt_rate > 0.0
            || self.master_stall_rate > 0.0
    }

    /// Checks rates and shapes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: any rate
    /// outside `[0, 1]`, a zero outage duration, or a zero stall bound
    /// while stalls have a nonzero rate.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("slave-error rate", self.slave_error_rate),
            ("slave-outage rate", self.slave_outage_rate),
            ("grant-drop rate", self.grant_drop_rate),
            ("grant-corrupt rate", self.grant_corrupt_rate),
            ("master-stall rate", self.master_stall_rate),
        ];
        for (name, rate) in rates {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(format!("{name} must be in [0, 1], got {rate}"));
            }
        }
        if self.slave_outage_rate > 0.0 && self.slave_outage_duration == 0 {
            return Err("slave-outage duration must be at least 1 cycle".into());
        }
        if self.master_stall_rate > 0.0 && self.master_stall_max == 0 {
            return Err("master-stall max must be at least 1 cycle".into());
        }
        Ok(())
    }
}

/// Recovery policy for transactions that receive error responses:
/// up to `max_retries` further attempts, separated by an exponential
/// backoff (`backoff_base · backoff_factorᵏ⁻¹` cycles after the k-th
/// failure, capped at [`RetryPolicy::MAX_BACKOFF`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the first failed attempt; 0 aborts a
    /// transaction on its first error.
    pub max_retries: u32,
    /// Backoff after the first failure, in cycles.
    pub backoff_base: u64,
    /// Multiplier applied to the backoff after each further failure.
    pub backoff_factor: u64,
}

impl RetryPolicy {
    /// Upper bound on a single backoff interval, so exponential
    /// growth cannot wedge a master for an unbounded time.
    pub const MAX_BACKOFF: u64 = 4096;

    /// No retries: the first error aborts the transaction.
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0, backoff_base: 1, backoff_factor: 1 }
    }

    /// `max_retries` retries with backoff `base · 2ᵏ⁻¹`.
    pub fn exponential(max_retries: u32, base: u64) -> Self {
        RetryPolicy { max_retries, backoff_base: base, backoff_factor: 2 }
    }

    /// Backoff in cycles after the `attempts`-th failed attempt
    /// (1-based), capped at [`RetryPolicy::MAX_BACKOFF`].
    pub fn backoff_after(&self, attempts: u32) -> u64 {
        let mut backoff = self.backoff_base.min(Self::MAX_BACKOFF);
        for _ in 1..attempts {
            backoff = backoff.saturating_mul(self.backoff_factor);
            if backoff >= Self::MAX_BACKOFF {
                return Self::MAX_BACKOFF;
            }
        }
        backoff.min(Self::MAX_BACKOFF)
    }

    /// Checks the policy shape.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: a zero
    /// backoff base or factor.
    pub fn validate(&self) -> Result<(), String> {
        if self.backoff_base == 0 {
            return Err("retry backoff base must be at least 1 cycle".into());
        }
        if self.backoff_factor == 0 {
            return Err("retry backoff factor must be at least 1".into());
        }
        Ok(())
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// What kind of fault (or recovery action) occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The addressed slave returned an error response.
    SlaveError {
        /// Master whose access failed.
        master: MasterId,
        /// Erroring slave.
        slave: SlaveId,
    },
    /// The addressed slave was dark (in an outage block).
    SlaveOutage {
        /// Master whose access failed.
        master: MasterId,
        /// Dark slave.
        slave: SlaveId,
    },
    /// A grant was lost between arbiter and bus.
    GrantDropped {
        /// Master that should have owned the bus.
        master: MasterId,
    },
    /// A grant was delivered to the wrong master.
    GrantCorrupted {
        /// Master the arbiter chose.
        from: MasterId,
        /// Master that actually received the bus.
        to: MasterId,
    },
    /// A master's request line stalled.
    MasterStalled {
        /// Stalled master.
        master: MasterId,
        /// First cycle at which it may request again.
        until: Cycle,
    },
    /// A failed transaction will retry after backoff.
    Retry {
        /// Retrying master.
        master: MasterId,
        /// Failed attempts so far (1-based).
        attempt: u32,
        /// First cycle at which the retry may request the bus.
        resume_at: Cycle,
    },
    /// A transaction exhausted its retries and was abandoned.
    Aborted {
        /// Master whose transaction was abandoned.
        master: MasterId,
        /// Total failed attempts.
        attempts: u32,
    },
    /// The watchdog aborted a transaction wedged at the queue head.
    Timeout {
        /// Master whose transaction was aborted.
        master: MasterId,
        /// Cycles the transaction was wedged.
        waited: u64,
    },
}

/// One entry of the fault trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the fault occurred.
    pub cycle: Cycle,
    /// What happened.
    pub kind: FaultKind,
}

// Decision-stream tags keeping the per-purpose hash draws independent.
const STREAM_SLAVE_ERROR: u64 = 0x51;
const STREAM_SLAVE_OUTAGE: u64 = 0x52;
const STREAM_GRANT_DROP: u64 = 0x53;
const STREAM_GRANT_CORRUPT: u64 = 0x54;
const STREAM_CORRUPT_TARGET: u64 = 0x55;
const STREAM_MASTER_STALL: u64 = 0x56;
const STREAM_STALL_LENGTH: u64 = 0x57;

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, deterministic fault plan.
///
/// Every query is a pure function of `(seed, cycle, stream, actor)` —
/// the plan holds no mutable state, so fault decisions do not depend
/// on how many other decisions were drawn before them, and a plan can
/// be re-queried for any cycle at any time.
///
/// ```
/// use socsim::fault::{FaultConfig, FaultPlan};
/// use socsim::{Cycle, MasterId, SlaveId};
///
/// let cfg = FaultConfig { seed: 7, slave_error_rate: 0.5, ..FaultConfig::default() };
/// let plan = FaultPlan::new(cfg);
/// let hit = plan.slave_error_at(Cycle::new(3), SlaveId::new(0));
/// // Reproducible: the same (seed, cycle, slave) always agrees.
/// assert_eq!(hit, FaultPlan::new(cfg).slave_error_at(Cycle::new(3), SlaveId::new(0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    config: FaultConfig,
}

impl FaultPlan {
    /// Wraps a configuration into a queryable plan.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan { config }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    fn draw(&self, cycle: u64, stream: u64, actor: u64) -> u64 {
        mix(self.config.seed
            ^ mix(cycle)
            ^ mix(stream.wrapping_mul(0xa076_1d64_78bd_642f))
            ^ mix(actor.wrapping_mul(0xe703_7ed1_a0b4_28db)))
    }

    fn chance(&self, rate: f64, cycle: u64, stream: u64, actor: u64) -> bool {
        rate > 0.0
            && (self.draw(cycle, stream, actor) >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < rate
    }

    /// Whether an access to `slave` granted at `now` receives an error
    /// response.
    pub fn slave_error_at(&self, now: Cycle, slave: SlaveId) -> bool {
        self.chance(
            self.config.slave_error_rate,
            now.index(),
            STREAM_SLAVE_ERROR,
            slave.index() as u64,
        )
    }

    /// Whether `slave` is dark at `now` (inside an outage block).
    pub fn slave_out_at(&self, now: Cycle, slave: SlaveId) -> bool {
        if self.config.slave_outage_rate <= 0.0 {
            return false;
        }
        let block = now.index() / u64::from(self.config.slave_outage_duration.max(1));
        self.chance(self.config.slave_outage_rate, block, STREAM_SLAVE_OUTAGE, slave.index() as u64)
    }

    /// Whether the grant issued to `master` at `now` is lost.
    pub fn grant_dropped_at(&self, now: Cycle, master: MasterId) -> bool {
        self.chance(
            self.config.grant_drop_rate,
            now.index(),
            STREAM_GRANT_DROP,
            master.index() as u64,
        )
    }

    /// If the grant issued to `master` at `now` is corrupted, the raw
    /// draw selecting the substitute master (reduce modulo the master
    /// count).
    pub fn grant_corrupted_at(&self, now: Cycle, master: MasterId) -> Option<u64> {
        self.chance(
            self.config.grant_corrupt_rate,
            now.index(),
            STREAM_GRANT_CORRUPT,
            master.index() as u64,
        )
        .then(|| self.draw(now.index(), STREAM_CORRUPT_TARGET, master.index() as u64))
    }

    /// If `master` stalls starting at `now`, the stall length in
    /// cycles (in `1..=master_stall_max`).
    pub fn master_stall_at(&self, now: Cycle, master: MasterId) -> Option<u32> {
        self.chance(
            self.config.master_stall_rate,
            now.index(),
            STREAM_MASTER_STALL,
            master.index() as u64,
        )
        .then(|| {
            let span = u64::from(self.config.master_stall_max.max(1));
            1 + (self.draw(now.index(), STREAM_STALL_LENGTH, master.index() as u64) % span) as u32
        })
    }

    /// The first cycle in `[from, to)` at which [`FaultPlan::master_stall_at`]
    /// fires for `master`, or `None` when no draw there does. The plan
    /// keeps no state, so a tenure batch finds its next stall draw by
    /// scanning ahead.
    pub fn next_master_stall(&self, master: MasterId, from: Cycle, to: Cycle) -> Option<Cycle> {
        (from.index()..to.index())
            .map(Cycle::new)
            .find(|&cycle| self.master_stall_at(cycle, master).is_some())
    }
}

/// Upper bound on retained fault-trace entries; beyond it the log
/// keeps counting but stops storing (mirrors [`crate::BusTrace`]'s
/// bounded recording).
const FAULT_LOG_CAPACITY: usize = 1 << 16;

/// The recorded fault trace of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
    total: u64,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        FaultLog::default()
    }

    /// Appends an event (dropped beyond capacity; still counted).
    pub fn record(&mut self, event: FaultEvent) {
        self.total += 1;
        if self.events.len() < FAULT_LOG_CAPACITY {
            self.events.push(event);
        }
    }

    /// Retained events in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Total events recorded, including any beyond retention capacity.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// The fault machinery a bus carries: the injection plan (if any),
/// the recovery policy, and the watchdog timeout.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FaultLayer {
    pub plan: Option<FaultPlan>,
    pub retry: RetryPolicy,
    pub timeout: Option<u64>,
    pub log: FaultLog,
}

impl FaultLayer {
    pub(crate) fn new(plan: Option<FaultPlan>, retry: RetryPolicy, timeout: Option<u64>) -> Self {
        FaultLayer { plan, retry, timeout, log: FaultLog::new() }
    }

    /// Whether the plan draws per-cycle master stalls.
    pub(crate) fn draws_stalls(&self) -> bool {
        self.plan.as_ref().is_some_and(|plan| plan.config().master_stall_rate > 0.0)
    }

    /// Whether the layer acts on cycles that do not arbitrate: it draws
    /// master stalls or runs the watchdog. Otherwise every fault fires
    /// at a grant, the bus's per-cycle fault prepass is a no-op, and
    /// nothing bounds a tenure batch.
    pub(crate) fn acts_every_cycle(&self) -> bool {
        self.draws_stalls() || self.timeout.is_some()
    }
}

/// Validates builder-level fault settings and assembles the layer a
/// bus should carry: `None` when nothing fault-related was configured,
/// so an unconfigured system pays no fault-path overhead at all.
/// Used by [`crate::LaneBuilder`], so system and fleet lanes validate
/// alike.
pub(crate) fn build_fault_layer(
    faults: Option<FaultConfig>,
    retry: Option<RetryPolicy>,
    timeout: Option<u64>,
) -> Result<Option<FaultLayer>, crate::error::BuildSystemError> {
    use crate::error::BuildSystemError;
    if let Some(config) = &faults {
        config.validate().map_err(BuildSystemError::InvalidFaultConfig)?;
    }
    if let Some(policy) = &retry {
        policy.validate().map_err(BuildSystemError::InvalidRetryConfig)?;
    }
    if timeout == Some(0) {
        return Err(BuildSystemError::InvalidTimeout(0));
    }
    if faults.is_none() && retry.is_none() && timeout.is_none() {
        return Ok(None);
    }
    Ok(Some(FaultLayer::new(faults.map(FaultPlan::new), retry.unwrap_or_default(), timeout)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_pure_and_reproducible() {
        let cfg = FaultConfig {
            seed: 99,
            slave_error_rate: 0.2,
            grant_drop_rate: 0.1,
            master_stall_rate: 0.05,
            master_stall_max: 6,
            ..FaultConfig::default()
        };
        let a = FaultPlan::new(cfg);
        let b = FaultPlan::new(cfg);
        for c in 0..2_000u64 {
            let now = Cycle::new(c);
            assert_eq!(
                a.slave_error_at(now, SlaveId::new(0)),
                b.slave_error_at(now, SlaveId::new(0))
            );
            assert_eq!(
                a.grant_dropped_at(now, MasterId::new(1)),
                b.grant_dropped_at(now, MasterId::new(1))
            );
            assert_eq!(
                a.master_stall_at(now, MasterId::new(2)),
                b.master_stall_at(now, MasterId::new(2))
            );
        }
    }

    #[test]
    fn query_order_does_not_matter() {
        let cfg = FaultConfig { seed: 5, slave_error_rate: 0.3, ..FaultConfig::default() };
        let plan = FaultPlan::new(cfg);
        let forward: Vec<bool> =
            (0..100).map(|c| plan.slave_error_at(Cycle::new(c), SlaveId::new(1))).collect();
        let backward: Vec<bool> = (0..100)
            .rev()
            .map(|c| plan.slave_error_at(Cycle::new(c), SlaveId::new(1)))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn rates_are_respected_statistically() {
        let cfg = FaultConfig { seed: 3, slave_error_rate: 0.25, ..FaultConfig::default() };
        let plan = FaultPlan::new(cfg);
        let hits =
            (0..100_000).filter(|&c| plan.slave_error_at(Cycle::new(c), SlaveId::new(0))).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "observed {rate}");
    }

    #[test]
    fn zero_rates_never_fire() {
        let plan = FaultPlan::new(FaultConfig::with_seed(1234));
        for c in 0..10_000 {
            let now = Cycle::new(c);
            assert!(!plan.slave_error_at(now, SlaveId::new(0)));
            assert!(!plan.slave_out_at(now, SlaveId::new(0)));
            assert!(!plan.grant_dropped_at(now, MasterId::new(0)));
            assert!(plan.grant_corrupted_at(now, MasterId::new(0)).is_none());
            assert!(plan.master_stall_at(now, MasterId::new(0)).is_none());
        }
    }

    #[test]
    fn stall_horizon_is_the_first_firing_draw() {
        for (seed, rate) in [(11, 0.05), (12, 0.5), (13, 1.0), (14, 0.0)] {
            let cfg = FaultConfig {
                seed,
                master_stall_rate: rate,
                master_stall_max: 4,
                ..FaultConfig::default()
            };
            let plan = FaultPlan::new(cfg);
            for master in 0..3 {
                let id = MasterId::new(master);
                for from in [0u64, 7, 300] {
                    for len in [0u64, 1, 5, 200] {
                        let (from, to) = (Cycle::new(from), Cycle::new(from + len));
                        let scanned = (from.index()..to.index())
                            .map(Cycle::new)
                            .find(|&c| plan.master_stall_at(c, id).is_some());
                        assert_eq!(plan.next_master_stall(id, from, to), scanned);
                    }
                }
            }
        }
    }

    #[test]
    fn outages_cover_whole_blocks() {
        let cfg = FaultConfig {
            seed: 8,
            slave_outage_rate: 0.5,
            slave_outage_duration: 16,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(cfg);
        for block in 0..200u64 {
            let first = plan.slave_out_at(Cycle::new(block * 16), SlaveId::new(0));
            for offset in 1..16 {
                assert_eq!(
                    plan.slave_out_at(Cycle::new(block * 16 + offset), SlaveId::new(0)),
                    first,
                    "outage must cover block {block} uniformly"
                );
            }
        }
    }

    #[test]
    fn config_validation_catches_bad_rates() {
        let mut cfg = FaultConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.slave_error_rate = 1.5;
        assert!(cfg.validate().unwrap_err().contains("slave-error"));
        cfg.slave_error_rate = -0.1;
        assert!(cfg.validate().is_err());
        cfg.slave_error_rate = 0.0;
        cfg.slave_outage_rate = 0.1;
        cfg.slave_outage_duration = 0;
        assert!(cfg.validate().unwrap_err().contains("duration"));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy::exponential(10, 2);
        assert_eq!(policy.backoff_after(1), 2);
        assert_eq!(policy.backoff_after(2), 4);
        assert_eq!(policy.backoff_after(3), 8);
        assert_eq!(policy.backoff_after(30), RetryPolicy::MAX_BACKOFF);
        let linear = RetryPolicy { max_retries: 3, backoff_base: 5, backoff_factor: 1 };
        assert_eq!(linear.backoff_after(4), 5);
    }

    #[test]
    fn retry_validation_catches_zero_shapes() {
        assert!(RetryPolicy::none().validate().is_ok());
        let bad = RetryPolicy { max_retries: 1, backoff_base: 0, backoff_factor: 2 };
        assert!(bad.validate().unwrap_err().contains("base"));
        let bad = RetryPolicy { max_retries: 1, backoff_base: 1, backoff_factor: 0 };
        assert!(bad.validate().unwrap_err().contains("factor"));
    }

    #[test]
    fn fault_log_caps_retention_but_keeps_counting() {
        let mut log = FaultLog::new();
        for c in 0..(FAULT_LOG_CAPACITY as u64 + 10) {
            log.record(FaultEvent {
                cycle: Cycle::new(c),
                kind: FaultKind::GrantDropped { master: MasterId::new(0) },
            });
        }
        assert_eq!(log.events().len(), FAULT_LOG_CAPACITY);
        assert_eq!(log.total(), FAULT_LOG_CAPACITY as u64 + 10);
    }
}
