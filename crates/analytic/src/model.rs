//! The predictor inputs and outputs: per-master traffic moments, the
//! protocol lineup, and closed-form system predictions.

use crate::{alloc, latency};
use socsim::BusConfig;
use traffic_gen::{GeneratorSpec, SizeDist};

/// Most masters a [`SystemModel`] accepts. The evaluator keeps all of
/// its working state in fixed-size stack arrays of this length so the
/// design-space search never allocates per point.
pub const MAX_MASTERS: usize = 16;

/// Numerical slack used when comparing allocations against demands.
pub(crate) const EPS: f64 = 1e-9;

/// Capacity a lottery or deficit-RR system must leave unused for its
/// predictions to be weight-blind ([`SystemModel::weight_blind`]).
/// The water fill's cycle needs sum to the total demand up to a few
/// ulps, so a margin a thousand times [`EPS`] keeps every saturation
/// test in it from firing with room to spare.
pub(crate) const BLIND_HEADROOM: f64 = 1e-6;

/// The arbitration protocols the predictors cover — the simulator's
/// five-protocol comparison lineup plus the dynamic lottery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Strict static priority: higher weight always wins.
    StaticPriority,
    /// Plain round-robin. Weights are ignored, exactly as the
    /// simulator's `RoundRobinArbiter` ignores them.
    RoundRobin,
    /// Deficit round-robin: service quanta proportional to weight, so
    /// bandwidth divides in *word* space — by the **effective** weight
    /// `min(weight · quantum, max_burst)`, because the bus clamps
    /// every grant to `max_burst` words and the arbiter visits each
    /// backlogged master once per round.
    DeficitRoundRobin,
    /// Two-level TDMA: reserved slots proportional to weight, unclaimed
    /// slots reclaimed round-robin by the second level.
    Tdma2Level,
    /// Static lottery: each arbitration picks a requester with
    /// probability proportional to its tickets.
    LotteryStatic,
    /// Dynamic lottery. In expectation the grant stream matches the
    /// static lottery (tickets decide win probabilities either way),
    /// so both share one model; the validation grid measures how far
    /// that stretches.
    LotteryDynamic,
}

/// Which resource space a protocol divides fairly under saturation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Space {
    /// Strict waterfall in descending weight order (static priority).
    Waterfall,
    /// Bus cycles divide by weight (TDMA slot reservations).
    Cycle,
    /// Grants (tenures) divide by weight (round-robin, lottery).
    Grant,
    /// Words divide by weight (deficit round-robin quanta).
    Word,
}

impl Protocol {
    /// All covered protocols, in the experiment lineup's order.
    pub const ALL: [Protocol; 6] = [
        Protocol::StaticPriority,
        Protocol::RoundRobin,
        Protocol::DeficitRoundRobin,
        Protocol::Tdma2Level,
        Protocol::LotteryStatic,
        Protocol::LotteryDynamic,
    ];

    /// The canonical name, matching the experiment suite's labels.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::StaticPriority => "static-priority",
            Protocol::RoundRobin => "round-robin",
            Protocol::DeficitRoundRobin => "deficit-rr",
            Protocol::Tdma2Level => "tdma-2level",
            Protocol::LotteryStatic => "lottery-static",
            Protocol::LotteryDynamic => "lottery-dynamic",
        }
    }

    /// Parses a protocol name. Accepts both the experiment suite's
    /// labels ([`Protocol::name`]) and the `.scenario` grammar's
    /// arbiter keywords (`lottery`, `rr`, `priority`, `tdma`, …).
    /// `token` maps to [`Protocol::RoundRobin`]: a token ring serves
    /// backlogged masters in cyclic order, which is round-robin in
    /// expectation.
    pub fn parse(name: &str) -> Option<Protocol> {
        Some(match name {
            "static-priority" | "priority" => Protocol::StaticPriority,
            "round-robin" | "rr" | "token" | "token-ring" => Protocol::RoundRobin,
            "deficit-rr" | "drr" => Protocol::DeficitRoundRobin,
            "tdma-2level" | "tdma" => Protocol::Tdma2Level,
            "lottery-static" | "lottery" => Protocol::LotteryStatic,
            "lottery-dynamic" => Protocol::LotteryDynamic,
            _ => return None,
        })
    }

    pub(crate) fn space(self) -> Space {
        match self {
            Protocol::StaticPriority => Space::Waterfall,
            Protocol::Tdma2Level => Space::Cycle,
            Protocol::RoundRobin => Space::Grant,
            Protocol::LotteryStatic | Protocol::LotteryDynamic => Space::Grant,
            Protocol::DeficitRoundRobin => Space::Word,
        }
    }
}

impl Space {
    /// The resource units master `m` demands per cycle in this space,
    /// and the bus cycles one unit costs.
    pub(crate) fn units_and_cost(self, m: &MasterModel) -> (f64, f64) {
        match self {
            Space::Waterfall | Space::Cycle => (m.demand(), 1.0),
            Space::Grant => (m.lambda * m.mean_grants, m.mean_tenure / m.mean_grants),
            Space::Word => (m.word_rate(), m.mean_tenure / m.mean_words),
        }
    }
}

/// Deficit round-robin's effective weight `min(weight · quantum,
/// max_burst)`: words moved per round by a master of `weight` tickets.
pub(crate) fn drr_effective(weight: u32, quantum: u32, max_burst: u32) -> u32 {
    weight.saturating_mul(quantum.max(1)).min(max_burst.max(1))
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One master's traffic, reduced to the moments the closed forms need.
///
/// A message of `L` words occupies the bus for
/// `t(L) = L + stall · ⌈L / max_burst⌉` cycles — the same tenure
/// duration the fleet's tenure batching replays (`L` data cycles plus the per-grant
/// stall of [`BusConfig::grant_stall`] for each of the `⌈L / B⌉`
/// grants the burst limit splits the message into). All moments are
/// computed exactly by enumerating the size distribution's finite
/// support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MasterModel {
    /// Message arrival rate in messages per cycle.
    pub lambda: f64,
    /// Arbitration weight: tickets, priority level, or slot weight.
    pub weight: u32,
    /// Mean message size `E[L]` in words.
    pub mean_words: f64,
    /// Mean grants per message `E[⌈L/B⌉]`.
    pub mean_grants: f64,
    /// Mean bus tenure per message `E[t]` in cycles.
    pub mean_tenure: f64,
    /// Second tenure moment `E[t²]` in cycles².
    pub tenure_sq: f64,
}

impl MasterModel {
    /// Builds the moments for a master issuing `lambda` messages per
    /// cycle with the given size distribution, per-grant `stall`
    /// cycles, and burst limit.
    ///
    /// # Panics
    ///
    /// Panics if `max_burst` is zero or `lambda` is negative or not
    /// finite.
    pub fn new(lambda: f64, size: SizeDist, weight: u32, stall: u32, max_burst: u32) -> Self {
        assert!(max_burst > 0, "max_burst must be at least 1");
        assert!(lambda >= 0.0 && lambda.is_finite(), "arrival rate must be finite and >= 0");
        let tenure = |words: u32| -> f64 {
            let grants = words.div_ceil(max_burst);
            f64::from(words) + f64::from(stall) * f64::from(grants)
        };
        MasterModel {
            lambda,
            weight,
            mean_words: size.mean(),
            mean_grants: size.expect(|w| f64::from(w.div_ceil(max_burst))),
            mean_tenure: size.expect(tenure),
            tenure_sq: size.expect(|w| tenure(w) * tenure(w)),
        }
    }

    /// Builds the moments from a traffic spec: the arrival rate is the
    /// spec's long-run message rate (its offered load divided by its
    /// mean size), the per-grant stall is the bus's default
    /// [`BusConfig::per_grant_overhead`].
    pub fn from_spec(spec: &GeneratorSpec, weight: u32, bus: &BusConfig) -> Self {
        let lambda = spec.offered_load() / spec.size.mean();
        MasterModel::new(lambda, spec.size, weight, bus.per_grant_overhead(), bus.max_burst)
    }

    /// Offered bus-cycle demand `λ · E[t]`: the fraction of all cycles
    /// this master needs to drain its queue.
    pub fn demand(&self) -> f64 {
        self.lambda * self.mean_tenure
    }

    /// Offered word rate `λ · E[L]`: the bandwidth share the master
    /// would consume on an uncontended bus.
    pub fn word_rate(&self) -> f64 {
        self.lambda * self.mean_words
    }
}

/// The closed-form prediction for one master.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Prediction {
    /// Predicted bandwidth share in words per bus cycle — directly
    /// comparable to the simulator's `BusStats::bandwidth_fraction`.
    pub share: f64,
    /// Offered cycle demand `λ · E[t]` (1.0 = the whole bus).
    pub demand: f64,
    /// Whether the master's queue is predicted to be stable (it
    /// receives its full demand).
    pub stable: bool,
    /// Predicted mean latency in cycles per word — comparable to
    /// `MasterStats::cycles_per_word`. `None` when the queue is
    /// unstable (latency grows without bound).
    pub cycles_per_word: Option<f64>,
    /// Predicted p99 per-message latency in cycles, under an
    /// exponential waiting-tail approximation
    /// (`p99 ≈ service + ln(100) · wait`). `None` when unstable.
    pub p99_latency: Option<f64>,
}

/// A whole-system prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemPrediction {
    /// Total offered cycle demand (1.0 = bus capacity).
    pub total_demand: f64,
    /// Predicted bus utilization: the sum of all granted word rates
    /// (busy cycles per cycle, stalls excluded).
    pub bus_utilization: f64,
    /// Whether offered demand meets or exceeds capacity.
    pub saturated: bool,
    /// Per-master predictions, in master order.
    pub masters: Vec<Prediction>,
}

/// Reusable evaluation workspace. One instance serves any number of
/// [`SystemModel::evaluate`] calls without allocating, which is what
/// lets the design-space search visit millions of points per second.
#[derive(Debug, Clone)]
pub struct Scratch {
    pub(crate) units: [f64; MAX_MASTERS],
    pub(crate) cost: [f64; MAX_MASTERS],
    pub(crate) weight: [f64; MAX_MASTERS],
    pub(crate) alloc: [f64; MAX_MASTERS],
    /// Per-master predictions of the last `evaluate` call; only the
    /// first `masters.len()` entries are meaningful.
    pub preds: [Prediction; MAX_MASTERS],
}

impl Scratch {
    /// A fresh workspace.
    pub fn new() -> Self {
        Scratch {
            units: [0.0; MAX_MASTERS],
            cost: [0.0; MAX_MASTERS],
            weight: [0.0; MAX_MASTERS],
            alloc: [0.0; MAX_MASTERS],
            preds: [Prediction::default(); MAX_MASTERS],
        }
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch::new()
    }
}

/// System-level evaluation summary (the scalar part of a
/// [`SystemPrediction`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Total offered cycle demand.
    pub total_demand: f64,
    /// Predicted bus utilization (busy fraction).
    pub bus_utilization: f64,
    /// Whether offered demand meets or exceeds capacity.
    pub saturated: bool,
}

/// The bus cycles per cycle granted to master `m` when it holds
/// `alloc` resource units at `cost` cycles each, and the bandwidth
/// share (words per cycle) those cycles carry.
pub(crate) fn granted(m: &MasterModel, alloc: f64, cost: f64) -> (f64, f64) {
    let cycles = alloc * cost;
    (cycles, cycles * m.mean_words / m.mean_tenure)
}

/// A bus, its protocol, and its masters — everything the closed forms
/// need.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemModel {
    /// The arbitration protocol under prediction.
    pub protocol: Protocol,
    /// TDMA slots per weight unit (the scenario grammar's
    /// `tdma_block`); only the slot-alignment latency term uses it.
    pub tdma_block: u32,
    /// Deficit round-robin quantum unit in words per weight per round;
    /// only [`Protocol::DeficitRoundRobin`] uses it.
    pub drr_quantum: u32,
    /// The bus's burst limit in words. Caps a DRR master's per-round
    /// service at one grant of `max_burst` words, which is why DRR's
    /// effective weight is `min(weight · drr_quantum, max_burst)`.
    pub max_burst: u32,
    /// The masters, in bus order.
    pub masters: Vec<MasterModel>,
}

impl SystemModel {
    /// A model with the experiment lineup's protocol parameters: a
    /// TDMA block of 6 slots per weight unit (the `[6, 12, 18, 24]`
    /// wheel), a DRR quantum unit of 8 words, and the default 16-word
    /// burst limit.
    ///
    /// # Panics
    ///
    /// Panics if there are no masters or more than [`MAX_MASTERS`].
    pub fn new(protocol: Protocol, masters: Vec<MasterModel>) -> Self {
        assert!(
            !masters.is_empty() && masters.len() <= MAX_MASTERS,
            "1..={MAX_MASTERS} masters supported"
        );
        SystemModel { protocol, tdma_block: 6, drr_quantum: 8, max_burst: 16, masters }
    }

    /// Builds the model straight from traffic specs and a weight
    /// vector, using the bus's burst limit and default per-grant
    /// overhead.
    ///
    /// # Panics
    ///
    /// Panics if `specs` and `weights` differ in length, are empty, or
    /// exceed [`MAX_MASTERS`].
    pub fn from_specs(
        protocol: Protocol,
        specs: &[GeneratorSpec],
        weights: &[u32],
        bus: &BusConfig,
    ) -> Self {
        assert_eq!(specs.len(), weights.len(), "one weight per master");
        let masters = specs
            .iter()
            .zip(weights)
            .map(|(spec, &w)| MasterModel::from_spec(spec, w, bus))
            .collect();
        let mut model = SystemModel::new(protocol, masters);
        model.max_burst = bus.max_burst;
        model
    }

    /// This model with an explicit TDMA block size.
    pub fn with_tdma_block(mut self, block: u32) -> Self {
        self.tdma_block = block;
        self
    }

    /// This model with an explicit DRR quantum unit (words per weight
    /// per round).
    pub fn with_drr_quantum(mut self, quantum: u32) -> Self {
        self.drr_quantum = quantum;
        self
    }

    /// The effective word-space weight of master `i` under deficit
    /// round-robin: `min(weight · drr_quantum, max_burst)`. The bus
    /// clamps every grant to `max_burst` words and the arbiter visits
    /// each backlogged master once per round, so quantum beyond one
    /// full burst buys nothing.
    pub fn drr_effective_weight(&self, i: usize) -> u32 {
        drr_effective(self.masters[i].weight, self.drr_quantum, self.max_burst)
    }

    /// The weight the water fill divides by for a master declaring
    /// `weight`: 1 under plain round-robin, which serves backlogged
    /// masters equally whatever their weights; the effective weight
    /// under deficit round-robin, whose per-round service is one
    /// burst-clamped grant; the weight itself otherwise.
    pub(crate) fn fill_weight(&self, weight: u32) -> f64 {
        match self.protocol {
            Protocol::RoundRobin => 1.0,
            Protocol::DeficitRoundRobin => {
                f64::from(drr_effective(weight, self.drr_quantum, self.max_burst))
            }
            _ => f64::from(weight),
        }
    }

    /// Whether every weight vector predicts bit-identically for this
    /// system, so one evaluation stands for them all.
    ///
    /// Plain round-robin never reads weights. Lottery and deficit
    /// round-robin read them only in the water fill, and only once
    /// capacity runs out: when the summed cycle demand `Σ λ·E[t]` is at
    /// most `1 − 10⁻⁶`, the fill's needs (which add up to that demand
    /// apart from rounding) never reach the remaining capacity, so
    /// every active master is capped at exactly its demand whatever
    /// the weights, and the share, stability and reduced-rate latency
    /// passes read no weights. TDMA's slot-alignment wait and static
    /// priority's Cobham order read weights at any load.
    pub(crate) fn weight_blind(&self) -> bool {
        match self.protocol {
            Protocol::RoundRobin => true,
            Protocol::LotteryStatic | Protocol::LotteryDynamic | Protocol::DeficitRoundRobin => {
                self.masters.iter().map(MasterModel::demand).sum::<f64>() <= 1.0 - BLIND_HEADROOM
            }
            Protocol::Tdma2Level | Protocol::StaticPriority => false,
        }
    }

    /// Evaluates the closed forms into `scratch` (alloc-free) and
    /// returns the system summary. Per-master results land in
    /// `scratch.preds[..masters.len()]`.
    pub fn evaluate(&self, scratch: &mut Scratch) -> Summary {
        let n = self.masters.len();
        debug_assert!((1..=MAX_MASTERS).contains(&n));
        let space = self.protocol.space();

        // Resource units demanded per cycle and bus cycles per unit.
        for (i, m) in self.masters.iter().enumerate() {
            (scratch.units[i], scratch.cost[i]) = space.units_and_cost(m);
            scratch.weight[i] = self.fill_weight(m.weight);
        }

        let total_demand: f64 = self.masters.iter().map(MasterModel::demand).sum();
        match space {
            Space::Waterfall => alloc::priority_fill(
                &scratch.units[..n],
                &scratch.weight[..n],
                1.0,
                &mut scratch.alloc[..n],
            ),
            _ => alloc::weighted_water_fill(
                &scratch.units[..n],
                &scratch.cost[..n],
                &scratch.weight[..n],
                1.0,
                &mut scratch.alloc[..n],
            ),
        }

        // Convert granted units to bandwidth shares and stability.
        let mut bus_utilization = 0.0;
        for i in 0..n {
            let m = &self.masters[i];
            let (cycles, share) = granted(m, scratch.alloc[i], scratch.cost[i]);
            let stable = scratch.alloc[i] + EPS >= scratch.units[i];
            bus_utilization += share;
            scratch.preds[i] =
                Prediction { share, demand: m.demand(), stable, ..Prediction::default() };
            // Stash granted cycles for the latency pass.
            scratch.alloc[i] = cycles;
        }

        latency::fill(self, scratch, n);

        Summary { total_demand, bus_utilization, saturated: total_demand >= 1.0 - EPS }
    }

    /// Evaluates the closed forms and returns an owned prediction.
    pub fn predict(&self) -> SystemPrediction {
        let mut scratch = Scratch::new();
        let summary = self.evaluate(&mut scratch);
        SystemPrediction {
            total_demand: summary.total_demand,
            bus_utilization: summary.bus_utilization,
            saturated: summary.saturated,
            masters: scratch.preds[..self.masters.len()].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saturating(weights: &[u32], protocol: Protocol) -> SystemModel {
        let bus = BusConfig::default();
        let spec = GeneratorSpec::poisson(0.09, SizeDist::fixed(16));
        SystemModel::from_specs(protocol, &vec![spec; weights.len()], weights, &bus)
    }

    #[test]
    fn tenure_moments_match_hand_computation() {
        // 20-word messages, burst 16, stall 2: two grants, t = 20 + 4.
        let m = MasterModel::new(0.01, SizeDist::fixed(20), 1, 2, 16);
        assert_eq!(m.mean_grants, 2.0);
        assert_eq!(m.mean_tenure, 24.0);
        assert_eq!(m.tenure_sq, 576.0);
        assert!((m.demand() - 0.24).abs() < 1e-12);
    }

    #[test]
    fn bimodal_moments_are_probability_weighted() {
        let size = SizeDist::bimodal(2, 32, 0.25);
        let m = MasterModel::new(0.0, size, 1, 0, 16);
        assert!((m.mean_words - (0.75 * 2.0 + 0.25 * 32.0)).abs() < 1e-12);
        assert!((m.mean_grants - (0.75 + 0.25 * 2.0)).abs() < 1e-12);
        assert!((m.tenure_sq - (0.75 * 4.0 + 0.25 * 1024.0)).abs() < 1e-12);
    }

    #[test]
    fn lottery_divides_saturated_bandwidth_by_tickets() {
        let p = saturating(&[1, 2, 3, 4], Protocol::LotteryStatic).predict();
        assert!(p.saturated);
        for (i, pred) in p.masters.iter().enumerate() {
            let entitled = (i + 1) as f64 / 10.0;
            assert!((pred.share - entitled).abs() < 1e-9, "master {i}: {pred:?}");
            assert!(!pred.stable, "saturated masters are unstable");
        }
        assert!((p.bus_utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn granularity_curve_matches_entitlement() {
        for k in [1u32, 2, 3, 5, 8, 13, 21, 34, 64] {
            let p = saturating(&[k, 1, 1, 1], Protocol::LotteryStatic).predict();
            let entitled = f64::from(k) / f64::from(k + 3);
            assert!(
                (p.masters[0].share - entitled).abs() < 1e-9,
                "tickets {k}: {:?}",
                p.masters[0]
            );
        }
    }

    #[test]
    fn drr_weights_are_burst_clamped() {
        // Quantum 8, burst 16: weights 1:2:3:4 move 8:16:16:16 words
        // per round, so the saturated split is 1:2:2:2 — not 1:2:3:4.
        let p = saturating(&[1, 2, 3, 4], Protocol::DeficitRoundRobin).predict();
        let eff = [8.0, 16.0, 16.0, 16.0];
        let total: f64 = eff.iter().sum();
        for (pred, e) in p.masters.iter().zip(&eff) {
            assert!((pred.share - e / total).abs() < 1e-9, "{pred:?}");
        }
        // A burst wide enough for every quantum restores 1:2:3:4.
        let mut model = saturating(&[1, 2, 3, 4], Protocol::DeficitRoundRobin);
        model.max_burst = 64;
        let p = model.predict();
        for (i, pred) in p.masters.iter().enumerate() {
            assert!((pred.share - (i + 1) as f64 / 10.0).abs() < 1e-9, "{pred:?}");
        }
    }

    #[test]
    fn round_robin_ignores_weights() {
        let p = saturating(&[1, 2, 3, 4], Protocol::RoundRobin).predict();
        for pred in &p.masters {
            assert!((pred.share - 0.25).abs() < 1e-9, "{pred:?}");
        }
    }

    #[test]
    fn priority_starves_the_lowest_class_under_saturation() {
        let p = saturating(&[1, 2, 3, 4], Protocol::StaticPriority).predict();
        // Demands are 1.44 each: the top class takes the whole bus.
        assert!((p.masters[3].share - 1.0).abs() < 1e-9);
        assert!((p.masters[0].share).abs() < 1e-9);
        assert!(p.masters[0].cycles_per_word.is_none(), "starved class has no finite latency");
    }

    #[test]
    fn unsaturated_masters_get_their_offered_load() {
        let bus = BusConfig::default();
        let spec = GeneratorSpec::poisson(0.005, SizeDist::fixed(16));
        for protocol in Protocol::ALL {
            let model = SystemModel::from_specs(protocol, &vec![spec; 4], &[1, 2, 3, 4], &bus);
            let p = model.predict();
            assert!(!p.saturated);
            for pred in &p.masters {
                assert!(pred.stable);
                assert!((pred.share - 0.08).abs() < 1e-9, "{protocol}: {pred:?}");
                let cpw = pred.cycles_per_word.expect("stable queues have finite latency");
                assert!(cpw >= 1.0, "{protocol}: cycles/word {cpw}");
            }
        }
    }

    #[test]
    fn zero_load_is_graceful() {
        let bus = BusConfig::default();
        let spec = GeneratorSpec::poisson(0.0, SizeDist::fixed(16));
        for protocol in Protocol::ALL {
            let p = SystemModel::from_specs(protocol, &[spec; 2], &[1, 1], &bus).predict();
            assert_eq!(p.total_demand, 0.0);
            for pred in &p.masters {
                assert_eq!(pred.share, 0.0);
                assert!(pred.stable);
                let cpw = pred.cycles_per_word.expect("an idle bus serves at full speed");
                // TDMA still pays its slot-alignment wait on an idle
                // bus; every other protocol serves at one cycle/word.
                if protocol == Protocol::Tdma2Level {
                    assert!(cpw > 1.0 && cpw < 2.0, "{protocol}: {cpw}");
                } else {
                    assert!((cpw - 1.0).abs() < 1e-9, "{protocol}: {cpw}");
                }
            }
        }
    }

    #[test]
    fn protocol_names_round_trip() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::parse(p.name()), Some(p));
        }
        assert_eq!(Protocol::parse("lottery"), Some(Protocol::LotteryStatic));
        assert_eq!(Protocol::parse("token"), Some(Protocol::RoundRobin));
        assert_eq!(Protocol::parse("nonsense"), None);
    }
}
