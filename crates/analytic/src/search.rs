//! Instant design-space search: scan millions of (tickets, burst,
//! load-scale) points through the closed-form predictors, short-list
//! the candidates that satisfy a set of SLA targets, and hand the
//! survivors to the simulator for confirmation.
//!
//! One point evaluation is a few hundred flops and allocates nothing,
//! so a single thread covers a 4-master × 32-ticket grid (1,048,576
//! points) in about a tenth of a second. Equivalent ticket vectors are
//! folded together in the short list: scaling every ticket count by a
//! common factor changes nothing for the lottery, deficit-RR, or
//! priority models (only the order matters for the latter), so the
//! short list reports each *allocation shape* once, at its smallest
//! ticket sum.
//!
//! The short list costs little per offered point: each entry keeps
//! its shape signature from when it entered, and a full list drops
//! points below its worst margin before shaping them.
//!
//! Tickets only matter while masters contend for the bus. A
//! (burst, load-scale) cell whose predictions cannot depend on the
//! weights is *weight-blind*: every round-robin cell, and every
//! lottery or deficit-RR cell whose summed cycle demand `Σ λ·E[t]`
//! stays at most `1 − 10⁻⁶`, so every master is granted its full
//! demand whatever its tickets. The scan evaluates such a cell once,
//! at its all-ones point, and counts the rest
//! ([`SearchReport::evaluated`] against [`SearchReport::scanned`]).
//! It still offers the cell's points to the short list in scan order,
//! but only until the list has settled — no list, or a full one whose
//! worst margin is at least the cell's — since from then on a repeated
//! shape arrives at the same margin with a larger ticket sum and a new
//! shape cannot outrank the worst entry. TDMA and static-priority
//! cells evaluate every point: the slot-alignment wait and Cobham's
//! class order read the weights at any load.
//!
//! ```
//! use analytic::{Protocol, SearchSpace, SlaTarget, TargetKind, TrafficInput};
//! use socsim::BusConfig;
//! use traffic_gen::SizeDist;
//!
//! let traffic = vec![
//!     TrafficInput { lambda: 0.04, size: SizeDist::fixed(16), stall: None };
//!     4
//! ];
//! let mut space = SearchSpace::new(Protocol::LotteryStatic, BusConfig::default(), traffic);
//! space.max_tickets = 8; // 8⁴ = 4096 points
//! let targets = [SlaTarget { master: 3, kind: TargetKind::MinShare(0.4) }];
//! let report = analytic::search(&space, &targets, 4).unwrap();
//! assert_eq!(report.scanned, 4096);
//! assert!(report.feasible > 0);
//! // The best candidate skews tickets toward master 3.
//! let best = &report.candidates[0];
//! assert_eq!(best.weights[3], *best.weights.iter().max().unwrap());
//! ```

use crate::model::{MasterModel, Prediction, Protocol, Scratch, SystemModel, MAX_MASTERS};
use socsim::BusConfig;
use traffic_gen::SizeDist;

/// The largest per-master ticket ceiling a [`SearchSpace`] accepts.
/// [`SearchSpace::dimension_for`] stops widening the grid here, and
/// it keeps every ticket count of the scan well inside `u32`.
pub const MAX_TICKETS: u32 = 4096;

/// One master's traffic, as the search sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficInput {
    /// Message arrival rate in messages per cycle (at load scale 1.0).
    pub lambda: f64,
    /// Message size distribution.
    pub size: SizeDist,
    /// Per-grant stall override (arbitration overhead + the addressed
    /// slave's wait states); `None` uses the bus default.
    pub stall: Option<u32>,
}

/// An SLA target the analytic scan scores candidates against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TargetKind {
    /// Bandwidth share (words per cycle) must be at least this.
    MinShare(f64),
    /// Bandwidth share must be at most this.
    MaxShare(f64),
    /// Mean latency in cycles per word must be at most this.
    MaxCyclesPerWord(f64),
    /// p99 per-message latency in cycles must be at most this.
    MaxP99(f64),
}

/// A target bound to one master.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaTarget {
    /// Master index the target constrains.
    pub master: usize,
    /// The constraint.
    pub kind: TargetKind,
}

impl SlaTarget {
    /// Normalized slack of `pred` against this target: positive when
    /// satisfied (1.0 = met with 100% headroom), negative when
    /// violated, `-1.0` when the predictor declares the metric
    /// unbounded (unstable queue).
    pub fn slack(&self, pred: &Prediction) -> f64 {
        fn headroom(limit: f64, value: Option<f64>) -> f64 {
            match value {
                None => -1.0,
                Some(v) => (limit - v) / limit.max(f64::MIN_POSITIVE),
            }
        }
        match self.kind {
            TargetKind::MinShare(min) => (pred.share - min) / min.max(f64::MIN_POSITIVE),
            TargetKind::MaxShare(max) => (max - pred.share) / max.max(f64::MIN_POSITIVE),
            TargetKind::MaxCyclesPerWord(max) => headroom(max, pred.cycles_per_word),
            TargetKind::MaxP99(max) => headroom(max, pred.p99_latency),
        }
    }
}

/// The design space a [`search`] scans exhaustively.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Arbitration protocol under design.
    pub protocol: Protocol,
    /// TDMA slots per weight unit (used only by [`Protocol::Tdma2Level`]).
    pub tdma_block: u32,
    /// DRR quantum unit in words per weight per round (used only by
    /// [`Protocol::DeficitRoundRobin`]).
    pub drr_quantum: u32,
    /// Bus parameters; `max_burst` is overridden by each scanned burst.
    pub bus: BusConfig,
    /// Per-master traffic at load scale 1.0.
    pub traffic: Vec<TrafficInput>,
    /// Every master's ticket count scans `1..=max_tickets`; at most
    /// [`MAX_TICKETS`].
    pub max_tickets: u32,
    /// Burst limits to scan.
    pub bursts: Vec<u32>,
    /// Load multipliers to scan (applied to every master's rate).
    pub load_scales: Vec<f64>,
}

impl SearchSpace {
    /// A space scanning tickets `1..=32` per master at the bus's own
    /// burst limit and nominal load — for four masters, 1,048,576
    /// points.
    pub fn new(protocol: Protocol, bus: BusConfig, traffic: Vec<TrafficInput>) -> Self {
        SearchSpace {
            protocol,
            tdma_block: 6,
            drr_quantum: 8,
            bursts: vec![bus.max_burst],
            bus,
            traffic,
            max_tickets: 32,
            load_scales: vec![1.0],
        }
    }

    /// Number of design points the scan will visit
    /// (`max_tickets^masters × bursts × load_scales`), saturating at
    /// `u64::MAX`.
    pub fn points(&self) -> u64 {
        let per_cell = (u128::from(self.max_tickets))
            .checked_pow(self.traffic.len() as u32)
            .unwrap_or(u128::MAX);
        let cells = (self.bursts.len() as u128).saturating_mul(self.load_scales.len() as u128);
        u64::try_from(per_cell.saturating_mul(cells)).unwrap_or(u64::MAX)
    }

    /// Raises `max_tickets` until the scan covers at least
    /// `target` points (useful to dimension "scan a million points"
    /// requests regardless of master count).
    pub fn dimension_for(&mut self, target: u64) {
        while self.points() < target && self.max_tickets < MAX_TICKETS {
            self.max_tickets += 1;
        }
    }

    fn validate(&self) -> Result<(), String> {
        let n = self.traffic.len();
        if n == 0 || n > MAX_MASTERS {
            return Err(format!("search supports 1..={MAX_MASTERS} masters, got {n}"));
        }
        if self.max_tickets == 0 || self.max_tickets > MAX_TICKETS {
            return Err(format!(
                "max_tickets must be in 1..={MAX_TICKETS}, got {}",
                self.max_tickets
            ));
        }
        if self.bursts.is_empty() || self.bursts.contains(&0) {
            return Err("bursts must be non-empty and nonzero".into());
        }
        if self.load_scales.is_empty() {
            return Err("load_scales must be non-empty".into());
        }
        if self.load_scales.iter().any(|&s| s.is_nan() || s < 0.0 || !s.is_finite()) {
            return Err("load scales must be finite and >= 0".into());
        }
        Ok(())
    }
}

/// One short-listed design point with its predicted metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Ticket/weight vector, in master order.
    pub weights: Vec<u32>,
    /// Burst limit of this point.
    pub burst: u32,
    /// Load multiplier of this point.
    pub load_scale: f64,
    /// Worst normalized target slack (higher = more headroom).
    pub margin: f64,
    /// Predicted per-master metrics at this point.
    pub predicted: Vec<Prediction>,
}

/// The result of an analytic design-space scan.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// Design points accounted for: every point of the space.
    pub scanned: u64,
    /// Closed-form evaluations actually run. Equal to `scanned` except
    /// for weight-blind cells, where one evaluation stands for the
    /// whole (burst, load-scale) cell: every round-robin cell, and
    /// every lottery or deficit-RR cell whose summed cycle demand
    /// leaves the bus unsaturated by at least `10⁻⁶`.
    pub evaluated: u64,
    /// Points satisfying every target.
    pub feasible: u64,
    /// Best feasible candidates, one per allocation shape, by
    /// descending margin.
    pub candidates: Vec<Candidate>,
}

/// Exhaustively scans `space`, scoring every point against `targets`,
/// and returns up to `top` shape-deduplicated feasible candidates by
/// descending worst-target slack.
///
/// # Errors
///
/// Returns a description when the space is degenerate (no masters,
/// zero tickets or bursts, a target naming an out-of-range master).
pub fn search(
    space: &SearchSpace,
    targets: &[SlaTarget],
    top: usize,
) -> Result<SearchReport, String> {
    space.validate()?;
    let n = space.traffic.len();
    if let Some(t) = targets.iter().find(|t| t.master >= n) {
        return Err(format!("target names master {} but the system has {n}", t.master));
    }

    let mut scratch = Scratch::new();
    let mut scanned = 0u64;
    let mut evaluated = 0u64;
    let mut feasible = 0u64;
    let mut shortlist = Shortlist::new(top);
    let cell_points = u64::from(space.max_tickets).checked_pow(n as u32).unwrap_or(u64::MAX);

    for &burst in &space.bursts {
        let bus = BusConfig { max_burst: burst, ..space.bus };
        let base: Vec<MasterModel> = space
            .traffic
            .iter()
            .map(|t| {
                MasterModel::new(
                    t.lambda,
                    t.size,
                    1,
                    t.stall.unwrap_or_else(|| bus.per_grant_overhead()),
                    burst,
                )
            })
            .collect();
        let ctx = ShapeCtx { protocol: space.protocol, drr_quantum: space.drr_quantum, burst };
        for &scale in &space.load_scales {
            let masters: Vec<MasterModel> =
                base.iter().map(|m| MasterModel { lambda: m.lambda * scale, ..*m }).collect();
            let mut model = SystemModel::new(space.protocol, masters)
                .with_tdma_block(space.tdma_block)
                .with_drr_quantum(space.drr_quantum);
            model.max_burst = burst;
            // A weight-blind cell predicts every point exactly like its
            // all-ones point, so that one evaluation stands for the cell.
            let blind = model.weight_blind();
            let stands_for = if blind { cell_points } else { 1 };
            let mut weights = [1u32; MAX_MASTERS];
            let mut margin = f64::NAN;
            for point in 0u64.. {
                if point == 0 || !blind {
                    margin = evaluate(&mut model, &weights[..n], targets, &mut scratch);
                    evaluated += 1;
                    scanned = scanned.saturating_add(stands_for);
                    if margin >= 0.0 {
                        feasible = feasible.saturating_add(stands_for);
                    }
                }
                if margin >= 0.0 {
                    shortlist.offer(ctx, &weights[..n], scale, margin, &scratch.preds[..n]);
                }
                // A blind cell still offers its points in scan order,
                // but only until no further offer can change the list:
                // a repeated shape arrives at the same margin with a
                // larger ticket sum, and a new one at a margin no
                // higher than the full list's worst. A cell with a
                // single shape is settled by its first offer.
                if blind && (margin < 0.0 || shortlist.settled(margin) || ctx.single_shape()) {
                    break;
                }
                if !advance(&mut weights[..n], space.max_tickets) {
                    break;
                }
            }
        }
    }

    let mut candidates = shortlist.candidates;
    candidates.sort_by(|a, b| b.margin.partial_cmp(&a.margin).expect("finite margins"));
    Ok(SearchReport { scanned, evaluated, feasible, candidates })
}

/// Evaluates `model` at `weights` into `scratch` and returns the worst
/// normalized slack over `targets`.
fn evaluate(
    model: &mut SystemModel,
    weights: &[u32],
    targets: &[SlaTarget],
    scratch: &mut Scratch,
) -> f64 {
    for (m, &w) in model.masters.iter_mut().zip(weights) {
        m.weight = w;
    }
    model.evaluate(scratch);
    targets.iter().map(|t| t.slack(&scratch.preds[t.master])).fold(f64::INFINITY, f64::min)
}

/// Steps the odometer over the ticket grid `1..=max_tickets` per
/// master, master 0 fastest; returns `false` once it wraps back to the
/// all-ones vector.
fn advance(weights: &mut [u32], max_tickets: u32) -> bool {
    for w in weights.iter_mut() {
        *w += 1;
        if *w <= max_tickets {
            return true;
        }
        *w = 1;
    }
    false
}

/// The dedup context of one scan cell: the protocol plus the knobs
/// that decide when two weight vectors predict identically.
#[derive(Clone, Copy)]
struct ShapeCtx {
    protocol: Protocol,
    drr_quantum: u32,
    burst: u32,
}

impl ShapeCtx {
    /// Whether every weight vector has the same [`shape`]: always for
    /// round-robin, and for deficit RR when one quantum already fills
    /// a burst.
    fn single_shape(self) -> bool {
        match self.protocol {
            Protocol::RoundRobin => true,
            Protocol::DeficitRoundRobin => self.drr_quantum.max(1) >= self.burst.max(1),
            _ => false,
        }
    }
}

/// The shape under which a weight vector is deduplicated: ticket
/// ratios are what the models respond to, so `(2,4,6,8)` folds into
/// `(1,2,3,4)`. Static priority only reacts to the weight *order*, so
/// its shape is the dense rank vector. DRR first clamps each weight to
/// its effective per-round words `min(w · quantum, burst)` — beyond
/// one full burst per round, more tickets change nothing. TDMA keeps
/// exact weights — its slot-alignment wait grows with absolute frame
/// length.
fn shape(ctx: ShapeCtx, weights: &[u32], out: &mut [u32; MAX_MASTERS]) {
    let n = weights.len();
    match ctx.protocol {
        Protocol::Tdma2Level => out[..n].copy_from_slice(weights),
        Protocol::RoundRobin => out[..n].fill(1),
        Protocol::StaticPriority => {
            for i in 0..n {
                out[i] = weights.iter().filter(|&&w| w < weights[i]).count() as u32;
            }
        }
        _ => {
            let eff = |w: u32| match ctx.protocol {
                Protocol::DeficitRoundRobin => {
                    w.saturating_mul(ctx.drr_quantum.max(1)).min(ctx.burst.max(1))
                }
                _ => w,
            };
            let g = weights.iter().fold(0u32, |g, &w| gcd(g, eff(w))).max(1);
            for i in 0..n {
                out[i] = eff(weights[i]) / g;
            }
        }
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The short list under construction: at most `top` feasible
/// candidates, one per (burst, load-scale, shape), each with its shape
/// signature computed once when it entered.
struct Shortlist {
    top: usize,
    candidates: Vec<Candidate>,
    /// `sigs[i]` is the shape of `candidates[i]`.
    sigs: Vec<[u32; MAX_MASTERS]>,
    /// The lowest margin on the list once it is full; `-∞` before.
    floor: f64,
}

impl Shortlist {
    fn new(top: usize) -> Self {
        Shortlist { top, candidates: Vec::new(), sigs: Vec::new(), floor: f64::NEG_INFINITY }
    }

    fn refresh_floor(&mut self) {
        self.floor = if self.candidates.len() >= self.top {
            self.candidates.iter().map(|c| c.margin).fold(f64::INFINITY, f64::min)
        } else {
            f64::NEG_INFINITY
        };
    }

    /// Whether offering further points of one weight-blind cell at
    /// `margin` would leave the list as it is: there is no list, or it
    /// is full and none of its entries ranks below `margin`.
    fn settled(&self, margin: f64) -> bool {
        self.top == 0 || self.floor >= margin
    }

    fn offer(
        &mut self,
        ctx: ShapeCtx,
        weights: &[u32],
        load_scale: f64,
        margin: f64,
        preds: &[Prediction],
    ) {
        // Below the floor of a full list a point can neither beat a
        // same-shape entry nor evict the worst one.
        if self.top == 0 || margin < self.floor - f64::EPSILON {
            return;
        }
        let mut sig = [0u32; MAX_MASTERS];
        shape(ctx, weights, &mut sig);
        // Same shape in the same (burst, scale) cell: keep the best
        // margin, and at equal margin the smallest ticket sum (the
        // cheapest wheel).
        if let Some(existing) = self.candidates.iter_mut().zip(&self.sigs).find_map(|(c, s)| {
            (c.burst == ctx.burst && c.load_scale == load_scale && *s == sig).then_some(c)
        }) {
            let sum: u32 = weights.iter().sum();
            let existing_sum: u32 = existing.weights.iter().sum();
            if margin > existing.margin + f64::EPSILON
                || (margin >= existing.margin - f64::EPSILON && sum < existing_sum)
            {
                existing.weights.copy_from_slice(weights);
                existing.margin = margin;
                existing.predicted.copy_from_slice(preds);
                self.refresh_floor();
            }
            return;
        }
        if self.candidates.len() >= self.top {
            let (worst_idx, worst) = self
                .candidates
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.margin.partial_cmp(&b.1.margin).expect("finite"))
                .expect("non-empty");
            if margin <= worst.margin {
                return;
            }
            self.candidates.swap_remove(worst_idx);
            self.sigs.swap_remove(worst_idx);
        }
        self.candidates.push(Candidate {
            weights: weights.to_vec(),
            burst: ctx.burst,
            load_scale,
            margin,
            predicted: preds.to_vec(),
        });
        self.sigs.push(sig);
        self.refresh_floor();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BLIND_HEADROOM;

    fn traffic(n: usize, lambda: f64) -> Vec<TrafficInput> {
        vec![TrafficInput { lambda, size: SizeDist::fixed(16), stall: None }; n]
    }

    fn space(max_tickets: u32) -> SearchSpace {
        let mut s =
            SearchSpace::new(Protocol::LotteryStatic, BusConfig::default(), traffic(4, 0.09));
        s.max_tickets = max_tickets;
        s
    }

    #[test]
    fn points_counts_the_grid() {
        let mut s = space(32);
        assert_eq!(s.points(), 1 << 20);
        s.bursts = vec![8, 16];
        s.load_scales = vec![0.8, 1.0, 1.2];
        assert_eq!(s.points(), 6 << 20);
    }

    #[test]
    fn dimension_for_reaches_the_target() {
        let mut s = space(1);
        s.dimension_for(1_000_000);
        assert!(s.points() >= 1_000_000);
        assert_eq!(s.max_tickets, 32, "4 masters need 32 tickets for 1M points");
    }

    #[test]
    fn feasible_share_target_produces_candidates() {
        let targets = [SlaTarget { master: 0, kind: TargetKind::MinShare(0.5) }];
        let report = search(&space(6), &targets, 5).unwrap();
        assert_eq!(report.scanned, 1296);
        assert!(report.feasible > 0);
        assert!(!report.candidates.is_empty());
        for c in &report.candidates {
            assert!(c.margin >= 0.0);
            assert!(c.predicted[0].share >= 0.5 - 1e-9, "{c:?}");
            // Master 0 must out-ticket the field to win half the bus.
            assert!(c.weights[0] > c.weights[1]);
        }
        // Sorted by descending margin.
        for pair in report.candidates.windows(2) {
            assert!(pair[0].margin >= pair[1].margin);
        }
    }

    #[test]
    fn impossible_target_reports_zero_feasible() {
        // Four saturating masters: nobody can hold 99% of the bus with
        // at most 6 tickets against three 1-ticket competitors.
        let targets = [SlaTarget { master: 0, kind: TargetKind::MinShare(0.99) }];
        let report = search(&space(6), &targets, 5).unwrap();
        assert_eq!(report.feasible, 0);
        assert!(report.candidates.is_empty());
    }

    #[test]
    fn shortlist_dedups_scaled_ticket_vectors() {
        // Every feasible point with shape k:1:1:1 collapses; distinct
        // shapes remain.
        let targets = [SlaTarget { master: 0, kind: TargetKind::MinShare(0.25) }];
        let report = search(&space(4), &targets, 16).unwrap();
        let mut shapes: Vec<Vec<u32>> = Vec::new();
        for c in &report.candidates {
            let mut sig = [0u32; MAX_MASTERS];
            let ctx = ShapeCtx { protocol: Protocol::LotteryStatic, drr_quantum: 8, burst: 16 };
            shape(ctx, &c.weights, &mut sig);
            let sig = sig[..4].to_vec();
            assert!(!shapes.contains(&sig), "duplicate shape {sig:?}");
            shapes.push(sig);
        }
    }

    #[test]
    fn latency_targets_reject_unstable_points() {
        // Saturated lottery queues are unstable: no point satisfies a
        // finite mean-latency ceiling.
        let targets = [SlaTarget { master: 0, kind: TargetKind::MaxCyclesPerWord(100.0) }];
        let report = search(&space(4), &targets, 5).unwrap();
        assert_eq!(report.feasible, 0);
        // At a third of the load the queues are stable and candidates
        // appear.
        let mut light = space(4);
        light.traffic = traffic(4, 0.01);
        let report = search(&light, &targets, 5).unwrap();
        assert!(report.feasible > 0);
    }

    #[test]
    fn degenerate_spaces_are_rejected() {
        let mut s = space(4);
        s.traffic.clear();
        assert!(search(&s, &[], 5).is_err());
        let mut s = space(0);
        s.max_tickets = 0;
        assert!(search(&s, &[], 5).is_err());
        s.max_tickets = MAX_TICKETS + 1;
        let e = search(&s, &[], 5).unwrap_err();
        assert!(e.contains("4096"), "{e}");
        let s = space(4);
        let bad = [SlaTarget { master: 9, kind: TargetKind::MinShare(0.1) }];
        assert!(search(&s, &bad, 5).is_err());
    }

    #[test]
    fn weight_blind_scan_evaluates_one_point_per_cell() {
        let mut s = space(5);
        s.protocol = Protocol::RoundRobin;
        s.bursts = vec![8, 16];
        s.load_scales = vec![0.5, 1.0, 1.5];
        let targets = [SlaTarget { master: 0, kind: TargetKind::MinShare(0.2) }];
        let report = search(&s, &targets, 4).unwrap();
        assert_eq!(report.evaluated, 6, "one evaluation per (burst, load-scale) cell");
        assert_eq!(report.scanned, s.points());
        assert!(report.feasible > 0);
        assert_eq!(report.feasible % 625, 0, "feasibility holds for whole cells");
        for c in &report.candidates {
            assert!(c.weights.iter().all(|&w| w == 1), "{c:?}");
        }
        // A weight-aware protocol evaluates every point.
        s.protocol = Protocol::LotteryStatic;
        let report = search(&s, &targets, 4).unwrap();
        assert_eq!(report.evaluated, report.scanned);
    }

    /// Two masters of 16-word messages with no stall, so each one's
    /// cycle demand is exactly `16·λ`, offering `total` between them.
    fn two_masters(protocol: Protocol, total: f64, max_tickets: u32) -> SearchSpace {
        let m = TrafficInput { lambda: total / 32.0, size: SizeDist::fixed(16), stall: Some(0) };
        let mut s = SearchSpace::new(protocol, BusConfig::default(), vec![m; 2]);
        s.max_tickets = max_tickets;
        s
    }

    fn weights(report: &SearchReport) -> Vec<Vec<u32>> {
        report.candidates.iter().map(|c| c.weights.clone()).collect()
    }

    #[test]
    fn unsaturated_lottery_cell_evaluates_once() {
        let s = two_masters(Protocol::LotteryStatic, 0.5, 4);
        let targets = [SlaTarget { master: 0, kind: TargetKind::MinShare(0.2) }];
        let report = search(&s, &targets, 6).unwrap();
        assert_eq!((report.scanned, report.evaluated, report.feasible), (16, 1, 16));
        // The first six shapes in scan order, each at its smallest
        // ticket sum: (2,2) repeats (1,1) and is skipped.
        assert_eq!(weights(&report), [[1, 1], [2, 1], [3, 1], [4, 1], [1, 2], [3, 2]]);
        for c in &report.candidates {
            assert_eq!(c.predicted, report.candidates[0].predicted, "tickets change nothing");
            assert!((c.predicted[0].share - 0.25).abs() < 1e-12, "{c:?}");
        }
    }

    #[test]
    fn cells_just_above_the_headroom_evaluate_every_point() {
        let targets = [SlaTarget { master: 0, kind: TargetKind::MinShare(0.1) }];
        let below = two_masters(Protocol::LotteryStatic, 1.0 - 2.0 * BLIND_HEADROOM, 4);
        assert_eq!(search(&below, &targets, 3).unwrap().evaluated, 1);
        let above = two_masters(Protocol::LotteryStatic, 1.0 - 0.5 * BLIND_HEADROOM, 4);
        let report = search(&above, &targets, 3).unwrap();
        assert_eq!((report.scanned, report.evaluated), (16, 16));
    }

    #[test]
    fn drr_cell_with_fewer_shapes_than_the_list_offers_them_all() {
        // Quantum 8 on a 16-word burst: one ticket moves 8 words per
        // round, two or more move 16, so two masters have only three
        // shapes.
        let mut s = two_masters(Protocol::DeficitRoundRobin, 0.5, 5);
        s.drr_quantum = 8;
        let targets = [SlaTarget { master: 1, kind: TargetKind::MinShare(0.2) }];
        let report = search(&s, &targets, 8).unwrap();
        assert_eq!((report.scanned, report.evaluated, report.feasible), (25, 1, 25));
        assert_eq!(weights(&report), [[1, 1], [2, 1], [1, 2]]);
        // A quantum of a whole burst leaves a single shape.
        s.drr_quantum = 16;
        let report = search(&s, &targets, 8).unwrap();
        assert_eq!(weights(&report), [[1, 1]]);
    }

    #[test]
    fn earlier_cells_outranking_a_blind_cell_keep_the_list() {
        // Latency headroom shrinks with load: the half-load cell fills
        // the list, and the full-load cell's points cannot enter it.
        let mut s = two_masters(Protocol::LotteryStatic, 0.8, 4);
        s.load_scales = vec![0.5, 1.0];
        let targets = [SlaTarget { master: 0, kind: TargetKind::MaxCyclesPerWord(4.0) }];
        let report = search(&s, &targets, 3).unwrap();
        assert_eq!((report.scanned, report.evaluated, report.feasible), (32, 2, 32));
        assert_eq!(weights(&report), [[1, 1], [2, 1], [3, 1]]);
        assert!(report.candidates.iter().all(|c| c.load_scale == 0.5));
        // Alone, the full-load cell short-lists its own shapes.
        s.load_scales = vec![1.0];
        let alone = search(&s, &targets, 3).unwrap();
        assert!(alone.candidates.iter().all(|c| c.load_scale == 1.0));
        assert!(alone.candidates[0].margin < report.candidates[2].margin);
    }

    #[test]
    fn load_scale_zero_is_graceful() {
        let mut s = space(2);
        s.load_scales = vec![0.0];
        let targets = [SlaTarget { master: 0, kind: TargetKind::MaxCyclesPerWord(100.0) }];
        let report = search(&s, &targets, 3).unwrap();
        assert_eq!(report.scanned, 16);
        assert_eq!(report.feasible, 16, "an idle bus satisfies any latency ceiling");
    }
}
