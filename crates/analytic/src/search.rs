//! Instant design-space search: scan millions of (tickets, burst,
//! load-scale) points through the closed-form predictors, short-list
//! the candidates that satisfy a set of SLA targets, and hand the
//! survivors to the simulator for confirmation.
//!
//! Scoring a point allocates nothing and costs a few tens of
//! nanoseconds, so a single thread covers a 4-master × 32-ticket grid
//! (1,048,576 points) in a few hundredths of a second. Equivalent
//! ticket vectors are folded together in the short list: scaling every
//! ticket count by a common factor changes nothing for the lottery,
//! deficit-RR, or priority models (only the order matters for the
//! latter), so the short list reports each *allocation shape* once, at
//! its smallest ticket sum.
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
//! shape cannot outrank the worst entry.
//!
//! Every other cell is prepared once and then scored point by point:
//!
//! - **Water-fill cells** (lottery, deficit RR, TDMA) compute each
//!   master's constants once, and tabulate per master and ticket count
//!   the weight the fill divides by, `units / weight`, `weight · cost`
//!   and TDMA's `block · weight`; the odometer reads the tables for
//!   the masters it moved. A point is scored against its targets only:
//!   the water fill runs for every master, but only targeted masters
//!   are converted to shares, the reduced-rate M/G/1 pass runs only
//!   for masters with a latency target, and scoring stops at the first
//!   missed target. A point that enters the short list is then
//!   evaluated in full by [`SystemModel::evaluate`], so every stored
//!   prediction, and every margin, is bit-identical to a full
//!   evaluation of that point.
//! - **Static-priority cells** depend on the weights only through the
//!   service order they induce (descending weight, ties by lower
//!   index), which both the waterfall and Cobham's pass follow. Each
//!   distinct order is evaluated once per cell and its margin reused,
//!   so [`SearchReport::evaluated`] counts orders: at most `n!` for
//!   `n` masters, 6 for three. Systems of more than 8 masters
//!   evaluate every point.
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

use crate::model::{
    self, drr_effective, MasterModel, Prediction, Protocol, Scratch, SystemModel, MAX_MASTERS,
};
use crate::{alloc, latency};
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

impl TargetKind {
    /// The target's bound.
    pub(crate) fn bound(self) -> f64 {
        match self {
            TargetKind::MinShare(b)
            | TargetKind::MaxShare(b)
            | TargetKind::MaxCyclesPerWord(b)
            | TargetKind::MaxP99(b) => b,
        }
    }

    /// Whether the target reads a latency prediction rather than a
    /// bandwidth share.
    pub(crate) fn reads_latency(self) -> bool {
        matches!(self, TargetKind::MaxCyclesPerWord(_) | TargetKind::MaxP99(_))
    }
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
    /// Closed-form evaluations actually run: one per point, except
    /// that one evaluation stands for a whole weight-blind (burst,
    /// load-scale) cell — every round-robin cell, and every lottery or
    /// deficit-RR cell whose summed cycle demand leaves the bus
    /// unsaturated by at least `10⁻⁶` — and one per distinct priority
    /// order in a static-priority cell of at most 8 masters. The full
    /// evaluations of short-listed points are not counted.
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
/// zero tickets or bursts, a target naming an out-of-range master) or
/// a target's bound is not finite.
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
    if let Some(t) = targets.iter().find(|t| !t.kind.bound().is_finite()) {
        return Err(format!("target on master {} has a non-finite bound: {:?}", t.master, t.kind));
    }

    let mut scan = Scan {
        targets,
        n,
        scratch: Scratch::new(),
        evaluated: 0,
        feasible: 0,
        shortlist: Shortlist::new(top),
    };
    let mut scanned = 0u64;
    let cell_points = u64::from(space.max_tickets).checked_pow(n as u32).unwrap_or(u64::MAX);
    let mut prepared = Prepared::new(space, targets);
    let order_keyed = space.protocol == Protocol::StaticPriority && n <= ORDER_KEYED_MASTERS;
    let mut orders: Vec<Option<f64>> = vec![None; if order_keyed { (1..=n).product() } else { 0 }];

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
            scanned = scanned.saturating_add(cell_points);
            let cell = Cell { model, ctx, scale, max_tickets: space.max_tickets };
            if cell.model.weight_blind() {
                scan.blind_cell(cell, cell_points);
            } else if space.protocol == Protocol::StaticPriority {
                orders.fill(None);
                scan.priority_cell(cell, &mut orders);
            } else {
                prepared.prepare(&cell.model);
                scan.prepared_cell(cell, &mut prepared);
            }
        }
    }

    let mut candidates = scan.shortlist.candidates;
    candidates.sort_by(|a, b| b.margin.partial_cmp(&a.margin).expect("finite margins"));
    Ok(SearchReport { scanned, evaluated: scan.evaluated, feasible: scan.feasible, candidates })
}

/// Static-priority systems of at most this many masters evaluate each
/// priority order once per cell, keyed in a table of `n!` margins
/// (40,320 at the limit); larger ones evaluate every point.
const ORDER_KEYED_MASTERS: usize = 8;

/// One (burst, load-scale) cell of the scan: its model, with weights
/// rewritten point by point, and the context its points share.
struct Cell {
    model: SystemModel,
    ctx: ShapeCtx,
    scale: f64,
    max_tickets: u32,
}

/// The scan's running state across cells.
struct Scan<'a> {
    targets: &'a [SlaTarget],
    n: usize,
    scratch: Scratch,
    evaluated: u64,
    feasible: u64,
    shortlist: Shortlist,
}

impl Scan<'_> {
    /// A weight-blind cell: one evaluation, at the all-ones point,
    /// stands for all `cell_points` points. The cell still offers its
    /// points to the short list in scan order, but only until no
    /// further offer can change the list: a repeated shape arrives at
    /// the same margin with a larger ticket sum, and a new one at a
    /// margin no higher than the full list's worst. A cell with a
    /// single shape is settled by its first offer.
    fn blind_cell(&mut self, mut cell: Cell, cell_points: u64) {
        let n = self.n;
        let mut weights = [1u32; MAX_MASTERS];
        let margin = evaluate(&mut cell.model, &weights[..n], self.targets, &mut self.scratch);
        self.evaluated += 1;
        if margin < 0.0 {
            return;
        }
        self.feasible = self.feasible.saturating_add(cell_points);
        let preds = &self.scratch.preds[..n];
        loop {
            self.shortlist.offer(cell.ctx, &weights[..n], cell.scale, margin, |out| {
                out.copy_from_slice(preds)
            });
            if self.shortlist.settled(margin) || cell.ctx.single_shape() {
                return;
            }
            if advance(&mut weights[..n], cell.max_tickets).is_none() {
                return;
            }
        }
    }

    /// A static-priority cell: a point's predictions depend only on
    /// its priority order ([`order_rank`]), so each order is evaluated
    /// once and its margin kept in `orders` for every point that
    /// induces it. With no table (`orders` empty), every point is
    /// evaluated.
    fn priority_cell(&mut self, mut cell: Cell, orders: &mut [Option<f64>]) {
        let n = self.n;
        let mut weights = [1u32; MAX_MASTERS];
        loop {
            let mut slot = (!orders.is_empty()).then(|| &mut orders[order_rank(&weights[..n])]);
            let margin = match slot.as_deref() {
                Some(&Some(margin)) => margin,
                _ => {
                    self.evaluated += 1;
                    let margin =
                        evaluate(&mut cell.model, &weights[..n], self.targets, &mut self.scratch);
                    if let Some(slot) = slot.as_mut() {
                        **slot = Some(margin);
                    }
                    margin
                }
            };
            self.offer(&mut cell, &weights[..n], margin);
            if advance(&mut weights[..n], cell.max_tickets).is_none() {
                return;
            }
        }
    }

    /// A water-fill cell, scored at every point by `prepared`, which
    /// reads its per-ticket tables for the masters the odometer moved.
    fn prepared_cell(&mut self, mut cell: Cell, prepared: &mut Prepared) {
        let n = self.n;
        let mut weights = [1u32; MAX_MASTERS];
        for i in 0..n {
            prepared.set(i, 1);
        }
        loop {
            self.evaluated += 1;
            let margin = prepared.margin(&cell.model, self.targets);
            self.offer(&mut cell, &weights[..n], margin);
            let Some(moved) = advance(&mut weights[..n], cell.max_tickets) else { return };
            for (i, &w) in weights[..=moved].iter().enumerate() {
                prepared.set(i, w);
            }
        }
    }

    /// Counts a feasible point and offers it to the short list, which
    /// predicts it in full only if it enters.
    fn offer(&mut self, cell: &mut Cell, weights: &[u32], margin: f64) {
        if margin < 0.0 {
            return;
        }
        self.feasible += 1;
        let Scan { scratch, shortlist, .. } = self;
        shortlist.offer(cell.ctx, weights, cell.scale, margin, |out| {
            evaluate(&mut cell.model, weights, &[], scratch);
            out.copy_from_slice(&scratch.preds[..weights.len()]);
        });
    }
}

/// Evaluates `model` at `weights` into `scratch` and scores it like
/// [`worst_slack`].
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
    worst_slack(targets, |t| scratch.preds[t.master])
}

/// The worst normalized slack over `targets`, each scored against the
/// prediction `predict` gives for its master, when every target is met;
/// otherwise the first negative slack, since the scan only needs to
/// know that an infeasible point is infeasible.
fn worst_slack(targets: &[SlaTarget], mut predict: impl FnMut(&SlaTarget) -> Prediction) -> f64 {
    let mut worst = f64::INFINITY;
    for t in targets {
        let slack = t.slack(&predict(t));
        if slack < 0.0 {
            return slack;
        }
        worst = worst.min(slack);
    }
    worst
}

/// The index of the priority order `weights` induce among the `n!`
/// orders of `n` masters. Static priority serves masters by descending
/// weight, ties broken by lower index, so a master `j` is served
/// before a lower-indexed master `i` exactly when `weights[j] >
/// weights[i]`; the counts of such `j` for each `i` are the order's
/// inversion table, which determines the order, and read as a
/// factorial-base number they give its index.
fn order_rank(weights: &[u32]) -> usize {
    let n = weights.len();
    let mut rank = 0;
    for (i, &w) in weights.iter().enumerate() {
        let above = weights[i + 1..].iter().filter(|&&later| later > w).count();
        rank = rank * (n - i) + above;
    }
    rank
}

/// The scan's evaluator for the water-fill protocols (lottery, deficit
/// round-robin, TDMA): per-cell constants, per-(master, ticket) tables,
/// and a target-driven margin that converts only targeted masters to
/// shares and runs the reduced-rate M/G/1 pass only when a target
/// reads latency. It computes exactly what [`SystemModel::evaluate`]
/// computes for the metrics the targets read, from the same shared
/// formulas, so every margin is bit-identical to a full evaluation's.
struct Prepared {
    n: usize,
    max_tickets: usize,
    tdma: bool,
    latency: bool,
    /// Resource units demanded per cycle and bus cycles per unit.
    units: [f64; MAX_MASTERS],
    cost: [f64; MAX_MASTERS],
    /// Per-(master, ticket) tables at `i · max_tickets + w − 1`: the
    /// fill weight, `units / weight`, `weight · cost`, and the TDMA
    /// block `tdma_block · w`.
    weight_at: Vec<f64>,
    ratio_at: Vec<f64>,
    wcost_at: Vec<f64>,
    slot_at: Vec<f64>,
    /// The current point's table entries, per master.
    weight: [f64; MAX_MASTERS],
    ratio: [f64; MAX_MASTERS],
    wcost: [f64; MAX_MASTERS],
    slot: [f64; MAX_MASTERS],
    /// Granted units, then granted cycles, per master.
    alloc: [f64; MAX_MASTERS],
    cycles: [f64; MAX_MASTERS],
}

impl Prepared {
    fn new(space: &SearchSpace, targets: &[SlaTarget]) -> Self {
        let n = space.traffic.len();
        let max_tickets = space.max_tickets as usize;
        let water_fill = !matches!(space.protocol, Protocol::StaticPriority | Protocol::RoundRobin);
        let table = || if water_fill { vec![0.0; n * max_tickets] } else { Vec::new() };
        Prepared {
            n,
            max_tickets,
            tdma: space.protocol == Protocol::Tdma2Level,
            latency: targets.iter().any(|t| t.kind.reads_latency()),
            units: [0.0; MAX_MASTERS],
            cost: [0.0; MAX_MASTERS],
            weight_at: table(),
            ratio_at: table(),
            wcost_at: table(),
            slot_at: table(),
            weight: [0.0; MAX_MASTERS],
            ratio: [0.0; MAX_MASTERS],
            wcost: [0.0; MAX_MASTERS],
            slot: [0.0; MAX_MASTERS],
            alloc: [0.0; MAX_MASTERS],
            cycles: [0.0; MAX_MASTERS],
        }
    }

    /// Computes the cell's constants and tables from its model.
    fn prepare(&mut self, model: &SystemModel) {
        let space = model.protocol.space();
        let block = f64::from(model.tdma_block);
        for (i, m) in model.masters.iter().enumerate() {
            let (units, cost) = space.units_and_cost(m);
            self.units[i] = units;
            self.cost[i] = cost;
            for w in 1..=self.max_tickets as u32 {
                let at = i * self.max_tickets + w as usize - 1;
                let weight = model.fill_weight(w);
                self.weight_at[at] = weight;
                self.ratio_at[at] = units / weight;
                self.wcost_at[at] = weight * cost;
                self.slot_at[at] = block * f64::from(w);
            }
        }
    }

    /// Sets master `i`'s weight to `w` tickets.
    fn set(&mut self, i: usize, w: u32) {
        let at = i * self.max_tickets + w as usize - 1;
        self.weight[i] = self.weight_at[at];
        self.ratio[i] = self.ratio_at[at];
        self.wcost[i] = self.wcost_at[at];
        self.slot[i] = self.slot_at[at];
    }

    /// Scores the current point against `targets` like [`worst_slack`].
    fn margin(&mut self, model: &SystemModel, targets: &[SlaTarget]) -> f64 {
        let n = self.n;
        alloc::water_fill(
            &self.units[..n],
            &self.weight[..n],
            &self.ratio[..n],
            &self.wcost[..n],
            1.0,
            &mut self.alloc[..n],
        );
        let (mut granted, mut frame) = (0.0, 0.0);
        if self.latency {
            for i in 0..n {
                self.cycles[i] = self.alloc[i] * self.cost[i];
            }
            granted = self.cycles[..n].iter().sum();
            if self.tdma {
                frame = self.slot[..n].iter().sum();
            }
        }
        worst_slack(targets, |t| {
            let (i, m) = (t.master, &model.masters[t.master]);
            if t.kind.reads_latency() {
                let extra = if self.tdma { latency::slot_wait(frame, self.slot[i]) } else { 0.0 };
                let (cycles_per_word, p99_latency) =
                    latency::sojourn(m, granted, self.cycles[i], extra);
                Prediction { cycles_per_word, p99_latency, ..Prediction::default() }
            } else {
                let (_, share) = model::granted(m, self.alloc[i], self.cost[i]);
                Prediction { share, ..Prediction::default() }
            }
        })
    }
}

/// Steps the odometer over the ticket grid `1..=max_tickets` per
/// master, master 0 fastest. Returns the highest master whose weight
/// changed (masters `0..=k` all did), or `None` once the odometer
/// wraps back to the all-ones vector.
fn advance(weights: &mut [u32], max_tickets: u32) -> Option<usize> {
    for (i, w) in weights.iter_mut().enumerate() {
        *w += 1;
        if *w <= max_tickets {
            return Some(i);
        }
        *w = 1;
    }
    None
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
                Protocol::DeficitRoundRobin => drr_effective(w, ctx.drr_quantum, ctx.burst),
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

    /// Offers a feasible point at `margin`; `predict` writes the
    /// point's full predictions, and runs only if the point enters the
    /// list.
    fn offer(
        &mut self,
        ctx: ShapeCtx,
        weights: &[u32],
        load_scale: f64,
        margin: f64,
        predict: impl FnOnce(&mut [Prediction]),
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
                predict(&mut existing.predicted);
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
        let mut predicted = vec![Prediction::default(); weights.len()];
        predict(&mut predicted);
        self.candidates.push(Candidate {
            weights: weights.to_vec(),
            burst: ctx.burst,
            load_scale,
            margin,
            predicted,
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
        for kind in [
            TargetKind::MinShare(f64::NAN),
            TargetKind::MaxShare(f64::INFINITY),
            TargetKind::MaxCyclesPerWord(f64::NEG_INFINITY),
            TargetKind::MaxP99(f64::NAN),
        ] {
            let e = search(&s, &[SlaTarget { master: 0, kind }], 5).unwrap_err();
            assert!(e.contains("non-finite bound"), "{e}");
        }
    }

    #[test]
    fn priority_cells_evaluate_each_order_once() {
        // Three masters have 3! = 6 priority orders, however many
        // ticket vectors induce them.
        let mut s = space(20);
        s.protocol = Protocol::StaticPriority;
        s.traffic.truncate(3);
        s.load_scales = vec![0.5, 1.0];
        let targets = [SlaTarget { master: 0, kind: TargetKind::MaxP99(500.0) }];
        let report = search(&s, &targets, 4).unwrap();
        assert_eq!(report.scanned, 2 * 8000);
        assert_eq!(report.evaluated, 2 * 6, "six orders per cell");
        // The scores match a full evaluation of any point.
        for c in &report.candidates {
            let mut model = SystemModel::new(
                Protocol::StaticPriority,
                s.traffic
                    .iter()
                    .zip(&c.weights)
                    .map(|(t, &w)| {
                        let stall = s.bus.per_grant_overhead();
                        MasterModel::new(t.lambda * c.load_scale, t.size, w, stall, c.burst)
                    })
                    .collect(),
            );
            model.max_burst = c.burst;
            assert_eq!(model.predict().masters, c.predicted, "{c:?}");
        }
        // Beyond eight masters there is no order table: every point is
        // evaluated.
        s.traffic = traffic(9, 0.01);
        s.max_tickets = 2;
        let report = search(&s, &targets, 4).unwrap();
        assert_eq!((report.scanned, report.evaluated), (2 * 512, 2 * 512));
    }

    #[test]
    fn order_rank_indexes_every_order_once() {
        // Every weight vector over 1..=4 for four masters lands on one
        // of 4! ranks, vectors inducing the same service order share
        // a rank, and all 24 ranks are reached.
        let mut seen = std::collections::HashMap::new();
        let mut weights = [1u32; 4];
        loop {
            let mut order: Vec<usize> = (0..4).collect();
            order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
            let rank = order_rank(&weights);
            assert!(rank < 24);
            assert_eq!(*seen.entry(rank).or_insert_with(|| order.clone()), order, "{weights:?}");
            if advance(&mut weights, 4).is_none() {
                break;
            }
        }
        assert_eq!(seen.len(), 24);
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
