//! The declarative scenario data model.
//!
//! A [`Scenario`] is the in-memory form of one `.scenario` file: a
//! complete robustness experiment naming the topology (masters,
//! slaves, arbiter), a phase schedule, an optional fault plan, and a
//! list of SLA assertions. The model is plain data — running one is
//! [`crate::run_scenario`]'s job — and every scenario can be rendered
//! back to canonical text with [`Scenario::render`], which is
//! guaranteed to round-trip through [`Scenario::parse`]. The fuzzer
//! leans on that guarantee to emit minimal reproducing files.

use socsim::{FaultConfig, RetryPolicy};
use std::fmt::Write as _;
use traffic_gen::{GeneratorSpec, SizeDist};

/// Which built-in arbiter drives the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterSel {
    /// Static lottery (the paper's §3 architecture).
    Lottery,
    /// Dynamic lottery (§5, per-arbitration ticket updates).
    LotteryDynamic,
    /// Static priority.
    Priority,
    /// Two-level TDMA.
    Tdma,
    /// Round-robin.
    RoundRobin,
    /// Token ring.
    TokenRing,
}

impl ArbiterSel {
    /// The keyword used in `.scenario` files.
    pub fn keyword(self) -> &'static str {
        match self {
            ArbiterSel::Lottery => "lottery",
            ArbiterSel::LotteryDynamic => "lottery-dynamic",
            ArbiterSel::Priority => "priority",
            ArbiterSel::Tdma => "tdma",
            ArbiterSel::RoundRobin => "rr",
            ArbiterSel::TokenRing => "token",
        }
    }

    /// All keywords, for error messages and the fuzzer.
    pub const ALL: [ArbiterSel; 6] = [
        ArbiterSel::Lottery,
        ArbiterSel::LotteryDynamic,
        ArbiterSel::Priority,
        ArbiterSel::Tdma,
        ArbiterSel::RoundRobin,
        ArbiterSel::TokenRing,
    ];
}

/// Arrival process of one master's traffic class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Bernoulli arrivals (memoryless, one draw per cycle).
    Poisson,
    /// On/off bursty trains.
    Burst,
    /// Fixed-period arrivals (hard real-time flavour).
    Periodic,
}

impl Arrival {
    /// The keyword used in `.scenario` files.
    pub fn keyword(self) -> &'static str {
        match self {
            Arrival::Poisson => "poisson",
            Arrival::Burst => "burst",
            Arrival::Periodic => "periodic",
        }
    }
}

/// One bus master and its traffic class.
#[derive(Debug, Clone, PartialEq)]
pub struct MasterDecl {
    /// Master name (single token; referenced by SLAs and `focus=`).
    pub name: String,
    /// Lottery tickets / priority level / TDMA slot weight.
    pub weight: u32,
    /// Offered load in words per cycle, before phase scaling.
    pub load: f64,
    /// Transaction size in words.
    pub size: u32,
    /// Arrival process.
    pub arrival: Arrival,
    /// Index of the addressed slave.
    pub slave: usize,
}

impl MasterDecl {
    /// The traffic generator of master `index` (declaration order) at
    /// offered `load` for a phase starting at `phase_start`, or `None`
    /// when the load silences the master. Deterministic arrival
    /// schedules are offset by the master index (periodic `3·i`,
    /// bursty `7·i`) so masters do not arrive in lock step.
    pub fn generator(&self, index: usize, load: f64, phase_start: u64) -> Option<GeneratorSpec> {
        if load <= 0.0 {
            return None;
        }
        let size = SizeDist::fixed(self.size);
        let spec = match self.arrival {
            Arrival::Poisson => {
                GeneratorSpec::poisson((load / f64::from(self.size)).min(1.0), size)
            }
            Arrival::Periodic => {
                let period = (f64::from(self.size) / load).round().max(1.0) as u64;
                GeneratorSpec::periodic(period, phase_start + 3 * index as u64, size)
            }
            Arrival::Burst => {
                // A train of 2–6 back-to-back transactions, sized so the
                // long-run offered load matches `load`.
                let off = (4.0 * f64::from(self.size) / load - 1.0).max(1.0);
                GeneratorSpec::bursty(
                    2,
                    6,
                    0,
                    (off * 0.5) as u64,
                    (off * 1.5) as u64,
                    phase_start + 7 * index as u64,
                    size,
                )
            }
        };
        Some(spec.to_slave(self.slave))
    }
}

/// One declared slave. Slaves only need declaring when they model
/// wait states (e.g. a slow bridge); otherwise a default single-cycle
/// slave 0 is implied.
#[derive(Debug, Clone, PartialEq)]
pub struct SlaveDecl {
    /// Slave name (single token).
    pub name: String,
    /// Wait states inserted before the first word of each grant.
    pub wait: u32,
}

/// One entry of the phase schedule. Phases run back to back in
/// declaration order; each scales the offered load of every master
/// (or of one `focus` master) for `duration` cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDecl {
    /// Phase name (single token; referenced by `phase=` SLA filters).
    pub name: String,
    /// Length of the phase in cycles.
    pub duration: u64,
    /// Load multiplier applied during the phase (0 silences traffic).
    pub scale: f64,
    /// When set, `scale` applies only to this master (flash crowd);
    /// all other masters run at their base load.
    pub focus: Option<String>,
}

/// A deterministic arbiter outage: the decision logic returns no
/// grant for every cycle in `[from, until)`. This is the scenario
/// subsystem's failover trigger — all built-in arbiters are
/// work-conserving, so a wedge is the only way a healthy bus can
/// starve and trip [`arbiters::FailoverArbiter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WedgeWindow {
    /// First wedged cycle.
    pub from: u64,
    /// First healthy cycle after the window.
    pub until: u64,
}

/// Failover protection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverDecl {
    /// Consecutive starved-but-pending cycles before the fallback
    /// round-robin takes over.
    pub patience: u64,
    /// When set, consecutive healthy shadow decisions before the
    /// primary is re-promoted (graceful recovery).
    pub recovery: Option<u64>,
}

/// Condition under which a dependent scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepCondition {
    /// Run only if the parent scenario's verdict was `pass`.
    Passed,
    /// Run only if the parent scenario's verdict was `fail`.
    Failed,
    /// Run only if the parent tripped its failover at least once.
    FailoverFired,
}

impl DepCondition {
    /// The keyword used in `.scenario` files.
    pub fn keyword(self) -> &'static str {
        match self {
            DepCondition::Passed => "passed",
            DepCondition::Failed => "failed",
            DepCondition::FailoverFired => "failover-fired",
        }
    }
}

/// A dependency edge in a scenario plan: `after <parent> <condition>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dependency {
    /// Name of the parent scenario (must be in the same plan).
    pub parent: String,
    /// Condition gating this scenario on the parent's outcome.
    pub condition: DepCondition,
}

/// Whether the scenario is expected to pass or fail its SLAs. A
/// scenario that fails as expected (e.g. a committed regression
/// reproducer, or a starvation demonstration) still counts as a
/// successful suite run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The verdict should be pass (the default).
    Pass,
    /// The verdict should be fail.
    Fail,
}

/// The assertion kind of one SLA line.
#[derive(Debug, Clone, PartialEq)]
pub enum SlaKind {
    /// Bandwidth share of one master (completed words per bus cycle)
    /// must stay within `[min, max]`.
    Bandwidth {
        /// Master under assertion.
        master: String,
        /// Lower bound on the share, if any.
        min: Option<f64>,
        /// Upper bound on the share, if any.
        max: Option<f64>,
    },
    /// Bus-wide p99 transaction latency (from windowed metrics; the
    /// worst window in scope is compared) must not exceed `p99`.
    LatencyBus {
        /// Ceiling in cycles.
        p99: u64,
    },
    /// One master's whole-run p99 latency must not exceed `p99`.
    /// Per-master latency histograms are whole-run, so this kind
    /// cannot take a `phase=` filter.
    LatencyMaster {
        /// Master under assertion.
        master: String,
        /// Ceiling in cycles.
        p99: u64,
    },
    /// At most `max_windows` metric windows may show the master with
    /// work queued but zero grants (a starvation bound).
    Starvation {
        /// Master under assertion.
        master: String,
        /// Allowed fully-starved windows.
        max_windows: u64,
    },
    /// At most `max` transactions may be lost to retry exhaustion or
    /// watchdog timeout (bus-wide, or one master's).
    Losses {
        /// Restrict to one master; `None` asserts the bus-wide count.
        master: Option<String>,
        /// Allowed aborted transactions.
        max: u64,
    },
    /// The failover count must lie within `[min, max]` (use
    /// `min=0 max=0` to assert the bus never degraded).
    Failover {
        /// Required failovers.
        min: u64,
        /// Allowed failovers, if bounded above.
        max: Option<u64>,
    },
    /// At least `min` primary re-promotions must have happened.
    Recovery {
        /// Required recoveries.
        min: u64,
    },
    /// Bus utilization (busy cycles / cycles) must stay in `[min, max]`.
    Utilization {
        /// Lower bound, if any.
        min: Option<f64>,
        /// Upper bound, if any.
        max: Option<f64>,
    },
}

impl SlaKind {
    /// The keyword naming this SLA kind in files and verdicts.
    pub fn keyword(&self) -> &'static str {
        match self {
            SlaKind::Bandwidth { .. } => "bandwidth",
            SlaKind::LatencyBus { .. } | SlaKind::LatencyMaster { .. } => "latency",
            SlaKind::Starvation { .. } => "starvation",
            SlaKind::Losses { .. } => "losses",
            SlaKind::Failover { .. } => "failover",
            SlaKind::Recovery { .. } => "recovery",
            SlaKind::Utilization { .. } => "utilization",
        }
    }
}

/// One SLA assertion, optionally scoped to a single phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Sla {
    /// What is asserted.
    pub kind: SlaKind,
    /// Restrict the assertion to one phase's delta; `None` asserts
    /// over the whole run.
    pub phase: Option<String>,
}

/// A complete declarative robustness experiment — the in-memory form
/// of one `.scenario` file.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (single token, unique within a plan).
    pub name: String,
    /// Master seed; traffic and fault streams derive from it.
    pub seed: u64,
    /// Arbiter selection.
    pub arbiter: ArbiterSel,
    /// Maximum burst length in words.
    pub burst: u32,
    /// TDMA slots per weight unit.
    pub tdma_block: u32,
    /// Metrics window length in cycles.
    pub metrics_window: u64,
    /// Expected verdict.
    pub expect: Expectation,
    /// Optional dependency on another scenario in the same plan.
    pub after: Option<Dependency>,
    /// Bus masters (at least one).
    pub masters: Vec<MasterDecl>,
    /// Declared slaves (may be empty: a single-cycle slave 0 is implied).
    pub slaves: Vec<SlaveDecl>,
    /// Phase schedule (at least one phase).
    pub phases: Vec<PhaseDecl>,
    /// Stochastic fault plan (all-zero rates = no faults).
    pub fault: FaultConfig,
    /// Deterministic arbiter outage windows.
    pub wedges: Vec<WedgeWindow>,
    /// Retry policy; `None` aborts on first error.
    pub retry: Option<RetryPolicy>,
    /// Watchdog timeout in cycles, if any.
    pub timeout: Option<u64>,
    /// Failover protection, if any.
    pub failover: Option<FailoverDecl>,
    /// SLA assertions, evaluated in declaration order.
    pub slas: Vec<Sla>,
}

/// Default metrics window when a scenario does not set one.
pub const DEFAULT_METRICS_WINDOW: u64 = 512;

impl Scenario {
    /// A scenario with the given name and every knob at its default.
    /// The result is not yet valid — it has no masters or phases.
    pub fn empty(name: &str) -> Scenario {
        Scenario {
            name: name.to_owned(),
            seed: 7,
            arbiter: ArbiterSel::Lottery,
            burst: 16,
            tdma_block: 6,
            metrics_window: DEFAULT_METRICS_WINDOW,
            expect: Expectation::Pass,
            after: None,
            masters: Vec::new(),
            slaves: Vec::new(),
            phases: Vec::new(),
            fault: FaultConfig::default(),
            wedges: Vec::new(),
            retry: None,
            timeout: None,
            failover: None,
            slas: Vec::new(),
        }
    }

    /// Total scheduled cycles (sum of phase durations).
    pub fn total_cycles(&self) -> u64 {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// Index of the named master, if declared.
    pub fn master_index(&self, name: &str) -> Option<usize> {
        self.masters.iter().position(|m| m.name == name)
    }

    /// Index of the named phase, if declared.
    pub fn phase_index(&self, name: &str) -> Option<usize> {
        self.phases.iter().position(|p| p.name == name)
    }

    /// Whether the scenario injects any failure mechanism at all
    /// (stochastic faults, wedge windows, or a watchdog that can
    /// abort legitimate waits). The fuzzer's "no silent loss" and
    /// "no silent starvation" invariants only apply when this is
    /// false.
    pub fn has_fault_machinery(&self) -> bool {
        self.fault.is_active() || !self.wedges.is_empty() || self.timeout.is_some()
    }

    /// Semantic validation beyond what the grammar enforces. Returns
    /// the first problem found. Parsed scenarios are always validated;
    /// the fuzzer also validates every shrink candidate.
    pub fn validate(&self) -> Result<(), String> {
        fn token(what: &str, s: &str) -> Result<(), String> {
            if s.is_empty() || s.chars().any(|c| c.is_whitespace() || c == '=' || c == '#') {
                return Err(format!(
                    "{what} name {s:?} must be a single token without '=', '#' or spaces"
                ));
            }
            Ok(())
        }
        token("scenario", &self.name)?;
        if self.masters.is_empty() {
            return Err("scenario declares no masters (need at least one `master` line)".into());
        }
        if self.phases.is_empty() {
            return Err("scenario declares no phases (need at least one `phase` line)".into());
        }
        for (i, m) in self.masters.iter().enumerate() {
            token("master", &m.name)?;
            if self.masters.iter().skip(i + 1).any(|o| o.name == m.name) {
                return Err(format!("master {:?} declared twice", m.name));
            }
            if m.weight == 0 {
                return Err(format!("master {:?}: weight must be at least 1", m.name));
            }
            if !(m.load > 0.0 && m.load <= 1.0) {
                return Err(format!("master {:?}: load must be in (0, 1]", m.name));
            }
            if m.size == 0 {
                return Err(format!("master {:?}: size must be at least 1 word", m.name));
            }
            let slaves = self.slaves.len().max(1);
            if m.slave >= slaves {
                return Err(format!(
                    "master {:?} addresses slave {} but only {} declared",
                    m.name, m.slave, slaves
                ));
            }
        }
        for (i, s) in self.slaves.iter().enumerate() {
            token("slave", &s.name)?;
            if self.slaves.iter().skip(i + 1).any(|o| o.name == s.name) {
                return Err(format!("slave {:?} declared twice", s.name));
            }
        }
        for (i, p) in self.phases.iter().enumerate() {
            token("phase", &p.name)?;
            if self.phases.iter().skip(i + 1).any(|o| o.name == p.name) {
                return Err(format!("phase {:?} declared twice", p.name));
            }
            if p.duration == 0 {
                return Err(format!("phase {:?}: duration must be at least 1 cycle", p.name));
            }
            if !(p.scale >= 0.0 && p.scale.is_finite()) {
                return Err(format!("phase {:?}: scale must be finite and >= 0", p.name));
            }
            if let Some(f) = &p.focus {
                if self.master_index(f).is_none() {
                    return Err(format!("phase {:?} focuses unknown master {:?}", p.name, f));
                }
            }
        }
        self.fault.validate()?;
        for w in &self.wedges {
            if w.from >= w.until {
                return Err(format!(
                    "arbiter-wedge window [{}, {}) is empty (need from < until)",
                    w.from, w.until
                ));
            }
        }
        if let Some(f) = &self.failover {
            if f.patience == 0 {
                return Err("failover patience must be at least 1 cycle".into());
            }
            if f.recovery == Some(0) {
                return Err("failover recovery window must be at least 1 decision".into());
            }
        }
        if self.metrics_window == 0 {
            return Err("metrics window must be at least 1 cycle".into());
        }
        if let Some(r) = &self.retry {
            if r.backoff_factor == 0 {
                return Err("retry factor must be at least 1".into());
            }
        }
        for sla in &self.slas {
            self.validate_sla(sla)?;
        }
        Ok(())
    }

    fn validate_sla(&self, sla: &Sla) -> Result<(), String> {
        let kw = sla.kind.keyword();
        if let Some(p) = &sla.phase {
            if self.phase_index(p).is_none() {
                return Err(format!("sla {kw} references unknown phase {p:?}"));
            }
        }
        let check_master = |name: &str| {
            if self.master_index(name).is_none() {
                Err(format!("sla {kw} references unknown master {name:?}"))
            } else {
                Ok(())
            }
        };
        // Bandwidth shares and utilization are fractions of the bus.
        let check_bounds = |min: &Option<f64>, max: &Option<f64>| {
            for (key, bound) in [("min", min), ("max", max)] {
                if let Some(b) = bound.filter(|b| !b.is_finite()) {
                    return Err(format!("sla {kw} `{key}=` must be a finite number, got {b}"));
                }
                if let Some(b) = bound.filter(|b| !(0.0..=1.0).contains(b)) {
                    return Err(format!("sla {kw} `{key}=` must lie in [0, 1], got {b}"));
                }
            }
            Ok(())
        };
        match &sla.kind {
            SlaKind::Bandwidth { master, min, max } => {
                check_master(master)?;
                if min.is_none() && max.is_none() {
                    return Err("sla bandwidth needs a `min=` or `max=` bound".into());
                }
                check_bounds(min, max)?;
            }
            SlaKind::LatencyBus { .. } => {}
            SlaKind::LatencyMaster { master, .. } => {
                check_master(master)?;
                if sla.phase.is_some() {
                    return Err(
                        "sla latency with `master=` is whole-run only (per-master latency \
                         histograms are not windowed); drop the `phase=` filter"
                            .into(),
                    );
                }
            }
            SlaKind::Starvation { master, .. } => check_master(master)?,
            SlaKind::Losses { master, .. } => {
                if let Some(m) = master {
                    check_master(m)?;
                }
            }
            SlaKind::Failover { min, max } => {
                if let Some(max) = max {
                    if min > max {
                        return Err(format!("sla failover has min={min} > max={max}"));
                    }
                }
            }
            SlaKind::Recovery { .. } => {}
            SlaKind::Utilization { min, max } => {
                if min.is_none() && max.is_none() {
                    return Err("sla utilization needs a `min=` or `max=` bound".into());
                }
                check_bounds(min, max)?;
            }
        }
        Ok(())
    }

    /// Renders the scenario as canonical `.scenario` text. The output
    /// parses back to an equal `Scenario` — the fuzzer's round-trip
    /// invariant and the shrinker's output format both rely on this.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "scenario {}", self.name);
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "arbiter = {}", self.arbiter.keyword());
        if self.burst != 16 {
            let _ = writeln!(out, "burst = {}", self.burst);
        }
        if self.tdma_block != 6 {
            let _ = writeln!(out, "tdma-block = {}", self.tdma_block);
        }
        if self.metrics_window != DEFAULT_METRICS_WINDOW {
            let _ = writeln!(out, "metrics window={}", self.metrics_window);
        }
        if self.expect == Expectation::Fail {
            let _ = writeln!(out, "expect = fail");
        }
        if let Some(dep) = &self.after {
            let _ = writeln!(out, "after {} {}", dep.parent, dep.condition.keyword());
        }
        for s in &self.slaves {
            let _ = writeln!(out, "slave {} wait={}", s.name, s.wait);
        }
        for m in &self.masters {
            let _ = write!(
                out,
                "master {} weight={} load={} size={} {}",
                m.name,
                m.weight,
                m.load,
                m.size,
                m.arrival.keyword()
            );
            if m.slave != 0 {
                let _ = write!(out, " slave={}", m.slave);
            }
            out.push('\n');
        }
        for p in &self.phases {
            let _ = write!(out, "phase {} duration={}", p.name, p.duration);
            if p.scale != 1.0 {
                let _ = write!(out, " scale={}", p.scale);
            }
            if let Some(f) = &p.focus {
                let _ = write!(out, " focus={f}");
            }
            out.push('\n');
        }
        self.render_faults(&mut out);
        if let Some(r) = &self.retry {
            let _ = writeln!(
                out,
                "retry max={} base={} factor={}",
                r.max_retries, r.backoff_base, r.backoff_factor
            );
        }
        if let Some(t) = self.timeout {
            let _ = writeln!(out, "timeout = {t}");
        }
        if let Some(f) = &self.failover {
            let _ = write!(out, "failover patience={}", f.patience);
            if let Some(r) = f.recovery {
                let _ = write!(out, " recovery={r}");
            }
            out.push('\n');
        }
        for sla in &self.slas {
            self.render_sla(sla, &mut out);
        }
        out
    }

    fn render_faults(&self, out: &mut String) {
        let f = &self.fault;
        if f.slave_error_rate > 0.0 {
            let _ = writeln!(out, "fault slave-error rate={}", f.slave_error_rate);
        }
        if f.slave_outage_rate > 0.0 {
            let _ = writeln!(
                out,
                "fault slave-outage rate={} duration={}",
                f.slave_outage_rate, f.slave_outage_duration
            );
        }
        if f.grant_drop_rate > 0.0 {
            let _ = writeln!(out, "fault grant-drop rate={}", f.grant_drop_rate);
        }
        if f.grant_corrupt_rate > 0.0 {
            let _ = writeln!(out, "fault grant-corrupt rate={}", f.grant_corrupt_rate);
        }
        if f.master_stall_rate > 0.0 {
            let _ = writeln!(
                out,
                "fault master-stall rate={} max={}",
                f.master_stall_rate, f.master_stall_max
            );
        }
        for w in &self.wedges {
            let _ = writeln!(out, "fault arbiter-wedge from={} until={}", w.from, w.until);
        }
    }

    fn render_sla(&self, sla: &Sla, out: &mut String) {
        let _ = write!(out, "sla {}", sla.kind.keyword());
        match &sla.kind {
            SlaKind::Bandwidth { master, min, max } => {
                let _ = write!(out, " master={master}");
                if let Some(v) = min {
                    let _ = write!(out, " min={v}");
                }
                if let Some(v) = max {
                    let _ = write!(out, " max={v}");
                }
            }
            SlaKind::LatencyBus { p99 } => {
                let _ = write!(out, " p99={p99}");
            }
            SlaKind::LatencyMaster { master, p99 } => {
                let _ = write!(out, " master={master} p99={p99}");
            }
            SlaKind::Starvation { master, max_windows } => {
                let _ = write!(out, " master={master} max-windows={max_windows}");
            }
            SlaKind::Losses { master, max } => {
                if let Some(m) = master {
                    let _ = write!(out, " master={m}");
                }
                let _ = write!(out, " max={max}");
            }
            SlaKind::Failover { min, max } => {
                let _ = write!(out, " min={min}");
                if let Some(v) = max {
                    let _ = write!(out, " max={v}");
                }
            }
            SlaKind::Recovery { min } => {
                let _ = write!(out, " min={min}");
            }
            SlaKind::Utilization { min, max } => {
                if let Some(v) = min {
                    let _ = write!(out, " min={v}");
                }
                if let Some(v) = max {
                    let _ = write!(out, " max={v}");
                }
            }
        }
        if let Some(p) = &sla.phase {
            let _ = write!(out, " phase={p}");
        }
        out.push('\n');
    }
}
