//! Seeded scenario fuzzer with shrinking.
//!
//! The fuzzer generates random-but-valid scenarios from a splitmix64
//! counter stream (fully deterministic for a given seed), runs each
//! one under every kernel, and checks six invariants:
//!
//! 1. **round-trip** — `parse(render(s)) == s`.
//! 2. **kernel-equivalence** — the cycle-accurate and fast-forward
//!    kernels render byte-identical verdict JSON.
//! 3. **fleet-equivalence** — packing the scenario into a two-lane
//!    lockstep fleet next to a seed-shifted twin renders the same
//!    verdict JSON as the scalar cycle run (lane exactness).
//! 4. **verdict** — no assertion (generated SLAs are chosen to be
//!    satisfiable, and conservation always holds) may be violated.
//! 5. **no silent loss/starvation** — a scenario with no fault
//!    machinery must end with zero aborted transactions and an empty
//!    backlog after its drain phase.
//! 6. **no panic** — a panic anywhere in the checks is caught and
//!    reported as a `panic` finding (with the panic message), so it is
//!    shrunk like any other breach and the campaign goes on.
//!
//! A failing scenario is *shrunk*: deterministic passes drop masters,
//! phases, SLAs and fault classes, and halve durations, as long as
//! the same invariant keeps failing. The fixpoint is rendered as a
//! minimal reproducing `.scenario` file, ready to commit as a
//! regression (see `scenarios/regressions/`).

use crate::model::{
    Arrival, Expectation, MasterDecl, PhaseDecl, Scenario, Sla, SlaKind, SlaveDecl,
};
use crate::phased::mix;
use crate::run::{assemble_outcome, observe_system, run_scenario};
use experiments::json::Json;
use socsim::{Kernel, RetryPolicy};

/// Deterministic counter-mode RNG (splitmix64).
struct Rng {
    state: u64,
}

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng { state: mix(seed ^ 0x5EED_5EED_5EED_5EED) }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Inclusive range.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Fuzzer configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Seed of the whole campaign.
    pub seed: u64,
    /// Scenarios to generate and check.
    pub iterations: u32,
    /// When set, every scenario gets a deliberately impossible SLA
    /// (`losses max=0` against a 100% slave-error rate with no
    /// retries) so the find-and-shrink pipeline itself can be
    /// demonstrated and regression-tested deterministically.
    pub demo_failure: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig { seed: 7, iterations: 20, demo_failure: false }
    }
}

/// One invariant breach found by the fuzzer.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Iteration that produced the scenario.
    pub iteration: u32,
    /// Which invariant broke (`round-trip`, `kernel-divergence`,
    /// `fleet-divergence`, `verdict-fail`, `loss-without-fault`,
    /// `silent-starvation`, `run-error`, `panic`).
    pub invariant: String,
    /// Details of the breach.
    pub detail: String,
    /// The original failing scenario.
    pub scenario: Scenario,
    /// The shrunk minimal reproducer.
    pub shrunk: Scenario,
}

/// The result of one fuzzing campaign.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Scenarios generated and checked.
    pub iterations: u32,
    /// Invariant breaches, with shrunk reproducers.
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// Deterministic JSON summary (no wall-clock).
    pub fn to_json(&self) -> Json {
        Json::obj().field("iterations", self.iterations).field(
            "findings",
            Json::Arr(
                self.findings
                    .iter()
                    .map(|f| {
                        Json::obj()
                            .field("iteration", f.iteration)
                            .field("invariant", f.invariant.as_str())
                            .field("detail", f.detail.as_str())
                            .field("scenario", f.scenario.name.as_str())
                            .field("shrunk", f.shrunk.render())
                    })
                    .collect(),
            ),
        )
    }
}

/// Generates one random-but-valid scenario.
fn generate(rng: &mut Rng, iteration: u32) -> Scenario {
    let mut sc = Scenario::empty(&format!("fuzz-{iteration:04}"));
    sc.seed = rng.next() & 0xFFFF;
    sc.arbiter = *rng.pick(&crate::model::ArbiterSel::ALL);
    let masters = rng.range(2, 4);
    for i in 0..masters {
        sc.masters.push(MasterDecl {
            name: format!("m{i}"),
            weight: rng.range(1, 8) as u32,
            load: 0.05 + 0.15 * rng.unit(),
            size: *rng.pick(&[4u32, 8, 16]),
            arrival: *rng.pick(&[Arrival::Poisson, Arrival::Burst, Arrival::Periodic]),
            slave: 0,
        });
    }
    if rng.chance(0.3) {
        sc.slaves.push(SlaveDecl { name: "bridge".into(), wait: rng.range(1, 3) as u32 });
    }
    let phases = rng.range(1, 3);
    for k in 0..phases {
        let focus = if rng.chance(0.3) { Some(format!("m{}", rng.below(masters))) } else { None };
        sc.phases.push(PhaseDecl {
            name: format!("p{k}"),
            duration: rng.range(1000, 5000),
            scale: *rng.pick(&[0.5, 1.0, 2.0]),
            focus,
        });
    }
    // Always end with a drain phase so the no-starvation invariant
    // (empty backlog at the end) is meaningful.
    sc.phases.push(PhaseDecl { name: "drain".into(), duration: 30_000, scale: 0.0, focus: None });
    if rng.chance(0.4) {
        match rng.below(5) {
            0 => sc.fault.slave_error_rate = 0.02 + 0.1 * rng.unit(),
            1 => {
                sc.fault.slave_outage_rate = 0.02 + 0.1 * rng.unit();
                sc.fault.slave_outage_duration = rng.range(32, 128) as u32;
            }
            2 => sc.fault.grant_drop_rate = 0.02 + 0.1 * rng.unit(),
            3 => sc.fault.grant_corrupt_rate = 0.02 + 0.1 * rng.unit(),
            _ => {
                sc.fault.master_stall_rate = 0.01 + 0.05 * rng.unit();
                sc.fault.master_stall_max = rng.range(4, 16) as u32;
            }
        }
        sc.retry = Some(RetryPolicy {
            max_retries: rng.range(1, 4) as u32,
            backoff_base: rng.range(4, 16),
            backoff_factor: 2,
        });
        if rng.chance(0.5) {
            sc.timeout = Some(rng.range(4096, 8192));
        }
    }
    // A couple of generous SLAs for grammar coverage; they hold for
    // any healthy run (losses are bounded by issued transactions, and
    // a master can't starve for more windows than the run contains).
    if rng.chance(0.5) {
        sc.slas.push(Sla { kind: SlaKind::Utilization { min: None, max: Some(1.0) }, phase: None });
    }
    if rng.chance(0.3) {
        let m = sc.masters[rng.below(masters) as usize].name.clone();
        sc.slas.push(Sla {
            kind: SlaKind::Starvation { master: m, max_windows: 1_000_000 },
            phase: None,
        });
    }
    sc
}

/// Arms the demo failure: a 100% slave-error rate with no retry
/// budget guarantees every transaction aborts, against a zero-loss
/// SLA.
fn arm_demo_failure(sc: &mut Scenario) {
    sc.fault.slave_error_rate = 1.0;
    sc.retry = None;
    sc.timeout = None;
    sc.slas.push(Sla { kind: SlaKind::Losses { master: None, max: 0 }, phase: None });
}

/// An invariant check: the first breach as `(invariant, detail)`.
type Check = fn(&Scenario) -> Option<(String, String)>;

/// Checks every invariant; returns the first breach as
/// `(invariant, detail)`.
fn check(sc: &Scenario) -> Option<(String, String)> {
    match Scenario::parse(&sc.render()) {
        Err(e) => return Some(("round-trip".into(), format!("rendered text fails to parse: {e}"))),
        Ok(parsed) => {
            if parsed != *sc {
                return Some((
                    "round-trip".into(),
                    "rendered text parses to a different scenario".into(),
                ));
            }
        }
    }
    // The per-cycle scalar system is the oracle the other engines
    // answer to.
    let cycle = match observe_system(sc, Kernel::Cycle) {
        Ok(observed) => assemble_outcome(sc, &observed),
        Err(e) => return Some(("run-error".into(), e)),
    };
    let cycle_json = cycle.to_json().render();
    let fast = match run_scenario(sc, Kernel::Fast) {
        Ok(o) => o,
        Err(e) => return Some(("run-error".into(), format!("fast kernel: {e}"))),
    };
    if fast.to_json().render() != cycle_json {
        return Some((
            "kernel-divergence".into(),
            "cycle-accurate and fast kernels render different verdicts".into(),
        ));
    }
    // Fleet lane exactness: pack the scenario next to a seed-shifted
    // twin so the lane actually shares a fleet with heterogeneous
    // state, and require the lane's verdict to match the scalar run.
    // (Scenarios with faults, retry or a watchdog run as fault lanes.)
    let mut twin = sc.clone();
    twin.name = format!("{}-twin", sc.name);
    twin.seed = sc.seed.wrapping_add(0x5EED);
    match crate::fleet::run_scenarios_fleet(&[sc, &twin]) {
        Err(e) => return Some(("run-error".into(), format!("fleet runner: {e}"))),
        Ok(outcomes) => {
            if outcomes[0].to_json().render() != cycle_json {
                return Some((
                    "fleet-divergence".into(),
                    "fleet lane and scalar cycle kernel render different verdicts".into(),
                ));
            }
        }
    }
    if !cycle.passed {
        let first = cycle.violations.first().expect("failed verdict has a violation");
        return Some(("verdict-fail".into(), first.message.clone()));
    }
    if !sc.has_fault_machinery() {
        if cycle.aborted > 0 {
            return Some((
                "loss-without-fault".into(),
                format!("{} transactions aborted with no fault configured", cycle.aborted),
            ));
        }
        if cycle.backlog > 0 {
            return Some((
                "silent-starvation".into(),
                format!("{} transactions still queued after the drain phase", cycle.backlog),
            ));
        }
    }
    None
}

/// Runs `check` on `sc`, turning a panic into a `panic` breach that
/// carries the panic message.
fn guarded(check: Check, sc: &Scenario) -> Option<(String, String)> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(sc))).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with a non-string payload".to_owned());
        Some(("panic".into(), message))
    })
}

/// All single-step shrink candidates of `sc`, in a fixed order.
fn candidates(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    for i in 0..sc.slas.len() {
        let mut c = sc.clone();
        c.slas.remove(i);
        out.push(c);
    }
    if sc.masters.len() > 1 {
        for i in 0..sc.masters.len() {
            let mut c = sc.clone();
            let gone = c.masters.remove(i).name;
            c.slas.retain(|s| !sla_mentions(s, &gone));
            for p in &mut c.phases {
                if p.focus.as_deref() == Some(&gone) {
                    p.focus = None;
                }
            }
            out.push(c);
        }
    }
    if sc.phases.len() > 1 {
        for i in 0..sc.phases.len() {
            let mut c = sc.clone();
            let gone = c.phases.remove(i).name;
            c.slas.retain(|s| s.phase.as_deref() != Some(&gone));
            out.push(c);
        }
    }
    if !sc.slaves.is_empty() && sc.masters.iter().all(|m| m.slave == 0) {
        let mut c = sc.clone();
        c.slaves.clear();
        out.push(c);
    }
    for zero in fault_zeroers() {
        let mut c = sc.clone();
        zero(&mut c);
        if c != *sc {
            out.push(c);
        }
    }
    if !sc.wedges.is_empty() {
        let mut c = sc.clone();
        c.wedges.clear();
        out.push(c);
    }
    if sc.retry.is_some() {
        let mut c = sc.clone();
        c.retry = None;
        out.push(c);
    }
    if sc.timeout.is_some() {
        let mut c = sc.clone();
        c.timeout = None;
        out.push(c);
    }
    if sc.failover.is_some() {
        let mut c = sc.clone();
        c.failover = None;
        out.push(c);
    }
    for i in 0..sc.phases.len() {
        if sc.phases[i].duration > 64 {
            let mut c = sc.clone();
            c.phases[i].duration = (c.phases[i].duration / 2).max(64);
            out.push(c);
        }
        if sc.phases[i].scale != 1.0 {
            let mut c = sc.clone();
            c.phases[i].scale = 1.0;
            out.push(c);
        }
        if sc.phases[i].focus.is_some() {
            let mut c = sc.clone();
            c.phases[i].focus = None;
            out.push(c);
        }
    }
    for i in 0..sc.masters.len() {
        let m = &sc.masters[i];
        if m.weight != 1 || m.size != 4 || m.arrival != Arrival::Poisson || m.slave != 0 {
            let mut c = sc.clone();
            c.masters[i].weight = 1;
            c.masters[i].size = 4;
            c.masters[i].arrival = Arrival::Poisson;
            c.masters[i].slave = 0;
            out.push(c);
        }
        // Round the generated load to something a human can read.
        if m.load != 0.25 {
            let mut c = sc.clone();
            c.masters[i].load = 0.25;
            out.push(c);
        }
    }
    let mut defaults = sc.clone();
    defaults.burst = 16;
    defaults.tdma_block = 6;
    defaults.arbiter = crate::model::ArbiterSel::Lottery;
    if defaults != *sc {
        out.push(defaults);
    }
    out
}

fn sla_mentions(sla: &Sla, master: &str) -> bool {
    match &sla.kind {
        SlaKind::Bandwidth { master: m, .. }
        | SlaKind::LatencyMaster { master: m, .. }
        | SlaKind::Starvation { master: m, .. } => m == master,
        SlaKind::Losses { master: m, .. } => m.as_deref() == Some(master),
        _ => false,
    }
}

fn fault_zeroers() -> [fn(&mut Scenario); 5] {
    [
        |c| c.fault.slave_error_rate = 0.0,
        |c| c.fault.slave_outage_rate = 0.0,
        |c| c.fault.grant_drop_rate = 0.0,
        |c| c.fault.grant_corrupt_rate = 0.0,
        |c| c.fault.master_stall_rate = 0.0,
    ]
}

/// Greedily shrinks `sc` while the same invariant keeps failing.
/// Deterministic: candidates are tried in a fixed order and the first
/// still-failing one restarts the sweep.
pub fn shrink(sc: &Scenario, invariant: &str) -> Scenario {
    shrink_with(check, sc, invariant)
}

fn shrink_with(check: Check, sc: &Scenario, invariant: &str) -> Scenario {
    let still_fails = |c: &Scenario| -> bool {
        c.validate().is_ok() && guarded(check, c).is_some_and(|(inv, _)| inv == invariant)
    };
    let mut best = sc.clone();
    loop {
        let mut improved = false;
        for candidate in candidates(&best) {
            if still_fails(&candidate) {
                best = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Runs a fuzzing campaign.
pub fn fuzz(config: &FuzzConfig) -> FuzzReport {
    fuzz_with(check, config)
}

fn fuzz_with(check: Check, config: &FuzzConfig) -> FuzzReport {
    let mut rng = Rng::new(config.seed);
    let mut report = FuzzReport { iterations: config.iterations, ..Default::default() };
    for iteration in 0..config.iterations {
        let mut sc = generate(&mut rng, iteration);
        if config.demo_failure {
            arm_demo_failure(&mut sc);
        }
        debug_assert_eq!(sc.validate(), Ok(()), "generator must emit valid scenarios");
        if let Some((invariant, detail)) = guarded(check, &sc) {
            let mut shrunk = shrink_with(check, &sc, &invariant);
            shrunk.name = format!("{}-min", sc.name);
            if invariant == "verdict-fail" {
                // The reproducer *should* fail its SLA; mark it so the
                // scenario suite treats the failure as the expected
                // verdict once the file is committed as a regression.
                shrunk.expect = Expectation::Fail;
            }
            report.findings.push(Finding { iteration, invariant, detail, scenario: sc, shrunk });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A check with a planted bug: it panics on any scenario with more
    /// than one master.
    fn panics_on_two_masters(sc: &Scenario) -> Option<(String, String)> {
        assert!(sc.masters.len() < 2, "planted bug: {} masters", sc.masters.len());
        None
    }

    #[test]
    fn a_panicking_check_becomes_a_shrunk_finding_and_the_campaign_goes_on() {
        let config = FuzzConfig { seed: 3, iterations: 3, demo_failure: false };
        let report = fuzz_with(panics_on_two_masters, &config);
        // Every generated scenario has 2-4 masters, so every iteration
        // panics; none of them aborts the campaign.
        assert_eq!(report.findings.len(), 3);
        for finding in &report.findings {
            assert_eq!(finding.invariant, "panic");
            assert!(finding.detail.starts_with("planted bug:"), "{}", finding.detail);
            // Shrinking keeps the scenario panicking: down to two
            // masters, and no further.
            assert_eq!(finding.shrunk.masters.len(), 2);
            assert!(guarded(panics_on_two_masters, &finding.shrunk).is_some());
        }
    }

    #[test]
    fn a_quiet_check_reports_nothing() {
        let config = FuzzConfig { seed: 3, iterations: 2, demo_failure: false };
        assert!(fuzz_with(|_| None, &config).findings.is_empty());
    }
}
