//! Fleet-packed scenario execution.
//!
//! [`run_scenarios_fleet`] simulates a whole set of scenarios as lanes
//! of one SoA [`Fleet`] (see `socsim::fleet`) instead of spawning one
//! scalar [`socsim::System`] per scenario. Lanes never interact; the
//! pack is purely an execution structure. Every scenario packs: a lane
//! carries the phase, wedge and failover machinery (in its sources and
//! arbiter chain) as well as fault plans, retry policies and watchdogs
//! (in its bus). Verdicts are byte-identical to the scalar
//! [`socsim::System`] runner under any kernel: both runners build the
//! same lane description, the fleet kernel is lane-exact against the
//! scalar per-cycle kernel, and both assemble their [`Outcome`] through
//! the same code. [`crate::run_scenario`] runs a one-lane pack under
//! the cycle kernel.

use crate::model::Scenario;
use crate::run::{assemble_outcome, lane_builder, probe, Observations, Outcome};
use socsim::fleet::Fleet;
use socsim::{BusStats, Cycle, MasterId};

/// Whether a scenario can run as a fleet lane: every valid scenario
/// can. Kept because the `scenario.fleet_eligible_frac` benchmark probe
/// calls it; it reads 1.0 on the library.
pub fn fleet_eligible(sc: &Scenario) -> bool {
    sc.validate().is_ok()
}

/// Runs every scenario and returns its verdict, in input order,
/// packing all of them into one lockstep [`Fleet`]. All verdicts are
/// byte-identical to [`crate::run_scenario`] on the same scenario.
///
/// # Errors
///
/// Returns the first validation or build error, formatted like the
/// scalar runner's.
pub fn run_scenarios_fleet(scs: &[&Scenario]) -> Result<Vec<Outcome>, String> {
    let observed = observe_fleet(scs)?;
    Ok(scs.iter().zip(&observed).map(|(sc, obs)| assemble_outcome(sc, obs)).collect())
}

/// Runs every scenario as a lane of one lockstep [`Fleet`] and returns
/// what each lane observed, in input order.
pub(crate) fn observe_fleet(scs: &[&Scenario]) -> Result<Vec<Observations>, String> {
    let mut lanes = Vec::with_capacity(scs.len());
    for sc in scs {
        sc.validate()?;
        lanes.push(lane_builder(sc)?);
    }
    let mut fleet =
        Fleet::build(lanes).map_err(|e| format!("scenario `{}`: {}", scs[e.lane].name, e.error))?;

    // Each lane snapshots its statistics at its own phase boundaries.
    // Drive the whole fleet through the sorted union of boundaries so
    // lanes advance in lockstep regardless of differing schedules.
    let boundaries: Vec<Vec<u64>> = scs
        .iter()
        .map(|sc| {
            sc.phases
                .iter()
                .scan(0u64, |acc, p| {
                    *acc += p.duration;
                    Some(*acc)
                })
                .collect()
        })
        .collect();
    let mut union: Vec<u64> = boundaries.iter().flatten().copied().collect();
    union.sort_unstable();
    union.dedup();

    let mut snaps: Vec<Vec<BusStats>> = vec![Vec::new(); scs.len()];
    let mut probes: Vec<Vec<(u64, u64)>> = vec![Vec::new(); scs.len()];
    let mut next: Vec<usize> = vec![0; scs.len()];
    for &t in &union {
        for (lane, bounds) in boundaries.iter().enumerate() {
            // Never advance a lane past its own schedule end: its
            // backlog and port counters must freeze exactly where the
            // scalar runner's do.
            let cap = *bounds.last().expect("at least one phase");
            fleet.run_lane_until(lane, Cycle::new(t.min(cap)));
            while next[lane] < bounds.len() && bounds[next[lane]] == t {
                snaps[lane].push(fleet.stats(lane).clone());
                probes[lane].push(probe(fleet.arbiter(lane)));
                next[lane] += 1;
            }
        }
    }
    fleet.flush_metrics();

    let observed = scs
        .iter()
        .zip(snaps.into_iter().zip(probes))
        .enumerate()
        .map(|(lane, (sc, (snaps, probes)))| {
            let samples = fleet.metrics(lane).map(|m| m.samples().to_vec()).unwrap_or_default();
            let counts = (0..sc.masters.len())
                .map(|m| {
                    let port = fleet.master(lane, MasterId::new(m));
                    (port.issued_transactions(), port.backlog_transactions() as u64)
                })
                .collect();
            Observations { snaps, probes, samples, counts }
        })
        .collect();
    Ok(observed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::observe_system;
    use socsim::Kernel;

    /// The verdict of the scalar per-cycle oracle.
    fn oracle(sc: &Scenario) -> Outcome {
        assemble_outcome(sc, &observe_system(sc, Kernel::Cycle).expect("scalar runs"))
    }

    fn parse(text: &str) -> Scenario {
        Scenario::parse(text).expect("valid scenario")
    }

    #[test]
    fn fleet_pack_matches_scalar_verdicts_byte_for_byte() {
        let a = parse(
            "scenario pack-a\n\
             seed = 11\n\
             arbiter = lottery\n\
             master cpu load=0.4 weight=3 size=8 poisson\n\
             master dma load=0.2 weight=1 size=16 burst\n\
             phase warm duration=4000\n\
             phase surge duration=3000 scale=2.0\n\
             sla losses max=0\n",
        );
        let b = parse(
            "scenario pack-b\n\
             seed = 5\n\
             arbiter = rr\n\
             master a load=0.8 weight=1 size=4\n\
             master b load=0.8 weight=1 size=4\n\
             master c load=0.8 weight=1 size=4\n\
             phase steady duration=9000\n\
             sla utilization min=0.3\n",
        );
        // Faulted: packs as a fault lane, still byte-identical.
        let c = parse(
            "scenario pack-c\n\
             seed = 3\n\
             arbiter = priority\n\
             master hi load=0.5 weight=4 size=8\n\
             master lo load=0.5 weight=1 size=8\n\
             fault slave-error rate=0.01\n\
             retry max=3 base=4 factor=2\n\
             phase steady duration=5000\n\
             sla losses max=1000000\n",
        );
        assert!(fleet_eligible(&a));
        assert!(fleet_eligible(&b));
        assert!(fleet_eligible(&c));
        let packed = run_scenarios_fleet(&[&a, &b, &c]).expect("fleet runs");
        for (sc, fleet_outcome) in [&a, &b, &c].into_iter().zip(&packed) {
            assert_eq!(
                fleet_outcome.to_json().render(),
                oracle(sc).to_json().render(),
                "verdict for `{}` diverges",
                sc.name
            );
        }
    }

    #[test]
    fn single_lane_fleet_equals_scalar() {
        let sc = parse(
            "scenario solo\n\
             seed = 77\n\
             arbiter = tdma\n\
             master cpu load=0.6 weight=2 size=8\n\
             master dsp load=0.3 weight=1 size=8 burst\n\
             phase one duration=2500\n\
             phase two duration=2500 scale=0.5\n\
             sla losses max=0\n",
        );
        let packed = run_scenarios_fleet(&[&sc]).expect("fleet runs");
        assert_eq!(packed[0].to_json().render(), oracle(&sc).to_json().render());
    }
}
