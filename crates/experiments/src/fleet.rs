//! Fleet-packed experiment execution.
//!
//! Experiment fan-out in this crate is a list of *independent*
//! simulations (see [`crate::runner`]). [`run_systems_fleet`] packs
//! such a list into one structure-of-arrays lockstep [`Fleet`]
//! (`socsim::fleet`) instead of building one scalar [`socsim::System`]
//! per point: all lanes advance together over contiguous state, so a
//! sweep's whole job list walks the caches once per cycle window
//! rather than once per system.
//!
//! Lane assembly replicates `common::run_system` exactly — master
//! names `C1..Cn`, per-master seeds derived from
//! [`RunSettings::seed`] and the master index, the settings' bus
//! config and optional metrics window — and the fleet kernel is
//! proven lane-exact against the scalar cycle kernel (the
//! `fleet_equivalence` test matrix), so swapping the executor never
//! changes a single byte of any experiment's output.

use crate::common::RunSettings;
use arbiters::ArbiterKind;
use socsim::fleet::{Fleet, LaneBuilder};
use socsim::BusStats;
use traffic_gen::{GeneratorSpec, SourceKind};

/// One fleet lane: the per-master traffic specs and the arbiter of an
/// independent experiment point.
pub type FleetJob = (Vec<GeneratorSpec>, ArbiterKind);

/// Builds one lane the way `common::run_system` builds its system.
fn lane(
    specs: &[GeneratorSpec],
    arbiter: ArbiterKind,
    settings: &RunSettings,
) -> LaneBuilder<ArbiterKind, SourceKind> {
    let mut lane: LaneBuilder<ArbiterKind, SourceKind> = LaneBuilder::new(settings.bus);
    for (i, spec) in specs.iter().enumerate() {
        lane = lane.master(
            format!("C{}", i + 1),
            spec.build_kind(settings.seed.wrapping_add(i as u64 * 0x9E37_79B9)),
        );
    }
    if let Some(window) = settings.metrics_window {
        lane = lane.metrics_window(window);
    }
    lane.arbiter(arbiter)
}

/// Builds every job's system as one fleet lane, runs the whole pack in
/// lockstep through the settings' warm-up and measurement windows, and
/// returns the per-lane steady-state statistics in input order.
/// Byte-identical to calling `common::run_system` on each job.
///
/// # Panics
///
/// Panics if any lane cannot be built (experiment definitions are
/// statically valid, like `common::run_system`'s).
pub fn run_systems_fleet(jobs: Vec<FleetJob>, settings: &RunSettings) -> Vec<BusStats> {
    let lanes = jobs.into_iter().map(|(specs, arbiter)| lane(&specs, arbiter, settings)).collect();
    let mut fleet = Fleet::build(lanes).expect("experiment fleet is valid");
    fleet.warm_up(settings.warmup);
    fleet.run(settings.measure);
    (0..fleet.len()).map(|i| fleet.stats(i).clone()).collect()
}

/// Whether `settings` allow an experiment to swap its per-point scalar
/// runs for one fleet pack. The fleet is the cycle kernel's lane-exact
/// batch form, so a `fast` request (or its alias `tlm`) keeps the
/// scalar path it asked for. A metrics window keeps it too: lanes with
/// metrics forgo tenure batching, so packing them buys little, and
/// metrics-on runs stay on the same per-system path as
/// [`crate::common::run_system`].
pub fn fleet_pack_allowed(settings: &RunSettings) -> bool {
    settings.kernel == socsim::Kernel::Cycle && settings.metrics_window.is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common;
    use traffic_gen::classes::saturating_specs;
    use traffic_gen::SizeDist;

    #[test]
    fn fleet_pack_matches_scalar_runs_byte_for_byte() {
        let settings = RunSettings { warmup: 1_000, measure: 8_000, ..RunSettings::quick() };
        let jobs: Vec<FleetJob> = (0..5)
            .map(|p| (saturating_specs(4), common::protocol_arbiter(p, settings.seed)))
            .collect();
        let packed = run_systems_fleet(jobs, &settings);
        for (p, stats) in packed.iter().enumerate() {
            let solo = common::run_system(
                &saturating_specs(4),
                common::protocol_arbiter(p, settings.seed),
                &settings,
            );
            assert_eq!(*stats, solo, "protocol {p} lane diverged from its scalar run");
        }
    }

    #[test]
    fn heterogeneous_lane_shapes_stay_exact() {
        let settings = RunSettings { warmup: 500, measure: 6_000, ..RunSettings::quick() };
        let sparse = vec![GeneratorSpec::poisson(0.01, SizeDist::fixed(8)); 2];
        let rr2 = || ArbiterKind::from(arbiters::RoundRobinArbiter::new(2).expect("valid"));
        let jobs: Vec<FleetJob> = vec![
            (saturating_specs(4), common::protocol_arbiter(1, settings.seed)),
            (sparse.clone(), rr2()),
        ];
        let packed = run_systems_fleet(jobs, &settings);
        let solo_hot = common::run_system(
            &saturating_specs(4),
            common::protocol_arbiter(1, settings.seed),
            &settings,
        );
        let solo_sparse = common::run_system(&sparse, rr2(), &settings);
        assert_eq!(packed[0], solo_hot);
        assert_eq!(packed[1], solo_sparse);
    }

    #[test]
    fn packing_gate_respects_kernel_and_metrics() {
        let base = RunSettings::quick();
        assert!(fleet_pack_allowed(&base));
        assert!(!fleet_pack_allowed(&base.with_metrics(500)));
        for kernel in [socsim::Kernel::Fast, socsim::Kernel::Tlm] {
            assert!(!fleet_pack_allowed(&base.with_kernel(kernel)));
        }
    }
}
