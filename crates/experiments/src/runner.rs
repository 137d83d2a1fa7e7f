//! Deterministic parallel fan-out for experiment runs.
//!
//! Every figure, table, sweep and ablation in this crate is a list of
//! *independent* simulations: each point builds its own system from a
//! seed derived from [`RunSettings::seed`] and shares no mutable state
//! with any other point. This module fans those points out across
//! worker threads ([`socsim::pool`]) and collects results in input
//! order, so the output of every experiment is **byte-identical**
//! between `jobs = 1` and `jobs = N` — parallelism changes wall-clock
//! time only.
//!
//! The determinism argument, in full:
//!
//! 1. **Seed ownership.** `common::run_system` derives every traffic
//!    source's seed from `RunSettings.seed` and the master index, and
//!    every arbiter is constructed inside its job from plain inputs.
//!    No job reads another job's RNG. Traffic recorded before a
//!    fan-out (`common::RecordedTraffic`) uses the same seeds and is
//!    read-only: each job replays it through a cursor of its own.
//! 2. **Ordered collection.** [`map`] writes result *i* into slot *i*
//!    regardless of which worker computed it or when it finished.
//! 3. **No shared mutable state.** Jobs borrow their inputs (`Sync`)
//!    and the settings immutably; the simulation kernel allocates
//!    everything per-system.

use crate::common::RunSettings;

/// Applies `f` to every input on `settings.jobs` workers and returns
/// the outputs in input order. See [`socsim::pool::parallel_map`].
pub fn map<I, T, F>(settings: &RunSettings, inputs: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    socsim::pool::parallel_map(settings.jobs, inputs, f)
}

/// Runs two independent closures, concurrently when the settings allow
/// more than one worker, and returns both results in argument order.
pub fn join<A, B, FA, FB>(settings: &RunSettings, fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    socsim::pool::join(settings.jobs, fa, fb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_respects_settings_jobs_and_order() {
        let serial = RunSettings::quick().with_jobs(1);
        let parallel = RunSettings::quick().with_jobs(4);
        let inputs: Vec<u32> = (0..20).collect();
        let a = map(&serial, &inputs, |i, &x| (i, x * 3));
        let b = map(&parallel, &inputs, |i, &x| (i, x * 3));
        assert_eq!(a, b);
    }

    #[test]
    fn join_matches_serial_evaluation() {
        let settings = RunSettings::quick().with_jobs(2);
        let (a, b) = join(&settings, || 2 + 2, || "ok");
        assert_eq!((a, b), (4, "ok"));
    }
}
