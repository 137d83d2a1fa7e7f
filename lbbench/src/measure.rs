//! The untraced end-to-end run of one workload.
//!
//! The run sets its inputs up, runs one untimed warm-up pass, then runs
//! timed passes back to back until the window is spent. Every pass runs
//! under `catch_unwind` and must reproduce the reference digest — the
//! golden at the default seed, otherwise the first pass's — before its
//! time counts.
//!
//! Estimators. On a host shared with other tenants, contention arrives
//! in stretches of seconds and only ever adds time, so a run's median
//! pass drifts far more from run to run than its fastest passes do.
//! `pass_s` is therefore the mean of the fastest [`FASTEST_SHARE`] of
//! the run's timed passes (the full distribution is kept in the run's
//! detail). Set-up is timed in [`SETUP_ROUNDS`] rounds spread evenly
//! over the window; each round reports its fastest of [`SETUP_SAMPLES`]
//! samples, and `setup_s` is the median of the rounds.

use crate::digest;
use crate::probe;
use crate::stats::{median, Summary};
use crate::tracer::Tracer;
use crate::workloads::{self, Engine, Inputs, Workload, DEFAULT_SEED};
use experiments::json::Json;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up rounds per run, spread evenly over the timed window.
pub const SETUP_ROUNDS: usize = 9;

/// Samples per set-up round; a round reports its fastest.
pub const SETUP_SAMPLES: usize = 25;

/// The shortest batch one set-up sample times, so even a set-up of a
/// few nanoseconds is timed far above timer resolution.
pub const SETUP_BATCH: Duration = Duration::from_micros(20);

/// Timed passes a run makes even when its window is shorter.
pub const MIN_PASSES: usize = 3;

/// The share of a run's timed passes, fastest first, that `pass_s`
/// averages (at least one pass).
pub const FASTEST_SHARE: f64 = 0.2;

/// The end-to-end metrics an untraced run reports, with their units.
pub const E2E_METRICS: [(&str, &str); 3] =
    [("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// A run's raw observations.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The workload run.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Seconds per set-up, the fastest sample of each round.
    pub setup_s: Vec<f64>,
    /// Seconds per successful timed pass, in order.
    pub pass_s: Vec<f64>,
    /// Passes attempted, warm-up included.
    pub attempted: u64,
    /// Passes that panicked or missed the reference digest.
    pub failed: u64,
    /// The digest every pass had to reproduce.
    pub reference: Option<u64>,
    /// Whether the reference is the committed golden.
    pub golden: bool,
    /// Peak resident set of the run, MiB.
    pub peak_rss_mb: f64,
    /// Share of the run's wall time spent waiting for a CPU.
    pub runqueue_wait_frac: f64,
}

impl RunReport {
    /// Whether every pass reproduced the reference.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.pass_s.is_empty() && self.reference.is_some()
    }

    /// Every observation, for `lbbench run` and for the record.
    pub fn detail_json(&self) -> Json {
        let summary = |v: &[f64]| Summary::of(v).map_or(Json::Null, |s| s.to_json());
        Json::obj()
            .field("workload", self.workload.name())
            .field("seed", self.seed)
            .field("digest", self.reference.map(digest::hex))
            .field("golden", self.golden)
            .field("pass_summary", summary(&self.pass_s))
            .field("setup_summary", summary(&self.setup_s))
            .field("setup_s", self.setup_s.clone())
            .field("pass_s", self.pass_s.clone())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("peak_rss_mb", self.peak_rss_mb)
            .field("runqueue_wait_frac", self.runqueue_wait_frac)
            .field("rss_file_mb", probe::status_mib("RssFile"))
            .field("rss_anon_mb", probe::status_mib("RssAnon"))
    }

    /// The [`E2E_METRICS`] with their values: mean of the fastest
    /// passes, median set-up round, peak resident set.
    pub fn metrics(&self) -> [(&'static str, f64, &'static str); 3] {
        let values = [fastest_mean(&self.pass_s), median(&self.setup_s), self.peak_rss_mb];
        std::array::from_fn(|i| (E2E_METRICS[i].0, values[i], E2E_METRICS[i].1))
    }
}

/// The mean of the fastest [`FASTEST_SHARE`] of `times` (`NaN` when
/// empty).
pub fn fastest_mean(times: &[f64]) -> f64 {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = ((sorted.len() as f64 * FASTEST_SHARE).round() as usize).max(1);
    sorted.get(..k).map_or(f64::NAN, |fastest| fastest.iter().sum::<f64>() / k as f64)
}

/// Runs `f` under `catch_unwind`, returning its value or the panic
/// message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "panic".to_owned())
    })
}

/// Runs one pass under `catch_unwind`, returning its digest or the
/// panic message.
pub fn guarded_pass(inputs: &Inputs, engine: Engine, tr: &mut Tracer) -> Result<u64, String> {
    guarded(|| workloads::pass(inputs, engine, tr))
}

/// Checks a pass outcome against `reference`, adopting the first
/// successful digest when there is none yet.
pub fn check(outcome: &Result<u64, String>, reference: &mut Option<u64>, label: &str) -> bool {
    match outcome {
        Err(msg) => {
            eprintln!("{label}: pass failed: {msg}");
            false
        }
        Ok(d) => match *reference {
            None => {
                *reference = Some(*d);
                true
            }
            Some(r) if r == *d => true,
            Some(r) => {
                eprintln!(
                    "{label}: digest {} differs from the reference {}",
                    digest::hex(*d),
                    digest::hex(r)
                );
                false
            }
        },
    }
}

/// Times the set-up of one workload in rounds.
pub struct SetupSampler {
    workload: Workload,
    seed: u64,
    /// Set-ups per sample, sized to [`SETUP_BATCH`].
    batch: u64,
}

impl SetupSampler {
    /// Sizes the batch and returns the inputs of one set-up.
    pub fn new(workload: Workload, seed: u64) -> Result<(SetupSampler, Inputs), String> {
        let mut sampler = SetupSampler { workload, seed, batch: 1 };
        loop {
            let (took, inputs) = sampler.sample()?;
            if took >= SETUP_BATCH {
                return Ok((sampler, inputs));
            }
            sampler.batch *= 2;
        }
    }

    /// One batch: its wall time and the last set-up's inputs.
    fn sample(&self) -> Result<(Duration, Inputs), String> {
        let start = Instant::now();
        let mut last = workloads::setup(self.workload, self.seed)?;
        for _ in 1..self.batch {
            last = black_box(workloads::setup(self.workload, self.seed)?);
        }
        Ok((start.elapsed(), last))
    }

    /// One round: the fastest of [`SETUP_SAMPLES`] samples, in seconds
    /// per set-up.
    pub fn round(&self) -> Result<f64, String> {
        let mut fastest = f64::INFINITY;
        for _ in 0..SETUP_SAMPLES {
            let (took, _) = self.sample()?;
            fastest = fastest.min(took.as_secs_f64() / self.batch as f64);
        }
        Ok(fastest)
    }
}

/// Runs workload `w` at `seed`, timing passes for `seconds`.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<RunReport, String> {
    let wait0 = probe::runqueue_wait_ns();
    let start = Instant::now();
    let (sampler, inputs) = SetupSampler::new(w, seed)?;
    let mut setup_s = vec![sampler.round()?];
    let engine = w.default_engine();
    let golden = if seed == DEFAULT_SEED { workloads::golden(w) } else { None };
    let mut reference = golden;
    let mut off = Tracer::off();

    let mut attempted = 1;
    let warm = guarded_pass(&inputs, engine, &mut off);
    let mut failed = u64::from(!check(&warm, &mut reference, w.name()));

    let mut pass_s = Vec::new();
    let window = Instant::now();
    loop {
        let elapsed = window.elapsed().as_secs_f64();
        if elapsed >= seconds && attempted as usize > MIN_PASSES {
            break;
        }
        if setup_s.len() < SETUP_ROUNDS
            && elapsed >= seconds * setup_s.len() as f64 / SETUP_ROUNDS as f64
        {
            setup_s.push(sampler.round()?);
        }
        let t = Instant::now();
        let outcome = guarded_pass(&inputs, engine, &mut off);
        let took = t.elapsed().as_secs_f64();
        attempted += 1;
        if check(&outcome, &mut reference, w.name()) {
            pass_s.push(took);
        } else {
            failed += 1;
        }
    }
    while setup_s.len() < SETUP_ROUNDS {
        setup_s.push(sampler.round()?);
    }

    let wall = start.elapsed().as_secs_f64();
    let waited = match (wait0, probe::runqueue_wait_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 * 1e-9,
        _ => 0.0,
    };
    Ok(RunReport {
        workload: w,
        seed,
        setup_s,
        pass_s,
        attempted,
        failed,
        reference,
        golden: golden.is_some(),
        peak_rss_mb: probe::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?,
        runqueue_wait_frac: waited / wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_mean_averages_the_fastest_fifth() {
        let times: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(fastest_mean(&times), 1.5, "fastest 2 of 10");
        assert_eq!(fastest_mean(&[3.0, 2.0]), 2.0, "at least one pass");
        assert!(fastest_mean(&[]).is_nan());
    }
}
