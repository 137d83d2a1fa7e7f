//! Figure 5: TDMA wait times under two phase alignments of the same
//! periodic request pattern.
//!
//! Three masters reserve contiguous 6-slot blocks of an 18-slot timing
//! wheel. Masters M1 and M2 are saturated (they always have backlog, so
//! idle-slot reclaim cannot mask alignment effects); the observed master
//! M3 issues one 6-word message per wheel rotation. When M3's requests
//! are time-aligned with its reserved block the wait is zero; shifting
//! the same request trace to arrive three slots *early* makes every
//! transaction wait three slots for the block to come around — the
//! paper's Example 2.

use crate::json::{Json, ToJson};
use arbiters::{TdmaArbiter, WheelLayout};
use socsim::{BusConfig, Kernel, MasterId, SystemBuilder};
use traffic_gen::{GeneratorSpec, ReplaySource, SizeDist, SourceKind};

/// Words per message and slots per reservation block (the paper's
/// "6 contiguous slots defining the size of a burst").
pub const BLOCK: u32 = 6;

/// Result of one trace replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Trace {
    /// How many slots early M3's requests arrive relative to its block.
    pub slots_early: u64,
    /// Average waiting slots per M3 transaction.
    pub mean_wait: f64,
    /// Symbolic bus-ownership trace (one character per cycle).
    pub bus_trace: String,
}

/// The full figure: the aligned trace and the phase-shifted trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5 {
    /// Request trace 1: M3's requests aligned with its reservation.
    pub aligned: Fig5Trace,
    /// Request trace 2: the same requests, three slots early.
    pub misaligned: Fig5Trace,
}

fn replay_run(slots_early: u64, rotations: usize, kernel: Kernel) -> Fig5Trace {
    let wheel = u64::from(BLOCK) * 3; // 18 slots
                                      // M3's block spans slots [12, 18); its k-th request arrives
                                      // `slots_early` cycles before the block of rotation k+1 opens.
    let m3_phase = 2 * u64::from(BLOCK) - slots_early;
    let mut builder =
        SystemBuilder::new(BusConfig { max_burst: BLOCK, ..BusConfig::default() }).kernel(kernel);
    // Saturated background masters: far more traffic than their blocks
    // can carry, so their request lines are always asserted.
    for m in 0..2 {
        let spec = GeneratorSpec::periodic(wheel / 2, 0, SizeDist::fixed(BLOCK));
        builder = builder.master(format!("M{}", m + 1), spec.build_kind(100 + m as u64));
    }
    builder = builder.master(
        "M3",
        SourceKind::from(ReplaySource::periodic(0, m3_phase, wheel, BLOCK, rotations)),
    );
    let arbiter = TdmaArbiter::new(&[BLOCK; 3], WheelLayout::Contiguous).expect("valid wheel");
    let mut system = builder
        .arbiter(arbiter)
        .trace_capacity(8 * wheel as usize * rotations)
        .build()
        .expect("valid system");
    let cycles = wheel * (rotations as u64 + 3);
    system.run(cycles);
    let wait = system
        .stats()
        .master(MasterId::new(2))
        .wait_per_transaction()
        .expect("M3 transactions complete");
    Fig5Trace {
        slots_early,
        mean_wait: wait,
        bus_trace: system.trace().render_owners(0..3 * wheel),
    }
}

/// Runs the Figure 5 experiment: the same periodic request pattern with
/// and without a phase shift relative to the slot reservations.
pub fn run() -> Fig5 {
    run_jobs(1)
}

/// [`run`] with an explicit worker count (`0` = auto): the two replays
/// are independent, fully deterministic simulations, so running them
/// concurrently produces the identical `Fig5`.
pub fn run_jobs(jobs: usize) -> Fig5 {
    run_kernel(jobs, Kernel::Cycle)
}

/// [`run_jobs`] with an explicit kernel choice: every kernel produces
/// the identical `Fig5` (the suite's kernel-diff gate checks this byte
/// for byte).
pub fn run_kernel(jobs: usize, kernel: Kernel) -> Fig5 {
    let (aligned, misaligned) =
        socsim::pool::join(jobs, || replay_run(0, 12, kernel), || replay_run(3, 12, kernel));
    Fig5 { aligned, misaligned }
}

impl ToJson for Fig5Trace {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("slots_early", self.slots_early)
            .field("mean_wait", self.mean_wait)
            .field("bus_trace", self.bus_trace.as_str())
    }
}

impl ToJson for Fig5 {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("aligned", self.aligned.to_json())
            .field("misaligned", self.misaligned.to_json())
    }
}

impl std::fmt::Display for Fig5 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 5: TDMA latency vs request/reservation alignment")?;
        writeln!(f, "(M1, M2 saturated; M3 periodic, one 6-word message per rotation)")?;
        for (name, trace) in
            [("trace 1 (aligned)", &self.aligned), ("trace 2 (3 slots early)", &self.misaligned)]
        {
            writeln!(f, "{name}:")?;
            writeln!(f, "  bus: {}", trace.bus_trace)?;
            writeln!(f, "  M3 mean wait: {:.1} slots per transaction", trace.mean_wait)?;
        }
        write!(
            f,
            "the phase shift alone grows the wait from {:.1} to {:.1} slots",
            self.aligned.mean_wait, self.misaligned.mean_wait,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_determines_wait() {
        let fig = run();
        // Paper: minimal wait when aligned, ~3 slots when shifted.
        assert!(fig.aligned.mean_wait <= 1.0, "aligned wait {}", fig.aligned.mean_wait);
        assert!(
            (fig.misaligned.mean_wait - 3.0).abs() <= 1.0,
            "misaligned wait {}",
            fig.misaligned.mean_wait
        );
    }

    #[test]
    fn figure5_is_bit_exact_reproducible() {
        // Fully deterministic: a golden snapshot of the rendered traces.
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.aligned.bus_trace, "000000111111222222000000111111222222000000111111222222");
        assert_eq!(a.aligned.mean_wait, 0.0);
        assert_eq!(a.misaligned.mean_wait, 3.0);
    }

    #[test]
    fn concurrent_replays_match_serial() {
        assert_eq!(run_jobs(2), run());
    }

    #[test]
    fn fast_and_tlm_kernel_replays_match_the_cycle_kernel() {
        assert_eq!(run_kernel(1, Kernel::Fast), run(), "fast kernel disagrees on Figure 5");
        assert_eq!(run_kernel(1, Kernel::Tlm), run(), "tlm kernel disagrees on Figure 5");
    }

    #[test]
    fn traces_show_all_three_masters() {
        let fig = run();
        for c in ['0', '1', '2'] {
            assert!(fig.aligned.bus_trace.contains(c), "missing {c} in trace");
        }
    }

    #[test]
    fn misalignment_does_not_change_bandwidth() {
        // Both traces carry the same M3 message stream; only waits move.
        let fig = run();
        assert_eq!(
            fig.aligned.bus_trace.matches('2').count(),
            fig.misaligned.bus_trace.matches('2').count()
        );
    }
}
