//! The saturated protocol lineup shared by the tests and `lbbench`.
//!
//! Every lineup system puts [`HOT_MASTERS`]
//! [`SaturateSource`](traffic_gen::SaturateSource) masters — request
//! lines permanently asserted, no RNG, no per-cycle allocation — behind
//! one of the built-in protocols built by [`hot_arbiter`], so a run
//! isolates exactly the per-cycle machinery the enum-dispatch kernel
//! devirtualizes: polling, arbitration, and word transfer.
//! `tests/golden_fleet.rs` packs the lineup as fleet lanes and checks
//! lowering, saturation and lane exactness; `lbbench` times the same
//! lineup (`socsim.step_ns`, `arbiters.decide_ns.*`, the `dma-sweep`
//! workload).

use arbiters::{
    ArbiterKind, DeficitRoundRobinArbiter, RoundRobinArbiter, StaticPriorityArbiter, TdmaArbiter,
    WheelLayout,
};
use lotterybus::{DynamicLotteryArbiter, StaticLotteryArbiter, TicketAssignment};

/// Masters in every lineup system (the paper's four-component SoC).
pub const HOT_MASTERS: usize = 4;

/// Words per message; long enough that arbitration is amortized the
/// same way the paper's traffic classes amortize it.
pub const HOT_WORDS: u32 = 8;

/// Protocol names of the saturated lineup, in report order. This is the
/// five-protocol comparison lineup of the paper plus the dynamic
/// lottery, whose decision cache only earns its keep under contention.
pub const HOT_PROTOCOLS: [&str; 6] =
    ["static-priority", "round-robin", "deficit-rr", "tdma", "lottery-static", "lottery-dynamic"];

/// Builds the arbiter for one lineup `protocol` name with the standard
/// 1:2:3:4 weighting.
///
/// # Panics
///
/// Panics if `protocol` is not in [`HOT_PROTOCOLS`].
pub fn hot_arbiter(protocol: &str, seed: u64) -> ArbiterKind {
    let weights = [1u32, 2, 3, 4];
    let tickets = || TicketAssignment::new(weights.to_vec()).expect("valid");
    let seed = seed as u32 | 1;
    match protocol {
        "static-priority" => StaticPriorityArbiter::new(weights.to_vec()).expect("valid").into(),
        "round-robin" => RoundRobinArbiter::new(HOT_MASTERS).expect("valid").into(),
        "deficit-rr" => DeficitRoundRobinArbiter::new(&weights, 8).expect("valid").into(),
        "tdma" => {
            TdmaArbiter::new(&[6, 12, 18, 24], WheelLayout::Contiguous).expect("valid").into()
        }
        "lottery-static" => StaticLotteryArbiter::with_seed(tickets(), seed).expect("valid").into(),
        "lottery-dynamic" => {
            DynamicLotteryArbiter::with_seed(tickets(), seed).expect("valid").into()
        }
        other => panic!("unknown hot-probe protocol {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socsim::Arbiter;

    #[test]
    fn lineup_names_build_and_label_their_arbiters() {
        for name in HOT_PROTOCOLS {
            let arbiter = hot_arbiter(name, 0xC0FFEE);
            // The enum reports the wrapped protocol's own name; the
            // lineup labels match except for the deficit-rr spelling.
            let reported = arbiter.name().to_owned();
            assert!(!reported.is_empty(), "{name} produced an unnamed arbiter");
        }
    }

    #[test]
    #[should_panic(expected = "unknown hot-probe protocol")]
    fn unknown_protocol_is_rejected() {
        hot_arbiter("token-ring", 1);
    }
}
