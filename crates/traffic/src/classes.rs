//! The named traffic classes of the paper's evaluation (§5.1).
//!
//! The paper sweeps "nine different classes of communication traffic"
//! (Figure 12a) and uses the first six for the latency comparison
//! (Figures 12b/12c). The exact generator settings are not published;
//! these definitions span the same qualitative space, varying:
//!
//! * *utilization* — most classes keep the bus near saturation, while T3
//!   and T6 leave it partly idle (the paper calls out T3/T6 as the
//!   under-utilized classes whose allocation no longer follows tickets);
//! * *burstiness* — memoryless, periodic and on–off arrival processes;
//! * *alignment* — periodic classes differ only in request phase, the
//!   knob that TDMA latency is so sensitive to (Example 2 / Figure 5);
//! * *message-size mix* — single-word control traffic up to multi-burst
//!   data messages.
//!
//! Per-master offered loads are split in proportion to a weight vector
//! (the same 1:2:3:4 ratio used for tickets and TDMA slots), modelling a
//! designer who provisions bandwidth according to demand.

use crate::size::SizeDist;
use crate::spec::GeneratorSpec;
use serde::{Deserialize, Serialize};

/// One of the paper's nine communication traffic classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Heavy memoryless traffic, 16-word messages.
    T1,
    /// Heavy bursty on–off traffic, 16-word messages.
    T2,
    /// Sparse memoryless traffic (under-utilized bus), 8-word messages.
    T3,
    /// Heavy periodic traffic, phases aligned.
    T4,
    /// Heavy periodic traffic, phases deliberately staggered.
    T5,
    /// Sparse bursty traffic with staggered phases (under-utilized bus,
    /// worst case for TDMA alignment).
    T6,
    /// Heavy traffic with a bimodal control/data size mix.
    T7,
    /// Heavy traffic of small (2-word) messages.
    T8,
    /// Heavy traffic of very large (64-word) messages.
    T9,
}

impl TrafficClass {
    /// All nine classes, in figure order.
    pub fn all() -> [TrafficClass; 9] {
        use TrafficClass::*;
        [T1, T2, T3, T4, T5, T6, T7, T8, T9]
    }

    /// The six classes used in the latency comparison (Figures 12b/12c).
    pub fn latency_set() -> [TrafficClass; 6] {
        use TrafficClass::*;
        [T1, T2, T3, T4, T5, T6]
    }

    /// The class name as printed in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            TrafficClass::T1 => "T1",
            TrafficClass::T2 => "T2",
            TrafficClass::T3 => "T3",
            TrafficClass::T4 => "T4",
            TrafficClass::T5 => "T5",
            TrafficClass::T6 => "T6",
            TrafficClass::T7 => "T7",
            TrafficClass::T8 => "T8",
            TrafficClass::T9 => "T9",
        }
    }

    /// Total bus utilization the class targets (sum of offered loads as
    /// a fraction of bus capacity).
    fn target_utilization(self) -> f64 {
        match self {
            TrafficClass::T3 => 0.40,
            // Low enough that every master's arrival rate stays below
            // its reserved TDMA share (1:2:3:4 weights give the lightest
            // master a 10% share), so queues stay stable.
            TrafficClass::T6 => 1.0 / 3.0,
            TrafficClass::T1 | TrafficClass::T2 => 0.85,
            TrafficClass::T8 => 0.85,
            TrafficClass::T7 | TrafficClass::T9 => 0.90,
            // The frame-locked periodic classes occupy the bus exactly.
            TrafficClass::T4 | TrafficClass::T5 => 1.00,
        }
    }

    /// Builds one generator spec per master with the default TDM frame
    /// granularity of 6 slots per weight unit (see
    /// [`TrafficClass::specs_with_frame`]).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn specs(self, weights: &[u32]) -> Vec<GeneratorSpec> {
        self.specs_with_frame(weights, 6)
    }

    /// Builds one generator spec per master, splitting the class's
    /// target utilization across masters in proportion to `weights`
    /// (except for the equal-share sparse classes T3 and T6).
    ///
    /// The periodic classes T4/T5 are *frame-locked*: requests repeat
    /// with the period of a TDM frame of `block` slots per weight unit,
    /// so that alignment between requests and slot reservations stays
    /// fixed over the whole run — T4 aligns every master's request with
    /// the start of its reserved block, while T5 shifts the phases
    /// (low-weight masters arrive three slots early; the highest-weight
    /// master arrives one sub-block late). The bursty class T6 starts
    /// every master's trains on a common grid so trains collide.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, sums to zero, or `block` is zero.
    pub fn specs_with_frame(self, weights: &[u32], block: u32) -> Vec<GeneratorSpec> {
        assert!(!weights.is_empty(), "at least one master required");
        assert!(block > 0, "frame block must be nonzero");
        let total: u32 = weights.iter().sum();
        assert!(total > 0, "weights must not all be zero");
        let n = weights.len();
        let util = self.target_utilization();
        let wheel = u64::from(block) * u64::from(total);
        let prefix = |i: usize| -> u64 {
            u64::from(block) * weights[..i].iter().map(|&w| u64::from(w)).sum::<u64>()
        };
        let share = |i: usize| -> f64 {
            match self {
                // Sparse classes load every master equally.
                TrafficClass::T3 | TrafficClass::T6 => util / n as f64,
                _ => util * f64::from(weights[i]) / f64::from(total),
            }
        };
        (0..n)
            .map(|i| {
                let load = share(i);
                match self {
                    TrafficClass::T1 => GeneratorSpec::poisson(load / 16.0, SizeDist::fixed(16)),
                    TrafficClass::T2 => bursty_with_load(load, 2, 6, 16, 17 * i as u64),
                    TrafficClass::T3 => GeneratorSpec::poisson(load / 8.0, SizeDist::fixed(8)),
                    TrafficClass::T4 => GeneratorSpec::periodic(
                        wheel,
                        prefix(i),
                        SizeDist::fixed(block * weights[i]),
                    ),
                    TrafficClass::T5 => {
                        let phase = if i == n - 1 {
                            prefix(i) + u64::from(block)
                        } else {
                            (prefix(i) + wheel - 3) % wheel
                        };
                        GeneratorSpec::periodic(wheel, phase, SizeDist::fixed(block * weights[i]))
                    }
                    TrafficClass::T6 => {
                        // Synchronized sparse clusters with asymmetric
                        // trains: every cluster period the low-weight
                        // masters each emit a train of 2·wᵢ 16-word
                        // messages while the highest-weight master emits
                        // a single latency-critical 16-word message. The
                        // bus idles between clusters (under-utilized),
                        // but during a cluster the background trains keep
                        // every slot owner pending, so the TDMA second
                        // level cannot reclaim: the critical message
                        // waits for its own (possibly far) block while
                        // the lottery serves it within a couple of draws.
                        // The cluster period is kept coprime to the TDM
                        // frame so episodes sample every wheel phase.
                        // This is the class where the paper's TDMA
                        // latency explodes while the lottery's stays low.
                        let train = |j: usize| -> u32 {
                            if j == n - 1 {
                                1
                            } else {
                                (2 * weights[j]).max(1)
                            }
                        };
                        let total_words: u32 = (0..n).map(|j| train(j) * 16).sum();
                        let mut period = (f64::from(total_words) / util).round().max(2.0) as u64;
                        while gcd(period, wheel) != 1 {
                            period += 1;
                        }
                        if train(i) == 1 {
                            GeneratorSpec::periodic(period, 0, SizeDist::fixed(16))
                        } else {
                            GeneratorSpec::bursty(
                                train(i),
                                train(i),
                                0,
                                period - 1,
                                period - 1,
                                0,
                                SizeDist::fixed(16),
                            )
                        }
                    }
                    TrafficClass::T7 => {
                        let size = SizeDist::bimodal(2, 32, 0.4);
                        GeneratorSpec::poisson(load / size.mean(), size)
                    }
                    TrafficClass::T8 => {
                        GeneratorSpec::poisson((load / 2.0).min(1.0), SizeDist::fixed(2))
                    }
                    TrafficClass::T9 => bursty_with_load(load, 1, 2, 64, 31 * i as u64),
                }
            })
            .collect()
    }
}

impl std::fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Saturating traffic for the bandwidth-sharing experiments of
/// Figures 4 and 6(a): every master offers far more than its fair share,
/// so the bus always has at least one pending request and the arbiter
/// alone decides the allocation.
pub fn saturating_specs(masters: usize) -> Vec<GeneratorSpec> {
    // Each master alone offers ~80% of the bus capacity, matching the
    // paper's Figure 4 where the top-priority component reaches ~78%.
    (0..masters).map(|_| GeneratorSpec::poisson(0.05, SizeDist::fixed(16))).collect()
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Builds a bursty on–off spec whose long-run offered load is `load`
/// words per cycle, with back-to-back bursts of `burst_min..=burst_max`
/// messages of `words` words and the given phase offset.
fn bursty_with_load(
    load: f64,
    burst_min: u32,
    burst_max: u32,
    words: u32,
    phase: u64,
) -> GeneratorSpec {
    let mean_msgs = f64::from(burst_min + burst_max) / 2.0;
    let words_per_burst = mean_msgs * f64::from(words);
    // offered_load = words_per_burst / (1 + off_mean)  for intra_gap = 0.
    let off_mean = (words_per_burst / load - 1.0).max(1.0);
    let off_min = (off_mean * 0.5).round() as u64;
    let off_max = (off_mean * 1.5).round() as u64;
    GeneratorSpec::bursty(
        burst_min,
        burst_max,
        0,
        off_min.max(1),
        off_max.max(2),
        phase,
        SizeDist::fixed(words),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_hits_its_target_utilization() {
        let weights = [1u32, 2, 3, 4];
        for class in TrafficClass::all() {
            let specs = class.specs(&weights);
            assert_eq!(specs.len(), 4);
            let load: f64 = specs.iter().map(GeneratorSpec::offered_load).sum();
            let target = class.target_utilization();
            assert!(
                (load - target).abs() < target * 0.1,
                "{class}: offered {load:.3}, target {target:.3}"
            );
        }
    }

    #[test]
    fn weighted_classes_split_load_by_weight() {
        let specs = TrafficClass::T1.specs(&[1, 2, 3, 4]);
        let loads: Vec<f64> = specs.iter().map(GeneratorSpec::offered_load).collect();
        for i in 1..4 {
            let ratio = loads[i] / loads[0];
            let expected = (i + 1) as f64;
            assert!((ratio - expected).abs() < 0.2, "ratio {ratio} vs {expected}");
        }
    }

    #[test]
    fn sparse_class_t3_splits_load_equally() {
        let specs = TrafficClass::T3.specs(&[1, 2, 3, 4]);
        let loads: Vec<f64> = specs.iter().map(GeneratorSpec::offered_load).collect();
        for i in 1..4 {
            assert!((loads[i] - loads[0]).abs() < loads[0] * 0.05, "loads {loads:?}");
        }
    }

    #[test]
    fn t6_gives_the_high_weight_master_the_lightest_load() {
        // The latency-critical component sends a single message per
        // cluster; the background masters send trains.
        let specs = TrafficClass::T6.specs(&[1, 2, 3, 4]);
        let loads: Vec<f64> = specs.iter().map(GeneratorSpec::offered_load).collect();
        assert!(loads[3] < loads[0], "loads {loads:?}");
        assert!(loads[2] > loads[1], "background trains scale with weight: {loads:?}");
    }

    #[test]
    fn staggered_classes_differ_from_aligned_only_in_phase() {
        let aligned = TrafficClass::T4.specs(&[1, 2, 3, 4]);
        let staggered = TrafficClass::T5.specs(&[1, 2, 3, 4]);
        for (a, s) in aligned.iter().zip(&staggered) {
            assert!((a.offered_load() - s.offered_load()).abs() < 1e-9);
        }
        assert_ne!(aligned, staggered);
    }

    #[test]
    fn saturating_specs_oversubscribe_the_bus() {
        let total: f64 = saturating_specs(4).iter().map(GeneratorSpec::offered_load).sum();
        assert!(total > 1.5, "total offered {total}");
    }

    #[test]
    fn latency_set_is_a_prefix_of_all() {
        let all = TrafficClass::all();
        let lat = TrafficClass::latency_set();
        assert_eq!(&all[..6], &lat[..]);
    }
}
