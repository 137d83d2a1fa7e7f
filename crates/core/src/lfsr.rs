//! Maximal-length Galois linear-feedback shift registers.
//!
//! The paper's static lottery manager generates its random draws with an
//! LFSR (§4.3: "If T is a power of two, random numbers can be efficiently
//! generated using a linear feedback shift register"). This module
//! provides software-exact models of maximal-length Galois LFSRs for
//! widths 2–32 bits.

/// Feedback masks for maximal-length Galois LFSRs of width 2..=32.
///
/// Index `w - 2` holds the mask for width `w`. Each mask corresponds to a
/// primitive polynomial (taps from the standard XAPP052 table), so the
/// register cycles through all `2^w − 1` nonzero states.
const MAX_LEN_MASKS: [u32; 31] = [
    mask(&[2, 1]),           // w = 2
    mask(&[3, 2]),           // w = 3
    mask(&[4, 3]),           // w = 4
    mask(&[5, 3]),           // w = 5
    mask(&[6, 5]),           // w = 6
    mask(&[7, 6]),           // w = 7
    mask(&[8, 6, 5, 4]),     // w = 8
    mask(&[9, 5]),           // w = 9
    mask(&[10, 7]),          // w = 10
    mask(&[11, 9]),          // w = 11
    mask(&[12, 6, 4, 1]),    // w = 12
    mask(&[13, 4, 3, 1]),    // w = 13
    mask(&[14, 5, 3, 1]),    // w = 14
    mask(&[15, 14]),         // w = 15
    mask(&[16, 15, 13, 4]),  // w = 16
    mask(&[17, 14]),         // w = 17
    mask(&[18, 11]),         // w = 18
    mask(&[19, 6, 2, 1]),    // w = 19
    mask(&[20, 17]),         // w = 20
    mask(&[21, 19]),         // w = 21
    mask(&[22, 21]),         // w = 22
    mask(&[23, 18]),         // w = 23
    mask(&[24, 23, 22, 17]), // w = 24
    mask(&[25, 22]),         // w = 25
    mask(&[26, 6, 2, 1]),    // w = 26
    mask(&[27, 5, 2, 1]),    // w = 27
    mask(&[28, 25]),         // w = 28
    mask(&[29, 27]),         // w = 29
    mask(&[30, 6, 4, 1]),    // w = 30
    mask(&[31, 28]),         // w = 31
    mask(&[32, 22, 2, 1]),   // w = 32
];

const fn mask(taps: &[u32]) -> u32 {
    let mut m = 0u32;
    let mut i = 0;
    while i < taps.len() {
        m |= 1 << (taps[i] - 1);
        i += 1;
    }
    m
}

/// Precomputed effect of eight Galois steps as a function of the low
/// register byte.
///
/// The Galois step `s ← (s >> 1) ^ (s & 1)·mask` is linear over GF(2),
/// so eight steps factor as `L⁸(s) = (s >> 8) ^ L⁸(s & 0xff)`: the high
/// bits only shift down (their low eight bits are zero, so no feedback
/// fires on their account), and the low byte's contribution — both the
/// eight output bits and the feedback XORs it injects — is a pure
/// function of that byte. One table per width (the mask differs), built
/// once and cached in a `OnceLock` (inline storage, no heap).
struct StepTable {
    /// `state[b]` = the register after eight steps from state `b`.
    state: [u32; 256],
    /// `out[b]` = the eight output bits, MSB-first (first bit out in
    /// bit 7), matching `next_bits`'s accumulation order.
    out: [u8; 256],
}

impl StepTable {
    fn build(mask: u32) -> Self {
        let mut table = StepTable { state: [0; 256], out: [0; 256] };
        for b in 0..256u32 {
            let mut s = b;
            let mut o = 0u8;
            for _ in 0..8 {
                let bit = s & 1;
                s >>= 1;
                if bit == 1 {
                    s ^= mask;
                }
                o = (o << 1) | bit as u8;
            }
            table.state[b as usize] = s;
            table.out[b as usize] = o;
        }
        table
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_TABLE: std::sync::OnceLock<StepTable> = std::sync::OnceLock::new();
static STEP_TABLES: [std::sync::OnceLock<StepTable>; 31] = [EMPTY_TABLE; 31];

fn step_table(width: u32) -> &'static StepTable {
    let slot = (width - 2) as usize;
    STEP_TABLES[slot].get_or_init(|| StepTable::build(MAX_LEN_MASKS[slot]))
}

/// A Galois LFSR of configurable width with maximal-length feedback.
///
/// ```
/// use lotterybus::Lfsr;
/// let mut lfsr = Lfsr::new(4, 1);
/// // A 4-bit maximal LFSR revisits its seed after exactly 15 steps.
/// let seed = lfsr.state();
/// for _ in 0..15 { lfsr.step(); }
/// assert_eq!(lfsr.state(), seed);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    state: u32,
    mask: u32,
    width: u32,
}

impl Lfsr {
    /// Creates a `width`-bit maximal-length LFSR seeded with `seed`.
    ///
    /// The seed is truncated to `width` bits; a zero seed (the one dead
    /// state of an LFSR) is mapped to all-ones, mirroring hardware
    /// practice of resetting the register to a nonzero value.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `2..=32`.
    pub fn new(width: u32, seed: u32) -> Self {
        assert!((2..=32).contains(&width), "LFSR width must be in 2..=32");
        let wrap = if width == 32 { u32::MAX } else { (1 << width) - 1 };
        let state = seed & wrap;
        Lfsr {
            state: if state == 0 { wrap } else { state },
            mask: MAX_LEN_MASKS[(width - 2) as usize],
            width,
        }
    }

    /// The register width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The current register contents.
    pub fn state(&self) -> u32 {
        self.state
    }

    /// Advances the register one step and returns the output bit that
    /// was shifted out.
    pub fn step(&mut self) -> u32 {
        let out = self.state & 1;
        self.state >>= 1;
        if out == 1 {
            self.state ^= self.mask;
        }
        out
    }

    /// Collects `bits` output bits into an integer in `[0, 2^bits)`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 32.
    pub fn next_bits(&mut self, bits: u32) -> u32 {
        assert!((1..=32).contains(&bits), "can collect 1..=32 bits");
        let mut value: u32 = 0;
        let mut remaining = bits;
        if remaining >= 8 {
            // Table-stepped fast path: eight steps per lookup, exact by
            // the linearity argument on [`StepTable`]. Output order is
            // identical to the per-bit loop (MSB-first).
            let table = step_table(self.width);
            while remaining >= 8 {
                let b = (self.state & 0xff) as usize;
                value = (value << 8) | u32::from(table.out[b]);
                self.state = (self.state >> 8) ^ table.state[b];
                remaining -= 8;
            }
        }
        for _ in 0..remaining {
            value = (value << 1) | self.step();
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_widths_are_maximal_up_to_16() {
        // Exhaustively verify the period for every width we can afford.
        for width in 2..=16u32 {
            let mut lfsr = Lfsr::new(width, 1);
            let start = lfsr.state();
            let period = (1u64 << width) - 1;
            let mut seen = HashSet::new();
            for step in 0..period {
                assert!(seen.insert(lfsr.state()), "width {width} repeats early at {step}");
                lfsr.step();
            }
            assert_eq!(lfsr.state(), start, "width {width} period is not 2^w-1");
        }
    }

    #[test]
    fn wide_registers_do_not_repeat_quickly() {
        for width in [17u32, 20, 24, 32] {
            let mut lfsr = Lfsr::new(width, 0xDEAD_BEEF);
            let start = lfsr.state();
            for _ in 0..100_000 {
                lfsr.step();
                assert_ne!(lfsr.state(), 0, "LFSR entered dead state");
            }
            assert_ne!(lfsr.state(), start);
        }
    }

    #[test]
    fn zero_seed_is_mapped_to_nonzero() {
        let lfsr = Lfsr::new(8, 0);
        assert_ne!(lfsr.state(), 0);
        let lfsr = Lfsr::new(8, 256); // truncates to 0
        assert_ne!(lfsr.state(), 0);
    }

    #[test]
    fn next_bits_covers_the_range_uniformly() {
        let mut lfsr = Lfsr::new(16, 0xACE1);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[lfsr.next_bits(3) as usize] += 1;
        }
        for (value, &count) in counts.iter().enumerate() {
            assert!((800..1200).contains(&count), "value {value} drawn {count} times out of 8000");
        }
    }

    #[test]
    #[should_panic(expected = "width must be in")]
    fn width_one_rejected() {
        let _ = Lfsr::new(1, 1);
    }

    #[test]
    fn table_stepped_next_bits_matches_the_per_bit_loop() {
        // The >= 8 bit path goes through the precomputed step tables;
        // replay every draw against a per-bit reference on a clone.
        for width in 2..=32u32 {
            let mut fast = Lfsr::new(width, 0xACE1_F00D ^ width);
            let mut slow = fast.clone();
            for round in 0..200u32 {
                let bits = 1 + (round * 7 + width) % 32;
                let mut reference = 0u32;
                for _ in 0..bits {
                    reference = (reference << 1) | slow.step();
                }
                assert_eq!(fast.next_bits(bits), reference, "width {width} bits {bits} diverge");
                assert_eq!(fast.state(), slow.state(), "width {width} register diverges");
            }
        }
    }
}
