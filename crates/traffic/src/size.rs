//! Message-size distributions.

use rand::Rng;

/// Distribution of message sizes in bus words.
///
/// ```
/// use traffic_gen::SizeDist;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let d = SizeDist::uniform(4, 8);
/// let w = d.sample(&mut rng);
/// assert!((4..=8).contains(&w));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDist {
    /// Every message has exactly this many words.
    Fixed(u32),
    /// Sizes drawn uniformly from `lo..=hi`.
    Uniform {
        /// Smallest message size.
        lo: u32,
        /// Largest message size.
        hi: u32,
    },
    /// A mix of small control messages and large data messages.
    Bimodal {
        /// Size of the small (control) messages.
        small: u32,
        /// Size of the large (data) messages.
        large: u32,
        /// Probability of drawing a large message.
        large_prob: f64,
    },
}

impl SizeDist {
    /// A fixed size of `words`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    pub fn fixed(words: u32) -> Self {
        assert!(words > 0, "messages must have at least one word");
        SizeDist::Fixed(words)
    }

    /// Uniform sizes in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo` is zero or `lo > hi`.
    pub fn uniform(lo: u32, hi: u32) -> Self {
        assert!(lo > 0, "messages must have at least one word");
        assert!(lo <= hi, "size range reversed");
        SizeDist::Uniform { lo, hi }
    }

    /// A `small`/`large` mix with `large_prob` chance of a large message.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero or `large_prob` is outside `[0, 1]`.
    pub fn bimodal(small: u32, large: u32, large_prob: f64) -> Self {
        assert!(small > 0 && large > 0, "messages must have at least one word");
        assert!((0.0..=1.0).contains(&large_prob), "probability out of range");
        SizeDist::Bimodal { small, large, large_prob }
    }

    /// Draws one message size.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match *self {
            SizeDist::Fixed(w) => w,
            SizeDist::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            SizeDist::Bimodal { small, large, large_prob } => {
                if rng.gen_bool(large_prob) {
                    large
                } else {
                    small
                }
            }
        }
    }

    /// Expected message size in words.
    pub fn mean(&self) -> f64 {
        self.expect(f64::from)
    }

    /// Expectation of an arbitrary per-size function `f` under this
    /// distribution, computed exactly (every variant has finite
    /// support). This is how the analytic model derives tenure-duration
    /// moments: `f` maps a message size to its bus-tenure cost.
    pub fn expect(&self, mut f: impl FnMut(u32) -> f64) -> f64 {
        match *self {
            SizeDist::Fixed(w) => f(w),
            SizeDist::Uniform { lo, hi } => {
                let n = f64::from(hi - lo + 1);
                (lo..=hi).map(|w| f(w) / n).sum()
            }
            SizeDist::Bimodal { small, large, large_prob } => {
                f(small) * (1.0 - large_prob) + f(large) * large_prob
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_always_samples_itself() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = SizeDist::fixed(7);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 7);
        }
        assert_eq!(d.mean(), 7.0);
    }

    #[test]
    fn uniform_stays_in_range_and_matches_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = SizeDist::uniform(4, 12);
        let mut sum = 0u64;
        let n = 20_000;
        for _ in 0..n {
            let w = d.sample(&mut rng);
            assert!((4..=12).contains(&w));
            sum += u64::from(w);
        }
        let mean = sum as f64 / f64::from(n);
        assert!((mean - d.mean()).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn bimodal_mixes_at_requested_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = SizeDist::bimodal(2, 32, 0.25);
        let mut large = 0u32;
        for _ in 0..10_000 {
            if d.sample(&mut rng) == 32 {
                large += 1;
            }
        }
        let p = f64::from(large) / 10_000.0;
        assert!((p - 0.25).abs() < 0.02, "large fraction {p}");
        assert!((d.mean() - 9.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_size_rejected() {
        let _ = SizeDist::fixed(0);
    }

    #[test]
    #[should_panic(expected = "range reversed")]
    fn reversed_range_rejected() {
        let _ = SizeDist::uniform(9, 4);
    }
}
