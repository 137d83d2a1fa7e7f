//! Performance statistics: bandwidth fractions and per-word latencies.
//!
//! These are exactly the metrics the paper reports: the fraction of total
//! bus bandwidth each component receives (Figures 4, 6a, 12a, Table 1) and
//! the average number of bus cycles spent per transferred word, including
//! both waiting and transfer time (Figures 6b, 12b, 12c, Table 1).

use crate::ids::MasterId;
use crate::master::Completion;

/// A logarithmic histogram of per-transaction latencies: bucket *k*
/// counts transactions whose latency lies in `[2^k, 2^(k+1))` cycles.
///
/// The coarse buckets give quantile *upper bounds* within a factor of
/// two at constant memory — enough to see tail-latency differences
/// between arbiters, which averages hide.
///
/// ```
/// use socsim::stats::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for latency in [1, 2, 3, 100] {
///     h.record(latency);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.quantile(0.5), Some(4));    // half finish below 4 cycles
/// assert_eq!(h.quantile(1.0), Some(128));  // the stragglers below 128
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { buckets: vec![0; 64], count: 0 }
    }

    /// Records one transaction latency (in cycles).
    pub fn record(&mut self, latency: u64) {
        let bucket = if latency == 0 { 0 } else { 63 - latency.leading_zeros() as usize };
        self.buckets[bucket.min(63)] += 1;
        self.count += 1;
    }

    /// Number of recorded latencies.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Estimated fraction of recorded latencies that are at most
    /// `latency` cycles (the empirical CDF), or `None` if nothing was
    /// recorded. Within the bucket containing `latency` the count is
    /// linearly interpolated. The result is monotone nondecreasing in
    /// `latency` and reaches 1.0 once `latency` covers every bucket.
    ///
    /// ```
    /// use socsim::stats::LatencyHistogram;
    /// let mut h = LatencyHistogram::new();
    /// for v in [0, 1, 2, 100] { h.record(v); }
    /// assert_eq!(h.fraction_at_most(0), Some(0.25));  // half of bucket [0, 2)
    /// assert_eq!(h.fraction_at_most(3), Some(0.75));
    /// assert_eq!(h.fraction_at_most(1_000), Some(1.0));
    /// ```
    pub fn fraction_at_most(&self, latency: u64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let mut included = 0.0f64;
        for (k, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            // Bucket k spans [lo, top] inclusive with `top = 2·lo − 1`,
            // computed overflow-free: for k = 63 that is exactly
            // `u64::MAX`. The former `checked_shl` saturation collapsed
            // the top bucket's upper bound onto `u64::MAX` *exclusive*,
            // mis-sizing its width and mis-judging coverage for
            // latencies near the top of the range.
            let lo = 1u64 << k;
            let top = lo - 1 + lo;
            if k == 0 {
                // Bucket 0 spans latencies [0, 2): `record(0)` and
                // `record(1)` both land here. At `latency == 0` half the
                // span is covered, matching the interpolation below.
                included += if latency >= 1 { c as f64 } else { c as f64 / 2.0 };
            } else if latency >= top {
                included += c as f64;
            } else if latency >= lo {
                // Linear interpolation inside the straddled bucket; the
                // width `lo` (= 2^k) is exact in f64 for every k.
                let covered = (latency - lo + 1) as f64 / lo as f64;
                included += c as f64 * covered;
            }
        }
        Some((included / self.count as f64).min(1.0))
    }

    /// An upper bound (within 2×) on the `q`-quantile latency, or
    /// `None` if nothing was recorded.
    ///
    /// Both edges have defined conventions:
    ///
    /// * `q == 0.0` returns the **lower** bound of the first occupied
    ///   bucket (`0` for bucket 0, else `2^k`) — a defined minimum.
    ///   Earlier versions clamped the rank to 1 here and reported that
    ///   bucket's *upper* bound, so an all-zero-latency histogram
    ///   claimed a 2-cycle minimum.
    /// * every `q > 0.0` (including `q == 1.0`) returns the 2× upper
    ///   bound `2^(k+1)` of the bucket holding the `ceil(q·count)`-th
    ///   smallest latency, saturating at `u64::MAX` for the top bucket.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        if q == 0.0 {
            let first = self.buckets.iter().position(|&c| c > 0)?;
            return Some(if first == 0 { 0 } else { 1u64 << first });
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(1u64.checked_shl(k as u32 + 1).unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Accumulated statistics for one master.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MasterStats {
    /// Words actually transferred over the bus (including words of
    /// transactions still in flight when the run ended).
    pub words: u64,
    /// Transactions fully completed.
    pub transactions: u64,
    /// Words belonging to completed transactions (the denominator of
    /// [`MasterStats::cycles_per_word`]).
    pub completed_words: u64,
    /// Sum over completed transactions of (completion − issue) cycles.
    pub total_latency: u64,
    /// Sum over completed transactions of (first grant − issue) cycles.
    pub total_wait: u64,
    /// Largest single-transaction latency observed.
    pub max_latency: u64,
    /// Number of grants received (bursts won).
    pub grants: u64,
    /// Slave error responses (including outage cycles) received.
    pub slave_errors: u64,
    /// Failed attempts that were re-queued for retry.
    pub retries: u64,
    /// Transactions aborted by the bus watchdog timeout.
    pub timeouts: u64,
    /// Transactions abandoned without completing (retry exhaustion plus
    /// watchdog timeouts).
    pub aborted: u64,
    /// Distribution of per-transaction latencies.
    pub latency_histogram: LatencyHistogram,
}

impl MasterStats {
    /// Average bus cycles per word over completed transactions, including
    /// waiting and transfer time. Returns `None` before any completion.
    ///
    /// This is the paper's latency metric: Σ latency / Σ words.
    pub fn cycles_per_word(&self) -> Option<f64> {
        (self.completed_words > 0).then(|| self.total_latency as f64 / self.completed_words as f64)
    }

    /// Average waiting cycles per completed transaction.
    pub fn wait_per_transaction(&self) -> Option<f64> {
        (self.transactions > 0).then(|| self.total_wait as f64 / self.transactions as f64)
    }

    /// Upper bound (within 2×) on the `q`-quantile per-transaction
    /// latency, e.g. `latency_quantile(0.99)` for tail latency.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn latency_quantile(&self, q: f64) -> Option<u64> {
        self.latency_histogram.quantile(q)
    }

    /// Records a completed transaction of `words` words with the given
    /// end-to-end `latency` and initial `wait` (all in cycles).
    #[inline]
    fn record_transaction(&mut self, words: u32, latency: u64, wait: u64) {
        self.transactions += 1;
        self.completed_words += u64::from(words);
        self.total_latency += latency;
        self.total_wait += wait;
        self.max_latency = self.max_latency.max(latency);
        self.latency_histogram.record(latency);
    }
}

/// Jain's fairness index of a set of allocations:
/// `(Σxᵢ)² / (n·Σxᵢ²)`. Equal shares score 1; a single hog among `n`
/// components scores `1/n`. Used to quantify how evenly an arbiter
/// distributes bandwidth relative to the intended weights (divide each
/// share by its weight first for weighted fairness).
///
/// Returns 0 for an empty or all-zero input.
///
/// ```
/// use socsim::stats::jain_fairness_index;
/// assert!((jain_fairness_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
/// assert!((jain_fairness_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
/// ```
pub fn jain_fairness_index(allocations: &[f64]) -> f64 {
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if allocations.is_empty() || sum_sq == 0.0 {
        0.0
    } else {
        sum * sum / (allocations.len() as f64 * sum_sq)
    }
}

/// Statistics for a whole simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BusStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Cycles in which a word was transferred.
    pub busy_cycles: u64,
    /// Cycles lost to arbitration overhead or slave wait states.
    pub stall_cycles: u64,
    /// Total grants issued.
    pub grants: u64,
    /// Injected slave error responses (including outage cycles).
    pub slave_errors: u64,
    /// Grants dropped on the arbiter-to-master path.
    pub dropped_grants: u64,
    /// Grants delivered to the wrong master.
    pub corrupted_grants: u64,
    /// Failed attempts re-queued for retry.
    pub retries: u64,
    /// Transactions aborted by the watchdog timeout.
    pub timeouts: u64,
    /// Transactions abandoned without completing (retry exhaustion plus
    /// watchdog timeouts).
    pub aborted_transactions: u64,
    /// Times the failover arbiter replaced a misbehaving primary.
    pub failovers: u64,
    /// Arbitration decisions taken with two or more masters pending —
    /// the cycles in which the arbiter actually had to choose.
    pub contended_arbitrations: u64,
    per_master: Vec<MasterStats>,
}

impl BusStats {
    /// Creates empty statistics for `masters` masters.
    pub fn new(masters: usize) -> Self {
        BusStats {
            cycles: 0,
            busy_cycles: 0,
            stall_cycles: 0,
            grants: 0,
            slave_errors: 0,
            dropped_grants: 0,
            corrupted_grants: 0,
            retries: 0,
            timeouts: 0,
            aborted_transactions: 0,
            failovers: 0,
            contended_arbitrations: 0,
            per_master: vec![MasterStats::default(); masters],
        }
    }

    /// Per-master statistics, indexed by master id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this bus.
    pub fn master(&self, id: MasterId) -> &MasterStats {
        &self.per_master[id.index()]
    }

    /// All per-master statistics in master-id order.
    pub fn masters(&self) -> &[MasterStats] {
        &self.per_master
    }

    /// Fraction of total bus bandwidth consumed by `id`:
    /// words transferred by the master divided by elapsed cycles.
    pub fn bandwidth_fraction(&self, id: MasterId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.per_master[id.index()].words as f64 / self.cycles as f64
        }
    }

    /// Fraction of cycles in which the bus transferred a word.
    pub fn bus_utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.cycles as f64
        }
    }

    /// Fraction of bus bandwidth left unused (idle or stalled).
    pub fn unused_fraction(&self) -> f64 {
        1.0 - self.bus_utilization()
    }

    /// Records a grant to `id`.
    #[inline]
    pub fn record_grant(&mut self, id: MasterId) {
        self.grants += 1;
        self.per_master[id.index()].grants += 1;
    }

    /// Records `n` grants to `id` in one step — the batched form of
    /// [`BusStats::record_grant`] used by the fleet's TDMA slot walk.
    /// Equivalent to calling it `n` times.
    #[inline]
    pub fn record_grants(&mut self, id: MasterId, n: u64) {
        self.grants += n;
        self.per_master[id.index()].grants += n;
    }

    /// Records `words` transferred by `id` (each word = one busy cycle).
    #[inline]
    pub fn record_words(&mut self, id: MasterId, words: u32) {
        self.busy_cycles += u64::from(words);
        self.per_master[id.index()].words += u64::from(words);
    }

    /// Records stall cycles (arbitration overhead / wait states).
    #[inline]
    pub fn record_stall(&mut self, cycles: u32) {
        self.stall_cycles += u64::from(cycles);
    }

    /// Records a completed transaction.
    #[inline]
    pub fn record_completion(&mut self, id: MasterId, completion: &Completion) {
        self.per_master[id.index()].record_transaction(
            completion.txn.words(),
            completion.latency(),
            completion.wait(),
        );
    }

    /// Records an injected slave error response received by `id`.
    pub fn record_slave_error(&mut self, id: MasterId) {
        self.slave_errors += 1;
        self.per_master[id.index()].slave_errors += 1;
    }

    /// Records a grant dropped on its way to the granted master.
    pub fn record_dropped_grant(&mut self) {
        self.dropped_grants += 1;
    }

    /// Records a grant delivered to the wrong master.
    pub fn record_corrupted_grant(&mut self) {
        self.corrupted_grants += 1;
    }

    /// Records a failed attempt by `id` that was re-queued for retry.
    pub fn record_retry(&mut self, id: MasterId) {
        self.retries += 1;
        self.per_master[id.index()].retries += 1;
    }

    /// Records a transaction of `id` abandoned after exhausting retries.
    pub fn record_abort(&mut self, id: MasterId) {
        self.aborted_transactions += 1;
        self.per_master[id.index()].aborted += 1;
    }

    /// Records a wedged transaction of `id` aborted by the watchdog
    /// (counted both as a timeout and as an aborted transaction).
    pub fn record_timeout(&mut self, id: MasterId) {
        self.timeouts += 1;
        self.per_master[id.index()].timeouts += 1;
        self.record_abort(id);
    }

    /// Total injected fault disturbances recorded in these statistics
    /// (errors, dropped/corrupted grants — retries and aborts are
    /// consequences, not separate disturbances).
    pub fn fault_disturbances(&self) -> u64 {
        self.slave_errors + self.dropped_grants + self.corrupted_grants
    }

    /// Records an arbitration decision taken while two or more masters
    /// were pending (a *contended* arbitration).
    #[inline]
    pub fn record_contended_arbitration(&mut self) {
        self.contended_arbitrations += 1;
    }

    /// Records `n` contended arbitration decisions in one step — the
    /// batched form of [`BusStats::record_contended_arbitration`].
    #[inline]
    pub fn record_contended_arbitrations(&mut self, n: u64) {
        self.contended_arbitrations += n;
    }

    /// Counts one elapsed simulation cycle. Called once per [`crate::System::step`],
    /// so resetting statistics after a warm-up period measures only the
    /// steady-state window.
    #[inline]
    pub fn record_cycle(&mut self) {
        self.cycles += 1;
    }

    /// Counts `n` elapsed simulation cycles in one step — the Δ-cycle
    /// aware form of [`BusStats::record_cycle`] used when the
    /// fast-forward kernel jumps over an idle span. Equivalent to
    /// calling [`BusStats::record_cycle`] `n` times.
    pub fn record_cycles(&mut self, n: u64) {
        self.cycles += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::Cycle;
    use crate::ids::SlaveId;
    use crate::request::Transaction;

    fn completion(words: u32, issued: u64, granted: u64, finished: u64) -> Completion {
        let mut port = crate::master::MasterPort::new(MasterId::new(0), "m");
        port.enqueue(Transaction::new(SlaveId::new(0), words, Cycle::new(issued)));
        port.note_grant(Cycle::new(granted));
        port.transfer(words, Cycle::new(finished - 1)).expect("completes")
    }

    #[test]
    fn cycles_per_word_matches_paper_definition() {
        let mut stats = BusStats::new(2);
        // 4 words issued at cycle 0, finished after cycle 7 => latency 8.
        let c = completion(4, 0, 2, 8);
        stats.record_completion(MasterId::new(0), &c);
        stats.record_words(MasterId::new(0), 4);
        let m = stats.master(MasterId::new(0));
        assert_eq!(m.cycles_per_word(), Some(2.0));
        assert_eq!(m.wait_per_transaction(), Some(2.0));
        assert_eq!(m.max_latency, 8);
    }

    #[test]
    fn bandwidth_fractions_sum_to_utilization() {
        let mut stats = BusStats::new(2);
        stats.record_words(MasterId::new(0), 30);
        stats.record_words(MasterId::new(1), 50);
        for _ in 0..100 {
            stats.record_cycle();
        }
        let total: f64 = (0..2).map(|i| stats.bandwidth_fraction(MasterId::new(i))).sum();
        assert!((total - stats.bus_utilization()).abs() < 1e-12);
        assert!((stats.bus_utilization() - 0.8).abs() < 1e-12);
        assert!((stats.unused_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn batched_cycle_count_matches_the_loop() {
        let mut looped = BusStats::new(1);
        for _ in 0..137 {
            looped.record_cycle();
        }
        let mut batched = BusStats::new(1);
        batched.record_cycles(137);
        assert_eq!(looped, batched);
    }

    #[test]
    fn empty_stats_are_well_defined() {
        let stats = BusStats::new(1);
        assert_eq!(stats.bandwidth_fraction(MasterId::new(0)), 0.0);
        assert_eq!(stats.bus_utilization(), 0.0);
        assert_eq!(stats.master(MasterId::new(0)).cycles_per_word(), None);
    }

    #[test]
    fn histogram_quantiles_bound_the_data() {
        let mut h = LatencyHistogram::new();
        for latency in 1..=1000u64 {
            h.record(latency);
        }
        assert_eq!(h.count(), 1000);
        // Every quantile bound is within 2x above the true quantile.
        for (q, truth) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let bound = h.quantile(q).expect("recorded");
            assert!(bound >= truth, "q={q}: bound {bound} below true {truth}");
            assert!(bound <= truth * 2 + 2, "q={q}: bound {bound} too loose for {truth}");
        }
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        // q = 0 is the lower bound of the first occupied bucket.
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn quantile_zero_is_a_defined_minimum() {
        // Regression: `quantile(0.0)` used to clamp the rank to 1 and
        // report the first occupied bucket's *upper* bound — an
        // all-zero-latency histogram claimed a 2-cycle minimum.
        let mut zeros = LatencyHistogram::new();
        for _ in 0..5 {
            zeros.record(0);
        }
        assert_eq!(zeros.quantile(0.0), Some(0));
        assert_eq!(zeros.quantile(1.0), Some(2), "q > 0 keeps the 2x upper-bound convention");

        // A histogram whose smallest latency is 100 (bucket 6, spanning
        // [64, 128)) reports the bucket's lower bound 64 at q = 0.
        let mut h = LatencyHistogram::new();
        for v in [100u64, 3000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(64));
        assert!(h.quantile(0.0).unwrap() <= 100, "q=0 must not exceed the true minimum");
        assert_eq!(h.quantile(0.5), Some(128));
    }

    #[test]
    fn cdf_is_exact_at_bucket_boundaries_and_u64_max() {
        // Regression: the old `checked_shl(64)` saturation mis-sized the
        // top bucket [2^63, u64::MAX], claiming full coverage for any
        // latency >= 2^63 even when larger latencies were recorded.
        let mut h = LatencyHistogram::new();
        h.record(42); // bucket 5
        h.record(u64::MAX); // top bucket [2^63, u64::MAX]
        assert_eq!(h.fraction_at_most(u64::MAX), Some(1.0));
        // One cycle below the top bucket's lower bound covers none of it.
        assert_eq!(h.fraction_at_most((1u64 << 63) - 1), Some(0.5));
        // The bottom of the top bucket covers ~2^-63 of its width.
        let at_lo = h.fraction_at_most(1u64 << 63).expect("recorded");
        assert!((0.5..0.51).contains(&at_lo), "top-bucket coverage mis-sized: {at_lo}");

        // Exact boundaries: the inclusive top of bucket k is 2^(k+1)-1;
        // coverage there equals the whole bucket, and one cycle below the
        // bucket's lower bound contributes nothing.
        let mut b = LatencyHistogram::new();
        for v in [4u64, 5, 6, 7] {
            b.record(v); // bucket 2: [4, 8)
        }
        assert_eq!(b.fraction_at_most(3), Some(0.0));
        assert_eq!(b.fraction_at_most(4), Some(0.25));
        assert_eq!(b.fraction_at_most(7), Some(1.0));
        assert_eq!(b.fraction_at_most(8), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn histogram_rejects_silly_quantiles() {
        let _ = LatencyHistogram::new().quantile(1.5);
    }

    #[test]
    fn zero_latency_records_are_visible_in_the_cdf() {
        // Regression: `record(0)` lands in bucket 0, but the old bucket-0
        // branch required `latency >= 1`, so `fraction_at_most(0)` was
        // 0.0 no matter how many zero-latency transactions were recorded.
        let mut h = LatencyHistogram::new();
        for _ in 0..4 {
            h.record(0);
        }
        // Bucket 0 spans [0, 2); latency 0 covers half the span.
        assert_eq!(h.fraction_at_most(0), Some(0.5));
        assert_eq!(h.fraction_at_most(1), Some(1.0));

        // Mixed with larger latencies the zero records still count.
        h.record(8);
        let at_zero = h.fraction_at_most(0).expect("recorded");
        assert!(at_zero > 0.0, "zero-latency records invisible: {at_zero}");
        assert_eq!(h.fraction_at_most(1), Some(0.8));
    }

    #[test]
    fn cdf_is_monotone_from_zero_and_reaches_one() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 0, 1, 3, 7, 90, 1000] {
            h.record(v);
        }
        let mut previous = -1.0f64;
        for latency in (0..=2048).chain([u64::MAX / 2, u64::MAX]) {
            let f = h.fraction_at_most(latency).expect("recorded");
            assert!(f >= previous, "CDF dipped at {latency}: {f} < {previous}");
            assert!((0.0..=1.0).contains(&f));
            previous = f;
        }
        assert_eq!(h.fraction_at_most(u64::MAX), Some(1.0));
    }

    #[test]
    fn grants_and_stalls_accumulate() {
        let mut stats = BusStats::new(1);
        stats.record_grant(MasterId::new(0));
        stats.record_grant(MasterId::new(0));
        stats.record_stall(3);
        assert_eq!(stats.grants, 2);
        assert_eq!(stats.master(MasterId::new(0)).grants, 2);
        assert_eq!(stats.stall_cycles, 3);
    }

    #[test]
    fn fault_counters_accumulate() {
        let mut stats = BusStats::new(2);
        let m0 = MasterId::new(0);
        let m1 = MasterId::new(1);
        stats.record_slave_error(m0);
        stats.record_retry(m0);
        stats.record_slave_error(m0);
        stats.record_abort(m0);
        stats.record_timeout(m1);
        stats.record_dropped_grant();
        stats.record_corrupted_grant();
        assert_eq!(stats.slave_errors, 2);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.timeouts, 1);
        // Timeouts count as aborts too: one retry-exhaustion + one watchdog.
        assert_eq!(stats.aborted_transactions, 2);
        assert_eq!(stats.fault_disturbances(), 4);
        assert_eq!(stats.master(m0).slave_errors, 2);
        assert_eq!(stats.master(m0).retries, 1);
        assert_eq!(stats.master(m0).aborted, 1);
        assert_eq!(stats.master(m1).timeouts, 1);
        assert_eq!(stats.master(m1).aborted, 1);
    }
}
