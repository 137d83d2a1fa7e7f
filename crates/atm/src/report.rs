//! Per-port performance reports (the rows of the paper's Table 1).

/// Measured switch performance under one communication architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct AtmReport {
    /// Architecture name (arbiter protocol).
    pub architecture: String,
    /// Fraction of total bus bandwidth used by each port.
    pub bandwidth: Vec<f64>,
    /// Average bus cycles per word, per port (`None` if a port completed
    /// no cells during the measurement window).
    pub latency_cycles_per_word: Vec<Option<f64>>,
    /// Cells fully forwarded per port.
    pub cells_forwarded: Vec<u64>,
    /// Cells dropped per port at full address queues (always zero with
    /// unbounded queues).
    pub cells_dropped: Vec<u64>,
    /// Cells lost on the bus itself, per port: the payload fetch
    /// exhausted its retries or was aborted by the watchdog under fault
    /// injection (always zero on a fault-free bus).
    pub cells_aborted: Vec<u64>,
    /// Bus utilization over the measurement window.
    pub utilization: f64,
}

impl AtmReport {
    /// Bandwidth fraction of `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn bandwidth_fraction(&self, port: usize) -> f64 {
        self.bandwidth[port]
    }

    /// Latency in cycles/word for `port`, if it forwarded any cells.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn latency(&self, port: usize) -> Option<f64> {
        self.latency_cycles_per_word[port]
    }

    /// Ratio of two ports' bandwidth fractions (`a / b`).
    pub fn bandwidth_ratio(&self, a: usize, b: usize) -> f64 {
        self.bandwidth[a] / self.bandwidth[b]
    }

    /// Cells `port` lost anywhere in the switch: at a full address
    /// queue or aborted on a faulty bus.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn cells_lost(&self, port: usize) -> u64 {
        self.cells_dropped[port] + self.cells_aborted[port]
    }

    /// Fraction of `port`'s cells lost (queue drops plus bus aborts,
    /// over everything that arrived), or zero if nothing arrived.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn cell_loss_ratio(&self, port: usize) -> f64 {
        let lost = self.cells_lost(port);
        let seen = self.cells_forwarded[port] + lost;
        if seen == 0 {
            0.0
        } else {
            lost as f64 / seen as f64
        }
    }
}

impl std::fmt::Display for AtmReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}:", self.architecture)?;
        for (i, bw) in self.bandwidth.iter().enumerate() {
            let lat = self.latency_cycles_per_word[i]
                .map_or_else(|| "   -  ".into(), |l| format!("{l:6.2}"));
            writeln!(
                f,
                "  port {}: bandwidth {:5.1}%  latency {} cycles/word  ({} cells)",
                i + 1,
                bw * 100.0,
                lat,
                self.cells_forwarded[i],
            )?;
        }
        let dropped: u64 = self.cells_dropped.iter().sum();
        let aborted: u64 = self.cells_aborted.iter().sum();
        if dropped + aborted > 0 {
            writeln!(f, "  cell loss: {dropped} queue drops, {aborted} bus aborts")?;
        }
        write!(f, "  bus utilization {:5.1}%", self.utilization * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> AtmReport {
        AtmReport {
            architecture: "lottery".into(),
            bandwidth: vec![0.1, 0.2, 0.4, 0.05],
            latency_cycles_per_word: vec![Some(3.0), Some(2.5), Some(2.0), Some(1.8)],
            cells_forwarded: vec![100, 200, 400, 50],
            cells_dropped: vec![0, 0, 100, 0],
            cells_aborted: vec![0, 50, 0, 0],
            utilization: 0.75,
        }
    }

    #[test]
    fn accessors_and_ratio() {
        let r = report();
        assert_eq!(r.bandwidth_fraction(2), 0.4);
        assert_eq!(r.latency(3), Some(1.8));
        assert!((r.bandwidth_ratio(2, 0) - 4.0).abs() < 1e-12);
        assert!((r.cell_loss_ratio(2) - 0.2).abs() < 1e-12);
        assert_eq!(r.cell_loss_ratio(0), 0.0);
    }

    #[test]
    fn loss_ratio_counts_bus_aborts() {
        let r = report();
        // Port 2: 200 forwarded, 50 aborted on the bus.
        assert_eq!(r.cells_lost(1), 50);
        assert!((r.cell_loss_ratio(1) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn display_lists_every_port() {
        let text = report().to_string();
        assert!(text.contains("port 1"));
        assert!(text.contains("port 4"));
        assert!(text.contains("utilization"));
        assert!(text.contains("100 queue drops, 50 bus aborts"));
    }
}
