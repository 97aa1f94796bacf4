//! Measurement helpers: latency sample collection and summaries.

use crate::time::SimDuration;

/// A latency sample collector with percentile queries — backs the boxen
/// plot of Figure 15b.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples: Vec<u64>,
    sorted: bool,
}

impl LatencyStats {
    /// Empty collector.
    pub fn new() -> LatencyStats {
        LatencyStats::default()
    }

    /// Record one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_nanos());
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (0.0..=100.0), or zero if empty.
    pub fn percentile(&mut self, p: f64) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        self.ensure_sorted();
        let rank = ((p / 100.0) * (self.samples.len() - 1) as f64) as usize;
        SimDuration::from_nanos(self.samples[rank.min(self.samples.len() - 1)])
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(self.samples.iter().sum::<u64>() / self.samples.len() as u64)
    }

    /// Minimum sample.
    pub fn min(&mut self) -> SimDuration {
        self.ensure_sorted();
        SimDuration::from_nanos(self.samples.first().copied().unwrap_or(0))
    }

    /// Maximum sample.
    pub fn max(&mut self) -> SimDuration {
        self.ensure_sorted();
        SimDuration::from_nanos(self.samples.last().copied().unwrap_or(0))
    }

    /// Fraction of samples at or below `threshold`.
    pub fn fraction_below(&self, threshold: SimDuration) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let n = self.samples.iter().filter(|&&s| s <= threshold.as_nanos()).count();
        n as f64 / self.samples.len() as f64
    }

    /// A five-number summary `(min, p25, p50, p75, max)` for boxen-style
    /// reporting.
    pub fn summary(&mut self) -> (SimDuration, SimDuration, SimDuration, SimDuration, SimDuration) {
        (
            self.min(),
            self.percentile(25.0),
            self.percentile(50.0),
            self.percentile(75.0),
            self.max(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles() {
        let mut l = LatencyStats::new();
        for ns in 1..=100u64 {
            l.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(l.percentile(50.0).as_nanos(), 50);
        assert_eq!(l.min().as_nanos(), 1);
        assert_eq!(l.max().as_nanos(), 100);
        assert_eq!(l.mean().as_nanos(), 50);
        assert!((l.fraction_below(SimDuration::from_nanos(75)) - 0.75).abs() < 1e-9);
        let (min, p25, p50, p75, max) = l.summary();
        assert!(min <= p25 && p25 <= p50 && p50 <= p75 && p75 <= max);
    }

    #[test]
    fn latency_empty_is_safe() {
        let mut l = LatencyStats::new();
        assert!(l.is_empty());
        assert_eq!(l.percentile(99.0), SimDuration::ZERO);
        assert_eq!(l.mean(), SimDuration::ZERO);
        assert_eq!(l.fraction_below(SimDuration::from_micros(1)), 0.0);
    }

    #[test]
    fn bimodal_distribution_like_figure_15b() {
        // 75 % of UL packets are cheap cache ops (< 300 ns), 25 % are
        // expensive merges (4–6 µs) — the fraction_below API exposes it.
        let mut l = LatencyStats::new();
        for _ in 0..75 {
            l.record(SimDuration::from_nanos(200));
        }
        for _ in 0..25 {
            l.record(SimDuration::from_micros(5));
        }
        assert!((l.fraction_below(SimDuration::from_nanos(300)) - 0.75).abs() < 1e-9);
        assert_eq!(l.percentile(50.0).as_nanos(), 200);
        assert!(l.percentile(90.0).as_micros_f64() > 4.0);
    }
}
