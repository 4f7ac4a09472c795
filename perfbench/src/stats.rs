//! Latency samples, quantiles and the metric list a run prints.

use std::time::Duration;

/// Every latency sample of one request class, in nanoseconds. Kept
/// exact (no histogram buckets) so a quantile is a measured value.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u32>,
    sorted: bool,
}

impl Samples {
    /// Records one sample (saturating at ~4.3 s).
    pub fn push(&mut self, d: Duration) {
        self.push_ns(d.as_nanos() as u64);
    }

    /// Records one sample given in nanoseconds.
    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Sum of all samples in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.ns.iter().map(|&v| u64::from(v)).sum()
    }

    /// Nearest-rank quantile in nanoseconds; 0 when empty.
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let rank = (q * self.ns.len() as f64).ceil() as usize;
        f64::from(self.ns[rank.clamp(1, self.ns.len()) - 1])
    }

    /// Nearest-rank quantile in microseconds.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }

    /// Median in nanoseconds.
    pub fn median_ns(&mut self) -> f64 {
        self.quantile_ns(0.5)
    }
}

/// Median of a small list of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            !self.entries.iter().any(|(n, _, _)| *n == name),
            "metric {name} reported twice"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push((name, value, unit));
    }

    /// The metrics in insertion order.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in 1..=100u64 {
            s.push_ns(v);
        }
        assert_eq!(s.quantile_ns(0.5), 50.0);
        assert_eq!(s.quantile_ns(0.99), 99.0);
        assert_eq!(s.quantile_ns(1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
