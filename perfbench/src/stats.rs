//! Summary statistics and failure accounting.

use std::collections::BTreeMap;

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Op latencies over every timed pass, keyed by what the op did: the
/// project, or for an edit the project and the edited file.
///
/// Each key runs once per pass, so its latencies across passes measure
/// the same work. The summaries take each key's median across passes
/// first and then the percentile across keys: machine noise that slows
/// a few passes moves a key's median much less than it moves a pooled
/// percentile, while the percentile across keys keeps the spread between
/// small and large projects.
#[derive(Debug, Default)]
pub struct Latencies {
    samples: Vec<(usize, f64)>,
}

impl Latencies {
    pub fn push(&mut self, key: usize, ms: f64) {
        self.samples.push((key, ms));
    }

    /// Samples over all passes.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Each key's median latency across passes.
    fn key_medians(&self) -> Vec<f64> {
        let mut by_key: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(k, ms) in &self.samples {
            by_key.entry(k).or_default().push(ms);
        }
        by_key.values().filter_map(|v| median(v)).collect()
    }

    /// Distinct keys.
    pub fn keys(&self) -> usize {
        self.key_medians().len()
    }

    pub fn p50(&self) -> f64 {
        percentile(&self.key_medians(), 50.0).unwrap_or(0.0)
    }

    pub fn p90(&self) -> f64 {
        percentile(&self.key_medians(), 90.0).unwrap_or(0.0)
    }

    /// Ops per second of op time, one op per key at its median latency
    /// (the benchmark's own checking between ops is not counted).
    pub fn ops_per_s(&self) -> f64 {
        let medians = self.key_medians();
        let total_ms: f64 = medians.iter().sum();
        if total_ms == 0.0 {
            return 0.0;
        }
        medians.len() as f64 / (total_ms / 1e3)
    }

    /// Mean over all samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.1).sum::<f64>() / self.samples.len() as f64
    }
}

/// Ops attempted and ops that errored or failed their output check. A
/// failure is counted and reported, and the run goes on.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one op; `Err` carries the reason it failed.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            // Only the first few reasons: a systematic failure would
            // otherwise flood stderr with one line per op.
            if self.failed <= 5 {
                eprintln!("perfbench: FAILED {what}: {e}");
            }
        }
    }

    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// The process's peak resident set (`VmHWM`) in KiB, from
/// `/proc/<pid>/status`; `None` where that file is unavailable.
pub fn peak_rss_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 91.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 90.0), Some(9.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn summaries_take_key_medians_then_percentiles() {
        let mut l = Latencies::default();
        // Four keys over three passes; pass 1 is slowed down 10x.
        for pass in 0..3 {
            for key in 0..4 {
                let ms = (key + 1) as f64 * if pass == 1 { 10.0 } else { 1.0 };
                l.push(key, ms);
            }
        }
        assert_eq!(l.count(), 12);
        assert_eq!(l.keys(), 4);
        // Key medians are 1, 2, 3, 4: the slow pass does not show.
        assert_eq!(l.p50(), 2.0);
        assert_eq!(l.p90(), 4.0);
        // Four ops at their medians take 10 ms.
        assert!((l.ops_per_s() - 400.0).abs() < 1e-9);
        // The mean is over every sample, slow pass included.
        assert_eq!(l.mean(), (10.0 + 100.0 + 10.0) / 12.0);
        assert_eq!(Latencies::default().ops_per_s(), 0.0);
        assert_eq!(Latencies::default().p90(), 0.0);
    }

    #[test]
    fn tally_counts_failures_and_continues() {
        let mut t = Tally::default();
        t.record("a", Ok(()));
        t.record("b", Err("wrong output".into()));
        t.record("c", Ok(()));
        t.record("d", Ok(()));
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.fail_rate(), 0.25);
        assert_eq!(Tally::default().fail_rate(), 0.0);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_kb("self").is_some_and(|kb| kb > 0));
    }
}
