//! The benchmark's own statistics: percentiles with the tail rule,
//! failure accounting, and process CPU-time and peak-memory readers.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the next lower percentile is used.
pub const TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of quantile `q` (taken in whole permille, so
/// the rank is exact integer arithmetic) among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    let permille = (q * 1000.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Number of samples strictly beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// The highest percentile, at most `want`, that has at least
/// [`TAIL_SAMPLES`] samples beyond it, searched in steps of 0.1
/// percentage points down to the median.
pub fn tail_quantile(n: usize, want: f64) -> f64 {
    let mut permille = (want * 1000.0).round() as usize;
    while permille > 500 && beyond(n, permille as f64 / 1000.0) < TAIL_SAMPLES {
        permille -= 1;
    }
    permille as f64 / 1000.0
}

/// A latency distribution summarised as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (the mean of the middle two for an even count, which
    /// steadies it when a run has only a few samples).
    pub p50: f64,
    /// The tail percentile actually used (see [`tail_quantile`]).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

/// Summarises `samples` with the median and the highest percentile up to
/// `want` that the tail rule allows.
pub fn summarize(samples: &mut [f64], want: f64) -> Summary {
    samples.sort_by(f64::total_cmp);
    let tail_q = tail_quantile(samples.len(), want);
    Summary {
        n: samples.len(),
        p50: median(samples),
        tail_q,
        tail: percentile(samples, tail_q),
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Operations attempted and failed (refused, errored or missing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts `n` attempts of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Failed over attempted; 0 when nothing was attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `/proc` reports process times in USER_HZ, which the Linux ABI fixes at
/// 100 on every architecture the benchmark runs on.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of every thread of the process, parsed
/// from the contents of `/proc/self/stat`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting with field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size in MiB, parsed from the contents of
/// `/proc/self/status` (`VmHWM`, in kB).
pub fn parse_peak_rss_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds the process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_seconds(&stat).expect("parse /proc/self/stat")
}

/// Peak resident memory of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_peak_rss_mib(&status).expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, ten beyond it.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_quantile(1000, 0.99), 0.99);
        // 999 samples: p99 has only nine beyond, so step down.
        assert_eq!(beyond(999, 0.99), 9);
        let q = tail_quantile(999, 0.99);
        assert!(q < 0.99 && beyond(999, q) >= TAIL_SAMPLES, "{q}");
        assert_eq!(beyond(999, q + 0.001), 9);
        // 200 samples: p95 leaves exactly ten.
        assert_eq!(tail_quantile(200, 0.99), 0.95);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_quantile(12, 0.99), 0.5);
        let mut s: Vec<f64> = (0..200).rev().map(f64::from).collect();
        let sum = summarize(&mut s, 0.99);
        assert_eq!((sum.n, sum.tail_q, sum.tail), (200, 0.95, 189.0));
        assert_eq!(sum.p50, 99.5);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn failed_fraction_accounting() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        t.add(90, 0);
        t.add(10, 3);
        assert_eq!((t.attempted, t.failed), (100, 3));
        assert!((t.failed_frac() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn cpu_time_from_proc_stat() {
        // Field 14/15 (utime/stime) = 250 + 50 ticks; the command name
        // carries spaces and parentheses to exercise the rfind split.
        let stat = "4242 (ad bench (x)) R 1 4242 4242 0 -1 4194304 2000 0 0 0 \
                    250 50 0 0 20 0 3 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
        let live = cpu_seconds();
        assert!(live >= 0.0);
    }

    #[test]
    fn peak_rss_from_proc_status() {
        let status = "Name:\tadbench\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mib(status), Some(2.0));
        assert_eq!(parse_peak_rss_mib("Name: x\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }
}
