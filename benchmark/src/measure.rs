//! Order statistics and the process's own resource counters.

use std::time::Instant;

/// The median of a sample; even counts average the two middle values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether percentile `p` of `n` samples has at least ten samples beyond
/// it — the rule for which tail a sample of that size can support.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// The highest of the usual percentiles that `n` samples support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| tail_supported(n, p))
}

/// A metric as reported: a value, the range and quartiles of what it was
/// taken from as its spread, and the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub min: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
    pub samples: u64,
}

impl Reading {
    /// The median of `values` with their range and quartiles; `samples`
    /// is how many observations stand behind them (the values may be
    /// per-block values).
    pub fn over(values: &[f64], samples: u64) -> Reading {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Reading {
            value: median(values),
            min: sorted[0],
            q1: percentile(&sorted, 25.0),
            q3: percentile(&sorted, 75.0),
            max: sorted[sorted.len() - 1],
            samples,
        }
    }

    /// The same reading in units `k` times larger: a time divided by the
    /// machine index, or a rate multiplied by it.
    pub fn scaled(self, k: f64) -> Reading {
        Reading {
            value: self.value * k,
            min: self.min * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            max: self.max * k,
            samples: self.samples,
        }
    }

    /// A single measurement: no spread.
    pub fn single(value: f64, samples: u64) -> Reading {
        Reading {
            value,
            min: value,
            q1: value,
            q3: value,
            max: value,
            samples,
        }
    }
}

/// Times `calls` invocations of `f` one by one; microseconds each.
pub fn time_calls<R>(calls: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    (0..calls)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks. The
/// command name may itself contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Linux reports process times in units of `USER_HZ`, which is 100 on
/// every architecture; `sysconf` needs libc, which the image lacks.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU time of this process, all threads, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    parse_stat_ticks(&stat).expect("stat line has utime and stime") as f64 / TICKS_PER_SECOND
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    parse_vm_hwm_kb(&status).expect("status has VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn block_reading_is_median_with_range_and_quartiles() {
        let r = Reading::over(&[10.0, 14.0, 11.0, 9.0, 12.0], 1000);
        assert_eq!((r.value, r.min, r.max, r.samples), (11.0, 9.0, 14.0, 1000));
        assert_eq!((r.q1, r.q3), (10.0, 12.0));
        let half = r.scaled(0.5);
        assert_eq!(
            (half.value, half.q1, half.max, half.samples),
            (5.5, 5.0, 7.0, 1000)
        );
        let one = Reading::single(3.0, 1);
        assert_eq!((one.min, one.q1, one.q3, one.max), (3.0, 3.0, 3.0, 3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[3.0], 95.0), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail_supported(200, 95.0), "200 × 5 % = 10 beyond");
        assert!(!tail_supported(199, 95.0));
        assert!(!tail_supported(200, 99.0));
        assert!(tail_supported(1000, 99.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1024), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn stat_line_with_awkward_command_name() {
        let line = "4242 (a b) c) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    37 5 0 0 20 0 3 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_ticks(line), Some(42));
        assert_eq!(parse_stat_ticks("no parenthesis"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_from_status_text() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn own_counters_are_readable() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
