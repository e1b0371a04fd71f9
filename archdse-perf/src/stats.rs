//! Small pure helpers: percentiles, the CPI digest, `Server-Timing`
//! parsing and the `/proc` memory high-water mark.

use std::time::Duration;

/// Nearest-rank percentile (`p` in 0..=100) of `samples`; 0 when empty.
///
/// The rank is `ceil(p / 100 * n)`, clamped to `1..=n`, so p50 of an even
/// count is the lower middle sample and p100 the maximum — no
/// interpolation, every reported value is one that was measured.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile `samples` can support, and its value: the highest
/// nearest-rank percentile with at least ten samples beyond it, capped
/// at p95 and floored at the median. Twenty explore campaigns give p50;
/// thousands of requests give p95.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let p = (100.0 * (1.0 - 10.0 / n)).clamp(50.0, 95.0);
    (p, percentile(samples, p))
}

/// Mean of the slowest 5% of `samples` (at least one); 0 when empty.
/// Unlike a p95 of values quantised to 1 µs, it keeps moving with the
/// data instead of sticking to one quantum.
pub fn tail_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let k = samples.len().div_ceil(20);
    mean(&sorted[..k])
}

/// Milliseconds in a duration, with sub-microsecond digits kept.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never entered).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// FNV-1a over the sorted `(code, cpi bits)` pairs followed by `extra`
/// words: one number that changes whenever any simulated result does.
pub fn cpi_digest(rows: &[(u64, f64)], extra: &[u64]) -> u64 {
    let mut words: Vec<(u64, u64)> =
        rows.iter().map(|&(code, cpi)| (code, cpi.to_bits())).collect();
    words.sort_unstable();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let flat = words.iter().flat_map(|&(a, b)| [a, b]).chain(extra.iter().copied());
    for word in flat {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

/// Parses a `Server-Timing` header value (`name;dur=1.25, other;dur=0.5`)
/// into `(name, milliseconds)` pairs; entries without a `dur` are skipped.
pub fn parse_server_timing(value: &str) -> Vec<(String, f64)> {
    value
        .split(',')
        .filter_map(|entry| {
            let mut parts = entry.split(';').map(str::trim);
            let name = parts.next().filter(|n| !n.is_empty())?;
            let dur = parts.find_map(|p| p.strip_prefix("dur="))?.parse().ok()?;
            Some((name.to_string(), dur))
        })
        .collect()
}

/// The `VmHWM` (peak resident set) of process `pid` in MiB, read from
/// `/proc/<pid>/status`; `None` where procfs is unavailable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 =
        line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 5.0);
        assert_eq!(percentile(&samples, 95.0), 10.0);
        assert_eq!(percentile(&samples, 90.0), 9.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 10.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), 95.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&few), (50.0, 10.0));
        let some: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&some), (75.0, 30.0));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many), (95.0, 950.0));
        assert_eq!(tail(&[3.0]).0, 50.0);
    }

    #[test]
    fn tail_mean_averages_the_slowest_twentieth() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_mean(&hundred), 98.0);
        assert_eq!(tail_mean(&[4.0, 1.0, 2.0]), 4.0);
        assert_eq!(tail_mean(&[]), 0.0);
    }

    #[test]
    fn server_timing_parses_every_phase() {
        let header = "parse;dur=0.012, queue;dur=0.004, coalesce;dur=2.031, exec;dur=0.250, \
                      serialize;dur=0.020, app;dur=2.317";
        let phases = parse_server_timing(header);
        let names: Vec<&str> = phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["parse", "queue", "coalesce", "exec", "serialize", "app"]);
        assert_eq!(phases[2].1, 2.031);
        assert_eq!(phases[5].1, 2.317);
        // Descriptions and unknown parameters are tolerated; entries with
        // no duration are dropped.
        let odd = parse_server_timing("cache;desc=\"hit\";dur=1.5,miss, ;dur=3");
        assert_eq!(odd, vec![("cache".to_string(), 1.5)]);
    }

    #[test]
    fn digest_is_order_free_and_bit_sensitive() {
        let a = cpi_digest(&[(1, 1.5), (2, 2.25)], &[9]);
        assert_eq!(a, cpi_digest(&[(2, 2.25), (1, 1.5)], &[9]));
        assert_ne!(a, cpi_digest(&[(1, 1.5), (2, f64::from_bits(2.25f64.to_bits() + 1))], &[9]));
        assert_ne!(a, cpi_digest(&[(1, 1.5), (2, 2.25)], &[10]));
    }
}
