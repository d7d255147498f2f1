//! The benchmark's pure pieces: percentiles, ratios with their base,
//! metric naming, the open-loop schedule, and the `/proc` readers.

use std::fmt;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of unsorted samples (sorted here), through the
/// workspace's one audited implementation. `None` when empty.
pub fn percentile(samples: &[u64], p: f64) -> Option<u64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    rcb_util::percentile_nearest_rank(&sorted, p)
}

/// Nearest-rank percentile of signed samples (a wake may start before the
/// action handler that caused it returns, so that delay can be negative).
pub fn percentile_signed(samples: &[i64], p: f64) -> Option<i64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    rcb_util::nearest_rank_index(sorted.len(), p).map(|i| sorted[i])
}

/// A ratio kept with its base, so a report can always say "x of y".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    pub num: u64,
    pub den: u64,
}

impl Ratio {
    pub fn new(num: u64, den: u64) -> Ratio {
        Ratio { num, den }
    }

    /// The quotient; an empty base reads 0 (nothing was attempted, so
    /// nothing went the measured way).
    pub fn value(self) -> f64 {
        if self.den == 0 {
            0.0
        } else {
            self.num as f64 / self.den as f64
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}/{})", self.value(), self.num, self.den)
    }
}

/// The metric-name grammar: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One reported number. `base` carries the sample count or the ratio's
/// base for the human-readable report; the JSON line carries only value
/// and unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub base: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        base: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            value,
            unit,
            base: base.into(),
        }
    }
}

/// The fixed-rate schedule of an open loop: op `k` is due at
/// `start + k * period`, whatever happened to op `k - 1`.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub start: Instant,
    pub period: Duration,
}

impl OpenLoop {
    pub fn due(&self, k: u64) -> Instant {
        self.start + self.period * u32::try_from(k).expect("op index fits the schedule")
    }

    /// How late op `k` was sent, given when it actually went out (zero
    /// when on time: an early send is impossible, the generator sleeps
    /// until the due time).
    pub fn lateness(&self, k: u64, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(k))
    }

    /// Sleeps until op `k` is due; returns immediately when already late.
    pub fn wait_for(&self, k: u64) {
        let due = self.due(k);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
    }
}

/// Process user+system CPU time so far, from `/proc/self/stat` (fields
/// 14 and 15, in clock ticks of `USER_HZ` = 100 on Linux).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name may contain spaces; the fields after it start at
    // field 3 (the state), so utime and stime sit at offsets 11 and 12.
    let after_comm = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| -> u64 { fields[i].parse().expect("numeric tick count") };
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib as f64 / 1024.0
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1_000_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(percentile(&samples, 50.0), Some(5));
        assert_eq!(percentile(&samples, 90.0), Some(9));
        assert_eq!(percentile(&samples, 100.0), Some(10));
        assert_eq!(percentile(&[7], 90.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile_signed(&[-3, 5, 1], 50.0), Some(1));
        assert_eq!(percentile_signed(&[-3, -5, 1], 50.0), Some(-3));
    }

    #[test]
    fn p90_of_2000_leaves_200_samples_beyond_it() {
        let samples: Vec<u64> = (0..2000).collect();
        let p90 = percentile(&samples, 90.0).unwrap();
        assert_eq!(samples.iter().filter(|&&s| s > p90).count(), 200);
    }

    #[test]
    fn ratios_carry_their_base() {
        assert_eq!(Ratio::new(2100, 2100).value(), 1.0);
        assert_eq!(Ratio::new(1, 4).to_string(), "0.25 (1/4)");
        assert_eq!(Ratio::new(0, 0).value(), 0.0);
        assert_eq!(Ratio::new(0, 0).to_string(), "0 (0/0)");
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "p50_ms",
            "http.client_rtt_us",
            "bench.trace_overhead_pct",
            "9x",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "p50 ms", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn open_loop_due_times_and_lateness() {
        let start = Instant::now();
        let sched = OpenLoop {
            start,
            period: Duration::from_millis(10),
        };
        assert_eq!(sched.due(0), start);
        assert_eq!(sched.due(7) - start, Duration::from_millis(70));
        // On time or early (impossible, but defined): no lateness.
        assert_eq!(sched.lateness(3, sched.due(3)), Duration::ZERO);
        assert_eq!(sched.lateness(3, start), Duration::ZERO);
        // A send held back to 42 ms is late by what it overran each due
        // time: 12 ms for op 3, 2 ms for op 4, nothing for op 5.
        let sent = start + Duration::from_millis(42);
        assert_eq!(sched.lateness(3, sent), Duration::from_millis(12));
        assert_eq!(sched.lateness(4, sent), Duration::from_millis(2));
        assert_eq!(sched.lateness(5, sent), Duration::ZERO);
    }

    #[test]
    fn proc_readers_report_this_process() {
        assert!(peak_rss_mib() > 0.0);
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() >= before, "{x}");
    }
}
