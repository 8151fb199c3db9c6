//! The benchmark's own metric arithmetic: percentiles and the tail choice,
//! peak-memory parsing, failure counting, and the result line.

use smartred_stats::percentile_nearest_rank;

/// A tail percentile is reported only with at least this many samples
/// strictly beyond its rank.
const TAIL_BEYOND: usize = 10;

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The tail quantile to report for `n` samples: p99.9 when it has
/// [`TAIL_BEYOND`] samples beyond it, otherwise p99 (which is then
/// flagged as thin when it, too, has fewer).
pub fn tail_quantile(n: usize) -> f64 {
    if samples_beyond(n, 0.999) >= TAIL_BEYOND {
        0.999
    } else {
        0.99
    }
}

/// A latency sample, sorted once for percentile reads.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` (which must be finite).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        Self { sorted: values }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank `q`-quantile (0 for an empty sample).
    pub fn quantile(&self, q: f64) -> f64 {
        percentile_nearest_rank(&self.sorted, q)
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The tail percentile chosen by [`tail_quantile`], with the quantile
    /// used.
    pub fn tail(&self) -> (f64, f64) {
        let q = tail_quantile(self.len());
        (q, self.quantile(q))
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).p50()
}

/// The `VmHWM` (peak resident set) field of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Peak resident memory of this process so far, in MB (MiB).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// Everything that counts against `failed_frac`: tasks that were shed,
/// capped, poisoned or never got a verdict, and output checks that failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Submissions shed at admission.
    pub shed: u64,
    /// Tasks abandoned at the job cap.
    pub capped: u64,
    /// Tasks poisoned for crashing workers.
    pub poisoned: u64,
    /// Admitted tasks that got no verdict, or more than one.
    pub verdictless: u64,
    /// Output checks that failed.
    pub checks: u64,
}

impl Failures {
    /// Total failures.
    pub fn total(&self) -> u64 {
        self.shed + self.capped + self.poisoned + self.verdictless + self.checks
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Failures) {
        self.shed += other.shed;
        self.capped += other.capped;
        self.poisoned += other.poisoned;
        self.verdictless += other.verdictless;
        self.checks += other.checks;
    }

    /// Failures over `attempted` (0 when nothing was attempted).
    pub fn frac(&self, attempted: u64) -> f64 {
        if attempted == 0 {
            0.0
        } else {
            self.total() as f64 / attempted as f64
        }
    }
}

/// One named, unit-carrying metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Renders the result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_picks_the_ceiling_rank() {
        let s = Sample::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(0.991), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(Sample::new(vec![7.0]).quantile(0.99), 7.0);
        assert_eq!(Sample::default().p50(), 0.0);
    }

    #[test]
    fn tail_is_p999_only_with_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(10_000, 0.999), 10);
        assert_eq!(samples_beyond(9_999, 0.999), 9);
        assert_eq!(samples_beyond(0, 0.99), 0);
        assert_eq!(tail_quantile(9_999), 0.99);
        assert_eq!(tail_quantile(10_000), 0.999);
        assert_eq!(tail_quantile(50), 0.99);
        let s = Sample::new((1..=10_000).map(f64::from).collect());
        assert_eq!(s.tail(), (0.999, 9_990.0));
        let s = Sample::new((1..=1_000).map(f64::from).collect());
        assert_eq!(s.tail(), (0.99, 990.0));
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn sheds_caps_and_poisonings_count_as_failures() {
        let mut f = Failures::default();
        assert_eq!(f.frac(10), 0.0);
        f.add(Failures {
            shed: 1,
            ..Failures::default()
        });
        f.add(Failures {
            capped: 2,
            poisoned: 3,
            ..Failures::default()
        });
        assert_eq!(f.total(), 6);
        assert_eq!(f.frac(60), 0.1);
        f.add(Failures {
            verdictless: 1,
            checks: 1,
            ..Failures::default()
        });
        assert_eq!(f.total(), 8);
        assert_eq!(Failures::default().frac(0), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
