//! Summary statistics, process resource usage and the result line.

use std::time::Instant;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks (position `q · (n − 1)` in sorted order). 0 for
/// an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nanoseconds as milliseconds.
pub fn ms(nanos: u128) -> f64 {
    nanos as f64 / 1e6
}

/// Bytes as MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Process-wide resource usage: user + system CPU seconds of every thread,
/// and the peak resident set size.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    pub cpu_s: f64,
    pub peak_rss_kib: u64,
}

/// Reads [`Usage`] for this process (`getrusage(RUSAGE_SELF)`).
pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the Linux
    // 64-bit layout (two timevals then fourteen longs) and RUSAGE_SELF
    // (0) is a valid `who`; the call only writes into `ru`.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_kib: ru.maxrss.max(0) as u64,
    }
}

/// The timed phase of one run: op latencies plus wall and CPU time, with
/// excluded stretches (the malformed-file loads) taken out of both.
pub struct Phase {
    start: Instant,
    cpu0: f64,
    excluded_wall: f64,
    excluded_cpu: f64,
    pub latencies_ms: Vec<f64>,
}

impl Phase {
    pub fn start() -> Self {
        Phase {
            start: Instant::now(),
            cpu0: usage().cpu_s,
            excluded_wall: 0.0,
            excluded_cpu: 0.0,
            latencies_ms: Vec::new(),
        }
    }

    /// Seconds of counted wall time so far.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.excluded_wall
    }

    /// Runs `f` with its wall and CPU time left out of the phase.
    pub fn excluded<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let c0 = usage().cpu_s;
        let r = f();
        self.excluded_cpu += usage().cpu_s - c0;
        self.excluded_wall += t0.elapsed().as_secs_f64();
        r
    }

    /// Closes the phase: wall and CPU time net of exclusions, and the
    /// peak RSS so far, read now so that later checks do not count.
    pub fn finish(self) -> Measured {
        Measured {
            wall_s: self.elapsed_s(),
            cpu_s: usage().cpu_s - self.cpu0 - self.excluded_cpu,
            peak_rss_mib: usage().peak_rss_kib as f64 / 1024.0,
            latencies_ms: self.latencies_ms,
        }
    }
}

/// A closed timed phase.
pub struct Measured {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
    pub latencies_ms: Vec<f64>,
}

/// The benchmark's last line: correctness, op counts and named metrics.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds the end-to-end metrics every workload reports.
    pub fn end_to_end(&mut self, setups_s: &[f64], m: &Measured) {
        let ops = m.latencies_ms.len() as f64;
        let lat = &m.latencies_ms;
        self.push("setup_s", median(setups_s), "s");
        self.push("ops_per_s", ratio(ops, m.wall_s), "1/s");
        self.push("query_ms.p50", percentile(lat, 0.5), "ms");
        self.push("query_ms.p90", percentile(lat, 0.9), "ms");
        self.push("cpu_ms_per_op", ratio(m.cpu_s * 1e3, ops), "ms");
        self.push("peak_rss_mib", m.peak_rss_mib, "MiB");
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// One JSON object on one line. Non-finite values print as 0 so the
    /// line always parses.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let a: Vec<f64> = (0..101).map(f64::from).collect();
        let mut b = a.clone();
        b.reverse();
        assert_eq!(percentile(&a, 0.9), 90.0);
        assert_eq!(percentile(&b, 0.9), 90.0);
        assert_eq!(median(&b), 50.0);
    }

    #[test]
    fn ratio_guards_zero_denominators() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ms(2_500_000), 2.5);
        assert_eq!(mib(3 << 20), 3.0);
    }

    #[test]
    fn report_prints_one_parseable_line() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 1,
            metrics: Vec::new(),
        };
        r.push("a.b", 1.5, "ms");
        r.push("nan", f64::NAN, "s");
        let line = r.json();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(line.contains("\"nan\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 1"));
    }

    #[test]
    fn usage_reports_cpu_and_rss() {
        let u = usage();
        assert!(u.cpu_s > 0.0);
        assert!(u.peak_rss_kib > 0);
    }
}
