//! Timing statistics, the machine/configuration stamp, and the JSON
//! result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Nanoseconds elapsed since `start` (saturating).
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nearest-rank percentile `q ∈ [0, 1]` of unsorted samples (0 when empty).
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median time of [`calibrate`] on the reference core, in ns.
pub const CALIBRATION_NS: f64 = 380_000.0;

/// Time one run of a fixed calibration kernel: a gathered dot product and
/// an axpy over 64 KiB of `f64`, the operations the learn stage is made
/// of. Its time moves only with the speed the host gives this core.
pub fn calibrate() -> u64 {
    const N: usize = 8192;
    let x: Vec<f64> = (0..N).map(|i| (i % 97) as f64 * 0.01).collect();
    let idx: Vec<usize> = (0..N).map(|i| (i * 7919) % N).collect();
    let mut w = vec![0.5f64; N];
    let start = Instant::now();
    for _ in 0..40 {
        let dot: f64 = idx.iter().map(|&i| x[i] * w[i]).sum();
        let g = 1.0 / (1.0 + (-dot * 1e-4).exp());
        w.iter_mut().zip(&x).for_each(|(wi, xi)| *wi -= 1e-3 * g * xi);
        std::hint::black_box(&mut w);
    }
    ns_since(start)
}

/// The host's speed relative to the reference core, from [`calibrate`]
/// timings taken around the measured calls: below 1 when the host runs
/// this core slower. A time times the speed, or a rate divided by it, is
/// that figure on the reference core. A shared host's speed drifts by
/// ±30% over minutes; scaling takes that drift out of the comparison of
/// runs made at different times.
pub fn host_speed(cal: &[u64]) -> f64 {
    let typical = median(&cal.iter().map(|&ns| ns as f64).collect::<Vec<_>>());
    ratio(CALIBRATION_NS, typical)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without spawning a process; `unknown` outside a git work tree.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Named metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Record `name = value unit`.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.entries.push((name, value, unit));
    }

    /// Every recorded value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, v, _)| v.is_finite())
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name:<44} {value:>14.6} {unit}");
        }
        out
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (k, (name, value, unit)) in self.entries.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    )
}

/// Quote a string for JSON (the stamp's values are plain ASCII names).
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.5), 50);
        assert_eq!(percentile(&samples, 0.95), 95);
        assert_eq!(percentile(&[7], 0.95), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
