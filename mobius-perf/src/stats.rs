//! Order statistics over timed samples, and the process's peak memory.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, one slow op decides the number.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Linearly interpolated quantile of `sorted` (ascending) at `per_mille`
/// thousandths, or `None` when fewer than [`MIN_TAIL_SAMPLES`] samples lie
/// beyond it.
pub fn percentile(sorted: &[f64], per_mille: usize) -> Option<f64> {
    let n = sorted.len();
    let at_or_below = (n * per_mille).div_ceil(1000);
    if n == 0 || n - at_or_below < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(interpolate(sorted, per_mille as f64 / 1000.0))
}

/// Median of `values` (any order); `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    interpolate(&v, 0.5)
}

/// `(max − min) / median`: the run-to-run spread `--repeat` reports.
pub fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    (max - min) / median(values)
}

fn interpolate(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
