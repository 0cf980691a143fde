//! Order statistics over samples.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// order statistics; 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median of `reps` timings of `f`, in seconds per call.
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut t = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = std::time::Instant::now();
        f();
        t.push(start.elapsed().as_secs_f64());
    }
    median(&t)
}

/// Sub-windows a window is split into for its medians: one per second.
pub fn sub_windows(secs: f64) -> usize {
    (secs.round() as usize).max(1)
}

/// Splits `[a, b)` into `parts` equal sub-windows and returns the median
/// over sub-windows of the `q`-quantile of the values stamped inside
/// each. `samples` are `(seconds since start, value)`. A burst of
/// scheduler noise then moves one sub-window, not the figure.
pub fn windowed_quantile(samples: &[(f64, f64)], a: f64, b: f64, parts: usize, q: f64) -> f64 {
    let len = (b - a) / parts as f64;
    let per: Vec<f64> = (0..parts)
        .map(|i| {
            let (lo, hi) = (a + i as f64 * len, a + (i + 1) as f64 * len);
            let vals: Vec<f64> = samples
                .iter()
                .filter(|(t, _)| *t >= lo && *t < hi)
                .map(|&(_, v)| v)
                .collect();
            quantile(&vals, q)
        })
        .collect();
    median(&per)
}

/// Median over `parts` equal sub-windows of `[a, b)` of the event rate
/// (events per second) of the timestamps in `times`.
pub fn windowed_rate(times: &[f64], a: f64, b: f64, parts: usize) -> f64 {
    let len = (b - a) / parts as f64;
    let per: Vec<f64> = (0..parts)
        .map(|i| {
            let (lo, hi) = (a + i as f64 * len, a + (i + 1) as f64 * len);
            times.iter().filter(|t| **t >= lo && **t < hi).count() as f64 / len
        })
        .collect();
    median(&per)
}

/// Values stamped inside `[a, b)`.
pub fn within(samples: &[(f64, f64)], a: f64, b: f64) -> Vec<f64> {
    samples
        .iter()
        .filter(|(t, _)| *t >= a && *t < b)
        .map(|&(_, v)| v)
        .collect()
}
