//! Prometheus text parsing and the delta of two `/metrics` scrapes:
//! counter differences and quantiles of histogram differences, with the
//! same log2 buckets and in-bucket interpolation as `ant-obs`.

use std::collections::HashMap;

/// One scrape: plain series values and per-histogram bucket counts.
#[derive(Default)]
pub struct Scrape {
    values: HashMap<String, f64>,
    /// histogram series (family plus labels other than `le`) → per-bucket
    /// (not cumulative) counts keyed by inclusive upper bound.
    buckets: HashMap<String, HashMap<u64, f64>>,
}

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut s = Scrape::default();
        let mut last_cum: HashMap<String, f64> = HashMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            if let Some((fam, labels)) = series.split_once("_bucket{") {
                let labels = labels.trim_end_matches('}');
                let mut le = None;
                let mut rest = Vec::new();
                for part in labels.split(',') {
                    match part.strip_prefix("le=") {
                        Some(v) => le = Some(v.trim_matches('"').to_string()),
                        None => rest.push(part),
                    }
                }
                let key = if rest.is_empty() {
                    fam.to_string()
                } else {
                    format!("{fam}{{{}}}", rest.join(","))
                };
                let Some(Ok(upper)) = le.map(|l| l.parse::<u64>()) else {
                    continue; // +Inf duplicates the count
                };
                let prev = last_cum.insert(key.clone(), value).unwrap_or(0.0);
                s.buckets
                    .entry(key)
                    .or_default()
                    .insert(upper, value - prev);
            } else {
                s.values.insert(series.to_string(), value);
            }
        }
        s
    }
}

/// `after - before` of a counter, gauge, `_sum` or `_count` series.
pub fn delta(before: &Scrape, after: &Scrape, series: &str) -> f64 {
    after.values.get(series).copied().unwrap_or(0.0)
        - before.values.get(series).copied().unwrap_or(0.0)
}

/// Mean of the samples a histogram gained between the scrapes.
pub fn delta_mean(before: &Scrape, after: &Scrape, hist: &str) -> f64 {
    let n = delta(before, after, &format!("{hist}_count"));
    if n > 0.0 {
        delta(before, after, &format!("{hist}_sum")) / n
    } else {
        0.0
    }
}

/// Inclusive lower bound of the `ant-obs` bucket whose upper bound is
/// `hi` (4 sub-buckets per octave, exact below 4).
fn bucket_lower(hi: u64) -> u64 {
    if hi < 4 {
        return hi;
    }
    let octave = 63 - hi.leading_zeros() as u64;
    let step = 1u64 << (octave - 2);
    hi + 1 - step
}

/// The `q`-quantile of the samples a histogram gained between the
/// scrapes, and their count.
pub fn delta_quantile(before: &Scrape, after: &Scrape, hist: &str, q: f64) -> (f64, u64) {
    let empty = HashMap::new();
    let a = after.buckets.get(hist).unwrap_or(&empty);
    let b = before.buckets.get(hist).unwrap_or(&empty);
    let mut counts: Vec<(u64, f64)> = a
        .iter()
        .map(|(&hi, &c)| (hi, c - b.get(&hi).copied().unwrap_or(0.0)))
        .filter(|&(_, c)| c > 0.0)
        .collect();
    counts.sort_by_key(|&(hi, _)| hi);
    let n: f64 = counts.iter().map(|&(_, c)| c).sum();
    if n == 0.0 {
        return (0.0, 0);
    }
    let rank = (q * n).ceil().max(1.0);
    let mut seen = 0.0;
    for &(hi, c) in &counts {
        if seen + c >= rank {
            let lo = bucket_lower(hi);
            return (lo as f64 + (hi - lo) as f64 * (rank - seen) / c, n as u64);
        }
        seen += c;
    }
    (counts.last().map_or(0.0, |&(hi, _)| hi as f64), n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_match_ant_obs() {
        assert_eq!(bucket_lower(3), 3);
        assert_eq!(bucket_lower(4), 4);
        assert_eq!(bucket_lower(7), 7);
        assert_eq!(bucket_lower(9), 8);
        assert_eq!(bucket_lower(1023), 896);
    }

    #[test]
    fn histogram_delta_quantile() {
        let before = Scrape::parse("h_bucket{le=\"9\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n");
        let after = Scrape::parse(
            "h_bucket{le=\"9\"} 2\nh_bucket{le=\"1023\"} 6\nh_bucket{le=\"+Inf\"} 6\nh_sum 3000\nh_count 6\n",
        );
        let (p50, n) = delta_quantile(&before, &after, "h", 0.5);
        assert_eq!(n, 4);
        assert!((896.0..=1023.0).contains(&p50));
        assert_eq!(delta(&before, &after, "h_count"), 4.0);
    }
}
