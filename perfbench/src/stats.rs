//! Order statistics and process memory.

/// The `q`-quantile of unsorted samples (nearest rank); NaN when empty.
pub fn quantile_u32(samples: &[u32], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1])
}

/// The median of unsorted samples (mean of the middle two for an even
/// count); NaN when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// The `q`-quantile of a log2-bucketed histogram given as cumulative counts
/// (bucket `b` counts observations below `2^b`): the upper bound of the
/// bucket the quantile falls in.
pub fn histogram_quantile(cumulative: &[u64], q: f64) -> f64 {
    let total = cumulative.last().copied().unwrap_or(0);
    if total == 0 {
        return 0.0;
    }
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let bucket = cumulative
        .iter()
        .position(|&c| c >= target)
        .unwrap_or(cumulative.len() - 1);
    if bucket == 0 {
        0.0
    } else {
        (1u64 << bucket) as f64
    }
}

/// Host steal time so far (time this machine's CPUs were runnable but
/// descheduled by the hypervisor), in clock ticks, from `/proc/stat`; 0
/// where that file does not exist.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The median of the samples taken in the calmest quarter of the run: those
/// during which the host stole no more time than its lower quartile over
/// all samples. Steal comes in bursts from other tenants of the machine;
/// windows hit by one measure the host, not the program, and the selection
/// looks only at steal, never at the measured values. Each sample is
/// `(value, steal ticks)`; NaN when there are none.
pub fn steady_median(samples: &[(f64, u64)]) -> f64 {
    let mut steal: Vec<u64> = samples.iter().map(|&(_, s)| s).collect();
    steal.sort_unstable();
    let Some(&threshold) = steal.get(steal.len().saturating_sub(1) / 4) else {
        return f64::NAN;
    };
    let mut kept: Vec<f64> = samples
        .iter()
        .filter(|&&(_, s)| s <= threshold)
        .map(|&(v, _)| v)
        .collect();
    median(&mut kept)
}

/// Peak resident memory of this process in MB, from `/proc/self/status`
/// (NaN where that file does not exist).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line
                    .strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_nearest_ranks() {
        let samples: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile_u32(&samples, 0.5), 50.0);
        assert_eq!(quantile_u32(&samples, 0.99), 99.0);
        assert_eq!(quantile_u32(&samples, 1.0), 100.0);
        assert!(quantile_u32(&[], 0.5).is_nan());
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn steady_median_keeps_the_calmest_quarter() {
        let samples = [(10.0, 0), (11.0, 0), (12.0, 1), (90.0, 9), (95.0, 7)];
        assert_eq!(steady_median(&samples), 10.5);
        let stormy = [
            (30.0, 4),
            (11.0, 1),
            (12.0, 2),
            (90.0, 9),
            (95.0, 7),
            (13.0, 1),
        ];
        assert_eq!(steady_median(&stormy), 12.0);
        let calm = [(10.0, 0), (20.0, 0), (30.0, 0), (40.0, 0)];
        assert_eq!(steady_median(&calm), 25.0);
        assert!(steady_median(&[]).is_nan());
    }

    #[test]
    fn histogram_quantile_reads_cumulative_buckets() {
        // 10 observations of 0, 80 below 2^3, 10 below 2^6.
        let mut cumulative = [0u64; 8];
        cumulative[0] = 10;
        for (b, c) in cumulative.iter_mut().enumerate().skip(1) {
            *c = if b < 3 {
                10
            } else if b < 6 {
                90
            } else {
                100
            };
        }
        assert_eq!(histogram_quantile(&cumulative, 0.05), 0.0);
        assert_eq!(histogram_quantile(&cumulative, 0.5), 8.0);
        assert_eq!(histogram_quantile(&cumulative, 0.99), 64.0);
    }
}
