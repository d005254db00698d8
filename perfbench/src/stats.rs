//! Order statistics for the benchmark's samples: quantiles, medians,
//! tail percentiles that refuse to report a tail they have too few
//! samples to see, and the median over time windows that keeps a slow
//! stretch of the host from moving a run's figure.

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported (the 90th percentile therefore needs about 100 samples).
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks, the rule Python's `statistics.quantiles(...,
/// method="inclusive")` and NumPy's default use. `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// The median of `samples`, or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// A tail percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// Total samples.
    pub n: usize,
    /// Samples strictly above `value`.
    pub beyond: usize,
}

/// The `p`-th percentile (0 < p < 100) of `samples`, reported only when at
/// least [`MIN_BEYOND`] samples lie strictly beyond it; `None` otherwise.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<Tail> {
    let value = quantile(samples, p / 100.0)?;
    let beyond = samples.iter().filter(|&&x| x > value).count();
    (beyond >= MIN_BEYOND).then_some(Tail { value, n: samples.len(), beyond })
}

/// Samples in one time window of [`windowed`]: the fewest that give a
/// 90th percentile [`MIN_BEYOND`] samples beyond it.
pub const WINDOW: usize = 10 * MIN_BEYOND;

/// The median of `stat` over consecutive windows of `samples` (time
/// order), with the window count. The samples are cut into as many equal
/// windows of at least [`WINDOW`] samples as `stat` accepts in every one
/// (a remainder joins the last window): ties can leave a window's 90th
/// percentile without ten samples strictly beyond it, and fewer, longer
/// windows are then used. `None` when there are fewer samples than one
/// window or `stat` refuses even the whole run.
///
/// A slow stretch of the host that covers fewer than half the windows
/// leaves the median among the other windows' values, where one
/// statistic over all samples would move with the stretch's share of
/// the run.
pub fn windowed<T>(samples: &[T], stat: impl Fn(&[T]) -> Option<f64>) -> Option<(f64, usize)> {
    (1..=samples.len() / WINDOW).rev().find_map(|n| {
        let size = samples.len() / n;
        let values = (0..n)
            .map(|i| {
                let end = if i + 1 == n { samples.len() } else { (i + 1) * size };
                stat(&samples[i * size..end])
            })
            .collect::<Option<Vec<f64>>>()?;
        Some((median(&values)?, n))
    })
}

/// The 90th percentile of one window, when [`tail_percentile`] reports it.
pub fn p90(samples: &[f64]) -> Option<f64> {
    tail_percentile(samples, 90.0).map(|t| t.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_closest_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&s, 0.25), Some(1.75));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 91 distinct samples 0..=90: p90 is 81 and only 9 lie above it.
        let few: Vec<f64> = (0..91).map(f64::from).collect();
        assert_eq!(tail_percentile(&few, 90.0), None);
        let enough: Vec<f64> = (0..101).map(f64::from).collect();
        let t = tail_percentile(&enough, 90.0).unwrap();
        assert_eq!((t.value, t.n, t.beyond), (90.0, 101, 10));
    }

    #[test]
    fn ties_at_the_percentile_do_not_count_as_beyond() {
        // Every sample equal: nothing lies beyond any percentile.
        let flat = vec![1.0; 500];
        assert_eq!(tail_percentile(&flat, 90.0), None);
        // 80 fast samples and 40 slow ones: p90 lands inside the slow
        // group, and only the slow samples above it count.
        let mut bimodal = vec![1.0; 80];
        bimodal.extend((0..40).map(|i| 10.0 + i as f64));
        let t = tail_percentile(&bimodal, 90.0).unwrap();
        assert!(t.value > 10.0 && t.beyond >= MIN_BEYOND);
    }

    #[test]
    fn windowed_median_ignores_a_slow_stretch_under_half_the_run() {
        // Five windows of fast samples (p90 near 1.0), two of them slowed
        // to twice the time: the windowed p90 stays with the fast ones,
        // while the p90 over all samples moves to the slow stretch.
        let fast: Vec<f64> = (0..WINDOW).map(|i| 1.0 + i as f64 * 1e-4).collect();
        let slow: Vec<f64> = fast.iter().map(|x| 2.0 * x).collect();
        let mut run = Vec::new();
        for w in [&fast, &slow, &fast, &slow, &fast] {
            run.extend_from_slice(w);
        }
        let (value, windows) = windowed(&run, p90).unwrap();
        assert_eq!(windows, 5);
        assert_eq!(value, p90(&fast).unwrap());
        assert!(p90(&run).unwrap() > 1.9);
        // Windows are equal; a remainder joins the last one.
        assert_eq!(windowed(&run[..2 * WINDOW + 7], |w| Some(w.len() as f64)), Some((103.5, 2)));
        // A window whose p90 is a tie with too few samples beyond it:
        // fewer, longer windows are used.
        let mut tied = fast.clone();
        tied.extend(vec![1.0; WINDOW - 5]);
        tied.extend((0..5).map(|i| 2.0 + f64::from(i)));
        let (_, windows) = windowed(&tied, p90).unwrap();
        assert_eq!(windows, 1);
        // Too few samples, or a window the statistic refuses: no value.
        assert_eq!(windowed(&fast[..WINDOW - 1], median), None);
        assert_eq!(windowed(&vec![1.0; 2 * WINDOW], p90), None);
    }
}
