//! Order statistics over timing samples.

/// Samples a tail percentile must leave above itself: a "p99" read from
/// fewer samples than this is one slow outlier, not a tail.
pub const TAIL_BEYOND: usize = 10;

/// Median; the mean of the two middle samples for an even count.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank 95th percentile, or `None` for an empty sample.
pub fn p95(xs: &[f64]) -> Option<f64> {
    nth_smallest(xs, (xs.len() * 95).div_ceil(100))
}

/// The `rank`-th smallest of `xs` (nearest rank, counted from 1), or
/// `None` when `rank` is 0 or past the end.
fn nth_smallest(xs: &[f64], rank: usize) -> Option<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s.get(rank.checked_sub(1)?).copied()
}

/// The highest percentile of a sample that still has [`TAIL_BEYOND`]
/// samples above it, with the sample count that makes it meaningful.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Nearest-rank percentile: the value is the `rank`-th smallest of
    /// `samples`, so `percentile = 100 · rank / samples`.
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// Pick the tail of `xs`, or `None` when the sample is too small to
/// leave [`TAIL_BEYOND`] samples above any rank.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let rank = n.checked_sub(TAIL_BEYOND)?;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: nth_smallest(xs, rank)?,
        samples: n,
    })
}

/// Derive an independent 64-bit seed from a tuple (SplitMix64 steps).
pub fn mix(parts: &[u64]) -> u64 {
    parts.iter().fold(0, |h, &p| {
        let mut x = (h ^ p).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        for n in 11..=200 {
            let xs: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let t = tail(&xs).expect("large enough sample");
            assert_eq!(t.samples, n);
            let rank = (t.value as usize) + 1;
            assert_eq!(n - rank, TAIL_BEYOND, "n={n}: ten samples beyond");
            // One rank higher would leave only nine samples beyond it.
            assert!(n - (rank + 1) < TAIL_BEYOND);
            assert_eq!(t.percentile, 100.0 * rank as f64 / n as f64);
        }
        let t = tail(&(0..100).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((t.percentile, t.value), (90.0, 89.0));
        let t = tail(&(0..20).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((t.percentile, t.value), (50.0, 9.0));
    }

    #[test]
    fn no_tail_below_eleven_samples() {
        assert!(tail(&[1.0; 10]).is_none());
        assert!(tail(&[]).is_none());
        assert!(tail(&[1.0; 11]).is_some());
    }

    #[test]
    fn p95_is_the_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(p95(&xs), Some(95.0));
        assert_eq!(p95(&[2.0, 1.0]), Some(2.0));
        assert_eq!(p95(&[]), None);
    }
}
