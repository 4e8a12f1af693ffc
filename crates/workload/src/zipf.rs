//! Zipf-distributed object popularity.
//!
//! A table costs O(n) time and space to build (one `powf` per rank) and
//! is immutable afterwards, so every clone of a [`Zipf`] shares it: a
//! population of samplers over the same `(n, θ)` pays for one table.

use rand::{Rng, StdRng};
use std::sync::Arc;

/// Zipf(θ) sampler over ranks `0..n`.
///
/// Rank `i` is drawn with probability proportional to `1/(i+1)^θ`, so
/// rank 0 is the hottest object and the tail falls off polynomially.
/// θ = 0 degenerates to uniform; θ ≈ 0.99 is the classic "web-like"
/// skew used throughout the storage literature (and by YCSB).
///
/// The sampler precomputes the cumulative distribution and its guide
/// table once at construction (O(n) time and space) and draws in
/// expected O(1) time per sample, with no allocation. `clone` is O(1):
/// clones share the tables and draw identically from equal generators.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// `cdf[i]` = P(rank <= i); last entry is exactly 1.0.
    cdf: Arc<[f64]>,
    /// Chen and Asau's guide table: `guide[k]` = how many `cdf` entries
    /// fall in a [`bucket`] below `k`, for `k` in `0..=n`.
    guide: Arc<[u32]>,
    theta: f64,
}

/// Which of `n` equal buckets of `[0, 1)` holds `p`; monotone in `p`.
fn bucket(p: f64, n: usize) -> usize {
    (p * n as f64) as usize
}

impl Zipf {
    /// Build a sampler over `n` ranks with skew `theta >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf over an empty rank set");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "zipf skew must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(total);
        }
        // Normalise; pin the last entry to exactly 1.0 so a draw of
        // u -> 1.0 can never fall off the end.
        for p in cdf.iter_mut() {
            *p /= total;
        }
        *cdf.last_mut().expect("n > 0") = 1.0;
        let mut guide = Vec::with_capacity(n + 1);
        let mut i = 0;
        for k in 0..=n {
            while i < n && bucket(cdf[i], n) < k {
                i += 1;
            }
            guide.push(u32::try_from(i).expect("zipf over more than u32::MAX ranks"));
        }
        Zipf {
            cdf: cdf.into(),
            guide: guide.into(),
            theta,
        }
    }

    /// Number of ranks the sampler draws from.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the sampler has exactly one rank (it never has zero).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The skew parameter this sampler was built with.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draw a rank in `0..len()`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        self.sample_u(rng.gen())
    }

    /// `cdf.partition_point(|p| p < u)`, capped at the last rank. Every
    /// entry before `u`'s guide entry lies in a lower bucket, so is below
    /// `u`; the scan from there is expected O(1).
    pub(crate) fn sample_u(&self, u: f64) -> usize {
        let n = self.cdf.len();
        let mut i = self.guide[bucket(u, n).min(n)] as usize;
        while i < n - 1 && self.cdf[i] < u {
            i += 1;
        }
        i
    }

    /// Probability mass assigned to `rank`.
    pub fn mass(&self, rank: usize) -> f64 {
        let hi = self.cdf[rank];
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(4, 0.0);
        for rank in 0..4 {
            assert!((z.mass(rank) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn covers_every_rank_eventually() {
        let z = Zipf::new(8, 0.9);
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[z.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s), "seen = {seen:?}");
    }

    #[test]
    fn clones_share_one_table_and_draw_identically() {
        let z = Zipf::new(1024, 0.99);
        let twin = z.clone();
        assert!(Arc::ptr_eq(&z.cdf, &twin.cdf));
        let (mut a, mut b) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        for _ in 0..1000 {
            assert_eq!(z.sample(&mut a), twin.sample(&mut b));
        }
    }

    #[test]
    fn guided_draw_equals_partition_point() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1, 2, 7, 832, 8192] {
            for theta in [0.0, 0.99, 3.0] {
                let z = Zipf::new(n, theta);
                let mut us = vec![0.0, 1.0f64.next_down()];
                for &p in z.cdf.iter() {
                    us.extend([p.next_down(), p, p.next_up()]);
                }
                us.extend((0..100_000).map(|_| rng.gen::<f64>()));
                for u in us {
                    let want = z.cdf.partition_point(|&p| p < u).min(n - 1);
                    assert_eq!(z.sample_u(u), want, "n {n}, theta {theta}, u {u:e}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty rank set")]
    fn rejects_zero_ranks() {
        let _ = Zipf::new(0, 1.0);
    }
}
