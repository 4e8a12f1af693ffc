//! Property tests for the zipf sampler (ISSUE 10 satellite):
//! empirical frequencies follow rank order, equal seeds give identical
//! sample sequences, and a stream reseeded over a shared table draws
//! what a freshly built one does.

use nasd_workload::{Request, RequestStream, WorkloadSpec, Zipf};
use proptest::prelude::*;
use rand::{SeedableRng, StdRng};

proptest! {
    /// With positive skew, sampling frequency must decrease with rank.
    /// Neighbouring tail ranks have nearly equal mass, so the pairwise
    /// check allows binomial noise (4σ on the pair's total); the strict
    /// checks are that the hottest rank beats every tail rank outright
    /// and that the head half of the rank space outdraws the tail half.
    #[test]
    fn frequency_follows_rank_order(
        n in 4usize..64,
        theta_tenths in 5u32..20,
        seed in 0u64..1000,
    ) {
        let theta = f64::from(theta_tenths) / 10.0;
        let z = Zipf::new(n, theta);
        let mut rng = StdRng::seed_from_u64(seed);
        let draws = 60_000u64;
        let mut counts = vec![0u64; n];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        // Noise-tolerant weak monotonicity over every pair.
        for rank in 0..n - 1 {
            let slack = (4.0 * ((counts[rank] + counts[rank + 1]) as f64).sqrt()) as u64;
            prop_assert!(
                counts[rank] + slack >= counts[rank + 1],
                "rank {} sampled {} times but rank {} sampled {} (theta {})",
                rank, counts[rank], rank + 1, counts[rank + 1], theta,
            );
        }
        // Strict dominance where the mass gap is far beyond noise.
        prop_assert!(counts[0] > counts[n - 1]);
        let head: u64 = counts[..n / 2].iter().sum();
        let tail: u64 = counts[n / 2..].iter().sum();
        prop_assert!(head > tail, "head {head} vs tail {tail} (theta {theta})");
    }

    /// The empirical hottest-rank share must track the analytic mass,
    /// not just the ordering — catches an off-by-one in the CDF search.
    #[test]
    fn hot_rank_share_matches_analytic_mass(
        n in 2usize..32,
        seed in 0u64..1000,
    ) {
        let z = Zipf::new(n, 0.99);
        let mut rng = StdRng::seed_from_u64(seed);
        let draws = 40_000u64;
        let mut hot = 0u64;
        for _ in 0..draws {
            if z.sample(&mut rng) == 0 {
                hot += 1;
            }
        }
        let observed = hot as f64 / draws as f64;
        let expected = z.mass(0);
        prop_assert!(
            (observed - expected).abs() < 0.02,
            "rank-0 share {observed} vs analytic {expected}"
        );
    }

    /// Equal (n, theta, seed) must reproduce the exact sample sequence.
    #[test]
    fn equal_seeds_reproduce_the_sequence(
        n in 1usize..128,
        theta_tenths in 0u32..20,
        seed: u64,
    ) {
        let theta = f64::from(theta_tenths) / 10.0;
        let za = Zipf::new(n, theta);
        let zb = Zipf::new(n, theta);
        let mut ra = StdRng::seed_from_u64(seed);
        let mut rb = StdRng::seed_from_u64(seed);
        for i in 0..200 {
            let a = za.sample(&mut ra);
            let b = zb.sample(&mut rb);
            prop_assert_eq!(a, b, "diverged at draw {}", i);
            prop_assert!(a < n);
        }
    }

    /// `reseeded` shares the source stream's table, wherever the source
    /// has got to, and draws exactly what `RequestStream::new` draws.
    #[test]
    fn reseeded_stream_matches_a_fresh_one(
        n in 1usize..4096,
        theta_hundredths in 0u32..=200,
        source_seed: u64,
        source_draws in 0usize..64,
        seed: u64,
    ) {
        let spec = WorkloadSpec {
            zipf_theta: f64::from(theta_hundredths) / 100.0,
            ..WorkloadSpec::scale_default(n)
        };
        let mut source = RequestStream::new(&spec, source_seed);
        source.by_ref().take(source_draws).for_each(drop);
        let reseeded: Vec<Request> = source.reseeded(seed).take(1000).collect();
        let fresh: Vec<Request> = RequestStream::new(&spec, seed).take(1000).collect();
        prop_assert_eq!(reseeded, fresh);
    }
}
