//! The arrival process: when a closed-loop user issues its next request.

use nasd_obs::SimTime;
use rand::{Rng, SeedableRng, StdRng};

/// Draw an exponentially distributed duration with the given mean, via
/// inverse-transform sampling. The mean is in seconds.
fn exp_sample(rng: &mut StdRng, mean_secs: f64) -> SimTime {
    // u in [0, 1); 1-u in (0, 1] so ln() is finite.
    let u: f64 = rng.gen();
    SimTime::from_secs_f64(-(1.0 - u).ln() * mean_secs)
}

/// Closed-loop arrival process.
///
/// Each simulated user keeps at most one request outstanding: issue,
/// wait for completion, think for an exponentially distributed pause,
/// repeat. Offered load self-limits as the system slows — this is the
/// regime of the paper's own benchmark clients (and of interactive
/// users), and it is what makes "add more clients" the natural x-axis
/// for a Fig-7-style curve.
#[derive(Debug)]
pub struct ClosedLoop {
    mean_think_secs: f64,
    rng: StdRng,
}

impl ClosedLoop {
    /// A closed-loop user with the given mean think time, seeded for
    /// reproducibility. A zero think time models a saturating client
    /// that issues back-to-back.
    pub fn new(mean_think: SimTime, seed: u64) -> Self {
        ClosedLoop {
            mean_think_secs: mean_think.as_secs_f64(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Pause between a completion and this user's next request.
    pub fn think(&mut self) -> SimTime {
        if self.mean_think_secs == 0.0 {
            return SimTime::from_nanos(0);
        }
        exp_sample(&mut self.rng, self.mean_think_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_zero_think_is_back_to_back() {
        let mut user = ClosedLoop::new(SimTime::from_nanos(0), 3);
        assert_eq!(user.think(), SimTime::from_nanos(0));
    }

    #[test]
    fn closed_loop_think_scales_with_mean() {
        let mut user = ClosedLoop::new(SimTime::from_millis(10), 9);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| user.think().as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 10e-3).abs() < 1e-3, "mean think {mean}");
    }
}
