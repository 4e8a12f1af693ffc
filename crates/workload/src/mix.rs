//! Operation mix: which NFS-level operation each request performs.

use rand::{Rng, StdRng};

/// The operation kinds the generator emits, matching the dominant
/// traffic classes of the paper's NFS traces (§2.2): data reads, data
/// writes, and attribute reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Read a byte range from an object.
    Read,
    /// Write a byte range to an object.
    Write,
    /// Fetch attributes only (no data transfer).
    GetAttr,
}

/// Weighted read/write/getattr mix.
///
/// Weights are relative integers (they need not sum to anything in
/// particular, but their sum must fit a `u32`); sampling is by a single
/// uniform draw over the total, so the mix adds no allocation to the
/// per-request path.
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    read: u32,
    write: u32,
    /// `read + write + getattr`, checked once at construction; the
    /// getattr weight is what remains.
    total: u32,
}

impl OpMix {
    /// A mix from relative weights.
    ///
    /// # Panics
    ///
    /// Panics if every weight is zero or the weights sum past `u32::MAX`.
    pub fn new(read: u32, write: u32, getattr: u32) -> Self {
        let total = read
            .checked_add(write)
            .and_then(|sum| sum.checked_add(getattr))
            .expect("op mix weights must sum to at most u32::MAX");
        assert!(total > 0, "op mix needs at least one non-zero weight");
        OpMix { read, write, total }
    }

    /// The paper's trace-derived default: read-dominated data traffic
    /// with a heavy attribute component (§2.2 reports attribute
    /// operations as the most common request class after reads).
    pub fn paper_default() -> Self {
        OpMix::new(60, 15, 25)
    }

    /// A pure-read mix (bandwidth-ceiling experiments).
    pub fn read_only() -> Self {
        OpMix::new(1, 0, 0)
    }

    /// Draw an operation kind according to the weights.
    pub fn sample(&self, rng: &mut StdRng) -> OpKind {
        let mut pick = rng.gen_range(0..self.total);
        if pick < self.read {
            return OpKind::Read;
        }
        pick -= self.read;
        if pick < self.write {
            return OpKind::Write;
        }
        OpKind::GetAttr
    }

    /// Fraction of requests that are data reads.
    pub fn read_fraction(&self) -> f64 {
        f64::from(self.read) / f64::from(self.total)
    }

    /// Fraction of requests that are data writes.
    pub fn write_fraction(&self) -> f64 {
        f64::from(self.write) / f64::from(self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zero_weight_classes_never_appear() {
        let mix = OpMix::read_only();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert_eq!(mix.sample(&mut rng), OpKind::Read);
        }
    }

    #[test]
    fn frequencies_track_weights() {
        let mix = OpMix::new(50, 25, 25);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            match mix.sample(&mut rng) {
                OpKind::Read => counts[0] += 1,
                OpKind::Write => counts[1] += 1,
                OpKind::GetAttr => counts[2] += 1,
            }
        }
        let read_frac = counts[0] as f64 / 40_000.0;
        assert!((read_frac - 0.5).abs() < 0.02, "read fraction {read_frac}");
        assert!((counts[1] as f64 / 40_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "non-zero weight")]
    fn rejects_all_zero_weights() {
        let _ = OpMix::new(0, 0, 0);
    }

    #[test]
    #[should_panic(expected = "sum to at most u32::MAX")]
    fn weights_summing_to_exactly_two_to_the_32_are_refused() {
        // A wrapping sum is 0 here, which reads as "no non-zero weight".
        let _ = OpMix::new(u32::MAX, 1, 0);
    }

    #[test]
    #[should_panic(expected = "sum to at most u32::MAX")]
    fn weights_summing_past_u32_are_refused() {
        // A wrapping sum is 1 here, which makes `read_fraction` ~4.3e9.
        let _ = OpMix::new(u32::MAX, 2, 0);
    }

    #[test]
    fn weights_summing_to_u32_max_are_a_valid_mix() {
        let mix = OpMix::new(u32::MAX - 1, 1, 0);
        assert!(mix.read_fraction() < 1.0);
        assert!((mix.read_fraction() + mix.write_fraction() - 1.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(mix.sample(&mut rng), OpKind::Read);
    }
}
