//! Seeded request streams: popularity × mix × transfer size.

use crate::{OpKind, OpMix, Zipf};
use rand::{SeedableRng, StdRng};

/// Everything that shapes a request stream, independent of the seed.
///
/// Two [`RequestStream`]s built from equal specs and equal seeds
/// produce identical request sequences — the reproducibility contract
/// the scale bench and the property tests rely on.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of distinct objects the stream addresses.
    pub objects: usize,
    /// Zipf skew over object popularity (0 = uniform).
    pub zipf_theta: f64,
    /// Relative read/write/getattr weights.
    pub mix: OpMix,
    /// Bytes transferred by each data read.
    pub read_bytes: u64,
    /// Bytes transferred by each data write.
    pub write_bytes: u64,
}

impl WorkloadSpec {
    /// The default large-installation shape used by the scale bench:
    /// web-like skew (θ = 0.99) over the object set, the paper's
    /// trace-derived op mix, and 64 KiB data transfers (the stripe-unit
    /// sweet spot from the Cheops experiments).
    pub fn scale_default(objects: usize) -> Self {
        WorkloadSpec {
            objects,
            zipf_theta: 0.99,
            mix: OpMix::paper_default(),
            read_bytes: 64 * 1024,
            write_bytes: 64 * 1024,
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Popularity rank of the target object (0 = hottest).
    pub object: usize,
    /// Which operation to perform.
    pub op: OpKind,
    /// Bytes moved (0 for [`OpKind::GetAttr`]).
    pub bytes: u64,
}

/// An infinite, seeded sequence of [`Request`]s drawn from a
/// [`WorkloadSpec`].
#[derive(Debug)]
pub struct RequestStream {
    zipf: Zipf,
    mix: OpMix,
    read_bytes: u64,
    write_bytes: u64,
    rng: StdRng,
}

impl RequestStream {
    /// Build a stream for `spec`, deterministic in `seed`.
    pub fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        RequestStream {
            zipf: Zipf::new(spec.objects, spec.zipf_theta),
            mix: spec.mix,
            read_bytes: spec.read_bytes,
            write_bytes: spec.write_bytes,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A stream over this one's spec, deterministic in `seed`: it draws
    /// exactly what `RequestStream::new(&spec, seed)` draws, but shares
    /// this stream's popularity table instead of building another.
    #[must_use]
    pub fn reseeded(&self, seed: u64) -> Self {
        RequestStream {
            zipf: self.zipf.clone(),
            mix: self.mix,
            read_bytes: self.read_bytes,
            write_bytes: self.write_bytes,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generate the next request.
    pub fn next_request(&mut self) -> Request {
        let object = self.zipf.sample(&mut self.rng);
        let op = self.mix.sample(&mut self.rng);
        let bytes = match op {
            OpKind::Read => self.read_bytes,
            OpKind::Write => self.write_bytes,
            OpKind::GetAttr => 0,
        };
        Request { object, op, bytes }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        Some(self.next_request())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seed_identical_stream() {
        let spec = WorkloadSpec::scale_default(1000);
        let a: Vec<Request> = RequestStream::new(&spec, 99).take(500).collect();
        let b: Vec<Request> = RequestStream::new(&spec, 99).take(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn getattr_moves_no_bytes() {
        let spec = WorkloadSpec {
            objects: 10,
            zipf_theta: 0.5,
            mix: OpMix::new(0, 0, 1),
            read_bytes: 4096,
            write_bytes: 4096,
        };
        let mut s = RequestStream::new(&spec, 1);
        for _ in 0..100 {
            let r = s.next_request();
            assert_eq!(r.op, OpKind::GetAttr);
            assert_eq!(r.bytes, 0);
        }
    }
}
