//! Production-scale workload generation (ROADMAP scale-out study).
//!
//! The paper's experiments drove at most 13 drives from a handful of
//! scripted clients (§3, Fig 7). Pushing the reproduction to O(100)
//! drives and O(1000) clients needs traffic that *stands in for
//! millions of users* without hand-writing it: seeded stochastic
//! processes with the shapes real storage traffic has.
//!
//! * [`Zipf`] — object popularity. Real file accesses are heavily
//!   skewed; a Zipf(θ) distribution over object ranks reproduces the
//!   hot-set behaviour that makes capability caching and FM sharding
//!   matter.
//! * [`ClosedLoop`] — each simulated user issues, waits, thinks
//!   (exponentially distributed, by inverse-transform sampling),
//!   repeats: the benchmark-client regime of the paper's own
//!   experiments, and the only one any driver here runs.
//! * [`OpMix`] + [`RequestStream`] — weighted read/write/getattr
//!   traffic over zipf-ranked objects, fully determined by a seed.
//! * [`driver`] — applies a stream to a live fleet through the real
//!   `Connector`/[`NfsClient`](nasd_fm::NfsClient) stack (used by tests
//!   and smoke runs; the `scale` bench uses the same streams to drive
//!   its discrete-event model).
//!
//! Everything is seeded; two streams built from the same spec and seed
//! produce identical request sequences, and so does a stream
//! [`reseeded`](RequestStream::reseeded) from one over that spec (it
//! shares the popularity table instead of building another).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
pub mod driver;
mod mix;
mod stream;
mod zipf;

pub use arrival::ClosedLoop;
pub use mix::{OpKind, OpMix};
pub use stream::{Request, RequestStream, WorkloadSpec};
pub use zipf::Zipf;
