//! Deterministic discrete-event simulation kernel.
//!
//! The paper's evaluation ran on 1998 hardware (Alpha workstations, OC-3
//! ATM, SCSI disks). This crate is the substrate that replaces that
//! testbed: a single-threaded, deterministic event simulator plus the
//! resource models the experiments need — FIFO service centers
//! ([`FifoResource`]), links and busses as FIFO servers of a fixed
//! bandwidth ([`BandwidthShare`], the only link model), a CPU model that
//! converts instruction counts to time ([`CpuModel`]), and
//! time-weighted utilization statistics (the paper plots *client idle* and
//! *drive CPU idle* in Figure 7). A resource is named by a static class
//! string, so building one allocates nothing, and a link converts bytes
//! to time in one place ([`BandwidthShare::wire_time`]).
//!
//! Events are ordered by `(time, sequence)` so identical runs replay
//! byte-for-byte; all experiment randomness comes from seeded PRNGs
//! upstream, and every seeded fault or crash decision is a
//! [`splitmix64`] of a seed and a counter. Scheduling is one binary heap
//! over a slab of generation-tagged event slots (see the module docs in
//! `kernel.rs`).
//!
//! # Example
//!
//! ```
//! use nasd_sim::{Simulator, SimTime};
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let mut sim = Simulator::new();
//! let fired = Rc::new(Cell::new(0u64));
//! let f = fired.clone();
//! sim.schedule_in(SimTime::from_millis(5), move |sim| {
//!     f.set(sim.now().as_micros());
//! });
//! sim.run();
//! assert_eq!(fired.get(), 5_000);
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

mod kernel;
mod resource;

pub use kernel::{EventId, Simulator};
pub use resource::{BandwidthShare, CpuModel, FifoResource};
// `SimTime` and the single-owner throughput meter moved to `nasd-obs`
// (the observability layer sits below the kernel so metrics can be keyed
// on simulated time); re-exported here so downstream code is unchanged.
pub use nasd_obs::{SimTime, Throughput};

/// SplitMix64 finalizer: one 64-bit hash step. Message faults
/// (`nasd-net`), drive faults (`nasd-object`) and torn-write crash points
/// (`nasd-disk`) are each this function of a seed and a counter, so a
/// fault or crash schedule replays per seed.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
