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
//! *drive CPU idle* in Figure 7).
//!
//! Events are ordered by `(time, sequence)` so identical runs replay
//! byte-for-byte; all experiment randomness comes from seeded PRNGs
//! upstream. Scheduling uses a hierarchical calendar queue (timer wheel
//! plus overflow heap — see the module docs in `kernel.rs`) so dispatch
//! stays amortized O(1) with 10⁵–10⁶ events pending; the previous
//! single-`BinaryHeap` kernel is preserved as
//! [`baseline::HeapSimulator`] for benchmarking and equivalence tests.
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
#![warn(missing_docs)]

pub mod baseline;
mod kernel;
mod resource;

pub use kernel::{EventId, Simulator, WheelParams};
pub use resource::{BandwidthShare, CpuModel, FifoResource};
// `SimTime` and the single-owner throughput meter moved to `nasd-obs`
// (the observability layer sits below the kernel so metrics can be keyed
// on simulated time); re-exported here so downstream code is unchanged.
pub use nasd_obs::{SimTime, Throughput};
