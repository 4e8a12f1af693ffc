//! nasd-mgmt — storage management for Cheops redundancy.
//!
//! The paper's Cheops layer exists so that "storage management
//! functions" — redundancy maintenance, reconstruction, migration —
//! live *above* commodity NASD drives. The Cheops client library
//! already tolerates a failure (degraded reads via mirror or parity
//! fallback); this crate is the half that *repairs* one:
//!
//! - a [`HealthMonitor`] sweeps the fleet with short-timeout liveness
//!   probes and declares a drive failed after two consecutive silent
//!   sweeps,
//! - a [`SparePool`] holds hot spares (drives no layout references),
//! - the rebuild engine reconstructs every component of the failed
//!   drive onto a spare — copying a mirror, or XORing surviving
//!   columns with parity — and then atomically swaps the logical-object
//!   map in the Cheops manager so subsequent `Open`s mint capabilities
//!   for the new component,
//! - rebuild I/O is throttled through a [`nasd_net::RatePacer`] token
//!   bucket so foreground traffic degrades gracefully instead of
//!   collapsing (the degraded-vs-rebuild trade-off is a measurable
//!   curve: `cargo run -p nasd-bench -- rebuild`),
//! - a scrubber walks stripes verifying parity/mirror agreement and
//!   repairing latent errors before a second failure makes them fatal.
//!
//! There is one storage manager (§5.2): [`NasdMgmt`] is an engine over
//! the `Arc<CheopsManager>` whose wire enum the clients talk to, calling
//! its typed methods directly — one set of maps, one lease table — and
//! minting through the fleet's one mint, at the version any manager last
//! revoked to. The manager stays control plane only: reconstruction
//! data flows between the drives and this engine, never through it.

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

mod config;
mod health;
mod rebuild;
mod scrub;
mod service;
mod spare;

pub use health::{DriveHealth, HealthMonitor};
pub use rebuild::{RebuildOutcome, SlotFate};
pub use scrub::ScrubOutcome;
pub use service::{CheckReport, MgmtError, NasdMgmt};
pub use spare::SparePool;
