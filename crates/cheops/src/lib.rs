//! Cheops — the NASD storage manager (§5.2, Figure 8).
//!
//! "Our layered approach allows the filesystem to manage a 'logical'
//! object store provided by our storage management system called Cheops.
//! Cheops exports the same object interface as the underlying NASD
//! devices, and maintains the mapping of these higher-level objects to
//! the objects on the individual devices... a storage manager replaces
//! the file manager's capability with a set of capabilities for the
//! objects that actually make up the high-level striped object. This
//! costs an additional control message but once equipped with these
//! capabilities, clients again access storage objects directly."
//!
//! Unlike Swift, TickerTAIP or Petal, "Cheops uses client processing
//! power rather than scaling the computational power of the storage
//! subsystem": all striping/mirroring work happens in the
//! [`CheopsClient`] library; the [`CheopsManager`] only keeps maps and
//! arbitrates concurrency with leases.
//!
//! There is one storage manager: clients reach it over the wire enum
//! [`CheopsRequest`], and storage management (`nasd-mgmt`) is an engine
//! over the same `Arc<CheopsManager>` calling its typed methods, so both
//! see one set of maps and one lease table. A component is a
//! [`nasd_fm::FileHandle`], created, minted for and revoked
//! ([`CheopsManager::revoke`]) through the fleet's one mint and version
//! table — the ones the file managers over the same drives use — so a
//! revocation by any manager holds for every manager.

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

mod client;
mod connect;
mod manager;
mod map;

pub use client::{CheopsClient, CheopsFile};
pub use connect::CheopsConnect;
pub use manager::{
    CheopsManager, CheopsRequest, CheopsResponse, LeaseKind, RepairPhase, RepairRecord,
};
pub use map::{xor_read, Column, Component, ComponentSlot, Layout, LogicalObjectId, Redundancy};
