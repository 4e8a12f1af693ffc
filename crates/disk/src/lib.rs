//! Disk substrate for the NASD reproduction.
//!
//! Two planes live here:
//!
//! * **Functional**: [`BlockDevice`] and its implementations ([`MemDisk`],
//!   [`SharedDisk`], [`CrashDisk`]) store real bytes for the object
//!   system.
//! * **Timing**: [`DiskModel`] is a mechanical disk simulation — seeks,
//!   rotation, media transfer, an on-drive segment cache with readahead,
//!   and write-behind — parameterized by a [`DiskSpec`] from the
//!   [`specs`] catalog of the drives the paper measured (Seagate
//!   Medallist ST52160, Cheetah ST34501W, Barracuda ST34371W).
//!
//! The paper's prototype "drive" was two Medallists behind a software
//! striping driver (§4.2); [`StripedModel`] reproduces exactly that
//! arrangement for the performance experiments.

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

mod device;
mod model;
pub mod specs;

pub use device::{BlockDevice, CrashDisk, DiskError, MemDisk, SharedDisk};
pub use model::{DiskModel, DiskOp, StripedModel};
pub use specs::DiskSpec;
