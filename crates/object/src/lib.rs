//! The NASD drive object system — the paper's primary contribution (§4).
//!
//! A NASD drive "presents a flat name space of variable-length objects"
//! with per-object attributes, soft partitions, copy-on-write versions and
//! cryptographic capability enforcement. This crate implements the whole
//! drive:
//!
//! * [`ObjectStore`] — object access, disk space management and the block
//!   cache (the paper's prototype implemented "its own internal object
//!   access, cache, and disk space management modules");
//! * [`DriveSecurity`] — the one `authorize` step: a request's declared
//!   authority ([`nasd_proto::RequestBody::authority`]) checked against
//!   its capability or key under the four-level key hierarchy, with
//!   anti-replay protection;
//! * [`NasdDrive`] — the request pipeline tying the two together behind
//!   the wire protocol of [`nasd_proto`]: inject faults → authorize →
//!   execute → commit → account;
//! * [`CostMeter`] — instruction accounting for the request code paths,
//!   calibrated against Table 1 of the paper.
//!
//! # Example
//!
//! ```
//! use nasd_object::NasdDrive;
//! use nasd_proto::{PartitionId, Rights};
//!
//! let mut drive = NasdDrive::builder(42).build();
//! let part = PartitionId(1);
//! drive.admin_create_partition(part, 1 << 20)?;
//!
//! // Mint a capability the way a file manager would, then use it.
//! let obj = drive.admin_create_object(part, 0)?;
//! let cap = drive.issue_capability(part, obj, Rights::READ | Rights::WRITE, 3600);
//! let client = drive.client(cap);
//! client.write(&mut drive, 0, b"hello nasd")?;
//! assert_eq!(client.read(&mut drive, 0, 10)?, b"hello nasd");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod cache;
mod cost;
mod drive;
pub mod layout;
pub mod persist;
mod security;
mod store;
mod wal;

pub use alloc::{Allocator, Extent};
pub use cache::{BlockCache, CacheStats};
pub use cost::{CostMeter, OpCost, OpKind};
pub use drive::{
    ClientHandle, DriveBuilder, DriveConfig, DriveFaultConfig, NasdDrive, ServiceReport,
};
pub use layout::{checksum64, Layout};
pub use security::{DriveSecurity, ReplayWindow};
pub use store::{ObjectStore, PartitionStats, StoreError, FIRST_DYNAMIC_OBJECT};
pub use wal::{BlockRuns, WalRecord};
